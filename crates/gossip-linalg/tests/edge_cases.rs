//! Edge-case tests for the eigen/matrix substrate: empty, 1×1, and
//! symmetric-vs-asymmetric inputs.
//!
//! The spectral bounds in `gossip-core/src/bounds.rs` (`t_van_spectral`,
//! `BoundsSummary`) call straight into this crate and silently assume these
//! behaviours: a 0×0 matrix is rejected rather than decomposed, a 1×1
//! matrix has exactly one eigenpair, and asymmetric input is refused
//! instead of producing a garbage spectrum.  Pin them here so a future
//! eigensolver swap cannot change the contract unnoticed.  The values-only
//! entry, `SymmetricEigen::compute_eigenvalues`, keeps the same contract.

use gossip_linalg::{LinalgError, Matrix, SymmetricEigen, Vector};

// --- empty input ----------------------------------------------------------

#[test]
fn eigen_rejects_empty_matrix() {
    let empty = Matrix::zeros(0, 0);
    assert!(matches!(
        SymmetricEigen::compute(&empty),
        Err(LinalgError::Empty)
    ));
    assert!(matches!(
        SymmetricEigen::compute_eigenvalues(&empty),
        Err(LinalgError::Empty)
    ));
}

#[test]
fn from_rows_rejects_empty_and_ragged_input() {
    assert!(matches!(Matrix::from_rows(&[]), Err(LinalgError::Empty)));
    assert!(matches!(
        Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0]]),
        Err(LinalgError::RaggedRows)
    ));
}

#[test]
fn empty_vector_statistics_are_well_defined() {
    let v = Vector::zeros(0);
    assert!(v.is_empty());
    assert_eq!(v.sum(), 0.0);
    assert_eq!(v.min(), None);
    assert_eq!(v.max(), None);
    assert_eq!(v.norm(), 0.0);
}

// --- 1×1 input ------------------------------------------------------------

#[test]
fn eigen_of_one_by_one_matrix_is_the_entry() {
    let m = Matrix::from_rows(&[vec![-3.5]]).unwrap();
    let eig = SymmetricEigen::compute(&m).unwrap();
    assert_eq!(eig.eigenvalues().len(), 1);
    assert!((eig.eigenvalues()[0] - (-3.5)).abs() < 1e-12);
    assert_eq!(eig.eigenvectors().len(), 1);
    assert!((eig.eigenvectors()[0].norm() - 1.0).abs() < 1e-12);
    assert!((eig.smallest() - eig.largest()).abs() < 1e-12);
    // There is no second-smallest eigenvalue of a 1×1 matrix.
    assert!(matches!(eig.second_smallest(), Err(LinalgError::Empty)));
    assert!(matches!(
        eig.second_smallest_eigenvector(),
        Err(LinalgError::Empty)
    ));
    assert_eq!(SymmetricEigen::compute_eigenvalues(&m).unwrap(), vec![-3.5]);
}

#[test]
fn one_by_one_matrix_helpers_are_consistent() {
    let m = Matrix::from_rows(&[vec![2.0]]).unwrap();
    assert!(m.is_square());
    assert!(m.is_symmetric(0.0));
    assert_eq!(m.trace().unwrap(), 2.0);
    assert_eq!(m.frobenius_norm(), 2.0);
    assert_eq!(m.transpose().get(0, 0), 2.0);
}

// --- symmetric vs. asymmetric input --------------------------------------

#[test]
fn eigen_rejects_asymmetric_matrix() {
    // Refused before any rotation, not rotated into `NoConvergence` or a
    // garbage spectrum.
    let asym = Matrix::from_rows(&[vec![1.0, 2.0], vec![0.0, 1.0]]).unwrap();
    assert!(matches!(
        SymmetricEigen::compute(&asym),
        Err(LinalgError::NotSymmetric)
    ));
    assert!(matches!(
        SymmetricEigen::compute_eigenvalues(&asym),
        Err(LinalgError::NotSymmetric)
    ));
}

#[test]
fn eigen_rejects_non_square_matrix() {
    // The shape is checked first: a 0×3 matrix is not square rather than
    // empty.
    for (rows, cols) in [(0, 3), (2, 3), (3, 2)] {
        let rect = Matrix::zeros(rows, cols);
        let expected = LinalgError::NotSquare { rows, cols };
        assert_eq!(SymmetricEigen::compute(&rect).unwrap_err(), expected);
        assert_eq!(
            SymmetricEigen::compute_eigenvalues(&rect).unwrap_err(),
            expected
        );
    }
}

#[test]
fn eigenvalues_alone_come_back_ascending_in_computes_order() {
    let m = Matrix::from_rows(&[
        vec![3.0, 1.0, 0.0, 0.5],
        vec![1.0, -2.0, 0.25, 0.0],
        vec![0.0, 0.25, 7.0, -1.0],
        vec![0.5, 0.0, -1.0, 0.0],
    ])
    .unwrap();
    let values = SymmetricEigen::compute_eigenvalues(&m).unwrap();
    assert!(values.windows(2).all(|w| w[0] <= w[1]), "{values:?}");
    let full = SymmetricEigen::compute(&m).unwrap();
    let bits = |xs: &[f64]| xs.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    assert_eq!(bits(&values), bits(full.eigenvalues()));
    let diagonal = Matrix::from_diagonal(&[3.0, -1.0, 2.0]);
    assert_eq!(
        SymmetricEigen::compute_eigenvalues(&diagonal).unwrap(),
        vec![-1.0, 2.0, 3.0]
    );
}

#[test]
fn symmetry_check_tolerance_is_respected() {
    // Off-symmetric by 1e-9: rejected at tol 0, accepted at tol 1e-6.
    let nearly = Matrix::from_rows(&[vec![1.0, 1.0 + 1e-9], vec![1.0, 1.0]]).unwrap();
    assert!(!nearly.is_symmetric(0.0));
    assert!(nearly.is_symmetric(1e-6));
}

#[test]
fn symmetric_eigen_reconstructs_the_matrix() {
    // A·v = λ·v for every pair, and Σλ = trace — on a matrix with known
    // distinct eigenvalues {1, 3} (the 2×2 [[2,1],[1,2]]).
    let m = Matrix::from_rows(&[vec![2.0, 1.0], vec![1.0, 2.0]]).unwrap();
    let eig = SymmetricEigen::compute(&m).unwrap();
    assert!((eig.eigenvalues()[0] - 1.0).abs() < 1e-9);
    assert!((eig.eigenvalues()[1] - 3.0).abs() < 1e-9);
    for (lambda, v) in eig.eigenvalues().iter().zip(eig.eigenvectors()) {
        let av = m.matvec(v).unwrap();
        let mut scaled = v.clone();
        scaled.scale_in_place(*lambda);
        assert!(av.distance(&scaled).unwrap() < 1e-9);
    }
    let trace_sum: f64 = eig.eigenvalues().iter().sum();
    assert!((trace_sum - m.trace().unwrap()).abs() < 1e-9);
}

#[test]
fn asymmetric_matrix_still_supports_non_spectral_operations() {
    // transpose/matmul/matvec must not require symmetry.
    let a = Matrix::from_rows(&[vec![0.0, 1.0], vec![0.0, 0.0]]).unwrap();
    let at = a.transpose();
    assert_eq!(at.get(1, 0), 1.0);
    let product = a.matmul(&at).unwrap();
    assert_eq!(product.get(0, 0), 1.0);
    assert_eq!(product.get(1, 1), 0.0);
    let x = Vector::from(vec![2.0, 5.0]);
    let ax = a.matvec(&x).unwrap();
    assert_eq!(ax.as_slice(), &[5.0, 0.0]);
}
