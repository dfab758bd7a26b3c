//! A thin, owned dense vector of `f64` with the operations the rest of the
//! workspace needs: arithmetic, dot products, norms, means and variances,
//! and centering (projecting out the all-ones direction, which is how gossip
//! averaging error is measured).

use crate::{LinalgError, Result};
use std::ops::{Add, AddAssign, Index, IndexMut, Mul, Neg, Sub, SubAssign};

/// An owned dense vector of `f64`.
///
/// `Vector` is the value type used for node states, eigenvectors, and
/// intermediate quantities throughout the workspace.  It is intentionally a
/// plain newtype over `Vec<f64>`; callers who need the raw storage can use
/// [`Vector::as_slice`].
///
/// # Examples
///
/// ```
/// use gossip_linalg::Vector;
///
/// let v = Vector::from(vec![1.0, 2.0, 3.0]);
/// assert_eq!(v.len(), 3);
/// assert!((v.mean() - 2.0).abs() < 1e-12);
/// assert!((v.dot(&v)? - 14.0).abs() < 1e-12);
/// # Ok::<(), gossip_linalg::LinalgError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Vector(Vec<f64>);

impl Vector {
    /// Creates a vector of `len` zeros.
    pub fn zeros(len: usize) -> Self {
        Vector(vec![0.0; len])
    }

    /// Creates a vector of `len` ones.
    pub fn ones(len: usize) -> Self {
        Vector(vec![1.0; len])
    }

    /// Creates a vector whose entries are all `value`.
    pub fn constant(len: usize, value: f64) -> Self {
        Vector(vec![value; len])
    }

    /// Creates the `i`-th canonical basis vector of dimension `len`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= len`.
    pub fn basis(len: usize, i: usize) -> Self {
        assert!(i < len, "basis index {i} out of range for dimension {len}");
        let mut v = vec![0.0; len];
        v[i] = 1.0;
        Vector(v)
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Returns `true` if the vector has no entries.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// Borrows the entries as a slice.
    pub fn as_slice(&self) -> &[f64] {
        &self.0
    }

    /// Iterates over the entries.
    pub fn iter(&self) -> std::slice::Iter<'_, f64> {
        self.0.iter()
    }

    /// Iterates mutably over the entries.
    pub fn iter_mut(&mut self) -> std::slice::IterMut<'_, f64> {
        self.0.iter_mut()
    }

    /// Dot product with another vector.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::DimensionMismatch`] if the lengths differ.
    pub fn dot(&self, other: &Vector) -> Result<f64> {
        self.check_same_len(other)?;
        Ok(self.0.iter().zip(other.0.iter()).map(|(a, b)| a * b).sum())
    }

    /// Euclidean (ℓ2) norm.
    pub fn norm(&self) -> f64 {
        self.0.iter().map(|x| x * x).sum::<f64>().sqrt()
    }

    /// Sum of all entries.
    pub fn sum(&self) -> f64 {
        self.0.iter().sum()
    }

    /// Arithmetic mean of the entries; `0.0` for the empty vector.
    pub fn mean(&self) -> f64 {
        if self.0.is_empty() {
            0.0
        } else {
            self.sum() / self.0.len() as f64
        }
    }

    /// Population variance of the entries (divides by `n`, not `n − 1`),
    /// matching the paper's `var X(t) = Σ (x_i − x_av)² / |V|`.
    pub fn variance(&self) -> f64 {
        if self.0.is_empty() {
            return 0.0;
        }
        let mean = self.mean();
        self.0.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / self.0.len() as f64
    }

    /// Minimum entry; `None` for the empty vector.
    pub fn min(&self) -> Option<f64> {
        self.0.iter().copied().reduce(f64::min)
    }

    /// Maximum entry; `None` for the empty vector.
    pub fn max(&self) -> Option<f64> {
        self.0.iter().copied().reduce(f64::max)
    }

    /// Returns a copy scaled by `factor`.
    pub fn scaled(&self, factor: f64) -> Vector {
        Vector(self.0.iter().map(|x| x * factor).collect())
    }

    /// Scales the vector in place by `factor`.
    pub fn scale_in_place(&mut self, factor: f64) {
        for x in &mut self.0 {
            *x *= factor;
        }
    }

    /// In-place `self += alpha * other` (the classic axpy update).
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::DimensionMismatch`] if the lengths differ.
    pub fn axpy(&mut self, alpha: f64, other: &Vector) -> Result<()> {
        self.check_same_len(other)?;
        for (a, b) in self.0.iter_mut().zip(other.0.iter()) {
            *a += alpha * b;
        }
        Ok(())
    }

    /// Componentwise distance `‖self − other‖₂`.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::DimensionMismatch`] if the lengths differ.
    pub fn distance(&self, other: &Vector) -> Result<f64> {
        self.check_same_len(other)?;
        Ok(self
            .0
            .iter()
            .zip(other.0.iter())
            .map(|(a, b)| (a - b) * (a - b))
            .sum::<f64>()
            .sqrt())
    }

    fn check_same_len(&self, other: &Vector) -> Result<()> {
        if self.len() != other.len() {
            Err(LinalgError::DimensionMismatch {
                expected: self.len(),
                actual: other.len(),
            })
        } else {
            Ok(())
        }
    }
}

impl From<Vec<f64>> for Vector {
    fn from(v: Vec<f64>) -> Self {
        Vector(v)
    }
}

impl From<&[f64]> for Vector {
    fn from(v: &[f64]) -> Self {
        Vector(v.to_vec())
    }
}

impl FromIterator<f64> for Vector {
    fn from_iter<T: IntoIterator<Item = f64>>(iter: T) -> Self {
        Vector(iter.into_iter().collect())
    }
}

impl Extend<f64> for Vector {
    fn extend<T: IntoIterator<Item = f64>>(&mut self, iter: T) {
        self.0.extend(iter);
    }
}

impl IntoIterator for Vector {
    type Item = f64;
    type IntoIter = std::vec::IntoIter<f64>;

    fn into_iter(self) -> Self::IntoIter {
        self.0.into_iter()
    }
}

impl<'a> IntoIterator for &'a Vector {
    type Item = &'a f64;
    type IntoIter = std::slice::Iter<'a, f64>;

    fn into_iter(self) -> Self::IntoIter {
        self.0.iter()
    }
}

impl Index<usize> for Vector {
    type Output = f64;

    fn index(&self, index: usize) -> &f64 {
        &self.0[index]
    }
}

impl IndexMut<usize> for Vector {
    fn index_mut(&mut self, index: usize) -> &mut f64 {
        &mut self.0[index]
    }
}

impl Add<&Vector> for &Vector {
    type Output = Vector;

    fn add(self, rhs: &Vector) -> Vector {
        assert_eq!(self.len(), rhs.len(), "vector addition length mismatch");
        Vector(
            self.0
                .iter()
                .zip(rhs.0.iter())
                .map(|(a, b)| a + b)
                .collect(),
        )
    }
}

impl Sub<&Vector> for &Vector {
    type Output = Vector;

    fn sub(self, rhs: &Vector) -> Vector {
        assert_eq!(self.len(), rhs.len(), "vector subtraction length mismatch");
        Vector(
            self.0
                .iter()
                .zip(rhs.0.iter())
                .map(|(a, b)| a - b)
                .collect(),
        )
    }
}

impl Mul<f64> for &Vector {
    type Output = Vector;

    fn mul(self, rhs: f64) -> Vector {
        self.scaled(rhs)
    }
}

impl Neg for &Vector {
    type Output = Vector;

    fn neg(self) -> Vector {
        self.scaled(-1.0)
    }
}

impl AddAssign<&Vector> for Vector {
    fn add_assign(&mut self, rhs: &Vector) {
        assert_eq!(self.len(), rhs.len(), "vector addition length mismatch");
        for (a, b) in self.0.iter_mut().zip(rhs.0.iter()) {
            *a += b;
        }
    }
}

impl SubAssign<&Vector> for Vector {
    fn sub_assign(&mut self, rhs: &Vector) {
        assert_eq!(self.len(), rhs.len(), "vector subtraction length mismatch");
        for (a, b) in self.0.iter_mut().zip(rhs.0.iter()) {
            *a -= b;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn close(a: f64, b: f64) -> bool {
        (a - b).abs() < 1e-10
    }

    #[test]
    fn zeros_ones_constant() {
        assert_eq!(Vector::zeros(3).as_slice(), &[0.0, 0.0, 0.0]);
        assert_eq!(Vector::ones(2).as_slice(), &[1.0, 1.0]);
        assert_eq!(Vector::constant(2, 7.5).as_slice(), &[7.5, 7.5]);
    }

    #[test]
    fn basis_vector() {
        let e1 = Vector::basis(4, 1);
        assert_eq!(e1.as_slice(), &[0.0, 1.0, 0.0, 0.0]);
        assert!(close(e1.norm(), 1.0));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn basis_out_of_range_panics() {
        let _ = Vector::basis(3, 3);
    }

    #[test]
    fn dot_and_norms() {
        let a = Vector::from(vec![3.0, -4.0]);
        assert!(close(a.norm(), 5.0));
        let b = Vector::from(vec![1.0, 2.0]);
        assert!(close(a.dot(&b).unwrap(), -5.0));
    }

    #[test]
    fn dot_dimension_mismatch() {
        let a = Vector::zeros(2);
        let b = Vector::zeros(3);
        assert!(matches!(
            a.dot(&b),
            Err(LinalgError::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn mean_and_variance() {
        let v = Vector::from(vec![1.0, 2.0, 3.0, 4.0]);
        assert!(close(v.mean(), 2.5));
        assert!(close(v.variance(), 1.25));
        assert!(close(Vector::zeros(0).mean(), 0.0));
        assert!(close(Vector::zeros(0).variance(), 0.0));
    }

    #[test]
    fn min_max() {
        let v = Vector::from(vec![2.0, -7.0, 4.0]);
        assert_eq!(v.min(), Some(-7.0));
        assert_eq!(v.max(), Some(4.0));
        assert_eq!(Vector::zeros(0).min(), None);
    }

    #[test]
    fn axpy_updates_in_place() {
        let mut a = Vector::from(vec![1.0, 1.0]);
        let b = Vector::from(vec![2.0, -1.0]);
        a.axpy(0.5, &b).unwrap();
        assert_eq!(a.as_slice(), &[2.0, 0.5]);
    }

    #[test]
    fn operator_overloads() {
        let a = Vector::from(vec![1.0, 2.0]);
        let b = Vector::from(vec![3.0, 5.0]);
        assert_eq!((&a + &b).as_slice(), &[4.0, 7.0]);
        assert_eq!((&b - &a).as_slice(), &[2.0, 3.0]);
        assert_eq!((&a * 2.0).as_slice(), &[2.0, 4.0]);
        assert_eq!((-&a).as_slice(), &[-1.0, -2.0]);
        let mut c = a.clone();
        c += &b;
        assert_eq!(c.as_slice(), &[4.0, 7.0]);
        c -= &b;
        assert_eq!(c.as_slice(), a.as_slice());
    }

    #[test]
    fn collect_and_extend() {
        let v: Vector = (0..4).map(|i| i as f64).collect();
        assert_eq!(v.as_slice(), &[0.0, 1.0, 2.0, 3.0]);
        let mut w = Vector::zeros(1);
        w.extend([2.0, 3.0]);
        assert_eq!(w.as_slice(), &[0.0, 2.0, 3.0]);
    }

    #[test]
    fn indexing() {
        let mut v = Vector::from(vec![1.0, 2.0]);
        assert_eq!(v[1], 2.0);
        v[0] = 9.0;
        assert_eq!(v[0], 9.0);
    }

    proptest! {
        #[test]
        fn prop_variance_nonnegative(xs in proptest::collection::vec(-1e6f64..1e6, 0..64)) {
            let v = Vector::from(xs);
            prop_assert!(v.variance() >= 0.0);
        }

        #[test]
        fn prop_norm_triangle_inequality(
            xs in proptest::collection::vec(-1e3f64..1e3, 1..32),
            ys in proptest::collection::vec(-1e3f64..1e3, 1..32),
        ) {
            let n = xs.len().min(ys.len());
            let a = Vector::from(xs[..n].to_vec());
            let b = Vector::from(ys[..n].to_vec());
            let sum = &a + &b;
            prop_assert!(sum.norm() <= a.norm() + b.norm() + 1e-9);
        }

        #[test]
        fn prop_cauchy_schwarz(
            xs in proptest::collection::vec(-1e3f64..1e3, 1..32),
            ys in proptest::collection::vec(-1e3f64..1e3, 1..32),
        ) {
            let n = xs.len().min(ys.len());
            let a = Vector::from(xs[..n].to_vec());
            let b = Vector::from(ys[..n].to_vec());
            let lhs = a.dot(&b).unwrap().abs();
            let rhs = a.norm() * b.norm();
            prop_assert!(lhs <= rhs + 1e-6);
        }
    }
}
