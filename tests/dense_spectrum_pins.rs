//! Bit-identity pins for the dense symmetric eigensolver.
//!
//! `SymmetricEigen` (cyclic Jacobi, Golub & Van Loan §8.5) is the
//! workspace's spectral oracle: the sparse tier is tested against it, and
//! Algorithm A's epoch length `⌈C·(T_van(G₁)+T_van(G₂))·ln n⌉` comes from
//! its eigenvalues.  A change to its rotation loop that reorders a single
//! floating-point operation moves these bits, and with them every `T_van`
//! estimate and epoch length downstream.
//!
//! Each pin is an FNV-1a hash of the `to_bits()` of every eigenvalue and
//! then every eigenvector entry, in the solver's output order.  Graph cases
//! also fold in `SpectralProfile::compute_dense`'s λ₂ and λ_max and
//! `algebraic_connectivity`, which read the eigenvalues alone.
//!
//! The always-run sizes sit just below, at and just above multiples of
//! eight doubles (one 64-byte cache line), with odd and even line counts,
//! so a change to how the working matrix is padded meets each of its
//! cases.  The `#[ignore]`d cases are the blocks `perfbench --workload
//! paper-estimate` solves and one graph at the dense/sparse dispatch
//! threshold; a 256-node solve takes seconds in a debug build, so they run
//! in release:
//! `cargo test --release -q --test dense_spectrum_pins -- --ignored`.

use sparse_cut_gossip::core::bounds::t_van_spectral_block;
use sparse_cut_gossip::graph::generators::{complete, path, ring_of_cliques};
use sparse_cut_gossip::graph::laplacian::laplacian;
use sparse_cut_gossip::graph::partition::Block;
use sparse_cut_gossip::graph::spectral::{
    algebraic_connectivity, SpectralProfile, SPARSE_DISPATCH_THRESHOLD,
};
use sparse_cut_gossip::graph::Graph;
use sparse_cut_gossip::linalg::{Matrix, SymmetricEigen};
use sparse_cut_gossip::workloads::Scenario;

/// The 64-bit FNV-1a hash of a sequence of little-endian `u64` words.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, value: u64) {
        for byte in value.to_le_bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn float(&mut self, value: f64) {
        self.word(value.to_bits());
    }
}

/// Hashes the full decomposition of `matrix`: its order, every eigenvalue,
/// then every eigenvector entry.
fn eigen_hash(matrix: &Matrix) -> Fnv {
    let eig = SymmetricEigen::compute(matrix).unwrap();
    let mut hash = Fnv::new();
    hash.word(matrix.rows() as u64);
    for &value in eig.eigenvalues() {
        hash.float(value);
    }
    for vector in eig.eigenvectors() {
        for &entry in vector.as_slice() {
            hash.float(entry);
        }
    }
    hash
}

/// [`eigen_hash`] of the graph's Laplacian, plus the eigenvalue-only
/// readers' λ₂ and λ_max when the graph has a second eigenvalue.
fn graph_pin(graph: &Graph) -> u64 {
    let mut hash = eigen_hash(&laplacian(graph));
    if graph.node_count() >= 2 {
        let profile = SpectralProfile::compute_dense(graph).unwrap();
        hash.float(profile.algebraic_connectivity);
        hash.float(profile.laplacian_lambda_max);
        hash.float(algebraic_connectivity(graph).unwrap());
    }
    hash.0
}

/// A symmetric matrix with entries uniform in `[-1, 1)`, drawn from a
/// splitmix64 stream in upper-triangle row order.
fn random_symmetric(n: usize, seed: u64) -> Matrix {
    let mut state = seed;
    let mut next = || {
        state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^= z >> 31;
        (z >> 11) as f64 / (1u64 << 53) as f64 * 2.0 - 1.0
    };
    let mut upper = vec![0.0; n * n];
    for i in 0..n {
        for j in i..n {
            upper[i * n + j] = next();
        }
    }
    Matrix::from_fn(n, n, |i, j| upper[i.min(j) * n + i.max(j)])
}

/// Seed of [`random_symmetric`] for the always-run pins.
const RANDOM_SEED: u64 = 0x5eed_d0e5;

/// The always-run sizes: 1–3, and one below, at and above 8, 16 and 64.
const SIZES: [usize; 11] = [1, 2, 3, 7, 8, 9, 16, 17, 63, 64, 65];

/// `ring_of_cliques` on `n` nodes, with the fewest cliques (at least two,
/// of at least two nodes each), if `n` factors that way.
fn ring_of_cliques_on(n: usize) -> Option<Graph> {
    let cliques = (2..n).find(|&c| n.is_multiple_of(c) && n / c >= 2)?;
    Some(ring_of_cliques(cliques, n / cliques).unwrap().0)
}

/// Expected hashes, in the order the test computes them.
const PINS: &[(&str, u64)] = &[
    ("path(1)", 0x5e5a_3d9b_4587_3af9),
    ("complete(1)", 0x5e5a_3d9b_4587_3af9),
    ("random_symmetric(1)", 0x61b1_4b63_ad37_4c0b),
    ("path(2)", 0x32bf_68aa_ffa2_782f),
    ("complete(2)", 0x32bf_68aa_ffa2_782f),
    ("random_symmetric(2)", 0xcb08_19da_0c56_5f5e),
    ("path(3)", 0x6c64_85a1_b3b0_a015),
    ("complete(3)", 0xdd87_7666_be99_e266),
    ("random_symmetric(3)", 0x1012_66b4_4565_fd1d),
    ("path(7)", 0x9805_5732_b408_59d3),
    ("complete(7)", 0x0160_b796_0336_2cc2),
    ("random_symmetric(7)", 0x54af_c8dc_9b96_4117),
    ("path(8)", 0x73ee_5a34_2b12_d618),
    ("complete(8)", 0x260c_1497_5dde_e94f),
    ("ring_of_cliques(8)", 0xb525_3a5f_905b_7f5c),
    ("random_symmetric(8)", 0x7fee_d601_2cf9_cb7d),
    ("path(9)", 0x87d5_48fe_f8ad_5088),
    ("complete(9)", 0xac32_6f95_6c60_35ae),
    ("ring_of_cliques(9)", 0x70d9_2700_0d2e_2f33),
    ("random_symmetric(9)", 0x93bb_369f_a286_9783),
    ("path(16)", 0x9b71_491e_33dc_3d6c),
    ("complete(16)", 0x55e8_e310_e638_88fe),
    ("ring_of_cliques(16)", 0x3933_8493_32c3_80bc),
    ("random_symmetric(16)", 0xfd57_569e_ce55_ffb8),
    ("path(17)", 0x9ed8_b24f_e163_61a0),
    ("complete(17)", 0xe57f_83d0_4ad5_aad3),
    ("random_symmetric(17)", 0xd696_88ae_e10f_1fcb),
    ("path(63)", 0x13bf_ea0a_dcc7_6225),
    ("complete(63)", 0xaa1e_cfca_9b42_bf59),
    ("ring_of_cliques(63)", 0x8adb_8e78_55b8_a3cc),
    ("random_symmetric(63)", 0x4d5b_b027_acbb_3cdb),
    ("path(64)", 0x7528_9c45_fc91_5038),
    ("complete(64)", 0xa506_1656_3046_8391),
    ("ring_of_cliques(64)", 0x020a_59d5_7f60_48e1),
    ("random_symmetric(64)", 0x4cd8_1e83_47d1_8613),
    ("path(65)", 0x2936_98b3_485a_5390),
    ("complete(65)", 0xcac0_0781_6e9a_5da0),
    ("ring_of_cliques(65)", 0xecd2_8543_fa40_bdd6),
    ("random_symmetric(65)", 0x0807_6e09_a869_7060),
];

#[test]
fn dense_spectra_are_pinned_bit_for_bit() {
    let mut actual: Vec<(String, u64)> = Vec::new();
    for n in SIZES {
        actual.push((format!("path({n})"), graph_pin(&path(n).unwrap())));
        actual.push((format!("complete({n})"), graph_pin(&complete(n).unwrap())));
        if let Some(ring) = ring_of_cliques_on(n) {
            actual.push((format!("ring_of_cliques({n})"), graph_pin(&ring)));
        }
        let random = eigen_hash(&random_symmetric(n, RANDOM_SEED)).0;
        actual.push((format!("random_symmetric({n})"), random));
    }

    let expected: Vec<(String, u64)> = PINS
        .iter()
        .map(|&(name, hash)| (name.to_string(), hash))
        .collect();
    let rendered: Vec<String> = actual
        .iter()
        .map(|(name, hash)| format!("(\"{name}\", {hash:#018x}),"))
        .collect();
    assert!(actual == expected, "actual pins:\n{}", rendered.join("\n"));
}

/// The seeds `perfbench --workload paper-estimate` is measured at.
const BENCHMARK_SEEDS: [u64; 3] = [31, 4242, 7];

/// Both blocks of `ExpanderDumbbell { half: 256 }`, the two 256-node
/// solves behind `paper-estimate`'s `T_van` set-up: eigenvalues and Fiedler
/// vector of each block's Laplacian, and the `T_van` estimate
/// `SparseCutAlgorithm::from_partition` sums, which reads the eigenvalues
/// alone.
#[test]
#[ignore = "two 256-node dense solves; run in release with --ignored"]
fn paper_estimate_blocks_are_pinned_bit_for_bit() {
    let scenario = Scenario::ExpanderDumbbell { half: 256 };
    let instance = scenario.instantiate(BENCHMARK_SEEDS[0]).unwrap();
    // The family is a fixed construction: the seed reaches the clocks, not
    // the graph, so one instance stands for every benchmark seed.
    for seed in BENCHMARK_SEEDS {
        let other = scenario.instantiate(seed).unwrap();
        assert!(
            other.graph == instance.graph,
            "seed {seed} changed the graph"
        );
        for block in [Block::One, Block::Two] {
            assert_eq!(
                other.partition.block(block),
                instance.partition.block(block)
            );
        }
    }

    let mut actual = Vec::new();
    for block in [Block::One, Block::Two] {
        let nodes = instance.partition.block(block);
        let (subgraph, _) = instance.graph.induced_subgraph(nodes).unwrap();
        assert_eq!(subgraph.node_count(), 256);
        let eig = SymmetricEigen::compute(&laplacian(&subgraph)).unwrap();
        let mut hash = Fnv::new();
        for &value in eig.eigenvalues() {
            hash.float(value);
        }
        for &entry in eig.second_smallest_eigenvector().unwrap().as_slice() {
            hash.float(entry);
        }
        hash.float(t_van_spectral_block(&instance.graph, &instance.partition, block).unwrap());
        actual.push(hash.0);
    }
    let rendered: Vec<String> = actual.iter().map(|h| format!("{h:#018x}")).collect();
    assert_eq!(
        actual,
        [0xb870_fb82_1c78_b8b3, 0xb870_fb82_1c78_b8b3],
        "actual pins: {rendered:?}"
    );
}

/// The whole 512-node `ExpanderDumbbell { half: 256 }` graph: the largest
/// graph [`SpectralProfile::compute`] still sends to the dense solver.
#[test]
#[ignore = "a 512-node dense solve; run in release with --ignored"]
fn dispatch_threshold_graph_is_pinned_bit_for_bit() {
    let instance = Scenario::ExpanderDumbbell { half: 256 }
        .instantiate(BENCHMARK_SEEDS[0])
        .unwrap();
    let graph = &instance.graph;
    assert_eq!(graph.node_count(), SPARSE_DISPATCH_THRESHOLD);
    let eig = SymmetricEigen::compute(&laplacian(graph)).unwrap();
    let mut hash = Fnv::new();
    for &value in eig.eigenvalues() {
        hash.float(value);
    }
    for &entry in eig.second_smallest_eigenvector().unwrap().as_slice() {
        hash.float(entry);
    }
    let profile = SpectralProfile::compute(graph).unwrap();
    // Lanczos would not reproduce the dense λ₂ to the last bit.
    assert_eq!(
        profile.algebraic_connectivity.to_bits(),
        eig.eigenvalues()[1].to_bits(),
        "a graph at the threshold goes to the dense solver"
    );
    hash.float(profile.algebraic_connectivity);
    hash.float(profile.laplacian_lambda_max);
    assert_eq!(hash.0, 0x4819_081f_744f_a5d9, "{:#018x}", hash.0);
}
