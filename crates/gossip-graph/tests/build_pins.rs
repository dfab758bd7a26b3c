//! Bit-identity pins for graph construction.
//!
//! The asynchronous model attaches one Poisson clock to every edge id, and
//! the engine and the spectral code walk each node's adjacency slice in
//! order, so a change to `GraphBuilder` or to a generator that renumbers an
//! edge or reorders a neighbour list changes every downstream run.  Each pin
//! is an FNV-1a hash of the node and edge counts, the edge list in id order,
//! every node's `(neighbour, edge)` slice in node order and, for the
//! sparse-cut families, the partition's cut edge ids.

use gossip_graph::dynamic::DynamicGraphView;
use gossip_graph::generators::{
    bridged_clusters, chordal_ring, erdos_renyi, expander_barbell, expander_dumbbell,
    grid_corridor, random_regular, ring_of_cliques, torus2d, two_block_sbm,
};
use gossip_graph::{EdgeId, Graph, NodeId, Partition};
use rand::seq::SliceRandom;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::collections::BTreeSet;

/// The 64-bit FNV-1a hash of a sequence of little-endian `u64` words.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, value: usize) {
        for byte in (value as u64).to_le_bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

fn graph_hash(graph: &Graph) -> Fnv {
    let mut hash = Fnv::new();
    hash.word(graph.node_count());
    hash.word(graph.edge_count());
    for edge in graph.edges() {
        hash.word(edge.u().index());
        hash.word(edge.v().index());
    }
    for node in graph.nodes() {
        for (neighbour, edge) in graph.neighbors(node) {
            hash.word(neighbour.index());
            hash.word(edge.index());
        }
    }
    hash
}

fn pin(graph: gossip_graph::Result<Graph>) -> u64 {
    graph_hash(&graph.unwrap()).0
}

fn pin_cut(built: gossip_graph::Result<(Graph, Partition)>) -> u64 {
    let (graph, partition) = built.unwrap();
    let mut hash = graph_hash(&graph);
    hash.word(partition.block_one_size());
    for edge in partition.cut_edges() {
        hash.word(edge.index());
    }
    hash.0
}

/// The stub pairing of `random_regular(n, d, seed)`'s first attempt.
fn first_regular_attempt(n: usize, d: usize, seed: u64) -> Vec<(usize, usize)> {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut stubs: Vec<usize> = (0..n).flat_map(|v| std::iter::repeat_n(v, d)).collect();
    stubs.shuffle(&mut rng);
    stubs
        .chunks(2)
        .map(|pair| (pair[0].min(pair[1]), pair[0].max(pair[1])))
        .collect()
}

/// `random_regular(16, 4, REGULAR_SEED)` rejects its first attempt for a
/// parallel edge, not a self-loop.
const REGULAR_SEED: u64 = 0;

#[test]
fn random_regular_pin_seed_draws_a_parallel_edge_first() {
    let pairs = first_regular_attempt(16, 4, REGULAR_SEED);
    assert!(pairs.iter().all(|&(a, b)| a != b), "no self-loop");
    let distinct: BTreeSet<(usize, usize)> = pairs.iter().copied().collect();
    assert!(distinct.len() < pairs.len(), "a parallel edge");
}

/// Expected hashes, in the order the test computes them.
const PINS: &[(&str, u64)] = &[
    ("chordal_ring(3)", 0x57f7_4d30_7b20_c8a5),
    ("chordal_ring(4)", 0x8b07_9b0c_9aa8_f627),
    ("chordal_ring(5)", 0xf6a5_6e15_0aa9_636a),
    ("chordal_ring(8)", 0x19e9_c73b_0f96_3159),
    ("chordal_ring(16)", 0x3800_5feb_ae37_b8ad),
    ("chordal_ring(17)", 0xea8f_75ca_ec90_1e70),
    ("chordal_ring(1000)", 0xe931_c6dc_6b8c_2985),
    ("chordal_ring(1024)", 0xc468_495a_a25f_911f),
    ("expander_dumbbell(256)", 0xe9ff_571b_3250_59a9),
    ("expander_barbell(1000, 2000)", 0x32e8_a6d3_5291_e9c8),
    ("ring_of_cliques(5, 4)", 0x9d02_6299_96cf_0d9c),
    ("torus2d(3, 3)", 0x4291_a120_bf83_813e),
    ("torus2d(4, 5)", 0x07c0_0c4f_c8bb_7679),
    ("grid_corridor(4, 5, 2)", 0x1461_dcaa_6dd8_9ef8),
    ("bridged_clusters(6, 6, 20, 0.6, 3)", 0xf4a9_37dc_7f7c_2265),
    ("erdos_renyi(40, 0.2, 5)", 0x5485_a951_b31d_da37),
    ("two_block_sbm(12, 14, 0.5, 0.05, 9)", 0x1486_8d26_9ef7_ac03),
    ("random_regular(16, 4, REGULAR_SEED)", 0x79d1_c1ad_3fc2_8355),
    ("live_graph(chordal_ring(100))", 0x16ad_823f_4fbd_3bf2),
    ("induced_subgraph(chordal_ring(100))", 0x515f_9e22_f38b_5a10),
];

#[test]
fn generated_graphs_are_pinned_bit_for_bit() {
    let mut actual: Vec<(String, u64)> = [3, 4, 5, 8, 16, 17, 1000, 1024]
        .into_iter()
        .map(|n| (format!("chordal_ring({n})"), pin(chordal_ring(n))))
        .collect();
    for (name, hash) in [
        ("expander_dumbbell(256)", pin_cut(expander_dumbbell(256))),
        (
            "expander_barbell(1000, 2000)",
            pin_cut(expander_barbell(1000, 2000)),
        ),
        ("ring_of_cliques(5, 4)", pin_cut(ring_of_cliques(5, 4))),
        ("torus2d(3, 3)", pin(torus2d(3, 3))),
        ("torus2d(4, 5)", pin(torus2d(4, 5))),
        ("grid_corridor(4, 5, 2)", pin_cut(grid_corridor(4, 5, 2))),
        // 20 bridges drawn from 36 cross pairs: the draw repeats pairs.
        (
            "bridged_clusters(6, 6, 20, 0.6, 3)",
            pin_cut(bridged_clusters(6, 6, 20, 0.6, 3)),
        ),
        ("erdos_renyi(40, 0.2, 5)", pin(erdos_renyi(40, 0.2, 5))),
        (
            "two_block_sbm(12, 14, 0.5, 0.05, 9)",
            pin_cut(two_block_sbm(12, 14, 0.5, 0.05, 9)),
        ),
        (
            "random_regular(16, 4, REGULAR_SEED)",
            pin(random_regular(16, 4, REGULAR_SEED)),
        ),
    ] {
        actual.push((name.to_string(), hash));
    }

    let base = chordal_ring(100).unwrap();
    let mut view = DynamicGraphView::new(&base);
    for id in (0..base.edge_count()).step_by(3) {
        view.kill_edge(EdgeId(id)).unwrap();
    }
    actual.push((
        "live_graph(chordal_ring(100))".into(),
        pin(Ok(view.live_graph())),
    ));
    // Unsorted, with repeats: the subgraph relabels in sorted order.
    let nodes: Vec<NodeId> = (0..70)
        .rev()
        .step_by(2)
        .chain([5, 11, 69])
        .map(NodeId)
        .collect();
    let (sub, mapping) = base.induced_subgraph(&nodes).unwrap();
    let mut hash = graph_hash(&sub);
    for node in &mapping {
        hash.word(node.index());
    }
    actual.push(("induced_subgraph(chordal_ring(100))".into(), hash.0));

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

/// The most this test process may peak at: the graph stores `u32` ids, so
/// its edge table and adjacency take 8 bytes per edge and per half-edge
/// (416 MiB at 18 000 001 edges; `usize` ids took 832 MiB).
const MILLION_NODE_PEAK_MIB: u64 = 512;

/// This process's peak resident set (`VmHWM`) in MiB, or why it could not
/// be read.
fn peak_rss_mib() -> Result<u64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    let line = status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .ok_or("no VmHWM line")?;
    let kib: u64 = line
        .trim()
        .strip_suffix("kB")
        .and_then(|kib| kib.trim().parse().ok())
        .ok_or_else(|| format!("unparseable VmHWM line {line:?}"))?;
    Ok(kib / 1024)
}

/// The `million-relax` benchmark graph (10⁶ nodes, 18 000 001 edges), and
/// the peak memory of building it; run with `cargo test --release -p
/// gossip-graph -- --ignored`, the only test that command runs, so the peak
/// belongs to this graph alone.
#[test]
#[ignore = "builds a 10^6-node graph; run in release with --ignored"]
fn million_node_expander_dumbbell_is_pinned_bit_for_bit() {
    let hash = pin_cut(expander_dumbbell(500_000));
    assert_eq!(hash, 0x3aa1_0380_997d_a965, "{hash:#018x}");
    match peak_rss_mib() {
        Ok(peak) => assert!(
            peak <= MILLION_NODE_PEAK_MIB,
            "peak RSS {peak} MiB exceeds {MILLION_NODE_PEAK_MIB} MiB"
        ),
        Err(why) => println!("peak RSS bound skipped: /proc/self/status unreadable ({why})"),
    }
}
