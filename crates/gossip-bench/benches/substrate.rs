//! Criterion bench for the substrate layers: graph generation, spectral
//! quantities, the Poisson clock samplers, and the per-tick update cost of
//! the main algorithms.  These are the micro-benchmarks that explain where
//! the experiment harness spends its time.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use gossip_core::bounds;
use gossip_core::convex::VanillaGossip;
use gossip_core::sparse_cut::{SparseCutAlgorithm, SparseCutConfig};
use gossip_graph::generators::{dumbbell, erdos_renyi};
use gossip_graph::spectral::SpectralProfile;
use gossip_sim::clock::{EdgeClockQueue, GlobalTickProcess, TickProcess};
use gossip_sim::handler::{EdgeTickContext, EdgeTickHandler};
use std::time::Duration;

fn bench_graph_generation(c: &mut Criterion) {
    let mut group = c.benchmark_group("substrate_graph_generation");
    group.sample_size(10);
    group.warm_up_time(Duration::from_millis(500));
    group.measurement_time(Duration::from_secs(2));
    for &half in &[32usize, 64] {
        group.bench_with_input(BenchmarkId::new("dumbbell", 2 * half), &half, |b, &half| {
            b.iter(|| dumbbell(half).expect("valid dumbbell"))
        });
    }
    group.bench_function("erdos_renyi_128_p0.1", |b| {
        b.iter(|| erdos_renyi(128, 0.1, 7).expect("valid parameters"))
    });
    group.finish();
}

fn bench_spectral(c: &mut Criterion) {
    let mut group = c.benchmark_group("substrate_spectral");
    group.sample_size(10);
    group.warm_up_time(Duration::from_millis(500));
    group.measurement_time(Duration::from_secs(2));
    for &n in &[16usize, 32, 64] {
        let graph = erdos_renyi(n, 0.4, 3).expect("valid parameters");
        group.bench_with_input(BenchmarkId::new("spectral_profile", n), &n, |b, _| {
            b.iter(|| SpectralProfile::compute(&graph).expect("connected sample"))
        });
    }
    let (graph, partition) = dumbbell(32).expect("valid dumbbell");
    group.bench_function("bounds_summary_dumbbell_64", |b| {
        b.iter(|| bounds::BoundsSummary::compute(&graph, &partition, 4.0).expect("valid"))
    });
    group.finish();
}

fn bench_clocks(c: &mut Criterion) {
    let mut group = c.benchmark_group("substrate_clocks");
    group.sample_size(10);
    group.warm_up_time(Duration::from_millis(500));
    group.measurement_time(Duration::from_secs(2));
    let graph = erdos_renyi(64, 0.3, 9).expect("valid parameters");
    group.bench_function("edge_clock_queue_10k_ticks", |b| {
        b.iter(|| {
            let mut clock = EdgeClockQueue::new(&graph, 1).expect("edges exist");
            let mut last = 0.0;
            for _ in 0..10_000 {
                last = clock.next_tick().time;
            }
            last
        })
    });
    group.bench_function("global_process_10k_ticks", |b| {
        b.iter(|| {
            let mut clock = GlobalTickProcess::new(&graph, 1).expect("edges exist");
            let mut last = 0.0;
            for _ in 0..10_000 {
                last = clock.next_tick().time;
            }
            last
        })
    });
    group.finish();
}

fn bench_per_tick_updates(c: &mut Criterion) {
    let mut group = c.benchmark_group("substrate_per_tick_update");
    group.sample_size(10);
    group.warm_up_time(Duration::from_millis(500));
    group.measurement_time(Duration::from_secs(2));
    let (graph, partition) = dumbbell(32).expect("valid dumbbell");
    let initial =
        gossip_core::averaging_time::AveragingTimeEstimator::adversarial_initial(&partition);
    let edge_id = gossip_graph::EdgeId(0);
    let ctx = EdgeTickContext {
        graph: &graph,
        edge: graph.edge(edge_id).expect("edge exists"),
        edge_id,
        time: 1.0,
        global_tick_count: 1,
    };

    group.bench_function("vanilla_tick", |b| {
        let mut values = initial.clone();
        let mut algorithm = VanillaGossip::new();
        b.iter(|| algorithm.on_edge_tick(&mut values, &ctx))
    });
    group.bench_function("algorithm_a_tick", |b| {
        let mut values = initial.clone();
        let mut algorithm =
            SparseCutAlgorithm::from_partition(&graph, &partition, SparseCutConfig::default())
                .expect("valid partition");
        b.iter(|| algorithm.on_edge_tick(&mut values, &ctx))
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_graph_generation,
    bench_spectral,
    bench_clocks,
    bench_per_tick_updates
);
criterion_main!(benches);
