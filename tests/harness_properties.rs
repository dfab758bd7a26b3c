//! The deterministic test-harness layer: seed-pinned property tests for the
//! invariants every future scale/perf PR must preserve.
//!
//! * every class `C` (convex) update conserves mass *exactly at every tick*
//!   and never increases the variance — checked by driving handlers tick by
//!   tick through the per-edge clock queue, not just end to end;
//! * the two clock models (per-edge queue vs. global uniform process) give
//!   statistically equivalent averaging-time estimates in situ;
//! * the Theorem 1 quantity `min(n₁,n₂)/|E₁₂|` really is a floor (up to the
//!   constant absorbed in `Ω(·)`) for vanilla gossip on dumbbell *and*
//!   barbell generators.
//!
//! All stochastic inputs are seed-pinned through the vendored deterministic
//! proptest (see `vendor/README.md`); two consecutive runs are identical.

mod common;

use common::{
    algorithm_a_factory, barbell_fixture, dumbbell_fixture, measure_averaging_time, seeds,
};
use proptest::prelude::*;
use sparse_cut_gossip::core::averaging_time::{AveragingTimeEstimator, EstimatorConfig};
use sparse_cut_gossip::prelude::*;
use sparse_cut_gossip::sim::clock::{EdgeClockQueue, TickProcess};
use sparse_cut_gossip::sim::engine::ClockModel;

/// Drives `handler` through `ticks` events of a per-edge clock queue,
/// asserting after every single tick that the sum is conserved and the
/// variance did not increase.  Returns an error message on violation so the
/// property harness reports the failing case.
fn check_class_c_tick_invariants<H: EdgeTickHandler>(
    graph: &Graph,
    mut values: NodeValues,
    mut handler: H,
    clock_seed: u64,
    ticks: usize,
) -> Result<(), String> {
    let mut clock = EdgeClockQueue::new(graph, clock_seed).expect("graph has edges");
    let initial_sum = values.sum();
    let mut last_variance = values.variance();
    for _ in 0..ticks {
        let event = clock.next_tick();
        let ctx = EdgeTickContext {
            graph,
            edge: event.endpoints,
            edge_id: event.edge,
            time: event.time,
            global_tick_count: event.global_tick_count,
        };
        handler.on_edge_tick(&mut values, &ctx);
        let sum = values.sum();
        if (sum - initial_sum).abs() > 1e-9 * initial_sum.abs().max(1.0) {
            return Err(format!(
                "mass not conserved at tick {}: {initial_sum} -> {sum}",
                event.global_tick_count
            ));
        }
        let variance = values.variance();
        if variance > last_variance + 1e-9 {
            return Err(format!(
                "variance increased at tick {}: {last_variance} -> {variance}",
                event.global_tick_count
            ));
        }
        last_variance = variance;
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Mass conservation + variance monotonicity for every bundled member of
    /// the paper's class `C`, at every tick, under arbitrary seeds, sizes,
    /// initial conditions, and convex weights.
    #[test]
    fn prop_class_c_members_conserve_mass_and_contract_variance(
        half in 3usize..8,
        alpha in 0.05f64..0.95,
        seed in 0u64..10_000,
    ) {
        let (graph, partition) = dumbbell_fixture(half);
        let initial = InitialCondition::Uniform { lo: -5.0, hi: 5.0 }
            .generate(graph.node_count(), Some(&partition), seed)
            .expect("valid initial condition");
        let handlers: Vec<Box<dyn EdgeTickHandler>> = vec![
            Box::new(VanillaGossip::new()),
            Box::new(WeightedConvexGossip::new(alpha).expect("alpha in (0,1)")),
            Box::new(RandomNeighborGossip::new(seed)),
        ];
        for handler in handlers {
            if let Err(message) = check_class_c_tick_invariants(
                &graph,
                initial.clone(),
                handler,
                seed.wrapping_add(1),
                400,
            ) {
                prop_assert!(false, "{message}");
            }
        }
    }

    /// The same per-tick invariants hold on the barbell (asymmetric blocks),
    /// so the class-C analysis does not silently depend on symmetry.
    #[test]
    fn prop_class_c_invariants_hold_on_asymmetric_barbell(
        left in 3usize..7,
        extra in 1usize..6,
        seed in 0u64..10_000,
    ) {
        let (graph, partition) = barbell_fixture(left, left + extra);
        let initial = InitialCondition::Gaussian { mean: 1.0, std: 2.0 }
            .generate(graph.node_count(), Some(&partition), seed)
            .expect("valid initial condition");
        if let Err(message) = check_class_c_tick_invariants(
            &graph,
            initial,
            VanillaGossip::new(),
            seed,
            400,
        ) {
            prop_assert!(false, "{message}");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Theorem 1 floor on the dumbbell: the measured vanilla averaging time
    /// never drops below a constant fraction of `min(n₁,n₂)/|E₁₂|`.  The
    /// constant 0.3 absorbs the `Ω(·)` of the theorem plus Monte-Carlo
    /// variance at 4 runs; seeds are pinned via the deterministic harness.
    #[test]
    fn prop_theorem1_bound_floors_vanilla_on_dumbbell(half in 4usize..12) {
        let (graph, partition) = dumbbell_fixture(half);
        let bound = theorem1_lower_bound(&partition);
        let measured = measure_averaging_time(
            &graph,
            &partition,
            VanillaGossip::new,
            seeds::HARNESS_THEOREM1_FLOOR + half as u64,
            200.0,
        );
        prop_assert!(
            measured > 0.3 * bound,
            "T_av {measured} below Theorem 1 floor {bound} at half={half}"
        );
    }

    /// Theorem 1 floor on the asymmetric barbell: the bound is
    /// `min(n₁,n₂)/1`, so it must track the *smaller* block.
    #[test]
    fn prop_theorem1_bound_floors_vanilla_on_barbell(
        left in 4usize..9,
        extra in 1usize..8,
    ) {
        let (graph, partition) = barbell_fixture(left, left + extra);
        let bound = theorem1_lower_bound(&partition);
        prop_assert!(
            (bound - left as f64).abs() < 1e-12,
            "barbell bound should equal the smaller block size"
        );
        let measured = measure_averaging_time(
            &graph,
            &partition,
            VanillaGossip::new,
            seeds::HARNESS_THEOREM1_FLOOR + 100 + (left * 13 + extra) as u64,
            200.0,
        );
        prop_assert!(
            measured > 0.3 * bound,
            "T_av {measured} below Theorem 1 floor {bound} at left={left}, extra={extra}"
        );
    }
}

/// The two clock samplers are interchangeable in situ: estimating the same
/// algorithm's averaging time under `PerEdgeQueue` and `GlobalUniform`
/// yields values within a factor absorbed by Monte-Carlo noise.  This is
/// the system-level counterpart of the distributional tests in
/// `gossip-sim/src/clock.rs`.
#[test]
fn clock_models_give_equivalent_averaging_times() {
    let (graph, partition) = dumbbell_fixture(10);
    let estimate_under = |model: ClockModel, seed: u64| {
        AveragingTimeEstimator::new(
            EstimatorConfig::new(seed)
                .with_runs(6)
                .with_max_time(5_000.0)
                .with_clock_model(model),
        )
        .estimate(&graph, &partition, VanillaGossip::new)
        .expect("estimation succeeds")
        .averaging_time
    };
    let per_edge = estimate_under(ClockModel::PerEdgeQueue, 7);
    let global = estimate_under(ClockModel::GlobalUniform, 7);
    assert!(
        per_edge < 2.5 * global && global < 2.5 * per_edge,
        "clock models disagree: per-edge {per_edge} vs global {global}"
    );
}

/// The exact tick streams of both samplers, pinned bit-for-bit.
///
/// This is the harness-level guard behind hot-loop refactors of the clock
/// code (the `peek_mut` single-sift re-arm, the batched global sampler):
/// any change that perturbs the delivered `(edge, time)` sequence — even
/// while remaining distributionally correct — silently reshuffles every
/// seeded experiment in the repository, so it must fail loudly here
/// instead.  The reference-implementation equivalence tests live in
/// `gossip-sim/src/clock.rs`; this pins the absolute stream.
#[test]
#[allow(clippy::excessive_precision)] // full-precision pins are the point
fn clock_tick_streams_are_pinned_bit_for_bit() {
    use sparse_cut_gossip::sim::clock::{EdgeClockQueue, GlobalTickProcess, TickProcess};
    let (graph, _) = dumbbell_fixture(3);
    let expected_queue = [
        (3usize, 3.58098696363254809e-1f64),
        (3, 4.93027336994565912e-1),
        (6, 5.88955697031959824e-1),
        (0, 5.98495752404341053e-1),
        (5, 7.67048511208316519e-1),
    ];
    let expected_global = [
        (3usize, 8.54993932006201524e-2f64),
        (2, 2.75347942269882129e-1),
        (3, 4.97170914808564401e-1),
        (0, 5.81307442955987241e-1),
        (2, 8.58302709213610182e-1),
    ];
    let mut queue = EdgeClockQueue::new(&graph, 2024).expect("graph has edges");
    let mut global = GlobalTickProcess::new(&graph, 2024).expect("graph has edges");
    for (clock, expected) in [
        (
            &mut queue as &mut dyn sparse_cut_gossip::sim::clock::TickProcess,
            &expected_queue,
        ),
        (&mut global, &expected_global),
    ] {
        for (tick, &(edge, time)) in expected.iter().enumerate() {
            let event = clock.next_tick();
            assert_eq!(event.edge.index(), edge, "tick {tick}");
            assert_eq!(event.time.to_bits(), time.to_bits(), "tick {tick}");
        }
        let _ = TickProcess::now(clock);
    }
}

/// The 64-bit FNV-1a hash of the first `ticks` events of a per-edge clock
/// queue: each event's edge index, then its time bits, both as little-endian
/// `u64`s.
fn queue_stream_hash(graph: &Graph, seed: u64, ticks: u64) -> u64 {
    let mut queue = EdgeClockQueue::new(graph, seed).expect("graph has edges");
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for _ in 0..ticks {
        let event = queue.next_tick();
        let edge = event.edge.index() as u64;
        for byte in edge
            .to_le_bytes()
            .into_iter()
            .chain(event.time.to_bits().to_le_bytes())
        {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    hash
}

/// The per-edge clock queue's stream, pinned far past the five ticks above:
/// a million ticks of the `paper-estimate` graph (3 841 edges), and long
/// streams of the smallest graph and of a small dense one.  Long enough for
/// every pending time to be re-armed hundreds of times, and for re-armed
/// times to land far past the next few expected ticks, so a queue that keeps
/// only near-term times in order is checked on the events it files away.
#[test]
fn long_clock_queue_streams_are_pinned_bit_for_bit() {
    let one_edge = Graph::from_edges(2, &[(0, 1)]).expect("one edge");
    let cases = [
        (
            "expander_dumbbell(256)",
            expander_dumbbell(256).expect("generator").0,
            1_000_000,
            0x5458_d9a8_cb80_b023u64,
        ),
        ("one edge", one_edge, 100_000, 0xfb68_ed3b_efd1_de65),
        (
            "complete(6)",
            complete(6).expect("generator"),
            100_000,
            0x4b38_dd51_419c_3bb6,
        ),
    ];
    for (name, graph, ticks, expected) in cases {
        assert_eq!(
            format!("{:016x}", queue_stream_hash(&graph, 2024, ticks)),
            format!("{expected:016x}"),
            "{name}, {ticks} ticks"
        );
    }
}

/// Exact determinism at the harness level: re-running the full estimator
/// pipeline with the same seed reproduces the averaging time bit for bit,
/// and both the vanilla and the Algorithm A estimates are pinned to the
/// bits the pipeline has always produced, so a refactor that shifts any
/// settling time fails here.
#[test]
fn estimator_pipeline_is_bit_deterministic() {
    let (graph, partition) = dumbbell_fixture(8);
    let estimator = AveragingTimeEstimator::new(
        EstimatorConfig::new(1234)
            .with_runs(3)
            .with_max_time(2_000.0),
    );
    let run = || {
        estimator
            .estimate(&graph, &partition, VanillaGossip::new)
            .expect("estimation succeeds")
    };
    let first = run();
    let second = run();
    assert!(
        first.averaging_time.to_bits() == second.averaging_time.to_bits(),
        "same seed must give bit-identical estimates: {} vs {}",
        first.averaging_time,
        second.averaging_time
    );
    let algo_a = estimator
        .estimate(&graph, &partition, algorithm_a_factory(&graph, &partition))
        .expect("estimation succeeds");
    // Pinned (averaging time, settling time of every run in run order),
    // compared bit for bit.
    for (estimate, averaging_time, settling_times) in [
        (
            &first,
            7.665845484892009f64,
            [7.6763803275224065f64, 7.665845484892009, 6.015238355367278],
        ),
        (
            &algo_a,
            8.65644710513203,
            [9.665735128208727, 8.65644710513203, 8.616253480456246],
        ),
    ] {
        assert_eq!(
            estimate.averaging_time.to_bits(),
            averaging_time.to_bits(),
            "{}",
            estimate.averaging_time
        );
        assert_eq!(estimate.settling_times.len(), settling_times.len());
        for (run, (got, want)) in estimate
            .settling_times
            .iter()
            .zip(settling_times)
            .enumerate()
        {
            assert_eq!(got.to_bits(), want.to_bits(), "run {run}: {got}");
        }
    }
    let first = first.averaging_time;
    // A different seed must explore a different sample path.
    let other = AveragingTimeEstimator::new(
        EstimatorConfig::new(1235)
            .with_runs(3)
            .with_max_time(2_000.0),
    )
    .estimate(&graph, &partition, VanillaGossip::new)
    .expect("estimation succeeds")
    .averaging_time;
    assert!(
        first.to_bits() != other.to_bits(),
        "different seeds should not collide bit-for-bit"
    );
}

/// The per-edge queue exposed through the facade is usable directly by
/// downstream crates (the API the bench probes rely on).
#[test]
fn facade_exposes_tick_process_interface() {
    let (graph, _) = dumbbell_fixture(4);
    let mut clock = EdgeClockQueue::new(&graph, 99).expect("graph has edges");
    let mut last = 0.0;
    for _ in 0..200 {
        let event = clock.next_tick();
        assert!(event.time >= last);
        last = event.time;
    }
    assert!(clock.now() > 0.0);
}
