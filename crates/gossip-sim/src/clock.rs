//! Samplers of the asynchronous edge-tick point process.
//!
//! The paper's model attaches an i.i.d. rate-1 Poisson clock to every edge.
//! Two standard, equivalent ways to sample the resulting sequence of
//! `(time, edge)` events are provided:
//!
//! * [`EdgeClockQueue`] — simulate every edge's clock explicitly: keep the
//!   next tick time of each edge in a priority queue and, after delivering an
//!   event, re-arm that edge with a fresh `Exp(1)` inter-arrival time.  This
//!   is the literal discrete-event view.
//! * [`GlobalTickProcess`] — use the superposition property: the union of
//!   `|E|` rate-1 processes is a rate-`|E|` Poisson process whose points are
//!   assigned to edges uniformly at random.  This is cheaper (`O(1)` per
//!   event) and is what large sweeps use.
//!
//! Every [`TickEvent`] carries the ticking edge's endpoints, so no consumer
//! indexes the edge table per tick.  The queue reads them as it pops an
//! event; the global process resolves a whole batch of draws in one pass
//! right after drawing it, where the table loads are independent of each
//! other and the CPU overlaps their cache misses.
//!
//! Neither sampler counts ticks per edge: the only per-edge count the paper
//! needs is Algorithm A's count of its designated edge, and that handler
//! keeps it itself.  Both samplers are deterministic functions of their
//! seed.

use crate::{Result, SimError};
use gossip_graph::{Edge, EdgeId, Graph};
use rand::prelude::*;
use rand_chacha::ChaCha8Rng;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// A single edge-clock tick.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TickEvent {
    /// Absolute time of the tick.
    pub time: f64,
    /// The edge whose clock ticked.
    pub edge: EdgeId,
    /// The endpoints of [`Self::edge`], as the graph stores them.
    pub endpoints: Edge,
    /// How many ticks of any edge have occurred so far, counting this one.
    pub global_tick_count: u64,
}

/// Common interface of the two tick samplers.
pub trait TickProcess {
    /// Produces the next tick event.
    fn next_tick(&mut self) -> TickEvent;

    /// The current simulated time (time of the last delivered event, `0.0`
    /// before any event).
    fn now(&self) -> f64;
}

/// Samples an `Exp(rate)` inter-arrival time.
///
/// # Panics
///
/// Panics if `rate` is not strictly positive.
#[inline]
pub fn exponential_sample<R: Rng + ?Sized>(rng: &mut R, rate: f64) -> f64 {
    assert!(rate > 0.0, "exponential rate must be positive, got {rate}");
    // Inverse-CDF sampling; `1 - u` avoids ln(0).
    let u: f64 = rng.gen::<f64>();
    -(1.0 - u).ln() / rate
}

#[derive(Debug, Clone, Copy, PartialEq)]
struct QueueEntry {
    time: f64,
    edge: EdgeId,
}

impl Eq for QueueEntry {}

impl Ord for QueueEntry {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert so the earliest time pops first.
        other
            .time
            .partial_cmp(&self.time)
            .expect("tick times are finite")
            .then_with(|| other.edge.index().cmp(&self.edge.index()))
    }
}

impl PartialOrd for QueueEntry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// Literal per-edge Poisson clocks, delivered in time order.
#[derive(Debug, Clone)]
pub struct EdgeClockQueue<'g> {
    /// The graph's edge table, read once per delivered tick.
    edges: &'g [Edge],
    queue: BinaryHeap<QueueEntry>,
    rng: ChaCha8Rng,
    global_tick_count: u64,
    now: f64,
    rate: f64,
}

impl<'g> EdgeClockQueue<'g> {
    /// Creates clocks for every edge of `graph`, each with rate 1, seeded
    /// deterministically.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::NoEdges`] if the graph has no edges.
    pub fn new(graph: &'g Graph, seed: u64) -> Result<Self> {
        Self::with_rate(graph, seed, 1.0)
    }

    /// Creates clocks with a custom common rate (useful in tests).
    ///
    /// # Errors
    ///
    /// Returns [`SimError::NoEdges`] if the graph has no edges, or
    /// [`SimError::InvalidConfig`] for a non-positive rate.
    pub fn with_rate(graph: &'g Graph, seed: u64, rate: f64) -> Result<Self> {
        if graph.edge_count() == 0 {
            return Err(SimError::NoEdges);
        }
        if rate <= 0.0 || !rate.is_finite() {
            return Err(SimError::InvalidConfig {
                reason: format!("clock rate must be positive and finite, got {rate}"),
            });
        }
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut entries = Vec::with_capacity(graph.edge_count());
        for edge in graph.edge_ids() {
            let t = exponential_sample(&mut rng, rate);
            entries.push(QueueEntry { time: t, edge });
        }
        // Heapify-in-place of the filled buffer.  The internal heap layout
        // may differ from an incremental build, but entries are totally
        // ordered (ties broken by edge index, no edge twice) so the *popped*
        // stream — the only thing the engine observes — is the sorted order
        // either way.
        let queue = BinaryHeap::from(entries);
        Ok(EdgeClockQueue {
            edges: graph.edges(),
            queue,
            rng,
            global_tick_count: 0,
            now: 0.0,
            rate,
        })
    }

    /// Crate-internal: captures the full resumable state.  The heap is
    /// exported in canonical (time, edge) sorted order: entries are totally
    /// ordered and no edge appears twice, so the popped stream — the only
    /// thing the engine observes — is independent of the internal layout,
    /// and the canonical order makes the serialized bytes deterministic.
    pub(crate) fn checkpoint_state(&self) -> EdgeClockQueueState {
        let mut entries: Vec<(f64, usize)> = self
            .queue
            .iter()
            .map(|e| (e.time, e.edge.index()))
            .collect();
        entries.sort_by(|a, b| {
            a.0.partial_cmp(&b.0)
                .expect("tick times are finite")
                .then_with(|| a.1.cmp(&b.1))
        });
        EdgeClockQueueState {
            entries,
            rng_word_pos: self.rng.get_word_pos(),
            global_tick_count: self.global_tick_count,
            now: self.now,
            rate: self.rate,
        }
    }

    /// Crate-internal: rebuilds the sampler from a checkpoint.  `seed` must
    /// be the seed the captured sampler was constructed with; the RNG is
    /// re-seeded and fast-forwarded to the captured keystream position, so
    /// every subsequent draw is bit-identical to the uninterrupted run.
    ///
    /// # Errors
    ///
    /// [`SimError::CheckpointInvalid`] unless the captured queue holds every
    /// edge of `graph` exactly once with a finite time.
    pub(crate) fn restore_state(
        graph: &'g Graph,
        seed: u64,
        state: &EdgeClockQueueState,
    ) -> Result<Self> {
        let mut seen = vec![false; graph.edge_count()];
        for &(time, edge) in &state.entries {
            if !time.is_finite() || edge >= seen.len() || seen[edge] {
                return Err(SimError::CheckpointInvalid {
                    reason: format!(
                        "clock queue entry ({time}, edge {edge}) has a non-finite time, an \
                         unknown edge, or an edge queued twice"
                    ),
                });
            }
            seen[edge] = true;
        }
        if state.entries.len() != graph.edge_count() {
            return Err(SimError::CheckpointInvalid {
                reason: format!(
                    "clock queue holds {} entries for {} edges",
                    state.entries.len(),
                    graph.edge_count()
                ),
            });
        }
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        rng.set_word_pos(state.rng_word_pos);
        let entries: Vec<QueueEntry> = state
            .entries
            .iter()
            .map(|&(time, edge)| QueueEntry {
                time,
                edge: EdgeId(edge),
            })
            .collect();
        Ok(EdgeClockQueue {
            edges: graph.edges(),
            queue: BinaryHeap::from(entries),
            rng,
            global_tick_count: state.global_tick_count,
            now: state.now,
            rate: state.rate,
        })
    }
}

/// Checkpointed state of an [`EdgeClockQueue`] (crate-internal; serialized
/// by `crate::checkpoint`).
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct EdgeClockQueueState {
    /// `(next tick time, edge index)` per edge, in canonical sorted order.
    pub(crate) entries: Vec<(f64, usize)>,
    /// Keystream position of the re-arm RNG.
    pub(crate) rng_word_pos: u128,
    /// Ticks delivered overall so far.
    pub(crate) global_tick_count: u64,
    /// Time of the last delivered tick.
    pub(crate) now: f64,
    /// Common clock rate.
    pub(crate) rate: f64,
}

impl TickProcess for EdgeClockQueue<'_> {
    #[inline]
    fn next_tick(&mut self) -> TickEvent {
        // Re-arm in place through `peek_mut`: writing the fresh arrival time
        // into the root entry and letting the `PeekMut` guard sift it down
        // costs one sift instead of the two a pop + push pair would.  The
        // delivered stream is unchanged: entries are totally ordered (ties
        // broken by edge index, and no edge appears twice), so the pop order
        // is the sorted order no matter how the heap is arranged internally
        // — `queue_rearm_matches_reference_pop_push` pins this bit-for-bit.
        let (time, edge) = {
            let mut head = self
                .queue
                .peek_mut()
                .expect("queue always holds one entry per edge");
            let (time, edge) = (head.time, head.edge);
            head.time = time + exponential_sample(&mut self.rng, self.rate);
            (time, edge)
        };
        self.now = time;
        self.global_tick_count += 1;
        TickEvent {
            time,
            edge,
            endpoints: self.edges[edge.index()],
            global_tick_count: self.global_tick_count,
        }
    }

    fn now(&self) -> f64 {
        self.now
    }
}

/// How many `(Δt, edge)` draws [`GlobalTickProcess`] precomputes per batch.
///
/// Batching amortizes the sampler's per-call overhead (rate recomputation,
/// RNG dispatch) over the engine's hottest loop.  Draws inside a batch
/// happen in exactly the per-tick order (`Exp` gap, then edge index), so the
/// ChaCha stream — and therefore every seeded output — is bit-identical to
/// the unbatched sampler's **at every batch width**: widening the batch
/// changes only how many draws are prefetched per refill, never which draws
/// occur or in what order.  The width was raised from the historical 256 for
/// the million-node tier (fewer `#[cold]` refill entries per million events);
/// `widened_batch_matches_historical_256_batches` pins the stream against a
/// 256-wide sampler bit-for-bit, and `prop_batch_width_is_stream_invariant`
/// pins arbitrary widths against unbatched single draws.
pub const GLOBAL_TICK_BATCH: usize = 1024;

/// Superposition sampler: a global rate-`|E|` Poisson process with uniform
/// edge assignment.
#[derive(Debug, Clone)]
pub struct GlobalTickProcess<'g> {
    /// The graph's edge table, read once per draw when a batch is resolved.
    edges: &'g [Edge],
    rng: ChaCha8Rng,
    global_tick_count: u64,
    now: f64,
    /// Precomputed `(inter-arrival gap, edge index)` pairs, in draw order.
    draws: Vec<(f64, usize)>,
    /// The endpoints of every entry of `draws`, resolved in one pass after
    /// the batch is drawn.
    endpoints: Vec<Edge>,
    /// Next unconsumed entry of the batch.
    batch_pos: usize,
    /// Draws prefetched per refill ([`GLOBAL_TICK_BATCH`] unless built
    /// through [`Self::with_batch_capacity`]); never affects the stream.
    batch_capacity: usize,
}

impl<'g> GlobalTickProcess<'g> {
    /// Creates the process for `graph` with rate 1 per edge.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::NoEdges`] if the graph has no edges.
    pub fn new(graph: &'g Graph, seed: u64) -> Result<Self> {
        Self::with_batch_capacity(graph, seed, GLOBAL_TICK_BATCH)
    }

    /// Like [`Self::new`] with an explicit batch width instead of
    /// [`GLOBAL_TICK_BATCH`].  The width only controls how many draws are
    /// prefetched per refill — the delivered tick stream is bit-identical
    /// for every width (draws happen in per-event order); this constructor
    /// exists so tests can pin that invariance against the historical
    /// 256-wide batches and against unbatched single draws.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::NoEdges`] if the graph has no edges, or
    /// [`SimError::InvalidConfig`] for a zero width.
    pub fn with_batch_capacity(graph: &'g Graph, seed: u64, capacity: usize) -> Result<Self> {
        if graph.edge_count() == 0 {
            return Err(SimError::NoEdges);
        }
        if capacity == 0 {
            return Err(SimError::InvalidConfig {
                reason: "global tick batch capacity must be at least 1".to_string(),
            });
        }
        Ok(GlobalTickProcess {
            edges: graph.edges(),
            rng: ChaCha8Rng::seed_from_u64(seed),
            global_tick_count: 0,
            now: 0.0,
            draws: Vec::with_capacity(capacity),
            endpoints: Vec::with_capacity(capacity),
            batch_pos: 0,
            batch_capacity: capacity,
        })
    }

    /// Crate-internal: captures the full resumable state.  The RNG position
    /// is taken *after* the last refill, so the unconsumed tail of the
    /// current batch must be captured verbatim — on restore it is replayed
    /// before the next refill draws from the repositioned stream.  Only the
    /// draws are captured; their endpoints are the graph's.
    pub(crate) fn checkpoint_state(&self) -> GlobalTickProcessState {
        GlobalTickProcessState {
            rng_word_pos: self.rng.get_word_pos(),
            global_tick_count: self.global_tick_count,
            now: self.now,
            batch_tail: self.draws[self.batch_pos..].to_vec(),
            batch_capacity: self.batch_capacity,
        }
    }

    /// Crate-internal: rebuilds the sampler from a checkpoint, resolving the
    /// endpoints of the captured batch tail from `graph` again.  `seed` must
    /// be the seed the captured sampler was constructed with.
    ///
    /// # Errors
    ///
    /// [`SimError::CheckpointInvalid`] for a zero batch width or a batch
    /// entry naming an edge `graph` does not have.
    pub(crate) fn restore_state(
        graph: &'g Graph,
        seed: u64,
        state: &GlobalTickProcessState,
    ) -> Result<Self> {
        if state.batch_capacity == 0 {
            return Err(SimError::CheckpointInvalid {
                reason: "global tick batch capacity is zero".into(),
            });
        }
        let edges = graph.edges();
        if let Some(&(_, edge)) = state.batch_tail.iter().find(|&&(_, e)| e >= edges.len()) {
            return Err(SimError::CheckpointInvalid {
                reason: format!(
                    "batch draw names edge {edge} of a {}-edge graph",
                    edges.len()
                ),
            });
        }
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        rng.set_word_pos(state.rng_word_pos);
        Ok(GlobalTickProcess {
            edges,
            rng,
            global_tick_count: state.global_tick_count,
            now: state.now,
            draws: state.batch_tail.clone(),
            endpoints: state.batch_tail.iter().map(|&(_, e)| edges[e]).collect(),
            batch_pos: 0,
            batch_capacity: state.batch_capacity,
        })
    }

    #[cold]
    fn refill_batch(&mut self) {
        let edge_count = self.edges.len();
        let total_rate = edge_count as f64;
        self.draws.clear();
        for _ in 0..self.batch_capacity {
            // Draw order per event — gap first, then edge — matches the
            // historical one-event-at-a-time sampler, keeping the stream
            // bit-identical for every seed.
            let gap = exponential_sample(&mut self.rng, total_rate);
            let edge = self.rng.gen_range(0..edge_count);
            self.draws.push((gap, edge));
        }
        // Resolve endpoints in a second pass: the loads depend only on the
        // drawn indices, not on each other or on the RNG, so the CPU keeps
        // many table misses in flight at once instead of taking one per
        // tick on the engine's critical path.
        let edges = self.edges;
        self.endpoints.clear();
        self.endpoints
            .extend(self.draws.iter().map(|&(_, edge)| edges[edge]));
        self.batch_pos = 0;
    }
}

/// Checkpointed state of a [`GlobalTickProcess`] (crate-internal; serialized
/// by `crate::checkpoint`).
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct GlobalTickProcessState {
    /// Keystream position of the draw RNG, after the last batch refill.
    pub(crate) rng_word_pos: u128,
    /// Ticks delivered overall so far.
    pub(crate) global_tick_count: u64,
    /// Time of the last delivered tick.
    pub(crate) now: f64,
    /// Prefetched but not yet delivered `(gap, edge index)` draws.
    pub(crate) batch_tail: Vec<(f64, usize)>,
    /// Draws prefetched per refill (never affects the stream).
    pub(crate) batch_capacity: usize,
}

impl TickProcess for GlobalTickProcess<'_> {
    #[inline]
    fn next_tick(&mut self) -> TickEvent {
        if self.batch_pos == self.draws.len() {
            self.refill_batch();
        }
        let (gap, edge_index) = self.draws[self.batch_pos];
        let endpoints = self.endpoints[self.batch_pos];
        self.batch_pos += 1;
        self.now += gap;
        self.global_tick_count += 1;
        TickEvent {
            time: self.now,
            edge: EdgeId(edge_index),
            endpoints,
            global_tick_count: self.global_tick_count,
        }
    }

    fn now(&self) -> f64 {
        self.now
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gossip_graph::generators::{complete, path};
    use proptest::prelude::*;

    #[test]
    fn exponential_sample_mean() {
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let n = 20_000;
        let mean: f64 = (0..n)
            .map(|_| exponential_sample(&mut rng, 2.0))
            .sum::<f64>()
            / n as f64;
        assert!((mean - 0.5).abs() < 0.02, "mean was {mean}");
    }

    #[test]
    #[should_panic(expected = "rate must be positive")]
    fn exponential_sample_rejects_zero_rate() {
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let _ = exponential_sample(&mut rng, 0.0);
    }

    #[test]
    fn queue_requires_edges_and_valid_rate() {
        let empty = gossip_graph::Graph::from_edges(3, &[]).unwrap();
        assert!(matches!(
            EdgeClockQueue::new(&empty, 1),
            Err(SimError::NoEdges)
        ));
        let g = path(3).unwrap();
        assert!(EdgeClockQueue::with_rate(&g, 1, 0.0).is_err());
        assert!(EdgeClockQueue::with_rate(&g, 1, f64::NAN).is_err());
        assert!(matches!(
            GlobalTickProcess::new(&empty, 1),
            Err(SimError::NoEdges)
        ));
    }

    #[test]
    fn queue_events_are_time_ordered_and_counted() {
        let g = complete(5).unwrap();
        let mut clock = EdgeClockQueue::new(&g, 42).unwrap();
        let mut last = 0.0;
        for i in 1..=500u64 {
            let ev = clock.next_tick();
            assert!(ev.time >= last);
            assert!(ev.edge.index() < g.edge_count());
            last = ev.time;
            assert_eq!(ev.global_tick_count, i);
            assert!((clock.now() - ev.time).abs() < 1e-15);
        }
    }

    #[test]
    fn events_carry_the_endpoints_of_their_edge() {
        // Both samplers resolve endpoints themselves (the queue per pop, the
        // global process per batch); every event must carry exactly the
        // graph's edge, across several global refills.
        let g = path(7).unwrap();
        let mut queue = EdgeClockQueue::new(&g, 5).unwrap();
        let mut global = GlobalTickProcess::with_batch_capacity(&g, 5, 7).unwrap();
        for _ in 0..200 {
            for ev in [queue.next_tick(), global.next_tick()] {
                assert_eq!(ev.endpoints, g.edge(ev.edge).unwrap());
            }
        }
    }

    #[test]
    fn queue_rearm_matches_reference_pop_push() {
        // The production queue re-arms through `peek_mut` (one sift); this
        // reference implementation is the historical pop + push (two sifts).
        // Entries are totally ordered, so both must deliver the exact same
        // tick stream — bit-for-bit, including re-arm draws.
        struct Reference<'g> {
            graph: &'g Graph,
            queue: BinaryHeap<QueueEntry>,
            rng: ChaCha8Rng,
            global: u64,
        }
        impl<'g> Reference<'g> {
            fn new(graph: &'g Graph, seed: u64) -> Self {
                let mut rng = ChaCha8Rng::seed_from_u64(seed);
                let mut queue = BinaryHeap::new();
                for edge in graph.edge_ids() {
                    let t = exponential_sample(&mut rng, 1.0);
                    queue.push(QueueEntry { time: t, edge });
                }
                Reference {
                    graph,
                    queue,
                    rng,
                    global: 0,
                }
            }
            fn next_tick(&mut self) -> TickEvent {
                let entry = self.queue.pop().unwrap();
                self.global += 1;
                let next = entry.time + exponential_sample(&mut self.rng, 1.0);
                self.queue.push(QueueEntry {
                    time: next,
                    edge: entry.edge,
                });
                TickEvent {
                    time: entry.time,
                    edge: entry.edge,
                    endpoints: self.graph.edge(entry.edge).unwrap(),
                    global_tick_count: self.global,
                }
            }
        }
        for seed in [0u64, 7, 42, 0xDEAD] {
            let g = complete(6).unwrap();
            let mut production = EdgeClockQueue::new(&g, seed).unwrap();
            let mut reference = Reference::new(&g, seed);
            for tick in 0..5_000 {
                let a = production.next_tick();
                let b = reference.next_tick();
                assert_eq!(a.edge, b.edge, "seed {seed} tick {tick}");
                assert_eq!(
                    a.time.to_bits(),
                    b.time.to_bits(),
                    "seed {seed} tick {tick}"
                );
                assert_eq!(a.endpoints, b.endpoints);
                assert_eq!(a.global_tick_count, b.global_tick_count);
            }
        }
    }

    #[test]
    fn global_batching_matches_reference_single_draws() {
        // The batched sampler must consume the ChaCha stream in the exact
        // per-event order (gap, then edge) of the historical unbatched
        // implementation, across several batch refills.
        let g = complete(5).unwrap();
        let seed = 99u64;
        let mut production = GlobalTickProcess::new(&g, seed).unwrap();
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let total_rate = g.edge_count() as f64;
        let mut now = 0.0;
        for tick in 0..(3 * GLOBAL_TICK_BATCH + 17) {
            now += exponential_sample(&mut rng, total_rate);
            let edge = EdgeId(rng.gen_range(0..g.edge_count()));
            let ev = production.next_tick();
            assert_eq!(ev.edge, edge, "tick {tick}");
            assert_eq!(ev.time.to_bits(), now.to_bits(), "tick {tick}");
        }
    }

    #[test]
    fn widened_batch_matches_historical_256_batches() {
        // The production batch width is now > 256; the historical sampler
        // prefetched exactly 256 draws per refill.  Widening must be a pure
        // prefetch change: both samplers consume the ChaCha stream in the
        // same per-event order, so every delivered tick — time bits, edge,
        // endpoints — is identical across several refills of BOTH widths.
        const { assert!(GLOBAL_TICK_BATCH > 256, "the batch must stay widened") };
        for seed in [0u64, 7, 99, 0xC0FFEE] {
            let g = complete(6).unwrap();
            let mut widened = GlobalTickProcess::new(&g, seed).unwrap();
            let mut historical = GlobalTickProcess::with_batch_capacity(&g, seed, 256).unwrap();
            for tick in 0..(3 * GLOBAL_TICK_BATCH + 17) {
                let a = widened.next_tick();
                let b = historical.next_tick();
                assert_eq!(a.edge, b.edge, "seed {seed} tick {tick}");
                assert_eq!(
                    a.time.to_bits(),
                    b.time.to_bits(),
                    "seed {seed} tick {tick}"
                );
                assert_eq!(a.endpoints, b.endpoints);
                assert_eq!(a.global_tick_count, b.global_tick_count);
            }
        }
    }

    #[test]
    fn batch_capacity_rejects_zero() {
        let g = complete(4).unwrap();
        assert!(matches!(
            GlobalTickProcess::with_batch_capacity(&g, 1, 0),
            Err(SimError::InvalidConfig { .. })
        ));
    }

    #[test]
    fn sampler_checkpoint_round_trip_is_bit_identical() {
        // Capture both samplers mid-stream (including mid-batch for the
        // global process) and check the restored stream matches the
        // uninterrupted one bit-for-bit across several refills/re-arms.
        let g = complete(6).unwrap();
        for seed in [0u64, 7, 42] {
            for warmup in [0usize, 1, 17, GLOBAL_TICK_BATCH + 5] {
                let mut original = EdgeClockQueue::new(&g, seed).unwrap();
                for _ in 0..warmup {
                    original.next_tick();
                }
                let state = original.checkpoint_state();
                let mut restored = EdgeClockQueue::restore_state(&g, seed, &state).unwrap();
                for tick in 0..2_000 {
                    let a = original.next_tick();
                    let b = restored.next_tick();
                    assert_eq!(
                        a.edge, b.edge,
                        "queue seed {seed} warmup {warmup} tick {tick}"
                    );
                    assert_eq!(a.time.to_bits(), b.time.to_bits());
                    assert_eq!(a.endpoints, b.endpoints);
                    assert_eq!(a.global_tick_count, b.global_tick_count);
                }

                let mut original = GlobalTickProcess::new(&g, seed).unwrap();
                for _ in 0..warmup {
                    original.next_tick();
                }
                let state = original.checkpoint_state();
                let mut restored = GlobalTickProcess::restore_state(&g, seed, &state).unwrap();
                for tick in 0..(2 * GLOBAL_TICK_BATCH + 13) {
                    let a = original.next_tick();
                    let b = restored.next_tick();
                    assert_eq!(
                        a.edge, b.edge,
                        "global seed {seed} warmup {warmup} tick {tick}"
                    );
                    assert_eq!(a.time.to_bits(), b.time.to_bits());
                    assert_eq!(a.endpoints, b.endpoints);
                    assert_eq!(a.global_tick_count, b.global_tick_count);
                }
            }
        }
    }

    #[test]
    fn sampler_restore_rejects_edges_the_graph_does_not_have() {
        let g = complete(4).unwrap();
        let mut queue = EdgeClockQueue::new(&g, 3).unwrap();
        let mut global = GlobalTickProcess::new(&g, 3).unwrap();
        queue.next_tick();
        global.next_tick();

        let mut state = queue.checkpoint_state();
        state.entries[0].1 = g.edge_count();
        assert!(matches!(
            EdgeClockQueue::restore_state(&g, 3, &state),
            Err(SimError::CheckpointInvalid { .. })
        ));
        let mut state = queue.checkpoint_state();
        state.entries.pop();
        assert!(EdgeClockQueue::restore_state(&g, 3, &state).is_err());
        let mut state = queue.checkpoint_state();
        state.entries[1].1 = state.entries[0].1;
        assert!(EdgeClockQueue::restore_state(&g, 3, &state).is_err());

        let mut state = global.checkpoint_state();
        state.batch_tail[0].1 = g.edge_count();
        assert!(matches!(
            GlobalTickProcess::restore_state(&g, 3, &state),
            Err(SimError::CheckpointInvalid { .. })
        ));
        let mut state = global.checkpoint_state();
        state.batch_capacity = 0;
        assert!(GlobalTickProcess::restore_state(&g, 3, &state).is_err());
    }

    #[test]
    fn queue_is_reproducible() {
        let g = complete(4).unwrap();
        let mut a = EdgeClockQueue::new(&g, 7).unwrap();
        let mut b = EdgeClockQueue::new(&g, 7).unwrap();
        for _ in 0..100 {
            assert_eq!(a.next_tick(), b.next_tick());
        }
        let mut c = EdgeClockQueue::new(&g, 8).unwrap();
        let differs = (0..100).any(|_| a.next_tick() != c.next_tick());
        assert!(differs);
    }

    #[test]
    fn global_process_counts_and_ordering() {
        let g = complete(5).unwrap();
        let mut clock = GlobalTickProcess::new(&g, 11).unwrap();
        let mut last = 0.0;
        for i in 1..=500u64 {
            let ev = clock.next_tick();
            assert!(ev.time > last);
            last = ev.time;
            assert_eq!(ev.global_tick_count, i);
            assert!(ev.edge.index() < g.edge_count());
        }
    }

    /// Counts the ticks each edge receives over `ticks` events.
    fn edge_marks(clock: &mut impl TickProcess, edges: usize, ticks: u64) -> Vec<u64> {
        let mut counts = vec![0u64; edges];
        for _ in 0..ticks {
            counts[clock.next_tick().edge.index()] += 1;
        }
        counts
    }

    #[test]
    fn tick_rate_matches_edge_count() {
        // With |E| rate-1 clocks, about t·|E| ticks happen by time t.
        let g = complete(6).unwrap(); // 15 edges
        let horizon = 200.0;
        for seed in [1u64, 2, 3] {
            let mut clock = EdgeClockQueue::new(&g, seed).unwrap();
            let mut count = 0u64;
            loop {
                let ev = clock.next_tick();
                if ev.time > horizon {
                    break;
                }
                count += 1;
            }
            let expected = horizon * g.edge_count() as f64;
            let sd = expected.sqrt();
            assert!(
                (count as f64 - expected).abs() < 6.0 * sd,
                "count {count} vs expected {expected}"
            );
        }
    }

    #[test]
    fn per_edge_counts_are_balanced_in_both_samplers() {
        let g = complete(4).unwrap(); // 6 edges
        let ticks = 6_000;
        let mut q = EdgeClockQueue::new(&g, 3).unwrap();
        let mut gp = GlobalTickProcess::new(&g, 3).unwrap();
        let q_counts = edge_marks(&mut q, g.edge_count(), ticks);
        let gp_counts = edge_marks(&mut gp, g.edge_count(), ticks);
        for e in g.edge_ids() {
            for count in [q_counts[e.index()], gp_counts[e.index()]] {
                let expected = ticks as f64 / g.edge_count() as f64;
                assert!(
                    (count as f64 - expected).abs() < 5.0 * expected.sqrt(),
                    "edge {e} count {count} far from {expected}"
                );
            }
        }
    }

    /// Collects `k` consecutive inter-arrival gaps from any tick sampler.
    fn interarrivals(clock: &mut impl TickProcess, k: usize) -> Vec<f64> {
        let mut last = 0.0;
        let mut out = Vec::with_capacity(k);
        for _ in 0..k {
            let t = clock.next_tick().time;
            out.push(t - last);
            last = t;
        }
        out
    }

    /// Checks that a sampler's mean inter-arrival time over 4000 ticks is
    /// `1/|E|` within five standard deviations of the sample mean.
    fn check_interarrival_mean(
        clock: &mut impl TickProcess,
        edge_count: usize,
    ) -> std::result::Result<(), String> {
        let ticks = 4_000;
        let mean = interarrivals(clock, ticks).iter().sum::<f64>() / ticks as f64;
        let expected = 1.0 / edge_count as f64;
        // Exp(λ) inter-arrivals: sd of the sample mean is 1/(λ√k).
        let tol = 5.0 * expected / (ticks as f64).sqrt();
        if (mean - expected).abs() >= tol {
            return Err(format!("inter-arrival mean {mean} vs expected {expected}"));
        }
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        #[test]
        fn prop_exponential_samples_positive(seed in 0u64..1000, rate in 0.1f64..10.0) {
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            for _ in 0..50 {
                let x = exponential_sample(&mut rng, rate);
                prop_assert!(x >= 0.0);
                prop_assert!(x.is_finite());
            }
        }

        #[test]
        fn prop_queue_time_strictly_increases_overall(seed in 0u64..200) {
            let g = path(6).unwrap();
            let mut clock = EdgeClockQueue::new(&g, seed).unwrap();
            let mut last = -1.0;
            for _ in 0..200 {
                let ev = clock.next_tick();
                prop_assert!(ev.time >= last);
                last = ev.time;
            }
        }

        // --- Sampler-equivalence properties -------------------------------
        //
        // The two samplers realize the same point process: the union of |E|
        // independent rate-1 Poisson clocks IS a rate-|E| Poisson process
        // with uniform edge marks (superposition/thinning).  The properties
        // below check the two implementations against that common law —
        // inter-arrival mean AND the full distribution (two-sample
        // Kolmogorov–Smirnov) plus the per-edge mark frequencies.

        #[test]
        fn prop_global_interarrival_mean_matches_rate(seed in 0u64..300) {
            let g = complete(5).unwrap(); // 10 edges, total rate 10
            let mut clock = GlobalTickProcess::new(&g, seed).unwrap();
            if let Err(message) = check_interarrival_mean(&mut clock, g.edge_count()) {
                prop_assert!(false, "{message}");
            }
        }

        #[test]
        fn prop_queue_interarrival_mean_matches_rate(seed in 0u64..300) {
            let g = complete(5).unwrap();
            let mut clock = EdgeClockQueue::new(&g, seed).unwrap();
            if let Err(message) = check_interarrival_mean(&mut clock, g.edge_count()) {
                prop_assert!(false, "{message}");
            }
        }

        #[test]
        fn prop_samplers_have_ks_close_interarrival_distributions(seed in 0u64..100) {
            // Two-sample Kolmogorov–Smirnov distance between the
            // inter-arrival samples of the two implementations.  With
            // m = k = 4000 the 0.1% critical value is
            // 1.95·sqrt(2/4000) ≈ 0.0436; the pinned seeds stay well under.
            let g = complete(5).unwrap();
            let mut q = EdgeClockQueue::new(&g, seed).unwrap();
            let mut gp = GlobalTickProcess::new(&g, seed.wrapping_add(0x5eed)).unwrap();
            let mut a = interarrivals(&mut q, 4_000);
            let mut b = interarrivals(&mut gp, 4_000);
            a.sort_by(|x, y| x.partial_cmp(y).unwrap());
            b.sort_by(|x, y| x.partial_cmp(y).unwrap());
            // Sweep the merged order, tracking the empirical-CDF gap.
            let (mut i, mut j, mut ks) = (0usize, 0usize, 0.0f64);
            while i < a.len() && j < b.len() {
                if a[i] <= b[j] {
                    i += 1;
                } else {
                    j += 1;
                }
                let gap = (i as f64 / a.len() as f64 - j as f64 / b.len() as f64).abs();
                ks = ks.max(gap);
            }
            prop_assert!(ks < 0.0436, "KS distance {ks} too large");
        }

        #[test]
        fn prop_batch_width_is_stream_invariant(
            seed in 0u64..500,
            width in 1usize..2048,
        ) {
            // An arbitrary batch width must deliver the exact stream of the
            // unbatched sampler (capacity 1 = one draw per "batch"): the
            // width is prefetch policy, not probability.
            let g = complete(5).unwrap();
            let mut batched = GlobalTickProcess::with_batch_capacity(&g, seed, width).unwrap();
            let mut unbatched = GlobalTickProcess::with_batch_capacity(&g, seed, 1).unwrap();
            for tick in 0..700 {
                let a = batched.next_tick();
                let b = unbatched.next_tick();
                prop_assert_eq!(a.edge, b.edge, "width {} tick {}", width, tick);
                prop_assert_eq!(
                    a.time.to_bits(),
                    b.time.to_bits(),
                    "width {} tick {}",
                    width,
                    tick
                );
                prop_assert_eq!(a.endpoints, b.endpoints);
                prop_assert_eq!(a.global_tick_count, b.global_tick_count);
            }
        }

        #[test]
        fn prop_samplers_have_equivalent_edge_marks(seed in 0u64..100) {
            // Every edge receives ~1/|E| of the ticks under both samplers:
            // compare each sampler's per-edge frequencies against uniform
            // with a 5-sigma binomial tolerance.
            let g = complete(4).unwrap(); // 6 edges
            let ticks = 6_000u64;
            let mut q = EdgeClockQueue::new(&g, seed).unwrap();
            let mut gp = GlobalTickProcess::new(&g, seed.wrapping_add(0x5eed)).unwrap();
            let q_counts = edge_marks(&mut q, g.edge_count(), ticks);
            let gp_counts = edge_marks(&mut gp, g.edge_count(), ticks);
            let p = 1.0 / g.edge_count() as f64;
            let expected = ticks as f64 * p;
            let sd = (ticks as f64 * p * (1.0 - p)).sqrt();
            for e in g.edge_ids() {
                for (which, count) in
                    [("queue", q_counts[e.index()]), ("global", gp_counts[e.index()])]
                {
                    prop_assert!(
                        (count as f64 - expected).abs() < 5.0 * sd,
                        "{which} sampler: edge {e} got {count} ticks, expected {expected}"
                    );
                }
            }
        }
    }
}
