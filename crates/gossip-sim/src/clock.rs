//! Samplers of the asynchronous edge-tick point process.
//!
//! The paper's model attaches an i.i.d. rate-1 Poisson clock to every edge.
//! Two standard, equivalent ways to sample the resulting sequence of
//! `(time, edge)` events are provided:
//!
//! * [`EdgeClockQueue`] — simulate every edge's clock explicitly: keep the
//!   next tick time of each edge in a calendar queue (R. Brown, CACM 31(10),
//!   1988) whose time buckets hold one expected tick each and, after
//!   delivering an event, re-arm that edge with a fresh `Exp(1)`
//!   inter-arrival time.  This is the literal discrete-event view, at `O(1)`
//!   expected work per event.
//! * [`GlobalTickProcess`] — use the superposition property: the union of
//!   `|E|` rate-1 processes is a rate-`|E|` Poisson process whose points are
//!   assigned to edges uniformly at random.  It keeps no per-edge state and
//!   draws its events in batches; large sweeps use it.
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

/// End-of-list marker of the queue's `u32` links (hence fewer than
/// `u32::MAX` edges).
const NIL: u32 = u32::MAX;

/// A restored time must lie in a bucket below this, so the bucket cast to
/// `u64` never saturates and stepping the current bucket never overflows.
const BUCKET_LIMIT: f64 = (1u64 << 62) as f64;

/// An edge's next tick, and its link in a bucket's list.
#[derive(Debug, Clone, Copy)]
struct Pending {
    time: f64,
    /// The next edge in the same bucket's list, or [`NIL`].
    next: u32,
}

/// Literal per-edge Poisson clocks, delivered in time order.
///
/// The pending ticks sit in a calendar queue: time bucket `b` holds the
/// edges whose next tick `t` has `⌊t·|E|·rate⌋ = b`, so about one pending
/// tick falls in each bucket near `now` (the pending times of `|E|` clocks
/// of rate `rate` have density `|E|·rate` there).  A ring of buckets covers
/// the next four or more expected inter-arrival times of a clock; ticks
/// past the ring wait in an overflow list until the ring reaches them.
/// Rounding `t·|E|·rate` is monotone in `t`, so no lower bucket holds a
/// later tick, and the least `(time, edge index)` of the first non-empty
/// bucket is the least pending tick: the stream is the one a binary heap
/// over `(time, edge index)` pops, bit for bit.
#[derive(Debug, Clone)]
pub struct EdgeClockQueue<'g> {
    /// The graph's edge table, read once per delivered tick.
    edges: &'g [Edge],
    /// `pending[e]`: edge `e`'s next tick and list link, side by side
    /// because a tick reads both.
    pending: Vec<Pending>,
    /// The first edge of each ring bucket's list, or [`NIL`]; bucket `b`
    /// lives in slot `b & (heads.len() - 1)`.  Every edge in the ring has
    /// a bucket in `current..current + heads.len()`.
    heads: Vec<u32>,
    /// Edges whose bucket lay past the ring when they were filed; each has
    /// a bucket at or past the next multiple of `heads.len()` above
    /// `current`, so the ring needs them only once it wraps.
    overflow: Vec<u32>,
    /// Absolute index of the bucket the next tick is taken from; the
    /// bucket of `now`, and of no pending tick before it.
    current: u64,
    /// Buckets per unit of time: `|E|·rate`.
    buckets_per_time: f64,
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
    /// [`SimError::InvalidConfig`] for a non-positive rate or a graph of
    /// `u32::MAX` edges or more.
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
        let times = (0..graph.edge_count())
            .map(|_| exponential_sample(&mut rng, rate))
            .collect();
        Self::from_times(graph, times, rng, 0, 0.0, rate)
    }

    /// Files every edge's pending tick `times[e]` into a fresh calendar
    /// whose current bucket is that of `now`.  Every time must be at least
    /// `now`.
    fn from_times(
        graph: &'g Graph,
        times: Vec<f64>,
        rng: ChaCha8Rng,
        global_tick_count: u64,
        now: f64,
        rate: f64,
    ) -> Result<Self> {
        let edge_count = graph.edge_count();
        if edge_count >= NIL as usize {
            return Err(SimError::InvalidConfig {
                reason: format!(
                    "the per-edge clock queue links edges by u32 index and takes fewer than \
                     {NIL} edges, got {edge_count}"
                ),
            });
        }
        let buckets_per_time = edge_count as f64 * rate;
        let mut queue = EdgeClockQueue {
            edges: graph.edges(),
            pending: times
                .into_iter()
                .map(|time| Pending { time, next: NIL })
                .collect(),
            heads: vec![NIL; (4 * edge_count).next_power_of_two()],
            overflow: Vec::new(),
            current: (now * buckets_per_time) as u64,
            buckets_per_time,
            rng,
            global_tick_count,
            now,
            rate,
        };
        for edge in 0..edge_count as u32 {
            queue.file(edge);
        }
        Ok(queue)
    }

    /// The bucket of time `t` (monotone in `t`).
    #[inline]
    fn bucket(&self, t: f64) -> u64 {
        (t * self.buckets_per_time) as u64
    }

    /// Files `edge` by its pending time: into its ring bucket, or into the
    /// overflow list if that bucket lies past the ring.
    #[inline]
    fn file(&mut self, edge: u32) {
        let bucket = self.bucket(self.pending[edge as usize].time);
        if bucket - self.current < self.heads.len() as u64 {
            let slot = bucket as usize & (self.heads.len() - 1);
            self.pending[edge as usize].next = self.heads[slot];
            self.heads[slot] = edge;
        } else {
            self.overflow.push(edge);
        }
    }

    /// Moves past the empty current bucket: to the next one, re-filing the
    /// overflow list each time the ring wraps, or, when the ring holds
    /// nothing, straight to the earliest overflow bucket.
    fn advance(&mut self) {
        if self.overflow.len() == self.pending.len() {
            self.current = self
                .overflow
                .iter()
                .map(|&edge| self.bucket(self.pending[edge as usize].time))
                .min()
                .expect("the queue holds one entry per edge");
            self.refile_overflow();
        } else {
            self.current += 1;
            if self.current as usize & (self.heads.len() - 1) == 0 {
                self.refile_overflow();
            }
        }
    }

    /// Moves every overflow entry the ring now covers into its bucket.
    #[cold]
    fn refile_overflow(&mut self) {
        for edge in std::mem::take(&mut self.overflow) {
            self.file(edge);
        }
    }

    /// Crate-internal: captures the full resumable state.  The pending ticks
    /// are exported in canonical (time, edge) sorted order: entries are
    /// totally ordered and no edge appears twice, so the popped stream — the
    /// only thing the engine observes — is independent of how the calendar
    /// holds them, and the canonical order makes the serialized bytes
    /// deterministic.
    pub(crate) fn checkpoint_state(&self) -> EdgeClockQueueState {
        let mut entries: Vec<(f64, usize)> = self
            .pending
            .iter()
            .enumerate()
            .map(|(edge, pending)| (pending.time, edge))
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
    /// [`SimError::CheckpointInvalid`] unless the captured clocks run at the
    /// engine's rate 1 and the captured queue holds every edge of `graph`
    /// exactly once, each with a pending time no earlier than the captured
    /// `now`, and `now` and every pending time lie at or after 0 and in a
    /// bucket below 2⁶².
    pub(crate) fn restore_state(
        graph: &'g Graph,
        seed: u64,
        state: &EdgeClockQueueState,
    ) -> Result<Self> {
        let invalid = |reason: String| Err(SimError::CheckpointInvalid { reason });
        if state.rate != 1.0 {
            return invalid(format!(
                "per-edge clocks run at rate 1, the checkpoint says {}",
                state.rate
            ));
        }
        let buckets_per_time = graph.edge_count() as f64;
        let in_range = |t: f64| t >= 0.0 && t * buckets_per_time < BUCKET_LIMIT;
        if !in_range(state.now) {
            return invalid(format!(
                "clock time {} is negative, not finite, or too late",
                state.now
            ));
        }
        // An edge not queued yet holds NaN, which no accepted time is.
        let mut times = vec![f64::NAN; graph.edge_count()];
        for &(time, edge) in &state.entries {
            if !(time >= state.now && in_range(time))
                || edge >= times.len()
                || !times[edge].is_nan()
            {
                return invalid(format!(
                    "clock queue entry ({time}, edge {edge}) is earlier than the clock time {}, \
                     not finite or too late, names an unknown edge, or an edge queued twice",
                    state.now
                ));
            }
            times[edge] = time;
        }
        if state.entries.len() != graph.edge_count() {
            return invalid(format!(
                "clock queue holds {} entries for {} edges",
                state.entries.len(),
                graph.edge_count()
            ));
        }
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        rng.set_word_pos(state.rng_word_pos);
        Self::from_times(
            graph,
            times,
            rng,
            state.global_tick_count,
            state.now,
            state.rate,
        )
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
        let mask = self.heads.len() - 1;
        while self.heads[self.current as usize & mask] == NIL {
            self.advance();
        }
        // The least (time, edge index) of the current bucket, in the order
        // a binary heap of the pending ticks pops them.
        let slot = self.current as usize & mask;
        let mut best = self.heads[slot];
        let (mut prev, mut best_prev) = (best, NIL);
        let mut cursor = self.pending[best as usize].next;
        while cursor != NIL {
            let (t, b) = (
                self.pending[cursor as usize].time,
                self.pending[best as usize].time,
            );
            if t < b || (t == b && cursor < best) {
                (best, best_prev) = (cursor, prev);
            }
            prev = cursor;
            cursor = self.pending[cursor as usize].next;
        }
        let after = self.pending[best as usize].next;
        if best_prev == NIL {
            self.heads[slot] = after;
        } else {
            self.pending[best_prev as usize].next = after;
        }
        let time = self.pending[best as usize].time;
        self.pending[best as usize].time = time + exponential_sample(&mut self.rng, self.rate);
        self.file(best);
        self.now = time;
        self.global_tick_count += 1;
        TickEvent {
            time,
            edge: EdgeId(best as usize),
            endpoints: self.edges[best as usize],
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
    use gossip_graph::generators::{complete, expander_dumbbell, path};
    use proptest::prelude::*;
    use std::cmp::Ordering;
    use std::collections::BinaryHeap;

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

    /// The calendar's oracle: every edge's pending tick in a binary heap
    /// ordered by `(time, edge index)`, popped and re-armed with the same
    /// single `Exp(rate)` draw per tick.
    struct HeapOracle<'g> {
        graph: &'g Graph,
        queue: BinaryHeap<QueueEntry>,
        rng: ChaCha8Rng,
        rate: f64,
        global: u64,
    }

    impl<'g> HeapOracle<'g> {
        fn with_rate(graph: &'g Graph, seed: u64, rate: f64) -> Self {
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            let mut queue = BinaryHeap::new();
            for edge in graph.edge_ids() {
                let time = exponential_sample(&mut rng, rate);
                queue.push(QueueEntry { time, edge });
            }
            HeapOracle {
                graph,
                queue,
                rng,
                rate,
                global: 0,
            }
        }

        fn next_tick(&mut self) -> TickEvent {
            // Pop + push, not a re-arm of the root in place through
            // `peek_mut` (one sift instead of two): entries are totally
            // ordered (ties broken by edge index, and no edge appears
            // twice), so the pop order is the sorted order no matter how
            // the heap is arranged internally, and the plainest form makes
            // the clearest oracle.
            let entry = self.queue.pop().unwrap();
            self.global += 1;
            let next = entry.time + exponential_sample(&mut self.rng, self.rate);
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

    /// One graph of each shape the calendar meets: a single edge (every
    /// tick re-arms the only entry, so the ring is often empty), a path, a
    /// complete graph and an expander dumbbell, `size` scaling the last
    /// three.
    fn oracle_graph(shape: usize, size: usize) -> Graph {
        match shape {
            0 => Graph::from_edges(2, &[(0, 1)]).unwrap(),
            1 => path(size).unwrap(),
            2 => complete(size / 4 + 2).unwrap(),
            _ => expander_dumbbell(size).unwrap().0,
        }
    }

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

    /// Captures `original`, restores it, and checks that both deliver the
    /// same next 2 000 ticks bit for bit.
    fn assert_queue_restores(g: &Graph, seed: u64, mut original: EdgeClockQueue<'_>, ctx: &str) {
        let state = original.checkpoint_state();
        let mut restored = EdgeClockQueue::restore_state(g, seed, &state).unwrap();
        for tick in 0..2_000 {
            let a = original.next_tick();
            let b = restored.next_tick();
            assert_eq!(a.edge, b.edge, "queue {ctx} tick {tick}");
            assert_eq!(a.time.to_bits(), b.time.to_bits());
            assert_eq!(a.endpoints, b.endpoints);
            assert_eq!(a.global_tick_count, b.global_tick_count);
        }
    }

    #[test]
    fn sampler_checkpoint_round_trip_is_bit_identical() {
        // Capture both samplers mid-stream (including mid-batch for the
        // global process) and check the restored stream matches the
        // uninterrupted one bit-for-bit across several refills/re-arms.
        let g = complete(6).unwrap();
        for seed in [0u64, 7, 42] {
            // A capture while ticks wait past the ring: the restored queue
            // files every pending tick again from the bucket of `now`.
            let mut original = EdgeClockQueue::new(&g, seed).unwrap();
            while original.overflow.is_empty() {
                original.next_tick();
            }
            assert_queue_restores(&g, seed, original, &format!("seed {seed} overflowing"));
            for warmup in [0usize, 1, 17, GLOBAL_TICK_BATCH + 5] {
                let mut original = EdgeClockQueue::new(&g, seed).unwrap();
                for _ in 0..warmup {
                    original.next_tick();
                }
                assert_queue_restores(&g, seed, original, &format!("seed {seed} warmup {warmup}"));

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

        #[test]
        fn prop_queue_matches_the_heap_oracle(
            seed in 0u64..1_000_000,
            shape in 0usize..4,
            size in 8usize..65,
            log10_rate in -2.0f64..2.0,
        ) {
            // Bit-identical streams for any graph and any rate from 0.01 to
            // 100 (the bucket width scales with both), and long enough that
            // each case files ticks past the ring and wraps it.
            let g = oracle_graph(shape, size);
            let rate = 10f64.powf(log10_rate);
            let mut queue = EdgeClockQueue::with_rate(&g, seed, rate).unwrap();
            let mut oracle = HeapOracle::with_rate(&g, seed, rate);
            let ring = queue.heads.len() as u64;
            let first_lap = queue.current / ring;
            let (mut overflowed, mut wrapped) = (false, false);
            for tick in 0..50_000 {
                let a = queue.next_tick();
                let b = oracle.next_tick();
                prop_assert_eq!(a.edge, b.edge, "tick {}", tick);
                prop_assert_eq!(a.time.to_bits(), b.time.to_bits(), "tick {}", tick);
                prop_assert_eq!(a.endpoints, b.endpoints);
                prop_assert_eq!(a.global_tick_count, b.global_tick_count);
                overflowed |= !queue.overflow.is_empty();
                wrapped |= queue.current / ring > first_lap;
            }
            prop_assert!(overflowed, "no tick was filed past the ring");
            prop_assert!(wrapped, "the ring never wrapped");
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
