//! The process-wide persistent worker pool behind [`crate::Executor`].
//!
//! PR-5's executor spawned fresh `std::thread::scope` workers on every
//! `map_indexed` call and joined them before returning.  That kept the API
//! borrow-friendly, but it priced every fan-out at one spawn + join per
//! worker (~50–100 µs each) — for bench families whose individual runs last
//! about a millisecond, dispatch overhead ate the entire parallel gain.
//! This module replaces the per-call scope with **one process-wide pool**
//! whose workers park on a condvar between calls, so a fan-out costs a
//! mutex round-trip instead of thread creation.
//!
//! # Design
//!
//! * Workers are spawned lazily, the first time a call needs them, and then
//!   live (parked) for the rest of the process.  The pool grows to the
//!   largest helper count ever requested and never shrinks.
//! * One job is in flight at a time (`State::busy` serializes publishers).
//!   A job is a lifetime-erased pointer to the caller's borrowed closure
//!   plus a join limit; workers that pick it up run the closure to
//!   completion (the closure contains its own index-claiming loop).
//! * The **caller participates**: it publishes the job, runs the closure
//!   inline as the `helpers + 1`-th participant, then clears the job and
//!   blocks until every joined worker has finished.  Only then does it
//!   return — which is the entire safety argument for the erased borrow.
//! * Nested fan-outs (a parallel estimator inside an already-parallel
//!   tier, say) run inline on the calling participant: the outer job
//!   already owns every core, so nesting would only oversubscribe — and a
//!   thread-local re-entry flag keeps it deadlock-free by construction.
//!
//! Determinism is unaffected by any of this: the pool decides only *where*
//! a closure runs, and the closure's ordered result slots decide *what* is
//! observed.
//!
//! # Why `unsafe` is confined here
//!
//! The crate is `deny(unsafe_code)`; this module carries the single audited
//! exception.  Erasing the task borrow to `'static` is what lets the
//! persistent workers execute non-`'static` closures.  The invariant that
//! makes it sound is stated on [`ErasedTask`] and enforced by
//! `Pool::run_job`: the erased reference is used only between a
//! lock-protected join (`active += 1` while the job is still published) and
//! the matching `active -= 1`, and `run_job` does not return — so the
//! caller's closure cannot die — until it has observed `active == 0` after
//! unpublishing the job.

#![allow(unsafe_code)]

use std::cell::Cell;
use std::panic::{self, AssertUnwindSafe};
use std::sync::{Condvar, Mutex, MutexGuard, OnceLock};

/// A caller-owned task closure with its lifetime erased to `'static`.
///
/// The `'static` is a lie told to the type system; the truth that makes it
/// sound is the drain protocol in [`Pool::run_job`]: the publishing caller
/// does not return (ending the real borrow) until every worker that joined
/// the job has decremented `active` under the pool lock, and workers join
/// (copying this reference) only while the job is still published — so no
/// worker can first touch the task after the caller has left.  The pointee
/// is `Sync`, so concurrent shared calls from several threads are fine.
type ErasedTask = &'static (dyn Fn() + Sync);

/// A published fan-out: the erased task plus how many workers may join it.
struct Job {
    task: ErasedTask,
    /// Maximum number of pool workers that may join this job.
    limit: usize,
    /// Number of pool workers that have joined so far.
    joined: usize,
    /// Publish-order stamp, so a worker never re-joins a job it already ran.
    generation: u64,
}

#[derive(Default)]
struct State {
    job: Option<Job>,
    /// Monotone job counter (stamped into each published [`Job`]).
    generation: u64,
    /// Workers currently executing the published job.
    active: usize,
    /// Workers ever spawned; the pool grows lazily and never shrinks.
    spawned: usize,
    /// A caller is between publishing a job and draining its workers.
    busy: bool,
}

struct Pool {
    state: Mutex<State>,
    /// Single condvar for all transitions; every waiter re-checks its own
    /// predicate, so spurious wakeups and shared notifications are benign.
    cv: Condvar,
}

static POOL: OnceLock<Pool> = OnceLock::new();

thread_local! {
    /// True while this thread is executing a pool task (as a worker or as
    /// the participating caller).  A nested [`run`] observes it and runs
    /// inline instead of dead-locking on the single job slot.
    static IN_POOL: Cell<bool> = const { Cell::new(false) };
}

/// Runs `task` on up to `helpers` pool workers concurrently with one inline
/// invocation on the calling thread, returning only after every invocation
/// has finished.
///
/// "Up to": a worker that has not woken by the time the caller's own
/// invocation drains the work never joins — which is harmless, because the
/// task is a claim loop over a shared counter, not a partitioned slice.
/// With `helpers == 0`, or when called from inside a pool task (nested
/// fan-out), the task simply runs inline.
pub(crate) fn run(helpers: usize, task: &(dyn Fn() + Sync)) {
    if helpers == 0 || IN_POOL.with(Cell::get) {
        task();
        return;
    }
    POOL.get_or_init(Pool::new).run_job(helpers, task);
}

impl Pool {
    fn new() -> Self {
        Pool {
            state: Mutex::new(State::default()),
            cv: Condvar::new(),
        }
    }

    /// Locks the pool state.  The lock is never poisoned in practice (no
    /// panic escapes a critical section), but recovering the guard keeps
    /// the pool usable even if that invariant is ever broken by a bug.
    fn lock(&self) -> MutexGuard<'_, State> {
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn wait<'a>(&self, guard: MutexGuard<'a, State>) -> MutexGuard<'a, State> {
        self.cv.wait(guard).unwrap_or_else(|e| e.into_inner())
    }

    fn run_job(&'static self, helpers: usize, task: &(dyn Fn() + Sync)) {
        // SAFETY: pure lifetime erasure (see `ErasedTask`).  This frame
        // outlives every dereference because it drains `active` to 0 after
        // unpublishing the job, before the real borrow of `task` ends.
        let erased: ErasedTask =
            unsafe { std::mem::transmute::<&(dyn Fn() + Sync), ErasedTask>(task) };
        {
            let mut st = self.lock();
            // One publisher at a time: `busy` covers publish → drain, so a
            // second caller can neither clobber the job slot nor confuse
            // this caller's `active` accounting with its own workers.
            while st.busy {
                st = self.wait(st);
            }
            st.busy = true;
            while st.spawned < helpers {
                st.spawned += 1;
                std::thread::Builder::new()
                    .name(format!("gossip-exec-{}", st.spawned))
                    .spawn(move || self.worker())
                    .expect("spawning a pool worker thread");
            }
            st.generation += 1;
            st.job = Some(Job {
                task: erased,
                limit: helpers,
                joined: 0,
                generation: st.generation,
            });
            self.cv.notify_all();
        }
        // Participate in our own job.  The closure is catch-wrapped not
        // because it is expected to panic (the executor's claim loop
        // catches per-task panics itself) but so an unexpected unwind still
        // drains the workers below before the borrow ends.
        IN_POOL.with(|flag| flag.set(true));
        let caller_result = panic::catch_unwind(AssertUnwindSafe(task));
        IN_POOL.with(|flag| flag.set(false));
        {
            let mut st = self.lock();
            st.job = None; // no further joins
            while st.active > 0 {
                st = self.wait(st);
            }
            // All joined workers are done: the borrow of `task` may end.
            st.busy = false;
            self.cv.notify_all();
        }
        if let Err(payload) = caller_result {
            panic::resume_unwind(payload);
        }
    }

    fn worker(&'static self) {
        IN_POOL.with(|flag| flag.set(true));
        let mut last_generation = 0u64;
        let mut st = self.lock();
        loop {
            let job = match st.job.as_mut() {
                Some(job) if job.generation != last_generation && job.joined < job.limit => job,
                _ => {
                    st = self.wait(st);
                    continue;
                }
            };
            job.joined += 1;
            last_generation = job.generation;
            let task = job.task;
            st.active += 1;
            drop(st);
            // `active` was incremented under the lock while the job was
            // still published, and `run_job` waits for `active == 0` after
            // unpublishing before it returns — so the pointee is alive for
            // the entire call (see `ErasedTask`).
            let _ = panic::catch_unwind(AssertUnwindSafe(task));
            st = self.lock();
            st.active -= 1;
            if st.active == 0 {
                self.cv.notify_all();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn nested_runs_execute_inline_without_deadlock() {
        let outer = AtomicUsize::new(0);
        let inner = AtomicUsize::new(0);
        super::run(2, &|| {
            outer.fetch_add(1, Ordering::Relaxed);
            super::run(2, &|| {
                inner.fetch_add(1, Ordering::Relaxed);
            });
        });
        // Between 1 and 3 participants run the outer task (workers that
        // wake too late never join), and each runs the nested task exactly
        // once inline — no helper ever joins a nested job.
        let outer = outer.load(Ordering::Relaxed);
        let inner = inner.load(Ordering::Relaxed);
        assert!((1..=3).contains(&outer), "outer = {outer}");
        assert_eq!(inner, outer);
    }

    #[test]
    fn pool_never_spawns_more_than_the_largest_request() {
        let calls = AtomicUsize::new(0);
        for _ in 0..50 {
            super::run(2, &|| {
                calls.fetch_add(1, Ordering::Relaxed);
            });
        }
        // Each call runs the task on the caller plus however many of its 2
        // helpers woke in time (instant tasks often drain caller-only).
        let calls = calls.load(Ordering::Relaxed);
        assert!((50..=150).contains(&calls), "calls = {calls}");
        // 50 calls × 2 helpers would have minted 100 threads under the old
        // per-call scoped design.  The persistent pool's worker count is
        // bounded by the largest helper count any call in this process has
        // requested — at most 63 anywhere in this test binary (the widest
        // executor test uses 64 jobs), typically far fewer.
        let spawned = super::POOL
            .get()
            .expect("pool is initialized")
            .lock()
            .spawned;
        assert!((1..=63).contains(&spawned), "spawned = {spawned}");
    }
}
