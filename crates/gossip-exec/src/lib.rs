//! Deterministic parallel execution of independent seeded tasks.
//!
//! Every quantity this workspace estimates — averaging times under
//! Definition 1, Theorem 1 floors, robustness slowdowns — is an aggregate
//! over **many independent seeded runs**: each run is a pure function of its
//! derived seed, so the collection is embarrassingly parallel by
//! construction.  [`Executor`] exploits that while keeping the one property
//! the repository's determinism gates depend on: **output is byte-identical
//! to the serial order, regardless of thread count or scheduling.**
//!
//! The design is deliberately minimal (std-only — the workspace is
//! vendored-only):
//!
//! * A fan-out runs on `min(jobs, len) − 1` **scoped threads**
//!   ([`std::thread::scope`]) beside the calling thread, all joined before
//!   the call returns, so tasks borrow the caller's stack (graphs, initial
//!   vectors, handler factories) without `'static` bounds.  Starting them
//!   costs ~50 µs at 2 jobs and ~100 µs at 4 on a 2-core machine, against
//!   fan-outs of whole estimates (milliseconds to seconds each).
//! * A fan-out inside a task starts threads of its own; callers that
//!   already fan out pin their inner estimators to one job instead.
//! * Tasks are indexed `0..len`; workers pull the next index from a shared
//!   atomic counter (dynamic load balancing, so a slow run does not stall a
//!   whole stripe of fast ones).
//! * Each result is written into the slot of its **input index**; after the
//!   fan-out drains, slots are read in index order.  Which thread computed a
//!   result is therefore unobservable — ordered collection is what makes
//!   parallel output bit-equal to serial output.
//! * With one job (or one task) the executor runs inline on the caller's
//!   thread: `--jobs 1` is not merely equivalent to the old serial code, it
//!   *is* the old serial code path, short-circuiting included.
//! * Failures keep their **serial identity**: when a task errors or panics
//!   at index `i`, no task above `i` is newly claimed (already-running ones
//!   finish), tasks below `i` — which the serial loop would have reached
//!   first — still run, and the failure ultimately reported is the one with
//!   the lowest index.  The caller sees exactly the error (or re-raised
//!   panic payload, after every worker has been joined) that the serial
//!   loop would have produced, without paying for the rest of the workload.
//!
//! Job-count resolution follows the workspace convention: an explicit
//! override (e.g. a `--jobs` flag) wins, then the `GOSSIP_JOBS` environment
//! variable, then [`std::thread::available_parallelism`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::panic;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Name of the environment variable consulted by [`Executor::with_override`]
/// when no explicit job count is given.
pub const JOBS_ENV_VAR: &str = "GOSSIP_JOBS";

/// Resolves the effective worker count from an optional explicit override.
///
/// Precedence: `explicit` (clamped to at least 1), then [`JOBS_ENV_VAR`],
/// then [`std::thread::available_parallelism`] (1 if even that is
/// unavailable).  A `GOSSIP_JOBS` that is set but invalid — `0`, negative,
/// or non-numeric — resolves to 1 with a one-time diagnostic on stderr; it
/// never panics and never silently falls through to a different job count.
/// An empty value is treated as unset.
pub fn resolve_jobs(explicit: Option<usize>) -> usize {
    let env = std::env::var(JOBS_ENV_VAR).ok();
    let (jobs, complaint) = resolve_jobs_from(explicit, env.as_deref());
    if let Some(complaint) = complaint {
        static LOGGED: std::sync::Once = std::sync::Once::new();
        LOGGED.call_once(|| eprintln!("gossip-exec: {complaint}"));
    }
    jobs
}

/// Pure core of [`resolve_jobs`]: resolves a job count from the explicit
/// override and the raw environment value, returning the count plus an
/// optional diagnostic describing a rejected environment value.
///
/// Exposed (and tested) separately so the `GOSSIP_JOBS` edge cases — `0`,
/// non-numeric, surrounding whitespace, empty — have pinned behavior
/// without tests mutating process-global environment state.
pub fn resolve_jobs_from(explicit: Option<usize>, env: Option<&str>) -> (usize, Option<String>) {
    if let Some(jobs) = explicit {
        return (jobs.max(1), None);
    }
    match env.map(str::trim) {
        None | Some("") => (available_parallelism(), None),
        Some(raw) => match raw.parse::<usize>() {
            Ok(jobs) if jobs >= 1 => (jobs, None),
            _ => (
                1,
                Some(format!(
                    "{JOBS_ENV_VAR}={raw:?} is not a positive integer; running with 1 job"
                )),
            ),
        },
    }
}

fn available_parallelism() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Renders a caught panic payload as a human-readable message.
///
/// `std::panic::catch_unwind` hands back a `Box<dyn Any + Send>`; in
/// practice the payload is the `&str` or `String` the `panic!` site
/// supplied.  Supervisors (the bench harness's trial fan-out, and anything
/// else that isolates a panicking task instead of dying with it) use this
/// one helper so panic reasons render uniformly.
pub fn describe_panic(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(message) = payload.downcast_ref::<&str>() {
        (*message).to_string()
    } else if let Some(message) = payload.downcast_ref::<String>() {
        message.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// A fan-out width with ordered result collection.
///
/// The executor itself is a plain job count — cheap to copy, compare, and
/// store in configs.  Each fan-out starts and joins its own scoped threads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Executor {
    jobs: usize,
}

impl Executor {
    /// Creates an executor with exactly `jobs` workers (clamped to ≥ 1).
    pub fn new(jobs: usize) -> Self {
        Executor { jobs: jobs.max(1) }
    }

    /// Creates an executor from an optional explicit override (see
    /// [`resolve_jobs`] for the precedence).
    pub fn with_override(explicit: Option<usize>) -> Self {
        Self::new(resolve_jobs(explicit))
    }

    /// The number of workers this executor fans out to.
    pub fn jobs(&self) -> usize {
        self.jobs
    }

    /// Computes `f(0), f(1), …, f(len - 1)` over the executor's workers and
    /// returns all results **in index order**, or the error of the
    /// **lowest-index** failing task.
    ///
    /// `f` must be a pure function of its index for the parallel output to
    /// be byte-identical to the serial output; everything this workspace
    /// fans out (seeded simulation runs, scenario rows) is.
    ///
    /// This matches serial semantics exactly.  Indices are claimed in
    /// increasing order, so when a task fails at index `i`, every index
    /// below `i` has already been claimed and still runs to completion —
    /// if one of them also fails, that lower-index error wins, which is
    /// precisely the error the serial loop (stopping at its first failure)
    /// would have reported.  Tasks above the lowest failing index are no
    /// longer claimed, so a failing fan-out does not pay for the rest of
    /// the workload; results and errors of higher indices are discarded,
    /// keeping the observable outcome identical to serial.  With one job
    /// the loop short-circuits like the serial code it replaces.
    ///
    /// # Errors
    ///
    /// The error of the lowest-index failing task, if any.
    ///
    /// # Panics
    ///
    /// Re-raises the panic payload of the **lowest-index** panicking task —
    /// the one the serial loop would have hit — on the caller's thread,
    /// after every worker has been joined.  Once a task panics, no task
    /// above it is newly claimed.
    pub fn try_map_indexed<T, E, F>(&self, len: usize, f: F) -> Result<Vec<T>, E>
    where
        T: Send,
        E: Send,
        F: Fn(usize) -> Result<T, E> + Sync,
    {
        if self.jobs == 1 || len <= 1 {
            return (0..len).map(f).collect();
        }
        enum Failure<E> {
            Error(E),
            Panic(Box<dyn std::any::Any + Send>),
        }
        let next = AtomicUsize::new(0);
        // Lowest failing index seen so far; claims above it are skipped
        // (the serial loop would have stopped there, so those tasks are
        // unobservable and need not run).
        let failed_at = AtomicUsize::new(usize::MAX);
        let first_failure: Mutex<Option<(usize, Failure<E>)>> = Mutex::new(None);
        let note_failure = |index: usize, failure: Failure<E>| {
            failed_at.fetch_min(index, Ordering::Relaxed);
            let mut slot = first_failure
                .lock()
                .expect("failure slot lock is never poisoned: the store is infallible");
            match &*slot {
                Some((best, _)) if *best <= index => {}
                _ => *slot = Some((index, failure)),
            }
        };
        let slots: Vec<Mutex<Option<T>>> = (0..len).map(|_| Mutex::new(None)).collect();
        let participants = self.jobs.min(len);
        let claim_loop = || {
            loop {
                let index = next.fetch_add(1, Ordering::Relaxed);
                if index >= len {
                    break;
                }
                if index > failed_at.load(Ordering::Relaxed) {
                    continue;
                }
                // Tasks here are pure functions of their index whose
                // every failure ends in an error return or a re-raised
                // panic, so state a panic may have left behind in `f`'s
                // captures is never observed through a normal return.
                match panic::catch_unwind(panic::AssertUnwindSafe(|| f(index))) {
                    Ok(Ok(value)) => {
                        *slots[index].lock().expect(
                            "result slot lock is never poisoned: each slot is \
                             locked only around an infallible store",
                        ) = Some(value);
                    }
                    Ok(Err(error)) => note_failure(index, Failure::Error(error)),
                    Err(payload) => note_failure(index, Failure::Panic(payload)),
                }
            }
        };
        std::thread::scope(|scope| {
            let helpers: Vec<_> = (1..participants).map(|_| scope.spawn(claim_loop)).collect();
            claim_loop();
            // The scope alone returns once the helpers' closures finish, while
            // their threads may still be exiting; joining waits for the exit,
            // so the next fan-out reuses their stacks and malloc arenas
            // instead of mapping fresh ones.
            for helper in helpers {
                helper
                    .join()
                    .expect("a claim loop never panics: it catches every task's panic");
            }
        });
        if let Some((_, failure)) = first_failure
            .into_inner()
            .expect("failure slot lock is never poisoned")
        {
            match failure {
                Failure::Error(error) => return Err(error),
                Failure::Panic(payload) => panic::resume_unwind(payload),
            }
        }
        Ok(slots
            .into_iter()
            .map(|slot| {
                slot.into_inner()
                    .expect("result slot lock is never poisoned")
                    .expect("every index below len was claimed and computed")
            })
            .collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn jobs_are_clamped_to_at_least_one() {
        assert_eq!(Executor::new(0).jobs(), 1);
        assert_eq!(Executor::new(3).jobs(), 3);
        assert_eq!(resolve_jobs(Some(0)), 1);
        assert_eq!(resolve_jobs(Some(7)), 7);
        assert!(resolve_jobs(None) >= 1);
        assert_eq!(Executor::with_override(Some(5)).jobs(), 5);
    }

    #[test]
    fn env_jobs_resolution_has_pinned_edge_cases() {
        // Explicit override always wins, env untouched.
        assert_eq!(resolve_jobs_from(Some(3), Some("0")), (3, None));
        assert_eq!(resolve_jobs_from(Some(0), Some("8")), (1, None));
        // Valid env values (with surrounding whitespace) are honored.
        assert_eq!(resolve_jobs_from(None, Some("4")), (4, None));
        assert_eq!(resolve_jobs_from(None, Some(" 2 ")), (2, None));
        // Unset and empty fall through to available parallelism.
        let (fallback, note) = resolve_jobs_from(None, None);
        assert!(fallback >= 1);
        assert!(note.is_none());
        let (fallback, note) = resolve_jobs_from(None, Some("  "));
        assert!(fallback >= 1);
        assert!(note.is_none());
        // Set-but-invalid values clamp to 1 *with a diagnostic* — never a
        // panic, never a silent fall-through to a different width.
        for bad in ["0", "-2", "abc", "1.5", "4x", "999999999999999999999999"] {
            let (jobs, note) = resolve_jobs_from(None, Some(bad));
            assert_eq!(jobs, 1, "GOSSIP_JOBS={bad:?}");
            let note = note.expect("invalid value must produce a diagnostic");
            assert!(note.contains(JOBS_ENV_VAR), "{note}");
        }
    }

    #[test]
    fn map_preserves_input_order_at_any_job_count() {
        let expected: Vec<usize> = (0..97).map(|i| i * i).collect();
        for jobs in [1, 2, 3, 8, 64] {
            let got = Executor::new(jobs)
                .try_map_indexed(97, |i| Ok::<_, ()>(i * i))
                .unwrap();
            assert_eq!(got, expected, "jobs = {jobs}");
        }
    }

    #[test]
    fn empty_and_singleton_inputs_work() {
        let executor = Executor::new(4);
        assert_eq!(
            executor.try_map_indexed(0, Ok::<_, ()>).unwrap(),
            Vec::<usize>::new()
        );
        assert_eq!(
            executor
                .try_map_indexed(1, |i| Ok::<_, ()>(i + 10))
                .unwrap(),
            vec![10]
        );
    }

    #[test]
    fn every_index_is_computed_exactly_once() {
        let calls = AtomicU64::new(0);
        let results = Executor::new(8)
            .try_map_indexed(1000, |i| {
                calls.fetch_add(1, Ordering::Relaxed);
                Ok::<_, ()>(i)
            })
            .unwrap();
        assert_eq!(calls.load(Ordering::Relaxed), 1000);
        assert_eq!(results, (0..1000).collect::<Vec<_>>());
    }

    #[test]
    fn repeated_fanouts_stay_ordered() {
        // Many consecutive fan-outs from the same executor value; results
        // must stay ordered and complete.
        let executor = Executor::new(4);
        for round in 0..32u64 {
            let got = executor
                .try_map_indexed(64, |i| Ok::<_, ()>(round * 1000 + i as u64))
                .unwrap();
            let expected: Vec<u64> = (0..64).map(|i| round * 1000 + i).collect();
            assert_eq!(got, expected, "round = {round}");
        }
    }

    #[test]
    fn try_map_returns_lowest_index_error() {
        let executor = Executor::new(4);
        let result: Result<Vec<usize>, String> = executor.try_map_indexed(50, |i| {
            if i == 7 || i == 31 {
                Err(format!("task {i} failed"))
            } else {
                Ok(i)
            }
        });
        assert_eq!(result.unwrap_err(), "task 7 failed");
        let ok: Result<Vec<usize>, String> = executor.try_map_indexed(5, Ok);
        assert_eq!(ok.unwrap(), vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn serial_try_map_short_circuits() {
        let calls = AtomicU64::new(0);
        let result: Result<Vec<usize>, &str> = Executor::new(1).try_map_indexed(100, |i| {
            calls.fetch_add(1, Ordering::Relaxed);
            if i == 3 {
                Err("boom")
            } else {
                Ok(i)
            }
        });
        assert!(result.is_err());
        assert_eq!(
            calls.load(Ordering::Relaxed),
            4,
            "serial path stops at the error"
        );
    }

    #[test]
    fn failure_stops_claiming_higher_indices() {
        // After index 2 fails, no index above 2 is newly claimed: out of
        // 10 000 tasks, only indices ≤ 2 plus the handful already in
        // flight on other workers ever execute.
        let calls = AtomicU64::new(0);
        let result: Result<Vec<usize>, &str> = Executor::new(4).try_map_indexed(10_000, |i| {
            calls.fetch_add(1, Ordering::Relaxed);
            if i == 2 {
                Err("early failure")
            } else {
                Ok(i)
            }
        });
        assert_eq!(result.unwrap_err(), "early failure");
        let executed = calls.load(Ordering::Relaxed);
        assert!(
            executed < 100,
            "claiming should stop at the failure, but {executed} tasks ran"
        );
    }

    #[test]
    fn lowest_index_failure_wins_even_when_it_finishes_last() {
        // Index 0 sleeps, index 1 fails instantly; the slow low-index
        // failure must still be the one reported, as in the serial order.
        let result: Result<Vec<usize>, String> = Executor::new(4).try_map_indexed(4, |i| {
            if i == 0 {
                std::thread::sleep(std::time::Duration::from_millis(30));
                Err("failure at 0".to_string())
            } else if i == 1 {
                Err("failure at 1".to_string())
            } else {
                Ok(i)
            }
        });
        assert_eq!(result.unwrap_err(), "failure at 0");
    }

    #[test]
    fn worker_panic_propagates_with_its_payload() {
        let caught = panic::catch_unwind(|| {
            Executor::new(4).try_map_indexed(16, |i| {
                if i == 5 {
                    panic!("deliberate failure in task 5");
                }
                Ok::<_, ()>(i)
            })
        });
        let payload = caught.expect_err("panic must propagate to the caller");
        let message = payload
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_default();
        assert!(
            message.contains("deliberate failure in task 5"),
            "original payload must survive: {message:?}"
        );
    }

    #[test]
    fn describe_panic_renders_common_payloads() {
        let p = panic::catch_unwind(|| panic!("static str payload")).unwrap_err();
        assert_eq!(describe_panic(p.as_ref()), "static str payload");
        let p = panic::catch_unwind(|| panic!("formatted {} payload", 7)).unwrap_err();
        assert_eq!(describe_panic(p.as_ref()), "formatted 7 payload");
        let p = panic::catch_unwind(|| panic::panic_any(42u32)).unwrap_err();
        assert_eq!(describe_panic(p.as_ref()), "non-string panic payload");
    }

    #[test]
    fn nested_fanouts_complete_with_correct_results() {
        // A fan-out inside a fan-out (the shape of a parallel estimator
        // inside a parallel tier) starts its own threads and must still
        // collect every result in order.
        let outer = Executor::new(3);
        let got = outer
            .try_map_indexed(6, |i| {
                let inner: Vec<usize> = Executor::new(3).try_map_indexed(5, |j| Ok(i * 10 + j))?;
                Ok::<_, ()>(inner.iter().sum::<usize>())
            })
            .unwrap();
        let expected: Vec<usize> = (0..6).map(|i| (0..5).map(|j| i * 10 + j).sum()).collect();
        assert_eq!(got, expected);
    }

    #[test]
    fn parallel_results_match_serial_for_seeded_work() {
        // A stand-in for a seeded simulation run: a splitmix-style hash of
        // the index.  Serial and parallel collections must agree bitwise.
        let mix = |i: usize| {
            let mut z = (i as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15);
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z ^ (z >> 27)
        };
        let serial = Executor::new(1)
            .try_map_indexed(512, |i| Ok::<_, ()>(mix(i)))
            .unwrap();
        let parallel = Executor::new(7)
            .try_map_indexed(512, |i| Ok::<_, ()>(mix(i)))
            .unwrap();
        assert_eq!(serial, parallel);
    }
}
