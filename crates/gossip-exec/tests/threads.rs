//! No worker outlives its fan-out.
//!
//! Counts this process's threads (`Threads:` in `/proc/self/status`) while
//! fan-outs run and after they return.  Linux only, and the only test in
//! its binary, so no sibling test thread moves the count.

#![cfg(target_os = "linux")]

use gossip_exec::Executor;
use std::time::{Duration, Instant};

fn thread_count() -> usize {
    std::fs::read_to_string("/proc/self/status")
        .expect("/proc/self/status is readable on Linux")
        .lines()
        .find_map(|line| line.strip_prefix("Threads:"))
        .and_then(|count| count.trim().parse().ok())
        .expect("/proc/self/status has a numeric Threads: line")
}

#[test]
fn fanouts_start_at_most_jobs_minus_one_threads_and_join_them_all() {
    let baseline = thread_count();
    for (jobs, len) in [(2, 8), (4, 3), (8, 64)] {
        let counts = Executor::new(jobs)
            .try_map_indexed(len, |_| {
                std::thread::sleep(Duration::from_millis(5));
                Ok::<_, ()>(thread_count())
            })
            .unwrap();
        let peak = counts.into_iter().max().expect("every case has tasks");
        let bound = baseline + jobs.min(len) - 1;
        assert!(
            (baseline + 1..=bound).contains(&peak),
            "jobs {jobs}, len {len}: peak {peak} threads, expected {}..={bound}",
            baseline + 1
        );
        // A joined thread leaves the count a moment after `join` returns.
        let deadline = Instant::now() + Duration::from_secs(2);
        loop {
            let now = thread_count();
            if now <= baseline {
                break;
            }
            assert!(
                Instant::now() < deadline,
                "workers outlived the fan-out: jobs {jobs}, len {len}, \
                 {now} threads 2 s later, baseline {baseline}"
            );
            std::thread::sleep(Duration::from_millis(1));
        }
    }
}
