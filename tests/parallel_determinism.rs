//! Parallel-executor determinism oracles.
//!
//! The deterministic run executor (`gossip-exec`) promises that fanning
//! independent seeded runs out over worker threads changes **nothing** about
//! the output: ordered collection makes every estimate, row, and report
//! byte-identical to the serial order.  This suite pins that promise on the
//! real production entry points (the Definition 1 estimator, the PERF tier,
//! the SIM_SCALE row machinery, a fully deterministic bench table) at
//! `jobs = 1` versus `jobs = 4`, plus the executor's panic-propagation
//! contract.
//!
//! Seeds 461–464 (see `tests/common`).

mod common;

use common::seeds;
use gossip_bench::runner::{self, HarnessConfig, MemScaleReport, PerfReport, SimScaleReport};
use sparse_cut_gossip::prelude::*;
use std::collections::BTreeSet;

/// Strips the lines of the perf report's declared volatile fields — the
/// set the CI determinism gate filters with `grep -vE` — from a
/// pretty-printed perf report.
fn strip_volatile(json: &str) -> String {
    json.lines()
        .filter(|line| {
            !PerfReport::VOLATILE
                .iter()
                .any(|field| line.trim_start().starts_with(&format!("\"{field}\":")))
        })
        .collect::<Vec<_>>()
        .join("\n")
}

#[test]
fn estimator_is_byte_identical_at_any_job_count() {
    let (graph, partition) = common::dumbbell_fixture(8);
    let estimate_at = |jobs: usize| {
        AveragingTimeEstimator::new(
            EstimatorConfig::new(seeds::PARALLEL_ESTIMATOR)
                .with_runs(8)
                .with_max_time(80.0 * theorem1_lower_bound(&partition) + 400.0)
                .with_jobs(Some(jobs)),
        )
        .estimate(&graph, &partition, VanillaGossip::new)
        .expect("estimation succeeds")
    };
    let serial = estimate_at(1);
    assert!(serial.fully_confirmed());
    for jobs in [2, 4] {
        let parallel = estimate_at(jobs);
        assert_eq!(serial, parallel, "jobs = {jobs}");
        // PartialEq on f64 conflates 0.0/-0.0; the settling times must agree
        // at the bit level for the reports built from them to diff clean.
        for (a, b) in serial
            .settling_times
            .iter()
            .zip(parallel.settling_times.iter())
        {
            assert_eq!(a.to_bits(), b.to_bits(), "jobs = {jobs}");
        }
    }
}

#[test]
fn perf_report_is_byte_identical_across_job_counts() {
    // Small sizes through the real `run_perf` machinery (the standard grid
    // is CI-sized); the report minus its declared volatile fields must
    // serialize to the same bytes at 1 and 4 jobs.
    let report_at = |jobs: usize| {
        let config = HarnessConfig {
            seed: seeds::PARALLEL_PERF,
            jobs: Some(jobs),
            ..HarnessConfig::quick()
        };
        let (report, _) =
            runner::run_perf_sized(&config, None, 256, 96, 4).expect("perf tier runs");
        report
    };
    let serial = report_at(1);
    let parallel = report_at(4);
    for row in &serial.throughput {
        assert_eq!(
            row.stop_reason, "Converged",
            "{} did not converge",
            row.family
        );
    }
    assert_eq!(serial.throughput.len(), 4, "one row per scale family");
    assert_eq!(serial.estimator.len(), 4);
    let serial_json = serde_json::to_string_pretty(&serial).unwrap();
    let parallel_json = serde_json::to_string_pretty(&parallel).unwrap();
    assert_eq!(strip_volatile(&serial_json), strip_volatile(&parallel_json));
    // The filter actually removed the volatile lines (guards against field
    // renames silently emptying the CI gate).
    assert!(serial_json.contains("\"wall_ms\""));
    assert!(!strip_volatile(&serial_json).contains("\"wall_ms\""));
}

#[test]
fn ci_gate_filters_name_exactly_the_declared_volatile_fields() {
    let ci = std::fs::read_to_string(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/.github/workflows/ci.yml"
    ))
    .expect("CI workflow is readable");
    let words: Vec<&str> = ci.split_whitespace().collect();
    let declared = [
        ("--perf-json", PerfReport::VOLATILE),
        ("--sim-scale-json", SimScaleReport::VOLATILE),
        ("--mem-scale-json", MemScaleReport::VOLATILE),
    ];
    let mut gated = Vec::new();
    for (i, word) in words.iter().enumerate() {
        let Some(alternation) = word.strip_prefix("filter='\"(") else {
            continue;
        };
        // The filter's first `grep -vE "$filter" <report>` names the report;
        // the `--*-json` flag that wrote it names the tier.
        let applied = words[i..].iter().position(|w| *w == "\"$filter\"");
        let report = words[i + applied.expect("the filter is applied") + 1];
        let flag = words
            .windows(2)
            .find(|pair| pair[1] == report)
            .expect("written")[0];
        let (_, volatile) = declared.iter().find(|(f, _)| *f == flag).expect("a tier");
        assert_eq!(
            alternation
                .trim_end_matches(")\":'")
                .split('|')
                .collect::<BTreeSet<_>>(),
            volatile.iter().copied().collect::<BTreeSet<_>>(),
            "the filter on {report} ({flag})"
        );
        gated.push(flag);
    }
    // The --jobs gate, the run-store and chaos gates, the MEM_SCALE
    // determinism gate, the full MEM_SCALE grid's --jobs gate, then the
    // committed-artifact gates.
    let expected = [
        "--perf-json",
        "--sim-scale-json",
        "--mem-scale-json",
        "--mem-scale-json",
        "--mem-scale-json",
        "--sim-scale-json",
        "--mem-scale-json",
        "--perf-json",
    ];
    assert_eq!(gated, expected);
}

#[test]
fn sim_scale_rows_are_byte_identical_across_job_counts() {
    let suite = gossip_workloads::scenarios::sim_scale_suite(512);
    let rows_at = |jobs: usize| {
        let config = HarnessConfig {
            seed: seeds::PARALLEL_SIM_SCALE,
            jobs: Some(jobs),
            ..HarnessConfig::quick()
        };
        runner::sim_scale_rows(&config, None, &suite).expect("sim-scale rows run")
    };
    let serial = rows_at(1);
    let parallel = rows_at(4);
    assert_eq!(serial.len(), parallel.len());
    for (a, b) in serial.iter().zip(parallel.iter()) {
        assert_eq!(a.family, b.family);
        assert_eq!(a.n, b.n);
        assert_eq!(a.edges, b.edges);
        assert_eq!(a.initial, b.initial);
        assert_eq!(a.ticks, b.ticks, "{}", a.family);
        assert_eq!(a.stop_time.to_bits(), b.stop_time.to_bits(), "{}", a.family);
        assert_eq!(a.stop_reason, b.stop_reason);
        assert_eq!(
            a.variance_ratio.to_bits(),
            b.variance_ratio.to_bits(),
            "{}",
            a.family
        );
        assert_eq!(a.moment_refreshes, b.moment_refreshes);
    }
}

#[test]
fn deterministic_bench_table_renders_identically_across_job_counts() {
    // E9 has no wall-clock columns, so the whole rendered table must match.
    let table_at = |jobs: usize| {
        let config = HarnessConfig {
            seed: seeds::PARALLEL_TABLE,
            jobs: Some(jobs),
            ..HarnessConfig::quick()
        };
        runner::run_e9(&config, None).expect("E9 runs").to_string()
    };
    assert_eq!(table_at(1), table_at(4));
}

#[test]
fn worker_panic_propagates_to_the_caller() {
    let caught = std::panic::catch_unwind(|| {
        Executor::new(4).try_map_indexed(32, |i| {
            if i == 11 {
                panic!("worker 11 exploded");
            }
            Ok::<_, ()>(i * 2)
        })
    });
    let payload = caught.expect_err("the executor must re-raise the worker panic");
    let message = payload
        .downcast_ref::<String>()
        .cloned()
        .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
        .unwrap_or_default();
    assert!(
        message.contains("worker 11 exploded"),
        "panic payload must survive propagation, got {message:?}"
    );
}

#[test]
fn panicking_run_inside_the_estimator_propagates() {
    // The estimator's fan-out must not swallow a panicking handler factory.
    let (graph, partition) = common::dumbbell_fixture(4);
    let caught = std::panic::catch_unwind(|| {
        AveragingTimeEstimator::new(
            EstimatorConfig::new(seeds::PARALLEL_ESTIMATOR)
                .with_runs(4)
                .with_jobs(Some(4)),
        )
        .estimate(&graph, &partition, || -> VanillaGossip {
            panic!("factory refused")
        })
    });
    assert!(caught.is_err(), "factory panic must reach the caller");
}
