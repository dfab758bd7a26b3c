//! Experiment harness binary.
//!
//! Regenerates every experiment table of the reproduction (E1–E10, see
//! `gossip_workloads::experiments`) plus the SCALE, SIM_SCALE, MEM_SCALE,
//! ROBUSTNESS, PERF and ADVERSARY tiers.
//!
//! Usage:
//!
//! ```text
//! cargo run -p gossip-bench --release --bin experiments             # full run
//! cargo run -p gossip-bench --release --bin experiments -- --quick  # reduced sizes
//! cargo run -p gossip-bench --release --bin experiments -- --only E1 E3
//! cargo run -p gossip-bench --release --bin experiments -- --json results.json
//! cargo run -p gossip-bench --release --bin experiments -- --only PERF --jobs 4
//! cargo run -p gossip-bench --release --bin experiments -- \
//!     --only SIM_SCALE --store-dir runs/quick --resume
//! cargo run -p gossip-bench --release --bin experiments -- \
//!     --store-dir runs/quick --store-summary
//! ```
//!
//! Every tier is one row of the [`TIERS`] registry: its `--only` token, its
//! report flag (`--scale-json`, `--perf-json`, …) and its default report
//! path all come from that one table, so adding a tier means adding a row
//! and a match arm — not another hand-rolled flag parser.  `--only` tokens
//! are validated against the experiment index (`ExperimentId::cli_token`):
//! an unknown token prints the valid set and exits with status 2 instead of
//! silently running nothing.
//!
//! `--jobs <n>` bounds the deterministic run executor that fans trials out
//! over worker threads; every table and report is byte-identical at any
//! `--jobs` value (wall-clock columns aside).
//!
//! `--store-dir <dir>` journals every computed trial into an append-only
//! run store (`<dir>/<tier>.jsonl`, one record per committed trial; see
//! `gossip-store`).  Without `--resume` the run is *fresh*: each tier's
//! journal is reset the first time the tier commits.  With `--resume` the
//! store is loaded first and every already-committed trial is **skipped**
//! — its row replays bit-identically from the journal — so an interrupted
//! sweep continues where it stopped and renders the same bytes an
//! uninterrupted run would have (wall-clock fields replay as committed).
//! A truncated final record (a crash mid-append) is detected and dropped
//! on load; the trial is simply recomputed.  Per-tier `replayed/computed`
//! counts and the grouped store summary print to stderr after the run.
//! `--store-summary` loads the store, prints the per-tier/per-family
//! analysis view, and exits without running anything.
//!
//! `--checkpoint-every-ticks <n>` turns on crash-consistent *mid-run*
//! checkpoints for the MEM_SCALE tier's timed runs: every `n` ticks an
//! engine checkpoint is committed to `<dir>/mem_scale.ckpt.jsonl`, and a
//! `--resume` restores the newest one instead of recomputing the trial
//! from tick 0 (restored runs are bit-identical to uninterrupted ones).
//! Like `--resume` and `--store-summary`, a non-zero cadence requires
//! `--store-dir`; `0` (the default) disables capture.
//! `--trial-deadline-secs <n>` puts a wall-clock deadline on every trial
//! that builds its own `SimulationConfig` (E4, E5, SIM_SCALE, MEM_SCALE,
//! ROBUSTNESS, ADVERSARY and the PERF throughput rows); a trial that
//! exceeds it is journaled as `deadline_censored` and dropped from the
//! sweep instead of hanging it.  Estimator-backed trials (DUMBBELL, E6,
//! E7, E8, E10 and the PERF estimator rows) and E7's synchronous baselines
//! never receive it.
//! A panicking trial surfaces as an error carrying its panic message.
//!
//! The SCALE, SIM_SCALE, MEM_SCALE, ROBUSTNESS, PERF and ADVERSARY tiers
//! additionally write their structured reports to `BENCH_*.json` (paths
//! overridable via the registry's flags).  Every report carries a
//! `schema_version` field — the shared `gossip_store::SCHEMA_VERSION`
//! constant that also stamps every journal record.  The robustness and
//! adversary reports carry no wall-clock fields, so CI diffs them
//! byte-for-byte; the others are diffed after stripping the fields their
//! report declares volatile (e.g. `runner::PerfReport::VOLATILE`).

use gossip_bench::runner::{self, BenchResult, HarnessConfig};
use gossip_bench::Table;
use gossip_store::{NullSink, RunStore, StoreSink, StoreSummary, TrialSink};
use gossip_workloads::ExperimentId;
use std::collections::{BTreeMap, BTreeSet};

/// One bench tier as the CLI sees it: the `--only` token, the report-path
/// override flag (if the tier writes a `BENCH_*.json` report), and the
/// default report path.
struct TierSpec {
    token: &'static str,
    json_flag: Option<&'static str>,
    default_json: Option<&'static str>,
}

/// The tier registry, in execution order.  One row per [`ExperimentId`]
/// (covered exactly — see the registry test).
const TIERS: &[TierSpec] = &[
    TierSpec {
        token: "E1",
        json_flag: None,
        default_json: None,
    },
    TierSpec {
        token: "E2",
        json_flag: None,
        default_json: None,
    },
    TierSpec {
        token: "E3",
        json_flag: None,
        default_json: None,
    },
    TierSpec {
        token: "E4",
        json_flag: None,
        default_json: None,
    },
    TierSpec {
        token: "E5",
        json_flag: None,
        default_json: None,
    },
    TierSpec {
        token: "E6",
        json_flag: None,
        default_json: None,
    },
    TierSpec {
        token: "E7",
        json_flag: None,
        default_json: None,
    },
    TierSpec {
        token: "E8",
        json_flag: None,
        default_json: None,
    },
    TierSpec {
        token: "E9",
        json_flag: None,
        default_json: None,
    },
    TierSpec {
        token: "E10",
        json_flag: None,
        default_json: None,
    },
    TierSpec {
        token: "SCALE",
        json_flag: Some("--scale-json"),
        default_json: Some("BENCH_scale.json"),
    },
    TierSpec {
        token: "SIM_SCALE",
        json_flag: Some("--sim-scale-json"),
        default_json: Some("BENCH_sim_scale.json"),
    },
    TierSpec {
        token: "MEM_SCALE",
        json_flag: Some("--mem-scale-json"),
        default_json: Some("BENCH_mem_scale.json"),
    },
    TierSpec {
        token: "ROBUSTNESS",
        json_flag: Some("--robustness-json"),
        default_json: Some("BENCH_robustness.json"),
    },
    TierSpec {
        token: "PERF",
        json_flag: Some("--perf-json"),
        default_json: Some("BENCH_perf.json"),
    },
    TierSpec {
        token: "ADVERSARY",
        json_flag: Some("--adversary-json"),
        default_json: Some("BENCH_adversary.json"),
    },
];

/// One harness run: the dumbbell sweep backing E1–E3 is computed once and
/// shared, so `--only E1 E2 E3` costs one sweep, not three.
struct Session<'a> {
    config: &'a HarnessConfig,
    sink: &'a dyn TrialSink,
    dumbbell: Option<runner::DumbbellSweep>,
}

impl<'a> Session<'a> {
    fn new(config: &'a HarnessConfig, sink: &'a dyn TrialSink) -> Self {
        Session {
            config,
            sink,
            dumbbell: None,
        }
    }

    fn dumbbell(&mut self) -> BenchResult<&runner::DumbbellSweep> {
        if self.dumbbell.is_none() {
            self.dumbbell = Some(runner::run_dumbbell_sweep(self.config, self.sink)?);
        }
        Ok(self.dumbbell.as_ref().expect("sweep memoized above"))
    }

    /// Runs one tier, returning its tables and (for report-bearing tiers)
    /// the pretty-printed JSON report.
    fn run(&mut self, token: &str) -> BenchResult<(Vec<Table>, Option<String>)> {
        fn pretty<T: serde::Serialize>(token: &str, report: &T) -> BenchResult<String> {
            serde_json::to_string_pretty(report)
                .map_err(|error| format!("failed to serialize {token} report: {error}").into())
        }
        Ok(match token {
            "E1" => (vec![runner::table_e1(self.dumbbell()?)], None),
            "E2" => (vec![runner::table_e2(self.dumbbell()?)], None),
            "E3" => (vec![runner::table_e3(self.dumbbell()?)], None),
            "E4" => (vec![runner::run_e4(self.config, self.sink)?.1], None),
            "E5" => (vec![runner::run_e5(self.config, self.sink)?.1], None),
            "E6" => {
                let (cut_table, c_table) = runner::run_e6(self.config, self.sink)?;
                (vec![cut_table, c_table], None)
            }
            "E7" => (vec![runner::run_e7(self.config, self.sink)?], None),
            "E8" => (vec![runner::run_e8(self.config, self.sink)?], None),
            "E9" => (vec![runner::run_e9(self.config, self.sink)?], None),
            "E10" => (vec![runner::run_e10(self.config, self.sink)?.1], None),
            "SCALE" => {
                let (report, table) = runner::run_scale(self.config, self.sink)?;
                (vec![table], Some(pretty(token, &report)?))
            }
            "SIM_SCALE" => {
                let (report, table) = runner::run_sim_scale(self.config, self.sink)?;
                (vec![table], Some(pretty(token, &report)?))
            }
            "MEM_SCALE" => {
                let (report, table) = runner::run_mem_scale(self.config, self.sink)?;
                (vec![table], Some(pretty(token, &report)?))
            }
            "ROBUSTNESS" => {
                let (report, table) = runner::run_robustness(self.config, self.sink)?;
                (vec![table], Some(pretty(token, &report)?))
            }
            "PERF" => {
                let (report, tables) = runner::run_perf(self.config, self.sink)?;
                (tables, Some(pretty(token, &report)?))
            }
            "ADVERSARY" => {
                let (report, table) = runner::run_adversary(self.config, self.sink)?;
                (vec![table], Some(pretty(token, &report)?))
            }
            other => return Err(format!("tier {other} is not in the registry").into()),
        })
    }
}

fn print_usage() {
    eprintln!(
        "usage: experiments [--quick] [--seed <u64>] [--jobs <n>] \
         [--only E1 E2 ... SCALE SIM_SCALE MEM_SCALE ROBUSTNESS PERF ADVERSARY] [--json <path>] \
         [--store-dir <dir>] [--resume] [--store-summary] \
         [--checkpoint-every-ticks <n>] [--trial-deadline-secs <n>] \
         [--scale-json <path>] [--sim-scale-json <path>] [--mem-scale-json <path>] \
         [--robustness-json <path>] [--perf-json <path>] [--adversary-json <path>]"
    );
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut config = HarnessConfig::full();
    let mut only: BTreeSet<String> = BTreeSet::new();
    let mut json_path: Option<String> = None;
    let mut store_dir: Option<String> = None;
    let mut resume = false;
    let mut store_summary = false;
    let mut report_paths: BTreeMap<&'static str, String> = TIERS
        .iter()
        .filter_map(|tier| Some((tier.token, tier.default_json?.to_string())))
        .collect();
    let valid_tokens: BTreeSet<&'static str> = ExperimentId::all()
        .iter()
        .map(|id| id.cli_token())
        .collect();

    let mut i = 0;
    while i < args.len() {
        let arg = args[i].as_str();
        // Report-path flags come straight from the registry.
        if let Some(tier) = TIERS.iter().find(|tier| tier.json_flag == Some(arg)) {
            i += 1;
            match args.get(i) {
                Some(path) => {
                    report_paths.insert(tier.token, path.clone());
                }
                None => {
                    eprintln!("{arg} requires a path");
                    print_usage();
                    std::process::exit(2);
                }
            }
            i += 1;
            continue;
        }
        match arg {
            "--quick" => config.quick = true,
            "--resume" => resume = true,
            "--store-summary" => store_summary = true,
            "--seed" => {
                i += 1;
                match args.get(i).and_then(|s| s.parse::<u64>().ok()) {
                    Some(seed) => config.seed = seed,
                    None => {
                        eprintln!("--seed requires an unsigned integer");
                        print_usage();
                        std::process::exit(2);
                    }
                }
            }
            "--jobs" => {
                i += 1;
                match args.get(i).and_then(|s| s.parse::<usize>().ok()) {
                    Some(jobs) if jobs >= 1 => config.jobs = Some(jobs),
                    _ => {
                        eprintln!("--jobs requires a positive integer");
                        print_usage();
                        std::process::exit(2);
                    }
                }
            }
            "--checkpoint-every-ticks" => {
                i += 1;
                match args.get(i).and_then(|s| s.parse::<u64>().ok()) {
                    Some(ticks) => config.checkpoint_every_ticks = ticks,
                    None => {
                        eprintln!(
                            "--checkpoint-every-ticks requires an unsigned integer (0 disables)"
                        );
                        print_usage();
                        std::process::exit(2);
                    }
                }
            }
            "--trial-deadline-secs" => {
                i += 1;
                match args.get(i).and_then(|s| s.parse::<u64>().ok()) {
                    Some(secs) if secs >= 1 => {
                        config.trial_deadline = Some(std::time::Duration::from_secs(secs));
                    }
                    _ => {
                        eprintln!("--trial-deadline-secs requires a positive integer");
                        print_usage();
                        std::process::exit(2);
                    }
                }
            }
            "--only" => {
                let valid = || valid_tokens.iter().copied().collect::<Vec<_>>().join(" ");
                i += 1;
                let first = i;
                while i < args.len() && !args[i].starts_with("--") {
                    let token = args[i].to_uppercase();
                    if !valid_tokens.contains(token.as_str()) {
                        eprintln!(
                            "unknown experiment '{}' for --only; valid tokens: {}",
                            args[i],
                            valid()
                        );
                        print_usage();
                        std::process::exit(2);
                    }
                    only.insert(token);
                    i += 1;
                }
                // An empty set would read as "every tier" below.
                if i == first {
                    eprintln!(
                        "--only requires at least one token; valid tokens: {}",
                        valid()
                    );
                    print_usage();
                    std::process::exit(2);
                }
                continue;
            }
            "--json" => {
                i += 1;
                match args.get(i) {
                    Some(path) => json_path = Some(path.clone()),
                    None => {
                        eprintln!("--json requires a path");
                        print_usage();
                        std::process::exit(2);
                    }
                }
            }
            "--store-dir" => {
                i += 1;
                match args.get(i) {
                    Some(dir) => store_dir = Some(dir.clone()),
                    None => {
                        eprintln!("--store-dir requires a directory path");
                        print_usage();
                        std::process::exit(2);
                    }
                }
            }
            "--help" | "-h" => {
                print_usage();
                return;
            }
            other => {
                eprintln!("unknown argument: {other}");
                print_usage();
                std::process::exit(2);
            }
        }
        i += 1;
    }

    // Checkpoints are committed to the store, so a non-zero cadence without
    // one would capture and encode every checkpoint only to drop it.
    if (resume || store_summary || config.checkpoint_every_ticks != 0) && store_dir.is_none() {
        eprintln!(
            "--resume, --store-summary and a non-zero --checkpoint-every-ticks require --store-dir"
        );
        print_usage();
        std::process::exit(2);
    }

    // Open the run store (resume mode also for --store-summary: a summary
    // must never reset journals).
    let store_sink: Option<StoreSink> = match &store_dir {
        Some(dir) => match RunStore::open(std::path::Path::new(dir), resume || store_summary) {
            Ok(store) => {
                for note in store.notes() {
                    eprintln!("run store: {note}");
                }
                Some(StoreSink::new(store))
            }
            Err(error) => {
                eprintln!("failed to open run store at {dir}: {error}");
                std::process::exit(1);
            }
        },
        None => None,
    };

    if store_summary {
        let sink = store_sink.expect("checked above");
        let store = sink.into_store();
        for line in StoreSummary::from_store(&store).render_lines() {
            println!("{line}");
        }
        return;
    }

    let sink: &dyn TrialSink = match &store_sink {
        Some(sink) => sink,
        None => &NullSink,
    };
    let wanted = |token: &str| only.is_empty() || only.contains(token);
    let mut session = Session::new(&config, sink);
    let mut tables: Vec<Table> = Vec::new();
    let mut reports: Vec<(&'static str, String)> = Vec::new();

    for tier in TIERS {
        if !wanted(tier.token) {
            continue;
        }
        match session.run(tier.token) {
            Ok((tier_tables, report)) => {
                tables.extend(tier_tables);
                if let Some(report) = report {
                    reports.push((tier.token, report));
                }
            }
            Err(error) => {
                eprintln!("experiment harness failed: {error}");
                std::process::exit(1);
            }
        }
    }

    println!(
        "# Sparse-cut gossip experiment harness ({} mode, seed {})\n",
        if config.quick { "quick" } else { "full" },
        config.seed
    );
    for table in &tables {
        println!("{table}");
    }

    for (token, report) in &reports {
        let path = &report_paths[token];
        if let Err(error) = std::fs::write(path, report) {
            eprintln!("failed to write {path}: {error}");
            std::process::exit(1);
        }
        eprintln!("wrote {} report to {path}", token.to_lowercase());
    }

    if let Some(path) = json_path {
        match serde_json::to_string_pretty(&tables) {
            Ok(json) => {
                if let Err(error) = std::fs::write(&path, json) {
                    eprintln!("failed to write {path}: {error}");
                    std::process::exit(1);
                }
                eprintln!("wrote JSON results to {path}");
            }
            Err(error) => {
                eprintln!("failed to serialize results: {error}");
                std::process::exit(1);
            }
        }
    }

    if let Some(sink) = store_sink {
        for line in sink.summary_lines() {
            eprintln!("{line}");
        }
        let store = sink.into_store();
        for line in StoreSummary::from_store(&store).render_lines() {
            eprintln!("store: {line}");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_covers_every_experiment_exactly_once() {
        let registry: Vec<&str> = TIERS.iter().map(|tier| tier.token).collect();
        let mut deduped = registry.clone();
        deduped.sort_unstable();
        deduped.dedup();
        assert_eq!(deduped.len(), registry.len(), "duplicate registry row");
        let index: BTreeSet<&str> = ExperimentId::all()
            .iter()
            .map(|id| id.cli_token())
            .collect();
        let registry: BTreeSet<&str> = registry.into_iter().collect();
        assert_eq!(registry, index);
    }

    #[test]
    fn report_bearing_tiers_have_both_flag_and_default() {
        for tier in TIERS {
            assert_eq!(
                tier.json_flag.is_some(),
                tier.default_json.is_some(),
                "{} must have a flag iff it has a default path",
                tier.token
            );
            if let Some(flag) = tier.json_flag {
                assert!(flag.starts_with("--") && flag.ends_with("-json"));
            }
        }
    }
}
