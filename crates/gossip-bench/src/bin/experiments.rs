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
//! Tiers run in `ExperimentId::all()` order, and `Session::run` dispatches
//! each with one exhaustive `match` on its id.  `--only` tokens are
//! validated against the experiment index (`ExperimentId::cli_token`): an
//! unknown token prints the valid set and exits with status 2 instead of
//! silently running nothing.  Every flag that takes a value exits with
//! status 2 when the value is missing or is itself a flag (`--…`).
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
//! summary, and exits without running anything.
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
//! additionally write their structured reports.  Each report's flag and
//! default path come from the tier's token: SIM_SCALE writes
//! `BENCH_sim_scale.json` unless `--sim-scale-json <path>` names another
//! path.  Every report carries a `schema_version` field — the shared
//! `gossip_store::SCHEMA_VERSION` constant that also stamps every journal
//! record.  The robustness and
//! adversary reports carry no wall-clock fields, so CI diffs them
//! byte-for-byte; the others are diffed after stripping the fields their
//! report declares volatile (e.g. `runner::PerfReport::VOLATILE`).

use gossip_bench::runner::{self, BenchResult, HarnessConfig};
use gossip_bench::Table;
use gossip_store::RunStore;
use gossip_workloads::ExperimentId;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Mutex;

/// The report flag of a tier that writes a `BENCH_*.json` report
/// (`SIM_SCALE` → `--sim-scale-json`); `None` for the E-tables.
fn report_flag(id: ExperimentId) -> Option<String> {
    use ExperimentId::*;
    match id {
        E1 | E2 | E3 | E4 | E5 | E6 | E7 | E8 | E9 | E10 => None,
        Scale | SimScale | MemScale | Robustness | Perf | Adversary => Some(format!(
            "--{}-json",
            id.cli_token().to_lowercase().replace('_', "-")
        )),
    }
}

/// The default report path of a report-bearing tier (`SIM_SCALE` →
/// `BENCH_sim_scale.json`).
fn default_report_path(id: ExperimentId) -> String {
    format!("BENCH_{}.json", id.cli_token().to_lowercase())
}

/// One tier's output: its tables and, for report-bearing tiers, the
/// pretty-printed JSON report.
type TierOutput = (Vec<Table>, Option<String>);

/// One harness run: the dumbbell sweep backing E1–E3 is computed once and
/// shared, so `--only E1 E2 E3` costs one sweep, not three.
struct Session<'a> {
    config: &'a HarnessConfig,
    store: Option<&'a Mutex<RunStore>>,
    dumbbell: Option<Vec<runner::DumbbellSweepRow>>,
}

impl<'a> Session<'a> {
    fn new(config: &'a HarnessConfig, store: Option<&'a Mutex<RunStore>>) -> Self {
        Session {
            config,
            store,
            dumbbell: None,
        }
    }

    fn dumbbell(&mut self) -> BenchResult<&[runner::DumbbellSweepRow]> {
        if self.dumbbell.is_none() {
            self.dumbbell = Some(runner::run_dumbbell_sweep(self.config, self.store)?);
        }
        Ok(self.dumbbell.as_deref().expect("sweep memoized above"))
    }

    /// Runs one tier.
    fn run(&mut self, id: ExperimentId) -> BenchResult<TierOutput> {
        fn reported<R: serde::Serialize>(
            id: ExperimentId,
            report: R,
            tables: Vec<Table>,
        ) -> BenchResult<TierOutput> {
            let json = serde_json::to_string_pretty(&report).map_err(|error| {
                format!("failed to serialize {} report: {error}", id.cli_token())
            })?;
            Ok((tables, Some(json)))
        }
        use ExperimentId::*;
        let (config, store) = (self.config, self.store);
        Ok(match id {
            E1 => (vec![runner::table_e1(self.dumbbell()?)], None),
            E2 => (vec![runner::table_e2(self.dumbbell()?)], None),
            E3 => (vec![runner::table_e3(self.dumbbell()?)], None),
            E4 => (vec![runner::run_e4(config, store)?.1], None),
            E5 => (vec![runner::run_e5(config, store)?.1], None),
            E6 => {
                let (cut_table, c_table) = runner::run_e6(config, store)?;
                (vec![cut_table, c_table], None)
            }
            E7 => (vec![runner::run_e7(config, store)?], None),
            E8 => (vec![runner::run_e8(config, store)?], None),
            E9 => (vec![runner::run_e9(config, store)?], None),
            E10 => (vec![runner::run_e10(config, store)?.1], None),
            Scale => {
                runner::run_scale(config, store).and_then(|(r, t)| reported(id, r, vec![t]))?
            }
            SimScale => {
                runner::run_sim_scale(config, store).and_then(|(r, t)| reported(id, r, vec![t]))?
            }
            MemScale => {
                runner::run_mem_scale(config, store).and_then(|(r, t)| reported(id, r, vec![t]))?
            }
            Robustness => {
                runner::run_robustness(config, store).and_then(|(r, t)| reported(id, r, vec![t]))?
            }
            Perf => {
                runner::run_perf(config, store).and_then(|(r, tables)| reported(id, r, tables))?
            }
            Adversary => {
                runner::run_adversary(config, store).and_then(|(r, t)| reported(id, r, vec![t]))?
            }
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

/// Prints `message` and the usage, and exits with status 2.
fn usage_error(message: &str) -> ! {
    eprintln!("{message}");
    print_usage();
    std::process::exit(2);
}

/// Prints `message` and exits with status 1.
fn fatal(message: String) -> ! {
    eprintln!("{message}");
    std::process::exit(1);
}

/// Reads the value of the flag at `args[*i]` and moves `i` onto it.  A
/// missing value, a value that is itself a flag (`--…`), or one `parse`
/// rejects is a usage error carrying `message`.
fn flag_value<T>(
    args: &[String],
    i: &mut usize,
    message: &str,
    parse: impl FnOnce(&str) -> Option<T>,
) -> T {
    *i += 1;
    args.get(*i)
        .filter(|value| !value.starts_with("--"))
        .and_then(|value| parse(value))
        .unwrap_or_else(|| usage_error(message))
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut config = HarnessConfig::full();
    let mut only: BTreeSet<String> = BTreeSet::new();
    let mut json_path: Option<String> = None;
    let mut store_dir: Option<String> = None;
    let mut resume = false;
    let mut store_summary = false;
    let mut report_paths: BTreeMap<ExperimentId, String> = BTreeMap::new();
    let valid_tokens: BTreeSet<&'static str> = ExperimentId::all()
        .iter()
        .map(|id| id.cli_token())
        .collect();
    let path = |value: &str| Some(value.to_string());

    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--quick" => config.quick = true,
            "--resume" => resume = true,
            "--store-summary" => store_summary = true,
            "--seed" => {
                config.seed =
                    flag_value(&args, &mut i, "--seed requires an unsigned integer", |v| {
                        v.parse().ok()
                    });
            }
            "--jobs" => {
                let jobs = flag_value(&args, &mut i, "--jobs requires a positive integer", |v| {
                    v.parse().ok().filter(|&jobs: &usize| jobs >= 1)
                });
                config.jobs = Some(jobs);
            }
            "--checkpoint-every-ticks" => {
                config.checkpoint_every_ticks = flag_value(
                    &args,
                    &mut i,
                    "--checkpoint-every-ticks requires an unsigned integer (0 disables)",
                    |v| v.parse().ok(),
                );
            }
            "--trial-deadline-secs" => {
                let secs = flag_value(
                    &args,
                    &mut i,
                    "--trial-deadline-secs requires a positive integer",
                    |v| v.parse().ok().filter(|&secs: &u64| secs >= 1),
                );
                config.trial_deadline = Some(std::time::Duration::from_secs(secs));
            }
            "--only" => {
                let valid = || valid_tokens.iter().copied().collect::<Vec<_>>().join(" ");
                i += 1;
                let first = i;
                while i < args.len() && !args[i].starts_with("--") {
                    let token = args[i].to_uppercase();
                    if !valid_tokens.contains(token.as_str()) {
                        usage_error(&format!(
                            "unknown experiment '{}' for --only; valid tokens: {}",
                            args[i],
                            valid()
                        ));
                    }
                    only.insert(token);
                    i += 1;
                }
                // An empty set would read as "every tier" below.
                if i == first {
                    usage_error(&format!(
                        "--only requires at least one token; valid tokens: {}",
                        valid()
                    ));
                }
                continue;
            }
            "--json" => json_path = Some(flag_value(&args, &mut i, "--json requires a path", path)),
            "--store-dir" => {
                store_dir = Some(flag_value(
                    &args,
                    &mut i,
                    "--store-dir requires a directory path",
                    path,
                ));
            }
            "--help" | "-h" => {
                print_usage();
                return;
            }
            other => {
                // The six report flags come from the tier tokens.
                let Some(id) = ExperimentId::all()
                    .into_iter()
                    .find(|&id| report_flag(id).as_deref() == Some(other))
                else {
                    usage_error(&format!("unknown argument: {other}"));
                };
                let message = format!("{other} requires a path");
                report_paths.insert(id, flag_value(&args, &mut i, &message, path));
            }
        }
        i += 1;
    }

    // Checkpoints are committed to the store, so a non-zero cadence without
    // one would capture and encode every checkpoint only to drop it.
    if (resume || store_summary || config.checkpoint_every_ticks != 0) && store_dir.is_none() {
        usage_error(
            "--resume, --store-summary and a non-zero --checkpoint-every-ticks require --store-dir",
        );
    }

    // Open the run store (resume mode also for --store-summary: a summary
    // must never reset journals).
    let store = store_dir.map(|dir| {
        match RunStore::open(std::path::Path::new(&dir), resume || store_summary) {
            Ok(store) => {
                for note in store.notes() {
                    eprintln!("run store: {note}");
                }
                store
            }
            Err(error) => fatal(format!("failed to open run store at {dir}: {error}")),
        }
    });

    if store_summary {
        for line in store.expect("checked above").summary_lines() {
            println!("{line}");
        }
        return;
    }

    let store = store.map(Mutex::new);
    let wanted = |token: &str| only.is_empty() || only.contains(token);
    let mut session = Session::new(&config, store.as_ref());
    let mut tables: Vec<Table> = Vec::new();
    let mut reports: Vec<(ExperimentId, String)> = Vec::new();

    for id in ExperimentId::all() {
        if !wanted(id.cli_token()) {
            continue;
        }
        let (tier_tables, report) = session
            .run(id)
            .unwrap_or_else(|error| fatal(format!("experiment harness failed: {error}")));
        tables.extend(tier_tables);
        reports.extend(report.map(|report| (id, report)));
    }

    println!(
        "# Sparse-cut gossip experiment harness ({} mode, seed {})\n",
        if config.quick { "quick" } else { "full" },
        config.seed
    );
    for table in &tables {
        println!("{table}");
    }

    for (id, report) in &reports {
        let path = report_paths
            .remove(id)
            .unwrap_or_else(|| default_report_path(*id));
        if let Err(error) = std::fs::write(&path, report) {
            fatal(format!("failed to write {path}: {error}"));
        }
        eprintln!("wrote {} report to {path}", id.cli_token().to_lowercase());
    }

    if let Some(path) = json_path {
        let json = serde_json::to_string_pretty(&tables)
            .unwrap_or_else(|error| fatal(format!("failed to serialize results: {error}")));
        if let Err(error) = std::fs::write(&path, json) {
            fatal(format!("failed to write {path}: {error}"));
        }
        eprintln!("wrote JSON results to {path}");
    }

    if let Some(store) = store {
        let store = store.into_inner().expect("run store mutex poisoned");
        for line in store.count_lines() {
            eprintln!("{line}");
        }
        for line in store.summary_lines() {
            eprintln!("store: {line}");
        }
    }
}
