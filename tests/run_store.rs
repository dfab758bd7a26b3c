//! Run-store journal and resume oracles.
//!
//! The run store (`gossip-store`) promises that an interrupted sweep can be
//! resumed: every committed trial replays bit-identically from its journal,
//! only the missing trials are recomputed, and a crash that damages the
//! final journal line is detected, dropped, and recovered from.  This suite
//! pins those promises on the real SIM_SCALE tier machinery
//! (`runner::run_sim_scale` through a `StoreSink`), not on store unit
//! fixtures — the same path the `experiments` binary's `--store-dir
//! --resume` flags exercise and the CI interrupt-and-resume gate drives
//! end to end.
//!
//! Seeds 491–492 (see `tests/common`).

mod common;

use common::seeds;
use gossip_bench::runner::{self, HarnessConfig, MemScaleRow, SimScaleReport};
use gossip_bench::trial::{engine_fingerprint, TrialRow};
use gossip_store::{RunStore, StoreSink};
use std::path::{Path, PathBuf};

fn temp_store(tag: &str) -> PathBuf {
    let mut path = std::env::temp_dir();
    path.push(format!("gossip-run-store-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&path);
    path
}

fn config(seed: u64) -> HarnessConfig {
    HarnessConfig {
        seed,
        // jobs = 1 keeps journal line order equal to trial order, so the
        // crash-simulation below knows exactly which trials survive.
        jobs: Some(1),
        ..HarnessConfig::quick()
    }
}

/// Runs the SIM_SCALE tier through a store sink rooted at `dir`, returning
/// the report and the per-tier (replayed, computed) counts.
fn run_sim_scale_with_store(dir: &Path, seed: u64, resume: bool) -> (SimScaleReport, usize, usize) {
    let sink = StoreSink::new(RunStore::open(dir, resume).expect("store opens"));
    let (report, _table) = runner::run_sim_scale(&config(seed), &sink).expect("tier runs");
    let stats = sink.stats();
    let tier = stats.get("SIM_SCALE").copied().unwrap_or_default();
    (report, tier.replayed, tier.computed)
}

fn journal_path(dir: &Path) -> PathBuf {
    dir.join("sim_scale.jsonl")
}

fn journal_lines(dir: &Path) -> Vec<String> {
    std::fs::read_to_string(journal_path(dir))
        .expect("journal exists")
        .lines()
        .map(str::to_string)
        .collect()
}

/// Strips the wall-clock lines — the same field set the CI gate filters
/// with `grep -vE` — so interrupted-then-resumed reports (whose recomputed
/// trials re-time themselves) diff clean against uninterrupted ones.
fn strip_wall_clock(json: &str) -> String {
    json.lines()
        .filter(|line| {
            !["\"wall_ms\":", "\"ticks_per_sec\":"]
                .iter()
                .any(|needle| line.trim_start().starts_with(needle))
        })
        .collect::<Vec<_>>()
        .join("\n")
}

fn pretty(report: &SimScaleReport) -> String {
    serde_json::to_string_pretty(report).expect("report serializes")
}

#[test]
fn fresh_run_journals_every_trial_and_full_resume_replays_byte_identically() {
    let dir = temp_store("full-replay");
    let (reference, replayed, computed) =
        run_sim_scale_with_store(&dir, seeds::RUN_STORE_SWEEP, false);
    assert_eq!(replayed, 0, "a fresh store has nothing to replay");
    assert_eq!(computed, reference.rows.len());
    assert_eq!(
        journal_lines(&dir).len(),
        reference.rows.len(),
        "one journal line per committed trial"
    );

    // Resume over a complete journal: every trial replays, nothing is
    // recomputed, and the report — wall-clock fields included, since they
    // replay as committed — is byte-identical.
    let (resumed, replayed, computed) =
        run_sim_scale_with_store(&dir, seeds::RUN_STORE_SWEEP, true);
    assert_eq!(replayed, reference.rows.len());
    assert_eq!(computed, 0);
    assert_eq!(pretty(&resumed), pretty(&reference));
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn crash_tail_is_dropped_and_resume_recomputes_only_the_missing_trials() {
    let dir = temp_store("crash-resume");
    let (reference, _, _) = run_sim_scale_with_store(&dir, seeds::RUN_STORE_SWEEP, false);
    let total = reference.rows.len();
    assert!(total >= 3, "the suite needs at least 3 trials to interrupt");

    // Simulate a crash mid-append: keep the first two committed records
    // plus an unterminated fragment of the third.
    let lines = journal_lines(&dir);
    let mut damaged = format!("{}\n{}\n", lines[0], lines[1]);
    damaged.push_str(&lines[2][..lines[2].len() / 2]);
    std::fs::write(journal_path(&dir), &damaged).unwrap();

    // The resume load must notice the tail, drop it, and report it.
    let store = RunStore::open(&dir, true).expect("damaged tail still opens");
    assert!(
        store
            .notes()
            .iter()
            .any(|n| n.contains("dropped crash tail")),
        "load notes must surface the dropped tail, got {:?}",
        store.notes()
    );
    assert_eq!(store.committed_count("SIM_SCALE"), 2);
    drop(store);

    // Resuming the sweep replays the two surviving trials and recomputes
    // exactly the rest; the journal is whole again afterwards.
    let (resumed, replayed, computed) =
        run_sim_scale_with_store(&dir, seeds::RUN_STORE_SWEEP, true);
    assert_eq!(replayed, 2);
    assert_eq!(computed, total - 2);
    assert_eq!(journal_lines(&dir).len(), total);

    // Replayed rows are bit-identical to the original run (wall clock and
    // all); recomputed rows agree on everything but their fresh timings.
    let reference_json = pretty(&reference);
    let resumed_json = pretty(&resumed);
    assert_eq!(
        strip_wall_clock(&resumed_json),
        strip_wall_clock(&reference_json)
    );
    for (a, b) in reference.rows.iter().zip(resumed.rows.iter()).take(2) {
        assert_eq!(a.stop_time.to_bits(), b.stop_time.to_bits(), "{}", a.family);
        assert_eq!(a.wall_ms.to_bits(), b.wall_ms.to_bits(), "{}", a.family);
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn corruption_before_the_final_record_fails_the_resume_load() {
    let dir = temp_store("hard-corrupt");
    let (reference, _, _) = run_sim_scale_with_store(&dir, seeds::RUN_STORE_SWEEP, false);
    assert!(reference.rows.len() >= 2);

    // Damage an *interior* record: that cannot be crash truncation, so the
    // load must refuse rather than silently recompute around it.
    let mut lines = journal_lines(&dir);
    lines[0] = lines[0]
        .replace("\"experiment\"", "\"experimen")
        .replace("\"fingerprint\"", "\"fingerprint");
    let mut damaged = lines.join("\n");
    damaged.push('\n');
    std::fs::write(journal_path(&dir), &damaged).unwrap();
    assert!(
        RunStore::open(&dir, true).is_err(),
        "interior corruption must be a hard load error"
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn a_different_seed_replays_nothing() {
    let dir = temp_store("reseed");
    let (reference, _, _) = run_sim_scale_with_store(&dir, seeds::RUN_STORE_SWEEP, false);

    // Same store, different base seed: every trial key changes, so the
    // resume computes the full sweep from scratch.
    let (reseeded, replayed, computed) =
        run_sim_scale_with_store(&dir, seeds::RUN_STORE_RESEED, true);
    assert_eq!(replayed, 0, "a seed change must invalidate every trial key");
    assert_eq!(computed, reseeded.rows.len());
    assert_eq!(reseeded.rows.len(), reference.rows.len());
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn journals_from_before_the_single_engine_loop_still_replay() {
    // Trial keys hash the engine fingerprint, so these exact strings are
    // what lets journals and checkpoints committed under them replay.
    assert_eq!(
        engine_fingerprint(&HarnessConfig::quick()),
        "quick;engine=legacy"
    );
    assert_eq!(
        engine_fingerprint(&HarnessConfig::full()),
        "full;engine=legacy"
    );

    // A MEM_SCALE row as journaled when the tier also recorded a
    // legacy-layout identity check and an f32 tier: the dropped columns
    // are ignored and every surviving field decodes unchanged.
    let journaled = r#"{"family": "chordring-50000", "n": 50000, "edges": 750000,
        "initial": "uniform", "ticks": 102516, "stop_time": 0.1366249976674129,
        "stop_reason": "Converged", "variance_ratio": 0.13533446609705174,
        "moment_refreshes": 1, "legacy_checked": true, "f32_ticks": 102516,
        "f32_variance_ratio": 0.13533446606444896,
        "f32_mean_drift": 5.724298726000887e-11,
        "f32_mean_drift_bound": 2.909009586742286e-06,
        "f32_variance_error": 1.4363510381087963e-15,
        "f32_variance_error_bound": 1e-09, "wall_ms": 18.104397000000002,
        "ticks_per_sec": 5662491.824499871, "peak_rss_bytes": 71098368}"#;
    let value = serde_json::from_str(journaled).expect("row parses");
    let row = MemScaleRow::from_value(&value).expect("older row decodes");
    assert_eq!(
        row,
        MemScaleRow {
            family: "chordring-50000".to_string(),
            n: 50_000,
            edges: 750_000,
            initial: "uniform".to_string(),
            ticks: 102_516,
            stop_time: 0.1366249976674129,
            stop_reason: "Converged".to_string(),
            variance_ratio: 0.13533446609705174,
            moment_refreshes: 1,
            wall_ms: 18.104397000000002,
            ticks_per_sec: 5662491.824499871,
            peak_rss_bytes: Some(71_098_368),
        }
    );
    // Re-encoded, the row carries exactly the surviving columns.
    let reencoded = serde_json::to_string(&row).expect("row renders");
    assert!(!reencoded.contains("legacy_checked") && !reencoded.contains("f32_"));
}
