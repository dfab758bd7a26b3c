//! Run-store journal and resume oracles.
//!
//! The run store (`gossip-store`) promises that an interrupted sweep can be
//! resumed: every committed trial replays bit-identically from its journal,
//! only the missing trials are recomputed, and a crash that damages the
//! final journal line is detected, dropped, and recovered from.  This suite
//! pins those promises on the real SIM_SCALE tier machinery
//! (`runner::run_sim_scale` against a `RunStore`), not on store unit
//! fixtures — the same path the `experiments` binary's `--store-dir
//! --resume` flags exercise and the CI interrupt-and-resume gate drives
//! end to end.
//!
//! Seeds 491–492 (see `tests/common`).

mod common;

use common::seeds;
use gossip_bench::runner::{
    self, AdversaryRow, DumbbellSweepRow, E10Row, E4Result, E5Row, HarnessConfig, MemScaleRow,
    PerfEstimatorRow, PerfThroughputRow, RobustnessRow, ScaleRow, SimScaleReport, SimScaleRow,
};
use gossip_bench::trial::{engine_fingerprint, FromValue};
use gossip_store::RunStore;
use std::path::{Path, PathBuf};
use std::sync::Mutex;

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

/// Runs the SIM_SCALE tier against a store rooted at `dir`, returning the
/// report and the run's store count lines.
fn run_sim_scale_with_store(dir: &Path, seed: u64, resume: bool) -> (SimScaleReport, Vec<String>) {
    let store = Mutex::new(RunStore::open(dir, resume).expect("store opens"));
    let (report, _table) = runner::run_sim_scale(&config(seed), Some(&store)).expect("tier runs");
    (report, store.into_inner().unwrap().count_lines())
}

/// The store's count line of a SIM_SCALE run that replayed `replayed`
/// trials and computed `computed`.
fn counts(replayed: usize, computed: usize) -> Vec<String> {
    vec![format!(
        "run store[SIM_SCALE]: replayed {replayed}, computed {computed}"
    )]
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

/// Strips the lines of the report's declared volatile fields — the set the
/// CI gate filters with `grep -vE` — so interrupted-then-resumed reports
/// (whose recomputed trials re-time themselves) diff clean against
/// uninterrupted ones.
fn strip_wall_clock(json: &str) -> String {
    json.lines()
        .filter(|line| {
            !SimScaleReport::VOLATILE
                .iter()
                .any(|field| line.trim_start().starts_with(&format!("\"{field}\":")))
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
    let (reference, lines) = run_sim_scale_with_store(&dir, seeds::RUN_STORE_SWEEP, false);
    // A fresh store has nothing to replay.
    assert_eq!(lines, counts(0, reference.rows.len()));
    assert_eq!(
        journal_lines(&dir).len(),
        reference.rows.len(),
        "one journal line per committed trial"
    );

    // Resume over a complete journal: every trial replays, nothing is
    // recomputed, and the report — wall-clock fields included, since they
    // replay as committed — is byte-identical.
    let (resumed, lines) = run_sim_scale_with_store(&dir, seeds::RUN_STORE_SWEEP, true);
    assert_eq!(lines, counts(reference.rows.len(), 0));
    assert_eq!(pretty(&resumed), pretty(&reference));
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn crash_tail_is_dropped_and_resume_recomputes_only_the_missing_trials() {
    let dir = temp_store("crash-resume");
    let (reference, _) = run_sim_scale_with_store(&dir, seeds::RUN_STORE_SWEEP, false);
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
    let (resumed, lines) = run_sim_scale_with_store(&dir, seeds::RUN_STORE_SWEEP, true);
    assert_eq!(lines, counts(2, total - 2));
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
    let (reference, _) = run_sim_scale_with_store(&dir, seeds::RUN_STORE_SWEEP, false);
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
    let (reference, _) = run_sim_scale_with_store(&dir, seeds::RUN_STORE_SWEEP, false);

    // Same store, different base seed: every trial key changes, so the
    // resume computes the full sweep from scratch.
    let (reseeded, lines) = run_sim_scale_with_store(&dir, seeds::RUN_STORE_RESEED, true);
    // A seed change must invalidate every trial key.
    assert_eq!(lines, counts(0, reseeded.rows.len()));
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

/// Decodes a journaled row and renders it again: the bytes must not move.
fn assert_replays_verbatim<T: FromValue + serde::Serialize>(journaled: &str) {
    let value = serde_json::from_str(journaled).expect("row parses");
    let row = T::from_value(&value).unwrap_or_else(|| panic!("row does not decode: {journaled}"));
    assert_eq!(serde_json::to_string(&row).expect("row renders"), journaled);
}

#[test]
fn rows_journaled_before_the_schema_macro_replay_byte_for_byte() {
    // One journaled row per row type, verbatim from a store written by
    // `experiments --quick --seed 99` while every encoder and decoder was
    // still written by hand.
    assert_replays_verbatim::<DumbbellSweepRow>(
        r#"{"n":16,"lower_bound":8,"upper_bound":22.621227222995966,"vanilla":9.049921997645066,"weighted":21.749878830727294,"random_neighbor":8.638338306767643,"algorithm_a":28.721514063815498}"#,
    );
    assert_replays_verbatim::<E4Result>(
        r#"{"n":64,"per_tick_bound":0.0625,"max_observed_delta":0.03125,"observed_cut_ticks":25,"expected_cut_ticks":20,"horizon":20,"final_variance":0.20936741356972066,"variance_lower_bound":0.10401360153291998}"#,
    );
    assert_replays_verbatim::<Option<E5Row>>(
        r#"{"n":32,"epochs":13,"contraction_fraction":0.9230769230769231,"ceiling_violation_fraction":0,"dominated":true,"final_observed_drop":-844.0314198771243,"final_dominating":-58.917510347595346}"#,
    );
    assert_replays_verbatim::<Vec<String>>(r#"["2","8.00","9.52","57.91"]"#);
    assert_replays_verbatim::<E10Row>(
        r#"{"coefficient":"exact balance n1·n2/n","gamma":8,"averaging_time":21.278885212199782,"censored_runs":0}"#,
    );
    assert_replays_verbatim::<ScaleRow>(
        r#"{"family":"xdumbbell-500","n":1000,"edges":8001,"cut_edges":1,"algebraic_connectivity":0.0035194390967729916,"laplacian_lambda_max":24.23820902059675,"gossip_spectral_gap":0.00000021993745136689112,"t_van_estimate":5062.031212388215,"build_ms":1.497153,"spectral_ms":5.343229}"#,
    );
    assert_replays_verbatim::<SimScaleRow>(
        r#"{"family":"xdumbbell-500","n":1000,"edges":8001,"initial":"uniform","ticks":2136,"stop_time":0.26014391009498883,"stop_reason":"Converged","variance_ratio":0.13520089702446136,"moment_refreshes":0,"wall_ms":0.208541,"ticks_per_sec":10242590.186102493}"#,
    );
    assert_replays_verbatim::<MemScaleRow>(
        r#"{"family":"xdumbbell-25000","n":50000,"edges":700001,"initial":"uniform","ticks":103010,"stop_time":0.14702028235238965,"stop_reason":"Converged","variance_ratio":0.13532046146795487,"moment_refreshes":1,"wall_ms":9.341913,"ticks_per_sec":11026649.466763392,"peak_rss_bytes":122724352}"#,
    );
    assert_replays_verbatim::<RobustnessRow>(
        r#"{"family":"xdumbbell-48","fault":"bridge-outage-0-4608","n":96,"edges":481,"drop_probability":0,"baseline_ticks":27432,"ticks":30549,"stop_reason":"Converged","variance_ratio":0.13478407093201686,"mean_drift":0.0000000000000001249000902703301,"delivered":30540,"dropped":0,"edge_down_skips":9,"node_pause_skips":0,"worst_surviving_lambda2":4.000000000000028}"#,
    );
    assert_replays_verbatim::<AdversaryRow>(
        r#"{"family":"chordring-96","attack":"biased-f0.10-b10","aggregation":"trimmed","n":96,"edges":576,"adversaries":9,"clean_ticks":413,"ticks":20000000,"stop_reason":"TickLimit","variance_ratio":8.555122368082502,"honest_drift":9.59780405718835,"drift_bound":28934.70078339245,"drift_oracle_ok":true,"censored_contacts":0,"falsified_contacts":3542959,"flagged_reports":783}"#,
    );
    assert_replays_verbatim::<PerfThroughputRow>(
        r#"{"family":"chordring-2048","n":2048,"edges":21504,"ticks":9366,"stop_reason":"Converged","variance_ratio":0.13485395990421267,"wall_ms":0.840717,"ticks_per_sec":11140490.79535682}"#,
    );
    assert_replays_verbatim::<PerfEstimatorRow>(
        r#"{"family":"chordring-2048","n":2048,"runs":6,"averaging_time":0.441766694745985,"mean_settling_time":0.44116806989359253,"confirmed_runs":6,"wall_ms_serial":52.130348,"wall_ms_parallel":26.476149,"speedup":1.9689550772659574,"timings":[{"jobs":1,"wall_ms":52.130348,"speedup":1},{"jobs":2,"wall_ms":27.080500999999998,"speedup":1.9250141642505063},{"jobs":4,"wall_ms":26.476149,"speedup":1.9689550772659574}]}"#,
    );
}
