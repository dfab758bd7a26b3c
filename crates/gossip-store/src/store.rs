//! The run store: per-tier journals and checkpoint logs, the live
//! committed trials, and this run's per-tier replay/compute counts.
//!
//! A tier never touches files itself.  The harness shares one store between
//! its executor workers as an `Option<&Mutex<RunStore>>` (`None` for a
//! store-less run).  It asks [`RunStore::replay`] to decode the journaled
//! row of a trial key — served only if that exact trial (same tier,
//! scenario fingerprint, seed, and engine config) already committed — and
//! calls [`RunStore::commit`] with each freshly computed row *after its
//! oracles passed*.  The store counts both per tier and renders the counts
//! ([`RunStore::count_lines`]) and its committed trials
//! ([`RunStore::summary_lines`]) as the run's summary.

use std::collections::{BTreeMap, BTreeSet};
use std::path::{Path, PathBuf};

use serde::json::Value;

use crate::hash::TrialKey;
use crate::log::{self, CheckpointRecord, Log, TrialRecord};
use crate::{Result, StoreError};

/// The journal-backed run store: one JSONL journal per tier under the
/// store directory (`<dir>/<token lowercase>.jsonl`), plus an in-memory
/// map of every live committed trial.
#[derive(Debug)]
pub struct RunStore {
    dir: PathBuf,
    resume: bool,
    /// The live record of every committed trial (loaded + fresh); a later
    /// commit of the same key shadows the earlier one (journals are
    /// append-only, so re-runs shadow instead of edit).
    records: BTreeMap<TrialKey, TrialRecord>,
    /// This run's `(replayed, computed)` trial counts per tier, keyed by CLI
    /// token.
    counts: BTreeMap<String, (usize, usize)>,
    /// Per-tier journal append handles, keyed by CLI token.
    journals: BTreeMap<String, Log<TrialRecord>>,
    /// Newest surviving mid-run checkpoint per trial key (pruned when the
    /// trial itself commits — a finished trial replays, never restores).
    checkpoints: BTreeMap<TrialKey, CheckpointRecord>,
    /// Per-tier checkpoint-log append handles, keyed by CLI token.
    checkpoint_logs: BTreeMap<String, Log<CheckpointRecord>>,
    /// Tiers whose journal + checkpoint files have been reset this run
    /// (fresh mode only).
    reset: BTreeSet<String>,
    /// Human-readable notes from loading (dropped crash tails).
    notes: Vec<String>,
}

impl RunStore {
    /// Opens a store rooted at `dir`.
    ///
    /// With `resume` set, every `*.jsonl` log under `dir` is loaded record
    /// by record with the crash-safe tail policy and truncated to its
    /// valid prefix — subsequent [`RunStore::replay`] calls serve those
    /// trials from memory.  Without `resume`, nothing is loaded and each
    /// tier's journal is reset the first time that tier commits, so a
    /// fresh run never mixes old and new trials in one file.
    pub fn open(dir: &Path, resume: bool) -> Result<Self> {
        std::fs::create_dir_all(dir).map_err(StoreError::io(dir))?;
        let mut store = RunStore {
            dir: dir.to_path_buf(),
            resume,
            records: BTreeMap::new(),
            counts: BTreeMap::new(),
            journals: BTreeMap::new(),
            checkpoints: BTreeMap::new(),
            checkpoint_logs: BTreeMap::new(),
            reset: BTreeSet::new(),
            notes: Vec::new(),
        };
        if resume {
            store.load_existing()?;
        }
        Ok(store)
    }

    fn load_existing(&mut self) -> Result<()> {
        let entries = std::fs::read_dir(&self.dir).map_err(StoreError::io(&self.dir))?;
        let mut paths: Vec<PathBuf> = entries
            .filter_map(|entry| entry.ok().map(|e| e.path()))
            .filter(|p| p.extension().is_some_and(|ext| ext == "jsonl"))
            .collect();
        paths.sort();
        for path in paths {
            // A `<token>.ckpt.jsonl` checkpoint log shares the directory
            // and extension with the trial journals; the `.ckpt` stem
            // suffix keeps it off the journal path.
            let is_checkpoint_log = path
                .file_stem()
                .is_some_and(|stem| stem.to_string_lossy().ends_with(".ckpt"));
            let dropped = if is_checkpoint_log {
                log::load(&path, |record| self.insert_checkpoint(record))?
                    .map(|reason| format!("torn checkpoint ({reason})"))
            } else {
                log::load(&path, |record: TrialRecord| {
                    self.records.insert(record.key, record);
                })?
                .map(|reason| format!("crash tail ({reason})"))
            };
            if let Some(dropped) = dropped {
                self.notes
                    .push(format!("{}: dropped {dropped}", path.display()));
            }
        }
        // Checkpoints of trials that committed are dead weight: the trial
        // replays from its journal row, never from a restore.
        let records = &self.records;
        self.checkpoints.retain(|key, _| !records.contains_key(key));
        Ok(())
    }

    fn insert_checkpoint(&mut self, record: CheckpointRecord) {
        // Later lines supersede earlier ones, and within one run later
        // lines carry later ticks; keeping the max tick also survives a
        // log holding a superseded re-run's tail.
        let kept = self.checkpoints.get(&record.key);
        if kept.is_none_or(|kept| record.tick >= kept.tick) {
            self.checkpoints.insert(record.key, record);
        }
    }

    /// The journal path of one tier.
    #[must_use]
    pub fn journal_path(&self, experiment: &str) -> PathBuf {
        self.dir
            .join(format!("{}.jsonl", experiment.to_lowercase()))
    }

    /// The checkpoint-log path of one tier, next to its journal.
    #[must_use]
    pub fn checkpoint_path(&self, experiment: &str) -> PathBuf {
        self.dir
            .join(format!("{}.ckpt.jsonl", experiment.to_lowercase()))
    }

    /// Decodes the committed row of `key` with `decode`, if this exact trial
    /// committed.  A row `decode` accepts counts as replayed for its tier;
    /// one it rejects counts nothing, so its caller recomputes the trial and
    /// the new commit counts as computed.
    pub fn replay<T>(
        &mut self,
        key: TrialKey,
        decode: impl FnOnce(&Value) -> Option<T>,
    ) -> Option<T> {
        let record = self.records.get(&key)?;
        let row = decode(&record.row)?;
        self.counts.entry(record.experiment.clone()).or_default().0 += 1;
        Some(row)
    }

    /// In fresh (non-resume) mode, the first write of a tier — trial or
    /// checkpoint — resets both of that tier's files, so a fresh run never
    /// mixes old and new state in either.
    fn reset_tier_files(&mut self, token: &str) -> Result<()> {
        if self.resume || !self.reset.insert(token.to_string()) {
            return Ok(());
        }
        for path in [self.journal_path(token), self.checkpoint_path(token)] {
            match std::fs::remove_file(&path) {
                Err(e) if e.kind() != std::io::ErrorKind::NotFound => {
                    return Err(StoreError::io(&path)(e))
                }
                _ => {}
            }
        }
        Ok(())
    }

    /// Commits one trial: appends it to the tier's journal (resetting the
    /// tier's files first in fresh mode), makes it the key's live record and
    /// counts it as computed.  Any surviving mid-run checkpoint of the trial
    /// is dropped — a committed trial replays, never restores.
    pub fn commit(&mut self, record: TrialRecord) -> Result<()> {
        let token = record.experiment.clone();
        self.reset_tier_files(&token)?;
        let path = self.journal_path(&token);
        self.journals
            .entry(token.clone())
            .or_insert_with(|| Log::new(path))
            .append(&record)?;
        self.counts.entry(token).or_default().1 += 1;
        self.checkpoints.remove(&record.key);
        self.records.insert(record.key, record);
        Ok(())
    }

    /// Commits one mid-run checkpoint: appends it to the tier's checkpoint
    /// log (resetting the tier's files first in fresh mode) and makes it
    /// the trial's newest checkpoint.
    pub fn commit_checkpoint(&mut self, record: CheckpointRecord) -> Result<()> {
        let token = record.experiment.clone();
        self.reset_tier_files(&token)?;
        let path = self.checkpoint_path(&token);
        self.checkpoint_logs
            .entry(token)
            .or_insert_with(|| Log::new(path))
            .append(&record)?;
        self.insert_checkpoint(record);
        Ok(())
    }

    /// The newest surviving mid-run checkpoint of `key`, if any (and only
    /// if the trial itself has not committed).
    #[must_use]
    pub fn latest_checkpoint(&self, key: TrialKey) -> Option<&CheckpointRecord> {
        self.checkpoints.get(&key)
    }

    /// Number of live committed trials of one tier.
    #[must_use]
    pub fn committed_count(&self, experiment: &str) -> usize {
        self.records
            .values()
            .filter(|r| r.experiment == experiment)
            .count()
    }

    /// Load-time notes (dropped crash tails), for the run summary.
    #[must_use]
    pub fn notes(&self) -> &[String] {
        &self.notes
    }

    /// One line per tier that replayed or computed a trial this run, e.g.
    /// `run store[SIM_SCALE]: replayed 3, computed 5` — the line the CI
    /// interrupt-and-resume gate greps for.
    #[must_use]
    pub fn count_lines(&self) -> Vec<String> {
        self.counts
            .iter()
            .map(|(token, (replayed, computed))| {
                format!("run store[{token}]: replayed {replayed}, computed {computed}")
            })
            .collect()
    }

    /// The live committed trials grouped per tier and, within a tier, per
    /// scenario family — the fingerprint before its `(`, so
    /// `chordring(n=1000)` and `chordring(n=4000)` land in one `chordring`
    /// family — as the `--store-summary` listing, e.g.
    ///
    /// ```text
    /// SIM_SCALE: 8 trials
    ///   chordring: 2 trials over 2 fingerprints, seeds [42]
    /// ```
    #[must_use]
    pub fn summary_lines(&self) -> Vec<String> {
        let mut tiers: BTreeMap<&str, BTreeMap<&str, Vec<&TrialRecord>>> = BTreeMap::new();
        for record in self.records.values() {
            let family = record.fingerprint.split('(').next().unwrap_or_default();
            tiers
                .entry(&record.experiment)
                .or_default()
                .entry(family)
                .or_default()
                .push(record);
        }
        if tiers.is_empty() {
            return vec!["store is empty".to_string()];
        }
        let mut lines = Vec::new();
        for (tier, families) in tiers {
            let trials: usize = families.values().map(Vec::len).sum();
            lines.push(format!("{tier}: {trials} trials"));
            for (family, records) in families {
                let fingerprints: BTreeSet<&str> =
                    records.iter().map(|r| r.fingerprint.as_str()).collect();
                let seeds: BTreeSet<u64> = records.iter().map(|r| r.seed).collect();
                let seeds: Vec<String> = seeds.iter().map(u64::to_string).collect();
                lines.push(format!(
                    "  {family}: {} trials over {} fingerprints, seeds [{}]",
                    records.len(),
                    fingerprints.len(),
                    seeds.join(", ")
                ));
            }
        }
        lines
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hash::trial_key;

    fn temp_dir(tag: &str) -> PathBuf {
        let mut path = std::env::temp_dir();
        path.push(format!("gossip-store-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&path);
        path
    }

    /// The committed row of `key`, accepted as it is.
    fn row(store: &mut RunStore, key: TrialKey) -> Option<Value> {
        store.replay(key, |row| Some(row.clone()))
    }

    fn record(experiment: &str, fingerprint: &str, seed: u64, rounds: f64) -> TrialRecord {
        TrialRecord {
            key: trial_key(experiment, fingerprint, seed, "quick;engine=legacy"),
            experiment: experiment.to_string(),
            fingerprint: fingerprint.to_string(),
            seed,
            row: Value::Object(vec![("rounds".to_string(), Value::Number(rounds))]),
        }
    }

    #[test]
    fn commit_then_reopen_with_resume_replays() {
        let dir = temp_dir("resume");
        let mut store = RunStore::open(&dir, false).unwrap();
        let rec = record("SIM_SCALE", "chordring(n=1000)", 42, 17.0);
        store.commit(rec.clone()).unwrap();
        store
            .commit(record("SCALE", "dumbbell(half=500)", 42, 9.0))
            .unwrap();
        drop(store);

        let mut store = RunStore::open(&dir, true).unwrap();
        assert_eq!(row(&mut store, rec.key), Some(rec.row));
        assert_eq!(store.committed_count("SIM_SCALE"), 1);
        assert_eq!(store.committed_count("SCALE"), 1);
        assert_eq!(
            row(
                &mut store,
                trial_key("SIM_SCALE", "chordring(n=1000)", 43, "quick;engine=legacy")
            ),
            None,
            "a different seed is a different trial"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn fresh_open_resets_a_tier_journal_at_first_commit() {
        let dir = temp_dir("fresh");
        let mut store = RunStore::open(&dir, false).unwrap();
        store
            .commit(record("SIM_SCALE", "chordring(n=1000)", 1, 11.0))
            .unwrap();
        store
            .commit(record("SCALE", "dumbbell(half=500)", 1, 5.0))
            .unwrap();
        drop(store);

        // A fresh (non-resume) run that only touches SIM_SCALE must reset
        // that journal but leave the SCALE journal alone.
        let mut store = RunStore::open(&dir, false).unwrap();
        store
            .commit(record("SIM_SCALE", "chordring(n=2000)", 2, 13.0))
            .unwrap();
        drop(store);

        let mut store = RunStore::open(&dir, true).unwrap();
        assert_eq!(store.committed_count("SIM_SCALE"), 1);
        assert_eq!(
            row(
                &mut store,
                trial_key("SIM_SCALE", "chordring(n=1000)", 1, "quick;engine=legacy")
            ),
            None,
            "the old SIM_SCALE trial was reset away"
        );
        assert_eq!(store.committed_count("SCALE"), 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn later_commits_shadow_earlier_ones() {
        let dir = temp_dir("shadow");
        let mut store = RunStore::open(&dir, false).unwrap();
        let first = record("SIM_SCALE", "chordring(n=1000)", 7, 10.0);
        let second = record("SIM_SCALE", "chordring(n=1000)", 7, 12.0);
        store.commit(first).unwrap();
        store.commit(second.clone()).unwrap();
        assert_eq!(row(&mut store, second.key), Some(second.row.clone()));
        assert_eq!(store.committed_count("SIM_SCALE"), 1);
        drop(store);
        let mut store = RunStore::open(&dir, true).unwrap();
        assert_eq!(row(&mut store, second.key), Some(second.row));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn counts_decoded_replays_and_commits_per_tier() {
        let dir = temp_dir("counts");
        let mut store = RunStore::open(&dir, false).unwrap();
        assert!(store.count_lines().is_empty());
        let rec = record("SIM_SCALE", "chordring(n=1000)", 3, 8.0);
        assert_eq!(row(&mut store, rec.key), None, "nothing committed yet");
        store.commit(rec.clone()).unwrap();
        store
            .commit(record("SCALE", "dumbbell(half=500)", 3, 5.0))
            .unwrap();
        // A row the decoder rejects is served but not counted.
        assert_eq!(store.replay(rec.key, |_| None::<()>), None);
        assert_eq!(
            store.count_lines(),
            [
                "run store[SCALE]: replayed 0, computed 1",
                "run store[SIM_SCALE]: replayed 0, computed 1",
            ]
        );
        assert_eq!(row(&mut store, rec.key), Some(rec.row.clone()));
        assert_eq!(
            store.count_lines(),
            [
                "run store[SCALE]: replayed 0, computed 1",
                "run store[SIM_SCALE]: replayed 1, computed 1",
            ]
        );
        drop(store);

        // The counts are this run's: a resumed store starts from none.
        let mut store = RunStore::open(&dir, true).unwrap();
        assert!(store.count_lines().is_empty());
        assert_eq!(row(&mut store, rec.key), Some(rec.row));
        assert_eq!(
            store.count_lines(),
            ["run store[SIM_SCALE]: replayed 1, computed 0"]
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn summary_groups_live_trials_per_tier_and_family() {
        let dir = temp_dir("summary");
        let mut store = RunStore::open(&dir, false).unwrap();
        assert_eq!(store.summary_lines(), ["store is empty"]);
        for (experiment, fingerprint, seed) in [
            ("SIM_SCALE", "chordring(n=1000)", 42),
            ("SIM_SCALE", "chordring(n=4000)", 42),
            ("SIM_SCALE", "grid(rows=10,cols=100)", 42),
            ("SIM_SCALE", "chordring(n=1000)", 7),
            ("SCALE", "bare", 7),
            // A shadowed duplicate counts once.
            ("SIM_SCALE", "chordring(n=1000)", 42),
        ] {
            store
                .commit(record(experiment, fingerprint, seed, 1.0))
                .unwrap();
        }
        assert_eq!(
            store.summary_lines(),
            [
                "SCALE: 1 trials",
                "  bare: 1 trials over 1 fingerprints, seeds [7]",
                "SIM_SCALE: 4 trials",
                "  chordring: 3 trials over 2 fingerprints, seeds [7, 42]",
                "  grid: 1 trials over 1 fingerprints, seeds [42]",
            ]
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    fn checkpoint(key: TrialKey, tick: u64) -> CheckpointRecord {
        CheckpointRecord {
            key,
            experiment: "MEM_SCALE".to_string(),
            tick,
            blob: Value::Object(vec![("ticks".to_string(), Value::String(tick.to_string()))]),
        }
    }

    #[test]
    fn checkpoints_survive_reopen_until_the_trial_commits() {
        let dir = temp_dir("ckpt-resume");
        let rec = record("MEM_SCALE", "chordring(n=1000)", 42, 17.0);
        let mut store = RunStore::open(&dir, false).unwrap();
        store.commit_checkpoint(checkpoint(rec.key, 512)).unwrap();
        store.commit_checkpoint(checkpoint(rec.key, 1024)).unwrap();
        drop(store);

        // A resumed store serves the newest checkpoint of the unfinished
        // trial, and its `.ckpt.jsonl` file never pollutes the trial index.
        let mut store = RunStore::open(&dir, true).unwrap();
        assert_eq!(row(&mut store, rec.key), None);
        let latest = store.latest_checkpoint(rec.key).unwrap();
        assert_eq!(latest.tick, 1024);
        assert_eq!(latest.blob, checkpoint(rec.key, 1024).blob);
        assert_eq!(store.committed_count("MEM_SCALE"), 0);

        // Committing the trial retires its checkpoints.
        store.commit(rec.clone()).unwrap();
        assert_eq!(store.latest_checkpoint(rec.key), None);
        drop(store);
        let mut store = RunStore::open(&dir, true).unwrap();
        assert_eq!(store.latest_checkpoint(rec.key), None);
        assert_eq!(row(&mut store, rec.key), Some(rec.row));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_checkpoint_tail_falls_back_to_the_previous_checkpoint() {
        let dir = temp_dir("ckpt-torn");
        let rec = record("MEM_SCALE", "chordring(n=1000)", 42, 17.0);
        let mut store = RunStore::open(&dir, false).unwrap();
        store.commit_checkpoint(checkpoint(rec.key, 512)).unwrap();
        store.commit_checkpoint(checkpoint(rec.key, 1024)).unwrap();
        let path = store.checkpoint_path("MEM_SCALE");
        drop(store);
        let full = std::fs::read(&path).unwrap();
        std::fs::write(&path, &full[..full.len() - 5]).unwrap();

        let store = RunStore::open(&dir, true).unwrap();
        assert_eq!(store.latest_checkpoint(rec.key).map(|c| c.tick), Some(512));
        assert!(store.notes().iter().any(|n| n.contains("torn checkpoint")));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_only_checkpoint_falls_back_to_a_cold_start() {
        let dir = temp_dir("ckpt-cold");
        let rec = record("MEM_SCALE", "chordring(n=1000)", 42, 17.0);
        let mut store = RunStore::open(&dir, false).unwrap();
        store.commit_checkpoint(checkpoint(rec.key, 512)).unwrap();
        let path = store.checkpoint_path("MEM_SCALE");
        drop(store);
        let full = std::fs::read(&path).unwrap();
        std::fs::write(&path, &full[..full.len() - 5]).unwrap();

        let store = RunStore::open(&dir, true).unwrap();
        assert_eq!(store.latest_checkpoint(rec.key), None);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn fresh_open_resets_checkpoints_alongside_the_journal() {
        let dir = temp_dir("ckpt-fresh");
        let rec = record("MEM_SCALE", "chordring(n=1000)", 42, 17.0);
        let mut store = RunStore::open(&dir, false).unwrap();
        store.commit_checkpoint(checkpoint(rec.key, 512)).unwrap();
        drop(store);

        // A fresh run's first commit of the tier wipes the stale
        // checkpoint log along with the journal.
        let mut store = RunStore::open(&dir, false).unwrap();
        store
            .commit(record("MEM_SCALE", "chordring(n=2000)", 2, 13.0))
            .unwrap();
        drop(store);
        let store = RunStore::open(&dir, true).unwrap();
        assert_eq!(store.latest_checkpoint(rec.key), None);
        assert_eq!(store.committed_count("MEM_SCALE"), 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
