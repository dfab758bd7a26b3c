//! In-memory analysis views over a loaded [`RunStore`].
//!
//! Views group the store's *live* committed trials (later commits shadow
//! earlier ones) per tier and, within a tier, per scenario family — the
//! fingerprint prefix before the parameter list, so
//! `chordring(n=1000)` and `chordring(n=4000)` land in one
//! `chordring` family.  They answer "what has this store already paid
//! for?" without touching the journals again; the experiments binary
//! renders them as the `--store-summary` listing.

use std::collections::BTreeMap;

use crate::store::RunStore;

/// Trials of one scenario family inside one tier.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FamilyView {
    /// The family name (fingerprint text before the first `(`).
    pub family: String,
    /// Number of live committed trials in the family.
    pub trials: usize,
    /// The distinct fingerprints seen, in sorted order.
    pub fingerprints: Vec<String>,
    /// The distinct base seeds seen, in sorted order.
    pub seeds: Vec<u64>,
}

/// Committed trials of one bench tier.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TierView {
    /// The tier's CLI token.
    pub experiment: String,
    /// Total live committed trials of the tier.
    pub trials: usize,
    /// Per-family breakdown, sorted by family name.
    pub families: Vec<FamilyView>,
}

/// Grouped view of everything a store has committed.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct StoreSummary {
    /// Per-tier views, sorted by tier token.
    pub tiers: Vec<TierView>,
}

/// The family of a scenario fingerprint: the text before the first `(`.
#[must_use]
pub fn family_of(fingerprint: &str) -> &str {
    fingerprint.split('(').next().unwrap_or(fingerprint)
}

/// The distinct fingerprints and seeds of one family, pre-dedup.
type FamilyBucket = (Vec<String>, Vec<u64>);

impl StoreSummary {
    /// Builds the summary from a store's live records.
    #[must_use]
    pub fn from_store(store: &RunStore) -> Self {
        // tier token -> family -> (fingerprints, seeds)
        let mut tiers: BTreeMap<String, BTreeMap<String, FamilyBucket>> = BTreeMap::new();
        let mut counts: BTreeMap<(String, String), usize> = BTreeMap::new();
        for record in store.live_records() {
            let family = family_of(&record.fingerprint).to_string();
            let slot = tiers
                .entry(record.experiment.clone())
                .or_default()
                .entry(family.clone())
                .or_default();
            slot.0.push(record.fingerprint.clone());
            slot.1.push(record.seed);
            *counts
                .entry((record.experiment.clone(), family))
                .or_default() += 1;
        }
        let tiers = tiers
            .into_iter()
            .map(|(experiment, families)| {
                let families: Vec<FamilyView> = families
                    .into_iter()
                    .map(|(family, (mut fingerprints, mut seeds))| {
                        let trials = counts[&(experiment.clone(), family.clone())];
                        fingerprints.sort();
                        fingerprints.dedup();
                        seeds.sort_unstable();
                        seeds.dedup();
                        FamilyView {
                            family,
                            trials,
                            fingerprints,
                            seeds,
                        }
                    })
                    .collect();
                let trials = families.iter().map(|f| f.trials).sum();
                TierView {
                    experiment,
                    trials,
                    families,
                }
            })
            .collect();
        StoreSummary { tiers }
    }

    /// Renders the summary as indented text lines, e.g.
    ///
    /// ```text
    /// SIM_SCALE: 8 trials
    ///   chordring: 2 trials over 2 fingerprints, seeds [42]
    /// ```
    #[must_use]
    pub fn render_lines(&self) -> Vec<String> {
        let mut lines = Vec::new();
        if self.tiers.is_empty() {
            lines.push("store is empty".to_string());
            return lines;
        }
        for tier in &self.tiers {
            lines.push(format!("{}: {} trials", tier.experiment, tier.trials));
            for family in &tier.families {
                let seeds: Vec<String> = family.seeds.iter().map(u64::to_string).collect();
                lines.push(format!(
                    "  {}: {} trials over {} fingerprints, seeds [{}]",
                    family.family,
                    family.trials,
                    family.fingerprints.len(),
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
    use crate::log::TrialRecord;
    use serde::json::Value;
    use std::path::PathBuf;

    fn temp_dir(tag: &str) -> PathBuf {
        let mut path = std::env::temp_dir();
        path.push(format!("gossip-store-views-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&path);
        path
    }

    fn record(experiment: &str, fingerprint: &str, seed: u64) -> TrialRecord {
        TrialRecord {
            key: trial_key(experiment, fingerprint, seed, "quick;engine=legacy"),
            experiment: experiment.to_string(),
            fingerprint: fingerprint.to_string(),
            seed,
            row: Value::Object(vec![("rounds".to_string(), Value::Number(5.0))]),
        }
    }

    #[test]
    fn family_strips_parameters() {
        assert_eq!(family_of("chordring(n=1000)"), "chordring");
        assert_eq!(family_of("sbm(n1=500,n2=500,p_in=0.1,p_out=0.001)"), "sbm");
        assert_eq!(family_of("bare"), "bare");
    }

    #[test]
    fn summary_groups_per_tier_and_family() {
        let dir = temp_dir("summary");
        let mut store = RunStore::open(&dir, false).unwrap();
        store
            .commit(record("SIM_SCALE", "chordring(n=1000)", 42))
            .unwrap();
        store
            .commit(record("SIM_SCALE", "chordring(n=4000)", 42))
            .unwrap();
        store
            .commit(record("SIM_SCALE", "grid(rows=10,cols=100)", 42))
            .unwrap();
        store
            .commit(record("SCALE", "chordring(n=1000)", 7))
            .unwrap();
        // Shadowed duplicate must not double-count.
        store
            .commit(record("SIM_SCALE", "chordring(n=1000)", 42))
            .unwrap();

        let summary = StoreSummary::from_store(&store);
        assert_eq!(summary.tiers.len(), 2);
        let sim = summary
            .tiers
            .iter()
            .find(|t| t.experiment == "SIM_SCALE")
            .unwrap();
        assert_eq!(sim.trials, 3);
        let chord = sim
            .families
            .iter()
            .find(|f| f.family == "chordring")
            .unwrap();
        assert_eq!(chord.trials, 2);
        assert_eq!(chord.fingerprints.len(), 2);
        assert_eq!(chord.seeds, vec![42]);

        let lines = StoreSummary::from_store(&store).render_lines();
        assert!(lines.iter().any(|l| l == "SIM_SCALE: 3 trials"));
        assert!(lines
            .iter()
            .any(|l| l.contains("chordring: 2 trials over 2 fingerprints, seeds [42]")));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn empty_store_renders_placeholder() {
        let dir = temp_dir("empty");
        let store = RunStore::open(&dir, false).unwrap();
        let summary = StoreSummary::from_store(&store);
        assert!(summary.tiers.is_empty());
        assert_eq!(summary.render_lines(), vec!["store is empty".to_string()]);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
