//! Parameter sweeps.
//!
//! Each experiment varies one knob while holding the rest fixed; the helpers
//! here produce the standard grids (graph sizes doubling from 16 to 512, cut
//! widths, epoch constants) so that benches, examples, and the harness all
//! agree on what was measured.

use crate::Scenario;

/// A one-dimensional parameter sweep with a label for tables.
#[derive(Debug, Clone, PartialEq)]
pub struct Sweep<T> {
    /// Name of the swept parameter (e.g. `"n"`, `"|E12|"`, `"C"`).
    pub parameter: String,
    /// The values to sweep over, in the order they are run.
    pub values: Vec<T>,
}

impl<T> Sweep<T> {
    /// Creates a sweep.
    pub fn new(parameter: impl Into<String>, values: Vec<T>) -> Self {
        Sweep {
            parameter: parameter.into(),
            values,
        }
    }

    /// Iterates over the values.
    pub fn iter(&self) -> std::slice::Iter<'_, T> {
        self.values.iter()
    }
}

/// Doubling total graph sizes `min_n, 2·min_n, …` up to `max_n` inclusive.
pub fn doubling_sizes(min_n: usize, max_n: usize) -> Sweep<usize> {
    let mut values = Vec::new();
    let mut n = min_n.max(2);
    while n <= max_n {
        values.push(n);
        n *= 2;
    }
    Sweep::new("n", values)
}

/// The dumbbell size sweep used by experiments E1–E3: total sizes doubling
/// from `min_n` to `max_n`, each mapped to a [`Scenario::Dumbbell`] with
/// `half = n/2`.
pub fn dumbbell_size_sweep(min_n: usize, max_n: usize) -> Sweep<Scenario> {
    let sizes = doubling_sizes(min_n.max(8), max_n);
    Sweep::new(
        "n",
        sizes
            .values
            .iter()
            .map(|&n| Scenario::Dumbbell { half: n / 2 })
            .collect(),
    )
}

/// The cut-width sweep used by experiment E6: bridged ER clusters of fixed
/// size with `1, 2, 4, …` bridge edges up to `max_bridges`.
pub fn cut_width_sweep(cluster_size: usize, p: f64, max_bridges: usize) -> Sweep<Scenario> {
    let mut values = Vec::new();
    let mut bridges = 1usize;
    while bridges <= max_bridges {
        values.push(Scenario::BridgedClusters {
            n1: cluster_size,
            n2: cluster_size,
            bridges,
            p,
        });
        bridges *= 2;
    }
    Sweep::new("|E12|", values)
}

/// The epoch-constant sweep used by experiment E6's second half: the paper's
/// `C` over `{1, 2, 4, 8}` (plus any extras supplied).
pub fn epoch_constant_sweep(extra: &[f64]) -> Sweep<f64> {
    let mut values = vec![1.0, 2.0, 4.0, 8.0];
    values.extend_from_slice(extra);
    Sweep::new("C", values)
}

/// Total graph sizes of the scaling-tier experiment: `{1k, 10k, 50k}` nodes
/// in full mode, `{1k, 10k}` in quick mode (used by CI).
pub fn scale_sizes(quick: bool) -> Sweep<usize> {
    let values = if quick {
        vec![1_000, 10_000]
    } else {
        vec![1_000, 10_000, 50_000]
    };
    Sweep::new("n", values)
}

/// The scaling-tier sweep: for each size in [`scale_sizes`], the four
/// bounded-degree families of [`crate::scenarios::scale_suite`].
pub fn scale_sweep(quick: bool) -> Sweep<Scenario> {
    let mut values = Vec::new();
    for &n in scale_sizes(quick).iter() {
        values.extend(crate::scenarios::scale_suite(n));
    }
    Sweep::new("scenario", values)
}

/// The **simulation** scaling-tier sweep: for each size in [`scale_sizes`],
/// the four asynchronous-relaxation families of
/// [`crate::scenarios::sim_scale_suite`].
pub fn sim_scale_sweep(quick: bool) -> Sweep<Scenario> {
    let mut values = Vec::new();
    for &n in scale_sizes(quick).iter() {
        values.extend(crate::scenarios::sim_scale_suite(n));
    }
    Sweep::new("scenario", values)
}

/// Total graph sizes of the **memory**-scaling tier: `{50k, 250k, 10⁶}`
/// nodes in full mode, `{50k}` in quick mode (CI regenerates the quick
/// report on every push; the 10⁶ rows are the point of the tier and run in
/// full mode only).
pub fn mem_scale_sizes(quick: bool) -> Sweep<usize> {
    let values = if quick {
        vec![50_000]
    } else {
        vec![50_000, 250_000, 1_000_000]
    };
    Sweep::new("n", values)
}

/// The memory-scaling sweep: for each size in [`mem_scale_sizes`], the four
/// asynchronous-relaxation families of
/// [`crate::scenarios::sim_scale_suite`].
pub fn mem_scale_sweep(quick: bool) -> Sweep<Scenario> {
    let mut values = Vec::new();
    for &n in mem_scale_sizes(quick).iter() {
        values.extend(crate::scenarios::sim_scale_suite(n));
    }
    Sweep::new("scenario", values)
}

/// Total graph sizes of the robustness tier: small enough that every
/// (baseline, faulted) run pair finishes quickly even under heavy message
/// loss, large enough that the fault windows cover a meaningful fraction of
/// the run.
pub fn robustness_sizes(quick: bool) -> Sweep<usize> {
    let values = if quick {
        vec![96, 192]
    } else {
        vec![96, 192, 768]
    };
    Sweep::new("n", values)
}

/// The robustness-tier sweep: for each size in [`robustness_sizes`], the
/// four churn cases of [`crate::churn::churn_suite`].
pub fn robustness_sweep(quick: bool) -> Sweep<crate::churn::ChurnCase> {
    let mut values = Vec::new();
    for &n in robustness_sizes(quick).iter() {
        values.extend(crate::churn::churn_suite(n));
    }
    Sweep::new("churn case", values)
}

/// The adversary-tier sweep: for each size in [`robustness_sizes`] (the
/// attack runs share the robustness tier's size budget), the twelve
/// attack × aggregation cases of [`crate::adversary::adversary_suite`].
pub fn adversary_sweep(quick: bool) -> Sweep<crate::adversary::AdversaryCase> {
    let mut values = Vec::new();
    for &n in robustness_sizes(quick).iter() {
        values.extend(crate::adversary::adversary_suite(n));
    }
    Sweep::new("adversary case", values)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn doubling_sizes_basic() {
        let s = doubling_sizes(16, 128);
        assert_eq!(s.values, vec![16, 32, 64, 128]);
        assert_eq!(s.parameter, "n");
        assert_eq!(s.values.len(), 4);
        assert!(doubling_sizes(100, 50).values.is_empty());
        // Degenerate minimum is clamped to 2.
        assert_eq!(doubling_sizes(0, 4).values, vec![2, 4]);
    }

    #[test]
    fn dumbbell_sweep_halves_sizes() {
        let s = dumbbell_size_sweep(16, 64);
        assert_eq!(s.values.len(), 3);
        for (scenario, expected_n) in s.iter().zip([16usize, 32, 64]) {
            assert_eq!(scenario.node_count(), expected_n);
            assert!(matches!(scenario, Scenario::Dumbbell { .. }));
        }
    }

    #[test]
    fn cut_width_sweep_doubles_bridges() {
        let s = cut_width_sweep(12, 0.5, 8);
        assert_eq!(s.values.len(), 4);
        let widths: Vec<usize> = s
            .iter()
            .map(|sc| match sc {
                Scenario::BridgedClusters { bridges, .. } => *bridges,
                _ => panic!("unexpected scenario"),
            })
            .collect();
        assert_eq!(widths, vec![1, 2, 4, 8]);
        assert_eq!(s.parameter, "|E12|");
    }

    #[test]
    fn epoch_constant_sweep_appends_extras() {
        let s = epoch_constant_sweep(&[16.0]);
        assert_eq!(s.values, vec![1.0, 2.0, 4.0, 8.0, 16.0]);
        assert_eq!(epoch_constant_sweep(&[]).values.len(), 4);
    }

    #[test]
    fn scale_sizes_depend_on_mode() {
        assert_eq!(scale_sizes(true).values, vec![1_000, 10_000]);
        assert_eq!(scale_sizes(false).values, vec![1_000, 10_000, 50_000]);
    }

    #[test]
    fn sim_scale_sweep_covers_all_families_per_size() {
        let s = sim_scale_sweep(true);
        assert_eq!(s.values.len(), 2 * 4);
        let expected = [
            1_000usize, 1_000, 1_000, 1_000, 10_000, 10_000, 10_000, 10_000,
        ];
        for (scenario, &n) in s.iter().zip(expected.iter()) {
            assert!(scenario.node_count() >= n / 2);
            assert!(scenario.node_count() <= n + n / 8);
        }
        // Full mode reaches 50k.
        let full = sim_scale_sweep(false);
        assert_eq!(full.values.len(), 3 * 4);
        assert_eq!(full.values.last().unwrap().node_count(), 50_000);
    }

    #[test]
    fn mem_scale_sweep_covers_all_families_per_size() {
        assert_eq!(mem_scale_sizes(true).values, vec![50_000]);
        assert_eq!(
            mem_scale_sizes(false).values,
            vec![50_000, 250_000, 1_000_000]
        );
        let quick = mem_scale_sweep(true);
        assert_eq!(quick.values.len(), 4);
        for scenario in quick.iter() {
            assert!(scenario.node_count() >= 25_000);
            assert!(scenario.node_count() <= 56_250);
        }
        let full = mem_scale_sweep(false);
        assert_eq!(full.values.len(), 3 * 4);
        assert_eq!(full.values.last().unwrap().node_count(), 1_000_000);
    }

    #[test]
    fn robustness_sweep_covers_all_cases_per_size() {
        assert_eq!(robustness_sizes(true).values, vec![96, 192]);
        assert_eq!(robustness_sizes(false).values, vec![96, 192, 768]);
        let s = robustness_sweep(true);
        assert_eq!(s.values.len(), 2 * 4);
        assert_eq!(s.parameter, "churn case");
        for case in s.iter() {
            assert!(!case.name().is_empty());
        }
        assert_eq!(robustness_sweep(false).values.len(), 3 * 4);
    }

    #[test]
    fn adversary_sweep_covers_all_cases_per_size() {
        let s = adversary_sweep(true);
        assert_eq!(s.values.len(), 2 * 12);
        assert_eq!(s.parameter, "adversary case");
        for case in s.iter() {
            assert!(!case.name().is_empty());
        }
        assert_eq!(adversary_sweep(false).values.len(), 3 * 12);
    }

    #[test]
    fn scale_sweep_covers_all_families_per_size() {
        let s = scale_sweep(true);
        assert_eq!(s.values.len(), 2 * 4);
        assert_eq!(s.parameter, "scenario");
        // Node counts track the requested sizes to within rounding — one
        // expected size per scenario so nothing is silently unchecked.
        let expected = [
            1_000usize, 1_000, 1_000, 1_000, 10_000, 10_000, 10_000, 10_000,
        ];
        assert_eq!(s.values.len(), expected.len());
        for (scenario, &n) in s.iter().zip(expected.iter()) {
            assert!(scenario.node_count() >= n / 2);
            assert!(scenario.node_count() <= n + n / 8);
        }
    }
}
