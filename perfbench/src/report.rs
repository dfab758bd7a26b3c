//! Metric names, units, medians and the one-line JSON result.
//!
//! Every workload prints every metric of the list its mode asks for
//! (end-to-end untraced, per-layer traced), so the two tables below are the
//! benchmark's schema; `BENCHMARK.json` lists the same names and units.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::trace::Tracer;

/// End-to-end metrics, measured with tracing off.  Every one is defined on
/// every workload and is never 0.
pub const END_TO_END: &[(&str, &str)] = &[
    // Median of the set-up repetitions of one run.
    ("setup_s", "s"),
    // Median time of one unit of main-phase work (see each workload).
    ("wall_s", "s"),
    // VmHWM of the process at exit.
    ("peak_rss_mib", "MiB"),
];

/// Per-layer metrics of the traced run, grouped by workspace crate, each
/// timed from outside around the named public call; counts come from
/// outcomes.  Times are medians of the self time per call.  A layer a
/// workload does not exercise reads 0.  The comment after each group names
/// the end-to-end metric it should move, on which workload.
pub const PER_LAYER: &[(&str, &str)] = &[
    // gossip-workloads / gossip-graph: `Scenario::instantiate` time and
    // resident growth -> setup_s, peak_rss_mib on million-relax.
    ("graph.build_s", "s"),
    ("graph.build_mib", "MiB"),
    // gossip-graph spectral / gossip-linalg: `SparseCutAlgorithm::
    // from_partition` -> setup_s on paper-estimate.
    ("spectral.tvan_s", "s"),
    // gossip-core: `AveragingTimeEstimator::estimate` per algorithm ->
    // wall_s on paper-estimate.
    ("estimator.alg_a_s", "s"),
    ("estimator.vanilla_s", "s"),
    // gossip-exec: a vanilla estimate on one job over the same estimate on
    // two -> wall_s on paper-estimate.
    ("exec.speedup", "ratio"),
    // gossip-sim engine: `AsyncSimulator::new` (sampler, per-edge counters)
    // with the heap it takes -> wall_s, peak_rss_mib on million-relax;
    // `AsyncSimulator::run` with its ticks and exact moment refreshes per
    // run, and ticks over the summed run time -> wall_s on million-relax,
    // setup_s and wall_s on hostile-checkpoint.
    ("sim.new_s", "s"),
    ("sim.new_mib", "MiB"),
    ("sim.run_s", "s"),
    ("sim.ticks", "count"),
    ("sim.refreshes", "count"),
    ("sim.ticks_per_s", "1/s"),
    // gossip-sim per-tick profile (see `tick_profile`): sampler, edge and
    // kernel -> wall_s on million-relax (the queue sampler on
    // paper-estimate); fault and adversary -> setup_s, wall_s on
    // hostile-checkpoint; the engine's tail -> all three.
    ("tick.sampler_ns", "ns"),
    ("tick.edge_ns", "ns"),
    ("tick.kernel_ns", "ns"),
    ("tick.fault_ns", "ns"),
    ("tick.adversary_ns", "ns"),
    ("tick.tail_ns", "ns"),
    // gossip-sim injectors: contacts suppressed and falsified in one run,
    // non-zero only on hostile-checkpoint, which proves both layers worked.
    ("fault.suppressed", "count"),
    ("adversary.falsified", "count"),
    // gossip-sim checkpoint, all on hostile-checkpoint: checkpoints per
    // run, bytes per log line and per log (exact) -> wall_s through the
    // store load; `EngineCheckpoint::to_value` -> wall_s;
    // `EngineCheckpoint::from_value` and `AsyncSimulator::restore` ->
    // wall_s.
    ("ckpt.count", "count"),
    ("ckpt.line_mib", "MiB"),
    ("ckpt.log_mib", "MiB"),
    ("ckpt.encode_s", "s"),
    ("ckpt.decode_s", "s"),
    ("ckpt.restore_s", "s"),
    // gossip-store with the vendored serde_json, all on hostile-checkpoint:
    // `RunStore::commit_checkpoint`, `RunStore::open` in resume mode, the
    // finishing run, and one whole resume cycle (store open to finished
    // run, span duration) -> wall_s.
    ("store.commit_s", "s"),
    ("store.load_s", "s"),
    ("resume.run_s", "s"),
    ("resume.total_s", "s"),
    // Computed bytes of the edge table, per-edge counters and values of one
    // run, next to the last-level cache `/sys` reports.
    ("mem.working_set_mib", "MiB"),
    ("mem.l3_mib", "MiB"),
    // The traced run's own end-to-end numbers: against the untraced run's
    // they give the tracing overhead.
    ("traced.setup_s", "s"),
    ("traced.wall_s", "s"),
];

/// Median of `values` (mean of the middle pair for an even count); `None`
/// when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(sorted[n / 2]),
        _ => Some(0.5 * (sorted[n / 2 - 1] + sorted[n / 2])),
    }
}

/// Operations attempted and failed, timing samples, and the metric values
/// of one run.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Set when a check outside any one operation failed (for example two
    /// set-up repetitions that disagree).
    pub broken: Option<String>,
    /// Seconds of each set-up repetition.
    pub setup: Vec<f64>,
    /// Seconds of each unit of main-phase work whose operations all
    /// passed their checks.
    pub wall: Vec<f64>,
    values: BTreeMap<&'static str, f64>,
}

impl Outcome {
    /// Turns the timing samples into `setup_s` and `wall_s`; a run whose
    /// set-up failed a check reports neither.
    pub fn finish(&mut self) {
        if self.broken.is_some() {
            return;
        }
        if let Some(setup) = median(&self.setup) {
            self.set("setup_s", setup);
        }
        if let Some(wall) = median(&self.wall) {
            self.set("wall_s", wall);
        }
    }

    /// Counts one operation; a failed one is reported on stderr.
    pub fn record(&mut self, what: &str, result: Result<(), String>) {
        self.attempted += 1;
        if let Err(reason) = result {
            self.failed += 1;
            eprintln!("perfbench: {what} failed: {reason}");
        }
    }

    /// Sets metric `name`; it must be one of the two tables.
    pub fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(
            END_TO_END.iter().chain(PER_LAYER).any(|(n, _)| *n == name),
            "unknown metric {name}"
        );
        self.values.insert(name, value);
    }

    /// Sets `name` to the median of `values` when there are any.
    pub fn set_median(&mut self, name: &'static str, values: &[f64]) {
        if let Some(m) = median(values) {
            self.set(name, m);
        }
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.get(name).copied()
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.broken.is_none()
    }

    /// The result line: the metrics of `table`, per-layer ones defaulting
    /// to 0.  An end-to-end metric without a passing measurement is left
    /// out rather than reported as a time a failed check produced.
    pub fn to_json(&self, table: &[(&'static str, &'static str)], zero_missing: bool) -> String {
        let mut metrics = String::new();
        for (name, unit) in table {
            let value = match self.get(name) {
                Some(v) if v.is_finite() => v,
                _ if zero_missing => 0.0,
                _ => continue,
            };
            if !metrics.is_empty() {
                metrics.push_str(", ");
            }
            let _ = write!(
                metrics,
                "\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
            );
        }
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
            self.correct(),
            self.attempted,
            self.failed
        )
    }
}

/// Sets the `sim.*` metrics from the `sim.new` and `sim.run` spans and the
/// per-run counts of ticks, moment refreshes and heap taken by
/// `AsyncSimulator::new`.
pub fn set_sim_layers(
    out: &mut Outcome,
    tracer: &Tracer,
    ticks: &[f64],
    refreshes: &[f64],
    new_mib: &[f64],
) {
    let run_s = tracer.self_times_s("sim.run");
    out.set_median("sim.new_s", &tracer.self_times_s("sim.new"));
    out.set_median("sim.new_mib", new_mib);
    out.set_median("sim.run_s", &run_s);
    out.set_median("sim.ticks", ticks);
    out.set_median("sim.refreshes", refreshes);
    let seconds: f64 = run_s.iter().sum();
    if seconds > 0.0 {
        out.set("sim.ticks_per_s", ticks.iter().sum::<f64>() / seconds);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `true` for a name the result line may carry: `[A-Za-z0-9_.-]+`.
    fn valid_name(name: &str) -> bool {
        !name.is_empty()
            && name
                .bytes()
                .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'.' | b'-'))
    }

    #[test]
    fn every_metric_name_and_unit_is_well_formed_and_used_once() {
        let mut seen = std::collections::BTreeSet::new();
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            assert!(valid_name(name), "bad metric name {name:?}");
            assert!(name.len() <= 64, "metric name too long: {name}");
            assert!(
                !unit.is_empty()
                    && unit.len() <= 16
                    && unit
                        .bytes()
                        .all(|b| b.is_ascii_alphanumeric() || b"_/%.-".contains(&b)),
                "bad unit {unit:?} of {name}"
            );
            assert!(seen.insert(*name), "metric {name} listed twice");
        }
    }

    #[test]
    fn the_name_check_rejects_what_the_result_line_may_not_carry() {
        for bad in ["", "wall s", "wall/s", "ticks\"", "µs"] {
            assert!(!valid_name(bad), "{bad:?} passed");
        }
        assert!(valid_name("tick.kernel_ns") && valid_name("paper-estimate"));
    }

    #[test]
    fn benchmark_json_lists_exactly_these_metrics() {
        use gossip_store::ValueExt;
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json next to perfbench/");
        let doc = serde_json::from_str(&text).expect("BENCHMARK.json parses");
        let listed = |key: &str| -> Vec<(String, String)> {
            let items = doc.get(key).and_then(|v| v.as_array()).expect(key);
            items
                .iter()
                .map(
                    |item| match (item.field_str("name"), item.field_str("unit")) {
                        (Some(name), Some(unit)) => (name.to_string(), unit.to_string()),
                        _ => panic!("{key} entry without name and unit"),
                    },
                )
                .collect()
        };
        let table = |t: &[(&str, &str)]| -> Vec<(String, String)> {
            t.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(listed("end_to_end"), table(END_TO_END));
        assert_eq!(listed("per_layer"), table(PER_LAYER));
    }

    #[test]
    fn a_broken_set_up_reports_no_time() {
        let mut outcome = Outcome {
            setup: vec![1.0, 2.0, 3.0],
            wall: vec![4.0],
            broken: Some("set-up repetitions disagree".into()),
            ..Outcome::default()
        };
        outcome.record("cycle", Ok(()));
        outcome.finish();
        assert_eq!(
            outcome.to_json(END_TO_END, false),
            "{\"correct\": false, \"attempted\": 1, \"failed\": 0, \"metrics\": {}}"
        );
    }

    #[test]
    fn median_handles_odd_even_and_empty_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn a_failed_operation_makes_the_run_incorrect_and_drops_missing_times() {
        let mut outcome = Outcome::default();
        outcome.record("first", Ok(()));
        outcome.record("second", Err("oracle".into()));
        outcome.set("peak_rss_mib", 12.5);
        let line = outcome.to_json(END_TO_END, false);
        assert_eq!(
            line,
            "{\"correct\": false, \"attempted\": 2, \"failed\": 1, \"metrics\": \
             {\"peak_rss_mib\": {\"value\": 12.5, \"unit\": \"MiB\"}}}"
        );
    }
}
