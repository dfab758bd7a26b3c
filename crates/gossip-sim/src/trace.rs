//! Time-series recording of a simulation run.
//!
//! Experiments such as E4 (per-tick drift of the block mean `y(t)`) and E5
//! (evolution of `log var X` across Algorithm A's epochs) need the trajectory
//! of summary statistics, not just the final state.  A [`Trace`] is a
//! sequence of [`TracePoint`]s sampled every `sample_every_ticks` ticks (and
//! always at the first and last event), optionally carrying the per-block
//! means and within-block deviation with respect to a [`Partition`].

use crate::values::NodeValues;
use gossip_graph::partition::Block;
use gossip_graph::Partition;

/// Sampling configuration for traces.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceConfig {
    /// Record a point every this many ticks (the first tick is always
    /// recorded).  A value of 1 records every tick.
    pub sample_every_ticks: u64,
    /// Also record per-block means and the within-block deviation.  Requires
    /// the simulation to have been given a partition.
    pub record_block_statistics: bool,
}

impl TraceConfig {
    /// Records every `sample_every_ticks` ticks, without block statistics.
    pub fn every_ticks(sample_every_ticks: u64) -> Self {
        TraceConfig {
            sample_every_ticks: sample_every_ticks.max(1),
            record_block_statistics: false,
        }
    }

    /// Enables per-block statistics.
    pub fn with_block_statistics(mut self) -> Self {
        self.record_block_statistics = true;
        self
    }
}

impl Default for TraceConfig {
    fn default() -> Self {
        TraceConfig::every_ticks(1)
    }
}

/// One sampled point of a simulation trajectory.
#[derive(Debug, Clone, PartialEq)]
pub struct TracePoint {
    /// Simulated time of the sample.
    pub time: f64,
    /// Number of ticks processed when the sample was taken.
    pub tick: u64,
    /// Variance of the node values.
    pub variance: f64,
    /// Mean of the node values (conserved by all linear algorithms).
    pub mean: f64,
    /// Mean over block one (`y(t)` / `µ₁(t)` in the paper), when recorded.
    pub block_mean_one: Option<f64>,
    /// Mean over block two (`z(t)` / `µ₂(t)` in the paper), when recorded.
    pub block_mean_two: Option<f64>,
    /// Within-block deviation `σ(t)`, when recorded.
    pub within_block_sigma: Option<f64>,
}

/// A recorded trajectory.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Trace {
    points: Vec<TracePoint>,
}

impl Trace {
    /// The recorded points, in time order.
    pub fn points(&self) -> &[TracePoint] {
        &self.points
    }

    /// Number of recorded points.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// Returns `true` if nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// The last recorded point, if any.
    pub fn last(&self) -> Option<&TracePoint> {
        self.points.last()
    }

    /// Earliest recorded time at which the variance ratio (relative to
    /// `initial_variance`) is below `threshold`, if any.
    pub fn first_time_below_ratio(&self, initial_variance: f64, threshold: f64) -> Option<f64> {
        if initial_variance <= 0.0 {
            return self.points.first().map(|p| p.time);
        }
        self.points
            .iter()
            .find(|p| p.variance / initial_variance < threshold)
            .map(|p| p.time)
    }

    /// Iterates over `(time, variance)` pairs, the series most plots need.
    pub fn variance_series(&self) -> impl Iterator<Item = (f64, f64)> + '_ {
        self.points.iter().map(|p| (p.time, p.variance))
    }
}

/// Incrementally builds a [`Trace`] during a run.  Drivers call
/// [`TraceRecorder::record`] after every tick; the recorder downsamples
/// according to its [`TraceConfig`].
#[derive(Debug, Clone)]
pub struct TraceRecorder {
    config: TraceConfig,
    partition: Option<Partition>,
    points: Vec<TracePoint>,
}

impl TraceRecorder {
    /// Creates a recorder.  `partition` is required for block statistics; if
    /// absent those fields stay `None` even when requested.
    pub fn new(config: TraceConfig, partition: Option<Partition>) -> Self {
        TraceRecorder {
            config,
            partition,
            points: Vec::new(),
        }
    }

    /// Records the state after the `tick`-th tick at simulated time `time`,
    /// subject to downsampling.  `force` bypasses downsampling (used for the
    /// final state).
    pub fn record(&mut self, time: f64, tick: u64, values: &NodeValues, force: bool) {
        if !force && !tick.is_multiple_of(self.config.sample_every_ticks) && tick != 1 {
            return;
        }
        self.push_point(time, tick, values);
    }

    fn push_point(&mut self, time: f64, tick: u64, values: &NodeValues) {
        let (block_mean_one, block_mean_two, within_block_sigma) =
            if self.config.record_block_statistics {
                match &self.partition {
                    Some(partition) => (
                        Some(values.block_mean(partition, Block::One)),
                        Some(values.block_mean(partition, Block::Two)),
                        Some(values.within_block_sigma(partition)),
                    ),
                    None => (None, None, None),
                }
            } else {
                (None, None, None)
            };
        self.points.push(TracePoint {
            time,
            tick,
            variance: values.variance(),
            mean: values.mean(),
            block_mean_one,
            block_mean_two,
            within_block_sigma,
        });
    }

    /// Finishes recording and returns the trace.
    pub fn finish(self) -> Trace {
        Trace {
            points: self.points,
        }
    }

    /// Finishes recording and returns the trace together with the
    /// configuration and partition the recorder was built from, so a driver
    /// that moved them in (instead of cloning per run) can restore them for
    /// a subsequent run.
    pub fn finish_with_parts(self) -> (Trace, TraceConfig, Option<Partition>) {
        (
            Trace {
                points: self.points,
            },
            self.config,
            self.partition,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gossip_graph::generators::dumbbell;

    #[test]
    fn config_constructors() {
        let c = TraceConfig::every_ticks(0);
        assert_eq!(c.sample_every_ticks, 1);
        assert!(!c.record_block_statistics);
        let c = TraceConfig::every_ticks(10).with_block_statistics();
        assert_eq!(c.sample_every_ticks, 10);
        assert!(c.record_block_statistics);
        assert_eq!(TraceConfig::default().sample_every_ticks, 1);
    }

    #[test]
    fn recorder_downsamples() {
        let mut rec = TraceRecorder::new(TraceConfig::every_ticks(5), None);
        let values = NodeValues::from_values(vec![1.0, -1.0]).unwrap();
        for tick in 1..=20u64 {
            rec.record(tick as f64 * 0.1, tick, &values, false);
        }
        let trace = rec.finish();
        // Ticks recorded: 1 (always), 5, 10, 15, 20.
        assert_eq!(trace.len(), 5);
        assert_eq!(trace.points()[0].tick, 1);
        assert_eq!(trace.last().unwrap().tick, 20);
        assert!(!trace.is_empty());
    }

    #[test]
    fn force_records_regardless_of_downsampling() {
        let mut rec = TraceRecorder::new(TraceConfig::every_ticks(100), None);
        let values = NodeValues::from_values(vec![1.0, -1.0]).unwrap();
        rec.record(0.5, 3, &values, true);
        let trace = rec.finish();
        assert_eq!(trace.len(), 1);
        assert_eq!(trace.points()[0].tick, 3);
    }

    #[test]
    fn block_statistics_recorded_with_partition() {
        let (_, partition) = dumbbell(2).unwrap();
        let mut rec = TraceRecorder::new(
            TraceConfig::every_ticks(1).with_block_statistics(),
            Some(partition),
        );
        let values = NodeValues::from_values(vec![1.0, 1.0, -1.0, -1.0]).unwrap();
        rec.record(0.1, 1, &values, false);
        let trace = rec.finish();
        let p = &trace.points()[0];
        assert_eq!(p.block_mean_one, Some(1.0));
        assert_eq!(p.block_mean_two, Some(-1.0));
        assert_eq!(p.within_block_sigma, Some(0.0));
        assert!((p.variance - 1.0).abs() < 1e-12);
        assert!((p.mean - 0.0).abs() < 1e-12);
    }

    #[test]
    fn block_statistics_absent_without_partition() {
        let mut rec = TraceRecorder::new(TraceConfig::every_ticks(1).with_block_statistics(), None);
        let values = NodeValues::from_values(vec![1.0, -1.0]).unwrap();
        rec.record(0.1, 1, &values, false);
        let trace = rec.finish();
        assert_eq!(trace.points()[0].block_mean_one, None);
    }

    #[test]
    fn first_time_below_ratio() {
        let mut rec = TraceRecorder::new(TraceConfig::every_ticks(1), None);
        // Variance decreasing over three ticks: 1.0, 0.5, 0.05.
        for (tick, spread) in [(1u64, 1.0f64), (2, 0.5), (3, 0.05)] {
            let v = NodeValues::from_values(vec![spread.sqrt(), -spread.sqrt()]).unwrap();
            rec.record(tick as f64, tick, &v, false);
        }
        let trace = rec.finish();
        assert_eq!(trace.first_time_below_ratio(1.0, 0.4), Some(3.0));
        assert_eq!(trace.first_time_below_ratio(1.0, 0.6), Some(2.0));
        assert_eq!(trace.first_time_below_ratio(1.0, 0.01), None);
        // Zero initial variance: converged at the first recorded time.
        assert_eq!(trace.first_time_below_ratio(0.0, 0.5), Some(1.0));
        let series: Vec<(f64, f64)> = trace.variance_series().collect();
        assert_eq!(series.len(), 3);
        assert!((series[0].1 - 1.0).abs() < 1e-12);
    }
}
