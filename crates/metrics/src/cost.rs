//! Evaluation-cost accounting — the metric layer under tuning loops.
//!
//! A fleet evaluation is itself a workload worth measuring: a tuning
//! loop that re-scores hundreds of candidate predictors needs to know
//! what each job cost (wall time) and how hard each predictor works per
//! slot (candidate configurations evaluated — 1 for a fixed predictor,
//! `|α| · K_max` for a dynamic selector). [`RunCost`] records one job;
//! [`CostAggregate`] collapses many.
//!
//! Wall time is **not deterministic** and must never leak into
//! byte-pinned artifacts (scorecard/report JSON); candidate counts are
//! spec-derived and deterministic, so they may. Renderers follow that
//! split: JSON carries candidate counts only, text reports show both.

/// Cost of one evaluation job.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct RunCost {
    /// Wall-clock time of the job in nanoseconds (non-deterministic;
    /// keep out of byte-pinned output).
    pub wall_nanos: u64,
    /// Peak number of candidate configurations the predictor evaluated
    /// per slot (deterministic, spec-derived).
    pub peak_candidates: usize,
    /// Peak bytes of trace-derived data the job held — the cached slot
    /// series on the materialized path (16 B per slot: start sample
    /// and mean power); on the streamed path one day's sample buffer
    /// plus the metrics log when the horizon is short enough to
    /// materialize it. Varies with cache policy and
    /// warm/cold state, so it belongs in text reports only, never in
    /// byte-pinned JSON.
    pub peak_trace_bytes: usize,
}

/// Collapsed cost figures over a set of jobs.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct CostAggregate {
    /// Number of jobs aggregated.
    pub jobs: usize,
    /// Total wall-clock nanoseconds across jobs.
    pub total_wall_nanos: u64,
    /// Largest per-job wall-clock nanoseconds.
    pub max_wall_nanos: u64,
    /// Largest per-job peak candidate count.
    pub peak_candidates: usize,
    /// Largest per-job peak trace memory in bytes (text-report only,
    /// like wall time — see [`RunCost::peak_trace_bytes`]).
    pub peak_trace_bytes: usize,
}

impl CostAggregate {
    /// Aggregates job costs.
    pub fn of(costs: impl IntoIterator<Item = RunCost>) -> Self {
        let mut agg = CostAggregate::default();
        for cost in costs {
            agg.add(cost);
        }
        agg
    }

    /// Folds one more job in.
    pub fn add(&mut self, cost: RunCost) {
        self.jobs += 1;
        self.total_wall_nanos += cost.wall_nanos;
        self.max_wall_nanos = self.max_wall_nanos.max(cost.wall_nanos);
        self.peak_candidates = self.peak_candidates.max(cost.peak_candidates);
        self.peak_trace_bytes = self.peak_trace_bytes.max(cost.peak_trace_bytes);
    }

    /// Merges another aggregate (e.g. per-round costs into a loop total).
    pub fn merge(&mut self, other: &CostAggregate) {
        self.jobs += other.jobs;
        self.total_wall_nanos += other.total_wall_nanos;
        self.max_wall_nanos = self.max_wall_nanos.max(other.max_wall_nanos);
        self.peak_candidates = self.peak_candidates.max(other.peak_candidates);
        self.peak_trace_bytes = self.peak_trace_bytes.max(other.peak_trace_bytes);
    }

    /// Total wall time in seconds.
    pub fn total_wall_seconds(&self) -> f64 {
        self.total_wall_nanos as f64 / 1e9
    }
}

impl std::fmt::Display for CostAggregate {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} jobs in {:.3}s wall (max {:.3}s, peak {} candidates, peak trace {:.1} KiB)",
            self.jobs,
            self.total_wall_seconds(),
            self.max_wall_nanos as f64 / 1e9,
            self.peak_candidates,
            self.peak_trace_bytes as f64 / 1024.0
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_aggregate_is_zero() {
        let agg = CostAggregate::of([]);
        assert_eq!(agg.jobs, 0);
        assert_eq!(agg.total_wall_nanos, 0);
        assert_eq!(agg.peak_candidates, 0);
    }

    #[test]
    fn aggregate_sums_and_maxes() {
        let agg = CostAggregate::of([
            RunCost {
                wall_nanos: 100,
                peak_candidates: 1,
                peak_trace_bytes: 4096,
            },
            RunCost {
                wall_nanos: 300,
                peak_candidates: 30,
                peak_trace_bytes: 1024,
            },
            RunCost {
                wall_nanos: 200,
                peak_candidates: 5,
                peak_trace_bytes: 2048,
            },
        ]);
        assert_eq!(agg.jobs, 3);
        assert_eq!(agg.total_wall_nanos, 600);
        assert_eq!(agg.max_wall_nanos, 300);
        assert_eq!(agg.peak_candidates, 30);
        assert_eq!(agg.peak_trace_bytes, 4096);
        assert!(!agg.to_string().is_empty());
    }

    #[test]
    fn merge_matches_flat_aggregation() {
        let a = RunCost {
            wall_nanos: 10,
            peak_candidates: 2,
            peak_trace_bytes: 100,
        };
        let b = RunCost {
            wall_nanos: 20,
            peak_candidates: 7,
            peak_trace_bytes: 900,
        };
        let mut left = CostAggregate::of([a]);
        left.merge(&CostAggregate::of([b]));
        assert_eq!(left, CostAggregate::of([a, b]));
    }
}
