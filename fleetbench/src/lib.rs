//! End-to-end and per-layer benchmark of the fleet evaluator.
//!
//! ```text
//! cargo run --release --manifest-path fleetbench/Cargo.toml -- \
//!     --workload golden200|wide200|delta200|supervised200 \
//!     --seed N --seconds S --trace 0|1
//! ```
//!
//! An untraced run (`--trace 0`) sets the workload up several times,
//! then times samples for `--seconds` and reports `eval_s.p50`,
//! `eval_s.tail`, `setup_s` and `peak_rss_mb`. A traced run
//! (`--trace 1`) alternates untraced samples with samples under a
//! recording collector, times each layer's public functions in
//! isolation ([`layers`]), and reports per-layer costs, the ledger's
//! work counts and how much of the traced CPU time the layer model
//! explains. Either way the last line of standard output is one JSON
//! object: `{"correct", "attempted", "failed", "metrics"}`.
//!
//! `METRICS.md` beside this crate records why each workload exists,
//! which end-to-end metric each layer metric should move, and what the
//! benchmark leaves out on purpose.

pub mod layers;
pub mod sys;
pub mod workload;

/// Median of `values` (mean of the middle two for an even count).
///
/// # Panics
///
/// Panics on an empty slice.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no values");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len().is_multiple_of(2) {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    } else {
        sorted[mid]
    }
}

/// Samples a tail statistic must leave beyond it.
pub const TAIL_BEYOND: usize = 10;

/// The highest percentile of a sample set that has [`TAIL_BEYOND`]
/// samples beyond it.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Tail {
    /// The sample at that rank.
    pub value: f64,
    /// Its percentile, `100 × (n − TAIL_BEYOND) / n`.
    pub percentile: f64,
    /// How many samples the set holds.
    pub samples: usize,
}

/// The tail of `values`: the `TAIL_BEYOND + 1`-th largest sample, or
/// `None` with too few samples to leave [`TAIL_BEYOND`] beyond it.
pub fn tail(values: &[f64]) -> Option<Tail> {
    let n = values.len();
    if n <= TAIL_BEYOND {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    Some(Tail {
        value: sorted[n - 1 - TAIL_BEYOND],
        percentile: 100.0 * (n - TAIL_BEYOND) as f64 / n as f64,
        samples: n,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_tail_ranks() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let values: Vec<f64> = (1..=40).map(f64::from).collect();
        let tail = tail(&values).expect("40 samples leave 10 beyond");
        assert_eq!(tail.value, 30.0);
        assert_eq!(tail.percentile, 75.0);
        assert_eq!(tail.samples, 40);
        assert!(super::tail(&values[..10]).is_none());
    }
}
