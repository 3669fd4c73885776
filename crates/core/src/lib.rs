//! Solar harvested-energy predictors — the primary contribution of the
//! DATE'10 paper reproduction.
//!
//! The centrepiece is the **WCMA predictor** of Recas et al. (VITAE'09),
//! the algorithm the paper evaluates (its Eq. 1–5):
//!
//! ```text
//! ê(n+1) = α · ẽ(n) + (1 − α) · μ_D(n+1) · Φ_K
//! ```
//!
//! where `ẽ(n)` is the just-measured slot power (*persistence term*),
//! `μ_D(n+1)` the mean of the next slot over the last `D` days, and `Φ_K`
//! a *conditioning factor* comparing the current day's last `K` slots to
//! their historical means — "how much brighter or cloudier today is".
//!
//! Everything a harvested-energy manager or an evaluation study needs is
//! here:
//!
//! * [`WcmaPredictor`] — the algorithm, with exposed intermediate terms.
//! * [`EwmaPredictor`] — the Kansal et al. (TECS'07) baseline.
//! * [`PersistencePredictor`], [`MovingAveragePredictor`] — degenerate
//!   baselines (the α = 1 and α = 0, Φ ≡ 1 corners of WCMA).
//! * [`dynamic`] — the machinery behind the paper's §IV-C dynamic
//!   parameter selection: per-step prediction ensembles over (α, K), plus
//!   a *causal* dynamic selector extending the paper's clairvoyant study.
//! * [`FixedWcmaPredictor`] — a Q16.16
//!   fixed-point kernel mirroring what an MSP430 would actually run.
//! * [`run_predictor`] — drives any predictor over a
//!   [`solar_trace::SlotView`] and produces a
//!   [`pred_metrics::PredictionLog`].
//!
//! # Example
//!
//! ```
//! # use std::error::Error;
//! # fn main() -> Result<(), Box<dyn Error>> {
//! use solar_predict::{run_predictor, WcmaParams, WcmaPredictor};
//! use solar_trace::{PowerTrace, Resolution, SlotsPerDay, SlotView};
//! use pred_metrics::EvalProtocol;
//!
//! // With one sample per slot (the paper's N = 288 rows on 5-minute
//! // data), the slot mean equals the boundary sample, so pure
//! // persistence (α = 1) reaches MAPE = 0 — Table III's 0† entries.
//! let day: Vec<f64> = (0..48).map(|s| ((s as f64 - 24.0) / 10.0).cosh().recip() * 900.0).collect();
//! let samples: Vec<f64> = (0..30).flat_map(|_| day.clone()).collect();
//! let trace = PowerTrace::new("periodic", Resolution::from_minutes(30)?, samples)?;
//! let view = SlotView::new(&trace, SlotsPerDay::new(48)?)?;
//!
//! let params = WcmaParams::new(1.0, 5, 2, 48)?;
//! let mut predictor = WcmaPredictor::new(params);
//! let log = run_predictor(&view, &mut predictor);
//! let summary = EvalProtocol::new(0.10, 10).evaluate(&log);
//! assert!(summary.mape < 1e-12);
//! # Ok(())
//! # }
//! ```

mod bank;
mod baseline;
pub mod dynamic;
mod error;
mod ewma;
pub mod fixed_point;
mod history;
mod params;
mod predictor;
mod runner;
mod wcma;

pub use bank::CandidateBank;
pub use baseline::{MovingAveragePredictor, PersistencePredictor};
pub use dynamic::CausalDynamicWcma;
pub use error::ParamError;
pub use ewma::EwmaPredictor;
pub use fixed_point::FixedWcmaPredictor;
pub use history::DayHistory;
pub use params::{KWindowPolicy, WcmaParams, WcmaParamsBuilder};
pub use predictor::Predictor;
pub use runner::{run_predictor, DayCheckpoint, PredictionFeed, StreamedPredictorRun};
pub use wcma::{conditioning_ratio, WcmaPredictor, WcmaTerms, MAX_CONDITIONING_RATIO};
