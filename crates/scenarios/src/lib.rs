//! Scenario catalog and parallel fleet evaluation — the workspace's
//! scale-out layer.
//!
//! The DATE'10 paper evaluates its predictor on six measured traces;
//! related fleet-scale work (Basha et al.'s in-network prediction,
//! Mziou-Sallami et al.'s error-impact study) shows that predictors must
//! be judged **across deployment regimes** and **by downstream
//! management impact**, not a single MAPE figure. This crate provides
//! both:
//!
//! * [`Catalog`] — named, JSON-serialisable [`Scenario`]s composing a
//!   `solar_synth` site/weather regime (paper presets or custom
//!   latitude × climate via [`solar_synth::SiteConfigBuilder`]), a
//!   `harvest_sim` hardware tier ([`NodeProfile`]), and
//!   fault/perturbation injectors ([`FaultSpec`]) — dead panels, storage
//!   fade, sensor dropout, telemetry gaps;
//! * [`CatalogGenerator`] — parameterized catalog generation: climate
//!   [`RegimeTemplate`]s (latitude sweeps, cloudiness/turbidity axes,
//!   hardware tiers, [`FaultMix`] presets) expanded deterministically
//!   into hundreds of stable-id scenarios from one seed, with
//!   correlated fleet events graded by geodesic [`SpatialFalloff`]
//!   instead of a hard latitude band;
//! * [`FleetMatrix`] — a predictor-family × power-manager × scenario
//!   product, with predictor families reusable from
//!   [`param_explore::ParamGrid`]s
//!   ([`PredictorSpec::family_from_grid`]);
//! * [`FleetEngine`] — expands the matrix into jobs, executes them in
//!   parallel with `rayon` under deterministic per-job seeds, and
//!   reduces `NodeReport`s + `pred_metrics` summaries into a ranked
//!   [`Scorecard`] with byte-deterministic JSON output.
//!
//! # Example
//!
//! ```
//! use scenario_fleet::{Catalog, FleetEngine, FleetMatrix, ManagerSpec, PredictorSpec};
//!
//! let scenarios = vec![
//!     Catalog::builtin().get("desert-clear-sky").unwrap().clone(),
//! ];
//! let matrix = FleetMatrix::new(
//!     vec![
//!         PredictorSpec::Wcma { alpha: 0.7, days: 10, k: 2 },
//!         PredictorSpec::Persistence,
//!     ],
//!     vec![ManagerSpec::Greedy],
//!     scenarios,
//! ).unwrap();
//! let result = FleetEngine::new(42).run(&matrix).unwrap();
//! assert_eq!(result.outcomes.len(), 2);
//! let winner = result.scorecard.winner().unwrap();
//! assert_eq!(winner.rank, 1);
//! ```

mod catalog;
mod engine;
mod faults;
mod fleet_faults;
mod generators;
mod matrix;
mod scorecard;

// The JSON layer moved down into `fleet_obs` (the observability crate
// sits below this one in the dependency graph); re-exported here so
// `scenario_fleet::json::Json` paths keep working.
pub use fleet_obs::json;

pub use catalog::{Catalog, Climate, NodeProfile, Scenario, SiteSpec};
// The trace stream version travels with catalogs, templates, and the
// engine's ledger; re-exported so fleet users never import the synth
// crate just to name V1/V2.
pub use engine::{
    FleetCache, FleetDelta, FleetEngine, FleetResult, JobOutcome, PassBreakdown, PruneStats,
    QuarantinedScenario, ShardedFleetResult, TraceCachePolicy, DEFAULT_TRACE_BUDGET_BYTES,
};
pub use faults::{storage_capacity_factor, FaultInjector, FaultSpec};
pub use fleet_faults::{FalloffProfile, FleetFault, SpatialFalloff};
pub use generators::{CatalogGenerator, FaultMix, RegimeTemplate};
pub use matrix::{FleetMatrix, JobSpec, ManagerSpec, PredictorSpec};
pub use scorecard::{
    CoverageManifest, MissingCoverage, ScenarioRanking, ScoreEntry, Scorecard, ScorecardShard,
    ShardManifest,
};
pub use solar_synth::StreamVersion;

// Observability handles, re-exported so engine users configure
// collection — and consume reports (diff / archive / trace export) —
// without naming `fleet_obs` directly.
pub use fleet_obs::{
    Collector, DiffConfig, Histogram, Ledger, ReportDiff, RunArchive, RunReport, Verdict,
};
