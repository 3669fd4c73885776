//! Fleet observability: a run ledger, phase spans, and machine-readable
//! run reports.
//!
//! The evaluation pipeline (synthesis → fault realization → per-job
//! harvesting machines → sharded scorecards → tuner rounds) reports on
//! itself through two strictly separated planes, following the repo's
//! standing convention that deterministic values are pinned in JSON
//! while wall time stays text-only:
//!
//! - **The deterministic plane** — a [`Ledger`] of counters, gauges,
//!   labels, and [`Histogram`]s keyed by `phase/name` and optionally
//!   broken down per scenario. Every recorded value is a pure function
//!   of the run's inputs (catalog, seed, configured trace budget, cache
//!   warmth), and the commutative merge rules (sum / max / must-agree
//!   / bucket-wise sum) plus sorted JSON keys make the rendered ledger
//!   byte-identical across 1, 2, or 8 worker threads and across shard
//!   splits — the same contract the sharded scorecards pin. Histogram
//!   bucket edges are **fixed, part of the byte-pinned schema** (four
//!   log-spaced buckets per octave, indexed by IEEE-754 exponent and
//!   top mantissa bits — see [`histogram`] for the exact edge
//!   formula); changing them would change every committed ledger, so
//!   they are not configurable.
//! - **The timing plane** — hierarchical phase spans
//!   ([`SpanNode`]) with nanosecond totals, self/child splits, and a
//!   per-scenario heaviest-first ranking. This plane is honest about
//!   being non-deterministic and never appears in byte-pinned JSON.
//!
//! Both planes flow through a [`Collector`], the handle engines and
//! tuners accept. The default collector is off: every recording call
//! is an early return on a `None` state with no clock reads, no
//! allocation, and no locking, so un-instrumented runs pay nothing
//! (the `fleet_hotpath` bench pins this). [`Collector::report`]
//! assembles a [`RunReport`] — both planes in one JSON document — for
//! the `--report <path>` flags on the examples.
//!
//! On top of the per-run artifacts sits the consumption plane:
//! [`ReportDiff`] compares two reports structurally and returns a
//! machine [`Verdict`] (any deterministic-plane delta is a
//! regression; timing is judged against a configurable noise
//! threshold), [`RunArchive`] appends reports to a JSONL trend store,
//! and [`trace_export`] renders the span tree as chrome-trace JSON
//! for `about:tracing`/Perfetto. The `fleet_report` example is the
//! CLI over all three.

pub mod archive;
pub mod collector;
pub mod diff;
pub mod fsio;
pub mod histogram;
pub mod json;
pub mod ledger;
pub mod report;
pub mod spans;
pub mod trace_export;

pub use archive::{ArchiveEntry, RunArchive, TruncatedTail};
pub use collector::{Collector, SpanGuard};
pub use diff::{
    CounterDelta, DiffConfig, HistogramDelta, LabelChange, ReportDiff, ScenarioDrift, SpanDelta,
    Verdict,
};
pub use histogram::Histogram;
pub use ledger::Ledger;
pub use report::RunReport;
pub use spans::{build_tree, format_ns, scenario_top, ScenarioTiming, SpanNode, SpanRecord};
pub use trace_export::{chrome_trace_json, chrome_trace_string};
