//! The fleet engine: expand a [`FleetMatrix`] into work units, run them
//! in parallel — materialized or streamed — and reduce to a
//! [`Scorecard`], monolithic or sharded.
//!
//! # Determinism
//!
//! Every random draw is derived from the engine's master seed by stable
//! hashing — scenario traces from `(master, scenario name)`, fault
//! realizations likewise, fleet-wide events from `(master, event
//! index)` — and each job re-derives its own state from those seeds.
//! Jobs share nothing mutable, and reduction sorts by job index, so the
//! engine's output (including rendered scorecard JSON) is
//! **byte-identical for a given matrix and seed regardless of thread
//! count, trace-cache policy, shard count, or cache warmth**.
//! Integration tests pin all four properties.
//!
//! # The single-pass invariant
//!
//! **One slot pass per scenario per run.** Every fresh job of a
//! scenario — the whole predictor × manager block — is fed from a
//! single walk over the scenario's slot sequence, and synthesis runs at
//! most once per scenario per run (once into the trace cache when the
//! scenario is admitted, once as a [`solar_synth::SlotStream`]
//! otherwise; multi-year scenarios above the metrics-log cap add one
//! ROI pre-pass). Growing the candidate axis therefore adds per-slot
//! arithmetic, never whole passes — [`FleetResult::synthesis_passes`]
//! exposes the count, and the `fleet_hotpath`/`tuner_bank` benches pin
//! the resulting throughput trajectory (`BENCH_PR5.json`).
//!
//! The work-unit granularity is the scenario, so parallelism is across
//! scenarios: at fleet scale (hundreds of regimes) that saturates any
//! core count, while a few-scenario × many-predictor matrix trades
//! per-job parallelism for the shared-kernel savings below — the right
//! trade everywhere the workspace runs today, revisit if wide matrices
//! on many-core boxes become a primary shape.
//!
//! Within a pass, each slot is evaluated in two conceptual halves that
//! share one fault realization (injectors are pure functions of the
//! shared seed and slot sequence, and measurement corruption never
//! depends on the harvest argument — pinned by a faults test):
//!
//! 1. a *metrics half* scoring predictions against the true slot means
//!    under the paper's protocol, with measurement faults corrupting
//!    the predictors' inputs — prediction accuracy under adversity;
//! 2. a *simulation half* closing the management loop with physical
//!    faults applied — what the accuracy buys (brownouts, utilization).
//!
//! Because both halves observe the identical corrupted stream, each
//! *distinct predictor* computes its prediction once per slot: float
//! WCMA candidates fold into a shared
//! [`solar_predict::CandidateBank`] (one `E_{D×N}` history, one μ/η
//! column walk per distinct D, one Φ per distinct (D, K)), other
//! predictors run one owned instance — and every manager pairing reuses
//! that prediction stream and its metrics summary. Per-candidate
//! arithmetic is unchanged throughout, so every outcome is
//! bit-identical to a per-job solo run (property-tested in core, pinned
//! end to end by the engine equality tests and the golden 200-regime
//! digest).
//!
//! # Materialize or stream
//!
//! The [`TraceCachePolicy`] decides, per scenario, whether its trace is
//! generated once into the shared cache — as the slot series the pass
//! reads, `(start_sample, mean_power)` per slot, 16 B per slot, so the
//! pass walks it directly and later runs reuse it for free — or
//! **streamed**: the slot sequence is generated on the fly, holding one
//! day of samples instead of the full horizon. Both sources produce
//! identical slot values into the same machines, so outcomes are
//! bit-identical by construction — multi-year scenarios can run under a
//! bounded memory budget without perturbing a single byte of output.
//! The default policy is a fixed [`DEFAULT_TRACE_BUDGET_BYTES`] (4 MiB)
//! budget: the materialize/stream split depends on the matrix alone,
//! never on the host, so the admission and synthesis ledger counters
//! are as reproducible as the scorecard.
//!
//! # Incremental re-scoring
//!
//! A tuning loop re-runs near-identical matrices dozens of times,
//! changing only the predictor axis between rounds. [`FleetCache`]
//! makes that cheap: it memoizes slot series per scenario and
//! finished [`JobOutcome`]s per (scenario, predictor, manager) triple,
//! so [`FleetEngine::run_cached`] evaluates **only the jobs whose axis
//! value changed**. Because every job is a pure function of its triple
//! and the master seed, a cached outcome is bit-identical to a fresh
//! one — the resulting scorecard JSON is byte-identical to a full
//! re-run (pinned by test).
//!
//! # Observability
//!
//! The engine reports on itself through an optional
//! [`fleet_obs::Collector`] ([`FleetEngine::with_collector`]): phase
//! spans (`fleet/project` → `admission` → `synthesis` → `simulate` →
//! `score`) on the timing plane, and deterministic ledger
//! counters — admission decisions with the configured budget, synthesis
//! passes, cache hits, slot counts, bank sizes, fault specs — recorded
//! at **work-unit granularity** (one batch of counter updates per
//! scenario unit, computed arithmetically), never inside the per-slot
//! loop. The default collector is a no-op whose calls cost one branch,
//! so un-instrumented runs are unchanged (pinned by the
//! `fleet_hotpath` bench); with collection on, outputs stay
//! byte-identical and the ledger itself is byte-identical across
//! thread counts and shard splits.

use crate::catalog::Scenario;
use crate::faults::{storage_capacity_factor, FaultInjector, FaultSpec};
use crate::matrix::{FleetMatrix, JobSpec};
use crate::scorecard::{CoverageManifest, Scorecard, ScorecardShard, ShardManifest};
use fleet_obs::Collector;
use harvest_sim::SlotHook;
use harvest_sim::{NodeReport, NodeSimulation, SimDayCheckpoint};
use pred_metrics::{ErrorSummary, EvalProtocol, RecordSink, RunCost, StreamingEval};
use rayon::prelude::*;
use rayon::ThreadPoolBuilder;
use solar_predict::Predictor;
use solar_synth::{SynthCheckpoint, SynthCounters, TraceGenerator};
#[cfg(test)]
use solar_trace::PowerTrace;
use solar_trace::SlotsPerDay;
use std::collections::{BTreeMap, HashMap, HashSet};
use std::sync::Arc;
use std::time::Instant;

/// Outcome of one (scenario, predictor, manager) job.
#[derive(Clone, Debug)]
pub struct JobOutcome {
    /// Scenario name.
    pub scenario: String,
    /// Predictor label.
    pub predictor: String,
    /// Manager label.
    pub manager: String,
    /// Matrix coordinates.
    pub spec: JobSpec,
    /// Prediction accuracy under the paper's protocol (metrics pass).
    pub summary: ErrorSummary,
    /// Management outcome (simulation pass).
    pub report: NodeReport,
    /// What the job cost: wall time (both passes; non-deterministic),
    /// the predictor's peak candidate count (deterministic), and the
    /// peak trace bytes held (the cached slot series, 16 B per slot,
    /// when materialized; one day's sample buffer when streamed).
    pub cost: RunCost,
}

/// How a run spent its synthesis passes, by kind. The single-pass
/// invariant bounds the total by one per fresh scenario plus
/// pre-passes — never by the job count. Recorded in the run ledger as
/// the `synth/*` counters.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct PassBreakdown {
    /// Traces generated into the cache from day zero (one per fresh
    /// admitted scenario without a resumable generator tail).
    pub trace_generations: usize,
    /// Cached traces *extended* in place from their stored generator
    /// tail — a day-append pays only for the appended days.
    pub trace_extensions: usize,
    /// Streamed slot passes (one per fresh non-admitted scenario).
    pub streamed_passes: usize,
    /// ROI pre-passes spent by streamed units above the metrics-log
    /// cap (the paper's filter needs the reference peak up front).
    pub roi_prepasses: usize,
}

impl PassBreakdown {
    /// Total synthesis passes of any kind.
    pub fn total(&self) -> usize {
        self.trace_generations + self.trace_extensions + self.streamed_passes + self.roi_prepasses
    }

    fn add(&mut self, other: PassBreakdown) {
        self.trace_generations += other.trace_generations;
        self.trace_extensions += other.trace_extensions;
        self.streamed_passes += other.streamed_passes;
        self.roi_prepasses += other.roi_prepasses;
    }
}

/// A scenario whose work unit failed (panicked or errored) under
/// [`FleetEngine::with_quarantine`]: its jobs are absent from the
/// outcomes and its ranking table is empty, and the failure is
/// surfaced here instead of aborting the run. The harness folds these
/// into its `CoverageManifest` so a degraded run states exactly what
/// is missing and why.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct QuarantinedScenario {
    /// The scenario whose unit failed.
    pub scenario: String,
    /// The unit's error, or the panic message for caught panics.
    pub error: String,
}

/// Everything one fleet run produces.
#[derive(Clone, Debug)]
pub struct FleetResult {
    /// Per-job outcomes, in deterministic job order.
    pub outcomes: Vec<JobOutcome>,
    /// The reduced, ranked scorecard.
    pub scorecard: Scorecard,
    /// Jobs answered from the cache (0 for a fresh run).
    pub cached_jobs: usize,
    /// Jobs evaluated through the streamed path (no full-horizon trace
    /// allocation) this run.
    pub streamed_jobs: usize,
    /// Synthesis passes this run spent, broken down by kind.
    pub passes: PassBreakdown,
    /// Scenarios quarantined under [`FleetEngine::with_quarantine`]
    /// (always empty otherwise — failures abort the run instead).
    pub quarantined: Vec<QuarantinedScenario>,
    /// Which scenarios the scorecard ranks. A quarantined scenario has
    /// no table and is listed as missing with its error, exactly as
    /// [`Scorecard::merge_shards_partial`] reports it for a sharded
    /// run given the same errors as scenario reasons.
    pub coverage: CoverageManifest,
}

impl FleetResult {
    /// Synthesis passes this run spent (all kinds).
    pub fn synthesis_passes(&self) -> usize {
        self.passes.total()
    }
}

/// A sharded fleet run: the manifest plus one scorecard shard per
/// scenario subset — the format for matrices whose monolithic scorecard
/// no longer fits one JSON document. [`Scorecard::merge_shards`]
/// reassembles the monolithic scorecard byte-for-byte.
#[derive(Clone, Debug)]
pub struct ShardedFleetResult {
    /// Which scenario lives in which shard, in matrix order.
    pub manifest: ShardManifest,
    /// The shards, indexed `0..manifest.shard_count`.
    pub shards: Vec<ScorecardShard>,
    /// Per-job outcomes, in deterministic job order.
    pub outcomes: Vec<JobOutcome>,
    /// Jobs answered from the cache.
    pub cached_jobs: usize,
    /// Jobs evaluated through the streamed path.
    pub streamed_jobs: usize,
    /// Synthesis passes this run spent, broken down by kind.
    pub passes: PassBreakdown,
    /// Scenarios quarantined under [`FleetEngine::with_quarantine`]
    /// (always empty otherwise — failures abort the run instead).
    pub quarantined: Vec<QuarantinedScenario>,
}

impl ShardedFleetResult {
    /// Synthesis passes this run spent (all kinds).
    pub fn synthesis_passes(&self) -> usize {
        self.passes.total()
    }
}

/// How much memory the engine may spend on materialized traces.
///
/// A materialized trace is cached as its slot series — one
/// `(start_sample, mean_power)` pair per slot, 16 B per slot — so a
/// budget counts slots, not raw samples: a 30-day, 48-slot scenario
/// costs 23,040 B whatever its sample resolution.
///
/// Scenarios are admitted greedily in matrix order — a deterministic
/// admission order depending only on the matrix and the budget; a
/// scenario whose trace would push the running total past the budget
/// runs **streamed** instead
/// ([`SlotStream`](solar_synth::SlotStream)-driven, one day buffered).
/// Outputs stay byte-identical across policies, thread counts and cache
/// warmth, because both sources drive the same per-slot machines.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum TraceCachePolicy {
    /// Materialize every trace (the classic engine behaviour).
    Unbounded,
    /// Materialize traces until this many bytes of slot series (16 B
    /// per slot) are held; stream the rest.
    Bounded(u64),
}

/// The default trace budget: 4 MiB of slot series, which holds the
/// whole builtin catalog (≈2.2 MB) and streams only fleets larger than
/// that.
pub const DEFAULT_TRACE_BUDGET_BYTES: u64 = 4 << 20;

impl TraceCachePolicy {
    /// Materialize every trace.
    pub fn unbounded() -> Self {
        TraceCachePolicy::Unbounded
    }

    /// Materialize traces until `bytes` of trace data are held; stream
    /// the rest.
    pub fn bounded(bytes: u64) -> Self {
        TraceCachePolicy::Bounded(bytes)
    }

    /// Stream every scenario (a zero-byte budget).
    pub fn streaming_only() -> Self {
        Self::bounded(0)
    }

    fn admits(&self, running_total: u64, trace_bytes: u64) -> bool {
        match *self {
            TraceCachePolicy::Unbounded => true,
            TraceCachePolicy::Bounded(budget) => {
                running_total.saturating_add(trace_bytes) <= budget
            }
        }
    }
}

impl Default for TraceCachePolicy {
    /// [`DEFAULT_TRACE_BUDGET_BYTES`]: a fixed budget, so the admission
    /// split — and every `admission/*` and `synth/*` ledger counter —
    /// is a function of the matrix alone, never of the host.
    fn default() -> Self {
        Self::bounded(DEFAULT_TRACE_BUDGET_BYTES)
    }
}

/// One materialized trace's memory footprint: 16 B per slot, its
/// `(start_sample, mean_power)` pair. **Both** the cache's accounting
/// ([`FleetCache::trace_bytes`]) and the admission estimate
/// ([`FleetEngine`]'s per-scenario projection) go through this helper,
/// so the bytes a [`TraceCachePolicy`] budgets against are the bytes
/// the cache will actually report once the series exists.
fn trace_footprint_bytes(slot_count: usize) -> usize {
    slot_count * std::mem::size_of::<(f64, f64)>()
}

/// A scenario's cache identity: its JSON rendered once per run without
/// `days` (see [`Scenario::render_without_days`]), plus `days`. Equal
/// keys mean byte-equal scenario JSON; equal renders with a larger
/// `days` mean a day-append.
type ScenarioKey = (Arc<str>, usize);

/// One scenario's materialized trace as the engine reads it: the slot
/// series, plus the generator state at its end so a day-append pushes
/// only the appended days' slots onto the series in place.
#[derive(Clone, Debug)]
struct CachedTrace {
    /// The horizon the series reaches.
    days: usize,
    /// `(start_sample, mean_power)` per slot, day-major.
    slots: Vec<(f64, f64)>,
    /// Generator state positioned at `days`.
    tail: SynthCheckpoint,
}

impl CachedTrace {
    /// Synthesizes the slots from `from` (day zero when `None`) up to
    /// `days` by draining a [`solar_synth::SlotStream`], so no
    /// full-resolution trace is ever built. Returns the synthesis cost
    /// alongside; a continuation from `from` holds only the new days'
    /// slots and joins its series through [`CachedTrace::append`].
    fn synthesize(
        generator: &TraceGenerator,
        from: Option<SynthCheckpoint>,
        days: usize,
        n: SlotsPerDay,
    ) -> Result<(CachedTrace, SynthCounters), String> {
        let mut stream = match from {
            None => generator.slot_stream(days, n),
            Some(tail) => generator.slot_stream_from(tail, days, n),
        }
        .map_err(|e| e.to_string())?;
        let mut slots = Vec::with_capacity(stream.size_hint().0);
        slots.extend(stream.by_ref().map(|s| (s.start_sample, s.mean_power)));
        let tail = stream
            .checkpoint()
            .expect("a drained stream sits at a day boundary");
        Ok((CachedTrace { days, slots, tail }, stream.counters()))
    }

    /// Pushes a continuation synthesized from this series' tail onto
    /// the series.
    fn append(&mut self, continuation: CachedTrace) {
        self.slots.reserve_exact(continuation.slots.len());
        self.slots.extend_from_slice(&continuation.slots);
        self.days = continuation.days;
        self.tail = continuation.tail;
    }
}

/// End-of-horizon machine state of one scenario's full job cross — the
/// O(appended days) resume point for a day-append delta. Captured by
/// the engine at the end of an eligible work-unit pass (full predictor
/// × manager cross, no trace-gap fault, every solo predictor
/// snapshot-able) and stored in the [`FleetCache`] keyed by the
/// scenario's render without `days`, so a scenario resumes from it
/// exactly when it renders the same and reaches further.
struct UnitCheckpoint {
    /// The captured horizon in days.
    days: usize,
    /// Predictor axis labels at capture (matrix order) — the machine
    /// set below is only meaningful against an identical axis.
    predictor_labels: Vec<String>,
    /// Manager axis labels at capture (matrix order).
    manager_labels: Vec<String>,
    /// Whether the stored sinks are streaming accumulators (`true`) or
    /// materialized prediction logs (`false`). A resumed pass streams
    /// either way: logs re-fold against the extended peak at restore
    /// (bit-identical by the sink contract), so only accumulator
    /// checkpoints are invalidated when appended days raise the peak.
    streaming_eval: bool,
    /// The ROI reference peak the record filter judged against — the
    /// prepass peak for streaming passes, the log's own for log passes.
    roi_peak: f64,
    /// The final slot's dimmed reference mean, not yet folded into the
    /// peak (mirrors `PredictionLog::peak_actual_mean` excluding the
    /// final slot).
    roi_pending_mean: Option<f64>,
    /// Whether the final captured slot opened a prediction record.
    prior_included: bool,
    /// The fault injector after the captured pass — its sequential
    /// dropout RNG continues exactly where a cold run over the longer
    /// horizon would be at this day boundary.
    injector: FaultInjector,
    /// Generator state for streamed units (`None` when materialized —
    /// the cached series extends from [`CachedTrace::tail`]).
    synth: Option<SynthCheckpoint>,
    /// The shared float-WCMA candidate bank, if the axis has any.
    bank: Option<solar_predict::CandidateBank>,
    /// Solo predictor snapshots, in kernel order.
    solo: Vec<Box<dyn Predictor + Send + Sync>>,
    /// Per-kernel record sinks, in kernel order.
    feeds: Vec<FeedCheckpoint>,
    /// Per-job simulation state, in unit job order.
    sims: Vec<SimDayCheckpoint>,
}

/// One feed's captured state inside a [`UnitCheckpoint`].
struct FeedCheckpoint {
    /// The record sink as the captured pass fed it.
    sink: MetricsSink,
    /// For log sinks: the log already folded through the protocol at
    /// [`UnitCheckpoint::roi_peak`] — the capture computes this fold
    /// for the summary anyway, and storing it lets a resume whose
    /// extended peak matches skip re-walking the prefix records
    /// entirely (the common case; peaks are set by the climatology).
    folded: Option<StreamingEval>,
    /// The feed's still-open record straddling the day boundary.
    pending: Option<(u32, u32, f64, f64)>,
}

impl std::fmt::Debug for UnitCheckpoint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("UnitCheckpoint")
            .field("days", &self.days)
            .field("predictors", &self.predictor_labels.len())
            .field("managers", &self.manager_labels.len())
            .field("streaming_eval", &self.streaming_eval)
            .finish_non_exhaustive()
    }
}

/// What [`FleetCache::prune_to`] evicted, so an incremental loop can
/// fold the dropped jobs' cost into its own running aggregate before
/// the entries disappear from [`FleetCache::cost`].
#[derive(Copy, Clone, Debug, Default, PartialEq)]
pub struct PruneStats {
    /// Job outcomes evicted.
    pub evicted_outcomes: usize,
    /// Materialized traces evicted.
    pub evicted_traces: usize,
    /// Bytes of trace footprint released.
    pub evicted_trace_bytes: usize,
    /// Aggregate cost of the evicted job outcomes.
    pub evicted_cost: pred_metrics::CostAggregate,
}

/// Memo of traces, job outcomes, and day-boundary resume state across
/// runs of one engine — the incremental re-scoring state. Create with
/// [`FleetEngine::new_cache`]; feed to [`FleetEngine::run_cached`]. The
/// cache is bound to the engine's master seed and protocol and refuses
/// to serve any other. It never evicts on its own — call
/// [`FleetCache::prune_to`] from loops that retire scenarios.
#[derive(Clone, Debug, Default)]
pub struct FleetCache {
    master_seed: u64,
    protocol: Option<EvalProtocol>,
    /// Slot series keyed by the scenario's render without `days` (not
    /// just its name, so a mutated same-name scenario can never alias);
    /// each serves its scenario at exactly [`CachedTrace::days`], and
    /// day-appends extend it in O(appended days).
    traces: HashMap<Arc<str>, CachedTrace>,
    /// Outcomes keyed by (scenario key, predictor label, manager
    /// label); labels are injective over specs by contract.
    outcomes: HashMap<(ScenarioKey, String, String), JobOutcome>,
    /// Work-unit resume state keyed like `traces`: day-appends continue
    /// every machine from the stored day boundary.
    checkpoints: HashMap<Arc<str>, Arc<UnitCheckpoint>>,
}

impl FleetCache {
    /// Number of memoized job outcomes.
    pub fn len(&self) -> usize {
        self.outcomes.len()
    }

    /// Whether the cache holds no outcomes.
    pub fn is_empty(&self) -> bool {
        self.outcomes.is_empty()
    }

    /// Number of memoized scenario traces.
    pub fn trace_count(&self) -> usize {
        self.traces.len()
    }

    /// Bytes the cached traces occupy, per the same footprint
    /// accounting the admission policy budgets with: 16 B per cached
    /// slot, the `(start_sample, mean_power)` pair the engine reads.
    pub fn trace_bytes(&self) -> usize {
        self.traces
            .values()
            .map(|t| trace_footprint_bytes(t.slots.len()))
            .sum()
    }

    /// Aggregate cost of every distinct job outcome the cache
    /// **currently holds** — one entry per (scenario, predictor,
    /// manager) triple, order-independent despite the map. Entries
    /// evicted by [`FleetCache::prune_to`] leave this aggregate; the
    /// eviction returns their cost in [`PruneStats::evicted_cost`] so
    /// a loop tracking lifetime totals can accumulate it separately.
    pub fn cost(&self) -> pred_metrics::CostAggregate {
        pred_metrics::CostAggregate::of(self.outcomes.values().map(|o| o.cost))
    }

    /// Evicts every outcome of a scenario **not** in `matrix`, and
    /// every trace and resume checkpoint no scenario in `matrix` can
    /// extend or resume — one whose scenario differs from all of them
    /// in more than `days` (compared after fleet-fault projection
    /// under the cache's bound seed, so the keys are the ones runs
    /// actually store). Call this from loops whose scenario set
    /// shrinks or rolls forward — the cache never evicts on its own,
    /// so a tuner sweeping hundreds of regimes would otherwise hold
    /// every retired trace to the end.
    ///
    /// Returns what was dropped; fold [`PruneStats::evicted_cost`]
    /// into your own aggregate if you report lifetime totals.
    ///
    /// # Errors
    ///
    /// Returns an error if a fleet fault fails to project or a
    /// scenario's site config is invalid.
    pub fn prune_to(&mut self, matrix: &FleetMatrix) -> Result<PruneStats, String> {
        let effective = project_fleet_faults_seeded(matrix, self.master_seed)?;
        let renders: Vec<(String, usize)> = effective
            .scenarios
            .iter()
            .map(|s| (s.render_without_days(), s.days))
            .collect();
        let keep_keys: HashSet<(&str, usize)> = renders
            .iter()
            .map(|(r, days)| (r.as_str(), *days))
            .collect();
        let keep_renders: HashSet<&str> = renders.iter().map(|(r, _)| r.as_str()).collect();
        let kept = |((render, days), _, _): &(ScenarioKey, String, String)| {
            keep_keys.contains(&(&**render, *days))
        };
        let evicted_cost = pred_metrics::CostAggregate::of(
            self.outcomes
                .iter()
                .filter(|(key, _)| !kept(key))
                .map(|(_, o)| o.cost),
        );
        let before_outcomes = self.outcomes.len();
        let before_traces = self.traces.len();
        let before_bytes = self.trace_bytes();
        self.outcomes.retain(|key, _| kept(key));
        self.traces
            .retain(|render, _| keep_renders.contains(&**render));
        self.checkpoints
            .retain(|render, _| keep_renders.contains(&**render));
        Ok(PruneStats {
            evicted_outcomes: before_outcomes - self.outcomes.len(),
            evicted_traces: before_traces - self.traces.len(),
            evicted_trace_bytes: before_bytes - self.trace_bytes(),
            evicted_cost,
        })
    }
}

/// Per-job metrics-log cap on the streamed path: scenarios whose
/// prediction log would exceed this fold records into O(1) streaming
/// accumulators (at the cost of one ROI pre-pass per scenario) instead
/// of materializing the log. 1 MiB keeps every sub-year scenario on the
/// cheap single-pass path while multi-year horizons stay bounded.
const STREAMED_LOG_CAP_BYTES: usize = 1 << 20;

/// The streamed metrics pass's record sink: a materialized log under
/// [`STREAMED_LOG_CAP_BYTES`], streaming protocol accumulators above
/// it. Both evaluate through the same accumulator code, so the variants
/// are bit-identical in output. Cloneable so a day-boundary
/// checkpoint can carry the sink's accumulated state.
#[derive(Clone)]
enum MetricsSink {
    Log(pred_metrics::PredictionLog),
    Streaming(StreamingEval),
}

impl RecordSink for MetricsSink {
    fn push_record(&mut self, record: pred_metrics::PredictionRecord) {
        match self {
            MetricsSink::Log(log) => log.push(record),
            MetricsSink::Streaming(eval) => eval.push_record(record),
        }
    }
}

/// One schedulable unit of a fleet run: **all** of one scenario's fresh
/// jobs, evaluated over a single slot pass — from the cached trace when
/// the scenario is admitted, from a generator stream otherwise.
struct WorkUnit {
    scenario_idx: usize,
    /// Fresh job indices, in matrix job order.
    job_indices: Vec<usize>,
    /// A validated day-append resume point: the pass walks only the
    /// appended days, continuing every machine from this state.
    resume: Option<Arc<UnitCheckpoint>>,
    /// Generator state standing in for [`UnitCheckpoint::synth`] when
    /// the checkpointed pass was materialized (no stream of its own)
    /// but the admission policy now streams the scenario — the cached
    /// series' [`CachedTrace::tail`] is the same day boundary, so the
    /// appended slots still have a source.
    resume_synth: Option<SynthCheckpoint>,
}

/// What evaluating one work unit yields: `(job index, outcome)` pairs,
/// the synthesis passes the unit spent (units only ever spend streamed
/// passes and ROI pre-passes; trace generations happen in phase 1),
/// and — when the pass was checkpoint-eligible — the end-of-horizon
/// machine state for the next day-append.
type UnitOutcomes = (
    Vec<(usize, JobOutcome)>,
    PassBreakdown,
    Option<UnitCheckpoint>,
);

/// The parallel fleet evaluator.
#[derive(Clone, Debug)]
pub struct FleetEngine {
    master_seed: u64,
    threads: Option<usize>,
    protocol: EvalProtocol,
    cache_policy: TraceCachePolicy,
    collector: Collector,
    quarantine: bool,
    chaos_unit_panic: Option<String>,
}

impl FleetEngine {
    /// An engine deriving all randomness from `master_seed`, evaluating
    /// under the paper's protocol, using all available cores and the
    /// default 4 MiB trace budget (small fleets materialize, larger
    /// ones stream the overflow — byte-identical either way).
    pub fn new(master_seed: u64) -> Self {
        FleetEngine {
            master_seed,
            threads: None,
            protocol: EvalProtocol::paper(),
            cache_policy: TraceCachePolicy::default(),
            collector: Collector::noop(),
            quarantine: false,
            chaos_unit_panic: None,
        }
    }

    /// Quarantines failing work units instead of aborting the run: a
    /// scenario whose unit errors or panics is excluded from the
    /// outcomes (its ranking table comes out empty), counted under
    /// `fleet/quarantined_units`, and reported in
    /// [`FleetResult::quarantined`] so callers can fold it into an
    /// explicit coverage manifest. Off by default — the classic
    /// behaviour propagates the first failure.
    pub fn with_quarantine(mut self, enabled: bool) -> Self {
        self.quarantine = enabled;
        self
    }

    /// Deterministic chaos injection for the quarantine path: the work
    /// unit for the named scenario panics at dispatch. Exists so the
    /// harness (and its tests) can drive a *real* in-process panic
    /// through `catch_unwind` end-to-end; useless — and off — in
    /// production runs.
    pub fn with_chaos_unit_panic(mut self, scenario: &str) -> Self {
        self.chaos_unit_panic = Some(scenario.to_string());
        self
    }

    /// Pins the worker-thread count (useful for determinism tests and
    /// benchmarking scaling).
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = Some(threads);
        self
    }

    /// Replaces the evaluation protocol.
    pub fn with_protocol(mut self, protocol: EvalProtocol) -> Self {
        self.protocol = protocol;
        self
    }

    /// Replaces the trace-cache policy (bounded budgets stream the
    /// overflow; outputs stay byte-identical either way).
    pub fn with_trace_cache(mut self, policy: TraceCachePolicy) -> Self {
        self.cache_policy = policy;
        self
    }

    /// Attaches an observability collector: runs record ledger
    /// counters and phase spans into it. The default is the no-op
    /// collector, whose calls cost one branch — outputs are
    /// byte-identical either way.
    pub fn with_collector(mut self, collector: Collector) -> Self {
        self.collector = collector;
        self
    }

    /// The attached collector (no-op unless one was attached).
    pub fn collector(&self) -> &Collector {
        &self.collector
    }

    /// The master seed.
    pub fn master_seed(&self) -> u64 {
        self.master_seed
    }

    /// The trace-cache policy.
    pub fn trace_cache_policy(&self) -> TraceCachePolicy {
        self.cache_policy
    }

    /// An empty cache bound to this engine's seed and protocol.
    pub fn new_cache(&self) -> FleetCache {
        FleetCache {
            master_seed: self.master_seed,
            protocol: Some(self.protocol),
            traces: HashMap::new(),
            outcomes: HashMap::new(),
            checkpoints: HashMap::new(),
        }
    }

    /// Runs the whole matrix from scratch.
    ///
    /// # Errors
    ///
    /// Returns the first trace-generation or hardware-construction
    /// error; a per-job panic (a contract violation) is caught at the
    /// work-unit boundary and returned as an error naming its
    /// scenario — or, under [`FleetEngine::with_quarantine`], excluded
    /// from the outcomes and reported in [`FleetResult::quarantined`].
    pub fn run(&self, matrix: &FleetMatrix) -> Result<FleetResult, String> {
        let mut cache = self.new_cache();
        self.run_cached(matrix, &mut cache)
    }

    /// Runs the matrix, reusing every trace and job outcome already in
    /// `cache` and evaluating only what changed since the cache was
    /// filled. New traces and outcomes are added to the cache.
    ///
    /// The scorecard is **byte-identical** to what [`FleetEngine::run`]
    /// would produce for the same matrix: jobs are pure functions of
    /// (scenario, predictor, manager, master seed), so a memoized
    /// outcome equals a recomputed one. Only the non-deterministic
    /// wall-time/trace-memory accounting (never rendered into JSON) can
    /// differ.
    ///
    /// # Errors
    ///
    /// Returns an error if the cache is bound to a different seed or
    /// protocol, or on the first trace-generation/hardware error.
    pub fn run_cached(
        &self,
        matrix: &FleetMatrix,
        cache: &mut FleetCache,
    ) -> Result<FleetResult, String> {
        self.check_cache(cache)?;
        self.install(|| {
            let _run_span = self.collector.span("fleet");
            let evaluated = self.evaluate_matrix(matrix, cache)?;
            let (scorecard, coverage) = {
                let _span = self.collector.span("fleet/score");
                let reasons: BTreeMap<String, String> = evaluated
                    .quarantined
                    .iter()
                    .map(|q| (q.scenario.clone(), q.error.clone()))
                    .collect();
                Scorecard::build(
                    &evaluated.effective,
                    &evaluated.outcomes,
                    self.master_seed,
                    &reasons,
                )
            };
            self.collector.count(
                "score/scenarios_ranked",
                evaluated.effective.scenarios.len() as u64,
            );
            Ok(FleetResult {
                outcomes: evaluated.outcomes,
                scorecard,
                cached_jobs: evaluated.cached_jobs,
                streamed_jobs: evaluated.streamed_jobs,
                passes: evaluated.passes,
                quarantined: evaluated.quarantined,
                coverage,
            })
        })
    }

    /// Runs the matrix and reduces into `shard_count` scorecard shards
    /// plus the manifest — the artifact set for matrices whose
    /// monolithic scorecard is too large for one document. Scenarios
    /// are assigned round-robin (`scenario_idx % shard_count`), so
    /// multi-year entries spread across shards.
    ///
    /// A shard count outside `1..=scenario_count` is **clamped** into
    /// range, and the clamp is recorded in the run ledger under the
    /// `shards/clamped` label.
    ///
    /// # Errors
    ///
    /// Propagates evaluation errors.
    pub fn run_sharded(
        &self,
        matrix: &FleetMatrix,
        shard_count: usize,
    ) -> Result<ShardedFleetResult, String> {
        let mut cache = self.new_cache();
        self.run_sharded_cached(matrix, shard_count, &mut cache)
    }

    /// [`FleetEngine::run_sharded`] through a warm cache.
    ///
    /// # Errors
    ///
    /// As [`FleetEngine::run_sharded`], plus cache-binding mismatches.
    pub fn run_sharded_cached(
        &self,
        matrix: &FleetMatrix,
        shard_count: usize,
        cache: &mut FleetCache,
    ) -> Result<ShardedFleetResult, String> {
        self.check_cache(cache)?;
        self.install(|| {
            let _run_span = self.collector.span("fleet");
            let evaluated = self.evaluate_matrix(matrix, cache)?;
            let shard_count =
                self.clamp_shard_count(shard_count, evaluated.effective.scenarios.len());
            let _span = self.collector.span("fleet/score");
            let (manifest, shards) = Self::shard_outcomes(
                &evaluated.effective,
                &evaluated.outcomes,
                self.master_seed,
                shard_count,
            )?;
            self.collector.count(
                "score/scenarios_ranked",
                evaluated.effective.scenarios.len() as u64,
            );
            Ok(ShardedFleetResult {
                manifest,
                shards,
                outcomes: evaluated.outcomes,
                cached_jobs: evaluated.cached_jobs,
                streamed_jobs: evaluated.streamed_jobs,
                passes: evaluated.passes,
                quarantined: evaluated.quarantined,
            })
        })
    }

    /// Re-scores an evolved matrix through the cheap path its
    /// [`FleetDelta`] classification routes to, against the warm cache
    /// of the previous run.
    ///
    /// The delta is advisory routing metadata — correctness never
    /// depends on it. Every path funnels into [`FleetEngine::run_cached`],
    /// whose per-scenario resume/reuse machinery independently verifies
    /// (by rendered scenario JSON) that each cached artifact still
    /// matches the incoming matrix, so a stale or wrong classification
    /// degrades to colder work, never to a wrong scorecard:
    ///
    /// * [`FleetDelta::DayAppend`] — appended days resume from the unit
    ///   checkpoints and extended traces (O(delta) work),
    /// * [`FleetDelta::ScenarioEdit`] — only the touched scenarios
    ///   re-evaluate; everything else replays from the outcome cache,
    /// * [`FleetDelta::PredictorRetire`] — no simulation at all: the
    ///   surviving outcomes re-rank from cache,
    /// * [`FleetDelta::Unchanged`] — a pure cache replay.
    ///
    /// Per-unit `delta/*` ledger counters record the classification
    /// (`delta/day_appends`, `delta/scenario_edits`,
    /// `delta/predictor_retirements`), one increment per delta unit.
    ///
    /// # Errors
    ///
    /// As [`FleetEngine::run_cached`].
    pub fn run_delta(
        &self,
        matrix: &FleetMatrix,
        cache: &mut FleetCache,
        delta: &FleetDelta,
    ) -> Result<FleetResult, String> {
        if self.collector.is_enabled() {
            match delta {
                FleetDelta::DayAppend { scenarios } => {
                    for name in scenarios {
                        self.collector.count_scenario(name, "delta/day_appends", 1);
                    }
                }
                FleetDelta::ScenarioEdit { scenarios } => {
                    for name in scenarios {
                        self.collector
                            .count_scenario(name, "delta/scenario_edits", 1);
                    }
                }
                FleetDelta::PredictorRetire { predictors } => {
                    self.collector
                        .count("delta/predictor_retirements", predictors.len() as u64);
                }
                FleetDelta::Unchanged => {}
            }
        }
        self.run_cached(matrix, cache)
    }

    /// Clamps a requested shard count into `1..=scenario_count`,
    /// recording a `shards/clamped` ledger label when it bites.
    fn clamp_shard_count(&self, requested: usize, scenario_count: usize) -> usize {
        let clamped = requested.clamp(1, scenario_count.max(1));
        if clamped != requested && self.collector.is_enabled() {
            self.collector
                .label("shards/clamped", &format!("{requested}->{clamped}"));
        }
        clamped
    }

    fn check_cache(&self, cache: &mut FleetCache) -> Result<(), String> {
        let unbound = cache.protocol.is_none()
            && cache.outcomes.is_empty()
            && cache.traces.is_empty()
            && cache.checkpoints.is_empty();
        if !unbound
            && (cache.master_seed != self.master_seed || cache.protocol != Some(self.protocol))
        {
            return Err("fleet cache is bound to a different master seed or protocol".to_string());
        }
        cache.master_seed = self.master_seed;
        cache.protocol = Some(self.protocol);
        Ok(())
    }

    fn install<T>(&self, f: impl FnOnce() -> Result<T, String>) -> Result<T, String> {
        match self.threads {
            Some(threads) => ThreadPoolBuilder::new()
                .num_threads(threads)
                .build()
                .map_err(|e| e.to_string())?
                .install(f),
            None => f(),
        }
    }

    /// Projects the matrix's correlated fleet-wide events into each
    /// affected scenario's fault list. Every event realizes from one
    /// shared seed, so it hits all its scenarios on the same days; the
    /// projected faults live in the scenario (and hence its JSON/cache
    /// key), so caching and determinism need no special cases.
    fn project_fleet_faults(&self, matrix: &FleetMatrix) -> Result<FleetMatrix, String> {
        project_fleet_faults_seeded(matrix, self.master_seed)
    }

    /// The full evaluation pass: fleet-fault projection, cache-policy
    /// admission, parallel materialized/streamed work units, cache
    /// fill, and assembly in job order.
    fn evaluate_matrix(
        &self,
        matrix: &FleetMatrix,
        cache: &mut FleetCache,
    ) -> Result<EvaluatedMatrix, String> {
        let effective = {
            let _span = self.collector.span("fleet/project");
            self.collector
                .count("faults/fleet_events", matrix.fleet_faults.len() as u64);
            if matrix.fleet_faults.is_empty() {
                matrix.clone()
            } else {
                self.project_fleet_faults(matrix)?
            }
        };
        let matrix = &effective;
        self.collector.count(
            "faults/fault_specs",
            matrix.scenarios.iter().map(|s| s.faults.len() as u64).sum(),
        );

        // Stable per-scenario cache keys, rendered once per run: the
        // JSON form without `days`, plus `days`.
        let scenario_keys: Vec<ScenarioKey> = matrix
            .scenarios
            .iter()
            .map(|s| (Arc::from(s.render_without_days()), s.days))
            .collect();
        let predictor_labels: Vec<String> = matrix.predictors.iter().map(|p| p.label()).collect();
        let manager_labels: Vec<String> = matrix.managers.iter().map(|m| m.label()).collect();

        // Day-append resume candidates: a scenario may continue from
        // the checkpoint stored under its render iff it reaches a
        // strictly larger `days`, the predictor/manager axes match, and
        // no trace-gap fault would re-realize its placement under the
        // longer horizon.
        let resume_candidates: Vec<Option<Arc<UnitCheckpoint>>> = matrix
            .scenarios
            .iter()
            .zip(&scenario_keys)
            .map(|(scenario, (render, days))| {
                let ck = cache.checkpoints.get(render)?;
                (*days > ck.days
                    && !scenario
                        .faults
                        .iter()
                        .any(|f| matches!(f, FaultSpec::TraceGap { .. }))
                    && ck.predictor_labels == predictor_labels
                    && ck.manager_labels == manager_labels)
                    .then(|| Arc::clone(ck))
            })
            .collect();

        // Cache-policy admission, greedily in scenario order — a pure
        // function of the matrix and the policy, so the
        // materialize/stream split never depends on thread timing or
        // the host. Warm traces stay admitted (they are already paid
        // for) and count toward the budget. A render seen earlier in
        // the matrix streams: one cached series serves one horizon.
        let admission_span = self.collector.span("fleet/admission");
        let mut admitted = vec![false; matrix.scenarios.len()];
        let mut warm = vec![false; matrix.scenarios.len()];
        let mut running_total = 0u64;
        let mut seen: HashSet<&str> = HashSet::with_capacity(matrix.scenarios.len());
        for (idx, scenario) in matrix.scenarios.iter().enumerate() {
            let (render, days) = &scenario_keys[idx];
            if !seen.insert(render) {
                continue;
            }
            let bytes = Self::trace_bytes(scenario);
            warm[idx] = cache.traces.get(render).is_some_and(|t| t.days == *days);
            if warm[idx] || self.cache_policy.admits(running_total, bytes) {
                admitted[idx] = true;
                running_total = running_total.saturating_add(bytes);
            }
        }
        if self.collector.is_enabled() {
            match self.cache_policy {
                TraceCachePolicy::Unbounded => {
                    self.collector
                        .label("admission/trace_budget_source", "unbounded");
                }
                TraceCachePolicy::Bounded(bytes) => {
                    self.collector
                        .label("admission/trace_budget_source", "configured");
                    self.collector.gauge("admission/trace_budget_bytes", bytes);
                }
            }
            let materialized = admitted.iter().filter(|&&a| a).count() as u64;
            self.collector
                .count("admission/materialized_scenarios", materialized);
            self.collector.count(
                "admission/streamed_scenarios",
                matrix.scenarios.len() as u64 - materialized,
            );
            self.collector
                .count("admission/admitted_trace_bytes", running_total);
            self.collector.count(
                "cache/trace_hits",
                warm.iter().filter(|&&w| w).count() as u64,
            );
        }
        drop(admission_span);

        // Phase 1: slot series for admitted scenarios the cache cannot
        // serve. A cached series whose scenario only grew in days is
        // *extended*: the appended days are synthesized from its stored
        // generator tail — O(appended days), bit-identical to a cold
        // generation by the synth crate's resume contract — and pushed
        // onto the series in place. Everything else synthesizes from
        // day zero. Synthesis runs in parallel; only the cache updates
        // stay sequential. Every job of a scenario then shares its
        // series read-only.
        let synthesis_span = self.collector.span("fleet/synthesis");
        let missing: Vec<(usize, Option<SynthCheckpoint>)> = (0..matrix.scenarios.len())
            .filter(|&idx| admitted[idx] && !warm[idx])
            .map(|idx| {
                let (render, days) = &scenario_keys[idx];
                let tail = cache
                    .traces
                    .get(render)
                    .filter(|t| t.days < *days)
                    .map(|t| t.tail.clone());
                (idx, tail)
            })
            .collect();
        let synthesized: Vec<Result<(CachedTrace, SynthCounters), String>> = missing
            .par_iter()
            .map(|(idx, tail)| {
                let scenario = &matrix.scenarios[*idx];
                let generator =
                    TraceGenerator::new(scenario.site_config()?, self.scenario_seed(scenario));
                let n = SlotsPerDay::new(scenario.slots_per_day).map_err(|e| e.to_string())?;
                CachedTrace::synthesize(&generator, tail.clone(), scenario.days, n)
            })
            .collect();
        let mut synthesis_cost = SynthCounters::default();
        let mut passes = PassBreakdown::default();
        for ((idx, tail), synthesized) in missing.iter().zip(synthesized) {
            let (trace, counters) = synthesized?;
            synthesis_cost.add(counters);
            let render = &scenario_keys[*idx].0;
            if tail.is_some() {
                passes.trace_extensions += 1;
                cache
                    .traces
                    .get_mut(render)
                    .expect("an extended series is cached")
                    .append(trace);
            } else {
                passes.trace_generations += 1;
                cache.traces.insert(Arc::clone(render), trace);
            }
        }
        if self.collector.is_enabled() {
            self.collector
                .count("synth/trace_generations", passes.trace_generations as u64);
            if passes.trace_extensions > 0 {
                self.collector
                    .count("delta/trace_extensions", passes.trace_extensions as u64);
            }
            // Keystream/draw totals for the whole materialization
            // phase: one ledger update, never per slot or per trace.
            self.collector
                .count("synth/keystream_blocks", synthesis_cost.keystream_blocks);
            self.collector
                .count("synth/normal_draws", synthesis_cost.normal_draws);
        }
        drop(synthesis_span);

        // Phase 2: only the jobs the cache cannot answer, grouped into
        // **one work unit per scenario** — the unit's single slot pass
        // (over the cached series or a generator stream) feeds every
        // fresh job's machines, so adding candidates to the matrix adds
        // per-slot arithmetic, never whole passes.
        let jobs = matrix.jobs();
        let job_keys: Vec<(ScenarioKey, String, String)> = jobs
            .iter()
            .map(|job| {
                (
                    scenario_keys[job.scenario_idx].clone(),
                    predictor_labels[job.predictor_idx].clone(),
                    manager_labels[job.manager_idx].clone(),
                )
            })
            .collect();
        let fresh: Vec<usize> = (0..jobs.len())
            .filter(|&idx| !cache.outcomes.contains_key(&job_keys[idx]))
            .collect();
        let cached_jobs = jobs.len() - fresh.len();
        if self.collector.is_enabled() {
            self.collector.count("jobs/evaluated", jobs.len() as u64);
            self.collector.count("cache/job_hits", cached_jobs as u64);
            self.collector.count("cache/job_misses", fresh.len() as u64);
        }

        let mut jobs_by_scenario: HashMap<usize, Vec<usize>> = HashMap::new();
        for &idx in &fresh {
            jobs_by_scenario
                .entry(jobs[idx].scenario_idx)
                .or_default()
                .push(idx);
        }
        let mut streamed_jobs = 0;
        let mut units: Vec<WorkUnit> = Vec::new();
        for (scenario_idx, &scenario_admitted) in admitted.iter().enumerate() {
            if let Some(job_indices) = jobs_by_scenario.remove(&scenario_idx) {
                if !scenario_admitted {
                    streamed_jobs += job_indices.len();
                }
                // Attach the resume point only when the unit can
                // actually honour it: the checkpointed machines cover
                // the full job cross and the appended slots have a
                // source — the extended series when materialized, a
                // generator state when streamed (the checkpoint's own,
                // or the cached series' tail when the admission policy
                // flipped the scenario from materialized to streamed
                // between runs). The resumed pass keeps the
                // checkpoint's record sink regardless of what a cold
                // pass at the new horizon would pick — the two sinks
                // are bit-identical by contract, so an admission or
                // log-cap flip never forces a cold pass by itself.
                // Anything else falls back to a cold pass.
                let scenario = &matrix.scenarios[scenario_idx];
                let resume = resume_candidates[scenario_idx].as_ref().and_then(|ck| {
                    let full_cross =
                        job_indices.len() == matrix.predictors.len() * matrix.managers.len();
                    let cached = cache.traces.get(&scenario_keys[scenario_idx].0);
                    let synth_override = (!scenario_admitted && ck.synth.is_none())
                        .then(|| cached.filter(|t| t.days == ck.days).map(|t| t.tail.clone()))
                        .flatten();
                    let source_ok = if scenario_admitted {
                        cached.is_some()
                    } else {
                        ck.synth.is_some() || synth_override.is_some()
                    };
                    let ok = full_cross && source_ok;
                    if !ok && self.collector.is_enabled() {
                        self.collector
                            .count_scenario(&scenario.name, "delta/cold_fallbacks", 1);
                    }
                    ok.then(|| (Arc::clone(ck), synth_override))
                });
                let (resume, resume_synth) = match resume {
                    Some((ck, synth_override)) => (Some(ck), synth_override),
                    None => (None, None),
                };
                units.push(WorkUnit {
                    scenario_idx,
                    job_indices,
                    resume,
                    resume_synth,
                });
            }
        }

        // Each unit runs under `catch_unwind`: a panicking unit (a
        // contract violation in predictor/manager code, or injected
        // chaos) surfaces as `Err` naming its scenario instead of
        // unwinding through rayon and aborting the whole process.
        let evaluated: Vec<Result<UnitOutcomes, String>> = units
            .par_iter()
            .map(|unit| {
                let scenario_name = &matrix.scenarios[unit.scenario_idx].name;
                std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    if self.chaos_unit_panic.as_deref() == Some(scenario_name.as_str()) {
                        panic!("chaos: injected work-unit panic");
                    }
                    let series = admitted[unit.scenario_idx]
                        .then(|| &cache.traces[&scenario_keys[unit.scenario_idx].0].slots[..]);
                    self.evaluate_scenario_unit(
                        matrix,
                        unit.scenario_idx,
                        &unit.job_indices,
                        &jobs,
                        series,
                        unit.resume.as_deref(),
                        unit.resume_synth.as_ref(),
                        None,
                    )
                }))
                .unwrap_or_else(|payload| {
                    Err(format!(
                        "scenario {scenario_name:?}: work unit panicked: {}",
                        panic_message(&payload)
                    ))
                })
            })
            .collect();
        let mut quarantined: Vec<QuarantinedScenario> = Vec::new();
        for (unit, unit_outcomes) in units.iter().zip(evaluated) {
            let (unit_outcomes, unit_passes, checkpoint) = match unit_outcomes {
                Ok(result) => result,
                Err(error) if self.quarantine => {
                    let name = matrix.scenarios[unit.scenario_idx].name.clone();
                    if self.collector.is_enabled() {
                        self.collector
                            .count_scenario(&name, "fleet/quarantined_units", 1);
                    }
                    quarantined.push(QuarantinedScenario {
                        scenario: name,
                        error,
                    });
                    continue;
                }
                Err(error) => return Err(error),
            };
            passes.add(unit_passes);
            if let Some(checkpoint) = checkpoint {
                cache.checkpoints.insert(
                    Arc::clone(&scenario_keys[unit.scenario_idx].0),
                    Arc::new(checkpoint),
                );
            }
            for (idx, outcome) in unit_outcomes {
                cache.outcomes.insert(job_keys[idx].clone(), outcome);
            }
        }

        // Phase 3: assemble in job order (cached outcomes carry stale
        // matrix coordinates from the run that produced them — rewrite).
        // Quarantined scenarios' jobs have no outcome and are skipped;
        // without quarantine every key is present (a missing one would
        // have errored above).
        let outcomes: Vec<JobOutcome> = jobs
            .iter()
            .zip(&job_keys)
            .filter_map(|(job, key)| {
                cache.outcomes.get(key).map(|cached| {
                    let mut outcome = cached.clone();
                    outcome.spec = *job;
                    outcome
                })
            })
            .collect();
        Ok(EvaluatedMatrix {
            effective,
            outcomes,
            cached_jobs,
            streamed_jobs,
            passes,
            quarantined,
        })
    }

    /// Splits outcomes into per-shard scorecards plus the manifest.
    fn shard_outcomes(
        matrix: &FleetMatrix,
        outcomes: &[JobOutcome],
        master_seed: u64,
        shard_count: usize,
    ) -> Result<(ShardManifest, Vec<ScorecardShard>), String> {
        if shard_count == 0 {
            return Err("shard count must be at least 1".to_string());
        }
        if shard_count > matrix.scenarios.len() {
            return Err(format!(
                "shard count {shard_count} exceeds the {} scenarios",
                matrix.scenarios.len()
            ));
        }
        let rankings = Scorecard::per_scenario_rankings(matrix, outcomes);
        let manifest = ShardManifest {
            master_seed,
            shard_count,
            scenarios: matrix
                .scenarios
                .iter()
                .enumerate()
                .map(|(idx, s)| (s.name.clone(), idx % shard_count))
                .collect(),
        };
        let shards = (0..shard_count)
            .map(|shard_index| {
                let per_scenario: Vec<_> = rankings
                    .iter()
                    .enumerate()
                    .filter(|(idx, _)| idx % shard_count == shard_index)
                    .map(|(_, ranking)| ranking.clone())
                    .collect();
                let cost = pred_metrics::CostAggregate::of(
                    outcomes
                        .iter()
                        .filter(|o| o.spec.scenario_idx % shard_count == shard_index)
                        .map(|o| o.cost),
                );
                ScorecardShard {
                    shard_index,
                    master_seed,
                    per_scenario,
                    cost,
                }
            })
            .collect();
        Ok((manifest, shards))
    }

    /// The deterministic per-scenario seed: stable across runs, thread
    /// counts, and platforms; distinct per scenario name.
    ///
    /// The hashed string is *salted*: a custom site built from the same
    /// scenario name carries `seed_stream = fnv1a(name)`, and the trace
    /// generator XORs `seed ^ seed_stream` — hashing the bare name here
    /// would cancel it out and hand every custom-site scenario the same
    /// RNG stream (a regression test pins this).
    fn scenario_seed(&self, scenario: &Scenario) -> u64 {
        let salted = format!("fleet-scenario/{}", scenario.name);
        solar_trace::hash::fnv1a(&salted) ^ self.master_seed.rotate_left(17)
    }

    /// Bytes a scenario's cached slot series would occupy — the same
    /// footprint [`FleetCache::trace_bytes`] reports once it exists.
    fn trace_bytes(scenario: &Scenario) -> u64 {
        trace_footprint_bytes(scenario.days * scenario.slots_per_day as usize) as u64
    }

    /// Generates a scenario's full-resolution trace along with its
    /// synthesis-cost counters (keystream blocks, normal draws) — the
    /// test oracle for the slot series the engine caches.
    #[cfg(test)]
    fn generate_trace(&self, scenario: &Scenario) -> Result<(PowerTrace, SynthCounters), String> {
        let config = scenario.site_config()?;
        TraceGenerator::new(config, self.scenario_seed(scenario))
            .generate_days_counted(scenario.days)
            .map_err(|e| e.to_string())
    }

    /// The universal fast path: **one slot pass per scenario** drives
    /// every fresh job's state machines simultaneously. The slots come
    /// from the cached slot series when the scenario is admitted
    /// (materialized), else from a [`solar_synth::SlotStream`] holding
    /// one day of samples; both sources produce the identical slot
    /// values, so the choice never shows in the output.
    ///
    /// Jobs whose predictor is float WCMA are additionally folded into
    /// a shared [`CandidateBank`] per pass half (metrics, simulation):
    /// every such job of a scenario sees the identical observation
    /// stream (its fault injector realizes from the same seed), so the
    /// bank computes each candidate's predictions once per slot with
    /// the per-candidate arithmetic unchanged — bit-identical to a solo
    /// run, pinned by core property tests and the engine equality tests
    /// here.
    ///
    /// The metrics pass picks its record sink by horizon: short
    /// scenarios collect a `PredictionLog`; past
    /// [`STREAMED_LOG_CAP_BYTES`] per job the records fold into O(1)
    /// protocol accumulators ([`pred_metrics::StreamingEval`]) instead,
    /// with an ROI pre-pass supplying the peak the paper's filter needs
    /// up front — a series walk when materialized, one extra generator
    /// pass when streamed. The two sinks are bit-identical, so the
    /// choice is invisible in the output.
    ///
    /// Returns the job outcomes, how many synthesis passes the unit
    /// spent (0 for materialized units, 1 per generator pass else), and
    /// — when the unit covers the full job cross and nothing blocks
    /// checkpointing — a [`UnitCheckpoint`] of every state machine at
    /// the final day boundary, ready for an O(delta) continuation.
    ///
    /// With `resume`, every machine is restored from the checkpoint and
    /// only the appended days `checkpoint.days..scenario.days` are
    /// walked; the output is bit-identical to a cold full-horizon pass
    /// (pinned by engine tests). A resumed pass keeps the checkpoint's
    /// record sink even when the new horizon would pick the other one —
    /// the sinks are bit-identical, so admission flips stay resumable.
    /// `resume_synth` supplies the generator state when the checkpoint
    /// itself has none (a materialized pass whose scenario now
    /// streams). If the extended ROI peak disagrees with the
    /// checkpointed one, the unit transparently falls back to a cold
    /// pass (`delta/peak_fallbacks`), reusing the already-extended peak
    /// via `known_roi` so the fallback never re-synthesizes a prepass.
    #[allow(clippy::too_many_arguments)]
    fn evaluate_scenario_unit(
        &self,
        matrix: &FleetMatrix,
        scenario_idx: usize,
        job_indices: &[usize],
        jobs: &[JobSpec],
        series: Option<&[(f64, f64)]>,
        resume: Option<&UnitCheckpoint>,
        resume_synth: Option<&SynthCheckpoint>,
        known_roi: Option<(f64, Option<f64>)>,
    ) -> Result<UnitOutcomes, String> {
        let started = Instant::now();
        let scenario = &matrix.scenarios[scenario_idx];
        let _unit_span = self
            .collector
            .span_scenario("fleet/simulate", &scenario.name);
        let n = scenario.slots_per_day as usize;
        let slots = SlotsPerDay::new(scenario.slots_per_day).map_err(|e| e.to_string())?;
        let slot_seconds = slots.slot_seconds_f64();
        let fault_seed = self.scenario_seed(scenario) ^ 0xFA01;
        let node_config = scenario
            .node
            .node_config(storage_capacity_factor(&scenario.faults))?;
        let mut passes = PassBreakdown::default();
        // Keystream/normal-draw totals across this unit's generator
        // streams (ROI prepass + evaluation pass); merged into the
        // ledger once at the end of the unit, never per slot.
        let mut synth_cost = SynthCounters::default();
        // First day this pass actually walks: 0 cold, the checkpointed
        // horizon when resuming.
        let start_day = resume.map_or(0, |r| r.days);

        let generator = match series {
            Some(_) => None,
            None => Some(TraceGenerator::new(
                scenario.site_config()?,
                self.scenario_seed(scenario),
            )),
        };

        // Sink selection (see the method docs): materialized units
        // always fold records straight into O(1) streaming accumulators
        // (their ROI pre-pass is a cheap series walk, and skipping the
        // log halves record handling); streamed units only pay the
        // extra generator pre-pass once the log would exceed the cap.
        // A resumed pass always feeds streaming accumulators: a
        // checkpointed log is re-folded into one at restore (see the
        // feed restore below), and the sinks are bit-identical, so the
        // choice a cold pass at the new horizon would make is moot.
        let log_bytes = scenario.days * n * std::mem::size_of::<pred_metrics::PredictionRecord>();
        let streaming_eval =
            resume.is_some() || series.is_some() || log_bytes > STREAMED_LOG_CAP_BYTES;

        // ROI pre-pass (streaming sinks only): the peak of the (dimmed)
        // reference means over every slot that becomes a record — all
        // but the final one, mirroring `PredictionLog::peak_actual_mean`
        // exactly. The probe injector is only consulted for its
        // deterministic sky factor (no per-slot RNG draws happen here).
        // A resumed pass restores the checkpointed running peak and the
        // pending (not-yet-absorbed) final mean and walks only the
        // appended days — sequential-max makes that equal to the cold
        // full walk.
        let mut roi_peak = 0.0_f64;
        let mut roi_pending_mean: Option<f64> = None;
        if let Some(r) = resume {
            roi_peak = r.roi_peak;
            roi_pending_mean = r.roi_pending_mean;
        }
        if let (true, Some((peak, pending))) = (streaming_eval, known_roi) {
            // A peak fallback already walked the full horizon and knows
            // the extended peak (bit-equal to what this prepass would
            // compute); reuse it rather than synthesizing a second
            // prepass just to rediscover it.
            roi_peak = peak;
            roi_pending_mean = pending;
        } else if streaming_eval {
            let sky_probe = FaultInjector::new(&scenario.faults, fault_seed, scenario.days, n);
            let mut absorb = |day: usize, mean_power: f64| {
                if let Some(mean) = roi_pending_mean.take() {
                    roi_peak = roi_peak.max(mean);
                }
                roi_pending_mean = Some(mean_power * sky_probe.sky_factor(day));
            };
            match (series, &generator) {
                (Some(series), _) => {
                    for (day, day_slots) in series.chunks_exact(n).enumerate().skip(start_day) {
                        for &(_, mean_power) in day_slots {
                            absorb(day, mean_power);
                        }
                    }
                }
                (None, Some(generator)) => {
                    passes.roi_prepasses += 1;
                    let mut stream = match resume {
                        None => generator
                            .slot_stream(scenario.days, slots)
                            .map_err(|e| e.to_string())?,
                        Some(r) => generator
                            .slot_stream_from(
                                r.synth
                                    .clone()
                                    .or_else(|| resume_synth.cloned())
                                    .expect("streamed resume carries a synth source"),
                                scenario.days,
                                slots,
                            )
                            .map_err(|e| e.to_string())?,
                    };
                    for slot in stream.by_ref() {
                        absorb(slot.day, slot.mean_power);
                    }
                    synth_cost.add(stream.counters());
                }
                (None, None) => unreachable!("unit has a series or a generator"),
            }
        }

        // The streaming protocol's inclusion filter consulted `roi_peak`
        // for every prefix slot. If the appended days raised the peak,
        // checkpointed streaming *accumulators* were filtered against a
        // different peak than a cold run would use — the continuation
        // would not be byte-identical, so fall back to a cold pass
        // (rare: peaks are typically set by the climatology, not the
        // tail). A checkpointed *log* is immune: its records re-fold
        // against the extended peak at restore, whatever it is.
        if let Some(r) = resume {
            if r.streaming_eval && roi_peak.to_bits() != r.roi_peak.to_bits() {
                if self.collector.is_enabled() {
                    self.collector
                        .count_scenario(&scenario.name, "delta/peak_fallbacks", 1);
                }
                return self.evaluate_scenario_unit(
                    matrix,
                    scenario_idx,
                    job_indices,
                    jobs,
                    series,
                    None,
                    None,
                    Some((roi_peak, roi_pending_mean)),
                );
            }
        }

        // Distinct predictors among the fresh jobs: the metrics pass
        // and the simulation pass's *predictions* are pure functions of
        // (scenario, predictor) — managers only steer duty — so all
        // per-slot kernel work and record assembly happens once per
        // distinct predictor, and every job reuses its predictor's
        // summary and prediction stream.
        let mut distinct_predictors: Vec<usize> = Vec::new();
        let job_kernel: Vec<usize> = job_indices
            .iter()
            .map(|&job_idx| {
                let predictor_idx = jobs[job_idx].predictor_idx;
                match distinct_predictors.iter().position(|&p| p == predictor_idx) {
                    Some(slot) => slot,
                    None => {
                        distinct_predictors.push(predictor_idx);
                        distinct_predictors.len() - 1
                    }
                }
            })
            .collect();

        // Kernel per distinct predictor: float WCMA folds into one
        // shared bank; everything else gets one owned instance. One
        // kernel serves *both* pass halves, because what the metrics
        // predictor observes is bit-identical to what the simulation
        // predictor observes: measurement corruption never depends on
        // the harvest argument (pinned by a faults.rs test), so the
        // historically separate per-pass predictor instances always
        // evolved in lockstep — one instance now produces that shared
        // prediction stream once.
        enum Kernel {
            Banked(usize),
            Solo(usize),
        }
        let mut kernels: Vec<Kernel> = Vec::with_capacity(distinct_predictors.len());
        let mut bank_params: Vec<solar_predict::WcmaParams> = Vec::new();
        let mut solo: Vec<Box<dyn Predictor>> = Vec::new();
        for &predictor_idx in &distinct_predictors {
            let spec = &matrix.predictors[predictor_idx];
            match *spec {
                crate::PredictorSpec::Wcma { alpha, days, k } => {
                    bank_params.push(
                        solar_predict::WcmaParams::new(alpha, days, k, n)
                            .map_err(|e| e.to_string())?,
                    );
                    kernels.push(Kernel::Banked(bank_params.len() - 1));
                }
                _ => {
                    solo.push(spec.build(n)?);
                    kernels.push(Kernel::Solo(solo.len() - 1));
                }
            }
        }
        let mut bank = if bank_params.is_empty() {
            None
        } else {
            Some(solar_predict::CandidateBank::new(bank_params).map_err(|e| e.to_string())?)
        };
        if let Some(r) = resume {
            // Restore every predictor machine from its day-boundary
            // snapshot — the fresh instances above only fixed the
            // kernel layout (resume eligibility guarantees the axes
            // match, so the layout is identical to the checkpointed
            // run's).
            bank = r.bank.clone();
            solo = r
                .solo
                .iter()
                .map(|p| -> Box<dyn Predictor> {
                    p.snapshot().expect("checkpointed predictors snapshot")
                })
                .collect();
        }

        let new_sink = |streaming_eval: bool| {
            if streaming_eval {
                MetricsSink::Streaming(StreamingEval::new(self.protocol, roi_peak))
            } else {
                MetricsSink::Log(pred_metrics::PredictionLog::with_capacity(
                    n,
                    scenario.days * n,
                ))
            }
        };

        // Every job of a scenario realizes the *identical* fault
        // corruption (injectors are pure functions of the shared seed
        // and the slot sequence), so the unit realizes it exactly once
        // per slot — one injector shared by all jobs and both pass
        // halves — instead of two injector instances per job.
        let mut injector = match resume {
            // The injector's dropout RNG draws exactly once per slot, so
            // the checkpointed clone continues the cold keystream
            // verbatim (resume eligibility excluded trace-gap faults,
            // the one spec whose realization depends on the total
            // horizon at construction).
            Some(r) => r.injector.clone(),
            None => FaultInjector::new(&scenario.faults, fault_seed, scenario.days, n),
        };

        // One record feed per distinct predictor, and one prediction
        // scratch slot the simulation machines read from.
        let mut feeds: Vec<solar_predict::PredictionFeed<MetricsSink>> = match resume {
            Some(r) => r
                .feeds
                .iter()
                .map(|fc| {
                    let sink = match (&fc.sink, &fc.folded) {
                        (MetricsSink::Streaming(eval), _) => MetricsSink::Streaming(eval.clone()),
                        // Peak unchanged: the capture-time fold of the
                        // prefix log is exactly the accumulator state a
                        // cold pass would reach at the boundary — reuse
                        // it and the resume never touches the prefix.
                        (MetricsSink::Log(_), Some(folded))
                            if roi_peak.to_bits() == r.roi_peak.to_bits() =>
                        {
                            MetricsSink::Streaming(folded.clone())
                        }
                        // Peak raised by the appended days: re-fold the
                        // checkpointed prefix log against the extended
                        // peak — the same fold a cold pass pays at
                        // evaluate time, so the prefix re-filters
                        // instead of forcing a cold pass.
                        (MetricsSink::Log(log), _) => {
                            let mut eval = StreamingEval::new(self.protocol, roi_peak);
                            for record in log {
                                eval.push_record(*record);
                            }
                            MetricsSink::Streaming(eval)
                        }
                    };
                    solar_predict::PredictionFeed::resume(sink, fc.pending)
                })
                .collect(),
            None => kernels
                .iter()
                .map(|_| solar_predict::PredictionFeed::new(new_sink(streaming_eval)))
                .collect(),
        };
        let mut predictions = vec![0.0_f64; kernels.len()];

        // One simulation machine per job — storage and duty state is
        // where the manager axis matters.
        struct JobState {
            manager: Box<dyn harvest_sim::PowerManager>,
            hook: harvest_sim::NoFaults,
        }
        let mut job_states: Vec<JobState> = job_indices
            .iter()
            .map(|&job_idx| JobState {
                manager: matrix.managers[jobs[job_idx].manager_idx].build(),
                hook: harvest_sim::NoFaults,
            })
            .collect();
        let mut sims: Vec<NodeSimulation<'_>> = job_states
            .iter_mut()
            .map(|state| {
                NodeSimulation::with_external_predictions(
                    state.manager.as_mut(),
                    &node_config,
                    &mut state.hook,
                    slot_seconds,
                    n,
                )
            })
            .collect();
        if let Some(r) = resume {
            // Managers are stateless (duty planning reads only the slot
            // context), so rebuilding them above and restoring the
            // storage/accounting state puts every simulation machine
            // exactly where the checkpointed pass left it.
            for (sim, saved) in sims.iter_mut().zip(&r.sims) {
                sim.restore_day_checkpoint(saved);
            }
        }

        // The single slot pass. The corruption realization happens once
        // and serves both halves: the metrics half records predictions
        // against ground-truth references scaled by the day's
        // climate-dimming factor — dimming is physical sky state, so
        // accuracy is judged against the sky that actually existed (a
        // predictor perfectly tracking a la-niña year must not register
        // phantom MAPE against the counterfactual clean year); sensor
        // faults and panel soiling leave the references untouched. The
        // simulation half absorbs the corrupted physical harvest and
        // plans each job's duty from its predictor's shared prediction.
        // With streaming sinks the protocol's record filter is
        // decidable per slot *before* any per-predictor work — it
        // depends only on (day, reference mean, peak), all shared —
        // so discarded slots skip record assembly for every
        // predictor at once. A record opened at slot t completes at
        // slot t+1, hence the carried `prior_included` (restored on
        // resume so the record straddling the checkpoint boundary
        // closes exactly as it would have cold).
        let mut prior_included = resume.is_some_and(|r| r.prior_included);
        // The evaluation stream's day-boundary generator state, captured
        // after the pass for the next checkpoint (streamed units only).
        let mut eval_synth: Option<SynthCheckpoint> = None;
        {
            let mut feed_slot = |day: usize, slot: usize, start_sample: f64, mean_power: f64| {
                let mut harvest_j = node_config.panel.power_w(mean_power) * slot_seconds;
                let mut observed = start_sample;
                injector.on_slot(day, slot, &mut harvest_j, &mut observed);
                let sky = injector.sky_factor(day);
                let ref_start = start_sample * sky;
                let ref_mean = mean_power * sky;
                let included =
                    !streaming_eval || self.protocol.includes(day as u32, ref_mean, roi_peak);
                let bank_predictions = bank.as_mut().map(|bank| bank.observe_and_predict(observed));
                for ((kernel, feed), prediction) in
                    kernels.iter().zip(&mut feeds).zip(&mut predictions)
                {
                    let predicted = match *kernel {
                        Kernel::Banked(candidate) => {
                            bank_predictions.as_ref().expect("bank built")[candidate]
                        }
                        Kernel::Solo(idx) => solo[idx].observe_and_predict(observed),
                    };
                    if prior_included {
                        feed.flush_pending(ref_start);
                    }
                    if included {
                        feed.open_pending(day, slot, predicted, ref_mean);
                    }
                    *prediction = predicted;
                }
                prior_included = included;
                for (sim, &kernel_slot) in sims.iter_mut().zip(&job_kernel) {
                    sim.absorb_corrupted(harvest_j);
                    sim.plan_with(predictions[kernel_slot]);
                }
            };
            match (series, &generator) {
                (Some(series), _) => {
                    for (day, day_slots) in series.chunks_exact(n).enumerate().skip(start_day) {
                        for (slot, &(start_sample, mean_power)) in day_slots.iter().enumerate() {
                            feed_slot(day, slot, start_sample, mean_power);
                        }
                    }
                }
                (None, Some(generator)) => {
                    passes.streamed_passes += 1;
                    let mut stream = match resume {
                        None => generator
                            .slot_stream(scenario.days, slots)
                            .map_err(|e| e.to_string())?,
                        Some(r) => generator
                            .slot_stream_from(
                                r.synth
                                    .clone()
                                    .or_else(|| resume_synth.cloned())
                                    .expect("streamed resume carries a synth source"),
                                scenario.days,
                                slots,
                            )
                            .map_err(|e| e.to_string())?,
                    };
                    for slot in stream.by_ref() {
                        feed_slot(slot.day, slot.slot, slot.start_sample, slot.mean_power);
                    }
                    synth_cost.add(stream.counters());
                    eval_synth = stream.checkpoint();
                }
                (None, None) => unreachable!("unit has a series or a generator"),
            }
        }

        // Peak trace bytes per job: the shared cached series, or
        // the one-day stream buffer plus the metrics log when the
        // horizon fit under the cap.
        let peak_trace_bytes = match series {
            Some(series) => std::mem::size_of_val(series),
            None => {
                let buffer_bytes = scenario.site_config()?.resolution.samples_per_day()
                    * std::mem::size_of::<f64>();
                buffer_bytes + if streaming_eval { 0 } else { log_bytes }
            }
        };

        // Capture next run's resume point while the machines are still
        // alive. Checkpointing requires: the unit covers the matrix's
        // full job cross in canonical order (a partial unit's machines
        // would desync from the cross a future run resumes), no
        // trace-gap fault (its realization depends on the total horizon
        // at construction), and — for streamed units — a generator
        // state to continue from.
        let full_cross = job_indices.len() == matrix.predictors.len() * matrix.managers.len()
            && job_indices.iter().enumerate().all(|(k, &job_idx)| {
                jobs[job_idx].predictor_idx == k / matrix.managers.len()
                    && jobs[job_idx].manager_idx == k % matrix.managers.len()
            });
        let has_gap_fault = scenario
            .faults
            .iter()
            .any(|f| matches!(f, FaultSpec::TraceGap { .. }));
        let eligible = full_cross && !has_gap_fault && (series.is_some() || eval_synth.is_some());
        let solo_snapshots: Option<Vec<_>> = if eligible {
            solo.iter().map(|p| p.snapshot()).collect()
        } else {
            None
        };
        let sim_saves: Vec<SimDayCheckpoint> = if eligible && solo_snapshots.is_some() {
            sims.iter().map(|s| s.day_checkpoint()).collect()
        } else {
            Vec::new()
        };

        // One summary per distinct predictor; every job of a manager
        // pairing reuses its predictor's summary verbatim (the metrics
        // pass never depended on the manager — this just stops
        // recomputing the identical value). The sinks are evaluated by
        // reference so the checkpoint below can take them whole — a
        // materialized prediction log is O(horizon) and cloning one per
        // unit per run would dominate the delta path's wall time.
        let pendings: Vec<Option<(u32, u32, f64, f64)>> =
            feeds.iter().map(|f| f.pending()).collect();
        let sinks: Vec<MetricsSink> = feeds.into_iter().map(|f| f.finish()).collect();
        let mut folds: Vec<Option<StreamingEval>> = Vec::with_capacity(sinks.len());
        let summaries: Vec<ErrorSummary> = sinks
            .iter()
            .map(|sink| match sink {
                // The fold [`EvalProtocol::evaluate`] performs anyway,
                // done by hand so its intermediate accumulator state
                // can ride into the checkpoint for peak-stable resumes.
                MetricsSink::Log(log) => {
                    let mut eval = StreamingEval::new(self.protocol, log.peak_actual_mean());
                    for record in log {
                        eval.push_record(*record);
                    }
                    folds.push(Some(eval.clone()));
                    eval.finish()
                }
                MetricsSink::Streaming(eval) => {
                    folds.push(None);
                    eval.clone().finish()
                }
            })
            .collect();
        // The ROI state the checkpoint advertises. A log pass never ran
        // the prepass: its peak is the log's own and the pending
        // (never-folded) final mean is the feed's still-open record —
        // exactly what `peak_actual_mean` excludes — so a future resume
        // can extend the peak in O(appended days).
        let (ck_roi_peak, ck_roi_pending) = if streaming_eval {
            (roi_peak, roi_pending_mean)
        } else {
            let peak = sinks
                .iter()
                .find_map(|sink| match sink {
                    MetricsSink::Log(log) => Some(log.peak_actual_mean()),
                    MetricsSink::Streaming(_) => None,
                })
                .unwrap_or(0.0);
            (
                peak,
                pendings
                    .first()
                    .and_then(|p| p.map(|(_, _, _, ref_mean)| ref_mean)),
            )
        };

        let checkpoint = solo_snapshots.map(|solo_snapshots| UnitCheckpoint {
            days: scenario.days,
            predictor_labels: matrix.predictors.iter().map(|p| p.label()).collect(),
            manager_labels: matrix.managers.iter().map(|m| m.label()).collect(),
            streaming_eval,
            roi_peak: ck_roi_peak,
            roi_pending_mean: ck_roi_pending,
            prior_included,
            injector,
            synth: eval_synth,
            bank,
            solo: solo_snapshots,
            feeds: sinks
                .into_iter()
                .zip(folds)
                .zip(pendings)
                .map(|((sink, folded), pending)| FeedCheckpoint {
                    sink,
                    folded,
                    pending,
                })
                .collect(),
            sims: sim_saves,
        });
        let reports: Vec<NodeReport> = sims.into_iter().map(NodeSimulation::finish).collect();
        let mut results = Vec::with_capacity(job_indices.len());
        for ((&job_idx, &kernel_slot), report) in job_indices.iter().zip(&job_kernel).zip(reports) {
            let job = &jobs[job_idx];
            let predictor_spec = &matrix.predictors[job.predictor_idx];
            results.push((
                job_idx,
                JobOutcome {
                    scenario: scenario.name.clone(),
                    predictor: predictor_spec.label(),
                    manager: matrix.managers[job.manager_idx].label(),
                    spec: *job,
                    summary: summaries[kernel_slot],
                    report,
                    cost: RunCost {
                        wall_nanos: 0, // filled below (shared pass)
                        peak_candidates: predictor_spec.candidate_count(),
                        peak_trace_bytes,
                    },
                },
            ));
        }
        // The slot pass is shared: split its wall time evenly.
        let wall_each =
            (started.elapsed().as_nanos() as u64 / job_indices.len().max(1) as u64).max(1);
        for (_, outcome) in &mut results {
            outcome.cost.wall_nanos = wall_each;
        }
        // Ledger entries for the whole unit, computed arithmetically —
        // one batch of counter updates per scenario, nothing per slot.
        if self.collector.is_enabled() {
            let name = &scenario.name;
            // Slot counters reflect work actually done this pass: a
            // resumed unit only walked the appended days.
            let processed_days = scenario.days - start_day;
            self.collector
                .count_scenario(name, "slots/processed", (processed_days * n) as u64);
            self.collector
                .count_scenario(name, "jobs/fresh", job_indices.len() as u64);
            if resume.is_some() {
                self.collector
                    .count_scenario(name, "delta/resumed_units", 1);
                self.collector
                    .count_scenario(name, "delta/appended_days", processed_days as u64);
            }
            // Distribution plane, still at unit granularity: the unit's
            // slot volume and one MAPE sample per distinct predictor —
            // deterministic inputs, so the histograms stay byte-pinned.
            self.collector
                .observe("fleet/unit_slots", (processed_days * n) as f64);
            for summary in &summaries {
                self.collector.observe("score/mape", summary.mape);
            }
            let banked = kernels
                .iter()
                .filter(|k| matches!(k, Kernel::Banked(_)))
                .count();
            self.collector
                .count_scenario(name, "bank/banked_candidates", banked as u64);
            self.collector
                .count_scenario(name, "bank/solo_predictors", solo.len() as u64);
            self.collector.count_scenario(
                name,
                "faults/injected_specs",
                scenario.faults.len() as u64,
            );
            if passes.streamed_passes > 0 {
                self.collector.count_scenario(
                    name,
                    "synth/streamed_passes",
                    passes.streamed_passes as u64,
                );
            }
            if passes.roi_prepasses > 0 {
                self.collector.count_scenario(
                    name,
                    "synth/roi_prepasses",
                    passes.roi_prepasses as u64,
                );
            }
            if synth_cost != SynthCounters::default() {
                self.collector.count_scenario(
                    name,
                    "synth/keystream_blocks",
                    synth_cost.keystream_blocks,
                );
                self.collector
                    .count_scenario(name, "synth/normal_draws", synth_cost.normal_draws);
            }
        }
        Ok((results, passes, checkpoint))
    }
}

/// The classified difference between two fleet matrices — what changed
/// between the run whose warm [`FleetCache`] you hold and the matrix
/// you want scored now. Feed it to [`FleetEngine::run_delta`] to route
/// the re-score down the matching O(delta) path.
///
/// Build one with [`FleetDelta::classify`]; the variants carry the
/// affected axis labels purely for reporting/ledger purposes.
#[derive(Clone, Debug, PartialEq)]
pub enum FleetDelta {
    /// One or more scenarios grew by whole appended days; everything
    /// else (axes, faults, the scenarios' prefixes) is unchanged.
    DayAppend {
        /// Names of the scenarios whose horizon grew.
        scenarios: Vec<String>,
    },
    /// Scenarios were added, removed, or edited in place (anything that
    /// is not a pure day-append).
    ScenarioEdit {
        /// Names of the scenarios that differ between the matrices.
        scenarios: Vec<String>,
    },
    /// The predictor axis shrank (order-preserving subset); scenarios
    /// and managers are identical.
    PredictorRetire {
        /// Labels of the retired predictors.
        predictors: Vec<String>,
    },
    /// The matrices are identical — the run is a pure cache replay.
    Unchanged,
}

impl FleetDelta {
    /// Classifies the change from `before` to `after`.
    ///
    /// The classification is deliberately conservative: only changes
    /// with a dedicated cheap path classify. Manager-axis changes,
    /// fleet-fault changes, predictor *growth* or reordering, and mixed
    /// day-append + scenario-edit batches are errors — run those
    /// through [`FleetEngine::run_cached`] directly (still warm for
    /// every untouched scenario), or split them into single-kind
    /// deltas.
    ///
    /// # Errors
    ///
    /// Returns an error describing the unsupported change.
    pub fn classify(before: &FleetMatrix, after: &FleetMatrix) -> Result<FleetDelta, String> {
        let labels = |m: &FleetMatrix| -> (Vec<String>, Vec<String>) {
            (
                m.predictors.iter().map(|p| p.label()).collect(),
                m.managers.iter().map(|m| m.label()).collect(),
            )
        };
        let (before_predictors, before_managers) = labels(before);
        let (after_predictors, after_managers) = labels(after);
        if before_managers != after_managers {
            return Err(
                "manager axis changed: no delta path exists, run the matrix with run_cached"
                    .to_string(),
            );
        }
        if before.fleet_faults != after.fleet_faults {
            return Err(
                "fleet faults changed: they project into every scenario, run with run_cached"
                    .to_string(),
            );
        }
        // One render per scenario: equal (render, days) pairs are equal
        // scenarios, and an equal render reaching more days is an append.
        let keys = |m: &FleetMatrix| -> Vec<(String, usize)> {
            m.scenarios
                .iter()
                .map(|s| (s.render_without_days(), s.days))
                .collect()
        };
        let (before_keys, after_keys) = (keys(before), keys(after));
        let scenarios_equal = before_keys == after_keys;
        if before_predictors != after_predictors {
            let retired: Vec<String> = before_predictors
                .iter()
                .filter(|label| !after_predictors.contains(label))
                .cloned()
                .collect();
            let mut survivors = before_predictors.clone();
            survivors.retain(|label| after_predictors.contains(label));
            let is_retirement = !retired.is_empty() && survivors == after_predictors;
            if !is_retirement {
                return Err(
                    "predictor axis grew or reordered: only order-preserving retirement has a \
                     delta path, run the matrix with run_cached"
                        .to_string(),
                );
            }
            if !scenarios_equal {
                return Err(
                    "predictor retirement combined with scenario changes: split into two deltas"
                        .to_string(),
                );
            }
            return Ok(FleetDelta::PredictorRetire {
                predictors: retired,
            });
        }
        if scenarios_equal {
            return Ok(FleetDelta::Unchanged);
        }
        if before.scenarios.len() != after.scenarios.len() {
            let before_names: HashSet<&str> =
                before.scenarios.iter().map(|s| s.name.as_str()).collect();
            let after_names: HashSet<&str> =
                after.scenarios.iter().map(|s| s.name.as_str()).collect();
            let mut touched: Vec<String> = before_names
                .symmetric_difference(&after_names)
                .map(|name| (*name).to_string())
                .collect();
            touched.sort_unstable();
            return Ok(FleetDelta::ScenarioEdit { scenarios: touched });
        }
        let mut appends = Vec::new();
        let mut edits = Vec::new();
        for ((b, a), scenario) in before_keys.iter().zip(&after_keys).zip(&after.scenarios) {
            if b == a {
                continue;
            }
            if b.0 == a.0 && a.1 > b.1 {
                appends.push(scenario.name.clone());
            } else {
                edits.push(scenario.name.clone());
            }
        }
        match (appends.is_empty(), edits.is_empty()) {
            (false, true) => Ok(FleetDelta::DayAppend { scenarios: appends }),
            (true, false) => Ok(FleetDelta::ScenarioEdit { scenarios: edits }),
            (false, false) => Err(
                "mixed day-append and scenario-edit batch: split into two delta runs".to_string(),
            ),
            (true, true) => unreachable!("scenarios_equal was false"),
        }
    }
}

/// The seed-parameterized fleet-fault projection —
/// [`FleetEngine::project_fleet_faults`] for the engine, and
/// [`FleetCache::prune_to`] for a cache that must compare incoming
/// matrices against the projected keys its runs actually stored.
fn project_fleet_faults_seeded(
    matrix: &FleetMatrix,
    master_seed: u64,
) -> Result<FleetMatrix, String> {
    let mut effective = matrix.clone();
    for (index, fault) in matrix.fleet_faults.iter().enumerate() {
        let salted = format!("fleet-fault/{index}");
        let event_seed = solar_trace::hash::fnv1a(&salted) ^ master_seed.rotate_left(23);
        for scenario in &mut effective.scenarios {
            scenario.faults.extend(fault.project(event_seed, scenario)?);
        }
    }
    effective.fleet_faults.clear();
    Ok(effective)
}

/// Internal result of one full evaluation pass.
struct EvaluatedMatrix {
    /// The matrix actually evaluated (fleet faults projected in).
    effective: FleetMatrix,
    outcomes: Vec<JobOutcome>,
    cached_jobs: usize,
    streamed_jobs: usize,
    passes: PassBreakdown,
    quarantined: Vec<QuarantinedScenario>,
}

/// Best-effort text of a caught panic payload (`panic!` carries `&str`
/// or `String`; anything else renders opaquely).
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(text) = payload.downcast_ref::<&str>() {
        (*text).to_string()
    } else if let Some(text) = payload.downcast_ref::<String>() {
        text.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::Catalog;
    use crate::fleet_faults::FleetFault;
    use crate::matrix::{ManagerSpec, PredictorSpec};

    /// Asserts a cached slot series is bit-equal to the `SlotView` of
    /// the full-resolution trace.
    fn assert_series_matches(slots: &[(f64, f64)], trace: &PowerTrace, slots_per_day: u32) {
        let view =
            solar_trace::SlotView::new(trace, SlotsPerDay::new(slots_per_day).unwrap()).unwrap();
        assert_eq!(slots.len(), view.total_slots());
        for ((start, mean), (view_start, view_mean)) in slots
            .iter()
            .zip(view.start_series().iter().zip(view.mean_series()))
        {
            assert_eq!(start.to_bits(), view_start.to_bits());
            assert_eq!(mean.to_bits(), view_mean.to_bits());
        }
    }

    fn small_matrix() -> FleetMatrix {
        let scenarios = vec![
            Catalog::builtin().get("desert-clear-sky").unwrap().clone(),
            Catalog::builtin().get("aging-node").unwrap().clone(),
        ];
        FleetMatrix::new(
            vec![
                PredictorSpec::Wcma {
                    alpha: 0.7,
                    days: 10,
                    k: 2,
                },
                PredictorSpec::Persistence,
            ],
            vec![
                ManagerSpec::EnergyNeutral {
                    target_soc: 0.5,
                    gain: 0.25,
                },
                ManagerSpec::Greedy,
            ],
            scenarios,
        )
        .unwrap()
    }

    #[test]
    fn engine_runs_the_full_matrix() {
        let result = FleetEngine::new(42).run(&small_matrix()).unwrap();
        assert_eq!(result.outcomes.len(), 2 * 2 * 2);
        assert_eq!(result.cached_jobs, 0);
        // The default 4 MiB budget comfortably admits this matrix's
        // 60 KiB of slot series.
        assert_eq!(result.streamed_jobs, 0, "small fleets must not stream");
        for outcome in &result.outcomes {
            assert!(outcome.summary.count > 0, "{}", outcome.scenario);
            assert!(outcome.summary.mape.is_finite());
            assert!(outcome.cost.wall_nanos > 0);
            assert_eq!(outcome.cost.peak_candidates, 1);
            assert!(outcome.cost.peak_trace_bytes > 0);
            assert!(
                outcome.report.energy_balance_error_j()
                    < 1e-6 * outcome.report.harvested_j.max(1.0),
                "{}: {}",
                outcome.scenario,
                outcome.report.energy_balance_error_j()
            );
        }
    }

    #[test]
    fn work_unit_panic_is_an_error_not_an_abort() {
        let err = FleetEngine::new(42)
            .with_chaos_unit_panic("desert-clear-sky")
            .run(&small_matrix())
            .unwrap_err();
        assert!(err.contains("desert-clear-sky"), "{err}");
        assert!(err.contains("panicked"), "{err}");
    }

    #[test]
    fn quarantine_excludes_the_failed_scenario_and_keeps_the_rest() {
        let matrix = small_matrix();
        let clean = FleetEngine::new(42).run(&matrix).unwrap();
        assert!(clean.quarantined.is_empty());
        let result = FleetEngine::new(42)
            .with_quarantine(true)
            .with_chaos_unit_panic("desert-clear-sky")
            .run(&matrix)
            .unwrap();
        assert_eq!(result.quarantined.len(), 1);
        assert_eq!(result.quarantined[0].scenario, "desert-clear-sky");
        assert!(result.quarantined[0].error.contains("panicked"));
        // Only the healthy scenario's jobs survive, and its rankings
        // are byte-identical to the clean run's table for it.
        assert_eq!(result.outcomes.len(), 2 * 2);
        assert!(result.outcomes.iter().all(|o| o.scenario == "aging-node"));
        let table_of = |scorecard: &Scorecard, name: &str| {
            scorecard
                .per_scenario
                .iter()
                .find(|r| r.scenario == name)
                .unwrap()
                .clone()
        };
        assert_eq!(
            table_of(&result.scorecard, "aging-node"),
            table_of(&clean.scorecard, "aging-node")
        );
        assert!(
            result
                .scorecard
                .per_scenario
                .iter()
                .all(|r| r.scenario != "desert-clear-sky"),
            "the quarantined scenario has no table, not a wrong one"
        );
        assert_eq!(result.coverage.covered, vec!["aging-node".to_string()]);
        assert_eq!(result.coverage.missing.len(), 1);
        assert_eq!(result.coverage.missing[0].scenario, "desert-clear-sky");
        assert_eq!(
            result.coverage.missing[0].reason,
            result.quarantined[0].error
        );
        assert!(clean.coverage.is_complete());
    }

    #[test]
    fn quarantined_scenario_is_missing_coverage_in_both_merges() {
        // The monolithic run and its sharded twin must give the same
        // answer for a quarantined scenario: a named hole, not an empty
        // table on one path and a combo-set mismatch on the other.
        let matrix = small_matrix();
        let engine = FleetEngine::new(42)
            .with_quarantine(true)
            .with_chaos_unit_panic("desert-clear-sky");
        let monolithic = engine.run(&matrix).unwrap();
        let sharded = engine.run_sharded(&matrix, 2).unwrap();
        let err = Scorecard::merge_shards(&sharded.manifest, &sharded.shards).unwrap_err();
        assert!(err.contains("incomplete coverage"), "{err}");
        assert!(err.contains("\"desert-clear-sky\""), "{err}");
        let reasons: BTreeMap<String, String> = sharded
            .quarantined
            .iter()
            .map(|q| (q.scenario.clone(), q.error.clone()))
            .collect();
        let (merged, coverage) = Scorecard::merge_shards_partial(
            &sharded.manifest,
            &sharded.shards,
            &BTreeMap::new(),
            &reasons,
            &Collector::noop(),
        )
        .unwrap();
        assert_eq!(coverage.covered, vec!["aging-node".to_string()]);
        assert_eq!(coverage.missing.len(), 1);
        assert_eq!(coverage.missing[0].scenario, "desert-clear-sky");
        assert_eq!(
            merged.to_json_string(),
            monolithic.scorecard.to_json_string(),
            "monolithic and merged quarantined scorecards must agree byte-for-byte"
        );
        assert_eq!(coverage, monolithic.coverage);
        let clean = FleetEngine::new(42).run(&matrix).unwrap();
        assert_eq!(merged.per_scenario, clean.scorecard.per_scenario[1..]);
    }

    #[test]
    fn streaming_only_policy_is_byte_identical_and_never_materializes() {
        let matrix = small_matrix();
        let materialized = FleetEngine::new(5).run(&matrix).unwrap();
        let engine = FleetEngine::new(5).with_trace_cache(TraceCachePolicy::streaming_only());
        let mut cache = engine.new_cache();
        let streamed = engine.run_cached(&matrix, &mut cache).unwrap();
        assert_eq!(streamed.streamed_jobs, matrix.job_count());
        assert_eq!(cache.trace_count(), 0, "no trace may materialize");
        assert_eq!(
            streamed.scorecard.to_json_string(),
            materialized.scorecard.to_json_string(),
            "streamed and materialized paths must agree byte-for-byte"
        );
        // Materialized jobs hold their cached series (16 B per slot);
        // streamed ones a day of raw samples plus the metrics log these
        // short horizons keep.
        let log_bytes = 40 * 48 * std::mem::size_of::<pred_metrics::PredictionRecord>();
        for (a, b) in streamed.outcomes.iter().zip(&materialized.outcomes) {
            assert_eq!(a.summary, b.summary);
            assert_eq!(a.report, b.report);
            assert_eq!(b.cost.peak_trace_bytes, 40 * 48 * 16);
            let samples_per_day = if a.scenario == "desert-clear-sky" {
                1440
            } else {
                288
            };
            assert_eq!(a.cost.peak_trace_bytes, samples_per_day * 8 + log_bytes);
        }
    }

    #[test]
    fn bounded_budget_splits_materialize_and_stream_deterministically() {
        let matrix = small_matrix();
        // Admit exactly the first scenario (40 days × 48 slots × 16 B;
        // the second costs the same and does not fit).
        let first_bytes = 40 * 48 * 16;
        let engine =
            FleetEngine::new(5).with_trace_cache(TraceCachePolicy::bounded(first_bytes as u64));
        let mut cache = engine.new_cache();
        let result = engine.run_cached(&matrix, &mut cache).unwrap();
        assert_eq!(cache.trace_count(), 1);
        assert_eq!(result.streamed_jobs, matrix.job_count() / 2);
        let reference = FleetEngine::new(5).run(&matrix).unwrap();
        assert_eq!(
            result.scorecard.to_json_string(),
            reference.scorecard.to_json_string()
        );
    }

    #[test]
    fn single_pass_accounting_counts_one_synthesis_per_fresh_scenario() {
        let matrix = small_matrix();
        let engine = FleetEngine::new(17);
        let mut cache = engine.new_cache();
        // Fresh materialized run: one generation per scenario, shared by
        // all of its jobs — never one per job.
        let fresh = engine.run_cached(&matrix, &mut cache).unwrap();
        assert_eq!(fresh.synthesis_passes(), matrix.scenarios.len());
        assert_eq!(fresh.passes.trace_generations, matrix.scenarios.len());
        // Warm trace cache: new jobs cost zero synthesis passes.
        let mut grown = matrix.clone();
        grown.predictors.push(PredictorSpec::Ewma { gamma: 0.4 });
        let incremental = engine.run_cached(&grown, &mut cache).unwrap();
        assert_eq!(incremental.synthesis_passes(), 0);
        // Fully cached: nothing runs at all.
        let warm = engine.run_cached(&grown, &mut cache).unwrap();
        assert_eq!(warm.synthesis_passes(), 0);
        assert_eq!(warm.cached_jobs, grown.job_count());
        // Streaming-only: one generation pass per scenario per run
        // (these 40-day scenarios stay under the metrics-log cap, so no
        // ROI pre-pass happens).
        let streaming = FleetEngine::new(17)
            .with_trace_cache(TraceCachePolicy::streaming_only())
            .run(&matrix)
            .unwrap();
        assert_eq!(streaming.synthesis_passes(), matrix.scenarios.len());
        assert_eq!(streaming.passes.streamed_passes, matrix.scenarios.len());
        assert_eq!(streaming.passes.roi_prepasses, 0);
    }

    #[test]
    fn collector_records_ledger_and_budget_without_perturbing_output() {
        let matrix = small_matrix();
        let plain = FleetEngine::new(23).run(&matrix).unwrap();
        let collector = Collector::recording();
        let observed = FleetEngine::new(23)
            .with_collector(collector.clone())
            .run(&matrix)
            .unwrap();
        // Collection must not move a byte of pinned output.
        assert_eq!(
            plain.scorecard.to_json_string(),
            observed.scorecard.to_json_string()
        );
        let ledger = collector.ledger();
        let jobs = matrix.job_count() as u64;
        let scenarios = matrix.scenarios.len() as u64;
        assert_eq!(ledger.counter("jobs/evaluated"), jobs);
        assert_eq!(ledger.counter("cache/job_misses"), jobs);
        assert_eq!(ledger.counter("cache/job_hits"), 0);
        assert_eq!(ledger.counter("synth/trace_generations"), scenarios);
        assert_eq!(ledger.counter("score/scenarios_ranked"), scenarios);
        assert_eq!(ledger.counter("jobs/fresh"), jobs);
        assert!(ledger.counter("slots/processed") > 0);
        assert_eq!(
            ledger.label_value("admission/trace_budget_source"),
            Some("configured")
        );
        assert_eq!(
            ledger.gauge_value("admission/trace_budget_bytes"),
            Some(DEFAULT_TRACE_BUDGET_BYTES)
        );
        // Phase spans landed under the run root.
        let report = collector.report();
        let fleet = report
            .spans
            .children
            .iter()
            .find(|c| c.name == "fleet")
            .expect("fleet span recorded");
        assert!(fleet.children.iter().any(|c| c.name == "simulate"));
        assert_eq!(report.scenario_top.len(), matrix.scenarios.len().min(10));
    }

    #[test]
    fn warm_cache_ledger_shows_hits_equal_jobs_and_zero_synthesis() {
        let matrix = small_matrix();
        let engine = FleetEngine::new(29);
        let mut cache = engine.new_cache();
        engine.run_cached(&matrix, &mut cache).unwrap();
        // Second run through a fresh collector: everything is served
        // from the cache.
        let collector = Collector::recording();
        let warm = FleetEngine::new(29)
            .with_collector(collector.clone())
            .run_cached(&matrix, &mut cache)
            .unwrap();
        assert_eq!(warm.cached_jobs, matrix.job_count());
        let ledger = collector.ledger();
        let jobs = matrix.job_count() as u64;
        assert_eq!(ledger.counter("cache/job_hits"), jobs);
        assert_eq!(ledger.counter("cache/job_misses"), 0);
        assert_eq!(
            ledger.counter("cache/trace_hits"),
            matrix.scenarios.len() as u64
        );
        assert_eq!(ledger.counter("synth/trace_generations"), 0);
        assert_eq!(ledger.counter("synth/streamed_passes"), 0);
        assert_eq!(ledger.counter("slots/processed"), 0);
    }

    #[test]
    fn outcomes_are_in_job_order_regardless_of_threads() {
        let matrix = small_matrix();
        let a = FleetEngine::new(7).with_threads(1).run(&matrix).unwrap();
        let b = FleetEngine::new(7).with_threads(4).run(&matrix).unwrap();
        assert_eq!(a.outcomes.len(), b.outcomes.len());
        for (x, y) in a.outcomes.iter().zip(&b.outcomes) {
            assert_eq!(x.spec, y.spec);
            assert_eq!(x.summary, y.summary);
            assert_eq!(x.report, y.report);
        }
    }

    #[test]
    fn equally_configured_custom_sites_with_different_names_get_different_traces() {
        // Regression: the scenario-seed hash must not cancel against the
        // custom site's name-derived seed_stream (engine XORs the
        // scenario hash in, TraceGenerator XORs seed_stream back out).
        let base = Catalog::builtin().get("four-seasons").unwrap().clone();
        let mut twin = base.clone();
        twin.name = "four-seasons-twin".into();
        twin.days = base.days;
        let engine = FleetEngine::new(3);
        let (a, _) = engine.generate_trace(&base).unwrap();
        let (b, _) = engine.generate_trace(&twin).unwrap();
        assert_ne!(a.samples(), b.samples());
    }

    #[test]
    fn different_seeds_give_different_traces() {
        let matrix = small_matrix();
        let a = FleetEngine::new(1).run(&matrix).unwrap();
        let b = FleetEngine::new(2).run(&matrix).unwrap();
        assert_ne!(a.outcomes[0].summary, b.outcomes[0].summary);
    }

    #[test]
    fn faults_hurt_the_faulted_scenario() {
        // The aging-node scenario halves storage and drops samples; the
        // faulted run must still balance energy and produce strictly
        // positive harvest.
        let result = FleetEngine::new(3).run(&small_matrix()).unwrap();
        let faulted: Vec<_> = result
            .outcomes
            .iter()
            .filter(|o| o.scenario == "aging-node")
            .collect();
        assert!(!faulted.is_empty());
        for outcome in faulted {
            assert!(outcome.report.harvested_j > 0.0);
            assert!(outcome.report.energy_balance_error_j() < 1e-6);
        }
    }

    #[test]
    fn cache_answers_repeat_runs_without_re_evaluating() {
        let matrix = small_matrix();
        let engine = FleetEngine::new(9);
        let mut cache = engine.new_cache();
        let first = engine.run_cached(&matrix, &mut cache).unwrap();
        assert_eq!(first.cached_jobs, 0);
        assert_eq!(cache.len(), matrix.job_count());
        assert_eq!(cache.trace_count(), matrix.scenarios.len());
        assert!(cache.trace_bytes() > 0);
        let second = engine.run_cached(&matrix, &mut cache).unwrap();
        assert_eq!(second.cached_jobs, matrix.job_count());
        assert_eq!(
            first.scorecard.to_json_string(),
            second.scorecard.to_json_string()
        );
    }

    #[test]
    fn incremental_predictor_axis_change_matches_full_run_byte_for_byte() {
        // The tuning-loop pattern: score family A, then grow the axis.
        let base = small_matrix();
        let mut grown = base.clone();
        grown.predictors.push(PredictorSpec::Ewma { gamma: 0.5 });

        let engine = FleetEngine::new(21);
        let mut cache = engine.new_cache();
        engine.run_cached(&base, &mut cache).unwrap();
        let incremental = engine.run_cached(&grown, &mut cache).unwrap();
        // Only the new predictor's jobs ran.
        assert_eq!(incremental.cached_jobs, base.job_count());

        let full = FleetEngine::new(21).run(&grown).unwrap();
        assert_eq!(
            incremental.scorecard.to_json_string(),
            full.scorecard.to_json_string(),
            "incremental re-scoring must be byte-identical to a full run"
        );
    }

    #[test]
    fn cache_rejects_mismatched_engines() {
        let matrix = small_matrix();
        let mut cache = FleetEngine::new(1).new_cache();
        assert!(FleetEngine::new(2).run_cached(&matrix, &mut cache).is_err());
        let strict = FleetEngine::new(1).with_protocol(EvalProtocol::new(0.2, 10));
        assert!(strict.run_cached(&matrix, &mut cache).is_err());
    }

    #[test]
    fn renamed_scenario_is_not_served_from_cache() {
        // Same site config, different name ⇒ different trace seed; the
        // JSON cache key must keep them apart.
        let mut matrix = small_matrix();
        let engine = FleetEngine::new(4);
        let mut cache = engine.new_cache();
        let before = engine.run_cached(&matrix, &mut cache).unwrap();
        matrix.scenarios[0].name = "desert-clear-sky-b".into();
        let after = engine.run_cached(&matrix, &mut cache).unwrap();
        assert_eq!(after.cached_jobs, matrix.job_count() / 2);
        assert_ne!(
            before.outcomes[0].summary, after.outcomes[0].summary,
            "renamed scenario must re-evaluate under its own seed"
        );
    }

    #[test]
    fn sharded_run_merges_back_to_the_monolithic_scorecard() {
        let matrix = small_matrix();
        let monolithic = FleetEngine::new(31).run(&matrix).unwrap();
        let sharded = FleetEngine::new(31).run_sharded(&matrix, 2).unwrap();
        assert_eq!(sharded.shards.len(), 2);
        let merged = Scorecard::merge_shards(&sharded.manifest, &sharded.shards).unwrap();
        assert_eq!(
            merged.to_json_string(),
            monolithic.scorecard.to_json_string()
        );
    }

    #[test]
    fn out_of_range_shard_counts_clamp_like_the_routed_path() {
        // Counts outside `1..=scenario_count` clamp into range, and the
        // clamped artifacts still merge back to the monolithic bytes.
        let matrix = small_matrix();
        let monolithic = FleetEngine::new(1).run(&matrix).unwrap();
        let low = FleetEngine::new(1).run_sharded(&matrix, 0).unwrap();
        assert_eq!(low.shards.len(), 1);
        let high = FleetEngine::new(1).run_sharded(&matrix, 3).unwrap();
        assert_eq!(high.shards.len(), matrix.scenarios.len());
        for sharded in [low, high] {
            let merged = Scorecard::merge_shards(&sharded.manifest, &sharded.shards).unwrap();
            assert_eq!(
                merged.to_json_string(),
                monolithic.scorecard.to_json_string()
            );
        }
    }

    #[test]
    fn day_append_resumes_from_checkpoints_and_matches_cold_bytes() {
        // Materialized path: the warm run leaves unit checkpoints and
        // generator tails; appending days must extend traces in place
        // (no full regeneration) and resume every state machine, with
        // the scorecard byte-identical to a cold run of the extended
        // matrix.
        let matrix = small_matrix();
        let engine = FleetEngine::new(41);
        let mut cache = engine.new_cache();
        engine.run_cached(&matrix, &mut cache).unwrap();

        let mut grown = matrix.clone();
        for scenario in &mut grown.scenarios {
            scenario.days += 3;
        }
        let delta = FleetDelta::classify(&matrix, &grown).unwrap();
        assert_eq!(
            delta,
            FleetDelta::DayAppend {
                scenarios: grown.scenarios.iter().map(|s| s.name.clone()).collect()
            }
        );

        let collector = Collector::recording();
        let incremental = FleetEngine::new(41)
            .with_collector(collector.clone())
            .run_delta(&grown, &mut cache, &delta)
            .unwrap();
        assert_eq!(incremental.passes.trace_generations, 0);
        assert_eq!(
            incremental.passes.trace_extensions,
            grown.scenarios.len(),
            "every trace must extend from its stored tail"
        );
        let ledger = collector.ledger();
        assert_eq!(ledger.counter("synth/trace_generations"), 0);
        assert_eq!(
            ledger.counter("delta/trace_extensions"),
            grown.scenarios.len() as u64
        );
        assert_eq!(
            ledger.counter("delta/resumed_units") + ledger.counter("delta/peak_fallbacks"),
            grown.scenarios.len() as u64,
            "every unit either resumes or transparently falls back"
        );
        assert_eq!(
            ledger.counter("delta/day_appends"),
            grown.scenarios.len() as u64
        );

        let cold = FleetEngine::new(41).run(&grown).unwrap();
        assert_eq!(
            incremental.scorecard.to_json_string(),
            cold.scorecard.to_json_string()
        );
        // The extended cached series is bitwise the slot view of the
        // cold-generated trace.
        let engine = FleetEngine::new(41);
        for scenario in &grown.scenarios {
            let (cold_trace, _) = engine.generate_trace(scenario).unwrap();
            let cached = &cache.traces[scenario.render_without_days().as_str()];
            assert_eq!(cached.days, scenario.days);
            assert_series_matches(&cached.slots, &cold_trace, scenario.slots_per_day);
        }
    }

    #[test]
    fn streamed_day_append_resumes_the_generator_tail() {
        // Streaming-only path: no trace exists to extend, so the resume
        // continues the synthesis stream from the checkpointed
        // day-boundary generator state — appended days only.
        let matrix = small_matrix();
        let engine = FleetEngine::new(43).with_trace_cache(TraceCachePolicy::streaming_only());
        let mut cache = engine.new_cache();
        engine.run_cached(&matrix, &mut cache).unwrap();

        let mut grown = matrix.clone();
        for scenario in &mut grown.scenarios {
            scenario.days += 2;
        }
        let collector = Collector::recording();
        let incremental = FleetEngine::new(43)
            .with_trace_cache(TraceCachePolicy::streaming_only())
            .with_collector(collector.clone())
            .run_cached(&grown, &mut cache)
            .unwrap();
        let ledger = collector.ledger();
        let n = grown.scenarios[0].slots_per_day as u64;
        let resumed = ledger.counter("delta/resumed_units");
        assert!(resumed > 0, "streamed units must resume their tails");
        if resumed == grown.scenarios.len() as u64 {
            // All units resumed: the pass walked only the appended days.
            assert_eq!(
                ledger.counter("slots/processed"),
                2 * n * grown.scenarios.len() as u64
            );
        }
        let cold = FleetEngine::new(43)
            .with_trace_cache(TraceCachePolicy::streaming_only())
            .run(&grown)
            .unwrap();
        assert_eq!(
            incremental.scorecard.to_json_string(),
            cold.scorecard.to_json_string()
        );
    }

    #[test]
    fn appended_days_that_raise_the_roi_peak_fall_back_to_a_cold_pass() {
        // Dimming the whole original horizon halves every reference
        // mean the checkpointed ROI peak saw; the appended days shine
        // at full strength, so the extended peak must rise — the
        // prefix's record-inclusion decisions are stale and the unit
        // has to transparently re-run cold. Bytes still match.
        let mut scenario = Catalog::builtin().get("desert-clear-sky").unwrap().clone();
        scenario.faults.push(crate::FaultSpec::ClimateDimming {
            start_day: 0,
            duration_days: scenario.days,
            factor: 0.5,
        });
        let matrix = FleetMatrix::new(
            vec![PredictorSpec::Wcma {
                alpha: 0.7,
                days: 10,
                k: 2,
            }],
            vec![ManagerSpec::EnergyNeutral {
                target_soc: 0.5,
                gain: 0.25,
            }],
            vec![scenario],
        )
        .unwrap();
        let engine = FleetEngine::new(47);
        let mut cache = engine.new_cache();
        engine.run_cached(&matrix, &mut cache).unwrap();

        let mut grown = matrix.clone();
        grown.scenarios[0].days += 2;
        let collector = Collector::recording();
        let incremental = FleetEngine::new(47)
            .with_collector(collector.clone())
            .run_cached(&grown, &mut cache)
            .unwrap();
        let ledger = collector.ledger();
        assert_eq!(ledger.counter("delta/peak_fallbacks"), 1);
        assert_eq!(ledger.counter("delta/resumed_units"), 0);
        let cold = FleetEngine::new(47).run(&grown).unwrap();
        assert_eq!(
            incremental.scorecard.to_json_string(),
            cold.scorecard.to_json_string()
        );
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(16))]

        /// The cached slot series — synthesized from day zero, then
        /// extended in place k times — is bit-equal to the `SlotView`
        /// of a cold full-resolution trace at the final horizon.
        #[test]
        fn cached_series_matches_the_slot_view_after_chained_extensions(
            site_idx in 0usize..solar_synth::Site::ALL.len(),
            seed in 0u64..u64::MAX,
            days in 1usize..6,
            n_idx in 0usize..3,
            extensions in proptest::collection::vec(1usize..4, 0..4),
        ) {
            let generator = TraceGenerator::new(solar_synth::Site::ALL[site_idx].config(), seed);
            let slots_per_day = [24u32, 48, 96][n_idx];
            let n = SlotsPerDay::new(slots_per_day).unwrap();
            let (mut cached, _) = CachedTrace::synthesize(&generator, None, days, n).unwrap();
            for extra in extensions {
                let (continuation, _) = CachedTrace::synthesize(
                    &generator,
                    Some(cached.tail.clone()),
                    cached.days + extra,
                    n,
                )
                .unwrap();
                cached.append(continuation);
            }
            let cold = generator.generate_days(cached.days).unwrap();
            assert_series_matches(&cached.slots, &cold, slots_per_day);
        }
    }

    #[test]
    fn trace_gap_and_peak_raising_regimes_append_from_cached_slots() {
        // Neither regime resumes a checkpoint on a day-append: trace
        // gaps re-place over the longer horizon, and the dimmed prefix
        // has its ROI peak raised by the full-strength appended days.
        // Materialized, both re-simulate cold from the extended series —
        // no stream, no prepass, no regeneration — and every day's
        // scorecard is byte-identical to a cold run.
        let catalog = Catalog::builtin();
        let gappy = catalog.get("gappy-telemetry-desert").unwrap().clone();
        assert!(gappy
            .faults
            .iter()
            .any(|f| matches!(f, FaultSpec::TraceGap { .. })));
        let mut dimmed = catalog.get("desert-clear-sky").unwrap().clone();
        dimmed.faults.push(FaultSpec::ClimateDimming {
            start_day: 0,
            duration_days: dimmed.days,
            factor: 0.5,
        });
        let base = FleetMatrix::new(
            small_matrix().predictors,
            small_matrix().managers,
            vec![gappy, dimmed],
        )
        .unwrap();
        let policy = TraceCachePolicy::bounded(1 << 20);
        let engine = FleetEngine::new(71).with_trace_cache(policy);
        let mut cache = engine.new_cache();
        engine.run_cached(&base, &mut cache).unwrap();

        let mut previous = base;
        let mut peak_fallbacks = 0;
        for _ in 0..3 {
            let mut grown = previous.clone();
            for scenario in &mut grown.scenarios {
                scenario.days += 1;
            }
            let delta = FleetDelta::classify(&previous, &grown).unwrap();
            let collector = Collector::recording();
            let incremental = engine
                .clone()
                .with_collector(collector.clone())
                .run_delta(&grown, &mut cache, &delta)
                .unwrap();
            let cold = FleetEngine::new(71)
                .with_trace_cache(policy)
                .run(&grown)
                .unwrap();
            assert_eq!(
                incremental.scorecard.to_json_string(),
                cold.scorecard.to_json_string()
            );
            let ledger = collector.ledger();
            assert_eq!(ledger.counter("synth/streamed_passes"), 0);
            assert_eq!(ledger.counter("synth/roi_prepasses"), 0);
            assert_eq!(ledger.counter("synth/trace_generations"), 0);
            assert_eq!(ledger.counter("delta/trace_extensions"), 2);
            // The gap regime never resumes; the dimmed one resumes or
            // falls back.
            peak_fallbacks += ledger.counter("delta/peak_fallbacks");
            assert_eq!(
                ledger.counter("delta/resumed_units") + ledger.counter("delta/peak_fallbacks"),
                1
            );
            previous = grown;
        }
        assert!(peak_fallbacks >= 1, "the dimmed regime must fall back");
    }

    #[test]
    fn cache_trace_bytes_equal_the_admission_estimate() {
        let matrix = small_matrix();
        let engine = FleetEngine::new(61);
        let mut cache = engine.new_cache();
        let mut expected = 0;
        for days in [0, 2] {
            let mut grown = matrix.clone();
            for scenario in &mut grown.scenarios {
                scenario.days += days;
            }
            let collector = Collector::recording();
            engine
                .clone()
                .with_collector(collector.clone())
                .run_cached(&grown, &mut cache)
                .unwrap();
            // Cold, then extended in place: either way the cache holds
            // exactly what admission budgeted for this run.
            expected = grown
                .scenarios
                .iter()
                .map(|s| s.days * s.slots_per_day as usize * 16)
                .sum::<usize>();
            assert_eq!(
                collector.ledger().counter("admission/admitted_trace_bytes"),
                expected as u64
            );
            assert_eq!(cache.trace_bytes(), expected);
        }
        assert_eq!(cache.trace_count(), matrix.scenarios.len());
        assert_eq!(expected, 2 * 42 * 48 * 16);
    }

    #[test]
    fn a_render_repeated_at_another_horizon_streams() {
        // One cached series serves one horizon: the repeat must not
        // read the first entry's slots.
        let scenario = Catalog::builtin().get("desert-clear-sky").unwrap().clone();
        let mut longer = scenario.clone();
        longer.days += 2;
        let mut matrix = small_matrix();
        matrix.scenarios = vec![scenario, longer];
        let engine = FleetEngine::new(73);
        let mut cache = engine.new_cache();
        let result = engine.run_cached(&matrix, &mut cache).unwrap();
        assert_eq!(cache.trace_count(), 1);
        assert_eq!(result.streamed_jobs, matrix.job_count() / 2);
        let streamed = FleetEngine::new(73)
            .with_trace_cache(TraceCachePolicy::streaming_only())
            .run(&matrix)
            .unwrap();
        assert_eq!(
            result.scorecard.to_json_string(),
            streamed.scorecard.to_json_string()
        );
    }

    #[test]
    fn default_budget_is_a_fixed_4_mib_whatever_the_host() {
        // Six three-year, 48-slot scenarios hold ≈5 MiB of slot series:
        // more than the default budget, so the admission split — and
        // with it every admission/synth counter — is decided by the
        // budget. The default must be the configured 4 MiB, never a
        // figure read from the machine. (Half-hour samples keep the
        // synthesis cheap; the footprint counts slots, not samples.)
        let mut base = Catalog::builtin().get("la-nina-triennium").unwrap().clone();
        assert_eq!((base.days, base.slots_per_day), (1095, 48));
        base.site = crate::catalog::SiteSpec::Custom {
            latitude_deg: -8.0,
            resolution_minutes: 30,
            climate: crate::catalog::Climate::Monsoon,
        };
        let scenarios: Vec<Scenario> = (0..6)
            .map(|i| {
                let mut scenario = base.clone();
                scenario.name = format!("triennium-{i}");
                scenario
            })
            .collect();
        assert!(scenarios.iter().map(FleetEngine::trace_bytes).sum::<u64>() > 4 << 20);
        let matrix = FleetMatrix::new(
            vec![PredictorSpec::Persistence],
            vec![ManagerSpec::Greedy],
            scenarios,
        )
        .unwrap();
        let run = |engine: FleetEngine| {
            let collector = Collector::recording();
            let result = engine
                .with_collector(collector.clone())
                .run(&matrix)
                .unwrap();
            (collector.ledger(), result)
        };
        let (default_ledger, default_run) = run(FleetEngine::new(67));
        let (bounded_ledger, bounded_run) =
            run(FleetEngine::new(67).with_trace_cache(TraceCachePolicy::bounded(4 << 20)));
        assert_eq!(
            default_ledger.to_json_string(),
            bounded_ledger.to_json_string()
        );
        assert_eq!(
            TraceCachePolicy::default(),
            TraceCachePolicy::bounded(4 << 20)
        );
        assert_eq!(
            default_run.scorecard.to_json_string(),
            bounded_run.scorecard.to_json_string()
        );
        assert!(default_run.streamed_jobs > 0, "the overflow must stream");
        assert!(default_ledger.counter("admission/streamed_scenarios") > 0);
    }

    #[test]
    fn delta_classification_covers_every_route() {
        let base = small_matrix();

        assert_eq!(
            FleetDelta::classify(&base, &base).unwrap(),
            FleetDelta::Unchanged
        );

        let mut appended = base.clone();
        appended.scenarios[1].days += 5;
        assert_eq!(
            FleetDelta::classify(&base, &appended).unwrap(),
            FleetDelta::DayAppend {
                scenarios: vec![appended.scenarios[1].name.clone()]
            }
        );

        // Shrinking a horizon is not an append — it edits the scenario.
        let mut shrunk = base.clone();
        shrunk.scenarios[0].days -= 1;
        assert_eq!(
            FleetDelta::classify(&base, &shrunk).unwrap(),
            FleetDelta::ScenarioEdit {
                scenarios: vec![shrunk.scenarios[0].name.clone()]
            }
        );

        let mut edited = base.clone();
        edited.scenarios[0]
            .faults
            .push(crate::FaultSpec::ClimateDimming {
                start_day: 0,
                duration_days: 5,
                factor: 0.5,
            });
        assert_eq!(
            FleetDelta::classify(&base, &edited).unwrap(),
            FleetDelta::ScenarioEdit {
                scenarios: vec![edited.scenarios[0].name.clone()]
            }
        );

        let mut removed = base.clone();
        let gone = removed.scenarios.remove(0);
        assert_eq!(
            FleetDelta::classify(&base, &removed).unwrap(),
            FleetDelta::ScenarioEdit {
                scenarios: vec![gone.name]
            }
        );

        let mut retired = base.clone();
        let dropped = retired.predictors.remove(0);
        assert_eq!(
            FleetDelta::classify(&base, &retired).unwrap(),
            FleetDelta::PredictorRetire {
                predictors: vec![dropped.label()]
            }
        );

        // Growth, manager changes, and mixed batches have no delta
        // path.
        let mut grown_axis = base.clone();
        grown_axis
            .predictors
            .push(PredictorSpec::Ewma { gamma: 0.4 });
        assert!(FleetDelta::classify(&base, &grown_axis).is_err());
        let mut managers_changed = base.clone();
        managers_changed.managers.push(ManagerSpec::Greedy);
        assert!(FleetDelta::classify(&base, &managers_changed).is_err());
        let mut mixed = base.clone();
        mixed.scenarios[0].days += 1;
        mixed.scenarios[1].slots_per_day = 24;
        assert!(FleetDelta::classify(&base, &mixed).is_err());
    }

    #[test]
    fn retiring_a_predictor_re_ranks_entirely_from_cache() {
        let matrix = small_matrix();
        let engine = FleetEngine::new(53);
        let mut cache = engine.new_cache();
        engine.run_cached(&matrix, &mut cache).unwrap();

        let mut retired = matrix.clone();
        retired.predictors.remove(1);
        let delta = FleetDelta::classify(&matrix, &retired).unwrap();
        let incremental = engine.run_delta(&retired, &mut cache, &delta).unwrap();
        assert_eq!(incremental.cached_jobs, retired.job_count());
        assert_eq!(incremental.passes.total(), 0, "no simulation at all");
        let cold = FleetEngine::new(53).run(&retired).unwrap();
        assert_eq!(
            incremental.scorecard.to_json_string(),
            cold.scorecard.to_json_string()
        );
    }

    #[test]
    fn prune_to_evicts_exactly_the_entries_the_matrix_no_longer_wants() {
        let matrix = small_matrix();
        let engine = FleetEngine::new(59);
        let mut cache = engine.new_cache();
        engine.run_cached(&matrix, &mut cache).unwrap();
        let bytes_before = cache.trace_bytes();

        let mut narrowed = matrix.clone();
        narrowed.scenarios.remove(1);
        let stats = cache.prune_to(&narrowed).unwrap();
        let jobs_per_scenario = matrix.predictors.len() * matrix.managers.len();
        assert_eq!(stats.evicted_outcomes, jobs_per_scenario);
        assert_eq!(stats.evicted_traces, 1);
        assert!(stats.evicted_trace_bytes > 0);
        assert_eq!(
            cache.trace_bytes(),
            bytes_before - stats.evicted_trace_bytes
        );
        assert_eq!(cache.trace_count(), 1);

        // Pruning to the same matrix is a no-op.
        assert_eq!(cache.prune_to(&narrowed).unwrap(), PruneStats::default());

        // The surviving scenario still replays entirely from cache.
        let warm = engine.run_cached(&narrowed, &mut cache).unwrap();
        assert_eq!(warm.cached_jobs, narrowed.job_count());
        let cold = FleetEngine::new(59).run(&narrowed).unwrap();
        assert_eq!(
            warm.scorecard.to_json_string(),
            cold.scorecard.to_json_string()
        );
    }

    #[test]
    fn dimming_is_ground_truth_for_the_metrics_pass() {
        // A sky dimmed by exactly 0.5 over the whole horizon scales
        // observations, predictions, and references by the same power
        // of two, so prediction accuracy — a ratio — is unchanged: the
        // predictor tracked the real (dimmed) sky perfectly well. The
        // physical outcome (harvest, brownouts) must still suffer.
        let clean = Catalog::builtin().get("desert-clear-sky").unwrap().clone();
        let mut dimmed = clean.clone();
        dimmed.faults.push(crate::FaultSpec::ClimateDimming {
            start_day: 0,
            duration_days: dimmed.days,
            factor: 0.5,
        });
        // Same name ⇒ same trace seed ⇒ identical underlying sky.
        let specs = vec![PredictorSpec::Wcma {
            alpha: 0.7,
            days: 10,
            k: 2,
        }];
        let managers = vec![ManagerSpec::EnergyNeutral {
            target_soc: 0.5,
            gain: 0.25,
        }];
        let engine = FleetEngine::new(6);
        let clean_run = engine
            .run(&FleetMatrix::new(specs.clone(), managers.clone(), vec![clean]).unwrap())
            .unwrap();
        let dimmed_run = engine
            .run(&FleetMatrix::new(specs, managers, vec![dimmed]).unwrap())
            .unwrap();
        let (a, b) = (&clean_run.outcomes[0], &dimmed_run.outcomes[0]);
        assert!(
            (a.summary.mape - b.summary.mape).abs() < 1e-12,
            "scale-invariant accuracy must not register phantom error: {} vs {}",
            a.summary.mape,
            b.summary.mape
        );
        assert_eq!(a.summary.count, b.summary.count);
        assert!(
            b.report.harvested_j < 0.6 * a.report.harvested_j,
            "the physical harvest must halve"
        );
    }

    #[test]
    fn fleet_faults_project_into_every_affected_scenario() {
        let matrix = small_matrix()
            .with_fleet_faults(vec![FleetFault::RegionalStorm {
                window_start_day: 22,
                window_end_day: 30,
                duration_days: 5,
                depth: 0.8,
                region: crate::SpatialFalloff::global(),
            }])
            .unwrap();
        let engine = FleetEngine::new(8);
        let effective = engine.project_fleet_faults(&matrix).unwrap();
        assert!(effective.fleet_faults.is_empty());
        for scenario in &effective.scenarios {
            assert!(
                scenario
                    .faults
                    .iter()
                    .any(|f| matches!(f, crate::FaultSpec::ClimateDimming { .. })),
                "{} missing the storm projection",
                scenario.name
            );
        }
        // The storm measurably hurts: compare against the clean matrix.
        let clean = FleetEngine::new(8).run(&small_matrix()).unwrap();
        let stormy = FleetEngine::new(8).run(&matrix).unwrap();
        let harvested =
            |r: &FleetResult| r.outcomes.iter().map(|o| o.report.harvested_j).sum::<f64>();
        assert!(
            harvested(&stormy) < harvested(&clean),
            "a fleet-wide storm must reduce total harvest"
        );
        // And the cache keeps clean/stormy scenarios apart (their JSON
        // differs), so a warm clean cache cannot answer stormy jobs.
        let mut cache = engine.new_cache();
        engine.run_cached(&small_matrix(), &mut cache).unwrap();
        let stormy_cached = engine.run_cached(&matrix, &mut cache).unwrap();
        assert_eq!(stormy_cached.cached_jobs, 0);
    }
}
