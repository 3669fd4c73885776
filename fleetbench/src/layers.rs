//! Per-layer costs, measured from outside each crate by timing calls to
//! its public functions, and the layer model that adds them up against
//! a traced run's ledger.
//!
//! Every layer runs single-threaded on inputs drawn from the golden
//! matrix at the run's seed. The pass runs in [`ROUNDS`] rounds, each
//! timing every layer once, and reports each layer's median round: the
//! host's throughput drifts over seconds, and interleaving lets every
//! layer see the same host rather than one burst of it. The model
//! multiplies each per-unit cost by the work count the traced run's
//! ledger recorded for it; `model.coverage` is that sum over the CPU
//! time the traced samples actually spent. It is reported, not gated:
//! the share it leaves unexplained is engine overhead no layer here
//! measures.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::time::Instant;

use fleet_harness::artifact::{envelope, read_artifact};
use fleet_harness::worker::SHARD_RUN_KIND;
use fleet_harness::{run_supervisor, RunOutcome, SupervisorConfig, Workload, WorkloadKind};
use harvest_sim::{NoFaults, NodeSimulation};
use pred_metrics::{EvalProtocol, PredictionRecord, RecordSink, StreamingEval};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use scenario_fleet::{
    storage_capacity_factor, Collector, FleetMatrix, Ledger, ManagerSpec, PredictorSpec, Scenario,
    Scorecard, ScorecardShard, ShardedFleetResult,
};
use solar_synth::TraceGenerator;
use solar_trace::SlotsPerDay;

use crate::median;
use crate::workload::{Kind, Prepared, IN_PROCESS_THREADS, TRACE_BUDGET_BYTES, WORKERS};

/// Rounds of the layer pass.
pub const ROUNDS: usize = 9;
/// Every `SCENARIO_STRIDE`-th golden scenario feeds the slot-level
/// layers. The generator assigns families round-robin, so the subset
/// still covers every climate family.
const SCENARIO_STRIDE: usize = 4;
/// Keystream words drawn per round.
const KEYSTREAM_WORDS: usize = 1 << 20;
/// Checkpoint/restore pairs per machine per round.
const CHECKPOINT_PAIRS: usize = 2_000;

/// The timing of one traced sample.
pub struct Traced {
    /// Wall time of the timed region.
    pub wall_s: f64,
    /// CPU seconds of this process and its children over the sample.
    pub cpu_s: f64,
}

/// Isolated per-unit cost of each layer on the fleet path.
#[derive(Clone, Debug, Default)]
pub struct LayerCosts {
    /// `TraceGenerator::generate_days`, per fleet slot.
    pub trace_ns_per_slot: f64,
    /// A drained `slot_stream`, per fleet slot.
    pub stream_ns_per_slot: f64,
    /// The vendored ChaCha8 `fill_u32s`, per word.
    pub keystream_ns_per_word: f64,
    /// `CandidateBank::observe_and_predict`, per candidate and slot.
    pub bank_ns_per_candidate_slot: f64,
    /// Non-banked predictors' `observe_and_predict`, per predictor and
    /// slot.
    pub solo_ns_per_slot: f64,
    /// One node machine's `absorb_corrupted` + `plan_with`, per slot.
    pub node_ns_per_job_slot: f64,
    /// One machine's `day_checkpoint` + `restore_day_checkpoint`.
    pub checkpoint_ns: f64,
    /// `StreamingEval::push_record`, per record.
    pub score_ns_per_record: f64,
    /// Median `run_delta` call of the golden day-append weeks.
    pub append_s_p50: f64,
    /// `Scorecard::merge_shards` of the golden shards.
    pub merge_shards_s: f64,
    /// Encoding and parsing every golden shard's JSON.
    pub scorecard_json_s: f64,
    /// `fsio::write_atomic` of one shard-sized artifact.
    pub fsio_write_s: f64,
    /// `read_artifact` of that artifact.
    pub artifact_read_s: f64,
    /// Wall time of a supervised `tiny` run.
    pub floor_s: f64,
    /// CPU seconds (supervisor and workers) of that run.
    pub floor_cpu_s: f64,
}

/// Times `run` once, in seconds.
fn timed<T>(run: impl FnOnce() -> T) -> (T, f64) {
    let started = Instant::now();
    let value = run();
    (value, started.elapsed().as_secs_f64())
}

fn slots_per_day(scenario: &Scenario) -> Result<SlotsPerDay, String> {
    SlotsPerDay::new(scenario.slots_per_day).map_err(|e| e.to_string())
}

/// `seconds` spent on `units` units of work, as nanoseconds per unit.
fn ns_per(seconds: f64, units: usize) -> f64 {
    seconds * 1e9 / units.max(1) as f64
}

/// A slot-level input: one scenario's fleet slots as
/// `(day, slot, start_sample, mean_power)`.
struct SlotInput<'a> {
    scenario: &'a Scenario,
    slots: Vec<(usize, usize, f64, f64)>,
}

impl SlotInput<'_> {
    fn n(&self) -> usize {
        self.scenario.slots_per_day as usize
    }
}

/// Everything the layer timings reuse, built once and untimed.
struct Inputs<'a> {
    seed: u64,
    slot_inputs: Vec<SlotInput<'a>>,
    total_slots: usize,
    banked: Vec<(f64, usize, usize)>,
    solo: Vec<PredictorSpec>,
    managers: Vec<ManagerSpec>,
    rng: ChaCha8Rng,
    delta: Prepared,
    sharded: ShardedFleetResult,
    artifact: Vec<u8>,
    artifact_path: PathBuf,
    floor: SupervisorConfig,
}

impl Inputs<'_> {
    fn generator(&self, scenario: &Scenario) -> Result<TraceGenerator, String> {
        Ok(TraceGenerator::new(
            scenario.site_config()?,
            self.seed ^ solar_trace::hash::fnv1a(&scenario.name),
        ))
    }

    fn synth_trace(&self) -> Result<f64, String> {
        let mut total = 0.0;
        for input in &self.slot_inputs {
            let (trace, t) = timed(|| -> Result<_, String> {
                let trace = self
                    .generator(input.scenario)?
                    .generate_days(input.scenario.days);
                trace.map_err(|e| e.to_string())
            });
            black_box(trace?);
            total += t;
        }
        Ok(total)
    }

    fn synth_stream(&self) -> Result<f64, String> {
        let mut total = 0.0;
        for input in &self.slot_inputs {
            let n = slots_per_day(input.scenario)?;
            let (drained, t) = timed(|| -> Result<(), String> {
                let stream = self
                    .generator(input.scenario)?
                    .slot_stream(input.scenario.days, n)
                    .map_err(|e| e.to_string())?;
                for slot in stream {
                    black_box(slot);
                }
                Ok(())
            });
            drained?;
            total += t;
        }
        Ok(total)
    }

    fn keystream(&mut self) -> f64 {
        let mut words = vec![0u32; 4096];
        let rng = &mut self.rng;
        timed(|| {
            for _ in 0..KEYSTREAM_WORDS / words.len() {
                rng.fill_u32s(&mut words);
                black_box(&words);
            }
        })
        .1
    }

    fn bank(&self) -> Result<f64, String> {
        let mut total = 0.0;
        for input in &self.slot_inputs {
            let params = self
                .banked
                .iter()
                .map(|&(alpha, days, k)| {
                    solar_predict::WcmaParams::new(alpha, days, k, input.n())
                        .map_err(|e| e.to_string())
                })
                .collect::<Result<Vec<_>, _>>()?;
            let mut bank = solar_predict::CandidateBank::new(params).map_err(|e| e.to_string())?;
            total += timed(|| {
                for &(_, _, start, _) in &input.slots {
                    black_box(bank.observe_and_predict(start));
                }
            })
            .1;
        }
        Ok(total)
    }

    fn solo(&self) -> Result<f64, String> {
        let mut total = 0.0;
        for input in &self.slot_inputs {
            for spec in &self.solo {
                let mut predictor = spec.build(input.n())?;
                total += timed(|| {
                    for &(_, _, start, _) in &input.slots {
                        black_box(predictor.observe_and_predict(start));
                    }
                })
                .1;
            }
        }
        Ok(total)
    }

    /// Node machines' slot steps, then their checkpoint/restore pairs.
    fn node(&self) -> Result<(f64, f64), String> {
        let (mut steps, mut checkpoints) = (0.0, 0.0);
        for input in &self.slot_inputs {
            let scenario = input.scenario;
            let node_config = scenario
                .node
                .node_config(storage_capacity_factor(&scenario.faults))?;
            let slot_seconds = slots_per_day(scenario)?.slot_seconds_f64();
            for spec in &self.managers {
                let mut manager = spec.build();
                let mut hook = NoFaults;
                let mut sim = NodeSimulation::with_external_predictions(
                    manager.as_mut(),
                    &node_config,
                    &mut hook,
                    slot_seconds,
                    input.n(),
                );
                steps += timed(|| {
                    for &(_, _, start, mean) in &input.slots {
                        sim.absorb_corrupted(node_config.panel.power_w(mean) * slot_seconds);
                        sim.plan_with(start);
                    }
                })
                .1;
                checkpoints += timed(|| {
                    for _ in 0..CHECKPOINT_PAIRS {
                        let checkpoint = black_box(sim.day_checkpoint());
                        sim.restore_day_checkpoint(&checkpoint);
                    }
                })
                .1;
                black_box(sim.finish());
            }
        }
        Ok((steps, checkpoints))
    }

    fn score(&self) -> f64 {
        let mut total = 0.0;
        for input in &self.slot_inputs {
            let peak = input.slots.iter().map(|s| s.3).fold(0.0, f64::max);
            let mut eval = StreamingEval::new(EvalProtocol::paper(), peak);
            let records: Vec<PredictionRecord> = input
                .slots
                .windows(2)
                .map(|pair| PredictionRecord {
                    day: pair[0].0 as u32,
                    slot: pair[0].1 as u32,
                    predicted: pair[0].2,
                    actual_start: pair[1].2,
                    actual_mean: pair[0].3,
                })
                .collect();
            total += timed(|| {
                for record in &records {
                    eval.push_record(*record);
                }
            })
            .1;
            black_box(eval.finish());
        }
        total
    }

    fn merge(&self) -> Result<f64, String> {
        let sharded = &self.sharded;
        let (merged, t) = timed(|| Scorecard::merge_shards(&sharded.manifest, &sharded.shards));
        black_box(merged?);
        Ok(t)
    }

    fn scorecard_json(&self) -> Result<f64, String> {
        let (parsed, t) = timed(|| {
            self.sharded
                .shards
                .iter()
                .map(|shard| ScorecardShard::from_json_str(&shard.to_json().render()))
                .collect::<Result<Vec<_>, _>>()
        });
        black_box(parsed?);
        Ok(t)
    }

    fn fsio_write(&self) -> Result<f64, String> {
        let (written, t) =
            timed(|| fleet_obs::fsio::write_atomic(&self.artifact_path, &self.artifact));
        written?;
        Ok(t)
    }

    fn artifact_read(&self) -> Result<f64, String> {
        let (read, t) = timed(|| read_artifact(&self.artifact_path, SHARD_RUN_KIND));
        black_box(read.map_err(|e| e.to_string())?);
        Ok(t)
    }

    /// Wall and CPU seconds of one supervised `tiny` run.
    fn floor(&self) -> Result<(f64, f64), String> {
        let cpu_before = crate::sys::cpu_s();
        let (run, t) = timed(|| run_supervisor(&self.floor, &Collector::noop()));
        let cpu = crate::sys::cpu_s() - cpu_before;
        if run?.outcome != RunOutcome::Complete {
            return Err("the supervised tiny run did not complete".to_string());
        }
        Ok((t, cpu))
    }
}

impl LayerCosts {
    /// Measures every layer. `matrix` is the workload's (its WCMA
    /// specs size the candidate bank); the inputs are the golden
    /// matrix's scenarios at `seed`. Each timing runs under a span of
    /// `collector`, so its report shows where the pass spent its time.
    pub fn measure(
        matrix: &FleetMatrix,
        seed: u64,
        artifact_dir: &Path,
        collector: &Collector,
    ) -> Result<LayerCosts, String> {
        let golden = Workload::new(seed, WorkloadKind::Golden200)
            .with_budget(TRACE_BUDGET_BYTES)
            .with_threads(IN_PROCESS_THREADS);
        let golden_matrix = golden.matrix()?;
        let sharded = golden.engine().run_sharded(&golden_matrix, WORKERS)?;
        let mut floor = SupervisorConfig::new(
            std::env::current_exe().map_err(|e| format!("current executable: {e}"))?,
            Workload::new(seed, WorkloadKind::Tiny).with_threads(1),
            WORKERS,
        );
        floor.artifact_dir = artifact_dir.join("floor");
        let mut inputs = Inputs {
            seed,
            slot_inputs: Vec::new(),
            total_slots: 0,
            banked: matrix
                .predictors
                .iter()
                .filter_map(|spec| match *spec {
                    PredictorSpec::Wcma { alpha, days, k } => Some((alpha, days, k)),
                    _ => None,
                })
                .collect(),
            solo: PredictorSpec::extended_family()
                .into_iter()
                .filter(|spec| !matches!(spec, PredictorSpec::Wcma { .. }))
                .collect(),
            managers: ManagerSpec::default_set(),
            rng: ChaCha8Rng::seed_from_u64(seed),
            delta: Prepared::new(Kind::Delta200, seed, IN_PROCESS_THREADS, artifact_dir)?,
            artifact: envelope(
                SHARD_RUN_KIND,
                sharded.shards[0].to_json().render().as_bytes(),
            ),
            sharded,
            artifact_path: artifact_dir.join("layer-probe.artifact"),
            floor,
        };
        for scenario in golden_matrix.scenarios.iter().step_by(SCENARIO_STRIDE) {
            let stream = inputs
                .generator(scenario)?
                .slot_stream(scenario.days, slots_per_day(scenario)?)
                .map_err(|e| e.to_string())?;
            let slots: Vec<_> = stream
                .map(|slot| (slot.day, slot.slot, slot.start_sample, slot.mean_power))
                .collect();
            inputs.total_slots += slots.len();
            inputs.slot_inputs.push(SlotInput { scenario, slots });
        }

        let mut times: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
        for _ in 0..ROUNDS {
            let mut time = |layer: &'static str, seconds: f64| {
                times.entry(layer).or_default().push(seconds);
            };
            let span = |layer: &str| collector.span(&format!("layers/{layer}"));
            {
                let _span = span("synth.trace");
                time("synth.trace", inputs.synth_trace()?);
            }
            {
                let _span = span("synth.stream");
                time("synth.stream", inputs.synth_stream()?);
            }
            {
                let _span = span("synth.keystream");
                time("synth.keystream", inputs.keystream());
            }
            {
                let _span = span("predict.bank");
                time("predict.bank", inputs.bank()?);
            }
            {
                let _span = span("predict.solo");
                time("predict.solo", inputs.solo()?);
            }
            {
                let _span = span("sim.node");
                let (steps, checkpoints) = inputs.node()?;
                time("sim.node", steps);
                time("sim.checkpoint", checkpoints);
            }
            {
                let _span = span("score");
                time("score", inputs.score());
            }
            {
                let _span = span("engine.append");
                for append in inputs.delta.sample(&Collector::noop())?.appends_s {
                    time("engine.append", append);
                }
            }
            {
                let _span = span("merge");
                time("merge", inputs.merge()?);
            }
            {
                let _span = span("obs.scorecard_json");
                time("obs.scorecard_json", inputs.scorecard_json()?);
            }
            {
                let _span = span("harness.artifact_io");
                time("obs.fsio_write", inputs.fsio_write()?);
                time("harness.artifact_read", inputs.artifact_read()?);
            }
            {
                let _span = span("harness.floor");
                let (wall, cpu) = inputs.floor()?;
                time("harness.floor", wall);
                time("harness.floor_cpu", cpu);
            }
        }
        std::fs::remove_file(&inputs.artifact_path)
            .map_err(|e| format!("{}: {e}", inputs.artifact_path.display()))?;

        let med = |layer: &str| median(&times[layer]);
        let slots = inputs.total_slots;
        Ok(LayerCosts {
            trace_ns_per_slot: ns_per(med("synth.trace"), slots),
            stream_ns_per_slot: ns_per(med("synth.stream"), slots),
            keystream_ns_per_word: ns_per(med("synth.keystream"), KEYSTREAM_WORDS),
            bank_ns_per_candidate_slot: ns_per(med("predict.bank"), slots * inputs.banked.len()),
            solo_ns_per_slot: ns_per(med("predict.solo"), slots * inputs.solo.len()),
            node_ns_per_job_slot: ns_per(med("sim.node"), slots * inputs.managers.len()),
            checkpoint_ns: ns_per(
                med("sim.checkpoint"),
                inputs.slot_inputs.len() * inputs.managers.len() * CHECKPOINT_PAIRS,
            ),
            score_ns_per_record: ns_per(med("score"), slots),
            append_s_p50: med("engine.append"),
            merge_shards_s: med("merge"),
            scorecard_json_s: med("obs.scorecard_json"),
            fsio_write_s: med("obs.fsio_write"),
            artifact_read_s: med("harness.artifact_read"),
            floor_s: med("harness.floor"),
            floor_cpu_s: med("harness.floor_cpu"),
        })
    }
}

/// A per-layer metric: name, value, unit.
pub type Metric = (&'static str, f64, &'static str);

/// Modelled seconds of each layer for the work `ledger` recorded, on a
/// matrix of `jobs_per_unit` jobs per scenario.
fn model(
    kind: Kind,
    costs: &LayerCosts,
    ledger: &Ledger,
    jobs_per_unit: f64,
) -> Vec<(&'static str, f64)> {
    let (mut synth, mut predict, mut sim, mut score, mut checkpoint) = (0.0, 0.0, 0.0, 0.0, 0.0);
    for name in ledger.scenario_names() {
        let count = |key: &str| ledger.scenario_counter(name, key) as f64;
        // Per-scenario counters add up over every run that evaluated
        // the scenario (seven in a delta week); `slots/processed` is
        // already the total walked, the kernel counts are per run.
        let runs = count("jobs/fresh") / jobs_per_unit;
        if runs == 0.0 {
            continue;
        }
        let slots = count("slots/processed");
        // A streamed pass, and the ROI pre-pass some streamed units
        // add, each walk the slots the unit processed; a materialized
        // unit's trace was generated (or extended) over those slots.
        let streamed = count("synth/streamed_passes");
        synth += if streamed > 0.0 {
            slots * (streamed + count("synth/roi_prepasses")) / streamed * costs.stream_ns_per_slot
        } else {
            slots * costs.trace_ns_per_slot
        };
        let banked = count("bank/banked_candidates") / runs;
        let solo = count("bank/solo_predictors") / runs;
        predict +=
            slots * (banked * costs.bank_ns_per_candidate_slot + solo * costs.solo_ns_per_slot);
        sim += slots * jobs_per_unit * costs.node_ns_per_job_slot;
        score += slots * (banked + solo) * costs.score_ns_per_record;
        checkpoint += count("jobs/fresh") * costs.checkpoint_ns;
    }
    let mut terms = vec![
        ("synth", synth * 1e-9),
        ("predict", predict * 1e-9),
        ("sim", sim * 1e-9),
        ("score", score * 1e-9),
        ("sim.checkpoint", checkpoint * 1e-9),
    ];
    if kind == Kind::Supervised200 {
        terms.push(("merge", costs.merge_shards_s));
        terms.push(("obs.scorecard_json", costs.scorecard_json_s));
        terms.push((
            "harness.artifact_io",
            WORKERS as f64 * (costs.fsio_write_s + costs.artifact_read_s),
        ));
        terms.push(("harness.floor", costs.floor_cpu_s));
    }
    terms
}

/// Builds the per-layer metrics of a traced run from the isolated
/// `costs`, the `ledger` of its first traced sample (on a matrix of
/// `jobs_per_unit` jobs per scenario), and its `traced` samples against
/// the median untraced sample; also returns the modelled seconds of
/// each layer.
pub fn summarize(
    kind: Kind,
    costs: &LayerCosts,
    ledger: &Ledger,
    jobs_per_unit: f64,
    traced: &[Traced],
    untraced_p50: f64,
) -> (Vec<Metric>, Vec<(&'static str, f64)>) {
    let model_s = model(kind, costs, ledger, jobs_per_unit);
    let modelled: f64 = model_s.iter().map(|(_, s)| s).sum();
    let cpu: Vec<f64> = traced.iter().map(|t| t.cpu_s).collect();
    let walls: Vec<f64> = traced.iter().map(|t| t.wall_s).collect();
    let count = |key: &str| ledger.counter(key) as f64;
    let day_appends = count("delta/day_appends");
    let resume_ratio = if day_appends > 0.0 {
        count("delta/resumed_units") / day_appends
    } else {
        0.0
    };
    let metrics = vec![
        ("synth.trace_ns_per_slot", costs.trace_ns_per_slot, "ns"),
        ("synth.stream_ns_per_slot", costs.stream_ns_per_slot, "ns"),
        (
            "synth.keystream_ns_per_word",
            costs.keystream_ns_per_word,
            "ns",
        ),
        (
            "predict.bank_ns_per_candidate_slot",
            costs.bank_ns_per_candidate_slot,
            "ns",
        ),
        ("predict.solo_ns_per_slot", costs.solo_ns_per_slot, "ns"),
        ("sim.node_ns_per_job_slot", costs.node_ns_per_job_slot, "ns"),
        ("sim.checkpoint_ns", costs.checkpoint_ns, "ns"),
        ("score.ns_per_record", costs.score_ns_per_record, "ns"),
        ("engine.append_s.p50", costs.append_s_p50, "s"),
        ("delta.resume_ratio", resume_ratio, "ratio"),
        (
            "delta.cold_fallbacks",
            count("delta/cold_fallbacks"),
            "count",
        ),
        (
            "delta.peak_fallbacks",
            count("delta/peak_fallbacks"),
            "count",
        ),
        (
            "delta.trace_extensions",
            count("delta/trace_extensions"),
            "count",
        ),
        ("merge.shards_s", costs.merge_shards_s, "s"),
        ("obs.scorecard_json_s", costs.scorecard_json_s, "s"),
        ("obs.fsio_write_s", costs.fsio_write_s, "s"),
        ("harness.artifact_read_s", costs.artifact_read_s, "s"),
        ("harness.floor_s", costs.floor_s, "s"),
        (
            "synth.keystream_blocks",
            count("synth/keystream_blocks"),
            "count",
        ),
        ("synth.normal_draws", count("synth/normal_draws"), "count"),
        (
            "synth.trace_generations",
            count("synth/trace_generations"),
            "count",
        ),
        (
            "synth.streamed_passes",
            count("synth/streamed_passes"),
            "count",
        ),
        (
            "admission.streamed_scenarios",
            count("admission/streamed_scenarios"),
            "count",
        ),
        (
            "bank.banked_candidates",
            count("bank/banked_candidates"),
            "count",
        ),
        (
            "bank.solo_predictors",
            count("bank/solo_predictors"),
            "count",
        ),
        ("slots.processed", count("slots/processed"), "count"),
        ("jobs.evaluated", count("jobs/evaluated"), "count"),
        ("harness.spawns", count("harness/spawns"), "count"),
        ("harness.retries", count("harness/retries"), "count"),
        ("model.coverage", modelled / median(&cpu), "ratio"),
        ("trace.overhead", median(&walls) / untraced_p50, "ratio"),
    ];
    (metrics, model_s)
}
