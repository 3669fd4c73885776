//! The four benchmark workloads: their set-up, one timed sample each,
//! and the check every sample's output must pass.
//!
//! Every host-dependent input is pinned here: the trace cache is a
//! fixed 4 MiB budget (never the adaptive policy, which reads the
//! host's free memory), in-process runs use exactly
//! [`IN_PROCESS_THREADS`] threads, and supervised runs use [`WORKERS`]
//! worker processes of one thread each.

use std::cell::Cell;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use fleet_harness::{
    run_supervisor, RunOutcome, SupervisorConfig, SupervisorRun, Workload, WorkloadKind,
};
use scenario_fleet::{Collector, FleetCache, FleetDelta, FleetEngine, FleetMatrix};

/// Seed of the pinned golden matrix.
pub const GOLDEN_SEED: u64 = 2026;
/// FNV-1a digest of the golden 200-regime scorecard at [`GOLDEN_SEED`].
pub const GOLDEN_DIGEST: u64 = 0xf6f8_c0ad_9b38_dde4;
/// Trace-cache budget of every in-process and worker engine.
pub const TRACE_BUDGET_BYTES: u64 = 4 << 20;
/// Threads of every in-process engine.
pub const IN_PROCESS_THREADS: usize = 2;
/// Worker processes of every supervised run (one thread each).
pub const WORKERS: usize = 2;
/// Day-appends chained into one `delta200` sample.
pub const WEEK_DAYS: usize = 7;
/// Wall-clock budget of one worker attempt: a hung worker fails its
/// sample instead of outliving the benchmark's own time limit.
const WORKER_TIMEOUT: Duration = Duration::from_secs(60);

/// A benchmark workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// A cold run of the golden matrix: 200 regimes × one WCMA × one
    /// manager, so synthesis and per-unit engine overhead dominate.
    Golden200,
    /// The same 200 regimes × 8 predictors × 3 managers: node
    /// machines, solo predictors, the bank and scoring dominate.
    Wide200,
    /// A week of chained day-appends on a warm golden cache: the
    /// engine's checkpoint-resume write path.
    Delta200,
    /// The golden matrix through the supervisor and two worker
    /// processes: spawn, artifact I/O and merge.
    Supervised200,
}

impl Kind {
    /// Every workload, in the order `BENCHMARK.json` lists them.
    pub const ALL: [Kind; 4] = [
        Kind::Golden200,
        Kind::Wide200,
        Kind::Delta200,
        Kind::Supervised200,
    ];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Kind::Golden200 => "golden200",
            Kind::Wide200 => "wide200",
            Kind::Delta200 => "delta200",
            Kind::Supervised200 => "supervised200",
        }
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Result<Kind, String> {
        Kind::ALL
            .into_iter()
            .find(|kind| kind.name() == name)
            .ok_or_else(|| format!("unknown workload {name:?}"))
    }

    /// The harness workload this benchmark workload expands.
    fn workload(self, seed: u64, threads: usize) -> Workload {
        let kind = match self {
            Kind::Wide200 => WorkloadKind::Generated { count: 200 },
            Kind::Golden200 | Kind::Delta200 | Kind::Supervised200 => WorkloadKind::Golden200,
        };
        Workload::new(seed, kind)
            .with_budget(TRACE_BUDGET_BYTES)
            .with_threads(threads)
    }
}

/// FNV-1a digest of a rendered scorecard.
pub fn digest(scorecard_json: &str) -> u64 {
    solar_trace::hash::fnv1a(scorecard_json)
}

/// One timed sample.
#[derive(Clone, Debug)]
pub struct Sample {
    /// Wall time of the timed region.
    pub wall_s: f64,
    /// The sample's scorecard, rendered after the timed region.
    pub scorecard: String,
    /// Wall time of each `run_delta` call (`delta200` only).
    pub appends_s: Vec<f64>,
}

/// What a sample's scorecard must equal.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Expected {
    /// The scorecard hashes to this digest.
    Digest(u64),
    /// The scorecard is byte-equal to this text.
    Bytes(String),
}

impl Expected {
    /// Checks one sample's scorecard.
    pub fn check(&self, scorecard: &str) -> Result<(), String> {
        match self {
            Expected::Digest(expected) => {
                let got = digest(scorecard);
                if got == *expected {
                    Ok(())
                } else {
                    Err(format!(
                        "scorecard hashes to {got:#018x}, expected {expected:#018x}"
                    ))
                }
            }
            Expected::Bytes(expected) if expected == scorecard => Ok(()),
            Expected::Bytes(_) => {
                Err("scorecard differs from the cold run at the same horizon".to_string())
            }
        }
    }
}

/// The chained day-appends of a `delta200` sample.
struct Week {
    /// The cache warmed at the base horizon.
    warm: FleetCache,
    /// The matrix at the base horizon and after each appended day.
    horizons: Vec<FleetMatrix>,
}

/// Everything the timed samples of one workload reuse.
pub struct Prepared {
    kind: Kind,
    seed: u64,
    matrix: FleetMatrix,
    engine: FleetEngine,
    week: Option<Week>,
    artifact_dir: PathBuf,
    /// Largest peak resident set any worker of this set-up reported.
    worker_peak_kib: Cell<u64>,
}

impl Prepared {
    /// The set-up `setup_s` times: catalog expansion, the fleet matrix
    /// and the engine, plus — for `delta200` — the cache warmed at the
    /// base horizon. `threads` pins the in-process engine;
    /// `artifact_dir` receives supervised runs' shard artifacts.
    pub fn new(
        kind: Kind,
        seed: u64,
        threads: usize,
        artifact_dir: &Path,
    ) -> Result<Prepared, String> {
        let workload = kind.workload(seed, threads);
        let matrix = workload.matrix()?;
        let engine = workload.engine();
        let week = match kind {
            Kind::Delta200 => {
                let mut warm = engine.new_cache();
                engine.run_cached(&matrix, &mut warm)?;
                let horizons = (0..=WEEK_DAYS)
                    .map(|day| {
                        let mut grown = matrix.clone();
                        for scenario in &mut grown.scenarios {
                            scenario.days += day;
                        }
                        grown
                    })
                    .collect();
                Some(Week { warm, horizons })
            }
            _ => None,
        };
        Ok(Prepared {
            kind,
            seed,
            matrix,
            engine,
            week,
            artifact_dir: artifact_dir.to_path_buf(),
            worker_peak_kib: Cell::new(0),
        })
    }

    /// The workload.
    pub fn kind(&self) -> Kind {
        self.kind
    }

    /// The matrix the samples evaluate (the base horizon for
    /// `delta200`).
    pub fn matrix(&self) -> &FleetMatrix {
        &self.matrix
    }

    /// The largest peak resident set, in KiB, any worker process of
    /// this set-up's supervised runs reported.
    pub fn worker_peak_kib(&self) -> u64 {
        self.worker_peak_kib.get()
    }

    /// A complete supervised run of the golden matrix at this seed and
    /// its wall time; any other outcome is an error.
    fn supervise(&self, collector: &Collector) -> Result<(SupervisorRun, f64), String> {
        let program = std::env::current_exe().map_err(|e| format!("current executable: {e}"))?;
        let workload = Kind::Supervised200.workload(self.seed, 1);
        let mut config = SupervisorConfig::new(program, workload, WORKERS);
        config.artifact_dir = self.artifact_dir.clone();
        config.timeout = WORKER_TIMEOUT;
        let started = Instant::now();
        let run = run_supervisor(&config, collector)?;
        let wall_s = started.elapsed().as_secs_f64();
        let peak = crate::sys::collect_worker_peaks(&self.artifact_dir)?;
        self.worker_peak_kib
            .set(self.worker_peak_kib.get().max(peak));
        if run.outcome != RunOutcome::Complete {
            return Err(format!("supervised run ended {}", run.outcome.name()));
        }
        Ok((run, wall_s))
    }

    /// Runs one sample. `collector` is attached to the engine or
    /// supervisor: the no-op collector for untraced samples, a
    /// recording one for traced samples.
    pub fn sample(&self, collector: &Collector) -> Result<Sample, String> {
        let engine = self.engine.clone().with_collector(collector.clone());
        match self.kind {
            Kind::Golden200 | Kind::Wide200 => {
                let started = Instant::now();
                let result = engine.run(&self.matrix)?;
                let wall_s = started.elapsed().as_secs_f64();
                Ok(Sample {
                    wall_s,
                    scorecard: result.scorecard.to_json_string(),
                    appends_s: Vec::new(),
                })
            }
            Kind::Delta200 => {
                let week = self.week.as_ref().expect("delta200 set-up warms a cache");
                // The clone stands for yesterday's cache and stays
                // outside the timed region.
                let mut cache = week.warm.clone();
                let mut appends_s = Vec::with_capacity(WEEK_DAYS);
                let mut last = None;
                let started = Instant::now();
                for pair in week.horizons.windows(2) {
                    let append_started = Instant::now();
                    let delta = FleetDelta::classify(&pair[0], &pair[1])?;
                    last = Some(engine.run_delta(&pair[1], &mut cache, &delta)?);
                    appends_s.push(append_started.elapsed().as_secs_f64());
                }
                let wall_s = started.elapsed().as_secs_f64();
                let last = last.expect("a week has appends");
                Ok(Sample {
                    wall_s,
                    scorecard: last.scorecard.to_json_string(),
                    appends_s,
                })
            }
            Kind::Supervised200 => {
                let (run, wall_s) = self.supervise(collector)?;
                let scorecard = run
                    .scorecard
                    .ok_or("a complete supervised run carries a scorecard")?;
                Ok(Sample {
                    wall_s,
                    scorecard: scorecard.to_json_string(),
                    appends_s: Vec::new(),
                })
            }
        }
    }

    /// What every sample must produce, computed outside any timed
    /// region. `golden200` and `supervised200` are checked against each
    /// other's path (and the pinned digest at [`GOLDEN_SEED`]);
    /// `delta200` against a cold run at the final horizon; `wide200`
    /// against its own first sample, so `None` here.
    pub fn reference(&self) -> Result<Option<Expected>, String> {
        let cross = match self.kind {
            Kind::Wide200 => return Ok(None),
            Kind::Delta200 => {
                let week = self.week.as_ref().expect("delta200 set-up warms a cache");
                let last = week.horizons.last().expect("a week has horizons");
                let cold = self.engine.run(last)?;
                return Ok(Some(Expected::Bytes(cold.scorecard.to_json_string())));
            }
            Kind::Golden200 => self
                .supervise(&Collector::noop())?
                .0
                .scorecard
                .ok_or("a complete supervised run carries a scorecard")?
                .to_json_string(),
            Kind::Supervised200 => self.engine.run(&self.matrix)?.scorecard.to_json_string(),
        };
        let cross = digest(&cross);
        if self.seed == GOLDEN_SEED && cross != GOLDEN_DIGEST {
            return Err(format!(
                "reference scorecard hashes to {cross:#018x}, not the pinned {GOLDEN_DIGEST:#018x}"
            ));
        }
        Ok(Some(Expected::Digest(cross)))
    }
}
