//! The worker half of the harness: evaluate one shard of a workload
//! in-process and land the result on disk as a checksummed artifact.
//!
//! A worker is the unit the supervisor retries, times out, and kills —
//! so everything it produces must be legible from outside the process:
//! the shard's ranking tables, the manifest it believed in, the
//! scenarios it had to quarantine, and its deterministic ledger, all in
//! one [`ShardRunArtifact`]. The artifact is written atomically
//! ([`crate::artifact`]), so a worker that dies mid-write leaves either
//! nothing or a complete, verifiable file — never a half-truth the
//! merge could ingest.
//!
//! Shard assignment is positional round-robin over the *full* matrix
//! (`scenario index % shard_count`), exactly the split
//! [`FleetEngine::run_sharded`](scenario_fleet::FleetEngine) uses
//! in-process — which is what makes "1 host ≡ N processes" hold
//! byte-for-byte: per-scenario seeds derive from (master seed, scenario
//! name), so evaluating a sub-matrix reproduces the full run's tables
//! for those scenarios exactly.

use std::path::PathBuf;

use scenario_fleet::{
    Collector, FleetMatrix, QuarantinedScenario, Scorecard, ScorecardShard, ShardManifest,
};

use crate::artifact::{self, ArtifactError, ArtifactErrorKind};
use crate::chaos::{ChaosMode, ChaosPlan};
use crate::exit;
use crate::workload::Workload;

/// Envelope kind of a shard-run artifact.
pub const SHARD_RUN_KIND: &str = "shard-run";
/// Payload schema id of a shard-run artifact.
pub const SHARD_RUN_SCHEMA: &str = "fleet-shard-run/1";

/// Chaos coordinates of one worker attempt.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ChaosSpec {
    /// The chaos seed (shared by every attempt of a run).
    pub seed: u64,
    /// Which attempt this is, 0-based — the supervisor increments it on
    /// every retry so the plan can schedule a clean tail.
    pub attempt: u32,
}

/// One worker invocation: which shard, where to land the artifact, and
/// what (if any) chaos to self-inject.
#[derive(Clone, Debug)]
pub struct WorkerConfig {
    /// This worker's shard in `0..shard_count`.
    pub shard_index: usize,
    /// Total shard count.
    pub shard_count: usize,
    /// Where the artifact lands.
    pub out_path: PathBuf,
    /// Deterministic self-sabotage, if any.
    pub chaos: Option<ChaosSpec>,
    /// Fail unconditionally (exit nonzero, no artifact) — the
    /// degradation drills' way of exhausting a retry budget.
    pub fail: bool,
}

/// Everything one completed worker attempt hands the supervisor.
#[derive(Clone, Debug, PartialEq)]
pub struct ShardRunArtifact {
    /// This worker's shard index.
    pub shard_index: usize,
    /// Total shard count the worker assumed.
    pub shard_count: usize,
    /// The full-matrix manifest the worker derived — the supervisor
    /// cross-checks it field-for-field against its own expectation.
    pub manifest: ShardManifest,
    /// The shard's ranking tables and cost.
    pub shard: ScorecardShard,
    /// Scenarios whose work units panicked and were quarantined
    /// (empty on a clean run).
    pub quarantined: Vec<QuarantinedScenario>,
    /// The worker's deterministic ledger.
    pub ledger: fleet_obs::Ledger,
}

impl ShardRunArtifact {
    /// The deterministic JSON payload.
    pub fn to_json(&self) -> fleet_obs::json::Json {
        use fleet_obs::json::Json;
        Json::obj([
            ("schema", Json::Str(SHARD_RUN_SCHEMA.to_string())),
            ("shard_index", Json::Num(self.shard_index as f64)),
            ("shard_count", Json::Num(self.shard_count as f64)),
            ("manifest", self.manifest.to_json()),
            ("shard", self.shard.to_json()),
            (
                "quarantined",
                Json::Arr(
                    self.quarantined
                        .iter()
                        .map(|q| {
                            Json::obj([
                                ("scenario", Json::Str(q.scenario.clone())),
                                ("error", Json::Str(q.error.clone())),
                            ])
                        })
                        .collect(),
                ),
            ),
            ("ledger", self.ledger.to_json()),
        ])
    }

    /// Parses the JSON payload.
    pub fn from_json(value: &fleet_obs::json::Json) -> Result<ShardRunArtifact, String> {
        let schema = value.req_str("schema")?;
        if schema != SHARD_RUN_SCHEMA {
            return Err(format!("unsupported shard-run schema {schema:?}"));
        }
        Ok(ShardRunArtifact {
            shard_index: value.req_index("shard_index")? as usize,
            shard_count: value.req_index("shard_count")? as usize,
            manifest: ShardManifest::from_json(value.req("manifest")?)?,
            shard: ScorecardShard::from_json(value.req("shard")?)?,
            quarantined: value
                .req("quarantined")?
                .as_arr()
                .ok_or("quarantined must be an array")?
                .iter()
                .map(|q| {
                    Ok(QuarantinedScenario {
                        scenario: q.req_str("scenario")?.to_string(),
                        error: q.req_str("error")?.to_string(),
                    })
                })
                .collect::<Result<Vec<_>, String>>()?,
            ledger: fleet_obs::Ledger::from_json(value.req("ledger")?)?,
        })
    }

    /// Writes the artifact atomically under the checksummed envelope.
    pub fn write_atomic(&self, path: &std::path::Path) -> Result<(), String> {
        artifact::write_artifact_atomic(
            path,
            SHARD_RUN_KIND,
            self.to_json().render_pretty().as_bytes(),
        )
    }

    /// Reads and fully verifies an artifact: envelope checksum, JSON
    /// payload, schema. Every failure is a typed [`ArtifactError`].
    pub fn read(path: &std::path::Path) -> Result<ShardRunArtifact, ArtifactError> {
        let json = artifact::read_artifact_json(path, SHARD_RUN_KIND)?;
        Self::from_json(&json).map_err(|e| ArtifactError {
            artifact: path.display().to_string(),
            offset: None,
            kind: ArtifactErrorKind::Payload(e),
        })
    }
}

/// The round-robin manifest of `matrix` split `shard_count` ways —
/// identical to the in-process sharded reduction's split.
pub fn shard_manifest(matrix: &FleetMatrix, master_seed: u64, shard_count: usize) -> ShardManifest {
    ShardManifest {
        master_seed,
        shard_count,
        scenarios: matrix
            .scenarios
            .iter()
            .enumerate()
            .map(|(idx, s)| (s.name.clone(), idx % shard_count))
            .collect(),
    }
}

/// The sub-matrix of `matrix` owned by `shard_index` under the
/// round-robin split.
pub fn shard_sub_matrix(
    matrix: &FleetMatrix,
    shard_index: usize,
    shard_count: usize,
) -> Result<FleetMatrix, String> {
    let scenarios: Vec<_> = matrix
        .scenarios
        .iter()
        .enumerate()
        .filter(|(idx, _)| idx % shard_count == shard_index)
        .map(|(_, s)| s.clone())
        .collect();
    FleetMatrix::new(
        matrix.predictors.clone(),
        matrix.managers.clone(),
        scenarios,
    )
}

/// Runs the full worker protocol for one attempt: chaos gates, shard
/// evaluation, atomic artifact write, post-write corruption (chaos
/// again). Returns the process exit code the caller should exit with.
///
/// # Errors
///
/// Usage-level problems (bad shard coordinates, un-shardable matrix) —
/// the caller maps these to [`exit::USAGE`].
pub fn run_worker(workload: &Workload, config: &WorkerConfig) -> Result<i32, String> {
    if config.shard_count == 0 || config.shard_index >= config.shard_count {
        return Err(format!(
            "shard {}/{} out of range",
            config.shard_index, config.shard_count
        ));
    }
    if config.fail {
        // The degradation drill: burn the attempt without a trace.
        return Ok(exit::FAILED);
    }
    let mode = match config.chaos {
        Some(spec) => ChaosPlan::new(spec.seed).mode(config.shard_index, spec.attempt),
        None => ChaosMode::Clean,
    };
    match mode {
        ChaosMode::ExitMidRun => return Ok(exit::CHAOS_KILLED),
        ChaosMode::Stall => {
            // Hang until the supervisor loses patience and kills us.
            // Bounded so an unsupervised chaos worker still terminates.
            std::thread::sleep(std::time::Duration::from_secs(3600));
            return Ok(exit::FAILED);
        }
        _ => {}
    }

    let matrix = workload.matrix()?;
    if !matrix.fleet_faults.is_empty() {
        // Correlated fleet faults project against the full scenario
        // list; slicing the matrix first would change what they hit.
        return Err("fleet-fault matrices cannot be process-sharded".to_string());
    }
    if config.shard_count > matrix.scenarios.len() {
        return Err(format!(
            "{} shards over {} scenarios leaves empty shards",
            config.shard_count,
            matrix.scenarios.len()
        ));
    }
    let manifest = shard_manifest(&matrix, workload.seed, config.shard_count);
    let sub_matrix = shard_sub_matrix(&matrix, config.shard_index, config.shard_count)?;

    let collector = Collector::recording();
    let mut engine = workload
        .engine()
        .with_collector(collector.clone())
        .with_quarantine(true);
    if mode == ChaosMode::PanicUnit {
        // Deterministic target: the shard's first scenario.
        engine = engine.with_chaos_unit_panic(&sub_matrix.scenarios[0].name);
    }
    let result = engine.run(&sub_matrix)?;

    let artifact = ShardRunArtifact {
        shard_index: config.shard_index,
        shard_count: config.shard_count,
        manifest,
        shard: ScorecardShard {
            shard_index: config.shard_index,
            master_seed: workload.seed,
            per_scenario: Scorecard::per_scenario_rankings(&sub_matrix, &result.outcomes),
            cost: pred_metrics::CostAggregate::of(result.outcomes.iter().map(|o| o.cost)),
        },
        quarantined: result.quarantined,
        ledger: collector.ledger(),
    };
    artifact.write_atomic(&config.out_path)?;

    // Post-write corruption: the artifact was written correctly and
    // atomically; now damage it the way a failing medium would.
    if matches!(
        mode,
        ChaosMode::TruncateArtifact | ChaosMode::BitFlipArtifact
    ) {
        let spec = config.chaos.expect("chaos mode implies chaos spec");
        let plan = ChaosPlan::new(spec.seed);
        let mut bytes = std::fs::read(&config.out_path).map_err(|e| e.to_string())?;
        let (offset, bit) =
            plan.corruption_site(config.shard_index, spec.attempt, bytes.len() as u64);
        match mode {
            ChaosMode::TruncateArtifact => bytes.truncate(offset.max(1) as usize),
            _ => bytes[offset as usize] ^= 1 << bit,
        }
        std::fs::write(&config.out_path, &bytes).map_err(|e| e.to_string())?;
    }
    Ok(exit::SUCCESS)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::WorkloadKind;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("harness_worker_{tag}_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn worker_shards_merge_to_the_monolithic_scorecard() {
        let workload = Workload::new(42, WorkloadKind::Tiny);
        let dir = temp_dir("merge");
        let shard_count = 2;

        let mut shards = Vec::new();
        let mut manifest = None;
        for shard_index in 0..shard_count {
            let out = dir.join(format!("shard_{shard_index}.artifact"));
            let code = run_worker(
                &workload,
                &WorkerConfig {
                    shard_index,
                    shard_count,
                    out_path: out.clone(),
                    chaos: None,
                    fail: false,
                },
            )
            .unwrap();
            assert_eq!(code, exit::SUCCESS);
            let artifact = ShardRunArtifact::read(&out).unwrap();
            assert!(artifact.quarantined.is_empty());
            manifest = Some(artifact.manifest.clone());
            shards.push(artifact.shard);
        }

        let merged = Scorecard::merge_shards(&manifest.unwrap(), &shards).unwrap();
        let reference = workload.engine().run(&workload.matrix().unwrap()).unwrap();
        assert_eq!(
            merged.to_json_string(),
            reference.scorecard.to_json_string(),
            "N worker processes must reproduce the single-process scorecard byte-for-byte"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn golden_sized_artifact_round_trips_through_the_envelope() {
        // Shard 0 of 2 over the golden matrix: 100 scenarios, about
        // 100 KB of JSON, the document the supervisor decodes per shard.
        let workload = Workload::new(2026, WorkloadKind::Golden200);
        let dir = temp_dir("golden_round_trip");
        let written = dir.join("shard_0.artifact");
        let code = run_worker(
            &workload,
            &WorkerConfig {
                shard_index: 0,
                shard_count: 2,
                out_path: written.clone(),
                chaos: None,
                fail: false,
            },
        )
        .unwrap();
        assert_eq!(code, exit::SUCCESS);
        let artifact = ShardRunArtifact::read(&written).unwrap();
        assert_eq!(artifact.shard.per_scenario.len(), 100);
        let payload_len = artifact.to_json().render_pretty().len();
        assert!(payload_len > 64 << 10, "payload is only {payload_len} B");
        let copy = dir.join("copy.artifact");
        artifact.write_atomic(&copy).unwrap();
        assert_eq!(ShardRunArtifact::read(&copy).unwrap(), artifact);
        assert_eq!(
            std::fs::read(&copy).unwrap(),
            std::fs::read(&written).unwrap(),
            "re-encoding a decoded artifact must reproduce its bytes"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn panic_unit_chaos_quarantines_and_still_lands_a_valid_artifact() {
        let workload = Workload::new(42, WorkloadKind::Tiny);
        let dir = temp_dir("panic");
        // Find chaos coordinates that schedule PanicUnit for shard 0.
        let (seed, attempt) = (0u64..)
            .find_map(|seed| {
                let plan = ChaosPlan::new(seed);
                (0..plan.fail_attempts(0))
                    .find(|&a| plan.mode(0, a) == ChaosMode::PanicUnit)
                    .map(|a| (seed, a))
            })
            .unwrap();
        let out = dir.join("shard_0.artifact");
        let code = run_worker(
            &workload,
            &WorkerConfig {
                shard_index: 0,
                shard_count: 2,
                out_path: out.clone(),
                chaos: Some(ChaosSpec { seed, attempt }),
                fail: false,
            },
        )
        .unwrap();
        assert_eq!(code, exit::SUCCESS);
        let artifact = ShardRunArtifact::read(&out).unwrap();
        assert_eq!(artifact.quarantined.len(), 1);
        assert!(artifact.quarantined[0].error.contains("panicked"));
        // The quarantined scenario's table is present but empty — the
        // partial merge turns exactly that into a coverage hole.
        let tables = &artifact.shard.per_scenario;
        assert!(tables.iter().any(|t| t.entries.is_empty()));
        assert!(tables.iter().any(|t| !t.entries.is_empty()));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corruption_chaos_produces_detectably_bad_artifacts() {
        let workload = Workload::new(42, WorkloadKind::Tiny);
        let dir = temp_dir("corrupt");
        for wanted in [ChaosMode::TruncateArtifact, ChaosMode::BitFlipArtifact] {
            let (seed, attempt) = (0u64..)
                .find_map(|seed| {
                    let plan = ChaosPlan::new(seed);
                    (0..plan.fail_attempts(1))
                        .find(|&a| plan.mode(1, a) == wanted)
                        .map(|a| (seed, a))
                })
                .unwrap();
            let out = dir.join(format!("{}.artifact", wanted.name()));
            run_worker(
                &workload,
                &WorkerConfig {
                    shard_index: 1,
                    shard_count: 2,
                    out_path: out.clone(),
                    chaos: Some(ChaosSpec { seed, attempt }),
                    fail: false,
                },
            )
            .unwrap();
            let err = ShardRunArtifact::read(&out).unwrap_err();
            assert!(
                err.is_corruption() || matches!(err.kind, ArtifactErrorKind::Header(_)),
                "{wanted:?} must be detected, got: {err}"
            );
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
