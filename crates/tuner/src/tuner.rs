//! The closed tuning loop: scorecard → parameter search → re-score.
//!
//! One [`FleetTuner::tune`] call runs:
//!
//! 1. a **global pass** — coarse-to-fine (α, D, K) search over *all*
//!    scenarios at once, the paper's one-size-fits-all analogue;
//! 2. a **per-regime pass** — the same search repeated on each climate
//!    regime's scenarios, with the global winner and the paper's
//!    guideline always in the candidate pool (so a regime can never
//!    tune itself *worse* than the global default — a property test
//!    pins this);
//! 3. a **deployment pass** per regime — the tuned parameters re-scored
//!    through the Q16.16 fixed-point kernel, and the causal
//!    dynamic-(α, K) selector's score-decay threshold searched over the
//!    configured candidates.
//!
//! Every score is a full [`FleetEngine`] evaluation (metrics pass +
//! managed-simulation pass, faults included), and **one shared
//! [`FleetCache`]** carries the whole loop: a (scenario, predictor,
//! manager) job is evaluated exactly once no matter how many rounds or
//! passes ask for it, and a cached answer is byte-identical to a fresh
//! one. That incremental re-scoring is what makes the loop affordable —
//! the `fleet_tuner` bench measures the difference.

use crate::regime::{group_by_regime, Regime};
use crate::report::{RegimeRow, TunedParams, TuningReport};
use crate::search::{search_wcma, SearchBudget, SearchResult};
use fleet_obs::Collector;
use param_explore::ParamGrid;
use scenario_fleet::{
    FleetCache, FleetEngine, FleetMatrix, ManagerSpec, PredictorSpec, Scenario, TraceCachePolicy,
};

/// Everything a tuning loop needs to know.
#[derive(Clone, Debug)]
pub struct TunerConfig {
    /// Master seed of every engine evaluation.
    pub master_seed: u64,
    /// Worker-thread pin (`None` = all cores).
    pub threads: Option<usize>,
    /// The coarse (α, D, K) grid each search starts from.
    pub grid: ParamGrid,
    /// Convergence budget of each search (global and per regime).
    pub budget: SearchBudget,
    /// Power managers to rank under; a predictor's score is its best
    /// manager pairing.
    pub managers: Vec<ManagerSpec>,
    /// Candidate score-decay thresholds for the dynamic selector.
    pub dynamic_decays: Vec<f64>,
    /// The dynamic selector's candidate α set.
    pub dynamic_alphas: Vec<f64>,
    /// The dynamic selector's K ceiling (clamped to the regime's
    /// discretization).
    pub dynamic_k_max: usize,
    /// Trace-cache policy of every engine evaluation (bounded budgets
    /// stream the overflow; results are byte-identical either way).
    pub cache_policy: TraceCachePolicy,
}

impl TunerConfig {
    /// The default loop: a 3 × 3 × 3 coarse grid with two refinement
    /// rounds, the tuned energy-neutral manager, and three decay
    /// candidates.
    pub fn new(master_seed: u64) -> Self {
        TunerConfig {
            master_seed,
            threads: None,
            grid: ParamGrid::builder()
                .alphas(vec![0.0, 0.5, 1.0])
                .days(vec![2, 10, 20])
                .ks(vec![1, 2, 4])
                .build()
                .expect("default grid is valid"),
            budget: SearchBudget::default(),
            managers: vec![ManagerSpec::EnergyNeutral {
                target_soc: 0.5,
                gain: 0.25,
            }],
            dynamic_decays: vec![0.7, 0.85, 0.95],
            dynamic_alphas: vec![0.0, 0.25, 0.5, 0.75, 1.0],
            dynamic_k_max: 6,
            cache_policy: TraceCachePolicy::default(),
        }
    }

    /// A minimal configuration for CI smoke runs and tests: a 2 × 2 × 2
    /// grid, one refinement round, one decay candidate.
    pub fn smoke(master_seed: u64) -> Self {
        TunerConfig {
            grid: ParamGrid::builder()
                .alphas(vec![0.0, 1.0])
                .days(vec![5, 20])
                .ks(vec![1, 2])
                .build()
                .expect("smoke grid is valid"),
            budget: SearchBudget {
                max_rounds: 1,
                max_candidates: 24,
            },
            dynamic_decays: vec![0.85],
            dynamic_alphas: vec![0.0, 0.5, 1.0],
            ..TunerConfig::new(master_seed)
        }
    }

    fn validate(&self) -> Result<(), String> {
        if self.managers.is_empty() {
            return Err("tuner needs at least one manager".to_string());
        }
        if self.dynamic_decays.is_empty() {
            return Err("tuner needs at least one dynamic decay candidate".to_string());
        }
        if self.dynamic_alphas.is_empty() {
            return Err("tuner needs at least one dynamic alpha candidate".to_string());
        }
        if self.dynamic_k_max == 0 {
            return Err("dynamic k_max must be at least 1".to_string());
        }
        if self.budget.max_candidates == 0 {
            return Err("search budget must allow at least one candidate".to_string());
        }
        Ok(())
    }
}

/// The paper's guideline parameters — always in every candidate pool.
pub const GUIDELINE: TunedParams = TunedParams {
    alpha: 0.7,
    days: 10,
    k: 2,
};

/// The per-regime tuning loop.
#[derive(Clone, Debug)]
pub struct FleetTuner {
    config: TunerConfig,
    engine: FleetEngine,
    collector: Collector,
}

/// Scores predictor specs on one scenario set through the shared cache.
/// The spec axis only ever grows, so every `run_cached` call re-ranks
/// everything seen so far while evaluating only the newcomers.
struct Evaluator<'a> {
    engine: &'a FleetEngine,
    cache: &'a mut FleetCache,
    managers: &'a [ManagerSpec],
    scenarios: Vec<Scenario>,
    /// Built on the first `score` call; later calls validate and append
    /// only newly seen specs — `FleetMatrix::new` would re-build every
    /// predictor at every discretization each round, which on warm
    /// (fully cached) rounds would dominate the loop's cost.
    matrix: Option<FleetMatrix>,
}

impl<'a> Evaluator<'a> {
    fn new(
        engine: &'a FleetEngine,
        cache: &'a mut FleetCache,
        managers: &'a [ManagerSpec],
        scenarios: Vec<Scenario>,
    ) -> Self {
        Evaluator {
            engine,
            cache,
            managers,
            scenarios,
            matrix: None,
        }
    }

    /// Scores `specs` (lower is better), in input order: each spec's
    /// best service score over the manager axis, aggregated across this
    /// evaluator's scenarios.
    fn score(&mut self, specs: &[PredictorSpec]) -> Result<Vec<f64>, String> {
        match &mut self.matrix {
            None => {
                let mut axis: Vec<PredictorSpec> = Vec::new();
                for spec in specs {
                    if !axis.contains(spec) {
                        axis.push(spec.clone());
                    }
                }
                self.matrix = Some(FleetMatrix::new(
                    axis,
                    self.managers.to_vec(),
                    self.scenarios.clone(),
                )?);
            }
            Some(matrix) => {
                for spec in specs {
                    if !matrix.predictors.contains(spec) {
                        // The per-spec half of FleetMatrix::new's
                        // validation: buildable at every discretization.
                        for scenario in &matrix.scenarios {
                            spec.build(scenario.slots_per_day as usize)
                                .map_err(|e| format!("scenario {:?}: {e}", scenario.name))?;
                        }
                        matrix.predictors.push(spec.clone());
                    }
                }
            }
        }
        let matrix = self.matrix.as_ref().expect("built above");
        let result = self.engine.run_cached(matrix, self.cache)?;
        specs
            .iter()
            .map(|spec| {
                let label = spec.label();
                result
                    .scorecard
                    .overall
                    .iter()
                    .filter(|e| e.predictor == label)
                    .map(|e| e.score)
                    .min_by(f64::total_cmp)
                    .ok_or_else(|| format!("spec {label:?} missing from scorecard"))
            })
            .collect()
    }
}

impl FleetTuner {
    /// Builds a tuner.
    ///
    /// # Errors
    ///
    /// Rejects configurations with empty manager or decay axes.
    pub fn new(config: TunerConfig) -> Result<Self, String> {
        config.validate()?;
        let mut engine = FleetEngine::new(config.master_seed).with_trace_cache(config.cache_policy);
        if let Some(threads) = config.threads {
            engine = engine.with_threads(threads);
        }
        Ok(FleetTuner {
            config,
            engine,
            collector: Collector::noop(),
        })
    }

    /// Attaches an observability collector: the loop records tuner
    /// spans (`tuner/global`, one `tuner/regime` per regime) and search
    /// telemetry counters, and the inner engine records its evaluation
    /// phases into the same collector. No-op by default.
    pub fn with_collector(mut self, collector: Collector) -> Self {
        self.engine = self.engine.with_collector(collector.clone());
        self.collector = collector;
        self
    }

    /// The engine every evaluation runs through.
    pub fn engine(&self) -> &FleetEngine {
        &self.engine
    }

    /// Runs the whole loop over a scenario set.
    ///
    /// # Errors
    ///
    /// Propagates engine errors (invalid scenario/predictor pairings,
    /// trace-generation failures) and rejects an empty scenario set.
    pub fn tune(&self, scenarios: &[Scenario]) -> Result<TuningReport, String> {
        if scenarios.is_empty() {
            return Err("tuner needs at least one scenario".to_string());
        }
        let config = &self.config;
        let mut cache = self.engine.new_cache();

        // Pass 1: the global optimum (all scenarios at once).
        let global_span = self.collector.span("tuner/global");
        let mut global_eval = Evaluator::new(
            &self.engine,
            &mut cache,
            &config.managers,
            scenarios.to_vec(),
        );
        let ((global, global_overall_score), _, global_searched) =
            Self::search_pool(&mut global_eval, config, &[GUIDELINE])?;
        self.record_search("global", &global_searched);
        drop(global_span);

        // Pass 2 + 3: per-regime search and deployment scoring. A
        // finished regime's cache entries are dead weight for every
        // later pass (regimes partition the scenario set), so the loop
        // prunes the cache down to the still-pending regimes after each
        // one — peak cache footprint tracks the *largest* regime, not
        // the whole fleet. Evicted cost is folded back into the report
        // so the ledger still covers the whole loop.
        let mut rows = Vec::new();
        let mut evicted_cost = pred_metrics::CostAggregate::default();
        let regimes = group_by_regime(scenarios);
        for (index, (regime, members)) in regimes.iter().enumerate() {
            let row = self.tune_regime(*regime, members.clone(), global, &mut cache)?;
            rows.push(row);
            let pending: Vec<Scenario> = regimes[index + 1..]
                .iter()
                .flat_map(|(_, members)| members.iter().cloned())
                .collect();
            if !pending.is_empty() {
                let keep =
                    FleetMatrix::new(vec![GUIDELINE.spec()], config.managers.clone(), pending)?;
                let stats = cache.prune_to(&keep)?;
                evicted_cost.merge(&stats.evicted_cost);
                if self.collector.is_enabled() && stats.evicted_outcomes > 0 {
                    self.collector.count_scenario(
                        regime.as_str(),
                        "tuner/evicted_outcomes",
                        stats.evicted_outcomes as u64,
                    );
                    self.collector.count_scenario(
                        regime.as_str(),
                        "tuner/evicted_trace_bytes",
                        stats.evicted_trace_bytes as u64,
                    );
                }
            }
        }
        self.collector.count("tuner/regimes", rows.len() as u64);

        // Every distinct job the loop evaluated, counted once: what the
        // cache still holds plus what the round pruning evicted.
        let mut cost = cache.cost();
        cost.merge(&evicted_cost);
        Ok(TuningReport {
            master_seed: config.master_seed,
            global,
            global_overall_score,
            regimes: rows,
            cost,
        })
    }

    fn tune_regime(
        &self,
        regime: Regime,
        members: Vec<Scenario>,
        global: TunedParams,
        cache: &mut FleetCache,
    ) -> Result<RegimeRow, String> {
        let config = &self.config;
        let _regime_span = self
            .collector
            .span_scenario("tuner/regime", regime.as_str());
        let scenario_names: Vec<String> = members.iter().map(|s| s.name.clone()).collect();
        let min_slots = members
            .iter()
            .map(|s| s.slots_per_day as usize)
            .min()
            .expect("regime groups are non-empty");

        let mut eval = Evaluator::new(&self.engine, cache, &config.managers, members);
        // Baselines in tie-priority order: the global winner, then the
        // paper guideline — so a regime only diverges when it strictly
        // pays, and never scores worse than either.
        let ((tuned, tuned_score), baseline_scores, searched) =
            Self::search_pool(&mut eval, config, &[global, GUIDELINE])?;
        self.record_search(regime.as_str(), &searched);
        let global_score = baseline_scores[0];

        // Deployment pass: the tuned integers through the Q16 kernel …
        let q16_score = eval.score(&[tuned.q16_spec()])?[0];
        // … and the dynamic selector's threshold search, its K ceiling
        // clamped to the regime's coarsest discretization.
        let k_max = config.dynamic_k_max.min(min_slots - 1).max(1);
        let dynamic_specs: Vec<PredictorSpec> = config
            .dynamic_decays
            .iter()
            .map(|&score_decay| PredictorSpec::DynamicCausal {
                days: tuned.days,
                k_max,
                alphas: config.dynamic_alphas.clone(),
                score_decay,
                buckets: None,
            })
            .collect();
        let dynamic_scores = eval.score(&dynamic_specs)?;
        let (dynamic_decay, dynamic_score) = config
            .dynamic_decays
            .iter()
            .zip(&dynamic_scores)
            .min_by(|a, b| a.1.total_cmp(b.1).then(a.0.total_cmp(b.0)))
            .map(|(&decay, &score)| (decay, score))
            .expect("decay axis validated non-empty");

        Ok(RegimeRow {
            regime: regime.as_str().to_string(),
            scenarios: scenario_names,
            tuned,
            tuned_score,
            global_score,
            matches_global: tuned == global,
            q16_score,
            dynamic_decay,
            dynamic_score,
            rounds: searched.rounds,
            candidates: searched.evaluated,
        })
    }

    /// Ledger telemetry of one search pass, keyed by pass name (the
    /// regime, or `global`) — how many refinement rounds and candidate
    /// evaluations the search spent.
    fn record_search(&self, pass: &str, searched: &SearchResult) {
        if self.collector.is_enabled() {
            self.collector
                .count_scenario(pass, "tuner/search_rounds", searched.rounds as u64);
            self.collector.count_scenario(
                pass,
                "tuner/search_candidates",
                searched.evaluated as u64,
            );
            // One distribution sample per search pass: how many
            // candidates this pass evaluated (deterministic, so the
            // histogram plane stays byte-pinned).
            self.collector
                .observe("tuner/round_candidates", searched.evaluated as f64);
        }
    }

    /// Searches one evaluator with the given baselines always in the
    /// pool; returns the winner with its score, plus the baseline
    /// scores (in input order) and the raw search telemetry.
    #[allow(clippy::type_complexity)]
    fn search_pool(
        eval: &mut Evaluator<'_>,
        config: &TunerConfig,
        baselines: &[TunedParams],
    ) -> Result<((TunedParams, f64), Vec<f64>, SearchResult), String> {
        let baseline_specs: Vec<PredictorSpec> = baselines.iter().map(|p| p.spec()).collect();
        let baseline_scores = eval.score(&baseline_specs)?;
        let searched = search_wcma(&config.grid, &config.budget, |batch| eval.score(batch))?;
        let winner = Self::pick_winner(baselines, &baseline_scores, &searched);
        Ok((winner, baseline_scores, searched))
    }

    /// The best of the baselines and the search result. Baselines win
    /// ties in listed order (the global winner first), so a regime only
    /// diverges from the global optimum when it strictly pays.
    fn pick_winner(
        baselines: &[TunedParams],
        baseline_scores: &[f64],
        searched: &SearchResult,
    ) -> (TunedParams, f64) {
        let mut winner = (
            TunedParams {
                alpha: searched.alpha,
                days: searched.days,
                k: searched.k,
            },
            searched.score,
        );
        for (&params, &score) in baselines.iter().zip(baseline_scores).rev() {
            if score <= winner.1 {
                winner = (params, score);
            }
        }
        winner
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scenario_fleet::Catalog;

    fn tiny_config(seed: u64) -> TunerConfig {
        TunerConfig {
            grid: ParamGrid::builder()
                .alphas(vec![0.0, 1.0])
                .days(vec![5])
                .ks(vec![1])
                .build()
                .unwrap(),
            budget: SearchBudget {
                max_rounds: 0,
                max_candidates: 8,
            },
            dynamic_decays: vec![0.85],
            dynamic_alphas: vec![0.0, 1.0],
            threads: Some(2),
            ..TunerConfig::new(seed)
        }
    }

    fn tiny_scenarios() -> Vec<Scenario> {
        let catalog = Catalog::builtin();
        vec![
            catalog.get("desert-clear-sky").unwrap().clone(),
            catalog.get("marine-fog").unwrap().clone(),
        ]
    }

    #[test]
    fn collector_observes_the_loop_without_perturbing_the_report() {
        let plain = FleetTuner::new(tiny_config(5))
            .unwrap()
            .tune(&tiny_scenarios())
            .unwrap();
        let collector = Collector::recording();
        let observed = FleetTuner::new(tiny_config(5))
            .unwrap()
            .with_collector(collector.clone())
            .tune(&tiny_scenarios())
            .unwrap();
        // Collection must not move a byte of the pinned report.
        assert_eq!(plain.to_json_string(), observed.to_json_string());
        let ledger = collector.ledger();
        assert_eq!(ledger.counter("tuner/regimes"), 2);
        assert!(ledger.counter("tuner/search_candidates") > 0);
        assert!(ledger.scenario_counter("global", "tuner/search_candidates") > 0);
        // One histogram sample per search pass: global + per-regime.
        let rounds = ledger.histogram("tuner/round_candidates").unwrap();
        assert_eq!(rounds.count(), 1 + 2);
        // The inner engine recorded into the same collector, including
        // its distribution plane.
        assert!(ledger.counter("jobs/evaluated") > 0);
        // Round pruning evicted the finished first regime (desert) once
        // the loop moved on to marine; the report above proved the
        // fold-back kept the cost ledger whole.
        assert!(ledger.scenario_counter("desert", "tuner/evicted_outcomes") > 0);
        assert!(ledger.histogram("score/mape").unwrap().count() > 0);
        assert!(ledger.histogram("fleet/unit_slots").unwrap().count() > 0);
        let report = collector.report();
        let tuner_node = report
            .spans
            .children
            .iter()
            .find(|c| c.name == "tuner")
            .expect("tuner spans recorded");
        assert!(tuner_node.children.iter().any(|c| c.name == "regime"));
    }

    #[test]
    fn tune_produces_a_row_per_regime_present() {
        let tuner = FleetTuner::new(tiny_config(5)).unwrap();
        let report = tuner.tune(&tiny_scenarios()).unwrap();
        assert_eq!(report.regimes.len(), 2); // desert + marine
        assert_eq!(report.regimes[0].regime, "desert");
        assert_eq!(report.regimes[1].regime, "marine");
        for row in &report.regimes {
            assert!(
                row.tuned_score <= row.global_score + 1e-12,
                "{}: tuned {} must not lose to global {}",
                row.regime,
                row.tuned_score,
                row.global_score
            );
            assert!(row.q16_score.is_finite());
            assert!(row.dynamic_score.is_finite());
            assert_eq!(row.dynamic_decay, 0.85);
        }
        assert!(report.cost.jobs > 0);
        assert!(report.cost.total_wall_nanos > 0);
    }

    #[test]
    fn guideline_is_always_in_the_pool() {
        // With a grid this bad (α ∈ {0, 1}, D = 5, K = 1) the guideline
        // can win; either way the winner must score no worse than it.
        let tuner = FleetTuner::new(tiny_config(5)).unwrap();
        let mut cache = tuner.engine().new_cache();
        let managers = tuner.config.managers.clone();
        let mut eval = Evaluator::new(tuner.engine(), &mut cache, &managers, tiny_scenarios());
        let guideline_score = eval.score(&[GUIDELINE.spec()]).unwrap()[0];
        let report = FleetTuner::new(tiny_config(5))
            .unwrap()
            .tune(&tiny_scenarios())
            .unwrap();
        assert!(report.global_overall_score <= guideline_score + 1e-12);
    }

    #[test]
    fn empty_inputs_are_rejected() {
        assert!(FleetTuner::new(tiny_config(1)).unwrap().tune(&[]).is_err());
        let mut config = tiny_config(1);
        config.managers.clear();
        assert!(FleetTuner::new(config).is_err());
        let mut config = tiny_config(1);
        config.dynamic_decays.clear();
        assert!(FleetTuner::new(config).is_err());
        let mut config = tiny_config(1);
        config.dynamic_alphas.clear();
        assert!(FleetTuner::new(config).is_err());
        let mut config = tiny_config(1);
        config.dynamic_k_max = 0;
        assert!(FleetTuner::new(config).is_err());
        let mut config = tiny_config(1);
        config.budget.max_candidates = 0;
        assert!(FleetTuner::new(config).is_err());
    }

    #[test]
    fn sharded_and_streamed_engines_reproduce_the_monolithic_report() {
        // The tuner consumes streamed results unchanged: a
        // streaming-only trace-cache policy must reproduce the
        // materialized report byte-for-byte.
        let materialized = FleetTuner::new(tiny_config(13))
            .unwrap()
            .tune(&tiny_scenarios())
            .unwrap();
        let mut streamed_config = tiny_config(13);
        streamed_config.cache_policy = TraceCachePolicy::streaming_only();
        let streamed = FleetTuner::new(streamed_config)
            .unwrap()
            .tune(&tiny_scenarios())
            .unwrap();
        assert_eq!(materialized.to_json_string(), streamed.to_json_string());
    }

    #[test]
    fn report_is_reproducible_for_a_seed() {
        let a = FleetTuner::new(tiny_config(9))
            .unwrap()
            .tune(&tiny_scenarios())
            .unwrap();
        let b = FleetTuner::new(tiny_config(9))
            .unwrap()
            .tune(&tiny_scenarios())
            .unwrap();
        assert_eq!(a.to_json_string(), b.to_json_string());
    }
}
