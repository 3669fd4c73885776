//! Integration tests for the streaming slot pipeline and sharded
//! scorecards: merge determinism across thread counts and shard
//! orderings, bounded-memory multi-year evaluation, and correlated
//! fleet-wide faults.

use scenario_fleet::{
    Catalog, Climate, FaultSpec, FleetEngine, FleetFault, FleetMatrix, ManagerSpec, NodeProfile,
    PredictorSpec, Scenario, Scorecard, ScorecardShard, ShardManifest, SiteSpec, TraceCachePolicy,
};

/// The default catalog matrix (every builtin regime, multi-year entries
/// included) under a compact predictor/manager set.
fn catalog_matrix() -> FleetMatrix {
    FleetMatrix::new(
        vec![
            PredictorSpec::Wcma {
                alpha: 0.7,
                days: 10,
                k: 2,
            },
            PredictorSpec::Persistence,
        ],
        vec![ManagerSpec::EnergyNeutral {
            target_soc: 0.5,
            gain: 0.25,
        }],
        Catalog::builtin().scenarios().to_vec(),
    )
    .unwrap()
}

#[test]
fn merged_shards_match_monolithic_across_threads_and_orderings() {
    let matrix = catalog_matrix();
    let reference = FleetEngine::new(2026)
        .with_threads(1)
        .run(&matrix)
        .unwrap()
        .scorecard
        .to_json_string();

    for threads in [1usize, 2, 8] {
        let engine = FleetEngine::new(2026).with_threads(threads);
        let sharded = engine.run_sharded(&matrix, 4).unwrap();
        assert_eq!(sharded.shards.len(), 4);

        // Merge in delivered, reversed, and rotated shard orders — the
        // manifest alone fixes the output.
        let mut reversed = sharded.shards.clone();
        reversed.reverse();
        let mut rotated = sharded.shards.clone();
        rotated.rotate_left(1);
        for shards in [&sharded.shards, &reversed, &rotated] {
            let merged = Scorecard::merge_shards(&sharded.manifest, shards).unwrap();
            assert_eq!(
                merged.to_json_string(),
                reference,
                "threads={threads}: merged shards diverged from the monolithic scorecard"
            );
        }

        // And through the serialized form: shards written to JSON and
        // parsed back still merge to the identical document.
        let manifest_json = sharded.manifest.to_json().render_pretty();
        let parsed_manifest = ShardManifest::from_json_str(&manifest_json).unwrap();
        let parsed_shards: Vec<ScorecardShard> = sharded
            .shards
            .iter()
            .map(|s| ScorecardShard::from_json_str(&s.to_json().render_pretty()).unwrap())
            .collect();
        let merged = Scorecard::merge_shards(&parsed_manifest, &parsed_shards).unwrap();
        assert_eq!(merged.to_json_string(), reference);
    }
}

/// Twelve 3-year scenarios across climates and latitudes.
fn three_year_fleet() -> Vec<Scenario> {
    let climates = [
        Climate::Desert,
        Climate::Temperate,
        Climate::Marine,
        Climate::Monsoon,
    ];
    let latitudes = [-35.0, 12.0, 48.0];
    let mut scenarios = Vec::new();
    for (ci, climate) in climates.iter().enumerate() {
        for (li, latitude) in latitudes.iter().enumerate() {
            scenarios.push(Scenario {
                name: format!("triennium-{}-{}", climate.as_str(), li),
                summary: format!("3-year {} run at {latitude}°", climate.as_str()),
                site: SiteSpec::Custom {
                    latitude_deg: *latitude,
                    resolution_minutes: 5,
                    climate: *climate,
                },
                days: 1095,
                slots_per_day: 48,
                node: if (ci + li) % 2 == 0 {
                    NodeProfile::Mote
                } else {
                    NodeProfile::TinyMote
                },
                faults: vec![],
            });
        }
    }
    scenarios
}

#[test]
fn three_year_twelve_scenario_matrix_runs_under_a_bounded_trace_budget() {
    let scenarios = three_year_fleet();
    assert_eq!(scenarios.len(), 12);
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
        scenarios,
    )
    .unwrap();

    // One 3-year slot series is 1095 × 48 × 16 B ≈ 0.82 MiB; admit
    // four.
    let budget = 4u64 << 20;
    let engine = FleetEngine::new(77).with_trace_cache(TraceCachePolicy::bounded(budget));
    let mut cache = engine.new_cache();
    let result = engine.run_cached(&matrix, &mut cache).unwrap();

    assert_eq!(cache.trace_count(), 4, "budget admits exactly four traces");
    assert_eq!(cache.trace_bytes(), 4 * 1095 * 48 * 16);
    assert_eq!(result.streamed_jobs, 8, "the other eight stream");
    let day_buffer = 288 * 8;
    for outcome in &result.outcomes {
        assert!(outcome.summary.mape.is_finite(), "{}", outcome.scenario);
        assert!(
            outcome.report.energy_balance_error_j() < 1e-6 * outcome.report.harvested_j.max(1.0),
            "{}",
            outcome.scenario
        );
        // Streamed jobs held one day of samples, never the horizon.
        if outcome.cost.peak_trace_bytes != 1095 * 48 * 16 {
            assert_eq!(outcome.cost.peak_trace_bytes, day_buffer);
        }
    }
    assert_eq!(
        result
            .outcomes
            .iter()
            .filter(|o| o.cost.peak_trace_bytes == day_buffer)
            .count(),
        8
    );
}

/// A storm-band fleet: three mid-latitude scenarios inside the band and
/// one southern control outside it, on brownout-prone hardware.
fn storm_band_matrix(fleet_faults: Vec<FleetFault>) -> FleetMatrix {
    let catalog = Catalog::builtin();
    let scenarios = vec![
        catalog.get("desert-clear-sky").unwrap().clone(),
        catalog.get("four-seasons").unwrap().clone(),
        catalog.get("continental-storms").unwrap().clone(),
        catalog.get("southern-four-seasons").unwrap().clone(),
    ];
    FleetMatrix::new(
        PredictorSpec::guideline_family(),
        vec![ManagerSpec::EnergyNeutral {
            target_soc: 0.5,
            gain: 0.25,
        }],
        scenarios,
    )
    .unwrap()
    .with_fleet_faults(fleet_faults)
    .unwrap()
}

#[test]
fn correlated_storm_measurably_reorders_the_fault_regime_ranking() {
    // Seed chosen so the reorder below is deterministic (42 and 7 both
    // exhibit it; pinned on 42, the repo's canonical seed).
    let seed = 42;
    let correlated = FleetEngine::new(seed)
        .run(&storm_band_matrix(Catalog::builtin_fleet_events()))
        .unwrap();

    // The independent counterpart: the same storm energy, but each
    // scenario draws its own onset (per-scenario seeds) instead of one
    // shared event — the pre-FleetFault way of modelling storms.
    let mut independent_matrix = storm_band_matrix(vec![]);
    for (idx, scenario) in independent_matrix.scenarios.iter_mut().enumerate() {
        for event in Catalog::builtin_fleet_events() {
            if !event.affects(scenario).unwrap() {
                continue;
            }
            // A distinct event seed per scenario = uncorrelated onsets.
            let per_scenario_seed = 0x5EED ^ (idx as u64).wrapping_mul(0x9E37_79B9);
            scenario
                .faults
                .extend(event.project(per_scenario_seed, scenario).unwrap());
        }
    }
    let independent = FleetEngine::new(seed).run(&independent_matrix).unwrap();

    // The storm days differ between the two fault models...
    let onsets: Vec<Vec<&FaultSpec>> = independent_matrix
        .scenarios
        .iter()
        .map(|s| s.faults.iter().collect())
        .collect();
    assert!(
        !onsets.is_empty(),
        "independent matrix must carry projected faults"
    );

    // ...and the rankings measurably reorder: at least one scenario's
    // ranked combo order changes between correlated and independent
    // fault realizations.
    let order = |card: &Scorecard| -> Vec<Vec<String>> {
        card.per_scenario
            .iter()
            .map(|r| {
                r.entries
                    .iter()
                    .map(|e| format!("{}+{}", e.predictor, e.manager))
                    .collect()
            })
            .collect()
    };
    assert_ne!(
        order(&correlated.scorecard),
        order(&independent.scorecard),
        "correlated vs independent faults must reorder at least one fault-regime ranking"
    );
    // Pin the specific reorder the docs cite: on continental-storms at
    // this seed, the shared-onset storm ranks ewma above ma while the
    // staggered independent onsets rank ma above ewma.
    let continental_order = |card: &Scorecard| -> Vec<String> {
        card.per_scenario
            .iter()
            .find(|r| r.scenario == "continental-storms")
            .expect("continental-storms is in the matrix")
            .entries
            .iter()
            .map(|e| e.predictor.split('(').next().unwrap().to_string())
            .collect()
    };
    let corr = continental_order(&correlated.scorecard);
    let ind = continental_order(&independent.scorecard);
    assert_ne!(corr, ind, "continental-storms must reorder");
    let position =
        |ranking: &[String], label: &str| ranking.iter().position(|p| p == label).expect(label);
    assert!(
        position(&corr, "ewma") < position(&corr, "ma"),
        "correlated: ewma above ma, got {corr:?}"
    );
    assert!(
        position(&ind, "ma") < position(&ind, "ewma"),
        "independent: ma above ewma, got {ind:?}"
    );

    // Sanity: the correlated storm verifiably darkened the in-band
    // scenarios (the southern control keeps its clean trace harvest).
    let clean = FleetEngine::new(seed)
        .run(&storm_band_matrix(vec![]))
        .unwrap();
    let harvested = |result: &scenario_fleet::FleetResult, name: &str| {
        result
            .outcomes
            .iter()
            .filter(|o| o.scenario == name)
            .map(|o| o.report.harvested_j)
            .sum::<f64>()
    };
    assert!(
        harvested(&correlated, "four-seasons") < harvested(&clean, "four-seasons"),
        "in-band scenario must lose harvest to the storm"
    );
}
