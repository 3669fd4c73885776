//! Streamed vs materialized engine paths on the default catalog
//! matrix: the streamed path (bounded/zero trace cache, one generator
//! pass per scenario shared by its jobs) must be no slower than the
//! classic materialize-everything path — it trades the per-job
//! `SlotView` builds for one shared generation pass, so the work is
//! comparable while memory drops from full-horizon traces to one-day
//! buffers. A third case measures the sharded reduction's overhead
//! (shard + merge) over the monolithic scorecard.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use scenario_fleet::{
    Catalog, FleetEngine, FleetMatrix, ManagerSpec, PredictorSpec, Scorecard, TraceCachePolicy,
};
use std::hint::black_box;

/// The default fast-regime catalog matrix: every builtin scenario up to
/// one year (the multi-year entries are exercised by tests; a bench
/// iteration must stay sub-second) × 2 predictors × 2 managers.
fn default_matrix() -> FleetMatrix {
    let scenarios: Vec<_> = Catalog::builtin()
        .scenarios()
        .iter()
        .filter(|s| s.days <= 365)
        .cloned()
        .collect();
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

fn bench_stream_vs_materialized(c: &mut Criterion) {
    let matrix = default_matrix();
    let mut group = c.benchmark_group("fleet_stream");
    group.sample_size(10);
    group.throughput(Throughput::Elements(matrix.job_count() as u64));

    group.bench_function("materialized", |b| {
        let engine = FleetEngine::new(0xD1CE);
        b.iter(|| black_box(engine.run(&matrix).unwrap()));
    });

    group.bench_function("streamed", |b| {
        let engine = FleetEngine::new(0xD1CE).with_trace_cache(TraceCachePolicy::streaming_only());
        b.iter(|| black_box(engine.run(&matrix).unwrap()));
    });

    group.bench_function("sharded_merge", |b| {
        let engine = FleetEngine::new(0xD1CE);
        b.iter(|| {
            let sharded = engine.run_sharded(&matrix, 4).unwrap();
            black_box(Scorecard::merge_shards(&sharded.manifest, &sharded.shards).unwrap())
        });
    });
    group.finish();
}

criterion_group!(benches, bench_stream_vs_materialized);
criterion_main!(benches);
