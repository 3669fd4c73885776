//! Fleet-engine throughput: jobs/second through the full
//! generate → fault → predict → simulate → reduce pipeline, and the
//! thread-scaling of the parallel layer.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use scenario_fleet::{Catalog, FleetEngine, FleetMatrix, ManagerSpec, PredictorSpec};
use std::hint::black_box;

/// A compact matrix: 2 fast scenarios × 3 predictors × 2 managers.
fn bench_matrix() -> FleetMatrix {
    let catalog = Catalog::builtin();
    FleetMatrix::new(
        vec![
            PredictorSpec::Wcma {
                alpha: 0.7,
                days: 10,
                k: 2,
            },
            PredictorSpec::Ewma { gamma: 0.5 },
            PredictorSpec::Persistence,
        ],
        vec![
            ManagerSpec::EnergyNeutral {
                target_soc: 0.5,
                gain: 0.25,
            },
            ManagerSpec::Greedy,
        ],
        vec![
            catalog.get("desert-clear-sky").unwrap().clone(),
            catalog.get("aging-node").unwrap().clone(),
        ],
    )
    .unwrap()
}

fn bench_fleet_throughput(c: &mut Criterion) {
    let matrix = bench_matrix();
    let mut group = c.benchmark_group("fleet_engine");
    group.sample_size(10);
    group.throughput(Throughput::Elements(matrix.job_count() as u64));
    for threads in [1usize, 2, 4] {
        group.bench_with_input(
            BenchmarkId::from_parameter(threads),
            &threads,
            |b, &threads| {
                let engine = FleetEngine::new(0xBE).with_threads(threads);
                b.iter(|| black_box(engine.run(&matrix).unwrap()));
            },
        );
    }
    group.finish();
}

fn bench_scorecard_reduce(c: &mut Criterion) {
    // Isolate the reduction + JSON rendering from the simulation cost.
    let matrix = bench_matrix();
    let result = FleetEngine::new(0xBE).run(&matrix).unwrap();
    let mut group = c.benchmark_group("scorecard");
    group.throughput(Throughput::Elements(result.outcomes.len() as u64));
    group.bench_function("reduce_and_render", |b| {
        b.iter(|| {
            let (card, _) = scenario_fleet::Scorecard::build(
                &matrix,
                &result.outcomes,
                0xBE,
                &std::collections::BTreeMap::new(),
            );
            black_box(card.to_json_string())
        });
    });
    group.finish();
}

criterion_group!(benches, bench_fleet_throughput, bench_scorecard_reduce);
criterion_main!(benches);
