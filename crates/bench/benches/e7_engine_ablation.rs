//! E7 — Engine ablation: end-to-end federated-engine runs per strategy on
//! the bank, chain and star scenarios (wall-clock cost of a full run; the
//! access counts are reported by the harness binary).

use std::time::Duration;

use accrel_bench::fixtures;
use accrel_engine::{DeepWebSource, Executor, ResponsePolicy, RunRequest, Sequential, Strategy};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("e7_engine_ablation");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(100))
        .measurement_time(Duration::from_millis(500));
    for scenario in fixtures::engine_scenarios() {
        let source = DeepWebSource::new(
            scenario.instance.clone(),
            scenario.methods.clone(),
            ResponsePolicy::Exact,
        );
        for strategy in [Strategy::Exhaustive, Strategy::LtrGuided, Strategy::Hybrid] {
            let request = RunRequest::new(scenario.query.clone()).with_strategy(strategy);
            group.bench_with_input(
                BenchmarkId::new(strategy.name(), &scenario.name),
                &scenario,
                |b, s| {
                    b.iter(|| Sequential::new(&source).execute(&request, &s.initial_configuration))
                },
            );
        }
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
