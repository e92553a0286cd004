//! The bank scenario of Section 1, run against a *federation*: the four Web
//! forms split across two simulated providers with different latency,
//! failure and paging behaviour, executed by the threaded executor one
//! access at a time and then in batches of 8 on 4 workers.
//!
//! ```text
//! cargo run --example federated_sweep
//! ```

use accrel::engine::scenarios::bank_scenario;
use accrel::prelude::*;

fn main() {
    let scenario = bank_scenario();

    // Provider A hosts the employee/office forms: quick but paged.
    let provider_a = SimulatedSource::exact(
        "hr-portal",
        scenario.instance.clone(),
        scenario.methods.clone(),
    )
    .with_latency(LatencyModel {
        base_micros: 120,
        jitter_micros: 40,
        seed: 1,
        sleep: true,
    })
    .with_paging(2);

    // Provider B hosts the approval/manager forms: slower and flaky, with
    // transparent retries.
    let provider_b = SimulatedSource::exact(
        "compliance-portal",
        scenario.instance.clone(),
        scenario.methods.clone(),
    )
    .with_latency(LatencyModel {
        base_micros: 400,
        jitter_micros: 100,
        seed: 2,
        sleep: true,
    })
    .with_flaky(FlakyModel {
        period: 2,
        fail_attempts: 1,
        retries: 3,
    });

    let federation = Federation::builder(scenario.methods.clone())
        .source(provider_a, &["EmpOffAcc", "OfficeInfoAcc"])
        .expect("hr methods exist")
        .source(provider_b, &["StateApprAcc", "EmpManAcc"])
        .expect("compliance methods exist")
        .build()
        .expect("every Web form routed");

    println!("query: {}", scenario.query);
    println!("federation: {} sources\n", federation.source_count());

    let executor = Threaded::new(&federation);
    for (batch_size, workers) in [(1, 1), (8, 4)] {
        executor.reset_stats();
        let request = RunRequest::new(scenario.query.clone())
            .with_strategy(Strategy::Exhaustive)
            .with_options(RunOptions {
                batch_size,
                workers,
                speculation: SpeculationMode::CachedOnly,
                ..RunOptions::default()
            });
        let start = std::time::Instant::now();
        let report = executor.execute(&request, &scenario.initial_configuration);
        let wall = start.elapsed();
        assert!(report.certain, "the bank query is answerable");
        println!(
            "batch={batch_size} workers={workers}: certain={} accesses={} batches={} \
             mean-batch={:.2} wasted={} wall={wall:.2?}",
            report.certain,
            report.accesses_made,
            report.batch_stats.batches,
            report.batch_stats.mean_batch(),
            report.batch_stats.speculative_wasted,
        );
        for (name, stats) in federation.per_source_stats() {
            println!(
                "  {name}: calls={} retries={} failures={} tuples={} pages={} sim-latency={}µs",
                stats.calls,
                stats.retries,
                stats.failures,
                stats.tuples_returned,
                stats.pages_fetched,
                stats.simulated_latency_micros
            );
        }
    }
}
