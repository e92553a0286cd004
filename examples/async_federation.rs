//! The bank scenario of Section 1 on the **async** federation runtime: the
//! four Web forms split across two simulated providers whose latency,
//! failure and paging models elapse on a deterministic virtual clock — no
//! real sleeps, no worker threads — executed by the `Async` executor
//! answering one `RunRequest` at several in-flight (`workers`) limits.
//!
//! ```text
//! cargo run --example async_federation
//! ```

use accrel::engine::scenarios::bank_scenario;
use accrel::prelude::*;

fn main() {
    let scenario = bank_scenario();

    let build_federation = || {
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
            sleep: false, // ignored by the async runtime — time is virtual
        })
        .with_paging(2);

        // Provider B hosts the approval/manager forms: slower and flaky,
        // with transparent retries.
        let provider_b = SimulatedSource::exact(
            "compliance-portal",
            scenario.instance.clone(),
            scenario.methods.clone(),
        )
        .with_latency(LatencyModel {
            base_micros: 400,
            jitter_micros: 100,
            seed: 2,
            sleep: false,
        })
        .with_flaky(FlakyModel {
            period: 2,
            fail_attempts: 1,
            retries: 3,
        });

        AsyncFederation::builder(scenario.methods.clone())
            .simulated(provider_a, &["EmpOffAcc", "OfficeInfoAcc"])
            .expect("hr methods exist")
            .simulated(provider_b, &["StateApprAcc", "EmpManAcc"])
            .expect("compliance methods exist")
            .build()
            .expect("every Web form routed")
    };

    println!("query: {}", scenario.query);

    let mut makespans = Vec::new();
    for in_flight in [1usize, 4, 8] {
        // A fresh federation per limit so each virtual clock starts at zero.
        let federation = build_federation();
        let request = RunRequest::new(scenario.query.clone())
            .with_strategy(Strategy::Exhaustive)
            .with_options(RunOptions {
                batch_size: 8,
                workers: in_flight,
                speculation: SpeculationMode::CachedOnly,
                ..RunOptions::default()
            });
        let start = std::time::Instant::now();
        let report = Async::new(&federation).execute(&request, &scenario.initial_configuration);
        let wall = start.elapsed();
        let virtual_micros = federation.clock().now_micros();
        assert!(report.certain, "the bank query is answerable");
        println!(
            "in-flight={in_flight}: certain={} accesses={} batches={} mean-batch={:.2} \
             virtual={virtual_micros}µs wall={wall:.2?}",
            report.certain,
            report.accesses_made,
            report.batch_stats.batches,
            report.batch_stats.mean_batch(),
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
        makespans.push(virtual_micros);
    }
    // Overlapping in-flight round trips compresses simulated time: that is
    // the async runtime's whole point in the paper's high-latency setting.
    assert!(
        makespans.windows(2).all(|w| w[1] <= w[0]),
        "virtual makespan must not grow with the in-flight limit: {makespans:?}"
    );
    assert!(
        makespans.last().unwrap() < makespans.first().unwrap(),
        "overlap must pay off: {makespans:?}"
    );
    println!(
        "\nvirtual makespans at in-flight 1/4/8: {makespans:?} \
         (same answers, same accesses — only waiting overlaps)"
    );

    // The executor is reusable directly for ad-hoc concurrent calls.
    let federation = build_federation();
    let executor = accrel::prelude::internals::Executor::new(federation.clock().clone());
    let candidates = accrel::access::enumerate::well_formed_accesses(
        &scenario.initial_configuration,
        &scenario.methods,
        &accrel::access::enumerate::EnumerationOptions::default(),
    );
    let handles: Vec<_> = candidates
        .iter()
        .map(|access| executor.spawn(federation.call(access.clone())))
        .collect();
    assert_eq!(executor.run(), 0);
    let ok = handles
        .iter()
        .filter(|h| matches!(h.take(), Some(Ok(_))))
        .count();
    println!(
        "ad-hoc fan-out: {ok}/{} seed accesses answered in {}µs of virtual time",
        candidates.len(),
        federation.clock().now_micros()
    );
}
