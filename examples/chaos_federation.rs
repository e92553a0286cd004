//! Chaos federation: the bank scenario keeps answering — byte-for-byte like
//! the sequential engine — while a churn script kills the primary source
//! mid-run and a standby replica takes over.
//!
//! ```text
//! cargo run --example chaos_federation --release
//! ```

use accrel::engine::scenarios::bank_scenario;
use accrel::prelude::*;

fn main() {
    let scenario = bank_scenario();
    let methods = scenario.methods.clone();
    let names: Vec<&str> = methods.iter().map(|(_, m)| m.name()).collect();
    println!("scenario : {}", scenario.description);
    println!("query    : {}\n", scenario.query);

    // Two autonomous providers over the same hidden data. Replicas answer
    // under the same response policy, so a failed-over access returns
    // exactly what the primary would have returned.
    let primary =
        SimulatedSource::exact("bank-primary", scenario.instance.clone(), methods.clone());
    let replica =
        SimulatedSource::exact("bank-replica", scenario.instance.clone(), methods.clone());

    // The churn script: 40 virtual microseconds in, the primary dies; it
    // never comes back. The sync federation paces its chaos clock 10µs per
    // wire call, so the kill lands mid-run.
    let script = ChurnScript::builder().kill(40, "bank-primary").build();

    let federation = Federation::builder(methods.clone())
        .source(primary, &names)
        .expect("primary registers")
        .replica(replica, &names)
        .expect("replica registers")
        .with_chaos(ChaosOptions::scripted(script, 10))
        .build()
        .expect("federation builds");

    let request = RunRequest::new(scenario.query.clone()).with_strategy(Strategy::Hybrid);
    let report = Threaded::new(&federation).execute(&request, &scenario.initial_configuration);

    // The sequential oracle never sees any churn at all.
    let oracle_source = DeepWebSource::new(
        scenario.instance.clone(),
        scenario.methods.clone(),
        ResponsePolicy::Exact,
    );
    let oracle = Sequential::new(&oracle_source).execute(&request, &scenario.initial_configuration);

    println!("answered              : {}", report.certain);
    println!("accesses made         : {}", report.accesses_made);
    let traffic = &report.source_stats;
    println!("churn events fired    : {}", traffic.churn_events);
    println!("dead-source skips     : {}", traffic.dead_skips);
    println!("replica failovers     : {}", traffic.failovers);
    println!();
    for (name, stats) in federation.per_source_stats() {
        println!(
            "{name:<13}: {} calls, {} failures",
            stats.calls + stats.failures,
            stats.failures
        );
    }

    assert_eq!(report.access_sequence, oracle.access_sequence);
    assert_eq!(report.answers, oracle.answers);
    assert_eq!(report.certain, oracle.certain);
    assert!(report
        .final_configuration
        .same_facts(&oracle.final_configuration));
    assert!(traffic.churn_events >= 1, "the kill must have fired");
    println!(
        "\nEvery access the dead primary could no longer serve was re-routed to the \
         replica, and the run's access sequence, answers and final configuration are \
         byte-for-byte the sequential engine's: churn changes *where* responses come \
         from, never *what* they are."
    );
}
