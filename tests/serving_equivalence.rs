//! Serving-vs-sequential grid: N concurrent sessions admitted by a
//! [`QuerySessionRegistry`] over one shared federation must each report
//! byte-for-byte what N independent sequential runs report — same access
//! sequence, same certain-answer verdict, same answers, same relevance
//! verdict log, same final configuration — while cross-session access
//! dedup makes the *aggregate* backend traffic strictly smaller than the
//! sum of what the sessions observed.
//!
//! The serving side runs a `SimulatedSource` under the grid's response
//! policy with a 100µs latency model, awaited on the virtual clock by an
//! [`AsyncSimulatedSource`], so admitted sessions genuinely overlap in
//! flight; the sequential side runs the sequential executor against a
//! plain `DeepWebSource` under the same policy. The serve's traffic is one
//! `BackendStats` in total and one per source, and the two balance.

use accrel::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// A scenario generated from the random-workload generators (same recipe
/// as the executor-equivalence grid).
fn random_scenario(seed: u64) -> Scenario {
    let spec = WorkloadSpec {
        relations: 3,
        arity: 2,
        domains: 2,
        constants: 10,
        dependent_fraction: 0.5,
    };
    let workload = generate_workload(&spec, &mut StdRng::seed_from_u64(seed));
    let mut rng = StdRng::seed_from_u64(seed + 1);
    let instance = generate_instance(&workload, 40, &mut rng);
    let query = generate_query(&workload, true, 3, 3, &mut rng);
    let initial = generate_configuration(&workload, 4, &mut rng);
    Scenario {
        name: format!("random-{seed}"),
        description: "randomly generated serving scenario".to_string(),
        schema: workload.schema.clone(),
        methods: workload.methods,
        instance,
        query,
        initial_configuration: initial,
        expected_answer: false,
    }
}

fn run_options() -> RunOptions {
    RunOptions {
        max_accesses: 12,
        budget: SearchBudget::shallow(),
        batch_size: 4,
        workers: 3,
        ..RunOptions::default()
    }
}

/// The scenario behind an async federation whose deterministic source
/// answers after a 100µs virtual round trip, so sessions overlap.
fn async_federation_for(scenario: &Scenario, policy: &ResponsePolicy) -> AsyncFederation {
    AsyncFederation::single_simulated(
        SimulatedSource::exact(
            "serving-grid",
            scenario.instance.clone(),
            scenario.methods.clone(),
        )
        .with_policy(policy.clone())
        .with_latency(LatencyModel::recorded(100)),
    )
}

fn assert_sessions_match_sequential(scenario: &Scenario, policy: &ResponsePolicy, sessions: usize) {
    let federation = async_federation_for(scenario, policy);
    let registry = QuerySessionRegistry::new(&federation);
    for strategy in Strategy::all() {
        let request = RunRequest::new(scenario.query.clone())
            .with_strategy(strategy)
            .with_options(run_options());
        let requests: Vec<RunRequest> = (0..sessions).map(|_| request.clone()).collect();
        federation.reset_stats();
        let served = registry.serve(&requests, &scenario.initial_configuration);
        assert_eq!(served.sessions.len(), sessions);

        // One sequential run on a separately-built source is the oracle
        // every session must reproduce.
        let sequential_source = DeepWebSource::new(
            scenario.instance.clone(),
            scenario.methods.clone(),
            policy.clone(),
        );
        let sequential =
            Sequential::new(&sequential_source).execute(&request, &scenario.initial_configuration);
        for s in &served.sessions {
            let cell = format!(
                "session={} of {sessions} scenario={} strategy={} policy={policy:?}",
                s.session,
                scenario.name,
                strategy.name()
            );
            assert_eq!(
                s.report.access_sequence, sequential.access_sequence,
                "access sequence diverged: {cell}"
            );
            assert_eq!(s.report.certain, sequential.certain, "verdict: {cell}");
            assert_eq!(s.report.answers, sequential.answers, "answers: {cell}");
            assert_eq!(
                s.report.relevance_verdicts, sequential.relevance_verdicts,
                "relevance verdict log diverged: {cell}"
            );
            assert_eq!(
                s.report.accesses_made, sequential.accesses_made,
                "accesses made: {cell}"
            );
            assert!(
                s.report
                    .final_configuration
                    .same_facts(&sequential.final_configuration),
                "final configurations differ: {cell}"
            );
        }
        // The wire-call ledger balances regardless of session count.
        assert_eq!(
            served.wire_calls + served.joined_calls,
            served.session_calls(),
            "wire + joined must equal what the sessions observed"
        );
    }
}

#[test]
fn bank_serving_grid_matches_sequential() {
    let scenario = bank_scenario();
    for policy in [
        ResponsePolicy::Exact,
        ResponsePolicy::FirstK(2),
        ResponsePolicy::SoundSample {
            probability: 0.7,
            seed: 17,
        },
    ] {
        for sessions in [1, 4, 16] {
            assert_sessions_match_sequential(&scenario, &policy, sessions);
        }
    }
}

#[test]
fn random_serving_grid_matches_sequential() {
    for seed in [11, 29] {
        let scenario = random_scenario(seed);
        for policy in [
            ResponsePolicy::Exact,
            ResponsePolicy::FirstK(2),
            ResponsePolicy::SoundSample {
                probability: 0.6,
                seed,
            },
        ] {
            for sessions in [1, 4] {
                assert_sessions_match_sequential(&scenario, &policy, sessions);
            }
        }
    }
}

#[test]
fn per_source_traffic_in_the_serving_report_balances_the_aggregate() {
    use accrel::prelude::internals::BackendStats;

    let summed = |report: &ServingReport| {
        report
            .per_source
            .iter()
            .fold(BackendStats::default(), |acc, (_, s)| acc.merged(s))
    };
    // A flaky backend whose failures are all absorbed by retries: the serve
    // still matches the oracle elsewhere, and the per-source ledger must
    // expose the retry traffic that the aggregate alone would hide.
    let scenario = bank_scenario();
    let methods = scenario.methods.clone();
    let flaky = |name: &str, fail_attempts| {
        SimulatedSource::exact(name, scenario.instance.clone(), methods.clone()).with_flaky(
            FlakyModel {
                period: 2,
                fail_attempts,
                retries: 3,
            },
        )
    };
    let federation = AsyncFederation::single_simulated(flaky("flaky-bank", 1));
    let requests: Vec<RunRequest> = (0..2)
        .map(|_| {
            RunRequest::new(scenario.query.clone())
                .with_strategy(Strategy::Exhaustive)
                .with_options(run_options())
        })
        .collect();
    let report =
        QuerySessionRegistry::new(&federation).serve(&requests, &scenario.initial_configuration);

    assert_eq!(report.per_source.len(), 1);
    let (name, stats) = &report.per_source[0];
    assert_eq!(name, "flaky-bank");
    assert!(stats.retries > 0, "flaky calls must surface as retries");
    assert_eq!(
        stats.failures, 0,
        "every transient failure is absorbed by the retry budget"
    );
    // The per-source views partition the aggregate exactly.
    assert_eq!(summed(&report), report.aggregate);
    // No chaos controller attached: the chaos counters stay zero.
    let a = &report.aggregate;
    assert_eq!(
        (
            a.churn_events,
            a.failovers,
            a.dead_skips,
            a.short_circuited,
            a.breaker_trips
        ),
        (0, 0, 0, 0, 0)
    );

    // Under chaos — a primary whose flaky calls exhaust their retries in
    // front of a healthy replica — the views still balance, with the
    // breaker charged to the primary and the failovers to the replica.
    let names: Vec<&str> = methods.iter().map(|(_, m)| m.name()).collect();
    let replica = SimulatedSource::exact("replica", scenario.instance.clone(), methods.clone());
    let chaotic = AsyncFederation::builder(methods.clone())
        .simulated(flaky("primary", 9), &names)
        .unwrap()
        .simulated_replica(replica, &names)
        .unwrap()
        .with_chaos(ChaosOptions {
            script: ChurnScript::new(),
            breaker: Some(BreakerOptions {
                trip_threshold: 1,
                cooldown_micros: 1_000,
            }),
            pace_micros_per_call: 0,
        })
        .build()
        .unwrap();
    let report =
        QuerySessionRegistry::new(&chaotic).serve(&requests, &scenario.initial_configuration);
    assert_eq!(summed(&report), report.aggregate);
    let (primary, replica) = (&report.per_source[0].1, &report.per_source[1].1);
    assert_eq!(primary.breaker_trips, 1);
    assert!(primary.short_circuited > 0);
    assert!(replica.failovers > 0);
    assert_eq!(report.aggregate.failovers, replica.failovers);
}

#[test]
fn dedup_strictly_reduces_aggregate_backend_traffic() {
    // Identical overlapping sessions must share wire calls: the aggregate
    // backend counters (each wire call counted once) stay strictly below
    // the sum of the per-session views.
    let scenario = bank_scenario();
    let federation = async_federation_for(&scenario, &ResponsePolicy::Exact);
    let registry = QuerySessionRegistry::new(&federation);
    let requests: Vec<RunRequest> = (0..4)
        .map(|_| {
            RunRequest::new(scenario.query.clone())
                .with_strategy(Strategy::Exhaustive)
                .with_options(run_options())
        })
        .collect();
    let report = registry.serve(&requests, &scenario.initial_configuration);
    let session_sum = report.session_calls();
    assert!(
        report.aggregate.calls < session_sum,
        "dedup must strictly reduce aggregate calls: aggregate={} session-sum={session_sum}",
        report.aggregate.calls
    );
    assert!(report.joined_calls > 0, "overlapping sessions must share");
    assert_eq!(report.aggregate.calls, report.wire_calls);
}

#[test]
fn a_serve_whose_calls_all_fail_still_balances() {
    // Every call exhausts its retries: the sessions share failed calls as
    // they share answered ones, and each failed call still counts once on
    // the wire and once per session that asked for it.
    let scenario = bank_scenario();
    let federation = AsyncFederation::single_simulated(
        SimulatedSource::exact(
            "down-bank",
            scenario.instance.clone(),
            scenario.methods.clone(),
        )
        .with_flaky(FlakyModel {
            period: 1,
            fail_attempts: 3,
            retries: 1,
        })
        .with_latency(LatencyModel::recorded(100)),
    );
    let requests: Vec<RunRequest> = (0..4)
        .map(|_| RunRequest::new(scenario.query.clone()).with_strategy(Strategy::Exhaustive))
        .collect();
    let report =
        QuerySessionRegistry::new(&federation).serve(&requests, &scenario.initial_configuration);
    assert!(report.joined_calls > 0, "overlapping sessions must share");
    assert_eq!(
        report.wire_calls + report.joined_calls,
        report.session_calls(),
        "wire + joined must equal what the sessions asked for"
    );
    assert_eq!(report.aggregate.calls, 0);
    assert_eq!(report.aggregate.failures, report.wire_calls);
    for s in &report.sessions {
        let stats = &s.report.source_stats;
        assert_eq!(stats.calls, 0, "session {}", s.session);
        assert!(stats.failures > 0, "session {}", s.session);
        assert_eq!(s.report.accesses_made, 0, "session {}", s.session);
    }
}

#[test]
fn a_configuration_rebuilt_in_another_order_does_not_reuse_verdicts() {
    // The same facts inserted in another order get other value ids. Shared
    // verdicts carry read sets of value ids, so a registry that served the
    // first configuration must not hand its verdicts to the second: there a
    // recorded read would name another value, and growth of the value the
    // verdict actually read would not evict it.
    let spec = WorkloadSpec {
        relations: 3,
        arity: 2,
        domains: 2,
        constants: 6,
        dependent_fraction: 0.7,
    };
    let options = RunOptions {
        stop_when_certain: false,
        budget: SearchBudget::shallow(),
        ..RunOptions::default()
    };
    // Seed 77 under `IrGuided` made 2 accesses where `Sequential` makes 4
    // while the class ignored the id assignment.
    let guided = [Strategy::IrGuided, Strategy::LtrGuided, Strategy::Hybrid];
    for (seed, strategy) in (0..100).flat_map(|seed| guided.map(|strategy| (seed, strategy))) {
        let mut rng = StdRng::seed_from_u64(seed);
        let workload = generate_workload(&spec, &mut rng);
        let query: Query =
            accrel::workloads::random::generate_cq(&workload, 2, 3, 0.5, &mut rng).into();
        let instance = generate_instance(&workload, 14, &mut rng);
        let initial = generate_configuration(&workload, 5, &mut rng);
        let mut reversed = Configuration::empty(workload.schema.clone());
        for (relation, t) in initial.sorted_facts().into_iter().rev() {
            reversed.insert(relation, t).unwrap();
        }
        assert_eq!(initial.fingerprint(), reversed.fingerprint());

        let federation = AsyncFederation::single_simulated(SimulatedSource::exact(
            "rebuilt",
            instance.clone(),
            workload.methods.clone(),
        ));
        let registry = QuerySessionRegistry::new(&federation);
        let request = RunRequest::new(query)
            .with_strategy(strategy)
            .with_options(options.clone());
        registry.serve(std::slice::from_ref(&request), &initial);
        let served = registry.serve(std::slice::from_ref(&request), &reversed);
        let source = DeepWebSource::new(instance, workload.methods.clone(), ResponsePolicy::Exact);
        let sequential = Sequential::new(&source).execute(&request, &reversed);
        let report = &served.sessions[0].report;
        let cell = format!("seed={seed} strategy={}", strategy.name());
        assert_eq!(
            report.access_sequence, sequential.access_sequence,
            "access sequence: {cell}"
        );
        assert_eq!(
            report.relevance_verdicts, sequential.relevance_verdicts,
            "verdict log: {cell}"
        );
        assert_eq!(report.certain, sequential.certain, "certainty: {cell}");
        assert_eq!(report.answers, sequential.answers, "answers: {cell}");
    }
}
