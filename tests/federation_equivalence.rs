//! Executor-equivalence grid: every executor answering a [`RunRequest`] —
//! [`Threaded`] (scoped-thread batches), [`Async`] (virtual-clock futures)
//! and [`Serving`] (a single session on the multi-tenant registry) — must
//! report the same final configuration, certain-answer verdict, answers,
//! access sequence and relevance-verdict log as the [`Sequential`] executor,
//! across every strategy, every response policy (`Exact`, `FirstK`, and
//! `SoundSample`, which is hash-seeded per access and therefore
//! order-insensitive), and several batch sizes — all over the copy-on-write
//! sharded store, whose snapshots every side grows independently.
//!
//! The sequential side runs against a plain `DeepWebSource`; each
//! concurrent executor runs against its own federation wrapping a
//! `SimulatedSource` under the same policy, so the grid diffs two source
//! implementations as well as the executors. Every policy answers a given
//! access with a deterministic response — `SoundSample` draws its subset
//! from an RNG seeded by `Access::stable_hash` — which is the precondition
//! of the executors' determinism invariant (see `accrel_engine::MergeLoop`).

use accrel::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// A scenario generated from the random-workload generators: a hidden
/// instance, a conjunctive query and a small initial configuration.
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
        description: "randomly generated equivalence scenario".to_string(),
        schema: workload.schema.clone(),
        methods: workload.methods,
        instance,
        query,
        initial_configuration: initial,
        expected_answer: false,
    }
}

fn run_options() -> RunOptions {
    // A shallow budget and an access cap keep the LTR-guided grid cells
    // affordable; equivalence is budget-independent since every executor
    // shares the options.
    RunOptions {
        max_accesses: 12,
        budget: SearchBudget::shallow(),
        ..RunOptions::default()
    }
}

fn policy_source(
    scenario: &Scenario,
    policy: &ResponsePolicy,
    name: &'static str,
) -> SimulatedSource {
    SimulatedSource::exact(name, scenario.instance.clone(), scenario.methods.clone())
        .with_policy(policy.clone())
}

fn assert_equivalent(scenario: &Scenario, policy: &ResponsePolicy, batch_size: usize) {
    let sequential_source = DeepWebSource::new(
        scenario.instance.clone(),
        scenario.methods.clone(),
        policy.clone(),
    );
    let federation = Federation::single(policy_source(scenario, policy, "grid"));
    let async_federation =
        AsyncFederation::single_simulated(policy_source(scenario, policy, "grid"));
    let serving_federation =
        AsyncFederation::single_simulated(policy_source(scenario, policy, "grid"));

    let sequential_exec = Sequential::new(&sequential_source);
    let threaded = Threaded::new(&federation);
    let asynced = Async::new(&async_federation);
    let serving = Serving::new(&serving_federation);
    // The grid iterates executors, not bespoke scheduler APIs: everything
    // that implements `Executor` must answer the same request identically.
    let executors: Vec<&dyn Executor> = vec![&threaded, &asynced, &serving];

    for strategy in Strategy::all() {
        let request = RunRequest::new(scenario.query.clone())
            .with_strategy(strategy)
            .with_options(RunOptions {
                batch_size,
                workers: 3,
                ..run_options()
            });
        sequential_exec.reset_stats();
        let sequential = sequential_exec.execute(&request, &scenario.initial_configuration);
        let mut batch_structure: Vec<(usize, usize)> = Vec::new();
        if batch_size == 1 {
            // The sequential executor is the batch-1 driver of the same loop.
            batch_structure.push((
                sequential.batch_stats.batches,
                sequential.batch_stats.batched_calls,
            ));
        }
        for executor in &executors {
            executor.reset_stats();
            let report = executor.execute(&request, &scenario.initial_configuration);
            let cell = format!(
                "executor={} scenario={} strategy={} policy={policy:?} batch={batch_size}",
                executor.name(),
                scenario.name,
                strategy.name()
            );
            assert_eq!(
                report.access_sequence, sequential.access_sequence,
                "access sequence diverged: {cell}"
            );
            assert_eq!(report.certain, sequential.certain, "verdict: {cell}");
            assert_eq!(report.answers, sequential.answers, "answers: {cell}");
            assert_eq!(
                report.relevance_verdicts, sequential.relevance_verdicts,
                "relevance verdict log diverged: {cell}"
            );
            assert_eq!(
                report.accesses_made, sequential.accesses_made,
                "accesses made: {cell}"
            );
            assert_eq!(report.rounds, sequential.rounds, "rounds: {cell}");
            // The grid runs under `CachedOnly`, where a guided strategy
            // predicts nothing: selection takes the first candidate it finds
            // relevant out of the pending map, so every cached verdict of a
            // pending access is `false` and no follow-up is ever predicted.
            if strategy != Strategy::Exhaustive {
                assert!(
                    report.batch_stats.max_batch <= 1,
                    "a guided CachedOnly batch grew past its selected access: {cell}"
                );
            }
            assert!(
                report
                    .final_configuration
                    .same_facts(&sequential.final_configuration),
                "final configurations differ: {cell}"
            );
            batch_structure.push((report.batch_stats.batches, report.batch_stats.batched_calls));
        }
        // Every executor drives one merge loop, so their batch structure
        // agrees too (the sequential one only at batch size 1).
        assert!(
            batch_structure.windows(2).all(|w| w[0] == w[1]),
            "batch structure diverged across executors: {batch_structure:?} \
             (strategy={}, policy={policy:?}, batch={batch_size})",
            strategy.name()
        );
    }
}

#[test]
fn bank_grid_matches_sequential_engine() {
    let scenario = bank_scenario();
    for policy in [
        ResponsePolicy::Exact,
        ResponsePolicy::FirstK(2),
        ResponsePolicy::SoundSample {
            probability: 0.7,
            seed: 17,
        },
    ] {
        for batch_size in [1, 4, 8] {
            assert_equivalent(&scenario, &policy, batch_size);
        }
    }
}

#[test]
fn negative_bank_grid_matches_sequential_engine() {
    let scenario = bank_scenario_negative();
    for policy in [
        ResponsePolicy::Exact,
        ResponsePolicy::FirstK(3),
        ResponsePolicy::SoundSample {
            probability: 0.5,
            seed: 3,
        },
    ] {
        for batch_size in [1, 4] {
            assert_equivalent(&scenario, &policy, batch_size);
        }
    }
}

#[test]
fn random_workload_grid_matches_sequential_engine() {
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
            for batch_size in [1, 4] {
                assert_equivalent(&scenario, &policy, batch_size);
            }
        }
    }
}

#[test]
fn eager_speculation_matches_cached_only_and_sequential() {
    // Eager speculation runs the decision procedures, without caching or
    // logging their verdicts, to predict a batch. Prediction is an
    // optimisation, never a semantic knob: for every scenario, policy and
    // guided strategy the Eager run must be byte-for-byte the CachedOnly
    // and sequential runs.
    let scenarios = [
        bank_scenario(),
        bank_scenario_negative(),
        random_scenario(11),
    ];
    for scenario in &scenarios {
        for policy in [
            ResponsePolicy::Exact,
            ResponsePolicy::SoundSample {
                probability: 0.7,
                seed: 17,
            },
        ] {
            let sequential_source = DeepWebSource::new(
                scenario.instance.clone(),
                scenario.methods.clone(),
                policy.clone(),
            );
            let sequential_exec = Sequential::new(&sequential_source);
            let federation = Federation::single(policy_source(scenario, &policy, "grid"));
            let threaded = Threaded::new(&federation);
            for strategy in [Strategy::LtrGuided, Strategy::Hybrid] {
                let request = |speculation| {
                    RunRequest::new(scenario.query.clone())
                        .with_strategy(strategy)
                        .with_options(RunOptions {
                            batch_size: 3,
                            workers: 2,
                            speculation,
                            ..run_options()
                        })
                };
                sequential_exec.reset_stats();
                let sequential = sequential_exec.execute(
                    &request(SpeculationMode::CachedOnly),
                    &scenario.initial_configuration,
                );
                threaded.reset_stats();
                let cached = threaded.execute(
                    &request(SpeculationMode::CachedOnly),
                    &scenario.initial_configuration,
                );
                threaded.reset_stats();
                let eager = threaded.execute(
                    &request(SpeculationMode::Eager),
                    &scenario.initial_configuration,
                );
                let cell = format!(
                    "scenario={} strategy={} policy={policy:?}",
                    scenario.name,
                    strategy.name()
                );
                for (mode, report) in [("cached", &cached), ("eager", &eager)] {
                    assert_eq!(
                        report.access_sequence, sequential.access_sequence,
                        "access sequence diverged ({mode}): {cell}"
                    );
                    assert_eq!(
                        report.relevance_verdicts, sequential.relevance_verdicts,
                        "relevance verdict log diverged ({mode}): {cell}"
                    );
                    assert_eq!(
                        report.certain, sequential.certain,
                        "verdict ({mode}): {cell}"
                    );
                    assert_eq!(
                        report.answers, sequential.answers,
                        "answers ({mode}): {cell}"
                    );
                    assert!(
                        report
                            .final_configuration
                            .same_facts(&sequential.final_configuration),
                        "final configurations differ ({mode}): {cell}"
                    );
                }
            }
        }
    }
}

use accrel::prelude::internals::VerdictRecord;

/// Whether `needle` is an (ordered, not necessarily contiguous) subsequence
/// of `hay`.
fn is_subsequence(needle: &[VerdictRecord], hay: &[VerdictRecord]) -> bool {
    let mut it = hay.iter();
    needle.iter().all(|n| it.any(|h| h == n))
}

#[test]
fn exact_invalidation_matches_relation_level_across_the_executor_grid() {
    // Precise invalidation re-verifies a cached verdict only when a
    // response inserted a value in a domain-and-prefix the verdict's
    // decision procedure consulted; exact invalidation coarsens the adom
    // reads to a whole-active-domain stamp; relation-level invalidation
    // drops every verdict whose coarse dependency set mentions the grown
    // relation. All three are sound, so for every scenario and strategy:
    //
    // * within each mode, every executor is byte-for-byte the sequential
    //   run (verdict log included);
    // * across modes, the observable run — access sequence, certainty,
    //   answers, final configuration — is identical;
    // * each refinement's verdict log is a subsequence of the next-coarser
    //   log (the skipped re-checks are the only difference): precise ⊆
    //   exact ⊆ relation-level — and misses and evictions are ordered the
    //   same way.
    let scenarios = [bank_scenario(), random_scenario(11)];
    let mut rechecks_saved = 0usize;
    for scenario in &scenarios {
        let policy = ResponsePolicy::Exact;
        let sequential_source = DeepWebSource::new(
            scenario.instance.clone(),
            scenario.methods.clone(),
            policy.clone(),
        );
        let sequential_exec = Sequential::new(&sequential_source);
        let federation = Federation::single(policy_source(scenario, &policy, "grid"));
        let async_federation =
            AsyncFederation::single_simulated(policy_source(scenario, &policy, "grid"));
        let threaded = Threaded::new(&federation);
        let asynced = Async::new(&async_federation);
        let executors: Vec<&dyn Executor> = vec![&threaded, &asynced];
        for strategy in Strategy::all() {
            let request = |invalidation| {
                RunRequest::new(scenario.query.clone())
                    .with_strategy(strategy)
                    .with_options(RunOptions {
                        batch_size: 4,
                        workers: 2,
                        invalidation,
                        ..run_options()
                    })
            };
            let mut by_mode = Vec::new();
            for invalidation in [
                InvalidationMode::Precise,
                InvalidationMode::Exact,
                InvalidationMode::RelationLevel,
            ] {
                let request = request(invalidation);
                sequential_exec.reset_stats();
                let sequential = sequential_exec.execute(&request, &scenario.initial_configuration);
                for executor in &executors {
                    executor.reset_stats();
                    let report = executor.execute(&request, &scenario.initial_configuration);
                    let cell = format!(
                        "executor={} scenario={} strategy={} mode={invalidation:?}",
                        executor.name(),
                        scenario.name,
                        strategy.name()
                    );
                    assert_eq!(
                        report.access_sequence, sequential.access_sequence,
                        "access sequence diverged: {cell}"
                    );
                    assert_eq!(
                        report.relevance_verdicts, sequential.relevance_verdicts,
                        "relevance verdict log diverged: {cell}"
                    );
                    assert_eq!(report.certain, sequential.certain, "verdict: {cell}");
                    assert_eq!(report.answers, sequential.answers, "answers: {cell}");
                    assert!(
                        report
                            .final_configuration
                            .same_facts(&sequential.final_configuration),
                        "final configurations differ: {cell}"
                    );
                }
                by_mode.push(sequential);
            }
            let [precise, exact, relation] = &by_mode[..] else {
                unreachable!()
            };
            let cell = format!("scenario={} strategy={}", scenario.name, strategy.name());
            for refined in [precise, exact] {
                assert_eq!(
                    refined.access_sequence, relation.access_sequence,
                    "invalidation mode changed the access sequence: {cell}"
                );
                assert_eq!(refined.certain, relation.certain, "verdict: {cell}");
                assert_eq!(refined.answers, relation.answers, "answers: {cell}");
                assert!(
                    refined
                        .final_configuration
                        .same_facts(&relation.final_configuration),
                    "invalidation mode changed the final configuration: {cell}"
                );
            }
            assert!(
                is_subsequence(&precise.relevance_verdicts, &exact.relevance_verdicts),
                "precise verdict log is not a subsequence of the exact log: {cell}"
            );
            assert!(
                is_subsequence(&exact.relevance_verdicts, &relation.relevance_verdicts),
                "exact verdict log is not a subsequence of the baseline: {cell}"
            );
            assert!(
                precise.relevance_cache_misses <= exact.relevance_cache_misses
                    && exact.relevance_cache_misses <= relation.relevance_cache_misses,
                "invalidation misses out of order ({} / {} / {}): {cell}",
                precise.relevance_cache_misses,
                exact.relevance_cache_misses,
                relation.relevance_cache_misses
            );
            assert!(
                precise.evictions <= exact.evictions && exact.evictions <= relation.evictions,
                "invalidation evictions out of order ({} / {} / {}): {cell}",
                precise.evictions,
                exact.evictions,
                relation.evictions
            );
            rechecks_saved += relation.relevance_cache_misses - precise.relevance_cache_misses;
        }
    }
    // Somewhere in the grid read-set invalidation actually kept a verdict
    // the coarse scheme would have re-checked — the feature is not vacuous.
    assert!(
        rechecks_saved > 0,
        "read-set invalidation never skipped a re-check anywhere in the grid"
    );
}

#[test]
fn multi_source_federation_matches_single_source() {
    // Splitting the bank's Web forms across two providers must not change
    // the run at all — routing is invisible to the engine semantics.
    let scenario = bank_scenario();
    let split = Federation::builder(scenario.methods.clone())
        .source(
            SimulatedSource::exact(
                "employees-and-offices",
                scenario.instance.clone(),
                scenario.methods.clone(),
            ),
            &["EmpOffAcc", "OfficeInfoAcc"],
        )
        .unwrap()
        .source(
            SimulatedSource::exact(
                "approvals-and-managers",
                scenario.instance.clone(),
                scenario.methods.clone(),
            )
            .with_latency(LatencyModel::recorded(15)),
            &["StateApprAcc", "EmpManAcc"],
        )
        .unwrap()
        .build()
        .unwrap();
    let single = Federation::single(SimulatedSource::exact(
        "monolith",
        scenario.instance.clone(),
        scenario.methods.clone(),
    ));
    for strategy in [Strategy::Exhaustive, Strategy::Hybrid] {
        let request = RunRequest::new(scenario.query.clone())
            .with_strategy(strategy)
            .with_options(RunOptions {
                batch_size: 4,
                workers: 2,
                ..run_options()
            });
        let split_exec = Threaded::new(&split);
        let single_exec = Threaded::new(&single);
        split_exec.reset_stats();
        let a = split_exec.execute(&request, &scenario.initial_configuration);
        single_exec.reset_stats();
        let b = single_exec.execute(&request, &scenario.initial_configuration);
        assert_eq!(a.access_sequence, b.access_sequence);
        assert_eq!(a.certain, b.certain);
        assert!(a.final_configuration.same_facts(&b.final_configuration));
    }
    // Both providers saw traffic on the exhaustive/hybrid runs.
    let per_source = split.per_source_stats();
    assert_eq!(per_source.len(), 2);
    assert!(per_source.iter().all(|(_, s)| s.calls > 0));
    assert!(per_source[1].1.simulated_latency_micros > 0);
}

#[test]
fn async_multi_source_federation_matches_threaded_and_advances_virtual_time() {
    // The bank's Web forms split across two *async* providers with latency,
    // flakiness and paging: cost models must not change semantics, and the
    // simulated latencies must elapse on the shared virtual clock instead
    // of wall time.
    let scenario = bank_scenario();
    // One provider-pair recipe feeds both federations, so "identically
    // shaped" holds by construction rather than by duplicated literals
    // (latencies recorded, not slept — the async side awaits them
    // virtually).
    let build_hr = || {
        SimulatedSource::exact(
            "hr-portal",
            scenario.instance.clone(),
            scenario.methods.clone(),
        )
        .with_latency(LatencyModel {
            base_micros: 120,
            jitter_micros: 40,
            seed: 1,
            sleep: false,
        })
        .with_paging(2)
    };
    let build_compliance = || {
        SimulatedSource::exact(
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
            period: 3,
            fail_attempts: 1,
            retries: 2,
        })
    };
    let async_split = AsyncFederation::builder(scenario.methods.clone())
        .simulated(build_hr(), &["EmpOffAcc", "OfficeInfoAcc"])
        .unwrap()
        .simulated(build_compliance(), &["StateApprAcc", "EmpManAcc"])
        .unwrap()
        .build()
        .unwrap();
    let threaded_split = Federation::builder(scenario.methods.clone())
        .source(build_hr(), &["EmpOffAcc", "OfficeInfoAcc"])
        .unwrap()
        .source(build_compliance(), &["StateApprAcc", "EmpManAcc"])
        .unwrap()
        .build()
        .unwrap();

    let threaded_exec = Threaded::new(&threaded_split);
    let async_exec = Async::new(&async_split);
    for strategy in [Strategy::Exhaustive, Strategy::Hybrid] {
        let request = RunRequest::new(scenario.query.clone())
            .with_strategy(strategy)
            .with_options(RunOptions {
                batch_size: 4,
                workers: 3,
                ..run_options()
            });
        threaded_exec.reset_stats();
        let threaded = threaded_exec.execute(&request, &scenario.initial_configuration);
        async_exec.reset_stats();
        let virtual_before = async_split.clock().now_micros();
        let asynced = async_exec.execute(&request, &scenario.initial_configuration);
        assert_eq!(asynced.access_sequence, threaded.access_sequence);
        assert_eq!(asynced.certain, threaded.certain);
        assert_eq!(asynced.relevance_verdicts, threaded.relevance_verdicts);
        assert!(asynced
            .final_configuration
            .same_facts(&threaded.final_configuration));
        // Per-run and per-source stats agree between the runtimes...
        assert_eq!(asynced.source_stats, threaded.source_stats);
        assert_eq!(
            async_split.per_source_stats(),
            threaded_split.per_source_stats()
        );
        // ...and the async run's latency elapsed on the virtual clock.
        assert!(async_split.clock().now_micros() > virtual_before);
    }
    let per_source = async_split.per_source_stats();
    assert!(per_source.iter().all(|(_, s)| s.calls > 0));
    assert!(per_source[0].1.pages_fetched > 0);
    assert!(per_source[1].1.retries > 0);
}

#[test]
fn one_session_serving_matches_async_traffic_and_virtual_makespan() {
    // The serving executor, a serve of one session with `workers` calls in
    // flight, is the async executor's run: the same accesses, verdicts,
    // answers and batches, the same backend traffic (retries, failures and
    // pages included) and the same virtual makespan (each run's federation
    // has a fresh clock at zero). The grid covers paging, tied and jittered
    // latencies, absorbed and exhausting flakiness, every strategy and
    // in-flight caps below, at and above the batch size.
    let scenario = bank_scenario();
    let latencies = [
        LatencyModel::recorded(100),
        LatencyModel {
            base_micros: 100,
            jitter_micros: 40,
            seed: 5,
            sleep: false,
        },
    ];
    let flakiness = [
        None,
        Some(FlakyModel {
            period: 2,
            fail_attempts: 1,
            retries: 2,
        }),
        Some(FlakyModel {
            period: 1,
            fail_attempts: 3,
            retries: 1,
        }),
    ];
    let federation = |latency: &LatencyModel, flaky: &Option<FlakyModel>| {
        let mut source =
            SimulatedSource::exact("bank", scenario.instance.clone(), scenario.methods.clone())
                .with_latency(latency.clone())
                .with_paging(2);
        if let Some(flaky) = flaky {
            source = source.with_flaky(flaky.clone());
        }
        AsyncFederation::single_simulated(source)
    };
    let mut cells = 0;
    for latency in &latencies {
        for flaky in &flakiness {
            for strategy in Strategy::all() {
                for (batch_size, workers) in [(1, 1), (4, 2), (8, 3), (8, 8)] {
                    let request = RunRequest::new(scenario.query.clone())
                        .with_strategy(strategy)
                        .with_options(RunOptions {
                            batch_size,
                            workers,
                            budget: SearchBudget::shallow(),
                            ..RunOptions::default()
                        });
                    let async_federation = federation(latency, flaky);
                    let asynced = Async::new(&async_federation)
                        .execute(&request, &scenario.initial_configuration);
                    let async_makespan = async_federation.clock().now_micros();
                    // IR-guided finds no access immediately relevant on the
                    // bank and makes no call; every other run waits on the
                    // clock.
                    assert_eq!(
                        async_makespan > 0,
                        strategy != Strategy::IrGuided,
                        "virtual time: {strategy:?}"
                    );

                    let serving_federation = federation(latency, flaky);
                    let session = Serving::new(&serving_federation)
                        .execute(&request, &scenario.initial_configuration);
                    let serving_makespan = serving_federation.clock().now_micros();

                    let cell = format!(
                        "latency={latency:?} flaky={flaky:?} strategy={} batch={batch_size} \
                         workers={workers}",
                        strategy.name()
                    );
                    assert_eq!(
                        session.access_sequence, asynced.access_sequence,
                        "access sequence: {cell}"
                    );
                    assert_eq!(
                        session.relevance_verdicts, asynced.relevance_verdicts,
                        "verdict log: {cell}"
                    );
                    assert_eq!(session.answers, asynced.answers, "answers: {cell}");
                    assert_eq!(
                        session.batch_stats, asynced.batch_stats,
                        "batch stats: {cell}"
                    );
                    assert_eq!(
                        session.source_stats, asynced.source_stats,
                        "source stats: {cell}"
                    );
                    assert_eq!(serving_makespan, async_makespan, "virtual makespan: {cell}");
                    cells += 1;
                }
            }
        }
    }
    assert_eq!(cells, 96);
}
