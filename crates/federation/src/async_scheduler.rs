//! The async executor: the threaded executor's merge loop, with batches
//! realised as concurrently-polled futures on the hand-rolled mini-executor
//! instead of scoped worker threads.
//!
//! # Determinism invariant, inherited
//!
//! [`Async`] drives the *same* [`accrel_engine::MergeLoop`] as the
//! threaded and sequential executors — not equivalent code, the same state
//! machine. A run is one task on one [`Executor`] over the federation's
//! shared [`VirtualClock`](crate::VirtualClock). Concurrency enters only
//! where the loop asks for a batch: the task awaits the batch's calls as
//! one batch join, each call gated by a FIFO [`Semaphore`] of `workers`
//! permits (the in-flight cap, one per run), and the merge loop consumes
//! no response before the whole batch is in. Responses are collected by
//! *batch position*, never completion order, so for sources whose
//! response is a deterministic function of the access — every
//! [`crate::AsyncSimulatedSource`] — an async run reports the same
//! `access_sequence`, relevance-verdict log, answers and final
//! configuration as the threaded and sequential executors (pinned by the
//! executor grid in `tests/federation_equivalence.rs`). A serving session
//! fetches its batches through the same join, so the [`crate::Serving`]
//! executor, one session capped at `workers` calls in flight, reports the
//! same traffic and virtual makespan as this one.
//!
//! What changes is the *cost model*: simulated round trips are awaited on
//! the virtual clock, so a batch's virtual makespan is its critical path
//! under the in-flight limit — `clock().now_micros()` before and after a
//! run measures exactly the latency-overlap payoff the paper's high-latency
//! deep-Web setting is about, with zero real sleeps and zero extra threads.
//! The F2 harness sweep reports this throughput-vs-in-flight curve.

use accrel_engine::{MergeLoop, MergeStep, RunReport, RunRequest};
use accrel_schema::Configuration;

use crate::async_federation::AsyncFederation;
use crate::executor::{Executor, JoinAll, Semaphore};

/// The async executor: runs a [`RunRequest`] over an [`AsyncFederation`],
/// awaiting each relevance-verified batch as one join of concurrent calls
/// on the virtual clock while preserving the sequential executor's
/// semantics (see the module documentation).
#[derive(Debug, Clone, Copy)]
pub struct Async<'a> {
    federation: &'a AsyncFederation,
}

impl<'a> Async<'a> {
    /// An async executor over `federation`.
    pub fn new(federation: &'a AsyncFederation) -> Self {
        Self { federation }
    }
}

impl accrel_engine::Executor for Async<'_> {
    fn name(&self) -> &'static str {
        "async"
    }

    /// Runs the batched loop from `initial` as one task on one mini-executor
    /// over the federation's clock. Everything in the report matches the
    /// threaded executor (and therefore the sequential one) against sources
    /// returning the same responses; only the wall clock and the
    /// federation's *virtual* clock tell the runs apart.
    fn execute(&self, request: &RunRequest, initial: &Configuration) -> RunReport {
        let federation = self.federation;
        let stats_before = federation.stats();
        let options = request.options.normalize();
        let gate = Semaphore::new(options.workers);
        let executor = Executor::new(federation.clock().clone());
        let run = executor.spawn(async {
            let mut merge = MergeLoop::new(
                &request.query,
                request.strategy,
                &options,
                federation.methods(),
                initial,
            );
            while let MergeStep::Fetch(batch) = merge.step() {
                let calls: Vec<_> = batch
                    .iter()
                    .map(|access| {
                        Box::pin(async {
                            let _permit = gate.acquire().await;
                            federation.call(access.clone()).await
                        })
                    })
                    .collect();
                let responses = JoinAll::new(calls).await;
                merge.supply(batch, responses);
            }
            merge.into_report()
        });
        // `AsyncSource`'s suspension contract: call futures only wait on the
        // shared virtual clock, so a fully-advanced run leaves nothing pending.
        assert_eq!(
            executor.run(),
            0,
            "async source futures may only suspend on the federation's \
             VirtualClock (see the AsyncSource suspension contract)"
        );
        let mut report = run.take().expect("the run task completed");
        report.source_stats = federation.stats().since(&stats_before);
        report
    }

    fn reset_stats(&self) {
        self.federation.reset_stats();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::{FlakyModel, LatencyModel, SimulatedSource};
    use crate::{Federation, Threaded};
    use accrel_access::Access;
    use accrel_core::SearchBudget;
    use accrel_engine::scenarios::{bank_scenario, Scenario};
    use accrel_engine::{DeepWebSource, ResponsePolicy, RunOptions, Sequential, Strategy};

    fn run(
        executor: &dyn accrel_engine::Executor,
        scenario: &Scenario,
        strategy: Strategy,
        options: RunOptions,
    ) -> RunReport {
        let request = RunRequest::new(scenario.query.clone())
            .with_strategy(strategy)
            .with_options(options);
        executor.execute(&request, &scenario.initial_configuration)
    }

    fn bank_source(scenario: &Scenario) -> SimulatedSource {
        SimulatedSource::exact("bank", scenario.instance.clone(), scenario.methods.clone())
            .with_latency(LatencyModel {
                base_micros: 100,
                jitter_micros: 40,
                seed: 5,
                sleep: false,
            })
            .with_paging(2)
    }

    #[test]
    fn async_run_matches_sequential_engine_for_every_strategy() {
        let scenario = bank_scenario();
        let sequential_source = DeepWebSource::new(
            scenario.instance.clone(),
            scenario.methods.clone(),
            ResponsePolicy::Exact,
        );
        let federation = AsyncFederation::single_simulated(bank_source(&scenario));
        for strategy in Strategy::all() {
            let sequential = run(
                &Sequential::new(&sequential_source),
                &scenario,
                strategy,
                RunOptions::default(),
            );
            federation.reset_stats();
            let batched = run(
                &Async::new(&federation),
                &scenario,
                strategy,
                RunOptions {
                    batch_size: 4,
                    workers: 3,
                    ..RunOptions::default()
                },
            );
            assert_eq!(batched.access_sequence, sequential.access_sequence);
            assert_eq!(batched.certain, sequential.certain);
            assert_eq!(batched.answers, sequential.answers);
            assert_eq!(batched.relevance_verdicts, sequential.relevance_verdicts);
            assert!(batched
                .final_configuration
                .same_facts(&sequential.final_configuration));
        }
        // The simulated latencies elapsed on the virtual clock.
        assert!(federation.clock().now_micros() > 0);
    }

    #[test]
    fn higher_in_flight_limits_shrink_the_virtual_makespan() {
        let scenario = bank_scenario();
        let mut elapsed = Vec::new();
        for in_flight in [1usize, 4] {
            let federation = AsyncFederation::single_simulated(bank_source(&scenario));
            let before = federation.clock().now_micros();
            let report = run(
                &Async::new(&federation),
                &scenario,
                Strategy::Exhaustive,
                RunOptions {
                    batch_size: 8,
                    workers: in_flight,
                    ..RunOptions::default()
                },
            );
            assert!(report.certain);
            elapsed.push((report, federation.clock().now_micros() - before));
        }
        let (serial_report, serial_micros) = &elapsed[0];
        let (overlapped_report, overlapped_micros) = &elapsed[1];
        // Same run, same simulated work...
        assert_eq!(
            serial_report.access_sequence,
            overlapped_report.access_sequence
        );
        assert_eq!(
            serial_report.source_stats.calls,
            overlapped_report.source_stats.calls
        );
        // ...but overlapping the round trips compresses virtual time.
        assert!(
            overlapped_micros < serial_micros,
            "in-flight 4 ({overlapped_micros}µs) must beat in-flight 1 ({serial_micros}µs)"
        );
    }

    #[test]
    fn eager_speculation_preserves_equivalence_async() {
        let scenario = bank_scenario();
        let engine_options = RunOptions {
            max_accesses: 12,
            budget: SearchBudget::shallow(),
            ..RunOptions::default()
        };
        let sequential_source = DeepWebSource::new(
            scenario.instance.clone(),
            scenario.methods.clone(),
            ResponsePolicy::Exact,
        );
        let federation = AsyncFederation::single_simulated(bank_source(&scenario));
        for strategy in [Strategy::LtrGuided, Strategy::Hybrid] {
            let sequential = run(
                &Sequential::new(&sequential_source),
                &scenario,
                strategy,
                engine_options.clone(),
            );
            federation.reset_stats();
            let batched = run(
                &Async::new(&federation),
                &scenario,
                strategy,
                RunOptions {
                    batch_size: 3,
                    workers: 2,
                    speculation: accrel_engine::SpeculationMode::Eager,
                    ..engine_options.clone()
                },
            );
            assert_eq!(batched.access_sequence, sequential.access_sequence);
            assert_eq!(batched.relevance_verdicts, sequential.relevance_verdicts);
            assert!(batched
                .final_configuration
                .same_facts(&sequential.final_configuration));
        }
    }

    /// Satellite: a flaky async source exhausting its retries must surface
    /// the same calls/retries/failures split as the threaded path — pinned
    /// against `Federation::per_source_stats`.
    #[test]
    fn flaky_retry_exhaustion_reports_identical_stats_to_the_threaded_path() {
        let scenario = bank_scenario();
        let flaky = FlakyModel {
            // Every access is flaky and fails more often than the source
            // retries: every call ends in an ultimate failure.
            period: 1,
            fail_attempts: 3,
            retries: 1,
        };
        let build = || {
            SimulatedSource::exact(
                "flaky-bank",
                scenario.instance.clone(),
                scenario.methods.clone(),
            )
            .with_latency(LatencyModel::recorded(50))
            .with_flaky(flaky.clone())
        };
        let options = RunOptions {
            batch_size: 4,
            workers: 2,
            ..RunOptions::default()
        };
        let threaded_federation = Federation::single(build());
        let threaded = run(
            &Threaded::new(&threaded_federation),
            &scenario,
            Strategy::Exhaustive,
            options.clone(),
        );
        let async_federation = AsyncFederation::single_simulated(build());
        let asynced = run(
            &Async::new(&async_federation),
            &scenario,
            Strategy::Exhaustive,
            options,
        );

        // Every call failed on both paths, and the split is identical.
        assert_eq!(threaded.source_stats, asynced.source_stats);
        assert_eq!(threaded.access_sequence, asynced.access_sequence);
        assert!(asynced.source_stats.failures > 0);
        assert_eq!(asynced.source_stats.calls, 0);
        let threaded_per_source = threaded_federation.per_source_stats();
        let async_per_source = async_federation.per_source_stats();
        assert_eq!(threaded_per_source, async_per_source);
        assert_eq!(
            async_per_source[0].1.retries,
            async_per_source[0].1.failures * flaky.retries
        );
    }

    /// Partially-absorbed flakiness (retries suffice) also matches.
    #[test]
    fn absorbed_retries_report_identical_stats_to_the_threaded_path() {
        let scenario = bank_scenario();
        let build = || {
            SimulatedSource::exact(
                "mostly-fine",
                scenario.instance.clone(),
                scenario.methods.clone(),
            )
            .with_flaky(FlakyModel {
                period: 2,
                fail_attempts: 1,
                retries: 2,
            })
        };
        let threaded_federation = Federation::single(build());
        let threaded = run(
            &Threaded::new(&threaded_federation),
            &scenario,
            Strategy::Hybrid,
            RunOptions::default(),
        );
        let async_federation = AsyncFederation::single_simulated(build());
        let asynced = run(
            &Async::new(&async_federation),
            &scenario,
            Strategy::Hybrid,
            RunOptions::default(),
        );
        assert!(threaded.certain && asynced.certain);
        assert_eq!(threaded.source_stats, asynced.source_stats);
        assert_eq!(
            threaded_federation.per_source_stats(),
            async_federation.per_source_stats()
        );
        assert_eq!(asynced.source_stats.failures, 0);
        assert!(asynced.source_stats.retries > 0);
    }

    /// Satellite: dropping the executor mid-batch (what dropping a run
    /// mid-batch amounts to — the batch futures die with it) leaks
    /// no tasks or timers and leaves the federation consistent for the next
    /// run.
    #[test]
    fn dropping_the_executor_mid_batch_leaks_nothing_and_stays_consistent() {
        let scenario = bank_scenario();
        let federation = AsyncFederation::single_simulated(bank_source(&scenario));
        let methods = federation.methods().clone();
        let batch: Vec<Access> = accrel_access::enumerate::well_formed_accesses(
            &scenario.initial_configuration,
            &methods,
            &accrel_access::enumerate::EnumerationOptions::default(),
        );
        assert!(batch.len() > 1);
        {
            let gate = Semaphore::new(2);
            let executor = Executor::new(federation.clock().clone());
            let fed = &federation;
            let calls: Vec<_> = batch
                .iter()
                .map(|access| {
                    Box::pin(async {
                        let _permit = gate.acquire().await;
                        fed.call(access.clone()).await
                    })
                })
                .collect();
            let _batch = executor.spawn(JoinAll::new(calls));
            // A few steps in: in-flight calls are parked on the clock.
            executor.run_until_stalled();
            assert_eq!(executor.pending_tasks(), 1);
            assert!(federation.clock().timer_count() > 0);
            // Abandon the batch mid-flight.
        }
        // Cancelled sleeps deregistered their timers: nothing leaked.
        assert_eq!(federation.clock().timer_count(), 0);
        // The federation remains fully usable and deterministic: a fresh
        // run equals the sequential engine despite the aborted batch.
        federation.reset_stats();
        let sequential_source = DeepWebSource::new(
            scenario.instance.clone(),
            scenario.methods.clone(),
            ResponsePolicy::Exact,
        );
        let sequential = run(
            &Sequential::new(&sequential_source),
            &scenario,
            Strategy::Hybrid,
            RunOptions::default(),
        );
        let rerun = run(
            &Async::new(&federation),
            &scenario,
            Strategy::Hybrid,
            RunOptions::default(),
        );
        assert_eq!(rerun.access_sequence, sequential.access_sequence);
        assert!(rerun
            .final_configuration
            .same_facts(&sequential.final_configuration));
    }

    #[test]
    fn blocking_sources_work_and_leave_the_clock_untouched() {
        let scenario = bank_scenario();
        let federation = AsyncFederation::single_simulated(SimulatedSource::exact(
            "bank",
            scenario.instance.clone(),
            scenario.methods.clone(),
        ));
        let report = run(
            &Async::new(&federation),
            &scenario,
            Strategy::Exhaustive,
            RunOptions::default(),
        );
        assert!(report.certain);
        assert_eq!(federation.clock().now_micros(), 0);
        assert!(report.source_stats.calls >= report.accesses_made);
    }

    #[test]
    fn compare_strategies_resets_stats_between_runs() {
        let scenario = bank_scenario();
        let federation = AsyncFederation::single_simulated(bank_source(&scenario));
        let request = RunRequest::new(scenario.query.clone()).with_options(RunOptions {
            max_accesses: 12,
            budget: SearchBudget::shallow(),
            ..RunOptions::default()
        });
        let reports = accrel_engine::compare_strategies(
            &Async::new(&federation),
            &request,
            &scenario.initial_configuration,
        );
        assert_eq!(reports.len(), Strategy::all().len());
        for report in &reports {
            assert_eq!(report.batch_stats.workers, 4);
            assert!(report.accesses_made <= 12);
            assert_eq!(report.access_sequence.len(), report.accesses_made);
        }
    }
}
