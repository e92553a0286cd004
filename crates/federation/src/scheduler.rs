//! The threaded executor: sequential semantics, concurrent execution.
//!
//! [`Threaded`] drives the engine crate's
//! [`accrel_engine::MergeLoop`] — the run loop every executor shares — and
//! realises each predicted batch by partitioning it across
//! `std::thread::scope` workers. The loop consumes the responses in
//! selection order, regardless of which worker finished first, so for
//! sources whose response to an access is a deterministic function of the
//! access alone — every [`crate::SimulatedSource`], under every engine
//! policy — a threaded run reports the **same** `access_sequence`,
//! relevance-verdict log, certain-answer verdict, answers and final
//! configuration as the sequential executor (see the determinism invariant
//! on [`accrel_engine::MergeLoop`]). Only the wall clock and the per-source
//! call counts (speculative prefetches) differ; the equivalence grid in
//! `tests/federation_equivalence.rs` pins every policy.

use accrel_engine::{MergeLoop, RunReport, RunRequest};
use accrel_schema::Configuration;

use crate::federation::Federation;

/// The threaded executor: runs a [`RunRequest`] over a [`Federation`] of
/// thread-safe sources, fetching each relevance-verified batch of accesses
/// concurrently while preserving the sequential executor's semantics (see
/// the module documentation for the determinism invariant).
#[derive(Debug, Clone, Copy)]
pub struct Threaded<'a> {
    federation: &'a Federation,
}

impl<'a> Threaded<'a> {
    /// A threaded executor over `federation`.
    pub fn new(federation: &'a Federation) -> Self {
        Self { federation }
    }
}

impl accrel_engine::Executor for Threaded<'_> {
    fn name(&self) -> &'static str {
        "threaded"
    }

    /// Runs the batched loop from `initial`. The report's `batch_stats`
    /// describe the speculation traffic and `source_stats` the federation's
    /// traffic during the run, churn and failover activity included;
    /// everything else matches what the sequential executor reports against
    /// sources returning the same responses.
    fn execute(&self, request: &RunRequest, initial: &Configuration) -> RunReport {
        let stats_before = self.federation.stats();
        let options = request.options.normalize();
        let merge = MergeLoop::new(
            &request.query,
            request.strategy,
            &options,
            self.federation.methods(),
            initial,
        );
        // Responses come back aligned with the batch: thread completion
        // order never shows.
        let mut report = merge.run(|batch| {
            crate::sweep::parallel_map(batch, options.workers, |a| self.federation.call(a))
        });
        report.source_stats = self.federation.stats().since(&stats_before);
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
    use accrel_engine::scenarios::{bank_scenario, Scenario};
    use accrel_engine::{
        DeepWebSource, Executor as _, ResponsePolicy, RunOptions, Sequential, SpeculationMode,
        Strategy,
    };

    fn bank_federation() -> (Federation, Scenario) {
        let scenario = bank_scenario();
        let federation = Federation::single(SimulatedSource::exact(
            "bank",
            scenario.instance.clone(),
            scenario.methods.clone(),
        ));
        (federation, scenario)
    }

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

    #[test]
    fn batched_run_answers_the_bank_query() {
        let (federation, scenario) = bank_federation();
        let report = run(
            &Threaded::new(&federation),
            &scenario,
            Strategy::Exhaustive,
            RunOptions::default(),
        );
        assert!(report.certain);
        assert!(report.accesses_made > 0);
        assert!(report.batch_stats.batches > 0);
        assert!(report.batch_stats.max_batch >= 1);
        assert_eq!(report.access_sequence.len(), report.accesses_made);
        // Speculative prefetches may exceed applied accesses, never the
        // other way round.
        assert!(report.source_stats.calls >= report.accesses_made);
    }

    #[test]
    fn batched_exhaustive_run_matches_sequential_engine_exactly() {
        let (federation, scenario) = bank_federation();
        let sequential_source = DeepWebSource::new(
            scenario.instance.clone(),
            scenario.methods.clone(),
            ResponsePolicy::Exact,
        );
        for strategy in Strategy::all() {
            let sequential = run(
                &Sequential::new(&sequential_source),
                &scenario,
                strategy,
                RunOptions::default(),
            );
            federation.reset_stats();
            let batched = run(
                &Threaded::new(&federation),
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
    }

    #[test]
    fn flaky_and_slow_backends_do_not_change_semantics() {
        let scenario = bank_scenario();
        let source =
            SimulatedSource::exact("bank", scenario.instance.clone(), scenario.methods.clone())
                .with_latency(LatencyModel::recorded(25))
                .with_flaky(FlakyModel {
                    period: 3,
                    fail_attempts: 1,
                    retries: 2,
                })
                .with_paging(2);
        let federation = Federation::single(source);
        let report = run(
            &Threaded::new(&federation),
            &scenario,
            Strategy::Hybrid,
            RunOptions::default(),
        );
        assert!(report.certain);
        let stats = federation.stats();
        assert!(stats.pages_fetched >= stats.calls);
        assert!(stats.simulated_latency_micros > 0);
        // Flaky retries were absorbed, never surfaced as failures.
        assert_eq!(stats.failures, 0);
    }

    #[test]
    fn eager_speculation_preserves_equivalence() {
        let (federation, scenario) = bank_federation();
        let engine_options = RunOptions {
            max_accesses: 12,
            budget: accrel_core::SearchBudget::shallow(),
            ..RunOptions::default()
        };
        let sequential_source = DeepWebSource::new(
            scenario.instance.clone(),
            scenario.methods.clone(),
            ResponsePolicy::Exact,
        );
        for strategy in [Strategy::LtrGuided, Strategy::Hybrid] {
            let sequential = run(
                &Sequential::new(&sequential_source),
                &scenario,
                strategy,
                engine_options.clone(),
            );
            federation.reset_stats();
            let batched = run(
                &Threaded::new(&federation),
                &scenario,
                strategy,
                RunOptions {
                    batch_size: 3,
                    workers: 2,
                    speculation: SpeculationMode::Eager,
                    ..engine_options.clone()
                },
            );
            assert_eq!(batched.access_sequence, sequential.access_sequence);
            assert_eq!(batched.relevance_verdicts, sequential.relevance_verdicts);
            assert_eq!(batched.certain, sequential.certain);
            assert!(batched
                .final_configuration
                .same_facts(&sequential.final_configuration));
        }
    }

    #[test]
    fn batch_size_one_disables_speculation() {
        let (federation, scenario) = bank_federation();
        let report = run(
            &Threaded::new(&federation),
            &scenario,
            Strategy::Exhaustive,
            RunOptions {
                batch_size: 1,
                workers: 1,
                ..RunOptions::default()
            },
        );
        assert!(report.certain);
        assert_eq!(report.batch_stats.batched_calls, report.batch_stats.batches);
        assert_eq!(report.batch_stats.speculative_wasted, 0);
        assert_eq!(report.source_stats.calls, report.accesses_made);
    }

    #[test]
    fn access_cap_bounds_prefetching_too() {
        let (federation, scenario) = bank_federation();
        let report = run(
            &Threaded::new(&federation),
            &scenario,
            Strategy::Exhaustive,
            RunOptions {
                max_accesses: 2,
                batch_size: 16,
                workers: 4,
                speculation: SpeculationMode::CachedOnly,
                ..RunOptions::default()
            },
        );
        assert_eq!(report.accesses_made, 2);
        // No batch may prefetch past the remaining access allowance.
        assert!(report.batch_stats.batched_calls <= 2 + report.batch_stats.speculative_wasted);
    }

    #[test]
    fn threaded_executor_runs_requests_and_zero_workers_normalize() {
        let (federation, scenario) = bank_federation();
        let executor = Threaded::new(&federation);
        assert_eq!(executor.name(), "threaded");
        // Regression for the centralized clamp: a zero-worker, zero-batch
        // request normalizes to 1/1 instead of panicking or dividing by
        // zero, and still answers the query.
        let options = RunOptions {
            workers: 0,
            batch_size: 0,
            ..RunOptions::default()
        };
        let report = run(&executor, &scenario, Strategy::Exhaustive, options);
        assert!(report.certain);
        assert_eq!(report.batch_stats.workers, 1);
        assert_eq!(report.batch_stats.max_batch, 1);
    }
}
