//! The run API: [`RunRequest`] in, [`RunReport`] out.
//!
//! A [`RunRequest`] (query + strategy + [`RunOptions`]) is the one way to
//! describe a run, and an [`Executor`] is the one way to execute it: the
//! sequential executor here, the threaded, async and serving executors of
//! `accrel-federation`. Every executor returns the same [`RunReport`], so
//! the equivalence grids iterate executors, the serving layer treats a
//! session as a request handed to an executor, and [`compare_strategies`]
//! sweeps strategies over any of them.

use accrel_query::Query;
use accrel_schema::Configuration;

use crate::engine::{RunReport, Strategy};
use crate::merge::MergeLoop;
use crate::options::RunOptions;
use crate::source::DeepWebSource;

/// One query run, fully described: what to answer, how to select accesses,
/// and under which options. Build with [`RunRequest::new`] and refine with
/// the `with_*` builders; hand to any [`Executor`].
#[derive(Debug, Clone)]
pub struct RunRequest {
    /// The query to answer.
    pub query: Query,
    /// The access-selection strategy.
    pub strategy: Strategy,
    /// The run options (semantic and execution knobs alike; executors ignore
    /// the knobs that do not apply to them).
    pub options: RunOptions,
}

impl RunRequest {
    /// A request for `query` with the paper's headline strategy
    /// ([`Strategy::Hybrid`]) and default options.
    pub fn new(query: Query) -> Self {
        Self {
            query,
            strategy: Strategy::Hybrid,
            options: RunOptions::default(),
        }
    }

    /// Replaces the strategy.
    pub fn with_strategy(mut self, strategy: Strategy) -> Self {
        self.strategy = strategy;
        self
    }

    /// Replaces the options.
    pub fn with_options(mut self, options: RunOptions) -> Self {
        self.options = options;
        self
    }
}

/// Something that can execute a [`RunRequest`] from an initial
/// configuration: the [`Sequential`] executor, or the `Threaded`, `Async`
/// and `Serving` executors of `accrel-federation`.
///
/// The contract every implementation upholds (and the equivalence grid
/// pins): for the same request, initial configuration and source contents,
/// the executed access sequence, certainty, answers and relevance-verdict
/// log are identical across executors — only the traffic-shape statistics
/// (batching, latency) may differ.
pub trait Executor {
    /// A short stable name for reports and test labels.
    fn name(&self) -> &'static str;

    /// Executes `request` starting from `initial`.
    fn execute(&self, request: &RunRequest, initial: &Configuration) -> RunReport;

    /// Resets the backing source statistics, so consecutive runs report
    /// their own traffic (used by [`compare_strategies`]).
    fn reset_stats(&self);
}

/// The sequential executor: the batch-1 driver of the shared [`MergeLoop`],
/// one access at a time against a single [`DeepWebSource`]. The semantic
/// baseline every other executor is tested against.
#[derive(Debug, Clone, Copy)]
pub struct Sequential<'a> {
    source: &'a DeepWebSource,
}

impl<'a> Sequential<'a> {
    /// A sequential executor over `source`.
    pub fn new(source: &'a DeepWebSource) -> Self {
        Self { source }
    }
}

impl Executor for Sequential<'_> {
    fn name(&self) -> &'static str {
        "sequential"
    }

    /// Runs until the query is certain, no candidate access remains, or the
    /// access limit is hit. The selected access is called on the source
    /// inline, so the source sees exactly the accesses the run executes and
    /// nothing is prefetched: the batching knobs of the options are ignored.
    fn execute(&self, request: &RunRequest, initial: &Configuration) -> RunReport {
        let options = RunOptions {
            batch_size: 1,
            workers: 1,
            ..request.options.clone()
        };
        let stats_before = self.source.stats();
        let merge = MergeLoop::new(
            &request.query,
            request.strategy,
            &options,
            self.source.methods(),
            initial,
        );
        let mut report = merge.run(|batch| batch.iter().map(|a| self.source.call(a)).collect());
        report.source_stats = self.source.stats().since(&stats_before);
        report
    }

    fn reset_stats(&self) {
        self.source.reset_stats();
    }
}

/// Runs `request` under every [`Strategy`] on the same initial
/// configuration and returns the reports in [`Strategy::all`] order,
/// resetting the executor's source statistics between runs so each report
/// carries only its own traffic.
pub fn compare_strategies<E: Executor + ?Sized>(
    executor: &E,
    request: &RunRequest,
    initial: &Configuration,
) -> Vec<RunReport> {
    Strategy::all()
        .into_iter()
        .map(|strategy| {
            executor.reset_stats();
            let run = request.clone().with_strategy(strategy);
            executor.execute(&run, initial)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenarios;
    use crate::source::ResponsePolicy;

    #[test]
    fn sequential_executor_reports_each_runs_own_traffic() {
        let scenario = scenarios::bank_scenario();
        let source = DeepWebSource::new(
            scenario.instance.clone(),
            scenario.methods.clone(),
            ResponsePolicy::Exact,
        );
        let request = RunRequest::new(scenario.query.clone()).with_strategy(Strategy::Exhaustive);
        let executor = Sequential::new(&source);
        assert_eq!(executor.name(), "sequential");
        let first = executor.execute(&request, &scenario.initial_configuration);
        // Without a reset in between, the second run still reports only its
        // own source traffic, and replays the first run exactly.
        let second = executor.execute(&request, &scenario.initial_configuration);
        assert_eq!(second.access_sequence, first.access_sequence);
        assert_eq!(second.certain, first.certain);
        assert_eq!(second.answers, first.answers);
        assert_eq!(second.source_stats, first.source_stats);
        assert_eq!(second.source_stats.calls, second.accesses_made);
        assert_eq!(source.stats().calls, 2 * first.accesses_made);
        assert_eq!(second.relevance_shared_hits, 0);
    }

    #[test]
    fn request_builders_set_strategy_and_options() {
        let scenario = scenarios::bank_scenario();
        let request = RunRequest::new(scenario.query.clone());
        assert_eq!(request.strategy, Strategy::Hybrid);
        let tuned = request
            .with_strategy(Strategy::LtrGuided)
            .with_options(RunOptions {
                max_accesses: 3,
                ..RunOptions::default()
            });
        assert_eq!(tuned.strategy, Strategy::LtrGuided);
        assert_eq!(tuned.options.max_accesses, 3);
    }

    #[test]
    fn compare_strategies_resets_stats_and_covers_every_strategy() {
        let scenario = scenarios::bank_scenario();
        let source = DeepWebSource::new(
            scenario.instance.clone(),
            scenario.methods.clone(),
            ResponsePolicy::Exact,
        );
        let reports = compare_strategies(
            &Sequential::new(&source),
            &RunRequest::new(scenario.query.clone()),
            &scenario.initial_configuration,
        );
        assert_eq!(reports.len(), Strategy::all().len());
        for (report, strategy) in reports.iter().zip(Strategy::all()) {
            assert_eq!(report.strategy, strategy);
            // Stats were reset between runs: each report's source traffic is
            // exactly its own accesses (plus nothing from earlier runs).
            assert_eq!(report.source_stats.calls, report.accesses_made);
        }
    }
}
