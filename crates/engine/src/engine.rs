//! What a run selects by and what it reports: the access-selection
//! [`Strategy`] and the [`RunReport`] every executor returns.
//!
//! A run is *incremental*: relevance verdicts are cached per candidate
//! access together with the exact set of `(relation, value)` pairs the
//! decision procedure consulted (see [`accrel_schema::ReadSet`]), and are
//! evicted only when a committed row touches a pair the verdict read — or,
//! under [`crate::InvalidationMode::RelationLevel`], when a
//! response adds facts to a relation in the verdict's coarse dependency set.
//! Rounds whose responses were empty (Boolean probes that missed, exhausted
//! accesses) or merely duplicated known facts re-use every verdict from the
//! previous round instead of re-running the decision procedures. Cache
//! traffic is reported in [`RunReport::relevance_cache_hits`] /
//! [`RunReport::relevance_cache_misses`], and [`RunReport::access_sequence`]
//! records the executed accesses in order so cached and uncached runs can be
//! compared for equality (the correctness criterion for the invalidation
//! scheme).
//!
//! What the run cost at the sources is one [`BackendStats`] in
//! [`RunReport::source_stats`] — calls, retries, pages, latency and, under
//! a chaos controller, churn, failovers and breaker activity — which each
//! executor fills in as the difference of two snapshots of its sources.
//! [`BatchStats`] describes the loop's batch structure instead.

use accrel_access::Access;
use accrel_schema::{Configuration, Tuple};

use crate::relevance::VerdictRecord;
use crate::source::BackendStats;

/// Access-selection strategies.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Strategy {
    /// Execute every well-formed access that has not been made yet — the
    /// exhaustive dynamic evaluation of Li \[18\], with no relevance check.
    Exhaustive,
    /// Execute only accesses that are immediately relevant for the query.
    IrGuided,
    /// Execute only accesses that are long-term relevant for the query.
    LtrGuided,
    /// Prefer immediately relevant accesses; when none exists, execute a
    /// long-term relevant one.
    Hybrid,
}

impl Strategy {
    /// All strategies, in presentation order.
    pub fn all() -> [Strategy; 4] {
        [
            Strategy::Exhaustive,
            Strategy::IrGuided,
            Strategy::LtrGuided,
            Strategy::Hybrid,
        ]
    }

    /// Human-readable name.
    pub fn name(&self) -> &'static str {
        match self {
            Strategy::Exhaustive => "exhaustive",
            Strategy::IrGuided => "ir-guided",
            Strategy::LtrGuided => "ltr-guided",
            Strategy::Hybrid => "hybrid",
        }
    }
}

/// Statistics about batched execution, filled in by the [`crate::MergeLoop`]
/// every executor drives. The sequential executor is its batch-1 driver: one
/// batch per source call, one worker, nothing prefetched or wasted.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct BatchStats {
    /// Number of batches issued to the sources.
    pub batches: usize,
    /// Size of the largest batch.
    pub max_batch: usize,
    /// Source calls issued through batches, including speculative prefetches
    /// whose responses were consumed in later rounds.
    pub batched_calls: usize,
    /// Prefetched responses never consumed by the merge loop (speculation
    /// waste).
    pub speculative_wasted: usize,
    /// The run's in-flight cap, [`crate::RunOptions::workers`]: every
    /// batched executor keeps at most this many of a batch's calls in
    /// flight (worker threads for the threaded executor, semaphore permits
    /// for the async and serving executors). A multi-session serve caps all
    /// its sessions together at `ServingOptions::max_in_flight_accesses`
    /// instead; its sessions still report their own requests' `workers`.
    pub workers: usize,
}

impl BatchStats {
    /// Mean batch size, or 0.0 when no batch was issued.
    pub fn mean_batch(&self) -> f64 {
        if self.batches == 0 {
            0.0
        } else {
            self.batched_calls as f64 / self.batches as f64
        }
    }
}

/// The outcome of an engine run.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// The strategy that produced this report.
    pub strategy: Strategy,
    /// Whether the (Boolean) query was certain when the run stopped.
    pub certain: bool,
    /// The certain answers at the end of the run (the empty tuple for a
    /// certain Boolean query).
    pub answers: Vec<Tuple>,
    /// Number of accesses executed: the length of `access_sequence`.
    pub accesses_made: usize,
    /// Number of candidate accesses that the relevance check rejected.
    pub accesses_skipped: usize,
    /// Total number of tuples retrieved from the source.
    pub tuples_retrieved: usize,
    /// Number of engine rounds (each round re-enumerates candidates).
    pub rounds: usize,
    /// Relevance verdicts answered from the incremental cache.
    pub relevance_cache_hits: usize,
    /// Relevance verdicts the per-run cache did not hold: each ran a
    /// decision procedure, except a Boolean query's once it was certain
    /// (those are `false` without a search).
    pub relevance_cache_misses: usize,
    /// Of the per-run cache misses, how many were answered from the
    /// cross-session [`crate::relevance::SharedVerdictCache`] instead of
    /// running a decision procedure. Always zero outside the serving layer
    /// of `accrel-federation`.
    pub relevance_shared_hits: usize,
    /// Total `(relation, value)`-grade read-set entries recorded across the
    /// run's decision-procedure invocations. Zero under
    /// [`crate::InvalidationMode::RelationLevel`] or with the cache off.
    /// For a Boolean query these are the searches' reads alone: the run's
    /// certainty status replaces the procedures' certainty pre-check, so
    /// its reads are never recorded.
    pub reads_tracked: usize,
    /// Cached relevance verdicts evicted by growing responses — per touched
    /// read under exact invalidation, per dep relation under relation-level
    /// — plus, for a Boolean query, the cached `true` verdicts evicted when
    /// the query turned certain.
    pub evictions: usize,
    /// Committed response rows drained by exact or precise invalidation:
    /// every row a response committed after the run cached its first
    /// verdict. Zero under relation-level invalidation, with the cache off,
    /// and for runs that cache no verdict (`Exhaustive`).
    pub events_drained: usize,
    /// The accesses executed, in execution order (for comparing cached and
    /// uncached runs).
    pub access_sequence: Vec<Access>,
    /// Every relevance decision-procedure invocation of the run, in order
    /// (cache re-reads are not recorded; empty when the cache is disabled).
    pub relevance_verdicts: Vec<VerdictRecord>,
    /// Source traffic attributable to this run: calls, retries, failures,
    /// tuples, pages and simulated latency, plus the churn, failover and
    /// breaker counters of a federation's chaos controller (zero without
    /// one). Answers never depend on these counters.
    pub source_stats: BackendStats,
    /// Batched-execution statistics (one batch per source call for the
    /// sequential executor).
    pub batch_stats: BatchStats,
    /// Copy-on-write shard copies the run's configuration handle performed.
    /// The engine snapshots the initial configuration in O(relations), and
    /// its responses append to shard tails of the snapshot's own beside the
    /// bases it shares with the initial configuration, so a run copies
    /// nothing however large that configuration is: a copy happens only
    /// when the handle writes a tail that another handle shares. The
    /// decision procedures and batch prediction only read the
    /// configuration.
    pub shard_copies: u64,
    /// Always zero: no decision procedure writes the configuration, so
    /// there is nothing to undo. Kept only because the benchmark package
    /// reads it (ROADMAP direction 3).
    pub trail_ops: TrailOps,
    /// The final configuration.
    pub final_configuration: Configuration,
}

/// The undo-log counters a [`RunReport`] once carried. Both are always
/// zero; the type stays only for [`RunReport::trail_ops`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TrailOps {
    /// Undo entries recorded.
    pub pushed: u64,
    /// Undo entries replayed.
    pub undone: u64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::options::RunOptions;
    use crate::run::{compare_strategies, Executor, RunRequest, Sequential};
    use crate::scenarios::{self, Scenario};
    use crate::source::{DeepWebSource, ResponsePolicy};
    use accrel_core::SearchBudget;
    use accrel_query::certain;

    fn run(
        source: &DeepWebSource,
        scenario: &Scenario,
        strategy: Strategy,
        options: RunOptions,
    ) -> RunReport {
        let request = RunRequest::new(scenario.query.clone())
            .with_strategy(strategy)
            .with_options(options);
        Sequential::new(source).execute(&request, &scenario.initial_configuration)
    }

    #[test]
    fn exhaustive_engine_answers_the_bank_query() {
        let scenario = scenarios::bank_scenario();
        let source = DeepWebSource::new(
            scenario.instance.clone(),
            scenario.methods.clone(),
            ResponsePolicy::Exact,
        );
        let report = run(
            &source,
            &scenario,
            Strategy::Exhaustive,
            RunOptions::default(),
        );
        assert!(report.certain);
        assert!(report.accesses_made > 0);
        assert_eq!(report.strategy, Strategy::Exhaustive);
        assert!(!report.final_configuration.is_empty());
        assert_eq!(report.access_sequence.len(), report.accesses_made);
    }

    #[test]
    fn relevance_guided_strategies_make_fewer_accesses() {
        let scenario = scenarios::bank_scenario();
        let source = DeepWebSource::new(
            scenario.instance.clone(),
            scenario.methods.clone(),
            ResponsePolicy::Exact,
        );
        let request = RunRequest::new(scenario.query.clone());
        let reports = compare_strategies(
            &Sequential::new(&source),
            &request,
            &scenario.initial_configuration,
        );
        let exhaustive = reports
            .iter()
            .find(|r| r.strategy == Strategy::Exhaustive)
            .unwrap();
        let hybrid = reports
            .iter()
            .find(|r| r.strategy == Strategy::Hybrid)
            .unwrap();
        let ltr = reports
            .iter()
            .find(|r| r.strategy == Strategy::LtrGuided)
            .unwrap();
        // Every strategy that terminates with an answer must agree on it.
        assert!(exhaustive.certain);
        assert!(hybrid.certain);
        assert!(ltr.certain);
        // Relevance-guided runs never make more accesses than the
        // exhaustive baseline on this scenario.
        assert!(hybrid.accesses_made <= exhaustive.accesses_made);
        assert!(ltr.accesses_made <= exhaustive.accesses_made);
    }

    #[test]
    fn cached_runs_execute_the_same_access_sequences_as_uncached() {
        for scenario in [
            scenarios::bank_scenario(),
            scenarios::bank_scenario_negative(),
        ] {
            let source = DeepWebSource::new(
                scenario.instance.clone(),
                scenario.methods.clone(),
                ResponsePolicy::Exact,
            );
            // A shallow budget and a tight access cap keep the *uncached*
            // runs affordable; the property under test (identical access
            // sequences) is budget-independent since both sides share it.
            let cached = RunOptions {
                max_accesses: 12,
                budget: SearchBudget::shallow(),
                ..RunOptions::default()
            };
            let uncached = RunOptions {
                use_relevance_cache: false,
                ..cached.clone()
            };
            let executor = Sequential::new(&source);
            let with_cache = compare_strategies(
                &executor,
                &RunRequest::new(scenario.query.clone()).with_options(cached),
                &scenario.initial_configuration,
            );
            let without_cache = compare_strategies(
                &executor,
                &RunRequest::new(scenario.query.clone()).with_options(uncached),
                &scenario.initial_configuration,
            );
            for (c, u) in with_cache.iter().zip(&without_cache) {
                assert_eq!(c.strategy, u.strategy);
                assert_eq!(
                    c.access_sequence,
                    u.access_sequence,
                    "cache changed the {} access sequence on {}",
                    c.strategy.name(),
                    scenario.name
                );
                assert_eq!(c.certain, u.certain);
                assert_eq!(c.answers, u.answers);
                // The uncached run never consults the cache.
                assert_eq!(u.relevance_cache_hits, 0);
                assert_eq!(u.relevance_cache_misses, 0);
            }
        }
    }

    #[test]
    fn relevance_cache_reports_traffic_on_guided_runs() {
        let scenario = scenarios::bank_scenario();
        let source = DeepWebSource::new(
            scenario.instance.clone(),
            scenario.methods.clone(),
            ResponsePolicy::Exact,
        );
        let report = run(&source, &scenario, Strategy::Hybrid, RunOptions::default());
        assert!(report.certain);
        // Every candidate was checked at least once...
        assert!(report.relevance_cache_misses > 0);
        // ...and repeated rounds over unchanged relations hit the cache.
        assert!(report.relevance_cache_hits > 0);
    }

    #[test]
    fn engine_respects_access_limit() {
        let scenario = scenarios::bank_scenario();
        let source = DeepWebSource::new(
            scenario.instance.clone(),
            scenario.methods.clone(),
            ResponsePolicy::Exact,
        );
        let options = RunOptions {
            max_accesses: 1,
            ..RunOptions::default()
        };
        let report = run(&source, &scenario, Strategy::Exhaustive, options);
        assert_eq!(report.accesses_made, 1);
        assert!(!report.certain);
    }

    #[test]
    fn ir_guided_engine_stops_when_nothing_is_immediately_relevant() {
        // In the bank scenario nothing is immediately relevant at the start
        // (the query needs facts from several relations), so the IR-guided
        // engine stops early without answering — illustrating why long-term
        // relevance is the right notion for multi-step plans.
        let scenario = scenarios::bank_scenario();
        let source = DeepWebSource::new(
            scenario.instance.clone(),
            scenario.methods.clone(),
            ResponsePolicy::Exact,
        );
        let report = run(
            &source,
            &scenario,
            Strategy::IrGuided,
            RunOptions::default(),
        );
        assert!(!report.certain);
        assert_eq!(report.accesses_made, 0);
        assert!(report.accesses_skipped > 0);
    }

    #[test]
    fn sound_but_incomplete_sources_still_yield_sound_answers() {
        let scenario = scenarios::bank_scenario();
        let source = DeepWebSource::new(
            scenario.instance.clone(),
            scenario.methods.clone(),
            ResponsePolicy::SoundSample {
                probability: 0.7,
                seed: 7,
            },
        );
        let report = run(
            &source,
            &scenario,
            Strategy::Exhaustive,
            RunOptions::default(),
        );
        // Whatever was learnt is consistent with the hidden instance.
        assert!(source
            .hidden_instance()
            .is_consistent(&report.final_configuration));
        // If the engine declared the query certain, it really is true in the
        // hidden instance.
        if report.certain {
            assert!(certain::is_certain(
                &scenario.query,
                &source.hidden_instance().full_configuration()
            ));
        }
    }

    #[test]
    fn strategy_names_and_listing() {
        assert_eq!(Strategy::all().len(), 4);
        assert_eq!(Strategy::Exhaustive.name(), "exhaustive");
        assert_eq!(Strategy::IrGuided.name(), "ir-guided");
        assert_eq!(Strategy::LtrGuided.name(), "ltr-guided");
        assert_eq!(Strategy::Hybrid.name(), "hybrid");
    }
}
