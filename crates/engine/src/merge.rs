//! The run loop every executor drives.
//!
//! [`MergeLoop`] is the whole of a run's control flow — round structure,
//! incremental candidate enumeration, strategy-driven selection through the
//! [`RelevanceOracle`], batch prediction and response merging — as a sans-IO
//! state machine. [`MergeLoop::step`] advances rounds until the run either
//! finishes ([`MergeStep::Done`]) or needs source responses for a predicted
//! batch ([`MergeStep::Fetch`]); the driver realises the fetch however it
//! likes and hands the responses back through [`MergeLoop::supply`]:
//!
//! * [`crate::Sequential`] calls its [`crate::DeepWebSource`] inline, one
//!   access per batch (batch size 1, so nothing is ever prefetched);
//! * the `Threaded` executor of `accrel-federation` spreads a batch over
//!   scoped worker threads, the `Async` executor polls it as futures on the
//!   virtual clock, and the serving layer routes it through its
//!   cross-session dedup table.
//!
//! The loop never evaluates the query itself. Its per-round stop check and
//! the report's certainty and Boolean answers come from the oracle's
//! per-run certainty status ([`RelevanceOracle::is_certain`]), which is fed
//! the rows each response commits and refreshed semi-naively; a
//! non-Boolean query's answers are still computed in full once, at the end.
//!
//! Candidates are incremental in the same way. The loop's [`AccessFrontier`]
//! keeps one row watermark per relation: each round's refresh reads only the
//! rows committed since the previous one and emits the accesses whose
//! binding uses a value new to the active domain. The loop refreshes it
//! between relevance checks, when no trail mark is open and no read recorder
//! is installed, so the pending set always equals what full re-enumeration
//! of the committed configuration would yield, less the accesses already
//! consumed.
//!
//! # Determinism invariant
//!
//! Concurrency enters *only* through speculative response prefetching: before
//! the selected access is fetched, the loop predicts the accesses the
//! strategy would pick next if every response were empty (from cached
//! verdicts alone, or — under [`SpeculationMode::Eager`] — via a scratch copy
//! of the oracle, so predictions never touch the authoritative verdict log)
//! and asks for the whole batch. Responses are consumed in selection order,
//! never in arrival order. Mispredicted prefetches are not discarded: a
//! deterministic response fetched early stays valid, so it is kept until the
//! loop selects its access (or the run ends, which is the only way a prefetch
//! is wasted — reported in [`BatchStats::speculative_wasted`]).
//!
//! Consequently, for sources whose response to an access is a deterministic
//! function of the access alone — every bundled source under every
//! [`crate::ResponsePolicy`] (`SoundSample` draws from an RNG hash-seeded per
//! access) — every executor reports the **same** `access_sequence`,
//! relevance-verdict log, certainty, answers and final configuration as the
//! sequential one, for every strategy and batch size. Only the traffic shape
//! (batch statistics, prefetched calls, latency) differs. Sharing one loop
//! makes that hold by construction; the equivalence grids in
//! `tests/federation_equivalence.rs` and `tests/serving_equivalence.rs` pin
//! it.

use std::collections::{BTreeSet, HashMap};

use accrel_access::enumerate::EnumerationOptions;
use accrel_access::frontier::AccessFrontier;
use accrel_access::{apply_access_in_place, Access, AccessMethods, Response};
use accrel_query::{certain, Query};
use accrel_schema::{Configuration, TrailOps, Tuple, Value};

use crate::engine::{BatchStats, RunReport, Strategy};
use crate::options::{RunOptions, SpeculationMode};
use crate::relevance::{RelevanceKind, RelevanceOracle, SharedVerdictCache};

/// What a [`MergeLoop::step`] asks of its driver.
#[derive(Debug)]
pub enum MergeStep {
    /// Call the sources for this predicted batch, hand the responses back
    /// through [`MergeLoop::supply`], then step again.
    Fetch(Vec<Access>),
    /// The run is over; take the report with [`MergeLoop::into_report`].
    Done,
}

/// One run of the strategy-faithful loop, as a sans-IO state machine (see
/// the module documentation). Build with [`MergeLoop::new`], then either
/// drive it synchronously with [`MergeLoop::run`] or step it by hand.
#[derive(Debug)]
pub struct MergeLoop<'q> {
    query: &'q Query,
    strategy: Strategy,
    options: RunOptions,
    methods: &'q AccessMethods,
    conf: Configuration,
    copies_before: u64,
    trail_before: TrailOps,
    accesses_made: usize,
    accesses_skipped: usize,
    tuples_retrieved: usize,
    rounds: usize,
    access_sequence: Vec<Access>,
    oracle: RelevanceOracle<'q>,
    frontier: AccessFrontier,
    /// Emitted-but-not-executed accesses. Sorted `(method, binding)` order
    /// equals the odometer order of full re-enumeration, so the loop selects
    /// exactly as a re-enumerating loop would.
    pending: BTreeSet<Access>,
    /// Fetched responses not yet consumed; `None` marks a failed call.
    prefetched: HashMap<Access, Option<Response>>,
    batch_stats: BatchStats,
    /// The access selected when the last `Fetch` was returned; consumed at
    /// the top of the next `step` once its response has been supplied.
    awaiting: Option<Access>,
}

impl<'q> MergeLoop<'q> {
    /// A loop answering `query` under `strategy` from `initial`, over the
    /// accesses `methods` allows. Options are normalized on entry (see
    /// [`RunOptions::normalize`]).
    pub fn new(
        query: &'q Query,
        strategy: Strategy,
        options: &RunOptions,
        methods: &'q AccessMethods,
        initial: &Configuration,
    ) -> Self {
        let options = options.normalize();
        let mut conf = initial.snapshot();
        // Own the working copy outright: relevance checks speculate on the
        // live store under trail marks, and detaching the (small) initial
        // shards up front keeps those probes free of lazy copy-on-write
        // detaches.
        conf.own_all_shards();
        // Committed inserts queue invalidation events for the oracle;
        // speculative (trailed) inserts roll back without queueing.
        conf.set_event_capture(true);
        let copies_before = conf.shard_copies();
        let trail_before = conf.trail_ops();
        let oracle = RelevanceOracle::new(query, methods, &options);
        let frontier = AccessFrontier::new(
            methods,
            EnumerationOptions {
                guessable_values: guessable_pool(query, &options, initial),
                max_accesses: usize::MAX,
            },
        );
        let batch_stats = BatchStats {
            workers: options.workers,
            ..BatchStats::default()
        };
        Self {
            query,
            strategy,
            options,
            methods,
            conf,
            copies_before,
            trail_before,
            accesses_made: 0,
            accesses_skipped: 0,
            tuples_retrieved: 0,
            rounds: 0,
            access_sequence: Vec::new(),
            oracle,
            frontier,
            pending: BTreeSet::new(),
            prefetched: HashMap::new(),
            batch_stats,
            awaiting: None,
        }
    }

    /// Attaches a cross-session [`SharedVerdictCache`] under the verdict
    /// class `class` (see [`RelevanceOracle::with_shared_cache`]).
    pub fn with_shared_cache(mut self, class: u64, cache: SharedVerdictCache) -> Self {
        self.oracle = self.oracle.with_shared_cache(class, cache);
        self
    }

    /// Drives the loop to completion, realising each predicted batch through
    /// `fetch` (which must return responses aligned with the batch slice; an
    /// `Err` is a failed call).
    pub fn run<E, F>(mut self, mut fetch: F) -> RunReport
    where
        F: FnMut(&[Access]) -> Vec<Result<Response, E>>,
    {
        while let MergeStep::Fetch(batch) = self.step() {
            let responses = fetch(&batch);
            self.supply(batch, responses);
        }
        self.into_report()
    }

    /// Advances the loop: consumes the previously awaited response (if a
    /// `Fetch` was outstanding), then runs rounds until the next batch is
    /// needed or the run finishes. A `Fetch` falls mid-round, where the
    /// selected access is called, so round counting does not depend on how
    /// the loop is driven.
    pub fn step(&mut self) -> MergeStep {
        if let Some(access) = self.awaiting.take() {
            self.consume(access);
        }
        loop {
            self.rounds += 1;
            if self.options.stop_when_certain
                && self.query.is_boolean()
                && self.oracle.is_certain(&self.conf)
            {
                return MergeStep::Done;
            }
            if self.accesses_made >= self.options.max_accesses {
                return MergeStep::Done;
            }
            let fresh = self.frontier.refresh(&self.conf, self.methods);
            self.pending.extend(fresh);
            if self.pending.is_empty() {
                return MergeStep::Done;
            }
            let selected = {
                let candidates: Vec<&Access> = self.pending.iter().collect();
                // The loop owns `conf`: relevance checks speculate on the
                // live store under trail marks — zero shard copies per
                // tentative-response probe.
                self.oracle.select_trailed(
                    self.strategy,
                    &candidates,
                    &mut self.conf,
                    &mut self.accesses_skipped,
                )
            };
            let Some(access) = selected else {
                return MergeStep::Done;
            };
            self.pending.remove(&access);

            if !self.prefetched.contains_key(&access) {
                let allowance = self
                    .options
                    .max_accesses
                    .saturating_sub(self.accesses_made)
                    .max(1);
                let copies_at_predict = self.conf.shard_copies();
                let batch = self.predict_batch(&access, allowance);
                self.batch_stats.speculative_shard_copies +=
                    self.conf.shard_copies() - copies_at_predict;
                self.batch_stats.batches += 1;
                self.batch_stats.max_batch = self.batch_stats.max_batch.max(batch.len());
                self.batch_stats.batched_calls += batch.len();
                self.awaiting = Some(access);
                return MergeStep::Fetch(batch);
            }
            self.consume(access);
        }
    }

    /// Hands the responses of a `Fetch`'s batch back to the loop, aligned
    /// with the batch; an `Err` is a failed call, which consumes its
    /// candidate without a response.
    ///
    /// # Panics
    ///
    /// If `responses` and `batch` differ in length.
    pub fn supply<E>(&mut self, batch: Vec<Access>, responses: Vec<Result<Response, E>>) {
        assert_eq!(responses.len(), batch.len(), "fetch must align with batch");
        for (access, response) in batch.into_iter().zip(responses) {
            self.prefetched.insert(access, response.ok());
        }
    }

    /// Applies the response of the selected access: a failed call consumes
    /// the candidate without a response; a successful one grows the
    /// configuration and invalidates the verdicts the growth touches.
    fn consume(&mut self, access: Access) {
        let response = self
            .prefetched
            .remove(&access)
            .expect("selected access was fetched by the driver");
        let Some(response) = response else {
            return;
        };
        self.tuples_retrieved += response.len();
        self.accesses_made += 1;
        self.access_sequence.push(access.clone());
        let before = self.conf.len();
        // The loop exclusively owns its configuration (shards detached up
        // front), so responses grow it in place — no per-round snapshot.
        let _ = apply_access_in_place(&mut self.conf, &access, &response, self.methods);
        if self.conf.len() > before {
            // The response grew exactly one relation (its method's): drain
            // its insert events and drop the verdicts they touch.
            if let Ok(m) = self.methods.get(access.method()) {
                self.oracle.observe_growth(&mut self.conf, m.relation());
            }
        } else {
            // A fully-duplicate response inserted nothing, queued no events,
            // and must evict nothing.
            debug_assert_eq!(self.conf.pending_events(), 0);
        }
    }

    /// Finishes the run and produces the report. `source_stats` is left at
    /// its default: the driver attributes source traffic, since only it
    /// knows which sources served the calls.
    pub fn into_report(mut self) -> RunReport {
        self.batch_stats.speculative_wasted = self.prefetched.len();
        // Read before the counters: the refresh that finds the query certain
        // evicts the cached `true` verdicts.
        let certain = self.oracle.is_certain(&self.conf);
        let answers = match (self.query.is_boolean(), certain) {
            (true, true) => vec![Tuple::empty()],
            (true, false) => Vec::new(),
            (false, _) => certain::certain_answers(self.query, &self.conf),
        };
        RunReport {
            strategy: self.strategy,
            certain,
            answers,
            accesses_made: self.accesses_made,
            accesses_skipped: self.accesses_skipped,
            tuples_retrieved: self.tuples_retrieved,
            rounds: self.rounds,
            relevance_cache_hits: self.oracle.hits(),
            relevance_cache_misses: self.oracle.misses(),
            relevance_shared_hits: self.oracle.shared_hits(),
            reads_tracked: self.oracle.reads_tracked(),
            evictions: self.oracle.evictions(),
            events_drained: self.oracle.events_drained(),
            access_sequence: self.access_sequence,
            relevance_verdicts: self.oracle.take_log(),
            source_stats: Default::default(),
            batch_stats: self.batch_stats,
            shard_copies: self.conf.shard_copies() - self.copies_before,
            trail_ops: self.conf.trail_ops().since(self.trail_before),
            final_configuration: self.conf,
        }
    }

    /// The batch the strategy would execute next if every response were
    /// empty: the selected access plus up to `batch_size - 1` follow-ups.
    /// Accesses whose responses are already fetched are skipped — their
    /// round trip is already paid for.
    fn predict_batch(&mut self, first: &Access, allowance: usize) -> Vec<Access> {
        let limit = self.options.batch_size.min(allowance).max(1);
        let mut batch = vec![first.clone()];
        if limit == 1 {
            return batch;
        }
        match self.options.speculation {
            SpeculationMode::Eager => self.predict_eager(&mut batch, limit),
            SpeculationMode::CachedOnly => self.predict_cached(&mut batch, limit),
        }
        batch
    }

    /// Eager prediction: replay the strategy's selection on a scratch oracle
    /// (new verdicts computed, then discarded) over the remaining pending
    /// candidates. The replays speculate on the live configuration under
    /// trail marks, so the whole prediction performs zero shard copies
    /// (pinned by [`BatchStats::speculative_shard_copies`]).
    fn predict_eager(&mut self, batch: &mut Vec<Access>, limit: usize) {
        let mut scratch = self.oracle.scratch();
        let mut rest = self.pending.clone();
        let mut skipped = 0usize;
        while batch.len() < limit {
            let next = {
                let candidates: Vec<&Access> = rest.iter().collect();
                scratch.select_trailed(self.strategy, &candidates, &mut self.conf, &mut skipped)
            };
            let Some(next) = next else {
                break;
            };
            rest.remove(&next);
            if !self.prefetched.contains_key(&next) {
                batch.push(next);
            }
        }
    }

    /// Cache-only prediction: walk the pending candidates in selection order
    /// using cached verdicts alone, stopping at the first candidate whose
    /// needed verdict is unknown (the strategy's next pick cannot be
    /// anticipated past it without running a decision procedure).
    fn predict_cached(&self, batch: &mut Vec<Access>, limit: usize) {
        let push = |batch: &mut Vec<Access>, a: &Access| {
            if !self.prefetched.contains_key(a) && !batch.contains(a) {
                batch.push(a.clone());
            }
        };
        // Pushes the successive pending candidates whose `kind` verdict is
        // cached true, up to the limit or the first unknown verdict.
        let walk = |batch: &mut Vec<Access>, kind: RelevanceKind| {
            for a in &self.pending {
                if batch.len() >= limit {
                    break;
                }
                match self.oracle.peek(kind, a) {
                    Some(true) => push(batch, a),
                    Some(false) => {}
                    None => break,
                }
            }
        };
        match self.strategy {
            Strategy::Exhaustive => {
                for a in &self.pending {
                    if batch.len() >= limit {
                        break;
                    }
                    push(batch, a);
                }
            }
            Strategy::IrGuided => walk(batch, RelevanceKind::Immediate),
            Strategy::LtrGuided => walk(batch, RelevanceKind::LongTerm),
            Strategy::Hybrid => {
                // The LTR fallback runs only when every IR verdict is false,
                // so it is predicted only when every pending IR verdict is
                // cached false.
                let all_ir_false = self
                    .pending
                    .iter()
                    .all(|a| self.oracle.peek(RelevanceKind::Immediate, a) == Some(false));
                let kind = if all_ir_false {
                    RelevanceKind::LongTerm
                } else {
                    RelevanceKind::Immediate
                };
                walk(batch, kind);
            }
        }
    }
}

/// The pool of guessable values for independent accesses: caller-provided
/// values plus the query constants (which the paper assumes are known) plus
/// the initial configuration's values, sorted and deduplicated.
fn guessable_pool(query: &Query, options: &RunOptions, initial: &Configuration) -> Vec<Value> {
    let mut pool = options.guessable_values.clone();
    pool.extend(query.constants());
    pool.extend(initial.all_values());
    pool.sort();
    pool.dedup();
    pool
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::run::{Executor, RunRequest, Sequential};
    use crate::scenarios::bank_scenario;
    use crate::source::{DeepWebSource, ResponsePolicy};

    fn bank_source() -> (DeepWebSource, crate::scenarios::Scenario) {
        let scenario = bank_scenario();
        let source = DeepWebSource::new(
            scenario.instance.clone(),
            scenario.methods.clone(),
            ResponsePolicy::Exact,
        );
        (source, scenario)
    }

    /// The sequential executor is the batch-1 driver: one batch per source
    /// call, nothing prefetched, whatever batching the options ask for.
    #[test]
    fn the_sequential_engine_reports_batch_one_structure() {
        let (source, scenario) = bank_source();
        let request = RunRequest::new(scenario.query.clone()).with_options(RunOptions {
            batch_size: 8,
            workers: 4,
            ..RunOptions::default()
        });
        let report = Sequential::new(&source).execute(&request, &scenario.initial_configuration);
        let stats = &report.batch_stats;
        assert!(report.accesses_made > 0);
        assert_eq!(stats.batches, report.source_stats.calls);
        assert_eq!(stats.batched_calls, stats.batches);
        assert_eq!((stats.max_batch, stats.workers), (1, 1));
        assert_eq!(stats.speculative_wasted, 0);
    }
}
