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
//! Growth is read, not queued: each consumer below follows the
//! configuration's append-only store through an
//! [`accrel_schema::GrowthCursor`] of its own, and after a growing response
//! the loop tells the oracle, which evicts the verdicts the rows could flip.
//!
//! The loop never evaluates the query itself. Its per-round stop check and
//! the report's certainty and Boolean answers come from the oracle's
//! per-run certainty status ([`RelevanceOracle::is_certain`]), which reads
//! the rows committed since its last refresh and refreshes semi-naively; a
//! non-Boolean query's answers are still computed in full once, at the end.
//!
//! Candidate accesses are incremental in the same way. Each round's
//! refresh of the loop's [`AccessFrontier`] reads only the active-domain
//! pairs that entered since the previous one and emits the accesses whose
//! binding uses a value new to the active domain. The loop refreshes it between relevance
//! checks, when no read recorder is installed, so the pending set always
//! equals what full re-enumeration of the configuration would yield, less
//! the accesses already consumed.
//!
//! The loop owns its working configuration, a snapshot of the initial one,
//! and only its own responses write it: the decision procedures read it
//! (the oracle borrows it mutably only to install its read recorder), and
//! a response appends to shard tails of the snapshot's own beside the
//! bases it shares with the initial configuration, so no write copies a
//! shard.
//!
//! # Determinism invariant
//!
//! Concurrency enters *only* through speculative response prefetching: before
//! the selected access is fetched, the loop predicts the accesses the
//! strategy would pick next if every response were empty and asks for the
//! whole batch. Prediction is one walk over the unfetched pending accesses
//! in key order: `Exhaustive` takes them as they come, and a guided
//! strategy takes those it finds relevant, but only under
//! [`SpeculationMode::Eager`], whose verdicts come from the cache or from a
//! side-effect-free oracle call ([`RelevanceOracle::predict`]), so
//! prediction never touches the verdict log, the counters or the shared
//! cache. Responses are consumed in selection order, never in arrival
//! order. Mispredicted prefetches are not discarded: a deterministic
//! response fetched early stays valid, so it is kept until the loop selects
//! its access (or the run ends, which is the only way a prefetch is wasted
//! — reported in [`BatchStats::speculative_wasted`]). The loop
//! keeps those responses in its one pending map, beside the accesses they
//! answer: each pending access is unfetched, fetched with its response, or
//! failed, so selection and prediction walk one ordered structure and tell a
//! prefetched candidate apart without a lookup.
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

use std::collections::BTreeMap;

use accrel_access::enumerate::EnumerationOptions;
use accrel_access::frontier::AccessFrontier;
use accrel_access::{apply_access_in_place, Access, AccessMethods, AccessMode, Response};
use accrel_query::{certain, Query};
use accrel_schema::{Configuration, Tuple, Value};

use crate::engine::{BatchStats, RunReport, Strategy, TrailOps};
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
    accesses_made: usize,
    accesses_skipped: usize,
    tuples_retrieved: usize,
    rounds: usize,
    access_sequence: Vec<Access>,
    oracle: RelevanceOracle<'q>,
    frontier: AccessFrontier,
    /// Emitted-but-not-executed accesses, each with its fetch state.
    /// Sorted `(method, binding)` order equals the odometer order of full
    /// re-enumeration, so the loop selects exactly as a re-enumerating loop
    /// would.
    pending: BTreeMap<Access, Fetch>,
    batch_stats: BatchStats,
    /// The access selected when the last `Fetch` was returned. `supply`
    /// puts it back into `pending` with its response, and the next `step`
    /// consumes it first.
    awaiting: Option<Access>,
}

/// Where a pending access's response stands.
#[derive(Debug)]
enum Fetch {
    /// Not fetched: selecting the access asks the driver for a batch.
    Unfetched,
    /// Fetched by an earlier batch, and consumed when selected.
    Fetched(Response),
    /// Fetched, but the call failed: selecting the access consumes it
    /// without a response.
    Failed,
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
        let conf = initial.snapshot();
        let copies_before = conf.shard_copies();
        let oracle = RelevanceOracle::new(query, methods, &options);
        let frontier = AccessFrontier::new(
            methods,
            EnumerationOptions {
                guessable_values: guessable_pool(query, &options, methods, initial),
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
            accesses_made: 0,
            accesses_skipped: 0,
            tuples_retrieved: 0,
            rounds: 0,
            access_sequence: Vec::new(),
            oracle,
            frontier,
            pending: BTreeMap::new(),
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
            let fetch = self
                .pending
                .remove(&access)
                .expect("the awaited access was supplied");
            self.consume(access, fetch);
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
            for access in fresh {
                self.pending.entry(access).or_insert(Fetch::Unfetched);
            }
            if self.pending.is_empty() {
                return MergeStep::Done;
            }
            let selected = self.oracle.select(
                self.strategy,
                self.pending.keys(),
                &mut self.conf,
                &mut self.accesses_skipped,
            );
            let Some(access) = selected else {
                return MergeStep::Done;
            };
            let fetch = self
                .pending
                .remove(&access)
                .expect("selected from the pending map");
            if let Fetch::Unfetched = fetch {
                let allowance = self
                    .options
                    .max_accesses
                    .saturating_sub(self.accesses_made)
                    .max(1);
                let batch = self.predict_batch(&access, allowance);
                self.batch_stats.batches += 1;
                self.batch_stats.max_batch = self.batch_stats.max_batch.max(batch.len());
                self.batch_stats.batched_calls += batch.len();
                self.awaiting = Some(access);
                return MergeStep::Fetch(batch);
            }
            self.consume(access, fetch);
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
            let fetch = match response {
                Ok(response) => Fetch::Fetched(response),
                Err(_) => Fetch::Failed,
            };
            self.pending.insert(access, fetch);
        }
    }

    /// Applies the response of the selected access: a failed call consumes
    /// the candidate without a response; a successful one grows the
    /// configuration and invalidates the verdicts the growth touches.
    fn consume(&mut self, access: Access, fetch: Fetch) {
        let response = match fetch {
            Fetch::Fetched(response) => response,
            Fetch::Failed => return,
            Fetch::Unfetched => unreachable!("selected access was fetched by the driver"),
        };
        self.tuples_retrieved += response.len();
        self.accesses_made += 1;
        self.access_sequence.push(access.clone());
        let before = self.conf.len();
        // The loop owns its configuration, so responses grow it in place —
        // no per-round snapshot.
        let _ = apply_access_in_place(&mut self.conf, &access, &response, self.methods);
        if self.conf.len() > before {
            // The response grew exactly one relation (its method's): drop
            // the verdicts its rows could flip.
            if let Ok(m) = self.methods.get(access.method()) {
                self.oracle.observe_growth(&mut self.conf, m.relation());
            }
        }
    }

    /// Finishes the run and produces the report. `source_stats` is left at
    /// its default: the driver attributes source traffic, since only it
    /// knows which sources served the calls.
    pub fn into_report(mut self) -> RunReport {
        self.batch_stats.speculative_wasted = self
            .pending
            .values()
            .filter(|fetch| !matches!(fetch, Fetch::Unfetched))
            .count();
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
            trail_ops: TrailOps::default(),
            final_configuration: self.conf,
        }
    }

    /// The batch the strategy would execute next if every response were
    /// empty: the selected access plus up to `batch_size - 1` unfetched
    /// pending accesses, in key order. Accesses whose responses are already
    /// fetched are skipped — their round trip is already paid for. The
    /// selected access has left the pending map, so it is never predicted
    /// twice.
    ///
    /// `Exhaustive` takes the next unfetched accesses without a verdict. A
    /// guided strategy under [`SpeculationMode::CachedOnly`] predicts
    /// nothing: `select` stops at the first candidate it finds relevant and
    /// takes it out of the pending map, and nothing else caches a verdict,
    /// so every cached verdict of a pending access is `false`. Under
    /// [`SpeculationMode::Eager`] each unfetched access is kept when
    /// [`RelevanceOracle::predict`] finds it relevant; `Hybrid` takes the
    /// IR-relevant ones first, then the LTR-relevant ones among the rest,
    /// as its selection would.
    fn predict_batch(&self, first: &Access, allowance: usize) -> Vec<Access> {
        let limit = self.options.batch_size.min(allowance).max(1);
        let mut batch = vec![first.clone()];
        if limit == 1 {
            return batch;
        }
        let unfetched = self
            .pending
            .iter()
            .filter(|(_, fetch)| matches!(fetch, Fetch::Unfetched))
            .map(|(access, _)| access);
        let (kind, fallback) = match (self.strategy, self.options.speculation) {
            (Strategy::Exhaustive, _) => {
                batch.extend(unfetched.take(limit - 1).cloned());
                return batch;
            }
            (_, SpeculationMode::CachedOnly) => return batch,
            (Strategy::IrGuided, SpeculationMode::Eager) => (RelevanceKind::Immediate, None),
            (Strategy::LtrGuided, SpeculationMode::Eager) => (RelevanceKind::LongTerm, None),
            (Strategy::Hybrid, SpeculationMode::Eager) => {
                (RelevanceKind::Immediate, Some(RelevanceKind::LongTerm))
            }
        };
        let relevant = |kind, access: &Access| self.oracle.predict(kind, access, &self.conf);
        let mut rejected = Vec::new();
        for access in unfetched {
            if batch.len() >= limit {
                return batch;
            }
            if relevant(kind, access) {
                batch.push(access.clone());
            } else if fallback.is_some() {
                rejected.push(access);
            }
        }
        if let Some(kind) = fallback {
            for access in rejected {
                if batch.len() >= limit {
                    break;
                }
                if relevant(kind, access) {
                    batch.push(access.clone());
                }
            }
        }
        batch
    }
}

/// The pool of guessable values for independent accesses: caller-provided
/// values plus the query constants (which the paper assumes are known) plus
/// the initial configuration's values, sorted and deduplicated. Empty when
/// no method is independent, since only independent inputs draw from it.
fn guessable_pool(
    query: &Query,
    options: &RunOptions,
    methods: &AccessMethods,
    initial: &Configuration,
) -> Vec<Value> {
    if methods
        .iter()
        .all(|(_, m)| m.mode() != AccessMode::Independent)
    {
        return Vec::new();
    }
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
    use crate::scenarios::{bank_scenario, Scenario};
    use crate::source::{DeepWebSource, ResponsePolicy};
    use accrel_core::{is_immediately_relevant, is_long_term_relevant};
    use accrel_query::{ConjunctiveQuery, Term};
    use accrel_schema::{Instance, Schema};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

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

    /// Only independent inputs draw from the guessable pool, so a registry
    /// of dependent methods (the bank's) gets none built.
    #[test]
    fn the_guessable_pool_is_built_only_for_independent_methods() {
        let scenario = bank_scenario();
        let options = RunOptions {
            guessable_values: vec![Value::sym("guess")],
            ..RunOptions::default()
        };
        let initial = &scenario.initial_configuration;
        let pool = |methods| guessable_pool(&scenario.query, &options, methods, initial);
        assert!(pool(&scenario.methods).is_empty());
        let mut mb = AccessMethods::builder(scenario.schema.clone());
        mb.add("FreeEmp", "Employee", &["EmpId"], AccessMode::Independent)
            .unwrap();
        let built = pool(&mb.build());
        assert!(built.contains(&Value::sym("guess")));
        assert!(initial.all_values().iter().all(|v| built.contains(v)));
        assert!(built.is_sorted());
    }

    /// A small random scenario: three binary relations over one domain, each
    /// behind a method on its first attribute (dependent or independent at
    /// random), 40 hidden facts over 10 constants, a Boolean three-atom
    /// chain query with a constant now and then, and the first 4 hidden
    /// facts as the initial configuration.
    fn random_scenario(seed: u64) -> Scenario {
        let mut rng = StdRng::seed_from_u64(seed);
        let names = ["R0", "R1", "R2"];
        let mut b = Schema::builder();
        let d = b.domain("D").unwrap();
        for name in names {
            b.relation(name, &[("a", d), ("b", d)]).unwrap();
        }
        let schema = b.build();
        let mut mb = AccessMethods::builder(schema.clone());
        for (i, name) in names.iter().enumerate() {
            let mode = if rng.gen_bool(0.5) {
                AccessMode::Dependent
            } else {
                AccessMode::Independent
            };
            mb.add(format!("Acc{i}"), name, &["a"], mode).unwrap();
        }
        let constant = |rng: &mut StdRng| format!("c{}", rng.gen_range(0..10));
        let mut instance = Instance::new(schema.clone());
        let mut initial = Configuration::empty(schema.clone());
        for i in 0..40 {
            let name = names[rng.gen_range(0..3)];
            let fact = [constant(&mut rng), constant(&mut rng)];
            if i < 4 {
                initial.insert_named(name, fact.clone()).unwrap();
            }
            instance.insert_named(name, fact).unwrap();
        }
        let mut qb = ConjunctiveQuery::builder(schema.clone());
        let vars: Vec<_> = (0..4).map(|i| qb.var(format!("x{i}"))).collect();
        for hop in 0..3 {
            let mut term = |v| {
                if rng.gen_bool(0.2) {
                    Term::constant(constant(&mut rng))
                } else {
                    Term::Var(v)
                }
            };
            let terms = vec![term(vars[hop]), term(vars[hop + 1])];
            qb.atom(names[rng.gen_range(0..3)], terms).unwrap();
        }
        Scenario {
            name: format!("random-{seed}"),
            description: "random merge-loop scenario".to_string(),
            schema,
            methods: mb.build(),
            instance,
            query: qb.build().into(),
            initial_configuration: initial,
            expected_answer: false,
        }
    }

    /// The options of the Eager checks: batches of 4, a shallow budget and
    /// an access cap keep the LTR-guided runs small.
    fn eager_options(use_relevance_cache: bool) -> RunOptions {
        RunOptions {
            max_accesses: 12,
            batch_size: 4,
            budget: accrel_core::SearchBudget::shallow(),
            speculation: SpeculationMode::Eager,
            use_relevance_cache,
            ..RunOptions::default()
        }
    }

    /// Drives `merge` to completion against `source`, handing `check` the
    /// loop and each predicted batch before its responses are supplied.
    fn drive(
        mut merge: MergeLoop<'_>,
        source: &DeepWebSource,
        mut check: impl FnMut(&MergeLoop<'_>, &[Access]),
    ) -> RunReport {
        while let MergeStep::Fetch(batch) = merge.step() {
            check(&merge, &batch);
            let responses: Vec<_> = batch.iter().map(|a| source.call(a)).collect();
            merge.supply(batch, responses);
        }
        merge.into_report()
    }

    /// The batch `merge` should have predicted after selecting `first`,
    /// from the public decision procedures at its configuration: the
    /// unfetched pending accesses in key order that the strategy finds
    /// relevant (for `Hybrid`, the IR-relevant ones, then the LTR-relevant
    /// ones among the rest), up to the batch limit.
    fn reference_batch(merge: &MergeLoop<'_>, first: &Access) -> Vec<Access> {
        let (query, conf, methods) = (merge.query, &merge.conf, merge.methods);
        let ir = |a: &Access| is_immediately_relevant(query, conf, a, methods);
        let ltr =
            |a: &Access| is_long_term_relevant(query, conf, a, methods, &merge.options.budget);
        let unfetched: Vec<&Access> = merge
            .pending
            .iter()
            .filter(|(_, fetch)| matches!(fetch, Fetch::Unfetched))
            .map(|(a, _)| a)
            .collect();
        let mut ranked: Vec<&Access> = match merge.strategy {
            Strategy::Exhaustive => unfetched,
            Strategy::IrGuided => unfetched.into_iter().filter(|a| ir(a)).collect(),
            Strategy::LtrGuided => unfetched.into_iter().filter(|a| ltr(a)).collect(),
            Strategy::Hybrid => {
                let (mut relevant, rest): (Vec<_>, Vec<_>) =
                    unfetched.into_iter().partition(|a| ir(a));
                relevant.extend(rest.into_iter().filter(|a| ltr(a)));
                relevant
            }
        };
        let allowance = merge.options.max_accesses - merge.accesses_made;
        let limit = merge.options.batch_size.min(allowance).max(1);
        ranked.truncate(limit - 1);
        std::iter::once(first.clone())
            .chain(ranked.into_iter().cloned())
            .collect()
    }

    /// Every Eager batch is the reference batch of its configuration, on
    /// the bank scenario and a random one, with the relevance cache on and
    /// off, for every guided strategy.
    #[test]
    fn eager_batches_match_the_decision_procedures() {
        let mut multi_access_batches = 0;
        for scenario in [bank_scenario(), random_scenario(10)] {
            let source = DeepWebSource::new(
                scenario.instance.clone(),
                scenario.methods.clone(),
                ResponsePolicy::Exact,
            );
            for cache in [true, false] {
                for strategy in [Strategy::IrGuided, Strategy::LtrGuided, Strategy::Hybrid] {
                    let merge = MergeLoop::new(
                        &scenario.query,
                        strategy,
                        &eager_options(cache),
                        &scenario.methods,
                        &scenario.initial_configuration,
                    );
                    drive(merge, &source, |merge, batch| {
                        assert_eq!(
                            batch,
                            reference_batch(merge, &batch[0]),
                            "scenario={} strategy={strategy:?} cache={cache}",
                            scenario.name
                        );
                        multi_access_batches += usize::from(batch.len() > 1);
                    });
                }
            }
        }
        assert!(multi_access_batches > 0, "no batch was ever predicted");
    }

    /// Predicting a batch has no side effect on the oracle or the shared
    /// cache: predicting it again returns the same batch and leaves the
    /// hits, misses, verdict log, evictions and read counts as they were.
    #[test]
    fn predicting_a_batch_leaves_the_oracle_unchanged() {
        let scenario = bank_scenario();
        let source = DeepWebSource::new(
            scenario.instance.clone(),
            scenario.methods.clone(),
            ResponsePolicy::Exact,
        );
        for strategy in [Strategy::LtrGuided, Strategy::Hybrid] {
            let shared = SharedVerdictCache::new();
            let merge = MergeLoop::new(
                &scenario.query,
                strategy,
                &eager_options(true),
                &scenario.methods,
                &scenario.initial_configuration,
            )
            .with_shared_cache(1, shared.clone());
            let oracle_state = |merge: &MergeLoop<'_>| {
                let o = &merge.oracle;
                (
                    (o.hits(), o.misses(), o.shared_hits()),
                    (o.evictions(), o.reads_tracked(), o.events_drained()),
                    (shared.len(), shared.hits(), shared.misses()),
                    (merge.conf.len(), merge.conf.shard_copies()),
                    format!("{o:?}"),
                )
            };
            let report = drive(merge, &source, |merge, batch| {
                let before = oracle_state(merge);
                let allowance = merge.options.max_accesses - merge.accesses_made;
                assert_eq!(merge.predict_batch(&batch[0], allowance), batch);
                assert_eq!(oracle_state(merge), before, "strategy={strategy:?}");
            });
            assert!(report.batch_stats.max_batch > 1, "strategy={strategy:?}");
        }
    }
}
