//! Shared relevance-verdict machinery.
//!
//! [`RelevanceOracle`] bundles the incremental relevance-verdict cache with
//! the strategy-driven access selection. It is the single implementation of
//! "which access would the engine execute next, and what did deciding that
//! cost" inside the [`crate::MergeLoop`] every executor drives.
//!
//! Every cache miss (an actual invocation of a decision procedure) is
//! recorded in an ordered [`VerdictRecord`] log, surfaced through
//! [`crate::RunReport::relevance_verdicts`]; the executor-equivalence tests
//! compare these logs between sequential and batched runs.
//!
//! # Growth and certainty
//!
//! Growth is read from the store's append-only logs, never queued: the
//! oracle takes a [`GrowthCursor`] at its first cached verdict (earlier
//! growth has nothing to evict), and [`RelevanceOracle::observe_growth`]
//! advances it and evicts every cached verdict the growth could flip.
//!
//! The oracle owns the run's [`CertaintyStatus`], which follows growth
//! through a cursor of its own, and answers [`RelevanceOracle::is_certain`],
//! which is how the run loop decides to stop and what its report says. With
//! the cache on, a Boolean query's verdicts come from the decision procedures'
//! bodies ([`is_immediately_relevant_given_uncertain`],
//! [`is_long_term_relevant_given_uncertain`]) after the status
//! ruled certainty out — a certain query makes every verdict `false`
//! without a search. So a verdict's read set holds what its search read and
//! no certainty pre-check. The one thing such a read set cannot see is the
//! query turning certain, which falsifies every cached `true` verdict: the
//! refresh at which the status turns certain evicts them. The uncached mode
//! and non-Boolean queries keep calling the pre-checking public procedures,
//! so the uncached mode stays an independent reference.

use std::collections::{HashMap, HashSet};
use std::sync::{Arc, Mutex};

use accrel_access::{Access, AccessMethods, AccessMode};
use accrel_core::{
    is_immediately_relevant, is_immediately_relevant_given_uncertain, is_long_term_relevant,
    is_long_term_relevant_given_uncertain, SearchBudget,
};
use accrel_query::certain::CertaintyStatus;
use accrel_query::Query;
use accrel_schema::{AdomPrecision, Configuration, Growth, GrowthCursor, ReadSet, RelationId};

use crate::engine::Strategy;
use crate::options::{InvalidationMode, RunOptions};

/// Which relevance check a verdict belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum RelevanceKind {
    /// Immediate relevance (Section 4).
    Immediate,
    /// Long-term relevance (Sections 4–5).
    LongTerm,
}

/// One invocation of a relevance decision procedure: the access that was
/// checked, which check ran, and its outcome. Cached re-reads are not
/// recorded — the log is exactly the sequence of procedure invocations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VerdictRecord {
    /// The access whose relevance was decided.
    pub access: Access,
    /// Which relevance check ran.
    pub kind: RelevanceKind,
    /// The verdict.
    pub verdict: bool,
}

/// One cached verdict: the answer, whether it depends on every relation
/// or only on the query's, and — when the verdict was computed under a read
/// recorder — the exact [`ReadSet`] its decision procedure consulted.
/// Verdicts without a read set (relation-level mode, shared-cache entries
/// published without one) fall back to the relation-level dependency under
/// exact invalidation.
#[derive(Debug)]
struct CachedVerdict {
    verdict: bool,
    /// The verdict consulted the whole configuration (dependent-access
    /// long-term relevance reads the global active domain to decide which
    /// accesses are unlockable; the Proposition 2.2 reduction of non-Boolean
    /// queries instantiates heads with constants from any relation), so any
    /// growth invalidates it. Otherwise it only inspected the query's
    /// relations: Boolean-query immediate relevance qualifies (the witness
    /// search reads tuples of the query's relations and nothing else), and
    /// so does Boolean-query long-term relevance when **every** access
    /// method is independent (the ΣP2 procedure of Section 4 draws
    /// configuration facts exclusively through the query's atoms; any value
    /// may be guessed, so the global active domain never gates a witness).
    global: bool,
    reads: Option<ReadSet>,
}

/// The incremental relevance-verdict cache. One map per check kind, keyed by
/// the access alone, so cache hits are probed by reference without cloning
/// the access.
#[derive(Debug, Default)]
struct RelevanceCache {
    immediate: HashMap<Access, CachedVerdict>,
    long_term: HashMap<Access, CachedVerdict>,
    /// The relations the query mentions: what a non-global verdict depends
    /// on.
    query_relations: HashSet<RelationId>,
    hits: usize,
    misses: usize,
}

impl RelevanceCache {
    fn new(query_relations: HashSet<RelationId>) -> Self {
        Self {
            query_relations,
            ..Self::default()
        }
    }

    /// Drops every verdict whose relation-level dependency includes a grown
    /// relation and whose recorded read set, if it has one, `growth`
    /// touches (verdicts without one: every verdict under relation-level
    /// invalidation, and shared-cache entries published without one).
    /// Returns how many verdicts were evicted.
    ///
    /// The relation-level dependency and the read set are *both* sound
    /// over-approximations of "this growth could flip the verdict" — the
    /// first by the argument on `CachedVerdict::global`, the second because
    /// the decision procedure is a deterministic function of its recorded
    /// reads and of the query's certainty, whose one flip evicts the `true`
    /// verdicts separately (`evict_true`) — so a verdict needs eviction
    /// only when **both** fire. Taking
    /// the intersection also pins the ordering invariant the differential
    /// fuzzer checks: exact-mode evictions are a subset of relation-level
    /// evictions at every growth point, never a superset (a read set may
    /// name active-domain probes the query's relation set deliberately
    /// excludes).
    fn evict_touched(&mut self, growth: &Growth<'_>) -> usize {
        if growth.is_empty() {
            return 0;
        }
        let before = self.immediate.len() + self.long_term.len();
        let query_dep = growth
            .relations()
            .any(|(r, _)| self.query_relations.contains(&r));
        let keep = |c: &CachedVerdict| {
            if !(c.global || query_dep) {
                return true;
            }
            match &c.reads {
                Some(rs) => !rs.touched_by(growth),
                None => false,
            }
        };
        self.immediate.retain(|_, c| keep(c));
        self.long_term.retain(|_, c| keep(c));
        before - (self.immediate.len() + self.long_term.len())
    }

    /// Drops every `true` verdict (the query just turned certain, so no
    /// access is relevant any more). Returns how many were evicted.
    fn evict_true(&mut self) -> usize {
        let before = self.immediate.len() + self.long_term.len();
        self.immediate.retain(|_, c| !c.verdict);
        self.long_term.retain(|_, c| !c.verdict);
        before - (self.immediate.len() + self.long_term.len())
    }
}

/// The key a shared verdict is stored under: which query/option class asked,
/// which check ran, on which access, at which *versions* of the relations
/// the verdict depends on (relation → fact count at check time).
type SharedKey = (u64, RelevanceKind, Access, Vec<(RelationId, usize)>);

#[derive(Debug, Default)]
struct SharedVerdictState {
    /// Verdict plus the exact read set the publishing run recorded (when it
    /// ran under exact invalidation over an owned configuration). Restoring
    /// the read set on a hit is what lets a warm-started run evict the
    /// verdict at exactly the same growth points as the run that published
    /// it — without it the warm run falls back to coarse eviction,
    /// re-checks at version stamps the publisher never reached, and the
    /// zero-re-run warm-start guarantee breaks.
    verdicts: HashMap<SharedKey, (bool, Option<ReadSet>)>,
    hits: u64,
    misses: u64,
}

/// A cross-session relevance-verdict cache: verdicts outlive the
/// [`RelevanceOracle`] (and hence the run) that computed them, so concurrent
/// or consecutive sessions asking the same question skip the decision
/// procedure. Cloning shares the underlying store.
///
/// Keys are version-stamped rather than explicitly invalidated: alongside
/// the `(class, kind, access)` triple, the key records the **fact count of
/// every relation the verdict's dependency set names** at check time.
/// Configurations only grow, so within one deterministic trajectory a
/// relation's count identifies its contents; growth of a dep relation
/// changes the key (the stale verdict is simply never probed again), while
/// growth elsewhere leaves the key — and the verdict — intact. That realises
/// "invalidate only on relevant growth" without any invalidation traffic.
///
/// The `class` discriminant must fold in everything else the verdict is a
/// function of — query, strategy, options, and the initial configuration —
/// so that only sessions following the *same* growth trajectory share
/// entries; the serving layer derives it from the request + initial
/// fingerprint. The class must also pin the initial configuration's
/// value-id assignment: a verdict's read set names values by their
/// process-local ids, so the same facts interned in another order would
/// read other values under the same ids and miss evictions.
#[derive(Debug, Clone, Default)]
pub struct SharedVerdictCache {
    inner: Arc<Mutex<SharedVerdictState>>,
}

impl SharedVerdictCache {
    /// An empty shared cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of verdicts currently stored.
    pub fn len(&self) -> usize {
        self.inner
            .lock()
            .expect("verdict cache poisoned")
            .verdicts
            .len()
    }

    /// Whether the cache holds no verdicts.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Lookups answered from the cache, across all sessions.
    pub fn hits(&self) -> u64 {
        self.inner.lock().expect("verdict cache poisoned").hits
    }

    /// Lookups that missed (and were then published by the asker).
    pub fn misses(&self) -> u64 {
        self.inner.lock().expect("verdict cache poisoned").misses
    }

    /// Inserts a verdict under its full version-stamped key, without
    /// touching the hit/miss counters. A relevance oracle publishes every
    /// verdict it computes after a shared miss this way, and a journal
    /// replay (see `accrel-federation`'s `journal` module) seeds a fresh
    /// process's cache with the verdicts an earlier run computed, so the
    /// next session answers them as shared hits instead of re-running
    /// decision procedures.
    pub fn insert(
        &self,
        class: u64,
        kind: RelevanceKind,
        access: Access,
        mut dep_counts: Vec<(RelationId, usize)>,
        verdict: bool,
        reads: Option<ReadSet>,
    ) {
        // Canonical key order. The oracle sorts its stamps before calling
        // in, but journal replays hand over whatever order the serialised
        // entry kept — a process that stamped `[(R,3),(S,1)]` would never
        // probe an entry another process stored as `[(S,1),(R,3)]`,
        // silently forfeiting every warm-start hit.
        dep_counts.sort_unstable();
        let mut state = self.inner.lock().expect("verdict cache poisoned");
        state
            .verdicts
            .insert((class, kind, access, dep_counts), (verdict, reads));
    }

    /// A snapshot of every stored verdict with its full key — `(class, kind,
    /// access, dep-relation version stamps, verdict, recorded reads)` — in
    /// unspecified order. This is what a journal serialises; pair with
    /// [`SharedVerdictCache::insert`] to rebuild the cache elsewhere.
    #[allow(clippy::type_complexity)]
    pub fn entries(
        &self,
    ) -> Vec<(
        u64,
        RelevanceKind,
        Access,
        Vec<(RelationId, usize)>,
        bool,
        Option<ReadSet>,
    )> {
        let state = self.inner.lock().expect("verdict cache poisoned");
        state
            .verdicts
            .iter()
            .map(|((class, kind, access, deps), (verdict, reads))| {
                (
                    *class,
                    *kind,
                    access.clone(),
                    deps.clone(),
                    *verdict,
                    reads.clone(),
                )
            })
            .collect()
    }

    fn lookup(
        &self,
        class: u64,
        kind: RelevanceKind,
        access: &Access,
        dep_counts: &[(RelationId, usize)],
    ) -> Option<(bool, Option<ReadSet>)> {
        let mut state = self.inner.lock().expect("verdict cache poisoned");
        let mut counts = dep_counts.to_vec();
        counts.sort_unstable();
        let key = (class, kind, access.clone(), counts);
        match state.verdicts.get(&key) {
            Some((verdict, reads)) => {
                let found = (*verdict, reads.clone());
                state.hits += 1;
                Some(found)
            }
            None => {
                state.misses += 1;
                None
            }
        }
    }
}

/// The relevance-decision engine of one run: answers "is this access
/// relevant at this configuration" through the incremental cache, applies
/// the [`Strategy`] selection rules, and logs every decision-procedure
/// invocation.
#[derive(Debug)]
pub struct RelevanceOracle<'a> {
    query: &'a Query,
    methods: &'a AccessMethods,
    budget: SearchBudget,
    use_cache: bool,
    cache: RelevanceCache,
    status: CertaintyStatus<'a>,
    /// Where the last [`Self::observe_growth`] left the configuration's
    /// growth; `None` until the first verdict is cached.
    cursor: Option<GrowthCursor>,
    shared: Option<(u64, SharedVerdictCache)>,
    shared_hits: usize,
    log: Vec<VerdictRecord>,
    invalidation: InvalidationMode,
    evictions: usize,
    events_drained: usize,
    reads_tracked: usize,
}

impl<'a> RelevanceOracle<'a> {
    /// Creates an oracle for `query` over `methods` under the run options.
    pub fn new(query: &'a Query, methods: &'a AccessMethods, options: &RunOptions) -> Self {
        let query_relations: HashSet<RelationId> = query
            .ucq()
            .iter()
            .flat_map(|d| d.atoms().iter().map(|a| a.relation()))
            .collect();
        Self {
            query,
            methods,
            budget: options.budget.clone(),
            use_cache: options.use_relevance_cache,
            cache: RelevanceCache::new(query_relations),
            status: CertaintyStatus::new(query),
            cursor: None,
            shared: None,
            shared_hits: 0,
            log: Vec::new(),
            invalidation: options.invalidation,
            evictions: 0,
            events_drained: 0,
            reads_tracked: 0,
        }
    }

    /// Attaches a cross-session [`SharedVerdictCache`]: per-run cache misses
    /// probe it before running a decision procedure, and publish their
    /// result into it afterwards. `class` must identify the verdict class —
    /// everything besides `(kind, access, dep versions)` that the verdict
    /// depends on (query, strategy, options, initial configuration); the
    /// serving layer hashes the request for this. Only effective while the
    /// per-run cache is enabled (the uncached mode exists to reproduce the
    /// pre-incremental engine exactly, so it bypasses sharing too).
    pub fn with_shared_cache(mut self, class: u64, cache: SharedVerdictCache) -> Self {
        self.shared = Some((class, cache));
        self
    }

    /// Whether a `kind` verdict depends on every relation. Immediate
    /// relevance of a Boolean query only ever inspects the query's own
    /// relations; everything else is conservatively global. For long-term
    /// relevance, dependent methods make the witness search consult the
    /// global active domain; when every method is independent (and the
    /// query is Boolean, so no head-instantiation reduction runs), the
    /// independent ΣP2 procedure reads the configuration only through the
    /// query's own atoms — responses that grow other relations leave the
    /// verdict valid, so cached verdicts survive those rounds.
    fn is_global(&self, kind: RelevanceKind) -> bool {
        let all_independent = || {
            self.methods
                .methods()
                .iter()
                .all(|m| m.mode() == AccessMode::Independent)
        };
        match kind {
            RelevanceKind::Immediate => !self.query.is_boolean(),
            RelevanceKind::LongTerm => !(self.query.is_boolean() && all_independent()),
        }
    }

    /// Runs the public decision procedure for `kind`, certainty pre-check
    /// included.
    fn decide(&self, kind: RelevanceKind, access: &Access, conf: &Configuration) -> bool {
        let (query, methods) = (self.query, self.methods);
        match kind {
            RelevanceKind::Immediate => is_immediately_relevant(query, conf, access, methods),
            RelevanceKind::LongTerm => {
                is_long_term_relevant(query, conf, access, methods, &self.budget)
            }
        }
    }

    /// The cached verdict of `kind`: for a Boolean query, `false` when the
    /// status says it is certain and the procedure's body otherwise (the
    /// status stands in for the pre-check); for any other query,
    /// [`Self::decide`].
    fn decide_cached(&self, kind: RelevanceKind, access: &Access, conf: &Configuration) -> bool {
        if !self.query.is_boolean() {
            return self.decide(kind, access, conf);
        }
        if self.status.is_known_certain() {
            return false;
        }
        let (query, methods) = (self.query, self.methods);
        match kind {
            RelevanceKind::Immediate => {
                is_immediately_relevant_given_uncertain(query, conf, access, methods)
            }
            RelevanceKind::LongTerm => {
                is_long_term_relevant_given_uncertain(query, conf, access, methods, &self.budget)
            }
        }
    }

    /// Runs [`Self::decide_cached`] under the read recorder the invalidation
    /// mode asks for (coarse adom recording for exact mode,
    /// per-domain/prefix recording for precise mode, none for
    /// relation-level), returning the verdict with the recorded [`ReadSet`].
    /// Installing the recorder is the only reason `conf` is borrowed
    /// mutably: the procedures themselves only read it.
    fn decide_recorded(
        &mut self,
        kind: RelevanceKind,
        access: &Access,
        conf: &mut Configuration,
    ) -> (bool, Option<ReadSet>) {
        let track = match self.invalidation {
            InvalidationMode::Exact => Some(AdomPrecision::Coarse),
            InvalidationMode::Precise => Some(AdomPrecision::Precise),
            InvalidationMode::RelationLevel => None,
        };
        if let Some(precision) = track {
            conf.begin_read_tracking_with(precision);
        }
        let verdict = self.decide_cached(kind, access, conf);
        let reads = track.map(|_| conf.take_read_set());
        self.reads_tracked += reads.as_ref().map_or(0, ReadSet::len);
        (verdict, reads)
    }

    /// The one caching body behind every check: status refresh, per-run
    /// cache probe, shared-cache probe, decision-procedure invocation,
    /// publication, and logging.
    fn check_at(&mut self, kind: RelevanceKind, access: &Access, conf: &mut Configuration) -> bool {
        if !self.use_cache {
            return self.decide(kind, access, conf);
        }
        // Refreshed before the cache probe, so a `true` verdict the newest
        // rows falsified by making the query certain is gone before it is
        // read, and before any read recorder is installed.
        if self.query.is_boolean() {
            self.is_certain(conf);
        }
        let map = match kind {
            RelevanceKind::Immediate => &self.cache.immediate,
            RelevanceKind::LongTerm => &self.cache.long_term,
        };
        if let Some(cached) = map.get(access) {
            self.cache.hits += 1;
            return cached.verdict;
        }
        self.cache.misses += 1;
        let global = self.is_global(kind);
        // The dep-count stamps are read *before* the read recorder is
        // installed, so version probing never pollutes the read set.
        let (verdict, reads) = if let Some((class, shared)) = self.shared.clone() {
            let counts = self.dep_counts(global, conf);
            if let Some((verdict, reads)) = shared.lookup(class, kind, access, &counts) {
                self.shared_hits += 1;
                // The publishing run's read set rides along with the
                // verdict, so a warm-started run evicts it at exactly the
                // same growth points the publisher would have.
                (verdict, reads)
            } else {
                let (verdict, reads) = self.decide_recorded(kind, access, conf);
                shared.insert(class, kind, access.clone(), counts, verdict, reads.clone());
                (verdict, reads)
            }
        } else {
            self.decide_recorded(kind, access, conf)
        };
        let map = match kind {
            RelevanceKind::Immediate => &mut self.cache.immediate,
            RelevanceKind::LongTerm => &mut self.cache.long_term,
        };
        map.insert(
            access.clone(),
            CachedVerdict {
                verdict,
                global,
                reads,
            },
        );
        if self.cursor.is_none() {
            self.cursor = Some(GrowthCursor::at(conf.store()));
        }
        self.log.push(VerdictRecord {
            access: access.clone(),
            kind,
            verdict,
        });
        verdict
    }

    /// The `kind` verdict of `access` at `conf` as [`Self::check_at`] would
    /// return it, read from the per-run cache or computed afresh, but with
    /// no side effect: nothing is cached, logged, counted, read-recorded or
    /// published, and the shared cache is never probed. This is the
    /// speculation-safe read the merge loop predicts batches with.
    ///
    /// With the cache on, a Boolean query's fresh verdicts rest on the
    /// certainty status, which the last [`Self::select`] refreshed at
    /// `conf`: prediction follows a guided selection at the same
    /// configuration.
    pub(crate) fn predict(
        &self,
        kind: RelevanceKind,
        access: &Access,
        conf: &Configuration,
    ) -> bool {
        if !self.use_cache {
            return self.decide(kind, access, conf);
        }
        let map = match kind {
            RelevanceKind::Immediate => &self.cache.immediate,
            RelevanceKind::LongTerm => &self.cache.long_term,
        };
        match map.get(access) {
            Some(cached) => cached.verdict,
            None => self.decide_cached(kind, access, conf),
        }
    }

    /// Immediate-relevance check, via the cache when enabled. The witness
    /// search only reads `conf`; it is borrowed mutably to record the reads.
    pub fn check_ir(&mut self, access: &Access, conf: &mut Configuration) -> bool {
        self.check_at(RelevanceKind::Immediate, access, conf)
    }

    /// Long-term-relevance check, via the cache when enabled. The witness
    /// search only reads `conf`; it is borrowed mutably to record the reads.
    /// Dependent-access LTR verdicts consult the global active domain and
    /// so depend on every relation; all-independent Boolean verdicts depend
    /// only on the query's relations.
    pub fn check_ltr(&mut self, access: &Access, conf: &mut Configuration) -> bool {
        self.check_at(RelevanceKind::LongTerm, access, conf)
    }

    /// Reacts to a response that grew the configuration: advances the
    /// oracle's growth cursor and evicts every cached verdict the committed
    /// rows could flip. Under [`InvalidationMode::Exact`] or
    /// [`InvalidationMode::Precise`] that is a verdict whose recorded reads
    /// they touch; under [`InvalidationMode::RelationLevel`] verdicts carry
    /// no reads, so every verdict depending on `relation` goes.
    ///
    /// The run loop calls it after every growing response, so the rows are
    /// all of `relation`, the accessed method's output relation (a debug
    /// build checks it); that keeps the relation gate exact. It only reads
    /// `conf`, which is `&mut` because the benchmark package's traced
    /// replay passes it so (ROADMAP direction 3).
    pub fn observe_growth(&mut self, conf: &mut Configuration, relation: RelationId) {
        let Some(cursor) = &mut self.cursor else {
            return;
        };
        let growth = cursor.advance(conf.store());
        debug_assert!(
            growth.relations().all(|(r, _)| r == relation),
            "a drain covers the rows of one response's relation"
        );
        if self.invalidation != InvalidationMode::RelationLevel {
            self.events_drained += growth
                .relations()
                .map(|(_, rows)| rows.len())
                .sum::<usize>();
        }
        self.evictions += self.cache.evict_touched(&growth);
    }

    /// Whether the query (its existential closure, if it has free
    /// variables) is certain at `conf`, from the run's certainty status:
    /// evaluated in full on first use, then refreshed from the rows
    /// committed since its last refresh. The refresh at which a Boolean
    /// query turns certain evicts every cached `true` verdict (see the
    /// module documentation).
    ///
    /// # Panics
    ///
    /// Under an installed read recorder (see [`CertaintyStatus::refresh`]).
    pub fn is_certain(&mut self, conf: &Configuration) -> bool {
        let was_certain = self.status.is_known_certain();
        let certain = self.status.refresh(conf);
        if certain && !was_certain && self.use_cache && self.query.is_boolean() {
            self.evictions += self.cache.evict_true();
        }
        certain
    }

    /// Verdicts answered from the cache so far.
    pub fn hits(&self) -> usize {
        self.cache.hits
    }

    /// Verdicts computed rather than read from the cache so far (see
    /// [`crate::RunReport::relevance_cache_misses`]).
    pub fn misses(&self) -> usize {
        self.cache.misses
    }

    /// Of the misses, how many were answered by the attached
    /// [`SharedVerdictCache`] instead of a decision procedure. Zero when no
    /// shared cache is attached.
    pub fn shared_hits(&self) -> usize {
        self.shared_hits
    }

    /// Total `(relation, value)`-grade read-set entries recorded across the
    /// verdicts computed so far. Zero under relation-level invalidation.
    pub fn reads_tracked(&self) -> usize {
        self.reads_tracked
    }

    /// Cached verdicts evicted by configuration growth so far (both modes).
    pub fn evictions(&self) -> usize {
        self.evictions
    }

    /// Rows [`Self::observe_growth`] drained under exact or precise
    /// invalidation so far. Rows committed before the first cached verdict
    /// are never drained, so a run that caches no verdict drains none.
    pub fn events_drained(&self) -> usize {
        self.events_drained
    }

    /// The version stamp a verdict carries in the shared cache: the current
    /// fact count of every relation it depends on (all of them when
    /// `global`, else the query's), sorted by relation id. Growth of any
    /// stamped relation changes the stamp (and so retires the entry);
    /// growth elsewhere leaves it probeable.
    fn dep_counts(&self, global: bool, conf: &Configuration) -> Vec<(RelationId, usize)> {
        let count = |rel: RelationId| (rel, conf.store().relation_len(rel));
        let mut counts: Vec<(RelationId, usize)> = if global {
            conf.schema()
                .relations_with_ids()
                .map(|(rel, _)| count(rel))
                .collect()
        } else {
            self.cache
                .query_relations
                .iter()
                .map(|&rel| count(rel))
                .collect()
        };
        counts.sort_unstable();
        counts
    }

    /// Takes the ordered log of decision-procedure invocations.
    pub fn take_log(&mut self) -> Vec<VerdictRecord> {
        std::mem::take(&mut self.log)
    }

    /// Whether an LTR verdict cached right now would depend on every
    /// relation rather than only the query's — exposed so tests can observe
    /// the invalidation granularity.
    pub fn ltr_dep_is_global(&self) -> bool {
        self.is_global(RelevanceKind::LongTerm)
    }

    /// Picks the next access to execute from `candidates` (in candidate
    /// order) according to `strategy`, counting rejected candidates into
    /// `skipped`. The candidates are walked lazily: `Exhaustive` reads only
    /// the first, and `Hybrid` walks a clone of the iterator for its LTR
    /// fallback. The relevance checks only read `conf`, which is borrowed
    /// mutably to record their reads; the selection leaves it byte-for-byte
    /// unchanged.
    pub fn select<'c, I>(
        &mut self,
        strategy: Strategy,
        candidates: I,
        conf: &mut Configuration,
        skipped: &mut usize,
    ) -> Option<Access>
    where
        I: IntoIterator<Item = &'c Access>,
        I::IntoIter: Clone,
    {
        let mut candidates = candidates.into_iter();
        let mut check = |kind, a: &Access| self.check_at(kind, a, conf);
        match strategy {
            Strategy::Exhaustive => candidates.next().cloned(),
            Strategy::IrGuided => {
                for a in candidates {
                    if check(RelevanceKind::Immediate, a) {
                        return Some(a.clone());
                    }
                    *skipped += 1;
                }
                None
            }
            Strategy::LtrGuided => {
                for a in candidates {
                    if check(RelevanceKind::LongTerm, a) {
                        return Some(a.clone());
                    }
                    *skipped += 1;
                }
                None
            }
            Strategy::Hybrid => {
                for a in candidates.clone() {
                    if check(RelevanceKind::Immediate, a) {
                        return Some(a.clone());
                    }
                }
                for a in candidates {
                    if check(RelevanceKind::LongTerm, a) {
                        return Some(a.clone());
                    }
                    *skipped += 1;
                }
                None
            }
        }
    }

    /// [`Self::select`] over a slice of candidates. The name is historical:
    /// the benchmark package calls it (ROADMAP direction 3).
    pub fn select_trailed(
        &mut self,
        strategy: Strategy,
        candidates: &[&Access],
        conf: &mut Configuration,
        skipped: &mut usize,
    ) -> Option<Access> {
        self.select(strategy, candidates.iter().copied(), conf, skipped)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use accrel_access::{binding, AccessMethods, AccessMode};
    use accrel_query::{ConjunctiveQuery, PositiveQuery, Term};
    use accrel_schema::Schema;
    use std::sync::Arc;

    /// Schema with a query relation R and an unrelated relation S; the
    /// query is Boolean over R alone.
    fn setup(
        independent: bool,
    ) -> (
        Arc<Schema>,
        AccessMethods,
        Query,
        Configuration,
        Access,
        RelationId,
        RelationId,
    ) {
        let mut b = Schema::builder();
        let d = b.domain("D").unwrap();
        b.relation("R", &[("a", d), ("b", d)]).unwrap();
        b.relation("S", &[("a", d)]).unwrap();
        let schema = b.build();
        let mode = if independent {
            AccessMode::Independent
        } else {
            AccessMode::Dependent
        };
        let mut mb = AccessMethods::builder(schema.clone());
        let r_acc = mb.add("RAcc", "R", &["a"], mode).unwrap();
        mb.add("SAcc", "S", &["a"], mode).unwrap();
        let methods = mb.build();
        let mut qb = ConjunctiveQuery::builder(schema.clone());
        let x = qb.var("x");
        qb.atom("R", vec![Term::constant("k"), Term::Var(x)])
            .unwrap();
        let query: Query = qb.build().into();
        let mut conf = Configuration::empty(schema.clone());
        conf.insert_named("R", ["seed", "v"]).unwrap();
        let r = schema.relation_by_name("R").unwrap();
        let s = schema.relation_by_name("S").unwrap();
        let access = Access::new(r_acc, binding(["k"]));
        (schema, methods, query, conf, access, r, s)
    }

    /// Options under which verdicts carry no read set, so growth evicts by
    /// relation-level dependency alone.
    fn relation_level() -> RunOptions {
        RunOptions {
            invalidation: InvalidationMode::RelationLevel,
            ..RunOptions::default()
        }
    }

    #[test]
    fn independent_ltr_verdicts_survive_unrelated_growth() {
        let (_, methods, query, mut conf, access, r, s) = setup(true);
        let options = relation_level();
        let mut oracle = RelevanceOracle::new(&query, &methods, &options);
        assert!(!oracle.ltr_dep_is_global());
        let first = oracle.check_ltr(&access, &mut conf);
        assert_eq!(oracle.misses(), 1);
        // A response growing S (not mentioned by the query) must not flush
        // the verdict: the re-check is a cache hit with the same answer.
        conf.insert_named("S", ["unrelated"]).unwrap();
        oracle.observe_growth(&mut conf, s);
        assert_eq!(oracle.check_ltr(&access, &mut conf), first);
        assert_eq!(oracle.hits(), 1);
        assert_eq!(oracle.misses(), 1);
        // Growth of the query's own relation still invalidates.
        conf.insert_named("R", ["k2", "w"]).unwrap();
        oracle.observe_growth(&mut conf, r);
        let _ = oracle.check_ltr(&access, &mut conf);
        assert_eq!(oracle.misses(), 2);
    }

    #[test]
    fn dependent_ltr_verdicts_stay_globally_invalidated() {
        let (_, methods, query, mut conf, access, _, s) = setup(false);
        let options = relation_level();
        let mut oracle = RelevanceOracle::new(&query, &methods, &options);
        assert!(oracle.ltr_dep_is_global());
        // Make the access well-formed for the dependent mode check.
        conf.insert_named("R", ["k", "x"]).unwrap();
        let _ = oracle.check_ltr(&access, &mut conf);
        assert_eq!(oracle.misses(), 1);
        // Any growth — the dependent witness search reads the global active
        // domain — flushes the verdict.
        conf.insert_named("S", ["unlocks-something"]).unwrap();
        oracle.observe_growth(&mut conf, s);
        let _ = oracle.check_ltr(&access, &mut conf);
        assert_eq!(oracle.misses(), 2);
        assert_eq!(oracle.hits(), 0);
    }

    #[test]
    fn independent_verdicts_match_fresh_oracle_after_unrelated_growth() {
        // The refinement must be *sound*: the cached verdict after growing
        // an unmentioned relation equals what a fresh (uncached) check
        // computes on the grown configuration, for every candidate binding.
        let (_, methods, query, mut conf, _, _, s) = setup(true);
        let options = relation_level();
        let r_acc = methods.by_name("RAcc").unwrap();
        let bindings = ["k", "seed", "zz"];
        let mut oracle = RelevanceOracle::new(&query, &methods, &options);
        for b in bindings {
            let _ = oracle.check_ltr(&Access::new(r_acc, binding([b])), &mut conf);
        }
        conf.insert_named("S", ["later"]).unwrap();
        oracle.observe_growth(&mut conf, s);
        for b in bindings {
            let access = Access::new(r_acc, binding([b]));
            let cached = oracle.check_ltr(&access, &mut conf);
            let fresh = accrel_core::is_long_term_relevant(
                &query,
                &conf,
                &access,
                &methods,
                &options.budget,
            );
            assert_eq!(cached, fresh, "binding {b}");
        }
        assert_eq!(oracle.hits(), bindings.len());
    }

    #[test]
    fn shared_cache_answers_a_second_oracle_without_reprocedure() {
        let (_, methods, query, mut conf, access, _, _) = setup(true);
        let options = RunOptions::default();
        let shared = SharedVerdictCache::new();
        assert!(shared.is_empty());
        let mut first =
            RelevanceOracle::new(&query, &methods, &options).with_shared_cache(42, shared.clone());
        let verdict = first.check_ltr(&access, &mut conf);
        assert_eq!(first.shared_hits(), 0);
        assert_eq!((shared.len(), shared.hits(), shared.misses()), (1, 0, 1));
        // A fresh oracle of the same class at the same configuration gets
        // the verdict from the shared cache — its per-run miss still counts
        // (the per-run cache was cold) but no procedure runs, and the log
        // entry is identical to the first oracle's.
        let mut second =
            RelevanceOracle::new(&query, &methods, &options).with_shared_cache(42, shared.clone());
        assert_eq!(second.check_ltr(&access, &mut conf), verdict);
        assert_eq!(second.misses(), 1);
        assert_eq!(second.shared_hits(), 1);
        assert_eq!(shared.hits(), 1);
        assert_eq!(first.take_log(), second.take_log());
        // A different class never shares.
        let mut other =
            RelevanceOracle::new(&query, &methods, &options).with_shared_cache(7, shared.clone());
        let _ = other.check_ltr(&access, &mut conf);
        assert_eq!(other.shared_hits(), 0);
        assert_eq!(shared.len(), 2);
    }

    #[test]
    fn oracle_checks_match_the_procedures_and_leave_conf_unchanged() {
        // Dependent methods run the dependent LTR witness search, whose
        // truncation replays carry hypothetical facts.
        let (_, methods, query, mut conf, access, _, _) = setup(false);
        let options = RunOptions::default();
        conf.insert_named("R", ["k", "x"]).unwrap();
        let expected_ir = is_immediately_relevant(&query, &conf, &access, &methods);
        let expected_ltr =
            accrel_core::is_long_term_relevant(&query, &conf, &access, &methods, &options.budget);
        let mut oracle = RelevanceOracle::new(&query, &methods, &options);
        let before = conf.sorted_facts();
        let copies_before = conf.shard_copies();
        assert_eq!(oracle.check_ir(&access, &mut conf), expected_ir);
        assert_eq!(oracle.check_ltr(&access, &mut conf), expected_ltr);
        // Both procedures logged; the configuration neither grew nor copied
        // a shard.
        assert_eq!(oracle.take_log().len(), 2);
        assert_eq!(conf.sorted_facts(), before);
        assert_eq!(conf.shard_copies(), copies_before);
        // Selection follows the procedures' verdicts, strategy by strategy.
        for (strategy, relevant) in [
            (Strategy::Exhaustive, true),
            (Strategy::IrGuided, expected_ir),
            (Strategy::LtrGuided, expected_ltr),
            (Strategy::Hybrid, expected_ir || expected_ltr),
        ] {
            let mut skipped = 0usize;
            let picked = oracle.select(strategy, [&access], &mut conf, &mut skipped);
            assert_eq!(picked.is_some(), relevant, "strategy {strategy:?}");
            assert_eq!(skipped, usize::from(!relevant), "strategy {strategy:?}");
        }
        assert_eq!(conf.sorted_facts(), before);
        assert_eq!(conf.shard_copies(), copies_before);
    }

    #[test]
    fn the_certainty_flip_evicts_stale_true_verdicts() {
        // Q = (R(x) ∧ S(x)) ∨ T(y). The S access completes the first
        // disjunct, so its witness search stops there and never reads T. A
        // committed T row leaves that read set untouched, yet makes Q
        // certain, which falsifies the cached `true`.
        let mut b = Schema::builder();
        let d = b.domain("D").unwrap();
        for name in ["R", "S", "T"] {
            b.relation(name, &[("a", d)]).unwrap();
        }
        let schema = b.build();
        let mut mb = AccessMethods::builder(schema.clone());
        let s_check = mb
            .add_boolean("SCheck", "S", AccessMode::Independent)
            .unwrap();
        let methods = mb.build();
        let mut pb = PositiveQuery::builder(schema.clone());
        let (x, y) = (pb.var("x"), pb.var("y"));
        let first = pb.atom("R", vec![Term::Var(x)]).unwrap();
        let first = first.and(pb.atom("S", vec![Term::Var(x)]).unwrap());
        let second = pb.atom("T", vec![Term::Var(y)]).unwrap();
        let query: Query = pb.build(first.or(second)).into();
        let mut conf = Configuration::empty(schema.clone());
        conf.insert_named("R", ["1"]).unwrap();
        let access = Access::new(s_check, binding(["1"]));
        let options = RunOptions {
            invalidation: InvalidationMode::Precise,
            ..RunOptions::default()
        };
        let mut oracle = RelevanceOracle::new(&query, &methods, &options);
        assert!(oracle.check_ir(&access, &mut conf));

        conf.insert_named("T", ["9"]).unwrap();
        oracle.observe_growth(&mut conf, schema.relation_by_name("T").unwrap());
        assert_eq!(oracle.evictions(), 0, "the read set never saw T");

        assert!(!oracle.check_ir(&access, &mut conf));
        assert!(!is_immediately_relevant(&query, &conf, &access, &methods));
        assert_eq!((oracle.evictions(), oracle.misses()), (1, 2));
    }

    #[test]
    fn shared_cache_entries_retire_on_dep_relation_growth() {
        let (_, methods, query, mut conf, access, _, _) = setup(true);
        let options = RunOptions::default();
        let shared = SharedVerdictCache::new();
        let mut oracle =
            RelevanceOracle::new(&query, &methods, &options).with_shared_cache(1, shared.clone());
        let _ = oracle.check_ltr(&access, &mut conf);
        assert_eq!(shared.len(), 1);
        // Growing the query's relation changes the version stamp: a fresh
        // same-class oracle misses the shared cache and publishes under the
        // new stamp instead of reading the stale verdict.
        conf.insert_named("R", ["k9", "w9"]).unwrap();
        let mut regrown =
            RelevanceOracle::new(&query, &methods, &options).with_shared_cache(1, shared.clone());
        let _ = regrown.check_ltr(&access, &mut conf);
        assert_eq!(regrown.shared_hits(), 0);
        assert_eq!(shared.len(), 2);
    }
}
