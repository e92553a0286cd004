//! The shared fact-store representation used by instances and configurations.
//!
//! `FactStore` is interned, indexed, **append-only** and **sharded behind
//! copy-on-write handles**:
//!
//! * every [`Value`] is mapped to a dense [`ValueId`] by a per-store
//!   [`ValueInterner`]; tuples are stored columnar per relation (one
//!   `Vec<ValueId>` per attribute), so scans compare `u32`s;
//! * each relation's columnar storage — columns, materialised tuples, the
//!   set of interned rows (membership) and per-(relation, attribute)
//!   value → row posting lists — lives in one *shard* behind an `Arc`
//!   ([`FactStore::candidates`] and [`FactStore::matching`] read through
//!   it);
//! * the active domain (`Adom(Conf)` in the paper) is maintained
//!   incrementally as a `(ValueId, DomainId)` set, with the same pairs
//!   logged in entry order beside it — its own `Arc`-backed shard — so
//!   [`FactStore::active_domain`] never rescans the facts and
//!   [`FactStore::adom_contains`] is a hash probe;
//! * the interner is a third `Arc`-backed shard.
//!
//! # Append-only growth
//!
//! A configuration only grows along an access path (Section 2 of the
//! paper), and the store has no removal API. An insert appends one row to
//! its relation, and no row ever leaves: each keeps its index and contents
//! for the lifetime of the store. Hence [`FactStore::rows_since`] returns
//! exactly the rows inserted after a given row count, posting lists ascend
//! by row, and [`FactStore::candidates`] returns rows in insertion order
//! without sorting. So what a store gained since some point is a suffix of
//! each relation's rows and of the active domain's entry log: a
//! [`GrowthCursor`] marks where, and its advance returns that [`Growth`].
//! The access frontier, the semi-naive certainty refresh and verdict
//! invalidation ([`ReadSet::touched_by`]) each hold their own cursor, and
//! the verdict cache's fact-count version stamps rely on the same
//! property. Hypothetical facts (a truncated path's responses, a witness's
//! later facts) never enter a store: the decision procedures evaluate them
//! as an overlay on top of it.
//!
//! # Copy-on-write semantics
//!
//! Cloning a `FactStore` (and therefore a [`crate::Configuration`]) is
//! **O(relations)**: it bumps one `Arc` per relation shard plus two more for
//! the interner and the active-domain cache. Clones share every shard until
//! one of them mutates; the first mutation of a *shared* shard copies that
//! shard alone (`Arc::make_mut`), leaving every other shard shared. This is
//! what lets the engine loop, the batched executors and the parallel sweep
//! workers snapshot million-fact configurations for free: read-only
//! snapshots never copy anything, and a growing engine round pays for the
//! accessed relation's shard (plus the adom map, plus the interner if the
//! response carried genuinely new values) — never for the whole store.
//!
//! Every actual shard copy is counted in [`FactStore::shard_copies`] (the
//! counter is inherited by clones, so a run's copies are the difference of
//! two readings). Structural sharing is observable through
//! [`FactStore::shares_relation_shard`] / [`FactStore::shares_adom_shard`] /
//! [`FactStore::shares_interner`], which the oracle-grid tests in
//! `tests/properties.rs` pin down.
//!
//! # Invariants (checked by the property tests in `tests/properties.rs`
//! against a naive scan oracle)
//!
//! * `matching` returns exactly the tuples whose projection on the binding
//!   positions equals the binding, in row (insertion) order;
//! * `active_domain` equals the set of `(value, domain)` pairs occurring in
//!   any fact;
//! * `rows_since` returns exactly the rows inserted after a row count;
//! * a cursor's advance returns exactly the rows inserted since its last
//!   position and the pairs that entered the active domain meanwhile, in
//!   entry order;
//! * interning values that are already known never copies the interner
//!   shard; inserting a fact that is already present never copies any
//!   shard;
//! * a clone diverges from its origin exactly as a naive deep copy would:
//!   after any interleaving of inserts on either handle, each handle's
//!   facts, indexes and active domain equal those of an independently
//!   rebuilt store.

use std::collections::{BTreeMap, HashMap, HashSet};
use std::fmt;
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::{Arc, Mutex};

use crate::domain::DomainId;
use crate::error::SchemaError;
use crate::intern::{ValueId, ValueInterner};
use crate::relation::RelationId;
use crate::schema::Schema;
use crate::tuple::Tuple;
use crate::value::Value;
use crate::Result;

/// A ground fact: a relation together with a tuple of values.
pub type Fact = (RelationId, Tuple);

/// The store's hash for keys made of interned ids (posting lists, row
/// keys, active-domain pairs): the multiply-rotate step of rustc's
/// `FxHasher`. Every join probe and every candidate count looks a value id
/// up in a posting list, and every insert probes the row keys and the
/// active domain; `SipHash` cost more than the rest of such a lookup. The
/// keys are ids the interner and the schema assign densely, never input
/// from outside the program, so nothing can craft them to collide.
#[derive(Clone, Copy, Debug, Default)]
struct IdHasher(u64);

impl Hasher for IdHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    fn write_u32(&mut self, i: u32) {
        self.write_u64(u64::from(i));
    }

    fn write_u64(&mut self, i: u64) {
        self.0 = (self.0.rotate_left(5) ^ i).wrapping_mul(0x517c_c1b7_2722_0a95);
    }

    /// A slice key's length prefix.
    fn write_usize(&mut self, i: usize) {
        self.write_u64(i as u64);
    }
}

type IdBuildHasher = BuildHasherDefault<IdHasher>;

/// One attribute's posting lists: value id → the rows carrying it there.
type PostingLists = HashMap<ValueId, Vec<usize>, IdBuildHasher>;

/// Mutable access to a shard, copying it first if it is shared with another
/// handle (copy-on-write), and counting the copy into `copies`.
fn copy_on_write<'a, T: Clone>(shard: &'a mut Arc<T>, copies: &mut u64) -> &'a mut T {
    if Arc::strong_count(shard) > 1 {
        *copies += 1;
    }
    Arc::make_mut(shard)
}

/// Columnar storage for one relation — the unit of copy-on-write sharing:
/// interned columns, materialised tuples, row membership and per-attribute
/// indexes.
#[derive(Clone, Debug, Default)]
struct RelationShard {
    /// One column per attribute; `columns[c][r]` is the id at position `c`
    /// of row `r`.
    columns: Vec<Vec<ValueId>>,
    /// Materialised tuples, in row order (for cheap iteration/cloning).
    tuples: Vec<Tuple>,
    /// The interned rows (membership + duplicate detection).
    keys: HashSet<Box<[ValueId]>, IdBuildHasher>,
    /// Per attribute: value id → indices of rows carrying it there, in
    /// ascending order (rows are only appended).
    indexes: Vec<PostingLists>,
}

impl RelationShard {
    fn with_arity(arity: usize) -> Self {
        Self {
            columns: vec![Vec::new(); arity],
            tuples: Vec::new(),
            keys: HashSet::default(),
            indexes: vec![PostingLists::default(); arity],
        }
    }

    fn len(&self) -> usize {
        self.tuples.len()
    }

    /// Appends a row that is not yet present, indexing it.
    fn push_row(&mut self, key: Box<[ValueId]>, t: Tuple) {
        let row = self.len();
        for (c, &id) in key.iter().enumerate() {
            self.columns[c].push(id);
            self.indexes[c].entry(id).or_default().push(row);
        }
        self.tuples.push(t);
        self.keys.insert(key);
    }
}

/// The rows [`FactStore::candidates`] selects, walked lazily in row order:
/// a join that finds its match stops paying for the rest of the list. The
/// constraint ids are resolved, and the read recorded, when the cursor is
/// made, so a walk that stops early records what a drained one does.
#[derive(Clone, Debug)]
pub struct Candidates<'s> {
    tuples: &'s [Tuple],
    columns: &'s [Vec<ValueId>],
    rows: CandidateRows<'s>,
    /// The `(position, id)` constraints a row of `rows` must still meet.
    filter: Vec<(usize, ValueId)>,
}

#[derive(Clone, Debug)]
enum CandidateRows<'s> {
    /// Every row of the relation, in order (no constraint).
    Scan(std::slice::Iter<'s, Tuple>),
    /// The shortest posting list among the constraints.
    Posting(std::slice::Iter<'s, usize>),
}

impl<'s> Candidates<'s> {
    /// The cursor that yields nothing.
    fn none() -> Self {
        Self::scan(&[])
    }

    fn scan(tuples: &'s [Tuple]) -> Self {
        Self {
            tuples,
            columns: &[],
            rows: CandidateRows::Scan(tuples.iter()),
            filter: Vec::new(),
        }
    }
}

impl<'s> Iterator for Candidates<'s> {
    type Item = &'s Tuple;

    fn next(&mut self) -> Option<&'s Tuple> {
        match &mut self.rows {
            CandidateRows::Scan(tuples) => tuples.next(),
            CandidateRows::Posting(rows) => {
                let (columns, filter) = (self.columns, &self.filter);
                let row =
                    rows.find(|&&row| filter.iter().all(|&(pos, id)| columns[pos][row] == id))?;
                Some(&self.tuples[*row])
            }
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        match &self.rows {
            CandidateRows::Scan(tuples) => tuples.size_hint(),
            CandidateRows::Posting(rows) if self.filter.is_empty() => rows.size_hint(),
            CandidateRows::Posting(rows) => (0, Some(rows.len())),
        }
    }
}

/// The active domain: every `(value, domain)` pair some stored row holds
/// at a position of that domain, as a set and, beside it, in entry order.
/// Rows never leave, so pairs never do.
#[derive(Clone, Debug, Default)]
struct AdomCache {
    members: HashSet<(ValueId, DomainId), IdBuildHasher>,
    entered: Vec<(ValueId, DomainId)>,
}

impl AdomCache {
    fn insert(&mut self, pair: (ValueId, DomainId)) {
        if self.members.insert(pair) {
            self.entered.push(pair);
        }
    }
}

/// How the read recorder classifies whole-active-domain walks (the
/// `active_domain` / valuation-enumeration reads of the decision
/// procedures).
///
/// Under [`AdomPrecision::Coarse`] every such walk is recorded as
/// [`Read::Adom`] — any value entering any domain invalidates the verdict.
/// Under [`AdomPrecision::Precise`] the instrumented walk sites
/// ([`FactStore::rec_adom_walk`]) record the *domain* that was walked
/// ([`Read::AdomDomain`]) and, when the walk was cut early by a search
/// budget, only the visited value *prefix* ([`Read::AdomPrefix`]) — so
/// growth in an unconsulted domain, or above the visited prefix, leaves the
/// verdict cached.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum AdomPrecision {
    /// Whole-adom walks record [`Read::Adom`] (the conservative
    /// pre-precise behaviour).
    #[default]
    Coarse,
    /// Whole-adom walks record per-domain and visited-prefix entries.
    Precise,
}

/// One store read, classified into the *coarsest class whose answer could
/// change under monotone growth*: a constrained index probe depends only on
/// rows of one relation carrying one value id, a full scan depends on the
/// whole relation, an active-domain probe depends on one `(value, domain)`
/// pair *entering* the domain, and so on. Each read decides for itself
/// whether a [`Growth`] touches it.
///
/// Probes for values the interner did not know at read time are kept
/// symbolically and resolved against the (append-only) interner when the
/// growth is checked.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub enum Read {
    /// A read whose answer can change under *any* growth (`len`,
    /// `is_subset_of`, whole-store fact dumps).
    All,
    /// A full scan of one relation (unconstrained `candidates`, `tuples`,
    /// `relation_len`).
    Relation(RelationId),
    /// A constrained probe: its answer changes only if an inserted row of
    /// the relation carries the value id.
    Pair(RelationId, ValueId),
    /// A probe of the relation against a value unknown to the interner at
    /// read time.
    UnknownValue(RelationId, Value),
    /// A whole-active-domain read (`active_domain`, `all_values`).
    Adom,
    /// A read of one abstract domain's active-domain values
    /// (`values_of_domain`, and precise-mode domain walks that ran to
    /// natural completion).
    AdomDomain(DomainId),
    /// A point active-domain membership probe (`adom_contains`).
    AdomPair(ValueId, DomainId),
    /// A point active-domain probe against a value unknown at read time.
    AdomUnknown(Value, DomainId),
    /// A visited-prefix active-domain read (precise mode only): the walk of
    /// the domain was cut early — by a search budget, or by a search
    /// stopping at its first witness — after visiting only the values
    /// `≤ bound` in sorted order. A value entering the domain
    /// *strictly below* the bound changes what the walk saw; a value at or
    /// above it lands past the cut point and cannot (the bound value itself
    /// was already part of the walk's view, whether it came from the active
    /// domain or from caller-supplied extras). The recorder keeps one prefix
    /// per domain, the widest, and none beside a whole-domain walk of the
    /// same domain. Sorts last, so a domain's prefix is found by a binary
    /// search on the domain alone.
    AdomPrefix(DomainId, Value),
}

impl Read {
    /// Could `growth` change the answer of this read?
    ///
    /// Row reads trigger on an appended row of their relation (carrying
    /// their value, for a constrained probe). Active-domain reads trigger
    /// only on pairs *entering* the domain (growth is monotone, so a
    /// positive membership probe can never flip). Unknown-value probes are
    /// resolved against the interner now: it is append-only, so a value
    /// that was unknown at read time and is known now was interned by a
    /// later insert.
    fn touched_by(&self, growth: &Growth<'_>) -> bool {
        let interner = growth.interner();
        let mut entered = growth.entered().iter().copied();
        match self {
            Read::All => !growth.is_empty(),
            Read::Relation(r) => !growth.rows(*r).is_empty(),
            Read::Pair(r, id) => growth.carries(*r, *id),
            Read::UnknownValue(r, v) => interner.lookup(v).is_some_and(|id| growth.carries(*r, id)),
            Read::Adom => entered.next().is_some(),
            Read::AdomDomain(d) => entered.any(|(_, dd)| dd == *d),
            Read::AdomPair(id, d) => entered.any(|p| p == (*id, *d)),
            Read::AdomUnknown(v, d) => interner
                .lookup(v)
                .is_some_and(|id| entered.any(|p| p == (id, *d))),
            Read::AdomPrefix(d, bound) => {
                entered.any(|(i, dd)| dd == *d && interner.resolve(i) < bound)
            }
        }
    }
}

/// The store reads performed while a read recorder was installed (see
/// [`FactStore::begin_read_tracking_with`]): a sorted, duplicate-free list
/// of [`Read`]s.
///
/// A decision procedure is a deterministic function of its reads, so a
/// cached verdict stays valid as long as no [`Growth`] touches any recorded
/// read — [`ReadSet::touched_by`] is that test.
///
/// The joins choose which atom to branch on from
/// [`FactStore::candidate_bound`], which records nothing. That choice
/// shapes the search but not its verdict: a refutation is a tree whose
/// every node exhausts the candidate list of the atom it branched on, and
/// those lists are recorded. While no growth touches them the same tree
/// still refutes, whatever order a re-run would pick; a match found stays
/// a match, since rows never leave. So a read set names only the atoms a
/// search branched on, not every atom it could have started from. (The
/// immediate-relevance search also cuts branches that could only succeed
/// on a configuration where its query is certain, and records nothing for
/// them; its caller settles that case from the query's certainty status.)
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ReadSet {
    reads: Vec<Read>,
}

impl ReadSet {
    /// Whether nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.reads.is_empty()
    }

    /// Number of recorded reads.
    pub fn len(&self) -> usize {
        self.reads.len()
    }

    /// The recorded reads, in sorted order.
    pub fn iter(&self) -> std::slice::Iter<'_, Read> {
        self.reads.iter()
    }

    /// Could `growth` change the answer of any recorded read?
    pub fn touched_by(&self, growth: &Growth<'_>) -> bool {
        self.reads.iter().any(|r| r.touched_by(growth))
    }

    /// Records `read` unless it is already present.
    fn insert(&mut self, read: Read) {
        let found = if let Read::Pair(r, v) = read {
            // Key probes are nearly all recording traffic (a join re-probes
            // the same few hundred pairs thousands of times), and comparing
            // two pairs as one packed integer halves the cost of a search
            // step against the derived enum order, which it agrees with.
            let key = |r: RelationId, v: ValueId| u64::from(r.0) << 32 | u64::from(v.0);
            let probe = key(r, v);
            self.reads.binary_search_by(|e| match *e {
                Read::Pair(r, v) => key(r, v).cmp(&probe),
                ref e => e.cmp(&read),
            })
        } else {
            self.reads.binary_search(&read)
        };
        if let Err(i) = found {
            self.reads.insert(i, read);
        }
    }

    /// Records a whole-domain walk of `domain`, which subsumes any visited
    /// prefix of it.
    fn record_adom_domain(&mut self, domain: DomainId) {
        if let Ok(i) = self.prefix_of(domain) {
            self.reads.remove(i);
        }
        self.insert(Read::AdomDomain(domain));
    }

    /// Records a walk of `domain` cut after `bound`: merging keeps the
    /// widest bound, and a whole-domain read of the same domain wins.
    fn record_adom_prefix(&mut self, domain: DomainId, bound: &Value) {
        if self.reads.binary_search(&Read::AdomDomain(domain)).is_ok() {
            return;
        }
        match self.prefix_of(domain) {
            Ok(i) => {
                if let Read::AdomPrefix(_, old) = &mut self.reads[i] {
                    if bound > old {
                        *old = bound.clone();
                    }
                }
            }
            Err(i) => self
                .reads
                .insert(i, Read::AdomPrefix(domain, bound.clone())),
        }
    }

    /// Where `domain`'s prefix read sits (or would be inserted).
    fn prefix_of(&self, domain: DomainId) -> std::result::Result<usize, usize> {
        self.reads.binary_search_by(|r| match r {
            Read::AdomPrefix(d, _) => d.cmp(&domain),
            _ => std::cmp::Ordering::Less,
        })
    }
}

/// Builds a read set from reads as given (sorted and deduplicated, with no
/// merging between classes) — the inverse of [`ReadSet::iter`].
impl FromIterator<Read> for ReadSet {
    fn from_iter<I: IntoIterator<Item = Read>>(iter: I) -> Self {
        let mut reads: Vec<Read> = iter.into_iter().collect();
        reads.sort_unstable();
        reads.dedup();
        ReadSet { reads }
    }
}

/// A position in one store's growth: a row count per relation (missing
/// entries are zero) and a length of the active domain's entry log. It
/// follows one store and the clones taken of it at or after the position.
#[derive(Debug, Clone, Default)]
pub struct GrowthCursor {
    rows: Vec<usize>,
    adom: usize,
}

impl GrowthCursor {
    /// A cursor at the end of `store`; the default one stands before its
    /// first row.
    pub fn at(store: &FactStore) -> Self {
        Self {
            rows: store.relations.iter().map(|s| s.len()).collect(),
            adom: store.adom.entered.len(),
        }
    }

    /// Moves the cursor to the end of `store` and returns what lies
    /// between: the rows appended since the cursor's position and the pairs
    /// that entered the active domain. Never records a read, even under an
    /// installed read recorder.
    pub fn advance<'s>(&mut self, store: &'s FactStore) -> Growth<'s> {
        self.rows.resize(store.relations.len(), 0);
        let mut from = Vec::new();
        for (i, (mark, shard)) in self.rows.iter_mut().zip(&store.relations).enumerate() {
            if shard.len() > *mark {
                from.push((RelationId(i as u32), *mark));
                *mark = shard.len();
            }
        }
        let adom = std::mem::replace(&mut self.adom, store.adom.entered.len());
        Growth { store, from, adom }
    }
}

/// What a store gained between two positions of a [`GrowthCursor`]: the
/// appended rows, in row order per relation, and the `(value, domain)`
/// pairs that entered the active domain, in entry order.
pub struct Growth<'s> {
    store: &'s FactStore,
    /// Each relation with appended rows, in id order, and its first one.
    from: Vec<(RelationId, usize)>,
    /// Where the entered pairs start in the active domain's entry log.
    adom: usize,
}

impl<'s> Growth<'s> {
    /// Whether no row was appended (then no pair entered either).
    pub fn is_empty(&self) -> bool {
        self.from.is_empty()
    }

    /// The relations with appended rows, in id order, with those rows.
    pub fn relations(&self) -> impl Iterator<Item = (RelationId, &'s [Tuple])> + '_ {
        let store = self.store;
        self.from
            .iter()
            .map(move |&(r, from)| (r, &store.relations[r.index()].tuples[from..]))
    }

    /// The rows appended to `relation`, in row order.
    pub fn rows(&self, relation: RelationId) -> &'s [Tuple] {
        self.relations()
            .find(|&(r, _)| r == relation)
            .map_or(&[], |(_, rows)| rows)
    }

    /// The `(value, domain)` pairs that entered the active domain, in entry
    /// order; the ids resolve against [`Growth::interner`].
    pub fn entered(&self) -> &'s [(ValueId, DomainId)] {
        self.store.adom.entered.get(self.adom..).unwrap_or(&[])
    }

    /// The store's interner.
    pub fn interner(&self) -> &'s ValueInterner {
        self.store.interner.as_ref()
    }

    /// Whether a row appended to `relation` carries `id` at any position.
    fn carries(&self, relation: RelationId, id: ValueId) -> bool {
        self.from.iter().any(|&(r, from)| {
            let columns = &self.store.relations[r.index()].columns;
            r == relation && columns.iter().any(|c| c[from..].contains(&id))
        })
    }
}

/// A set of ground facts over a schema, organised per relation.
///
/// `FactStore` is the common substrate behind both [`crate::Instance`] (the
/// full, virtual database) and [`crate::Configuration`] (the facts learnt so
/// far). It enforces arity consistency on insertion and offers the lookups
/// the decision procedures need: membership, per-relation scans, index-backed
/// binding-compatible scans and cached active-domain computation. See the
/// module docs for the copy-on-write sharding contract.
pub struct FactStore {
    schema: Arc<Schema>,
    interner: Arc<ValueInterner>,
    relations: Vec<Arc<RelationShard>>,
    adom: Arc<AdomCache>,
    len: usize,
    /// Cumulative count of shards this handle actually copied on first
    /// write (inherited by clones; diff two readings to scope a run).
    shard_copies: u64,
    /// Read recorder installed by `begin_read_tracking_with` (`None` when not
    /// recording). Behind a mutex because the read APIs take `&self`; the
    /// lock is uncontended (the recorder is single-owner: installing it
    /// takes `&mut self`, and clones do not inherit it).
    recording: Option<Mutex<ReadSet>>,
    /// How the installed recorder classifies whole-adom walks (set by
    /// [`FactStore::begin_read_tracking_with`]; meaningless while no
    /// recorder is installed).
    adom_precision: AdomPrecision,
}

impl Clone for FactStore {
    /// O(relations): bumps one `Arc` per shard. The clone inherits the
    /// `shard_copies` counter but **not** the read recorder, which is
    /// single-owner and stays with the original handle.
    fn clone(&self) -> Self {
        Self {
            schema: self.schema.clone(),
            interner: self.interner.clone(),
            relations: self.relations.clone(),
            adom: self.adom.clone(),
            len: self.len,
            shard_copies: self.shard_copies,
            recording: None,
            adom_precision: AdomPrecision::Coarse,
        }
    }
}

impl FactStore {
    /// Creates an empty store over `schema`.
    pub fn new(schema: Arc<Schema>) -> Self {
        let relations = schema
            .relations()
            .iter()
            .map(|r| Arc::new(RelationShard::with_arity(r.arity())))
            .collect();
        Self {
            schema,
            interner: Arc::new(ValueInterner::new()),
            relations,
            adom: Arc::new(AdomCache::default()),
            len: 0,
            shard_copies: 0,
            recording: None,
            adom_precision: AdomPrecision::Coarse,
        }
    }

    /// The schema this store ranges over.
    pub fn schema(&self) -> &Arc<Schema> {
        &self.schema
    }

    /// The store's value interner (read-only).
    pub fn interner(&self) -> &ValueInterner {
        self.interner.as_ref()
    }

    /// How many shard copies this handle has performed so far (the
    /// copy-on-write cost actually paid). Clones inherit the counter, so
    /// the copies attributable to a run are
    /// `after.shard_copies() - before.shard_copies()` on the same handle
    /// lineage. Read-only handles — snapshots that never mutate — never
    /// advance it.
    pub fn shard_copies(&self) -> u64 {
        self.shard_copies
    }

    /// Installs a fresh read recorder that classifies whole-adom walks at
    /// `precision` (see [`AdomPrecision`]): every later read API call
    /// records itself into the [`ReadSet`] until
    /// [`FactStore::take_read_set`] uninstalls it. The recorder is
    /// single-owner and not inherited by clones. Installing over an existing
    /// recorder discards the old one.
    pub fn begin_read_tracking_with(&mut self, precision: AdomPrecision) {
        self.adom_precision = precision;
        self.recording = Some(Mutex::new(ReadSet::default()));
    }

    /// Uninstalls the read recorder and returns what it saw (empty if no
    /// recorder was installed).
    pub fn take_read_set(&mut self) -> ReadSet {
        match self.recording.take() {
            Some(m) => match m.into_inner() {
                Ok(rs) => rs,
                Err(poisoned) => poisoned.into_inner(),
            },
            None => ReadSet::default(),
        }
    }

    /// Whether a read recorder is installed.
    pub fn is_recording_reads(&self) -> bool {
        self.recording.is_some()
    }

    /// Records a read under the installed recorder, if any.
    #[inline]
    fn rec(&self, f: impl FnOnce(&mut ReadSet)) {
        if let Some(m) = &self.recording {
            if let Ok(mut rs) = m.lock() {
                f(&mut rs);
            }
        }
    }

    /// Records the membership probe an insert path performs for `key` in
    /// `relation` (the `Ok(false)`-vs-`Ok(true)` branch is a read).
    #[inline]
    fn rec_key_probe(&self, relation: RelationId, key: &[ValueId]) {
        self.rec(|rs| {
            rs.insert(match key.first() {
                Some(&id) => Read::Pair(relation, id),
                None => Read::Relation(relation),
            })
        });
    }

    /// Records a walk over the active-domain values of one abstract domain
    /// at the installed recorder's [`AdomPrecision`]. `upto` is `None` when
    /// the walk consumed the domain's sorted value list to its natural end
    /// (the walk *observed* the end of the list, so any value entering the
    /// domain changes what it saw) and `Some(bound)` when the walk was cut
    /// early, by a search budget or a stop at the first witness, after
    /// visiting values `≤ bound` only (a value entering strictly below the
    /// bound reorders the visited prefix; one at or above it lands past the
    /// cut). Instrumented walk sites — the
    /// valuation enumeration of the witness searches, the accessible-value
    /// pools of the producibility planner — call this instead of
    /// [`FactStore::active_domain`] so precise-mode verdicts survive growth
    /// they never looked at. Under [`AdomPrecision::Coarse`] every walk
    /// collapses to [`Read::Adom`], reproducing the pre-precise read sets.
    pub fn rec_adom_walk(&self, domain: DomainId, upto: Option<&Value>) {
        match self.adom_precision {
            AdomPrecision::Coarse => self.rec(|rs| rs.insert(Read::Adom)),
            AdomPrecision::Precise => match upto {
                None => self.rec(|rs| rs.record_adom_domain(domain)),
                Some(bound) => self.rec(|rs| rs.record_adom_prefix(domain, bound)),
            },
        }
    }

    /// Records a walk over the *whole* active domain with no per-domain
    /// structure (untyped variables drawing candidates from every domain at
    /// once). Always [`Read::Adom`] — the sound fallback at either
    /// precision.
    pub fn rec_adom_global(&self) {
        self.rec(|rs| rs.insert(Read::Adom));
    }

    /// Detaches every shard this handle still shares with other clones —
    /// relation shards, the adom cache and the interner — so the handle
    /// exclusively owns its storage. Cost is one deep copy of whatever was
    /// still shared (bounded by the current fact count), paid now instead
    /// of lazily at first write; an explicit detach is not a copy-on-write
    /// divergence, so [`FactStore::shard_copies`] does not advance. The
    /// engine does not call it: a run's copy detaches only the shards its
    /// responses grow. It stays only because the benchmark package's
    /// traced replay calls it (ROADMAP direction 4.2).
    pub fn own_all_shards(&mut self) {
        for shard in &mut self.relations {
            Arc::make_mut(shard);
        }
        Arc::make_mut(&mut self.adom);
        Arc::make_mut(&mut self.interner);
    }

    /// Whether `self` and `other` still share `relation`'s columnar shard
    /// (no copy-on-write divergence has happened there yet).
    pub fn shares_relation_shard(&self, other: &FactStore, relation: RelationId) -> bool {
        match (
            self.relations.get(relation.index()),
            other.relations.get(relation.index()),
        ) {
            (Some(a), Some(b)) => Arc::ptr_eq(a, b),
            _ => false,
        }
    }

    /// Whether `self` and `other` still share the active-domain shard.
    pub fn shares_adom_shard(&self, other: &FactStore) -> bool {
        Arc::ptr_eq(&self.adom, &other.adom)
    }

    /// Whether `self` and `other` still share the interner shard.
    pub fn shares_interner(&self, other: &FactStore) -> bool {
        Arc::ptr_eq(&self.interner, &other.interner)
    }

    /// Interns `v`, copying the interner shard only when the value is
    /// genuinely new *and* the shard is shared.
    fn intern_value(&mut self, v: &Value) -> ValueId {
        if let Some(id) = self.interner.lookup(v) {
            return id;
        }
        if Arc::strong_count(&self.interner) > 1 {
            self.shard_copies += 1;
        }
        Arc::make_mut(&mut self.interner).intern(v)
    }

    /// Inserts a fact, checking relation id and arity.
    ///
    /// Returns `Ok(true)` if the fact was new, `Ok(false)` if it was already
    /// present. A duplicate insertion is read-only: no shard is copied.
    pub fn insert(&mut self, relation: RelationId, t: Tuple) -> Result<bool> {
        let arity = self.schema.arity(relation)?;
        if t.arity() != arity {
            return Err(SchemaError::ArityMismatch {
                relation,
                expected: arity,
                actual: t.arity(),
            });
        }
        let key: Box<[ValueId]> = t.iter().map(|v| self.intern_value(v)).collect();
        // The duplicate check below is a read: a recorded procedure branches
        // on whether the row was already present.
        self.rec_key_probe(relation, &key);
        if self.relations[relation.index()].keys.contains(&key) {
            return Ok(false);
        }
        let rel = self.schema.relation(relation)?;
        let adom = copy_on_write(&mut self.adom, &mut self.shard_copies);
        for (c, &id) in key.iter().enumerate() {
            adom.insert((id, rel.domain_at(c)));
        }
        copy_on_write(
            &mut self.relations[relation.index()],
            &mut self.shard_copies,
        )
        .push_row(key, t);
        self.len += 1;
        Ok(true)
    }

    /// Inserts a fact given by relation name and anything convertible to
    /// values. Convenience for tests and examples.
    pub fn insert_named<V: Into<Value>, I: IntoIterator<Item = V>>(
        &mut self,
        relation: &str,
        values: I,
    ) -> Result<bool> {
        let rel = self.schema.relation_by_name(relation)?;
        self.insert(
            rel,
            Tuple::new(values.into_iter().map(Into::into).collect()),
        )
    }

    /// Membership test.
    pub fn contains(&self, relation: RelationId, t: &Tuple) -> bool {
        let Some(shard) = self.relations.get(relation.index()) else {
            return false;
        };
        if t.arity() != shard.columns.len() {
            return false;
        }
        let mut key = Vec::with_capacity(t.arity());
        for v in t.iter() {
            match self.interner.lookup(v) {
                Some(id) => key.push(id),
                None => {
                    // An unknown value may be interned by a later insert;
                    // keep the probe symbolic.
                    self.rec(|rs| rs.insert(Read::UnknownValue(relation, v.clone())));
                    return false;
                }
            }
        }
        self.rec_key_probe(relation, &key);
        shard.keys.contains(key.as_slice())
    }

    /// Membership test for a [`Fact`].
    pub fn contains_fact(&self, fact: &Fact) -> bool {
        self.contains(fact.0, &fact.1)
    }

    /// All tuples of one relation, in row (insertion) order.
    pub fn tuples(&self, relation: RelationId) -> impl Iterator<Item = &Tuple> {
        self.rec(|rs| rs.insert(Read::Relation(relation)));
        self.relations
            .get(relation.index())
            .into_iter()
            .flat_map(|s| s.tuples.iter())
    }

    /// The tuples of one relation in rows `from..`, in row order (empty when
    /// `from` is past the last row): exactly the rows inserted after the
    /// relation's first `from` rows, since rows are only ever appended.
    pub fn rows_since(&self, relation: RelationId, from: usize) -> &[Tuple] {
        self.rec(|rs| rs.insert(Read::Relation(relation)));
        self.relations
            .get(relation.index())
            .and_then(|s| s.tuples.get(from..))
            .unwrap_or(&[])
    }

    /// Number of tuples in one relation.
    pub fn relation_len(&self, relation: RelationId) -> usize {
        self.rec(|rs| rs.insert(Read::Relation(relation)));
        self.relations
            .get(relation.index())
            .map(|s| s.len())
            .unwrap_or(0)
    }

    /// Total number of facts in the store.
    pub fn len(&self) -> usize {
        self.rec(|rs| rs.insert(Read::All));
        self.len
    }

    /// Whether the store holds no facts.
    pub fn is_empty(&self) -> bool {
        self.rec(|rs| rs.insert(Read::All));
        self.len == 0
    }

    /// Iterates over every fact in the store.
    pub fn facts(&self) -> impl Iterator<Item = Fact> + '_ {
        self.rec(|rs| rs.insert(Read::All));
        self.relations.iter().enumerate().flat_map(|(i, shard)| {
            shard
                .tuples
                .iter()
                .map(move |t| (RelationId(i as u32), t.clone()))
        })
    }

    /// The tuples of `relation` whose projection onto `positions` equals
    /// `binding` — the paper's `I(Bind, S)`. Index-backed: the scan starts
    /// from the most selective posting list among the bound positions.
    pub fn matching(
        &self,
        relation: RelationId,
        positions: &[usize],
        binding: &[Value],
    ) -> Vec<Tuple> {
        if positions.len() != binding.len() {
            return Vec::new();
        }
        self.candidates(relation, positions.iter().copied().zip(binding))
            .cloned()
            .collect()
    }

    /// A cursor over the tuples of `relation` agreeing with every
    /// `(position, value)` constraint, in row order. With no constraints
    /// this is a full scan. This is the entry point the homomorphism
    /// searches use to avoid linear scans: the most selective per-attribute
    /// posting list is walked and the remaining constraints are checked
    /// columnar. The cursor resolves the constraint values and records its
    /// read (the relation, one constraint pair, or an unknown value) when it
    /// is made, so a walk that stops after its first row records exactly
    /// what a drained one does.
    pub fn candidates<'v>(
        &self,
        relation: RelationId,
        constraints: impl IntoIterator<Item = (usize, &'v Value)>,
    ) -> Candidates<'_> {
        let Some(shard) = self.relations.get(relation.index()) else {
            return Candidates::none();
        };
        let shard = shard.as_ref();
        let arity = shard.columns.len();
        // Resolve constraint values; an un-interned value or an out-of-range
        // position can never match.
        let constraints = constraints.into_iter();
        let mut filter: Vec<(usize, ValueId)> = Vec::with_capacity(constraints.size_hint().0);
        for (pos, v) in constraints {
            if pos >= arity {
                return Candidates::none();
            }
            match self.interner.lookup(v) {
                Some(id) => filter.push((pos, id)),
                None => {
                    // The value may be interned by a later insert; keep the
                    // probe symbolic so such an insert re-triggers it.
                    self.rec(|rs| rs.insert(Read::UnknownValue(relation, v.clone())));
                    return Candidates::none();
                }
            }
        }
        let Some(&(_, first)) = filter.first() else {
            self.rec(|rs| rs.insert(Read::Relation(relation)));
            return Candidates::scan(&shard.tuples);
        };
        // A row changing this probe's answer must carry every constraint
        // value, so recording one of them is a sound trigger.
        self.rec(|rs| rs.insert(Read::Pair(relation, first)));
        // Most selective posting list first; its own constraint holds on
        // every row of it.
        let mut best: Option<(usize, &Vec<usize>)> = None;
        for (k, &(pos, id)) in filter.iter().enumerate() {
            let Some(list) = shard.indexes[pos].get(&id) else {
                return Candidates::none();
            };
            if best.is_none_or(|(_, b)| list.len() < b.len()) {
                best = Some((k, list));
            }
        }
        let (k, rows) = best.expect("at least one constraint");
        debug_assert!(rows.is_sorted(), "posting lists ascend by row");
        filter.swap_remove(k);
        Candidates {
            tuples: &shard.tuples,
            columns: &shard.columns,
            rows: CandidateRows::Posting(rows.iter()),
            filter,
        }
    }

    /// An upper bound on the number of rows [`FactStore::candidates`]
    /// returns for the same relation and constraints: the length of the
    /// shortest posting list among the constraints (the relation's length
    /// when there are none, 0 when one can never match). Never recorded,
    /// even under an installed read recorder: the joins call it only to
    /// choose which atom to branch on, and what a join concludes depends
    /// only on the candidate lists it then draws, which `candidates`
    /// records (see [`ReadSet`]). Allocation-free.
    pub fn candidate_bound<'v>(
        &self,
        relation: RelationId,
        constraints: impl IntoIterator<Item = (usize, &'v Value)>,
    ) -> usize {
        let Some(shard) = self.relations.get(relation.index()) else {
            return 0;
        };
        let mut bound = shard.len();
        for (pos, v) in constraints {
            let postings = match (shard.indexes.get(pos), self.interner.lookup(v)) {
                (Some(index), Some(id)) => index.get(&id).map_or(0, Vec::len),
                _ => 0,
            };
            bound = bound.min(postings);
            if bound == 0 {
                break;
            }
        }
        bound
    }

    /// Returns `true` if every fact of `self` is also in `other`.
    pub fn is_subset_of(&self, other: &FactStore) -> bool {
        self.rec(|rs| rs.insert(Read::All));
        other.rec(|rs| rs.insert(Read::All));
        self.relations.iter().enumerate().all(|(i, shard)| {
            // Shared shards are trivially subsets of themselves.
            other
                .relations
                .get(i)
                .map(|o| Arc::ptr_eq(shard, o))
                .unwrap_or(false)
                || shard
                    .tuples
                    .iter()
                    .all(|t| other.contains(RelationId(i as u32), t))
        })
    }

    /// Adds every fact of `other` into `self`.
    pub fn extend_from(&mut self, other: &FactStore) {
        for (i, shard) in other.relations.iter().enumerate() {
            let rel = RelationId(i as u32);
            if i >= self.relations.len() {
                break;
            }
            if self
                .relations
                .get(i)
                .map(|s| Arc::ptr_eq(s, shard))
                .unwrap_or(false)
            {
                // Shared shard: every fact is already present.
                continue;
            }
            for t in &shard.tuples {
                let _ = self.insert(rel, t.clone());
            }
        }
    }

    /// Bulk-loads a collection of facts and returns how many were new.
    ///
    /// Equivalent to calling [`FactStore::insert`] per fact, but organised
    /// for large batches: every value is interned and every arity checked in
    /// one validation pass *before* any relation is touched (so an invalid
    /// fact leaves the stored facts unchanged), rows are grouped per
    /// relation, and each relation's columns, tuple vector and row-key set
    /// are reserved to their final size before the indexes are built. Each
    /// touched relation's shard is copied at most once (and not at all when
    /// every grouped row is a duplicate). This is the seeding path for the
    /// 10⁴–10⁶-fact configurations of the E5 / federation sweeps.
    pub fn extend_facts<I: IntoIterator<Item = Fact>>(&mut self, facts: I) -> Result<usize> {
        let schema = self.schema.clone();
        // Validation + interning pass; nothing is stored yet.
        let mut grouped: Vec<Vec<(Box<[ValueId]>, Tuple)>> = vec![Vec::new(); self.relations.len()];
        for (relation, t) in facts {
            let arity = schema.arity(relation)?;
            if t.arity() != arity {
                return Err(SchemaError::ArityMismatch {
                    relation,
                    expected: arity,
                    actual: t.arity(),
                });
            }
            let key: Box<[ValueId]> = t.iter().map(|v| self.intern_value(v)).collect();
            grouped[relation.index()].push((key, t));
        }
        // Build pass: reserve per relation, then insert with index updates.
        let mut inserted = 0usize;
        for (i, rows) in grouped.iter_mut().enumerate() {
            if rows.is_empty() {
                continue;
            }
            // Per-row duplicate checks are reads; record them even when the
            // whole batch turns out to be duplicates.
            if self.recording.is_some() {
                let relation = RelationId(i as u32);
                for (key, _) in rows.iter() {
                    self.rec_key_probe(relation, key);
                }
            }
            // Copy-on-write guard: leave a fully-duplicate batch's shard
            // shared.
            if rows
                .iter()
                .all(|(key, _)| self.relations[i].keys.contains(key))
            {
                continue;
            }
            let rel = schema
                .relation(RelationId(i as u32))
                .expect("relation validated above");
            // Some row is new, and each new row offers its pairs to the adom
            // shard, copied first if shared. A nullary relation's rows carry
            // no value, so they leave that shard shared.
            let mut adom =
                (rel.arity() > 0).then(|| copy_on_write(&mut self.adom, &mut self.shard_copies));
            let shard = copy_on_write(&mut self.relations[i], &mut self.shard_copies);
            shard.keys.reserve(rows.len());
            shard.tuples.reserve(rows.len());
            for column in &mut shard.columns {
                column.reserve(rows.len());
            }
            for (key, t) in rows.drain(..) {
                if shard.keys.contains(&key) {
                    continue;
                }
                // One insert per pair: each new pair is logged in entry
                // order.
                if let Some(adom) = adom.as_deref_mut() {
                    for (c, &id) in key.iter().enumerate() {
                        adom.insert((id, rel.domain_at(c)));
                    }
                }
                shard.push_row(key, t);
                inserted += 1;
            }
        }
        self.len += inserted;
        Ok(inserted)
    }

    /// The active domain of the store: the set of `(value, domain)` pairs
    /// appearing in any fact, each value paired with the abstract domain of
    /// the attribute position it appears in (`Adom(Conf)` in the paper).
    ///
    /// Served from the maintained cache — no fact is rescanned.
    pub fn active_domain(&self) -> HashSet<(Value, DomainId)> {
        self.rec(|rs| rs.insert(Read::Adom));
        self.active_domain_untracked()
    }

    /// Like [`FactStore::active_domain`] but never recorded, even under an
    /// installed read recorder. For callers that instrument their own walk
    /// over the returned pairs and record what they actually consulted via
    /// [`FactStore::rec_adom_walk`] — using the recorded accessor there
    /// would pin every verdict to the whole active domain and defeat
    /// precise invalidation.
    pub fn active_domain_untracked(&self) -> HashSet<(Value, DomainId)> {
        self.adom
            .entered
            .iter()
            .map(|&(id, d)| (self.interner.resolve(id).clone(), d))
            .collect()
    }

    /// The minimum active-domain value of every populated abstract domain,
    /// never recorded. This is the summary the producibility planner's
    /// accessible-value pool keeps: its only store-derived choices are "the
    /// least value of domain `d`" and "is domain `d` populated", and the
    /// pool records those as prefix / whole-domain walks at use time.
    pub fn adom_domain_mins_untracked(&self) -> HashMap<DomainId, Value> {
        let mut mins: HashMap<DomainId, Value> = HashMap::new();
        for &(id, d) in &self.adom.entered {
            let v = self.interner.resolve(id);
            match mins.entry(d) {
                std::collections::hash_map::Entry::Occupied(mut e) => {
                    if v < e.get() {
                        e.insert(v.clone());
                    }
                }
                std::collections::hash_map::Entry::Vacant(e) => {
                    e.insert(v.clone());
                }
            }
        }
        mins
    }

    /// Number of distinct `(value, domain)` pairs in the active domain.
    pub fn active_domain_len(&self) -> usize {
        self.rec(|rs| rs.insert(Read::Adom));
        self.adom.entered.len()
    }

    /// Is `(value, domain)` in the active domain? A pair of hash probes.
    pub fn adom_contains(&self, value: &Value, domain: DomainId) -> bool {
        match self.interner.lookup(value) {
            Some(id) => {
                self.rec(|rs| rs.insert(Read::AdomPair(id, domain)));
                self.adom.members.contains(&(id, domain))
            }
            None => {
                self.rec(|rs| rs.insert(Read::AdomUnknown(value.clone(), domain)));
                false
            }
        }
    }

    /// The values of the active domain restricted to one abstract domain,
    /// sorted for deterministic iteration.
    pub fn values_of_domain(&self, domain: DomainId) -> Vec<Value> {
        // A plain insert: unlike a precise walk, this read leaves an earlier
        // prefix of the domain in place.
        self.rec(|rs| rs.insert(Read::AdomDomain(domain)));
        let mut vals: Vec<Value> = self
            .adom
            .entered
            .iter()
            .filter(|(_, d)| *d == domain)
            .map(|&(id, _)| self.interner.resolve(id).clone())
            .collect();
        vals.sort();
        vals
    }

    /// All values appearing anywhere in the store (regardless of domain),
    /// sorted and deduplicated.
    pub fn all_values(&self) -> Vec<Value> {
        self.rec(|rs| rs.insert(Read::Adom));
        let ids: HashSet<ValueId> = self.adom.entered.iter().map(|&(id, _)| id).collect();
        let mut vals: Vec<Value> = ids
            .into_iter()
            .map(|id| self.interner.resolve(id).clone())
            .collect();
        vals.sort();
        vals
    }

    /// Deterministic, sorted dump of all facts — used by `Display`, snapshot
    /// tests and hashing of configurations during searches.
    pub fn sorted_facts(&self) -> Vec<Fact> {
        let mut facts: Vec<Fact> = self.facts().collect();
        facts.sort();
        facts
    }
}

impl fmt::Debug for FactStore {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut map = BTreeMap::new();
        for (rel, t) in self.sorted_facts() {
            let name = self
                .schema
                .relation(rel)
                .map(|r| r.name().to_string())
                .unwrap_or_else(|_| rel.to_string());
            map.entry(name).or_insert_with(Vec::new).push(t);
        }
        f.debug_map().entries(map.iter()).finish()
    }
}

impl fmt::Display for FactStore {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (rel, t) in self.sorted_facts() {
            let name = self
                .schema
                .relation(rel)
                .map(|r| r.name().to_string())
                .unwrap_or_else(|_| rel.to_string());
            writeln!(f, "{name}{t}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tuple::tuple;

    fn small_schema() -> Arc<Schema> {
        let mut b = Schema::builder();
        let d = b.domain("D").unwrap();
        let e = b.domain("E").unwrap();
        b.relation("R", &[("a", d), ("b", e)]).unwrap();
        b.relation("S", &[("a", e)]).unwrap();
        b.build()
    }

    #[test]
    fn insert_contains_and_len() {
        let schema = small_schema();
        let r = schema.relation_by_name("R").unwrap();
        let mut store = FactStore::new(schema.clone());
        assert!(store.is_empty());
        assert!(store.insert(r, tuple(["x", "y"])).unwrap());
        assert!(!store.insert(r, tuple(["x", "y"])).unwrap());
        assert!(store.contains(r, &tuple(["x", "y"])));
        assert!(!store.contains(r, &tuple(["x", "z"])));
        assert_eq!(store.len(), 1);
        assert_eq!(store.relation_len(r), 1);
        assert!(!store.is_empty());
    }

    #[test]
    fn arity_mismatch_is_rejected() {
        let schema = small_schema();
        let r = schema.relation_by_name("R").unwrap();
        let mut store = FactStore::new(schema);
        assert!(matches!(
            store.insert(r, tuple(["only-one"])),
            Err(SchemaError::ArityMismatch { .. })
        ));
    }

    #[test]
    fn insert_named_resolves_relations() {
        let schema = small_schema();
        let mut store = FactStore::new(schema.clone());
        store.insert_named("S", ["v"]).unwrap();
        let s = schema.relation_by_name("S").unwrap();
        assert!(store.contains(s, &tuple(["v"])));
        assert!(store.insert_named("Nope", ["v"]).is_err());
    }

    #[test]
    fn matching_respects_binding_positions() {
        let schema = small_schema();
        let r = schema.relation_by_name("R").unwrap();
        let mut store = FactStore::new(schema);
        store.insert(r, tuple(["a", "1"])).unwrap();
        store.insert(r, tuple(["a", "2"])).unwrap();
        store.insert(r, tuple(["b", "1"])).unwrap();
        let hits = store.matching(r, &[0], &[Value::sym("a")]);
        assert_eq!(hits.len(), 2);
        let hits = store.matching(r, &[0, 1], &[Value::sym("b"), Value::sym("1")]);
        assert_eq!(hits, vec![tuple(["b", "1"])]);
        let hits = store.matching(r, &[1], &[Value::sym("9")]);
        assert!(hits.is_empty());
        // Mismatched positions/binding lengths and out-of-range positions
        // never match (same contract as Tuple::matches_binding).
        assert!(store.matching(r, &[0], &[]).is_empty());
        assert!(store.matching(r, &[7], &[Value::sym("a")]).is_empty());
    }

    #[test]
    fn candidates_power_partial_scans() {
        let schema = small_schema();
        let r = schema.relation_by_name("R").unwrap();
        let mut store = FactStore::new(schema);
        store.insert(r, tuple(["a", "1"])).unwrap();
        store.insert(r, tuple(["a", "2"])).unwrap();
        store.insert(r, tuple(["b", "1"])).unwrap();
        assert_eq!(store.candidates(r, []).count(), 3);
        let a = Value::sym("a");
        let one = Value::sym("1");
        assert_eq!(store.candidates(r, [(0, &a)]).count(), 2);
        let hits: Vec<&Tuple> = store.candidates(r, [(1, &one), (0, &a)]).collect();
        assert_eq!(hits, [&tuple(["a", "1"])]);
        let ghost = Value::sym("ghost");
        assert_eq!(store.candidates(r, [(0, &ghost)]).count(), 0);
        assert_eq!(store.candidates(r, [(9, &a)]).count(), 0);
        assert_eq!(store.candidates(RelationId(7), []).count(), 0);

        // The cursor records its read when it is made: one dropped after its
        // first row, or never advanced, records what a drained one does.
        let mut reads = |walk: &dyn Fn(Candidates)| {
            store.begin_read_tracking_with(AdomPrecision::Precise);
            walk(store.candidates(r, [(1, &one)]));
            walk(store.candidates(r, []));
            walk(store.candidates(r, [(0, &ghost)]));
            store.take_read_set()
        };
        let drained = reads(&|c| assert!(c.count() <= 3));
        assert_eq!(drained.len(), 3);
        assert_eq!(
            reads(&|mut c| {
                c.next();
            }),
            drained
        );
        assert_eq!(reads(&|c| drop(c)), drained);

        // Candidate bounds: the shortest posting list, never below the
        // candidates, and never recorded.
        store.begin_read_tracking_with(AdomPrecision::Precise);
        assert_eq!(store.candidate_bound(r, []), 3);
        assert_eq!(store.candidate_bound(r, [(0, &a)]), 2);
        assert_eq!(store.candidate_bound(r, [(0, &a), (1, &one)]), 2);
        assert_eq!(store.candidate_bound(r, [(1, &one), (0, &a)]), 2);
        assert_eq!(store.candidate_bound(r, [(0, &ghost)]), 0);
        assert_eq!(store.candidate_bound(r, [(9, &a)]), 0);
        assert_eq!(store.candidate_bound(RelationId(7), []), 0);
        assert!(store.take_read_set().is_empty());
    }

    #[test]
    fn active_domain_tracks_positional_domains() {
        let schema = small_schema();
        let d = schema.domain_by_name("D").unwrap();
        let e = schema.domain_by_name("E").unwrap();
        let mut store = FactStore::new(schema);
        store.insert_named("R", ["x", "y"]).unwrap();
        store.insert_named("S", ["y"]).unwrap();
        let adom = store.active_domain();
        assert!(adom.contains(&(Value::sym("x"), d)));
        assert!(adom.contains(&(Value::sym("y"), e)));
        // "x" never appears in an E position
        assert!(!adom.contains(&(Value::sym("x"), e)));
        assert!(store.adom_contains(&Value::sym("x"), d));
        assert!(!store.adom_contains(&Value::sym("x"), e));
        assert!(!store.adom_contains(&Value::sym("zz"), d));
        assert_eq!(store.active_domain_len(), adom.len());
        assert_eq!(store.values_of_domain(e), vec![Value::sym("y")]);
        assert_eq!(store.values_of_domain(d), vec![Value::sym("x")]);
        assert_eq!(store.all_values(), vec![Value::sym("x"), Value::sym("y")]);
    }

    #[test]
    fn subset_and_extend() {
        let schema = small_schema();
        let mut a = FactStore::new(schema.clone());
        let mut b = FactStore::new(schema.clone());
        a.insert_named("R", ["x", "y"]).unwrap();
        b.insert_named("R", ["x", "y"]).unwrap();
        b.insert_named("S", ["y"]).unwrap();
        assert!(a.is_subset_of(&b));
        assert!(!b.is_subset_of(&a));
        a.extend_from(&b);
        assert!(b.is_subset_of(&a));
        let r = schema.relation_by_name("R").unwrap();
        let mut c = FactStore::new(schema);
        assert_eq!(c.extend_facts(vec![(r, tuple(["p", "q"]))]).unwrap(), 1);
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn bulk_extend_matches_per_fact_insertion() {
        let schema = small_schema();
        let r = schema.relation_by_name("R").unwrap();
        let s = schema.relation_by_name("S").unwrap();
        let mut facts: Vec<Fact> = Vec::new();
        for i in 0..200 {
            facts.push((r, tuple([format!("a{}", i % 50), format!("b{}", i % 7)])));
            facts.push((s, tuple([format!("a{}", i % 23)])));
        }
        let mut bulk = FactStore::new(schema.clone());
        let inserted = bulk.extend_facts(facts.clone()).unwrap();
        let mut one_by_one = FactStore::new(schema);
        let mut expected = 0usize;
        for (rel, t) in facts {
            if one_by_one.insert(rel, t).unwrap() {
                expected += 1;
            }
        }
        assert_eq!(inserted, expected);
        assert_eq!(bulk.len(), one_by_one.len());
        assert_eq!(bulk.sorted_facts(), one_by_one.sorted_facts());
        assert_eq!(bulk.active_domain(), one_by_one.active_domain());
        // Index-backed lookups agree after the bulk build.
        let probe = Value::sym("a3");
        assert_eq!(
            bulk.matching(r, &[0], std::slice::from_ref(&probe)),
            one_by_one.matching(r, &[0], std::slice::from_ref(&probe))
        );
    }

    #[test]
    fn bulk_extend_rejects_bad_arity_without_partial_application() {
        let schema = small_schema();
        let r = schema.relation_by_name("R").unwrap();
        let mut store = FactStore::new(schema);
        let result = store.extend_facts(vec![(r, tuple(["a", "b"])), (r, tuple(["only-one"]))]);
        assert!(matches!(result, Err(SchemaError::ArityMismatch { .. })));
        // The valid fact preceding the invalid one was not applied either.
        assert!(store.is_empty());
    }

    #[test]
    fn facts_iteration_and_fact_membership() {
        let schema = small_schema();
        let r = schema.relation_by_name("R").unwrap();
        let mut store = FactStore::new(schema);
        store.insert(r, tuple(["a", "b"])).unwrap();
        store.insert_named("S", ["c"]).unwrap();
        assert_eq!(store.facts().count(), 2);
        assert!(store.contains_fact(&(r, tuple(["a", "b"]))));
        // Unknown values and a wrong arity are never members.
        assert!(!store.contains_fact(&(r, tuple(["ghost", "b"]))));
        assert!(!store.contains_fact(&(r, tuple(["a"]))));
    }

    #[test]
    fn sorted_facts_and_display_are_deterministic() {
        let schema = small_schema();
        let mut store = FactStore::new(schema);
        store.insert_named("R", ["b", "2"]).unwrap();
        store.insert_named("R", ["a", "1"]).unwrap();
        store.insert_named("S", ["z"]).unwrap();
        let facts = store.sorted_facts();
        assert_eq!(facts.len(), 3);
        assert!(facts[0].1 <= facts[1].1 || facts[0].0 < facts[1].0);
        let text = store.to_string();
        assert!(text.contains("R(a, 1)"));
        assert!(text.contains("S(z)"));
        let dbg = format!("{store:?}");
        assert!(dbg.contains("\"R\""));
    }

    #[test]
    fn interner_is_shared_across_relations() {
        let schema = small_schema();
        let mut store = FactStore::new(schema);
        store.insert_named("R", ["v", "v"]).unwrap();
        store.insert_named("S", ["v"]).unwrap();
        // One distinct value, interned once.
        assert_eq!(store.interner().len(), 1);
        assert_eq!(store.all_values(), vec![Value::sym("v")]);
    }

    #[test]
    fn clones_share_every_shard_until_first_write() {
        let schema = small_schema();
        let r = schema.relation_by_name("R").unwrap();
        let s = schema.relation_by_name("S").unwrap();
        let mut store = FactStore::new(schema);
        store.insert(r, tuple(["a", "1"])).unwrap();
        store.insert_named("S", ["z"]).unwrap();
        let base_copies = store.shard_copies();
        let mut clone = store.clone();
        assert!(store.shares_relation_shard(&clone, r));
        assert!(store.shares_relation_shard(&clone, s));
        assert!(store.shares_adom_shard(&clone));
        assert!(store.shares_interner(&clone));
        // The clone inherits the counter; sharing cost nothing.
        assert_eq!(clone.shard_copies(), base_copies);
        // Mutating R in the clone diverges R (and the adom + interner, which
        // see a new value) but leaves S shared.
        clone.insert(r, tuple(["new", "9"])).unwrap();
        assert!(!store.shares_relation_shard(&clone, r));
        assert!(store.shares_relation_shard(&clone, s));
        assert!(!store.shares_adom_shard(&clone));
        assert!(!store.shares_interner(&clone));
        assert!(clone.shard_copies() > base_copies);
        // The original handle never copied anything.
        assert_eq!(store.shard_copies(), base_copies);
        // The original is undisturbed.
        assert!(!store.contains(r, &tuple(["new", "9"])));
        assert!(clone.contains(r, &tuple(["new", "9"])));
    }

    #[test]
    fn duplicate_insert_and_known_values_do_not_copy_shards() {
        let schema = small_schema();
        let r = schema.relation_by_name("R").unwrap();
        let mut store = FactStore::new(schema);
        store.insert(r, tuple(["a", "1"])).unwrap();
        let mut clone = store.clone();
        let copies = clone.shard_copies();
        // Re-inserting an existing fact is read-only: everything stays
        // shared.
        assert!(!clone.insert(r, tuple(["a", "1"])).unwrap());
        assert_eq!(clone.shard_copies(), copies);
        assert!(store.shares_relation_shard(&clone, r));
        assert!(store.shares_adom_shard(&clone));
        assert!(store.shares_interner(&clone));
        // Inserting a new fact built from already-known values copies the
        // relation and adom shards but not the interner.
        assert!(clone.insert(r, tuple(["1", "a"])).unwrap());
        assert!(!store.shares_relation_shard(&clone, r));
        assert!(!store.shares_adom_shard(&clone));
        assert!(store.shares_interner(&clone));
    }

    #[test]
    fn fully_duplicate_bulk_load_keeps_shards_shared() {
        let schema = small_schema();
        let r = schema.relation_by_name("R").unwrap();
        let mut store = FactStore::new(schema);
        store.insert(r, tuple(["a", "1"])).unwrap();
        store.insert(r, tuple(["b", "2"])).unwrap();
        let mut clone = store.clone();
        let inserted = clone
            .extend_facts(vec![(r, tuple(["a", "1"])), (r, tuple(["b", "2"]))])
            .unwrap();
        assert_eq!(inserted, 0);
        assert!(store.shares_relation_shard(&clone, r));
        assert!(store.shares_adom_shard(&clone));
    }

    /// The recorder's merge rules: duplicates collapse, a domain keeps one
    /// prefix (the widest), a precise whole-domain walk drops that prefix
    /// and blocks later ones, while `values_of_domain` adds its domain read
    /// beside an earlier prefix. The list stays sorted throughout.
    #[test]
    fn recorder_merges_reads_into_one_sorted_list() {
        let schema = small_schema();
        let r = schema.relation_by_name("R").unwrap();
        let (d, e) = (DomainId(0), DomainId(1));
        let mut store = FactStore::new(schema);
        store.insert(r, tuple(["a", "1"])).unwrap();
        store.begin_read_tracking_with(AdomPrecision::Precise);
        store.rec_adom_walk(d, Some(&Value::sym("b")));
        store.rec_adom_walk(d, Some(&Value::sym("c")));
        store.rec_adom_walk(d, Some(&Value::sym("a")));
        store.rec_adom_walk(e, Some(&Value::sym("2")));
        let _ = store.values_of_domain(e);
        let _ = store.relation_len(r);
        let _ = store.relation_len(r);
        let reads = store.take_read_set();
        let expected = [
            Read::Relation(r),
            Read::AdomDomain(e),
            Read::AdomPrefix(d, Value::sym("c")),
            Read::AdomPrefix(e, Value::sym("2")),
        ];
        assert!(reads.iter().eq(expected.iter()));
        assert_eq!(reads.len(), 4);

        store.begin_read_tracking_with(AdomPrecision::Precise);
        store.rec_adom_walk(d, Some(&Value::sym("b")));
        store.rec_adom_walk(d, None);
        store.rec_adom_walk(d, Some(&Value::sym("z")));
        let reads = store.take_read_set();
        assert!(reads.iter().eq([Read::AdomDomain(d)].iter()));
    }
}
