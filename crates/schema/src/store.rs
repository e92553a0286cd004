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
//!   value → row posting lists — is one *shard*. The joins read it by id
//!   ([`FactStore::posting_rows`], [`FactStore::posting_bound`]), and so
//!   does [`FactStore::matching`], the paper's `I(Bind, S)` behind every
//!   source call;
//! * the active domain (`Adom(Conf)` in the paper) is maintained
//!   incrementally as a `(ValueId, DomainId)` set, with the same pairs
//!   logged in entry order beside it — a shard of its own — so
//!   [`FactStore::active_domain`] never rescans the facts and
//!   [`FactStore::adom_contains`] is a hash probe. Each level of that shard
//!   also keeps every domain's ids in value order, sorted on first demand
//!   and dropped when the level grows, so the witness searches read a
//!   domain's values in order ([`FactStore::domain_order_untracked`])
//!   without sorting the active domain on every call;
//! * the interner is a third kind of shard.
//!
//! # Append-only growth
//!
//! A configuration only grows along an access path (Section 2 of the
//! paper), and the store has no removal API. An insert appends one row to
//! its relation, and no row ever leaves: each keeps its index and contents
//! for the lifetime of the store. Hence [`FactStore::rows_since`] returns
//! exactly the rows inserted after a given row count, posting lists ascend
//! by row, and [`FactStore::posting_rows`] and [`FactStore::matching`]
//! return rows in insertion order without sorting. So what a store gained
//! since some point is a suffix of each relation's rows and of the active
//! domain's entry log: a [`GrowthCursor`] marks where, and its advance
//! returns that [`Growth`].
//! The access frontier, the semi-naive certainty refresh and verdict
//! invalidation ([`ReadSet::touched_by`]) each hold their own cursor, and
//! the verdict cache's fact-count version stamps rely on the same
//! property. Hypothetical facts (a truncated path's responses, a witness's
//! later facts) never enter a store: the decision procedures evaluate them
//! as an overlay on top of it.
//!
//! # Copy-on-write semantics
//!
//! Every shard is kept in two levels: a *base* that every clone shares and
//! a *tail* behind its own `Arc` (the `layered` module). Cloning a
//! `FactStore` (and therefore a [`crate::Configuration`]) is
//! **O(relations)**: it bumps two `Arc`s per relation shard, the active
//! domain and the interner. An insert appends to a shard's base while no
//! other handle holds it and its tail is empty, and to its tail otherwise;
//! a write copies only a tail that another handle shares. Every read sees
//! the base, then the tail, and row indices, value ids and the entry log
//! stay global and dense, so a [`Suffix`] of a log may span both levels.
//! So the first write into a snapshot of a million-fact configuration
//! copies nothing: a run pays for what its responses add, never for the
//! configuration it starts from. Read-only snapshots never copy anything
//! either.
//!
//! Every actual shard copy is counted in [`FactStore::shard_copies`] (the
//! counter is inherited by clones, so a run's copies are the difference of
//! two readings): only a handle that writes a tail another handle shares
//! (a snapshot taken after growth, then grown on both sides) pays one.
//! Which bases two handles share is observable through
//! [`FactStore::shares_relation_base`] / [`FactStore::shares_adom_base`] /
//! [`FactStore::shares_interner_base`], which the oracle-grid tests in
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
//! * interning values that are already known never writes the interner
//!   shard; inserting a fact that is already present never writes any
//!   shard;
//! * a clone diverges from its origin exactly as a naive deep copy would:
//!   after any interleaving of inserts on any tree of clones, each handle's
//!   facts, indexes, active domain and interner equal those of an
//!   independently rebuilt store.

use std::collections::{BTreeMap, HashMap, HashSet};
use std::fmt;
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::{Arc, Mutex, OnceLock};

use crate::domain::DomainId;
use crate::error::SchemaError;
use crate::intern::{ValueId, ValueInterner};
use crate::layered::{Layered, Level, Suffix};
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

/// Columnar storage for one level of a relation's shard: interned columns,
/// materialised tuples, row membership and per-attribute indexes. Row
/// numbers are the level's own; the tail's rows follow the base's.
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

    /// The rows carrying `id` at position `pos`.
    fn postings(&self, pos: usize, id: ValueId) -> &[usize] {
        self.indexes[pos].get(&id).map_or(&[], Vec::as_slice)
    }
}

impl Level for RelationShard {
    fn is_empty(&self) -> bool {
        self.tuples.is_empty()
    }

    fn successor(&self) -> Self {
        Self::with_arity(self.columns.len())
    }
}

/// A relation's rows across both levels of its shard.
impl Layered<RelationShard> {
    fn len(&self) -> usize {
        self.base().len() + self.tail().len()
    }

    fn arity(&self) -> usize {
        self.base().columns.len()
    }

    fn contains_key(&self, key: &[ValueId]) -> bool {
        self.base().keys.contains(key) || self.tail().keys.contains(key)
    }

    /// The tuples of rows `from..`.
    fn rows(&self, from: usize) -> Suffix<'_, Tuple> {
        Suffix::of(&self.base().tuples, &self.tail().tuples, from)
    }

    /// Column `c` of rows `from..`.
    fn column(&self, c: usize, from: usize) -> Suffix<'_, ValueId> {
        Suffix::of(&self.base().columns[c], &self.tail().columns[c], from)
    }

    /// How many rows carry `id` at position `pos`.
    fn posting_count(&self, pos: usize, id: ValueId) -> usize {
        self.base().postings(pos, id).len() + self.tail().postings(pos, id).len()
    }

    /// Every row from global row `from` on, in row order.
    fn rows_from(&self, from: usize) -> Rows<'_> {
        let (base, tail) = (self.base(), self.tail());
        Rows::of(
            (base, LevelRows::All(from.min(base.len())..base.len())),
            (
                tail,
                LevelRows::All(from.saturating_sub(base.len())..tail.len()),
            ),
        )
    }
}

/// One stored row of a relation, as a [`Rows`] cursor yields it: its value
/// ids by position, read from the columns, and its tuple.
#[derive(Clone, Copy, Debug)]
pub struct Row<'s> {
    shard: &'s RelationShard,
    row: usize,
}

impl<'s> Row<'s> {
    /// The relation's arity.
    pub fn arity(&self) -> usize {
        self.shard.columns.len()
    }

    /// The id at `pos`.
    ///
    /// # Panics
    /// If `pos` is not below [`Row::arity`].
    pub fn id(&self, pos: usize) -> ValueId {
        self.shard.columns[pos][self.row]
    }

    /// The row's tuple.
    pub fn tuple(&self) -> &'s Tuple {
        &self.shard.tuples[self.row]
    }
}

/// A lazy walk over some rows of one relation, in row order: the base's,
/// then the tail's. [`FactStore::posting_rows`] and [`Growth::row_ids`]
/// return one.
#[derive(Clone, Debug)]
pub struct Rows<'s> {
    /// The level being walked, and its rows still to walk.
    shard: &'s RelationShard,
    rows: LevelRows<'s>,
    /// The tail's, while the walk is in the base.
    tail: Option<(&'s RelationShard, LevelRows<'s>)>,
}

/// The level a walk of no rows stands in.
static NO_ROWS: RelationShard = RelationShard {
    columns: Vec::new(),
    tuples: Vec::new(),
    keys: HashSet::with_hasher(IdBuildHasher::new()),
    indexes: Vec::new(),
};

/// The rows of one level a [`Rows`] walks.
#[derive(Clone, Debug)]
enum LevelRows<'s> {
    /// A range of the level's rows.
    All(std::ops::Range<usize>),
    /// The level's rows on one posting list.
    Posting(std::slice::Iter<'s, usize>),
}

impl LevelRows<'_> {
    fn next(&mut self) -> Option<usize> {
        match self {
            LevelRows::All(range) => range.next(),
            LevelRows::Posting(list) => list.next().copied(),
        }
    }

    fn len(&self) -> usize {
        match self {
            LevelRows::All(range) => range.len(),
            LevelRows::Posting(list) => list.len(),
        }
    }
}

impl Default for Rows<'_> {
    /// The walk of no rows.
    fn default() -> Self {
        Self {
            shard: &NO_ROWS,
            rows: LevelRows::All(0..0),
            tail: None,
        }
    }
}

impl<'s> Rows<'s> {
    /// Walks `base`'s rows, then `tail`'s.
    fn of(
        base: (&'s RelationShard, LevelRows<'s>),
        tail: (&'s RelationShard, LevelRows<'s>),
    ) -> Self {
        Self {
            shard: base.0,
            rows: base.1,
            tail: Some(tail),
        }
    }
}

impl<'s> Iterator for Rows<'s> {
    type Item = Row<'s>;

    fn next(&mut self) -> Option<Row<'s>> {
        loop {
            if let Some(row) = self.rows.next() {
                return Some(Row {
                    shard: self.shard,
                    row,
                });
            }
            (self.shard, self.rows) = self.tail.take()?;
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let len = self.rows.len() + self.tail.as_ref().map_or(0, |(_, rows)| rows.len());
        (len, Some(len))
    }
}

impl ExactSizeIterator for Rows<'_> {}

/// One level of the active domain: the `(value, domain)` pairs that entered
/// it with the level's rows (a tail holds none of the base's), as a set
/// and, beside it, in entry order. Rows never leave, so pairs never do.
/// Each domain's ids are also kept in value order, built on first demand
/// and dropped when the level grows: a base that clones share is sorted
/// once for all of them, and a tail re-sorts only its own entries.
#[derive(Clone, Debug, Default)]
struct AdomCache {
    members: HashSet<(ValueId, DomainId), IdBuildHasher>,
    entered: Vec<(ValueId, DomainId)>,
    /// Per domain index: the level's ids of that domain, in value order.
    order: OnceLock<Vec<Vec<ValueId>>>,
}

impl AdomCache {
    /// The level's ids of `domain` in value order, resolved through
    /// `interner`; the first call since the level last grew sorts them.
    fn ordered(&self, domain: DomainId, interner: &ValueInterner) -> &[ValueId] {
        let order = self.order.get_or_init(|| {
            let mut order: Vec<Vec<ValueId>> = Vec::new();
            for &(id, d) in &self.entered {
                if order.len() <= d.index() {
                    order.resize_with(d.index() + 1, Vec::new);
                }
                order[d.index()].push(id);
            }
            for ids in &mut order {
                ids.sort_unstable_by(|&a, &b| interner.resolve(a).cmp(interner.resolve(b)));
            }
            order
        });
        order.get(domain.index()).map_or(&[], Vec::as_slice)
    }
}

impl Level for AdomCache {
    fn is_empty(&self) -> bool {
        self.entered.is_empty()
    }

    fn successor(&self) -> Self {
        Self::default()
    }
}

/// The active domain across both levels of its shard.
impl Layered<AdomCache> {
    fn len(&self) -> usize {
        self.base().entered.len() + self.tail().entered.len()
    }

    fn contains(&self, pair: &(ValueId, DomainId)) -> bool {
        self.base().members.contains(pair) || self.tail().members.contains(pair)
    }

    /// Adds `pair` unless present, so a row whose pairs are all known
    /// leaves the shard as it was.
    fn insert(&mut self, pair: (ValueId, DomainId), copies: &mut u64) {
        if !self.contains(&pair) {
            let level = self.append_level(copies);
            level.members.insert(pair);
            level.entered.push(pair);
            level.order.take();
        }
    }

    /// The pairs from position `from` of the entry log on.
    fn entered(&self, from: usize) -> Suffix<'_, (ValueId, DomainId)> {
        Suffix::of(&self.base().entered, &self.tail().entered, from)
    }

    /// `domain`'s ids as two runs in value order: the base's, then the
    /// tail's.
    fn ordered<'s>(&'s self, domain: DomainId, interner: &ValueInterner) -> [&'s [ValueId]; 2] {
        [
            self.base().ordered(domain, interner),
            self.tail().ordered(domain, interner),
        ]
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
    /// A full scan of one relation (unconstrained `posting_rows`,
    /// `tuples`, `relation_len`).
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
/// [`FactStore::posting_bound`], which records nothing. That choice
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
            adom: store.adom.len(),
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
        let adom = std::mem::replace(&mut self.adom, store.adom.len());
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
    pub fn relations(&self) -> impl Iterator<Item = (RelationId, Suffix<'s, Tuple>)> + '_ {
        let store = self.store;
        self.from
            .iter()
            .map(move |&(r, from)| (r, store.relations[r.index()].rows(from)))
    }

    /// The rows appended to `relation`, in row order.
    pub fn rows(&self, relation: RelationId) -> Suffix<'s, Tuple> {
        self.relations()
            .find(|&(r, _)| r == relation)
            .map_or_else(Suffix::default, |(_, rows)| rows)
    }

    /// The `(value, domain)` pairs that entered the active domain, in entry
    /// order; the ids resolve against [`Growth::interner`].
    pub fn entered(&self) -> Suffix<'s, (ValueId, DomainId)> {
        self.store.adom.entered(self.adom)
    }

    /// The rows appended to `relation`, with their ids, in row order.
    pub fn row_ids(&self, relation: RelationId) -> Rows<'s> {
        let store = self.store;
        self.from
            .iter()
            .find(|&&(r, _)| r == relation)
            .map_or_else(Rows::default, |&(r, from)| {
                store.relations[r.index()].rows_from(from)
            })
    }

    /// The store's interner.
    pub fn interner(&self) -> &'s ValueInterner {
        &self.store.interner
    }

    /// Whether a row appended to `relation` carries `id` at any position.
    fn carries(&self, relation: RelationId, id: ValueId) -> bool {
        self.from.iter().any(|&(r, from)| {
            let shard = &self.store.relations[r.index()];
            r == relation
                && (0..shard.arity()).any(|c| shard.column(c, from).iter().any(|&x| x == id))
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
    interner: ValueInterner,
    relations: Vec<Layered<RelationShard>>,
    adom: Layered<AdomCache>,
    len: usize,
    /// Cumulative count of shard tails this handle copied because another
    /// handle shared them (inherited by clones; diff two readings to scope
    /// a run).
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
    /// O(relations): bumps two `Arc`s per shard. The clone inherits the
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
            .map(|r| Layered::new(RelationShard::with_arity(r.arity())))
            .collect();
        Self {
            schema,
            interner: ValueInterner::new(),
            relations,
            adom: Layered::new(AdomCache::default()),
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
        &self.interner
    }

    /// How many shard copies this handle has performed so far (the
    /// copy-on-write cost actually paid). Clones inherit the counter, so
    /// the copies attributable to a run are
    /// `after.shard_copies() - before.shard_copies()` on the same handle
    /// lineage. A copy happens only when this handle writes a shard tail
    /// that another handle shares, so the first write into a snapshot
    /// copies nothing, and read-only handles never advance the counter.
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

    /// Detaches every shard level this handle still shares with other
    /// clones — relation shards, the adom cache and the interner, base and
    /// tail — so the handle exclusively owns its storage. Cost is one deep
    /// copy of whatever was still shared (bounded by the current fact
    /// count), paid now; an explicit detach is not a copy-on-write
    /// divergence, so [`FactStore::shard_copies`] does not advance. The
    /// engine does not call it: a run's first write into a snapshot copies
    /// nothing. It stays only because the benchmark package's traced replay
    /// calls it (ROADMAP direction 4.2).
    pub fn own_all_shards(&mut self) {
        for shard in &mut self.relations {
            shard.own();
        }
        self.adom.own();
        self.interner.own();
    }

    /// Whether `self` and `other` still share the base of `relation`'s
    /// shard: the rows they both read first.
    pub fn shares_relation_base(&self, other: &FactStore, relation: RelationId) -> bool {
        match (
            self.relations.get(relation.index()),
            other.relations.get(relation.index()),
        ) {
            (Some(a), Some(b)) => a.shares_base(b),
            _ => false,
        }
    }

    /// Whether `self` and `other` still share the active domain's base.
    pub fn shares_adom_base(&self, other: &FactStore) -> bool {
        self.adom.shares_base(&other.adom)
    }

    /// Whether `self` and `other` still share the interner's base.
    pub fn shares_interner_base(&self, other: &FactStore) -> bool {
        self.interner.shares_base(&other.interner)
    }

    /// Interns `v`; only a new value writes the interner.
    fn intern_value(&mut self, v: &Value) -> ValueId {
        self.interner.intern_counting(v, &mut self.shard_copies)
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
        if self.relations[relation.index()].contains_key(&key) {
            return Ok(false);
        }
        let rel = self.schema.relation(relation)?;
        for (c, &id) in key.iter().enumerate() {
            self.adom
                .insert((id, rel.domain_at(c)), &mut self.shard_copies);
        }
        self.relations[relation.index()]
            .append_level(&mut self.shard_copies)
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
        if t.arity() != shard.arity() {
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
        shard.contains_key(&key)
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
            .flat_map(|s| s.rows(0))
    }

    /// The tuples of one relation in rows `from..`, in row order (empty when
    /// `from` is past the last row): exactly the rows inserted after the
    /// relation's first `from` rows, since rows are only ever appended.
    /// They may lie in the shard's base, its tail or both.
    pub fn rows_since(&self, relation: RelationId, from: usize) -> Suffix<'_, Tuple> {
        self.rec(|rs| rs.insert(Read::Relation(relation)));
        self.relations
            .get(relation.index())
            .map_or_else(Suffix::default, |s| s.rows(from))
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
                .rows(0)
                .into_iter()
                .map(move |t| (RelationId(i as u32), t.clone()))
        })
    }

    /// The tuples of `relation` whose projection onto `positions` equals
    /// `binding` — the paper's `I(Bind, S)`, in row (insertion) order.
    /// Index-backed: it walks the rows [`FactStore::posting_rows`] selects
    /// for the binding's ids (the shortest posting list among them) and
    /// records the read that probe records. A binding value the interner
    /// lacks gets an id past its range, as in a join, and matches nothing.
    pub fn matching(
        &self,
        relation: RelationId,
        positions: &[usize],
        binding: &[Value],
    ) -> Vec<Tuple> {
        if positions.len() != binding.len() {
            return Vec::new();
        }
        let known = self.interner.len();
        let ids: Vec<(usize, ValueId)> = (positions.iter().zip(binding).enumerate())
            .map(|(k, (&pos, v))| {
                let id = self.interner.lookup(v);
                (pos, id.unwrap_or(ValueId((known + k) as u32)))
            })
            .collect();
        let rows = self.posting_rows(relation, ids.iter().copied(), |id| {
            &binding[id.index() - known]
        });
        rows.filter(|row| ids.iter().all(|&(pos, id)| row.id(pos) == id))
            .map(|row| row.tuple().clone())
            .collect()
    }

    /// The rows of `relation` a join walks for an atom whose determined
    /// positions hold the `(position, id)` constraints, in row order: every
    /// row when there is no constraint, else the rows on the shortest
    /// posting list among them, its length summed over the shard's two
    /// levels. Those rows meet that list's constraint; the caller checks
    /// the others, as a join's unification does anyway.
    ///
    /// An id at or past the interner's length stands for a value the store
    /// has never interned (a join gives such a value an id of its own, see
    /// `accrel_query::eval`), and `unknown` names it. No row carries it, so
    /// the walk is empty. The probe records its read when it is made, in
    /// term order: [`Read::UnknownValue`] for the first constraint the store
    /// lacks (resolved by a later insert that interns the value, so a
    /// join-local id never enters a read set), else [`Read::Pair`] with the
    /// first constraint's id (a row changing this probe's answer must carry
    /// every constraint value, so any one is a sound trigger), else
    /// [`Read::Relation`]. An unknown relation, or a constraint at or past
    /// the arity, selects nothing and records nothing. Allocation-free.
    pub fn posting_rows<'v, I>(
        &self,
        relation: RelationId,
        constraints: I,
        unknown: impl Fn(ValueId) -> &'v Value,
    ) -> Rows<'_>
    where
        I: IntoIterator<Item = (usize, ValueId)>,
        I::IntoIter: Clone,
    {
        let Some(shard) = self.relations.get(relation.index()) else {
            return Rows::default();
        };
        let constraints = constraints.into_iter();
        let mut first = None;
        for (pos, id) in constraints.clone() {
            if pos >= shard.arity() {
                return Rows::default();
            }
            if id.index() >= self.interner.len() {
                // The value may be interned by a later insert; keep the
                // probe symbolic so such an insert re-triggers it.
                self.rec(|rs| rs.insert(Read::UnknownValue(relation, unknown(id).clone())));
                return Rows::default();
            }
            first.get_or_insert(id);
        }
        let Some(first) = first else {
            self.rec(|rs| rs.insert(Read::Relation(relation)));
            return shard.rows_from(0);
        };
        self.rec(|rs| rs.insert(Read::Pair(relation, first)));
        let (base, tail) = (shard.base(), shard.tail());
        let mut best: Option<[&[usize]; 2]> = None;
        for (pos, id) in constraints {
            let lists = [base.postings(pos, id), tail.postings(pos, id)];
            let len = lists[0].len() + lists[1].len();
            if len == 0 {
                return Rows::default();
            }
            if best.is_none_or(|b| len < b[0].len() + b[1].len()) {
                best = Some(lists);
            }
        }
        let [base_rows, tail_rows] = best.expect("at least one constraint");
        debug_assert!(
            base_rows.is_sorted() && tail_rows.is_sorted(),
            "posting lists ascend by row"
        );
        Rows::of(
            (base, LevelRows::Posting(base_rows.iter())),
            (tail, LevelRows::Posting(tail_rows.iter())),
        )
    }

    /// How many rows [`FactStore::posting_rows`] walks for the same
    /// relation and constraints: the length of the shortest posting list
    /// among the constraints (the relation's length when there are none, 0
    /// when one can never match, as a value the store lacks cannot). Never
    /// recorded, even under an installed read recorder: the joins call it
    /// only to choose which atom to branch on, and what a join concludes
    /// depends only on the candidate lists it then draws, which
    /// `posting_rows` records (see [`ReadSet`]). Allocation-free.
    pub fn posting_bound(
        &self,
        relation: RelationId,
        constraints: impl IntoIterator<Item = (usize, ValueId)>,
    ) -> usize {
        let Some(shard) = self.relations.get(relation.index()) else {
            return 0;
        };
        let mut bound = shard.len();
        for (pos, id) in constraints {
            let postings = if pos < shard.arity() {
                shard.posting_count(pos, id)
            } else {
                0
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
            // A shared base holds the same rows on both sides.
            let rows = match other.relations.get(i) {
                Some(o) if shard.shares_base(o) => shard.rows(shard.base().len()),
                _ => shard.rows(0),
            };
            rows.iter().all(|t| other.contains(RelationId(i as u32), t))
        })
    }

    /// Adds every fact of `other` into `self`.
    pub fn extend_from(&mut self, other: &FactStore) {
        for (i, shard) in other.relations.iter().enumerate() {
            let rel = RelationId(i as u32);
            let Some(own) = self.relations.get(i) else {
                break;
            };
            // A shared base's rows are already present.
            let from = if own.shares_base(shard) {
                shard.base().len()
            } else {
                0
            };
            for t in shard.rows(from) {
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
    /// touched relation's shard tail is copied at most once (and not at all
    /// when every grouped row is a duplicate). This is the seeding path for
    /// the 10⁴–10⁶-fact configurations of the E5 / federation sweeps.
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
            // Rows already stored write nothing, so a fully-duplicate batch
            // leaves the shard as it was.
            let stored = &self.relations[i];
            rows.retain(|(key, _)| !stored.contains_key(key));
            if rows.is_empty() {
                continue;
            }
            let rel = schema
                .relation(RelationId(i as u32))
                .expect("relation validated above");
            let shard = self.relations[i].append_level(&mut self.shard_copies);
            shard.keys.reserve(rows.len());
            shard.tuples.reserve(rows.len());
            for column in &mut shard.columns {
                column.reserve(rows.len());
            }
            for (key, t) in rows.drain(..) {
                // A batch may repeat a row; this level holds every row the
                // batch added before it.
                if shard.keys.contains(&key) {
                    continue;
                }
                // One insert per pair: each new pair is logged in entry
                // order.
                for (c, &id) in key.iter().enumerate() {
                    self.adom
                        .insert((id, rel.domain_at(c)), &mut self.shard_copies);
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
            .entered(0)
            .iter()
            .map(|&(id, d)| (self.interner.resolve(id).clone(), d))
            .collect()
    }

    /// The active-domain value ids of `domain` in value order, never
    /// recorded, as two sorted runs that share no id: the shard base's and
    /// the tail's. Each level sorts its ids of every domain on the first
    /// call after it last grew, so a base that clones share is sorted once
    /// for all of them. For the walk sites that record what they consulted
    /// themselves: the valuation walk of the witness searches and the
    /// accessible-value pool of the producibility planner.
    pub fn domain_order_untracked(&self, domain: DomainId) -> [&[ValueId]; 2] {
        self.adom.ordered(domain, &self.interner)
    }

    /// Number of distinct `(value, domain)` pairs in the active domain.
    pub fn active_domain_len(&self) -> usize {
        self.rec(|rs| rs.insert(Read::Adom));
        self.adom.len()
    }

    /// Is `(value, domain)` in the active domain? A pair of hash probes.
    pub fn adom_contains(&self, value: &Value, domain: DomainId) -> bool {
        match self.interner.lookup(value) {
            Some(id) => {
                self.rec(|rs| rs.insert(Read::AdomPair(id, domain)));
                self.adom.contains(&(id, domain))
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
        let runs = self.domain_order_untracked(domain).into_iter().flatten();
        let mut vals: Vec<Value> = runs.map(|&id| self.interner.resolve(id).clone()).collect();
        // Two sorted runs: the sort merges them in one pass.
        vals.sort();
        vals
    }

    /// All values appearing anywhere in the store (regardless of domain),
    /// sorted and deduplicated.
    pub fn all_values(&self) -> Vec<Value> {
        self.rec(|rs| rs.insert(Read::Adom));
        let ids: HashSet<ValueId> = self.adom.entered(0).iter().map(|&(id, _)| id).collect();
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
    fn posting_rows_power_partial_scans() {
        let schema = small_schema();
        let r = schema.relation_by_name("R").unwrap();
        let mut store = FactStore::new(schema);
        store.insert(r, tuple(["a", "1"])).unwrap();
        store.insert(r, tuple(["a", "2"])).unwrap();
        store.insert(r, tuple(["b", "1"])).unwrap();
        let id = |v: &str| store.interner().lookup(&Value::sym(v)).unwrap();
        let (a, one) = (id("a"), id("1"));
        // The id a join gives a value the store lacks, and that value.
        let past = ValueId(store.interner().len() as u32);
        let ghost = Value::sym("ghost");
        let unknown = |_: ValueId| &ghost;
        fn tuples<'s>(rows: impl Iterator<Item = Row<'s>>) -> Vec<Tuple> {
            rows.map(|row| row.tuple().clone()).collect()
        }
        assert_eq!(store.posting_rows(r, [], unknown).len(), 3);
        let on_a = tuples(store.posting_rows(r, [(0, a)], unknown));
        assert_eq!(on_a, [tuple(["a", "1"]), tuple(["a", "2"])]);
        // Two constraints walk the shortest list, the first one's on a tie;
        // the caller checks the other.
        let both = store.posting_rows(r, [(1, one), (0, a)], unknown);
        assert_eq!(tuples(both.clone()), [tuple(["a", "1"]), tuple(["b", "1"])]);
        let hits = both.filter(|row| row.id(0) == a && row.id(1) == one);
        assert_eq!(tuples(hits), [tuple(["a", "1"])]);
        assert_eq!(store.posting_rows(r, [(0, past)], unknown).len(), 0);
        assert_eq!(store.posting_rows(r, [(9, a)], unknown).len(), 0);
        assert_eq!(store.posting_rows(RelationId(7), [], unknown).len(), 0);

        // The cursor records its read when it is made: one dropped after its
        // first row, or never advanced, records what a drained one does.
        let mut reads = |walk: &dyn Fn(Rows)| {
            store.begin_read_tracking_with(AdomPrecision::Precise);
            walk(store.posting_rows(r, [(1, one)], unknown));
            walk(store.posting_rows(r, [], unknown));
            walk(store.posting_rows(r, [(0, past)], unknown));
            store.take_read_set()
        };
        let drained = reads(&|c| assert!(c.count() <= 3));
        let want = [
            Read::Relation(r),
            Read::Pair(r, one),
            Read::UnknownValue(r, ghost.clone()),
        ];
        assert_eq!(
            drained.iter().collect::<Vec<_>>(),
            want.iter().collect::<Vec<_>>()
        );
        assert_eq!(
            reads(&|mut c| {
                c.next();
            }),
            drained
        );
        assert_eq!(reads(&|_| {}), drained);

        // Posting bounds: the shortest posting list, never below the rows
        // walked, and never recorded.
        store.begin_read_tracking_with(AdomPrecision::Precise);
        assert_eq!(store.posting_bound(r, []), 3);
        assert_eq!(store.posting_bound(r, [(0, a)]), 2);
        assert_eq!(store.posting_bound(r, [(0, a), (1, one)]), 2);
        assert_eq!(store.posting_bound(r, [(1, one), (0, a)]), 2);
        assert_eq!(store.posting_bound(r, [(0, past)]), 0);
        assert_eq!(store.posting_bound(r, [(9, a)]), 0);
        assert_eq!(store.posting_bound(RelationId(7), []), 0);
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
    fn a_growing_clone_shares_every_base_and_copies_only_shared_tails() {
        let schema = small_schema();
        let r = schema.relation_by_name("R").unwrap();
        let s = schema.relation_by_name("S").unwrap();
        let mut store = FactStore::new(schema);
        store.insert(r, tuple(["a", "1"])).unwrap();
        store.insert_named("S", ["z"]).unwrap();
        let base_copies = store.shard_copies();
        let mut clone = store.clone();
        // The clone's first write (a new row of R with two new values)
        // starts tails of its own: every base stays shared, nothing is
        // copied.
        clone.insert(r, tuple(["new", "9"])).unwrap();
        assert!(store.shares_relation_base(&clone, r));
        assert!(store.shares_relation_base(&clone, s));
        assert!(store.shares_adom_base(&clone));
        assert!(store.shares_interner_base(&clone));
        assert_eq!(clone.shard_copies(), base_copies);
        assert_eq!(store.shard_copies(), base_copies);
        assert!(!store.contains(r, &tuple(["new", "9"])));
        assert!(clone.contains(r, &tuple(["new", "9"])));
        assert_eq!(store.interner().len() + 2, clone.interner().len());
        // A snapshot of the grown clone shares its tails too; the clone's
        // next growing write copies the tails it writes (R, the adom and
        // the interner for a new value), and S's tail stays empty.
        let snap = clone.clone();
        clone.insert(r, tuple(["newer", "9"])).unwrap();
        assert_eq!(clone.shard_copies(), base_copies + 3);
        assert!(!snap.contains(r, &tuple(["newer", "9"])));
        assert_eq!(snap.relation_len(r), 2);
        // Its tails are its own now: further writes copy nothing.
        clone.insert(s, tuple(["9"])).unwrap();
        clone.insert(r, tuple(["newest", "9"])).unwrap();
        assert_eq!(clone.shard_copies(), base_copies + 3);
    }

    #[test]
    fn duplicate_insert_and_known_values_do_not_copy_shards() {
        let schema = small_schema();
        let r = schema.relation_by_name("R").unwrap();
        let mut store = FactStore::new(schema);
        store.insert(r, tuple(["a", "1"])).unwrap();
        let mut clone = store.clone();
        clone.insert(r, tuple(["b", "2"])).unwrap();
        // Every tail of the clone holds entries and is shared with `snap`.
        let snap = clone.clone();
        let copies = clone.shard_copies();
        // Re-inserting a row of the base or of the tail writes nothing.
        assert!(!clone.insert(r, tuple(["a", "1"])).unwrap());
        assert!(!clone.insert(r, tuple(["b", "2"])).unwrap());
        assert_eq!(clone.shard_copies(), copies);
        // A new row of known values whose pairs are all in the active
        // domain copies R's tail, but neither the adom's nor the
        // interner's.
        assert!(clone.insert(r, tuple(["b", "1"])).unwrap());
        assert_eq!(clone.shard_copies(), copies + 1);
        assert!(clone.insert(r, tuple(["a", "2"])).unwrap());
        assert_eq!(clone.shard_copies(), copies + 1);
        assert_eq!(snap.relation_len(r), 2);
        assert_eq!(snap.interner().len(), clone.interner().len());
    }

    #[test]
    fn fully_duplicate_bulk_load_keeps_shards_shared() {
        let schema = small_schema();
        let r = schema.relation_by_name("R").unwrap();
        let mut store = FactStore::new(schema);
        store.insert(r, tuple(["a", "1"])).unwrap();
        let mut clone = store.clone();
        clone.insert(r, tuple(["b", "2"])).unwrap();
        let snap = clone.clone();
        let copies = clone.shard_copies();
        let inserted = clone
            .extend_facts(vec![(r, tuple(["a", "1"])), (r, tuple(["b", "2"]))])
            .unwrap();
        assert_eq!(inserted, 0);
        assert_eq!(clone.shard_copies(), copies);
        // A batch that repeats a new row adds it once, to the tail.
        let batch = vec![(r, tuple(["c", "3"])), (r, tuple(["c", "3"]))];
        assert_eq!(clone.extend_facts(batch).unwrap(), 1);
        assert_eq!(clone.relation_len(r), 3);
        assert_eq!(snap.relation_len(r), 2);
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
