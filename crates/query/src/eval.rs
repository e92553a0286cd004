//! Query evaluation by homomorphism search.
//!
//! Evaluation of a conjunctive query over a fact store is a backtracking
//! join. At each node it branches on the most constrained atom still
//! unmatched: the one with the fewest candidate tuples under the current
//! partial valuation, ties broken in query order (the minimum-remaining-
//! values rule of constraint search). A join that starts from a small
//! relation, or that meets an atom no tuple can match, then stops early
//! instead of walking a large relation first. This is the textbook NP
//! procedure; data complexity is polynomial (AC0) for a fixed query, which
//! experiment E5 of the benchmark harness demonstrates empirically.
//!
//! # One kernel over value ids
//!
//! Every join here, the semi-naive certainty step, immediate relevance's
//! witness search and independent long-term relevance's walk run one
//! kernel, [`Join`], and it binds interned [`ValueId`]s, not [`Value`]s.
//! It resolves the partial valuation
//! and the overlay facts through the store's interner at entry, and an
//! atom's constants when it first looks at the atom, each once; a value
//! the store has never interned gets a *join-local* id past the interner's
//! range, the same one wherever the join meets the value. It keeps one id slot per variable, set and cleared
//! in place as it backtracks, reads candidate counts, posting lists and
//! rows from the store by id ([`FactStore::posting_bound`],
//! [`FactStore::posting_rows`]), and builds a [`Valuation`] only for a match
//! it hands out. A node therefore hashes no value and allocates nothing.
//!
//! The positions of an atom already determined by the bindings (constants
//! and bound variables) become index constraints, so joins probe posting
//! lists instead of scanning whole relations. The counts that order the
//! branches come from the same posting lists, and record no read. That is
//! sound for read-set invalidation: a refutation depends only on the
//! candidate lists of the atoms it branched on, and drawing them records
//! them (see [`accrel_schema::ReadSet`]). The lists are lazy cursors that
//! record their read when they are made, so a node that finds its match
//! stops walking the list without recording less.
//!
//! **The read rule.** A candidate list records exactly one read, in term
//! order over the atom's determined positions: [`Read::UnknownValue`] with
//! the *value* of the first join-local id (the store lacks it, and the
//! read resolves against the interner when growth is checked), else
//! [`Read::Pair`] with the first position's id, else [`Read::Relation`]
//! when nothing is determined. So a join-local id never enters a read set,
//! where it would name no stored value and could later collide with a
//! real id. [`FactStore::matching`], the one value-level probe (the
//! paper's `I(Bind, S)` behind every source call), resolves its binding
//! the same way and records the same read.
//!
//! The `_with_extra` variants evaluate over a store *plus* a small slice of
//! pending facts without materialising the union — the relevance witness
//! searches use them to test "would the query hold after these accesses"
//! once per candidate valuation, where cloning the configuration would
//! dominate the running time.
//!
//! [`Read::UnknownValue`]: accrel_schema::Read::UnknownValue
//! [`Read::Pair`]: accrel_schema::Read::Pair
//! [`Read::Relation`]: accrel_schema::Read::Relation

use std::collections::HashMap;
use std::ops::Range;

use accrel_schema::{FactStore, RelationId, Row, Rows, Tuple, Value, ValueId};

use crate::atom::{Atom, Term, VarId};
use crate::cq::ConjunctiveQuery;
use crate::pq::PositiveQuery;

/// A (partial) assignment of query variables to values.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Valuation {
    map: HashMap<VarId, Value>,
}

impl Valuation {
    /// The empty valuation.
    pub fn new() -> Self {
        Self::default()
    }

    /// Builds a valuation from pairs.
    pub fn from_pairs<I: IntoIterator<Item = (VarId, Value)>>(pairs: I) -> Self {
        Self {
            map: pairs.into_iter().collect(),
        }
    }

    /// Looks a variable up.
    pub fn get(&self, v: VarId) -> Option<&Value> {
        self.map.get(&v)
    }

    /// Binds a variable (overwriting any previous binding).
    pub fn bind(&mut self, v: VarId, value: Value) {
        self.map.insert(v, value);
    }

    /// Whether the variable is bound.
    pub fn is_bound(&self, v: VarId) -> bool {
        self.map.contains_key(&v)
    }

    /// Number of bound variables.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether no variable is bound.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Iterates over the bindings.
    pub fn iter(&self) -> impl Iterator<Item = (&VarId, &Value)> {
        self.map.iter()
    }

    /// Exposes the underlying map (e.g. for [`Atom::substitute`]).
    pub fn as_map(&self) -> &HashMap<VarId, Value> {
        &self.map
    }

    /// Consumes the valuation into its map.
    pub fn into_map(self) -> HashMap<VarId, Value> {
        self.map
    }

    /// The image of a term under the valuation, if determined.
    pub fn apply(&self, term: &Term) -> Option<Value> {
        match term {
            Term::Const(c) => Some(c.clone()),
            Term::Var(v) => self.map.get(v).cloned(),
        }
    }

    /// The tuple of values assigned to `vars`, if all are bound.
    pub fn project(&self, vars: &[VarId]) -> Option<Tuple> {
        let mut out = Vec::with_capacity(vars.len());
        for v in vars {
            out.push(self.map.get(v)?.clone());
        }
        Some(Tuple::new(out))
    }

    /// Attempts to extend the valuation so that `atom` maps onto `tuple`.
    /// Returns the extended valuation, or `None` on mismatch.
    pub fn unify_atom(&self, atom: &Atom, tuple: &Tuple) -> Option<Valuation> {
        if atom.arity() != tuple.arity() {
            return None;
        }
        let mut next = self.clone();
        for (term, value) in atom.terms().iter().zip(tuple.iter()) {
            match term {
                Term::Const(c) => {
                    if c != value {
                        return None;
                    }
                }
                Term::Var(v) => match next.map.get(v) {
                    Some(existing) if existing != value => return None,
                    Some(_) => {}
                    None => {
                        next.map.insert(*v, value.clone());
                    }
                },
            }
        }
        Some(next)
    }
}

impl FromIterator<(VarId, Value)> for Valuation {
    fn from_iter<T: IntoIterator<Item = (VarId, Value)>>(iter: T) -> Self {
        Valuation::from_pairs(iter)
    }
}

/// A set of atom indexes, one bit per atom, held inline for the first 64:
/// a join over a query of up to 64 atoms tracks its atoms without
/// allocating.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct AtomSet {
    low: u64,
    high: Vec<u64>,
}

impl AtomSet {
    /// The set of every index below `n`.
    pub fn below(n: usize) -> Self {
        let ones = |bits: usize| {
            if bits >= 64 {
                u64::MAX
            } else {
                (1 << bits) - 1
            }
        };
        let rest = n.saturating_sub(64);
        Self {
            low: ones(n),
            high: (0..rest.div_ceil(64))
                .map(|w| ones(rest - 64 * w))
                .collect(),
        }
    }

    /// Whether the set holds no index.
    pub fn is_empty(&self) -> bool {
        self.low == 0 && self.high.iter().all(|&w| w == 0)
    }

    /// Whether `i` is in the set.
    pub fn contains(&self, i: usize) -> bool {
        match i.checked_sub(64) {
            None => self.low >> i & 1 == 1,
            Some(j) => self
                .high
                .get(j / 64)
                .is_some_and(|w| w >> (j % 64) & 1 == 1),
        }
    }

    /// Adds `i`.
    pub fn insert(&mut self, i: usize) {
        match i.checked_sub(64) {
            None => self.low |= 1 << i,
            Some(j) => {
                if self.high.len() <= j / 64 {
                    self.high.resize(j / 64 + 1, 0);
                }
                self.high[j / 64] |= 1 << (j % 64);
            }
        }
    }

    /// Removes `i`.
    pub fn remove(&mut self, i: usize) {
        match i.checked_sub(64) {
            None => self.low &= !(1 << i),
            Some(j) => {
                if let Some(w) = self.high.get_mut(j / 64) {
                    *w &= !(1 << (j % 64));
                }
            }
        }
    }
}

/// An overlay fact by ids: its relation, and where its ids lie in
/// [`Join`]'s overlay id list.
#[derive(Clone, Debug)]
struct IdFact {
    relation: RelationId,
    ids: Range<usize>,
}

/// A variable's binding in a [`Join`]: its id, and how many variables were
/// bound before it.
type Slot = Option<(ValueId, u32)>;

/// A fixed-length list of `Copy` values, held inline up to `N` of them: a
/// join of a small query keeps its bindings and constant ids without
/// allocating.
#[derive(Debug)]
enum Small<T, const N: usize> {
    Inline([T; N], usize),
    Heap(Vec<T>),
}

impl<T: Copy, const N: usize> Small<T, N> {
    /// `len` copies of `value`.
    fn filled(value: T, len: usize) -> Self {
        if len <= N {
            Small::Inline([value; N], len)
        } else {
            Small::Heap(vec![value; len])
        }
    }
}

impl<T, const N: usize> std::ops::Deref for Small<T, N> {
    type Target = [T];

    fn deref(&self) -> &[T] {
        match self {
            Small::Inline(items, len) => &items[..*len],
            Small::Heap(items) => items,
        }
    }
}

impl<T, const N: usize> std::ops::DerefMut for Small<T, N> {
    fn deref_mut(&mut self) -> &mut [T] {
        match self {
            Small::Inline(items, len) => &mut items[..*len],
            Small::Heap(items) => items,
        }
    }
}

/// A point in a [`Join`]'s bindings, to undo back to.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Mark(u32);

/// The backtracking join kernel: the atoms of one conjunctive query (or
/// disjunct) matched into a fact store plus an overlay of pending facts,
/// over value ids (see the module documentation).
///
/// The joins of this module drive it to completion. A search that adds
/// branches of its own, as immediate and independent long-term relevance
/// do when they charge an atom to an access, drives it step by step:
/// [`Join::most_constrained`] picks the atom (or the search takes the atoms
/// in its own order), [`Join::rows`] draws its candidates, [`Join::unify`]
/// and [`Join::unify_at`] bind, and [`Join::undo`] unbinds back to a
/// [`Join::mark`].
#[derive(Debug)]
pub struct Join<'a> {
    store: &'a FactStore,
    atoms: &'a [Atom],
    /// The interner's length: every id from here on is join-local.
    known: usize,
    /// The values the store lacks, by join-local id (`known + k`). A join
    /// meets few, so [`Join::id`] finds them by a scan.
    local: Vec<&'a Value>,
    /// The id of the constant at position `p` of atom `i`, at
    /// `i * stride + p` (empty when the atoms hold no constant), set when
    /// the join first looks at the atom.
    consts: Small<ValueId, 16>,
    /// The atoms whose constants are in `consts`.
    resolved: AtomSet,
    /// The largest arity among the atoms.
    stride: usize,
    /// The overlay facts, grouped by relation and in the given order within
    /// one.
    extra: Vec<IdFact>,
    extra_ids: Vec<ValueId>,
    /// Per variable, its binding: the bindings made after a [`Mark`] are
    /// those stamped at or past it.
    slots: Small<Slot, 8>,
    /// How many variables are bound.
    bound: u32,
}

impl<'a> Join<'a> {
    /// A join of `atoms` into `store` plus the `extra` overlay, with the
    /// variables of `partial` bound. Resolves the partial valuation and the
    /// overlay through the store's interner now, and an atom's constants
    /// the first time the join weighs or draws the atom: a join that ends
    /// at its first node looks up no constant of an atom it never reached.
    pub fn new(
        atoms: &'a [Atom],
        store: &'a FactStore,
        extra: &'a [(RelationId, Tuple)],
        partial: &'a Valuation,
    ) -> Self {
        let (mut vars, mut constants, mut stride) = (0, false, 0);
        for atom in atoms {
            stride = stride.max(atom.arity());
            for term in atom.terms() {
                match term {
                    Term::Var(v) => vars = vars.max(v.index() + 1),
                    Term::Const(_) => constants = true,
                }
            }
        }
        if !partial.is_empty() {
            vars = partial.iter().fold(vars, |n, (v, _)| n.max(v.index() + 1));
        }
        let mut join = Join {
            store,
            atoms,
            known: store.interner().len(),
            local: Vec::new(),
            consts: Small::filled(ValueId(0), 0),
            resolved: AtomSet::default(),
            stride,
            extra: Vec::new(),
            extra_ids: Vec::new(),
            slots: Small::filled(None, vars),
            bound: 0,
        };
        if constants {
            join.consts = Small::filled(ValueId(0), atoms.len() * join.stride);
        } else {
            join.resolved = AtomSet::below(atoms.len());
        }
        for (v, value) in partial.iter() {
            let id = join.id(value);
            join.slots[v.index()] = Some((id, join.bound));
            join.bound += 1;
        }
        if extra.is_empty() {
            return join;
        }
        for (relation, t) in extra {
            let start = join.extra_ids.len();
            for v in t.iter() {
                let id = join.id(v);
                join.extra_ids.push(id);
            }
            join.extra.push(IdFact {
                relation: *relation,
                ids: start..join.extra_ids.len(),
            });
        }
        // Stable, so each relation's facts keep their order.
        join.extra.sort_by_key(|f| f.relation);
        join
    }

    /// The id of `value` in this join: the store's, or, for a value the
    /// store has never interned, a join-local id past the interner's range.
    pub fn id(&mut self, value: &'a Value) -> ValueId {
        if let Some(id) = self.store.interner().lookup(value) {
            return id;
        }
        let k = match self.local.iter().position(|&v| v == value) {
            Some(k) => k,
            None => {
                self.local.push(value);
                self.local.len() - 1
            }
        };
        ValueId((self.known + k) as u32)
    }

    /// The value behind an id of this join.
    fn value(&self, id: ValueId) -> &Value {
        match id.index().checked_sub(self.known) {
            None => self.store.interner().resolve(id),
            Some(k) => self.local[k],
        }
    }

    /// Resolves the constants of atom `i`, unless done.
    fn resolve(&mut self, i: usize) {
        if self.resolved.contains(i) {
            return;
        }
        self.resolved.insert(i);
        let atoms = self.atoms;
        for (pos, term) in atoms[i].terms().iter().enumerate() {
            if let Term::Const(c) = term {
                self.consts[i * self.stride + pos] = self.id(c);
            }
        }
    }

    /// The id at position `pos` of atom `i`, if determined: a constant's,
    /// or a bound variable's.
    fn term_id(&self, i: usize, pos: usize, term: &Term) -> Option<ValueId> {
        match term {
            Term::Const(_) => Some(self.consts[i * self.stride + pos]),
            Term::Var(v) => self.slots[v.index()].map(|(id, _)| id),
        }
    }

    /// The positions of atom `i` whose id is determined, in term order.
    fn determined(&self, i: usize) -> impl Iterator<Item = (usize, ValueId)> + Clone + '_ {
        let terms = self.atoms[i].terms().iter().enumerate();
        terms.filter_map(move |(pos, term)| Some((pos, self.term_id(i, pos, term)?)))
    }

    /// The overlay facts on `relation`, as a range of `extra`.
    fn extra_on(&self, relation: RelationId) -> Range<usize> {
        let facts = &self.extra;
        facts.partition_point(|f| f.relation < relation)
            ..facts.partition_point(|f| f.relation <= relation)
    }

    /// The atom of `open` to branch on under the current bindings: the one
    /// whose posting bound ([`FactStore::posting_bound`]) plus its overlay
    /// facts plus `more(i)` is smallest, ties broken in query order. `None`
    /// when no atom is open. Records no read and allocates nothing; a bound
    /// of 0 ends the scan, since no atom can have fewer candidates.
    pub fn most_constrained(
        &mut self,
        open: &AtomSet,
        more: impl Fn(usize) -> usize,
    ) -> Option<usize> {
        let mut open_atoms = (0..self.atoms.len())
            .filter(|&i| open.contains(i))
            .peekable();
        let first = open_atoms.next()?;
        if open_atoms.peek().is_none() {
            return Some(first);
        }
        let mut bound = |i: usize| {
            self.resolve(i);
            let relation = self.atoms[i].relation();
            let stored = self.store.posting_bound(relation, self.determined(i));
            stored + self.extra_on(relation).len() + more(i)
        };
        let mut best = (bound(first), first);
        for i in open_atoms {
            if best.0 == 0 {
                break;
            }
            let count = bound(i);
            if count < best.0 {
                best = (count, i);
            }
        }
        Some(best.1)
    }

    /// The candidate rows of atom `i` under the current bindings, lazily:
    /// the store's ([`FactStore::posting_rows`], whose read is recorded
    /// here, so a walk that stops early records what a drained one does),
    /// then the overlay facts on the atom's relation. A row need not agree
    /// with the bindings; [`Join::unify`] checks it.
    pub fn rows(&mut self, i: usize) -> JoinRows<'a> {
        self.resolve(i);
        let relation = self.atoms[i].relation();
        let (known, local) = (self.known, &self.local);
        let stored = self
            .store
            .posting_rows(relation, self.determined(i), |id| local[id.index() - known]);
        JoinRows {
            stored,
            extra: self.extra_on(relation),
        }
    }

    /// Where the bindings stand now.
    pub fn mark(&self) -> Mark {
        Mark(self.bound)
    }

    /// Unbinds every variable bound since `mark`.
    pub fn undo(&mut self, mark: Mark) {
        if self.bound > mark.0 {
            for slot in self.slots.iter_mut() {
                if slot.is_some_and(|(_, stamp)| stamp >= mark.0) {
                    *slot = None;
                }
            }
            self.bound = mark.0;
        }
    }

    /// Binds (or checks) position `pos` of atom `i`, whose term is `term`,
    /// to `id`; whether they agree.
    fn bind(&mut self, i: usize, pos: usize, term: &Term, id: ValueId) -> bool {
        match term {
            Term::Const(_) => self.consts[i * self.stride + pos] == id,
            Term::Var(v) => match self.slots[v.index()] {
                Some((bound, _)) => bound == id,
                None => {
                    self.slots[v.index()] = Some((id, self.bound));
                    self.bound += 1;
                    true
                }
            },
        }
    }

    /// Extends the bindings so that atom `i` maps onto `row` and returns
    /// `true`; on a mismatch binds nothing and returns `false`.
    pub fn unify(&mut self, i: usize, row: &JoinRow<'a>) -> bool {
        self.resolve(i);
        let atom = &self.atoms[i];
        let arity = match row.0 {
            RowSource::Stored(r) => r.arity(),
            RowSource::Extra(k) => self.extra[k].ids.len(),
        };
        if arity != atom.arity() {
            return false;
        }
        let mark = self.mark();
        for (pos, term) in atom.terms().iter().enumerate() {
            let id = match row.0 {
                RowSource::Stored(r) => r.id(pos),
                RowSource::Extra(k) => self.extra_ids[self.extra[k].ids.start + pos],
            };
            if !self.bind(i, pos, term, id) {
                self.undo(mark);
                return false;
            }
        }
        true
    }

    /// Extends the bindings so that atom `i` holds each `(position, id)` of
    /// `ids` and returns `true`; on a mismatch, or a position past the
    /// atom's arity, binds nothing and returns `false`. Reads nothing.
    pub fn unify_at(&mut self, i: usize, ids: &[(usize, ValueId)]) -> bool {
        self.resolve(i);
        let atom = &self.atoms[i];
        let mark = self.mark();
        for &(pos, id) in ids {
            if !atom
                .term_at(pos)
                .is_some_and(|term| self.bind(i, pos, term, id))
            {
                self.undo(mark);
                return false;
            }
        }
        true
    }

    /// The current bindings as a valuation (the partial valuation's
    /// included).
    pub fn valuation(&self) -> Valuation {
        let bound = self.slots.iter().enumerate();
        bound
            .filter_map(|(v, slot)| Some((VarId(v as u32), self.value((*slot)?.0).clone())))
            .collect()
    }

    /// The values bound to `vars`, if all are bound.
    fn project(&self, vars: &[VarId]) -> Option<Tuple> {
        let value = |v: &VarId| Some(self.value(self.slots.get(v.index()).copied()??.0).clone());
        vars.iter()
            .map(value)
            .collect::<Option<_>>()
            .map(Tuple::new)
    }

    /// Hands every match of the `open` atoms extending the current bindings
    /// to `visit` until it returns `true`; returns whether it did. Leaves
    /// the bindings and `open` as it found them.
    fn walk(&mut self, open: &mut AtomSet, visit: &mut impl FnMut(&Self) -> bool) -> bool {
        let Some(i) = self.most_constrained(open, |_| 0) else {
            return visit(self);
        };
        open.remove(i);
        let mark = self.mark();
        let mut stopped = false;
        for row in self.rows(i) {
            if self.unify(i, &row) {
                stopped = self.walk(open, visit);
                self.undo(mark);
                if stopped {
                    break;
                }
            }
        }
        open.insert(i);
        stopped
    }

    /// Hands every match of the atoms extending the current bindings to
    /// `visit` until it returns `true`; returns whether it did.
    fn search(&mut self, visit: &mut impl FnMut(&Self) -> bool) -> bool {
        self.walk(&mut AtomSet::below(self.atoms.len()), visit)
    }

    /// Whether some match extending the current bindings maps atom `i` onto
    /// `row`, a stored row of its relation: the semi-naive step pins an
    /// atom to a new row so.
    pub(crate) fn matches_through(&mut self, i: usize, row: Row<'a>) -> bool {
        let mark = self.mark();
        let mut open = AtomSet::below(self.atoms.len());
        open.remove(i);
        let found =
            self.unify(i, &JoinRow(RowSource::Stored(row))) && self.walk(&mut open, &mut |_| true);
        self.undo(mark);
        found
    }
}

/// The candidate rows of one atom of a [`Join`] ([`Join::rows`]): stored
/// rows, then overlay facts.
#[derive(Clone, Debug)]
pub struct JoinRows<'a> {
    stored: Rows<'a>,
    extra: Range<usize>,
}

impl<'a> Iterator for JoinRows<'a> {
    type Item = JoinRow<'a>;

    fn next(&mut self) -> Option<JoinRow<'a>> {
        let source = match self.stored.next() {
            Some(row) => RowSource::Stored(row),
            None => RowSource::Extra(self.extra.next()?),
        };
        Some(JoinRow(source))
    }
}

/// One candidate row of a [`Join`]: a stored row or an overlay fact.
#[derive(Clone, Copy, Debug)]
pub struct JoinRow<'a>(RowSource<'a>);

#[derive(Clone, Copy, Debug)]
enum RowSource<'a> {
    Stored(Row<'a>),
    /// An index into the join's overlay facts.
    Extra(usize),
}

/// Finds one homomorphism extending `partial` that maps every atom of
/// `atoms` into `store`. Returns `None` when no such homomorphism exists.
pub fn find_homomorphism(
    atoms: &[Atom],
    store: &FactStore,
    partial: &Valuation,
) -> Option<Valuation> {
    find_homomorphism_with_extra(atoms, store, &[], partial)
}

/// Like [`find_homomorphism`] but over `store` extended with the `extra`
/// facts (the union is never materialised).
pub fn find_homomorphism_with_extra(
    atoms: &[Atom],
    store: &FactStore,
    extra: &[(RelationId, Tuple)],
    partial: &Valuation,
) -> Option<Valuation> {
    let mut found = None;
    Join::new(atoms, store, extra, partial).search(&mut |join| {
        found = Some(join.valuation());
        true
    });
    found
}

/// Enumerates homomorphisms of `atoms` into `store` extending `partial`,
/// stopping after `limit` results (use `usize::MAX` for all).
pub fn all_homomorphisms(
    atoms: &[Atom],
    store: &FactStore,
    partial: &Valuation,
    limit: usize,
) -> Vec<Valuation> {
    let mut out = Vec::new();
    if limit > 0 {
        Join::new(atoms, store, &[], partial).search(&mut |join| {
            out.push(join.valuation());
            out.len() >= limit
        });
    }
    out
}

/// Evaluates a Boolean conjunctive query over a fact store.
///
/// For non-Boolean queries this still returns "is the existential closure
/// true"; use [`answers_cq`] for output tuples.
pub fn holds_cq(query: &ConjunctiveQuery, store: &FactStore) -> bool {
    holds_cq_with_extra(query, store, &[])
}

/// Evaluates a Boolean conjunctive query over `store` extended with the
/// `extra` facts, without materialising the union.
pub fn holds_cq_with_extra(
    query: &ConjunctiveQuery,
    store: &FactStore,
    extra: &[(RelationId, Tuple)],
) -> bool {
    Join::new(query.atoms(), store, extra, &Valuation::new()).search(&mut |_| true)
}

/// Evaluates a Boolean positive query over a fact store (via its cached UCQ
/// form).
pub fn holds_pq(query: &PositiveQuery, store: &FactStore) -> bool {
    query.ucq().iter().any(|cq| holds_cq(cq, store))
}

/// Computes the answer tuples of a (possibly non-Boolean) conjunctive query.
/// A Boolean query's answers are `[()]` when one match exists and `[]`
/// otherwise, so it stops at the first match instead of enumerating them all.
pub fn answers_cq(query: &ConjunctiveQuery, store: &FactStore) -> Vec<Tuple> {
    if query.is_boolean() {
        return if holds_cq(query, store) {
            vec![Tuple::empty()]
        } else {
            Vec::new()
        };
    }
    let mut out = Vec::new();
    Join::new(query.atoms(), store, &[], &Valuation::new()).search(&mut |join| {
        out.extend(join.project(query.free_vars()));
        false
    });
    out.sort();
    out.dedup();
    out
}

/// Computes the answer tuples of a positive query (union of its disjuncts'
/// answers).
pub fn answers_pq(query: &PositiveQuery, store: &FactStore) -> Vec<Tuple> {
    let mut out: Vec<Tuple> = query
        .ucq()
        .iter()
        .flat_map(|cq| answers_cq(cq, store))
        .collect();
    out.sort();
    out.dedup();
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use accrel_schema::{tuple, Read, Schema};
    use std::sync::Arc;

    fn setup() -> (Arc<Schema>, FactStore) {
        let mut b = Schema::builder();
        let d = b.domain("D").unwrap();
        b.relation("R", &[("a", d), ("b", d)]).unwrap();
        b.relation("S", &[("a", d)]).unwrap();
        let schema = b.build();
        let mut store = FactStore::new(schema.clone());
        store.insert_named("R", ["1", "2"]).unwrap();
        store.insert_named("R", ["2", "3"]).unwrap();
        store.insert_named("R", ["3", "3"]).unwrap();
        store.insert_named("S", ["2"]).unwrap();
        (schema, store)
    }

    #[test]
    fn valuation_basics() {
        let mut v = Valuation::new();
        assert!(v.is_empty());
        v.bind(VarId(0), Value::sym("a"));
        assert!(v.is_bound(VarId(0)));
        assert_eq!(v.get(VarId(0)), Some(&Value::sym("a")));
        assert_eq!(v.len(), 1);
        assert_eq!(v.apply(&Term::Var(VarId(0))), Some(Value::sym("a")));
        assert_eq!(v.apply(&Term::Var(VarId(1))), None);
        assert_eq!(v.apply(&Term::constant("k")), Some(Value::sym("k")));
        assert_eq!(v.project(&[VarId(0)]), Some(tuple(["a"])));
        assert_eq!(v.project(&[VarId(0), VarId(1)]), None);
        assert_eq!(v.iter().count(), 1);
        let v2: Valuation = vec![(VarId(3), Value::int(1))].into_iter().collect();
        assert_eq!(v2.as_map().len(), 1);
        assert_eq!(v2.into_map().len(), 1);
    }

    #[test]
    fn unify_atom_respects_constants_and_repeats() {
        let (schema, _) = setup();
        let r = schema.relation_by_name("R").unwrap();
        let atom = Atom::new(r, vec![Term::Var(VarId(0)), Term::Var(VarId(0))]);
        let v = Valuation::new();
        assert!(v.unify_atom(&atom, &tuple(["3", "3"])).is_some());
        assert!(v.unify_atom(&atom, &tuple(["1", "2"])).is_none());
        let atom_c = Atom::new(r, vec![Term::constant("1"), Term::Var(VarId(1))]);
        assert!(v.unify_atom(&atom_c, &tuple(["1", "2"])).is_some());
        assert!(v.unify_atom(&atom_c, &tuple(["2", "3"])).is_none());
        // arity mismatch
        assert!(v.unify_atom(&atom_c, &tuple(["1"])).is_none());
        // conflicting prior binding
        let bound = Valuation::from_pairs([(VarId(1), Value::sym("9"))]);
        assert!(bound.unify_atom(&atom_c, &tuple(["1", "2"])).is_none());
    }

    #[test]
    fn path_query_evaluation() {
        let (schema, store) = setup();
        let mut qb = ConjunctiveQuery::builder(schema);
        let x = qb.var("x");
        let y = qb.var("y");
        let z = qb.var("z");
        qb.atom("R", vec![Term::Var(x), Term::Var(y)]).unwrap();
        qb.atom("R", vec![Term::Var(y), Term::Var(z)]).unwrap();
        qb.atom("S", vec![Term::Var(y)]).unwrap();
        let q = qb.build();
        // R(1,2), R(2,3), S(2): the path through y=2 works.
        assert!(holds_cq(&q, &store));
    }

    #[test]
    fn unsatisfied_query() {
        let (schema, store) = setup();
        let mut qb = ConjunctiveQuery::builder(schema);
        let x = qb.var("x");
        qb.atom("S", vec![Term::Var(x)]).unwrap();
        qb.atom("R", vec![Term::constant("9"), Term::Var(x)])
            .unwrap();
        let q = qb.build();
        assert!(!holds_cq(&q, &store));
    }

    #[test]
    fn answers_with_free_variables() {
        let (schema, store) = setup();
        let mut qb = ConjunctiveQuery::builder(schema);
        let x = qb.var("x");
        let y = qb.var("y");
        qb.atom("R", vec![Term::Var(x), Term::Var(y)]).unwrap();
        qb.free(&[x]);
        let q = qb.build();
        let answers = answers_cq(&q, &store);
        assert_eq!(answers, vec![tuple(["1"]), tuple(["2"]), tuple(["3"])]);
    }

    #[test]
    fn all_homomorphisms_respects_limit() {
        let (schema, store) = setup();
        let r = schema.relation_by_name("R").unwrap();
        let atom = Atom::new(r, vec![Term::Var(VarId(0)), Term::Var(VarId(1))]);
        let all = all_homomorphisms(
            std::slice::from_ref(&atom),
            &store,
            &Valuation::new(),
            usize::MAX,
        );
        assert_eq!(all.len(), 3);
        let limited = all_homomorphisms(&[atom], &store, &Valuation::new(), 2);
        assert_eq!(limited.len(), 2);
    }

    #[test]
    fn empty_query_is_always_true() {
        let (schema, store) = setup();
        let q = ConjunctiveQuery::new(schema, vec![], vec![], vec![]);
        assert!(holds_cq(&q, &store));
        assert_eq!(answers_cq(&q, &store), vec![Tuple::empty()]);
    }

    #[test]
    fn positive_query_evaluation() {
        let (schema, store) = setup();
        let mut b = PositiveQuery::builder(schema);
        let x = b.var("x");
        // S(x) ∧ (R(x, 9) ∨ R(9, x)) — false; S(x) ∨ R(9, x) — true.
        let sx = b.atom("S", vec![Term::Var(x)]).unwrap();
        let r1 = b
            .atom("R", vec![Term::Var(x), Term::constant("9")])
            .unwrap();
        let r2 = b
            .atom("R", vec![Term::constant("9"), Term::Var(x)])
            .unwrap();
        let q_false = b.clone().build(sx.clone().and(r1.clone().or(r2.clone())));
        assert!(!holds_pq(&q_false, &store));
        let q_true = b.build(sx.or(r2));
        assert!(holds_pq(&q_true, &store));
    }

    #[test]
    fn positive_query_answers() {
        let (schema, store) = setup();
        let mut b = PositiveQuery::builder(schema);
        let x = b.var("x");
        let sx = b.atom("S", vec![Term::Var(x)]).unwrap();
        let rx = b
            .atom("R", vec![Term::Var(x), Term::constant("3")])
            .unwrap();
        b.free(&[x]);
        let q = b.build(sx.or(rx));
        let ans = answers_pq(&q, &store);
        assert_eq!(ans, vec![tuple(["2"]), tuple(["3"])]);
    }

    #[test]
    fn overlay_evaluation_matches_materialised_union() {
        let (schema, store) = setup();
        let r = schema.relation_by_name("R").unwrap();
        let s = schema.relation_by_name("S").unwrap();
        let mut qb = ConjunctiveQuery::builder(schema.clone());
        let x = qb.var("x");
        let y = qb.var("y");
        qb.atom("R", vec![Term::Var(x), Term::Var(y)]).unwrap();
        qb.atom("S", vec![Term::Var(y)]).unwrap();
        qb.atom("S", vec![Term::Var(x)]).unwrap();
        let q = qb.build();
        // Not satisfiable in the base store (S = {2} only).
        assert!(!holds_cq(&q, &store));
        // Overlay S(1): R(1,2), S(2), S(1) closes the cycle.
        let extra = vec![(s, tuple(["1"]))];
        assert!(holds_cq_with_extra(&q, &store, &extra));
        // The overlay also offers new join tuples for R.
        let extra_r = vec![(r, tuple(["2", "2"]))];
        assert!(holds_cq_with_extra(&q, &store, &extra_r));
        // Against the materialised union the verdicts agree.
        let mut merged = store.clone();
        merged.insert(s, tuple(["1"])).unwrap();
        assert!(holds_cq(&q, &merged));
        assert!(!holds_cq_with_extra(&q, &store, &[]));
    }

    #[test]
    fn atom_sets_hold_indexes_past_the_inline_word() {
        for n in [0, 1, 63, 64, 65, 128, 130] {
            let mut set = AtomSet::below(n);
            assert_eq!(set.is_empty(), n == 0);
            assert!((0..n).all(|i| set.contains(i)), "n={n}");
            assert!(!set.contains(n), "n={n}");
            if n > 0 {
                set.remove(n - 1);
                assert!(!set.contains(n - 1));
                set.insert(n - 1);
                assert_eq!(set, AtomSet::below(n));
            }
        }
        let mut set = AtomSet::default();
        set.insert(200);
        assert!(set.contains(200) && !set.contains(199) && !set.contains(8));
        assert!(!set.is_empty());
        set.remove(200);
        assert!(set.is_empty());
    }

    #[test]
    fn joins_branch_on_the_atom_with_the_fewest_candidates() {
        let (schema, mut store) = setup();
        let r = schema.relation_by_name("R").unwrap();
        let s = schema.relation_by_name("S").unwrap();
        let mut qb = ConjunctiveQuery::builder(schema.clone());
        let x = qb.var("x");
        let y = qb.var("y");
        qb.atom("R", vec![Term::Var(x), Term::Var(y)]).unwrap();
        qb.atom("S", vec![Term::Var(y)]).unwrap();
        let q = qb.build();
        // S has one row and R three, so the join starts from S and probes
        // R through y: it never scans R, and the count behind that choice
        // records nothing.
        store.begin_read_tracking_with(accrel_schema::AdomPrecision::Precise);
        assert_eq!(store.posting_bound(r, []), 3);
        assert!(store.take_read_set().is_empty());
        store.begin_read_tracking_with(accrel_schema::AdomPrecision::Precise);
        assert!(holds_cq(&q, &store));
        let reads = store.take_read_set();
        assert!(reads.iter().any(|read| *read == Read::Relation(s)));
        assert!(!reads.iter().any(|read| *read == Read::Relation(r)));
        // Ties go to the earlier atom (here the chain's first, matched to
        // R's first row), and a query of more than 64 atoms joins like any
        // other.
        let mut qb = ConjunctiveQuery::builder(schema);
        let vars: Vec<VarId> = (0..=70).map(|i| qb.var(format!("x{i}"))).collect();
        for pair in vars.windows(2) {
            qb.atom("R", vec![Term::Var(pair[0]), Term::Var(pair[1])])
                .unwrap();
        }
        let long_chain = qb.build();
        assert!(holds_cq(&long_chain, &store));
        assert!(
            find_homomorphism(long_chain.atoms(), &store, &Valuation::new())
                .is_some_and(|h| h.get(vars[0]) == Some(&Value::sym("1")))
        );
    }

    #[test]
    fn partial_valuation_seeds_search() {
        let (schema, store) = setup();
        let r = schema.relation_by_name("R").unwrap();
        let atom = Atom::new(r, vec![Term::Var(VarId(0)), Term::Var(VarId(1))]);
        let seed = Valuation::from_pairs([(VarId(0), Value::sym("2"))]);
        let hom = find_homomorphism(&[atom], &store, &seed).unwrap();
        assert_eq!(hom.get(VarId(1)), Some(&Value::sym("3")));
        let bad_seed = Valuation::from_pairs([(VarId(0), Value::sym("99"))]);
        let r_atom = Atom::new(r, vec![Term::Var(VarId(0)), Term::Var(VarId(1))]);
        assert!(find_homomorphism(&[r_atom], &store, &bad_seed).is_none());
    }
}
