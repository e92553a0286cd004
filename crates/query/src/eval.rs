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
//! Candidates are drawn through the fact store's per-(relation, attribute)
//! indexes ([`FactStore::candidates`]): the positions of an atom already
//! determined by the partial valuation (constants and bound variables)
//! become index constraints, so joins probe posting lists instead of
//! scanning whole relations. The counts that order the branches come from
//! the same posting lists through [`FactStore::candidate_bound`], which
//! records no read. That is sound for read-set invalidation: a refutation
//! depends only on the candidate lists of the atoms it branched on, and
//! drawing them records them (see [`accrel_schema::ReadSet`]). The lists
//! are lazy cursors that record their read when they are made, so a node
//! that finds its match stops walking the list without recording less.
//!
//! The `_with_extra` variants evaluate over a store *plus* a small slice of
//! pending facts without materialising the union — the relevance witness
//! searches use them to test "would the query hold after these accesses"
//! once per candidate valuation, where cloning the configuration would
//! dominate the running time.

use std::collections::HashMap;

use accrel_schema::{FactStore, RelationId, Tuple, Value};

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

/// The positions of `atom` whose value is already determined by `current`
/// (constants and bound variables): the index constraints for its
/// candidate scan.
fn determined<'a>(
    atom: &'a Atom,
    current: &'a Valuation,
) -> impl Iterator<Item = (usize, &'a Value)> + 'a {
    atom.terms()
        .iter()
        .enumerate()
        .filter_map(|(pos, term)| match term {
            Term::Const(c) => Some((pos, c)),
            Term::Var(v) => current.get(*v).map(|val| (pos, val)),
        })
}

/// The candidate tuples for `atom` under `current`, lazily: the
/// index-backed candidates from `store` (whose read is recorded here), then
/// any `extra` facts of the atom's relation that agree with the determined
/// positions.
fn candidates_with_extra<'a>(
    atom: &'a Atom,
    store: &'a FactStore,
    extra: &'a [(RelationId, Tuple)],
    current: &'a Valuation,
) -> impl Iterator<Item = &'a Tuple> + 'a {
    let stored = store.candidates(atom.relation(), determined(atom, current));
    let overlay = extra.iter().filter_map(move |(rel, t)| {
        let agrees = *rel == atom.relation()
            && determined(atom, current).all(|(pos, v)| t.get(pos) == Some(v));
        agrees.then_some(t)
    });
    stored.chain(overlay)
}

/// Index-backed candidate tuples for `atom` under the partial valuation
/// `current`, as a lazy cursor ([`FactStore::candidates`]): the atom's
/// determined positions (constants and bound variables) become index
/// constraints, so only binding-compatible tuples are enumerated.
/// Repeated-variable consistency within the atom must still be checked by
/// [`Valuation::unify_atom`].
pub fn atom_candidates<'a>(
    atom: &'a Atom,
    store: &'a FactStore,
    current: &'a Valuation,
) -> impl Iterator<Item = &'a Tuple> + 'a {
    candidates_with_extra(atom, store, &[], current)
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

/// The atom of `open` to branch on under `current`: the one whose
/// candidate bound from `store` ([`FactStore::candidate_bound`]) plus
/// `more(i)` is smallest, ties broken in query order. `None` when no atom
/// is open. Records no read and allocates nothing; a bound of 0 ends the
/// scan, since no atom can have fewer candidates.
pub fn most_constrained(
    atoms: &[Atom],
    open: &AtomSet,
    store: &FactStore,
    current: &Valuation,
    more: impl Fn(usize) -> usize,
) -> Option<usize> {
    let mut open_atoms = (0..atoms.len()).filter(|&i| open.contains(i)).peekable();
    let first = open_atoms.next()?;
    if open_atoms.peek().is_none() {
        return Some(first);
    }
    let bound = |i: usize| {
        let atom = &atoms[i];
        store.candidate_bound(atom.relation(), determined(atom, current)) + more(i)
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

/// One backtracking join of `atoms` into `store` plus the `extra` overlay,
/// branching on the most constrained open atom at each node.
struct Join<'a> {
    atoms: &'a [Atom],
    store: &'a FactStore,
    extra: &'a [(RelationId, Tuple)],
    /// Per atom, the overlay facts on its relation: the upper bound the
    /// overlay adds to the atom's count, taken once per join.
    extra_on: Vec<usize>,
    /// The atoms not matched yet.
    open: AtomSet,
}

impl<'a> Join<'a> {
    fn new(atoms: &'a [Atom], store: &'a FactStore, extra: &'a [(RelationId, Tuple)]) -> Self {
        let extra_on = if extra.is_empty() {
            Vec::new()
        } else {
            atoms
                .iter()
                .map(|a| extra.iter().filter(|(r, _)| *r == a.relation()).count())
                .collect()
        };
        Self {
            atoms,
            store,
            extra,
            extra_on,
            open: AtomSet::below(atoms.len()),
        }
    }

    /// Hands every homomorphism extending `current` to `visit` until it
    /// returns `true`; returns whether it did.
    fn walk(&mut self, current: &Valuation, visit: &mut impl FnMut(&Valuation) -> bool) -> bool {
        let (atoms, store, extra) = (self.atoms, self.store, self.extra);
        let extra_on = &self.extra_on;
        let more = |i: usize| extra_on.get(i).copied().unwrap_or(0);
        let Some(i) = most_constrained(atoms, &self.open, store, current, more) else {
            return visit(current);
        };
        let atom = &atoms[i];
        self.open.remove(i);
        let mut stopped = false;
        for tuple in candidates_with_extra(atom, store, extra, current) {
            if let Some(extended) = current.unify_atom(atom, tuple) {
                if self.walk(&extended, visit) {
                    stopped = true;
                    break;
                }
            }
        }
        self.open.insert(i);
        stopped
    }
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
    Join::new(atoms, store, extra).walk(partial, &mut |h| {
        found = Some(h.clone());
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
        Join::new(atoms, store, &[]).walk(partial, &mut |h| {
            out.push(h.clone());
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
    find_homomorphism(query.atoms(), store, &Valuation::new()).is_some()
}

/// Evaluates a Boolean conjunctive query over `store` extended with the
/// `extra` facts, without materialising the union.
pub fn holds_cq_with_extra(
    query: &ConjunctiveQuery,
    store: &FactStore,
    extra: &[(RelationId, Tuple)],
) -> bool {
    find_homomorphism_with_extra(query.atoms(), store, extra, &Valuation::new()).is_some()
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
    let mut out: Vec<Tuple> =
        all_homomorphisms(query.atoms(), store, &Valuation::new(), usize::MAX)
            .into_iter()
            .filter_map(|h| h.project(query.free_vars()))
            .collect();
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
        assert_eq!(store.candidate_bound(r, []), 3);
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
