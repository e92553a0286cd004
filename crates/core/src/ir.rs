//! Immediate relevance (Proposition 4.1).
//!
//! An access `(AcM, Bind)` is *immediately relevant* (IR) for a query `Q` in
//! a configuration `Conf` if some *increasing response* exists: a set of
//! tuples matching the binding whose addition to `Conf` turns a non-certain
//! answer of `Q` into a certain one.
//!
//! The decision procedure follows the paper's DP algorithm: the query must
//! not already be certain (a coNP check), and there must exist a valuation
//! of the query variables witnessing satisfaction where every subgoal is
//! either matched by the configuration or "chargeable to the access"
//! (same relation and input places mapped to the binding) — an NP check.
//! The procedure is the same for dependent and independent methods since
//! only a single access is considered.
//!
//! The coNP half depends on the configuration alone, so a caller that
//! already knows the Boolean query is not certain (the engine keeps one
//! certainty status per run, see `accrel_query::certain::CertaintyStatus`)
//! runs only the NP half: [`is_immediately_relevant_given_uncertain`].
//! [`is_immediately_relevant`] is that same body behind the certainty
//! pre-check.

use std::collections::HashMap;

use accrel_access::{Access, AccessMethods};
use accrel_query::eval::{self, AtomSet};
use accrel_query::{certain, Atom, ConjunctiveQuery, Query, Valuation, VarId};
use accrel_schema::{Configuration, RelationId, Tuple, Value};

use crate::reductions;
use crate::search;

/// A witness that an access is immediately relevant: the increasing response
/// and the valuation under which the query becomes certain.
#[derive(Debug, Clone)]
pub struct IrWitness {
    /// Tuples the access would have to return (an increasing response).
    pub response: Vec<Tuple>,
    /// The satisfying assignment of query variables (fresh values stand for
    /// "any value not yet in the configuration").
    pub valuation: HashMap<VarId, Value>,
}

/// Decides immediate relevance of `access` for `query` at `conf`.
///
/// Non-Boolean queries are handled through the Proposition 2.2 reduction:
/// the access is IR for `Q(x̄)` iff it is IR for some Boolean instantiation
/// of the head over the configuration's constants plus fresh ones.
pub fn is_immediately_relevant(
    query: &Query,
    conf: &Configuration,
    access: &Access,
    methods: &AccessMethods,
) -> bool {
    immediate_relevance_witness(query, conf, access, methods).is_some()
}

/// Like [`is_immediately_relevant`] but returns the witness.
pub fn immediate_relevance_witness(
    query: &Query,
    conf: &Configuration,
    access: &Access,
    methods: &AccessMethods,
) -> Option<IrWitness> {
    if !query.is_boolean() {
        // Proposition 2.2: reduce arity-k relevance to Boolean relevance.
        for instance in reductions::boolean_instances(query, conf) {
            if let Some(w) = immediate_relevance_witness(&instance, conf, access, methods) {
                return Some(w);
            }
        }
        return None;
    }
    // If the query is already certain no response can increase the certain
    // answers.
    if certain::is_certain(query, conf) {
        return None;
    }
    witness_given_uncertain(query, conf, access, methods)
}

/// Immediate relevance of `access` for a Boolean `query` the caller knows
/// is not certain at `conf`: the NP half of Proposition 4.1, without the
/// certainty pre-check of [`is_immediately_relevant`]. On a certain query
/// the answer is meaningless.
pub fn is_immediately_relevant_given_uncertain(
    query: &Query,
    conf: &Configuration,
    access: &Access,
    methods: &AccessMethods,
) -> bool {
    debug_assert!(query.is_boolean(), "the body takes Boolean queries only");
    witness_given_uncertain(query, conf, access, methods).is_some()
}

/// The witness search shared by both entry points, for a Boolean query
/// assumed not certain.
fn witness_given_uncertain(
    query: &Query,
    conf: &Configuration,
    access: &Access,
    methods: &AccessMethods,
) -> Option<IrWitness> {
    if access.check_arity(methods).is_err() {
        return None;
    }
    let method = methods.get(access.method()).ok()?;
    for disjunct in query.ucq() {
        if let Some(witness) = disjunct_witness(
            disjunct,
            conf,
            access,
            method.relation(),
            method.input_positions(),
        ) {
            return Some(witness);
        }
    }
    None
}

/// Searches for a satisfying valuation of one disjunct in which every atom
/// is either matched by the configuration or charged to the access. Like
/// the joins of `accrel_query::eval`, it branches on the most constrained
/// open atom, counting a possible charge as one more candidate, and tries
/// the charge before the configuration's candidates: it reads nothing, and
/// it binds the atom's input places to the binding, which usually leaves
/// the neighbouring atoms the fewest candidates.
fn disjunct_witness(
    disjunct: &ConjunctiveQuery,
    conf: &Configuration,
    access: &Access,
    access_relation: RelationId,
    input_positions: &[usize],
) -> Option<IrWitness> {
    struct Search<'a> {
        atoms: &'a [Atom],
        conf: &'a Configuration,
        access: &'a Access,
        access_relation: RelationId,
        input_positions: &'a [usize],
        /// The atoms not matched yet.
        open: AtomSet,
        /// The atoms the valuation found so far charges to the access
        /// (rather than matching them in the configuration).
        charged: AtomSet,
    }

    impl Search<'_> {
        fn go(&mut self, valuation: &Valuation) -> Option<Valuation> {
            let (atoms, store) = (self.atoms, self.conf.store());
            let chargeable = |i: usize| usize::from(atoms[i].relation() == self.access_relation);
            let Some(i) = eval::most_constrained(atoms, &self.open, store, valuation, chargeable)
            else {
                return Some(valuation.clone());
            };
            let atom = &atoms[i];
            self.open.remove(i);
            // Option A: the subgoal is charged to the access: same relation
            // and input places mapped onto the binding (output places are
            // free).
            if atom.relation() == self.access_relation {
                if let Some(extended) =
                    search::charge_to_access(atom, valuation, self.access, self.input_positions)
                {
                    self.charged.insert(i);
                    if let Some(done) = self.go(&extended) {
                        return Some(done);
                    }
                    self.charged.remove(i);
                }
            }
            // Option B: the subgoal is already witnessed by the
            // configuration (candidates narrowed through the per-attribute
            // indexes).
            for tuple in eval::atom_candidates(atom, store, valuation) {
                if let Some(extended) = valuation.unify_atom(atom, tuple) {
                    if let Some(done) = self.go(&extended) {
                        return Some(done);
                    }
                }
            }
            self.open.insert(i);
            None
        }
    }

    let atoms = disjunct.atoms();
    let mut search = Search {
        atoms,
        conf,
        access,
        access_relation,
        input_positions,
        open: AtomSet::below(atoms.len()),
        charged: AtomSet::default(),
    };
    let valuation = search.go(&Valuation::new())?;

    // Ground the witness: unbound variables get distinct fresh values, and
    // the atoms charged to the access become the increasing response.
    let mut fresh = conf.fresh_supply();
    let mut full: HashMap<VarId, Value> = valuation.into_map();
    for v in disjunct.variables() {
        full.entry(v).or_insert_with(|| fresh.next_value());
    }
    let mut response = Vec::new();
    for (i, atom) in atoms.iter().enumerate() {
        if !search.charged.contains(i) {
            continue;
        }
        if let Some(t) = atom.substitute(&full).to_tuple() {
            if !response.contains(&t) {
                response.push(t);
            }
        }
    }
    // At least one subgoal must actually be charged to the access, otherwise
    // the query would already be certain (contradicting the caller's check);
    // guard anyway.
    if response.is_empty() {
        return None;
    }
    Some(IrWitness {
        response,
        valuation: full,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use accrel_access::{binding, AccessMode};
    use accrel_query::{ConjunctiveQuery, PositiveQuery, Term};
    use accrel_schema::Schema;
    use std::sync::Arc;

    /// Schema and accesses of the running example in the proof of
    /// Proposition 4.1: Q = ∃x∃y R(x,y) ∧ S(x) ∧ S(y) ∧ T(y), access S(0)?.
    fn setup() -> (Arc<Schema>, AccessMethods, Query) {
        let mut b = Schema::builder();
        let d = b.domain("D").unwrap();
        b.relation("R", &[("a", d), ("b", d)]).unwrap();
        b.relation("S", &[("a", d)]).unwrap();
        b.relation("T", &[("a", d)]).unwrap();
        let schema = b.build();
        let mut mb = AccessMethods::builder(schema.clone());
        mb.add_boolean("SCheck", "S", AccessMode::Independent)
            .unwrap();
        let methods = mb.build();
        let mut qb = ConjunctiveQuery::builder(schema.clone());
        let x = qb.var("x");
        let y = qb.var("y");
        qb.atom("R", vec![Term::Var(x), Term::Var(y)]).unwrap();
        qb.atom("S", vec![Term::Var(x)]).unwrap();
        qb.atom("S", vec![Term::Var(y)]).unwrap();
        qb.atom("T", vec![Term::Var(y)]).unwrap();
        let q: Query = qb.build().into();
        (schema, methods, q)
    }

    #[test]
    fn access_completing_a_join_is_immediately_relevant() {
        let (schema, methods, q) = setup();
        let s_check = methods.by_name("SCheck").unwrap();
        let mut conf = Configuration::empty(schema);
        // R(0, 7), S(7), T(7) hold; only S(0) is missing.
        conf.insert_named("R", ["0", "7"]).unwrap();
        conf.insert_named("S", ["7"]).unwrap();
        conf.insert_named("T", ["7"]).unwrap();
        let access = Access::new(s_check, binding(["0"]));
        assert!(is_immediately_relevant(&q, &conf, &access, &methods));
        let w = immediate_relevance_witness(&q, &conf, &access, &methods).unwrap();
        assert_eq!(w.response, vec![accrel_schema::tuple(["0"])]);
    }

    #[test]
    fn access_is_not_ir_when_nothing_joins_with_the_binding() {
        let (schema, methods, q) = setup();
        let s_check = methods.by_name("SCheck").unwrap();
        let mut conf = Configuration::empty(schema);
        // Nothing connects 0 to the rest of the query: the single access
        // S(0)? cannot by itself complete R, S(y), T(y).
        conf.insert_named("S", ["7"]).unwrap();
        conf.insert_named("T", ["7"]).unwrap();
        let access = Access::new(s_check, binding(["0"]));
        assert!(!is_immediately_relevant(&q, &conf, &access, &methods));
    }

    #[test]
    fn access_is_not_ir_when_query_is_already_certain() {
        let (schema, methods, q) = setup();
        let s_check = methods.by_name("SCheck").unwrap();
        let mut conf = Configuration::empty(schema);
        conf.insert_named("R", ["0", "7"]).unwrap();
        conf.insert_named("S", ["0"]).unwrap();
        conf.insert_named("S", ["7"]).unwrap();
        conf.insert_named("T", ["7"]).unwrap();
        let access = Access::new(s_check, binding(["0"]));
        assert!(!is_immediately_relevant(&q, &conf, &access, &methods));
    }

    #[test]
    fn single_access_can_witness_several_subgoals_of_the_same_relation() {
        // Q = S(x) ∧ S(y) with an access S(0)?: both subgoals can be charged
        // to the same access (x = y = 0).
        let (schema, methods, _) = setup();
        let s_check = methods.by_name("SCheck").unwrap();
        let mut qb = ConjunctiveQuery::builder(schema.clone());
        let x = qb.var("x");
        let y = qb.var("y");
        qb.atom("S", vec![Term::Var(x)]).unwrap();
        qb.atom("S", vec![Term::Var(y)]).unwrap();
        let q: Query = qb.build().into();
        let conf = Configuration::empty(schema);
        let access = Access::new(s_check, binding(["0"]));
        assert!(is_immediately_relevant(&q, &conf, &access, &methods));
        let w = immediate_relevance_witness(&q, &conf, &access, &methods).unwrap();
        assert_eq!(w.response.len(), 1);
    }

    #[test]
    fn access_to_a_relation_not_in_the_query_is_never_ir() {
        let (schema, _, q) = setup();
        let mut mb = AccessMethods::builder(schema.clone());
        // A Boolean access on a relation U unrelated to the query.
        let mut b2 = Schema::builder();
        let d = b2.domain("D").unwrap();
        b2.relation("R", &[("a", d), ("b", d)]).unwrap();
        b2.relation("S", &[("a", d)]).unwrap();
        b2.relation("T", &[("a", d)]).unwrap();
        drop(b2);
        let t_check = mb
            .add_boolean("TCheck", "T", AccessMode::Independent)
            .unwrap();
        let methods = mb.build();
        let mut conf = Configuration::empty(schema);
        conf.insert_named("T", ["7"]).unwrap();
        // T(9)? can not complete the query on its own (R and S missing).
        let access = Access::new(t_check, binding(["9"]));
        assert!(!is_immediately_relevant(&q, &conf, &access, &methods));
    }

    #[test]
    fn positive_queries_use_their_disjuncts() {
        // Q = S(0) ∨ T(0): the access S(0)? is IR in the empty configuration.
        let (schema, methods, _) = setup();
        let s_check = methods.by_name("SCheck").unwrap();
        let b = PositiveQuery::builder(schema.clone());
        let s0 = b.atom("S", vec![Term::constant("0")]).unwrap();
        let t0 = b.atom("T", vec![Term::constant("0")]).unwrap();
        let q: Query = b.build(s0.or(t0)).into();
        let conf = Configuration::empty(schema);
        let access = Access::new(s_check, binding(["0"]));
        assert!(is_immediately_relevant(&q, &conf, &access, &methods));
        // A binding that mismatches both disjuncts' constants is not IR.
        let access = Access::new(s_check, binding(["1"]));
        assert!(!is_immediately_relevant(&q, &conf, &access, &methods));
    }

    #[test]
    fn non_boolean_queries_reduce_to_boolean_instances() {
        // Q(x) :- S(x) ∧ T(x).  With T(5) known, the access S(5)? makes 5 a
        // new certain answer, so it is IR; with nothing known it is not,
        // because no single head instantiation becomes certain.
        let (schema, methods, _) = setup();
        let s_check = methods.by_name("SCheck").unwrap();
        let mut qb = ConjunctiveQuery::builder(schema.clone());
        let x = qb.var("x");
        qb.atom("S", vec![Term::Var(x)]).unwrap();
        qb.atom("T", vec![Term::Var(x)]).unwrap();
        qb.free(&[x]);
        let q: Query = qb.build().into();
        let mut conf = Configuration::empty(schema.clone());
        conf.insert_named("T", ["5"]).unwrap();
        let access = Access::new(s_check, binding(["5"]));
        assert!(is_immediately_relevant(&q, &conf, &access, &methods));
        let empty = Configuration::empty(schema);
        assert!(!is_immediately_relevant(&q, &empty, &access, &methods));
    }

    #[test]
    fn wrong_binding_arity_is_rejected() {
        let (schema, methods, q) = setup();
        let s_check = methods.by_name("SCheck").unwrap();
        let conf = Configuration::empty(schema);
        let access = Access::new(s_check, binding(["0", "1"]));
        assert!(!is_immediately_relevant(&q, &conf, &access, &methods));
    }

    #[test]
    fn dp_hardness_shape_known_not_certain_becomes_np_shape() {
        // When the query is known not to be certain, IR is just the NP
        // check: exercise a case where the access alone satisfies the query.
        let (schema, methods, _) = setup();
        let s_check = methods.by_name("SCheck").unwrap();
        let mut qb = ConjunctiveQuery::builder(schema.clone());
        qb.atom("S", vec![Term::constant("0")]).unwrap();
        let q: Query = qb.build().into();
        let conf = Configuration::empty(schema);
        let access = Access::new(s_check, binding(["0"]));
        let w = immediate_relevance_witness(&q, &conf, &access, &methods).unwrap();
        assert_eq!(w.response, vec![accrel_schema::tuple(["0"])]);
        assert!(w.valuation.is_empty());
    }
}
