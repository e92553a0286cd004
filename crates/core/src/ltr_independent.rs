//! Long-term relevance with independent access methods (Section 4).
//!
//! With independent accesses any value may be guessed, so a witness path can
//! be pruned to accesses that directly return the subgoals of the query,
//! each at most once (observation (ii) of Section 4). The general decision
//! procedure is a ΣP2-style guess-and-check: guess a disjunct and a
//! valuation of its variables, split its subgoals into
//! *configuration-witnessed*, *first-access-witnessed* (compatible with the
//! given binding) and *later-access-witnessed* (their relation has some
//! access method), and accept iff the query is **false** on the
//! configuration extended with the later-access facts only — that extension
//! is exactly what the truncated path (the path without the initial access)
//! produces.
//!
//! Instead of blindly enumerating all `|Adom|^vars` valuations, the guess is
//! organised as an atom-directed backtracking search in query order, over
//! the join kernel of `accrel_query::eval` ([`Join`]) that immediate
//! relevance drives too: each subgoal either matches a configuration row
//! ([`Join::rows`], drawn through the store's posting lists), is charged to
//! the access, or is deferred to later accesses; variables still unbound
//! after these choices are grounded with *distinct fresh nulls*. This is
//! complete w.r.t. the naive enumeration: any witness valuation `h`
//! induces coverage choices reproducible by the search, and replacing the
//! values of the residually-free variables with fresh nulls preserves the
//! witness — the null-grounded later-image maps homomorphically into the
//! constant-grounded one, so if the query is false on the latter it is false
//! on the former (monotonicity). It is sound because an accepted leaf *is* a
//! valuation whose later set over-approximates the uncovered subgoals, and
//! query-falsity on the larger extension implies it on the exact one.
//! `tests/properties.rs` checks the walk against that naive enumeration on
//! small workloads (`ltr_independent_agrees_with_a_brute_force_reference`).
//!
//! A certain Boolean query has no relevant access, so
//! [`is_ltr_independent_budgeted`] checks certainty before searching. A
//! caller that already knows the query is not certain (the engine's
//! per-run certainty status) runs the same search without that check,
//! through [`crate::is_long_term_relevant_given_uncertain`].
//!
//! The module also implements the polynomial connected-component test of
//! Proposition 4.3 for conjunctive queries in which the accessed relation
//! occurs exactly once ([`ltr_single_occurrence`]); it agrees with the
//! general procedure whenever its preconditions hold and is benchmarked
//! against it in experiment E6.

use accrel_access::{Access, AccessMethod, AccessMethods};
use accrel_query::eval::{self, Join};
use accrel_query::{certain, Atom, ConjunctiveQuery, Query, Valuation};
use accrel_schema::{Configuration, RelationId, Tuple};

use crate::budget::SearchBudget;
use crate::reductions;
use crate::search;

/// Decides long-term relevance of `access` for `query` at `conf` assuming
/// every access method in `methods` is independent, with the default
/// [`SearchBudget`] bounding the valuation enumeration.
///
/// Non-Boolean queries are routed through the Proposition 2.2 reduction.
pub fn is_ltr_independent(
    query: &Query,
    conf: &Configuration,
    access: &Access,
    methods: &AccessMethods,
) -> bool {
    is_ltr_independent_budgeted(query, conf, access, methods, &SearchBudget::default())
}

/// [`is_ltr_independent`] with an explicit budget: the ΣP2 walk checks at
/// most `budget.max_valuations` leaves (full coverage assignments) per
/// disjunct, which is what lets the data-complexity sweep run on
/// 10⁴–10⁵-fact configurations. The procedure is sound for "relevant"
/// verdicts, and complete when no leaf cap fires:
/// `ltr_independent_agrees_with_a_brute_force_reference` in
/// `tests/properties.rs` checks it against enumerating every valuation.
pub fn is_ltr_independent_budgeted(
    query: &Query,
    conf: &Configuration,
    access: &Access,
    methods: &AccessMethods,
    budget: &SearchBudget,
) -> bool {
    if !query.is_boolean() {
        return reductions::boolean_instances(query, conf)
            .iter()
            .any(|q| is_ltr_independent_budgeted(q, conf, access, methods, budget));
    }
    // If the query is already certain, no path can change its (Boolean)
    // certain answer.
    !certain::is_certain(query, conf)
        && is_ltr_independent_given_uncertain(query, conf, access, methods, budget)
}

/// [`is_ltr_independent_budgeted`] for a Boolean `query` the caller knows
/// is not certain at `conf`: the guess-and-check search without the
/// certainty pre-check. On a certain query the answer is meaningless.
pub(crate) fn is_ltr_independent_given_uncertain(
    query: &Query,
    conf: &Configuration,
    access: &Access,
    methods: &AccessMethods,
    budget: &SearchBudget,
) -> bool {
    debug_assert!(query.is_boolean(), "the body takes Boolean queries only");
    if access.check_arity(methods).is_err() {
        return false;
    }
    let Ok(method) = methods.get(access.method()) else {
        return false;
    };
    let query_ucq = query.ucq();
    query_ucq.iter().any(|disjunct| {
        disjunct_has_witness(query_ucq, disjunct, conf, access, method, methods, budget)
    })
}

/// Whether some valuation of `disjunct` covers each atom by a configuration
/// fact, by the access or by a later access, and leaves every disjunct of
/// `query_ucq` false on the configuration plus the later-covered facts.
///
/// It drives a [`Join`] step by step with immediate relevance's charge step
/// and grounding ([`search::Charge`], [`search::ground_with_fresh_nulls`]),
/// but covers the atoms in query order: the leaf budget cuts this walk, so
/// which leaves it reaches, and with them a budget-cut verdict, depend on
/// the order.
fn disjunct_has_witness(
    query_ucq: &[ConjunctiveQuery],
    disjunct: &ConjunctiveQuery,
    conf: &Configuration,
    access: &Access,
    method: &AccessMethod,
    methods: &AccessMethods,
    budget: &SearchBudget,
) -> bool {
    struct Walk<'a> {
        /// The full query in UCQ form, expanded once: the leaf check runs
        /// per coverage assignment.
        query_ucq: &'a [ConjunctiveQuery],
        atoms: &'a [Atom],
        conf: &'a Configuration,
        join: Join<'a>,
        charge: search::Charge<'a>,
        access_relation: RelationId,
        methods: &'a AccessMethods,
        /// Leaves the budget still allows. The walk is complete unless this
        /// cap turns a leaf away.
        leaves_left: usize,
        /// The atoms deferred to later accesses.
        later: Vec<usize>,
    }

    impl Walk<'_> {
        /// A full coverage assignment has been chosen: ground the variables
        /// no choice bound with distinct fresh nulls (optimal by
        /// monotonicity) and test whether the query is false on the
        /// truncation's extension.
        fn leaf(&mut self) -> bool {
            if self.leaves_left == 0 {
                return false;
            }
            self.leaves_left -= 1;
            let full =
                search::ground_with_fresh_nulls(self.atoms, self.join.valuation(), self.conf);
            let later_facts: Vec<(RelationId, Tuple)> = (self.later.iter())
                .map(|&i| {
                    let atom = &self.atoms[i];
                    let tuple = atom.substitute(&full).to_tuple();
                    (atom.relation(), tuple.expect("every variable is grounded"))
                })
                .collect();
            // The truncated path yields exactly Conf plus the later-access
            // facts; the witness is valid iff the query is still false
            // there. Evaluated as an overlay: no per-leaf configuration
            // clone.
            !self
                .query_ucq
                .iter()
                .any(|d| eval::holds_cq_with_extra(d, self.conf.store(), &later_facts))
        }

        /// Covers atom `i` and the atoms after it: by a configuration fact
        /// (its candidate rows), by the access, or by later accesses.
        /// Whether that reaches an accepted leaf; if so, the bindings are
        /// left in place.
        fn go(&mut self, i: usize) -> bool {
            if self.leaves_left == 0 {
                return false;
            }
            let Some(atom) = self.atoms.get(i) else {
                return self.leaf();
            };
            let mark = self.join.mark();
            // Choice 1: the subgoal is witnessed by a configuration fact.
            for row in self.join.rows(i) {
                if self.join.unify(i, &row) {
                    if self.go(i + 1) {
                        return true;
                    }
                    self.join.undo(mark);
                }
            }
            // Choice 2: the subgoal is charged to the initial access.
            if atom.relation() == self.access_relation && self.charge.apply(&mut self.join, i) {
                if self.go(i + 1) {
                    return true;
                }
                self.join.undo(mark);
            }
            // Choice 3: the subgoal is deferred to later accesses (possible
            // whenever its relation is accessible at all).
            if self.methods.has_method(atom.relation()) {
                self.later.push(i);
                if self.go(i + 1) {
                    return true;
                }
                self.later.pop();
            }
            false
        }
    }

    let atoms = disjunct.atoms();
    let unbound = Valuation::new();
    Walk {
        query_ucq,
        atoms,
        conf,
        join: Join::new(atoms, conf.store(), &[], &unbound),
        charge: search::Charge::new(access, method),
        access_relation: method.relation(),
        methods,
        leaves_left: budget.max_valuations,
        later: Vec::new(),
    }
    .go(0)
}

/// The Proposition 4.3 polynomial test for Boolean conjunctive queries where
/// the accessed relation occurs exactly once.
///
/// Returns `None` when the preconditions do not hold (the binding's arity
/// differs from the method's inputs, the accessed relation occurs zero or
/// several times, or some query relation other than the accessed one has
/// no access method — the proposition implicitly assumes every relation is
/// accessible).
pub fn ltr_single_occurrence(
    query: &ConjunctiveQuery,
    conf: &Configuration,
    access: &Access,
    methods: &AccessMethods,
) -> Option<bool> {
    if !query.is_boolean() {
        return None;
    }
    access.check_arity(methods).ok()?;
    let method = methods.get(access.method()).ok()?;
    let access_relation = method.relation();
    if query.occurrences_of(access_relation) != 1 {
        return None;
    }
    if !query.relations().iter().all(|r| methods.has_method(*r)) {
        return None;
    }
    // The unique partial mapping h substituting the binding into the
    // accessed subgoal; a conflict means not LTR.
    let subgoal_index = query
        .atoms()
        .iter()
        .position(|a| a.relation() == access_relation)?;
    let unbound = Valuation::new();
    let mut join = Join::new(query.atoms(), conf.store(), &[], &unbound);
    if !search::Charge::new(access, method).apply(&mut join, subgoal_index) {
        return Some(false);
    }
    let qh = query.substitute(join.valuation().as_map());
    // Components of the subgoal graph of Qh; drop those already satisfied in
    // Conf; the access is LTR iff the accessed subgoal survives.
    for component in qh.connected_components() {
        if !component.contains(&subgoal_index) {
            continue;
        }
        let sub_query = qh.restrict_to_atoms(&component);
        let satisfied = certain::is_certain_cq(&sub_query, conf);
        return Some(!satisfied);
    }
    Some(false)
}

#[cfg(test)]
mod tests {
    use super::*;
    use accrel_access::{binding, AccessMode};
    use accrel_query::{PositiveQuery, Term};
    use accrel_schema::Schema;
    use std::sync::Arc;

    /// Schema with a binary R and a binary S, every relation independently
    /// accessible (inputs on the second / first attribute respectively).
    fn setup() -> (Arc<Schema>, AccessMethods) {
        let mut b = Schema::builder();
        let d = b.domain("D").unwrap();
        b.relation("R", &[("a", d), ("b", d)]).unwrap();
        b.relation("S", &[("a", d), ("b", d)]).unwrap();
        let schema = b.build();
        let mut mb = AccessMethods::builder(schema.clone());
        mb.add("RAcc", "R", &["b"], AccessMode::Independent)
            .unwrap();
        mb.add("SAcc", "S", &["a"], AccessMode::Independent)
            .unwrap();
        (schema, mb.build())
    }

    fn example_4_2_query(schema: Arc<Schema>) -> Query {
        // Q = R(x, 5) ∧ S(5, z)
        let mut qb = ConjunctiveQuery::builder(schema);
        let x = qb.var("x");
        let z = qb.var("z");
        qb.atom("R", vec![Term::Var(x), Term::constant("5")])
            .unwrap();
        qb.atom("S", vec![Term::constant("5"), Term::Var(z)])
            .unwrap();
        qb.build().into()
    }

    #[test]
    fn example_4_2_not_relevant_when_witness_is_replaceable() {
        // Conf = {R(3,5)}: any x returned by R(?,5) can be replaced by 3, so
        // the access is not LTR.
        let (schema, methods) = setup();
        let q = example_4_2_query(schema.clone());
        let r_acc = methods.by_name("RAcc").unwrap();
        let mut conf = Configuration::empty(schema);
        conf.insert_named("R", ["3", "5"]).unwrap();
        let access = Access::new(r_acc, binding(["5"]));
        assert!(!is_ltr_independent(&q, &conf, &access, &methods));
    }

    #[test]
    fn example_4_2_relevant_when_no_witness_exists_yet() {
        // Conf = {R(3,6)}: R(?,5) is long-term relevant.
        let (schema, methods) = setup();
        let q = example_4_2_query(schema.clone());
        let r_acc = methods.by_name("RAcc").unwrap();
        let mut conf = Configuration::empty(schema);
        conf.insert_named("R", ["3", "6"]).unwrap();
        let access = Access::new(r_acc, binding(["5"]));
        assert!(is_ltr_independent(&q, &conf, &access, &methods));
    }

    #[test]
    fn example_4_4_repeated_relation_is_not_relevant() {
        // Q = R(x, y) ∧ R(x, 5), empty configuration, access R(?, 3):
        // Q is equivalent to ∃x R(x,5), which the access can never witness.
        let (schema, methods) = setup();
        let mut qb = ConjunctiveQuery::builder(schema.clone());
        let x = qb.var("x");
        let y = qb.var("y");
        qb.atom("R", vec![Term::Var(x), Term::Var(y)]).unwrap();
        qb.atom("R", vec![Term::Var(x), Term::constant("5")])
            .unwrap();
        let q: Query = qb.build().into();
        let r_acc = methods.by_name("RAcc").unwrap();
        let conf = Configuration::empty(schema);
        let access = Access::new(r_acc, binding(["3"]));
        assert!(!is_ltr_independent(&q, &conf, &access, &methods));
        // The same access with binding 5 is relevant: it can witness both
        // subgoals at once.
        let access5 = Access::new(r_acc, binding(["5"]));
        assert!(is_ltr_independent(&q, &conf, &access5, &methods));
    }

    #[test]
    fn certain_queries_have_no_relevant_accesses() {
        let (schema, methods) = setup();
        let q = example_4_2_query(schema.clone());
        let r_acc = methods.by_name("RAcc").unwrap();
        let mut conf = Configuration::empty(schema);
        conf.insert_named("R", ["3", "5"]).unwrap();
        conf.insert_named("S", ["5", "9"]).unwrap();
        let access = Access::new(r_acc, binding(["5"]));
        assert!(!is_ltr_independent(&q, &conf, &access, &methods));
    }

    #[test]
    fn relation_without_any_method_blocks_relevance() {
        // Same as Example 4.2 but S has no access method and no S-facts are
        // known: the query can never become true, so nothing is relevant.
        let (schema, _) = setup();
        let mut mb = AccessMethods::builder(schema.clone());
        mb.add("RAcc", "R", &["b"], AccessMode::Independent)
            .unwrap();
        let methods = mb.build();
        let q = example_4_2_query(schema.clone());
        let r_acc = methods.by_name("RAcc").unwrap();
        let mut conf = Configuration::empty(schema);
        conf.insert_named("R", ["3", "6"]).unwrap();
        let access = Access::new(r_acc, binding(["5"]));
        assert!(!is_ltr_independent(&q, &conf, &access, &methods));
    }

    #[test]
    fn positive_query_disjuncts_are_considered_independently() {
        // Q = R(x,5) ∨ S(0,z). The access R(?,5) is relevant in the empty
        // configuration through the first disjunct.
        let (schema, methods) = setup();
        let mut b = PositiveQuery::builder(schema.clone());
        let x = b.var("x");
        let z = b.var("z");
        let rx = b
            .atom("R", vec![Term::Var(x), Term::constant("5")])
            .unwrap();
        let sz = b
            .atom("S", vec![Term::constant("0"), Term::Var(z)])
            .unwrap();
        let q: Query = b.build(rx.or(sz)).into();
        let r_acc = methods.by_name("RAcc").unwrap();
        let conf = Configuration::empty(schema);
        let access = Access::new(r_acc, binding(["5"]));
        assert!(is_ltr_independent(&q, &conf, &access, &methods));
        // With binding 3 the first disjunct is incompatible and the second
        // disjunct does not involve R at all: not relevant.
        let access3 = Access::new(r_acc, binding(["3"]));
        assert!(!is_ltr_independent(&q, &conf, &access3, &methods));
    }

    #[test]
    fn non_boolean_queries_go_through_the_arity_reduction() {
        // Q(x) :- R(x, 5) ∧ S(5, x): with an empty configuration the access
        // R(?,5) is LTR (a fresh answer can appear); once an answer is
        // certain for the only join value around, it still is LTR because a
        // *new* answer could appear.
        let (schema, methods) = setup();
        let mut qb = ConjunctiveQuery::builder(schema.clone());
        let x = qb.var("x");
        qb.atom("R", vec![Term::Var(x), Term::constant("5")])
            .unwrap();
        qb.atom("S", vec![Term::constant("5"), Term::Var(x)])
            .unwrap();
        qb.free(&[x]);
        let q: Query = qb.build().into();
        let r_acc = methods.by_name("RAcc").unwrap();
        let conf = Configuration::empty(schema);
        let access = Access::new(r_acc, binding(["5"]));
        assert!(is_ltr_independent(&q, &conf, &access, &methods));
    }

    #[test]
    fn single_occurrence_test_matches_the_paper_examples() {
        let (schema, methods) = setup();
        let r_acc = methods.by_name("RAcc").unwrap();
        // Example 4.2 (single occurrence of R): both configurations.
        let q = match example_4_2_query(schema.clone()) {
            Query::Cq(cq) => cq,
            _ => unreachable!(),
        };
        let mut conf_sat = Configuration::empty(schema.clone());
        conf_sat.insert_named("R", ["3", "5"]).unwrap();
        let access = Access::new(r_acc, binding(["5"]));
        assert_eq!(
            ltr_single_occurrence(&q, &conf_sat, &access, &methods),
            Some(false)
        );
        let mut conf_unsat = Configuration::empty(schema.clone());
        conf_unsat.insert_named("R", ["3", "6"]).unwrap();
        assert_eq!(
            ltr_single_occurrence(&q, &conf_unsat, &access, &methods),
            Some(true)
        );
        // Binding conflict with the subgoal constant: never relevant.
        let mut qb = ConjunctiveQuery::builder(schema.clone());
        let x = qb.var("x");
        qb.atom("R", vec![Term::Var(x), Term::constant("7")])
            .unwrap();
        let q7 = qb.build();
        assert_eq!(
            ltr_single_occurrence(&q7, &conf_unsat, &access, &methods),
            Some(false)
        );
        // Repeated relation: not applicable.
        let mut qb = ConjunctiveQuery::builder(schema.clone());
        let x = qb.var("x");
        let y = qb.var("y");
        qb.atom("R", vec![Term::Var(x), Term::Var(y)]).unwrap();
        qb.atom("R", vec![Term::Var(y), Term::Var(x)]).unwrap();
        let q_rep = qb.build();
        assert_eq!(
            ltr_single_occurrence(&q_rep, &conf_unsat, &access, &methods),
            None
        );
        let _ = schema;
    }

    #[test]
    fn single_occurrence_agrees_with_the_general_procedure() {
        let (schema, methods) = setup();
        let r_acc = methods.by_name("RAcc").unwrap();
        let q = example_4_2_query(schema.clone());
        let cq = match &q {
            Query::Cq(cq) => cq.clone(),
            _ => unreachable!(),
        };
        let bindings = ["3", "5", "6", "7"];
        let mut confs = Vec::new();
        confs.push(Configuration::empty(schema.clone()));
        let mut c1 = Configuration::empty(schema.clone());
        c1.insert_named("R", ["3", "5"]).unwrap();
        confs.push(c1);
        let mut c2 = Configuration::empty(schema.clone());
        c2.insert_named("R", ["3", "6"]).unwrap();
        c2.insert_named("S", ["5", "1"]).unwrap();
        confs.push(c2);
        for conf in &confs {
            for b in bindings {
                let access = Access::new(r_acc, binding([b]));
                let fast = ltr_single_occurrence(&cq, conf, &access, &methods);
                let general = is_ltr_independent(&q, conf, &access, &methods);
                assert_eq!(fast, Some(general), "binding {b} conf {conf}");
            }
        }
    }

    #[test]
    fn single_occurrence_charges_repeated_variables_and_checks_binding_arity() {
        // Q = ∃x R(x, x) with an independent method binding both places.
        let (schema, _) = setup();
        let mut mb = AccessMethods::builder(schema.clone());
        let both = mb
            .add("RBoth", "R", &["a", "b"], AccessMode::Independent)
            .unwrap();
        let methods = mb.build();
        let mut qb = ConjunctiveQuery::builder(schema.clone());
        let x = qb.var("x");
        qb.atom("R", vec![Term::Var(x), Term::Var(x)]).unwrap();
        let cq = qb.build();
        let q: Query = cq.clone().into();
        let conf = Configuration::empty(schema);
        // x cannot take both a and b: the subgoal is never charged.
        let split = Access::new(both, binding(["a", "b"]));
        assert_eq!(
            ltr_single_occurrence(&cq, &conf, &split, &methods),
            Some(false)
        );
        assert!(!is_ltr_independent(&q, &conf, &split, &methods));
        let same = Access::new(both, binding(["a", "a"]));
        let general = is_ltr_independent(&q, &conf, &same, &methods);
        assert!(general);
        assert_eq!(
            ltr_single_occurrence(&cq, &conf, &same, &methods),
            Some(general)
        );
        // A binding shorter than the method's inputs fails the
        // preconditions instead of counting as a conflict.
        let short = Access::new(both, binding(["a"]));
        assert_eq!(ltr_single_occurrence(&cq, &conf, &short, &methods), None);
    }

    #[test]
    fn single_occurrence_requires_all_relations_accessible() {
        let (schema, _) = setup();
        let mut mb = AccessMethods::builder(schema.clone());
        mb.add("RAcc", "R", &["b"], AccessMode::Independent)
            .unwrap();
        let methods = mb.build();
        let q = match example_4_2_query(schema.clone()) {
            Query::Cq(cq) => cq,
            _ => unreachable!(),
        };
        let r_acc = methods.by_name("RAcc").unwrap();
        let conf = Configuration::empty(schema);
        let access = Access::new(r_acc, binding(["5"]));
        assert_eq!(ltr_single_occurrence(&q, &conf, &access, &methods), None);
    }
}
