//! # accrel-core
//!
//! The primary contribution of *Determining Relevance of Accesses at Runtime*
//! (Benedikt, Gottlob & Senellart, PODS 2011): decision procedures for
//!
//! * **immediate relevance** ([`ir`]) — can a single access change the
//!   certain answers of a query right now? (DP-complete, Proposition 4.1);
//! * **long-term relevance** with independent accesses
//!   ([`ltr_independent`]) — ΣP2-complete in general (Proposition 4.5),
//!   coNP-complete when the accessed relation occurs once
//!   (Proposition 4.3);
//! * **query containment under access limitations** ([`containment`]) —
//!   coNEXPTIME-complete for CQs, co2NEXPTIME-complete for PQs
//!   (Theorems 5.1/5.2/5.6); the witness search follows the paper's
//!   tree-like ("crayfish chase") counterexample structure within a
//!   configurable [`SearchBudget`], and is sound for non-containment but
//!   not complete (see [`SearchBudget`]);
//! * **long-term relevance** with dependent accesses ([`ltr_dependent`]) —
//!   NEXPTIME-complete for CQs, 2NEXPTIME-complete for PQs, decided here by
//!   a direct witness-path search sharing the containment machinery, after
//!   a schema-level check that settles *dead-end* accesses (a relation the
//!   query never mentions, whose new values no dependent method can take
//!   as an input) without searching;
//! * the **reductions** of Section 3 connecting relevance and containment
//!   ([`reductions`]), and the Proposition 2.2 reduction from arity-`k`
//!   relevance to Boolean relevance;
//! * **critical tuples** ([`critical`]) in the sense of Miklau & Suciu,
//!   whose complement is the source of the ΣP2 lower bound for independent
//!   LTR (Theorem 4.6).
//!
//! The top-level entry points are [`is_immediately_relevant`],
//! [`is_long_term_relevant`] and [`is_contained`]. For a Boolean query, each
//! relevance procedure first checks that the query is not yet certain (no
//! access can change a certain Boolean answer) and then runs its search.
//! Callers that track certainty themselves run the search alone:
//! [`is_immediately_relevant_given_uncertain`] and
//! [`is_long_term_relevant_given_uncertain`].
//!
//! The containment and dependent-LTR witness searches stream candidate
//! valuations one at a time and stop at the first witness, so the
//! [`SearchBudget`] caps the valuations a search visits rather than sizing
//! a list it builds up front.
//!
//! Every procedure takes `&Configuration` and only reads it. Hypothetical
//! facts — a witness's later facts, a truncated path's responses — are
//! evaluated as an overlay on the configuration's store
//! (`accrel_query::eval::holds_cq_with_extra`), never inserted into it.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod budget;
pub mod containment;
pub mod critical;
pub mod ir;
pub mod ltr_dependent;
pub mod ltr_independent;
pub mod reductions;
mod search;

pub use budget::SearchBudget;
pub use containment::{is_contained, ContainmentOutcome, NonContainmentWitness};
pub use ir::{is_immediately_relevant, is_immediately_relevant_given_uncertain, IrWitness};
pub use ltr_dependent::is_ltr_dependent;
pub use ltr_independent::is_ltr_independent;

use accrel_access::{Access, AccessMethods, AccessMode};
use accrel_query::Query;
use accrel_schema::Configuration;

/// Decides long-term relevance of `access` for `query` at `conf`, choosing
/// the algorithm by the access modes in play:
///
/// * if every method is independent the exact ΣP2 procedure of Section 4 is
///   used;
/// * otherwise the budget-bounded dependent-access witness search of
///   Section 5 is used.
pub fn is_long_term_relevant(
    query: &Query,
    conf: &Configuration,
    access: &Access,
    methods: &AccessMethods,
    budget: &SearchBudget,
) -> bool {
    if all_independent(methods) {
        ltr_independent::is_ltr_independent_budgeted(query, conf, access, methods, budget)
    } else {
        ltr_dependent::is_ltr_dependent(query, conf, access, methods, budget)
    }
}

/// The former name of [`is_long_term_relevant`], kept only because the
/// benchmark package's traced replay still calls it (ROADMAP direction 3).
pub use self::is_long_term_relevant as is_long_term_relevant_trailed;

/// [`is_long_term_relevant`] for a Boolean `query` the caller knows is not
/// certain at `conf`: the same dispatch to the same searches, minus their
/// certainty pre-checks. On a certain query the answer is meaningless.
pub fn is_long_term_relevant_given_uncertain(
    query: &Query,
    conf: &Configuration,
    access: &Access,
    methods: &AccessMethods,
    budget: &SearchBudget,
) -> bool {
    if all_independent(methods) {
        ltr_independent::is_ltr_independent_given_uncertain(query, conf, access, methods, budget)
    } else {
        ltr_dependent::is_ltr_dependent_given_uncertain(query, conf, access, methods, budget)
    }
}

/// Whether every access method is independent (the ΣP2 procedure applies).
fn all_independent(methods: &AccessMethods) -> bool {
    methods
        .methods()
        .iter()
        .all(|m| m.mode() == AccessMode::Independent)
}

#[cfg(test)]
mod tests {
    use super::*;
    use accrel_access::binding;
    use accrel_query::{ConjunctiveQuery, Term};
    use accrel_schema::Schema;

    #[test]
    fn dispatcher_routes_independent_and_dependent_cases() {
        // Example 2.1: Q = S ⋈ T, empty conf, dependent access on T,
        // access on S is LTR.
        let mut b = Schema::builder();
        let d = b.domain("D").unwrap();
        b.relation("S", &[("a", d), ("b", d)]).unwrap();
        b.relation("T", &[("b", d), ("c", d)]).unwrap();
        let schema = b.build();

        let mut qb = ConjunctiveQuery::builder(schema.clone());
        let x = qb.var("x");
        let y = qb.var("y");
        let z = qb.var("z");
        qb.atom("S", vec![Term::Var(x), Term::Var(y)]).unwrap();
        qb.atom("T", vec![Term::Var(y), Term::Var(z)]).unwrap();
        let q: Query = qb.build().into();

        // Dependent flavour.
        let mut mb = AccessMethods::builder(schema.clone());
        let s_acc = mb.add_free("SAcc", "S", AccessMode::Independent).unwrap();
        mb.add("TAcc", "T", &["b"], AccessMode::Dependent).unwrap();
        let methods = mb.build();
        let conf = Configuration::empty(schema.clone());
        let access = Access::new(s_acc, binding(Vec::<&str>::new()));
        assert!(is_long_term_relevant(
            &q,
            &conf,
            &access,
            &methods,
            &SearchBudget::default()
        ));

        // Fully independent flavour routes through the ΣP2 procedure.
        let mut mb = AccessMethods::builder(schema.clone());
        let s_acc = mb.add_free("SAcc", "S", AccessMode::Independent).unwrap();
        mb.add("TAcc", "T", &["b"], AccessMode::Independent)
            .unwrap();
        let methods = mb.build();
        let conf = Configuration::empty(schema);
        let access = Access::new(s_acc, binding(Vec::<&str>::new()));
        assert!(is_long_term_relevant(
            &q,
            &conf,
            &access,
            &methods,
            &SearchBudget::default()
        ));
    }
}
