//! Query containment under access limitations (Section 3, Theorems 5.1–5.6).
//!
//! `Q1 ⊑_ACS,Conf Q2` holds iff `Q1(Conf') ⊆ Q2(Conf')` for every
//! configuration `Conf'` reachable from `Conf` by well-formed accesses.
//! A *non-containment witness* is therefore a well-formed access path from
//! `Conf` leading to a configuration where some answer of `Q1` is not an
//! answer of `Q2`.
//!
//! The search follows the tree-like ("crayfish chase") counterexample
//! structure of Calì & Martinenghi used by the paper's upper bounds: a
//! witness consists of the image of one disjunct of `Q1` under a valuation
//! into configuration constants and (possibly shared) fresh nulls, plus
//! auxiliary *value-generator chains* that make required input values
//! accessible. The theoretical witness bound is exponential for CQs and
//! doubly exponential for PQs (hence the coNEXPTIME / co2NEXPTIME
//! completeness results). The search is sound for "not contained", whose
//! answer carries its witness path, but a "contained" answer can be wrong
//! even when no cap of the [`SearchBudget`] fires (see there).
//!
//! The search is the one dependent long-term relevance runs
//! (`search::find_witness`), with no initial access: every fact of a
//! disjunct's image that `Conf` lacks is planned for later accesses. This
//! module adds only what containment asks of a plan: `Q1`'s answer under
//! the valuation, and whether `Q2` misses it on `Conf` and the plan's facts.

use accrel_access::{AccessMethods, AccessPath};
use accrel_query::{eval, ConjunctiveQuery, Query, Valuation};
use accrel_schema::{Configuration, RelationId, Tuple, Value};

use crate::budget::SearchBudget;
use crate::search;

/// A witness that `Q1` is *not* contained in `Q2` under the access
/// limitations: an access path and the configuration it reaches, on which
/// `Q1` has an answer that `Q2` misses.
#[derive(Debug, Clone)]
pub struct NonContainmentWitness {
    /// The well-formed access path from the starting configuration.
    pub path: AccessPath,
    /// The configuration reached by the path.
    pub final_configuration: Configuration,
    /// The answer tuple of `Q1` missing from `Q2` (empty tuple for Boolean
    /// queries).
    pub answer: Tuple,
}

/// The outcome of a containment check.
#[derive(Debug, Clone)]
pub struct ContainmentOutcome {
    /// `true` when `Q1 ⊑_ACS,Conf Q2` (relative to the search budget).
    pub contained: bool,
    /// A witness path when non-containment was established.
    pub witness: Option<NonContainmentWitness>,
}

impl ContainmentOutcome {
    fn contained() -> Self {
        Self {
            contained: true,
            witness: None,
        }
    }

    fn not_contained(witness: NonContainmentWitness) -> Self {
        Self {
            contained: false,
            witness: Some(witness),
        }
    }
}

/// Decides whether `q1` is contained in `q2` under the access limitations
/// `methods`, starting from `conf`.
///
/// Both queries must have the same output arity (Boolean queries are the
/// common case, as in the paper).
///
/// # Panics
/// Panics if the output arities of `q1` and `q2` differ.
pub fn is_contained(
    q1: &Query,
    q2: &Query,
    conf: &Configuration,
    methods: &AccessMethods,
    budget: &SearchBudget,
) -> ContainmentOutcome {
    let ucq1 = q1.ucq();
    let ucq2 = q2.ucq();
    let arity1 = ucq1.first().map(|d| d.free_vars().len()).unwrap_or(0);
    let arity2 = ucq2.first().map(|d| d.free_vars().len()).unwrap_or(arity1);
    assert_eq!(
        arity1, arity2,
        "containment requires queries of equal output arity"
    );

    // Monotone shortcut for Boolean queries: if Q2 already holds at Conf it
    // holds at every reachable configuration, so containment is immediate.
    if arity1 == 0 && ucq2.iter().any(|d| eval::holds_cq(d, conf.store())) {
        return ContainmentOutcome::contained();
    }

    for disjunct in ucq1 {
        if let Some(witness) = disjunct_non_containment(disjunct, ucq2, conf, methods, budget) {
            return ContainmentOutcome::not_contained(witness);
        }
    }
    ContainmentOutcome::contained()
}

/// The witness search ([`search::find_witness`]) for one disjunct of `Q1`,
/// with no initial access: a plan is a witness when `Q2` misses the
/// valuation's answer on `conf` and the plan's facts.
fn disjunct_non_containment(
    disjunct: &ConjunctiveQuery,
    ucq2: &[ConjunctiveQuery],
    conf: &Configuration,
    methods: &AccessMethods,
    budget: &SearchBudget,
) -> Option<NonContainmentWitness> {
    let mut fresh = conf.fresh_supply().skipping(&disjunct.constants());
    search::find_witness(disjunct, conf, None, &mut fresh, methods, budget, |h, _| {
        // The answer tuple this valuation yields for Q1.
        let answer = Tuple::new(
            disjunct
                .free_vars()
                .iter()
                .map(|v| h.get(v).cloned().unwrap_or_else(|| Value::fresh(u64::MAX)))
                .collect(),
        );
        move |plan: &search::FactPlan| {
            // Check Q2 on the overlay; the reached configuration is only
            // materialised when a witness is actually found.
            let facts = plan.facts();
            if q2_has_answer(ucq2, conf, &facts, &answer) {
                return None;
            }
            let path = plan.to_path(methods);
            debug_assert!(path.is_well_formed_at(conf, methods));
            Some(NonContainmentWitness {
                path,
                final_configuration: conf
                    .with_facts(facts)
                    .expect("planned facts fit the schema"),
                answer: answer.clone(),
            })
        }
    })
}

/// Does `ucq2` yield `answer` on `conf` extended with the `extra` facts?
/// For Boolean queries this is plain satisfaction.
fn q2_has_answer(
    ucq2: &[ConjunctiveQuery],
    conf: &Configuration,
    extra: &[(RelationId, Tuple)],
    answer: &Tuple,
) -> bool {
    ucq2.iter().any(|d| {
        if d.free_vars().is_empty() {
            eval::holds_cq_with_extra(d, conf.store(), extra)
        } else {
            let seed = Valuation::from_pairs(
                d.free_vars()
                    .iter()
                    .zip(answer.iter())
                    .map(|(v, val)| (*v, val.clone())),
            );
            eval::find_homomorphism_with_extra(d.atoms(), conf.store(), extra, &seed).is_some()
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use accrel_access::AccessMode;
    use accrel_query::{PositiveQuery, Term};
    use accrel_schema::Schema;
    use std::sync::Arc;

    /// Example 3.2: unary R and S over the same domain, Boolean dependent
    /// access on R, free access on S.
    fn example_3_2() -> (Arc<Schema>, AccessMethods, Query, Query) {
        let mut b = Schema::builder();
        let d = b.domain("D").unwrap();
        b.relation("R", &[("a", d)]).unwrap();
        b.relation("S", &[("a", d)]).unwrap();
        let schema = b.build();
        let mut mb = AccessMethods::builder(schema.clone());
        mb.add_boolean("RCheck", "R", AccessMode::Dependent)
            .unwrap();
        mb.add_free("SAll", "S", AccessMode::Dependent).unwrap();
        let methods = mb.build();
        let mut q1b = ConjunctiveQuery::builder(schema.clone());
        let x = q1b.var("x");
        q1b.atom("R", vec![Term::Var(x)]).unwrap();
        let q1: Query = q1b.build().into();
        let mut q2b = ConjunctiveQuery::builder(schema.clone());
        let x = q2b.var("x");
        q2b.atom("S", vec![Term::Var(x)]).unwrap();
        let q2: Query = q2b.build().into();
        (schema, methods, q1, q2)
    }

    #[test]
    fn example_3_2_containment_holds_under_access_limitations() {
        // ∃x R(x) ⊑_ACS ∃x S(x): the only way to learn an R-fact is to first
        // obtain its value from the free access on S.
        let (schema, methods, q1, q2) = example_3_2();
        let conf = Configuration::empty(schema);
        let outcome = is_contained(&q1, &q2, &conf, &methods, &SearchBudget::default());
        assert!(outcome.contained);
        assert!(outcome.witness.is_none());
        // The converse fails: S(x) can become true without any R-fact.
        let outcome = is_contained(&q2, &q1, &conf, &methods, &SearchBudget::default());
        assert!(!outcome.contained);
        let w = outcome.witness.unwrap();
        assert!(!w.path.is_empty());
        assert!(w
            .path
            .is_well_formed_at(&Configuration::empty(q1.schema().clone()), &methods));
    }

    #[test]
    fn example_3_2_classical_containment_differs() {
        // Classically ∃x R(x) is of course not contained in ∃x S(x); with
        // free independent accesses everywhere the access-limited notion
        // collapses back to the classical one.
        let (schema, _, q1, q2) = example_3_2();
        let mut mb = AccessMethods::builder(schema.clone());
        mb.add_free("RAll", "R", AccessMode::Independent).unwrap();
        mb.add_free("SAll", "S", AccessMode::Independent).unwrap();
        let free_methods = mb.build();
        let conf = Configuration::empty(schema);
        let outcome = is_contained(&q1, &q2, &conf, &free_methods, &SearchBudget::default());
        assert!(!outcome.contained);
    }

    #[test]
    fn classical_containments_are_preserved() {
        // A query is always contained in a homomorphically weaker one,
        // whatever the access methods.
        let (schema, methods, _, _) = example_3_2();
        let mut q1b = ConjunctiveQuery::builder(schema.clone());
        let x = q1b.var("x");
        q1b.atom("R", vec![Term::Var(x)]).unwrap();
        q1b.atom("S", vec![Term::Var(x)]).unwrap();
        let q_both: Query = q1b.build().into();
        let mut q2b = ConjunctiveQuery::builder(schema.clone());
        let y = q2b.var("y");
        q2b.atom("S", vec![Term::Var(y)]).unwrap();
        let q_s: Query = q2b.build().into();
        let conf = Configuration::empty(schema);
        assert!(is_contained(&q_both, &q_s, &conf, &methods, &SearchBudget::default()).contained);
        assert!(!is_contained(&q_s, &q_both, &conf, &methods, &SearchBudget::default()).contained);
    }

    #[test]
    fn starting_configuration_matters() {
        // Q1 = R(c); Q2 = S(c). With Conf = {S(c)} the containment holds
        // trivially (Q2 already true); with the empty configuration and no
        // way to produce R-facts... R has a Boolean dependent access, so
        // R(c) can only become true if c is accessible, which requires the
        // free S access to return it — but that also makes S(c)?  No: the
        // free S access may return any S-value, not necessarily c; returning
        // S(c') for c' ≠ c makes nothing true, and R(c) stays unreachable
        // because c is never in the active domain. Containment holds.
        let (schema, methods, _, _) = example_3_2();
        let mut q1b = ConjunctiveQuery::builder(schema.clone());
        q1b.atom("R", vec![Term::constant("c")]).unwrap();
        let q1: Query = q1b.build().into();
        let mut q2b = ConjunctiveQuery::builder(schema.clone());
        q2b.atom("S", vec![Term::constant("c")]).unwrap();
        let q2: Query = q2b.build().into();
        let empty = Configuration::empty(schema.clone());
        assert!(is_contained(&q1, &q2, &empty, &methods, &SearchBudget::default()).contained);
        // Now make c accessible without S(c): Conf = {R'(c)}?  The schema
        // has no such relation, instead start from Conf = {S(c)}: Q2 is
        // certain, containment trivially holds.
        let mut conf_s = Configuration::empty(schema.clone());
        conf_s.insert_named("S", ["c"]).unwrap();
        assert!(is_contained(&q1, &q2, &conf_s, &methods, &SearchBudget::default()).contained);
        // Conversely Q2 ⊑ Q1 fails from {S(c)} (it already fails at Conf).
        let outcome = is_contained(&q2, &q1, &conf_s, &methods, &SearchBudget::default());
        assert!(!outcome.contained);
        assert_eq!(outcome.witness.unwrap().path.len(), 0);
    }

    #[test]
    fn dependent_chains_are_found_as_witnesses() {
        // Chain schema over three distinct domains: A(d0) free, B(d0, d1)
        // with input d0, C(d1, d2) with input d1.  Producing a C-fact forces
        // the chain A → B → C because each level's input domain is only
        // populated by the previous level's outputs.
        // Q1 = ∃y,z C(y,z);  Q2 = ∃u Never(u) (never reachable), so Q1 ⋢ Q2.
        let mut b = Schema::builder();
        let d0 = b.domain("D0").unwrap();
        let d1 = b.domain("D1").unwrap();
        let d2 = b.domain("D2").unwrap();
        b.relation("A", &[("a", d0)]).unwrap();
        b.relation("B", &[("a", d0), ("b", d1)]).unwrap();
        b.relation("C", &[("a", d1), ("b", d2)]).unwrap();
        b.relation("Never", &[("a", d0)]).unwrap();
        let schema = b.build();
        let mut mb = AccessMethods::builder(schema.clone());
        mb.add_free("AAll", "A", AccessMode::Dependent).unwrap();
        mb.add("BAcc", "B", &["a"], AccessMode::Dependent).unwrap();
        mb.add("CAcc", "C", &["a"], AccessMode::Dependent).unwrap();
        let methods = mb.build();
        let mut q1b = ConjunctiveQuery::builder(schema.clone());
        let y = q1b.var("y");
        let z = q1b.var("z");
        q1b.atom("C", vec![Term::Var(y), Term::Var(z)]).unwrap();
        let q1: Query = q1b.build().into();
        let mut q2b = ConjunctiveQuery::builder(schema.clone());
        let u = q2b.var("u");
        q2b.atom("Never", vec![Term::Var(u)]).unwrap();
        let q2: Query = q2b.build().into();
        let conf = Configuration::empty(schema.clone());
        let outcome = is_contained(&q1, &q2, &conf, &methods, &SearchBudget::default());
        assert!(!outcome.contained);
        let w = outcome.witness.unwrap();
        // The witness must build the chain A, B, C (three accesses).
        assert_eq!(w.path.len(), 3);
        assert!(w.path.is_well_formed_at(&conf, &methods));
        // And Q1 ⊑ "∃x C(x, x') ∨ anything that follows from producing C"
        // style checks: Q1 is contained in ∃u B(u, v) because any path that
        // produces a C-fact must first produce a B-fact.
        let mut q3b = ConjunctiveQuery::builder(schema.clone());
        let u = q3b.var("u");
        let v = q3b.var("v");
        q3b.atom("B", vec![Term::Var(u), Term::Var(v)]).unwrap();
        let q3: Query = q3b.build().into();
        assert!(is_contained(&q1, &q3, &conf, &methods, &SearchBudget::default()).contained);
        // But not vice versa.
        assert!(!is_contained(&q3, &q1, &conf, &methods, &SearchBudget::default()).contained);
    }

    #[test]
    fn positive_queries_on_both_sides() {
        // Q1 = R(x) ∨ S(x);  Q2 = S(x).  Not contained: the S branch of Q1
        // is fine but the R branch needs S first... actually producing R(v)
        // requires v accessible, which requires an S-fact containing v, so
        // every configuration where the R disjunct holds also satisfies S.
        // Hence Q1 ⊑ Q2 under these access limitations, while classically it
        // fails.  This is Example 3.2 lifted to a union.
        let (schema, methods, _, _) = example_3_2();
        let mut b = PositiveQuery::builder(schema.clone());
        let x = b.var("x");
        let rx = b.atom("R", vec![Term::Var(x)]).unwrap();
        let sx = b.atom("S", vec![Term::Var(x)]).unwrap();
        let q1: Query = b.build(rx.or(sx.clone())).into();
        let mut b2 = PositiveQuery::builder(schema.clone());
        let x2 = b2.var("x");
        let sx2 = b2.atom("S", vec![Term::Var(x2)]).unwrap();
        let q2: Query = b2.build(sx2).into();
        let conf = Configuration::empty(schema);
        assert!(is_contained(&q1, &q2, &conf, &methods, &SearchBudget::default()).contained);
        let _ = sx;
    }

    #[test]
    fn non_boolean_containment_compares_answers() {
        // Q1(x) :- R(x);  Q2(x) :- S(x).  Under the Example 3.2 accesses an
        // R-value can only be learnt after S returned that same value...
        // actually the free S access returns arbitrary S-facts; the R check
        // then confirms R(v) for an already-seen v, so every certain
        // R-answer is also a certain S-answer: containment holds.  The
        // converse does not.
        let (schema, methods, _, _) = example_3_2();
        let mut q1b = ConjunctiveQuery::builder(schema.clone());
        let x = q1b.var("x");
        q1b.atom("R", vec![Term::Var(x)]).unwrap();
        q1b.free(&[x]);
        let q1: Query = q1b.build().into();
        let mut q2b = ConjunctiveQuery::builder(schema.clone());
        let x = q2b.var("x");
        q2b.atom("S", vec![Term::Var(x)]).unwrap();
        q2b.free(&[x]);
        let q2: Query = q2b.build().into();
        let conf = Configuration::empty(schema);
        assert!(is_contained(&q1, &q2, &conf, &methods, &SearchBudget::default()).contained);
        let outcome = is_contained(&q2, &q1, &conf, &methods, &SearchBudget::default());
        assert!(!outcome.contained);
        assert_eq!(outcome.witness.unwrap().answer.arity(), 1);
    }

    #[test]
    #[should_panic(expected = "equal output arity")]
    fn arity_mismatch_panics() {
        let (schema, methods, q1, _) = example_3_2();
        let mut q2b = ConjunctiveQuery::builder(schema.clone());
        let x = q2b.var("x");
        q2b.atom("S", vec![Term::Var(x)]).unwrap();
        q2b.free(&[x]);
        let q2: Query = q2b.build().into();
        let conf = Configuration::empty(schema);
        let _ = is_contained(&q1, &q2, &conf, &methods, &SearchBudget::default());
    }
}
