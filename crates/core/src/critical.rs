//! Critical tuples (Miklau & Suciu) and their bridge to long-term relevance.
//!
//! For a Boolean conjunctive query `Q` over a single relation `R` and a
//! finite domain `D` of constants, a tuple `t` is *critical* for `Q` if
//! there exists an instance `I` with values in `D` such that deleting `t`
//! from `I` changes the value of `Q`. Theorem 4.10 of Miklau & Suciu shows
//! that deciding *non*-criticality is ΠP2-hard; the paper (Theorem 4.6 /
//! Proposition 4.5) uses this to establish ΣP2-hardness of long-term
//! relevance for independent accesses, via the observation that `t` is
//! critical iff the Boolean access `R(t)?` is long-term relevant in a
//! configuration containing no facts about `R`.

use accrel_query::{eval, ConjunctiveQuery, Term, Valuation};
use accrel_schema::{FactStore, RelationId, Tuple, Value};

/// Decides whether `t` is critical for the Boolean conjunctive query `query`
/// over the finite domain `domain` (a set of constants).
///
/// Because CQs are monotone, `t` is critical iff there is a homomorphism `h`
/// of `query` into an instance over `domain` that uses `t` for at least one
/// atom, while `h(query) \ {t}` does not satisfy `query`. The search
/// enumerates such homomorphisms directly (the minimal instance has at most
/// `|query|` facts).
pub fn is_critical(
    query: &ConjunctiveQuery,
    relation: RelationId,
    t: &Tuple,
    domain: &[Value],
) -> bool {
    // Pick an atom to pin onto `t`, then extend to a full valuation over the
    // domain.
    for (idx, atom) in query.atoms().iter().enumerate() {
        if atom.relation() != relation || atom.arity() != t.arity() {
            continue;
        }
        let Some(seed) = Valuation::new().unify_atom(atom, t) else {
            continue;
        };
        if extend_over_domain(query, idx, relation, t, domain, &seed, 0) {
            return true;
        }
    }
    false
}

/// Extends `valuation` over `domain` for all unbound variables and checks
/// the criticality condition for each completion.
fn extend_over_domain(
    query: &ConjunctiveQuery,
    pinned_atom: usize,
    relation: RelationId,
    t: &Tuple,
    domain: &[Value],
    valuation: &Valuation,
    var_index: usize,
) -> bool {
    let mut vars: Vec<_> = query.variables().into_iter().collect();
    vars.sort();
    if var_index == vars.len() {
        return check_completion(query, pinned_atom, relation, t, valuation);
    }
    let v = vars[var_index];
    if valuation.is_bound(v) {
        return extend_over_domain(
            query,
            pinned_atom,
            relation,
            t,
            domain,
            valuation,
            var_index + 1,
        );
    }
    for value in domain {
        let mut next = valuation.clone();
        next.bind(v, value.clone());
        if extend_over_domain(
            query,
            pinned_atom,
            relation,
            t,
            domain,
            &next,
            var_index + 1,
        ) {
            return true;
        }
    }
    false
}

fn check_completion(
    query: &ConjunctiveQuery,
    pinned_atom: usize,
    relation: RelationId,
    t: &Tuple,
    valuation: &Valuation,
) -> bool {
    // Build h(query) \ {t}, confirming the pinned atom indeed maps to t.
    let mapping = valuation.as_map();
    let mut store = FactStore::new(query.schema().clone());
    let mut pinned_ok = false;
    for (idx, atom) in query.atoms().iter().enumerate() {
        let grounded = atom.substitute(mapping);
        let Some(tuple) = grounded.to_tuple() else {
            return false;
        };
        let is_t = atom.relation() == relation && &tuple == t;
        if idx == pinned_atom {
            if !is_t {
                return false;
            }
            pinned_ok = true;
        }
        if !is_t {
            let _ = store.insert(atom.relation(), tuple);
        }
    }
    // Q holds on h(query) by construction; it must fail without t.
    pinned_ok && !eval::holds_cq(query, &store)
}

/// Builds the query `∃x̄ R(x̄)`-style single-atom query often used in
/// criticality examples: `R(x1, ..., xk)` with all variables distinct.
pub fn generic_atom_query(
    schema: std::sync::Arc<accrel_schema::Schema>,
    relation: RelationId,
) -> ConjunctiveQuery {
    let arity = schema.arity(relation).unwrap_or(0);
    let mut names = Vec::new();
    let mut terms = Vec::new();
    for i in 0..arity {
        names.push(format!("x{i}"));
        terms.push(Term::Var(accrel_query::VarId(i as u32)));
    }
    ConjunctiveQuery::new(
        schema,
        vec![accrel_query::Atom::new(relation, terms)],
        Vec::new(),
        names,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use accrel_access::{binding, AccessMethods, AccessMode};
    use accrel_query::Query;
    use accrel_schema::{tuple, Configuration, Schema};
    use std::sync::Arc;

    fn schema() -> Arc<Schema> {
        let mut b = Schema::builder();
        let d = b.domain("D").unwrap();
        b.relation("R", &[("a", d), ("b", d)]).unwrap();
        b.build()
    }

    fn domain_values(names: &[&str]) -> Vec<Value> {
        names.iter().map(|n| Value::sym(*n)).collect()
    }

    #[test]
    fn every_tuple_is_critical_for_the_generic_atom_query() {
        // Q = ∃x,y R(x,y): removing the only fact falsifies Q, so every
        // domain tuple is critical.
        let s = schema();
        let r = s.relation_by_name("R").unwrap();
        let q = generic_atom_query(s, r);
        let d = domain_values(&["0", "1"]);
        assert!(is_critical(&q, r, &tuple(["0", "1"]), &d));
        assert!(is_critical(&q, r, &tuple(["0", "0"]), &d));
    }

    #[test]
    fn tuples_outside_the_query_shape_are_not_critical() {
        // Q = ∃x R(x,x): only diagonal tuples can be critical.
        let s = schema();
        let r = s.relation_by_name("R").unwrap();
        let mut qb = ConjunctiveQuery::builder(s);
        let x = qb.var("x");
        qb.atom("R", vec![Term::Var(x), Term::Var(x)]).unwrap();
        let q = qb.build();
        let d = domain_values(&["0", "1"]);
        assert!(is_critical(&q, r, &tuple(["0", "0"]), &d));
        assert!(!is_critical(&q, r, &tuple(["0", "1"]), &d));
    }

    #[test]
    fn redundant_subgoal_makes_some_tuples_non_critical() {
        // Q = ∃x,y R(x,y) ∧ R(x,x): a tuple R(0,1) is critical only if some
        // instance needs it — here R(0,1) can be critical (I = {R(0,1),
        // R(0,0)} minus R(0,1) still satisfies Q via x=y=0... so Q stays
        // true); deleting R(0,1) from any satisfying instance leaves R(x,x)
        // and hence Q true, so R(0,1) is NOT critical, while R(0,0) is.
        let s = schema();
        let r = s.relation_by_name("R").unwrap();
        let mut qb = ConjunctiveQuery::builder(s);
        let x = qb.var("x");
        let y = qb.var("y");
        qb.atom("R", vec![Term::Var(x), Term::Var(y)]).unwrap();
        qb.atom("R", vec![Term::Var(x), Term::Var(x)]).unwrap();
        let q = qb.build();
        let d = domain_values(&["0", "1"]);
        assert!(is_critical(&q, r, &tuple(["0", "0"]), &d));
        assert!(!is_critical(&q, r, &tuple(["0", "1"]), &d));
    }

    #[test]
    fn constants_in_the_query_pin_criticality() {
        // Q = R(x, 1): only tuples with second component 1 are critical.
        let s = schema();
        let r = s.relation_by_name("R").unwrap();
        let mut qb = ConjunctiveQuery::builder(s);
        let x = qb.var("x");
        qb.atom("R", vec![Term::Var(x), Term::constant("1")])
            .unwrap();
        let q = qb.build();
        let d = domain_values(&["0", "1"]);
        assert!(is_critical(&q, r, &tuple(["0", "1"]), &d));
        assert!(!is_critical(&q, r, &tuple(["0", "0"]), &d));
    }

    #[test]
    fn criticality_coincides_with_ltr_of_the_boolean_access() {
        // Theorem 4.6 bridge: t is critical iff the Boolean access R(t)? is
        // long-term relevant in a configuration with no R-facts (here we
        // seed the configuration with the domain constants through a helper
        // relation so that independent/dependent distinctions do not
        // interfere — all methods are independent).
        let mut b = Schema::builder();
        let d = b.domain("D").unwrap();
        b.relation("R", &[("a", d), ("b", d)]).unwrap();
        b.relation("Dom", &[("a", d)]).unwrap();
        let s = b.build();
        let r = s.relation_by_name("R").unwrap();
        let mut mb = AccessMethods::builder(s.clone());
        mb.add_boolean("RCheck", "R", AccessMode::Independent)
            .unwrap();
        mb.add("RAcc", "R", &["a"], AccessMode::Independent)
            .unwrap();
        let methods = mb.build();
        let r_check = methods.by_name("RCheck").unwrap();

        let mut qb = ConjunctiveQuery::builder(s.clone());
        let x = qb.var("x");
        let y = qb.var("y");
        qb.atom("R", vec![Term::Var(x), Term::Var(y)]).unwrap();
        qb.atom("R", vec![Term::Var(x), Term::Var(x)]).unwrap();
        let q = qb.build();

        let domain = domain_values(&["0", "1"]);
        let mut conf = Configuration::empty(s);
        conf.insert_named("Dom", ["0"]).unwrap();
        conf.insert_named("Dom", ["1"]).unwrap();

        for a in ["0", "1"] {
            for b2 in ["0", "1"] {
                let t = tuple([a, b2]);
                let critical = is_critical(&q, r, &t, &domain);
                let access = Access::new(r_check, binding([a, b2]));
                let ltr = crate::ltr_independent::is_ltr_independent(
                    &Query::Cq(q.clone()),
                    &conf,
                    &access,
                    &methods,
                );
                assert_eq!(critical, ltr, "tuple ({a},{b2})");
            }
        }
    }

    use accrel_access::Access;
}
