//! Canonical databases (frozen queries).
//!
//! The canonical database of a conjunctive query maps every variable to a
//! distinct labelled null ([`accrel_schema::Value::Fresh`]) and materialises
//! each atom as a fact. Classical containment `Q1 ⊆ Q2` of CQs is then the
//! Chandra–Merlin test: `Q2` must have a homomorphism into the canonical
//! database of `Q1` mapping `Q2`'s head to the frozen head of `Q1`.

use std::collections::HashMap;

use accrel_schema::{FactStore, FreshSupply, Tuple, Value};

use crate::atom::{Term, VarId};
use crate::cq::ConjunctiveQuery;

/// The result of freezing a conjunctive query.
#[derive(Debug, Clone)]
pub struct CanonicalDatabase {
    /// Facts corresponding to the frozen atoms.
    pub store: FactStore,
    /// The assignment of variables to labelled nulls used for freezing.
    pub assignment: HashMap<VarId, Value>,
    /// The frozen head tuple (projection of the assignment onto the free
    /// variables).
    pub head: Tuple,
}

/// Freezes `query` into its canonical database.
///
/// Variables are assigned nulls from `supply` so that callers can freeze
/// several queries into the same value space without collisions. Constants
/// are kept as themselves.
pub fn freeze(query: &ConjunctiveQuery, supply: &mut FreshSupply) -> CanonicalDatabase {
    let mut assignment: HashMap<VarId, Value> = HashMap::new();
    let mut store = FactStore::new(query.schema().clone());
    for atom in query.atoms() {
        let values: Vec<Value> = atom
            .terms()
            .iter()
            .map(|t| match t {
                Term::Const(c) => c.clone(),
                Term::Var(v) => assignment
                    .entry(*v)
                    .or_insert_with(|| supply.next_value())
                    .clone(),
            })
            .collect();
        // The arity is taken from the atom; schema validation is the
        // caller's responsibility (freeze never fails on validated queries).
        let _ = store.insert(atom.relation(), Tuple::new(values));
    }
    // Free variables that do not occur in the body still get a null so the
    // head is total.
    for v in query.free_vars() {
        assignment.entry(*v).or_insert_with(|| supply.next_value());
    }
    let head = Tuple::new(
        query
            .free_vars()
            .iter()
            .map(|v| assignment[v].clone())
            .collect(),
    );
    CanonicalDatabase {
        store,
        assignment,
        head,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::atom::Term;
    use accrel_schema::Schema;
    use std::sync::Arc;

    fn schema() -> Arc<Schema> {
        let mut b = Schema::builder();
        let d = b.domain("D").unwrap();
        b.relation("R", &[("a", d), ("b", d)]).unwrap();
        b.relation("S", &[("a", d)]).unwrap();
        b.build()
    }

    #[test]
    fn freezing_materialises_each_atom() {
        let s = schema();
        let mut qb = ConjunctiveQuery::builder(s);
        let x = qb.var("x");
        let y = qb.var("y");
        qb.atom("R", vec![Term::Var(x), Term::Var(y)]).unwrap();
        qb.atom("R", vec![Term::Var(y), Term::constant("c")])
            .unwrap();
        qb.atom("S", vec![Term::Var(x)]).unwrap();
        let q = qb.build();
        let mut supply = FreshSupply::new();
        let canon = freeze(&q, &mut supply);
        assert_eq!(canon.store.len(), 3);
        assert_eq!(canon.assignment.len(), 2);
        // The shared variable y produces a join between the two R-facts.
        let vals = canon.store.all_values();
        assert!(vals.contains(&Value::sym("c")));
        assert_eq!(vals.iter().filter(|v| v.is_fresh()).count(), 2);
        assert!(canon.head.is_empty());
    }

    #[test]
    fn head_freezing_for_open_queries() {
        let s = schema();
        let mut qb = ConjunctiveQuery::builder(s);
        let x = qb.var("x");
        let y = qb.var("y");
        qb.atom("R", vec![Term::Var(x), Term::Var(y)]).unwrap();
        qb.free(&[y, x]);
        let q = qb.build();
        let mut supply = FreshSupply::new();
        let canon = freeze(&q, &mut supply);
        assert_eq!(canon.head.arity(), 2);
        assert_eq!(canon.head.get(0), canon.assignment.get(&y));
        assert_eq!(canon.head.get(1), canon.assignment.get(&x));
    }

    #[test]
    fn head_variable_missing_from_body_still_frozen() {
        let s = schema();
        let q = ConjunctiveQuery::new(s, vec![], vec![VarId(0)], vec!["x".to_string()]);
        let mut supply = FreshSupply::new();
        let canon = freeze(&q, &mut supply);
        assert_eq!(canon.head.arity(), 1);
        assert!(canon.head.get(0).unwrap().is_fresh());
    }

    #[test]
    fn shared_supply_keeps_nulls_distinct_across_queries() {
        let s = schema();
        let mut qb1 = ConjunctiveQuery::builder(s.clone());
        let x1 = qb1.var("x");
        qb1.atom("S", vec![Term::Var(x1)]).unwrap();
        let q1 = qb1.build();
        let mut qb2 = ConjunctiveQuery::builder(s);
        let x2 = qb2.var("x");
        qb2.atom("S", vec![Term::Var(x2)]).unwrap();
        let q2 = qb2.build();
        let mut supply = FreshSupply::new();
        let c1 = freeze(&q1, &mut supply);
        let c2 = freeze(&q2, &mut supply);
        assert_ne!(c1.assignment[&x1], c2.assignment[&x2]);
    }
}
