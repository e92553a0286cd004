//! Classical query containment (no access limitations).
//!
//! * CQ ⊆ CQ is the Chandra–Merlin homomorphism test (NP-complete);
//! * UCQ ⊆ UCQ reduces to testing every disjunct of the left side against
//!   the right side as a whole (Sagiv–Yannakakis);
//! * PQ ⊆ PQ goes through the UCQ normal forms (ΠP2-complete, the
//!   exponential DNF being the source of the jump).
//!
//! Containment *under access limitations* — the notion the paper relates to
//! long-term relevance — lives in `accrel-core::containment`; classical
//! containment is its special case where every relation has a free,
//! independent access method (see Section 3 of the paper).

use accrel_schema::FreshSupply;

use crate::canonical::freeze;
use crate::cq::ConjunctiveQuery;
use crate::eval::{find_homomorphism, Valuation};
use crate::query::Query;

/// Classical containment test for two conjunctive queries of the same arity.
///
/// `q1 ⊆ q2` iff there is a homomorphism from `q2` into the canonical
/// database of `q1` mapping `q2`'s free variables onto the frozen head of
/// `q1` (position-wise).
pub fn cq_contained_in(q1: &ConjunctiveQuery, q2: &ConjunctiveQuery) -> bool {
    cq_contained_in_ucq(q1, std::slice::from_ref(q2))
}

/// Containment of a conjunctive query in a union of conjunctive queries:
/// the canonical database of `q1` must satisfy *some* disjunct of `q2s`
/// with the right head.
pub fn cq_contained_in_ucq(q1: &ConjunctiveQuery, q2s: &[ConjunctiveQuery]) -> bool {
    let mut supply = FreshSupply::new();
    let canon = freeze(q1, &mut supply);
    q2s.iter().any(|q2| {
        if q2.free_vars().len() != q1.free_vars().len() {
            return false;
        }
        let seed: Valuation = Valuation::from_pairs(
            q2.free_vars()
                .iter()
                .zip(canon.head.iter())
                .map(|(v, val)| (*v, val.clone())),
        );
        find_homomorphism(q2.atoms(), &canon.store, &seed).is_some()
    })
}

/// Containment of a union of conjunctive queries in another: every disjunct
/// of the left side must be contained in the right side as a whole.
pub fn ucq_contained_in_ucq(q1s: &[ConjunctiveQuery], q2s: &[ConjunctiveQuery]) -> bool {
    q1s.iter().all(|q1| cq_contained_in_ucq(q1, q2s))
}

/// Classical containment for arbitrary [`Query`] values (CQ or PQ), via
/// their UCQ normal forms.
pub fn query_contained_in(q1: &Query, q2: &Query) -> bool {
    ucq_contained_in_ucq(&q1.to_ucq(), &q2.to_ucq())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::atom::Term;
    use crate::pq::PositiveQuery;
    use accrel_schema::Schema;
    use std::sync::Arc;

    fn schema() -> Arc<Schema> {
        let mut b = Schema::builder();
        let d = b.domain("D").unwrap();
        b.relation("R", &[("a", d), ("b", d)]).unwrap();
        b.relation("S", &[("a", d)]).unwrap();
        b.build()
    }

    fn path_query(schema: Arc<Schema>, length: usize) -> ConjunctiveQuery {
        // R(x0, x1) ∧ ... ∧ R(x_{len-1}, x_len)
        let mut qb = ConjunctiveQuery::builder(schema);
        for i in 0..length {
            let a = qb.var(format!("x{i}"));
            let b = qb.var(format!("x{}", i + 1));
            qb.atom("R", vec![Term::Var(a), Term::Var(b)]).unwrap();
        }
        qb.build()
    }

    #[test]
    fn longer_paths_are_contained_in_shorter_ones() {
        // ∃ a path of length 3 ⊆ ∃ a path of length 2 ⊆ ∃ an edge.
        let s = schema();
        let p1 = path_query(s.clone(), 1);
        let p2 = path_query(s.clone(), 2);
        let p3 = path_query(s, 3);
        assert!(cq_contained_in(&p3, &p2));
        assert!(cq_contained_in(&p2, &p1));
        assert!(cq_contained_in(&p3, &p1));
        // But not the converse: an edge does not imply a 2-path.
        assert!(!cq_contained_in(&p1, &p2));
        assert!(!cq_contained_in(&p2, &p3));
    }

    #[test]
    fn self_loop_query_is_contained_in_every_path_query() {
        let s = schema();
        let mut qb = ConjunctiveQuery::builder(s.clone());
        let x = qb.var("x");
        qb.atom("R", vec![Term::Var(x), Term::Var(x)]).unwrap();
        let self_loop = qb.build();
        let p3 = path_query(s, 3);
        assert!(cq_contained_in(&self_loop, &p3));
        assert!(!cq_contained_in(&p3, &self_loop));
    }

    #[test]
    fn constants_restrict_containment() {
        let s = schema();
        let mut qb = ConjunctiveQuery::builder(s.clone());
        let x = qb.var("x");
        qb.atom("R", vec![Term::Var(x), Term::constant("5")])
            .unwrap();
        let q_const = qb.build();
        let mut qb = ConjunctiveQuery::builder(s);
        let x = qb.var("x");
        let y = qb.var("y");
        qb.atom("R", vec![Term::Var(x), Term::Var(y)]).unwrap();
        let q_var = qb.build();
        assert!(cq_contained_in(&q_const, &q_var));
        assert!(!cq_contained_in(&q_var, &q_const));
    }

    #[test]
    fn head_variables_must_correspond() {
        let s = schema();
        // Q1(x) :- R(x, y)   vs   Q2(y) :- R(x, y)
        let mut qb = ConjunctiveQuery::builder(s.clone());
        let x = qb.var("x");
        let y = qb.var("y");
        qb.atom("R", vec![Term::Var(x), Term::Var(y)]).unwrap();
        qb.free(&[x]);
        let q_first = qb.build();
        let mut qb = ConjunctiveQuery::builder(s);
        let x = qb.var("x");
        let y = qb.var("y");
        qb.atom("R", vec![Term::Var(x), Term::Var(y)]).unwrap();
        qb.free(&[y]);
        let q_second = qb.build();
        // Selecting the source of an edge is not contained in selecting the
        // target, and vice versa.
        assert!(!cq_contained_in(&q_first, &q_second));
        assert!(!cq_contained_in(&q_second, &q_first));
        assert!(cq_contained_in(&q_first, &q_first));
        // Arity mismatch is never contained.
        let boolean = q_first.boolean_closure();
        assert!(!cq_contained_in(&q_first, &boolean));
    }

    #[test]
    fn ucq_containment_is_not_disjunct_wise_on_the_right() {
        // Classical Sagiv–Yannakakis subtlety: a disjunct of the left side
        // only needs to be contained in the union, which our per-disjunct
        // canonical-database test captures.
        let s = schema();
        let mut b = PositiveQuery::builder(s.clone());
        let x = b.var("x");
        let rx = b.atom("R", vec![Term::Var(x), Term::Var(x)]).unwrap();
        let sx = b.atom("S", vec![Term::Var(x)]).unwrap();
        let union = b.build(rx.or(sx));
        let mut qb = ConjunctiveQuery::builder(s);
        let y = qb.var("y");
        qb.atom("R", vec![Term::Var(y), Term::Var(y)]).unwrap();
        qb.atom("S", vec![Term::Var(y)]).unwrap();
        let both = qb.build();
        // both ⊆ union (it implies each disjunct separately, a fortiori the
        // union), union ⊄ both.
        assert!(query_contained_in(
            &Query::Cq(both.clone()),
            &Query::Pq(union.clone())
        ));
        assert!(!query_contained_in(
            &Query::Pq(union.clone()),
            &Query::Cq(both.clone())
        ));
    }

    #[test]
    fn union_reordering_preserves_equivalence() {
        let s = schema();
        let mut b = PositiveQuery::builder(s.clone());
        let x = b.var("x");
        let rx = b.atom("R", vec![Term::Var(x), Term::Var(x)]).unwrap();
        let sx = b.atom("S", vec![Term::Var(x)]).unwrap();
        let q_ab = b.build(rx.clone().or(sx.clone()));
        let mut b2 = PositiveQuery::builder(s);
        let x2 = b2.var("x");
        let rx2 = b2.atom("R", vec![Term::Var(x2), Term::Var(x2)]).unwrap();
        let sx2 = b2.atom("S", vec![Term::Var(x2)]).unwrap();
        let q_ba = b2.build(sx2.or(rx2));
        let _ = (rx, sx);
        let (q_ab, q_ba) = (Query::Pq(q_ab), Query::Pq(q_ba));
        assert!(query_contained_in(&q_ab, &q_ba) && query_contained_in(&q_ba, &q_ab));
    }

    #[test]
    fn empty_union_on_the_left_is_contained_in_everything() {
        let s = schema();
        let p1 = path_query(s, 1);
        assert!(ucq_contained_in_ucq(&[], std::slice::from_ref(&p1)));
        assert!(!ucq_contained_in_ucq(std::slice::from_ref(&p1), &[]));
    }
}
