//! Certain answers over configurations.
//!
//! A tuple `t` is a *certain answer* of `Q` at configuration `Conf` if
//! `t ∈ Q(I)` for every instance `I` consistent with `Conf` (Section 2 of
//! the paper). Because configurations are sub-instances of every consistent
//! instance and CQs/PQs are *monotone*, the minimal consistent instance is
//! `Conf` itself, so:
//!
//! * a Boolean monotone query is certain at `Conf` iff it holds in `Conf`;
//! * a tuple is a certain answer iff it is an answer over `Conf`.
//!
//! These facts are used pervasively by the relevance procedures.

use accrel_schema::{Configuration, Tuple};

use crate::cq::ConjunctiveQuery;
use crate::eval;
use crate::pq::PositiveQuery;
use crate::query::Query;

/// Is the Boolean query certain (true in every consistent instance) at
/// `conf`? For non-Boolean queries this asks for certainty of the
/// existential closure.
pub fn is_certain(query: &Query, conf: &Configuration) -> bool {
    match query {
        Query::Cq(q) => eval::holds_cq(q, conf.store()),
        Query::Pq(q) => eval::holds_pq(q, conf.store()),
    }
}

/// Certain-answer variant for a bare conjunctive query.
pub fn is_certain_cq(query: &ConjunctiveQuery, conf: &Configuration) -> bool {
    eval::holds_cq(query, conf.store())
}

/// Certain-answer variant for a bare positive query.
pub fn is_certain_pq(query: &PositiveQuery, conf: &Configuration) -> bool {
    eval::holds_pq(query, conf.store())
}

/// The certain answers of a (possibly non-Boolean) query at `conf`.
pub fn certain_answers(query: &Query, conf: &Configuration) -> Vec<Tuple> {
    match query {
        Query::Cq(q) => eval::answers_cq(q, conf.store()),
        Query::Pq(q) => eval::answers_pq(q, conf.store()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::atom::Term;
    use accrel_schema::{tuple, Schema};
    use std::sync::Arc;

    fn schema() -> Arc<Schema> {
        let mut b = Schema::builder();
        let d = b.domain("D").unwrap();
        b.relation("R", &[("a", d), ("b", d)]).unwrap();
        b.relation("S", &[("a", d)]).unwrap();
        b.build()
    }

    #[test]
    fn boolean_certainty_over_growing_configuration() {
        let s = schema();
        let mut qb = ConjunctiveQuery::builder(s.clone());
        let x = qb.var("x");
        qb.atom("R", vec![Term::Var(x), Term::constant("5")])
            .unwrap();
        qb.atom("S", vec![Term::Var(x)]).unwrap();
        let q: Query = qb.build().into();

        let mut conf = Configuration::empty(s);
        assert!(!is_certain(&q, &conf));
        conf.insert_named("R", ["3", "5"]).unwrap();
        assert!(!is_certain(&q, &conf));
        conf.insert_named("S", ["3"]).unwrap();
        assert!(is_certain(&q, &conf));
    }

    #[test]
    fn monotonicity_of_certainty() {
        // Once certain, adding facts never makes a monotone query uncertain.
        let s = schema();
        let mut qb = ConjunctiveQuery::builder(s.clone());
        let x = qb.var("x");
        qb.atom("S", vec![Term::Var(x)]).unwrap();
        let q: Query = qb.build().into();
        let mut conf = Configuration::empty(s);
        conf.insert_named("S", ["a"]).unwrap();
        assert!(is_certain(&q, &conf));
        conf.insert_named("R", ["a", "b"]).unwrap();
        conf.insert_named("S", ["b"]).unwrap();
        assert!(is_certain(&q, &conf));
    }

    #[test]
    fn certain_answers_of_open_query() {
        let s = schema();
        let mut qb = ConjunctiveQuery::builder(s.clone());
        let x = qb.var("x");
        let y = qb.var("y");
        qb.atom("R", vec![Term::Var(x), Term::Var(y)]).unwrap();
        qb.atom("S", vec![Term::Var(y)]).unwrap();
        qb.free(&[x, y]);
        let q: Query = qb.build().into();
        let mut conf = Configuration::empty(s);
        conf.insert_named("R", ["1", "2"]).unwrap();
        conf.insert_named("R", ["1", "3"]).unwrap();
        conf.insert_named("S", ["2"]).unwrap();
        assert_eq!(certain_answers(&q, &conf), vec![tuple(["1", "2"])]);
    }

    #[test]
    fn pq_and_cq_helpers_agree_with_query_wrapper() {
        let s = schema();
        let mut qb = ConjunctiveQuery::builder(s.clone());
        let x = qb.var("x");
        qb.atom("S", vec![Term::Var(x)]).unwrap();
        let cq = qb.build();
        let pq = PositiveQuery::from_cq(&cq);
        let mut conf = Configuration::empty(s);
        assert!(!is_certain_cq(&cq, &conf));
        assert!(!is_certain_pq(&pq, &conf));
        conf.insert_named("S", ["v"]).unwrap();
        assert!(is_certain_cq(&cq, &conf));
        assert!(is_certain_pq(&pq, &conf));
        assert!(is_certain(&Query::Pq(pq), &conf));
    }
}
