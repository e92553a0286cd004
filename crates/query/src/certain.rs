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
//!
//! # A run's certainty status
//!
//! Configurations only grow, so along one run a monotone query's certainty
//! flips at most once, from false to true, and any match that appears must
//! use a row committed since the last look. [`CertaintyStatus`] uses both
//! facts: it evaluates the query in full the first time it is asked, then
//! reads the rows committed since through its own [`GrowthCursor`] and
//! evaluates each disjunct with one atom pinned to each new row of the
//! atom's relation (the semi-naive step of Datalog evaluation). The engine
//! keeps one per run, so neither its run loop nor its Boolean relevance
//! checks re-prove certainty with a full join; [`is_certain`] stays the
//! reference the status is checked against.

use accrel_schema::{Configuration, GrowthCursor, Tuple};

use crate::cq::ConjunctiveQuery;
use crate::eval::{self, Valuation};
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

/// The certain answers of a (possibly non-Boolean) query at `conf`.
pub fn certain_answers(query: &Query, conf: &Configuration) -> Vec<Tuple> {
    match query {
        Query::Cq(q) => eval::answers_cq(q, conf.store()),
        Query::Pq(q) => eval::answers_pq(q, conf.store()),
    }
}

/// The certainty of one query (the existential closure, if it has free
/// variables) over one growing configuration, kept up to date semi-naively
/// (see the module documentation). The status assumes a single
/// configuration that only grows.
#[derive(Debug)]
pub struct CertaintyStatus<'q> {
    query: &'q Query,
    /// The verdict of the last refresh; `None` before the first.
    certain: Option<bool>,
    /// Where the last refresh left the configuration's growth.
    cursor: GrowthCursor,
}

impl<'q> CertaintyStatus<'q> {
    /// A status for `query` that has not looked at any configuration yet.
    pub fn new(query: &'q Query) -> Self {
        Self {
            query,
            certain: None,
            cursor: GrowthCursor::default(),
        }
    }

    /// Whether the last refresh found the query certain. Certainty never
    /// reverts, so this stays `true` once it is.
    pub fn is_known_certain(&self) -> bool {
        self.certain == Some(true)
    }

    /// Brings the status up to date with `conf` and returns whether the
    /// query is certain there. The first refresh evaluates the query in
    /// full; later ones search only the matches through a row committed
    /// since the previous refresh. A debug build checks every such search
    /// against [`is_certain`].
    ///
    /// # Panics
    ///
    /// If `conf` has an installed read recorder: the status's reads must not
    /// leak into a verdict's read set.
    pub fn refresh(&mut self, conf: &Configuration) -> bool {
        let store = conf.store();
        assert!(
            !store.is_recording_reads(),
            "certainty status refreshed inside a read-recording region"
        );
        let certain = match self.certain {
            Some(true) => return true,
            None => {
                self.cursor = GrowthCursor::at(store);
                is_certain(self.query, conf)
            }
            Some(false) => {
                let growth = self.cursor.advance(store);
                if growth.is_empty() {
                    return false;
                }
                // Every new match maps some atom onto a new row. The rest
                // of its disjunct is joined as a full evaluation joins it,
                // most constrained atom first: the pinned atom's bound
                // variables make its neighbours the cheap place to start.
                let certain = self.query.ucq().iter().any(|d| {
                    d.atoms().iter().any(|atom| {
                        growth.rows(atom.relation()).iter().any(|row| {
                            Valuation::new().unify_atom(atom, row).is_some_and(|v| {
                                eval::find_homomorphism(d.atoms(), store, &v).is_some()
                            })
                        })
                    })
                });
                debug_assert_eq!(
                    certain,
                    is_certain(self.query, conf),
                    "semi-naive certainty diverged from a full evaluation"
                );
                certain
            }
        };
        self.certain = Some(certain);
        certain
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::atom::Term;
    use crate::pq::PositiveQuery;
    use accrel_schema::{tuple, AdomPrecision, Schema};
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
        assert!(!is_certain(&Query::Pq(pq.clone()), &conf));
        conf.insert_named("S", ["v"]).unwrap();
        assert!(is_certain_cq(&cq, &conf));
        assert!(is_certain(&Query::Pq(pq), &conf));
    }

    #[test]
    fn status_follows_the_rows_committed_between_refreshes() {
        let s = schema();
        let mut qb = ConjunctiveQuery::builder(s.clone());
        let x = qb.var("x");
        qb.atom("R", vec![Term::Var(x), Term::constant("5")])
            .unwrap();
        qb.atom("S", vec![Term::Var(x)]).unwrap();
        let q: Query = qb.build().into();
        let mut conf = Configuration::empty(s);
        let mut status = CertaintyStatus::new(&q);
        assert!(!status.refresh(&conf));
        conf.insert_named("R", ["3", "5"]).unwrap();
        assert!(!status.refresh(&conf));
        conf.insert_named("S", ["4"]).unwrap();
        assert!(!status.refresh(&conf));
        // Two rows between refreshes: the match uses the later one.
        conf.insert_named("R", ["4", "6"]).unwrap();
        conf.insert_named("S", ["3"]).unwrap();
        assert!(status.refresh(&conf));
        assert!(status.is_known_certain());
    }

    fn unary_s_query() -> Query {
        let mut qb = ConjunctiveQuery::builder(schema());
        let x = qb.var("x");
        qb.atom("S", vec![Term::Var(x)]).unwrap();
        qb.build().into()
    }

    #[test]
    #[should_panic(expected = "read-recording region")]
    fn status_refuses_to_refresh_inside_a_read_recording_region() {
        let q = unary_s_query();
        let mut conf = Configuration::empty(schema());
        let mut status = CertaintyStatus::new(&q);
        conf.begin_read_tracking_with(AdomPrecision::Precise);
        status.refresh(&conf);
    }
}
