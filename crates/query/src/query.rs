//! A unified wrapper over conjunctive and positive queries.

use std::collections::HashSet;
use std::fmt;
use std::sync::Arc;

use accrel_schema::{RelationId, Schema, SchemaError, Value};

use crate::cq::ConjunctiveQuery;
use crate::pq::PositiveQuery;

/// Either a conjunctive query or a positive query.
///
/// The decision procedures of `accrel-core` are parameterised by this type:
/// the complexity of relevance and containment differs between the two query
/// languages (Table 1 of the paper), but the algorithms share their overall
/// structure after normalisation to a union of conjunctive queries.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Query {
    /// A conjunctive query.
    Cq(ConjunctiveQuery),
    /// A positive (existential) query.
    Pq(PositiveQuery),
}

impl Query {
    /// The schema the query ranges over.
    pub fn schema(&self) -> &Arc<Schema> {
        match self {
            Query::Cq(q) => q.schema(),
            Query::Pq(q) => q.schema(),
        }
    }

    /// `true` when the query has no free variables.
    pub fn is_boolean(&self) -> bool {
        match self {
            Query::Cq(q) => q.is_boolean(),
            Query::Pq(q) => q.is_boolean(),
        }
    }

    /// `true` when the query is conjunctive.
    pub fn is_conjunctive(&self) -> bool {
        matches!(self, Query::Cq(_))
    }

    /// Normalises the query to an owned union of conjunctive queries.
    /// Prefer [`Query::ucq`] on hot paths: it borrows the cached expansion
    /// instead of cloning it.
    pub fn to_ucq(&self) -> Vec<ConjunctiveQuery> {
        match self {
            Query::Cq(q) => vec![q.clone()],
            Query::Pq(q) => q.to_ucq(),
        }
    }

    /// The query as a borrowed union of conjunctive queries: a CQ is viewed
    /// as a one-element slice, a PQ borrows its cached DNF expansion (see
    /// [`PositiveQuery::ucq`]).
    pub fn ucq(&self) -> &[ConjunctiveQuery] {
        match self {
            Query::Cq(q) => std::slice::from_ref(q),
            Query::Pq(q) => q.ucq(),
        }
    }

    /// The relations mentioned by the query.
    pub fn relations(&self) -> HashSet<RelationId> {
        match self {
            Query::Cq(q) => q.relations(),
            Query::Pq(q) => q.relations(),
        }
    }

    /// The constants mentioned by the query.
    pub fn constants(&self) -> HashSet<Value> {
        match self {
            Query::Cq(q) => q.constants(),
            Query::Pq(q) => q.constants(),
        }
    }

    /// Total number of atom occurrences.
    pub fn size(&self) -> usize {
        match self {
            Query::Cq(q) => q.atoms().len(),
            Query::Pq(q) => q.size(),
        }
    }

    /// Validates the query against its schema.
    pub fn validate(&self) -> Result<(), SchemaError> {
        match self {
            Query::Cq(q) => q.validate(),
            Query::Pq(q) => q.validate(),
        }
    }
}

impl From<ConjunctiveQuery> for Query {
    fn from(q: ConjunctiveQuery) -> Self {
        Query::Cq(q)
    }
}

impl From<PositiveQuery> for Query {
    fn from(q: PositiveQuery) -> Self {
        Query::Pq(q)
    }
}

impl fmt::Display for Query {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Query::Cq(q) => write!(f, "{q}"),
            Query::Pq(q) => write!(f, "{q}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::atom::Term;

    fn schema() -> Arc<Schema> {
        let mut b = Schema::builder();
        let d = b.domain("D").unwrap();
        b.relation("R", &[("a", d)]).unwrap();
        b.relation("S", &[("a", d)]).unwrap();
        b.build()
    }

    #[test]
    fn wraps_cq() {
        let s = schema();
        let mut qb = ConjunctiveQuery::builder(s);
        let x = qb.var("x");
        qb.atom("R", vec![Term::Var(x)]).unwrap();
        let q: Query = qb.build().into();
        assert!(q.is_boolean());
        assert!(q.is_conjunctive());
        assert_eq!(q.to_ucq().len(), 1);
        assert_eq!(q.size(), 1);
        assert_eq!(q.relations().len(), 1);
        assert!(q.validate().is_ok());
        assert!(q.to_string().contains("R(x)"));
        assert!(q.constants().is_empty());
    }

    #[test]
    fn wraps_pq() {
        let s = schema();
        let mut b = PositiveQuery::builder(s);
        let x = b.var("x");
        let rx = b.atom("R", vec![Term::Var(x)]).unwrap();
        let sx = b.atom("S", vec![Term::constant("c")]).unwrap();
        let q: Query = b.build(rx.or(sx)).into();
        assert!(!q.is_conjunctive());
        assert_eq!(q.to_ucq().len(), 2);
        assert_eq!(q.size(), 2);
        assert!(q.constants().contains(&Value::sym("c")));
        assert_eq!(q.schema().relation_count(), 2);
    }
}
