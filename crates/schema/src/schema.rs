//! Schemas: named collections of domains and relations.

use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

use crate::domain::{Domain, DomainId};
use crate::error::SchemaError;
use crate::relation::{Attribute, Relation, RelationId};
use crate::Result;

/// A database schema: a set of abstract domains plus a set of relations whose
/// attributes are typed by those domains.
///
/// Schemas are immutable once built (construct them with [`SchemaBuilder`])
/// and are shared by `Arc` across instances, configurations, queries and
/// access-method sets.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Schema {
    domains: Vec<Domain>,
    relations: Vec<Relation>,
    domain_names: HashMap<String, DomainId>,
    relation_names: HashMap<String, RelationId>,
}

impl Schema {
    /// Starts building a schema.
    pub fn builder() -> SchemaBuilder {
        SchemaBuilder::new()
    }

    /// All domains, indexed by [`DomainId`].
    pub fn domains(&self) -> &[Domain] {
        &self.domains
    }

    /// All relations, indexed by [`RelationId`].
    pub fn relations(&self) -> &[Relation] {
        &self.relations
    }

    /// Number of relations in the schema.
    pub fn relation_count(&self) -> usize {
        self.relations.len()
    }

    /// Number of domains in the schema.
    pub fn domain_count(&self) -> usize {
        self.domains.len()
    }

    /// Iterates over `(RelationId, &Relation)` pairs.
    pub fn relations_with_ids(&self) -> impl Iterator<Item = (RelationId, &Relation)> {
        self.relations
            .iter()
            .enumerate()
            .map(|(i, r)| (RelationId(i as u32), r))
    }

    /// Resolves a relation id, failing if out of range.
    pub fn relation(&self, id: RelationId) -> Result<&Relation> {
        self.relations
            .get(id.index())
            .ok_or(SchemaError::InvalidRelationId(id))
    }

    /// Resolves a domain id, failing if out of range.
    pub fn domain(&self, id: DomainId) -> Result<&Domain> {
        self.domains
            .get(id.index())
            .ok_or(SchemaError::InvalidDomainId(id))
    }

    /// Looks up a relation by name.
    pub fn relation_by_name(&self, name: &str) -> Result<RelationId> {
        self.relation_names
            .get(name)
            .copied()
            .ok_or_else(|| SchemaError::UnknownRelation(name.to_string()))
    }

    /// Looks up a domain by name.
    pub fn domain_by_name(&self, name: &str) -> Result<DomainId> {
        self.domain_names
            .get(name)
            .copied()
            .ok_or_else(|| SchemaError::UnknownDomain(name.to_string()))
    }

    /// The arity of the given relation.
    pub fn arity(&self, id: RelationId) -> Result<usize> {
        Ok(self.relation(id)?.arity())
    }

    /// The domain of attribute `position` of relation `id`.
    pub fn domain_of(&self, id: RelationId, position: usize) -> Result<DomainId> {
        let rel = self.relation(id)?;
        if position >= rel.arity() {
            return Err(SchemaError::InvalidPosition {
                relation: id,
                position,
            });
        }
        Ok(rel.domain_at(position))
    }

    /// The maximum arity over all relations (0 for an empty schema).
    pub fn max_arity(&self) -> usize {
        self.relations
            .iter()
            .map(Relation::arity)
            .max()
            .unwrap_or(0)
    }
}

impl fmt::Display for Schema {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "schema {{")?;
        for d in &self.domains {
            writeln!(f, "  domain {d}")?;
        }
        for r in &self.relations {
            writeln!(f, "  relation {r}")?;
        }
        write!(f, "}}")
    }
}

/// Incremental builder for [`Schema`].
///
/// ```
/// use accrel_schema::Schema;
/// let mut b = Schema::builder();
/// let emp_id = b.domain("EmpId").unwrap();
/// let off_id = b.domain("OffId").unwrap();
/// let text = b.domain("Text").unwrap();
/// b.relation("Employee", &[("EmpId", emp_id), ("Title", text), ("OffId", off_id)])
///     .unwrap();
/// let schema = b.build();
/// assert_eq!(schema.relation_count(), 1);
/// ```
#[derive(Debug, Default)]
pub struct SchemaBuilder {
    domains: Vec<Domain>,
    relations: Vec<Relation>,
    domain_names: HashMap<String, DomainId>,
    relation_names: HashMap<String, RelationId>,
}

impl SchemaBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds (or fails on duplicate) a domain with the given name.
    pub fn domain(&mut self, name: impl Into<String>) -> Result<DomainId> {
        let name = name.into();
        if self.domain_names.contains_key(&name) {
            return Err(SchemaError::DuplicateDomain(name));
        }
        let id = DomainId(self.domains.len() as u32);
        self.domain_names.insert(name.clone(), id);
        self.domains.push(Domain::new(name));
        Ok(id)
    }

    /// Adds a relation with named, typed attributes.
    pub fn relation(
        &mut self,
        name: impl Into<String>,
        attributes: &[(&str, DomainId)],
    ) -> Result<RelationId> {
        let name = name.into();
        if self.relation_names.contains_key(&name) {
            return Err(SchemaError::DuplicateRelation(name));
        }
        for (_, d) in attributes {
            if d.index() >= self.domains.len() {
                return Err(SchemaError::InvalidDomainId(*d));
            }
        }
        let id = RelationId(self.relations.len() as u32);
        self.relation_names.insert(name.clone(), id);
        self.relations.push(Relation::new(
            name,
            attributes
                .iter()
                .map(|(n, d)| Attribute::new(*n, *d))
                .collect(),
        ));
        Ok(id)
    }

    /// Adds a relation whose attributes all share a single domain and get
    /// positional names `a0, a1, ...`. Convenient for synthetic workloads.
    pub fn relation_uniform(
        &mut self,
        name: impl Into<String>,
        arity: usize,
        domain: DomainId,
    ) -> Result<RelationId> {
        let attrs: Vec<(String, DomainId)> =
            (0..arity).map(|i| (format!("a{i}"), domain)).collect();
        let borrowed: Vec<(&str, DomainId)> = attrs.iter().map(|(n, d)| (n.as_str(), *d)).collect();
        self.relation(name, &borrowed)
    }

    /// Adds a relation given explicit per-position domains with positional
    /// attribute names `a0, a1, ...`.
    pub fn relation_with_domains(
        &mut self,
        name: impl Into<String>,
        domains: &[DomainId],
    ) -> Result<RelationId> {
        let attrs: Vec<(String, DomainId)> = domains
            .iter()
            .enumerate()
            .map(|(i, d)| (format!("a{i}"), *d))
            .collect();
        let borrowed: Vec<(&str, DomainId)> = attrs.iter().map(|(n, d)| (n.as_str(), *d)).collect();
        self.relation(name, &borrowed)
    }

    /// Finalises the schema.
    pub fn build(self) -> Arc<Schema> {
        Arc::new(Schema {
            domains: self.domains,
            relations: self.relations,
            domain_names: self.domain_names,
            relation_names: self.relation_names,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bank_schema() -> Arc<Schema> {
        // The motivating schema from Section 1 of the paper.
        let mut b = Schema::builder();
        let emp = b.domain("EmpId").unwrap();
        let text = b.domain("Text").unwrap();
        let off = b.domain("OffId").unwrap();
        let state = b.domain("State").unwrap();
        let offering = b.domain("Offering").unwrap();
        b.relation(
            "Employee",
            &[
                ("EmpId", emp),
                ("Title", text),
                ("LastName", text),
                ("FirstName", text),
                ("OffId", off),
            ],
        )
        .unwrap();
        b.relation(
            "Office",
            &[
                ("OffId", off),
                ("StreetAddress", text),
                ("State", state),
                ("Phone", text),
            ],
        )
        .unwrap();
        b.relation("Approval", &[("State", state), ("Offering", offering)])
            .unwrap();
        b.relation("Manager", &[("Mgr", emp), ("Sub", emp)])
            .unwrap();
        b.build()
    }

    #[test]
    fn builds_the_bank_schema_of_section_1() {
        let s = bank_schema();
        assert_eq!(s.relation_count(), 4);
        assert_eq!(s.domain_count(), 5);
        let emp = s.relation_by_name("Employee").unwrap();
        assert_eq!(s.arity(emp).unwrap(), 5);
        let office = s.relation_by_name("Office").unwrap();
        assert_eq!(
            s.domain_of(office, 2).unwrap(),
            s.domain_by_name("State").unwrap()
        );
        assert_eq!(s.max_arity(), 5);
    }

    #[test]
    fn duplicate_names_are_rejected() {
        let mut b = Schema::builder();
        let d = b.domain("D").unwrap();
        assert_eq!(b.domain("D"), Err(SchemaError::DuplicateDomain("D".into())));
        b.relation("R", &[("a", d)]).unwrap();
        assert_eq!(
            b.relation("R", &[("a", d)]),
            Err(SchemaError::DuplicateRelation("R".into()))
        );
    }

    #[test]
    fn unknown_lookups_fail() {
        let s = bank_schema();
        assert!(matches!(
            s.relation_by_name("Nope"),
            Err(SchemaError::UnknownRelation(_))
        ));
        assert!(matches!(
            s.domain_by_name("Nope"),
            Err(SchemaError::UnknownDomain(_))
        ));
        assert!(matches!(
            s.relation(RelationId(99)),
            Err(SchemaError::InvalidRelationId(_))
        ));
        assert!(matches!(
            s.domain(DomainId(99)),
            Err(SchemaError::InvalidDomainId(_))
        ));
        let office = s.relation_by_name("Office").unwrap();
        assert!(matches!(
            s.domain_of(office, 10),
            Err(SchemaError::InvalidPosition { .. })
        ));
    }

    #[test]
    fn relation_with_bad_domain_is_rejected() {
        let mut b = Schema::builder();
        assert!(matches!(
            b.relation("R", &[("a", DomainId(7))]),
            Err(SchemaError::InvalidDomainId(_))
        ));
    }

    #[test]
    fn uniform_and_typed_helpers() {
        let mut b = Schema::builder();
        let d = b.domain("D").unwrap();
        let e = b.domain("E").unwrap();
        let r = b.relation_uniform("R", 3, d).unwrap();
        let s = b.relation_with_domains("S", &[d, e]).unwrap();
        let schema = b.build();
        assert_eq!(schema.arity(r).unwrap(), 3);
        assert_eq!(schema.domain_of(s, 1).unwrap(), e);
        assert_eq!(schema.relation(r).unwrap().attributes()[2].name(), "a2");
    }

    #[test]
    fn display_mentions_relations_and_domains() {
        let s = bank_schema();
        let text = s.to_string();
        assert!(text.contains("relation Employee"));
        assert!(text.contains("domain State"));
        assert!(text.starts_with("schema {"));
    }

    #[test]
    fn relations_with_ids_enumerates_in_order() {
        let s = bank_schema();
        let ids: Vec<u32> = s.relations_with_ids().map(|(id, _)| id.0).collect();
        assert_eq!(ids, vec![0, 1, 2, 3]);
        assert_eq!(s.relations()[0].name(), "Employee");
        assert_eq!(s.domains()[0].name(), "EmpId");
    }
}
