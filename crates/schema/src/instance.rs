//! Database instances.

use std::fmt;
use std::sync::Arc;

use crate::configuration::Configuration;
use crate::relation::RelationId;
use crate::schema::Schema;
use crate::store::{Fact, FactStore};
use crate::tuple::Tuple;
use crate::value::Value;
use crate::Result;

/// A database instance `I` for a schema: the (virtual, source-side) complete
/// content of every relation.
///
/// In the paper's model the instance is never fully visible to the query
/// engine; the engine only sees a [`Configuration`] consistent with it and
/// grows that configuration by making accesses. Instances are used here as
/// the hidden ground truth behind the simulated deep-Web sources
/// (`accrel-engine`) and as witness structures constructed by the decision
/// procedures.
#[derive(Clone, Debug)]
pub struct Instance {
    store: FactStore,
}

impl Instance {
    /// Creates an empty instance over `schema`.
    pub fn new(schema: Arc<Schema>) -> Self {
        Self {
            store: FactStore::new(schema),
        }
    }

    /// Creates an instance from an existing fact store.
    pub fn from_store(store: FactStore) -> Self {
        Self { store }
    }

    /// The schema of the instance.
    pub fn schema(&self) -> &Arc<Schema> {
        self.store.schema()
    }

    /// Read access to the underlying fact store.
    pub fn store(&self) -> &FactStore {
        &self.store
    }

    /// Inserts a fact, checking arity.
    pub fn insert(&mut self, relation: RelationId, t: Tuple) -> Result<bool> {
        self.store.insert(relation, t)
    }

    /// Inserts a fact by relation name.
    pub fn insert_named<V: Into<Value>, I: IntoIterator<Item = V>>(
        &mut self,
        relation: &str,
        values: I,
    ) -> Result<bool> {
        self.store.insert_named(relation, values)
    }

    /// Membership test.
    pub fn contains(&self, relation: RelationId, t: &Tuple) -> bool {
        self.store.contains(relation, t)
    }

    /// Total number of facts.
    pub fn len(&self) -> usize {
        self.store.len()
    }

    /// Whether the instance holds no facts.
    pub fn is_empty(&self) -> bool {
        self.store.is_empty()
    }

    /// All facts of the instance.
    pub fn facts(&self) -> impl Iterator<Item = Fact> + '_ {
        self.store.facts()
    }

    /// The tuples of `relation` matching `binding` on `positions`
    /// (`I(Bind, S)` in the paper).
    pub fn matching(
        &self,
        relation: RelationId,
        positions: &[usize],
        binding: &[Value],
    ) -> Vec<Tuple> {
        self.store.matching(relation, positions, binding)
    }

    /// The configuration containing every fact of the instance (total view).
    ///
    /// O(relations): the returned configuration shares the instance's
    /// copy-on-write shards, and each side appends to tails of its own —
    /// cheap even for million-fact instances.
    pub fn full_configuration(&self) -> Configuration {
        Configuration::from_store(self.store.clone())
    }

    /// Returns `true` when `conf` is consistent with this instance, i.e.
    /// `conf ⊆ I`.
    pub fn is_consistent(&self, conf: &Configuration) -> bool {
        conf.store().is_subset_of(&self.store)
    }

    /// Builds an instance directly from a list of facts.
    pub fn from_facts<I: IntoIterator<Item = Fact>>(schema: Arc<Schema>, facts: I) -> Result<Self> {
        let mut inst = Instance::new(schema);
        for (rel, t) in facts {
            inst.insert(rel, t)?;
        }
        Ok(inst)
    }
}

impl fmt::Display for Instance {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.store)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tuple::tuple;

    fn schema() -> Arc<Schema> {
        let mut b = Schema::builder();
        let d = b.domain("D").unwrap();
        b.relation("R", &[("a", d), ("b", d)]).unwrap();
        b.relation("S", &[("a", d)]).unwrap();
        b.build()
    }

    #[test]
    fn basic_population() {
        let mut i = Instance::new(schema());
        assert!(i.is_empty());
        i.insert_named("R", ["1", "2"]).unwrap();
        i.insert_named("S", ["1"]).unwrap();
        assert_eq!(i.len(), 2);
        let r = i.schema().relation_by_name("R").unwrap();
        assert!(i.contains(r, &tuple(["1", "2"])));
        assert_eq!(i.facts().count(), 2);
        assert!(i.to_string().contains("R(1, 2)"));
    }

    #[test]
    fn configurations_from_instance() {
        let mut i = Instance::new(schema());
        i.insert_named("R", ["1", "2"]).unwrap();
        let empty = Configuration::empty(i.schema().clone());
        let full = i.full_configuration();
        assert!(i.is_consistent(&empty));
        assert!(i.is_consistent(&full));
        assert_eq!(full.len(), 1);
    }

    #[test]
    fn inconsistent_configuration_detected() {
        let mut i = Instance::new(schema());
        i.insert_named("R", ["1", "2"]).unwrap();
        let mut conf = Configuration::empty(i.schema().clone());
        conf.insert_named("R", ["9", "9"]).unwrap();
        assert!(!i.is_consistent(&conf));
    }

    #[test]
    fn from_facts_and_matching() {
        let s = schema();
        let r = s.relation_by_name("R").unwrap();
        let i =
            Instance::from_facts(s, vec![(r, tuple(["a", "b"])), (r, tuple(["a", "c"]))]).unwrap();
        assert_eq!(i.matching(r, &[0], &[Value::sym("a")]).len(), 2);
        assert_eq!(i.matching(r, &[1], &[Value::sym("c")]).len(), 1);
        assert_eq!(i.store().len(), 2);
    }

    #[test]
    fn an_instance_rebuilt_from_its_store_keeps_its_facts() {
        let mut i = Instance::new(schema());
        i.insert_named("S", ["x"]).unwrap();
        assert_eq!(i.len(), 1);
        let from_store = Instance::from_store(i.store().clone());
        assert_eq!(from_store.len(), 1);
    }
}
