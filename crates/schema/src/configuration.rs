//! Configurations: the partial views of an instance known to the engine.

use std::collections::HashSet;
use std::fmt;
use std::sync::Arc;

use crate::domain::DomainId;
use crate::relation::RelationId;
use crate::schema::Schema;
use crate::store::{AdomPrecision, Fact, FactStore, ReadSet};
use crate::tuple::Tuple;
use crate::value::{FreshSupply, Value};
use crate::Result;

/// A *configuration*: the set of facts the query engine has learnt so far
/// (Section 2 of the paper).
///
/// A configuration for an instance `I` is a subset of `I`; a configuration in
/// general is any set of facts that is a configuration for *some* instance —
/// i.e. simply a finite set of well-typed facts. Configurations grow
/// monotonically as accesses are performed; `accrel-access` implements the
/// successor-configuration semantics.
///
/// Cloning a configuration is **O(relations)**, not O(facts): the underlying
/// [`FactStore`] shares the base of its relation shards, interner and
/// active-domain cache with every clone, and each handle appends to tails
/// of its own (see the `store` module docs). [`Configuration::snapshot`]
/// is the intention-revealing name for that cheap clone: a configuration
/// that crosses a thread or outlives a call (a run's working copy) is a
/// snapshot, and [`Configuration::shard_copies`] exposes how many shard
/// tails a handle has actually had to copy. The decision procedures never write a
/// configuration; they evaluate hypothetical facts as an overlay on it.
#[derive(Clone, Debug)]
pub struct Configuration {
    store: FactStore,
}

impl Configuration {
    /// The empty configuration (consistent with every instance).
    pub fn empty(schema: Arc<Schema>) -> Self {
        Self {
            store: FactStore::new(schema),
        }
    }

    /// Wraps an existing fact store as a configuration.
    pub fn from_store(store: FactStore) -> Self {
        Self { store }
    }

    /// Builds a configuration directly from a list of facts (bulk-loaded).
    pub fn from_facts<I: IntoIterator<Item = Fact>>(schema: Arc<Schema>, facts: I) -> Result<Self> {
        let mut conf = Configuration::empty(schema);
        conf.extend_facts(facts)?;
        Ok(conf)
    }

    /// Bulk-loads facts into the configuration; returns how many were new.
    /// See [`FactStore::extend_facts`] for the batching behaviour.
    pub fn extend_facts<I: IntoIterator<Item = Fact>>(&mut self, facts: I) -> Result<usize> {
        self.store.extend_facts(facts)
    }

    /// The schema of the configuration.
    pub fn schema(&self) -> &Arc<Schema> {
        self.store.schema()
    }

    /// Read access to the underlying fact store.
    pub fn store(&self) -> &FactStore {
        &self.store
    }

    /// An O(relations) copy-on-write snapshot of the configuration.
    ///
    /// Identical to `clone()`; the name documents intent at call sites that
    /// hand a configuration to a worker: the snapshot shares both levels of
    /// every shard with `self`. Either side's writes append to tails of its
    /// own and leave the shared bases as they are, so the snapshot's first
    /// growing write copies nothing, however large `self` is; a write copies
    /// only a tail the other side still shares (one `self` had grown before
    /// the snapshot).
    pub fn snapshot(&self) -> Configuration {
        self.clone()
    }

    /// How many copy-on-write shard copies this handle has performed (see
    /// [`FactStore::shard_copies`]): only a write to a shard tail another
    /// handle shares copies it. Zero for handles that only read.
    pub fn shard_copies(&self) -> u64 {
        self.store.shard_copies()
    }

    /// Does nothing (see [`FactStore::own_all_shards`]).
    pub fn own_all_shards(&mut self) {
        self.store.own_all_shards()
    }

    /// Installs a read recorder with a whole-adom-walk precision on the
    /// underlying store (see [`FactStore::begin_read_tracking_with`] and
    /// [`AdomPrecision`]).
    pub fn begin_read_tracking_with(&mut self, precision: AdomPrecision) {
        self.store.begin_read_tracking_with(precision)
    }

    /// Uninstalls the read recorder and returns the recorded [`ReadSet`].
    pub fn take_read_set(&mut self) -> ReadSet {
        self.store.take_read_set()
    }

    /// Does nothing. Growth is read from the store's append-only logs
    /// through a [`crate::GrowthCursor`], so there is no event capture to
    /// switch on. Kept only because the benchmark package's traced replay
    /// calls it (ROADMAP direction 3).
    pub fn set_event_capture(&mut self, _enabled: bool) {}

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

    /// Membership test for a [`Fact`].
    pub fn contains_fact(&self, fact: &Fact) -> bool {
        self.store.contains_fact(fact)
    }

    /// Total number of facts.
    pub fn len(&self) -> usize {
        self.store.len()
    }

    /// Whether the configuration holds no facts.
    pub fn is_empty(&self) -> bool {
        self.store.is_empty()
    }

    /// All facts of the configuration.
    pub fn facts(&self) -> impl Iterator<Item = Fact> + '_ {
        self.store.facts()
    }

    /// Deterministic, sorted list of all facts.
    pub fn sorted_facts(&self) -> Vec<Fact> {
        self.store.sorted_facts()
    }

    /// The active domain `Adom(Conf)`: all `(constant, domain)` pairs
    /// appearing in the configuration. Served from the store's maintained
    /// cache.
    pub fn active_domain(&self) -> HashSet<(Value, DomainId)> {
        self.store.active_domain()
    }

    /// Like [`Configuration::active_domain`] but never recorded — for walk
    /// sites that record what they consulted themselves via
    /// [`Configuration::rec_adom_walk`] (see
    /// [`FactStore::active_domain_untracked`]).
    pub fn active_domain_untracked(&self) -> HashSet<(Value, DomainId)> {
        self.store.active_domain_untracked()
    }

    /// Records a per-domain active-domain walk at the installed recorder's
    /// precision (see [`FactStore::rec_adom_walk`]).
    pub fn rec_adom_walk(&self, domain: DomainId, upto: Option<&Value>) {
        self.store.rec_adom_walk(domain, upto)
    }

    /// Records an untyped whole-active-domain walk (see
    /// [`FactStore::rec_adom_global`]).
    pub fn rec_adom_global(&self) {
        self.store.rec_adom_global()
    }

    /// Is `(value, domain)` in the active domain? A pair of hash probes —
    /// no materialisation of the full active domain.
    pub fn adom_contains(&self, value: &Value, domain: DomainId) -> bool {
        self.store.adom_contains(value, domain)
    }

    /// Values of the active domain of one abstract domain, sorted.
    pub fn values_of_domain(&self, domain: DomainId) -> Vec<Value> {
        self.store.values_of_domain(domain)
    }

    /// All values appearing in the configuration, sorted and deduplicated.
    pub fn all_values(&self) -> Vec<Value> {
        self.store.all_values()
    }

    /// A supply of fresh values none of which occurs in the configuration,
    /// in O(1): it starts above every fresh value the store has interned.
    /// Never recorded under a read recorder: verdicts are invariant under
    /// renaming of fresh values, so where the supply starts is not a read
    /// (recording the active domain here would make every verdict depend
    /// on all of it).
    pub fn fresh_supply(&self) -> FreshSupply {
        FreshSupply::starting_at(self.store.interner().fresh_floor())
    }

    /// Tuples of `relation` matching `binding` on `positions`.
    pub fn matching(
        &self,
        relation: RelationId,
        positions: &[usize],
        binding: &[Value],
    ) -> Vec<Tuple> {
        self.store.matching(relation, positions, binding)
    }

    /// Returns `true` when every fact of `self` is also in `other`.
    pub fn is_subset_of(&self, other: &Configuration) -> bool {
        self.store.is_subset_of(other.store())
    }

    /// Set-equality of configurations (same facts).
    pub fn same_facts(&self, other: &Configuration) -> bool {
        self.is_subset_of(other) && other.is_subset_of(self)
    }

    /// Returns a new configuration extended with the given facts.
    pub fn with_facts<I: IntoIterator<Item = Fact>>(&self, facts: I) -> Result<Configuration> {
        let mut next = self.clone();
        for (rel, t) in facts {
            next.insert(rel, t)?;
        }
        Ok(next)
    }

    /// Returns a new configuration that is the union of `self` and `other`.
    pub fn union(&self, other: &Configuration) -> Configuration {
        let mut next = self.clone();
        next.store.extend_from(other.store());
        next
    }

    /// A compact deterministic fingerprint of the configuration's facts,
    /// independent of insertion order. The serving layer hashes it into the
    /// verdict class its sessions share cached verdicts under.
    pub fn fingerprint(&self) -> String {
        let mut out = String::new();
        for (rel, t) in self.sorted_facts() {
            out.push_str(&format!("{}{};", rel.0, t));
        }
        out
    }
}

impl fmt::Display for Configuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.store)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instance::Instance;
    use crate::tuple::tuple;

    fn schema() -> Arc<Schema> {
        let mut b = Schema::builder();
        let emp = b.domain("EmpId").unwrap();
        let off = b.domain("OffId").unwrap();
        b.relation("EmpOff", &[("emp", emp), ("off", off)]).unwrap();
        b.relation("Mgr", &[("mgr", emp), ("sub", emp)]).unwrap();
        b.build()
    }

    #[test]
    fn empty_configuration_is_consistent_with_everything() {
        let s = schema();
        let conf = Configuration::empty(s.clone());
        let mut i = Instance::new(s);
        i.insert_named("EmpOff", ["e1", "o1"]).unwrap();
        assert!(i.is_consistent(&conf));
        assert!(conf.is_empty());
        assert_eq!(conf.len(), 0);
    }

    #[test]
    fn active_domain_distinguishes_domains() {
        let s = schema();
        let emp = s.domain_by_name("EmpId").unwrap();
        let off = s.domain_by_name("OffId").unwrap();
        let mut conf = Configuration::empty(s);
        conf.insert_named("EmpOff", ["e1", "o1"]).unwrap();
        conf.insert_named("Mgr", ["e2", "e1"]).unwrap();
        assert_eq!(
            conf.values_of_domain(emp),
            vec![Value::sym("e1"), Value::sym("e2")]
        );
        assert_eq!(conf.values_of_domain(off), vec![Value::sym("o1")]);
        assert!(conf.active_domain().contains(&(Value::sym("o1"), off)));
        assert!(!conf.active_domain().contains(&(Value::sym("o1"), emp)));
        assert_eq!(conf.all_values().len(), 3);
    }

    #[test]
    fn subset_union_and_equality() {
        let s = schema();
        let mut a = Configuration::empty(s.clone());
        a.insert_named("EmpOff", ["e1", "o1"]).unwrap();
        let mut b = a.clone();
        b.insert_named("Mgr", ["e2", "e1"]).unwrap();
        assert!(a.is_subset_of(&b));
        assert!(!b.is_subset_of(&a));
        assert!(!a.same_facts(&b));
        let u = a.union(&b);
        assert!(u.same_facts(&b));
        let rel = s.relation_by_name("Mgr").unwrap();
        let extended = a.with_facts(vec![(rel, tuple(["e2", "e1"]))]).unwrap();
        assert!(extended.same_facts(&b));
    }

    #[test]
    fn from_facts_and_matching() {
        let s = schema();
        let rel = s.relation_by_name("EmpOff").unwrap();
        let conf = Configuration::from_facts(
            s,
            vec![(rel, tuple(["e1", "o1"])), (rel, tuple(["e1", "o2"]))],
        )
        .unwrap();
        assert_eq!(conf.matching(rel, &[0], &[Value::sym("e1")]).len(), 2);
        assert!(conf.contains(rel, &tuple(["e1", "o2"])));
        assert!(conf.contains_fact(&(rel, tuple(["e1", "o1"]))));
        assert_eq!(conf.facts().count(), 2);
        assert_eq!(conf.sorted_facts().len(), 2);
    }

    #[test]
    fn a_snapshot_of_a_large_configuration_grows_without_copying() {
        let s = schema();
        let rel = s.relation_by_name("EmpOff").unwrap();
        let facts = (0..10_000).map(|i| (rel, tuple([format!("e{i}"), format!("o{}", i % 97)])));
        let conf = Configuration::from_facts(s, facts).unwrap();
        let mut snap = conf.snapshot();
        let copies = snap.shard_copies();
        let fresh = tuple(["e-new", "o1"]);
        assert!(snap.insert(rel, fresh.clone()).unwrap());
        assert_eq!(snap.shard_copies(), copies);
        assert_eq!((conf.len(), snap.len()), (10_000, 10_001));
        let interned = |c: &Configuration| c.store().interner().len();
        assert_eq!(interned(&snap), interned(&conf) + 1);
        assert!(snap.contains(rel, &fresh) && !conf.contains(rel, &fresh));
        assert!(conf.is_subset_of(&snap) && !snap.is_subset_of(&conf));
    }

    #[test]
    fn fingerprint_is_deterministic_and_distinguishes_configs() {
        let s = schema();
        let mut a = Configuration::empty(s.clone());
        a.insert_named("EmpOff", ["e1", "o1"]).unwrap();
        a.insert_named("EmpOff", ["e2", "o2"]).unwrap();
        let mut b = Configuration::empty(s);
        b.insert_named("EmpOff", ["e2", "o2"]).unwrap();
        b.insert_named("EmpOff", ["e1", "o1"]).unwrap();
        assert_eq!(a.fingerprint(), b.fingerprint());
        b.insert_named("Mgr", ["e1", "e2"]).unwrap();
        assert_ne!(a.fingerprint(), b.fingerprint());
    }

    #[test]
    fn display_prints_relation_names() {
        let s = schema();
        let mut conf = Configuration::empty(s);
        conf.insert_named("Mgr", ["boss", "worker"]).unwrap();
        assert!(conf.to_string().contains("Mgr(boss, worker)"));
        conf.insert_named("EmpOff", ["e", "o"]).unwrap();
        assert_eq!(conf.store().len(), 2);
    }
}
