//! Access methods and their registry.

use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

use accrel_schema::{DomainId, RelationId, Schema};

use crate::error::AccessError;
use crate::Result;

/// Identifier of an access method within an [`AccessMethods`] registry.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct AccessMethodId(pub u32);

impl AccessMethodId {
    /// The raw index of the method.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for AccessMethodId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "acm#{}", self.0)
    }
}

/// Whether an access method requires its input values to come from the
/// configuration (dependent) or allows arbitrary guessed values
/// (independent). See Section 2 of the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AccessMode {
    /// Input values must appear, in the right abstract domain, in the
    /// configuration's active domain.
    Dependent,
    /// Input values may be arbitrary ("free guess").
    Independent,
}

impl fmt::Display for AccessMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AccessMode::Dependent => write!(f, "dependent"),
            AccessMode::Independent => write!(f, "independent"),
        }
    }
}

/// An access method: a source relation, the positions of its input
/// attributes, and its [`AccessMode`].
///
/// * a method with **no input attributes** is a *free access*;
/// * a method whose input attributes cover **all** attributes is a *Boolean
///   access*: it can only confirm membership of the bound tuple.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AccessMethod {
    name: String,
    relation: RelationId,
    input_positions: Vec<usize>,
    mode: AccessMode,
}

impl AccessMethod {
    /// Creates a method. Prefer [`AccessMethodsBuilder::add`], which also
    /// validates input positions against the schema.
    pub fn new(
        name: impl Into<String>,
        relation: RelationId,
        input_positions: Vec<usize>,
        mode: AccessMode,
    ) -> Self {
        Self {
            name: name.into(),
            relation,
            input_positions,
            mode,
        }
    }

    /// The method's name (e.g. `"EmpOffAcc"`).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The relation the method gives access to.
    pub fn relation(&self) -> RelationId {
        self.relation
    }

    /// The positions of the input attributes, in binding order.
    pub fn input_positions(&self) -> &[usize] {
        &self.input_positions
    }

    /// The method's mode (dependent or independent).
    pub fn mode(&self) -> AccessMode {
        self.mode
    }

    /// `true` when the input attributes cover the whole relation (Boolean
    /// access): the access can only confirm the presence of the bound tuple.
    pub fn is_boolean(&self, schema: &Schema) -> bool {
        schema
            .arity(self.relation)
            .map(|a| self.input_positions.len() == a)
            .unwrap_or(false)
    }

    /// The output positions (attributes not bound by the input).
    pub fn output_positions(&self, schema: &Schema) -> Vec<usize> {
        let arity = schema.arity(self.relation).unwrap_or(0);
        (0..arity)
            .filter(|p| !self.input_positions.contains(p))
            .collect()
    }

    /// The abstract domains of the input positions, in binding order.
    pub fn input_domains(&self, schema: &Schema) -> Result<Vec<DomainId>> {
        self.input_positions
            .iter()
            .map(|&p| {
                schema
                    .domain_of(self.relation, p)
                    .map_err(AccessError::from)
            })
            .collect()
    }
}

/// The registry of access methods available over a schema — the paper's set
/// `ACS`.
///
/// A relation may have zero, one or several access methods; a relation with
/// no method at all has a fixed content (nothing new can ever be learnt
/// about it), which matters for relevance.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AccessMethods {
    schema: Arc<Schema>,
    methods: Vec<AccessMethod>,
    by_relation: Vec<Vec<AccessMethodId>>,
    by_name: HashMap<String, AccessMethodId>,
}

impl AccessMethods {
    /// Starts building a registry over `schema`.
    pub fn builder(schema: Arc<Schema>) -> AccessMethodsBuilder {
        AccessMethodsBuilder {
            schema,
            methods: Vec::new(),
            by_name: HashMap::new(),
        }
    }

    /// The schema the methods range over.
    pub fn schema(&self) -> &Arc<Schema> {
        &self.schema
    }

    /// All methods, indexed by [`AccessMethodId`].
    pub fn methods(&self) -> &[AccessMethod] {
        &self.methods
    }

    /// Number of registered methods.
    pub fn len(&self) -> usize {
        self.methods.len()
    }

    /// `true` when no method is registered.
    pub fn is_empty(&self) -> bool {
        self.methods.is_empty()
    }

    /// Resolves a method id.
    pub fn get(&self, id: AccessMethodId) -> Result<&AccessMethod> {
        self.methods
            .get(id.index())
            .ok_or(AccessError::UnknownMethod(id))
    }

    /// Resolves a method by name.
    pub fn by_name(&self, name: &str) -> Result<AccessMethodId> {
        self.by_name
            .get(name)
            .copied()
            .ok_or_else(|| AccessError::UnknownMethodName(name.to_string()))
    }

    /// The methods available on one relation.
    pub fn methods_for(&self, relation: RelationId) -> &[AccessMethodId] {
        self.by_relation
            .get(relation.index())
            .map(Vec::as_slice)
            .unwrap_or(&[])
    }

    /// `true` when the relation has at least one access method.
    pub fn has_method(&self, relation: RelationId) -> bool {
        !self.methods_for(relation).is_empty()
    }

    /// Iterates over `(AccessMethodId, &AccessMethod)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (AccessMethodId, &AccessMethod)> {
        self.methods
            .iter()
            .enumerate()
            .map(|(i, m)| (AccessMethodId(i as u32), m))
    }

    /// `true` when every registered method is independent.
    pub fn all_independent(&self) -> bool {
        self.methods
            .iter()
            .all(|m| m.mode() == AccessMode::Independent)
    }

    /// `true` when every registered method is dependent.
    pub fn all_dependent(&self) -> bool {
        self.methods
            .iter()
            .all(|m| m.mode() == AccessMode::Dependent)
    }
}

/// Builder for [`AccessMethods`].
#[derive(Debug, Clone)]
pub struct AccessMethodsBuilder {
    schema: Arc<Schema>,
    methods: Vec<AccessMethod>,
    by_name: HashMap<String, AccessMethodId>,
}

impl AccessMethodsBuilder {
    /// Registers a method on `relation` (given by name) whose input
    /// attributes are given by name.
    pub fn add(
        &mut self,
        name: impl Into<String>,
        relation: &str,
        input_attributes: &[&str],
        mode: AccessMode,
    ) -> Result<AccessMethodId> {
        let rel_id = self.schema.relation_by_name(relation)?;
        let rel = self.schema.relation(rel_id)?;
        let mut positions = Vec::with_capacity(input_attributes.len());
        for attr in input_attributes {
            let pos = rel
                .attribute_position(attr)
                .ok_or(AccessError::InvalidInputPosition {
                    relation: rel_id,
                    position: usize::MAX,
                })?;
            positions.push(pos);
        }
        self.add_positions(name, rel_id, positions, mode)
    }

    /// Registers a method on a relation id with explicit input positions.
    pub fn add_positions(
        &mut self,
        name: impl Into<String>,
        relation: RelationId,
        input_positions: Vec<usize>,
        mode: AccessMode,
    ) -> Result<AccessMethodId> {
        let name = name.into();
        if self.by_name.contains_key(&name) {
            return Err(AccessError::DuplicateMethod(name));
        }
        let arity = self.schema.arity(relation)?;
        for &p in &input_positions {
            if p >= arity {
                return Err(AccessError::InvalidInputPosition {
                    relation,
                    position: p,
                });
            }
        }
        let id = AccessMethodId(self.methods.len() as u32);
        self.by_name.insert(name.clone(), id);
        self.methods
            .push(AccessMethod::new(name, relation, input_positions, mode));
        Ok(id)
    }

    /// Registers a free access method (no input attributes).
    pub fn add_free(
        &mut self,
        name: impl Into<String>,
        relation: &str,
        mode: AccessMode,
    ) -> Result<AccessMethodId> {
        self.add(name, relation, &[], mode)
    }

    /// Registers a Boolean access method (all attributes are inputs).
    pub fn add_boolean(
        &mut self,
        name: impl Into<String>,
        relation: &str,
        mode: AccessMode,
    ) -> Result<AccessMethodId> {
        let rel_id = self.schema.relation_by_name(relation)?;
        let arity = self.schema.arity(rel_id)?;
        self.add_positions(name, rel_id, (0..arity).collect(), mode)
    }

    /// Finalises the registry.
    pub fn build(self) -> AccessMethods {
        let mut by_relation = vec![Vec::new(); self.schema.relation_count()];
        for (i, m) in self.methods.iter().enumerate() {
            if let Some(list) = by_relation.get_mut(m.relation().index()) {
                list.push(AccessMethodId(i as u32));
            }
        }
        AccessMethods {
            schema: self.schema,
            methods: self.methods,
            by_relation,
            by_name: self.by_name,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bank() -> (Arc<Schema>, AccessMethods) {
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
        let schema = b.build();
        // The four Web forms of Section 1.
        let mut mb = AccessMethods::builder(schema.clone());
        mb.add("EmpOffAcc", "Employee", &["EmpId"], AccessMode::Dependent)
            .unwrap();
        mb.add("EmpManAcc", "Manager", &["Sub"], AccessMode::Dependent)
            .unwrap();
        mb.add("OfficeInfoAcc", "Office", &["OffId"], AccessMode::Dependent)
            .unwrap();
        mb.add(
            "StateApprAcc",
            "Approval",
            &["State"],
            AccessMode::Dependent,
        )
        .unwrap();
        (schema, mb.build())
    }

    #[test]
    fn bank_access_methods_of_section_1() {
        let (schema, acs) = bank();
        assert_eq!(acs.len(), 4);
        assert!(!acs.is_empty());
        let emp_off = acs.by_name("EmpOffAcc").unwrap();
        let m = acs.get(emp_off).unwrap();
        assert_eq!(m.name(), "EmpOffAcc");
        assert_eq!(m.input_positions(), &[0]);
        assert_eq!(m.mode(), AccessMode::Dependent);
        assert!(!m.is_boolean(&schema));
        assert_eq!(m.output_positions(&schema), vec![1, 2, 3, 4]);
        let emp_rel = schema.relation_by_name("Employee").unwrap();
        assert_eq!(acs.methods_for(emp_rel).len(), 1);
        assert!(acs.has_method(emp_rel));
        assert!(acs.all_dependent());
        assert!(!acs.all_independent());
        assert_eq!(acs.iter().count(), 4);
        assert_eq!(acs.schema().relation_count(), 4);
        assert_eq!(acs.methods().len(), 4);
    }

    #[test]
    fn input_domains_follow_schema() {
        let (schema, acs) = bank();
        let appr = acs.by_name("StateApprAcc").unwrap();
        let m = acs.get(appr).unwrap();
        let state = schema.domain_by_name("State").unwrap();
        assert_eq!(m.input_domains(&schema).unwrap(), vec![state]);
    }

    #[test]
    fn free_and_boolean_helpers() {
        let (schema, _) = bank();
        let mut mb = AccessMethods::builder(schema.clone());
        let free = mb
            .add_free("AllApprovals", "Approval", AccessMode::Independent)
            .unwrap();
        let boolean = mb
            .add_boolean("ApprovalCheck", "Approval", AccessMode::Dependent)
            .unwrap();
        let acs = mb.build();
        assert!(!acs.get(free).unwrap().is_boolean(&schema));
        assert!(acs.get(boolean).unwrap().is_boolean(&schema));
        assert_eq!(acs.get(boolean).unwrap().input_positions(), &[0, 1]);
        assert!(acs
            .get(boolean)
            .unwrap()
            .output_positions(&schema)
            .is_empty());
        let appr = schema.relation_by_name("Approval").unwrap();
        assert_eq!(acs.methods_for(appr).len(), 2);
        let emp = schema.relation_by_name("Employee").unwrap();
        assert!(!acs.has_method(emp));
    }

    #[test]
    fn registration_errors() {
        let (schema, _) = bank();
        let mut mb = AccessMethods::builder(schema.clone());
        mb.add("A", "Approval", &["State"], AccessMode::Dependent)
            .unwrap();
        assert!(matches!(
            mb.add("A", "Approval", &["State"], AccessMode::Dependent),
            Err(AccessError::DuplicateMethod(_))
        ));
        assert!(matches!(
            mb.add("B", "Nope", &["State"], AccessMode::Dependent),
            Err(AccessError::Schema(_))
        ));
        assert!(matches!(
            mb.add("C", "Approval", &["Nope"], AccessMode::Dependent),
            Err(AccessError::InvalidInputPosition { .. })
        ));
        let appr = schema.relation_by_name("Approval").unwrap();
        assert!(matches!(
            mb.add_positions("D", appr, vec![5], AccessMode::Dependent),
            Err(AccessError::InvalidInputPosition { .. })
        ));
        let acs = mb.build();
        assert!(matches!(
            acs.get(AccessMethodId(42)),
            Err(AccessError::UnknownMethod(_))
        ));
        assert!(matches!(
            acs.by_name("Zzz"),
            Err(AccessError::UnknownMethodName(_))
        ));
    }

    #[test]
    fn mode_and_method_id_display() {
        assert_eq!(AccessMode::Dependent.to_string(), "dependent");
        assert_eq!(AccessMode::Independent.to_string(), "independent");
        assert_eq!(AccessMethodId(2).to_string(), "acm#2");
        assert_eq!(AccessMethodId(2).index(), 2);
    }
}
