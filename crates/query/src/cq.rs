//! Conjunctive queries.

use std::collections::{HashMap, HashSet};
use std::fmt;
use std::sync::Arc;

use accrel_schema::{DomainId, RelationId, Schema, SchemaError, Value};

use crate::atom::{Atom, Term, VarId};

/// A conjunctive query (CQ): a conjunction of relational atoms, with a
/// (possibly empty) tuple of free variables.
///
/// A CQ with no free variables is a *Boolean* query; per Proposition 2.2 of
/// the paper all relevance problems reduce in polynomial time to the Boolean
/// case, and most of the decision procedures in `accrel-core` operate on
/// Boolean queries.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConjunctiveQuery {
    schema: Arc<Schema>,
    atoms: Vec<Atom>,
    free_vars: Vec<VarId>,
    var_names: Vec<String>,
}

impl ConjunctiveQuery {
    /// Creates a CQ from raw parts. Prefer [`CqBuilder`] for ergonomic
    /// construction.
    pub fn new(
        schema: Arc<Schema>,
        atoms: Vec<Atom>,
        free_vars: Vec<VarId>,
        var_names: Vec<String>,
    ) -> Self {
        Self {
            schema,
            atoms,
            free_vars,
            var_names,
        }
    }

    /// Starts building a CQ over `schema`.
    pub fn builder(schema: Arc<Schema>) -> CqBuilder {
        CqBuilder::new(schema)
    }

    /// The schema the query is expressed over.
    pub fn schema(&self) -> &Arc<Schema> {
        &self.schema
    }

    /// The atoms (subgoals) of the query.
    pub fn atoms(&self) -> &[Atom] {
        &self.atoms
    }

    /// The free (output) variables.
    pub fn free_vars(&self) -> &[VarId] {
        &self.free_vars
    }

    /// The names of all variables, indexed by [`VarId`].
    pub fn var_names(&self) -> &[String] {
        &self.var_names
    }

    /// The name of one variable (falls back to `?n`).
    pub fn var_name(&self, v: VarId) -> String {
        self.var_names
            .get(v.index())
            .cloned()
            .unwrap_or_else(|| v.to_string())
    }

    /// Number of variables declared in the query.
    pub fn var_count(&self) -> usize {
        self.var_names.len()
    }

    /// `true` when the query has no free variables.
    pub fn is_boolean(&self) -> bool {
        self.free_vars.is_empty()
    }

    /// All variables occurring in the atoms.
    pub fn variables(&self) -> HashSet<VarId> {
        self.atoms.iter().flat_map(|a| a.variables()).collect()
    }

    /// All constants occurring in the atoms.
    pub fn constants(&self) -> HashSet<Value> {
        self.atoms.iter().flat_map(|a| a.constants()).collect()
    }

    /// The relations mentioned by the query.
    pub fn relations(&self) -> HashSet<RelationId> {
        self.atoms.iter().map(Atom::relation).collect()
    }

    /// Number of atoms mentioning `relation`.
    pub fn occurrences_of(&self, relation: RelationId) -> usize {
        self.atoms
            .iter()
            .filter(|a| a.relation() == relation)
            .count()
    }

    /// Validates the query against its schema: every atom must have the
    /// right arity, and every variable must be used consistently with the
    /// abstract domains of the positions it occurs at (the paper requires
    /// `Dom(a) = Dom(a')` whenever the same variable occurs at attributes
    /// `a` and `a'`).
    pub fn validate(&self) -> Result<(), SchemaError> {
        self.infer_var_domains().map(|_| ())
    }

    /// Infers the abstract domain of every variable from the positions it
    /// occurs at; fails if a variable is used at positions of two different
    /// domains or if an atom has the wrong arity.
    pub fn infer_var_domains(&self) -> Result<HashMap<VarId, DomainId>, SchemaError> {
        let mut domains: HashMap<VarId, DomainId> = HashMap::new();
        for atom in &self.atoms {
            let rel = self.schema.relation(atom.relation())?;
            if rel.arity() != atom.arity() {
                return Err(SchemaError::ArityMismatch {
                    relation: atom.relation(),
                    expected: rel.arity(),
                    actual: atom.arity(),
                });
            }
            for (pos, term) in atom.terms().iter().enumerate() {
                if let Term::Var(v) = term {
                    let d = rel.domain_at(pos);
                    match domains.get(v) {
                        None => {
                            domains.insert(*v, d);
                        }
                        Some(existing) if *existing == d => {}
                        Some(existing) => {
                            // Report the clash through the InvalidPosition
                            // variant carrying the offending relation/pos;
                            // the message names the conflicting position.
                            let _ = existing;
                            return Err(SchemaError::InvalidPosition {
                                relation: atom.relation(),
                                position: pos,
                            });
                        }
                    }
                }
            }
        }
        Ok(domains)
    }

    /// The output domains of the query (domains of the free variables), in
    /// order. Fails if validation fails or a free variable never occurs in
    /// the body.
    pub fn output_domains(&self) -> Result<Vec<DomainId>, SchemaError> {
        let domains = self.infer_var_domains()?;
        self.free_vars
            .iter()
            .map(|v| {
                domains
                    .get(v)
                    .copied()
                    .ok_or(SchemaError::UnknownDomain(self.var_name(*v)))
            })
            .collect()
    }

    /// Applies a partial substitution of variables by constants, producing a
    /// new query. Substituted free variables are removed from the head.
    pub fn substitute(&self, mapping: &HashMap<VarId, Value>) -> ConjunctiveQuery {
        ConjunctiveQuery {
            schema: self.schema.clone(),
            atoms: self.atoms.iter().map(|a| a.substitute(mapping)).collect(),
            free_vars: self
                .free_vars
                .iter()
                .copied()
                .filter(|v| !mapping.contains_key(v))
                .collect(),
            var_names: self.var_names.clone(),
        }
    }

    /// Returns the Boolean query obtained by existentially closing all free
    /// variables.
    pub fn boolean_closure(&self) -> ConjunctiveQuery {
        ConjunctiveQuery {
            schema: self.schema.clone(),
            atoms: self.atoms.clone(),
            free_vars: Vec::new(),
            var_names: self.var_names.clone(),
        }
    }

    /// Returns a new query whose atom set is `self`'s restricted to the
    /// atoms at the given indices (used by the guess-based algorithms).
    pub fn restrict_to_atoms(&self, indices: &[usize]) -> ConjunctiveQuery {
        ConjunctiveQuery {
            schema: self.schema.clone(),
            atoms: indices
                .iter()
                .filter_map(|&i| self.atoms.get(i).cloned())
                .collect(),
            free_vars: self.free_vars.clone(),
            var_names: self.var_names.clone(),
        }
    }

    /// The "subgoal graph" `G(Q)` used by Proposition 4.3: vertices are atom
    /// indices, edges connect atoms sharing a variable. Returns, for each
    /// atom, the list of connected-component member indices of its component.
    pub fn connected_components(&self) -> Vec<Vec<usize>> {
        let n = self.atoms.len();
        let mut parent: Vec<usize> = (0..n).collect();
        fn find(parent: &mut Vec<usize>, x: usize) -> usize {
            if parent[x] != x {
                let root = find(parent, parent[x]);
                parent[x] = root;
            }
            parent[x]
        }
        for i in 0..n {
            for j in (i + 1)..n {
                if self.atoms[i].shares_variable_with(&self.atoms[j]) {
                    let ri = find(&mut parent, i);
                    let rj = find(&mut parent, j);
                    if ri != rj {
                        parent[ri] = rj;
                    }
                }
            }
        }
        let mut comps: HashMap<usize, Vec<usize>> = HashMap::new();
        for i in 0..n {
            let r = find(&mut parent, i);
            comps.entry(r).or_default().push(i);
        }
        let mut out: Vec<Vec<usize>> = comps.into_values().collect();
        out.sort();
        out
    }
}

impl fmt::Display for ConjunctiveQuery {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.free_vars.is_empty() {
            write!(f, "Q() :- ")?;
        } else {
            let head: Vec<String> = self.free_vars.iter().map(|v| self.var_name(*v)).collect();
            write!(f, "Q({}) :- ", head.join(", "))?;
        }
        if self.atoms.is_empty() {
            write!(f, "true")?;
        }
        for (i, a) in self.atoms.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{}", a.display_with(&self.schema, &self.var_names))?;
        }
        Ok(())
    }
}

/// Builder for [`ConjunctiveQuery`] with named variables.
///
/// ```
/// use accrel_schema::Schema;
/// use accrel_query::{ConjunctiveQuery, Term};
///
/// let mut b = Schema::builder();
/// let d = b.domain("D").unwrap();
/// b.relation("R", &[("a", d), ("b", d)]).unwrap();
/// let schema = b.build();
///
/// let mut q = ConjunctiveQuery::builder(schema);
/// let x = q.var("x");
/// let y = q.var("y");
/// q.atom("R", vec![Term::Var(x), Term::Var(y)]).unwrap();
/// q.atom("R", vec![Term::Var(y), Term::constant("stop")]).unwrap();
/// let q = q.build();
/// assert!(q.is_boolean());
/// assert_eq!(q.atoms().len(), 2);
/// ```
#[derive(Debug, Clone)]
pub struct CqBuilder {
    schema: Arc<Schema>,
    atoms: Vec<Atom>,
    free_vars: Vec<VarId>,
    var_names: Vec<String>,
    by_name: HashMap<String, VarId>,
}

impl CqBuilder {
    /// Creates an empty builder over `schema`.
    pub fn new(schema: Arc<Schema>) -> Self {
        Self {
            schema,
            atoms: Vec::new(),
            free_vars: Vec::new(),
            var_names: Vec::new(),
            by_name: HashMap::new(),
        }
    }

    /// Declares (or retrieves) a variable by name.
    pub fn var(&mut self, name: impl Into<String>) -> VarId {
        let name = name.into();
        if let Some(&v) = self.by_name.get(&name) {
            return v;
        }
        let v = VarId(self.var_names.len() as u32);
        self.by_name.insert(name.clone(), v);
        self.var_names.push(name);
        v
    }

    /// Marks variables as free (output) variables, in the given order.
    pub fn free(&mut self, vars: &[VarId]) -> &mut Self {
        self.free_vars = vars.to_vec();
        self
    }

    /// Adds an atom over the relation called `relation`.
    pub fn atom(&mut self, relation: &str, terms: Vec<Term>) -> Result<&mut Self, SchemaError> {
        let rel = self.schema.relation_by_name(relation)?;
        self.atoms.push(Atom::new(rel, terms));
        Ok(self)
    }

    /// Adds an atom over a relation id.
    pub fn atom_id(&mut self, relation: RelationId, terms: Vec<Term>) -> &mut Self {
        self.atoms.push(Atom::new(relation, terms));
        self
    }

    /// Finalises the query.
    pub fn build(self) -> ConjunctiveQuery {
        ConjunctiveQuery {
            schema: self.schema,
            atoms: self.atoms,
            free_vars: self.free_vars,
            var_names: self.var_names,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn schema() -> Arc<Schema> {
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
        b.build()
    }

    /// The Boolean query of Section 1: is there a loan officer in an
    /// Illinois office, and is the bank approved for 30-year mortgages in
    /// Illinois?
    fn bank_query(schema: Arc<Schema>) -> ConjunctiveQuery {
        let mut q = ConjunctiveQuery::builder(schema);
        let e = q.var("e");
        let t_ln = q.var("ln");
        let t_fn = q.var("fn");
        let o = q.var("o");
        let addr = q.var("addr");
        let phone = q.var("phone");
        q.atom(
            "Employee",
            vec![
                Term::Var(e),
                Term::constant("loan officer"),
                Term::Var(t_ln),
                Term::Var(t_fn),
                Term::Var(o),
            ],
        )
        .unwrap();
        q.atom(
            "Office",
            vec![
                Term::Var(o),
                Term::Var(addr),
                Term::constant("Illinois"),
                Term::Var(phone),
            ],
        )
        .unwrap();
        q.atom(
            "Approval",
            vec![Term::constant("Illinois"), Term::constant("30yr")],
        )
        .unwrap();
        q.build()
    }

    #[test]
    fn bank_query_structure() {
        let s = schema();
        let q = bank_query(s.clone());
        assert!(q.is_boolean());
        assert_eq!(q.atoms().len(), 3);
        assert_eq!(q.var_count(), 6);
        assert_eq!(q.relations().len(), 3);
        assert_eq!(q.occurrences_of(s.relation_by_name("Employee").unwrap()), 1);
        assert!(q.constants().contains(&Value::sym("Illinois")));
        assert!(q.validate().is_ok());
    }

    #[test]
    fn var_domains_are_inferred() {
        let s = schema();
        let q = bank_query(s.clone());
        let domains = q.infer_var_domains().unwrap();
        let off = s.domain_by_name("OffId").unwrap();
        let o = q
            .var_names()
            .iter()
            .position(|n| n == "o")
            .map(|i| VarId(i as u32))
            .unwrap();
        assert_eq!(domains[&o], off);
    }

    #[test]
    fn domain_clash_is_detected() {
        let s = schema();
        let mut q = ConjunctiveQuery::builder(s);
        let x = q.var("x");
        // x used both as an EmpId (pos 0 of Employee) and as a State
        // (pos 0 of Approval): domains clash.
        q.atom(
            "Employee",
            vec![
                Term::Var(x),
                Term::constant("t"),
                Term::constant("l"),
                Term::constant("f"),
                Term::constant("o"),
            ],
        )
        .unwrap();
        q.atom("Approval", vec![Term::Var(x), Term::constant("30yr")])
            .unwrap();
        let q = q.build();
        assert!(q.validate().is_err());
    }

    #[test]
    fn arity_mismatch_is_detected() {
        let s = schema();
        let rel = s.relation_by_name("Approval").unwrap();
        let q = ConjunctiveQuery::new(
            s,
            vec![Atom::new(rel, vec![Term::constant("x")])],
            vec![],
            vec![],
        );
        assert!(matches!(
            q.validate(),
            Err(SchemaError::ArityMismatch { .. })
        ));
    }

    #[test]
    fn substitution_and_closure() {
        let s = schema();
        let mut qb = ConjunctiveQuery::builder(s);
        let x = qb.var("x");
        let y = qb.var("y");
        qb.atom("Approval", vec![Term::Var(x), Term::Var(y)])
            .unwrap();
        qb.free(&[x]);
        let q = qb.build();
        assert!(!q.is_boolean());
        let mut m = HashMap::new();
        m.insert(x, Value::sym("Illinois"));
        let subst = q.substitute(&m);
        assert!(subst.is_boolean());
        assert!(subst.atoms()[0]
            .constants()
            .contains(&Value::sym("Illinois")));
        let closed = q.boolean_closure();
        assert!(closed.is_boolean());
        assert_eq!(closed.atoms().len(), 1);
    }

    #[test]
    fn output_domains() {
        let s = schema();
        let state = s.domain_by_name("State").unwrap();
        let mut qb = ConjunctiveQuery::builder(s);
        let x = qb.var("x");
        let y = qb.var("y");
        qb.atom("Approval", vec![Term::Var(x), Term::Var(y)])
            .unwrap();
        qb.free(&[x]);
        let q = qb.build();
        assert_eq!(q.output_domains().unwrap(), vec![state]);
        // a free variable that never occurs in the body has no domain
        let q_bad = ConjunctiveQuery::new(
            q.schema().clone(),
            q.atoms().to_vec(),
            vec![VarId(9)],
            q.var_names().to_vec(),
        );
        assert!(q_bad.output_domains().is_err());
    }

    #[test]
    fn connected_components_of_bank_query() {
        let s = schema();
        let q = bank_query(s);
        // Employee–Office share `o`; Approval is ground (its own component).
        let comps = q.connected_components();
        assert_eq!(comps.len(), 2);
        let sizes: Vec<usize> = comps.iter().map(Vec::len).collect();
        assert!(sizes.contains(&2));
        assert!(sizes.contains(&1));
    }

    #[test]
    fn restrict_to_atoms_keeps_the_chosen_atoms() {
        let q = bank_query(schema());
        let restricted = q.restrict_to_atoms(&[0, 2]);
        assert_eq!(restricted.atoms().len(), 2);
    }

    #[test]
    fn builder_reuses_named_variables_and_displays() {
        let s = schema();
        let mut qb = ConjunctiveQuery::builder(s);
        let x1 = qb.var("x");
        let x2 = qb.var("x");
        assert_eq!(x1, x2);
        let y = qb.var("y");
        qb.atom("Approval", vec![Term::Var(x1), Term::Var(y)])
            .unwrap();
        let q = qb.build();
        let shown = q.to_string();
        assert!(shown.contains("Approval(x, y)"));
        assert!(shown.starts_with("Q() :- "));
        assert_eq!(q.var_name(VarId(0)), "x");
        assert_eq!(q.var_name(VarId(77)), "?77");
    }

    #[test]
    fn empty_query_displays_true() {
        let s = schema();
        let q = ConjunctiveQuery::new(s, vec![], vec![], vec![]);
        assert_eq!(q.to_string(), "Q() :- true");
        assert_eq!(q.connected_components().len(), 0);
    }

    #[test]
    fn unknown_relation_in_builder_fails() {
        let s = schema();
        let mut qb = ConjunctiveQuery::builder(s);
        assert!(qb.atom("Nope", vec![]).is_err());
    }
}
