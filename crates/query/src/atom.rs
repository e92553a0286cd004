//! Variables, terms and relational atoms.

use std::collections::{HashMap, HashSet};
use std::fmt;

use accrel_schema::{RelationId, Schema, Tuple, Value};

/// A query variable, identified by an index local to the query it belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct VarId(pub u32);

impl VarId {
    /// Returns the raw index of the variable.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for VarId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "?{}", self.0)
    }
}

/// A term occurring in an atom: either a variable or a constant.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Term {
    /// A query variable.
    Var(VarId),
    /// A constant value.
    Const(Value),
}

impl Term {
    /// Creates a variable term.
    pub fn var(v: VarId) -> Self {
        Term::Var(v)
    }

    /// Creates a constant term.
    pub fn constant(v: impl Into<Value>) -> Self {
        Term::Const(v.into())
    }

    /// Returns the variable if the term is one.
    pub fn as_var(&self) -> Option<VarId> {
        match self {
            Term::Var(v) => Some(*v),
            Term::Const(_) => None,
        }
    }

    /// Returns the constant if the term is one.
    pub fn as_const(&self) -> Option<&Value> {
        match self {
            Term::Var(_) => None,
            Term::Const(c) => Some(c),
        }
    }

    /// `true` when the term is a variable.
    pub fn is_var(&self) -> bool {
        matches!(self, Term::Var(_))
    }
}

impl fmt::Display for Term {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Term::Var(v) => write!(f, "{v}"),
            Term::Const(c) => write!(f, "{c}"),
        }
    }
}

impl From<VarId> for Term {
    fn from(v: VarId) -> Self {
        Term::Var(v)
    }
}

impl From<Value> for Term {
    fn from(v: Value) -> Self {
        Term::Const(v)
    }
}

/// A relational atom `R(t1, ..., tk)`: a relation applied to a list of terms.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Atom {
    relation: RelationId,
    terms: Vec<Term>,
}

impl Atom {
    /// Creates an atom over `relation` with the given terms.
    pub fn new(relation: RelationId, terms: Vec<Term>) -> Self {
        Self { relation, terms }
    }

    /// The relation of the atom.
    pub fn relation(&self) -> RelationId {
        self.relation
    }

    /// The terms of the atom, in positional order.
    pub fn terms(&self) -> &[Term] {
        &self.terms
    }

    /// The arity of the atom (number of terms).
    pub fn arity(&self) -> usize {
        self.terms.len()
    }

    /// The term at a given position, if in range.
    pub fn term_at(&self, position: usize) -> Option<&Term> {
        self.terms.get(position)
    }

    /// The set of variables occurring in the atom.
    pub fn variables(&self) -> HashSet<VarId> {
        self.terms.iter().filter_map(Term::as_var).collect()
    }

    /// The constants occurring in the atom.
    pub fn constants(&self) -> HashSet<Value> {
        self.terms
            .iter()
            .filter_map(|t| t.as_const().cloned())
            .collect()
    }

    /// Converts a fully ground atom into a fact tuple; `None` if any term is
    /// still a variable.
    pub fn to_tuple(&self) -> Option<Tuple> {
        let mut values = Vec::with_capacity(self.terms.len());
        for t in &self.terms {
            values.push(t.as_const()?.clone());
        }
        Some(Tuple::new(values))
    }

    /// Applies a partial substitution of variables by values, leaving
    /// unmapped variables in place.
    pub fn substitute(&self, mapping: &HashMap<VarId, Value>) -> Atom {
        Atom::new(
            self.relation,
            self.terms
                .iter()
                .map(|t| match t {
                    Term::Var(v) => match mapping.get(v) {
                        Some(val) => Term::Const(val.clone()),
                        None => t.clone(),
                    },
                    Term::Const(_) => t.clone(),
                })
                .collect(),
        )
    }

    /// Renames variables through `mapping`, leaving unmapped variables alone.
    pub fn rename_vars(&self, mapping: &HashMap<VarId, VarId>) -> Atom {
        Atom::new(
            self.relation,
            self.terms
                .iter()
                .map(|t| match t {
                    Term::Var(v) => Term::Var(*mapping.get(v).unwrap_or(v)),
                    Term::Const(_) => t.clone(),
                })
                .collect(),
        )
    }

    /// `true` if this atom shares at least one variable with `other`.
    pub fn shares_variable_with(&self, other: &Atom) -> bool {
        let mine = self.variables();
        other.variables().iter().any(|v| mine.contains(v))
    }

    /// Pretty-prints the atom using relation and variable names drawn from
    /// the schema and the supplied variable-name table.
    pub fn display_with(&self, schema: &Schema, var_names: &[String]) -> String {
        let rel_name = schema
            .relation(self.relation)
            .map(|r| r.name().to_string())
            .unwrap_or_else(|_| self.relation.to_string());
        let terms: Vec<String> = self
            .terms
            .iter()
            .map(|t| match t {
                Term::Var(v) => var_names
                    .get(v.index())
                    .cloned()
                    .unwrap_or_else(|| v.to_string()),
                Term::Const(c) => c.to_string(),
            })
            .collect();
        format!("{rel_name}({})", terms.join(", "))
    }
}

impl fmt::Display for Atom {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}(", self.relation)?;
        for (i, t) in self.terms.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{t}")?;
        }
        write!(f, ")")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use accrel_schema::Schema;

    fn atom() -> Atom {
        Atom::new(
            RelationId(0),
            vec![
                Term::Var(VarId(0)),
                Term::Const(Value::sym("c")),
                Term::Var(VarId(1)),
                Term::Var(VarId(0)),
            ],
        )
    }

    #[test]
    fn variables_and_constants() {
        let a = atom();
        assert_eq!(a.arity(), 4);
        assert_eq!(a.variables(), [VarId(0), VarId(1)].into_iter().collect());
        assert_eq!(a.constants(), [Value::sym("c")].into_iter().collect());
        assert_eq!(a.to_tuple(), None);
        assert_eq!(a.term_at(1), Some(&Term::Const(Value::sym("c"))));
        assert_eq!(a.term_at(9), None);
    }

    #[test]
    fn substitution_grounds_atoms() {
        let a = atom();
        let mut m = HashMap::new();
        m.insert(VarId(0), Value::sym("x"));
        m.insert(VarId(1), Value::int(7));
        let ground = a.substitute(&m);
        assert_eq!(
            ground.to_tuple().unwrap().values(),
            &[
                Value::sym("x"),
                Value::sym("c"),
                Value::int(7),
                Value::sym("x")
            ]
        );
    }

    #[test]
    fn renaming_variables() {
        let a = atom();
        let mut m = HashMap::new();
        m.insert(VarId(0), VarId(10));
        let renamed = a.rename_vars(&m);
        assert_eq!(
            renamed.variables(),
            [VarId(10), VarId(1)].into_iter().collect()
        );
    }

    #[test]
    fn variable_sharing() {
        let a = Atom::new(RelationId(0), vec![Term::Var(VarId(0))]);
        let b = Atom::new(
            RelationId(1),
            vec![Term::Var(VarId(0)), Term::Var(VarId(2))],
        );
        let c = Atom::new(RelationId(1), vec![Term::Var(VarId(3))]);
        assert!(a.shares_variable_with(&b));
        assert!(!a.shares_variable_with(&c));
        assert!(b.shares_variable_with(&b));
    }

    #[test]
    fn display_forms() {
        let a = atom();
        assert_eq!(a.to_string(), "rel#0(?0, c, ?1, ?0)");
        assert_eq!(Term::Var(VarId(3)).to_string(), "?3");
        assert_eq!(Term::Const(Value::int(2)).to_string(), "2");
        let mut b = Schema::builder();
        let d = b.domain("D").unwrap();
        b.relation("R", &[("a", d), ("b", d), ("c", d), ("d", d)])
            .unwrap();
        let schema = b.build();
        let names = vec!["x".to_string(), "y".to_string()];
        assert_eq!(a.display_with(&schema, &names), "R(x, c, y, x)");
    }

    #[test]
    fn term_constructors_and_accessors() {
        let t = Term::var(VarId(1));
        assert!(t.is_var());
        assert_eq!(t.as_var(), Some(VarId(1)));
        assert_eq!(t.as_const(), None);
        let c = Term::constant("v");
        assert!(!c.is_var());
        assert_eq!(c.as_const(), Some(&Value::sym("v")));
        let from_var: Term = VarId(2).into();
        assert_eq!(from_var, Term::Var(VarId(2)));
        let from_val: Term = Value::int(1).into();
        assert_eq!(from_val, Term::Const(Value::int(1)));
        assert_eq!(VarId(5).index(), 5);
    }

    #[test]
    fn ground_atom_to_tuple() {
        let a = Atom::new(
            RelationId(2),
            vec![Term::Const(Value::int(1)), Term::Const(Value::int(2))],
        );
        assert_eq!(a.to_tuple().unwrap().arity(), 2);
        assert_eq!(a.relation(), RelationId(2));
        assert!(a.variables().is_empty());
    }
}
