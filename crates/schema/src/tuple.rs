//! Tuples of values.

use std::fmt;
use std::sync::Arc;

use crate::value::Value;

/// An immutable tuple of [`Value`]s.
///
/// Tuples are cheaply cloneable (the payload is an `Arc<[Value]>`), hashable
/// and ordered, so they can be stored in hash sets (fact stores) and B-tree
/// based indexes alike.
#[derive(Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Tuple {
    values: Arc<[Value]>,
}

impl Tuple {
    /// Creates a tuple from a vector of values.
    pub fn new(values: Vec<Value>) -> Self {
        Self {
            values: values.into(),
        }
    }

    /// Creates the empty (0-ary) tuple.
    pub fn empty() -> Self {
        Self::new(Vec::new())
    }

    /// The arity of the tuple.
    pub fn arity(&self) -> usize {
        self.values.len()
    }

    /// Returns `true` when the tuple has no components.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// The value at `position`, if any.
    pub fn get(&self, position: usize) -> Option<&Value> {
        self.values.get(position)
    }

    /// All values in positional order.
    pub fn values(&self) -> &[Value] {
        &self.values
    }

    /// Iterates over the values.
    pub fn iter(&self) -> impl Iterator<Item = &Value> {
        self.values.iter()
    }

    /// Returns the projection of the tuple onto the given positions.
    ///
    /// Positions out of range are silently skipped.
    pub fn project(&self, positions: &[usize]) -> Tuple {
        Tuple::new(
            positions
                .iter()
                .filter_map(|&p| self.values.get(p).cloned())
                .collect(),
        )
    }

    /// Returns `true` if the tuple agrees with `binding` on `positions`
    /// (i.e. `self[positions[i]] == binding[i]` for every `i`).
    ///
    /// This is the compatibility test between a returned tuple and an access
    /// binding: `I(Bind, S)` in the paper is the set of tuples whose
    /// projection onto the input attributes agrees with `Bind`.
    pub fn matches_binding(&self, positions: &[usize], binding: &[Value]) -> bool {
        positions.len() == binding.len()
            && positions
                .iter()
                .zip(binding)
                .all(|(&p, b)| self.values.get(p) == Some(b))
    }
}

impl fmt::Debug for Tuple {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(")?;
        for (i, v) in self.values.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{v:?}")?;
        }
        write!(f, ")")
    }
}

impl fmt::Display for Tuple {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(")?;
        for (i, v) in self.values.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{v}")?;
        }
        write!(f, ")")
    }
}

impl From<Vec<Value>> for Tuple {
    fn from(values: Vec<Value>) -> Self {
        Tuple::new(values)
    }
}

impl FromIterator<Value> for Tuple {
    fn from_iter<T: IntoIterator<Item = Value>>(iter: T) -> Self {
        Tuple::new(iter.into_iter().collect())
    }
}

impl<'a> IntoIterator for &'a Tuple {
    type Item = &'a Value;
    type IntoIter = std::slice::Iter<'a, Value>;

    fn into_iter(self) -> Self::IntoIter {
        self.values.iter()
    }
}

/// Builds a tuple from anything convertible to values.
///
/// ```
/// use accrel_schema::{tuple, Value};
/// let t = tuple(["12345", "loan officer"]);
/// assert_eq!(t.arity(), 2);
/// assert_eq!(t.get(0), Some(&Value::sym("12345")));
/// ```
pub fn tuple<V: Into<Value>, I: IntoIterator<Item = V>>(values: I) -> Tuple {
    Tuple::new(values.into_iter().map(Into::into).collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(vals: &[&str]) -> Tuple {
        Tuple::new(vals.iter().map(|s| Value::sym(*s)).collect())
    }

    #[test]
    fn arity_and_access() {
        let tup = t(&["a", "b", "c"]);
        assert_eq!(tup.arity(), 3);
        assert!(!tup.is_empty());
        assert_eq!(tup.get(1), Some(&Value::sym("b")));
        assert_eq!(tup.get(3), None);
        assert_eq!(tup.values().len(), 3);
        assert!(Tuple::empty().is_empty());
        assert_eq!(Tuple::empty().arity(), 0);
    }

    #[test]
    fn projection() {
        let tup = t(&["a", "b", "c"]);
        assert_eq!(tup.project(&[2, 0]), t(&["c", "a"]));
        assert_eq!(tup.project(&[5]), Tuple::empty());
    }

    #[test]
    fn binding_match() {
        let tup = t(&["a", "b", "c"]);
        assert!(tup.matches_binding(&[0, 2], &[Value::sym("a"), Value::sym("c")]));
        assert!(!tup.matches_binding(&[0, 2], &[Value::sym("a"), Value::sym("b")]));
        assert!(!tup.matches_binding(&[0], &[Value::sym("a"), Value::sym("b")]));
        assert!(tup.matches_binding(&[], &[]));
        // out-of-range position never matches
        assert!(!tup.matches_binding(&[7], &[Value::sym("a")]));
    }

    #[test]
    fn display_and_debug() {
        let tup = Tuple::new(vec![Value::sym("a"), Value::int(2), Value::fresh(0)]);
        assert_eq!(tup.to_string(), "(a, 2, ⊥0)");
        assert_eq!(format!("{tup:?}"), "(\"a\", 2, ⊥0)");
    }

    #[test]
    fn conversions_and_iteration() {
        let tup = tuple([1i64, 2, 3]);
        assert_eq!(tup.arity(), 3);
        let collected: Vec<i64> = tup.iter().filter_map(Value::as_int).collect();
        assert_eq!(collected, vec![1, 2, 3]);
        let from_vec: Tuple = vec![Value::int(1)].into();
        assert_eq!(from_vec.arity(), 1);
        let from_iter: Tuple = vec![Value::int(1), Value::int(2)].into_iter().collect();
        assert_eq!(from_iter.arity(), 2);
        let referenced: Vec<&Value> = (&tup).into_iter().collect();
        assert_eq!(referenced.len(), 3);
    }
}
