//! Constant values populating tuples.

use std::fmt;
use std::sync::Arc;

/// A constant value that may appear in a tuple, a configuration, a query or
/// an access binding.
///
/// Values are untyped at this level; the association between a value and an
/// abstract [`super::Domain`] is positional (an attribute of a relation has a
/// domain, and the value stored at that attribute is deemed to be of that
/// domain). The decision procedures additionally track `(Value, DomainId)`
/// pairs when they compute active domains, exactly as the paper's
/// `Adom(Conf)` does.
///
/// [`Value::Fresh`] values are *labelled nulls*: placeholders for values that
/// do not (yet) occur in a configuration. They are used by the witness
/// searches of `accrel-core` to represent values invented by hypothetical
/// access responses, and by the canonical-database construction for query
/// containment.
#[derive(Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Value {
    /// A symbolic (string) constant such as `"Illinois"` or `"30yr"`.
    Sym(Arc<str>),
    /// An integer constant.
    Int(i64),
    /// A labelled null (fresh value) identified by an index.
    Fresh(u64),
}

impl Value {
    /// Creates a symbolic constant.
    pub fn sym(s: impl AsRef<str>) -> Self {
        Value::Sym(Arc::from(s.as_ref()))
    }

    /// Creates an integer constant.
    pub fn int(i: i64) -> Self {
        Value::Int(i)
    }

    /// Creates a labelled null with the given index.
    pub fn fresh(n: u64) -> Self {
        Value::Fresh(n)
    }

    /// Returns `true` when the value is a labelled null.
    pub fn is_fresh(&self) -> bool {
        matches!(self, Value::Fresh(_))
    }

    /// Returns the integer content when the value is a [`Value::Int`].
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Value::Int(i) => Some(*i),
            _ => None,
        }
    }

    /// Returns the null index when the value is a [`Value::Fresh`].
    pub fn as_fresh(&self) -> Option<u64> {
        match self {
            Value::Fresh(n) => Some(*n),
            _ => None,
        }
    }
}

impl fmt::Debug for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Sym(s) => write!(f, "{s:?}"),
            Value::Int(i) => write!(f, "{i}"),
            Value::Fresh(n) => write!(f, "⊥{n}"),
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Sym(s) => write!(f, "{s}"),
            Value::Int(i) => write!(f, "{i}"),
            Value::Fresh(n) => write!(f, "⊥{n}"),
        }
    }
}

impl From<&str> for Value {
    fn from(s: &str) -> Self {
        Value::sym(s)
    }
}

impl From<String> for Value {
    fn from(s: String) -> Self {
        Value::Sym(Arc::from(s.as_str()))
    }
}

impl From<i64> for Value {
    fn from(i: i64) -> Self {
        Value::Int(i)
    }
}

impl From<i32> for Value {
    fn from(i: i32) -> Self {
        Value::Int(i64::from(i))
    }
}

/// A monotonically increasing supply of fresh (labelled-null) values.
///
/// Decision procedures thread a `FreshSupply` through their searches so that
/// every invented value is distinct from all previously invented ones.
#[derive(Debug, Clone, Default)]
pub struct FreshSupply {
    next: u64,
}

impl FreshSupply {
    /// Creates a supply starting at index 0.
    pub fn new() -> Self {
        Self { next: 0 }
    }

    /// Creates a supply whose first value will have an index strictly larger
    /// than every fresh value occurring in `values`.
    pub fn above<'a>(values: impl IntoIterator<Item = &'a Value>) -> Self {
        let next = values
            .into_iter()
            .filter_map(Value::as_fresh)
            .map(|n| n + 1)
            .max()
            .unwrap_or(0);
        Self { next }
    }

    /// Creates a supply whose first value has index `next`.
    pub(crate) fn starting_at(next: u64) -> Self {
        Self { next }
    }

    /// Raises the supply, if needed, so that its next value also has an
    /// index strictly larger than every fresh value occurring in `values`.
    pub fn skipping<'a>(self, values: impl IntoIterator<Item = &'a Value>) -> Self {
        Self {
            next: self.next.max(Self::above(values).next),
        }
    }

    /// Produces the next fresh value.
    pub fn next_value(&mut self) -> Value {
        let v = Value::Fresh(self.next);
        self.next += 1;
        v
    }

    /// Peeks at the index the next fresh value would receive.
    pub fn peek(&self) -> u64 {
        self.next
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn sym_values_compare_structurally() {
        assert_eq!(Value::sym("a"), Value::sym("a"));
        assert_ne!(Value::sym("a"), Value::sym("b"));
        assert_ne!(Value::sym("1"), Value::int(1));
    }

    #[test]
    fn from_impls() {
        assert_eq!(Value::from("x"), Value::sym("x"));
        assert_eq!(Value::from(3i64), Value::int(3));
        assert_eq!(Value::from(3i32), Value::int(3));
        assert_eq!(Value::from(String::from("y")), Value::sym("y"));
    }

    #[test]
    fn fresh_values_are_distinct_from_constants() {
        assert!(Value::fresh(0).is_fresh());
        assert_ne!(Value::fresh(0), Value::int(0));
    }

    #[test]
    fn accessors() {
        assert_eq!(Value::sym("a").as_int(), None);
        assert_eq!(Value::int(4).as_int(), Some(4));
        assert_eq!(Value::fresh(9).as_fresh(), Some(9));
        assert_eq!(Value::int(4).as_fresh(), None);
    }

    #[test]
    fn display_formats() {
        assert_eq!(Value::sym("Illinois").to_string(), "Illinois");
        assert_eq!(Value::int(-2).to_string(), "-2");
        assert_eq!(Value::fresh(3).to_string(), "⊥3");
        assert_eq!(format!("{:?}", Value::sym("a")), "\"a\"");
    }

    #[test]
    fn values_hash_consistently() {
        let mut set = HashSet::new();
        set.insert(Value::sym("a"));
        set.insert(Value::sym("a"));
        set.insert(Value::int(1));
        set.insert(Value::fresh(1));
        assert_eq!(set.len(), 3);
        assert!(set.contains(&Value::sym("a")));
    }

    #[test]
    fn fresh_supply_produces_distinct_values() {
        let mut s = FreshSupply::new();
        let a = s.next_value();
        let b = s.next_value();
        assert_ne!(a, b);
        assert_eq!(a, Value::fresh(0));
        assert_eq!(b, Value::fresh(1));
        assert_eq!(s.peek(), 2);
    }

    #[test]
    fn fresh_supply_above_existing_values() {
        let existing = [Value::fresh(3), Value::sym("a"), Value::fresh(7)];
        let mut s = FreshSupply::above(existing.iter());
        assert_eq!(s.next_value(), Value::fresh(8));
    }

    #[test]
    fn fresh_supply_skipping_only_raises() {
        let existing = [Value::fresh(3), Value::sym("a")];
        let mut s = FreshSupply::starting_at(2).skipping(existing.iter());
        assert_eq!(s.next_value(), Value::fresh(4));
        let mut s = FreshSupply::starting_at(9).skipping(existing.iter());
        assert_eq!(s.next_value(), Value::fresh(9));
    }

    #[test]
    fn fresh_supply_above_empty_starts_at_zero() {
        let mut s = FreshSupply::above(std::iter::empty());
        assert_eq!(s.next_value(), Value::fresh(0));
    }
}
