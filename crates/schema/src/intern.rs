//! Value interning: dense `u32` ids for [`Value`]s.
//!
//! The decision procedures compare, hash and copy values constantly —
//! `Value::Sym` carries an `Arc<str>` whose hash is recomputed on every
//! probe. A [`ValueInterner`] maps each distinct value to a dense
//! [`ValueId`]; the columnar [`crate::FactStore`] stores tuples as rows of
//! ids, so membership tests, binding-compatible scans and active-domain
//! maintenance all operate on `u32` comparisons and only touch the original
//! values when materialising results.
//!
//! Invariants:
//!
//! * interning is injective and stable: a value, once interned, keeps its id
//!   for the lifetime of the interner (ids are never recycled, and trail
//!   undo leaves the values of popped rows interned);
//! * `resolve(intern(v)) == v` for every value (round-trip identity);
//! * ids are allocated densely from 0 in first-seen order, so they can index
//!   plain vectors.

use std::collections::HashMap;
use std::fmt;

use crate::value::Value;

/// A dense identifier for an interned [`Value`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ValueId(pub u32);

impl ValueId {
    /// The raw index of this id.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for ValueId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "val#{}", self.0)
    }
}

/// A bidirectional mapping between [`Value`]s and dense [`ValueId`]s.
#[derive(Debug, Clone, Default)]
pub struct ValueInterner {
    values: Vec<Value>,
    ids: HashMap<Value, ValueId>,
}

impl ValueInterner {
    /// Creates an empty interner.
    pub fn new() -> Self {
        Self::default()
    }

    /// Interns `v`, returning its id (allocating one on first sight).
    pub fn intern(&mut self, v: &Value) -> ValueId {
        if let Some(&id) = self.ids.get(v) {
            return id;
        }
        let id = ValueId(self.values.len() as u32);
        self.values.push(v.clone());
        self.ids.insert(v.clone(), id);
        id
    }

    /// The id of `v`, if it has been interned.
    pub fn lookup(&self, v: &Value) -> Option<ValueId> {
        self.ids.get(v).copied()
    }

    /// The value behind `id`.
    ///
    /// # Panics
    /// Panics if `id` was not produced by this interner.
    pub fn resolve(&self, id: ValueId) -> &Value {
        &self.values[id.index()]
    }

    /// Number of distinct interned values.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// `true` when nothing has been interned yet.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Iterates over `(ValueId, &Value)` pairs in allocation order.
    pub fn iter(&self) -> impl Iterator<Item = (ValueId, &Value)> {
        self.values
            .iter()
            .enumerate()
            .map(|(i, v)| (ValueId(i as u32), v))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interning_round_trips() {
        let mut i = ValueInterner::new();
        let vals = [
            Value::sym("a"),
            Value::sym("b"),
            Value::int(7),
            Value::int(-7),
            Value::fresh(0),
            Value::fresh(1),
            Value::sym("7"), // distinct from Value::int(7)
        ];
        let ids: Vec<ValueId> = vals.iter().map(|v| i.intern(v)).collect();
        for (v, &id) in vals.iter().zip(&ids) {
            assert_eq!(i.resolve(id), v);
            assert_eq!(i.lookup(v), Some(id));
        }
        assert_eq!(i.len(), vals.len());
    }

    #[test]
    fn interning_is_idempotent_and_dense() {
        let mut i = ValueInterner::new();
        let a = i.intern(&Value::sym("a"));
        let b = i.intern(&Value::sym("b"));
        assert_eq!(i.intern(&Value::sym("a")), a);
        assert_eq!(a, ValueId(0));
        assert_eq!(b, ValueId(1));
        assert_eq!(i.len(), 2);
        assert!(!i.is_empty());
        assert_eq!(i.iter().count(), 2);
    }

    #[test]
    fn lookup_misses_do_not_allocate() {
        let mut i = ValueInterner::new();
        assert!(i.is_empty());
        assert_eq!(i.lookup(&Value::sym("ghost")), None);
        assert!(i.is_empty());
        i.intern(&Value::sym("real"));
        assert_eq!(i.lookup(&Value::sym("ghost")), None);
        assert_eq!(i.len(), 1);
    }

    #[test]
    fn value_id_display_and_index() {
        assert_eq!(ValueId(3).to_string(), "val#3");
        assert_eq!(ValueId(3).index(), 3);
        assert!(ValueId(1) < ValueId(2));
    }
}
