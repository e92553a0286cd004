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
//!   for the lifetime of the interner (ids are never recycled);
//! * `resolve(intern(v)) == v` for every value (round-trip identity);
//! * ids are allocated densely from 0 in first-seen order, so they can index
//!   plain vectors.
//!
//! Like every store shard, an interner is a base shared with its clones
//! plus a tail of its own (see the `layered` module): a clone that interns a
//! new value appends it to its tail, under the next dense id, and never
//! copies the values it shares.

use std::collections::HashMap;
use std::fmt;

use crate::layered::{Layered, Level};
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
/// Cloning it is two `Arc` bumps.
#[derive(Debug, Clone)]
pub struct ValueInterner {
    levels: Layered<InternLevel>,
}

/// One level of an interner: its values in id order, and their ids.
#[derive(Debug, Clone, Default)]
struct InternLevel {
    values: Vec<Value>,
    ids: HashMap<Value, ValueId>,
    /// One past the highest [`Value::Fresh`] index interned here (0 when
    /// none).
    fresh_floor: u64,
}

impl Level for InternLevel {
    fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    fn successor(&self) -> Self {
        Self::default()
    }
}

impl Default for ValueInterner {
    fn default() -> Self {
        Self::new()
    }
}

impl ValueInterner {
    /// Creates an empty interner.
    pub fn new() -> Self {
        Self {
            levels: Layered::new(InternLevel::default()),
        }
    }

    /// Interns `v`, returning its id (allocating one on first sight).
    pub fn intern(&mut self, v: &Value) -> ValueId {
        self.intern_counting(v, &mut 0)
    }

    /// [`ValueInterner::intern`], counting into `copies` the copy of a tail
    /// another handle shares, which only a new value makes.
    pub(crate) fn intern_counting(&mut self, v: &Value, copies: &mut u64) -> ValueId {
        if let Some(id) = self.lookup(v) {
            return id;
        }
        let id = ValueId(self.len() as u32);
        let level = self.levels.append_level(copies);
        if let Some(n) = v.as_fresh() {
            level.fresh_floor = level.fresh_floor.max(n.saturating_add(1));
        }
        level.values.push(v.clone());
        level.ids.insert(v.clone(), id);
        id
    }

    /// The id of `v`, if it has been interned. A fresh value above every
    /// fresh value interned so far never was, so it costs no hash probe.
    pub fn lookup(&self, v: &Value) -> Option<ValueId> {
        if v.as_fresh().is_some_and(|n| n >= self.fresh_floor()) {
            return None;
        }
        let (base, tail) = (self.levels.base(), self.levels.tail());
        base.ids.get(v).or_else(|| tail.ids.get(v)).copied()
    }

    /// The value behind `id`.
    ///
    /// # Panics
    /// Panics if `id` was not produced by this interner.
    pub fn resolve(&self, id: ValueId) -> &Value {
        let base = &self.levels.base().values;
        match base.get(id.index()) {
            Some(v) => v,
            None => &self.levels.tail().values[id.index() - base.len()],
        }
    }

    /// Number of distinct interned values.
    pub fn len(&self) -> usize {
        self.levels.base().values.len() + self.levels.tail().values.len()
    }

    /// `true` when nothing has been interned yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The least fresh-value index above every [`Value::Fresh`] interned so
    /// far (0 when none was): where a supply of values new to this
    /// interner may start. Kept as values are interned, so it costs O(1).
    pub(crate) fn fresh_floor(&self) -> u64 {
        self.levels
            .base()
            .fresh_floor
            .max(self.levels.tail().fresh_floor)
    }

    /// Iterates over `(ValueId, &Value)` pairs in allocation order.
    pub fn iter(&self) -> impl Iterator<Item = (ValueId, &Value)> {
        let (base, tail) = (self.levels.base(), self.levels.tail());
        base.values
            .iter()
            .chain(&tail.values)
            .enumerate()
            .map(|(i, v)| (ValueId(i as u32), v))
    }

    /// Whether `self` and `other` hold the same base level.
    pub(crate) fn shares_base(&self, other: &ValueInterner) -> bool {
        self.levels.shares_base(&other.levels)
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
    fn fresh_floor_tracks_the_highest_fresh_index() {
        let mut i = ValueInterner::new();
        assert_eq!(i.fresh_floor(), 0);
        i.intern(&Value::fresh(4));
        i.intern(&Value::sym("a"));
        i.intern(&Value::fresh(2));
        assert_eq!(i.fresh_floor(), 5);
    }

    #[test]
    fn a_clone_interns_into_its_own_tail_with_dense_ids() {
        let mut a = ValueInterner::new();
        a.intern(&Value::sym("a"));
        let mut b = a.clone();
        let mut copies = 0;
        assert_eq!(b.intern_counting(&Value::sym("b"), &mut copies), ValueId(1));
        assert_eq!(a.intern_counting(&Value::sym("c"), &mut copies), ValueId(1));
        assert_eq!(b.intern_counting(&Value::fresh(7), &mut copies), ValueId(2));
        assert_eq!(copies, 0);
        assert!(a.shares_base(&b));
        assert_eq!(b.resolve(ValueId(1)), &Value::sym("b"));
        assert_eq!(a.resolve(ValueId(1)), &Value::sym("c"));
        assert_eq!(
            (a.lookup(&Value::sym("b")), b.lookup(&Value::sym("c"))),
            (None, None)
        );
        assert_eq!(b.lookup(&Value::sym("a")), Some(ValueId(0)));
        let ids: Vec<(ValueId, Value)> = b.iter().map(|(id, v)| (id, v.clone())).collect();
        assert_eq!(ids[1], (ValueId(1), Value::sym("b")));
        assert_eq!((b.len(), ids.len()), (3, 3));
        assert_eq!((a.fresh_floor(), b.fresh_floor()), (0, 8));
        // Lookups of fresh values above the floor skip the hash probes.
        assert_eq!(b.lookup(&Value::fresh(7)), Some(ValueId(2)));
        assert_eq!(
            (b.lookup(&Value::fresh(3)), a.lookup(&Value::fresh(7))),
            (None, None)
        );
        // A clone of a grown interner shares its tail, so the first new
        // value either side interns copies that tail, and counts it.
        let c = b.clone();
        b.intern_counting(&Value::sym("d"), &mut copies);
        assert_eq!((copies, c.len(), b.len()), (1, 3, 4));
    }

    #[test]
    fn value_id_display_and_index() {
        assert_eq!(ValueId(3).to_string(), "val#3");
        assert_eq!(ValueId(3).index(), 3);
        assert!(ValueId(1) < ValueId(2));
    }
}
