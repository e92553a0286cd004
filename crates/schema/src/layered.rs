//! Two-level shards: a frozen base that every clone shares, then a tail
//! behind its own `Arc`.
//!
//! Each store shard (a relation's rows, the active domain, the interner) is
//! an append-only log kept in two levels. Cloning a store shares both
//! levels of every shard. An append goes to the base while no other handle
//! holds it and the tail is empty, and to the tail otherwise. So a base is
//! never written while another handle can read it, and a base never grows
//! under a tail: its length is where the tail's entries start, and an
//! entry's global index (a row, a value id, a position in the entry log)
//! never changes. A write copies only a tail that another handle shares; a
//! shared tail that is still empty is replaced by a new one, not copied.
//! The first write into a clone therefore costs what it adds, not the size
//! of the base it starts from.

use std::sync::Arc;

/// One level of a [`Layered`] shard.
pub(crate) trait Level: Clone {
    /// Whether the level holds no entry.
    fn is_empty(&self) -> bool;

    /// An empty level to follow `self` as its tail.
    fn successor(&self) -> Self;
}

/// A shard as a base shared with every clone, then a tail (see the module
/// docs).
#[derive(Debug)]
pub(crate) struct Layered<T> {
    base: Arc<T>,
    tail: Arc<T>,
}

impl<T> Clone for Layered<T> {
    /// Two `Arc` bumps: a clone shares both levels.
    fn clone(&self) -> Self {
        Self {
            base: Arc::clone(&self.base),
            tail: Arc::clone(&self.tail),
        }
    }
}

impl<T: Level> Layered<T> {
    /// A shard holding `base`, with an empty tail.
    pub(crate) fn new(base: T) -> Self {
        let tail = base.successor();
        Self {
            base: Arc::new(base),
            tail: Arc::new(tail),
        }
    }

    /// The level every entry before the tail's lies in.
    pub(crate) fn base(&self) -> &T {
        &self.base
    }

    /// The level holding the entries after the base's.
    pub(crate) fn tail(&self) -> &T {
        &self.tail
    }

    /// The level the next entry goes to: the base while no other handle
    /// holds it and the tail is empty, else the tail, which is copied first
    /// (and the copy counted into `copies`) only if another handle shares
    /// it and it holds entries.
    pub(crate) fn append_level(&mut self, copies: &mut u64) -> &mut T {
        if self.tail.is_empty() {
            if Arc::strong_count(&self.base) == 1 {
                // No other handle holds the base, so this never copies.
                return Arc::make_mut(&mut self.base);
            }
            if Arc::strong_count(&self.tail) > 1 {
                self.tail = Arc::new(self.base.successor());
            }
        }
        if Arc::strong_count(&self.tail) > 1 {
            *copies += 1;
        }
        Arc::make_mut(&mut self.tail)
    }

    /// Whether `self` and `other` hold the same base.
    pub(crate) fn shares_base(&self, other: &Self) -> bool {
        Arc::ptr_eq(&self.base, &other.base)
    }

    /// Copies whichever level another handle still shares, uncounted.
    pub(crate) fn own(&mut self) {
        Arc::make_mut(&mut self.base);
        Arc::make_mut(&mut self.tail);
    }
}

/// The entries of an append-only log from some position to its end, in
/// order: the part that lies in a shard's base, then the part in its tail.
/// [`crate::FactStore::rows_since`], [`crate::Growth::rows`] and
/// [`crate::Growth::entered`] return one.
#[derive(Debug)]
pub struct Suffix<'s, T> {
    base: &'s [T],
    tail: &'s [T],
}

impl<T> Default for Suffix<'_, T> {
    fn default() -> Self {
        Self {
            base: &[],
            tail: &[],
        }
    }
}

impl<'s, T> Suffix<'s, T> {
    /// The entries from global position `from` on of the log whose base
    /// level holds `base` and whose tail holds `tail`.
    pub(crate) fn of(base: &'s [T], tail: &'s [T], from: usize) -> Self {
        match base.get(from..) {
            Some(base) => Self { base, tail },
            None => Self {
                base: &[],
                tail: tail.get(from - base.len()..).unwrap_or(&[]),
            },
        }
    }

    /// The number of entries.
    pub fn len(&self) -> usize {
        self.base.len() + self.tail.len()
    }

    /// Whether there is no entry.
    pub fn is_empty(&self) -> bool {
        self.base.is_empty() && self.tail.is_empty()
    }

    /// The entries, in log order.
    pub fn iter(&self) -> std::iter::Chain<std::slice::Iter<'s, T>, std::slice::Iter<'s, T>> {
        self.base.iter().chain(self.tail)
    }
}

impl<'s, T> IntoIterator for Suffix<'s, T> {
    type Item = &'s T;
    type IntoIter = std::iter::Chain<std::slice::Iter<'s, T>, std::slice::Iter<'s, T>>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Clone, Debug, Default, PartialEq)]
    struct Log(Vec<u32>);

    impl Level for Log {
        fn is_empty(&self) -> bool {
            self.0.is_empty()
        }

        fn successor(&self) -> Self {
            Log::default()
        }
    }

    #[test]
    fn appends_go_to_an_unshared_base_until_a_tail_starts() {
        let mut copies = 0;
        let mut a = Layered::new(Log::default());
        a.append_level(&mut copies).0.push(1);
        let b = a.clone();
        // The base is shared now: the write starts a tail of its own,
        // without copying the base or the (empty) shared tail.
        a.append_level(&mut copies).0.push(2);
        assert_eq!((a.base(), a.tail()), (&Log(vec![1]), &Log(vec![2])));
        assert!(a.shares_base(&b) && b.tail().is_empty());
        // Dropping the other handle unshares the base, but the tail holds
        // entries, so the base stays frozen.
        drop(b);
        a.append_level(&mut copies).0.push(3);
        assert_eq!((a.base(), a.tail()), (&Log(vec![1]), &Log(vec![2, 3])));
        assert_eq!(copies, 0);
        // Only a shared tail with entries is copied, and counted.
        let c = a.clone();
        a.append_level(&mut copies).0.push(4);
        assert_eq!(
            (copies, c.tail(), a.tail()),
            (1, &Log(vec![2, 3]), &Log(vec![2, 3, 4]))
        );
    }

    #[test]
    fn suffixes_span_both_levels() {
        let (base, tail) = ([0, 1, 2], [3, 4]);
        for from in 0..7 {
            let suffix = Suffix::of(&base, &tail, from);
            let want: Vec<i32> = (0..5).skip(from).collect();
            assert_eq!(suffix.iter().copied().collect::<Vec<_>>(), want);
            assert_eq!(
                (suffix.len(), suffix.is_empty()),
                (want.len(), want.is_empty())
            );
        }
        assert!(Suffix::<u8>::default().is_empty());
    }
}
