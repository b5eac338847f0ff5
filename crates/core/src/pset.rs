//! [`PartitionSet`] — a compact set of small ids.
//!
//! Coloring's gather accumulator: the colors of a vertex's neighbors. Most
//! sets fit a fixed-width inline bitset of 256 bits (`[u64; 4]`, no heap
//! allocation); larger ids spill to a heap-backed bitset transparently.
//!
//! - `insert` / `contains`: O(1) bit ops.
//! - `union_with`: word-wise OR, Coloring's `merge`.
//! - `iter`: ascending bit-scan, which Coloring's `apply` reads for the
//!   smallest free color.

/// Number of inline words; bits `0..256` need no heap allocation.
const INLINE_WORDS: usize = 4;

/// Partition ids below this live in the inline array.
pub const INLINE_BITS: u32 = (INLINE_WORDS * 64) as u32;

#[derive(Clone, Debug)]
enum Repr {
    /// Fixed-width bitset for partitions `0..INLINE_BITS`.
    Inline([u64; INLINE_WORDS]),
    /// Heap spill for larger partition spaces (always ≥ INLINE_WORDS words).
    Spill(Vec<u64>),
}

/// A set of partition ids, stored as an inline (or heap-spilled) bitset.
///
/// Equality is by *content*: an inline set and a spilled set holding the
/// same ids compare equal.
#[derive(Clone, Debug)]
pub struct PartitionSet {
    repr: Repr,
}

impl Default for PartitionSet {
    fn default() -> Self {
        Self::new()
    }
}

impl PartitionSet {
    /// The empty set.
    #[inline]
    pub fn new() -> Self {
        PartitionSet {
            repr: Repr::Inline([0; INLINE_WORDS]),
        }
    }

    /// The set `{p}`.
    pub fn singleton(p: u32) -> Self {
        let mut s = Self::new();
        s.insert(p);
        s
    }

    /// The underlying words, low bits first: bit `p % 64` of word `p / 64`
    /// is `p`'s membership.
    #[inline]
    fn words(&self) -> &[u64] {
        match &self.repr {
            Repr::Inline(w) => w,
            Repr::Spill(v) => v,
        }
    }

    /// Insert `p`; returns `true` if it was not already present.
    #[inline]
    pub fn insert(&mut self, p: u32) -> bool {
        let (word, bit) = (p as usize / 64, p as usize % 64);
        let mask = 1u64 << bit;
        match &mut self.repr {
            Repr::Inline(w) if word < INLINE_WORDS => {
                let fresh = w[word] & mask == 0;
                w[word] |= mask;
                fresh
            }
            Repr::Inline(w) => {
                // First id at or beyond the inline width: spill.
                let mut v = vec![0u64; word + 1];
                v[..INLINE_WORDS].copy_from_slice(w);
                v[word] |= mask;
                self.repr = Repr::Spill(v);
                true
            }
            Repr::Spill(v) => {
                if word >= v.len() {
                    v.resize(word + 1, 0);
                }
                let fresh = v[word] & mask == 0;
                v[word] |= mask;
                fresh
            }
        }
    }

    /// True if `p` is in the set.
    #[inline]
    pub fn contains(&self, p: u32) -> bool {
        let (word, bit) = (p as usize / 64, p as usize % 64);
        let w = self.words();
        word < w.len() && w[word] & (1 << bit) != 0
    }

    /// `self ∪= other` — word-wise OR.
    pub fn union_with(&mut self, other: &Self) {
        match (&mut self.repr, &other.repr) {
            (Repr::Inline(a), Repr::Inline(b)) => {
                for (x, y) in a.iter_mut().zip(b) {
                    *x |= y;
                }
            }
            (Repr::Spill(a), b_any) => {
                let b = match b_any {
                    Repr::Inline(w) => &w[..],
                    Repr::Spill(v) => v,
                };
                if b.len() > a.len() {
                    a.resize(b.len(), 0);
                }
                for (x, y) in a.iter_mut().zip(b) {
                    *x |= y;
                }
            }
            (Repr::Inline(a), Repr::Spill(b)) => {
                let mut v = vec![0u64; b.len().max(INLINE_WORDS)];
                v[..INLINE_WORDS].copy_from_slice(a);
                for (x, y) in v.iter_mut().zip(b) {
                    *x |= y;
                }
                self.repr = Repr::Spill(v);
            }
        }
    }

    /// Ascending iterator over the ids (bit-scan, sorted order).
    #[inline]
    pub fn iter(&self) -> PartitionSetIter<'_> {
        let words = self.words();
        PartitionSetIter {
            words,
            word_idx: 0,
            current: words.first().copied().unwrap_or(0),
        }
    }
}

impl PartialEq for PartitionSet {
    fn eq(&self, other: &Self) -> bool {
        let (a, b) = (self.words(), other.words());
        let n = a.len().max(b.len());
        (0..n).all(|i| a.get(i).copied().unwrap_or(0) == b.get(i).copied().unwrap_or(0))
    }
}

impl Eq for PartitionSet {}

impl FromIterator<u32> for PartitionSet {
    fn from_iter<I: IntoIterator<Item = u32>>(iter: I) -> Self {
        let mut s = PartitionSet::new();
        for p in iter {
            s.insert(p);
        }
        s
    }
}

/// Ascending bit-scan iterator over a [`PartitionSet`].
#[derive(Debug, Clone)]
pub struct PartitionSetIter<'a> {
    words: &'a [u64],
    word_idx: usize,
    current: u64,
}

impl Iterator for PartitionSetIter<'_> {
    type Item = u32;

    #[inline]
    fn next(&mut self) -> Option<u32> {
        while self.current == 0 {
            self.word_idx += 1;
            if self.word_idx >= self.words.len() {
                return None;
            }
            self.current = self.words[self.word_idx];
        }
        let bit = self.current.trailing_zeros();
        self.current &= self.current - 1;
        Some((self.word_idx * 64) as u32 + bit)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn ids(s: &PartitionSet) -> Vec<u32> {
        s.iter().collect()
    }

    #[test]
    fn empty_set_basics() {
        let s = PartitionSet::new();
        assert_eq!(s.iter().count(), 0);
        assert!(!s.contains(0));
    }

    #[test]
    fn insert_reports_freshness() {
        let mut s = PartitionSet::new();
        assert!(s.insert(7));
        assert!(!s.insert(7));
        assert!(s.insert(300)); // forces a spill
        assert!(!s.insert(300));
        assert!(!s.insert(7), "spill must preserve inline bits");
    }

    #[test]
    fn iter_is_sorted_across_the_spill_boundary() {
        let mut s = PartitionSet::new();
        for p in [299, 0, 64, 255, 256, 130] {
            s.insert(p);
        }
        assert_eq!(ids(&s), vec![0, 64, 130, 255, 256, 299]);
    }

    #[test]
    fn union_or_kernel_equals_set_union() {
        let a: PartitionSet = [1u32, 5, 200].into_iter().collect();
        let b: PartitionSet = [5u32, 7, 290].into_iter().collect();
        let mut c = a.clone();
        c.union_with(&b);
        assert_eq!(ids(&c), vec![1, 5, 7, 200, 290]);
        // Union with an empty set is the identity in both directions.
        let mut d = a.clone();
        d.union_with(&PartitionSet::new());
        assert_eq!(d, a);
        let mut e = PartitionSet::new();
        e.union_with(&a);
        assert_eq!(e, a);
    }

    #[test]
    fn equality_is_by_content() {
        let mut spilled = PartitionSet::new();
        spilled.insert(3);
        spilled.insert(400); // spill...
        assert_ne!(spilled, PartitionSet::singleton(3));
        // ...and the same ids inserted the other way round, spilled at once.
        let reordered: PartitionSet = [400u32, 3].into_iter().collect();
        assert_eq!(spilled, reordered);
    }

    // ---- Satellite: model-based property tests against a sorted Vec<u32>
    // set model, crossing the inline→spill boundary (ids up to 300). ----

    #[derive(Debug, Clone)]
    enum Op {
        Insert(u32),
        Contains(u32),
    }

    fn arb_ops() -> impl Strategy<Value = Vec<Op>> {
        proptest::collection::vec((0u32..2, 0u32..300), 1..120).prop_map(|raw| {
            raw.into_iter()
                .map(|(kind, p)| {
                    if kind == 0 {
                        Op::Insert(p)
                    } else {
                        Op::Contains(p)
                    }
                })
                .collect()
        })
    }

    /// Sorted-set strategy built from `vec` (the vendored proptest has no
    /// `btree_set`); duplicates collapse, so `size` is an upper bound.
    fn arb_id_set(
        ids: std::ops::Range<u32>,
        size: std::ops::Range<usize>,
    ) -> impl Strategy<Value = std::collections::BTreeSet<u32>> {
        proptest::collection::vec(ids, size).prop_map(|v| v.into_iter().collect())
    }

    proptest! {
        #[test]
        fn model_agreement_insert_contains_iter(ops in arb_ops()) {
            let mut set = PartitionSet::new();
            let mut model: Vec<u32> = Vec::new();
            for op in ops {
                match op {
                    Op::Insert(p) => {
                        let fresh = set.insert(p);
                        let model_fresh = match model.binary_search(&p) {
                            Ok(_) => false,
                            Err(pos) => {
                                model.insert(pos, p);
                                true
                            }
                        };
                        prop_assert_eq!(fresh, model_fresh);
                    }
                    Op::Contains(p) => {
                        prop_assert_eq!(set.contains(p), model.binary_search(&p).is_ok());
                    }
                }
                prop_assert_eq!(ids(&set), model.clone());
            }
        }

        #[test]
        fn model_agreement_union(
            a in arb_id_set(0u32..300, 0..40),
            b in arb_id_set(0u32..300, 0..40),
        ) {
            let sa: PartitionSet = a.iter().copied().collect();
            let sb: PartitionSet = b.iter().copied().collect();
            let union_model: Vec<u32> = a.union(&b).copied().collect();
            // union_with agrees with the model in both directions.
            let mut acc = sa.clone();
            acc.union_with(&sb);
            prop_assert_eq!(ids(&acc), union_model);
            let mut acc2 = sb.clone();
            acc2.union_with(&sa);
            prop_assert_eq!(&acc, &acc2);
        }
    }
}
