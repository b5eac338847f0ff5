//! [`PartitionSet`] — a compact set of partition ids.
//!
//! Replica sets are the hottest data structure at ingress: every edge
//! inserts its partition into both endpoints' sets, and the parallel shard
//! merge unions one set per vertex per shard. The paper's clusters top out
//! at 121 partitions (§4.1), so the common case fits comfortably in a
//! fixed-width inline bitset of 256 bits (`[u64; 4]`, no heap allocation);
//! larger partition counts spill to a heap-backed bitset transparently.
//!
//! Operations the hot paths rely on:
//!
//! - `insert` / `contains`: O(1) bit ops.
//! - `len`: popcount over at most four words (inline arm).
//! - `union_with`: word-wise OR — the shard-merge kernel, branchless per
//!   word, insensitive to merge order (set union is what the sequential
//!   build computes, so parallel merges stay byte-identical).
//! - `iter`: ascending bit-scan, reproducing the sorted `Vec<u32>` order
//!   the rest of the system observes.

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
    /// is partition `p`'s membership. Public so scoring kernels (HDRF
    /// ingress) can classify 64 partitions per AND/OR instead of
    /// probing [`PartitionSet::contains`] one partition at a time.
    #[inline]
    pub fn words(&self) -> &[u64] {
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

    /// Remove `p`; returns `true` if it was present. The representation
    /// never shrinks back from spill to inline — removal is the serving-time
    /// refcount-decay path, where sets oscillate and re-inserts are likely.
    #[inline]
    pub fn remove(&mut self, p: u32) -> bool {
        let (word, bit) = (p as usize / 64, p as usize % 64);
        let mask = 1u64 << bit;
        let w = match &mut self.repr {
            Repr::Inline(w) if word < INLINE_WORDS => &mut w[word],
            Repr::Inline(_) => return false,
            Repr::Spill(v) => match v.get_mut(word) {
                Some(w) => w,
                None => return false,
            },
        };
        let present = *w & mask != 0;
        *w &= !mask;
        present
    }

    /// True if `p` is in the set.
    #[inline]
    pub fn contains(&self, p: u32) -> bool {
        let (word, bit) = (p as usize / 64, p as usize % 64);
        let w = self.words();
        word < w.len() && w[word] & (1 << bit) != 0
    }

    /// Number of ids in the set (popcount).
    #[inline]
    pub fn len(&self) -> u32 {
        self.words().iter().map(|w| w.count_ones()).sum()
    }

    /// True if no id is present.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.words().iter().all(|&w| w == 0)
    }

    /// `self ∪= other` — word-wise OR, the parallel shard-merge kernel.
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

    /// `self ∪ other` as a new set.
    pub fn union(&self, other: &Self) -> Self {
        let mut out = self.clone();
        out.union_with(other);
        out
    }

    /// `self ∩ other` as a new set (word-wise AND).
    pub fn intersection(&self, other: &Self) -> Self {
        match (&self.repr, &other.repr) {
            (Repr::Inline(a), Repr::Inline(b)) => {
                let mut w = [0u64; INLINE_WORDS];
                for i in 0..INLINE_WORDS {
                    w[i] = a[i] & b[i];
                }
                PartitionSet {
                    repr: Repr::Inline(w),
                }
            }
            _ => {
                let (a, b) = (self.words(), other.words());
                let n = a.len().min(b.len());
                let mut w = [0u64; INLINE_WORDS];
                if n <= INLINE_WORDS {
                    for i in 0..n {
                        w[i] = a[i] & b[i];
                    }
                    PartitionSet {
                        repr: Repr::Inline(w),
                    }
                } else {
                    let v: Vec<u64> = a[..n].iter().zip(&b[..n]).map(|(x, y)| x & y).collect();
                    PartitionSet {
                        repr: Repr::Spill(v),
                    }
                }
            }
        }
    }

    /// Smallest id, if any.
    #[inline]
    pub fn first(&self) -> Option<u32> {
        for (i, &w) in self.words().iter().enumerate() {
            if w != 0 {
                return Some((i * 64) as u32 + w.trailing_zeros());
            }
        }
        None
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

    /// The ids as a sorted `Vec` (testing / interop convenience).
    pub fn to_vec(&self) -> Vec<u32> {
        self.iter().collect()
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

impl<'a> IntoIterator for &'a PartitionSet {
    type Item = u32;
    type IntoIter = PartitionSetIter<'a>;
    fn into_iter(self) -> Self::IntoIter {
        self.iter()
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

    #[test]
    fn empty_set_basics() {
        let s = PartitionSet::new();
        assert!(s.is_empty());
        assert_eq!(s.len(), 0);
        assert_eq!(s.first(), None);
        assert_eq!(s.iter().count(), 0);
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
    fn remove_reports_presence_and_clears_bits() {
        let mut s = PartitionSet::new();
        assert!(!s.remove(3), "removing from empty set is a no-op");
        s.insert(3);
        s.insert(300); // forces a spill
        assert!(s.remove(3));
        assert!(!s.contains(3));
        assert!(!s.remove(3), "double remove reports absence");
        assert!(s.remove(300));
        assert!(s.is_empty());
        assert!(!s.remove(10_000), "beyond-width remove is a no-op");
        let mut inline = PartitionSet::singleton(5);
        assert!(!inline.remove(999), "inline set ignores beyond-width ids");
        assert!(inline.remove(5));
        assert!(inline.is_empty());
    }

    #[test]
    fn iter_is_sorted_across_the_spill_boundary() {
        let mut s = PartitionSet::new();
        for p in [299, 0, 64, 255, 256, 130] {
            s.insert(p);
        }
        assert_eq!(s.to_vec(), vec![0, 64, 130, 255, 256, 299]);
        assert_eq!(s.len(), 6);
        assert_eq!(s.first(), Some(0));
    }

    #[test]
    fn union_or_kernel_equals_set_union() {
        let a: PartitionSet = [1u32, 5, 200].into_iter().collect();
        let b: PartitionSet = [5u32, 7, 290].into_iter().collect();
        assert_eq!(a.union(&b).to_vec(), vec![1, 5, 7, 200, 290]);
        let mut c = a.clone();
        c.union_with(&b);
        assert_eq!(c, a.union(&b));
        // Union with an empty set is the identity in both directions.
        assert_eq!(a.union(&PartitionSet::new()), a);
        assert_eq!(PartitionSet::new().union(&a), a);
    }

    #[test]
    fn intersection_across_representations() {
        let inline: PartitionSet = [1u32, 5, 9].into_iter().collect();
        let spill: PartitionSet = [5u32, 9, 280].into_iter().collect();
        assert_eq!(inline.intersection(&spill).to_vec(), vec![5, 9]);
        assert_eq!(spill.intersection(&inline).to_vec(), vec![5, 9]);
        assert_eq!(
            spill.intersection(&spill).to_vec(),
            vec![5, 9, 280],
            "self-intersection is identity"
        );
    }

    #[test]
    fn equality_is_by_content_not_representation() {
        let mut spilled = PartitionSet::new();
        spilled.insert(3);
        spilled.insert(400); // spill...
        let inline = PartitionSet::singleton(3);
        // ...then compare against the inline set with the same low bits:
        // spilled still holds 400, so they differ; a spilled set whose high
        // bits are clear must equal its inline twin.
        assert_ne!(spilled, inline);
        let mut cleared = PartitionSet::new();
        cleared.insert(400);
        let spilled_three: PartitionSet = {
            let mut s = cleared.clone();
            s.insert(3);
            s
        };
        assert_eq!(
            spilled_three.intersection(&inline),
            inline,
            "AND result with clear high words equals the inline set"
        );
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
        fn model_agreement_insert_contains_iter_len(ops in arb_ops()) {
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
                prop_assert_eq!(set.len() as usize, model.len());
                prop_assert_eq!(set.to_vec(), model.clone());
                prop_assert_eq!(set.first(), model.first().copied());
            }
        }

        #[test]
        fn model_agreement_union_and_intersection(
            a in arb_id_set(0u32..300, 0..40),
            b in arb_id_set(0u32..300, 0..40),
        ) {
            let sa: PartitionSet = a.iter().copied().collect();
            let sb: PartitionSet = b.iter().copied().collect();
            let union_model: Vec<u32> = a.union(&b).copied().collect();
            let inter_model: Vec<u32> = a.intersection(&b).copied().collect();
            prop_assert_eq!(sa.union(&sb).to_vec(), union_model);
            prop_assert_eq!(sa.intersection(&sb).to_vec(), inter_model);
            // union_with agrees with union in both directions.
            let mut acc = sa.clone();
            acc.union_with(&sb);
            prop_assert_eq!(&acc, &sa.union(&sb));
            let mut acc2 = sb.clone();
            acc2.union_with(&sa);
            prop_assert_eq!(&acc, &acc2);
        }
    }
}
