//! Flat replica-set tables: one bitset of `ceil(P/64)` words per vertex, all
//! vertices in one `Vec<u64>`.
//!
//! Every vertex's set has the same width, so the table is one allocation
//! (8 B per vertex at up to 64 partitions), a set is a word slice found by
//! multiplication, and merging two tables is one OR per word. The greedy
//! loaders keep their replica sets here, and the assignment build collects
//! its shards here before freezing them into sorted id lists.

/// Replica bitsets of `vertices` vertices over `partitions` partitions: bit
/// `p % 64` of word `v * width + p / 64` says `v` has an image on `p`.
pub(crate) struct ReplicaWords {
    words: Vec<u64>,
    width: usize,
}

impl ReplicaWords {
    /// Every set empty.
    pub(crate) fn new(vertices: u64, partitions: u32) -> Self {
        let width = (partitions as usize).div_ceil(64);
        ReplicaWords {
            words: vec![0; vertices as usize * width],
            width,
        }
    }

    /// `v`'s set as its `width` words, low ids first.
    #[inline]
    pub(crate) fn row(&self, v: usize) -> &[u64] {
        &self.words[v * self.width..][..self.width]
    }

    /// Add `p` to `v`'s set; `true` if it was not there.
    #[inline]
    pub(crate) fn insert(&mut self, v: usize, p: u32) -> bool {
        let word = &mut self.words[v * self.width + p as usize / 64];
        let mask = 1u64 << (p % 64);
        let fresh = *word & mask == 0;
        *word |= mask;
        fresh
    }

    /// Set union with a table of the same shape, one OR per word.
    pub(crate) fn union_with(&mut self, other: &Self) {
        debug_assert_eq!(self.words.len(), other.words.len(), "same shape");
        for (x, y) in self.words.iter_mut().zip(&other.words) {
            *x |= y;
        }
    }

    /// Images over all vertices.
    pub(crate) fn total(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }
}

/// Ids in a set's words.
#[inline]
pub(crate) fn count(row: &[u64]) -> u32 {
    row.iter().map(|w| w.count_ones()).sum()
}

/// The set bits of `word(0), …, word(words - 1)` as ascending ids: one set,
/// or a word-wise AND / OR of two read without building it.
pub(crate) fn bits<F: Fn(usize) -> u64>(words: usize, word: F) -> Bits<F> {
    let current = if words > 0 { word(0) } else { 0 };
    Bits {
        word,
        words,
        index: 0,
        current,
    }
}

/// Iterator of [`bits`].
#[derive(Clone)]
pub(crate) struct Bits<F> {
    word: F,
    words: usize,
    index: usize,
    current: u64,
}

impl<F: Fn(usize) -> u64> Iterator for Bits<F> {
    type Item = usize;

    #[inline]
    fn next(&mut self) -> Option<usize> {
        while self.current == 0 {
            self.index += 1;
            if self.index >= self.words {
                return None;
            }
            self.current = (self.word)(self.index);
        }
        let bit = self.current.trailing_zeros() as usize;
        self.current &= self.current - 1;
        Some(self.index * 64 + bit)
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use std::collections::BTreeSet;

    /// A set's words as a `BTreeSet`, for the scoring oracles.
    pub(crate) fn set(words: &[u64]) -> BTreeSet<u32> {
        (0..64 * words.len())
            .filter(|&p| words[p / 64] >> (p % 64) & 1 == 1)
            .map(|p| p as u32)
            .collect()
    }

    #[test]
    fn rows_insert_union_and_scan_in_ascending_order() {
        for partitions in [1u32, 9, 64, 65, 300] {
            let mut a = ReplicaWords::new(3, partitions);
            let mut b = ReplicaWords::new(3, partitions);
            let ids: Vec<u32> = [0, 63, 64, 200, 299]
                .into_iter()
                .filter(|&p| p < partitions)
                .collect();
            for &p in ids.iter().rev() {
                assert!(a.insert(1, p));
                assert!(!a.insert(1, p), "p={p} inserted twice");
            }
            b.insert(1, partitions - 1);
            b.insert(2, 0);
            a.union_with(&b);
            let mut want = ids.clone();
            if !want.contains(&(partitions - 1)) {
                want.push(partitions - 1);
            }
            let row = a.row(1);
            let got: Vec<u32> = bits(row.len(), |i| row[i]).map(|p| p as u32).collect();
            assert_eq!(got, want, "P={partitions}");
            assert_eq!(count(row) as usize, want.len());
            assert_eq!(count(a.row(0)), 0);
            assert_eq!(a.total(), want.len() + 1);
        }
    }
}
