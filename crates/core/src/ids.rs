//! Newtype identifiers for vertices and partitions.
//!
//! The paper distinguishes *partitions* from *machines*: PowerGraph and
//! PowerLyra run one partition per machine, while GraphX runs many partitions
//! per machine (one per core is the recommended rule of thumb, §7.2).
//! Partitions get a newtype; machines are plain `u32` / `usize` indices into
//! the simulated cluster, mapped from partitions by the engines.

use std::fmt;

/// Identifier of a vertex in a graph. Dense ids (`0..n`) are assumed by the
/// CSR representation; the edge-list loader remaps sparse external ids.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct VertexId(pub u64);

impl VertexId {
    /// The numeric index of this vertex, usable to index dense arrays.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for VertexId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "v{}", self.0)
    }
}

impl From<u64> for VertexId {
    fn from(v: u64) -> Self {
        VertexId(v)
    }
}

impl From<usize> for VertexId {
    fn from(v: usize) -> Self {
        VertexId(v as u64)
    }
}

/// Identifier of a partition (a bucket of edges under a vertex-cut).
///
/// In PowerGraph/PowerLyra there is exactly one partition per machine; in
/// GraphX there are typically many per machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct PartitionId(pub u32);

impl PartitionId {
    /// The numeric index of this partition, usable to index dense arrays.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for PartitionId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "p{}", self.0)
    }
}

impl From<u32> for PartitionId {
    fn from(v: u32) -> Self {
        PartitionId(v)
    }
}

impl From<usize> for PartitionId {
    fn from(v: usize) -> Self {
        PartitionId(v as u32)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn vertex_id_roundtrips_through_index() {
        let v = VertexId(42);
        assert_eq!(v.index(), 42);
        assert_eq!(VertexId::from(42usize), v);
        assert_eq!(VertexId::from(42u64), v);
    }

    #[test]
    fn partition_id_roundtrips_through_index() {
        let p = PartitionId(7);
        assert_eq!(p.index(), 7);
        assert_eq!(PartitionId::from(7usize), p);
        assert_eq!(PartitionId::from(7u32), p);
    }

    #[test]
    fn ids_are_ordered_and_hashable() {
        let mut set = HashSet::new();
        set.insert(VertexId(1));
        set.insert(VertexId(1));
        set.insert(VertexId(2));
        assert_eq!(set.len(), 2);
        assert!(VertexId(1) < VertexId(2));
        assert!(PartitionId(0) < PartitionId(1));
    }

    #[test]
    fn display_formats_are_distinct() {
        assert_eq!(VertexId(5).to_string(), "v5");
        assert_eq!(PartitionId(5).to_string(), "p5");
    }
}
