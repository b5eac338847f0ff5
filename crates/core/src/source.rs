//! The [`StreamingEdges`] abstraction: an edge stream that partitioning
//! ingress can consume chunk-by-chunk without materializing a `Vec<Edge>`.
//!
//! The paper's loaders stream edge blocks off disk (§5.3); our in-memory
//! [`EdgeList`] hid that behind a slice. `StreamingEdges` restores the
//! streaming contract while keeping the slice as a zero-cost fast path:
//! a source is addressed by *edge index* in a fixed stream order, so the
//! chunked parallel ingress of `gp-par` — whose chunk boundaries are a pure
//! function of `(total_edges, workers)` — produces byte-identical results
//! whether the edges come from memory or are decoded on the fly from a
//! compressed on-disk store (`gp-store`).
//!
//! Implementations must be cheap to read from multiple threads (`Sync`) and
//! must return the same edge for the same index on every call — the
//! multi-pass strategies (Hybrid, Hybrid-Ginger, auto-BiCut) re-read ranges.

use crate::{hash_stream_edge, Edge, EdgeList};
use std::ops::Range;

/// Edges decoded per buffered read on the streaming path. 64Ki edges = 1 MiB
/// of buffer per worker: large enough to amortize the virtual call and any
/// per-read seek, small enough to stay cache- and RSS-friendly.
pub const STREAM_BUF_EDGES: usize = 64 * 1024;

/// A random-access edge stream over a dense vertex space `0..num_vertices`.
///
/// Object-safe so `Box<dyn Partitioner>` strategies can accept any source;
/// `&EdgeList` coerces to `&dyn StreamingEdges` at every existing call site.
pub trait StreamingEdges: Sync {
    /// Number of vertices (dense id space `0..n`).
    fn num_vertices(&self) -> u64;

    /// Total number of edges in the stream.
    fn num_edges(&self) -> usize;

    /// Copy edges `start..start + buf.len()` (clamped to the stream end)
    /// into `buf`, returning how many were written. Must fill from the front
    /// and must be pure: the same `start` always yields the same edges.
    fn read_edges(&self, start: usize, buf: &mut [Edge]) -> usize;

    /// Fully-materialized fast path: sources that already hold a `Vec<Edge>`
    /// return it here, and iteration helpers skip the copy loop entirely.
    fn as_edge_slice(&self) -> Option<&[Edge]> {
        None
    }

    /// Short label for reports/telemetry: `"memory"` or `"store"`.
    fn source_kind(&self) -> &'static str {
        "memory"
    }

    /// On-disk footprint of the backing storage, when there is one.
    fn storage_bytes(&self) -> Option<u64> {
        None
    }
}

impl StreamingEdges for EdgeList {
    #[inline]
    fn num_vertices(&self) -> u64 {
        EdgeList::num_vertices(self)
    }

    #[inline]
    fn num_edges(&self) -> usize {
        EdgeList::num_edges(self)
    }

    fn read_edges(&self, start: usize, buf: &mut [Edge]) -> usize {
        let edges = self.edges();
        let end = (start + buf.len()).min(edges.len());
        let n = end.saturating_sub(start);
        buf[..n].copy_from_slice(&edges[start..end]);
        n
    }

    #[inline]
    fn as_edge_slice(&self) -> Option<&[Edge]> {
        Some(self.edges())
    }
}

/// Visit every edge with index in `range`, in stream order. The ingress hot
/// path: materialized sources iterate their slice directly (identical code
/// to the historical `&graph.edges()[range]` loops), streaming sources
/// decode through a bounded buffer — peak memory per worker is
/// [`STREAM_BUF_EDGES`] edges regardless of graph size.
pub fn for_each_edge<F: FnMut(Edge)>(source: &dyn StreamingEdges, range: Range<usize>, mut f: F) {
    debug_assert!(range.end <= source.num_edges(), "range beyond stream end");
    if let Some(edges) = source.as_edge_slice() {
        for &e in &edges[range] {
            f(e);
        }
        return;
    }
    let mut buf = vec![Edge::new(0u64, 0u64); STREAM_BUF_EDGES.min(range.len().max(1))];
    let mut pos = range.start;
    while pos < range.end {
        let want = (range.end - pos).min(buf.len());
        let got = source.read_edges(pos, &mut buf[..want]);
        assert!(got > 0, "edge source returned no edges at index {pos}");
        for &e in &buf[..got] {
            f(e);
        }
        pos += got;
    }
}

/// A 64-bit digest of the whole stream: the wrapping sum of
/// [`hash_stream_edge`] over its edges. A sum, so disjoint shards of the
/// stream digest on their own and add up to the same value in any chunking.
pub fn edge_digest(source: &dyn StreamingEdges) -> u64 {
    let mut digest = 0u64;
    let mut i = 0;
    for_each_edge(source, 0..source.num_edges(), |e| {
        digest = digest.wrapping_add(hash_stream_edge(i, e));
        i += 1;
    });
    digest
}

/// Buffered [`Iterator`] over a range of a streaming source — the adapter
/// form of [`for_each_edge`] for callers that want iterator combinators.
pub struct EdgeStreamIter<'a> {
    source: &'a dyn StreamingEdges,
    buf: Vec<Edge>,
    filled: usize,
    cursor: usize,
    next: usize,
    end: usize,
}

impl<'a> EdgeStreamIter<'a> {
    /// Iterate edges with indices in `range`.
    pub fn new(source: &'a dyn StreamingEdges, range: Range<usize>) -> Self {
        debug_assert!(range.end <= source.num_edges(), "range beyond stream end");
        EdgeStreamIter {
            source,
            buf: vec![Edge::new(0u64, 0u64); STREAM_BUF_EDGES.min(range.len().max(1))],
            filled: 0,
            cursor: 0,
            next: range.start,
            end: range.end,
        }
    }
}

impl Iterator for EdgeStreamIter<'_> {
    type Item = Edge;

    fn next(&mut self) -> Option<Edge> {
        if self.cursor == self.filled {
            if self.next >= self.end {
                return None;
            }
            let want = (self.end - self.next).min(self.buf.len());
            let got = self.source.read_edges(self.next, &mut self.buf[..want]);
            assert!(
                got > 0,
                "edge source returned no edges at index {}",
                self.next
            );
            self.filled = got;
            self.cursor = 0;
            self.next += got;
        }
        let e = self.buf[self.cursor];
        self.cursor += 1;
        Some(e)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let left = (self.end - self.next) + (self.filled - self.cursor);
        (left, Some(left))
    }
}

/// Materialize a source (or a range of it) back into an [`EdgeList`] — the
/// reference in-memory form for byte-identity tests against streamed ingress.
pub fn collect_edge_list(source: &dyn StreamingEdges) -> EdgeList {
    let mut edges = Vec::with_capacity(source.num_edges());
    for_each_edge(source, 0..source.num_edges(), |e| edges.push(e));
    EdgeList::with_vertex_count(edges, source.num_vertices())
        .expect("a well-formed source stays in its own id space")
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A deliberately copy-only source (no slice fast path) for exercising
    /// the buffered code paths against the same edges.
    struct Opaque(EdgeList);

    impl StreamingEdges for Opaque {
        fn num_vertices(&self) -> u64 {
            self.0.num_vertices()
        }
        fn num_edges(&self) -> usize {
            self.0.num_edges()
        }
        fn read_edges(&self, start: usize, buf: &mut [Edge]) -> usize {
            // Return at most 3 edges per call to force many refills.
            let cap = buf.len().min(3);
            self.0.read_edges(start, &mut buf[..cap])
        }
        fn source_kind(&self) -> &'static str {
            "opaque"
        }
    }

    fn graph() -> EdgeList {
        EdgeList::from_pairs((0..23u64).map(|i| (i, (i * 7 + 1) % 23)).collect())
    }

    #[test]
    fn edge_list_implements_the_trait_with_a_slice_fast_path() {
        let g = graph();
        let s: &dyn StreamingEdges = &g;
        assert_eq!(s.num_edges(), 23);
        assert_eq!(s.num_vertices(), 23);
        assert_eq!(s.as_edge_slice().unwrap(), g.edges());
        assert_eq!(s.source_kind(), "memory");
        assert_eq!(s.storage_bytes(), None);
    }

    #[test]
    fn for_each_edge_matches_the_slice_on_every_range() {
        let g = graph();
        let o = Opaque(g.clone());
        for range in [0..23usize, 0..0, 5..5, 0..1, 7..19, 22..23] {
            let mut direct = Vec::new();
            for_each_edge(&g, range.clone(), |e| direct.push(e));
            assert_eq!(direct, g.edges()[range.clone()].to_vec());
            let mut buffered = Vec::new();
            for_each_edge(&o, range.clone(), |e| buffered.push(e));
            assert_eq!(buffered, direct, "buffered path diverges on {range:?}");
        }
    }

    #[test]
    fn iterator_adapter_agrees_with_for_each() {
        let g = graph();
        let o = Opaque(g.clone());
        let via_iter: Vec<Edge> = EdgeStreamIter::new(&o, 3..20).collect();
        assert_eq!(via_iter, g.edges()[3..20].to_vec());
        assert_eq!(EdgeStreamIter::new(&o, 0..0).count(), 0);
        let (lo, hi) = EdgeStreamIter::new(&g, 0..23).size_hint();
        assert_eq!((lo, hi), (23, Some(23)));
    }

    #[test]
    fn edge_digest_reads_the_stream_in_order() {
        let g = graph();
        assert_eq!(edge_digest(&Opaque(g.clone())), edge_digest(&g));
        assert_eq!(g.edge_digest(), edge_digest(&g));
        let mut swapped = g.edges().to_vec();
        swapped.swap(3, 4);
        let swapped = EdgeList::from_edges(swapped);
        assert_ne!(edge_digest(&swapped), edge_digest(&g));
        assert_eq!(edge_digest(&EdgeList::default()), 0);
    }

    #[test]
    fn collect_round_trips_an_edge_list() {
        let g = graph();
        let back = collect_edge_list(&Opaque(g.clone()));
        assert_eq!(back.edges(), g.edges());
        assert_eq!(back.num_vertices(), g.num_vertices());
    }

    #[test]
    fn short_reads_are_clamped_to_the_stream_end() {
        let g = graph();
        let mut buf = vec![Edge::new(0u64, 0u64); 10];
        assert_eq!(g.read_edges(20, &mut buf), 3);
        assert_eq!(g.read_edges(23, &mut buf), 0);
        assert_eq!(&buf[..3], &g.edges()[20..23]);
    }
}
