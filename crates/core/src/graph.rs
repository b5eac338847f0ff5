//! Graph containers: edge lists (ingress-time view) and CSR (compute-time view).
//!
//! The paper's pipeline is: datasets live on disk as plain-text edge lists
//! (§4.2), are streamed through a partitioning strategy at ingress, and the
//! resulting per-partition edge sets are built into adjacency structures for
//! the compute phase. [`EdgeList`] is the ingress view; [`CsrGraph`] is the
//! compute view with both out- and in-adjacency (GAS programs gather and
//! scatter along either direction, §3.1). An edge list builds its CSR the
//! first time a job asks for it and keeps it until the edges change.

use crate::{CoreError, Result, VertexId};
use std::sync::OnceLock;

/// A directed edge `src -> dst`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Edge {
    /// Source vertex.
    pub src: VertexId,
    /// Destination vertex.
    pub dst: VertexId,
}

impl Edge {
    /// Construct an edge.
    #[inline]
    pub fn new(src: impl Into<VertexId>, dst: impl Into<VertexId>) -> Self {
        Edge {
            src: src.into(),
            dst: dst.into(),
        }
    }

    /// The reversed edge `dst -> src`.
    #[inline]
    pub fn reversed(self) -> Self {
        Edge {
            src: self.dst,
            dst: self.src,
        }
    }

    /// True if both endpoints are the same vertex.
    #[inline]
    pub fn is_self_loop(self) -> bool {
        self.src == self.dst
    }
}

/// An in-memory edge list with a dense vertex id space `0..num_vertices`.
///
/// This is the form graphs take during ingress: strategies stream over
/// `edges()` and assign each edge a partition. What compute derives from
/// the edges alone — the adjacency and the edge-stream digest — is built on
/// first use, kept, and dropped by [`EdgeList::push`].
#[derive(Debug, Clone, Default)]
pub struct EdgeList {
    edges: Vec<Edge>,
    num_vertices: u64,
    csr: OnceLock<CsrGraph>,
    digest: OnceLock<u64>,
}

impl EdgeList {
    fn new(edges: Vec<Edge>, num_vertices: u64) -> Self {
        EdgeList {
            edges,
            num_vertices,
            csr: OnceLock::new(),
            digest: OnceLock::new(),
        }
    }

    /// Build from raw edges; the vertex count is `max endpoint + 1`.
    pub fn from_edges(edges: Vec<Edge>) -> Self {
        let num_vertices = edges
            .iter()
            .map(|e| e.src.0.max(e.dst.0) + 1)
            .max()
            .unwrap_or(0);
        EdgeList::new(edges, num_vertices)
    }

    /// Build from `(src, dst)` integer pairs.
    pub fn from_pairs(pairs: Vec<(u64, u64)>) -> Self {
        Self::from_edges(pairs.into_iter().map(|(s, d)| Edge::new(s, d)).collect())
    }

    /// Build from edges with an explicit vertex count (allows isolated
    /// trailing vertices). Fails if an edge references a vertex `>= n`.
    pub fn with_vertex_count(edges: Vec<Edge>, num_vertices: u64) -> Result<Self> {
        if let Some(e) = edges
            .iter()
            .find(|e| e.src.0 >= num_vertices || e.dst.0 >= num_vertices)
        {
            return Err(CoreError::InvalidGraph(format!(
                "edge {}->{} references a vertex >= declared count {num_vertices}",
                e.src, e.dst
            )));
        }
        Ok(EdgeList::new(edges, num_vertices))
    }

    /// Number of edges.
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.edges.len()
    }

    /// Number of vertices (dense id space `0..n`).
    #[inline]
    pub fn num_vertices(&self) -> u64 {
        self.num_vertices
    }

    /// The edges as a slice, in ingress (stream) order.
    #[inline]
    pub fn edges(&self) -> &[Edge] {
        &self.edges
    }

    /// Append an edge, growing the vertex count if needed. The cached
    /// adjacency and digest no longer describe the graph and are dropped.
    pub fn push(&mut self, e: Edge) {
        self.num_vertices = self.num_vertices.max(e.src.0.max(e.dst.0) + 1);
        self.edges.push(e);
        self.csr.take();
        self.digest.take();
    }

    /// The graph's adjacency, built by the first call and shared by every
    /// later one until the next [`EdgeList::push`].
    pub fn csr(&self) -> &CsrGraph {
        self.csr.get_or_init(|| CsrGraph::from_edge_list(self))
    }

    /// [`crate::edge_digest`] of the edge stream, cached like
    /// [`EdgeList::csr`]: what an assignment of this graph must carry.
    pub fn edge_digest(&self) -> u64 {
        *self.digest.get_or_init(|| crate::edge_digest(self))
    }

    /// Compute per-vertex in/out degrees in one pass.
    pub fn degrees(&self) -> DegreeTable {
        let n = self.num_vertices as usize;
        let mut out_deg = vec![0u32; n];
        let mut in_deg = vec![0u32; n];
        for e in &self.edges {
            out_deg[e.src.index()] += 1;
            in_deg[e.dst.index()] += 1;
        }
        DegreeTable { out_deg, in_deg }
    }
}

/// Per-vertex in/out degree counts.
#[derive(Debug, Clone)]
pub struct DegreeTable {
    out_deg: Vec<u32>,
    in_deg: Vec<u32>,
}

impl DegreeTable {
    /// Out-degree of `v`.
    #[inline]
    pub fn out_degree(&self, v: VertexId) -> u32 {
        self.out_deg[v.index()]
    }

    /// In-degree of `v`.
    #[inline]
    pub fn in_degree(&self, v: VertexId) -> u32 {
        self.in_deg[v.index()]
    }

    /// Total (in + out) degree of `v`.
    #[inline]
    pub fn degree(&self, v: VertexId) -> u32 {
        self.out_deg[v.index()] + self.in_deg[v.index()]
    }

    /// Number of vertices covered.
    #[inline]
    pub fn len(&self) -> usize {
        self.out_deg.len()
    }

    /// True if the table covers no vertices.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.out_deg.is_empty()
    }

    /// Maximum total degree over all vertices (0 for an empty graph).
    /// One linear pass over the two zipped degree slices — no index math,
    /// no bounds checks.
    pub fn max_degree(&self) -> u32 {
        self.out_deg
            .iter()
            .zip(&self.in_deg)
            .map(|(o, i)| o + i)
            .max()
            .unwrap_or(0)
    }

    /// Maximum in-degree over all vertices (0 for an empty graph).
    pub fn max_in_degree(&self) -> u32 {
        self.in_deg.iter().copied().max().unwrap_or(0)
    }

    /// Maximum out-degree over all vertices (0 for an empty graph).
    pub fn max_out_degree(&self) -> u32 {
        self.out_deg.iter().copied().max().unwrap_or(0)
    }

    /// Iterator over in-degrees in vertex order.
    pub fn in_degrees(&self) -> impl Iterator<Item = u32> + '_ {
        self.in_deg.iter().copied()
    }

    /// An all-zero table over `n` vertices — the starting point for one
    /// shard of a parallel degree count.
    pub fn zeroed(n: usize) -> Self {
        DegreeTable {
            out_deg: vec![0; n],
            in_deg: vec![0; n],
        }
    }

    /// Count one edge into the table (a self-loop counts once on each side,
    /// exactly as [`EdgeList::degrees`] does).
    #[inline]
    pub fn record(&mut self, e: Edge) {
        self.out_deg[e.src.index()] += 1;
        self.in_deg[e.dst.index()] += 1;
    }

    /// Elementwise-add another shard into this one. Degree counts are
    /// integer sums, so merging disjoint stream shards *in any chunking*
    /// reproduces the sequential table exactly — this is the ordered-
    /// reduction operator behind `gp_partition`'s sharded degree pass.
    pub fn merge_from(&mut self, shard: &DegreeTable) {
        assert_eq!(
            self.len(),
            shard.len(),
            "shards must cover the same vertex space"
        );
        for (a, b) in self.out_deg.iter_mut().zip(&shard.out_deg) {
            *a += b;
        }
        for (a, b) in self.in_deg.iter_mut().zip(&shard.in_deg) {
            *a += b;
        }
    }
}

/// Compressed-sparse-row adjacency with both out- and in-neighbor access.
///
/// Built once per graph ([`EdgeList::csr`]) and shared by every partitioning
/// of it; engines iterate neighbors during gather/scatter minor-steps.
#[derive(Debug, Clone)]
pub struct CsrGraph {
    num_vertices: u64,
    out_offsets: Vec<u64>,
    out_targets: Vec<VertexId>,
    in_offsets: Vec<u64>,
    in_sources: Vec<VertexId>,
}

impl CsrGraph {
    /// Build from an edge list. `O(V + E)` time, two counting passes.
    pub fn from_edge_list(list: &EdgeList) -> Self {
        Self::from_edges(list.edges(), list.num_vertices())
    }

    /// Build from a slice of edges over a dense vertex space `0..num_vertices`.
    pub fn from_edges(edges: &[Edge], num_vertices: u64) -> Self {
        /// A borrowed slice as an edge source; `as_edge_slice` keeps
        /// [`CsrGraph::from_source`] on its copy-free path.
        struct Slice<'a>(&'a [Edge], u64);
        impl crate::source::StreamingEdges for Slice<'_> {
            fn num_vertices(&self) -> u64 {
                self.1
            }
            fn num_edges(&self) -> usize {
                self.0.len()
            }
            fn read_edges(&self, start: usize, buf: &mut [Edge]) -> usize {
                let end = (start + buf.len()).min(self.0.len());
                let n = end.saturating_sub(start);
                buf[..n].copy_from_slice(&self.0[start..end]);
                n
            }
            fn as_edge_slice(&self) -> Option<&[Edge]> {
                Some(self.0)
            }
        }
        Self::from_source(&Slice(edges, num_vertices))
    }

    /// Build from any edge source in two streaming counting passes
    /// (insertion order within each adjacency row). Never holds a
    /// `Vec<Edge>`: peak extra memory is the CSR arrays themselves.
    pub fn from_source(source: &dyn crate::source::StreamingEdges) -> Self {
        let num_vertices = source.num_vertices();
        let num_edges = source.num_edges();
        let n = num_vertices as usize;
        let mut out_counts = vec![0u64; n + 1];
        let mut in_counts = vec![0u64; n + 1];
        crate::source::for_each_edge(source, 0..num_edges, |e| {
            out_counts[e.src.index() + 1] += 1;
            in_counts[e.dst.index() + 1] += 1;
        });
        for i in 0..n {
            out_counts[i + 1] += out_counts[i];
            in_counts[i + 1] += in_counts[i];
        }
        let mut out_targets = vec![VertexId(0); num_edges];
        let mut in_sources = vec![VertexId(0); num_edges];
        let mut out_cursor = out_counts.clone();
        let mut in_cursor = in_counts.clone();
        crate::source::for_each_edge(source, 0..num_edges, |e| {
            let oc = &mut out_cursor[e.src.index()];
            out_targets[*oc as usize] = e.dst;
            *oc += 1;
            let ic = &mut in_cursor[e.dst.index()];
            in_sources[*ic as usize] = e.src;
            *ic += 1;
        });
        CsrGraph {
            num_vertices,
            out_offsets: out_counts,
            out_targets,
            in_offsets: in_counts,
            in_sources,
        }
    }

    /// Number of vertices.
    #[inline]
    pub fn num_vertices(&self) -> u64 {
        self.num_vertices
    }

    /// Number of edges.
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.out_targets.len()
    }

    /// Out-neighbors of `v`, in insertion order.
    #[inline]
    pub fn out_neighbors(&self, v: VertexId) -> impl Iterator<Item = VertexId> + '_ {
        let lo = self.out_offsets[v.index()] as usize;
        let hi = self.out_offsets[v.index() + 1] as usize;
        self.out_targets[lo..hi].iter().copied()
    }

    /// In-neighbors of `v`, in insertion order.
    #[inline]
    pub fn in_neighbors(&self, v: VertexId) -> impl Iterator<Item = VertexId> + '_ {
        let lo = self.in_offsets[v.index()] as usize;
        let hi = self.in_offsets[v.index() + 1] as usize;
        self.in_sources[lo..hi].iter().copied()
    }

    /// Out-degree of `v`.
    #[inline]
    pub fn out_degree(&self, v: VertexId) -> u32 {
        (self.out_offsets[v.index() + 1] - self.out_offsets[v.index()]) as u32
    }

    /// In-degree of `v`.
    #[inline]
    pub fn in_degree(&self, v: VertexId) -> u32 {
        (self.in_offsets[v.index() + 1] - self.in_offsets[v.index()]) as u32
    }

    /// Iterator over all vertices.
    pub fn vertices(&self) -> impl Iterator<Item = VertexId> {
        (0..self.num_vertices).map(VertexId)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diamond() -> EdgeList {
        // 0 -> 1, 0 -> 2, 1 -> 3, 2 -> 3
        EdgeList::from_pairs(vec![(0, 1), (0, 2), (1, 3), (2, 3)])
    }

    #[test]
    fn edge_reversed_swaps_endpoints() {
        assert_eq!(Edge::new(1u64, 2u64).reversed(), Edge::new(2u64, 1u64));
    }

    #[test]
    fn self_loop_detection() {
        assert!(Edge::new(3u64, 3u64).is_self_loop());
        assert!(!Edge::new(3u64, 4u64).is_self_loop());
    }

    #[test]
    fn edge_list_counts_vertices_from_max_endpoint() {
        let g = diamond();
        assert_eq!(g.num_vertices(), 4);
        assert_eq!(g.num_edges(), 4);
    }

    #[test]
    fn with_vertex_count_allows_isolated_vertices() {
        let g = EdgeList::with_vertex_count(vec![Edge::new(0u64, 1u64)], 10).unwrap();
        assert_eq!(g.num_vertices(), 10);
    }

    #[test]
    fn with_vertex_count_rejects_out_of_range_edges() {
        let err = EdgeList::with_vertex_count(vec![Edge::new(0u64, 11u64)], 10);
        assert!(err.is_err());
    }

    #[test]
    fn push_grows_vertex_count() {
        let mut g = EdgeList::default();
        g.push(Edge::new(0u64, 7u64));
        assert_eq!(g.num_vertices(), 8);
        g.push(Edge::new(2u64, 3u64));
        assert_eq!(g.num_vertices(), 8);
    }

    #[test]
    fn push_drops_the_cached_adjacency_and_digest() {
        let mut g = diamond();
        let (before, digest) = (g.csr().num_edges(), g.edge_digest());
        assert!(std::ptr::eq(g.csr(), g.csr()), "built once");
        g.push(Edge::new(3u64, 4u64));
        assert_eq!(g.csr().num_edges(), before + 1);
        assert_eq!(g.csr().num_vertices(), 5);
        let out: Vec<_> = g.csr().out_neighbors(VertexId(3)).collect();
        assert_eq!(out, vec![VertexId(4)]);
        assert_ne!(g.edge_digest(), digest);
        assert_eq!(g.edge_digest(), crate::edge_digest(&g));
    }

    #[test]
    fn degrees_match_hand_count() {
        let d = diamond().degrees();
        assert_eq!(d.out_degree(VertexId(0)), 2);
        assert_eq!(d.in_degree(VertexId(0)), 0);
        assert_eq!(d.in_degree(VertexId(3)), 2);
        assert_eq!(d.degree(VertexId(1)), 2);
        assert_eq!(d.max_degree(), 2);
    }

    #[test]
    fn csr_out_and_in_neighbors() {
        let csr = CsrGraph::from_edge_list(&diamond());
        assert_eq!(
            csr.out_neighbors(VertexId(0)).collect::<Vec<_>>(),
            vec![VertexId(1), VertexId(2)]
        );
        assert_eq!(
            csr.in_neighbors(VertexId(3)).collect::<Vec<_>>(),
            vec![VertexId(1), VertexId(2)]
        );
        assert_eq!(csr.out_degree(VertexId(0)), 2);
        assert_eq!(csr.in_degree(VertexId(3)), 2);
        assert_eq!(csr.num_edges(), 4);
        assert_eq!(csr.num_vertices(), 4);
    }

    #[test]
    fn csr_handles_empty_graph() {
        let csr = CsrGraph::from_edges(&[], 0);
        assert_eq!(csr.num_vertices(), 0);
        assert_eq!(csr.num_edges(), 0);
        assert_eq!(csr.vertices().count(), 0);
    }

    #[test]
    fn csr_degrees_agree_with_degree_table() {
        let g = diamond();
        let csr = CsrGraph::from_edge_list(&g);
        let d = g.degrees();
        for v in csr.vertices() {
            assert_eq!(csr.out_degree(v), d.out_degree(v));
            assert_eq!(csr.in_degree(v), d.in_degree(v));
        }
    }
}
