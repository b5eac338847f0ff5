//! The live graph: a base snapshot plus an in-memory delta of streamed
//! inserts and deletes.
//!
//! The base comes from any [`StreamingEdges`] source — an in-memory edge
//! list or a compressed `.gps` store — and is materialized once into an
//! append-only edge array plus an out-adjacency index. Inserts append;
//! deletes tombstone (the arrays never compact, so edge indices are stable
//! for the whole serve run, which keeps the per-edge partition map and the
//! delete-victim resolution trivially deterministic).

use gp_core::{Edge, StreamingEdges, VertexId};

/// Base snapshot + streamed delta.
#[derive(Debug)]
pub struct LiveGraph {
    num_vertices: u64,
    /// All edges ever seen: base snapshot then inserts, in arrival order.
    edges: Vec<Edge>,
    /// Tombstone flags, parallel to `edges`.
    alive: Vec<bool>,
    alive_count: usize,
    base_count: usize,
    /// Out-adjacency: for each vertex, `(neighbor, edge index)` of its live
    /// out-edges. Ids are `u32` (`from_source` checks the vertex count), so
    /// an entry is 8 bytes.
    adj: Vec<Vec<(u32, u32)>>,
    /// Per edge, its position in its source's adjacency list while it is
    /// alive (stale once it is deleted), so a delete unlinks in O(1).
    slot: Vec<u32>,
    /// BFS scratch: visit stamps per vertex, keyed by `epoch`.
    visit_mark: Vec<u32>,
    epoch: u32,
}

impl LiveGraph {
    /// Materialize a base snapshot.
    pub fn from_source(source: &dyn StreamingEdges) -> Self {
        let num_vertices = source.num_vertices();
        u32::try_from(num_vertices).expect("live graph vertex count fits u32");
        let mut g = LiveGraph {
            num_vertices,
            edges: Vec::with_capacity(source.num_edges()),
            alive: Vec::with_capacity(source.num_edges()),
            slot: Vec::with_capacity(source.num_edges()),
            alive_count: 0,
            base_count: 0,
            adj: vec![Vec::new(); num_vertices as usize],
            visit_mark: vec![0; num_vertices as usize],
            epoch: 0,
        };
        gp_core::for_each_edge(source, 0..source.num_edges(), |e| {
            g.insert(e);
        });
        g.base_count = g.edges.len();
        g
    }

    /// Vertex-id space (fixed for the whole serve run).
    pub fn num_vertices(&self) -> u64 {
        self.num_vertices
    }

    /// Edges currently alive.
    pub fn num_alive(&self) -> usize {
        self.alive_count
    }

    /// Edges in the base snapshot.
    pub fn base_count(&self) -> usize {
        self.base_count
    }

    /// Every edge ever inserted (alive or not).
    pub fn num_total(&self) -> usize {
        self.edges.len()
    }

    /// The edge at `index` (which may be tombstoned).
    pub fn edge(&self, index: u32) -> Edge {
        self.edges[index as usize]
    }

    /// Append a new live edge; returns its stable index.
    pub fn insert(&mut self, e: Edge) -> u32 {
        assert!(
            e.src.0 < self.num_vertices && e.dst.0 < self.num_vertices,
            "edge endpoints must lie in the base vertex-id space"
        );
        let index = u32::try_from(self.edges.len()).expect("edge index fits u32");
        let list = &mut self.adj[e.src.index()];
        self.slot.push(list.len() as u32);
        list.push((e.dst.0 as u32, index));
        self.edges.push(e);
        self.alive.push(true);
        self.alive_count += 1;
        index
    }

    /// Resolve a uniform `draw` onto a live edge index: start at
    /// `draw % total` and probe forward cyclically to the first live edge.
    /// Returns `None` when nothing is alive. Deterministic for a given
    /// (draw, tombstone state).
    pub fn resolve_delete(&self, draw: u64) -> Option<u32> {
        if self.alive_count == 0 {
            return None;
        }
        let total = self.edges.len();
        let start = (draw % total as u64) as usize;
        let mut i = start;
        loop {
            if self.alive[i] {
                return Some(i as u32);
            }
            i = (i + 1) % total;
            debug_assert_ne!(i, start, "alive_count > 0 guarantees a hit");
        }
    }

    /// Tombstone the edge at `index` (must be alive) and unlink it from the
    /// adjacency index in O(1).
    ///
    /// The unlink is a `swap_remove`: the source's last out-edge takes the
    /// deleted one's place. That order matters. A k-hop that stops at its
    /// cap visits neighbors in adjacency order, so a different removal rule
    /// would visit a different vertex set and price a different latency.
    pub fn delete(&mut self, index: u32) {
        assert!(self.alive[index as usize], "double delete of edge {index}");
        self.alive[index as usize] = false;
        self.alive_count -= 1;
        let list = &mut self.adj[self.edges[index as usize].src.index()];
        let at = self.slot[index as usize] as usize;
        debug_assert_eq!(list[at].1, index, "slot index out of date");
        list.swap_remove(at);
        if let Some(&(_, moved)) = list.get(at) {
            self.slot[moved as usize] = at as u32;
        }
    }

    /// Bounded BFS over live out-edges: visit up to `hops` levels from
    /// `start`, stopping once `cap` vertices have been visited. Fills
    /// `visited` with the distinct vertices reached (including `start`).
    pub fn k_hop(&mut self, start: VertexId, hops: u32, cap: usize, visited: &mut Vec<VertexId>) {
        visited.clear();
        self.epoch += 1;
        let epoch = self.epoch;
        self.visit_mark[start.index()] = epoch;
        visited.push(start);
        let mut frontier_from = 0usize;
        for _ in 0..hops {
            let frontier_to = visited.len();
            if frontier_from == frontier_to || visited.len() >= cap {
                break;
            }
            for fi in frontier_from..frontier_to {
                let v = visited[fi];
                for &(w, _) in &self.adj[v.index()] {
                    if self.visit_mark[w as usize] != epoch {
                        self.visit_mark[w as usize] = epoch;
                        visited.push(VertexId(u64::from(w)));
                        if visited.len() >= cap {
                            return;
                        }
                    }
                }
            }
            frontier_from = frontier_to;
        }
    }

    /// Snapshot the live edge multiset in stable index order (the input to
    /// a full repartition). The paired vector maps positions in the
    /// returned list back to stable edge indices.
    pub fn live_edges(&self) -> (Vec<Edge>, Vec<u32>) {
        let mut edges = Vec::with_capacity(self.alive_count);
        let mut indices = Vec::with_capacity(self.alive_count);
        for (i, (&e, &alive)) in self.edges.iter().zip(&self.alive).enumerate() {
            if alive {
                edges.push(e);
                indices.push(i as u32);
            }
        }
        (edges, indices)
    }

    /// Live edge indices assigned to one partition according to `parts`
    /// (the server's stable-index → partition map), in index order.
    pub fn live_indices_on<'a>(
        &'a self,
        parts: &'a [gp_core::PartitionId],
        p: gp_core::PartitionId,
    ) -> impl Iterator<Item = u32> + 'a {
        self.alive
            .iter()
            .enumerate()
            .filter(move |&(i, &alive)| alive && parts[i] == p)
            .map(|(i, _)| i as u32)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gp_core::EdgeList;

    fn base() -> EdgeList {
        EdgeList::from_pairs(vec![(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)])
    }

    fn out_degree(g: &LiveGraph, v: usize) -> usize {
        g.adj[v].len()
    }

    #[test]
    fn base_snapshot_loads_and_indexes() {
        let g = LiveGraph::from_source(&base());
        assert_eq!(g.num_alive(), 5);
        assert_eq!(g.base_count(), 5);
        assert_eq!(out_degree(&g, 0), 2);
        assert_eq!(g.edge(0), Edge::new(0u64, 1u64));
    }

    #[test]
    fn insert_appends_with_stable_indices() {
        let mut g = LiveGraph::from_source(&base());
        let i = g.insert(Edge::new(1u64, 3u64));
        assert_eq!(i, 5);
        assert_eq!(g.num_alive(), 6);
        assert_eq!(out_degree(&g, 1), 2);
    }

    #[test]
    fn delete_tombstones_and_unlinks() {
        let mut g = LiveGraph::from_source(&base());
        g.delete(4); // (0,2)
        assert_eq!(g.num_alive(), 4);
        assert!(!g.alive[4]);
        assert_eq!(out_degree(&g, 0), 1);
        // Indices of other edges are untouched.
        assert_eq!(g.edge(3), Edge::new(3u64, 0u64));
    }

    #[test]
    fn resolve_delete_probes_past_tombstones() {
        let mut g = LiveGraph::from_source(&base());
        g.delete(2);
        // A draw landing exactly on the tombstone resolves to the next
        // live index.
        assert_eq!(g.resolve_delete(2), Some(3));
        // Wraps around the end.
        g.delete(3);
        g.delete(4);
        assert_eq!(g.resolve_delete(4), Some(0));
    }

    #[test]
    fn resolve_delete_on_empty_graph_is_none() {
        let mut g = LiveGraph::from_source(&base());
        for i in 0..5 {
            g.delete(i);
        }
        assert_eq!(g.resolve_delete(123), None);
    }

    #[test]
    fn k_hop_visits_the_right_sets() {
        let mut g = LiveGraph::from_source(&base());
        let mut visited = Vec::new();
        g.k_hop(VertexId(0), 1, 1024, &mut visited);
        let mut got: Vec<u64> = visited.iter().map(|v| v.0).collect();
        got.sort_unstable();
        assert_eq!(got, vec![0, 1, 2]);
        g.k_hop(VertexId(0), 2, 1024, &mut visited);
        let mut got: Vec<u64> = visited.iter().map(|v| v.0).collect();
        got.sort_unstable();
        assert_eq!(got, vec![0, 1, 2, 3]);
    }

    #[test]
    fn k_hop_respects_deletes_and_cap() {
        let mut g = LiveGraph::from_source(&base());
        g.delete(0); // (0,1)
        let mut visited = Vec::new();
        g.k_hop(VertexId(0), 1, 1024, &mut visited);
        let mut got: Vec<u64> = visited.iter().map(|v| v.0).collect();
        got.sort_unstable();
        assert_eq!(got, vec![0, 2]);
        g.k_hop(VertexId(0), 2, 2, &mut visited);
        assert_eq!(visited.len(), 2, "cap truncates the traversal");
    }

    /// The reference `k_hop`, over adjacency lists unlinked the plain way:
    /// find the deleted edge by a linear scan, then `swap_remove` it.
    fn linear_scan_k_hop(adj: &[Vec<(u64, u32)>], start: u64, hops: u32, cap: usize) -> Vec<u64> {
        let mut seen = vec![false; adj.len()];
        seen[start as usize] = true;
        let mut visited = vec![start];
        let mut frontier_from = 0;
        for _ in 0..hops {
            let frontier_to = visited.len();
            for fi in frontier_from..frontier_to {
                for &(w, _) in &adj[visited[fi] as usize] {
                    if !seen[w as usize] {
                        seen[w as usize] = true;
                        visited.push(w);
                        if visited.len() >= cap {
                            return visited;
                        }
                    }
                }
            }
            frontier_from = frontier_to;
        }
        visited
    }

    #[test]
    fn capped_k_hop_visits_what_the_linear_scan_unlink_visited() {
        const CAP: usize = 24;
        let base = gp_gen::barabasi_albert(400, 4, 9);
        let n = base.num_vertices();
        let mut g = LiveGraph::from_source(&base);
        let mut oracle: Vec<Vec<(u64, u32)>> = vec![Vec::new(); n as usize];
        for (i, e) in base.edges().iter().enumerate() {
            oracle[e.src.index()].push((e.dst.0, i as u32));
        }
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = |bound: u64| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state % bound
        };
        let mut visited = Vec::new();
        let mut capped = 0;
        for step in 0..3_000 {
            if next(2) == 0 {
                let e = Edge::new(next(n), next(n));
                let i = g.insert(e);
                oracle[e.src.index()].push((e.dst.0, i));
            } else if let Some(i) = g.resolve_delete(next(u64::MAX)) {
                let list = &mut oracle[g.edge(i).src.index()];
                let at = list.iter().position(|&(_, j)| j == i).expect("live edge");
                list.swap_remove(at);
                g.delete(i);
            }
            if step % 10 == 0 {
                let start = next(n);
                g.k_hop(VertexId(start), 2, CAP, &mut visited);
                let got: Vec<u64> = visited.iter().map(|v| v.0).collect();
                assert_eq!(
                    got,
                    linear_scan_k_hop(&oracle, start, 2, CAP),
                    "step {step}"
                );
                capped += usize::from(got.len() == CAP);
            }
        }
        assert!(capped > 10, "the cap bound only {capped} traversals");
    }

    #[test]
    fn live_edges_skip_tombstones_in_index_order() {
        let mut g = LiveGraph::from_source(&base());
        g.insert(Edge::new(2u64, 0u64));
        g.delete(1);
        let (edges, indices) = g.live_edges();
        assert_eq!(edges.len(), 5);
        assert_eq!(indices, vec![0, 2, 3, 4, 5]);
        assert_eq!(edges[4], Edge::new(2u64, 0u64));
    }

    #[test]
    #[should_panic(expected = "base vertex-id space")]
    fn inserts_outside_the_vertex_space_are_rejected() {
        let mut g = LiveGraph::from_source(&base());
        g.insert(Edge::new(0u64, 99u64));
    }
}
