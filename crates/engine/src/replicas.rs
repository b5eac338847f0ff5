//! What a placement adds to its assignment: how many in- and out-edges each
//! vertex image sees locally.
//!
//! The [`gp_partition::Assignment`] is the only replica view — which
//! partitions hold `v` (`replicas(v)`, sorted), where its slice of the
//! flattened view starts (`replica_offset(v)`), and which image is its
//! master. This table holds one `(local_in, local_out)` per image, in that
//! flattened order, and engine accounting reads the two side by side:
//! gather/scatter work lands on the partitions that hold the edges, partial
//! aggregates flow from replica partitions to masters, and state sync flows
//! back.

use gp_core::{CsrGraph, EdgeList, VertexId};
use gp_partition::Assignment;

/// `(local_in, local_out)` per vertex image, aligned with the flattened
/// replica view of the assignment it was built from.
#[derive(Debug, Clone)]
pub struct ReplicaTable {
    local: Vec<(u32, u32)>,
}

impl ReplicaTable {
    /// Build from a graph and its assignment: [`sweep`] without the
    /// adjacency arrays.
    pub fn build(graph: &EdgeList, assignment: &Assignment) -> Self {
        sweep::<false>(graph, assignment).0
    }

    /// `(local_in, local_out)` of each image of `v`, in the order of
    /// `assignment.replicas(v)`; `assignment` must be the one the table was
    /// built from.
    #[inline]
    pub fn local_edges(&self, assignment: &Assignment, v: VertexId) -> &[(u32, u32)] {
        let lo = assignment.replica_offset(v);
        &self.local[lo..lo + assignment.replica_count(v) as usize]
    }

    /// Total number of vertex images.
    pub fn total_images(&self) -> usize {
        self.local.len()
    }
}

/// The fused layout sweep: one degree-count pass, one fill pass that
/// carries each edge's partition into adjacency order, then a sequential
/// per-vertex pass that counts a row's partitions in a `P`-wide scratch and
/// emits the vertex's counts in the assignment's sorted replica order — no
/// per-edge lookup into the replica sets. With `ADJACENCY` the fill pass
/// also writes neighbor ids and the CSR comes back; without, the graph is
/// `None` and only the table is built. Partition ids travel as one byte
/// per edge endpoint up to 256 partitions, so the side arrays stay small
/// and cache-resident.
pub(crate) fn sweep<const ADJACENCY: bool>(
    graph: &EdgeList,
    assignment: &Assignment,
) -> (ReplicaTable, Option<CsrGraph>) {
    if assignment.num_partitions() <= 256 {
        sweep_tagged::<ADJACENCY, u8>(graph, assignment)
    } else {
        sweep_tagged::<ADJACENCY, u32>(graph, assignment)
    }
}

fn sweep_tagged<const ADJACENCY: bool, T: Copy + Default + TryFrom<u32> + Into<u32>>(
    graph: &EdgeList,
    assignment: &Assignment,
) -> (ReplicaTable, Option<CsrGraph>) {
    let edges = graph.edges();
    let parts = assignment.edge_partitions();
    assert_eq!(parts.len(), edges.len(), "one partition per edge");
    assert_eq!(assignment.num_vertices(), graph.num_vertices());
    let n = graph.num_vertices() as usize;

    let mut out_offsets = vec![0u64; n + 1];
    let mut in_offsets = vec![0u64; n + 1];
    for e in edges {
        out_offsets[e.src.index() + 1] += 1;
        in_offsets[e.dst.index() + 1] += 1;
    }
    for i in 0..n {
        out_offsets[i + 1] += out_offsets[i];
        in_offsets[i + 1] += in_offsets[i];
    }

    // Fill, using each row's offset as its cursor: afterwards `offsets[v]`
    // is the *end* of row v, and shifting up by one restores the starts.
    let adjacency_len = if ADJACENCY { edges.len() } else { 0 };
    let mut out_targets = vec![VertexId(0); adjacency_len];
    let mut in_sources = vec![VertexId(0); adjacency_len];
    let mut out_parts = vec![T::default(); edges.len()];
    let mut in_parts = vec![T::default(); edges.len()];
    for (e, &p) in edges.iter().zip(parts) {
        let tag = T::try_from(p.0).unwrap_or_else(|_| panic!("{p} is not a partition"));
        let oc = &mut out_offsets[e.src.index()];
        out_parts[*oc as usize] = tag;
        if ADJACENCY {
            out_targets[*oc as usize] = e.dst;
        }
        *oc += 1;
        let ic = &mut in_offsets[e.dst.index()];
        in_parts[*ic as usize] = tag;
        if ADJACENCY {
            in_sources[*ic as usize] = e.src;
        }
        *ic += 1;
    }
    for offsets in [&mut out_offsets, &mut in_offsets] {
        offsets.copy_within(0..n, 1);
        offsets[0] = 0;
    }

    // (local_in, local_out) of the current vertex per partition; zeroed
    // again as each image's counts are emitted.
    let mut scratch = vec![(0u32, 0u32); assignment.num_partitions() as usize];
    let mut local = Vec::with_capacity(assignment.total_images());
    for v in 0..n {
        for &p in &out_parts[out_offsets[v] as usize..out_offsets[v + 1] as usize] {
            scratch[p.into() as usize].1 += 1;
        }
        for &p in &in_parts[in_offsets[v] as usize..in_offsets[v + 1] as usize] {
            scratch[p.into() as usize].0 += 1;
        }
        for &p in assignment.replicas(VertexId(v as u64)) {
            local.push(std::mem::take(&mut scratch[p as usize]));
        }
    }
    debug_assert!(
        scratch.iter().all(|&c| c == (0, 0)),
        "an edge sits on a partition that holds no replica of its endpoint"
    );
    let csr = ADJACENCY.then(|| {
        CsrGraph::from_parts(
            graph.num_vertices(),
            out_offsets,
            out_targets,
            in_offsets,
            in_sources,
        )
    });
    (ReplicaTable { local }, csr)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gp_core::PartitionId;
    use gp_partition::{PartitionContext, Strategy};

    #[test]
    fn local_degrees_sum_to_global_degrees() {
        let g = gp_gen::erdos_renyi(500, 4_000, 1);
        let out = Strategy::Random
            .build()
            .partition(&g, &PartitionContext::new(6));
        let table = ReplicaTable::build(&g, &out.assignment);
        let deg = g.degrees();
        for v in 0..g.num_vertices() {
            let v = VertexId(v);
            let (tin, tout) = table
                .local_edges(&out.assignment, v)
                .iter()
                .fold((0u32, 0u32), |(i, o), &(li, lo)| (i + li, o + lo));
            assert_eq!(tin, deg.in_degree(v));
            assert_eq!(tout, deg.out_degree(v));
        }
    }

    #[test]
    fn replica_counts_match_assignment() {
        let g = gp_gen::barabasi_albert(2_000, 5, 2);
        let out = Strategy::Grid
            .build()
            .partition(&g, &PartitionContext::new(9));
        let a = &out.assignment;
        let table = ReplicaTable::build(&g, a);
        assert_eq!(table.total_images(), a.total_images());
        for v in 0..g.num_vertices() {
            let v = VertexId(v);
            assert_eq!(table.local_edges(a, v).len() as u32, a.replica_count(v));
        }
    }

    #[test]
    fn every_entry_has_at_least_one_local_edge() {
        // A replica only exists because some edge touched the vertex there.
        let g = gp_gen::erdos_renyi(300, 2_000, 3);
        let out = Strategy::Hdrf
            .build()
            .partition(&g, &PartitionContext::new(4));
        let table = ReplicaTable::build(&g, &out.assignment);
        for v in 0..g.num_vertices() {
            for &(local_in, local_out) in table.local_edges(&out.assignment, VertexId(v)) {
                assert!(local_in + local_out > 0);
            }
        }
    }

    #[test]
    fn replica_slots_find_every_edge_partition() {
        // `replica_slot` must locate the edge's partition in both endpoints'
        // replica lists on every (edge endpoint, partition) pair — including
        // single-partition graphs and graphs with isolated vertices (which
        // have empty replica lists and never appear as endpoints).
        let mut cases: Vec<(gp_core::EdgeList, u32)> = vec![
            (gp_gen::erdos_renyi(400, 3_000, 11), 9),
            (gp_gen::barabasi_albert(1_000, 6, 13), 6),
            // Single-partition graph: every slot is 0.
            (gp_gen::erdos_renyi(100, 500, 17), 1),
        ];
        // Isolated trailing vertices on top of a small random core.
        let sparse = gp_gen::erdos_renyi(50, 120, 19);
        let padded = gp_core::EdgeList::with_vertex_count(sparse.edges().to_vec(), 200).unwrap();
        cases.push((padded, 4));
        for (g, parts) in cases {
            let out = Strategy::Hdrf
                .build()
                .partition(&g, &PartitionContext::new(parts));
            let a = &out.assignment;
            for (i, e) in g.edges().iter().enumerate() {
                let p = a.edge_partition(i);
                for v in [e.src, e.dst] {
                    let slot = a.replica_slot(v, p);
                    assert_eq!(a.replicas(v)[slot], p.0, "slot mismatch for {v} on {p}");
                }
            }
            // Isolated vertices: empty replica slice and no counts.
            let table = ReplicaTable::build(&g, a);
            for v in 0..g.num_vertices() {
                let v = VertexId(v);
                if a.replica_count(v) == 0 {
                    assert!(a.replicas(v).is_empty());
                    assert!(table.local_edges(a, v).is_empty());
                }
            }
        }
    }

    #[test]
    fn hybrid_low_degree_in_edges_all_at_master() {
        // The property HybridGas exploits (§6.1).
        let g = gp_gen::barabasi_albert(3_000, 5, 7);
        let out = Strategy::Hybrid
            .build()
            .partition(&g, &PartitionContext::new(8));
        let a = &out.assignment;
        let table = ReplicaTable::build(&g, a);
        let deg = g.degrees();
        for v in 0..g.num_vertices() {
            let v = VertexId(v);
            if deg.in_degree(v) > 0 && deg.in_degree(v) <= 100 {
                let images = a.replicas(v).iter().zip(table.local_edges(a, v));
                for (&p, &(local_in, _)) in images {
                    if PartitionId(p) != a.master_of(v) {
                        assert_eq!(local_in, 0, "low-degree v{v} has in-edges off-master");
                    }
                }
            }
        }
    }
}
