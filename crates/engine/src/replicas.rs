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
//! back. The counts are the assignment's own
//! ([`Assignment::local_edge_counts`]): built once per assignment and shared,
//! not copied, by every table of it.

use gp_core::{EdgeList, VertexId};
use gp_partition::Assignment;
use std::sync::Arc;

/// `(local_in, local_out)` per vertex image, aligned with the flattened
/// replica view of the assignment it was built from.
#[derive(Debug, Clone)]
pub struct ReplicaTable {
    local: Arc<[(u32, u32)]>,
}

impl ReplicaTable {
    /// The local edge counts of `assignment`, which must be an assignment
    /// of `graph`: built by the first call for that assignment, shared by
    /// every later one.
    pub fn build(graph: &EdgeList, assignment: &Assignment) -> Self {
        ReplicaTable {
            local: assignment.local_edge_counts(graph),
        }
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
