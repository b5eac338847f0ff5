//! What a placement adds to its assignment on one cluster: the assignment's
//! local edge counts and the partition→machine fold. The counts are built
//! once per assignment and shared by every layout of it; the adjacency is
//! not part of it — the graph owns one [`gp_core::CsrGraph`]
//! ([`EdgeList::csr`]) that serves every partitioning. A layout is cheap
//! enough that `run` builds a fresh one each call.

use crate::replicas::ReplicaTable;
use gp_cluster::ClusterSpec;
use gp_core::{hash_u64, EdgeList};
use gp_partition::Assignment;

/// The per-image local edge counts of an [`Assignment`] and its
/// partition→machine fold for one machine count; engines only ever read it.
#[derive(Debug, Clone)]
pub struct Layout {
    /// [`fingerprint`] of the assignment the counts were built from.
    assignment: u64,
    table: ReplicaTable,
    /// Machine hosting each partition.
    machine_of: Vec<u32>,
    machines: u32,
}

impl Layout {
    /// Lay `assignment` of `graph` out on `spec`'s machines. Panics if
    /// `assignment` placed another graph.
    pub fn build(graph: &EdgeList, assignment: &Assignment, spec: &ClusterSpec) -> Self {
        assert!(spec.machines > 0, "a cluster has at least one machine");
        Layout {
            assignment: fingerprint(assignment),
            table: ReplicaTable::build(graph, assignment),
            machine_of: (0..assignment.num_partitions())
                .map(|p| spec.machine_of(p))
                .collect(),
            machines: spec.machines,
        }
    }

    /// The local edge counts of every vertex image.
    #[inline]
    pub(crate) fn replicas(&self) -> &ReplicaTable {
        &self.table
    }

    /// Machine count the partition→machine fold was resolved for.
    #[inline]
    pub(crate) fn machines(&self) -> u32 {
        self.machines
    }

    /// Machine hosting partition `p`.
    #[inline]
    pub(crate) fn machine_of(&self, p: u32) -> usize {
        self.machine_of[p as usize] as usize
    }

    /// Whether the layout was built from `a`, up to a 64-bit hash collision.
    pub(crate) fn is_of(&self, a: &Assignment) -> bool {
        self.assignment == fingerprint(a)
    }
}

/// A hash of `a`'s shape and every edge's partition, which on one graph fix
/// its replica view; independent lanes keep the multiplies from serializing.
fn fingerprint(a: &Assignment) -> u64 {
    let (images, parts) = (a.total_images() as u64, a.num_partitions().into());
    let mut lanes = [0; 16];
    lanes[..4].copy_from_slice(&[a.num_vertices(), a.num_edges() as u64, images, parts]);
    for chunk in a.edge_partitions().chunks(16) {
        for (lane, p) in lanes.iter_mut().zip(chunk) {
            *lane = (lane.rotate_left(5) ^ u64::from(p.0)).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        }
    }
    lanes.iter().fold(0, |h, &lane| hash_u64(lane, h))
}

#[cfg(test)]
mod tests {
    use super::*;
    use gp_core::VertexId;
    use gp_partition::{PartitionContext, Strategy};

    /// The layout reads the assignment's own counts array, not a copy, and
    /// folds partitions onto the spec's machines.
    fn assert_lays_out(graph: &EdgeList, assignment: &Assignment, machines: u32) {
        let spec = ClusterSpec::local_9().with_machines(machines);
        let layout = Layout::build(graph, assignment, &spec);
        let counts = assignment.local_edge_counts(graph);
        let table = layout.replicas();
        assert_eq!(table.total_images(), counts.len());
        if graph.num_vertices() > 0 {
            let first = table.local_edges(assignment, VertexId(0));
            assert_eq!(first.as_ptr(), counts.as_ptr(), "the counts are shared");
        }
        assert_eq!(layout.machines(), machines);
        for p in 0..assignment.num_partitions() {
            assert_eq!(layout.machine_of(p), spec.machine_of(p) as usize);
        }
        assert!(layout.is_of(assignment));
    }

    const STRATEGIES: [Strategy; 5] = [
        Strategy::Random,
        Strategy::Grid,
        Strategy::Hdrf,
        Strategy::Hybrid,
        Strategy::OneD,
    ];

    #[test]
    fn a_layout_shares_its_assignments_counts_on_every_cluster_size() {
        let graph = gp_gen::barabasi_albert(300, 3, 5);
        for strategy in STRATEGIES {
            for parts in [1, 4, 36] {
                let ctx = PartitionContext::new(parts).with_seed(3);
                let assignment = strategy.build().partition(&graph, &ctx).assignment;
                for machines in [1, 3, 4] {
                    assert_lays_out(&graph, &assignment, machines);
                }
            }
        }
    }

    #[test]
    fn an_empty_graph_has_an_empty_layout() {
        let graph = EdgeList::from_edges(Vec::new());
        for strategy in STRATEGIES {
            let assignment = strategy
                .build()
                .partition(&graph, &PartitionContext::new(4))
                .assignment;
            assert_lays_out(&graph, &assignment, 4);
        }
    }
}
