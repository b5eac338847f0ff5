//! What a placement adds to its assignment on one cluster: built once per
//! (graph, assignment, cluster size) and shared by every run over that
//! partitioning. The adjacency is not part of it; one [`CsrGraph`] per graph
//! serves every partitioning.

use crate::replicas::{sweep, ReplicaTable};
use gp_cluster::ClusterSpec;
use gp_core::{hash_u64, CsrGraph, EdgeList};
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
    /// Lay `assignment` of `graph` out on `spec`'s machines, counting local
    /// edges without building the adjacency.
    pub fn build(graph: &EdgeList, assignment: &Assignment, spec: &ClusterSpec) -> Self {
        Layout::new(assignment, spec, ReplicaTable::build(graph, assignment))
    }

    /// The graph's adjacency and [`Layout::build`]'s layout, in one fused sweep.
    pub(crate) fn with_csr(
        graph: &EdgeList,
        assignment: &Assignment,
        spec: &ClusterSpec,
    ) -> (CsrGraph, Self) {
        let (table, csr) = sweep::<true>(graph, assignment);
        let csr = csr.expect("the adjacency sweep returns the graph");
        (csr, Layout::new(assignment, spec, table))
    }

    /// `table` of `assignment`, whose graph the sweep checked it against.
    fn new(assignment: &Assignment, spec: &ClusterSpec, table: ReplicaTable) -> Self {
        assert!(spec.machines > 0, "a cluster has at least one machine");
        Layout {
            assignment: fingerprint(assignment),
            table,
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
    use gp_core::{Edge, VertexId};
    use gp_partition::{PartitionContext, Strategy};
    use proptest::prelude::*;
    // `gp_partition::Strategy` shadows proptest's trait of the same name.
    use proptest::strategy::Strategy as _;

    /// `(local_in, local_out)` per image as the table was built before the
    /// fused sweep: per edge, two slot lookups into the assignment's sorted
    /// replica lists.
    fn counts_by_slot(graph: &EdgeList, assignment: &Assignment) -> Vec<(u32, u32)> {
        let mut counts = vec![(0u32, 0u32); assignment.total_images()];
        for (i, e) in graph.edges().iter().enumerate() {
            let p = assignment.edge_partition(i);
            counts[assignment.replica_offset(e.src) + assignment.replica_slot(e.src, p)].1 += 1;
            counts[assignment.replica_offset(e.dst) + assignment.replica_slot(e.dst, p)].0 += 1;
        }
        counts
    }

    /// The count-only layout, the fused constructor's layout and the bare
    /// table all hold the per-edge slot build's counts, and the fused
    /// constructor's adjacency is the plain CSR build's.
    fn assert_matches_slot_build(graph: &EdgeList, assignment: &Assignment, machines: u32) {
        let expected = counts_by_slot(graph, assignment);
        let spec = ClusterSpec::local_9().with_machines(machines);
        let built = Layout::build(graph, assignment, &spec);
        let (csr, fused) = Layout::with_csr(graph, assignment, &spec);
        let alone = ReplicaTable::build(graph, assignment);
        for table in [built.replicas(), fused.replicas(), &alone] {
            assert_eq!(table.total_images(), expected.len());
            let counts: Vec<(u32, u32)> = (0..graph.num_vertices())
                .flat_map(|v| table.local_edges(assignment, VertexId(v)))
                .copied()
                .collect();
            assert_eq!(counts, expected);
        }
        for layout in [&built, &fused] {
            assert_eq!(layout.machines(), machines);
            assert!(layout.is_of(assignment));
        }
        let plain = CsrGraph::from_edge_list(graph);
        assert_eq!(csr.num_edges(), graph.num_edges());
        for v in plain.vertices() {
            assert!(csr.out_neighbors(v).eq(plain.out_neighbors(v)));
            assert!(csr.in_neighbors(v).eq(plain.in_neighbors(v)));
        }
    }

    /// Up to 40 vertices and 160 edges drawn with replacement from 0..n, so
    /// self-loops and duplicates are common; ids `n..n + isolated` never
    /// appear.
    fn arb_graph() -> impl proptest::strategy::Strategy<Value = EdgeList> {
        (
            1u64..40,
            0u64..5,
            proptest::collection::vec((0u64..40, 0u64..40), 1..160),
        )
            .prop_map(|(n, isolated, pairs)| {
                let edges: Vec<Edge> = pairs
                    .into_iter()
                    .map(|(a, b)| Edge::new(a % n, b % n))
                    .collect();
                EdgeList::with_vertex_count(edges, n + isolated).expect("ids in range")
            })
    }

    const STRATEGIES: [Strategy; 5] = [
        Strategy::Random,
        Strategy::Grid,
        Strategy::Hdrf,
        Strategy::Hybrid,
        Strategy::OneD,
    ];

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn fused_sweep_equals_the_per_edge_slot_build(
            graph in arb_graph(),
            machines in 2u32..6,
            seed in 0u64..1000,
        ) {
            for strategy in STRATEGIES {
                for parts in [1, machines, 16 * machines] {
                    let ctx = PartitionContext::new(parts).with_seed(seed);
                    let assignment = strategy.build().partition(&graph, &ctx).assignment;
                    assert_matches_slot_build(&graph, &assignment, machines);
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
            assert_matches_slot_build(&graph, &assignment, 4);
        }
    }
}
