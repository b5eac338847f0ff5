//! How many in- and out-edges each vertex image of an [`Assignment`] holds
//! locally: one `(local_in, local_out)` per image, aligned with the
//! assignment's flattened replica view. [`Assignment::local_edge_counts`]
//! builds it once per assignment; every engine run over that partitioning
//! shares it.

use crate::Assignment;
use gp_core::{EdgeList, VertexId};

/// The count sweep: one degree-count pass, one fill pass that carries each
/// edge's partition into adjacency order, then a sequential per-vertex pass
/// that counts a row's partitions in a `P`-wide scratch and emits the
/// vertex's counts in the assignment's sorted replica order — no per-edge
/// lookup into the replica sets. Partition ids travel as one byte per edge
/// endpoint up to 256 partitions, so the side arrays stay small and
/// cache-resident. `graph` must be the graph `assignment` placed.
pub(crate) fn count_local_edges(graph: &EdgeList, assignment: &Assignment) -> Vec<(u32, u32)> {
    if assignment.num_partitions() <= 256 {
        count_tagged::<u8>(graph, assignment)
    } else {
        count_tagged::<u32>(graph, assignment)
    }
}

fn count_tagged<T: Copy + Default + TryFrom<u32> + Into<u32>>(
    graph: &EdgeList,
    assignment: &Assignment,
) -> Vec<(u32, u32)> {
    let edges = graph.edges();
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
    let mut out_parts = vec![T::default(); edges.len()];
    let mut in_parts = vec![T::default(); edges.len()];
    for (e, &p) in edges.iter().zip(assignment.edge_partitions()) {
        let tag = T::try_from(p.0).unwrap_or_else(|_| panic!("{p} is not a partition"));
        let oc = &mut out_offsets[e.src.index()];
        out_parts[*oc as usize] = tag;
        *oc += 1;
        let ic = &mut in_offsets[e.dst.index()];
        in_parts[*ic as usize] = tag;
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
    local
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{PartitionContext, Strategy};
    use gp_core::Edge;
    use proptest::prelude::*;
    // `crate::Strategy` shadows proptest's trait of the same name.
    use proptest::strategy::Strategy as _;

    /// `(local_in, local_out)` per image as the table was built before the
    /// sweep: per edge, two slot lookups into the assignment's sorted
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

    fn assert_matches_slot_build(graph: &EdgeList, parts: u32, seed: u64) {
        for strategy in STRATEGIES {
            let ctx = PartitionContext::new(parts).with_seed(seed);
            let assignment = strategy.build().partition(graph, &ctx).assignment;
            let counts = assignment.local_edge_counts(graph);
            assert_eq!(*counts, *counts_by_slot(graph, &assignment));
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn the_count_sweep_equals_the_per_edge_slot_build(
            graph in arb_graph(),
            machines in 2u32..6,
            seed in 0u64..1000,
        ) {
            // 16 × 5 = 80 partitions stays on one-byte tags; 300 does not.
            for parts in [1, machines, 16 * machines, 300] {
                assert_matches_slot_build(&graph, parts, seed);
            }
        }
    }

    #[test]
    fn an_empty_graph_has_no_local_edges() {
        assert_matches_slot_build(&EdgeList::from_edges(Vec::new()), 4, 0);
    }
}
