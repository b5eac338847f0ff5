//! VEBO — a vertex- and edge-balanced ordering partitioner.
//!
//! VEBO (Vertex reordering for Edge Balanced Ordering; PAPERS.md) makes the
//! case that *layout*, not partitioning math, is what bounds parallel graph
//! processing: place vertices so that every partition receives both an equal
//! share of vertices and an equal share of edges, and the partitioning
//! itself can stay embarrassingly parallel. Our adaptation is a 1D-style
//! owner partitioner with a degree-driven placement pass instead of a hash:
//!
//! 1. **Degree pass** — the sharded parallel degree count
//!    ([`crate::sharded_degree_table`], ordered shard merge).
//! 2. **Ordering pass** — vertices sorted by (out-degree desc, in-degree
//!    desc, id asc) and placed LPT-style (longest-processing-time first)
//!    onto the partition with the lightest owned-edge load, ties by vertex
//!    count then index. Sorting hubs first is what lets the greedy bin-pack
//!    land within one hub of perfect edge balance while keeping vertex
//!    counts within one of each other.
//! 3. **Edge pass** — every edge goes to its source's owner (1D placement
//!    on the computed owner table; a pure parallel map). Masters sit at the
//!    owner, so low-degree vertices keep master and out-edges co-located.
//!
//! The result is *ordering-invariant*: permuting vertex ids permutes the
//! degree multiset but not the sorted degree sequence, so the LPT evolution
//! — and with it the per-partition vertex/edge-count vectors — is exactly
//! preserved (property-tested in `tests/par_equivalence.rs`).

use crate::assignment::assign_stateless_par;
use crate::partitioner::{
    loader_chunks, PartitionContext, PartitionOutcome, Partitioner, HASH_ASSIGN, HEURISTIC_BASE,
    PARSE_EDGE,
};
use crate::strategies::sharded_degree_table;
use gp_core::{PartitionId, StreamingEdges, VertexId};

/// The VEBO-style vertex/edge-balanced ordering partitioner.
#[derive(Debug, Default, Clone)]
pub struct Vebo;

impl Partitioner for Vebo {
    fn name(&self) -> &'static str {
        "VEBO"
    }

    fn partition(
        &mut self,
        graph: &dyn StreamingEdges,
        ctx: &PartitionContext,
    ) -> PartitionOutcome {
        let p = ctx.num_partitions as usize;
        let n = graph.num_vertices() as usize;
        // Pass 1: parallel sharded degree count (thread-count invariant).
        let degrees = sharded_degree_table(graph, &ctx.par);
        // Pass 2 (ordering): hubs first, then LPT bin-packing on owned
        // out-edges. Keys are total orders (ids break every tie), so the
        // sort needs no stability and the placement is deterministic.
        let mut order: Vec<u32> = (0..n as u32).collect();
        order.sort_unstable_by_key(|&v| {
            let vid = VertexId(v as u64);
            (
                std::cmp::Reverse(degrees.out_degree(vid)),
                std::cmp::Reverse(degrees.in_degree(vid)),
                v,
            )
        });
        let mut owner = vec![PartitionId(0); n];
        let mut eload = vec![0u64; p];
        let mut vcount = vec![0u64; p];
        for &v in &order {
            let mut best = 0usize;
            for c in 1..p {
                if (eload[c], vcount[c], c) < (eload[best], vcount[best], best) {
                    best = c;
                }
            }
            owner[v as usize] = PartitionId(best as u32);
            eload[best] += degrees.out_degree(VertexId(v as u64)) as u64;
            vcount[best] += 1;
        }
        // Pass 3: every edge to its source's owner (a pure per-edge map),
        // masters at the owner (always a replica of a vertex with
        // out-edges).
        let mut assignment =
            assign_stateless_par(graph, ctx.num_partitions, ctx.seed, &ctx.par, |e| {
                owner[e.src.index()]
            });
        assignment.set_masters_at_home(|v| owner[v.index()]);
        // Work: two streaming passes per loader (count + place), plus the
        // ordering pass — sort and LPT run centrally, charged to loader 0
        // like Ginger's refinement phase.
        let mut loader_work: Vec<f64> = loader_chunks(graph.num_edges(), ctx.num_loaders)
            .into_iter()
            .map(|c| c as f64 * (2.0 * PARSE_EDGE + HASH_ASSIGN))
            .collect();
        if let Some(w) = loader_work.first_mut() {
            *w += n as f64 * HEURISTIC_BASE;
        }
        let outcome = PartitionOutcome {
            assignment,
            loader_work,
            passes: 2,
            // Degree table (8B/vertex) + owner table (4B) + sort keys (4B).
            state_bytes: graph.num_vertices() * 16,
        };
        super::record_ingress_telemetry(self.name(), graph, &outcome, ctx);
        outcome
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx(p: u32) -> PartitionContext {
        PartitionContext::new(p)
    }

    #[test]
    fn edge_loads_are_near_perfectly_balanced() {
        // LPT on out-degrees: a power-law graph still lands within a hair
        // of perfect edge balance because hubs are placed first.
        let g = gp_gen::barabasi_albert(20_000, 8, 3);
        let out = Vebo.partition(&g, &ctx(9));
        assert!(
            out.assignment.balance().imbalance < 1.05,
            "imbalance {}",
            out.assignment.balance().imbalance
        );
    }

    #[test]
    fn vertex_counts_differ_by_at_most_a_hub() {
        let g = gp_gen::barabasi_albert(9_000, 6, 5);
        let out = Vebo.partition(&g, &ctx(9));
        let masters = out.assignment.master_counts();
        let (mx, mn) = (
            *masters.iter().max().unwrap(),
            *masters.iter().min().unwrap(),
        );
        // Vertex-balanced side of the objective: master counts stay tight.
        assert!(mx - mn <= g.num_vertices() / 100, "masters {masters:?}");
    }

    #[test]
    fn all_src_edges_are_colocated() {
        let g = gp_gen::erdos_renyi(2_000, 16_000, 9);
        let out = Vebo.partition(&g, &ctx(7));
        for (i, e) in g.edges().iter().enumerate() {
            assert_eq!(
                out.assignment.edge_partition(i),
                out.assignment.master_of(e.src),
                "an out-edge must sit at its source's owner"
            );
        }
    }

    #[test]
    fn single_partition_takes_everything() {
        let g = gp_gen::erdos_renyi(100, 500, 1);
        let out = Vebo.partition(&g, &ctx(1));
        assert_eq!(out.assignment.edge_counts(), &[g.num_edges() as u64]);
    }

    #[test]
    fn deterministic_across_thread_counts() {
        let g = gp_gen::barabasi_albert(3_000, 5, 2);
        let base = Vebo.partition(&g, &ctx(9));
        for threads in [2u32, 4, 7] {
            let out = Vebo.partition(&g, &ctx(9).with_threads(threads));
            assert_eq!(
                base.assignment.edge_partitions(),
                out.assignment.edge_partitions(),
                "threads={threads}"
            );
        }
    }

    #[test]
    fn empty_graph_is_fine() {
        let g = gp_core::EdgeList::from_pairs(Vec::new());
        let out = Vebo.partition(&g, &ctx(4));
        assert_eq!(out.assignment.num_edges(), 0);
    }
}
