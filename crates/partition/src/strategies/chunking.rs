//! Chunk-based partitioning, after Gemini (OSDI'16 — cited in the paper's
//! §2.2: "Gemini also includes a chunk-based partitioning scheme that
//! leverages the natural locality in real world graphs").
//!
//! Real-world edge lists arrive sorted by source id, and consecutive ids are
//! strongly connected (grid neighbors in road networks, pages of the same
//! domain in crawls). Chunking simply cuts the sorted edge stream into `P`
//! equal-size contiguous chunks: perfect edge balance by construction, and
//! every vertex's out-edges land in at most two partitions. Replication
//! quality then depends entirely on how much locality the id order carries —
//! excellent for road networks and web crawls, weaker for social networks
//! whose hubs are followed from every chunk.

use crate::assignment::Assignment;
use crate::partitioner::{
    loader_chunks, PartitionContext, PartitionOutcome, Partitioner, HASH_ASSIGN, PARSE_EDGE,
};
use gp_core::{PartitionId, StreamingEdges};

/// Gemini-style chunking partitioner.
#[derive(Debug, Default, Clone)]
pub struct Chunking;

impl Partitioner for Chunking {
    fn name(&self) -> &'static str {
        "Chunking"
    }

    fn partition(
        &mut self,
        graph: &dyn StreamingEdges,
        ctx: &PartitionContext,
    ) -> PartitionOutcome {
        let m = graph.num_edges();
        let p = ctx.num_partitions as usize;
        let parts: Vec<PartitionId> = gp_par::map_chunks(&ctx.par, m, |range| {
            range
                .map(|i| PartitionId(((i * p) / m.max(1)).min(p - 1) as u32))
                .collect::<Vec<_>>()
        })
        .into_iter()
        .flatten()
        .collect();
        let assignment = Assignment::from_edge_partitions_par(
            graph,
            parts,
            ctx.num_partitions,
            ctx.seed,
            &ctx.par,
        );
        // One pass; chunk boundaries need the total edge count, which the
        // loader learns from file sizes — no extra scan.
        let loader_work = loader_chunks(m, ctx.num_loaders)
            .into_iter()
            .map(|c| c as f64 * (PARSE_EDGE + HASH_ASSIGN * 0.5))
            .collect();
        let outcome = PartitionOutcome {
            assignment,
            loader_work,
            passes: 1,
            state_bytes: 0,
        };
        super::record_ingress_telemetry(self.name(), graph, &outcome, ctx);
        outcome
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Strategy;
    use gp_core::{EdgeList, VertexId};

    fn ctx(p: u32) -> PartitionContext {
        PartitionContext::new(p)
    }

    #[test]
    fn edge_balance_is_perfect() {
        let g = gp_gen::barabasi_albert(5_000, 8, 1);
        let out = Chunking.partition(&g, &ctx(9));
        let b = out.assignment.balance();
        assert!(
            b.max - b.min <= 1,
            "chunking balances by construction: {b:?}"
        );
    }

    #[test]
    fn out_edges_span_at_most_two_partitions() {
        // Sorted streams keep a vertex's out-edges contiguous, so a chunk
        // boundary can split them at most once.
        let g = gp_gen::web_graph(300, 2);
        let out = Chunking.partition(&g, &ctx(8));
        let mut spans = vec![std::collections::BTreeSet::new(); g.num_vertices() as usize];
        for (i, e) in g.edges().iter().enumerate() {
            spans[e.src.index()].insert(out.assignment.edge_partition(i).0);
        }
        for (v, s) in spans.iter().enumerate() {
            assert!(s.len() <= 2, "v{v} out-edges span {} partitions", s.len());
        }
    }

    #[test]
    fn chunking_excels_on_road_networks() {
        let g = gp_gen::road_network(
            &gp_gen::RoadNetworkParams {
                width: 80,
                height: 80,
                ..Default::default()
            },
            3,
        );
        let c = Chunking
            .partition(&g, &ctx(9))
            .assignment
            .replication_factor();
        let r = Strategy::Random
            .build()
            .partition(&g, &ctx(9))
            .assignment
            .replication_factor();
        let grid = Strategy::Grid
            .build()
            .partition(&g, &ctx(9))
            .assignment
            .replication_factor();
        assert!(c < r * 0.6, "chunking {c:.2} vs random {r:.2}");
        assert!(c < grid, "chunking {c:.2} vs grid {grid:.2}");
    }

    #[test]
    fn locality_benefit_shrinks_on_social_networks() {
        // Hubs are followed from every chunk, so chunking's replication
        // factor on a heavy-tailed graph is several times its road-network
        // value — the id order carries much less locality.
        let road = gp_gen::road_network(
            &gp_gen::RoadNetworkParams {
                width: 80,
                height: 80,
                ..Default::default()
            },
            5,
        );
        let social = gp_gen::barabasi_albert(10_000, 8, 5);
        let c_road = Chunking
            .partition(&road, &ctx(9))
            .assignment
            .replication_factor();
        let c_social = Chunking
            .partition(&social, &ctx(9))
            .assignment
            .replication_factor();
        assert!(
            c_social > 2.0 * c_road,
            "social {c_social:.2} vs road {c_road:.2}"
        );
    }

    #[test]
    fn single_partition_and_empty_graph_are_fine() {
        let g = gp_gen::erdos_renyi(100, 500, 1);
        let out = Chunking.partition(&g, &ctx(1));
        assert_eq!(out.assignment.replication_factor(), 1.0);
        let empty = EdgeList::default();
        let out = Chunking.partition(&empty, &ctx(4));
        assert_eq!(out.assignment.num_edges(), 0);
    }

    #[test]
    fn partitions_are_monotone_in_stream_order() {
        let g = gp_gen::erdos_renyi(500, 3_000, 7);
        let out = Chunking.partition(&g, &ctx(6));
        for i in 1..g.num_edges() {
            assert!(out.assignment.edge_partition(i) >= out.assignment.edge_partition(i - 1));
        }
        let _ = VertexId(0);
    }
}
