//! Bipartite-oriented partitioning ("BiCut"), PowerLyra's extension for
//! bipartite graphs (Chen et al., APSys'14 — the paper's §2.2 notes
//! PowerLyra "has also been extended with strategies specifically catering
//! to bipartite graphs").
//!
//! Observation: real bipartite graphs (buyers×items, users×ads) are heavily
//! *unbalanced* — one side has orders of magnitude more vertices than the
//! other. Hashing edges by their **favorite-side** endpoint (the larger
//! side) gives every favorite-side vertex exactly one replica, an exact
//! edge-cut for the overwhelming majority of vertices, while only the small
//! side is replicated. General-purpose vertex-cuts cannot see this structure
//! and replicate both sides.

use crate::assignment::assign_stateless_par;
use crate::partitioner::{PartitionContext, PartitionOutcome, Partitioner};
use crate::strategies::stateless_loader_work;
use gp_core::{for_each_edge, hash_vertex, PartitionId, StreamingEdges, VertexId};
use gp_par::ParConfig;

/// Which side of the bipartite graph to co-locate (the "favorite" side).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FavoriteSide {
    /// Hash by source endpoint (sources are the big side).
    Source,
    /// Hash by destination endpoint (destinations are the big side).
    Target,
    /// Pick automatically: the side with more distinct endpoint vertices.
    Auto,
}

/// Bipartite-oriented edge partitioner.
#[derive(Debug, Clone)]
pub struct BiCut {
    /// Which side is the favorite.
    pub favorite: FavoriteSide,
}

impl Default for BiCut {
    fn default() -> Self {
        BiCut {
            favorite: FavoriteSide::Auto,
        }
    }
}

/// BiCut's per-edge assignment for a **resolved** favorite side (not
/// `Auto`) — shared by the batch path and the incremental serving path,
/// which resolves `Auto` against the base snapshot once and freezes it.
pub(crate) fn bicut_edge(e: gp_core::Edge, side: FavoriteSide, seed: u64, p: u64) -> PartitionId {
    let key = match side {
        FavoriteSide::Source => e.src,
        FavoriteSide::Target => e.dst,
        FavoriteSide::Auto => unreachable!("favorite side must be resolved before assignment"),
    };
    PartitionId((hash_vertex(key, seed) % p) as u32)
}

impl BiCut {
    /// BiCut with an explicit favorite side.
    pub fn new(favorite: FavoriteSide) -> Self {
        BiCut { favorite }
    }

    /// Auto-detection: count distinct sources vs distinct destinations.
    /// Parallel chunks produce per-chunk endpoint bitsets merged by OR —
    /// order-independent, so the verdict never depends on the thread count.
    fn detect(graph: &dyn StreamingEdges, par: &ParConfig) -> FavoriteSide {
        let n = graph.num_vertices() as usize;
        let shards = gp_par::map_chunks(par, graph.num_edges(), |range| {
            let mut is_src = vec![false; n];
            let mut is_dst = vec![false; n];
            for_each_edge(graph, range, |e| {
                is_src[e.src.index()] = true;
                is_dst[e.dst.index()] = true;
            });
            (is_src, is_dst)
        });
        let mut is_src = vec![false; n];
        let mut is_dst = vec![false; n];
        for (shard_src, shard_dst) in shards {
            for (b, s) in is_src.iter_mut().zip(shard_src) {
                *b |= s;
            }
            for (b, s) in is_dst.iter_mut().zip(shard_dst) {
                *b |= s;
            }
        }
        let sources = is_src.iter().filter(|&&b| b).count();
        let dests = is_dst.iter().filter(|&&b| b).count();
        if sources >= dests {
            FavoriteSide::Source
        } else {
            FavoriteSide::Target
        }
    }
}

impl Partitioner for BiCut {
    fn name(&self) -> &'static str {
        "BiCut"
    }

    fn partition(
        &mut self,
        graph: &dyn StreamingEdges,
        ctx: &PartitionContext,
    ) -> PartitionOutcome {
        let side = match self.favorite {
            FavoriteSide::Auto => Self::detect(graph, &ctx.par),
            explicit => explicit,
        };
        let p = ctx.num_partitions as u64;
        let mut assignment =
            assign_stateless_par(graph, ctx.num_partitions, ctx.seed, &ctx.par, |e| {
                bicut_edge(e, side, ctx.seed, p)
            });
        // Favorite-side vertices have exactly one replica; pin their master
        // there so the engine gathers locally.
        let masters = (0..graph.num_vertices())
            .map(|v| {
                let v = VertexId(v);
                let reps = assignment.replicas(v);
                if reps.len() == 1 {
                    PartitionId(reps[0])
                } else {
                    assignment.master_of(v)
                }
            })
            .collect();
        assignment.set_masters(masters);
        // Auto-detection adds a counting pass.
        let passes = if self.favorite == FavoriteSide::Auto {
            2
        } else {
            1
        };
        let outcome = PartitionOutcome {
            assignment,
            loader_work: stateless_loader_work(graph.num_edges(), ctx),
            passes,
            state_bytes: if passes == 2 {
                graph.num_vertices() / 4
            } else {
                0
            },
        };
        super::record_ingress_telemetry(self.name(), graph, &outcome, ctx);
        outcome
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::strategies::Hybrid;
    use crate::Strategy;
    use gp_core::EdgeList;
    use gp_gen::{bipartite, BipartiteParams};

    fn graph() -> EdgeList {
        bipartite(
            &BipartiteParams {
                users: 8_000,
                items: 200,
                ..Default::default()
            },
            3,
        )
    }

    #[test]
    fn favorite_side_vertices_are_never_replicated() {
        let g = graph();
        let out = BiCut::default().partition(&g, &PartitionContext::new(9));
        for u in 0..8_000 {
            assert_eq!(
                out.assignment.replica_count(VertexId(u)),
                if out.assignment.replicas(VertexId(u)).is_empty() {
                    0
                } else {
                    1
                },
                "user {u} must have exactly one replica"
            );
        }
    }

    #[test]
    fn auto_detection_picks_the_big_side() {
        let par = ParConfig::default();
        assert_eq!(BiCut::detect(&graph(), &par), FavoriteSide::Source);
        // Reverse the edges: now destinations are the big side.
        let g = graph();
        let swapped = g.edges().iter().map(|e| e.reversed()).collect();
        let reversed = EdgeList::with_vertex_count(swapped, g.num_vertices()).unwrap();
        assert_eq!(BiCut::detect(&reversed, &par), FavoriteSide::Target);
    }

    #[test]
    fn bicut_beats_general_purpose_strategies_on_bipartite_graphs() {
        // Default params: 2000 items with a Zipf tail, so many items fall
        // below Hybrid's degree threshold and get their edges hashed by
        // destination — scattering multi-item users. BiCut keeps every user
        // at exactly one replica regardless of item popularity.
        let g = bipartite(&BipartiteParams::default(), 3);
        let ctx = PartitionContext::new(9);
        let bicut = BiCut::default()
            .partition(&g, &ctx)
            .assignment
            .replication_factor();
        let random = Strategy::Random
            .build()
            .partition(&g, &ctx)
            .assignment
            .replication_factor();
        let grid = Strategy::Grid
            .build()
            .partition(&g, &ctx)
            .assignment
            .replication_factor();
        let hybrid = Hybrid::default()
            .partition(&g, &ctx)
            .assignment
            .replication_factor();
        assert!(
            bicut < random * 0.6,
            "BiCut {bicut:.2} vs Random {random:.2}"
        );
        assert!(bicut < grid * 0.8, "BiCut {bicut:.2} vs Grid {grid:.2}");
        assert!(bicut < hybrid, "BiCut {bicut:.2} vs Hybrid {hybrid:.2}");
    }

    #[test]
    fn masters_sit_with_the_favorite_side_edges() {
        let g = graph();
        let out = BiCut::new(FavoriteSide::Source).partition(&g, &PartitionContext::new(9));
        for (i, e) in g.edges().iter().enumerate() {
            assert_eq!(
                out.assignment.edge_partition(i),
                out.assignment.master_of(e.src),
                "user edges must sit at the user's master"
            );
        }
    }

    #[test]
    fn explicit_sides_differ() {
        let g = graph();
        let ctx = PartitionContext::new(9);
        let by_src = BiCut::new(FavoriteSide::Source).partition(&g, &ctx);
        let by_dst = BiCut::new(FavoriteSide::Target).partition(&g, &ctx);
        assert_ne!(
            by_src.assignment.edge_partitions(),
            by_dst.assignment.edge_partitions()
        );
        // Choosing the small side as favorite is much worse.
        assert!(by_src.assignment.replication_factor() < by_dst.assignment.replication_factor());
    }
}
