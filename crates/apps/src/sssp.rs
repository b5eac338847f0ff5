//! Single-Source Shortest Paths (§3.3.4).
//!
//! Hop-count SSSP: the source starts at distance 0, everything else at ∞;
//! active vertices push their distance to neighbors, which keep
//! `p(v) = min(p(v') + 1)`. Only the source is initially active, so the
//! frontier grows hop by hop — the paper's lowest-activity application
//! (which is why HDRF/Oblivious never catch up with Random for SSSP in
//! Fig 9.1).
//!
//! The PowerGraph/PowerLyra chapters use the **undirected** variant
//! (gather/scatter Both — *not* natural); GraphX and directed experiments
//! can use the directed variant (gather In, scatter Out — natural).

use gp_core::VertexId;
use gp_engine::{ApplyInfo, Direction, InitInfo, VertexProgram};

/// Distance state; `u32::MAX` encodes unreachable (∞).
pub const INFINITY: u32 = u32::MAX;

/// The SSSP vertex program.
#[derive(Debug, Clone)]
pub struct Sssp {
    /// Source vertex.
    pub source: VertexId,
    /// If true, edges are traversed in both directions (the paper's
    /// PowerGraph/PowerLyra setting, §6.4.1).
    pub undirected: bool,
}

impl Sssp {
    /// Undirected SSSP from `source` (the PG/PL configuration).
    pub fn undirected(source: impl Into<VertexId>) -> Self {
        Sssp {
            source: source.into(),
            undirected: true,
        }
    }

    /// Directed SSSP from `source` — a natural application.
    pub fn directed(source: impl Into<VertexId>) -> Self {
        Sssp {
            source: source.into(),
            undirected: false,
        }
    }
}

impl VertexProgram for Sssp {
    type State = u32;
    type Accum = u32;

    fn name(&self) -> &'static str {
        "SSSP"
    }

    fn gather_direction(&self) -> Direction {
        if self.undirected {
            Direction::Both
        } else {
            Direction::In
        }
    }

    fn scatter_direction(&self) -> Direction {
        if self.undirected {
            Direction::Both
        } else {
            Direction::Out
        }
    }

    fn init(&self, v: VertexId, _: InitInfo) -> u32 {
        if v == self.source {
            0
        } else {
            INFINITY
        }
    }

    #[inline]
    fn initially_active(&self, v: VertexId) -> bool {
        v == self.source
    }

    #[inline]
    fn gather(&self, _: VertexId, _: VertexId, dist: &u32, _: InitInfo) -> u32 {
        dist.saturating_add(1)
    }

    #[inline]
    fn merge(&self, a: u32, b: u32) -> u32 {
        a.min(b)
    }

    #[inline]
    fn apply(&self, _: VertexId, old: &u32, acc: Option<u32>, _: ApplyInfo) -> u32 {
        acc.map_or(*old, |a| a.min(*old))
    }

    fn accum_wire_bytes(&self) -> u64 {
        4
    }

    fn state_wire_bytes(&self) -> u64 {
        4
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gp_cluster::ClusterSpec;
    use gp_core::EdgeList;
    use gp_engine::{EngineConfig, SyncGas};
    use gp_partition::{PartitionContext, Strategy};

    fn run(g: &EdgeList, prog: &Sssp) -> (Vec<u32>, gp_engine::ComputeReport) {
        let a = Strategy::Grid
            .build()
            .partition(g, &PartitionContext::new(4))
            .assignment;
        SyncGas::new(EngineConfig::new(ClusterSpec::local_9())).run(g, a_ref(&a), prog)
    }

    fn a_ref(a: &gp_partition::Assignment) -> &gp_partition::Assignment {
        a
    }

    #[test]
    fn chain_distances_are_hop_counts() {
        let g = EdgeList::from_pairs((0..10).map(|i| (i, i + 1)).collect());
        let (dist, report) = run(&g, &Sssp::directed(0u64));
        assert_eq!(dist, (0..=10).collect::<Vec<u32>>());
        assert!(report.converged);
        // Frontier moves one hop per superstep.
        assert!(report.supersteps() >= 10);
    }

    #[test]
    fn directed_variant_respects_direction() {
        // 1 -> 0: unreachable from 0 in the directed sense.
        let g = EdgeList::from_pairs(vec![(1, 0)]);
        let (dist, _) = run(&g, &Sssp::directed(0u64));
        assert_eq!(dist[0], 0);
        assert_eq!(dist[1], INFINITY);
        let (dist_u, _) = run(&g, &Sssp::undirected(0u64));
        assert_eq!(dist_u[1], 1, "undirected variant reaches backwards");
    }

    #[test]
    fn unreachable_vertices_stay_infinite() {
        let g = EdgeList::from_pairs(vec![(0, 1), (2, 3)]);
        let (dist, _) = run(&g, &Sssp::undirected(0u64));
        assert_eq!(dist[1], 1);
        assert_eq!(dist[2], INFINITY);
        assert_eq!(dist[3], INFINITY);
    }

    #[test]
    fn distances_match_bfs_reference() {
        let g = gp_gen::erdos_renyi(400, 1_500, 5);
        let (dist, _) = run(&g, &Sssp::undirected(0u64));
        // Reference BFS on the undirected view.
        let mut adj = vec![Vec::new(); 400];
        for e in g.edges() {
            adj[e.src.index()].push(e.dst.index());
            adj[e.dst.index()].push(e.src.index());
        }
        let mut reference = vec![INFINITY; 400];
        reference[0] = 0;
        let mut queue = std::collections::VecDeque::from([0usize]);
        while let Some(u) = queue.pop_front() {
            for &w in &adj[u] {
                if reference[w] == INFINITY {
                    reference[w] = reference[u] + 1;
                    queue.push_back(w);
                }
            }
        }
        assert_eq!(dist, reference);
    }

    #[test]
    fn naturalness_depends_on_directedness() {
        assert!(Sssp::directed(0u64).is_natural());
        assert!(!Sssp::undirected(0u64).is_natural());
    }

    #[test]
    fn low_activity_signature() {
        // SSSP activates only the frontier: its busiest superstep touches a
        // fraction of the vertices PageRank would.
        let g = gp_gen::road_network(
            &gp_gen::RoadNetworkParams {
                width: 40,
                height: 40,
                ..Default::default()
            },
            2,
        );
        let (_, report) = run(&g, &Sssp::undirected(0u64));
        let peak_active = report
            .steps
            .iter()
            .map(|s| s.active_vertices)
            .max()
            .unwrap();
        assert!(
            (peak_active as f64) < 0.5 * g.num_vertices() as f64,
            "frontier should stay well below |V|: peak {peak_active}"
        );
    }
}
