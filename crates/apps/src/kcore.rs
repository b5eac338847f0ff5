//! K-core decomposition (§3.3.3).
//!
//! A k-core is a maximal subgraph in which every vertex has degree ≥ k; it
//! is found by repeatedly peeling vertices of degree < k. The PowerGraph
//! application takes `k_min` and `k_max` and finds all k-cores in between —
//! one [`KCore`] program run per k, which is what makes this the paper's
//! long-compute application (Table 5.1: k-core spends ~20× longer in compute
//! than PageRank on UK-web).

use gp_core::VertexId;
use gp_engine::{ApplyInfo, Direction, InitInfo, VertexProgram};

/// Peeling program for a single `k`. State = alive flag.
#[derive(Debug, Clone)]
pub struct KCore {
    /// The core order being peeled.
    pub k: u32,
}

impl KCore {
    /// Program for one k.
    pub fn new(k: u32) -> Self {
        KCore { k }
    }
}

impl VertexProgram for KCore {
    type State = bool; // alive?
    type Accum = u32; // live-neighbor count

    fn name(&self) -> &'static str {
        "K-Core"
    }

    fn gather_direction(&self) -> Direction {
        Direction::Both
    }

    fn scatter_direction(&self) -> Direction {
        Direction::Both
    }

    fn init(&self, _: VertexId, info: InitInfo) -> bool {
        // Vertices whose static degree is already < k die immediately; they
        // are initialized dead but must broadcast that, so they start active.
        info.in_degree + info.out_degree >= self.k
    }

    #[inline]
    fn initially_active(&self, _: VertexId) -> bool {
        true
    }

    #[inline]
    fn gather(&self, _: VertexId, _: VertexId, alive: &bool, _: InitInfo) -> u32 {
        u32::from(*alive)
    }

    #[inline]
    fn merge(&self, a: u32, b: u32) -> u32 {
        a + b
    }

    #[inline]
    fn apply(&self, _: VertexId, old: &bool, acc: Option<u32>, _: ApplyInfo) -> bool {
        *old && acc.unwrap_or(0) >= self.k
    }

    #[inline]
    fn self_reactivates(&self, alive: &bool) -> bool {
        // Alive vertices keep recounting their alive neighbors every
        // superstep (as the PowerGraph application does); the engine stops
        // at the first superstep where nothing changes.
        *alive
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gp_cluster::ClusterSpec;
    use gp_core::EdgeList;
    use gp_engine::{EngineConfig, SyncGas};
    use gp_partition::{PartitionContext, Strategy};

    fn engine() -> SyncGas {
        SyncGas::new(EngineConfig::new(ClusterSpec::local_9()))
    }

    fn assignment(g: &EdgeList) -> gp_partition::Assignment {
        Strategy::Random
            .build()
            .partition(g, &PartitionContext::new(4))
            .assignment
    }

    /// A 4-clique with a pendant path: the 3-core is exactly the clique.
    fn clique_with_tail() -> EdgeList {
        let mut pairs = Vec::new();
        for i in 0..4u64 {
            for j in (i + 1)..4 {
                pairs.push((i, j));
            }
        }
        pairs.push((3, 4));
        pairs.push((4, 5));
        EdgeList::from_pairs(pairs)
    }

    #[test]
    fn three_core_is_the_clique() {
        let g = clique_with_tail();
        let (alive, _) = engine().run(&g, &assignment(&g), &KCore::new(3));
        assert_eq!(alive, vec![true, true, true, true, false, false]);
    }

    #[test]
    fn peeling_cascades() {
        // A path has no 2-core: removing leaves cascades down the chain.
        let g = EdgeList::from_pairs((0..20).map(|i| (i, i + 1)).collect());
        let (alive, report) = engine().run(&g, &assignment(&g), &KCore::new(2));
        assert!(alive.iter().all(|&a| !a), "paths have no 2-core");
        assert!(
            report.supersteps() > 5,
            "peeling should cascade over supersteps"
        );
    }

    #[test]
    fn cycle_survives_its_two_core() {
        let mut pairs: Vec<(u64, u64)> = (0..10).map(|i| (i, (i + 1) % 10)).collect();
        pairs.push((0, 10)); // pendant
        let g = EdgeList::from_pairs(pairs);
        let (alive, _) = engine().run(&g, &assignment(&g), &KCore::new(2));
        assert!(alive[..10].iter().all(|&a| a));
        assert!(!alive[10]);
    }

    #[test]
    fn core_sizes_are_monotone_decreasing() {
        let g = gp_gen::barabasi_albert(3_000, 6, 3);
        let a = assignment(&g);
        let sizes: Vec<usize> = (2..=8)
            .map(|k| {
                let (alive, report) = engine().run(&g, &a, &KCore::new(k));
                assert!(report.compute_seconds() > 0.0);
                alive.iter().filter(|&&a| a).count()
            })
            .collect();
        for w in sizes.windows(2) {
            assert!(w[0] >= w[1], "core sizes must shrink with k: {sizes:?}");
        }
    }

    #[test]
    fn kcore_matches_reference_peeling() {
        let g = gp_gen::erdos_renyi(300, 1_800, 7);
        let k = 6;
        let (alive, _) = engine().run(&g, &assignment(&g), &KCore::new(k));
        // Reference sequential peeling.
        let mut deg = vec![0u32; 300];
        for e in g.edges() {
            deg[e.src.index()] += 1;
            deg[e.dst.index()] += 1;
        }
        let mut ref_alive = vec![true; 300];
        loop {
            let mut removed = false;
            for v in 0..300 {
                if ref_alive[v] && deg[v] < k {
                    ref_alive[v] = false;
                    removed = true;
                    for e in g.edges() {
                        if e.src.index() == v && ref_alive[e.dst.index()] {
                            deg[e.dst.index()] -= 1;
                        } else if e.dst.index() == v && ref_alive[e.src.index()] {
                            deg[e.src.index()] -= 1;
                        }
                    }
                }
            }
            if !removed {
                break;
            }
        }
        assert_eq!(alive, ref_alive);
    }
}
