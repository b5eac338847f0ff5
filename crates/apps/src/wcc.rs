//! Weakly Connected Components via label propagation (§3.3.2).
//!
//! Every vertex starts with its own id as its label; labels flow both ways
//! across edges (weak connectivity ignores direction) and each vertex keeps
//! the minimum it has seen: `p(v) = min_{v'∈N(v)} p(v')`. At convergence
//! every vertex holds the smallest vertex id in its component.

use gp_core::VertexId;
use gp_engine::{ApplyInfo, Direction, InitInfo, VertexProgram};

/// The WCC vertex program.
#[derive(Debug, Clone, Default)]
pub struct Wcc;

impl VertexProgram for Wcc {
    type State = u64;
    type Accum = u64;

    fn name(&self) -> &'static str {
        "WCC"
    }

    fn gather_direction(&self) -> Direction {
        Direction::Both
    }

    fn scatter_direction(&self) -> Direction {
        Direction::Both
    }

    fn init(&self, v: VertexId, _: InitInfo) -> u64 {
        v.0
    }

    #[inline]
    fn initially_active(&self, _: VertexId) -> bool {
        true
    }

    #[inline]
    fn gather(&self, _: VertexId, _: VertexId, label: &u64, _: InitInfo) -> u64 {
        *label
    }

    #[inline]
    fn merge(&self, a: u64, b: u64) -> u64 {
        a.min(b)
    }

    #[inline]
    fn apply(&self, _: VertexId, old: &u64, acc: Option<u64>, _: ApplyInfo) -> u64 {
        acc.map_or(*old, |a| a.min(*old))
    }

    fn accum_wire_bytes(&self) -> u64 {
        8
    }

    fn state_wire_bytes(&self) -> u64 {
        8
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gp_cluster::ClusterSpec;
    use gp_core::EdgeList;
    use gp_engine::{Engine, EngineConfig, Model};
    use gp_partition::{PartitionContext, Strategy};

    fn run(g: &EdgeList) -> Vec<u64> {
        let a = Strategy::Hdrf
            .build()
            .partition(g, &PartitionContext::new(4))
            .assignment;
        Engine::new(EngineConfig::new(ClusterSpec::local_9()), Model::Sync)
            .run(g, &a, &Wcc)
            .unwrap()
            .0
    }

    /// Distinct labels in a converged label vector: one per component.
    fn component_count(labels: &[u64]) -> usize {
        labels
            .iter()
            .collect::<std::collections::HashSet<_>>()
            .len()
    }

    #[test]
    fn finds_two_components() {
        let g = EdgeList::from_pairs(vec![(0, 1), (1, 2), (3, 4)]);
        let labels = run(&g);
        assert_eq!(labels, vec![0, 0, 0, 3, 3]);
        assert_eq!(component_count(&labels), 2);
    }

    #[test]
    fn direction_is_ignored() {
        // 2 -> 1 -> 0: weakly connected even though no path 0 -> 2.
        let g = EdgeList::from_pairs(vec![(2, 1), (1, 0)]);
        let labels = run(&g);
        assert_eq!(component_count(&labels), 1);
        assert!(labels.iter().all(|&l| l == 0));
    }

    #[test]
    fn isolated_vertices_form_their_own_components() {
        let g = EdgeList::with_vertex_count(vec![gp_core::Edge::new(0u64, 1u64)], 4).unwrap();
        let labels = run(&g);
        assert_eq!(component_count(&labels), 3); // {0,1}, {2}, {3}
    }

    #[test]
    fn random_graph_component_count_matches_union_find() {
        let g = gp_gen::erdos_renyi(500, 600, 9);
        let labels = run(&g);
        // Reference union-find.
        let mut parent: Vec<usize> = (0..500).collect();
        fn find(p: &mut Vec<usize>, x: usize) -> usize {
            if p[x] != x {
                let r = find(p, p[x]);
                p[x] = r;
            }
            p[x]
        }
        for e in g.edges() {
            let (a, b) = (
                find(&mut parent, e.src.index()),
                find(&mut parent, e.dst.index()),
            );
            if a != b {
                parent[a] = b;
            }
        }
        let mut roots: Vec<usize> = (0..500).map(|v| find(&mut parent, v)).collect();
        roots.sort_unstable();
        roots.dedup();
        assert_eq!(component_count(&labels), roots.len());
    }
}
