//! Simple greedy coloring (§3.3.5).
//!
//! Each active vertex takes the smallest color different from all of its
//! neighbors': `p(v) = argmin_k { k | k ≠ p(v') ∀ v'∈N(v) }`. No minimality
//! guarantee (minimal coloring is NP-complete). All vertices start with the
//! same color and all start active.
//!
//! This is the one application the paper runs on PowerGraph's
//! **asynchronous** engine (§5.4.1): under synchronous semantics two
//! adjacent vertices recolor simultaneously and can livelock forever.
//! Run it on [`Model::Async`](gp_engine::Model::Async).

use gp_core::{PartitionSet, VertexId};
use gp_engine::{ApplyInfo, Direction, InitInfo, VertexProgram};

/// The Simple Coloring vertex program.
#[derive(Debug, Clone, Default)]
pub struct Coloring;

impl VertexProgram for Coloring {
    type State = u32;
    /// The neighbors' colors as a bitset (inline up to color 255, heap
    /// beyond): `merge` is a word-wise OR, with no allocation per edge.
    type Accum = PartitionSet;

    fn name(&self) -> &'static str {
        "Coloring"
    }

    fn gather_direction(&self) -> Direction {
        Direction::Both
    }

    fn scatter_direction(&self) -> Direction {
        Direction::Both
    }

    fn init(&self, _: VertexId, _: InitInfo) -> u32 {
        0
    }

    #[inline]
    fn initially_active(&self, _: VertexId) -> bool {
        true
    }

    #[inline]
    fn gather(&self, _: VertexId, _: VertexId, color: &u32, _: InitInfo) -> PartitionSet {
        PartitionSet::singleton(*color)
    }

    #[inline]
    fn merge(&self, mut a: PartitionSet, b: PartitionSet) -> PartitionSet {
        a.union_with(&b);
        a
    }

    /// `gather` → `merge` without the per-edge singleton: set the neighbor's
    /// color bit in place.
    #[inline]
    fn accumulate(
        &self,
        acc: &mut Option<PartitionSet>,
        _: VertexId,
        _: VertexId,
        color: &u32,
        _: InitInfo,
    ) {
        acc.get_or_insert_with(PartitionSet::new).insert(*color);
    }

    #[inline]
    fn apply(&self, _: VertexId, old: &u32, acc: Option<PartitionSet>, _: ApplyInfo) -> u32 {
        let taken = acc.unwrap_or_default();
        if !taken.contains(*old) {
            return *old; // already conflict-free — stay put
        }
        // Smallest color absent from the (ascending) neighbor set.
        let mut mex = 0u32;
        for c in taken.iter() {
            if c != mex {
                break;
            }
            mex += 1;
        }
        mex
    }

    fn max_supersteps(&self) -> u32 {
        1_000
    }
}

/// Check that `colors` is a proper coloring of `graph` (ignoring self loops).
pub fn is_proper_coloring(graph: &gp_core::EdgeList, colors: &[u32]) -> bool {
    graph
        .edges()
        .iter()
        .filter(|e| !e.is_self_loop())
        .all(|e| colors[e.src.index()] != colors[e.dst.index()])
}

/// Number of distinct colors used.
pub fn color_count(colors: &[u32]) -> usize {
    let mut c: Vec<u32> = colors.to_vec();
    c.sort_unstable();
    c.dedup();
    c.len()
}

#[cfg(test)]
mod tests {
    use super::*;
    use gp_cluster::ClusterSpec;
    use gp_core::EdgeList;
    use gp_engine::{Engine, EngineConfig, Model};
    use gp_partition::{PartitionContext, Strategy};

    fn run_async(g: &EdgeList) -> (Vec<u32>, gp_engine::ComputeReport) {
        let a = Strategy::Oblivious
            .build()
            .partition(g, &PartitionContext::new(4))
            .assignment;
        Engine::new(EngineConfig::new(ClusterSpec::local_9()), Model::Async)
            .run(g, &a, &Coloring)
            .unwrap()
    }

    #[test]
    fn triangle_needs_three_colors() {
        let g = EdgeList::from_pairs(vec![(0, 1), (1, 2), (2, 0)]);
        let (colors, report) = run_async(&g);
        assert!(report.converged);
        assert!(is_proper_coloring(&g, &colors));
        assert_eq!(color_count(&colors), 3);
    }

    #[test]
    fn star_colored_with_few_colors() {
        // Greedy async may use 3 colors on a star (leaves recolor before the
        // hub settles) but never more than that.
        let g = EdgeList::from_pairs((1..=30).map(|i| (0, i)).collect());
        let (colors, _) = run_async(&g);
        assert!(is_proper_coloring(&g, &colors));
        assert!(
            color_count(&colors) <= 3,
            "used {} colors",
            color_count(&colors)
        );
    }

    #[test]
    fn random_graph_gets_properly_colored() {
        let g = gp_gen::erdos_renyi(500, 3_000, 13);
        let (colors, report) = run_async(&g);
        assert!(report.converged, "async coloring must converge");
        assert!(is_proper_coloring(&g, &colors));
        // Greedy never needs more than max-degree + 1 colors.
        let max_deg = g.degrees().max_degree();
        assert!(color_count(&colors) <= max_deg as usize + 1);
    }

    #[test]
    fn clique_wider_than_the_inline_bitset_is_colored() {
        // 300 mutually adjacent vertices need 300 colors, so accumulators
        // spill past the bitset's inline width.
        let n = 300u64;
        let g = EdgeList::from_pairs(
            (0..n)
                .flat_map(|i| (i + 1..n).map(move |j| (i, j)))
                .collect(),
        );
        let (colors, report) = run_async(&g);
        assert!(report.converged);
        assert!(is_proper_coloring(&g, &colors));
        assert_eq!(color_count(&colors), n as usize);
        assert!(colors.iter().any(|&c| c >= gp_core::pset::INLINE_BITS));
    }

    #[test]
    fn helper_detects_improper_colorings() {
        let g = EdgeList::from_pairs(vec![(0, 1)]);
        assert!(!is_proper_coloring(&g, &[1, 1]));
        assert!(is_proper_coloring(&g, &[0, 1]));
    }

    #[test]
    fn self_loops_are_ignored() {
        let g = EdgeList::from_pairs(vec![(0, 0), (0, 1)]);
        assert!(is_proper_coloring(&g, &[0, 1]));
    }
}
