//! `VertexProgram::accumulate` is what the engines call per gather edge; its
//! contract is "equal to folding `gather` with `merge`":
//!
//! * `Coloring` overrides it (one bit set in place instead of a singleton
//!   set per edge) — checked against the explicit fold on random neighbor
//!   color lists, on both sides of the bitset's inline width;
//! * PageRank, WCC, SSSP and K-core use the provided method — checked
//!   against the explicit fold in CSR order, bit for bit.

use gp_apps::{Coloring, KCore, PageRank, Sssp, Wcc};
use gp_core::pset::INLINE_BITS;
use gp_core::{CsrGraph, Edge, EdgeList, VertexId};
use gp_engine::{Direction, InitInfo, VertexProgram};
use proptest::prelude::*;

/// One gather edge as the engine presents it: neighbor, its state, its degrees.
type GatherEdge<'a, S> = (VertexId, &'a S, InitInfo);

/// The contract spelled out: `gather` every edge, `merge` left to right.
fn gather_merge_fold<'a, P: VertexProgram>(
    program: &P,
    v: VertexId,
    edges: impl Iterator<Item = GatherEdge<'a, P::State>>,
) -> Option<P::Accum>
where
    P::State: 'a,
{
    edges
        .map(|(u, state, info)| program.gather(v, u, state, info))
        .reduce(|a, g| program.merge(a, g))
}

/// What the engine does: `accumulate` every edge into one slot.
fn accumulate_fold<'a, P: VertexProgram>(
    program: &P,
    v: VertexId,
    edges: impl Iterator<Item = GatherEdge<'a, P::State>>,
) -> Option<P::Accum>
where
    P::State: 'a,
{
    let mut acc = None;
    for (u, state, info) in edges {
        program.accumulate(&mut acc, v, u, state, info);
    }
    acc
}

const NO_INFO: InitInfo = InitInfo {
    num_vertices: 0,
    out_degree: 0,
    in_degree: 0,
};

proptest! {
    #[test]
    fn coloring_accumulate_equals_gather_merge_fold(
        // Narrow range: duplicates and colors on both sides of the inline width.
        colors in proptest::collection::vec(INLINE_BITS - 8..INLINE_BITS + 8, 0..24),
        // Wide range: spills that grow more than once.
        wide in proptest::collection::vec(0u32..4 * INLINE_BITS, 0..24),
    ) {
        for list in [&colors, &wide] {
            let edges = || {
                list.iter()
                    .enumerate()
                    .map(|(i, color)| (VertexId(i as u64 + 1), color, NO_INFO))
            };
            let folded = gather_merge_fold(&Coloring, VertexId(0), edges());
            let accumulated = accumulate_fold(&Coloring, VertexId(0), edges());
            // No gather edges stays `None`, so `apply` still sees that.
            prop_assert_eq!(accumulated.is_none(), list.is_empty());
            // `PartitionSet` equality is by content, whichever side spilled.
            prop_assert_eq!(&accumulated, &folded);
        }
    }
}

/// A small graph with hubs, a self-loop, a duplicate edge and an isolated vertex.
fn graph() -> EdgeList {
    let mut edges = gp_gen::barabasi_albert(300, 4, 17).edges().to_vec();
    edges.push(Edge::new(5u64, 5u64));
    edges.push(edges[0]);
    EdgeList::with_vertex_count(edges, 302).expect("ids below the vertex count")
}

/// For every vertex, the provided `accumulate` over its gather-direction
/// neighbors in CSR order (in-edges first) equals the explicit fold;
/// `bits` makes the comparison exact for floating-point accumulators.
fn assert_default_matches_fold<P: VertexProgram>(
    program: &P,
    state_of: impl Fn(VertexId) -> P::State,
    bits: impl Fn(&P::Accum) -> u64,
) {
    let csr = CsrGraph::from_edge_list(&graph());
    let states: Vec<P::State> = csr.vertices().map(&state_of).collect();
    let dir = program.gather_direction();
    assert_ne!(dir, Direction::None);
    for v in csr.vertices() {
        let edges = || {
            let ins = csr.in_neighbors(v).filter(|_| dir.includes_in());
            let outs = csr.out_neighbors(v).filter(|_| dir.includes_out());
            ins.chain(outs).map(|u| {
                let info = InitInfo {
                    num_vertices: csr.num_vertices(),
                    out_degree: csr.out_degree(u),
                    in_degree: csr.in_degree(u),
                };
                (u, &states[u.index()], info)
            })
        };
        let folded = gather_merge_fold(program, v, edges());
        let accumulated = accumulate_fold(program, v, edges());
        assert_eq!(
            accumulated.as_ref().map(&bits),
            folded.as_ref().map(&bits),
            "{} at {v:?}",
            program.name()
        );
    }
}

#[test]
fn pagerank_default_accumulate_is_the_fold_bit_for_bit() {
    // Ranks with full mantissas, so a different summation order would show.
    let rank = |v: VertexId| gp_apps::pagerank::Rank(1.0 + (v.0 as f64 * 0.37).sin() / 3.0);
    assert_default_matches_fold(&PageRank::fixed(10), rank, |a| a.to_bits());
}

#[test]
fn wcc_default_accumulate_is_the_fold() {
    let label = |v: VertexId| v.0.wrapping_mul(2_654_435_761) % 302;
    assert_default_matches_fold(&Wcc, label, |a| *a);
}

#[test]
fn sssp_default_accumulate_is_the_fold() {
    // Unreached vertices (saturating at INFINITY) mixed with reached ones.
    let dist = |v: VertexId| match v.0 % 3 {
        0 => gp_apps::sssp::INFINITY,
        _ => (v.0 % 11) as u32,
    };
    assert_default_matches_fold(&Sssp::undirected(0u64), dist, |a| u64::from(*a));
    assert_default_matches_fold(&Sssp::directed(0u64), dist, |a| u64::from(*a));
}

#[test]
fn kcore_default_accumulate_is_the_fold() {
    assert_default_matches_fold(&KCore::new(3), |v| v.0 % 4 != 0, |a| u64::from(*a));
}
