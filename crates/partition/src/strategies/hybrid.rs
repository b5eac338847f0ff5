//! PowerLyra's Hybrid and Hybrid-Ginger strategies (§6.2).
//!
//! **Hybrid** differentiates by destination in-degree: edges whose
//! destination is *low-degree* are placed by hashing the **destination**
//! (edge-cut-like: a low-degree vertex keeps all its in-edges, and its
//! master, in one place), while edges whose destination is *high-degree* are
//! placed by hashing the **source** (vertex-cut-like: the hub's in-edges
//! spread over the cluster). Unlike HDRF, Hybrid uses *actual* degrees, which
//! takes a second "reassignment" pass over the data (§6.2.1); the default
//! degree threshold is 100, as in the paper.
//!
//! **Hybrid-Ginger** adds a third phase: a Fennel-inspired heuristic that
//! tries to move each low-degree vertex `v` to the partition holding most of
//! its in-neighbours, tempered by a load-balance term (§6.2.2):
//!
//! ```text
//! c(v, p) = |Ni(v) ∩ Vp| − b(p),   b(p) = ½(|Vp| + |V|/|E|·|Ep|)
//! ```
//!
//! The extra phases cost ingress time and memory — the overheads behind
//! Figs 6.3/6.4 — in exchange for a slightly better replication factor.

use crate::assignment::assign_stateless_par;
use crate::partitioner::{
    loader_chunks, PartitionContext, PartitionOutcome, Partitioner, GINGER_BASE,
    GINGER_PER_NEIGHBOR, HASH_ASSIGN, PARSE_EDGE,
};
use crate::strategies::sharded_degree_table;
use gp_core::{hash_vertex, CsrGraph, Edge, PartitionId, StreamingEdges, VertexId};

/// The default high-degree threshold (θ) used by the paper (§6.2.1).
pub const DEFAULT_THRESHOLD: u32 = 100;

/// A vertex's hash home, `hash(v) % p`: where Hybrid puts a low-degree
/// vertex's in-edges and master, and where Ginger's refinement starts it.
fn hash_home(v: VertexId, seed: u64, p: u64) -> PartitionId {
    PartitionId((hash_vertex(v, seed) % p) as u32)
}

/// Hybrid's per-edge placement given the destination's in-degree: hash the
/// source for high-degree destinations (vertex-cut), hash the destination
/// for low-degree ones (edge-cut "home"). Shared by the batch second pass
/// (which uses *actual* degrees) and the incremental serving path (which
/// feeds *running* degrees — the documented approximation).
pub(crate) fn hybrid_edge(
    e: Edge,
    dst_in_degree: u32,
    threshold: u32,
    seed: u64,
    p: u64,
) -> PartitionId {
    if dst_in_degree > threshold {
        hash_home(e.src, seed, p)
    } else {
        hash_home(e.dst, seed, p)
    }
}

/// PowerLyra's Hybrid partitioner.
#[derive(Debug, Clone)]
pub struct Hybrid {
    /// In-degree above which a vertex is treated as high-degree.
    pub threshold: u32,
}

impl Default for Hybrid {
    fn default() -> Self {
        Hybrid {
            threshold: DEFAULT_THRESHOLD,
        }
    }
}

impl Hybrid {
    /// Hybrid with a custom high-degree threshold.
    pub fn with_threshold(threshold: u32) -> Self {
        Hybrid { threshold }
    }
}

/// Per-loader work of Hybrid's two passes: pass 1 (count) and pass 2
/// (reassign) both stream every edge.
fn two_pass_work(graph: &dyn StreamingEdges, ctx: &PartitionContext) -> Vec<f64> {
    loader_chunks(graph.num_edges(), ctx.num_loaders)
        .into_iter()
        .map(|c| c as f64 * (2.0 * PARSE_EDGE + 2.0 * HASH_ASSIGN))
        .collect()
}

/// Per-machine overhead of the multi-pass ingress (§6.4.2): the full
/// degree-counter table plus this loader's share of the edge stream,
/// buffered across the reassignment pass.
fn two_pass_state_bytes(graph: &dyn StreamingEdges, ctx: &PartitionContext) -> u64 {
    graph.num_vertices() * 4 + graph.num_edges() as u64 * 16 / ctx.num_loaders as u64
}

impl Partitioner for Hybrid {
    fn name(&self) -> &'static str {
        "Hybrid"
    }

    fn partition(
        &mut self,
        graph: &dyn StreamingEdges,
        ctx: &PartitionContext,
    ) -> PartitionOutcome {
        let (p, seed) = (ctx.num_partitions as u64, ctx.seed);
        // Pass 1: actual in-degrees (sharded, so thread-count invariant).
        let degrees = sharded_degree_table(graph, &ctx.par);
        // Pass 2: final placement using actual degrees.
        let mut assignment = assign_stateless_par(graph, ctx.num_partitions, seed, &ctx.par, |e| {
            hybrid_edge(e, degrees.in_degree(e.dst), self.threshold, seed, p)
        });
        assignment.set_masters_at_home(|v| hash_home(v, seed, p));
        let outcome = PartitionOutcome {
            assignment,
            loader_work: two_pass_work(graph, ctx),
            passes: 2,
            state_bytes: two_pass_state_bytes(graph, ctx),
        };
        super::record_ingress_telemetry(self.name(), graph, &outcome, ctx);
        outcome
    }
}

/// PowerLyra's Hybrid-Ginger partitioner, at the paper's
/// [`DEFAULT_THRESHOLD`].
#[derive(Debug, Clone, Default)]
pub struct HybridGinger;

impl HybridGinger {
    /// The Fennel-style score argmax for vertex `v`: the partition holding
    /// most of `v`'s in-neighbors, tempered by the balance term, with `v`
    /// discounted from its current partition.
    fn best_home(
        csr: &CsrGraph,
        homes: &[PartitionId],
        vcount: &[u64],
        ecount: &[u64],
        nv_over_ne: f64,
        v: VertexId,
        affinity: &mut [u64],
    ) -> usize {
        affinity.iter_mut().for_each(|a| *a = 0);
        for u in csr.in_neighbors(v) {
            affinity[homes[u.index()].index()] += 1;
        }
        let (current, d) = (homes[v.index()].index(), csr.in_degree(v) as u64);
        let mut best = current;
        let mut best_score = f64::NEG_INFINITY;
        for cand in 0..affinity.len() {
            // Score the partition as if v were not already counted there.
            let vc = vcount[cand] - u64::from(cand == current);
            let ec = ecount[cand] - d * u64::from(cand == current);
            let balance = 0.5 * (vc as f64 + nv_over_ne * ec as f64);
            let score = affinity[cand] as f64 - balance;
            if score > best_score {
                best_score = score;
                best = cand;
            }
        }
        best
    }
}

impl Partitioner for HybridGinger {
    fn name(&self) -> &'static str {
        "H-Ginger"
    }

    fn partition(
        &mut self,
        graph: &dyn StreamingEdges,
        ctx: &PartitionContext,
    ) -> PartitionOutcome {
        let (p, seed) = (ctx.num_partitions as u64, ctx.seed);
        let n = graph.num_vertices();
        let m = graph.num_edges() as f64;
        // The in-neighbor adjacency the heuristic scans also holds the
        // actual in-degrees Hybrid's first pass counts.
        let csr = CsrGraph::from_source(graph);
        let in_deg = |v: VertexId| csr.in_degree(v);
        let mut homes: Vec<PartitionId> = (0..n).map(|v| hash_home(VertexId(v), seed, p)).collect();

        // Phase 3: Ginger refinement of low-degree vertex homes. A
        // sequential scan: it mutates vcount/ecount/homes as it goes, so
        // its result depends on scan order by design.
        let mut vcount = vec![0u64; p as usize]; // vertices per partition
        let mut ecount = vec![0u64; p as usize]; // in-edges homed per partition
        for v in (0..n).map(VertexId) {
            vcount[homes[v.index()].index()] += 1;
            if in_deg(v) <= DEFAULT_THRESHOLD {
                ecount[homes[v.index()].index()] += in_deg(v) as u64;
            }
        }
        let nv_over_ne = if m > 0.0 { n as f64 / m } else { 0.0 };
        let mut ginger_work = 0.0f64;
        let mut affinity = vec![0u64; p as usize];
        for v in (0..n).map(VertexId) {
            let d = in_deg(v);
            if d > DEFAULT_THRESHOLD || d == 0 {
                continue;
            }
            ginger_work += GINGER_BASE + GINGER_PER_NEIGHBOR * d as f64;
            let current = homes[v.index()].index();
            let best =
                Self::best_home(&csr, &homes, &vcount, &ecount, nv_over_ne, v, &mut affinity);
            if best != current {
                vcount[current] -= 1;
                vcount[best] += 1;
                ecount[current] -= d as u64;
                ecount[best] += d as u64;
                homes[v.index()] = PartitionId(best as u32);
            }
        }

        // Hybrid's placement with the refined homes: hubs' in-edges still
        // hash by source, low-degree in-edges go to the destination's home.
        let mut assignment = assign_stateless_par(graph, ctx.num_partitions, seed, &ctx.par, |e| {
            if in_deg(e.dst) > DEFAULT_THRESHOLD {
                hash_home(e.src, seed, p)
            } else {
                homes[e.dst.index()]
            }
        });
        assignment.set_masters_at_home(|v| homes[v.index()]);

        // Work: Hybrid's two passes + a third full scan (parallel across
        // loaders) + the heuristic itself, whose serial refinement is not
        // loader-parallel (PowerLyra runs it as an extra coordination
        // phase) — charged to one loader to model the straggler.
        let mut loader_work = two_pass_work(graph, ctx);
        let third_pass_each = graph.num_edges() as f64 * PARSE_EDGE / ctx.num_loaders as f64;
        for w in loader_work.iter_mut() {
            *w += third_pass_each;
        }
        if let Some(w) = loader_work.first_mut() {
            *w += ginger_work;
        }
        // State: Hybrid's buffers plus this loader's share of the in-neighbor
        // adjacency built for the heuristic phase, plus per-vertex homes.
        let state_bytes = two_pass_state_bytes(graph, ctx)
            + graph.num_edges() as u64 * 8 / ctx.num_loaders as u64
            + graph.num_vertices() * 8;
        let outcome = PartitionOutcome {
            assignment,
            loader_work,
            passes: 3,
            state_bytes,
        };
        super::record_ingress_telemetry(self.name(), graph, &outcome, ctx);
        outcome
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::assignment::Assignment;
    use crate::strategies::oblivious::Oblivious;
    use crate::Strategy;
    use gp_core::EdgeList;

    fn ctx(p: u32) -> PartitionContext {
        PartitionContext::new(p)
    }

    /// A graph with one obvious hub and many low-degree vertices.
    fn hub_and_chain() -> EdgeList {
        let mut pairs: Vec<(u64, u64)> = (1..=300).map(|i| (i, 0)).collect(); // hub in-degree 300
        pairs.extend((301..400).map(|i| (i, i + 1))); // low-degree chain
        EdgeList::from_pairs(pairs)
    }

    #[test]
    fn low_degree_in_edges_are_colocated_with_master() {
        let g = hub_and_chain();
        let out = Hybrid::default().partition(&g, &ctx(8));
        let a = &out.assignment;
        // Chain vertices have in-degree 1 <= 100: their single in-edge lives
        // at their master.
        for (i, e) in g.edges().iter().enumerate() {
            if e.dst.0 >= 302 {
                assert_eq!(
                    a.edge_partition(i),
                    a.master_of(e.dst),
                    "low-degree in-edge must sit at the destination's master"
                );
            }
        }
    }

    #[test]
    fn hub_in_edges_are_spread_by_source() {
        let g = hub_and_chain();
        let out = Hybrid::default().partition(&g, &ctx(8));
        // The hub (in-degree 300 > 100) should be replicated widely.
        assert!(
            out.assignment.replica_count(VertexId(0)) >= 6,
            "hub replicas: {}",
            out.assignment.replica_count(VertexId(0))
        );
    }

    #[test]
    fn threshold_controls_differentiation() {
        let g = hub_and_chain();
        // With an enormous threshold every vertex is low-degree → pure
        // destination hashing → hub has exactly 1 replica... as destination.
        let out = Hybrid::with_threshold(1_000_000).partition(&g, &ctx(8));
        assert_eq!(out.assignment.replicas(VertexId(0)).len(), 1);
    }

    #[test]
    fn hybrid_reports_two_passes_and_buffer_state() {
        let g = hub_and_chain();
        let out = Hybrid::default().partition(&g, &ctx(4));
        assert_eq!(out.passes, 2);
        assert!(out.state_bytes > g.num_edges() as u64 * 8);
    }

    #[test]
    fn ginger_reports_three_passes_and_more_state() {
        let g = hub_and_chain();
        let h = Hybrid::default().partition(&g, &ctx(4));
        let hg = HybridGinger.partition(&g, &ctx(4));
        assert_eq!(hg.passes, 3);
        assert!(hg.state_bytes > h.state_bytes);
        let h_work: f64 = h.loader_work.iter().sum();
        let hg_work: f64 = hg.loader_work.iter().sum();
        assert!(hg_work > h_work, "Ginger must cost more ingress work");
    }

    #[test]
    fn ginger_rf_not_worse_than_hybrid() {
        // §6.4.4: slightly better replication factor than Hybrid.
        let g = gp_gen::barabasi_albert(10_000, 8, 3);
        let h = Hybrid::default()
            .partition(&g, &ctx(9))
            .assignment
            .replication_factor();
        let hg = HybridGinger
            .partition(&g, &ctx(9))
            .assignment
            .replication_factor();
        assert!(
            hg <= h * 1.02,
            "Ginger {hg} should not be worse than Hybrid {h}"
        );
    }

    #[test]
    fn hybrid_beats_random_on_heavy_tailed() {
        let g = gp_gen::barabasi_albert(10_000, 8, 6);
        let h = Hybrid::default()
            .partition(&g, &ctx(9))
            .assignment
            .replication_factor();
        let r = Strategy::Random
            .build()
            .partition(&g, &ctx(9))
            .assignment
            .replication_factor();
        assert!(h < r, "Hybrid {h} vs Random {r}");
    }

    #[test]
    fn oblivious_beats_hybrid_on_low_degree_graphs() {
        // §6.4.4: "Oblivious is a better choice for low-degree graphs".
        let g = gp_gen::road_network(
            &gp_gen::RoadNetworkParams {
                width: 60,
                height: 60,
                ..Default::default()
            },
            4,
        );
        let ob = Oblivious
            .partition(&g, &PartitionContext::new(9).with_loaders(1))
            .assignment
            .replication_factor();
        let h = Hybrid::default()
            .partition(&g, &ctx(9))
            .assignment
            .replication_factor();
        assert!(ob < h, "Oblivious {ob} vs Hybrid {h}");
    }

    #[test]
    fn masters_are_valid_replicas() {
        let g = hub_and_chain();
        for out in [
            Hybrid::default().partition(&g, &ctx(8)),
            HybridGinger.partition(&g, &ctx(8)),
        ] {
            for v in 0..g.num_vertices() {
                let v = VertexId(v);
                if out.assignment.replica_count(v) > 0 {
                    assert!(out
                        .assignment
                        .replicas(v)
                        .contains(&out.assignment.master_of(v).0));
                }
            }
        }
    }

    #[test]
    fn ginger_moves_chain_vertices_toward_neighbors() {
        // A long path: Ginger should pull adjacent vertices into the same
        // partition more often than raw hashing does.
        let g = EdgeList::from_pairs((0..2_000).map(|i| (i, i + 1)).collect());
        let h = Hybrid::default().partition(&g, &ctx(4));
        let hg = HybridGinger.partition(&g, &ctx(4));
        let cut = |a: &Assignment| -> usize {
            (0..g.num_edges() - 1)
                .filter(|&i| a.edge_partition(i) != a.edge_partition(i + 1))
                .count()
        };
        assert!(
            cut(&hg.assignment) < cut(&h.assignment),
            "Ginger should reduce adjacent-edge splits: {} vs {}",
            cut(&hg.assignment),
            cut(&h.assignment)
        );
    }

    #[test]
    fn deterministic_per_seed() {
        let g = gp_gen::barabasi_albert(3_000, 5, 8);
        let a = HybridGinger.partition(&g, &ctx(4));
        let b = HybridGinger.partition(&g, &ctx(4));
        assert_eq!(
            a.assignment.edge_partitions(),
            b.assignment.edge_partitions()
        );
    }
}
