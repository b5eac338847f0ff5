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

use crate::assignment::Assignment;
use crate::partitioner::{
    loader_chunks, PartitionContext, PartitionOutcome, Partitioner, GINGER_BASE,
    GINGER_PER_NEIGHBOR, HASH_ASSIGN, PARSE_EDGE,
};
use crate::speculative::{sharded_degree_table, SpecStats, StampSet, WindowController};
use gp_core::{for_each_edge, hash_vertex, CsrGraph, Edge, PartitionId, StreamingEdges, VertexId};

/// The default high-degree threshold (θ) used by the paper (§6.2.1).
pub const DEFAULT_THRESHOLD: u32 = 100;

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
        PartitionId((hash_vertex(e.src, seed) % p) as u32)
    } else {
        PartitionId((hash_vertex(e.dst, seed) % p) as u32)
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

    /// Shared core: produce per-edge partitions plus the per-vertex "home"
    /// partition of low-degree vertices. Used by both Hybrid and
    /// Hybrid-Ginger (which then perturbs the homes).
    fn assign(
        &self,
        graph: &dyn StreamingEdges,
        ctx: &PartitionContext,
    ) -> (Vec<PartitionId>, Vec<PartitionId>, Vec<u32>) {
        let p = ctx.num_partitions as u64;
        let n = graph.num_vertices() as usize;
        // Pass 1: count actual in-degrees (and conceptually hash-assign)
        // via the shared sharded degree pass: thread-local `DegreeTable`
        // shards merged by elementwise addition — chunking-invariant, so
        // byte-identical at every thread count.
        let in_deg: Vec<u32> = sharded_degree_table(graph, &ctx.par).in_degrees().collect();
        debug_assert_eq!(in_deg.len(), n);
        // Vertex home = hash(v): where a low-degree vertex's in-edges (and
        // master) live.
        let homes: Vec<PartitionId> = gp_par::map_chunks(&ctx.par, n, |_, range| {
            range
                .map(|v| PartitionId((hash_vertex(VertexId(v as u64), ctx.seed) % p) as u32))
                .collect::<Vec<_>>()
        })
        .into_iter()
        .flatten()
        .collect();
        // Pass 2: final placement using actual degrees (pure per-edge map;
        // `homes[dst]` is exactly `hash(dst) % p`, so this is `hybrid_edge`).
        let parts: Vec<PartitionId> =
            gp_par::map_chunks(&ctx.par, graph.num_edges(), |_, range| {
                let mut out = Vec::with_capacity(range.len());
                for_each_edge(graph, range, |e| {
                    out.push(hybrid_edge(
                        e,
                        in_deg[e.dst.index()],
                        self.threshold,
                        ctx.seed,
                        p,
                    ));
                });
                out
            })
            .into_iter()
            .flatten()
            .collect();
        (parts, homes, in_deg)
    }

    /// Masters: a vertex's master sits at its home partition when that
    /// partition holds a replica (always true for low-degree vertices with
    /// in-edges), otherwise at the first replica.
    fn masters(assignment: &Assignment, homes: &[PartitionId]) -> Vec<PartitionId> {
        homes
            .iter()
            .enumerate()
            .map(|(v, &home)| {
                let reps = assignment.replicas(VertexId(v as u64));
                if reps.is_empty() || reps.binary_search(&home.0).is_ok() {
                    home
                } else {
                    PartitionId(reps[0])
                }
            })
            .collect()
    }

    fn two_pass_work(graph: &dyn StreamingEdges, ctx: &PartitionContext) -> Vec<f64> {
        // Pass 1 (count) + pass 2 (reassign): both stream every edge.
        loader_chunks(graph.num_edges(), ctx.num_loaders)
            .into_iter()
            .map(|c| c as f64 * (2.0 * PARSE_EDGE + 2.0 * HASH_ASSIGN))
            .collect()
    }

    fn base_state_bytes(graph: &dyn StreamingEdges, ctx: &PartitionContext) -> u64 {
        // Per-machine overhead of the multi-pass ingress (§6.4.2): the full
        // degree-counter table plus this loader's share of the edge stream,
        // buffered across the reassignment pass.
        graph.num_vertices() * 4 + graph.num_edges() as u64 * 16 / ctx.num_loaders as u64
    }
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
        let (parts, homes, _) = self.assign(graph, ctx);
        let mut assignment = Assignment::from_edge_partitions_par(
            graph,
            parts,
            ctx.num_partitions,
            ctx.seed,
            &ctx.par,
        );
        let masters = Self::masters(&assignment, &homes);
        assignment.set_masters(masters);
        let outcome = PartitionOutcome {
            assignment,
            loader_work: Self::two_pass_work(graph, ctx),
            passes: 2,
            state_bytes: Self::base_state_bytes(graph, ctx),
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
    /// discounted from its current partition. A pure function of the state
    /// it is handed — the sequential scan feeds it live state, the windowed
    /// path feeds it the window-start snapshot (and live state again on
    /// repair). Ginger draws no RNG, so identical inputs give identical
    /// choices.
    #[allow(clippy::too_many_arguments)]
    fn best_home(
        csr: &CsrGraph,
        homes: &[PartitionId],
        in_deg: &[u32],
        vcount: &[u64],
        ecount: &[u64],
        nv_over_ne: f64,
        p: usize,
        v: usize,
        affinity: &mut [u64],
    ) -> usize {
        affinity.iter_mut().for_each(|a| *a = 0);
        for u in csr.in_neighbors(VertexId(v as u64)) {
            affinity[homes[u.index()].index()] += 1;
        }
        let current = homes[v].index();
        let mut best = current;
        let mut best_score = f64::NEG_INFINITY;
        for cand in 0..p {
            // Score the partition as if v were not already counted there.
            let vc = vcount[cand] - u64::from(cand == current);
            let ec = ecount[cand] - if cand == current { in_deg[v] as u64 } else { 0 };
            let balance = 0.5 * (vc as f64 + nv_over_ne * ec as f64);
            let score = affinity[cand] as f64 - balance;
            if score > best_score {
                best_score = score;
                best = cand;
            }
        }
        best
    }

    /// Windowed speculative Ginger refinement: candidate vertices (low
    /// in-degree, in scan order) are cut into windows; workers propose
    /// moves against the window-start snapshot of homes and counts; a
    /// sequential walk commits them. A vertex is fully re-scored only when
    /// an in-neighbor's home moved earlier in the same window (its affinity
    /// inputs changed); otherwise the move gets an O(1) *live balance
    /// re-check* — the proposal carries its two relevant affinity values,
    /// so the walk can re-compare proposed-vs-current against the live
    /// counts without rescanning neighbors. That re-check is what stops a
    /// window's proposals from herding onto the partition that was lightest
    /// at the snapshot: each committed move raises the target's live
    /// balance term until later movers stay put. Moves, not visits, mark
    /// the stamp — an unmoved neighbor invalidates nothing.
    #[allow(clippy::too_many_arguments)]
    fn refine_windowed(
        csr: &CsrGraph,
        homes: &mut [PartitionId],
        in_deg: &[u32],
        vcount: &mut [u64],
        ecount: &mut [u64],
        nv_over_ne: f64,
        p: usize,
        ctx: &PartitionContext,
        ginger_work: &mut f64,
        stats: &mut SpecStats,
    ) {
        let n = homes.len();
        let cands: Vec<u32> = (0..n as u32)
            .filter(|&v| {
                let d = in_deg[v as usize];
                d > 0 && d <= DEFAULT_THRESHOLD
            })
            .collect();
        let mut stamp = StampSet::new(n);
        let mut affinity = vec![0u64; p];
        // Windows are cut by the same controller as the edge-stream path:
        // fixed for `--window W`, adaptive for `--window auto` — either way
        // a pure function of the candidate stream, never the thread count.
        let mut ctl = WindowController::new(ctx.window);
        let mut start = 0usize;
        while start < cands.len() {
            let end = (start + ctl.current()).min(cands.len());
            let wrange = start..end;
            let homes_snap: &[PartitionId] = homes;
            let vcount_snap: &[u64] = vcount;
            let ecount_snap: &[u64] = ecount;
            // (proposed, affinity[proposed], affinity[current]) per vertex.
            let proposals: Vec<(usize, u64, u64)> =
                gp_par::map_chunks(&ctx.par, wrange.len(), |_, r| {
                    let mut aff = vec![0u64; p];
                    let mut out = Vec::with_capacity(r.len());
                    for k in r {
                        let v = cands[wrange.start + k] as usize;
                        let best = Self::best_home(
                            csr,
                            homes_snap,
                            in_deg,
                            vcount_snap,
                            ecount_snap,
                            nv_over_ne,
                            p,
                            v,
                            &mut aff,
                        );
                        out.push((best, aff[best], aff[homes_snap[v].index()]));
                    }
                    out
                })
                .into_iter()
                .flatten()
                .collect();
            stamp.advance();
            let mut repaired_here = 0u64;
            for (k, &(proposed, aff_prop, aff_cur)) in proposals.iter().enumerate() {
                let v = cands[wrange.start + k] as usize;
                *ginger_work += GINGER_BASE + GINGER_PER_NEIGHBOR * in_deg[v] as f64;
                let conflict = csr
                    .in_neighbors(VertexId(v as u64))
                    .any(|u| stamp.contains(u));
                let best = if conflict {
                    repaired_here += 1;
                    Self::best_home(
                        csr,
                        homes,
                        in_deg,
                        vcount,
                        ecount,
                        nv_over_ne,
                        p,
                        v,
                        &mut affinity,
                    )
                } else {
                    stats.speculated += 1;
                    let current = homes[v].index();
                    if proposed == current {
                        current
                    } else {
                        // Live balance re-check, same discounting as
                        // `best_home` (v removed from its current home,
                        // strict improvement required to move).
                        let score_prop = aff_prop as f64
                            - 0.5
                                * (vcount[proposed] as f64 + nv_over_ne * ecount[proposed] as f64);
                        let score_cur = aff_cur as f64
                            - 0.5
                                * ((vcount[current] - 1) as f64
                                    + nv_over_ne * (ecount[current] - in_deg[v] as u64) as f64);
                        if score_prop > score_cur {
                            proposed
                        } else {
                            current
                        }
                    }
                };
                let current = homes[v].index();
                if best != current {
                    vcount[current] -= 1;
                    vcount[best] += 1;
                    ecount[current] -= in_deg[v] as u64;
                    ecount[best] += in_deg[v] as u64;
                    homes[v] = PartitionId(best as u32);
                    stamp.mark(VertexId(v as u64));
                }
            }
            stats.windows += 1;
            stats.repaired += repaired_here;
            stats.max_window = stats.max_window.max(wrange.len() as u64);
            ctl.observe(wrange.len(), repaired_here, stats);
            start = end;
        }
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
        let (_, mut homes, in_deg) = Hybrid::default().assign(graph, ctx);
        let p = ctx.num_partitions as usize;
        let n = graph.num_vertices() as usize;
        let m = graph.num_edges() as f64;

        // Phase 3: Ginger refinement of low-degree vertex homes.
        let csr = CsrGraph::from_source(graph);
        let mut vcount = vec![0u64; p]; // vertices per partition
        let mut ecount = vec![0u64; p]; // in-edges homed per partition
        for v in 0..n {
            vcount[homes[v].index()] += 1;
            if in_deg[v] <= DEFAULT_THRESHOLD {
                ecount[homes[v].index()] += in_deg[v] as u64;
            }
        }
        let nv_over_ne = if m > 0.0 { n as f64 / m } else { 0.0 };
        let mut ginger_work = 0.0f64;
        let mut stats = SpecStats::default();
        if ctx.window >= 2 {
            // Windowed speculative refinement — see `crate::speculative`.
            Self::refine_windowed(
                &csr,
                &mut homes,
                &in_deg,
                &mut vcount,
                &mut ecount,
                nv_over_ne,
                p,
                ctx,
                &mut ginger_work,
                &mut stats,
            );
        } else {
            // Sequential scan: mutates shared vcount/ecount/homes state as
            // it goes, so its result depends on scan order by design.
            let mut affinity = vec![0u64; p];
            for v in 0..n {
                if in_deg[v] > DEFAULT_THRESHOLD || in_deg[v] == 0 {
                    continue;
                }
                ginger_work += GINGER_BASE + GINGER_PER_NEIGHBOR * in_deg[v] as f64;
                let current = homes[v].index();
                let best = Self::best_home(
                    &csr,
                    &homes,
                    &in_deg,
                    &vcount,
                    &ecount,
                    nv_over_ne,
                    p,
                    v,
                    &mut affinity,
                );
                if best != current {
                    vcount[current] -= 1;
                    vcount[best] += 1;
                    ecount[current] -= in_deg[v] as u64;
                    ecount[best] += in_deg[v] as u64;
                    homes[v] = PartitionId(best as u32);
                }
            }
        }

        // Re-emit edge partitions with the refined homes (pure map; the
        // Ginger refinement itself stays sequential — it mutates shared
        // vcount/ecount/homes state as it scans, so its result depends on
        // scan order by design).
        let p64 = ctx.num_partitions as u64;
        let parts: Vec<PartitionId> =
            gp_par::map_chunks(&ctx.par, graph.num_edges(), |_, range| {
                let mut out = Vec::with_capacity(range.len());
                for_each_edge(graph, range, |e| {
                    out.push(if in_deg[e.dst.index()] > DEFAULT_THRESHOLD {
                        PartitionId((hash_vertex(e.src, ctx.seed) % p64) as u32)
                    } else {
                        homes[e.dst.index()]
                    });
                });
                out
            })
            .into_iter()
            .flatten()
            .collect();
        let mut assignment = Assignment::from_edge_partitions_par(
            graph,
            parts,
            ctx.num_partitions,
            ctx.seed,
            &ctx.par,
        );
        let masters = Hybrid::masters(&assignment, &homes);
        assignment.set_masters(masters);

        // Work: Hybrid's two passes + a third full scan (parallel across
        // loaders) + the heuristic itself, whose serial refinement is not
        // loader-parallel (PowerLyra runs it as an extra coordination
        // phase) — charged to one loader to model the straggler.
        let mut loader_work = Hybrid::two_pass_work(graph, ctx);
        let third_pass_each = graph.num_edges() as f64 * PARSE_EDGE / ctx.num_loaders as f64;
        for w in loader_work.iter_mut() {
            *w += third_pass_each;
        }
        if let Some(w) = loader_work.first_mut() {
            *w += ginger_work;
        }
        // State: Hybrid's buffers plus this loader's share of the in-neighbor
        // adjacency built for the heuristic phase, plus per-vertex homes.
        let state_bytes = Hybrid::base_state_bytes(graph, ctx)
            + graph.num_edges() as u64 * 8 / ctx.num_loaders as u64
            + graph.num_vertices() * 8;
        let outcome = PartitionOutcome {
            assignment,
            loader_work,
            passes: 3,
            state_bytes,
        };
        super::record_ingress_telemetry(self.name(), graph, &outcome, ctx);
        super::record_speculation_telemetry(ctx, &stats);
        outcome
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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
