//! PageRank (§3.3.1).
//!
//! `p(v) = (1 − d) + d · Σ_{v'∈Ni(v)} p(v') / |No(v')|` with damping
//! `d = 0.85`. Gathers along in-edges, scatters along out-edges — the
//! canonical *natural* application (§6.1).
//!
//! Two modes, matching the paper's "PageRank(10)" and "PageRank(C)" series:
//! fixed iteration count (every vertex active every superstep) and
//! run-to-convergence (a vertex stays quiet once its rank moves less than
//! the tolerance).

use gp_core::VertexId;
use gp_engine::{ApplyInfo, Direction, InitInfo, VertexProgram};

/// Execution mode.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PageRankMode {
    /// Run exactly this many supersteps with all vertices active —
    /// "PageRank(10)" in the figures. A nonzero tolerance lets stabilized
    /// vertices stop changing state (their rank freezes once updates fall
    /// below it), which engine-level gather caching can exploit.
    Iterations(u32),
    /// Fixed iterations with a rank-change tolerance.
    IterationsWithTolerance(u32, f64),
    /// Run until every vertex's rank changes by less than the tolerance —
    /// "PageRank(C)".
    Convergence {
        /// Absolute rank-change tolerance.
        tolerance: f64,
    },
}

/// Ranked state: ranks are rounded to a fixed grid so `PartialEq` detects
/// "changed more than tolerance" exactly.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Rank(pub f64);

/// The PageRank vertex program.
#[derive(Debug, Clone)]
pub struct PageRank {
    /// Damping factor `d` (0.85 in the paper).
    pub damping: f64,
    /// Mode.
    pub mode: PageRankMode,
}

impl PageRank {
    /// Fixed-iteration PageRank — `PageRank(10)` with `iters = 10`.
    pub fn fixed(iters: u32) -> Self {
        PageRank {
            damping: 0.85,
            mode: PageRankMode::Iterations(iters),
        }
    }

    /// Fixed-iteration PageRank whose vertices freeze once their rank moves
    /// less than `tolerance` (used by the delta-caching ablation).
    pub fn fixed_with_tolerance(iters: u32, tolerance: f64) -> Self {
        PageRank {
            damping: 0.85,
            mode: PageRankMode::IterationsWithTolerance(iters, tolerance),
        }
    }

    /// Convergence PageRank with the default tolerance 1e-3.
    pub fn to_convergence() -> Self {
        PageRank {
            damping: 0.85,
            mode: PageRankMode::Convergence { tolerance: 1e-3 },
        }
    }

    #[inline]
    fn tolerance(&self) -> f64 {
        match self.mode {
            PageRankMode::Iterations(_) => 0.0,
            PageRankMode::IterationsWithTolerance(_, tolerance) => tolerance,
            PageRankMode::Convergence { tolerance } => tolerance,
        }
    }
}

impl VertexProgram for PageRank {
    type State = Rank;
    type Accum = f64;

    fn name(&self) -> &'static str {
        match self.mode {
            PageRankMode::Iterations(_) | PageRankMode::IterationsWithTolerance(..) => {
                "PageRank(10)"
            }
            PageRankMode::Convergence { .. } => "PageRank(C)",
        }
    }

    fn gather_direction(&self) -> Direction {
        Direction::In
    }

    fn scatter_direction(&self) -> Direction {
        Direction::Out
    }

    fn init(&self, _: VertexId, _: InitInfo) -> Rank {
        Rank(1.0)
    }

    #[inline]
    fn initially_active(&self, _: VertexId) -> bool {
        true
    }

    #[inline]
    fn gather(&self, _: VertexId, _: VertexId, s: &Rank, nbr: InitInfo) -> f64 {
        s.0 / nbr.out_degree.max(1) as f64
    }

    #[inline]
    fn merge(&self, a: f64, b: f64) -> f64 {
        a + b
    }

    #[inline]
    fn apply(&self, _: VertexId, old: &Rank, acc: Option<f64>, _: ApplyInfo) -> Rank {
        let new = (1.0 - self.damping) + self.damping * acc.unwrap_or(0.0);
        if (new - old.0).abs() <= self.tolerance() {
            *old
        } else {
            Rank(new)
        }
    }

    fn always_active(&self) -> bool {
        matches!(
            self.mode,
            PageRankMode::Iterations(_) | PageRankMode::IterationsWithTolerance(..)
        )
    }

    fn max_supersteps(&self) -> u32 {
        match self.mode {
            PageRankMode::Iterations(n) | PageRankMode::IterationsWithTolerance(n, _) => n,
            PageRankMode::Convergence { .. } => 500,
        }
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
    use gp_engine::{EngineConfig, SyncGas};
    use gp_partition::{PartitionContext, Strategy};

    fn run(g: &EdgeList, pr: &PageRank) -> (Vec<Rank>, gp_engine::ComputeReport) {
        let a = Strategy::Random
            .build()
            .partition(g, &PartitionContext::new(4))
            .assignment;
        SyncGas::new(EngineConfig::new(ClusterSpec::local_9())).run(g, &a, pr)
    }

    #[test]
    fn fixed_mode_runs_exactly_n_supersteps() {
        let g = EdgeList::from_pairs(vec![(0, 1), (1, 2), (2, 0)]);
        let (_, report) = run(&g, &PageRank::fixed(10));
        assert_eq!(report.supersteps(), 10);
    }

    #[test]
    fn symmetric_cycle_has_uniform_ranks() {
        let g = EdgeList::from_pairs(vec![(0, 1), (1, 2), (2, 0)]);
        let (ranks, _) = run(&g, &PageRank::to_convergence());
        for r in &ranks {
            assert!(
                (r.0 - 1.0).abs() < 1e-2,
                "cycle rank should be 1, got {}",
                r.0
            );
        }
    }

    #[test]
    fn hub_collects_higher_rank_than_spokes() {
        // Spokes all point at the hub.
        let g = EdgeList::from_pairs((1..=20).map(|i| (i, 0)).collect());
        let (ranks, report) = run(&g, &PageRank::to_convergence());
        assert!(report.converged);
        assert!(
            ranks[0].0 > 5.0 * ranks[1].0,
            "hub {} vs spoke {}",
            ranks[0].0,
            ranks[1].0
        );
    }

    #[test]
    fn dangling_vertices_keep_base_rank() {
        // 0 -> 1; vertex 2 isolated (no in-edges): rank = 1 - d.
        let g = EdgeList::with_vertex_count(vec![gp_core::Edge::new(0u64, 1u64)], 3).unwrap();
        let (ranks, _) = run(&g, &PageRank::to_convergence());
        assert!((ranks[2].0 - 0.15).abs() < 1e-9);
    }

    #[test]
    fn convergence_mode_quiesces() {
        let g = gp_gen::barabasi_albert(2_000, 4, 1);
        let (_, report) = run(&g, &PageRank::to_convergence());
        assert!(report.converged, "PageRank(C) should converge");
        assert!(report.supersteps() < 500);
        // Late supersteps have far fewer active vertices than the first.
        let first = report.steps.first().unwrap().active_vertices;
        let last = report.steps.last().unwrap().active_vertices;
        assert!(last < first / 2, "activity should decay: {first} -> {last}");
    }

    #[test]
    fn tolerant_fixed_mode_freezes_stable_vertices() {
        let g = gp_gen::barabasi_albert(2_000, 4, 3);
        let (a, ra) = run(&g, &PageRank::fixed(20));
        let (b, rb) = run(&g, &PageRank::fixed_with_tolerance(20, 1e-3));
        assert_eq!(ra.supersteps(), 20);
        assert_eq!(rb.supersteps(), 20);
        // Ranks agree to ~1% relative error — per-vertex freezes accumulate
        // proportionally to rank magnitude on hub vertices.
        for (x, y) in a.iter().zip(&b) {
            assert!(
                (x.0 - y.0).abs() < 0.01 * x.0.max(1.0),
                "{} vs {}",
                x.0,
                y.0
            );
        }
    }

    #[test]
    fn pagerank_is_natural() {
        assert!(PageRank::fixed(10).is_natural());
        assert!(PageRank::to_convergence().is_natural());
    }

    #[test]
    fn ranks_match_reference_power_iteration() {
        // Compare against a dense reference implementation on a small graph.
        let g = EdgeList::from_pairs(vec![(0, 1), (0, 2), (1, 2), (2, 0)]);
        let (ranks, _) = run(&g, &PageRank::fixed(30));
        let mut reference = vec![1.0f64; 3];
        let out_deg = [2.0, 1.0, 1.0];
        for _ in 0..30 {
            let prev = reference.clone();
            reference[0] = 0.15 + 0.85 * (prev[2] / out_deg[2]);
            reference[1] = 0.15 + 0.85 * (prev[0] / out_deg[0]);
            reference[2] = 0.15 + 0.85 * (prev[0] / out_deg[0] + prev[1] / out_deg[1]);
        }
        for (got, want) in ranks.iter().zip(&reference) {
            assert!((got.0 - want).abs() < 1e-6, "got {} want {want}", got.0);
        }
    }
}
