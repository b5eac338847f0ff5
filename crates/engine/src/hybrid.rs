//! PowerLyra's hybrid engine (§6.1): differentiated gather.
//!
//! PowerLyra "performs a distributed gather for high-degree vertices (as in
//! PowerGraph), and a local gather for low-degree vertices (as in
//! GraphLab/Pregel)". The consequence the paper measures (Fig 6.1): when a
//! partitioning strategy co-locates a low-degree vertex's gather-direction
//! edges with its master — Hybrid by construction, 1D-Target by hashing,
//! 2D partially — the gather round costs *no* network for that vertex, so
//! network usage drops below what the replication factor predicts for
//! natural applications.
//!
//! The engine differs from [`SyncGas`](crate::gas::SyncGas) only in its
//! gather policy: for vertices at or below the degree threshold, only
//! replicas that actually hold gather-direction edges send partial
//! aggregates; PowerGraph's engine makes *every* mirror participate.

use crate::accounting::GatherPolicy;
use crate::gas::{barrier_priced, sync_recorded, sync_replay, sync_trace};
use crate::layout::Layout;
use crate::program::VertexProgram;
use crate::report::{ComputeReport, EngineConfig};
use crate::trace::{OnStep, SemanticTrace, TraceEnd};
use gp_core::{CsrGraph, EdgeList};
use gp_partition::Assignment;

/// PowerLyra's hybrid (differentiated) engine.
#[derive(Debug, Clone)]
pub struct HybridGas {
    /// Engine configuration.
    pub config: EngineConfig,
    /// Degree at or below which the local-gather path is used. Matches the
    /// partitioning threshold (100 by default, §6.2.1).
    pub threshold: u32,
}

impl HybridGas {
    /// New hybrid engine with the paper's default threshold.
    pub fn new(config: EngineConfig) -> Self {
        HybridGas {
            config,
            threshold: gp_partition::strategies::hybrid::DEFAULT_THRESHOLD,
        }
    }

    /// Override the low/high-degree threshold.
    pub fn with_threshold(mut self, threshold: u32) -> Self {
        self.threshold = threshold;
        self
    }

    /// Run `program` over the partitioned graph.
    pub fn run<P: VertexProgram>(
        &self,
        graph: &EdgeList,
        assignment: &Assignment,
        program: &P,
    ) -> (Vec<P::State>, ComputeReport) {
        let layout = Layout::build(graph, assignment, self.config.spec.machines);
        self.run_on(&layout, assignment, program)
    }

    /// [`HybridGas::run`] on a prepared `layout` of `assignment`: the
    /// semantic pass streams each superstep straight into the pricer.
    pub fn run_on<P: VertexProgram>(
        &self,
        layout: &Layout,
        assignment: &Assignment,
        program: &P,
    ) -> (Vec<P::State>, ComputeReport) {
        let mut states = Vec::new();
        let report = self.priced(layout, assignment, program, |on_step| {
            let delta_caching = self.config.delta_caching;
            let (out, end) =
                sync_trace(&self.config, layout.csr(), program, delta_caching, on_step);
            states = out;
            end
        });
        (states, report)
    }

    /// The semantic pass alone — SyncGas's, since the engines differ only
    /// in cost: the final states, and the trace that [`HybridGas::price`]
    /// prices on any partitioning of `csr`'s graph.
    pub fn trace<P: VertexProgram>(
        &self,
        csr: &CsrGraph,
        program: &P,
    ) -> (Vec<P::State>, SemanticTrace) {
        sync_recorded(&self.config, csr, program, self.config.delta_caching)
    }

    /// The report [`HybridGas::run_on`] returns, priced from a `trace` of
    /// `program` on the same graph. Panics if the trace was recorded for
    /// another program, semantics or superstep cap.
    pub fn price<P: VertexProgram>(
        &self,
        trace: &SemanticTrace,
        layout: &Layout,
        assignment: &Assignment,
        program: &P,
    ) -> ComputeReport {
        self.priced(layout, assignment, program, |on_step| {
            sync_replay(
                trace,
                &self.config,
                program,
                self.config.delta_caching,
                on_step,
            )
        })
    }

    fn priced<P: VertexProgram>(
        &self,
        layout: &Layout,
        assignment: &Assignment,
        program: &P,
        source: impl FnOnce(OnStep) -> TraceEnd,
    ) -> ComputeReport {
        let policy = GatherPolicy::LocalAware {
            threshold: self.threshold,
        };
        barrier_priced(
            &self.config,
            layout,
            assignment,
            program,
            policy,
            "hybrid-gas",
            source,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gas::SyncGas;
    use crate::program::{ApplyInfo, Direction, InitInfo};
    use gp_cluster::ClusterSpec;
    use gp_core::VertexId;
    use gp_partition::{PartitionContext, Strategy};

    /// A natural application: gathers In, scatters Out (PageRank-shaped).
    struct NaturalSum;

    impl VertexProgram for NaturalSum {
        type State = u64;
        type Accum = u64;
        fn name(&self) -> &'static str {
            "natural-sum"
        }
        fn gather_direction(&self) -> Direction {
            Direction::In
        }
        fn scatter_direction(&self) -> Direction {
            Direction::Out
        }
        fn init(&self, v: VertexId, _: InitInfo) -> u64 {
            v.0 % 7
        }
        fn initially_active(&self, _: VertexId) -> bool {
            true
        }
        fn gather(&self, _: VertexId, _: VertexId, s: &u64, _: InitInfo) -> u64 {
            *s
        }
        fn merge(&self, a: u64, b: u64) -> u64 {
            a.wrapping_add(b)
        }
        fn apply(&self, _: VertexId, old: &u64, acc: Option<u64>, info: ApplyInfo) -> u64 {
            // Converges after a couple of steps: take max of old and acc/deg.
            let incoming = acc.unwrap_or(0) / (info.in_degree.max(1) as u64);
            (*old).max(incoming)
        }
        fn max_supersteps(&self) -> u32 {
            20
        }
    }

    fn cfg() -> EngineConfig {
        EngineConfig::new(ClusterSpec::local_9())
    }

    #[test]
    fn results_match_sync_gas_exactly() {
        let g = gp_gen::barabasi_albert(2_000, 5, 1);
        let a = Strategy::Hybrid
            .build()
            .partition(&g, &PartitionContext::new(9))
            .assignment;
        let (s1, _) = SyncGas::new(cfg()).run(&g, &a, &NaturalSum);
        let (s2, _) = HybridGas::new(cfg()).run(&g, &a, &NaturalSum);
        assert_eq!(s1, s2, "engines must agree on semantics");
    }

    #[test]
    fn hybrid_partitioning_plus_natural_app_saves_gather_traffic() {
        // The Fig 6.1 effect: under the hybrid engine, Hybrid partitioning
        // sends far fewer gather messages than under PowerGraph's engine.
        let g = gp_gen::barabasi_albert(5_000, 8, 2);
        let a = Strategy::Hybrid
            .build()
            .partition(&g, &PartitionContext::new(9))
            .assignment;
        let (_, sync_rep) = SyncGas::new(cfg()).run(&g, &a, &NaturalSum);
        let (_, hyb_rep) = HybridGas::new(cfg()).run(&g, &a, &NaturalSum);
        let sync_gather: u64 = sync_rep.steps.iter().map(|s| s.gather_messages).sum();
        let hyb_gather: u64 = hyb_rep.steps.iter().map(|s| s.gather_messages).sum();
        assert!(
            (hyb_gather as f64) < 0.5 * sync_gather as f64,
            "hybrid engine gather msgs {hyb_gather} should be well below sync {sync_gather}"
        );
    }

    #[test]
    fn one_d_target_beats_one_d_under_hybrid_engine() {
        // §8.2.3: 1D-Target co-locates in-edges (the gather direction), 1D
        // co-locates out-edges.
        let g = gp_gen::barabasi_albert(5_000, 8, 3);
        let ctx = PartitionContext::new(9);
        let a_1d = Strategy::OneD.build().partition(&g, &ctx).assignment;
        let a_1dt = Strategy::OneDTarget.build().partition(&g, &ctx).assignment;
        let engine = HybridGas::new(cfg());
        let (_, rep_1d) = engine.run(&g, &a_1d, &NaturalSum);
        let (_, rep_1dt) = engine.run(&g, &a_1dt, &NaturalSum);
        let g1: u64 = rep_1d.steps.iter().map(|s| s.gather_messages).sum();
        let g2: u64 = rep_1dt.steps.iter().map(|s| s.gather_messages).sum();
        assert!(g2 < g1, "1D-Target gather msgs {g2} should beat 1D {g1}");
    }

    #[test]
    fn non_natural_apps_see_little_saving_with_hybrid() {
        // §6.4.1: undirected (Both-gather) apps cannot exploit in-edge
        // co-location — every replica holds *some* edge, so most still send.
        struct BothSum;
        impl VertexProgram for BothSum {
            type State = u64;
            type Accum = u64;
            fn name(&self) -> &'static str {
                "both-sum"
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
            fn initially_active(&self, _: VertexId) -> bool {
                true
            }
            fn gather(&self, _: VertexId, _: VertexId, s: &u64, _: InitInfo) -> u64 {
                *s
            }
            fn merge(&self, a: u64, b: u64) -> u64 {
                a.min(b)
            }
            fn apply(&self, _: VertexId, old: &u64, acc: Option<u64>, _: ApplyInfo) -> u64 {
                acc.map_or(*old, |a| a.min(*old))
            }
        }
        let g = gp_gen::barabasi_albert(5_000, 8, 4);
        let a = Strategy::Hybrid
            .build()
            .partition(&g, &PartitionContext::new(9))
            .assignment;
        let (_, sync_rep) = SyncGas::new(cfg()).run(&g, &a, &BothSum);
        let (_, hyb_rep) = HybridGas::new(cfg()).run(&g, &a, &BothSum);
        let sync_gather: u64 = sync_rep.steps.iter().map(|s| s.gather_messages).sum();
        let hyb_gather: u64 = hyb_rep.steps.iter().map(|s| s.gather_messages).sum();
        // Every replica exists because of some local edge, so with
        // Both-direction gather the hybrid policy sends exactly as much.
        assert_eq!(hyb_gather, sync_gather);
    }

    #[test]
    fn threshold_zero_degenerates_to_local_aware_everywhere() {
        let g = gp_gen::barabasi_albert(2_000, 5, 5);
        let a = Strategy::OneDTarget
            .build()
            .partition(&g, &PartitionContext::new(9))
            .assignment;
        let all_local = HybridGas::new(cfg()).with_threshold(u32::MAX);
        let (_, rep) = all_local.run(&g, &a, &NaturalSum);
        // 1D-Target co-locates ALL in-edges, so with the local-aware policy
        // applied to every vertex, gather messages only occur when the master
        // was randomly placed away from the in-edge partition.
        let total_gather: u64 = rep.steps.iter().map(|s| s.gather_messages).sum();
        let (_, sync_rep) = SyncGas::new(cfg()).run(&g, &a, &NaturalSum);
        let sync_gather: u64 = sync_rep.steps.iter().map(|s| s.gather_messages).sum();
        assert!(total_gather < sync_gather);
    }
}
