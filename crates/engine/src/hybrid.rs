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

use crate::accounting::{Accountant, GatherPolicy, MachineTallies};
use crate::gas::{barrier_wall, sync_trace};
use crate::layout::Layout;
use crate::program::VertexProgram;
use crate::report::{ComputeReport, EngineConfig};
use crate::trace::{SemanticTrace, Semantics};
use gp_core::{CsrGraph, EdgeList};
use gp_partition::strategies::hybrid::DEFAULT_THRESHOLD;
use gp_partition::Assignment;

/// PowerLyra's hybrid (differentiated) engine. Vertices of degree at most
/// the partitioning threshold ([`DEFAULT_THRESHOLD`], §6.2.1) take the
/// local-gather path.
#[derive(Debug, Clone)]
pub struct HybridGas {
    /// Engine configuration.
    pub config: EngineConfig,
}

impl HybridGas {
    /// New hybrid engine.
    pub fn new(config: EngineConfig) -> Self {
        HybridGas { config }
    }

    /// Run `program` over the partitioned graph: [`HybridGas::trace`] over
    /// the adjacency `graph` owns, then [`HybridGas::price`] on a [`Layout`]
    /// of the counts `assignment` owns.
    pub fn run<P: VertexProgram>(
        &self,
        graph: &EdgeList,
        assignment: &Assignment,
        program: &P,
    ) -> (Vec<P::State>, ComputeReport) {
        let layout = Layout::build(graph, assignment, &self.config.spec);
        let (states, trace) = self.trace(graph.csr(), program);
        (states, self.price(&trace, &layout, assignment, program))
    }

    /// The semantic pass alone — SyncGas's, since the engines differ only
    /// in cost: the final states, and the trace that [`HybridGas::price`]
    /// prices on any partitioning of `csr`'s graph.
    pub fn trace<P: VertexProgram>(
        &self,
        csr: &CsrGraph,
        program: &P,
    ) -> (Vec<P::State>, SemanticTrace) {
        sync_trace(&self.config, csr, program, Semantics::from(self))
    }

    /// The report of a run of `program` on `layout` of `assignment`, priced
    /// from a `trace` of it on the same graph. Panics if the trace was
    /// recorded on another graph or for another program, semantics or
    /// superstep cap.
    pub fn price<P: VertexProgram>(
        &self,
        trace: &SemanticTrace,
        layout: &Layout,
        assignment: &Assignment,
        program: &P,
    ) -> ComputeReport {
        let config = &self.config;
        let wall = |tallies: &mut MachineTallies, _| barrier_wall(config, tallies);
        let policy = GatherPolicy::LocalAware {
            threshold: DEFAULT_THRESHOLD,
        };
        let accountant = Accountant::new(config, program, self.into(), policy, layout, assignment);
        let steps = accountant.price(trace, wall);
        let report = ComputeReport::new(program.name(), "hybrid-gas", steps, trace.converged);
        crate::finish(report, config, assignment)
    }
}

impl From<&HybridGas> for Semantics {
    /// Synchronous, with the configured gather cache.
    fn from(engine: &HybridGas) -> Self {
        Semantics::Synchronous {
            delta_caching: engine.config.delta_caching,
        }
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
    fn low_degree_graphs_take_the_local_aware_path_everywhere() {
        let g = gp_gen::erdos_renyi(2_000, 10_000, 5);
        let degrees = g.degrees();
        let max_degree = (0..g.num_vertices())
            .map(|v| degrees.in_degree(VertexId(v)) + degrees.out_degree(VertexId(v)))
            .max();
        assert!(max_degree <= Some(DEFAULT_THRESHOLD));
        let a = Strategy::OneDTarget
            .build()
            .partition(&g, &PartitionContext::new(9))
            .assignment;
        let (_, rep) = HybridGas::new(cfg()).run(&g, &a, &NaturalSum);
        // 1D-Target co-locates ALL in-edges, so with the local-aware policy
        // applied to every vertex, gather messages only occur when the master
        // was randomly placed away from the in-edge partition.
        let total_gather: u64 = rep.steps.iter().map(|s| s.gather_messages).sum();
        let (_, sync_rep) = SyncGas::new(cfg()).run(&g, &a, &NaturalSum);
        let sync_gather: u64 = sync_rep.steps.iter().map(|s| s.gather_messages).sum();
        assert!(total_gather < sync_gather);
    }
}
