//! The GraphX-style Pregel/dataflow engine (§7.1).
//!
//! GraphX executes graph computation as Spark dataflow over two RDDs — a
//! vertex RDD and an edge RDD cut into many partitions (typically one per
//! core, §7.2). The mechanics we model, because the paper's GraphX results
//! hinge on them:
//!
//! * **Vertex-attribute shipping**: each iteration, the updated attributes
//!   of changed vertices are shipped to every edge partition holding a
//!   replica (the "replicated vertex view"), and aggregated messages flow
//!   back from edge partitions to vertex masters. Traffic is therefore
//!   replica-driven, like the GAS engines, but *per edge partition*, of
//!   which there are many more than machines.
//! * **Join/scheduling overhead**: every iteration pays Spark task-launch
//!   and join costs proportional to the partition count plus a fixed driver
//!   coordination cost — the reason GraphX "computation time was always
//!   found to be much larger than partitioning time" (§7.4).
//! * **Executor memory pressure** ([`ExecutorMemoryModel`]): GraphX first
//!   tries to co-locate partitions on few executors, then spreads out on
//!   OOM, then fails the job (the three cases of §9.2.4, Fig 9.4), with GC
//!   overhead growing as memory tightens.

use crate::accounting::{Accountant, GatherPolicy, MachineTallies};
use crate::gas::sync_trace;
use crate::layout::Layout;
use crate::program::VertexProgram;
use crate::report::{ComputeReport, EngineConfig};
use crate::trace::{SemanticTrace, Semantics};
use gp_cluster::CostRates;
use gp_core::{CsrGraph, EdgeList};
use gp_partition::Assignment;

// Spark costs, calibrated for the paper's Local-10 GraphX cluster.

/// Fixed driver/scheduling cost per iteration, seconds.
const ITERATION_OVERHEAD_S: f64 = 0.12;

/// Task-launch cost per partition per iteration, seconds.
const TASK_OVERHEAD_S: f64 = 0.004;

/// Join work units per vertex per iteration (vertex/edge RDD co-join).
const JOIN_WORK_PER_VERTEX: f64 = 0.8;

/// Dimensionless GC aggressiveness; higher = more GC time under pressure.
const GC_COEFFICIENT: f64 = 0.6;

/// GraphX-specific tunables on top of [`EngineConfig`].
#[derive(Debug, Clone)]
pub struct PregelConfig {
    /// Shared engine configuration (cluster, wire sizes, work constants).
    pub base: EngineConfig,
    /// Memory available to each executor (one executor per machine), bytes.
    pub executor_memory_bytes: u64,
}

impl PregelConfig {
    /// 8 GiB executors on `base`'s cluster.
    pub fn new(base: EngineConfig) -> Self {
        PregelConfig {
            base,
            executor_memory_bytes: 8 << 30,
        }
    }

    /// Override executor memory (the Fig 9.4 sweep's x-axis).
    pub fn with_executor_memory(mut self, bytes: u64) -> Self {
        self.executor_memory_bytes = bytes;
        self
    }
}

/// The §9.2.4 partition-placement taxonomy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlacementCase {
    /// Case 1: the graph cannot fit on the whole cluster — the job fails
    /// after repeated OOM retries.
    DoesNotFit,
    /// Case 2: fits cluster-wide but not on a few executors; Spark's initial
    /// co-location attempts fail `retries` times before it spreads out.
    FitsCluster {
        /// Failed placement attempts before success.
        retries: u32,
    },
    /// Case 3: fits on a couple of executors; the first attempt succeeds.
    FitsFew,
}

/// Executor memory-pressure model (Fig 9.4).
#[derive(Debug, Clone)]
pub struct ExecutorMemoryModel {
    /// Bytes available per executor.
    pub executor_memory_bytes: u64,
    /// Number of executors (one per machine).
    pub executors: u32,
}

impl ExecutorMemoryModel {
    /// Classify placement for a graph occupying `graph_bytes` in total.
    /// GraphX "first tries to co-locate partitions on a smaller number of
    /// machines", i.e. two executors, then the whole cluster.
    pub fn placement(&self, graph_bytes: u64) -> PlacementCase {
        let per_two = graph_bytes / 2;
        let cluster_capacity = self.executor_memory_bytes * self.executors as u64;
        // Working headroom: Spark needs slack for shuffle buffers; a graph
        // "fits" only below ~70% occupancy.
        let usable = |cap: u64| (cap as f64 * 0.7) as u64;
        if graph_bytes > usable(cluster_capacity) {
            PlacementCase::DoesNotFit
        } else if per_two > usable(self.executor_memory_bytes) {
            // Retries grow as the graph gets closer to the cluster limit.
            let pressure = graph_bytes as f64 / usable(cluster_capacity) as f64;
            let retries = 1 + (pressure * 4.0) as u32;
            PlacementCase::FitsCluster { retries }
        } else {
            PlacementCase::FitsFew
        }
    }

    /// Multiplier on compute time from GC under memory pressure: approaches
    /// 1.0 with abundant memory, grows hyperbolically as occupancy → 1.
    pub fn gc_multiplier(&self, graph_bytes: u64) -> f64 {
        let capacity = (self.executor_memory_bytes * self.executors as u64) as f64;
        let occupancy = (graph_bytes as f64 / capacity).min(0.95);
        1.0 + GC_COEFFICIENT * occupancy / (1.0 - occupancy)
    }
}

/// Error returned when the job runs out of memory (placement case 1) — the
/// paper hit this loading Twitter and UK-web into GraphX (§7.3).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PregelOom {
    /// Total graph footprint that failed to fit.
    pub graph_bytes: u64,
    /// Cluster capacity it exceeded.
    pub cluster_capacity_bytes: u64,
}

impl std::fmt::Display for PregelOom {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "job failed: graph footprint {} B exceeds usable cluster memory {} B \
             (GC overhead limit exceeded)",
            self.graph_bytes, self.cluster_capacity_bytes
        )
    }
}

impl std::error::Error for PregelOom {}

/// The GraphX-style engine.
#[derive(Debug, Clone)]
pub struct Pregel {
    /// Configuration.
    pub config: PregelConfig,
}

impl Pregel {
    /// New engine.
    pub fn new(config: PregelConfig) -> Self {
        Pregel { config }
    }

    /// Memory model for the current configuration.
    pub fn memory_model(&self) -> ExecutorMemoryModel {
        ExecutorMemoryModel {
            executor_memory_bytes: self.config.executor_memory_bytes,
            executors: self.config.base.spec.machines,
        }
    }

    /// Total in-memory footprint of the partitioned graph.
    pub fn graph_bytes(&self, assignment: &Assignment) -> u64 {
        CostRates.machine_bytes(
            assignment.num_edges() as u64,
            assignment.total_images() as u64,
            0,
        )
    }

    /// Run `program`: [`Pregel::trace`] over the adjacency `graph` owns, then
    /// [`Pregel::price`] on a [`Layout`] of the counts `assignment` owns.
    /// Fails with [`PregelOom`] when the graph does not fit (placement case
    /// 1), before it builds or computes anything.
    pub fn run<P: VertexProgram>(
        &self,
        graph: &EdgeList,
        assignment: &Assignment,
        program: &P,
    ) -> Result<(Vec<P::State>, ComputeReport), PregelOom> {
        self.placement(assignment)?;
        let layout = Layout::build(graph, assignment, &self.config.base.spec);
        let (states, trace) = self.trace(graph.csr(), program);
        Ok((states, self.price(&trace, &layout, assignment, program)?))
    }

    /// Where GraphX places `assignment`'s partitions (§9.2.4), or
    /// [`PregelOom`] when the graph does not fit the cluster (case 1).
    pub fn placement(&self, assignment: &Assignment) -> Result<PlacementCase, PregelOom> {
        let graph_bytes = self.graph_bytes(assignment);
        match self.memory_model().placement(graph_bytes) {
            PlacementCase::DoesNotFit => Err(PregelOom {
                graph_bytes,
                cluster_capacity_bytes: self.config.executor_memory_bytes
                    * self.config.base.spec.machines as u64,
            }),
            fits => Ok(fits),
        }
    }

    /// The semantic pass alone — SyncGas's without its gather cache, which
    /// GraphX does not have: the final states, and the trace that
    /// [`Pregel::price`] prices on any partitioning of `csr`'s graph.
    pub fn trace<P: VertexProgram>(
        &self,
        csr: &CsrGraph,
        program: &P,
    ) -> (Vec<P::State>, SemanticTrace) {
        sync_trace(&self.config.base, csr, program, Semantics::from(self))
    }

    /// The result of a run of `program` on `layout` of `assignment`, priced
    /// from a `trace` of it on the same graph; a job that does not fit
    /// fails before anything is priced. Panics if the trace was recorded on
    /// another graph or for another program, semantics or superstep cap.
    pub fn price<P: VertexProgram>(
        &self,
        trace: &SemanticTrace,
        layout: &Layout,
        assignment: &Assignment,
        program: &P,
    ) -> Result<ComputeReport, PregelOom> {
        let placement = self.placement(assignment)?;
        let gc = self
            .memory_model()
            .gc_multiplier(self.graph_bytes(assignment));
        let placement_penalty_s = match placement {
            PlacementCase::FitsCluster { retries } => retries as f64 * 18.0,
            _ => 0.0,
        };

        let cfg = &self.config.base;
        let machines = cfg.spec.machines as f64;
        let compute_rate = cfg.spec.compute_threads() as f64 * cfg.spec.work_units_per_s;
        let per_iter_overhead =
            ITERATION_OVERHEAD_S + TASK_OVERHEAD_S * assignment.num_partitions() as f64 / machines;
        let step_wall = |tallies: &mut MachineTallies, active: usize| {
            // Join overhead: the vertex RDD is co-joined with edge partitions
            // every iteration, over active vertices.
            let join = JOIN_WORK_PER_VERTEX * active as f64;
            for w in tallies.work.iter_mut() {
                *w += join / machines;
            }
            (tallies.work.iter().copied().fold(0.0, f64::max) / compute_rate) * gc
                + tallies.in_bytes.iter().copied().fold(0.0, f64::max)
                    / cfg.spec.bandwidth_bytes_per_s
                + per_iter_overhead
        };
        let policy = GatherPolicy::EdgePartitions;
        let accountant = Accountant::new(cfg, program, self.into(), policy, layout, assignment);
        let mut steps = accountant.price(trace, step_wall);
        // Charge the placement retries to the first iteration.
        if let Some(first) = steps.first_mut() {
            first.wall_seconds += placement_penalty_s;
        }
        // A job that drains its frontier on its last allowed iteration
        // still finished.
        let converged = trace.converged || trace.frontier_empty;
        let report = ComputeReport::new(program.name(), "pregel", steps, converged);
        Ok(crate::finish(report, cfg, assignment))
    }
}

impl From<&Pregel> for Semantics {
    /// Synchronous without a gather cache, which GraphX does not have.
    fn from(_: &Pregel) -> Self {
        Semantics::Synchronous {
            delta_caching: false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::{ApplyInfo, Direction, InitInfo};
    use gp_cluster::ClusterSpec;
    use gp_core::VertexId;
    use gp_partition::{PartitionContext, Strategy};

    struct MinLabel;
    impl VertexProgram for MinLabel {
        type State = u64;
        type Accum = u64;
        fn name(&self) -> &'static str {
            "min-label"
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

    fn pregel(mem_gb: u64) -> Pregel {
        let base = EngineConfig::new(ClusterSpec::local_10());
        Pregel::new(PregelConfig::new(base).with_executor_memory(mem_gb << 30))
    }

    fn assignment(g: &gp_core::EdgeList, parts: u32) -> Assignment {
        Strategy::Random
            .build()
            .partition(g, &PartitionContext::new(parts))
            .assignment
    }

    #[test]
    fn semantics_agree_with_sync_gas() {
        let g = gp_gen::erdos_renyi(500, 3_000, 1);
        let a = assignment(&g, 40); // many partitions per machine
        let (s1, _) = crate::gas::SyncGas::new(EngineConfig::new(ClusterSpec::local_10()))
            .run(&g, &a, &MinLabel);
        let (s2, _) = pregel(8).run(&g, &a, &MinLabel).unwrap();
        assert_eq!(s1, s2);
    }

    #[test]
    fn per_iteration_overhead_dominates_small_graphs() {
        // §7.4: GraphX compute ≫ partitioning; tiny graphs still pay per-iter
        // Spark costs.
        let g = gp_gen::erdos_renyi(100, 400, 2);
        let a = assignment(&g, 40);
        let (_, rep) = pregel(8).run(&g, &a, &MinLabel).unwrap();
        for s in &rep.steps {
            assert!(s.wall_seconds >= 0.12, "missing per-iteration overhead");
        }
    }

    #[test]
    fn placement_cases_follow_section_9_2_4() {
        let m = ExecutorMemoryModel {
            executor_memory_bytes: 1 << 30,
            executors: 10,
        };
        // Case 1: bigger than the usable cluster (70% of 10 GiB).
        assert_eq!(m.placement(8 << 30), PlacementCase::DoesNotFit);
        // Case 3: half fits in one executor's usable memory.
        assert_eq!(m.placement(1 << 30), PlacementCase::FitsFew);
        // Case 2: in between.
        assert!(matches!(
            m.placement(4 << 30),
            PlacementCase::FitsCluster { .. }
        ));
    }

    #[test]
    fn gc_multiplier_grows_with_pressure() {
        let m = ExecutorMemoryModel {
            executor_memory_bytes: 1 << 30,
            executors: 10,
        };
        let low = m.gc_multiplier(1 << 30);
        let high = m.gc_multiplier(6 << 30);
        assert!(low >= 1.0);
        assert!(high > low);
    }

    #[test]
    fn oom_fails_the_job_like_twitter_on_graphx() {
        let g = gp_gen::barabasi_albert(20_000, 10, 3);
        let a = assignment(&g, 40);
        // 1 MiB executors cannot hold this.
        let tiny = pregel(0).config.clone();
        let p = Pregel::new(PregelConfig {
            executor_memory_bytes: 1 << 20,
            ..tiny
        });
        let err = p.run(&g, &a, &MinLabel).unwrap_err();
        assert!(err.to_string().contains("exceeds usable cluster memory"));
    }

    #[test]
    fn more_memory_is_never_slower() {
        // The case-3 region of Fig 9.4: execution time decreases as memory
        // grows (less GC).
        let g = gp_gen::barabasi_albert(5_000, 8, 4);
        let a = assignment(&g, 40);
        let t_small = pregel(1)
            .run(&g, &a, &MinLabel)
            .unwrap()
            .1
            .compute_seconds();
        let t_large = pregel(16)
            .run(&g, &a, &MinLabel)
            .unwrap()
            .1
            .compute_seconds();
        assert!(t_large <= t_small, "16 GiB {t_large} vs 1 GiB {t_small}");
    }

    #[test]
    fn retry_penalty_hits_case_two() {
        let g = gp_gen::barabasi_albert(5_000, 8, 5);
        let a = assignment(&g, 40);
        let bytes = pregel(8).graph_bytes(&a);
        // Choose executor memory so graph/2 doesn't fit per executor but the
        // cluster holds it: per-executor usable must be < bytes/2.
        let per_exec = (bytes / 2) as u64; // usable = 0.7*per_exec < bytes/2 ✓
        let p = Pregel::new(
            PregelConfig::new(EngineConfig::new(ClusterSpec::local_10()))
                .with_executor_memory(per_exec),
        );
        assert!(matches!(
            p.memory_model().placement(bytes),
            PlacementCase::FitsCluster { .. }
        ));
        let (_, rep) = p.run(&g, &a, &MinLabel).unwrap();
        assert!(
            rep.steps[0].wall_seconds > 10.0,
            "first iteration should carry the retry penalty"
        );
    }
}
