//! GraphX's costs (§7.1), which [`Model::GraphX`](crate::Model::GraphX)
//! prices with.
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

use crate::accounting::MachineTallies;
use crate::report::EngineConfig;
use gp_cluster::{ClusterSpec, CostRates};
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

/// Where GraphX places a graph that fits (§9.2.4); case 1, a graph the
/// cluster cannot hold, is a [`PregelOom`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlacementCase {
    /// Case 2: fits cluster-wide but not on a few executors; Spark's initial
    /// co-location attempts fail `retries` times before it spreads out.
    FitsCluster {
        /// Failed placement attempts before success.
        retries: u32,
    },
    /// Case 3: fits on a couple of executors; the first attempt succeeds.
    FitsFew,
}

impl PlacementCase {
    /// Seconds the failed co-location attempts add to the first iteration.
    pub(crate) fn retry_seconds(self) -> f64 {
        match self {
            PlacementCase::FitsCluster { retries } => retries as f64 * 18.0,
            PlacementCase::FitsFew => 0.0,
        }
    }
}

/// Executor memory-pressure model (Fig 9.4).
#[derive(Debug, Clone)]
pub(crate) struct ExecutorMemoryModel {
    /// Bytes available per executor.
    pub executor_memory_bytes: u64,
    /// Number of executors (one per machine).
    pub executors: u32,
}

impl ExecutorMemoryModel {
    /// One executor of `executor_memory_bytes` per machine of `spec`.
    pub fn new(executor_memory_bytes: u64, spec: &ClusterSpec) -> Self {
        ExecutorMemoryModel {
            executor_memory_bytes,
            executors: spec.machines,
        }
    }

    /// Classify placement for a graph occupying `graph_bytes` in total.
    /// GraphX "first tries to co-locate partitions on a smaller number of
    /// machines", i.e. two executors, then the whole cluster; a graph the
    /// cluster cannot hold fails the job after repeated OOM retries.
    pub fn placement(&self, graph_bytes: u64) -> Result<PlacementCase, PregelOom> {
        let per_two = graph_bytes / 2;
        let cluster_capacity = self.executor_memory_bytes * self.executors as u64;
        // Working headroom: Spark needs slack for shuffle buffers; a graph
        // "fits" only below ~70% occupancy.
        let usable = |cap: u64| (cap as f64 * 0.7) as u64;
        if graph_bytes > usable(cluster_capacity) {
            Err(PregelOom {
                graph_bytes,
                cluster_capacity_bytes: cluster_capacity,
            })
        } else if per_two > usable(self.executor_memory_bytes) {
            // Retries grow as the graph gets closer to the cluster limit.
            let pressure = graph_bytes as f64 / usable(cluster_capacity) as f64;
            let retries = 1 + (pressure * 4.0) as u32;
            Ok(PlacementCase::FitsCluster { retries })
        } else {
            Ok(PlacementCase::FitsFew)
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

/// Total in-memory footprint of a partitioned graph: what GraphX's
/// executors must hold.
pub fn graph_bytes(assignment: &Assignment) -> u64 {
    CostRates.machine_bytes(
        assignment.num_edges() as u64,
        assignment.total_images() as u64,
        0,
    )
}

/// GraphX's iteration clock for `assignment` on `memory`: the slowest
/// machine's work, inflated by GC, plus the busiest machine's inbound
/// traffic and the per-iteration driver and task overhead. It first adds
/// the join of the vertex RDD with the edge partitions, over active
/// vertices, to every machine's work.
pub(crate) fn iteration_wall<'a>(
    config: &'a EngineConfig,
    assignment: &Assignment,
    memory: &ExecutorMemoryModel,
) -> impl FnMut(&mut MachineTallies, usize) -> f64 + 'a {
    let gc = memory.gc_multiplier(graph_bytes(assignment));
    let machines = config.spec.machines as f64;
    let compute_rate = config.spec.compute_rate();
    let per_iter_overhead =
        ITERATION_OVERHEAD_S + TASK_OVERHEAD_S * assignment.num_partitions() as f64 / machines;
    move |tallies: &mut MachineTallies, active: usize| {
        let join = JOIN_WORK_PER_VERTEX * active as f64;
        for w in tallies.work.iter_mut() {
            *w += join / machines;
        }
        (tallies.work.iter().copied().fold(0.0, f64::max) / compute_rate) * gc
            + tallies.in_bytes.iter().copied().fold(0.0, f64::max)
                / config.spec.bandwidth_bytes_per_s
            + per_iter_overhead
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::{ApplyInfo, Direction, InitInfo, VertexProgram};
    use crate::{ComputeReport, Engine, Model};
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

    /// GraphX on Local-10 with `executor_memory_bytes` per executor.
    fn graphx(executor_memory_bytes: u64) -> Engine {
        let config = EngineConfig::new(ClusterSpec::local_10());
        Engine::new(
            config,
            Model::GraphX {
                executor_memory_bytes,
            },
        )
    }

    fn run(engine: &Engine, g: &gp_core::EdgeList, a: &Assignment) -> ComputeReport {
        engine.run(g, a, &MinLabel).expect("fits").1
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
        let sync = Engine::new(EngineConfig::new(ClusterSpec::local_10()), Model::Sync);
        let (s1, _) = sync.run(&g, &a, &MinLabel).unwrap();
        let (s2, _) = graphx(8 << 30).run(&g, &a, &MinLabel).unwrap();
        assert_eq!(s1, s2);
    }

    #[test]
    fn per_iteration_overhead_dominates_small_graphs() {
        // §7.4: GraphX compute ≫ partitioning; tiny graphs still pay per-iter
        // Spark costs.
        let g = gp_gen::erdos_renyi(100, 400, 2);
        let a = assignment(&g, 40);
        for s in &run(&graphx(8 << 30), &g, &a).steps {
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
        let oom = m.placement(8 << 30).unwrap_err();
        assert_eq!(oom.cluster_capacity_bytes, 10 << 30);
        // Case 3: half fits in one executor's usable memory.
        assert_eq!(m.placement(1 << 30), Ok(PlacementCase::FitsFew));
        // Case 2: in between.
        assert!(matches!(
            m.placement(4 << 30),
            Ok(PlacementCase::FitsCluster { .. })
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
        let tiny = graphx(1 << 20);
        let err = tiny.run(&g, &a, &MinLabel).unwrap_err();
        assert!(err.to_string().contains("exceeds usable cluster memory"));
        // Pricing refuses it too; the GAS models hold any graph.
        let (_, trace) = tiny.trace(&g, &MinLabel);
        assert_eq!(tiny.price(&trace, &g, &a, &MinLabel).unwrap_err(), err);
        for model in [Model::Sync, Model::Hybrid, Model::Async] {
            let engine = Engine::new(tiny.config.clone(), model);
            assert_eq!(engine.placement(&a), Ok(PlacementCase::FitsFew));
            assert!(engine.run(&g, &a, &MinLabel).is_ok());
        }
    }

    #[test]
    fn more_memory_is_never_slower() {
        // The case-3 region of Fig 9.4: execution time decreases as memory
        // grows (less GC).
        let g = gp_gen::barabasi_albert(5_000, 8, 4);
        let a = assignment(&g, 40);
        let t_small = run(&graphx(1 << 30), &g, &a).compute_seconds();
        let t_large = run(&graphx(16 << 30), &g, &a).compute_seconds();
        assert!(t_large <= t_small, "16 GiB {t_large} vs 1 GiB {t_small}");
    }

    #[test]
    fn retry_penalty_hits_case_two() {
        let g = gp_gen::barabasi_albert(5_000, 8, 5);
        let a = assignment(&g, 40);
        let bytes = graph_bytes(&a);
        // Choose executor memory so graph/2 doesn't fit per executor but the
        // cluster holds it: per-executor usable must be < bytes/2.
        let per_exec = bytes / 2; // usable = 0.7*per_exec < bytes/2 ✓
        let engine = graphx(per_exec);
        assert!(matches!(
            engine.placement(&a),
            Ok(PlacementCase::FitsCluster { .. })
        ));
        assert!(
            run(&engine, &g, &a).steps[0].wall_seconds > 10.0,
            "first iteration should carry the retry penalty"
        );
    }
}
