//! One engine for the four systems the paper runs. PowerGraph, PowerLyra,
//! GraphX and PowerGraph's asynchronous engine differ only in where gathers
//! happen, how partitions sit on executors and what a superstep costs, so
//! an [`Engine`] is a configuration and a [`Model`]: [`Engine::semantics`]
//! picks the semantic pass, and one `match` in [`Engine::price`] picks who
//! sends gather partials, the superstep clock, the report's engine label
//! and whether a pass the cap cut as its frontier drained converged. GraphX
//! alone can fail: [`Engine::placement`] refuses a graph its executors
//! cannot hold, before anything is traced or priced.

use crate::accounting::{Accountant, GatherPolicy, MachineTallies};
use crate::async_gas::{async_trace, lock_wall};
use crate::gas::{barrier_wall, sync_trace};
use crate::pregel::{graph_bytes, iteration_wall, ExecutorMemoryModel, PlacementCase, PregelOom};
use crate::program::VertexProgram;
use crate::report::{ComputeReport, EngineConfig};
use crate::trace::{SemanticTrace, Semantics};
use crate::{apply_comms_model, apply_elastic_model, apply_fault_model, record_compute_telemetry};
use gp_core::EdgeList;
use gp_partition::strategies::hybrid::DEFAULT_THRESHOLD;
use gp_partition::Assignment;

/// A superstep clock: a superstep's wall seconds from its tallies and
/// active-vertex count, which it may first add work of its own to.
type Clock<'a> = Box<dyn FnMut(&mut MachineTallies, usize) -> f64 + 'a>;

/// Which system's engine an [`Engine`] models (the crate docs say how
/// each one's mechanics shape the paper's figures).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Model {
    /// PowerGraph's synchronous GAS engine (§5.1.2).
    Sync,
    /// PowerLyra's hybrid engine (§6.1): vertices of degree at most
    /// [`DEFAULT_THRESHOLD`] (§6.2.1) gather locally.
    Hybrid,
    /// PowerGraph's asynchronous engine (Simple Coloring, §5.4.1).
    Async,
    /// GraphX (§7.1): many partitions per machine on executors of bounded
    /// memory (Fig 9.4).
    GraphX {
        /// Memory available to each executor (one per machine), bytes.
        executor_memory_bytes: u64,
    },
}

impl Model {
    /// GraphX on 8 GiB executors, the paper's default.
    pub const GRAPHX: Model = Model::GraphX {
        executor_memory_bytes: 8 << 30,
    };
}

/// A simulated engine: the cluster and mid-job models it runs under, and
/// the system it models. It keeps nothing between runs.
#[derive(Debug, Clone)]
pub struct Engine {
    /// Cluster, mid-job models, threads and telemetry.
    pub config: EngineConfig,
    /// The system modelled.
    pub model: Model,
}

impl Engine {
    /// `model` over `config`.
    pub fn new(config: EngineConfig, model: Model) -> Self {
        Engine { config, model }
    }

    /// The execution model of this engine's semantic pass: asynchronous
    /// for [`Model::Async`], otherwise synchronous with the configured
    /// gather cache, which GraphX does not have.
    pub fn semantics(&self) -> Semantics {
        let delta_caching = match self.model {
            Model::Async => return Semantics::Asynchronous,
            Model::GraphX { .. } => false,
            Model::Sync | Model::Hybrid => self.config.delta_caching,
        };
        Semantics::Synchronous { delta_caching }
    }

    /// Where GraphX places `assignment`'s partitions (§9.2.4), or
    /// [`PregelOom`] when the graph does not fit the cluster (case 1). The
    /// GAS models keep no executors, so every graph fits at once.
    pub fn placement(&self, assignment: &Assignment) -> Result<PlacementCase, PregelOom> {
        let Model::GraphX {
            executor_memory_bytes,
        } = self.model
        else {
            return Ok(PlacementCase::FitsFew);
        };
        ExecutorMemoryModel::new(executor_memory_bytes, &self.config.spec)
            .placement(graph_bytes(assignment))
    }

    /// Run `program` over the partitioned graph until convergence or the
    /// superstep cap: the final vertex states and the report.
    /// [`Engine::placement`], then [`Engine::trace`] over the adjacency
    /// `graph` owns, then [`Engine::price`] over the local edge counts
    /// `assignment` owns; both are built by the first run that needs them
    /// and shared by every later one.
    pub fn run<P: VertexProgram>(
        &self,
        graph: &EdgeList,
        assignment: &Assignment,
        program: &P,
    ) -> Result<(Vec<P::State>, ComputeReport), PregelOom> {
        self.placement(assignment)?;
        let (states, trace) = self.trace(graph, program);
        Ok((states, self.price(&trace, graph, assignment, program)?))
    }

    /// The semantic pass alone: the final states, and the trace that the
    /// `price` of any engine with the same [`Engine::semantics`] prices on
    /// any partitioning of `graph`.
    pub fn trace<P: VertexProgram>(
        &self,
        graph: &EdgeList,
        program: &P,
    ) -> (Vec<P::State>, SemanticTrace) {
        match self.semantics() {
            Semantics::Asynchronous => async_trace(graph, program),
            synchronous => sync_trace(&self.config, graph, program, synchronous),
        }
    }

    /// The report of a run of `program` on `assignment` of `graph`, priced
    /// from a `trace` of it, after [`Engine::placement`]. Panics if
    /// `assignment` placed another graph, or if the trace was recorded on
    /// another graph or for another program, semantics or superstep cap.
    ///
    /// A partitioning changes what a job costs, never what it computes, so
    /// one trace prices every partitioning:
    ///
    /// ```
    /// use gp_apps::PageRank;
    /// use gp_cluster::ClusterSpec;
    /// use gp_engine::{Engine, EngineConfig, Model};
    /// use gp_gen::{classify, Dataset};
    /// use gp_partition::{PartitionContext, Strategy};
    ///
    /// // A heavy-tailed social-network analogue.
    /// let graph = Dataset::LiveJournal.generate(0.2, 42);
    /// assert_eq!(classify(&graph).to_string(), "heavy-tailed");
    ///
    /// // Partition for 9 machines with HDRF and with Grid; inspect the quality.
    /// let ctx = PartitionContext::new(9).with_seed(42);
    /// let hdrf = Strategy::Hdrf.build().partition(&graph, &ctx).assignment;
    /// let grid = Strategy::Grid.build().partition(&graph, &ctx).assignment;
    /// println!("replication factor: {:.2} vs {:.2}", hdrf.replication_factor(), grid.replication_factor());
    ///
    /// // Trace PageRank once on the simulated PowerGraph engine, then price
    /// // that trace on each partitioning. `engine.run(&graph, &assignment,
    /// // &program)` does both for one job; the graph builds its adjacency and
    /// // each assignment its local edge counts on first use only.
    /// let engine = Engine::new(EngineConfig::new(ClusterSpec::local_9()), Model::Sync);
    /// let (ranks, trace) = engine.trace(&graph, &PageRank::fixed(10));
    /// assert_eq!(ranks.len() as u64, graph.num_vertices());
    /// for (name, assignment) in [("HDRF", &hdrf), ("Grid", &grid)] {
    ///     let report = engine.price(&trace, &graph, assignment, &PageRank::fixed(10)).expect("PowerGraph holds any graph");
    ///     println!("{name}: {} supersteps, {:.1} simulated seconds", report.supersteps(), report.compute_seconds());
    /// }
    /// ```
    pub fn price<P: VertexProgram>(
        &self,
        trace: &SemanticTrace,
        graph: &EdgeList,
        assignment: &Assignment,
        program: &P,
    ) -> Result<ComputeReport, PregelOom> {
        let placement = self.placement(assignment)?;
        let config = &self.config;
        let barriers = |tallies: &mut MachineTallies, _: usize| barrier_wall(config, tallies);
        let (engine, policy, mut clock): (_, _, Clock) = match self.model {
            Model::Sync => ("sync-gas", GatherPolicy::AllMirrors, Box::new(barriers)),
            Model::Hybrid => {
                let threshold = DEFAULT_THRESHOLD;
                let policy = GatherPolicy::LocalAware { threshold };
                ("hybrid-gas", policy, Box::new(barriers))
            }
            Model::Async => {
                let locks =
                    |tallies: &mut MachineTallies, active| lock_wall(config, tallies, active);
                ("async-gas", GatherPolicy::AllMirrors, Box::new(locks))
            }
            Model::GraphX {
                executor_memory_bytes,
            } => {
                let memory = ExecutorMemoryModel::new(executor_memory_bytes, &config.spec);
                let iterations = iteration_wall(config, assignment, &memory);
                ("pregel", GatherPolicy::EdgePartitions, Box::new(iterations))
            }
        };
        let accountant =
            Accountant::new(config, program, self.semantics(), policy, graph, assignment);
        let mut steps = accountant.price(trace, &mut clock);
        if let Some(first) = steps.first_mut() {
            first.wall_seconds += placement.retry_seconds();
        }
        // Async and GraphX call a pass that drained its frontier on its
        // last allowed superstep finished; the barrier GAS engines do not.
        let drained = matches!(self.model, Model::Async | Model::GraphX { .. });
        let converged = trace.converged || (drained && trace.frontier_empty);
        let mut report = ComputeReport::new(program.name(), engine, steps, converged);
        // The post-passes, in order: faults and checkpoints, elasticity,
        // the comms protocols, then the telemetry of the resulting timeline.
        apply_fault_model(&mut report, config, assignment);
        apply_elastic_model(&mut report, config, assignment);
        apply_comms_model(&mut report, config);
        record_compute_telemetry(config, &report);
        Ok(report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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

    /// `program` on `model` over Local-9.
    fn run<P: VertexProgram>(
        model: Model,
        g: &EdgeList,
        a: &Assignment,
        program: &P,
    ) -> (Vec<P::State>, ComputeReport) {
        let engine = Engine::new(EngineConfig::new(ClusterSpec::local_9()), model);
        engine.run(g, a, program).unwrap()
    }

    /// Gather messages of `program` on `model`.
    fn gathers<P: VertexProgram>(model: Model, g: &EdgeList, a: &Assignment, program: &P) -> u64 {
        let (_, report) = run(model, g, a, program);
        report.steps.iter().map(|s| s.gather_messages).sum()
    }

    fn partitioned(g: &EdgeList, strategy: Strategy) -> Assignment {
        let ctx = PartitionContext::new(9);
        strategy.build().partition(g, &ctx).assignment
    }

    #[test]
    fn hybrid_results_match_sync_exactly() {
        let g = gp_gen::barabasi_albert(2_000, 5, 1);
        let a = partitioned(&g, Strategy::Hybrid);
        let (s1, _) = run(Model::Sync, &g, &a, &NaturalSum);
        let (s2, _) = run(Model::Hybrid, &g, &a, &NaturalSum);
        assert_eq!(s1, s2, "engines must agree on semantics");
    }

    #[test]
    fn hybrid_partitioning_plus_natural_app_saves_gather_traffic() {
        // The Fig 6.1 effect: under the hybrid engine, Hybrid partitioning
        // sends far fewer gather messages than under PowerGraph's engine.
        let g = gp_gen::barabasi_albert(5_000, 8, 2);
        let a = partitioned(&g, Strategy::Hybrid);
        let sync_gather = gathers(Model::Sync, &g, &a, &NaturalSum);
        let hyb_gather = gathers(Model::Hybrid, &g, &a, &NaturalSum);
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
        let g1 = gathers(
            Model::Hybrid,
            &g,
            &partitioned(&g, Strategy::OneD),
            &NaturalSum,
        );
        let a_1dt = partitioned(&g, Strategy::OneDTarget);
        let g2 = gathers(Model::Hybrid, &g, &a_1dt, &NaturalSum);
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
        let a = partitioned(&g, Strategy::Hybrid);
        // Every replica exists because of some local edge, so with
        // Both-direction gather the hybrid policy sends exactly as much.
        assert_eq!(
            gathers(Model::Hybrid, &g, &a, &BothSum),
            gathers(Model::Sync, &g, &a, &BothSum)
        );
    }

    #[test]
    fn low_degree_graphs_take_the_local_aware_path_everywhere() {
        let g = gp_gen::erdos_renyi(2_000, 10_000, 5);
        let degrees = g.degrees();
        let max_degree = (0..g.num_vertices())
            .map(|v| degrees.in_degree(VertexId(v)) + degrees.out_degree(VertexId(v)))
            .max();
        assert!(max_degree <= Some(DEFAULT_THRESHOLD));
        let a = partitioned(&g, Strategy::OneDTarget);
        // 1D-Target co-locates ALL in-edges, so with the local-aware policy
        // applied to every vertex, gather messages only occur when the master
        // was randomly placed away from the in-edge partition.
        let total_gather = gathers(Model::Hybrid, &g, &a, &NaturalSum);
        assert!(total_gather < gathers(Model::Sync, &g, &a, &NaturalSum));
    }
}
