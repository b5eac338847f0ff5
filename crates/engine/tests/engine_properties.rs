//! An [`Engine`] keeps nothing between runs, and every old engine name is
//! that engine:
//!
//! * `trace` and `price` twice on one partitioning, with different
//!   programs, equal two fresh `run`s — states and full reports — on every
//!   model, delta caching and threads included, and so does `run` of the
//!   shim the benchmark calls for that model;
//! * `price` refuses an assignment of another graph of the same shape — in
//!   release builds too, where no debug assertion runs;
//! * two `run`s on one partitioned graph report the same, and the second
//!   reuses the adjacency the graph owns and the counts the assignment owns;
//! * a program that is always active reports the same active counts whether
//!   or not it also asks for scatter activations (which the engines skip
//!   marking for it).
//!
//! The counts themselves are checked against a per-edge oracle by the unit
//! tests of `gp_partition`, which builds them.

use gp_apps::{KCore, PageRank, Wcc};
use gp_cluster::ClusterSpec;
use gp_core::{EdgeList, VertexId};
use gp_engine::{
    ApplyInfo, AsyncGas, Direction, Engine, EngineConfig, HybridGas, InitInfo, Model, Pregel,
    PregelConfig, SyncGas, VertexProgram,
};
use gp_partition::{Assignment, PartitionContext, Strategy};
use std::sync::Arc;

#[test]
fn an_empty_graph_prices_to_an_empty_report() {
    let graph = EdgeList::from_edges(Vec::new());
    let spec = ClusterSpec::local_9().with_machines(4);
    for strategy in [
        Strategy::Random,
        Strategy::Grid,
        Strategy::Hdrf,
        Strategy::Hybrid,
        Strategy::OneD,
    ] {
        let assignment = strategy
            .build()
            .partition(&graph, &PartitionContext::new(4))
            .assignment;
        let engine = Engine::new(EngineConfig::new(spec.clone()), Model::Sync);
        let (states, trace) = engine.trace(&graph, &Wcc);
        let report = engine.price(&trace, &graph, &assignment, &Wcc).unwrap();
        assert!(states.is_empty());
        assert!(report.converged);
        assert_eq!(report.supersteps(), 0);
    }
}

fn job(parts: u32) -> (EdgeList, Assignment) {
    let graph = gp_gen::barabasi_albert(600, 4, 21);
    let assignment = Strategy::Hdrf
        .build()
        .partition(&graph, &PartitionContext::new(parts))
        .assignment;
    (graph, assignment)
}

/// Fresh `run`s of programs `a` and `b` on `engine` against `run` of
/// `shim` for `a`, and against `trace` then `price` of the same two,
/// alternating twice over one partitioning. Trailing tokens are applied to
/// the shim's `run` result (`Pregel` returns a `Result`).
macro_rules! assert_reuse_and_shim_are_invisible {
    ($engine:expr, $shim:expr, $job:expr, $a:expr, $b:expr; $($post:tt)*) => {{
        let (engine, (graph, assignment)) = (&$engine, &$job);
        let fresh_a = engine.run(graph, assignment, &$a).unwrap();
        let fresh_b = engine.run(graph, assignment, &$b).unwrap();
        let shim_a = $shim.run(graph, assignment, &$a)$($post)*;
        assert_eq!(fresh_a.0, shim_a.0);
        assert_eq!(format!("{:?}", fresh_a.1), format!("{:?}", shim_a.1));
        for _ in 0..2 {
            let (states_a, trace_a) = engine.trace(graph, &$a);
            let on_a = (states_a, engine.price(&trace_a, graph, assignment, &$a).unwrap());
            let (states_b, trace_b) = engine.trace(graph, &$b);
            let on_b = (states_b, engine.price(&trace_b, graph, assignment, &$b).unwrap());
            assert_eq!(fresh_a.0, on_a.0);
            assert_eq!(format!("{:?}", fresh_a.1), format!("{:?}", on_a.1));
            assert_eq!(fresh_b.0, on_b.0);
            assert_eq!(format!("{:?}", fresh_b.1), format!("{:?}", on_b.1));
        }
    }};
}

#[test]
fn trace_and_price_equal_fresh_runs_and_the_shims_on_every_model() {
    let spec = &ClusterSpec::local_9();
    let machines = spec.machines;
    let (pagerank, kcore) = (PageRank::fixed_with_tolerance(12, 1e-3), KCore::new(4));
    for delta_caching in [false, true] {
        for threads in [1, 3] {
            let config = EngineConfig::new(spec.clone())
                .with_delta_caching(delta_caching)
                .with_threads(threads);
            let engine = |model| Engine::new(config.clone(), model);
            let job9 = job(machines);
            let sync = SyncGas::new(config.clone());
            assert_reuse_and_shim_are_invisible!(engine(Model::Sync), sync, job9, pagerank, Wcc;);
            let hybrid = HybridGas::new(config.clone());
            assert_reuse_and_shim_are_invisible!(engine(Model::Hybrid), hybrid, job9, kcore, pagerank;);
            let async_ = AsyncGas::new(config.clone());
            assert_reuse_and_shim_are_invisible!(
                engine(Model::Async), async_, job9, gp_apps::Coloring, Wcc;
            );
            // GraphX: many partitions per machine.
            let pregel = Pregel::new(PregelConfig::new(config.clone()));
            let job36 = job(4 * machines);
            assert_reuse_and_shim_are_invisible!(
                engine(Model::GRAPHX), pregel, job36, Wcc, pagerank; .expect("600 vertices fit")
            );
        }
    }
}

#[test]
#[should_panic(expected = "assignment of another graph")]
fn an_assignment_of_another_graph_of_the_same_shape_is_refused() {
    let graph = gp_gen::erdos_renyi(2_000, 12_000, 3);
    let other = gp_gen::erdos_renyi(2_000, 12_000, 4);
    assert_eq!(graph.num_vertices(), other.num_vertices());
    assert_eq!(graph.num_edges(), other.num_edges());
    let assignment = Strategy::Hdrf
        .build()
        .partition(&graph, &PartitionContext::new(9))
        .assignment;
    let engine = Engine::new(EngineConfig::new(ClusterSpec::local_9()), Model::Sync);
    engine
        .run(&graph, &assignment, &PageRank::fixed(5))
        .unwrap();
    let _ = engine.run(&other, &assignment, &PageRank::fixed(5));
}

#[test]
fn a_second_run_reuses_the_graphs_adjacency_and_the_assignments_counts() {
    let (graph, assignment) = job(9);
    let engine = Engine::new(EngineConfig::new(ClusterSpec::local_9()), Model::Sync);
    let first = engine
        .run(&graph, &assignment, &PageRank::fixed(5))
        .unwrap();
    let (csr, counts) = (graph.csr(), assignment.local_edge_counts(&graph));
    let second = engine
        .run(&graph, &assignment, &PageRank::fixed(5))
        .unwrap();
    assert_eq!(first.0, second.0);
    assert_eq!(format!("{:?}", first.1), format!("{:?}", second.1));
    assert!(std::ptr::eq(csr, graph.csr()));
    assert!(Arc::ptr_eq(&counts, &assignment.local_edge_counts(&graph)));
}

/// Min-label propagation that recomputes everywhere every superstep; only
/// even vertices start active. `scatters` is what `activates_on_change`
/// reports — the activations are dead either way.
struct Restless {
    scatters: bool,
}

impl VertexProgram for Restless {
    type State = u64;
    type Accum = u64;
    fn name(&self) -> &'static str {
        "restless"
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
    fn initially_active(&self, v: VertexId) -> bool {
        v.0 & 1 == 0
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
    fn activates_on_change(&self) -> bool {
        self.scatters
    }
    fn always_active(&self) -> bool {
        true
    }
    fn max_supersteps(&self) -> u32 {
        6
    }
}

#[test]
fn always_active_programs_report_the_same_activity_with_or_without_scatter() {
    let (graph, assignment) = job(9);
    let n = graph.num_vertices();
    let mut expected = vec![n.div_ceil(2)];
    expected.resize(6, n);
    for threads in [1, 4] {
        let config = EngineConfig::new(ClusterSpec::local_9()).with_threads(threads);
        let runs = [true, false].map(|scatters| {
            let program = Restless { scatters };
            [Model::Sync, Model::Hybrid, Model::GRAPHX].map(|model| {
                Engine::new(config.clone(), model)
                    .run(&graph, &assignment, &program)
                    .expect("600 vertices fit")
            })
        });
        for (with, without) in runs[0].iter().zip(&runs[1]) {
            let active = |r: &gp_engine::ComputeReport| -> Vec<u64> {
                r.steps.iter().map(|s| s.active_vertices).collect()
            };
            assert_eq!(active(&with.1), expected, "{}", with.1.engine);
            assert_eq!(with.0, without.0);
            assert_eq!(format!("{:?}", with.1), format!("{:?}", without.1));
            assert!(
                !with.1.converged,
                "an always-active program stops at its cap"
            );
        }
    }
}
