//! A prepared [`Layout`] is shared by every run over its partitioning, and
//! engines neither write to it nor keep anything between runs:
//!
//! * `trace` and `price` twice on one layout, with different programs, equal
//!   two fresh `run`s — states and full reports — on every engine, delta caching
//!   included;
//! * `price` refuses a layout built for another cluster size or from another
//!   assignment of the same graph, and a layout refuses an assignment of
//!   another graph — in release builds too, where no debug assertion runs;
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
use gp_core::{CsrGraph, Edge, EdgeList, PartitionId, VertexId};
use gp_engine::{
    ApplyInfo, AsyncGas, Direction, EngineConfig, HybridGas, InitInfo, Layout, Pregel,
    PregelConfig, SyncGas, VertexProgram,
};
use gp_partition::{Assignment, PartitionContext, Strategy};
use std::sync::Arc;

#[test]
fn an_empty_graph_runs_on_an_empty_layout() {
    let graph = EdgeList::from_edges(Vec::new());
    let spec = ClusterSpec::local_9().with_machines(4);
    let csr = CsrGraph::from_edge_list(&graph);
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
        let layout = Layout::build(&graph, &assignment, &spec);
        let engine = SyncGas::new(EngineConfig::new(spec.clone()));
        let (states, trace) = engine.trace(&csr, &Wcc);
        let report = engine.price(&trace, &layout, &assignment, &Wcc);
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

/// Fresh `run`s of programs `a` and `b` against `trace` then `price` of the
/// same two, alternating twice over one layout. Trailing tokens are applied
/// to every `run` and `price` result (`Pregel` returns a `Result`).
macro_rules! assert_layout_reuse_is_invisible {
    ($engine:expr, $job:expr, $spec:expr, $a:expr, $b:expr; $($post:tt)*) => {{
        let (engine, (graph, assignment)) = (&$engine, &$job);
        let fresh_a = engine.run(graph, assignment, &$a)$($post)*;
        let fresh_b = engine.run(graph, assignment, &$b)$($post)*;
        let csr = CsrGraph::from_edge_list(graph);
        let layout = Layout::build(graph, assignment, $spec);
        for _ in 0..2 {
            let (states_a, trace_a) = engine.trace(&csr, &$a);
            let on_a = (states_a, engine.price(&trace_a, &layout, assignment, &$a)$($post)*);
            let (states_b, trace_b) = engine.trace(&csr, &$b);
            let on_b = (states_b, engine.price(&trace_b, &layout, assignment, &$b)$($post)*);
            assert_eq!(fresh_a.0, on_a.0);
            assert_eq!(format!("{:?}", fresh_a.1), format!("{:?}", on_a.1));
            assert_eq!(fresh_b.0, on_b.0);
            assert_eq!(format!("{:?}", fresh_b.1), format!("{:?}", on_b.1));
        }
    }};
}

#[test]
fn tracing_and_pricing_on_a_shared_layout_equals_fresh_runs_on_every_engine() {
    let spec = &ClusterSpec::local_9();
    let machines = spec.machines;
    let (pagerank, kcore) = (PageRank::fixed_with_tolerance(12, 1e-3), KCore::new(4));
    for delta_caching in [false, true] {
        for threads in [1, 3] {
            let config = EngineConfig::new(spec.clone())
                .with_delta_caching(delta_caching)
                .with_threads(threads);
            let job9 = job(machines);
            let sync = SyncGas::new(config.clone());
            assert_layout_reuse_is_invisible!(sync, job9, spec, pagerank, Wcc;);
            let hybrid = HybridGas::new(config.clone());
            assert_layout_reuse_is_invisible!(hybrid, job9, spec, kcore, pagerank;);
            let async_ = AsyncGas::new(config.clone());
            assert_layout_reuse_is_invisible!(async_, job9, spec, gp_apps::Coloring, Wcc;);
            // GraphX: many partitions per machine.
            let pregel = Pregel::new(PregelConfig::new(config));
            let job36 = job(4 * machines);
            assert_layout_reuse_is_invisible!(
                pregel, job36, spec, Wcc, pagerank; .expect("600 vertices fit")
            );
        }
    }
}

#[test]
#[should_panic(expected = "another cluster size")]
fn a_layout_for_another_cluster_size_is_refused() {
    let (graph, assignment) = job(9);
    let layout = Layout::build(
        &graph,
        &assignment,
        &ClusterSpec::local_9().with_machines(3),
    );
    let engine = SyncGas::new(EngineConfig::new(ClusterSpec::local_9()));
    let (_, trace) = engine.trace(&CsrGraph::from_edge_list(&graph), &Wcc);
    engine.price(&trace, &layout, &assignment, &Wcc);
}

/// Prices a trace of `graph` with `assignment` on a layout of `other`, which
/// has the same shape, partition count and image count.
fn price_on_layout_of(graph: &EdgeList, assignment: &Assignment, other: &Assignment) {
    assert_eq!(other.num_partitions(), assignment.num_partitions());
    assert_eq!(other.total_images(), assignment.total_images());
    let spec = ClusterSpec::local_9();
    let layout = Layout::build(graph, other, &spec);
    let engine = SyncGas::new(EngineConfig::new(spec));
    let (_, trace) = engine.trace(&CsrGraph::from_edge_list(graph), &Wcc);
    engine.price(&trace, &layout, assignment, &Wcc);
}

#[test]
#[should_panic(expected = "layout was built from another assignment")]
fn a_layout_of_the_assignment_with_two_partitions_swapped_is_refused() {
    let (graph, assignment) = job(9);
    let swapped = assignment.edge_partitions().iter().map(|p| match p.0 {
        0 => PartitionId(1),
        1 => PartitionId(0),
        _ => *p,
    });
    let other = Assignment::from_edge_partitions(&graph, swapped.collect(), 9, 0);
    let lists = |a: &Assignment| {
        (0..graph.num_vertices())
            .map(|v| a.replicas(VertexId(v)).to_vec())
            .collect::<Vec<_>>()
    };
    assert_ne!(lists(&other), lists(&assignment));
    price_on_layout_of(&graph, &assignment, &other);
}

#[test]
#[should_panic(expected = "layout was built from another assignment")]
fn a_layout_of_an_assignment_with_the_same_replica_lists_is_refused() {
    // Both place one edge of the 2-cycle on each partition, so every vertex
    // has replicas [0, 1]; only which image holds the in-edge differs.
    let graph = EdgeList::from_edges(vec![Edge::new(0u64, 1u64), Edge::new(1u64, 0u64)]);
    let [a, b] = [[0, 1], [1, 0]].map(|parts| {
        let parts = parts.into_iter().map(PartitionId).collect();
        Assignment::from_edge_partitions(&graph, parts, 9, 0)
    });
    for v in [VertexId(0), VertexId(1)] {
        assert_eq!(a.replicas(v), b.replicas(v));
    }
    price_on_layout_of(&graph, &a, &b);
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
    let engine = SyncGas::new(EngineConfig::new(ClusterSpec::local_9()));
    engine.run(&graph, &assignment, &PageRank::fixed(5));
    engine.run(&other, &assignment, &PageRank::fixed(5));
}

#[test]
fn a_second_run_reuses_the_graphs_adjacency_and_the_assignments_counts() {
    let (graph, assignment) = job(9);
    let engine = SyncGas::new(EngineConfig::new(ClusterSpec::local_9()));
    let first = engine.run(&graph, &assignment, &PageRank::fixed(5));
    let (csr, counts) = (graph.csr(), assignment.local_edge_counts(&graph));
    let second = engine.run(&graph, &assignment, &PageRank::fixed(5));
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
            [
                SyncGas::new(config.clone()).run(&graph, &assignment, &program),
                HybridGas::new(config.clone()).run(&graph, &assignment, &program),
                Pregel::new(PregelConfig::new(config.clone()))
                    .run(&graph, &assignment, &program)
                    .expect("600 vertices fit"),
            ]
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
