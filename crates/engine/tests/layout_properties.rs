//! The prepared [`Layout`] is a pure function of (graph, assignment,
//! machines), and engines neither write to it nor keep anything between runs:
//!
//! * the fused sweep's replica entries, image counts and masters equal the
//!   per-edge slot-lookup build it replaced, over random graphs with
//!   self-loops, duplicate edges and isolated vertices, five strategies and
//!   three partition counts;
//! * `trace` and `price` twice on one layout, with different programs, equal
//!   two fresh `run`s — states and full reports — on every engine, delta caching
//!   included;
//! * a program that is always active reports the same active counts whether
//!   or not it also asks for scatter activations (which the engines skip
//!   marking for it).

use gp_apps::{KCore, PageRank, Wcc};
use gp_cluster::ClusterSpec;
use gp_core::{Edge, EdgeList, PartitionId, VertexId};
use gp_engine::replicas::ReplicaEntry;
use gp_engine::{
    ApplyInfo, AsyncGas, Direction, EngineConfig, HybridGas, InitInfo, Layout, Pregel,
    PregelConfig, ReplicaTable, SyncGas, VertexProgram,
};
use gp_partition::{Assignment, PartitionContext, Strategy};
use proptest::prelude::*;
// `gp_partition::Strategy` shadows proptest's trait of the same name.
use proptest::strategy::Strategy as _;

/// The build `ReplicaTable` used before the fused sweep: per edge, two
/// slot lookups into the assignment's sorted replica lists.
fn entries_by_rank(graph: &EdgeList, assignment: &Assignment) -> Vec<Vec<ReplicaEntry>> {
    let mut counts = vec![(0u32, 0u32); assignment.total_images()];
    for (i, e) in graph.edges().iter().enumerate() {
        let p = assignment.edge_partition(i);
        counts[assignment.replica_offset(e.src) + assignment.replica_slot(e.src, p)].1 += 1;
        counts[assignment.replica_offset(e.dst) + assignment.replica_slot(e.dst, p)].0 += 1;
    }
    (0..graph.num_vertices())
        .map(|v| {
            let v = VertexId(v);
            let base = assignment.replica_offset(v);
            assignment
                .replicas(v)
                .iter()
                .enumerate()
                .map(|(slot, &p)| ReplicaEntry {
                    partition: PartitionId(p),
                    local_in: counts[base + slot].0,
                    local_out: counts[base + slot].1,
                })
                .collect()
        })
        .collect()
}

fn assert_matches_rank_build(graph: &EdgeList, assignment: &Assignment, machines: u32) {
    let expected = entries_by_rank(graph, assignment);
    let layout = Layout::build(graph, assignment, machines);
    let alone = ReplicaTable::build(graph, assignment);
    let csr = gp_core::CsrGraph::from_edge_list(graph);
    assert_eq!(layout.machines(), machines);
    assert_eq!(layout.csr().num_edges(), graph.num_edges());
    for table in [layout.replicas(), &alone] {
        assert_eq!(table.num_vertices() as u64, graph.num_vertices());
        assert_eq!(table.total_images(), assignment.total_images());
    }
    for (vi, want) in expected.iter().enumerate() {
        let v = VertexId(vi as u64);
        for table in [layout.replicas(), &alone] {
            assert_eq!(table.replicas(v), &want[..], "entries of {v}");
            assert_eq!(table.master_of(v), assignment.master_of(v));
        }
        assert!(layout.csr().out_neighbors(v).eq(csr.out_neighbors(v)));
        assert!(layout.csr().in_neighbors(v).eq(csr.in_neighbors(v)));
    }
}

/// Up to 40 vertices and 160 edges drawn with replacement from 0..n, so
/// self-loops and duplicates are common; ids `n..n + isolated` never appear.
fn arb_graph() -> impl proptest::strategy::Strategy<Value = EdgeList> {
    (
        1u64..40,
        0u64..5,
        proptest::collection::vec((0u64..40, 0u64..40), 1..160),
    )
        .prop_map(|(n, isolated, pairs)| {
            let edges: Vec<Edge> = pairs
                .into_iter()
                .map(|(a, b)| Edge::new(a % n, b % n))
                .collect();
            EdgeList::with_vertex_count(edges, n + isolated).expect("ids in range")
        })
}

const STRATEGIES: [Strategy; 5] = [
    Strategy::Random,
    Strategy::Grid,
    Strategy::Hdrf,
    Strategy::Hybrid,
    Strategy::OneD,
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn fused_sweep_equals_the_per_edge_slot_build(
        graph in arb_graph(),
        machines in 2u32..6,
        seed in 0u64..1000,
    ) {
        for strategy in STRATEGIES {
            for parts in [1, machines, 16 * machines] {
                let ctx = PartitionContext::new(parts).with_seed(seed);
                let assignment = strategy.build().partition(&graph, &ctx).assignment;
                assert_matches_rank_build(&graph, &assignment, machines);
            }
        }
    }
}

#[test]
fn empty_graph_has_an_empty_layout() {
    let graph = EdgeList::from_edges(Vec::new());
    for strategy in STRATEGIES {
        let assignment = strategy
            .build()
            .partition(&graph, &PartitionContext::new(4))
            .assignment;
        assert_matches_rank_build(&graph, &assignment, 4);
        let layout = Layout::build(&graph, &assignment, 4);
        let engine = SyncGas::new(EngineConfig::new(ClusterSpec::local_9().with_machines(4)));
        let (states, trace) = engine.trace(layout.csr(), &Wcc);
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
    ($engine:expr, $job:expr, $machines:expr, $a:expr, $b:expr; $($post:tt)*) => {{
        let (engine, (graph, assignment)) = (&$engine, &$job);
        let fresh_a = engine.run(graph, assignment, &$a)$($post)*;
        let fresh_b = engine.run(graph, assignment, &$b)$($post)*;
        let layout = Layout::build(graph, assignment, $machines);
        for _ in 0..2 {
            let (states_a, trace_a) = engine.trace(layout.csr(), &$a);
            let on_a = (states_a, engine.price(&trace_a, &layout, assignment, &$a)$($post)*);
            let (states_b, trace_b) = engine.trace(layout.csr(), &$b);
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
    let spec = ClusterSpec::local_9();
    let machines = spec.machines;
    let (pagerank, kcore) = (PageRank::fixed_with_tolerance(12, 1e-3), KCore::new(4));
    for delta_caching in [false, true] {
        for threads in [1, 3] {
            let config = EngineConfig::new(spec.clone())
                .with_delta_caching(delta_caching)
                .with_threads(threads);
            let job9 = job(machines);
            let sync = SyncGas::new(config.clone());
            assert_layout_reuse_is_invisible!(sync, job9, machines, pagerank, Wcc;);
            let hybrid = HybridGas::new(config.clone());
            assert_layout_reuse_is_invisible!(hybrid, job9, machines, kcore, pagerank;);
            let async_ = AsyncGas::new(config.clone());
            assert_layout_reuse_is_invisible!(async_, job9, machines, gp_apps::Coloring, Wcc;);
            // GraphX: many partitions per machine.
            let pregel = Pregel::new(PregelConfig::new(config));
            let job36 = job(4 * machines);
            assert_layout_reuse_is_invisible!(
                pregel, job36, machines, Wcc, pagerank; .expect("600 vertices fit")
            );
        }
    }
}

#[test]
#[should_panic(expected = "another cluster size")]
fn a_layout_for_another_cluster_size_is_refused() {
    let (graph, assignment) = job(9);
    let layout = Layout::build(&graph, &assignment, 3);
    let engine = SyncGas::new(EngineConfig::new(ClusterSpec::local_9()));
    let (_, trace) = engine.trace(layout.csr(), &Wcc);
    engine.price(&trace, &layout, &assignment, &Wcc);
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
