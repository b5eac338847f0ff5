//! Compute once, price many: a run's semantic trace does not depend on the
//! placement, so a trace recorded anywhere prices to the report a fresh run
//! returns here, bit for bit.
//!
//! For every paper program on two graph families, {Random, Grid, HDRF} ×
//! {Local-9, Local-10} placements, and three configurations (plain, delta
//! caching, three threads):
//!
//! * the trace is identical across placements, across SyncGas, HybridGas
//!   and Pregel (Pregel has no gather cache, so its trace is always the
//!   plain one), and across thread counts;
//! * the first trace recorded — on another placement, engine or thread
//!   count than most checks — priced here equals `run` here field for field
//!   (`f64::to_bits`), and its final states equal `run`'s.

use distgraph::apps::{Coloring, KCore, PageRank, Sssp, Wcc};
use distgraph::cluster::ClusterSpec;
use distgraph::core::{CsrGraph, EdgeList, VertexId};
use distgraph::engine::{
    AsyncGas, ComputeReport, EngineConfig, HybridGas, Layout, Pregel, PregelConfig, SemanticTrace,
    Semantics, SyncGas, VertexProgram,
};
use distgraph::gen::Dataset;
use distgraph::partition::{Assignment, PartitionContext, Strategy};
use std::fmt::Debug;

/// One partitioning of the graph under test, laid out for its cluster.
struct Placement {
    name: String,
    spec: ClusterSpec,
    assignment: Assignment,
    layout: Layout,
}

fn placements(graph: &EdgeList) -> Vec<Placement> {
    let mut out = Vec::new();
    for strategy in [Strategy::Random, Strategy::Grid, Strategy::Hdrf] {
        for spec in [ClusterSpec::local_9(), ClusterSpec::local_10()] {
            let ctx = PartitionContext::new(spec.machines).with_seed(3);
            let assignment = strategy.build().partition(graph, &ctx).assignment;
            out.push(Placement {
                name: format!("{} on {}", strategy.label(), spec.name),
                layout: Layout::build(graph, &assignment, &spec),
                spec,
                assignment,
            });
        }
    }
    out
}

/// Every field of a report, floats as their bits.
fn bits(report: &ComputeReport) -> (&str, &str, Vec<u64>) {
    let mut out = vec![
        report.converged as u64,
        report.checkpoint_bytes.to_bits(),
        report.recovery_seconds.to_bits(),
        u64::from(report.supersteps_replayed),
        report.retransmit_bytes.to_bits(),
        report.retry_timeout_seconds.to_bits(),
        u64::from(report.speculative_clones),
        report.speculation_saved_seconds.to_bits(),
        report.speculation_shipped_bytes.to_bits(),
        u64::from(report.scale_events),
        u64::from(report.evacuations),
        report.evacuated_bytes.to_bits(),
        u64::from(report.forced_recoveries),
        report.reingress_seconds.to_bits(),
    ];
    for s in &report.steps {
        out.extend([
            u64::from(s.superstep),
            s.active_vertices,
            s.gather_messages,
            s.sync_messages,
            s.wall_seconds.to_bits(),
        ]);
        for cells in [&s.machine_work, &s.machine_in_bytes, &s.machine_out_bytes] {
            out.push(cells.len() as u64);
            out.extend(cells.iter().map(|c| c.to_bits()));
        }
    }
    (report.program, report.engine, out)
}

/// `slot` holds the first value seen; every later one must equal it.
fn same_as<T: PartialEq + Debug>(slot: &mut Option<T>, value: T, what: &str) {
    match slot {
        Some(first) => assert_eq!(*first, value, "{what}"),
        None => *slot = Some(value),
    }
}

/// The engine configurations every check runs under, at most `cap`
/// supersteps when one is given.
fn variants(spec: &ClusterSpec, cap: Option<u32>) -> [(&'static str, EngineConfig); 3] {
    let mut plain = EngineConfig::new(spec.clone());
    plain.max_supersteps = cap.unwrap_or(plain.max_supersteps);
    [
        ("plain", plain.clone()),
        ("delta caching", plain.clone().with_delta_caching(true)),
        ("3 threads", plain.with_threads(3)),
    ]
}

/// The three synchronous engines on every placement of `graph` and
/// configuration.
fn check_sync<P>(graph: &EdgeList, placements: &[Placement], program: &P, cap: Option<u32>)
where
    P: VertexProgram,
    P::State: Debug,
{
    let name = program.name();
    // The trace of every run without a gather cache, and of every run with.
    let (mut plain, mut cached) = (None, None);
    let csr = &CsrGraph::from_edge_list(graph);
    for at in placements {
        for (variant, config) in variants(&at.spec, cap) {
            let what = |engine: &str| format!("{name} on {engine}, {}, {variant}", at.name);
            let sync = SyncGas::new(config.clone());
            let hybrid = HybridGas::new(config.clone());
            let pregel = Pregel::new(PregelConfig::new(config.clone()));
            let caching = config.delta_caching;
            let shared = if caching { &mut cached } else { &mut plain };
            same_as(shared, sync.trace(csr, program), &what("SyncGas"));
            same_as(shared, hybrid.trace(csr, program), &what("HybridGas"));
            same_as(&mut plain, pregel.trace(csr, program), &what("Pregel"));
            let shared = if caching { &cached } else { &plain };
            let (states, trace) = shared.as_ref().expect("recorded above");
            let semantics = Semantics::Synchronous {
                delta_caching: caching,
            };
            assert_eq!(trace.semantics(), semantics, "{}", what("SyncGas"));

            let (run_states, run) = sync.run(graph, &at.assignment, program);
            let priced = sync.price(trace, &at.layout, &at.assignment, program);
            assert_eq!(&run_states, states, "{}", what("SyncGas"));
            assert_eq!(bits(&priced), bits(&run), "{}", what("SyncGas"));
            assert_eq!(run.supersteps(), trace.supersteps(), "{}", what("SyncGas"));

            let (run_states, run) = hybrid.run(graph, &at.assignment, program);
            let priced = hybrid.price(trace, &at.layout, &at.assignment, program);
            assert_eq!(&run_states, states, "{}", what("HybridGas"));
            assert_eq!(bits(&priced), bits(&run), "{}", what("HybridGas"));

            let (states, trace) = plain.as_ref().expect("recorded above");
            let (run_states, run) = pregel.run(graph, &at.assignment, program).expect("fits");
            let priced = pregel
                .price(trace, &at.layout, &at.assignment, program)
                .expect("fits");
            assert_eq!(&run_states, states, "{}", what("Pregel"));
            assert_eq!(bits(&priced), bits(&run), "{}", what("Pregel"));
        }
    }
}

/// AsyncGas on every placement of `graph` and configuration.
fn check_async<P>(graph: &EdgeList, placements: &[Placement], program: &P, cap: Option<u32>)
where
    P: VertexProgram,
    P::State: Debug,
{
    let mut shared = None;
    let csr = CsrGraph::from_edge_list(graph);
    for at in placements {
        for (variant, config) in variants(&at.spec, cap) {
            let what = format!("{} on AsyncGas, {}, {variant}", program.name(), at.name);
            let engine = AsyncGas::new(config);
            same_as(&mut shared, engine.trace(&csr, program), &what);
            let (states, trace) = shared.as_ref().expect("recorded above");
            let (run_states, run) = engine.run(graph, &at.assignment, program);
            let priced = engine.price(trace, &at.layout, &at.assignment, program);
            assert_eq!(&run_states, states, "{what}");
            assert_eq!(bits(&priced), bits(&run), "{what}");
        }
    }
}

/// The highest-out-degree vertex, as the pipeline picks SSSP sources.
fn hub(graph: &EdgeList) -> VertexId {
    let degrees = graph.degrees();
    (0..graph.num_vertices())
        .map(VertexId)
        .max_by_key(|&v| degrees.out_degree(v))
        .expect("graph has vertices")
}

fn check_every_program(graph: &EdgeList) {
    let placements = placements(graph);
    let source = hub(graph);
    check_sync(graph, &placements, &PageRank::fixed(5), None);
    check_sync(graph, &placements, &PageRank::to_convergence(), None);
    check_sync(graph, &placements, &Wcc, None);
    check_sync(graph, &placements, &Sssp::undirected(source), None);
    check_sync(graph, &placements, &Sssp::directed(source), None);
    check_sync(graph, &placements, &KCore::new(3), None);
    // Synchronous Coloring livelocks (adjacent vertices recolor together)
    // until its own 1 000-superstep cap; 25 supersteps show the same loop.
    check_sync(graph, &placements, &Coloring, Some(25));
    check_async(graph, &placements, &Coloring, None);
}

#[test]
fn traces_are_placement_free_and_price_like_fresh_runs_on_a_road_network() {
    check_every_program(&Dataset::RoadNetCa.generate(0.02, 42));
}

#[test]
fn traces_are_placement_free_and_price_like_fresh_runs_on_a_social_network() {
    check_every_program(&Dataset::LiveJournal.generate(0.01, 42));
}

/// A pass the superstep cap cuts just as its frontier drains is the one
/// case where how the pass ended, not its steps, decides the report:
/// Pregel and AsyncGas call it converged, SyncGas does not.
#[test]
fn traces_keep_how_a_capped_pass_ended() {
    // Directed SSSP from 0 reaches the sink 30 in superstep 30, which
    // activates nothing.
    let path = EdgeList::from_pairs((0..30).map(|i| (i, i + 1)).collect());
    let placements = placements(&path);
    let sssp = Sssp::directed(VertexId(0));
    check_sync(&path, &placements, &sssp, Some(31));
    let at = &placements[0];
    let mut config = EngineConfig::new(at.spec.clone());
    config.max_supersteps = 31;
    let (_, synced) = SyncGas::new(config.clone()).run(&path, &at.assignment, &sssp);
    let pregel = Pregel::new(PregelConfig::new(config));
    let (_, pregeled) = pregel.run(&path, &at.assignment, &sssp).expect("fits");
    assert_eq!((synced.converged, pregeled.converged), (false, true));

    // Coloring's last round recolors nothing, so nothing is left active.
    let engine = AsyncGas::new(EngineConfig::new(at.spec.clone()));
    let (_, trace) = engine.trace(&CsrGraph::from_edge_list(&path), &Coloring);
    check_async(&path, &placements, &Coloring, Some(trace.supersteps()));
}

/// A placement to price a trace on, and its graph's adjacency.
fn road_placement() -> (CsrGraph, Placement) {
    let graph = Dataset::RoadNetCa.generate(0.02, 42);
    (
        CsrGraph::from_edge_list(&graph),
        placements(&graph).swap_remove(0),
    )
}

#[test]
#[should_panic(expected = "recorded for another program, semantics or superstep cap")]
fn a_trace_refuses_another_superstep_cap() {
    let (csr, at) = road_placement();
    let engine = SyncGas::new(EngineConfig::new(at.spec.clone()));
    let (_, trace) = engine.trace(&csr, &PageRank::fixed(5));
    engine.price(&trace, &at.layout, &at.assignment, &PageRank::fixed(6));
}

#[test]
#[should_panic(expected = "recorded for another program, semantics or superstep cap")]
fn pregel_refuses_a_delta_cached_trace() {
    let (csr, at) = road_placement();
    let config = EngineConfig::new(at.spec.clone()).with_delta_caching(true);
    let (_, trace): (_, SemanticTrace) = SyncGas::new(config.clone()).trace(&csr, &Wcc);
    let pregel = Pregel::new(PregelConfig::new(config));
    let _ = pregel.price(&trace, &at.layout, &at.assignment, &Wcc);
}

#[test]
#[should_panic(expected = "recorded on another graph")]
fn a_trace_refuses_another_graph() {
    // A 31-vertex path's trace fits inside the road network's vertex range,
    // so only the graph check stops it from pricing to a wrong report.
    let path = EdgeList::from_pairs((0..30).map(|i| (i, i + 1)).collect());
    let (_, at) = road_placement();
    let engine = SyncGas::new(EngineConfig::new(at.spec.clone()));
    let (_, trace) = engine.trace(&CsrGraph::from_edge_list(&path), &Wcc);
    engine.price(&trace, &at.layout, &at.assignment, &Wcc);
}
