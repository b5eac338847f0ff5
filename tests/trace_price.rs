//! Compute once, price many: a run's semantic trace does not depend on the
//! placement, so a trace recorded anywhere prices to the report a fresh run
//! returns here, bit for bit.
//!
//! For every paper program on two graph families, {Random, Grid, HDRF} ×
//! {Local-9, Local-10} placements, and three configurations (plain, delta
//! caching, three threads):
//!
//! * the trace is identical across placements, across the Sync, Hybrid and
//!   GraphX models (GraphX has no gather cache, so its trace is always the
//!   plain one), and across thread counts;
//! * the first trace recorded — on another placement, engine or thread
//!   count than most checks — priced here equals `run` here field for field
//!   (`f64::to_bits`), and its final states equal `run`'s.

use distgraph::apps::{Coloring, KCore, PageRank, Sssp, Wcc};
use distgraph::cluster::ClusterSpec;
use distgraph::core::{EdgeList, VertexId};
use distgraph::engine::{
    ApplyInfo, ComputeReport, Direction, Engine, EngineConfig, InitInfo, Model, SemanticTrace,
    Semantics, VertexProgram,
};
use distgraph::gen::Dataset;
use distgraph::partition::{Assignment, PartitionContext, Strategy};
use std::fmt::Debug;

/// One partitioning of the graph under test, for its cluster.
struct Placement {
    name: String,
    spec: ClusterSpec,
    assignment: Assignment,
}

fn placements(graph: &EdgeList) -> Vec<Placement> {
    let mut out = Vec::new();
    for strategy in [Strategy::Random, Strategy::Grid, Strategy::Hdrf] {
        for spec in [ClusterSpec::local_9(), ClusterSpec::local_10()] {
            let ctx = PartitionContext::new(spec.machines).with_seed(3);
            let assignment = strategy.build().partition(graph, &ctx).assignment;
            out.push(Placement {
                name: format!("{} on {}", strategy.label(), spec.name),
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

/// `program` stopped after at most `cap` supersteps.
struct Capped<P> {
    program: P,
    cap: u32,
}

impl<P: VertexProgram> VertexProgram for Capped<P> {
    type State = P::State;
    type Accum = P::Accum;
    fn name(&self) -> &'static str {
        self.program.name()
    }
    fn gather_direction(&self) -> Direction {
        self.program.gather_direction()
    }
    fn scatter_direction(&self) -> Direction {
        self.program.scatter_direction()
    }
    fn init(&self, v: VertexId, info: InitInfo) -> P::State {
        self.program.init(v, info)
    }
    fn initially_active(&self, v: VertexId) -> bool {
        self.program.initially_active(v)
    }
    fn gather(&self, v: VertexId, nbr: VertexId, state: &P::State, info: InitInfo) -> P::Accum {
        self.program.gather(v, nbr, state, info)
    }
    fn merge(&self, a: P::Accum, b: P::Accum) -> P::Accum {
        self.program.merge(a, b)
    }
    fn accumulate(
        &self,
        acc: &mut Option<P::Accum>,
        v: VertexId,
        nbr: VertexId,
        state: &P::State,
        info: InitInfo,
    ) {
        self.program.accumulate(acc, v, nbr, state, info)
    }
    fn apply(
        &self,
        v: VertexId,
        old: &P::State,
        acc: Option<P::Accum>,
        info: ApplyInfo,
    ) -> P::State {
        self.program.apply(v, old, acc, info)
    }
    fn always_active(&self) -> bool {
        self.program.always_active()
    }
    fn self_reactivates(&self, state: &P::State) -> bool {
        self.program.self_reactivates(state)
    }
    fn accum_wire_bytes(&self) -> u64 {
        self.program.accum_wire_bytes()
    }
    fn state_wire_bytes(&self) -> u64 {
        self.program.state_wire_bytes()
    }
    fn max_supersteps(&self) -> u32 {
        self.cap.min(self.program.max_supersteps())
    }
}

/// The engine configurations every check runs under.
fn variants(spec: &ClusterSpec) -> [(&'static str, EngineConfig); 3] {
    let plain = EngineConfig::new(spec.clone());
    [
        ("plain", plain.clone()),
        ("delta caching", plain.clone().with_delta_caching(true)),
        ("3 threads", plain.with_threads(3)),
    ]
}

/// The three synchronous models on every placement of `graph` and
/// configuration.
fn check_sync<P>(graph: &EdgeList, placements: &[Placement], program: &P)
where
    P: VertexProgram,
    P::State: Debug,
{
    let name = program.name();
    // The trace of every run without a gather cache, and of every run with.
    let (mut plain, mut cached) = (None, None);
    for at in placements {
        for (variant, config) in variants(&at.spec) {
            let what =
                |engine: &Engine| format!("{name} on {:?}, {}, {variant}", engine.model, at.name);
            let caching = config.delta_caching;
            for model in [Model::Sync, Model::Hybrid, Model::GRAPHX] {
                let engine = Engine::new(config.clone(), model);
                let with_cache = caching && model != Model::GRAPHX;
                let shared = if with_cache { &mut cached } else { &mut plain };
                same_as(shared, engine.trace(graph, program), &what(&engine));
                let (states, trace) = shared.as_ref().expect("recorded above");
                let semantics = Semantics::Synchronous {
                    delta_caching: with_cache,
                };
                assert_eq!(trace.semantics(), semantics, "{}", what(&engine));

                let (run_states, run) = engine.run(graph, &at.assignment, program).expect("fits");
                let priced = engine.price(trace, graph, &at.assignment, program);
                assert_eq!(&run_states, states, "{}", what(&engine));
                assert_eq!(
                    bits(&priced.expect("fits")),
                    bits(&run),
                    "{}",
                    what(&engine)
                );
                assert_eq!(run.supersteps(), trace.supersteps(), "{}", what(&engine));
            }
        }
    }
}

/// The async model on every placement of `graph` and configuration.
fn check_async<P>(graph: &EdgeList, placements: &[Placement], program: &P)
where
    P: VertexProgram,
    P::State: Debug,
{
    let mut shared = None;
    for at in placements {
        for (variant, config) in variants(&at.spec) {
            let what = format!("{} on Async, {}, {variant}", program.name(), at.name);
            let engine = Engine::new(config, Model::Async);
            same_as(&mut shared, engine.trace(graph, program), &what);
            let (states, trace) = shared.as_ref().expect("recorded above");
            let (run_states, run) = engine.run(graph, &at.assignment, program).unwrap();
            let priced = engine.price(trace, graph, &at.assignment, program).unwrap();
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
    check_sync(graph, &placements, &PageRank::fixed(5));
    check_sync(graph, &placements, &PageRank::to_convergence());
    check_sync(graph, &placements, &Wcc);
    check_sync(graph, &placements, &Sssp::undirected(source));
    check_sync(graph, &placements, &Sssp::directed(source));
    check_sync(graph, &placements, &KCore::new(3));
    // Synchronous Coloring livelocks (adjacent vertices recolor together)
    // until its own 1 000-superstep cap; 25 supersteps show the same loop.
    let coloring = Capped {
        program: Coloring,
        cap: 25,
    };
    check_sync(graph, &placements, &coloring);
    check_async(graph, &placements, &Coloring);
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
/// GraphX and the async model call it converged, Sync does not.
#[test]
fn traces_keep_how_a_capped_pass_ended() {
    // Directed SSSP from 0 reaches the sink 30 in superstep 30, which
    // activates nothing.
    let path = EdgeList::from_pairs((0..30).map(|i| (i, i + 1)).collect());
    let placements = placements(&path);
    let sssp = Capped {
        program: Sssp::directed(VertexId(0)),
        cap: 31,
    };
    check_sync(&path, &placements, &sssp);
    let at = &placements[0];
    let config = EngineConfig::new(at.spec.clone());
    let [synced, pregeled] = [Model::Sync, Model::GRAPHX].map(|model| {
        let engine = Engine::new(config.clone(), model);
        engine.run(&path, &at.assignment, &sssp).expect("fits").1
    });
    assert_eq!((synced.converged, pregeled.converged), (false, true));

    // Coloring's last round recolors nothing, so nothing is left active.
    let engine = Engine::new(EngineConfig::new(at.spec.clone()), Model::Async);
    let (_, trace) = engine.trace(&path, &Coloring);
    let coloring = Capped {
        program: Coloring,
        cap: trace.supersteps(),
    };
    check_async(&path, &placements, &coloring);
}

/// A graph and a placement of it to price a trace on.
fn road_placement() -> (EdgeList, Placement) {
    let graph = Dataset::RoadNetCa.generate(0.02, 42);
    let at = placements(&graph).swap_remove(0);
    (graph, at)
}

#[test]
#[should_panic(expected = "recorded for another program, semantics or superstep cap")]
fn a_trace_refuses_another_superstep_cap() {
    let (graph, at) = road_placement();
    let engine = Engine::new(EngineConfig::new(at.spec.clone()), Model::Sync);
    let (_, trace) = engine.trace(&graph, &PageRank::fixed(5));
    let _ = engine.price(&trace, &graph, &at.assignment, &PageRank::fixed(6));
}

#[test]
#[should_panic(expected = "recorded for another program, semantics or superstep cap")]
fn pregel_refuses_a_delta_cached_trace() {
    let (graph, at) = road_placement();
    let config = EngineConfig::new(at.spec.clone()).with_delta_caching(true);
    let sync = Engine::new(config.clone(), Model::Sync);
    let (_, trace): (_, SemanticTrace) = sync.trace(&graph, &Wcc);
    let pregel = Engine::new(config, Model::GRAPHX);
    let _ = pregel.price(&trace, &graph, &at.assignment, &Wcc);
}

#[test]
#[should_panic(expected = "recorded on another graph")]
fn a_trace_refuses_another_graph() {
    // A 31-vertex path's trace fits inside the road network's vertex range,
    // so only the graph check stops it from pricing to a wrong report.
    let path = EdgeList::from_pairs((0..30).map(|i| (i, i + 1)).collect());
    let (graph, at) = road_placement();
    let engine = Engine::new(EngineConfig::new(at.spec.clone()), Model::Sync);
    let (_, trace) = engine.trace(&path, &Wcc);
    let _ = engine.price(&trace, &graph, &at.assignment, &Wcc);
}

#[test]
#[should_panic(expected = "recorded on another graph")]
fn a_trace_refuses_another_graph_of_the_same_shape() {
    // Same vertex and edge counts, so only the edge-stream digest tells the
    // graphs apart; the assignment is of the graph it is priced on.
    let graph = distgraph::gen::erdos_renyi(2_000, 12_000, 3);
    let other = distgraph::gen::erdos_renyi(2_000, 12_000, 4);
    assert_eq!(graph.num_vertices(), other.num_vertices());
    assert_eq!(graph.num_edges(), other.num_edges());
    let assignment = Strategy::Hdrf
        .build()
        .partition(&other, &PartitionContext::new(9))
        .assignment;
    let engine = Engine::new(EngineConfig::new(ClusterSpec::local_9()), Model::Sync);
    let (_, trace) = engine.trace(&graph, &Wcc);
    let _ = engine.price(&trace, &other, &assignment, &Wcc);
}
