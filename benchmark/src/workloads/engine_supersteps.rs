//! `engine-supersteps`: the LiveJournal analogue, written as a text edge list
//! and read back (the `distgraph run` path), Grid-partitioned once in set-up
//! on EC2-16, then eight jobs at one thread across all four engines — the
//! last one composed with a crash, lossy links and a scale-out so every hook
//! pass runs. Partitioning is out of the timed region: `CsrGraph`,
//! `ReplicaTable::build`, the superstep loops and the hooks do all the work.

use super::{Env, Rep};
use crate::check::{ensure, Checks, Fnv};
use crate::sizes::PARTS;
use gp_apps::pagerank::Rank;
use gp_apps::{coloring, Coloring, KCore, PageRank, Sssp, Wcc};
use gp_cluster::ClusterSpec;
use gp_core::{io, EdgeList, VertexId};
use gp_engine::{
    AsyncGas, CommsConfig, ComputeReport, ElasticConfig, ElasticPlan, EngineConfig, HybridGas,
    Pregel, PregelConfig, SyncGas,
};
use gp_fault::{CheckpointPolicy, FaultEvent, FaultKind, FaultPlan};
use gp_gen::Dataset;
use gp_partition::{Assignment, PartitionContext, Strategy};

/// Supersteps of every PageRank job.
pub const PAGERANK_STEPS: u32 = 10;
/// K-core orders peeled on the hybrid engine.
pub const KCORE: std::ops::RangeInclusive<u32> = 5..=7;

/// What set-up leaves behind.
pub struct Inputs {
    /// The graph as `read_edge_list` returned it.
    pub graph: EdgeList,
    /// Grid assignment onto [`PARTS`] partitions.
    pub assignment: Assignment,
    /// Smallest vertex id of each vertex's weak component (union-find).
    pub wcc_reference: Vec<u64>,
    /// SSSP source: the highest-out-degree vertex, as the pipeline picks it.
    pub source: VertexId,
    /// Undirected hop distance from `source` (BFS), `u32::MAX` = unreachable.
    pub sssp_reference: Vec<u32>,
}

/// Generate, round-trip through text, partition, and compute the references.
pub fn setup(env: &Env) -> Inputs {
    let t = env.tracer;
    let generated = t.span("gen.generate", || {
        Dataset::LiveJournal.generate_with_edges(env.sizes.graph_edges, env.seed)
    });
    let path = env.dir.join(format!("engine-{}.txt", env.sizes.label));
    let file = std::fs::File::create(&path).expect("edge list file inside the checkout");
    io::write_edge_list(&generated, std::io::BufWriter::new(file)).expect("write edge list");
    let graph = t
        .span("core.text_parse", || io::read_edge_list(&path))
        .expect("the edge list just written parses")
        .graph;
    let ctx = PartitionContext::new(PARTS).with_seed(env.seed);
    let assignment = t
        .span("partition.prepartition", || {
            Strategy::Grid.build().partition(&graph, &ctx)
        })
        .assignment;
    let degrees = graph.degrees();
    let source = (0..graph.num_vertices())
        .map(VertexId)
        .max_by_key(|&v| degrees.out_degree(v))
        .expect("graph has vertices");
    Inputs {
        wcc_reference: wcc_by_union_find(&graph),
        sssp_reference: hops_by_bfs(&graph, source),
        source,
        graph,
        assignment,
    }
}

fn wcc_by_union_find(graph: &EdgeList) -> Vec<u64> {
    fn find(parent: &mut [usize], mut v: usize) -> usize {
        while parent[v] != v {
            parent[v] = parent[parent[v]];
            v = parent[v];
        }
        v
    }
    let mut parent: Vec<usize> = (0..graph.num_vertices() as usize).collect();
    for e in graph.edges() {
        let (a, b) = (
            find(&mut parent, e.src.index()),
            find(&mut parent, e.dst.index()),
        );
        // The smaller id becomes the root, so a root is its component's
        // smallest id — the label WCC converges to.
        parent[a.max(b)] = a.min(b);
    }
    (0..parent.len())
        .map(|v| find(&mut parent, v) as u64)
        .collect()
}

fn hops_by_bfs(graph: &EdgeList, source: VertexId) -> Vec<u32> {
    let n = graph.num_vertices() as usize;
    let mut adjacency = vec![Vec::new(); n];
    for e in graph.edges() {
        adjacency[e.src.index()].push(e.dst.index());
        adjacency[e.dst.index()].push(e.src.index());
    }
    let mut hops = vec![u32::MAX; n];
    hops[source.index()] = 0;
    let mut queue = std::collections::VecDeque::from([source.index()]);
    while let Some(v) = queue.pop_front() {
        for &u in &adjacency[v] {
            if hops[u] == u32::MAX {
                hops[u] = hops[v] + 1;
                queue.push_back(u);
            }
        }
    }
    hops
}

/// Plain engine configuration on EC2-16.
pub fn config(threads: u32) -> EngineConfig {
    EngineConfig::new(ClusterSpec::ec2_16()).with_threads(threads)
}

/// The composed job's configuration: a crash at superstep 6 under checkpoint
/// interval 4, 1 % link loss with speculation on, and a scale-out at
/// superstep 5 — so the fault, elastic, comms and telemetry passes all run.
pub fn composed_config(threads: u32) -> EngineConfig {
    let mut faults = FaultPlan::uniform_flaky(0.01, PARTS, PAGERANK_STEPS);
    faults.push(FaultEvent {
        superstep: 6,
        machine: 3,
        kind: FaultKind::Crash,
    });
    config(threads)
        .with_fault_plan(faults)
        .with_checkpoint(CheckpointPolicy::every(4))
        .with_comms(CommsConfig::reliable().with_speculation(true))
        .with_elastic(ElasticConfig::new(ElasticPlan::scale_out_at(5, 4)))
}

/// Checks common to every job — simulated seconds finite and positive — and
/// the job's fold into the digest. Returns its work: edges × supersteps.
pub fn account(report: &ComputeReport, edges: usize, digest: &mut Fnv) -> Result<u64, String> {
    let seconds = report.wall_clock_seconds();
    ensure(seconds.is_finite() && seconds > 0.0, || {
        format!("simulated seconds {seconds}")
    })?;
    ensure(report.total_in_bytes().is_finite(), || {
        "simulated traffic is not finite".to_string()
    })?;
    digest.u64(u64::from(report.supersteps()));
    digest.f64(seconds);
    digest.f64(report.total_in_bytes());
    Ok(edges as u64 * u64::from(report.supersteps()))
}

fn fold_ranks(ranks: &[Rank], digest: &mut Fnv) {
    ranks.iter().for_each(|r| digest.f64(r.0));
}

fn ranks_agree(a: &[Rank], b: &[Rank], what: &str) -> Result<(), String> {
    ensure(a.len() == b.len(), || format!("{what}: length differs"))?;
    let worst = a
        .iter()
        .zip(b)
        .map(|(x, y)| (x.0 - y.0).abs())
        .fold(0.0, f64::max);
    ensure(worst <= 1e-9, || {
        format!("{what}: PageRank vectors differ by {worst}")
    })
}

/// PageRank(10) on `SyncGas` inside `span` (shared with `mt-scaling`).
pub fn sync_pagerank(
    env: &Env,
    inputs: &Inputs,
    span: &'static str,
    config: EngineConfig,
) -> (Vec<Rank>, ComputeReport) {
    let engine = SyncGas::new(config);
    let program = PageRank::fixed(PAGERANK_STEPS);
    env.tracer.span(span, || {
        engine.run(&inputs.graph, &inputs.assignment, &program)
    })
}

/// PageRank(10) on `Pregel` inside `span` (shared with `mt-scaling`).
pub fn pregel_pagerank(
    env: &Env,
    inputs: &Inputs,
    span: &'static str,
    threads: u32,
) -> Result<(Vec<Rank>, ComputeReport), String> {
    let engine = Pregel::new(PregelConfig::new(config(threads)));
    let program = PageRank::fixed(PAGERANK_STEPS);
    env.tracer
        .span(span, || {
            engine.run(&inputs.graph, &inputs.assignment, &program)
        })
        .map_err(|oom| format!("Pregel out of memory: {oom:?}"))
}

/// One repetition; a work unit is one edge visited in one superstep.
pub fn rep(env: &Env, inputs: &Inputs) -> Rep {
    let t = env.tracer;
    let (g, a) = (&inputs.graph, &inputs.assignment);
    let edges = g.num_edges();
    let mut checks = Checks::default();
    let mut work = 0u64;
    let mut reference: Vec<Rank> = Vec::new();

    checks.op("sync pagerank", |d| {
        let (ranks, report) = sync_pagerank(env, inputs, "engine.sync_pagerank", config(1));
        work += account(&report, edges, d)?;
        ensure(report.supersteps() == PAGERANK_STEPS, || {
            format!("{} supersteps", report.supersteps())
        })?;
        fold_ranks(&ranks, d);
        reference = ranks;
        Ok(())
    });
    checks.op("hybrid pagerank", |d| {
        let engine = HybridGas::new(config(1));
        let (ranks, report) = t.span("engine.hybrid_pagerank", || {
            engine.run(g, a, &PageRank::fixed(PAGERANK_STEPS))
        });
        work += account(&report, edges, d)?;
        ranks_agree(&reference, &ranks, "SyncGas vs HybridGas")
    });
    checks.op("pregel pagerank", |d| {
        let (ranks, report) = pregel_pagerank(env, inputs, "engine.pregel_pagerank", 1)?;
        work += account(&report, edges, d)?;
        ranks_agree(&reference, &ranks, "SyncGas vs Pregel")
    });
    checks.op("sync wcc", |d| {
        let engine = SyncGas::new(config(1));
        let (labels, report) = t.span("engine.sync_wcc", || engine.run(g, a, &Wcc));
        work += account(&report, edges, d)?;
        ensure(report.converged, || "WCC did not converge".to_string())?;
        ensure(labels == inputs.wcc_reference, || {
            "WCC labels differ from the union-find reference".to_string()
        })
    });
    checks.op("sync sssp", |d| {
        let engine = SyncGas::new(config(1));
        let program = Sssp::undirected(inputs.source);
        let (hops, report) = t.span("engine.sync_sssp", || engine.run(g, a, &program));
        work += account(&report, edges, d)?;
        ensure(hops == inputs.sssp_reference, || {
            "SSSP distances differ from the BFS reference".to_string()
        })
    });
    checks.op("async coloring", |d| {
        let engine = AsyncGas::new(config(1));
        let (colors, report) = t.span("engine.async_coloring", || engine.run(g, a, &Coloring));
        work += account(&report, edges, d)?;
        d.u64(coloring::color_count(&colors) as u64);
        ensure(coloring::is_proper_coloring(g, &colors), || {
            "coloring is not proper".to_string()
        })
    });
    checks.op("hybrid kcore", |d| {
        let engine = HybridGas::new(config(1));
        let mut previous = u64::MAX;
        for k in KCORE {
            let (alive, report) =
                t.span("engine.hybrid_kcore", || engine.run(g, a, &KCore::new(k)));
            work += account(&report, edges, d)?;
            let size = alive.iter().filter(|&&x| x).count() as u64;
            ensure(size <= previous, || {
                format!(
                    "{k}-core ({size}) larger than the {}-core ({previous})",
                    k - 1
                )
            })?;
            d.u64(size);
            previous = size;
        }
        Ok(())
    });
    checks.op("composed pagerank", |d| {
        let (ranks, report) = sync_pagerank(env, inputs, "engine.composed", composed_config(1));
        work += account(&report, edges, d)?;
        ensure(ranks == reference, || {
            "faults, loss or scale-out changed the PageRank result".to_string()
        })?;
        ensure(
            report.supersteps_replayed > 0
                && report.checkpoint_bytes > 0.0
                && report.retransmit_bytes > 0.0
                && report.scale_events == 1,
            || {
                format!(
                    "a hook pass did not fire: replayed {} checkpoint {} retransmit {} scale {}",
                    report.supersteps_replayed,
                    report.checkpoint_bytes,
                    report.retransmit_bytes,
                    report.scale_events
                )
            },
        )?;
        ensure(
            report.wall_clock_seconds() >= report.compute_seconds(),
            || "wall clock below compute seconds".to_string(),
        )
    });
    let mut rep = Rep::new(checks, work);
    rep.counts.insert("engine.supersteps", work / edges as u64);
    rep
}
