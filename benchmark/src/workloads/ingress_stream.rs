//! `ingress-stream`: a power-law `.gps` store opened by mmap, verified, then
//! streamed at one thread through eight partitioners, each followed by its
//! ingress report, simulated pricing and an assignment export. gp-store's
//! decoder, the partition kernels, the shard merge and the CSR freeze do all
//! the work; gp-engine does none.

use super::{Env, Rep};
use crate::check::{ensure, Checks, Fnv, Pins};
use crate::sizes::PARTS;
use gp_cluster::{ClusterSpec, CostRates};
use gp_core::StreamingEdges;
use gp_gen::{build_powerlaw_store, PowerLawStreamParams};
use gp_partition::strategies::Vebo;
use gp_partition::{
    write_assignment, IngressReport, PartitionContext, PartitionOutcome, Partitioner, Strategy,
    WINDOW_AUTO,
};
use gp_store::{GraphStore, StoreStats};
use std::path::PathBuf;

/// One partitioner configuration.
pub struct Pass {
    /// Pin key and failure label.
    pub key: &'static str,
    /// Builds the partitioner (VEBO is not in the `Strategy` catalog).
    pub build: fn() -> Box<dyn Partitioner>,
    /// Speculative window (0 = the sequential kernel).
    pub window: u32,
}

pub const fn pass(key: &'static str, build: fn() -> Box<dyn Partitioner>, window: u32) -> Pass {
    Pass { key, build, window }
}

/// The eight passes with the span each partition call runs under
/// (`<span>_ms` is its per-layer metric), cheapest first.
pub const PASSES: [(&str, Pass); 8] = [
    (
        "partition.random",
        pass("random", || Strategy::Random.build(), 0),
    ),
    ("partition.grid", pass("grid", || Strategy::Grid.build(), 0)),
    ("partition.hdrf", pass("hdrf", || Strategy::Hdrf.build(), 0)),
    (
        "partition.hdrf_auto",
        pass("hdrf_auto", || Strategy::Hdrf.build(), WINDOW_AUTO),
    ),
    (
        "partition.oblivious",
        pass("oblivious", || Strategy::Oblivious.build(), 0),
    ),
    (
        "partition.hybrid",
        pass("hybrid", || Strategy::Hybrid.build(), 0),
    ),
    (
        "partition.hginger",
        pass("hginger", || Strategy::HybridGinger.build(), 0),
    ),
    ("partition.vebo", pass("vebo", || Box::new(Vebo), 0)),
];

/// What set-up leaves behind.
pub struct Inputs {
    /// The `.gps` file.
    pub path: PathBuf,
    /// Builder statistics (edge count, bytes per edge).
    pub stats: StoreStats,
}

/// Build the store.
pub fn setup(env: &Env) -> Inputs {
    let path = env.dir.join(format!("ingress-{}.gps", env.sizes.label));
    let params = PowerLawStreamParams {
        num_vertices: env.sizes.store_vertices,
        num_edges: env.sizes.store_edges,
        ..Default::default()
    };
    let stats = env
        .tracer
        .span("store.build", || {
            build_powerlaw_store(&path, params, super::powerlaw_seed(env.seed))
        })
        .expect("store builds inside the checkout");
    Inputs { path, stats }
}

/// Open and verify the store, inside its span.
pub fn open_verified(env: &Env, inputs: &Inputs) -> Result<GraphStore, String> {
    env.tracer.span("store.open_verify", || {
        let store = GraphStore::open(&inputs.path).map_err(|e| e.to_string())?;
        let report = store.verify().map_err(|e| e.to_string())?;
        ensure(report.num_edges == inputs.stats.num_edges, || {
            format!(
                "verify decoded {} edges, builder wrote {}",
                report.num_edges, inputs.stats.num_edges
            )
        })?;
        Ok(store)
    })
}

/// Partition checks: every edge placed exactly once on a real partition,
/// per-partition counts add up to |E|, replication factor and imbalance
/// within the parity envelope of their pins. Folds the assignment and its
/// accounting into the digest.
pub fn check_partition(
    key: &str,
    outcome: &PartitionOutcome,
    edges: u64,
    pins: Option<&Pins>,
    digest: &mut Fnv,
) -> Result<(), String> {
    let a = &outcome.assignment;
    ensure(a.num_edges() as u64 == edges, || {
        format!("placed {} edges of {edges}", a.num_edges())
    })?;
    let mut recount = vec![0u64; a.num_partitions() as usize];
    for p in a.edge_partitions() {
        let slot = recount
            .get_mut(p.index())
            .ok_or_else(|| format!("edge placed on partition {} of {PARTS}", p.index()))?;
        *slot += 1;
        digest.u64(p.index() as u64);
    }
    ensure(recount == a.edge_counts(), || {
        "edge_counts disagree with the per-edge placements".to_string()
    })?;
    ensure(a.edge_counts().iter().sum::<u64>() == edges, || {
        format!(
            "edge_counts sum to {}, not {edges}",
            a.edge_counts().iter().sum::<u64>()
        )
    })?;
    let rf = a.replication_factor();
    let imbalance = a.balance().imbalance;
    ensure(rf.is_finite() && rf >= 1.0, || {
        format!("replication factor {rf}")
    })?;
    if let Some(pins) = pins {
        pins.within_parity(&format!("{key}.rf"), rf)?;
        pins.within_parity(&format!("{key}.imbalance"), imbalance)?;
    }
    digest.f64(rf);
    digest.f64(imbalance);
    digest.u64(u64::from(outcome.passes));
    digest.u64(outcome.state_bytes);
    outcome.loader_work.iter().for_each(|w| digest.f64(*w));
    Ok(())
}

/// One pass: partition, report + price, export, check. `span` names the
/// partition call (the multi-thread workload reuses this under `par.*`).
pub fn run_pass(
    env: &Env,
    store: &GraphStore,
    pass: &Pass,
    span: &'static str,
    threads: u32,
    digest: &mut Fnv,
) -> Result<(), String> {
    let t = env.tracer;
    let ctx = PartitionContext::new(PARTS)
        .with_seed(env.seed)
        .with_threads(threads)
        .with_window(pass.window);
    let outcome = t.span(span, || (pass.build)().partition(store, &ctx));
    let seconds = t.span("partition.report", || {
        let report = IngressReport::from_outcome(pass.key, &outcome, ctx.num_loaders);
        CostRates::default().ingress_seconds(&report, &ClusterSpec::ec2_16())
    });
    ensure(seconds.is_finite() && seconds > 0.0, || {
        format!("simulated ingress seconds {seconds}")
    })?;
    digest.f64(seconds);
    let mut sink = Vec::new();
    t.span("partition.export", || {
        write_assignment(&outcome.assignment, &mut sink)
    })
    .map_err(|e| e.to_string())?;
    ensure(!sink.is_empty(), || "empty assignment export".to_string())?;
    check_partition(
        &format!("ingress.{}", pass.key),
        &outcome,
        store.num_edges() as u64,
        env.pins,
        digest,
    )
}

/// One repetition; a work unit is one edge placed by one strategy.
pub fn rep(env: &Env, inputs: &Inputs) -> Rep {
    let mut checks = Checks::default();
    let mut store = None;
    checks.op("open+verify", |_| {
        store = Some(open_verified(env, inputs)?);
        Ok(())
    });
    let mut work = 0;
    if let Some(store) = &store {
        for (span, pass) in &PASSES {
            checks.op(pass.key, |d| run_pass(env, store, pass, span, 1, d));
            work += inputs.stats.num_edges;
        }
    }
    Rep::new(checks, work)
}
