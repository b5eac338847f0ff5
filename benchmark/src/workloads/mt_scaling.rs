//! `mt-scaling`: the `ingress-stream` store through five partitioners, then
//! `SyncGas` and `Pregel` PageRank on the `engine-supersteps` graph, all at
//! `T = min(nproc, 4)` threads. The only workload where gp-par does
//! anything; `cpu_s` exposes duplicated work independently of scheduler
//! noise, and the single-thread workloads are the bypass on which a pool
//! change must predict no movement.

use super::ingress_stream::{pass, run_pass, Pass};
use super::{engine_supersteps as engine, ingress_stream as ingress, Env, Rep};
use crate::check::{ensure, Checks};
use gp_partition::{Strategy, WINDOW_AUTO};

/// Thread count of the workload on this host.
pub fn threads() -> u32 {
    crate::host::nproc().clamp(1, 4)
}

/// The five ingress passes: the span each runs under at `T` threads
/// (`par.speedup.<call>` divides by it), the span of the same call at one
/// thread (probes only), and the configuration.
pub const PASSES: [(&str, &str, Pass); 5] = [
    (
        "par.random",
        "seq.random",
        pass("random", || Strategy::Random.build(), 0),
    ),
    (
        "par.grid",
        "seq.grid",
        pass("grid", || Strategy::Grid.build(), 0),
    ),
    (
        "par.hdrf_auto",
        "seq.hdrf_auto",
        pass("hdrf_auto", || Strategy::Hdrf.build(), WINDOW_AUTO),
    ),
    (
        "par.oblivious_par",
        "seq.oblivious_par",
        pass("oblivious_par", || Strategy::Oblivious.build(), 4096),
    ),
    (
        "par.hybrid",
        "seq.hybrid",
        pass("hybrid", || Strategy::Hybrid.build(), 0),
    ),
];

/// What set-up leaves behind: both single-thread workloads' inputs.
pub struct Inputs {
    /// The store.
    pub ingress: ingress::Inputs,
    /// The graph, its assignment and references.
    pub engine: engine::Inputs,
}

/// Build the store and the partitioned graph.
pub fn setup(env: &Env) -> Inputs {
    Inputs {
        ingress: ingress::setup(env),
        engine: engine::setup(env),
    }
}

/// One repetition at `threads` threads; work units as in `ingress-stream`
/// and `engine-supersteps` combined. `parallel` picks the span set.
pub fn rep(env: &Env, inputs: &Inputs, threads: u32, parallel: bool) -> Rep {
    let span = |par: &'static str, seq: &'static str| if parallel { par } else { seq };
    let mut checks = Checks::default();
    let mut work = 0u64;
    let mut store = None;
    checks.op("open+verify", |_| {
        store = Some(ingress::open_verified(env, &inputs.ingress)?);
        Ok(())
    });
    if let Some(store) = &store {
        for (par, seq, pass) in &PASSES {
            let name = span(par, seq);
            checks.op(pass.key, |d| run_pass(env, store, pass, name, threads, d));
            work += inputs.ingress.stats.num_edges;
        }
    }
    let edges = inputs.engine.graph.num_edges();
    let mut sync_ranks = Vec::new();
    checks.op("sync pagerank", |d| {
        let name = span("par.sync_pagerank", "seq.sync_pagerank");
        let (ranks, report) =
            engine::sync_pagerank(env, &inputs.engine, name, engine::config(threads));
        work += engine::account(&report, edges, d)?;
        ranks.iter().for_each(|r| d.f64(r.0));
        sync_ranks = ranks;
        Ok(())
    });
    checks.op("pregel pagerank", |d| {
        let name = span("par.pregel_pagerank", "seq.pregel_pagerank");
        let (ranks, report) = engine::pregel_pagerank(env, &inputs.engine, name, threads)?;
        work += engine::account(&report, edges, d)?;
        let worst = sync_ranks
            .iter()
            .zip(&ranks)
            .map(|(a, b)| (a.0 - b.0).abs())
            .fold(0.0, f64::max);
        ensure(sync_ranks.len() == ranks.len() && worst <= 1e-9, || {
            format!("SyncGas vs Pregel PageRank differ by {worst}")
        })
    });
    Rep::new(checks, work)
}
