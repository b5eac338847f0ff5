//! The five workloads. Each module exposes `setup` (untimed, reported as
//! `setup_s`) and `rep` (one timed repetition: inputs ready → all results
//! produced, checked and digested). Both wrap every call into a layer's
//! public functions in a span named after the per-layer metric it feeds.

pub mod engine_supersteps;
pub mod ingress_stream;
pub mod mt_scaling;
pub mod paper_suite;
pub mod serve_churn;

use crate::check::{Checks, Pins};
use crate::sizes::Sizes;
use crate::trace::Tracer;
use std::collections::BTreeMap;
use std::path::Path;

/// Workload names, in the order `BENCHMARK.json` lists them.
pub const NAMES: [&str; 5] = [
    "paper-suite",
    "ingress-stream",
    "engine-supersteps",
    "serve-churn",
    "mt-scaling",
];

/// Seed for `gp_gen::PowerLawStream`, mixed to a full 64 bits. The stream
/// reseeds per vertex with `seed ^ v * GAMMA` while its Splitmix64 steps by
/// the same `GAMMA`, so under a small seed consecutive vertices replay
/// shifted copies of each other's targets: HDRF's replication factor on the
/// 1 M-edge store then lands anywhere from 5.1 to 7.2 depending on the seed's
/// low bits (8.98 +- 0.01 once mixed), and run time follows it. Mixing makes
/// every `--seed` draw from the same distribution of graphs.
pub fn powerlaw_seed(seed: u64) -> u64 {
    gp_core::hash_u64(seed, 0x706f_7765_726c_6177)
}

/// What every `setup` and `rep` is handed.
pub struct Env<'a> {
    /// Input sizes.
    pub sizes: &'a Sizes,
    /// `--seed`: the only source of randomness in the inputs.
    pub seed: u64,
    /// Scratch directory inside the checkout (`benchmark/out/`).
    pub dir: &'a Path,
    /// Pinned quality values; `None` away from the `full` sizes.
    pub pins: Option<&'a Pins>,
    /// Span recorder (disabled in the untraced run).
    pub tracer: &'a Tracer,
}

/// Result of one repetition.
pub struct Rep {
    /// Operation counts, failure messages and the simulated-output digest.
    pub checks: Checks,
    /// Work units done; the unit is fixed per workload (`ops_per_s`).
    pub work: u64,
    /// Counts taken where the work happens, which repeat exactly for a seed
    /// (supersteps run, repairs fired); a change here is a behaviour change.
    pub counts: BTreeMap<&'static str, u64>,
}

impl Rep {
    /// A repetition with no exact counts to report.
    pub fn new(checks: Checks, work: u64) -> Rep {
        Rep {
            checks,
            work,
            counts: BTreeMap::new(),
        }
    }
}

/// A workload the harness can set up and repeat: a name, the unit of its
/// work, the real threads its repetitions use, and its two functions.
pub struct Workload<I> {
    /// Name in `BENCHMARK.json`.
    pub name: &'static str,
    /// What `ops_per_s` counts.
    pub unit: &'static str,
    /// Real threads the repetitions use (recorded beside every row).
    pub threads: u32,
    /// Everything before the first timed repetition.
    pub setup: fn(&Env) -> I,
    /// One closed-loop repetition.
    pub rep: fn(&Env, &I) -> Rep,
}

/// `paper-suite`.
pub fn paper_suite() -> Workload<paper_suite::Inputs> {
    Workload {
        name: NAMES[0],
        unit: "experiments",
        threads: 1,
        setup: paper_suite::setup,
        rep: paper_suite::rep,
    }
}

/// `ingress-stream`.
pub fn ingress_stream() -> Workload<ingress_stream::Inputs> {
    Workload {
        name: NAMES[1],
        unit: "edges placed (edges x strategies)",
        threads: 1,
        setup: ingress_stream::setup,
        rep: ingress_stream::rep,
    }
}

/// `engine-supersteps`.
pub fn engine_supersteps() -> Workload<engine_supersteps::Inputs> {
    Workload {
        name: NAMES[2],
        unit: "edge visits (edges x supersteps)",
        threads: 1,
        setup: engine_supersteps::setup,
        rep: engine_supersteps::rep,
    }
}

/// `serve-churn`.
pub fn serve_churn() -> Workload<serve_churn::Inputs> {
    Workload {
        name: NAMES[3],
        unit: "traffic events",
        threads: 1,
        setup: serve_churn::setup,
        rep: serve_churn::rep,
    }
}

/// `mt-scaling`, at `T = min(nproc, 4)` threads.
pub fn mt_scaling() -> Workload<mt_scaling::Inputs> {
    Workload {
        name: NAMES[4],
        unit: "edges placed + edge visits",
        threads: mt_scaling::threads(),
        setup: mt_scaling::setup,
        rep: |env, inputs| mt_scaling::rep(env, inputs, mt_scaling::threads(), true),
    }
}
