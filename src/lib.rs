//! # distgraph — umbrella crate
//!
//! Re-exports the full public API of the workspace reproducing *"An
//! Experimental Comparison of Partitioning Strategies in Distributed Graph
//! Processing"* (VLDB 2017). See the README for the architecture overview and
//! `DESIGN.md` for the per-experiment index.
//!
//! The individual crates:
//!
//! * [`core`] (gp-core) — graph substrate: ids, edge lists, CSR, hashing, I/O.
//! * [`gen`] (gp-gen) — synthetic dataset analogues + degree analysis.
//! * [`partition`] (gp-partition) — 11 catalog strategies plus BiCut, Chunking
//!   and VEBO.
//! * [`cluster`] (gp-cluster) — simulated cluster and resource models.
//! * [`fault`] (gp-fault) — fault injection, checkpointing, recovery pricing.
//! * [`net`] (gp-net) — unreliable network model: retry/backoff, speculation.
//! * [`elastic`] (gp-elastic) — mid-job scale-out/scale-in, spot preemption,
//!   multi-tenant scheduling.
//! * [`par`] (gp-par) — deterministic bounded parallelism (`--threads`).
//! * [`engine`] (gp-engine) — GAS / Hybrid / Pregel engines.
//! * [`serve`] (gp-serve) — long-running serving: churn, queries, rebalance.
//! * [`store`] (gp-store) — compressed on-disk graphs + streaming ingress.
//! * [`apps`] (gp-apps) — PageRank, WCC, k-core, SSSP, coloring.
//! * [`advisor`] (gp-advisor) — the paper's decision trees as code.
//! * [`telemetry`] (gp-telemetry) — spans, metrics, Chrome-trace profiling.

pub use gp_advisor as advisor;
pub use gp_apps as apps;
pub use gp_cluster as cluster;
pub use gp_core as core;
pub use gp_elastic as elastic;
pub use gp_engine as engine;
pub use gp_fault as fault;
pub use gp_gen as gen;
pub use gp_net as net;
pub use gp_par as par;
pub use gp_partition as partition;
pub use gp_serve as serve;
pub use gp_store as store;
pub use gp_telemetry as telemetry;

/// Crate version of the umbrella package.
pub const VERSION: &str = env!("CARGO_PKG_VERSION");
