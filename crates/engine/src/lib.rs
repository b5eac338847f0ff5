//! # gp-engine — three simulated distributed graph engines
//!
//! The paper's partitioning strategies only matter *through* the engines
//! that execute on their partitions. This crate implements the three engine
//! designs the paper evaluates, over one shared substrate:
//!
//! * [`gas::SyncGas`] — PowerGraph (§5.1): synchronous
//!   Gather-Apply-Scatter with minor-step barriers; every mirror of an
//!   active vertex sends a partial aggregate to the master, and the master
//!   synchronizes every mirror after Apply. Network, memory and compute are
//!   therefore *linear in replication factor* — Figs 5.3–5.5.
//! * [`hybrid::HybridGas`] — PowerLyra (§6.1): differentiated
//!   processing. Low-degree vertices gather *locally*; only mirrors that
//!   actually hold gather-direction edges send partials. Strategies that
//!   co-locate gather-edges with masters (Hybrid, 1D-Target, partially 2D)
//!   beat the traffic their replication factor predicts — Figs 6.1, 8.3.
//! * [`pregel::Pregel`] — GraphX (§7.1): message passing over many
//!   partitions per machine, with vertex-attribute shipping, join overheads,
//!   per-iteration scheduling cost, and the executor-memory pressure model
//!   behind Fig 9.4.
//!
//! [`async_gas::AsyncGas`] models PowerGraph's asynchronous engine
//! (used by Simple Coloring), whose barrier-free execution makes its cost
//! deviate from the replication-factor trend (§5.4.1).
//!
//! Execution is *semantically* sequential and deterministic — vertex state
//! lives in one array, exactly as if every mirror were perfectly synced —
//! while network/memory/time are *accounted* against the replicas and
//! masters of the [`gp_partition::Assignment`], whose [`Layout`] adds each
//! image's local edge counts and the partition→machine fold. Work is fixed
//! units per gathered edge, apply and scattered edge (the accountant's
//! constants); bytes are `gp_cluster::CostRates`' sizes.
//!
//! Every engine run has two halves. An engine's `trace` runs the semantic
//! pass over the graph's [`gp_core::CsrGraph`] and keeps its update sequence
//! as a [`SemanticTrace`], which no placement influences; its `price` turns
//! a trace into the report on any partitioning of the same graph. `run`
//! reads the adjacency the graph owns ([`gp_core::EdgeList::csr`]), lays
//! out the local edge counts the assignment owns
//! ([`gp_partition::Assignment::local_edge_counts`]), traces, then prices.
//! Both are built by the first run that needs them and shared by every
//! later one, so ten runs on one partitioned graph build each once; callers
//! that reuse traces call `trace` and `price` directly.

pub(crate) mod accounting;
pub mod async_gas;
pub mod comms_hook;
pub mod elastic_hook;
pub mod fault_hook;
pub mod gas;
pub mod hybrid;
pub mod layout;
pub mod pregel;
pub mod program;
pub mod replicas;
pub mod report;
pub mod telemetry_hook;
pub(crate) mod trace;

pub use async_gas::AsyncGas;
pub use comms_hook::apply_comms_model;
pub use elastic_hook::apply_elastic_model;
pub use fault_hook::apply_fault_model;
pub use gas::SyncGas;
pub use gp_elastic::{ElasticConfig, ElasticPlan, RepairPolicy};
pub use gp_net::CommsConfig;
pub use gp_par::ParConfig;
pub use hybrid::HybridGas;
pub use layout::Layout;
pub use pregel::{ExecutorMemoryModel, PlacementCase, Pregel, PregelConfig};
pub use program::{ApplyInfo, Direction, InitInfo, VertexProgram};
pub use replicas::ReplicaTable;
pub use report::{base_memory_per_machine, ComputeReport, EngineConfig, SuperstepStats};
pub use telemetry_hook::record_compute_telemetry;
pub use trace::{SemanticTrace, Semantics};

/// `report` after the post-passes every engine applies to its clean
/// report, in order: faults and checkpoints, elasticity, the comms
/// protocols, then the telemetry of the timeline that results.
pub(crate) fn finish(
    mut report: ComputeReport,
    config: &EngineConfig,
    assignment: &gp_partition::Assignment,
) -> ComputeReport {
    apply_fault_model(&mut report, config, assignment);
    apply_elastic_model(&mut report, config, assignment);
    apply_comms_model(&mut report, config);
    record_compute_telemetry(config, &report);
    report
}
