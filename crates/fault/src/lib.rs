//! # gp-fault — fault injection, checkpointing and recovery
//!
//! The paper measures partitioning strategies on healthy clusters; this
//! crate asks what happens when machines fail mid-job. It extends the
//! simulated cluster with three pieces:
//!
//! * [`plan`] — deterministic fault schedules: a [`FaultPlan`] of machine
//!   crashes, CPU stragglers and flaky links (message loss, priced by
//!   `gp-net`'s reliable-delivery protocol), built by hand or drawn by
//!   [`FaultPlan::random_crashes`] from a seeded ChaCha stream
//!   (`gp_core::ChaCha12`), so every run is reproducible bit-for-bit.
//! * [`checkpoint`] — [`CheckpointPolicy`] prices periodic snapshots as
//!   real load: each machine persists the vertex state it masters to a peer
//!   (HDFS-style), stalling the barrier (fully for sync snapshots,
//!   partially for async) and pushing bytes through the peer's NIC.
//! * [`recovery`] — [`recovery_cost`] prices a crash from the
//!   `Assignment`: the replacement machine re-fetches every edge and
//!   re-registers every vertex image the dead machine hosted, so recovery
//!   traffic is **proportional to the replication factor the strategy put
//!   on that machine** — low-RF strategies (Hybrid, Oblivious) restart
//!   cheaper than high-RF ones (Random).
//!
//! The engines in `gp-engine` consume these types through
//! `EngineConfig::with_fault_plan` / `with_checkpoint`; an empty plan with
//! checkpointing disabled is guaranteed to leave reports unchanged.

pub mod checkpoint;
pub mod plan;
pub mod recovery;

pub use checkpoint::{
    checkpoint_stall_seconds, snapshot_bytes_per_machine, CheckpointMode, CheckpointPolicy,
};
pub use plan::{FaultEvent, FaultKind, FaultPlan};
pub use recovery::{recovery_cost, RecoveryCost};
