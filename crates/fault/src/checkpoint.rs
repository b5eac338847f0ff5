//! Checkpoint policies and their cost model.
//!
//! Synchronous engines checkpoint at superstep granularity: after every
//! `interval` supersteps, each machine snapshots the vertex state it
//! masters and replicates the snapshot to a peer machine (HDFS-style,
//! replication factor 2). The write shows up as real load — bytes through
//! the peer's NIC, a stall on the barrier — so checkpointing trades steady
//! overhead against replay work after a crash.

use gp_cluster::{ClusterSpec, CostRates};

/// How the snapshot write interacts with the superstep barrier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CheckpointMode {
    /// The barrier waits for the snapshot to be durable (Pregel's model).
    #[default]
    Sync,
    /// Copy-on-write snapshot drains in the background; only a fraction of
    /// the write stalls the barrier.
    Async,
}

impl CheckpointMode {
    /// Fraction of the snapshot transfer time that stalls the barrier.
    pub fn stall_fraction(&self) -> f64 {
        match self {
            CheckpointMode::Sync => 1.0,
            CheckpointMode::Async => 0.15,
        }
    }
}

/// When and how to checkpoint.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CheckpointPolicy {
    /// Checkpoint after every `interval` supersteps; 0 disables.
    pub interval: u32,
    /// Barrier interaction.
    pub mode: CheckpointMode,
}

impl CheckpointPolicy {
    /// No checkpoints.
    pub fn disabled() -> Self {
        CheckpointPolicy::default()
    }

    /// Synchronous checkpoint every `interval` supersteps.
    pub fn every(interval: u32) -> Self {
        CheckpointPolicy {
            interval,
            mode: CheckpointMode::Sync,
        }
    }

    /// Switch to asynchronous writes.
    pub fn asynchronous(mut self) -> Self {
        self.mode = CheckpointMode::Async;
        self
    }

    /// True when checkpoints are taken.
    pub fn is_enabled(&self) -> bool {
        self.interval > 0
    }

    /// Does a checkpoint complete at the end of 0-based executed step index
    /// `step_index`? (With interval 3: after indexes 2, 5, 8, ...)
    pub fn due_after(&self, step_index: usize) -> bool {
        self.is_enabled() && (step_index + 1).is_multiple_of(self.interval as usize)
    }

    /// Young's approximation for the optimal checkpoint interval:
    /// `sqrt(2 * C * MTBF)`, in supersteps, where `C` is the checkpoint
    /// cost and `MTBF` the mean supersteps between failures. Clamped to at
    /// least 1.
    pub fn optimal_interval(checkpoint_cost_steps: f64, mtbf_steps: f64) -> u32 {
        ((2.0 * checkpoint_cost_steps * mtbf_steps).sqrt().round() as u32).max(1)
    }
}

/// Per-machine snapshot sizes for one checkpoint, derived from the master
/// placement: each machine persists the state of the vertices it masters.
pub fn snapshot_bytes_per_machine(master_counts: &[u64], spec: &ClusterSpec) -> Vec<f64> {
    let mut per = vec![0.0f64; spec.machines as usize];
    for (p, &masters) in master_counts.iter().enumerate() {
        per[spec.machine_of(p as u32) as usize] +=
            masters as f64 * CostRates::VERTEX_IMAGE_BYTES as f64;
    }
    per
}

/// Barrier stall from one checkpoint: the slowest machine's snapshot
/// replicated over its NIC, scaled by the mode's stall fraction, plus a
/// commit round-trip.
pub fn checkpoint_stall_seconds(
    snapshot_bytes: &[f64],
    policy: &CheckpointPolicy,
    spec: &ClusterSpec,
) -> f64 {
    let slowest = snapshot_bytes.iter().copied().fold(0.0, f64::max);
    slowest / spec.bandwidth_bytes_per_s * policy.mode.stall_fraction() + 2.0 * spec.latency_s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_policy_never_due() {
        let p = CheckpointPolicy::disabled();
        assert!(!p.is_enabled());
        for i in 0..100 {
            assert!(!p.due_after(i));
        }
    }

    #[test]
    fn interval_schedule() {
        let p = CheckpointPolicy::every(3);
        let due: Vec<usize> = (0..10).filter(|&i| p.due_after(i)).collect();
        assert_eq!(due, vec![2, 5, 8]);
    }

    #[test]
    fn async_stalls_less_than_sync() {
        let spec = ClusterSpec::local_9();
        let bytes = vec![1e6; 9];
        let sync = checkpoint_stall_seconds(&bytes, &CheckpointPolicy::every(2), &spec);
        let asynch =
            checkpoint_stall_seconds(&bytes, &CheckpointPolicy::every(2).asynchronous(), &spec);
        assert!(asynch < sync);
        assert!(asynch > 0.0);
    }

    #[test]
    fn snapshot_bytes_fold_partitions_onto_machines() {
        // 4 partitions on 2 machines: machine 0 masters p0+p2.
        let spec = ClusterSpec::local_9().with_machines(2);
        let per = snapshot_bytes_per_machine(&[10, 20, 30, 40], &spec);
        assert_eq!(per.len(), 2);
        assert_eq!(per[0], 40.0 * CostRates::VERTEX_IMAGE_BYTES as f64);
        assert_eq!(per[1], 60.0 * CostRates::VERTEX_IMAGE_BYTES as f64);
    }

    #[test]
    fn youngs_interval_grows_with_mtbf() {
        let short = CheckpointPolicy::optimal_interval(0.5, 10.0);
        let long = CheckpointPolicy::optimal_interval(0.5, 1000.0);
        assert!(long > short);
        assert!(CheckpointPolicy::optimal_interval(0.0, 0.0) >= 1);
    }
}
