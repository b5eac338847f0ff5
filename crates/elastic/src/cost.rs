//! Pricing elasticity: what a graceful departure and a re-partitioning cost.
//!
//! Two closed forms, both driven by the same quantities that drive every
//! other cost in the repo — edges, vertex images, replication factor:
//!
//! * **Evacuation** moves only the *masters* of a departing machine to
//!   surviving replicas (the mirrors already exist there; promotion is a
//!   routing-table update plus one state image per master). That is why a
//!   warned departure is so much cheaper than a crash: `gp_fault::
//!   recovery_cost` must re-fetch every lost edge and re-register every
//!   lost image, while evacuation ships `masters × VERTEX_IMAGE_BYTES`.
//! * **Re-ingress** replays the checkpointed (already parsed) edge stream
//!   through the partitioner onto the new machine set. It pays the full
//!   edge/mirror exchange and the per-edge placement work, but not the
//!   parse — checkpointed streams are binary.

use gp_cluster::{ClusterSpec, CostRates};
use gp_partition::Assignment;

/// The priced cost of gracefully evacuating one departing machine.
#[derive(Debug, Clone, PartialEq)]
pub struct EvacuationCost {
    /// Masters hosted by the departing machine (the partitions
    /// [`ClusterSpec::machine_of`] folds onto it).
    pub moved_masters: u64,
    /// Bytes shipped: one vertex state image per moved master.
    pub moved_bytes: f64,
    /// Wall-clock seconds: the departing NIC drains the images, then one
    /// promotion barrier.
    pub transfer_seconds: f64,
}

/// Price the graceful evacuation of `machine` under `assignment` on `spec`.
pub fn evacuation_cost(
    assignment: &Assignment,
    machine: u32,
    spec: &ClusterSpec,
) -> EvacuationCost {
    let mut moved_masters = 0u64;
    for (p, &m) in assignment.master_counts().iter().enumerate() {
        if spec.machine_of(p as u32) == machine {
            moved_masters += m;
        }
    }
    let moved_bytes = moved_masters as f64 * CostRates::VERTEX_IMAGE_BYTES as f64;
    let transfer_seconds = moved_bytes / spec.bandwidth_bytes_per_s + spec.latency_s;
    EvacuationCost {
        moved_masters,
        moved_bytes,
        transfer_seconds,
    }
}

/// Seconds to re-partition the whole graph onto `new_spec` by replaying the
/// checkpointed edge stream: placement work across the loaders, the
/// edge/mirror exchange over the new cluster's bisection, one barrier.
/// `total_images` should be the image count the *new* assignment would
/// create; callers that have not re-run ingress can pass the old count as
/// the deterministic stand-in (replication factors move little under ±k
/// machines — §6's RF-vs-partitions curves are flat at these deltas).
pub fn reingress_seconds(total_edges: u64, total_images: u64, new_spec: &ClusterSpec) -> f64 {
    let machines = new_spec.machines as f64;
    let cpu = total_edges as f64 / (machines * new_spec.loader_rate());
    let bytes = total_edges as f64 * CostRates::EDGE_WIRE_BYTES
        + total_images as f64 * CostRates::MIRROR_SETUP_BYTES;
    let net = bytes / (machines * new_spec.bandwidth_bytes_per_s);
    cpu + net + new_spec.latency_s * machines
}

#[cfg(test)]
mod tests {
    use super::*;
    use gp_fault::recovery_cost;
    use gp_partition::{PartitionContext, Strategy};

    fn assignment_for(strategy: Strategy, machines: u32) -> Assignment {
        let g = gp_gen::barabasi_albert(4_000, 8, 13);
        strategy
            .build()
            .partition(&g, &PartitionContext::new(machines))
            .assignment
    }

    #[test]
    fn every_master_evacuates_exactly_once() {
        let spec = ClusterSpec::local_9();
        let a = assignment_for(Strategy::Grid, spec.machines);
        let moved: u64 = (0..spec.machines)
            .map(|m| evacuation_cost(&a, m, &spec).moved_masters)
            .sum();
        assert_eq!(moved, a.num_vertices());
    }

    #[test]
    fn evacuation_undercuts_crash_recovery_on_every_machine() {
        // The structural fact the property suite leans on: masters are a
        // subset of images and images are priced higher per unit on the
        // recovery path, so a graceful exit is never dearer than a crash.
        let spec = ClusterSpec::local_9();
        for strategy in [Strategy::Random, Strategy::Oblivious, Strategy::Hdrf] {
            let a = assignment_for(strategy, spec.machines);
            for m in 0..spec.machines {
                let evac = evacuation_cost(&a, m, &spec);
                let crash = recovery_cost(&a, m, &spec);
                assert!(
                    evac.moved_bytes <= crash.refetch_bytes,
                    "{strategy:?} m{m}: evac {} vs crash {}",
                    evac.moved_bytes,
                    crash.refetch_bytes
                );
                assert!(evac.transfer_seconds <= crash.transfer_seconds);
            }
        }
    }

    #[test]
    fn reingress_speeds_up_on_more_machines_but_never_to_zero() {
        let small = ClusterSpec::local_9();
        let big = small.with_machines(18);
        let slow = reingress_seconds(1_000_000, 300_000, &small);
        let fast = reingress_seconds(1_000_000, 300_000, &big);
        // CPU and net halve; only the barrier term grows with machines.
        assert!(fast < slow, "fast {fast} vs slow {slow}");
        assert!(fast > 0.0);
    }

    #[test]
    fn reingress_scales_with_replication() {
        let spec = ClusterSpec::ec2_16();
        let lean = reingress_seconds(1_000_000, 150_000, &spec);
        let heavy = reingress_seconds(1_000_000, 900_000, &spec);
        assert!(heavy > lean);
    }
}
