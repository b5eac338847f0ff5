//! Pricing a crash: what it costs to bring a replacement machine back.
//!
//! When machine `m` dies, every partition folded onto it
//! ([`ClusterSpec::machine_of`]) is gone. A cold spare must re-fetch those
//! partitions' edges from the peers' durable copies and re-register every
//! vertex image the partitions hosted — so recovery traffic is
//! **proportional to the replication the partitioning strategy put on the
//! dead machine**. High-RF strategies (Random) pay more to recover than
//! low-RF ones (Hybrid, Oblivious); this is the fault-tolerance face of the
//! paper's headline result that replication factor drives every other cost.

use gp_cluster::{ClusterSpec, CostRates};
use gp_partition::Assignment;

/// The priced cost of recovering one dead machine.
#[derive(Debug, Clone, PartialEq)]
pub struct RecoveryCost {
    /// Edges that lived on the dead machine.
    pub lost_edges: u64,
    /// Vertex images (masters + mirrors) that lived on the dead machine.
    pub lost_images: u64,
    /// Bytes the replacement machine must ingest to rebuild them.
    pub refetch_bytes: f64,
    /// Wall-clock seconds of the re-fetch: the replacement's NIC is the
    /// bottleneck, plus a cluster-wide re-registration barrier.
    pub transfer_seconds: f64,
}

/// Price the loss of `machine` under `assignment` on `spec`.
pub fn recovery_cost(assignment: &Assignment, machine: u32, spec: &ClusterSpec) -> RecoveryCost {
    let images = assignment.replica_counts();
    let mut lost_edges = 0u64;
    let mut lost_images = 0u64;
    for (p, (&e, &i)) in assignment.edge_counts().iter().zip(&images).enumerate() {
        if spec.machine_of(p as u32) == machine {
            lost_edges += e;
            lost_images += i;
        }
    }
    let refetch_bytes = lost_edges as f64 * CostRates::EDGE_WIRE_BYTES
        + lost_images as f64 * (CostRates::MIRROR_SETUP_BYTES + CostRates::VALUE_WIRE_BYTES);
    let transfer_seconds =
        refetch_bytes / spec.bandwidth_bytes_per_s + spec.latency_s * spec.machines as f64;
    RecoveryCost {
        lost_edges,
        lost_images,
        refetch_bytes,
        transfer_seconds,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gp_partition::{PartitionContext, Strategy};

    fn assignment_for(strategy: Strategy, machines: u32) -> Assignment {
        let g = gp_gen::barabasi_albert(4_000, 8, 13);
        strategy
            .build()
            .partition(&g, &PartitionContext::new(machines))
            .assignment
    }

    #[test]
    fn recovery_scales_with_replication_factor() {
        // The edge term is identical for every strategy (all edges live
        // somewhere), so total recovery traffic must order exactly by each
        // strategy's replication factor on the same graph.
        let spec = ClusterSpec::local_9();
        let mut measured: Vec<(f64, f64)> = [
            Strategy::Random,
            Strategy::Grid,
            Strategy::Oblivious,
            Strategy::Hdrf,
        ]
        .into_iter()
        .map(|s| {
            let a = assignment_for(s, spec.machines);
            let bytes: f64 = (0..spec.machines)
                .map(|m| recovery_cost(&a, m, &spec).refetch_bytes)
                .sum();
            (a.replication_factor(), bytes)
        })
        .collect();
        measured.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap());
        assert!(
            measured.windows(2).all(|w| w[0].1 <= w[1].1),
            "recovery bytes must be monotone in RF: {measured:?}"
        );
        let (lo, hi) = (measured.first().unwrap(), measured.last().unwrap());
        assert!(
            lo.0 < hi.0 && lo.1 < hi.1,
            "strategies should actually differ: {measured:?}"
        );
    }

    #[test]
    fn every_edge_is_lost_exactly_once() {
        let spec = ClusterSpec::local_9();
        let a = assignment_for(Strategy::Grid, spec.machines);
        let lost: u64 = (0..spec.machines)
            .map(|m| recovery_cost(&a, m, &spec).lost_edges)
            .sum();
        assert_eq!(lost, a.num_edges() as u64);
    }

    #[test]
    fn transfer_time_positive_even_for_empty_machine() {
        // Latency barrier applies even if the machine hosted nothing.
        let spec = ClusterSpec::local_9();
        let g = gp_core::EdgeList::from_pairs(vec![(0, 1)]);
        let a = Strategy::Random
            .build()
            .partition(&g, &PartitionContext::new(9))
            .assignment;
        let costs: Vec<RecoveryCost> = (0..9).map(|m| recovery_cost(&a, m, &spec)).collect();
        assert!(costs.iter().all(|c| c.transfer_seconds > 0.0));
        assert!(costs.iter().any(|c| c.lost_edges == 0));
    }

    #[test]
    fn more_partitions_than_machines_fold() {
        // 18 partitions on 9 machines: each machine loses two partitions.
        let spec = ClusterSpec::local_9();
        let a = assignment_for(Strategy::Random, 18);
        let lost: u64 = (0..spec.machines)
            .map(|m| recovery_cost(&a, m, &spec).lost_edges)
            .sum();
        assert_eq!(lost, a.num_edges() as u64);
    }
}
