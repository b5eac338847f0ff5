//! Cost models: raw quantities → simulated seconds and bytes.
//!
//! Calibration targets the paper's *shapes*, not its absolute numbers (we do
//! not own m4.2xlarge instances): hash strategies ingest faster than greedy
//! ones, multi-pass strategies pay extra, and compute/network/memory grow
//! linearly with replication factor (Figs 5.3–5.5).

use crate::spec::ClusterSpec;
use gp_partition::IngressReport;

/// The simulated wire and storage formats: one fixed set of byte sizes
/// (associated constants) and the prices built from them.
#[derive(Debug, Clone, Copy, Default)]
pub struct CostRates;

impl CostRates {
    /// Bytes to ship one edge to its partition during ingress.
    pub const EDGE_WIRE_BYTES: f64 = 20.0;
    /// Bytes for one mirror-registration exchange during ingress.
    pub const MIRROR_SETUP_BYTES: f64 = 48.0;
    /// Bytes per gather/scatter value on the wire (partial aggregate or
    /// vertex-state sync).
    pub const VALUE_WIRE_BYTES: f64 = 24.0;
    /// In-memory bytes per stored edge.
    pub const EDGE_STORE_BYTES: u64 = 32;
    /// In-memory bytes per vertex image (master or mirror) — vertex state,
    /// routing entries, indices.
    pub const VERTEX_IMAGE_BYTES: u64 = 96;

    /// Simulated ingress wall time in seconds: the slowest loader's
    /// parse+assign work, plus the edge/mirror exchange over the cluster
    /// bisection, plus a barrier per pass.
    pub fn ingress_seconds(&self, report: &IngressReport, spec: &ClusterSpec) -> f64 {
        let cpu = report.max_loader_work() / spec.loader_rate();
        let bytes = report.volumes.edges_shipped as f64 * Self::EDGE_WIRE_BYTES
            + report.volumes.mirrors_created as f64 * Self::MIRROR_SETUP_BYTES;
        let net = bytes / (spec.machines as f64 * spec.bandwidth_bytes_per_s);
        let barriers = report.passes as f64 * (spec.latency_s * spec.machines as f64);
        cpu + net + barriers
    }

    /// Seconds to move `bytes` through each machine's NIC, given traffic is
    /// spread over `machines` links.
    pub fn network_seconds(&self, bytes: f64, spec: &ClusterSpec) -> f64 {
        bytes / (spec.machines as f64 * spec.bandwidth_bytes_per_s)
    }

    /// Bytes a machine needs to host `edges` edges and `images` vertex
    /// images, plus `state_bytes` of strategy-private ingress state.
    pub fn machine_bytes(&self, edges: u64, images: u64, state_bytes: u64) -> u64 {
        edges * Self::EDGE_STORE_BYTES + images * Self::VERTEX_IMAGE_BYTES + state_bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gp_partition::{PartitionContext, Strategy};

    fn report(strategy: Strategy, edges: usize) -> IngressReport {
        let g = gp_gen::erdos_renyi(1_000, edges, 3);
        let ctx = PartitionContext::new(9);
        let out = strategy.build().partition(&g, &ctx);
        IngressReport::from_outcome(strategy.label(), &out, 9)
    }

    #[test]
    fn greedy_ingress_costs_more_than_hash_ingress() {
        let spec = ClusterSpec::local_9();
        let hash = CostRates.ingress_seconds(&report(Strategy::Random, 20_000), &spec);
        let greedy = CostRates.ingress_seconds(&report(Strategy::Oblivious, 20_000), &spec);
        assert!(greedy > hash, "greedy {greedy} vs hash {hash}");
    }

    #[test]
    fn ingress_seconds_scale_with_edges() {
        // Zero the per-pass barrier so the constant term doesn't mask the
        // linear scaling at unit-test sizes.
        let mut spec = ClusterSpec::local_9();
        spec.latency_s = 0.0;
        // The vertex count (and hence mirror-setup volume) is fixed, so the
        // ratio is below 10x even though edges scale 10x.
        let small = CostRates.ingress_seconds(&report(Strategy::Random, 5_000), &spec);
        let large = CostRates.ingress_seconds(&report(Strategy::Random, 50_000), &spec);
        assert!(large > 3.0 * small, "large {large} vs small {small}");
    }

    #[test]
    fn network_seconds_inverse_in_bandwidth() {
        let mut fast = ClusterSpec::local_9();
        fast.bandwidth_bytes_per_s *= 2.0;
        let slow = ClusterSpec::local_9();
        let bytes = 1e9;
        assert!(CostRates.network_seconds(bytes, &fast) < CostRates.network_seconds(bytes, &slow));
    }

    #[test]
    fn memory_grows_with_images() {
        let low = CostRates.machine_bytes(1000, 500, 0);
        let high = CostRates.machine_bytes(1000, 2000, 0);
        assert!(high > low);
    }
}
