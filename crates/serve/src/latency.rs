//! Query latency model: how long a read takes on the simulated cluster.
//!
//! Latency prices the same three resources the ingress/superstep cost model
//! prices — compute (work units at the machine's rate), synchronization
//! (round trips at the cluster's one-way latency), and wire bytes (values at
//! the configured bandwidth). A state read pays one unit of lookup work and,
//! when the vertex's master lives off the query's home partition, one round
//! trip plus one value on the wire. A k-hop traversal pays per-visited-vertex
//! work, one round trip per hop when the frontier spans partitions, and ships
//! every visited value home. While a repair is in flight queries contend with
//! the repair traffic, modeled as a constant multiplier on the steady-state
//! quote.

use gp_cluster::{ClusterSpec, CostRates};

/// Lookup work units for one vertex-state read.
pub const STATE_READ_WORK: f64 = 1.0;
/// Traversal work units per vertex visited by a k-hop query.
pub const KHOP_VISIT_WORK: f64 = 0.5;
/// Steady-state latency multiplier while a rebalance/repartition is in
/// flight and queries contend with repair traffic.
pub const DEGRADED_FACTOR: f64 = 3.0;

/// Histogram bucket bounds for query latencies, in seconds: a 1-2-5 ladder
/// from 1 µs to 10 s. Shared by every query-class histogram so reports line
/// up column-for-column.
pub const LATENCY_BOUNDS_S: [f64; 22] = [
    1e-6, 2e-6, 5e-6, 1e-5, 2e-5, 5e-5, 1e-4, 2e-4, 5e-4, 1e-3, 2e-3, 5e-3, 1e-2, 2e-2, 5e-2, 1e-1,
    2e-1, 5e-1, 1.0, 2.0, 5.0, 10.0,
];

/// Latency calculator over one cluster spec.
#[derive(Debug, Clone)]
pub struct LatencyModel {
    spec: ClusterSpec,
}

impl LatencyModel {
    /// Model over `spec`; values go on the wire at
    /// `CostRates::VALUE_WIRE_BYTES` each.
    pub fn new(spec: ClusterSpec) -> Self {
        LatencyModel { spec }
    }

    /// Seconds for one vertex-state read. `remote` is whether the vertex's
    /// master lives off the query's home partition.
    pub fn state_read_seconds(&self, remote: bool) -> f64 {
        let mut t = STATE_READ_WORK / self.spec.work_units_per_s;
        if remote {
            t += 2.0 * self.spec.latency_s
                + CostRates::VALUE_WIRE_BYTES / self.spec.bandwidth_bytes_per_s;
        }
        t
    }

    /// Seconds for a k-hop traversal that visited `visited` vertices.
    /// `distributed` is whether their masters span more than one partition:
    /// then each hop is one synchronization round and every visited value
    /// ships back to the home partition. How many partitions they span
    /// never changes the price.
    pub fn k_hop_seconds(&self, visited: usize, distributed: bool, hops: u32) -> f64 {
        let mut t = visited as f64 * KHOP_VISIT_WORK / self.spec.work_units_per_s;
        if distributed {
            t += hops as f64 * 2.0 * self.spec.latency_s
                + visited as f64 * CostRates::VALUE_WIRE_BYTES / self.spec.bandwidth_bytes_per_s;
        }
        t
    }

    /// Quote under contention with an in-flight repair.
    pub fn degraded(&self, steady_seconds: f64) -> f64 {
        steady_seconds * DEGRADED_FACTOR
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model() -> LatencyModel {
        LatencyModel::new(ClusterSpec::local_9())
    }

    #[test]
    fn bounds_are_strictly_increasing() {
        for w in LATENCY_BOUNDS_S.windows(2) {
            assert!(w[0] < w[1]);
        }
    }

    #[test]
    fn remote_reads_cost_more_than_local() {
        let m = model();
        let local = m.state_read_seconds(false);
        let remote = m.state_read_seconds(true);
        assert!(remote > local);
        // The gap is exactly one round trip plus one value on the wire.
        let spec = ClusterSpec::local_9();
        let expect = 2.0 * spec.latency_s + 24.0 / spec.bandwidth_bytes_per_s;
        assert!((remote - local - expect).abs() < 1e-15);
    }

    #[test]
    fn khop_grows_with_visits_hops_and_spread() {
        let m = model();
        assert!(m.k_hop_seconds(100, true, 2) > m.k_hop_seconds(10, true, 2));
        assert!(m.k_hop_seconds(10, true, 2) > m.k_hop_seconds(10, true, 1));
        assert!(m.k_hop_seconds(10, true, 1) > m.k_hop_seconds(10, false, 1));
    }

    #[test]
    fn single_partition_khop_pays_no_network() {
        let m = model();
        let spec = ClusterSpec::local_9();
        let expect = 10.0 * KHOP_VISIT_WORK / spec.work_units_per_s;
        assert!((m.k_hop_seconds(10, false, 2) - expect).abs() < 1e-15);
    }

    #[test]
    fn degraded_is_a_constant_multiplier() {
        let m = model();
        let steady = m.state_read_seconds(true);
        assert_eq!(m.degraded(steady), steady * DEGRADED_FACTOR);
    }
}
