//! Cluster descriptions — Table 4.1 as code.

/// A homogeneous cluster of machines.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterSpec {
    /// Human-readable name ("Local-9", "EC2-25", ...).
    pub name: &'static str,
    /// Machine count.
    pub machines: u32,
    /// Hardware threads per machine (Table 4.1 vCPUs).
    pub vcpus: u32,
    /// RAM per machine in bytes.
    pub memory_bytes: u64,
    /// Per-machine network bandwidth in bytes/second.
    pub bandwidth_bytes_per_s: f64,
    /// One-way network latency in seconds (per barrier/sync round).
    pub latency_s: f64,
    /// Simulated-work units one core retires per second. The rates (and
    /// bandwidths) are scaled ~1000x below the physical hardware so that the
    /// ~1000x-scaled-down dataset analogues produce times and traffic in the
    /// same ranges the paper reports for the full datasets — the simulation
    /// preserves *shape*; see DESIGN.md.
    pub work_units_per_s: f64,
}

impl ClusterSpec {
    /// The local 9-machine cluster (perfect square for Grid): 64 GB RAM,
    /// 16 vCPUs (2× 4-core Xeon 5620 with hyperthreading).
    pub fn local_9() -> Self {
        ClusterSpec {
            name: "Local-9",
            machines: 9,
            vcpus: 16,
            memory_bytes: 64 << 30,
            bandwidth_bytes_per_s: 117e3, // 1 GbE, scaled (see work_units_per_s)
            latency_s: 150e-6,
            work_units_per_s: 7e3,
        }
    }

    /// The local 10-machine cluster used for GraphX (§7.3).
    pub fn local_10() -> Self {
        ClusterSpec {
            name: "Local-10",
            machines: 10,
            ..Self::local_9()
        }
    }

    /// EC2 cluster of 16 m4.2xlarge: 32 GB RAM, 8 vCPUs (E5-2676 v3).
    pub fn ec2_16() -> Self {
        ClusterSpec {
            name: "EC2-16",
            machines: 16,
            vcpus: 8,
            memory_bytes: 32 << 30,
            bandwidth_bytes_per_s: 125e3, // ≈1 Gbps "high" tier, scaled
            latency_s: 250e-6,
            work_units_per_s: 8e3,
        }
    }

    /// EC2 cluster of 25 m4.2xlarge — the paper's largest setting.
    pub fn ec2_25() -> Self {
        ClusterSpec {
            name: "EC2-25",
            machines: 25,
            ..Self::ec2_16()
        }
    }

    /// The three clusters used for PowerGraph/PowerLyra (§4.1).
    pub fn powergraph_clusters() -> [ClusterSpec; 3] {
        [Self::local_9(), Self::ec2_16(), Self::ec2_25()]
    }

    /// The same hardware with a different machine count — what a mid-job
    /// scale-out/scale-in leaves behind. The name is kept (the fleet did not
    /// change tiers), so derived specs stay `'static`-friendly; a zero
    /// request is clamped to one machine (a cluster cannot scale to nothing).
    pub fn with_machines(&self, machines: u32) -> Self {
        ClusterSpec {
            machines: machines.max(1),
            ..self.clone()
        }
    }

    /// Work units per second one machine retires on its compute threads;
    /// PowerGraph uses "two less than the number of cores" (§5.3).
    pub fn compute_rate(&self) -> f64 {
        self.vcpus.saturating_sub(2).max(1) as f64 * self.work_units_per_s
    }

    /// Ingress parsing rate per loader: loading is parallel over machines
    /// but bottlenecked on a single parse thread plus disk I/O and
    /// serialization, so a loader retires work well below one compute core's
    /// rate. This is what makes the ingress phase dominate short jobs
    /// (Table 5.1: PageRank spends more time loading UK-web than computing).
    pub fn loader_rate(&self) -> f64 {
        self.work_units_per_s * 0.45
    }

    /// Machine hosting partition `p`: partitions fold onto machines
    /// round-robin, so a machine hosts every partition congruent to it.
    pub fn machine_of(&self, p: u32) -> u32 {
        p % self.machines
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_match_table_4_1() {
        let l9 = ClusterSpec::local_9();
        assert_eq!(l9.machines, 9);
        assert_eq!(l9.vcpus, 16);
        assert_eq!(l9.memory_bytes, 64 << 30);
        let e25 = ClusterSpec::ec2_25();
        assert_eq!(e25.machines, 25);
        assert_eq!(e25.vcpus, 8);
        assert_eq!(e25.memory_bytes, 32 << 30);
        assert_eq!(ClusterSpec::local_10().machines, 10);
        assert_eq!(ClusterSpec::ec2_16().machines, 16);
    }

    #[test]
    fn compute_rate_runs_on_cores_minus_two() {
        let (l9, e16) = (ClusterSpec::local_9(), ClusterSpec::ec2_16());
        assert_eq!(l9.compute_rate(), 14.0 * l9.work_units_per_s);
        assert_eq!(e16.compute_rate(), 6.0 * e16.work_units_per_s);
    }
}
