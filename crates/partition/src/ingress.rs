//! Distributed-ingress accounting.
//!
//! The paper's **ingress time** metric is "the time it takes to load a graph
//! to memory (how fast a partitioning scheme is)" (§4.3) — parsing + strategy
//! decisions + shipping each edge to its partition + building the local
//! replicas. [`IngressReport`] gathers the raw quantities from a
//! [`crate::PartitionOutcome`]; the cluster model
//! (`gp-cluster`) converts them to simulated seconds.

use crate::partitioner::PartitionOutcome;

/// Raw data volumes moved during ingress.
#[derive(Debug, Clone, PartialEq)]
pub struct IngressVolumes {
    /// Edges that had to travel from the loader that read them to the
    /// machine that owns their partition (a loader keeps an edge "for free"
    /// if it owns the target partition).
    pub edges_shipped: u64,
    /// Vertex images created across the cluster (sum of replica counts).
    pub replicas_created: u64,
    /// Mirror count (replicas minus masters) — each mirror needs a
    /// master↔mirror registration exchange.
    pub mirrors_created: u64,
}

/// Everything the cluster model needs to price an ingress run.
#[derive(Debug, Clone)]
pub struct IngressReport {
    /// Strategy label.
    pub strategy: &'static str,
    /// Simulated per-loader work units (max drives wall time).
    pub loader_work: Vec<f64>,
    /// Passes over the input.
    pub passes: u32,
    /// Peak strategy-private state bytes (per loader).
    pub state_bytes: u64,
    /// Data volumes.
    pub volumes: IngressVolumes,
    /// Resulting replication factor (for convenience in reports).
    pub replication_factor: f64,
    /// Edge-count balance across partitions (max/mean).
    pub edge_imbalance: f64,
}

impl IngressReport {
    /// Derive a report from a partitioning outcome. `loaders` is the number
    /// of parallel loading machines; edges are assumed spread round-robin
    /// over loader blocks as in §5.3, so an edge ships with probability
    /// `(loaders - 1) / loaders` scaled to the partition count when
    /// partitions outnumber loaders (GraphX).
    pub fn from_outcome(strategy: &'static str, outcome: &PartitionOutcome, loaders: u32) -> Self {
        let a = &outcome.assignment;
        let loaders = loaders.max(1) as u64;
        // A loader hosts `num_parts / loaders` partitions; an edge read by a
        // loader stays local iff its partition is one the loader hosts.
        let local_fraction = 1.0 / loaders as f64;
        let shipped = (a.num_edges() as f64 * (1.0 - local_fraction)).round() as u64;
        IngressReport {
            strategy,
            loader_work: outcome.loader_work.clone(),
            passes: outcome.passes,
            state_bytes: outcome.state_bytes,
            volumes: IngressVolumes {
                edges_shipped: shipped,
                replicas_created: a.total_images() as u64,
                mirrors_created: a.total_mirrors(),
            },
            replication_factor: a.replication_factor(),
            edge_imbalance: a.balance().imbalance,
        }
    }

    /// The critical-path work units (slowest loader).
    pub fn max_loader_work(&self) -> f64 {
        self.loader_work.iter().copied().fold(0.0, f64::max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::partitioner::{PartitionContext, Partitioner};
    use crate::strategies::{Hybrid, Oblivious};
    use crate::Strategy;

    #[test]
    fn volumes_count_replicas_and_mirrors() {
        let g = gp_gen::erdos_renyi(1_000, 8_000, 1);
        let ctx = PartitionContext::new(4);
        let out = Strategy::Random.build().partition(&g, &ctx);
        let report = IngressReport::from_outcome("Random", &out, 4);
        let v = &report.volumes;
        assert!(v.replicas_created >= g.num_vertices());
        assert_eq!(
            v.mirrors_created,
            v.replicas_created - g.num_vertices(),
            "every vertex of this dense graph has edges"
        );
        // 3/4 of edges ship off-loader.
        assert_eq!(
            v.edges_shipped,
            (g.num_edges() as f64 * 0.75).round() as u64
        );
    }

    #[test]
    fn max_loader_work_is_critical_path() {
        let g = gp_gen::erdos_renyi(1_000, 8_000, 2);
        let out = Oblivious.partition(&g, &PartitionContext::new(4));
        let report = IngressReport::from_outcome("Oblivious", &out, 4);
        let max = report.max_loader_work();
        assert!(report.loader_work.iter().all(|&w| w <= max));
        assert!(max > 0.0);
    }

    #[test]
    fn heuristic_work_exceeds_hash_work_on_power_law() {
        // The Fig 5.7 mechanism: HDRF/Oblivious ingress slower than hashing
        // on skewed graphs.
        let g = gp_gen::barabasi_albert(10_000, 8, 3);
        let ctx = PartitionContext::new(9);
        let hash =
            IngressReport::from_outcome("Random", &Strategy::Random.build().partition(&g, &ctx), 9);
        let greedy = IngressReport::from_outcome("Oblivious", &Oblivious.partition(&g, &ctx), 9);
        assert!(greedy.max_loader_work() > 1.2 * hash.max_loader_work());
    }

    #[test]
    fn multi_pass_strategies_report_their_passes() {
        let g = gp_gen::erdos_renyi(500, 3_000, 4);
        let out = Hybrid::default().partition(&g, &PartitionContext::new(4));
        let report = IngressReport::from_outcome("Hybrid", &out, 4);
        assert_eq!(report.passes, 2);
    }

    #[test]
    fn single_loader_ships_nothing() {
        let g = gp_gen::erdos_renyi(200, 1_000, 5);
        let out = Strategy::Random
            .build()
            .partition(&g, &PartitionContext::new(4).with_loaders(1));
        let report = IngressReport::from_outcome("Random", &out, 1);
        assert_eq!(report.volumes.edges_shipped, 0);
    }

    #[test]
    fn partitioning_survives_chunking_boundaries() {
        // End-to-end boundary check: empty, |E| < threads, |E| % threads != 0
        // all produce the same assignment at 1 and 7 threads.
        use gp_core::EdgeList;
        for pairs in [
            Vec::new(),
            vec![(0u64, 1u64), (1, 2), (2, 0)], // |E| = 3 < 7 threads
            (0..23u64).map(|i| (i, i + 1)).collect(), // 23 % 7 != 0
        ] {
            let g = EdgeList::from_pairs(pairs);
            let seq = Strategy::Random
                .build()
                .partition(&g, &PartitionContext::new(4));
            let par = Strategy::Random
                .build()
                .partition(&g, &PartitionContext::new(4).with_threads(7));
            assert_eq!(
                seq.assignment.edge_partitions(),
                par.assignment.edge_partitions()
            );
        }
    }
}
