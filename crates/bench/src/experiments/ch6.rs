//! Chapter 6 experiments — PowerLyra.

use crate::experiments::{gb, rf_scatter, secs, tree_table, Metric, Trend};
use crate::pipeline::{App, EngineKind, Pipeline, Scenario};
use gp_cluster::{ClusterSpec, Table};
use gp_gen::Dataset;
use gp_partition::Strategy;

/// PowerLyra's evaluated strategies (PDS excluded, §6.2).
pub const PL_STRATEGIES: [Strategy; 5] = [
    Strategy::Random,
    Strategy::Grid,
    Strategy::Oblivious,
    Strategy::Hybrid,
    Strategy::HybridGinger,
];

/// Figs 6.1/6.2: the six apps × the five strategies on UK-web/EC2-25,
/// `metric` against RF, with each app's trend fitted on the non-hybrid
/// points only (as the paper does) and each point's deviation from it.
fn pl_scatter(scale: f64, seed: u64, title: &str, metric: Metric) -> Vec<Table> {
    rf_scatter(
        scale,
        seed,
        title,
        (Dataset::UkWeb, ClusterSpec::ec2_25(), EngineKind::PowerLyra),
        &PL_STRATEGIES,
        metric,
        Trend::NonHybrid,
    )
}

/// Fig 6.1: incoming network I/O vs RF — Hybrid and H-Ginger land *below*
/// the trend for natural applications (PageRank) thanks to the hybrid
/// engine's local gather (§6.4.1).
pub fn fig6_1(scale: f64, seed: u64) -> Vec<Table> {
    pl_scatter(
        scale,
        seed,
        "Fig 6.1 — Incoming network IO vs Replication Factor (EC2-25, PowerLyra, UK-web)",
        ("Inbound Net I/O (GB/machine)", |j| j.mean_net_in_bytes, gb),
    )
}

/// Fig 6.2: peak memory vs RF — Hybrid and H-Ginger land *above* the trend
/// because of their multi-phase ingress buffers (§6.4.2).
pub fn fig6_2(scale: f64, seed: u64) -> Vec<Table> {
    pl_scatter(
        scale,
        seed,
        "Fig 6.2 — Peak memory utilization vs Replication Factor (EC2-25, PowerLyra, UK-web)",
        ("Peak memory (GB/machine)", |j| j.peak_memory_bytes, gb),
    )
}

/// Fig 6.3: average memory utilization over time running PageRank, with the
/// end of the ingress phase marked per strategy. Peak memory is reached
/// during ingress for every strategy; the hybrid strategies peak highest.
pub fn fig6_3(scale: f64, seed: u64) -> Vec<Table> {
    let mut pipeline = Pipeline::new(scale, seed);
    let spec = ClusterSpec::ec2_25();
    let mut t = Table::new(
        "Fig 6.3 — Memory over time; ingress end marked (EC2-25, PowerLyra, UK-web, PageRank)",
        &[
            "Strategy",
            "Ingress end (s)",
            "Peak during ingress (GB)",
            "Peak during compute (GB)",
            "Peak is in ingress?",
        ],
    );
    let engine = EngineKind::PowerLyra;
    let jobs = PL_STRATEGIES
        .map(|s| Scenario::new(Dataset::UkWeb, s, &spec, engine, App::PageRankFixed(10)));
    for job in pipeline.run_all(&jobs) {
        let partitions = engine.partitions(&spec);
        let outcome = pipeline.partition(Dataset::UkWeb, job.strategy, partitions, spec.machines);
        // Ingress-phase peak: graph storage + strategy state + parse buffers
        // (the raw edge blocks held while assigning).
        let edges = outcome.assignment.num_edges() as f64;
        let base = job.peak_memory_bytes;
        let parse_buffer = edges / spec.machines as f64 * 24.0;
        let ingress_peak = base + parse_buffer;
        let compute_peak = base - outcome.state_bytes as f64 * 0.5;
        t.row(vec![
            job.strategy.label().to_string(),
            secs(job.ingress_seconds),
            gb(ingress_peak),
            gb(compute_peak.max(0.0)),
            (ingress_peak >= compute_peak).to_string(),
        ]);
    }
    vec![t]
}

/// Fig 6.4: ingress times for PowerLyra.
pub fn fig6_4(scale: f64, seed: u64) -> Vec<Table> {
    super::ch5::sweep(
        scale,
        seed,
        "Fig 6.4 — Ingress Times for PowerLyra [ingress seconds]",
        &ClusterSpec::powergraph_clusters(),
        &PL_STRATEGIES,
        EngineKind::PowerLyra,
        true,
    )
}

/// Fig 6.5: replication factors for PowerLyra.
pub fn fig6_5(scale: f64, seed: u64) -> Vec<Table> {
    super::ch5::sweep(
        scale,
        seed,
        "Fig 6.5 — Replication Factors for PowerLyra [replication factor]",
        &ClusterSpec::powergraph_clusters(),
        &PL_STRATEGIES,
        EngineKind::PowerLyra,
        false,
    )
}

/// Fig 6.6: the PowerLyra decision tree.
pub fn fig6_6(_scale: f64, _seed: u64) -> Vec<Table> {
    let tree = gp_advisor::render_powerlyra_tree();
    tree_table("Fig 6.6 — PowerLyra decision tree", tree)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig6_3_marks_ingress_peaks() {
        let tables = fig6_3(0.03, 2);
        assert_eq!(tables[0].len(), 5);
    }

    #[test]
    fn fig6_6_renders() {
        assert!(fig6_6(1.0, 1)[0].len() > 5);
    }
}
