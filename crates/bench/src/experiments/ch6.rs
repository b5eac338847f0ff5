//! Chapter 6 experiments — PowerLyra.

use crate::experiments::{gb, secs};
use crate::pipeline::{App, EngineKind, Pipeline, Scenario};
use crate::{linear_fit, pearson};
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

fn is_hybrid(s: Strategy) -> bool {
    matches!(s, Strategy::Hybrid | Strategy::HybridGinger)
}

/// Figs 6.1/6.2 share a driver: scatter a metric against RF, fitting the
/// trend line on the *non-hybrid* points only (as the paper does) and
/// reporting each hybrid point's deviation from that trend.
fn rf_scatter_with_hybrid_deviation(
    scale: f64,
    seed: u64,
    title: &str,
    metric_header: &str,
    metric: impl Fn(&crate::pipeline::JobResult) -> f64,
    fmt: impl Fn(f64) -> String,
) -> Vec<Table> {
    let mut pipeline = Pipeline::new(scale, seed);
    let spec = ClusterSpec::ec2_25();
    let mut t = Table::new(
        title.to_string(),
        &["App", "Strategy", "RF", metric_header, "vs trend"],
    );
    let mut trend = Table::new(
        format!("{title} — trend fitted on non-hybrid points"),
        &["App", "slope", "intercept", "pearson r (non-hybrid)"],
    );
    for app in App::paper_set() {
        let jobs: Vec<(Strategy, crate::pipeline::JobResult)> = PL_STRATEGIES
            .iter()
            .map(|&s| {
                (
                    s,
                    pipeline.run(&Scenario::new(
                        Dataset::UkWeb,
                        s,
                        &spec,
                        EngineKind::PowerLyra,
                        app,
                    )),
                )
            })
            .collect();
        let base_points: Vec<(f64, f64)> = jobs
            .iter()
            .filter(|(s, _)| !is_hybrid(*s))
            .map(|(_, j)| (j.replication_factor, metric(j)))
            .collect();
        let (intercept, slope) = linear_fit(&base_points);
        for (s, j) in &jobs {
            let y = metric(j);
            let predicted = intercept + slope * j.replication_factor;
            let deviation = if predicted.abs() > 1e-12 {
                y / predicted
            } else {
                1.0
            };
            t.row(vec![
                app.label().to_string(),
                s.label().to_string(),
                format!("{:.2}", j.replication_factor),
                fmt(y),
                format!("{deviation:.2}x"),
            ]);
        }
        trend.row(vec![
            app.label().to_string(),
            format!("{slope:.3e}"),
            format!("{intercept:.3e}"),
            format!("{:.3}", pearson(&base_points)),
        ]);
    }
    vec![t, trend]
}

/// Fig 6.1: incoming network I/O vs RF — Hybrid and H-Ginger land *below*
/// the trend for natural applications (PageRank) thanks to the hybrid
/// engine's local gather (§6.4.1).
pub fn fig6_1(scale: f64, seed: u64) -> Vec<Table> {
    rf_scatter_with_hybrid_deviation(
        scale,
        seed,
        "Fig 6.1 — Incoming network IO vs Replication Factor (EC2-25, PowerLyra, UK-web)",
        "Inbound Net I/O (GB/machine)",
        |j| j.mean_net_in_bytes,
        gb,
    )
}

/// Fig 6.2: peak memory vs RF — Hybrid and H-Ginger land *above* the trend
/// because of their multi-phase ingress buffers (§6.4.2).
pub fn fig6_2(scale: f64, seed: u64) -> Vec<Table> {
    rf_scatter_with_hybrid_deviation(
        scale,
        seed,
        "Fig 6.2 — Peak memory utilization vs Replication Factor (EC2-25, PowerLyra, UK-web)",
        "Peak memory (GB/machine)",
        |j| j.peak_memory_bytes,
        gb,
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
    for strategy in PL_STRATEGIES {
        let job = pipeline.run(&Scenario::new(
            Dataset::UkWeb,
            strategy,
            &spec,
            EngineKind::PowerLyra,
            App::PageRankFixed(10),
        ));
        let partitions = EngineKind::PowerLyra.partitions(&spec);
        let outcome = pipeline.partition(Dataset::UkWeb, strategy, partitions, spec.machines);
        // Ingress-phase peak: graph storage + strategy state + parse buffers
        // (the raw edge blocks held while assigning).
        let edges = outcome.assignment.num_edges() as f64;
        let base = job.peak_memory_bytes;
        let parse_buffer = edges / spec.machines as f64 * 24.0;
        let ingress_peak = base + parse_buffer;
        let compute_peak = base - outcome.state_bytes as f64 * 0.5;
        t.row(vec![
            strategy.label().to_string(),
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
    let mut t = Table::new("Fig 6.6 — PowerLyra decision tree", &["tree"]);
    for line in gp_advisor::render_powerlyra_tree().lines() {
        t.row(vec![line.to_string()]);
    }
    vec![t]
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
