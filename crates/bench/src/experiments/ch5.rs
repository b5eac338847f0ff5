//! Chapter 5 experiments — PowerGraph.

use crate::experiments::{gb, rf_scatter, secs, tree_table, Metric, Trend};
use crate::pipeline::{App, EngineKind, Pipeline, Scenario};
use gp_cluster::{ClusterSpec, Table};
use gp_gen::{Dataset, DegreeAnalysis};
use gp_partition::Strategy;

/// The four PowerGraph strategies the paper evaluates (PDS is excluded for
/// machine-count reasons, §5.2.3).
pub const PG_STRATEGIES: [Strategy; 4] = [
    Strategy::Random,
    Strategy::Hdrf,
    Strategy::Oblivious,
    Strategy::Grid,
];

/// Figs 5.3–5.5: the six apps × the four strategies on UK-web/EC2-25,
/// `metric` against RF, with each app's trend fitted on every point.
fn pg_scatter(scale: f64, seed: u64, title: &str, metric: Metric) -> Vec<Table> {
    rf_scatter(
        scale,
        seed,
        title,
        (
            Dataset::UkWeb,
            ClusterSpec::ec2_25(),
            EngineKind::PowerGraph,
        ),
        &PG_STRATEGIES,
        metric,
        Trend::Table,
    )
}

/// Fig 5.3: incoming network I/O vs replication factor.
pub fn fig5_3(scale: f64, seed: u64) -> Vec<Table> {
    pg_scatter(
        scale,
        seed,
        "Fig 5.3 — Incoming Network IO vs Replication Factors (PowerGraph, EC2-25, UK-Web)",
        ("Inbound Net I/O (GB/machine)", |j| j.mean_net_in_bytes, gb),
    )
}

/// Fig 5.4: computation time vs replication factor.
pub fn fig5_4(scale: f64, seed: u64) -> Vec<Table> {
    pg_scatter(
        scale,
        seed,
        "Fig 5.4 — Computation Time vs Replication Factors (PowerGraph, EC2-25, UK-Web)",
        ("Computation time (s)", |j| j.compute_seconds, secs),
    )
}

/// Fig 5.5: peak memory vs replication factor.
pub fn fig5_5(scale: f64, seed: u64) -> Vec<Table> {
    pg_scatter(
        scale,
        seed,
        "Fig 5.5 — Memory usage vs Replication Factors (PowerGraph, EC2-25, UK-Web)",
        ("Peak memory (GB/machine)", |j| j.peak_memory_bytes, gb),
    )
}

/// The dataset × cluster sweep shared by Figs 5.6/5.7, 6.4/6.5 and 8.1/8.2:
/// one row per dataset and cluster, one column per strategy, each cell its
/// replication factor or, with `ingress_metric`, its ingress seconds.
pub(crate) fn sweep(
    scale: f64,
    seed: u64,
    title: &str,
    clusters: &[ClusterSpec],
    strategies: &[Strategy],
    engine: EngineKind,
    ingress_metric: bool,
) -> Vec<Table> {
    let mut pipeline = Pipeline::new(scale, seed);
    let mut headers: Vec<&str> = vec!["Dataset", "Cluster"];
    headers.extend(strategies.iter().map(|s| s.label()));
    let mut t = Table::new(title, &headers);
    for dataset in Dataset::POWERGRAPH_SET {
        for spec in clusters {
            let mut row = vec![dataset.to_string(), spec.name.to_string()];
            for &strategy in strategies {
                let (report, ingress_s) = pipeline.ingress(dataset, strategy, spec, engine);
                row.push(if ingress_metric {
                    format!("{ingress_s:.1}")
                } else {
                    format!("{:.2}", report.replication_factor)
                });
            }
            t.row(row);
        }
    }
    vec![t]
}

/// Fig 5.6: replication factors for all PowerGraph strategies on all graphs
/// and cluster sizes.
pub fn fig5_6(scale: f64, seed: u64) -> Vec<Table> {
    sweep(
        scale,
        seed,
        "Fig 5.6 — Replication Factors in PowerGraph [replication factor]",
        &ClusterSpec::powergraph_clusters(),
        &PG_STRATEGIES,
        EngineKind::PowerGraph,
        false,
    )
}

/// Fig 5.7: ingress times for all PowerGraph strategies.
pub fn fig5_7(scale: f64, seed: u64) -> Vec<Table> {
    sweep(
        scale,
        seed,
        "Fig 5.7 — Ingress Time in PowerGraph [ingress seconds]",
        &ClusterSpec::powergraph_clusters(),
        &PG_STRATEGIES,
        EngineKind::PowerGraph,
        true,
    )
}

/// Fig 5.8: in-degree distributions of the three skewed graphs, with the
/// log-log regression and the low-degree-mass residual that separates
/// heavy-tailed from power-law (§5.4.2).
pub fn fig5_8(scale: f64, seed: u64) -> Vec<Table> {
    let mut tables = Vec::new();
    let mut summary = Table::new(
        "Fig 5.8 — power-law regression per graph",
        &[
            "Graph",
            "slope",
            "low-degree residual (obs/pred)",
            "classified",
        ],
    );
    for dataset in [Dataset::LiveJournal, Dataset::Twitter, Dataset::UkWeb] {
        let g = dataset.generate(scale, seed);
        let a = DegreeAnalysis::of(&g);
        let mut t = Table::new(
            format!("Fig 5.8 — In-degree histogram, {dataset} (log-binned)"),
            &["In-degree >=", "Count"],
        );
        for (d, c) in a.log_binned() {
            t.row(vec![d.to_string(), c.to_string()]);
        }
        summary.row(vec![
            dataset.to_string(),
            format!("{:.2}", a.slope),
            format!("{:.2}", a.low_degree_residual),
            gp_gen::analysis::classify_analysis(&a).to_string(),
        ]);
        tables.push(t);
    }
    tables.push(summary);
    tables
}

/// Table 5.1: HDRF vs Grid in the ingress and compute phases for
/// short-running PageRank(C) vs long-running k-core (UK-web, EC2-25).
pub fn table5_1(scale: f64, seed: u64) -> Vec<Table> {
    let spec = ClusterSpec::ec2_25();
    let mut t = Table::new(
        "Table 5.1 — HDRF vs Grid, ingress/compute/total (PowerGraph, EC2-25, UK-web)",
        &[
            "Strategy",
            "PR(C) ingress",
            "PR(C) compute",
            "PR(C) total",
            "K-Core ingress",
            "K-Core compute",
            "K-Core total",
        ],
    );
    let strategies = [Strategy::Grid, Strategy::Hdrf];
    let jobs: Vec<Scenario> = (strategies.iter())
        .flat_map(|&strategy| {
            [App::PageRankConv, App::kcore_paper()].map(|app| {
                Scenario::new(Dataset::UkWeb, strategy, &spec, EngineKind::PowerGraph, app)
            })
        })
        .collect();
    let jobs = Pipeline::new(scale, seed).run_all(&jobs);
    for (strategy, jobs) in strategies.iter().zip(jobs.chunks(2)) {
        let mut row = vec![strategy.label().to_string()];
        for job in jobs {
            let total = job.total_seconds();
            row.extend([job.ingress_seconds, job.compute_seconds, total].map(secs));
        }
        t.row(row);
    }
    vec![t]
}

/// Fig 5.9: the PowerGraph decision tree.
pub fn fig5_9(_scale: f64, _seed: u64) -> Vec<Table> {
    let tree = gp_advisor::render_powergraph_tree();
    tree_table("Fig 5.9 — PowerGraph decision tree", tree)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig5_8_produces_histograms_and_summary() {
        let tables = fig5_8(0.05, 3);
        assert_eq!(tables.len(), 4);
        assert_eq!(tables[3].len(), 3);
    }

    #[test]
    fn fig5_9_renders_the_tree() {
        let t = &fig5_9(1.0, 1)[0];
        assert!(t.len() > 5);
    }

    #[test]
    fn sweep_covers_every_dataset_cluster_pair() {
        let t = &fig5_6(0.02, 1)[0];
        assert_eq!(t.len(), 5 * 3);
    }
}
