//! Experiment generators — one function per paper table/figure.
//!
//! Each function runs the relevant jobs through the [`Pipeline`] and returns
//! [`Table`]s whose rows/series mirror what the paper reports.
//! `distgraph experiments` prints them; `EXPERIMENTS.md` records paper-vs-
//! measured values.
//!
//! [`Pipeline`]: crate::Pipeline
//! [`Table`]: gp_cluster::Table

pub mod ablations;
pub mod ch10;
pub mod ch11;
pub mod ch12;
pub mod ch13;
pub mod ch4;
pub mod ch5;
pub mod ch6;
pub mod ch7;
pub mod ch8;
pub mod ch9;

use crate::pearson;
use crate::pipeline::{App, EngineKind, JobResult, Pipeline, Scenario};
use gp_cluster::{ClusterSpec, Table};
use gp_core::stats::linear_fit;
use gp_gen::Dataset;
use gp_partition::Strategy;

/// Identifier, title and generator for one experiment.
pub struct Experiment {
    /// Id as used on the command line (e.g. `fig5-3`).
    pub id: &'static str,
    /// What the paper shows there.
    pub title: &'static str,
    /// Generator: takes (scale, seed), returns printable tables.
    pub run: fn(f64, u64) -> Vec<Table>,
}

/// The complete experiment registry, in paper order.
pub fn registry() -> Vec<Experiment> {
    vec![
        Experiment {
            id: "table1-1",
            title: "Systems and their partitioning strategies",
            run: ch4::table1_1,
        },
        Experiment {
            id: "table4-1",
            title: "Cluster specifications",
            run: ch4::table4_1,
        },
        Experiment {
            id: "table4-2",
            title: "Graph datasets (paper vs generated analogues)",
            run: ch4::table4_2,
        },
        Experiment {
            id: "fig5-3",
            title: "Net I/O vs replication factor (PowerGraph, EC2-25, UK-web)",
            run: ch5::fig5_3,
        },
        Experiment {
            id: "fig5-4",
            title: "Computation time vs replication factor (PowerGraph, EC2-25, UK-web)",
            run: ch5::fig5_4,
        },
        Experiment {
            id: "fig5-5",
            title: "Peak memory vs replication factor (PowerGraph, EC2-25, UK-web)",
            run: ch5::fig5_5,
        },
        Experiment {
            id: "fig5-6",
            title: "Replication factors in PowerGraph",
            run: ch5::fig5_6,
        },
        Experiment {
            id: "fig5-7",
            title: "Ingress times in PowerGraph",
            run: ch5::fig5_7,
        },
        Experiment {
            id: "fig5-8",
            title: "In-degree distributions of the power-law graphs",
            run: ch5::fig5_8,
        },
        Experiment {
            id: "table5-1",
            title: "HDRF vs Grid: ingress/compute/total (UK-web, EC2-25)",
            run: ch5::table5_1,
        },
        Experiment {
            id: "fig5-9",
            title: "PowerGraph decision tree",
            run: ch5::fig5_9,
        },
        Experiment {
            id: "fig6-1",
            title: "Net I/O vs RF with Hybrid below trend (PowerLyra, EC2-25, UK-web)",
            run: ch6::fig6_1,
        },
        Experiment {
            id: "fig6-2",
            title: "Peak memory vs RF with Hybrid above trend (PowerLyra, EC2-25, UK-web)",
            run: ch6::fig6_2,
        },
        Experiment {
            id: "fig6-3",
            title: "Memory timeline with ingress-end markers (PowerLyra, UK-web, PageRank)",
            run: ch6::fig6_3,
        },
        Experiment {
            id: "fig6-4",
            title: "Ingress times in PowerLyra",
            run: ch6::fig6_4,
        },
        Experiment {
            id: "fig6-5",
            title: "Replication factors in PowerLyra",
            run: ch6::fig6_5,
        },
        Experiment {
            id: "fig6-6",
            title: "PowerLyra decision tree",
            run: ch6::fig6_6,
        },
        Experiment {
            id: "fig7-1",
            title: "GraphX PageRank computation times",
            run: ch7::fig7_1,
        },
        Experiment {
            id: "table7-1",
            title: "GraphX computation-time rankings",
            run: ch7::table7_1,
        },
        Experiment {
            id: "fig8-1",
            title: "Replication factors, PowerLyra all strategies",
            run: ch8::fig8_1,
        },
        Experiment {
            id: "fig8-2",
            title: "Ingress times, PowerLyra all strategies",
            run: ch8::fig8_2,
        },
        Experiment {
            id: "fig8-3",
            title: "Net I/O vs RF incl. 1D-Target (PowerLyra-all, Local-9, Twitter)",
            run: ch8::fig8_3,
        },
        Experiment {
            id: "fig8-4",
            title: "CPU utilization vs compute time (PowerLyra-all, Local-9, UK-web)",
            run: ch8::fig8_4,
        },
        Experiment {
            id: "fig9-1",
            title: "Cumulative per-iteration times (GraphX-all, road-net-CA)",
            run: ch9::fig9_1,
        },
        Experiment {
            id: "fig9-2",
            title: "Cumulative per-iteration times (GraphX-all, LiveJournal)",
            run: ch9::fig9_2,
        },
        Experiment {
            id: "fig9-3",
            title: "GraphX-all decision tree",
            run: ch9::fig9_3,
        },
        Experiment {
            id: "fig9-4",
            title: "Executor memory vs execution time (GraphX-all, road-net-CA)",
            run: ch9::fig9_4,
        },
        Experiment {
            id: "ch10-recovery",
            title: "Single-crash recovery cost by strategy (beyond the paper)",
            run: ch10::ch10_recovery,
        },
        Experiment {
            id: "ch10-interval",
            title: "Checkpoint interval sweep + Young's optimum (beyond the paper)",
            run: ch10::ch10_interval,
        },
        Experiment {
            id: "ch11-netloss",
            title: "Wall clock and retransmit traffic vs packet loss (beyond the paper)",
            run: ch11::ch11_netloss,
        },
        Experiment {
            id: "ch11-speculation",
            title: "Speculative straggler mitigation vs barrier-wait (beyond the paper)",
            run: ch11::ch11_speculation,
        },
        Experiment {
            id: "ch12-churn",
            title: "Query latency vs churn rate under serving (beyond the paper)",
            run: ch12::ch12_churn,
        },
        Experiment {
            id: "ch12-rebalance",
            title: "Rebalance-threshold cost curve under serving (beyond the paper)",
            run: ch12::ch12_rebalance,
        },
        Experiment {
            id: "ch13-elasticity",
            title: "Scale-out: re-partition vs degraded balance, plus tenant scheduling (beyond the paper)",
            run: ch13::ch13_elasticity,
        },
        Experiment {
            id: "ch13-preemption",
            title: "Spot preemption: evacuation vs checkpoint recovery by warning window (beyond the paper)",
            run: ch13::ch13_preemption,
        },
        Experiment {
            id: "ablation-hdrf-lambda",
            title: "HDRF lambda sweep (beyond the paper)",
            run: ablations::ablation_hdrf_lambda,
        },
        Experiment {
            id: "ablation-hybrid-threshold",
            title: "Hybrid degree-threshold sweep (beyond the paper)",
            run: ablations::ablation_hybrid_threshold,
        },
        Experiment {
            id: "ablation-loaders",
            title: "Greedy heuristics vs loader count (beyond the paper)",
            run: ablations::ablation_loaders,
        },
        Experiment {
            id: "ablation-engines",
            title: "Engine effect per strategy (beyond the paper)",
            run: ablations::ablation_engines,
        },
        Experiment {
            id: "ablation-reuse",
            title: "Partition reuse economics (Section 5.4.3)",
            run: ablations::ablation_reuse,
        },
        Experiment {
            id: "ablation-bipartite",
            title: "Bipartite graphs: BiCut vs general strategies (beyond the paper)",
            run: ablations::ablation_bipartite,
        },
        Experiment {
            id: "ablation-chunking",
            title: "Gemini-style chunking vs the paper's strategies (beyond the paper)",
            run: ablations::ablation_chunking,
        },
        Experiment {
            id: "ablation-delta-caching",
            title: "PowerGraph gather caching on/off (beyond the paper)",
            run: ablations::ablation_delta_caching,
        },
        Experiment {
            id: "ablation-edgecut",
            title: "Edge-cut vs vertex-cut load balance (Section 3.2 background)",
            run: ablations::ablation_edge_vs_vertex_cut,
        },
    ]
}

/// Look up an experiment by id.
pub fn find(id: &str) -> Option<Experiment> {
    registry().into_iter().find(|e| e.id == id)
}

/// A metric's column header, value and format.
pub(crate) type Metric = (&'static str, fn(&JobResult) -> f64, fn(f64) -> String);

/// What an RF scatter does with each app's linear trend.
#[derive(Clone, Copy, PartialEq)]
pub(crate) enum Trend {
    /// Fit it on every point and print it as a table (Figs 5.3–5.5).
    Table,
    /// Fit it on the non-hybrid points only, as the paper does (§6.4.1),
    /// print each point's ratio to it and print it as a table (Figs 6.1/6.2).
    NonHybrid,
    /// Fit it on every point and print each point's ratio to it (Fig 8.3).
    Ratio,
}

/// The RF scatter of Figs 5.3–5.5, 6.1–6.2 and 8.3: `metric` of every job
/// of the six paper apps × `strategies` on one (dataset, cluster, engine)
/// cell, against the job's replication factor.
pub(crate) fn rf_scatter(
    scale: f64,
    seed: u64,
    title: &str,
    (dataset, spec, engine): (Dataset, ClusterSpec, EngineKind),
    strategies: &[Strategy],
    (header, metric, fmt): Metric,
    trend: Trend,
) -> Vec<Table> {
    let mut headers = vec!["App", "Strategy", "RF", header];
    if trend != Trend::Table {
        headers.push("vs trend");
    }
    let mut t = Table::new(title, &headers);
    let (fitted, r) = if trend == Trend::NonHybrid {
        (
            "trend fitted on non-hybrid points",
            "pearson r (non-hybrid)",
        )
    } else {
        ("per-app linear trend", "pearson r")
    };
    let mut trends = Table::new(
        format!("{title} — {fitted}"),
        &["App", "slope", "intercept", r],
    );
    let mut jobs = Vec::new();
    for app in App::paper_set() {
        for &s in strategies {
            jobs.push(Scenario::new(dataset, s, &spec, engine, app));
        }
    }
    let jobs = Pipeline::new(scale, seed).run_all(&jobs);
    let hybrid = |s| matches!(s, Strategy::Hybrid | Strategy::HybridGinger);
    for jobs in jobs.chunks(strategies.len()) {
        let fitted: Vec<(f64, f64)> = (jobs.iter())
            .filter(|j| trend != Trend::NonHybrid || !hybrid(j.strategy))
            .map(|j| (j.replication_factor, metric(j)))
            .collect();
        let (intercept, slope) = linear_fit(&fitted);
        for j in jobs {
            let (rf, y) = (j.replication_factor, metric(j));
            let mut row = vec![
                j.app.to_string(),
                j.strategy.label().to_string(),
                format!("{rf:.2}"),
                fmt(y),
            ];
            if trend != Trend::Table {
                let predicted = intercept + slope * rf;
                let deviation = if predicted.abs() > 1e-12 {
                    y / predicted
                } else {
                    1.0
                };
                row.push(format!("{deviation:.2}x"));
            }
            t.row(row);
        }
        trends.row(vec![
            jobs[0].app.to_string(),
            format!("{slope:.3e}"),
            format!("{intercept:.3e}"),
            format!("{:.3}", pearson(&fitted)),
        ]);
    }
    if trend == Trend::Ratio {
        vec![t]
    } else {
        vec![t, trends]
    }
}

/// A decision-tree figure (Figs 5.9, 6.6, 9.3): one row per line of the
/// rendered tree.
pub(crate) fn tree_table(title: &str, tree: String) -> Vec<Table> {
    let mut t = Table::new(title, &["tree"]);
    for line in tree.lines() {
        t.row(vec![line.to_string()]);
    }
    vec![t]
}

pub(crate) fn gb(bytes: f64) -> String {
    gp_cluster::table::fmt_bytes(bytes)
}

pub(crate) fn secs(s: f64) -> String {
    if s.is_infinite() {
        "FAILED".to_string()
    } else {
        format!("{s:.1}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_ids_are_unique_and_findable() {
        let reg = registry();
        let ids: std::collections::HashSet<_> = reg.iter().map(|e| e.id).collect();
        assert_eq!(ids.len(), reg.len());
        assert!(find("fig5-3").is_some());
        assert!(find("bogus").is_none());
    }

    #[test]
    fn registry_covers_every_table_and_figure() {
        // 3 front-matter tables + 8 ch5 + 6 ch6 + 2 ch7 + 4 ch8 + 4 ch9
        // + 2 ch10 + 2 ch11 + 2 ch12 + 2 ch13 + 9 ablations.
        assert_eq!(registry().len(), 44);
    }
}
