//! Chapter 8 experiments — PowerLyra with all strategies (plus 1D-Target).

use crate::experiments::{gb, rf_scatter, Trend};
use crate::pipeline::{App, EngineKind, Pipeline, Scenario};
use gp_cluster::{ClusterSpec, Table};
use gp_gen::Dataset;
use gp_partition::Strategy;

/// The clusters used in §8.2: Local-9 and EC2-25.
fn pl_all_clusters() -> [ClusterSpec; 2] {
    [ClusterSpec::local_9(), ClusterSpec::ec2_25()]
}

/// Fig 8.1: replication factors for PowerLyra with all strategies.
pub fn fig8_1(scale: f64, seed: u64) -> Vec<Table> {
    super::ch5::sweep(
        scale,
        seed,
        "Fig 8.1 — Replication Factors for PowerLyra with all Strategies",
        &pl_all_clusters(),
        &Strategy::POWERLYRA_ALL,
        EngineKind::PowerLyra,
        false,
    )
}

/// Fig 8.2: ingress (partitioning) times for PowerLyra with all strategies.
pub fn fig8_2(scale: f64, seed: u64) -> Vec<Table> {
    super::ch5::sweep(
        scale,
        seed,
        "Fig 8.2 — Ingress Times for PowerLyra with all Strategies [seconds]",
        &pl_all_clusters(),
        &Strategy::POWERLYRA_ALL,
        EngineKind::PowerLyra,
        true,
    )
}

/// Fig 8.3: incoming network I/O vs RF on Local-9/Twitter for all ten
/// strategies (the nine of §8.1 plus 1D-Target), under the hybrid engine.
/// For PageRank the points to watch: 1D lands *above* the interpolation
/// line (its out-edge co-location fights the gather direction), 1D-Target
/// and 2D land *below* it (§8.2.3).
pub fn fig8_3(scale: f64, seed: u64) -> Vec<Table> {
    let mut strategies: Vec<Strategy> = Strategy::POWERLYRA_ALL.to_vec();
    strategies.push(Strategy::OneDTarget);
    // Interpolate over ALL points (linear curve-fit), as the paper does for
    // this figure.
    rf_scatter(
        scale,
        seed,
        "Fig 8.3 — Incoming network IO vs Replication Factor (Local-9, PowerLyra, Twitter)",
        (
            Dataset::Twitter,
            ClusterSpec::local_9(),
            EngineKind::PowerLyra,
        ),
        &strategies,
        ("Inbound Net I/O (GB/machine)", |j| j.mean_net_in_bytes, gb),
        Trend::Ratio,
    )
}

/// Fig 8.4: CPU utilization vs compute-phase duration for PageRank and
/// k-core on Local-9/UK-web — the paper's point is that there is *no clear
/// correlation* between utilization (or its spread) and compute time.
pub fn fig8_4(scale: f64, seed: u64) -> Vec<Table> {
    let mut pipeline = Pipeline::new(scale, seed);
    let spec = ClusterSpec::local_9();
    let mut tables = Vec::new();
    for app in [App::PageRankConv, App::kcore_paper()] {
        let mut t = Table::new(
            format!(
                "Fig 8.4 — CPU utilization vs Compute time, {} (Local-9, UK-Web, PowerLyra-All)",
                app.label()
            ),
            &[
                "Strategy",
                "Compute time (s)",
                "CPU min",
                "q25",
                "median",
                "q75",
                "max",
            ],
        );
        let jobs = Strategy::POWERLYRA_ALL
            .map(|s| Scenario::new(Dataset::UkWeb, s, &spec, EngineKind::PowerLyra, app));
        for job in pipeline.run_all(&jobs) {
            let mut cpus = job.cpu_percents.clone();
            cpus.sort_by(|a, b| a.partial_cmp(b).unwrap());
            let q = |f: f64| cpus[(f * (cpus.len() - 1) as f64).round() as usize];
            t.row(vec![
                job.strategy.label().to_string(),
                format!("{:.1}", job.compute_seconds),
                format!("{:.1}", q(0.0)),
                format!("{:.1}", q(0.25)),
                format!("{:.1}", q(0.5)),
                format!("{:.1}", q(0.75)),
                format!("{:.1}", q(1.0)),
            ]);
        }
        tables.push(t);
    }
    tables
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig8_1_covers_nine_strategies_and_ten_rows() {
        let t = &fig8_1(0.02, 1)[0];
        assert_eq!(t.len(), 5 * 2);
    }
}
