//! Chapter 7 experiments — GraphX with its native strategies.

use crate::experiments::secs;
use crate::pipeline::{App, EngineKind, Pipeline, Scenario};
use gp_cluster::{ClusterSpec, Table};
use gp_gen::Dataset;
use gp_partition::Strategy;

/// GraphX's native strategies (Table 1.1): Random ("Assym-Rand" here),
/// Canonical Random, 1D, 2D.
pub const GX_STRATEGIES: [Strategy; 4] = [
    Strategy::OneD,
    Strategy::TwoD,
    Strategy::Random,
    Strategy::AsymmetricRandom,
];

/// GraphX display label: the thesis calls GraphX's `Random`
/// "Assym-Rand"/"Random" and PowerGraph-style canonical hashing
/// "Canonical Random" (§7.2.1).
fn gx_label(s: Strategy) -> &'static str {
    match s {
        Strategy::Random => "Canonical Random",
        Strategy::AsymmetricRandom => "Random",
        other => other.label(),
    }
}

/// The §7.3 applications: SSSP, PageRank and WCC with 10 iterations, on the
/// Local-10 cluster and the GraphX dataset set.
fn gx_apps() -> [App; 3] {
    [
        App::PageRankFixed(10),
        App::Sssp { undirected: false },
        App::Wcc,
    ]
}

/// Fig 7.1: computation times for PageRank on GraphX, per dataset.
pub fn fig7_1(scale: f64, seed: u64) -> Vec<Table> {
    let mut pipeline = Pipeline::new(scale, seed);
    let spec = ClusterSpec::local_10();
    let mut headers = vec!["Dataset"];
    headers.extend(GX_STRATEGIES.iter().map(|&s| gx_label(s)));
    let mut t = Table::new(
        "Fig 7.1 — Computation times for PageRank on GraphX (Local-10) [seconds]",
        &headers,
    );
    let graphx = EngineKind::graphx_default();
    for dataset in Dataset::GRAPHX_SET {
        let jobs =
            GX_STRATEGIES.map(|s| Scenario::new(dataset, s, &spec, graphx, App::PageRankFixed(10)));
        let mut row = vec![dataset.to_string()];
        for job in pipeline.run_all(&jobs) {
            row.push(secs(job.compute_seconds));
        }
        t.row(row);
    }
    vec![t]
}

/// Table 7.1: computation-time-based rankings per app × dataset, with
/// strategies whose times are within 5% of each other parenthesized
/// together, as in the paper.
pub fn table7_1(scale: f64, seed: u64) -> Vec<Table> {
    let mut pipeline = Pipeline::new(scale, seed);
    let spec = ClusterSpec::local_10();
    let mut headers = vec!["Application"];
    let dataset_names: Vec<String> = Dataset::GRAPHX_SET.iter().map(|d| d.to_string()).collect();
    headers.extend(dataset_names.iter().map(String::as_str));
    let mut t = Table::new(
        "Table 7.1 — Computation time-based rankings for GraphX",
        &headers,
    );
    let graphx = EngineKind::graphx_default();
    for app in gx_apps() {
        let mut row = vec![app.label().to_string()];
        for dataset in Dataset::GRAPHX_SET {
            let jobs = GX_STRATEGIES.map(|s| Scenario::new(dataset, s, &spec, graphx, app));
            let mut timed: Vec<(Strategy, f64)> = (pipeline.run_all(&jobs).iter())
                .map(|job| (job.strategy, job.compute_seconds))
                .collect();
            timed.sort_by(|a, b| a.1.partial_cmp(&b.1).unwrap());
            row.push(ranking_string(&timed));
        }
        t.row(row);
    }
    vec![t]
}

/// Render a sorted (strategy, time) list with near-ties parenthesized:
/// `(1D,CR),(2D,R)` style.
fn ranking_string(sorted: &[(Strategy, f64)]) -> String {
    let mut groups: Vec<Vec<&'static str>> = Vec::new();
    let mut group_start_time = f64::NEG_INFINITY;
    for (s, time) in sorted {
        let label = short_label(*s);
        match groups.last_mut() {
            Some(group) if *time <= group_start_time * 1.05 => group.push(label),
            _ => {
                groups.push(vec![label]);
                group_start_time = *time;
            }
        }
    }
    groups
        .iter()
        .map(|g| {
            if g.len() == 1 {
                g[0].to_string()
            } else {
                format!("({})", g.join(","))
            }
        })
        .collect::<Vec<_>>()
        .join(",")
}

fn short_label(s: Strategy) -> &'static str {
    match s {
        Strategy::Random => "CR",
        Strategy::AsymmetricRandom => "R",
        other => other.label(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ranking_groups_near_ties() {
        let sorted = vec![
            (Strategy::OneD, 10.0),
            (Strategy::Random, 10.2),
            (Strategy::TwoD, 20.0),
            (Strategy::AsymmetricRandom, 20.5),
        ];
        assert_eq!(ranking_string(&sorted), "(1D,CR),(2D,R)");
    }

    #[test]
    fn ranking_handles_all_distinct() {
        let sorted = vec![(Strategy::OneD, 1.0), (Strategy::TwoD, 2.0)];
        assert_eq!(ranking_string(&sorted), "1D,2D");
    }

    #[test]
    fn gx_labels_swap_random_naming() {
        assert_eq!(gx_label(Strategy::Random), "Canonical Random");
        assert_eq!(gx_label(Strategy::AsymmetricRandom), "Random");
        assert_eq!(gx_label(Strategy::TwoD), "2D");
    }
}
