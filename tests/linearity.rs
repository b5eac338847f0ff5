//! Figs 5.3–5.5: on the synchronous GAS engine, network traffic, compute
//! time and peak memory are (increasing) linear functions of replication
//! factor. We check Pearson correlation across the four PowerGraph
//! strategies, per application, on the UK-web analogue.

use distgraph::cluster::ClusterSpec;
use distgraph::gen::Dataset;
use distgraph::partition::Strategy;
use gp_bench::{pearson, App, EngineKind, Pipeline, Scenario};

const STRATEGIES: [Strategy; 4] = [
    Strategy::Random,
    Strategy::Hdrf,
    Strategy::Oblivious,
    Strategy::Grid,
];

fn jobs(app: App) -> Vec<gp_bench::JobResult> {
    let mut pipeline = Pipeline::new(0.25, 42);
    let spec = ClusterSpec::ec2_25();
    STRATEGIES
        .iter()
        .map(|&s| {
            pipeline.run(&Scenario::new(
                Dataset::UkWeb,
                s,
                &spec,
                EngineKind::PowerGraph,
                app,
            ))
        })
        .collect()
}

fn check_linear(app: App, metric: impl Fn(&gp_bench::JobResult) -> f64, what: &str) {
    let jobs = jobs(app);
    let points: Vec<(f64, f64)> = jobs
        .iter()
        .map(|j| (j.replication_factor, metric(j)))
        .collect();
    let r = pearson(&points);
    assert!(
        r > 0.9,
        "{what} for {} should be linear in RF; pearson {r:.3}, points {points:?}",
        app.label()
    );
    // And increasing: the slope must be positive.
    let (_, slope) = gp_core::stats::linear_fit(&points);
    assert!(slope > 0.0, "{what} must increase with RF");
}

#[test]
fn network_io_linear_in_replication_factor() {
    for app in [
        App::PageRankFixed(10),
        App::Wcc,
        App::Sssp { undirected: true },
    ] {
        check_linear(app, |j| j.mean_net_in_bytes, "network IO");
    }
}

#[test]
fn compute_time_linear_in_replication_factor() {
    for app in [App::PageRankFixed(10), App::Wcc] {
        check_linear(app, |j| j.compute_seconds, "compute time");
    }
}

#[test]
fn peak_memory_linear_in_replication_factor() {
    for app in [App::PageRankFixed(10), App::Wcc] {
        check_linear(app, |j| j.peak_memory_bytes, "peak memory");
    }
}

#[test]
fn coloring_deviates_from_the_trend() {
    // §5.4.1: Simple Coloring runs on the async engine, whose per-update
    // lock overhead is RF-independent — so its compute time is much less
    // *sensitive* to replication factor than the synchronous apps' (the
    // figure shows its points off the shared trend line). We compare the
    // max/min time spread against PageRank's over the same RF spread.
    let spread = |jobs: &[gp_bench::JobResult]| {
        let times: Vec<f64> = jobs.iter().map(|j| j.compute_seconds).collect();
        times.iter().copied().fold(f64::MIN, f64::max)
            / times.iter().copied().fold(f64::MAX, f64::min)
    };
    let pr_spread = spread(&jobs(App::PageRankFixed(10)));
    let col_spread = spread(&jobs(App::Coloring));
    assert!(
        col_spread < pr_spread,
        "async coloring should be less RF-sensitive: coloring spread {col_spread:.2}x \
         vs PageRank {pr_spread:.2}x"
    );
}
