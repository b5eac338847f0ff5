//! The decision trees must agree with measurement: for each scenario, run
//! every candidate strategy end-to-end and check that the tree's
//! recommendation lands within tolerance of the measured best total time.

use distgraph::advisor::{self, Workload};
use distgraph::cluster::ClusterSpec;
use distgraph::gen::{classify, Dataset};
use distgraph::partition::Strategy;
use gp_bench::{App, EngineKind, Pipeline, Scenario};

const SCALE: f64 = 0.25;
const SEED: u64 = 42;

/// Run `strategies` on (dataset, cluster, engine, app) and return
/// (strategy, total seconds) sorted best-first.
fn measure(
    dataset: Dataset,
    spec: &ClusterSpec,
    engine: EngineKind,
    app: App,
    strategies: &[Strategy],
) -> Vec<(Strategy, f64)> {
    let mut pipeline = Pipeline::new(SCALE, SEED);
    let mut timed: Vec<(Strategy, f64)> = strategies
        .iter()
        .filter(|s| s.supports_partition_count(engine.partitions(spec)))
        .map(|&s| {
            let job = pipeline.run(&Scenario::new(dataset, s, spec, engine, app));
            (s, job.total_seconds())
        })
        .collect();
    timed.sort_by(|a, b| a.1.partial_cmp(&b.1).unwrap());
    timed
}

/// The recommendation must be within `slack` of the measured best.
fn assert_recommended_near_best(
    timed: &[(Strategy, f64)],
    recommended: &[Strategy],
    slack: f64,
    context: &str,
) {
    let best_time = timed[0].1;
    let rec_time = timed
        .iter()
        .find(|(s, _)| recommended.contains(s))
        .map(|(_, t)| *t)
        .unwrap_or_else(|| panic!("{context}: recommendation {recommended:?} not measured"));
    assert!(
        rec_time <= best_time * slack,
        "{context}: recommended {recommended:?} took {rec_time:.1}s but best was \
         {:?} at {best_time:.1}s (measured: {timed:?})",
        timed[0].0
    );
}

#[test]
fn powergraph_tree_matches_measurement_on_heavy_tailed_graphs() {
    let spec = ClusterSpec::ec2_25();
    let dataset = Dataset::Twitter;
    let class = classify(&dataset.generate(SCALE, SEED));
    let app = App::PageRankFixed(10);
    let timed = measure(
        dataset,
        &spec,
        EngineKind::PowerGraph,
        app,
        &[
            Strategy::Random,
            Strategy::Grid,
            Strategy::Oblivious,
            Strategy::Hdrf,
        ],
    );
    let rec = advisor::powergraph(&Workload {
        graph_class: class,
        machines: spec.machines,
        compute_ingress_ratio: 0.5,
        natural_app: app.is_natural(),
    });
    assert_recommended_near_best(&timed, &rec.strategies, 1.10, "PowerGraph/Twitter/PR10");
}

#[test]
fn powergraph_tree_matches_measurement_on_road_networks() {
    let spec = ClusterSpec::local_9();
    let dataset = Dataset::RoadNetCa;
    let class = classify(&dataset.generate(SCALE, SEED));
    // Long job on a road network: WCC to convergence (high diameter).
    let app = App::Wcc;
    let timed = measure(
        dataset,
        &spec,
        EngineKind::PowerGraph,
        app,
        &[
            Strategy::Random,
            Strategy::Grid,
            Strategy::Oblivious,
            Strategy::Hdrf,
        ],
    );
    let rec = advisor::powergraph(&Workload {
        graph_class: class,
        machines: spec.machines,
        compute_ingress_ratio: 3.0,
        natural_app: false,
    });
    assert_recommended_near_best(&timed, &rec.strategies, 1.10, "PowerGraph/road-CA/WCC");
}

#[test]
fn powergraph_tree_job_duration_crossover_on_power_law() {
    // Table 5.1: Grid wins the short job, HDRF/Oblivious the long one.
    let spec = ClusterSpec::ec2_25();
    let dataset = Dataset::UkWeb;
    let strategies = [Strategy::Grid, Strategy::Hdrf];
    let short = measure(
        dataset,
        &spec,
        EngineKind::PowerGraph,
        App::PageRankConv,
        &strategies,
    );
    assert_eq!(
        short[0].0,
        Strategy::Grid,
        "short job should favor Grid: {short:?}"
    );
    // The long job is the paper's k-core sweep, recentred on the analogue's
    // mid-degree band (see `App::kcore_paper`): with the paper's absolute
    // k=10..=20 the down-scaled analogue's surviving core is pure hubs,
    // which are mirrored on every machine under both strategies, so the
    // replication-factor gap (Grid 6.4 vs HDRF 4.8 here) never reaches the
    // network term and the crossover the experiment demonstrates vanishes.
    let long = measure(
        dataset,
        &spec,
        EngineKind::PowerGraph,
        App::kcore_paper(),
        &strategies,
    );
    assert_eq!(
        long[0].0,
        Strategy::Hdrf,
        "long job should favor HDRF: {long:?}"
    );
}

#[test]
fn powerlyra_tree_matches_measurement_for_natural_apps() {
    let spec = ClusterSpec::ec2_25();
    let dataset = Dataset::UkWeb;
    let class = classify(&dataset.generate(SCALE, SEED));
    let app = App::PageRankFixed(30); // long natural job
    let timed = measure(
        dataset,
        &spec,
        EngineKind::PowerLyra,
        app,
        &[
            Strategy::Random,
            Strategy::Grid,
            Strategy::Oblivious,
            Strategy::Hybrid,
            Strategy::HybridGinger,
        ],
    );
    let rec = advisor::powerlyra(&Workload {
        graph_class: class,
        machines: spec.machines,
        compute_ingress_ratio: 2.0,
        natural_app: true,
    });
    assert_recommended_near_best(&timed, &rec.strategies, 1.15, "PowerLyra/UK-web/PR30");
}

#[test]
fn graphx_all_tree_matches_measurement() {
    let spec = ClusterSpec::local_9();
    let engine = EngineKind::graphx_default();
    // Low-degree, short job → Canonical Random.
    let road_class = classify(&Dataset::RoadNetCa.generate(SCALE, SEED));
    let timed = measure(
        Dataset::RoadNetCa,
        &spec,
        engine,
        App::Sssp { undirected: false },
        &Strategy::POWERLYRA_ALL,
    );
    let rec = advisor::graphx_all(&Workload {
        graph_class: road_class,
        machines: spec.machines,
        compute_ingress_ratio: 0.3,
        natural_app: true,
    });
    assert_recommended_near_best(&timed, &rec.strategies, 1.10, "GraphX/road-CA/SSSP");

    // Power-law → 2D.
    let lj_class = classify(&Dataset::LiveJournal.generate(SCALE, SEED));
    let timed = measure(
        Dataset::LiveJournal,
        &spec,
        engine,
        App::PageRankFixed(25),
        &Strategy::POWERLYRA_ALL,
    );
    let rec = advisor::graphx_all(&Workload {
        graph_class: lj_class,
        machines: spec.machines,
        compute_ingress_ratio: 2.0,
        natural_app: true,
    });
    assert_recommended_near_best(&timed, &rec.strategies, 1.10, "GraphX/LJ/PR25");
}

#[test]
fn suboptimal_choice_costs_real_time() {
    // §1.1: "selecting a suboptimal partitioning strategy could lead to an
    // overall slowdown of up to 1.9x compared to an optimal strategy".
    let spec = ClusterSpec::ec2_25();
    let timed = measure(
        Dataset::Twitter,
        &spec,
        EngineKind::PowerGraph,
        App::PageRankFixed(10),
        &[
            Strategy::Random,
            Strategy::Grid,
            Strategy::Oblivious,
            Strategy::Hdrf,
        ],
    );
    let best = timed.first().unwrap().1;
    let worst = timed.last().unwrap().1;
    assert!(
        worst / best > 1.25,
        "strategy choice should matter; spread only {:.2}x ({timed:?})",
        worst / best
    );
}
