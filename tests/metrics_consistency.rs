//! Cross-crate consistency of the §4.3 metrics: the quantities the harness
//! reports must agree with each other no matter which engine, strategy or
//! application produced them.

use distgraph::apps::{PageRank, Wcc};
use distgraph::cluster::ClusterSpec;
use distgraph::engine::{EngineConfig, HybridGas, Pregel, PregelConfig, SyncGas};
use distgraph::gen::Dataset;
use distgraph::partition::{PartitionContext, Strategy};
use gp_bench::{App, EngineKind, Pipeline, Scenario};

fn graph() -> distgraph::core::EdgeList {
    Dataset::LiveJournal.generate(0.08, 11)
}

fn assignment(parts: u32) -> (distgraph::core::EdgeList, distgraph::partition::Assignment) {
    let g = graph();
    let a = Strategy::Grid
        .build()
        .partition(&g, &PartitionContext::new(parts).with_seed(11));
    (g, a.assignment)
}

#[test]
fn per_step_bytes_sum_to_report_totals() {
    let (g, a) = assignment(9);
    let (_, report) =
        SyncGas::new(EngineConfig::new(ClusterSpec::local_9())).run(&g, &a, &PageRank::fixed(5));
    let manual: f64 = report
        .steps
        .iter()
        .flat_map(|s| s.machine_in_bytes.iter())
        .sum();
    assert!((report.total_in_bytes() - manual).abs() < 1e-6);
    assert!(
        (report.mean_machine_in_bytes() * 9.0 - manual).abs() < 1e-6,
        "mean x machines must equal total"
    );
}

#[test]
fn wall_time_equals_cumulative_tail() {
    let (g, a) = assignment(9);
    let (_, report) = SyncGas::new(EngineConfig::new(ClusterSpec::local_9())).run(&g, &a, &Wcc);
    let cumulative = report.cumulative_seconds();
    assert_eq!(cumulative.len() as u32, report.supersteps());
    assert!((cumulative.last().unwrap() - report.compute_seconds()).abs() < 1e-9);
    // Strictly increasing.
    assert!(cumulative.windows(2).all(|w| w[1] > w[0]));
}

#[test]
fn single_partition_is_traffic_free_on_every_engine() {
    let g = graph();
    let a = Strategy::Random
        .build()
        .partition(&g, &PartitionContext::new(1).with_seed(11))
        .assignment;
    let config = EngineConfig::new(ClusterSpec::local_9());
    let (_, sync) = SyncGas::new(config.clone()).run(&g, &a, &PageRank::fixed(3));
    assert_eq!(sync.total_in_bytes(), 0.0);
    let (_, hybrid) = HybridGas::new(config.clone()).run(&g, &a, &PageRank::fixed(3));
    assert_eq!(hybrid.total_in_bytes(), 0.0);
    let (_, pregel) = Pregel::new(PregelConfig::new(config))
        .run(&g, &a, &PageRank::fixed(3))
        .expect("fits");
    assert_eq!(pregel.total_in_bytes(), 0.0);
}

#[test]
fn hybrid_engine_never_sends_more_gathers_than_sync() {
    let g = graph();
    let config = EngineConfig::new(ClusterSpec::local_9());
    for strategy in [Strategy::Random, Strategy::Hybrid, Strategy::OneDTarget] {
        let a = strategy
            .build()
            .partition(&g, &PartitionContext::new(9).with_seed(11))
            .assignment;
        let gm = |r: &distgraph::engine::ComputeReport| {
            r.steps.iter().map(|s| s.gather_messages).sum::<u64>()
        };
        let (_, sync) = SyncGas::new(config.clone()).run(&g, &a, &PageRank::fixed(3));
        let (_, hybrid) = HybridGas::new(config.clone()).run(&g, &a, &PageRank::fixed(3));
        assert!(
            gm(&hybrid) <= gm(&sync),
            "{strategy:?}: hybrid {} vs sync {}",
            gm(&hybrid),
            gm(&sync)
        );
    }
}

#[test]
fn job_total_is_ingress_plus_compute() {
    let mut p = Pipeline::new(0.05, 3);
    let spec = ClusterSpec::local_9();
    let job = p.run(&Scenario::new(
        Dataset::RoadNetCa,
        Strategy::Hdrf,
        &spec,
        EngineKind::PowerGraph,
        App::Wcc,
    ));
    assert!((job.total_seconds() - (job.ingress_seconds + job.compute_seconds)).abs() < 1e-9);
    assert_eq!(job.cpu_percents.len(), spec.machines as usize);
    assert!(job.cpu_percents.iter().all(|&c| (0.0..=100.0).contains(&c)));
}

#[test]
fn pipeline_is_deterministic_across_instances() {
    let run = || {
        let mut p = Pipeline::new(0.05, 7);
        p.run(&Scenario::new(
            Dataset::UkWeb,
            Strategy::Hybrid,
            &ClusterSpec::ec2_16(),
            EngineKind::PowerLyra,
            App::PageRankFixed(4),
        ))
    };
    let a = run();
    let b = run();
    assert_eq!(a.replication_factor, b.replication_factor);
    assert_eq!(a.ingress_seconds, b.ingress_seconds);
    assert_eq!(a.compute_seconds, b.compute_seconds);
    assert_eq!(a.mean_net_in_bytes, b.mean_net_in_bytes);
}

#[test]
fn ingress_seconds_scale_with_dataset_scale() {
    let spec = ClusterSpec::ec2_25();
    let ingress = |scale: f64| {
        let mut p = Pipeline::new(scale, 5);
        p.ingress(
            Dataset::Twitter,
            Strategy::Grid,
            &spec,
            EngineKind::PowerGraph,
        )
        .1
    };
    let small = ingress(0.05);
    let large = ingress(0.25);
    assert!(large > 3.0 * small, "large {large} vs small {small}");
}

#[test]
fn graphx_engine_reports_more_partitions_but_same_machines() {
    let mut p = Pipeline::new(0.05, 9);
    let spec = ClusterSpec::local_10();
    let job = p.run(&Scenario::new(
        Dataset::RoadNetCa,
        Strategy::TwoD,
        &spec,
        EngineKind::graphx_default(),
        App::Wcc,
    ));
    // CPU percentages are per machine (10), not per partition (160).
    assert_eq!(job.cpu_percents.len(), 10);
    assert!(!job.failed);
}
