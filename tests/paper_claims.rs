//! The paper's individual empirical claims, checked end-to-end.

use distgraph::apps::PageRank;
use distgraph::cluster::ClusterSpec;
use distgraph::engine::{Engine, EngineConfig, Model};
use distgraph::gen::{classify, Dataset, GraphClass};
use distgraph::partition::{PartitionContext, Strategy};
use gp_bench::{App, EngineKind, Pipeline, Scenario};

const SEED: u64 = 42;

#[test]
fn dataset_analogues_have_the_papers_degree_classes() {
    // Table 4.2's Type column.
    for d in Dataset::ALL {
        let g = d.generate(0.25, SEED);
        assert_eq!(classify(&g), d.spec().class, "{d}");
    }
}

#[test]
fn asymmetric_random_is_worse_than_canonical_random() {
    // §8.2.2, on every dataset class.
    for d in [Dataset::RoadNetCa, Dataset::Twitter, Dataset::UkWeb] {
        let g = d.generate(0.2, SEED);
        let ctx = PartitionContext::new(9).with_seed(SEED);
        let canon = Strategy::Random
            .build()
            .partition(&g, &ctx)
            .assignment
            .replication_factor();
        let asym = Strategy::AsymmetricRandom
            .build()
            .partition(&g, &ctx)
            .assignment
            .replication_factor();
        assert!(asym >= canon, "{d}: asym {asym:.2} vs canonical {canon:.2}");
    }
}

#[test]
fn grid_beats_heuristics_on_heavy_tailed_but_not_power_law() {
    // Fig 5.6's central contrast.
    let ctx = PartitionContext::new(25).with_seed(SEED);
    let heavy = Dataset::Twitter.generate(0.25, SEED);
    let grid_h = Strategy::Grid
        .build()
        .partition(&heavy, &ctx)
        .assignment
        .replication_factor();
    let hdrf_h = Strategy::Hdrf
        .build()
        .partition(&heavy, &ctx)
        .assignment
        .replication_factor();
    assert!(
        grid_h < hdrf_h,
        "heavy-tailed: Grid {grid_h:.2} should beat HDRF {hdrf_h:.2}"
    );

    let web = Dataset::UkWeb.generate(0.25, SEED);
    let grid_w = Strategy::Grid
        .build()
        .partition(&web, &ctx)
        .assignment
        .replication_factor();
    let hdrf_w = Strategy::Hdrf
        .build()
        .partition(&web, &ctx)
        .assignment
        .replication_factor();
    assert!(
        hdrf_w < grid_w,
        "power-law: HDRF {hdrf_w:.2} should beat Grid {grid_w:.2}"
    );
}

#[test]
fn heuristics_have_lowest_rf_on_road_networks() {
    let g = Dataset::RoadNetUsa.generate(0.15, SEED);
    let ctx = PartitionContext::new(9).with_seed(SEED);
    let rf = |s: Strategy| {
        s.build()
            .partition(&g, &ctx)
            .assignment
            .replication_factor()
    };
    let hdrf = rf(Strategy::Hdrf);
    assert!(hdrf < rf(Strategy::Grid));
    assert!(hdrf < rf(Strategy::Random));
    assert!(hdrf < rf(Strategy::Hybrid));
}

#[test]
fn ginger_tradeoff_matches_section_6_4_4() {
    // Slower ingress, higher memory, only slightly better RF than Hybrid.
    let g = Dataset::UkWeb.generate(0.2, SEED);
    let ctx = PartitionContext::new(25).with_seed(SEED);
    let hybrid = Strategy::Hybrid.build().partition(&g, &ctx);
    let ginger = Strategy::HybridGinger.build().partition(&g, &ctx);
    let hybrid_work: f64 = hybrid.loader_work.iter().sum();
    let ginger_work: f64 = ginger.loader_work.iter().sum();
    assert!(
        ginger_work > 1.2 * hybrid_work,
        "Ginger ingress should be significantly slower"
    );
    assert!(
        ginger.state_bytes > hybrid.state_bytes,
        "Ginger should use more memory"
    );
    let rf_h = hybrid.assignment.replication_factor();
    let rf_g = ginger.assignment.replication_factor();
    assert!(
        rf_g <= rf_h * 1.02,
        "Ginger RF {rf_g:.2} should not exceed Hybrid {rf_h:.2}"
    );
    assert!(
        rf_g >= rf_h * 0.75,
        "Ginger RF gain should be modest, got {rf_g:.2} vs {rf_h:.2}"
    );
}

#[test]
fn hybrid_strategies_save_network_for_natural_apps_only() {
    // Fig 6.1 / §6.4.1.
    let g = Dataset::UkWeb.generate(0.2, SEED);
    let ctx = PartitionContext::new(25).with_seed(SEED);
    let hybrid = Strategy::Hybrid.build().partition(&g, &ctx).assignment;
    let spec = ClusterSpec::ec2_25();
    let sync = Engine::new(EngineConfig::new(spec.clone()), Model::Sync);
    let lyra = Engine::new(EngineConfig::new(spec), Model::Hybrid);
    // Natural app: PageRank.
    let (_, sync_rep) = sync.run(&g, &hybrid, &PageRank::fixed(5)).unwrap();
    let (_, lyra_rep) = lyra.run(&g, &hybrid, &PageRank::fixed(5)).unwrap();
    assert!(
        lyra_rep.total_in_bytes() < 0.7 * sync_rep.total_in_bytes(),
        "hybrid engine should cut PageRank traffic: {} vs {}",
        lyra_rep.total_in_bytes(),
        sync_rep.total_in_bytes()
    );
    // Non-natural app: WCC sees little saving.
    let (_, sync_wcc) = sync.run(&g, &hybrid, &distgraph::apps::Wcc).unwrap();
    let (_, lyra_wcc) = lyra.run(&g, &hybrid, &distgraph::apps::Wcc).unwrap();
    assert!(
        lyra_wcc.total_in_bytes() > 0.9 * sync_wcc.total_in_bytes(),
        "undirected apps cannot exploit in-edge co-location"
    );
}

#[test]
fn one_d_target_beats_one_d_for_pagerank_under_powerlyra() {
    // §8.2.3 / Fig 8.3.
    let mut pipeline = Pipeline::new(0.2, SEED);
    let spec = ClusterSpec::local_9();
    let run = |p: &mut Pipeline, s| {
        p.run(&Scenario::new(
            Dataset::Twitter,
            s,
            &spec,
            EngineKind::PowerLyra,
            App::PageRankFixed(10),
        ))
    };
    let oned = run(&mut pipeline, Strategy::OneD);
    let oned_t = run(&mut pipeline, Strategy::OneDTarget);
    assert!(
        oned_t.mean_net_in_bytes < oned.mean_net_in_bytes,
        "1D-Target {} should use less network than 1D {}",
        oned_t.mean_net_in_bytes,
        oned.mean_net_in_bytes
    );
}

#[test]
fn graphx_cannot_load_twitter_scale_graphs_in_small_executors() {
    // §7.3: "GraphX ran out of memory while trying to load Twitter".
    let mut pipeline = Pipeline::new(0.3, SEED);
    let spec = ClusterSpec::local_10();
    let job = pipeline.run(&Scenario::new(
        Dataset::Twitter,
        Strategy::Random,
        &spec,
        EngineKind::GraphX {
            partitions_per_machine: 16,
            executor_memory_bytes: 1 << 20,
        },
        App::PageRankFixed(10),
    ));
    assert!(job.failed);
    // The same graph loads fine with ample executors.
    let ok = pipeline.run(&Scenario::new(
        Dataset::Twitter,
        Strategy::Random,
        &spec,
        EngineKind::graphx_default(),
        App::PageRankFixed(10),
    ));
    assert!(!ok.failed);
}

#[test]
fn graphx_partitioning_speeds_are_similar_for_native_strategies() {
    // §7.4: "all of GraphX's partitioning strategies are stateless and
    // hash-based, they all run at similar speeds".
    let mut pipeline = Pipeline::new(0.2, SEED);
    let spec = ClusterSpec::local_10();
    let times: Vec<f64> = [
        Strategy::Random,
        Strategy::AsymmetricRandom,
        Strategy::OneD,
        Strategy::TwoD,
    ]
    .iter()
    .map(|&s| {
        pipeline
            .ingress(Dataset::LiveJournal, s, &spec, EngineKind::graphx_default())
            .1
    })
    .collect();
    let max = times.iter().copied().fold(f64::MIN, f64::max);
    let min = times.iter().copied().fold(f64::MAX, f64::min);
    assert!(
        max / min < 1.25,
        "hash strategies should partition at similar speed: {times:?}"
    );
}

#[test]
fn peak_memory_doubles_across_pagerank_strategies_in_powerlyra() {
    // §1.1: "2x difference in PageRank peak memory utilization between
    // different partitioning strategies in PowerLyra".
    let mut pipeline = Pipeline::new(0.25, SEED);
    let spec = ClusterSpec::ec2_25();
    let mems: Vec<f64> = [
        Strategy::Random,
        Strategy::Grid,
        Strategy::Oblivious,
        Strategy::Hybrid,
        Strategy::HybridGinger,
    ]
    .iter()
    .map(|&s| {
        pipeline
            .run(&Scenario::new(
                Dataset::UkWeb,
                s,
                &spec,
                EngineKind::PowerLyra,
                App::PageRankFixed(10),
            ))
            .peak_memory_bytes
    })
    .collect();
    let max = mems.iter().copied().fold(f64::MIN, f64::max);
    let min = mems.iter().copied().fold(f64::MAX, f64::min);
    assert!(
        max / min > 1.5,
        "peak memory spread should be large: {mems:?}"
    );
}

#[test]
fn classification_is_robust_across_seeds_and_scales() {
    for seed in [1u64, 7, 99] {
        for scale in [0.15, 0.35] {
            assert_eq!(
                classify(&Dataset::RoadNetCa.generate(scale, seed)),
                GraphClass::LowDegree
            );
            assert_eq!(
                classify(&Dataset::Twitter.generate(scale, seed)),
                GraphClass::HeavyTailed
            );
            assert_eq!(
                classify(&Dataset::UkWeb.generate(scale, seed)),
                GraphClass::PowerLaw
            );
        }
    }
}
