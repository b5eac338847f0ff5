//! Cross-engine semantic agreement: partitioning and engine choice may
//! change cost, but never results.

use distgraph::apps::{coloring, Coloring, KCore, PageRank, Sssp, Wcc};
use distgraph::cluster::ClusterSpec;
use distgraph::engine::{Engine, EngineConfig, Model};
use distgraph::gen::Dataset;
use distgraph::partition::{PartitionContext, Strategy};

fn assignment(
    g: &distgraph::core::EdgeList,
    s: Strategy,
    p: u32,
) -> distgraph::partition::Assignment {
    s.build()
        .partition(g, &PartitionContext::new(p).with_seed(5))
        .assignment
}

#[test]
fn results_are_invariant_across_strategies_and_engines() {
    let g = Dataset::LiveJournal.generate(0.1, 5);
    let spec = ClusterSpec::local_9();
    let sync = Engine::new(EngineConfig::new(spec.clone()), Model::Sync);
    let hybrid = Engine::new(EngineConfig::new(spec.clone()), Model::Hybrid);
    let pregel = Engine::new(EngineConfig::new(spec), Model::GRAPHX);

    let mut reference: Option<Vec<u64>> = None;
    for strategy in [
        Strategy::Random,
        Strategy::Grid,
        Strategy::Hdrf,
        Strategy::Hybrid,
    ] {
        let a = assignment(&g, strategy, 9);
        let (s1, _) = sync.run(&g, &a, &Wcc).unwrap();
        let (s2, _) = hybrid.run(&g, &a, &Wcc).unwrap();
        let (s3, _) = pregel.run(&g, &a, &Wcc).expect("fits");
        assert_eq!(s1, s2, "{strategy:?}: sync vs hybrid");
        assert_eq!(s1, s3, "{strategy:?}: sync vs pregel");
        if let Some(r) = &reference {
            assert_eq!(r, &s1, "{strategy:?}: strategy changed WCC results");
        }
        reference = Some(s1);
    }
}

#[test]
fn pagerank_agrees_across_engines_to_numeric_precision() {
    let g = Dataset::UkWeb.generate(0.05, 9);
    let a = assignment(&g, Strategy::Hybrid, 9);
    let spec = ClusterSpec::local_9();
    let (r1, _) = Engine::new(EngineConfig::new(spec.clone()), Model::Sync)
        .run(&g, &a, &PageRank::fixed(10))
        .unwrap();
    let (r2, _) = Engine::new(EngineConfig::new(spec.clone()), Model::Hybrid)
        .run(&g, &a, &PageRank::fixed(10))
        .unwrap();
    let (r3, _) = Engine::new(EngineConfig::new(spec), Model::GRAPHX)
        .run(&g, &a, &PageRank::fixed(10))
        .expect("fits");
    for i in 0..r1.len() {
        assert!((r1[i].0 - r2[i].0).abs() < 1e-12);
        assert!((r1[i].0 - r3[i].0).abs() < 1e-12);
    }
}

#[test]
fn sssp_and_kcore_agree_between_sync_and_pregel() {
    let g = Dataset::RoadNetCa.generate(0.1, 3);
    let a = assignment(&g, Strategy::Oblivious, 9);
    let spec = ClusterSpec::local_9();
    let sync = Engine::new(EngineConfig::new(spec.clone()), Model::Sync);
    let pregel = Engine::new(EngineConfig::new(spec), Model::GRAPHX);

    let sssp = Sssp::undirected(0u64);
    let (d1, _) = sync.run(&g, &a, &sssp).unwrap();
    let (d2, _) = pregel.run(&g, &a, &sssp).expect("fits");
    assert_eq!(d1, d2);

    let kcore = KCore::new(3);
    let (k1, _) = sync.run(&g, &a, &kcore).unwrap();
    let (k2, _) = pregel.run(&g, &a, &kcore).expect("fits");
    assert_eq!(k1, k2);
}

#[test]
fn async_coloring_is_proper_for_every_strategy() {
    let g = Dataset::LiveJournal.generate(0.05, 7);
    let spec = ClusterSpec::local_9();
    let engine = Engine::new(EngineConfig::new(spec), Model::Async);
    for strategy in [
        Strategy::Random,
        Strategy::Grid,
        Strategy::Oblivious,
        Strategy::Hybrid,
    ] {
        let a = assignment(&g, strategy, 9);
        let (colors, report) = engine.run(&g, &a, &Coloring).unwrap();
        assert!(report.converged, "{strategy:?} did not converge");
        assert!(
            coloring::is_proper_coloring(&g, &colors),
            "{strategy:?} produced an improper coloring"
        );
    }
}
