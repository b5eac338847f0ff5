//! Property-based tests (proptest) over randomly generated graphs:
//! structural invariants every strategy and engine must preserve.

use distgraph::apps::{Sssp, Wcc};
use distgraph::cluster::ClusterSpec;
use distgraph::core::{Edge, EdgeList, VertexId};
use distgraph::engine::{Engine, EngineConfig, Model};
use distgraph::partition::{PartitionContext, Strategy};
use proptest::prelude::*;
// The partition::Strategy enum shadows proptest's Strategy trait; re-import
// the trait anonymously for method syntax.
use proptest::strategy::Strategy as _;

/// Arbitrary small graph: up to 60 vertices, up to 240 edges.
fn arb_graph() -> impl proptest::strategy::Strategy<Value = EdgeList> {
    (
        2u64..60,
        proptest::collection::vec((0u64..60, 0u64..60), 1..240),
    )
        .prop_map(|(n, pairs)| {
            let edges: Vec<Edge> = pairs
                .into_iter()
                .map(|(a, b)| Edge::new(a % n, b % n))
                .collect();
            EdgeList::with_vertex_count(edges, n).expect("ids in range")
        })
}

/// All strategies that run on an arbitrary partition count.
fn all_unconstrained() -> Vec<Strategy> {
    Strategy::ALL
        .into_iter()
        .filter(|s| *s != Strategy::Pds)
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn every_strategy_produces_a_valid_assignment(
        graph in arb_graph(),
        parts in 2u32..12,
        seed in 0u64..1000,
    ) {
        for strategy in all_unconstrained() {
            let ctx = PartitionContext::new(parts).with_seed(seed);
            let out = strategy.build().partition(&graph, &ctx);
            let a = &out.assignment;
            // One partition per edge, all in range.
            prop_assert_eq!(a.num_edges(), graph.num_edges());
            for i in 0..a.num_edges() {
                prop_assert!(a.edge_partition(i).0 < parts, "{}: partition out of range", strategy);
            }
            // Edge counts account for every edge.
            prop_assert_eq!(a.edge_counts().iter().sum::<u64>(), graph.num_edges() as u64);
            // Every vertex with an edge has 1..=parts replicas, and its
            // master is one of them.
            for v in 0..graph.num_vertices() {
                let v = VertexId(v);
                let r = a.replica_count(v);
                prop_assert!(r <= parts);
                if r > 0 {
                    prop_assert!(a.replicas(v).contains(&a.master_of(v).0));
                }
            }
            // RF bounded by [1, parts].
            let rf = a.replication_factor();
            if graph.num_edges() > 0 {
                prop_assert!((1.0..=parts as f64).contains(&rf), "{}: rf {}", strategy, rf);
            }
            // Ingress accounting is well-formed.
            prop_assert_eq!(out.loader_work.len(), ctx.num_loaders as usize);
            prop_assert!(out.loader_work.iter().all(|w| w.is_finite() && *w >= 0.0));
            prop_assert!(out.passes >= 1);
        }
    }

    #[test]
    fn replica_table_is_consistent_with_degrees(
        graph in arb_graph(),
        seed in 0u64..1000,
    ) {
        let ctx = PartitionContext::new(6).with_seed(seed);
        for strategy in [Strategy::Random, Strategy::Hdrf, Strategy::Hybrid, Strategy::TwoD] {
            let a = strategy.build().partition(&graph, &ctx).assignment;
            let counts = a.local_edge_counts(&graph);
            let deg = graph.degrees();
            for v in 0..graph.num_vertices() {
                let v = VertexId(v);
                let local = &counts[a.replica_offset(v)..][..a.replica_count(v) as usize];
                let (tin, tout) = local
                    .iter()
                    .fold((0u32, 0u32), |(i, o), &(li, lo)| (i + li, o + lo));
                prop_assert_eq!(tin, deg.in_degree(v));
                prop_assert_eq!(tout, deg.out_degree(v));
                // Every replica hosts at least one incident edge.
                for &(local_in, local_out) in local {
                    prop_assert!(local_in + local_out > 0);
                }
            }
        }
    }

    #[test]
    fn two_d_replication_bound_holds(
        graph in arb_graph(),
        seed in 0u64..1000,
    ) {
        let parts = 16u32;
        let ctx = PartitionContext::new(parts).with_seed(seed);
        let a = Strategy::TwoD.build().partition(&graph, &ctx).assignment;
        let bound = 2 * (parts as f64).sqrt().ceil() as u32 - 1;
        for v in 0..graph.num_vertices() {
            prop_assert!(a.replica_count(VertexId(v)) <= bound);
        }
    }

    #[test]
    fn wcc_matches_union_find_regardless_of_partitioning(
        graph in arb_graph(),
        seed in 0u64..100,
    ) {
        // Reference: union-find over the undirected view.
        let n = graph.num_vertices() as usize;
        let mut parent: Vec<usize> = (0..n).collect();
        fn find(p: &mut Vec<usize>, x: usize) -> usize {
            if p[x] != x {
                let r = find(p, p[x]);
                p[x] = r;
            }
            p[x]
        }
        for e in graph.edges() {
            let (a, b) = (find(&mut parent, e.src.index()), find(&mut parent, e.dst.index()));
            if a != b {
                parent[a] = b;
            }
        }
        // Canonical labels: minimum vertex id per component.
        let mut min_label = vec![u64::MAX; n];
        for v in 0..n {
            let root = find(&mut parent, v);
            min_label[root] = min_label[root].min(v as u64);
        }
        let expected: Vec<u64> = (0..n).map(|v| min_label[find(&mut parent, v)]).collect();

        let ctx = PartitionContext::new(5).with_seed(seed);
        let a = Strategy::Oblivious.build().partition(&graph, &ctx).assignment;
        let engine = Engine::new(EngineConfig::new(ClusterSpec::local_9()), Model::Sync);
        let (labels, report) = engine.run(&graph, &a, &Wcc).unwrap();
        prop_assert!(report.converged);
        prop_assert_eq!(labels, expected);
    }

    #[test]
    fn sssp_distances_satisfy_triangle_property(
        graph in arb_graph(),
        seed in 0u64..100,
    ) {
        let ctx = PartitionContext::new(4).with_seed(seed);
        let a = Strategy::Random.build().partition(&graph, &ctx).assignment;
        let engine = Engine::new(EngineConfig::new(ClusterSpec::local_9()), Model::Sync);
        let (dist, _) = engine.run(&graph, &a, &Sssp::directed(0u64)).unwrap();
        prop_assert_eq!(dist[0], 0);
        // Along every edge, d(dst) <= d(src) + 1 (and reached vertices have
        // a reaching predecessor).
        for e in graph.edges() {
            let (ds, dd) = (dist[e.src.index()], dist[e.dst.index()]);
            if ds != u32::MAX {
                prop_assert!(dd <= ds + 1, "edge {}->{}: {} vs {}", e.src, e.dst, ds, dd);
            }
        }
        for (v, &d) in dist.iter().enumerate() {
            if d != u32::MAX && d > 0 {
                let has_predecessor = graph.edges().iter().any(|e| {
                    e.dst.index() == v && dist[e.src.index()] == d - 1
                });
                prop_assert!(has_predecessor, "v{} at distance {} unreachable", v, d);
            }
        }
    }

    #[test]
    fn partitioning_is_deterministic(
        graph in arb_graph(),
        parts in 2u32..10,
        seed in 0u64..1000,
    ) {
        for strategy in [Strategy::Oblivious, Strategy::Hdrf, Strategy::HybridGinger] {
            let ctx = PartitionContext::new(parts).with_seed(seed);
            let a = strategy.build().partition(&graph, &ctx);
            let b = strategy.build().partition(&graph, &ctx);
            prop_assert_eq!(
                a.assignment.edge_partitions(),
                b.assignment.edge_partitions()
            );
        }
    }
}
