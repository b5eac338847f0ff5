//! Analytic oracles: bounds that follow from how each hash strategy places
//! an edge, checked on every dataset analogue. None is a fitted number — a
//! miss is a placement bug, not a tolerance to widen.
//!
//! * Grid on a `√P × √P` matrix puts a vertex only in its row and column:
//!   at most `2√P − 1` replicas (7 at P = 16).
//! * PDS on `p² + p + 1` partitions puts a vertex only on its perfect
//!   difference set: at most `p + 1` replicas (4 at P = 13).
//! * 1D hashes the source, so a vertex's out-edges share one partition;
//!   1D-Target hashes the target, so its in-edges do.
//! * Hybrid hashes the target of every edge into a low-degree vertex, so
//!   such a vertex's in-edges share one partition.
//! * Random hashes each unordered pair independently, so a vertex with
//!   `k` distinct incident pairs has `P·(1 − (1 − 1/P)^k)` expected
//!   replicas; the mean over vertices must match the measured replication
//!   factor within 2 %.

use distgraph::core::{EdgeList, VertexId};
use distgraph::gen::Dataset;
use distgraph::partition::strategies::hybrid::DEFAULT_THRESHOLD;
use distgraph::partition::{Assignment, PartitionContext, Strategy};

const SEEDS: [u64; 3] = [1, 2, 3];

fn partition(graph: &EdgeList, strategy: Strategy, parts: u32, seed: u64) -> Assignment {
    let ctx = PartitionContext::new(parts).with_seed(seed);
    strategy.build().partition(graph, &ctx).assignment
}

/// `Ok` when every vertex keyed by `owner` (one entry per edge, `None` for
/// an edge the rule does not cover) has all its keyed edges on one
/// partition; otherwise the first split vertex and two of its partitions.
fn one_home_per_vertex(
    graph: &EdgeList,
    a: &Assignment,
    owner: &[Option<VertexId>],
) -> Result<(), (VertexId, u32, u32)> {
    let mut home = vec![u32::MAX; graph.num_vertices() as usize];
    for (i, v) in owner.iter().enumerate() {
        let Some(v) = *v else { continue };
        let p = a.edge_partition(i).0;
        let slot = &mut home[v.index()];
        if *slot == u32::MAX {
            *slot = p;
        } else if *slot != p {
            return Err((v, *slot, p));
        }
    }
    Ok(())
}

#[test]
fn constrained_strategies_respect_their_replica_bounds() {
    for dataset in Dataset::ALL {
        for seed in SEEDS {
            let graph = dataset.generate(0.02, seed);
            for (strategy, parts, bound) in [(Strategy::Grid, 16, 7), (Strategy::Pds, 13, 4)] {
                let a = partition(&graph, strategy, parts, seed);
                for v in 0..graph.num_vertices() {
                    let replicas = a.replica_count(VertexId(v));
                    assert!(
                        replicas <= bound,
                        "{dataset:?} seed {seed}: {strategy} put v{v} on {replicas} > {bound}"
                    );
                }
            }
        }
    }
}

#[test]
fn hashed_endpoints_keep_their_edges_on_one_partition() {
    for dataset in Dataset::ALL {
        for seed in SEEDS {
            let graph = dataset.generate(0.02, seed);
            let edges = graph.edges();
            let mut in_degree = vec![0u32; graph.num_vertices() as usize];
            for e in edges {
                in_degree[e.dst.index()] += 1;
            }
            let low = |v: VertexId| in_degree[v.index()] <= DEFAULT_THRESHOLD;
            for (strategy, owner) in [
                (Strategy::OneD, edges.iter().map(|e| Some(e.src)).collect()),
                (
                    Strategy::OneDTarget,
                    edges.iter().map(|e| Some(e.dst)).collect(),
                ),
                (
                    Strategy::Hybrid,
                    edges
                        .iter()
                        .map(|e| Some(e.dst).filter(|&v| low(v)))
                        .collect::<Vec<_>>(),
                ),
            ] {
                let a = partition(&graph, strategy, 16, seed);
                if let Err((v, p, q)) = one_home_per_vertex(&graph, &a, &owner) {
                    panic!(
                        "{dataset:?} seed {seed}: {strategy} split v{} over p{p} and p{q}",
                        v.0
                    );
                }
            }
        }
    }
}

#[test]
fn random_replication_matches_its_closed_form() {
    const P: u32 = 16;
    for (dataset, seed) in [Dataset::LiveJournal, Dataset::UkWeb]
        .into_iter()
        .flat_map(|d| SEEDS.map(|seed| (d, seed)))
    {
        let graph = dataset.generate(0.1, seed);
        // k(v): distinct unordered pairs {v, u} touching v (a self-loop is
        // one pair on one vertex).
        let mut pairs: Vec<(u64, u64)> = graph
            .edges()
            .iter()
            .map(|e| (e.src.0.min(e.dst.0), e.src.0.max(e.dst.0)))
            .collect();
        pairs.sort_unstable();
        pairs.dedup();
        let mut k = vec![0u32; graph.num_vertices() as usize];
        for &(u, v) in &pairs {
            k[u as usize] += 1;
            if v != u {
                k[v as usize] += 1;
            }
        }
        let miss = 1.0 - 1.0 / f64::from(P);
        let touched = k.iter().filter(|&&k| k > 0);
        let expected: f64 = touched
            .clone()
            .map(|&k| f64::from(P) * (1.0 - miss.powi(k as i32)))
            .sum::<f64>()
            / touched.count() as f64;
        let measured = partition(&graph, Strategy::Random, P, seed).replication_factor();
        let gap = measured / expected - 1.0;
        assert!(
            gap.abs() <= 0.02,
            "{dataset:?} seed {seed}: Random RF {measured:.4} vs closed form {expected:.4} \
             ({:+.2} %)",
            gap * 100.0
        );
    }
}
