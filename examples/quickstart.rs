//! Quickstart: partition a graph, inspect the partitioning quality, and run
//! PageRank on the simulated PowerGraph engine.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use distgraph::apps::PageRank;
use distgraph::cluster::ClusterSpec;
use distgraph::engine::{Engine, EngineConfig, Model};
use distgraph::gen::{classify, Dataset};
use distgraph::partition::{PartitionContext, Strategy};

fn main() {
    // 1. Get a graph. Here: the LiveJournal analogue (heavy-tailed social
    //    network). You can also load your own edge list with
    //    `distgraph::core::io::read_edge_list("graph.txt")`.
    let graph = Dataset::LiveJournal.generate(0.2, 42);
    println!(
        "graph: {} vertices, {} edges, class = {}",
        graph.num_vertices(),
        graph.num_edges(),
        classify(&graph)
    );

    // 2. Partition it for a 9-machine cluster with two different strategies
    //    and compare replication factors (the paper's quality metric).
    let ctx = PartitionContext::new(9).with_seed(42);
    for strategy in [Strategy::Random, Strategy::Grid, Strategy::Hdrf] {
        let outcome = strategy.build().partition(&graph, &ctx);
        println!(
            "{:<10} replication factor {:.2}, edge imbalance {:.3}",
            strategy.label(),
            outcome.assignment.replication_factor(),
            outcome.assignment.balance().imbalance,
        );
    }

    // 3. Run ten iterations of PageRank on the simulated PowerGraph engine
    //    over the Grid partitioning.
    let outcome = Strategy::Grid.build().partition(&graph, &ctx);
    let engine = Engine::new(EngineConfig::new(ClusterSpec::local_9()), Model::Sync);
    let (ranks, report) = engine
        .run(&graph, &outcome.assignment, &PageRank::fixed(10))
        .expect("PowerGraph holds any graph");

    let mut top: Vec<(usize, f64)> = ranks.iter().enumerate().map(|(v, r)| (v, r.0)).collect();
    top.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap());
    println!("\nPageRank finished in {} supersteps", report.supersteps());
    println!(
        "simulated compute time {:.1}s, cluster-wide traffic {:.1} MiB",
        report.compute_seconds(),
        report.total_in_bytes() / (1 << 20) as f64
    );
    println!("top 5 vertices by rank:");
    for (v, r) in top.iter().take(5) {
        println!("  v{v}: {r:.2}");
    }
}
