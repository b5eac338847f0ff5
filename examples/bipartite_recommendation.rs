//! Bipartite workload: a buyers×items graph (the paper's introduction names
//! "bipartite graphs between buyers and items" as a motivating graph class)
//! partitioned with the general-purpose strategies vs the bipartite-aware
//! BiCut extension.
//!
//! ```sh
//! cargo run --release --example bipartite_recommendation
//! ```

use distgraph::apps::PageRank;
use distgraph::cluster::ClusterSpec;
use distgraph::engine::{EngineConfig, HybridGas};
use distgraph::gen::{bipartite, BipartiteParams};
use distgraph::partition::strategies::BiCut;
use distgraph::partition::{PartitionContext, Partitioner, Strategy};

fn main() {
    let params = BipartiteParams {
        users: 30_000,
        items: 1_500,
        mean_edges_per_user: 12.0,
        popularity_skew: 0.9,
    };
    let graph = bipartite(&params, 77);
    println!(
        "bipartite graph: {} users x {} items, {} purchase edges\n",
        params.users,
        params.items,
        graph.num_edges()
    );

    let ctx = PartitionContext::new(9).with_seed(77);
    let engine = HybridGas::new(EngineConfig::new(ClusterSpec::local_9()));
    println!(
        "{:<10} {:>6} {:>10} {:>14}",
        "strategy", "RF", "imbalance", "PR traffic"
    );

    let bench = |label: &str, mut p: Box<dyn Partitioner>| {
        let outcome = p.partition(&graph, &ctx);
        let (_, report) = engine.run(&graph, &outcome.assignment, &PageRank::fixed(10));
        println!(
            "{label:<10} {:>6.2} {:>10.3} {:>14}",
            outcome.assignment.replication_factor(),
            outcome.assignment.balance().imbalance,
            distgraph::cluster::table::fmt_bytes(report.total_in_bytes()),
        );
    };

    bench("BiCut", Box::new(BiCut::default()));
    for s in [
        Strategy::Hybrid,
        Strategy::Hdrf,
        Strategy::Grid,
        Strategy::TwoD,
        Strategy::Random,
    ] {
        bench(s.label(), s.build());
    }

    println!(
        "\nBiCut hashes every edge by its user endpoint: users (the big side)\n\
         keep exactly one replica, and only the {} items are replicated —\n\
         structure the general-purpose vertex-cuts cannot see.",
        params.items
    );
}
