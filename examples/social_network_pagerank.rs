//! The paper's motivating scenario: you have a social-network graph and a
//! short PageRank job — which partitioning strategy should you pick, and how
//! much does it matter?
//!
//! This example sweeps every strategy PowerLyra ships, measures ingress time,
//! compute time and replication factor on the simulated EC2-25 cluster, and
//! checks the outcome against the paper's decision tree (Fig 6.6).
//!
//! ```sh
//! cargo run --release --example social_network_pagerank
//! ```

use distgraph::advisor::{powerlyra, Workload};
use distgraph::apps::PageRank;
use distgraph::cluster::{ClusterSpec, CostRates};
use distgraph::engine::{EngineConfig, HybridGas};
use distgraph::gen::{classify, Dataset};
use distgraph::partition::{IngressReport, PartitionContext, Strategy};

fn main() {
    let graph = Dataset::Twitter.generate(0.3, 7);
    let spec = ClusterSpec::ec2_25();
    let class = classify(&graph);
    println!(
        "Twitter analogue: {} vertices, {} edges, class = {class}\n",
        graph.num_vertices(),
        graph.num_edges()
    );

    let ctx = PartitionContext::new(spec.machines).with_seed(7);
    let engine = HybridGas::new(EngineConfig::new(spec.clone()));

    println!(
        "{:<10} {:>6} {:>12} {:>12} {:>12}",
        "strategy", "RF", "ingress (s)", "compute (s)", "total (s)"
    );
    let mut best: Option<(Strategy, f64)> = None;
    for strategy in [
        Strategy::Random,
        Strategy::Grid,
        Strategy::Oblivious,
        Strategy::Hybrid,
        Strategy::HybridGinger,
    ] {
        let outcome = strategy.build().partition(&graph, &ctx);
        let ingress = IngressReport::from_outcome(strategy.label(), &outcome, spec.machines);
        let ingress_s = CostRates.ingress_seconds(&ingress, &spec);
        let (_, report) = engine.run(&graph, &outcome.assignment, &PageRank::fixed(10));
        let compute_s = report.compute_seconds();
        let total = ingress_s + compute_s;
        println!(
            "{:<10} {:>6.2} {:>12.1} {:>12.1} {:>12.1}",
            strategy.label(),
            outcome.assignment.replication_factor(),
            ingress_s,
            compute_s,
            total
        );
        if best.map_or(true, |(_, t)| total < t) {
            best = Some((strategy, total));
        }
    }

    let (winner, _) = best.expect("at least one strategy ran");
    println!("\nmeasured winner: {}", winner.label());

    // What would the paper's decision tree have told us, without running
    // anything? PageRank is natural; a short job is ingress-dominated.
    let rec = powerlyra(&Workload {
        graph_class: class,
        machines: spec.machines,
        compute_ingress_ratio: 0.5,
        natural_app: true,
    });
    println!(
        "Fig 6.6 recommendation: {} (path: {})",
        rec.best().label(),
        rec.path.join(" → ")
    );
}
