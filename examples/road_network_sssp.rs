//! Low-degree, high-diameter workload: single-source shortest paths over a
//! road network — the setting where the greedy streaming heuristics
//! (Oblivious/HDRF) shine (§5.4.2).
//!
//! Shows: generating a road-network analogue, comparing greedy vs hash
//! strategies on replication factor, running undirected SSSP, and reading
//! distances back out.
//!
//! ```sh
//! cargo run --release --example road_network_sssp
//! ```

use distgraph::apps::{sssp::INFINITY, Sssp};
use distgraph::cluster::ClusterSpec;
use distgraph::core::VertexId;
use distgraph::engine::{Engine, EngineConfig, Model};
use distgraph::gen::{road_network, RoadNetworkParams};
use distgraph::partition::{PartitionContext, Strategy};

fn main() {
    // A 150x150 junction grid with a few missing streets and highways.
    let graph = road_network(
        &RoadNetworkParams {
            width: 150,
            height: 150,
            ..Default::default()
        },
        2024,
    );
    println!(
        "road network: {} junctions, {} road segments",
        graph.num_vertices(),
        graph.num_edges()
    );

    let ctx = PartitionContext::new(9).with_seed(2024);
    println!("\nreplication factors on 9 machines (lower is better):");
    for strategy in [
        Strategy::Hdrf,
        Strategy::Oblivious,
        Strategy::Grid,
        Strategy::Random,
    ] {
        let rf = strategy
            .build()
            .partition(&graph, &ctx)
            .assignment
            .replication_factor();
        println!("  {:<10} {rf:.2}", strategy.label());
    }

    // Partition with the paper's recommendation for low-degree graphs and
    // run SSSP from the top-left junction.
    let outcome = Strategy::Hdrf.build().partition(&graph, &ctx);
    let engine = Engine::new(EngineConfig::new(ClusterSpec::local_9()), Model::Sync);
    let source = VertexId(0);
    let (dist, report) = engine
        .run(&graph, &outcome.assignment, &Sssp::undirected(source))
        .expect("PowerGraph holds any graph");

    let reachable = dist.iter().filter(|&&d| d != INFINITY).count();
    let eccentricity = dist
        .iter()
        .filter(|&&d| d != INFINITY)
        .max()
        .copied()
        .unwrap_or(0);
    println!(
        "\nSSSP from {source}: {} supersteps (frontier advances one hop per step)",
        report.supersteps()
    );
    println!(
        "reachable junctions: {reachable} / {}",
        graph.num_vertices()
    );
    println!("farthest reachable junction is {eccentricity} hops away");
    println!(
        "peak frontier size: {} junctions",
        report
            .steps
            .iter()
            .map(|s| s.active_vertices)
            .max()
            .unwrap_or(0)
    );
}
