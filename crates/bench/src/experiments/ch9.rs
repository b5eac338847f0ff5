//! Chapter 9 experiments — GraphX with all strategies.

use crate::experiments::tree_table;
use crate::pipeline::{App, EngineKind, Pipeline, Scenario};
use gp_cluster::{ClusterSpec, Table};
use gp_engine::pregel::graph_bytes;
use gp_engine::{Engine, EngineConfig, PlacementCase};
use gp_gen::Dataset;
use gp_partition::Strategy;

/// §9.2 runs the nine-strategy set on a local cluster of 9 machines, to 25
/// iterations, measuring per-iteration times.
const ITERATIONS: u32 = 25;

fn ch9_apps() -> [App; 3] {
    [
        App::Sssp { undirected: false },
        App::Wcc,
        App::PageRankFixed(ITERATIONS),
    ]
}

/// Cumulative total time (ingress offset + per-iteration compute) at the end
/// of selected iterations for every strategy — the Fig 9.1/9.2 series.
fn per_iteration(scale: f64, seed: u64, dataset: Dataset, fig: &str) -> Vec<Table> {
    let mut pipeline = Pipeline::new(scale, seed);
    let spec = ClusterSpec::local_9();
    let engine = EngineKind::graphx_default();
    let mut tables = Vec::new();
    for app in ch9_apps() {
        let mut headers: Vec<String> = vec!["Strategy".into(), "Partitioning (s)".into()];
        let sample_iters = [1, 5, 10, 15, 20, 25];
        headers.extend(sample_iters.iter().map(|i| format!("iter {i}")));
        let header_refs: Vec<&str> = headers.iter().map(String::as_str).collect();
        let mut t = Table::new(
            format!(
                "{fig} — Total time at end of each iteration, {} ({dataset}, Local-9, GraphX-All)",
                app.label()
            ),
            &header_refs,
        );
        let jobs = Strategy::POWERLYRA_ALL.map(|s| Scenario::new(dataset, s, &spec, engine, app));
        for job in pipeline.run_all(&jobs) {
            let mut row = vec![
                job.strategy.label().to_string(),
                format!("{:.1}", job.ingress_seconds),
            ];
            for iter in sample_iters {
                // A job that ends early holds its last superstep's total.
                let reached = job.cumulative_seconds.iter().take(iter).next_back();
                row.push(reached.map_or("-".into(), |c| format!("{:.1}", job.ingress_seconds + c)));
            }
            t.row(row);
        }
        tables.push(t);
    }
    tables
}

/// Fig 9.1: per-iteration cumulative times on road-net-CA. The shape to
/// reproduce: hash strategies start lower (faster partitioning) but the
/// greedy strategies have a lower slope and catch up — earliest for
/// PageRank (all vertices active), later for WCC, not at all for SSSP.
pub fn fig9_1(scale: f64, seed: u64) -> Vec<Table> {
    per_iteration(scale, seed, Dataset::RoadNetCa, "Fig 9.1")
}

/// Fig 9.2: per-iteration cumulative times on LiveJournal — 2D is always
/// the best or among the best (§9.2.2).
pub fn fig9_2(scale: f64, seed: u64) -> Vec<Table> {
    per_iteration(scale, seed, Dataset::LiveJournal, "Fig 9.2")
}

/// Fig 9.3: the GraphX-all decision tree.
pub fn fig9_3(_scale: f64, _seed: u64) -> Vec<Table> {
    let tree = gp_advisor::render_graphx_all_tree();
    tree_table("Fig 9.3 — Decision Tree for GraphX-All", tree)
}

/// Fig 9.4: effect of executor memory on execution time (GraphX-All,
/// road-net-CA, Local-9): case 1 (fail) at the low end, unpredictable
/// case 2 in the middle, fast case 3 with decreasing GC overhead beyond.
pub fn fig9_4(scale: f64, seed: u64) -> Vec<Table> {
    let mut pipeline = Pipeline::new(scale, seed);
    let spec = ClusterSpec::local_9();
    let mut t = Table::new(
        "Fig 9.4 — Executor memory vs execution time (GraphX-All, Road-net-CA, Local-9)",
        &["Executor memory", "Execution time (s)", "Placement case"],
    );
    // The paper sweeps 400-1800 MB of executor memory against road-net-CA;
    // our analogue is smaller, so sweep relative to the partitioned graph's
    // actual footprint to hit all three placement cases.
    let partitions = EngineKind::graphx_default().partitions(&spec);
    let outcome = pipeline.partition(Dataset::RoadNetCa, Strategy::Random, partitions, 9);
    let footprint = graph_bytes(&outcome.assignment);
    for step in 1..=14u64 {
        // 1/9th of the footprint is the fair per-executor share; sweep from
        // starvation (case 1) past co-location pressure (case 2) to plenty
        // (case 3).
        let mem = footprint * step / 10;
        let engine = EngineKind::GraphX {
            executor_memory_bytes: mem,
        };
        let app = App::PageRankFixed(ITERATIONS);
        let job = pipeline.run(&Scenario::new(
            Dataset::RoadNetCa,
            Strategy::Random,
            &spec,
            engine,
            app,
        ));
        let graphx = Engine::new(EngineConfig::new(spec.clone()), engine.model(app));
        let outcome = pipeline.partition(Dataset::RoadNetCa, Strategy::Random, partitions, 9);
        let case = match graphx.placement(&outcome.assignment) {
            Err(_) => "case 1: does not fit (job FAILED)".to_string(),
            Ok(PlacementCase::FitsCluster { retries }) => {
                format!("case 2: fits cluster after {retries} co-location retries")
            }
            Ok(PlacementCase::FitsFew) => "case 3: fits a few executors".to_string(),
        };
        t.row(vec![
            gp_cluster::table::fmt_bytes(mem as f64),
            crate::experiments::secs(job.total_seconds()),
            case,
        ]);
    }
    vec![t]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig9_3_renders() {
        assert!(fig9_3(1.0, 1)[0].len() >= 4);
    }
}
