//! Ablation experiments beyond the paper's figures: sweeps over the design
//! knobs the strategies expose (HDRF's λ, Hybrid's degree threshold θ, the
//! loader count behind "oblivious" distributed state), plus the §5.4.3
//! partition-reuse scenario quantified.

use crate::experiments::secs;
use crate::pipeline::{App, EngineKind, Pipeline, Scenario};
use gp_cluster::{ClusterSpec, CostRates, Table};
use gp_gen::Dataset;
use gp_partition::strategies::{BiCut, Chunking, Hdrf, Hybrid, Oblivious};
use gp_partition::{IngressReport, PartitionContext, Partitioner, Strategy};

/// HDRF λ sweep: λ ≤ 1 uses balance as a tie-breaker; larger values trade
/// replication factor for balance (Appendix B). PowerGraph hard-codes λ = 1.
pub fn ablation_hdrf_lambda(scale: f64, seed: u64) -> Vec<Table> {
    let graph = Dataset::Twitter.generate(scale, seed);
    let ctx = PartitionContext::new(25).with_seed(seed);
    let mut t = Table::new(
        "Ablation — HDRF lambda sweep (Twitter analogue, 25 partitions)",
        &["lambda", "RF", "edge imbalance", "mirrors"],
    );
    for lambda in [0.0, 0.25, 0.5, 1.0, 2.0, 4.0, 10.0] {
        let out = Hdrf::with_lambda(lambda).partition(&graph, &ctx);
        t.row(vec![
            format!("{lambda}"),
            format!("{:.2}", out.assignment.replication_factor()),
            format!("{:.3}", out.assignment.balance().imbalance),
            out.assignment.total_mirrors().to_string(),
        ]);
    }
    vec![t]
}

/// Hybrid θ sweep: low thresholds treat almost everything as high-degree
/// (pure vertex-cut by source); huge thresholds degenerate to destination
/// hashing (pure edge-cut). The paper's default is 100.
pub fn ablation_hybrid_threshold(scale: f64, seed: u64) -> Vec<Table> {
    let graph = Dataset::UkWeb.generate(scale, seed);
    let ctx = PartitionContext::new(25).with_seed(seed);
    let mut t = Table::new(
        "Ablation — Hybrid degree-threshold sweep (UK-web analogue, 25 partitions)",
        &[
            "threshold",
            "RF",
            "edge imbalance",
            "high-degree share of edges",
        ],
    );
    let degrees = graph.degrees();
    for threshold in [0u32, 10, 30, 100, 300, 1000, u32::MAX] {
        let out = Hybrid::with_threshold(threshold).partition(&graph, &ctx);
        let high_edges = graph
            .edges()
            .iter()
            .filter(|e| degrees.in_degree(e.dst) > threshold)
            .count();
        t.row(vec![
            if threshold == u32::MAX {
                "inf".to_string()
            } else {
                threshold.to_string()
            },
            format!("{:.2}", out.assignment.replication_factor()),
            format!("{:.3}", out.assignment.balance().imbalance),
            format!(
                "{:.1}%",
                100.0 * high_edges as f64 / graph.num_edges() as f64
            ),
        ]);
    }
    vec![t]
}

/// Loader-count sweep: the greedy heuristics keep *per-loader* state
/// (§5.2.2) — more parallel loaders mean each sees less of the graph and
/// replication quality degrades, while wall-clock ingress improves.
pub fn ablation_loaders(scale: f64, seed: u64) -> Vec<Table> {
    let graph = Dataset::UkWeb.generate(scale, seed);
    let spec = ClusterSpec::ec2_25();
    let mut t = Table::new(
        "Ablation — greedy heuristics vs parallel loader count (UK-web analogue, 25 partitions)",
        &[
            "loaders",
            "Oblivious RF",
            "Oblivious ingress (s)",
            "HDRF RF",
            "HDRF ingress (s)",
        ],
    );
    for loaders in [1u32, 5, 13, 25] {
        let ctx = PartitionContext::new(25)
            .with_seed(seed)
            .with_loaders(loaders);
        let ob = Oblivious.partition(&graph, &ctx);
        let ob_rep = IngressReport::from_outcome("Oblivious", &ob, loaders);
        let hd = Hdrf::recommended().partition(&graph, &ctx);
        let hd_rep = IngressReport::from_outcome("HDRF", &hd, loaders);
        t.row(vec![
            loaders.to_string(),
            format!("{:.2}", ob.assignment.replication_factor()),
            format!("{:.1}", CostRates.ingress_seconds(&ob_rep, &spec)),
            format!("{:.2}", hd.assignment.replication_factor()),
            format!("{:.1}", CostRates.ingress_seconds(&hd_rep, &spec)),
        ]);
    }
    vec![t]
}

/// Engine ablation: the same partitioning under PowerGraph's engine vs
/// PowerLyra's, for a natural and a non-natural application — isolating the
/// hybrid engine's local-gather contribution (§6.4.1).
pub fn ablation_engines(scale: f64, seed: u64) -> Vec<Table> {
    let spec = ClusterSpec::ec2_25();
    let mut t = Table::new(
        "Ablation — engine effect per strategy (UK-web analogue, EC2-25)",
        &[
            "Strategy",
            "App",
            "natural?",
            "net/machine (sync engine)",
            "net/machine (hybrid engine)",
            "saving",
        ],
    );
    let mut jobs = Vec::new();
    for strategy in [
        Strategy::Hybrid,
        Strategy::OneDTarget,
        Strategy::TwoD,
        Strategy::Grid,
    ] {
        for app in [App::PageRankFixed(10), App::Wcc] {
            for engine in [EngineKind::PowerGraph, EngineKind::PowerLyra] {
                jobs.push(Scenario::new(Dataset::UkWeb, strategy, &spec, engine, app));
            }
        }
    }
    let results = Pipeline::new(scale, seed).run_all(&jobs);
    for (job, pair) in jobs.chunks(2).zip(results.chunks(2)) {
        let (job, sync, hybrid) = (&job[0], &pair[0], &pair[1]);
        let saving = 1.0 - hybrid.mean_net_in_bytes / sync.mean_net_in_bytes.max(1.0);
        t.row(vec![
            job.strategy.label().to_string(),
            job.app.label().to_string(),
            job.app.is_natural().to_string(),
            gp_cluster::table::fmt_bytes(sync.mean_net_in_bytes),
            gp_cluster::table::fmt_bytes(hybrid.mean_net_in_bytes),
            format!("{:.0}%", saving * 100.0),
        ]);
    }
    vec![t]
}

/// The §5.4.3 reuse scenario: run k-core sweeps `jobs` times, re-partitioning
/// every time vs partitioning once with a high-quality strategy and reusing
/// the saved assignment. Reuse flips the economics toward low replication
/// factors.
pub fn ablation_reuse(scale: f64, seed: u64) -> Vec<Table> {
    let spec = ClusterSpec::ec2_25();
    let app = App::PageRankFixed(30);
    let jobs = 5u32;
    let mut t = Table::new(
        format!("Ablation — partition reuse over {jobs} successive jobs (UK-web analogue, EC2-25)"),
        &[
            "Strategy",
            "1 job (ingress+compute)",
            "5 jobs, re-partitioning",
            "5 jobs, reused partitions",
        ],
    );
    let scenarios = [Strategy::Grid, Strategy::Hdrf]
        .map(|s| Scenario::new(Dataset::UkWeb, s, &spec, EngineKind::PowerGraph, app));
    for job in Pipeline::new(scale, seed).run_all(&scenarios) {
        let single = job.total_seconds();
        let repartition = jobs as f64 * single;
        // Reuse: pay ingress once, then only a (cheap) reload plus compute.
        let reload = job.ingress_seconds * 0.2; // stream the saved assignment
        let reused = job.total_seconds() + (jobs - 1) as f64 * (reload + job.compute_seconds);
        t.row(vec![
            job.strategy.label().to_string(),
            secs(single),
            secs(repartition),
            secs(reused),
        ]);
    }
    vec![t]
}

/// Edge-cut vs vertex-cut load balance (§3.2 / §5.1): the PowerGraph
/// motivation. Edge-cut placement concentrates a hub's entire gather work on
/// the machine owning the hub; vertex-cuts split it across the hub's
/// replicas. We measure the max/mean per-machine gather-phase work imbalance
/// for PageRank under an edge-cut-like placement (1D-Target: every vertex's
/// in-edges on one machine) vs true vertex-cuts.
pub fn ablation_edge_vs_vertex_cut(scale: f64, seed: u64) -> Vec<Table> {
    use gp_apps::PageRank;
    use gp_engine::{Engine, EngineConfig, Model};
    let spec = ClusterSpec::ec2_25();
    let mut t = Table::new(
        "Ablation — edge-cut vs vertex-cut gather-work imbalance, PageRank (EC2-25)",
        &[
            "Dataset",
            "1D-Target (edge-cut-like)",
            "Grid (vertex-cut)",
            "HDRF (vertex-cut)",
        ],
    );
    // The scaled analogues cap hub in-degrees well below a machine's edge
    // share, muting the effect; add an extreme-hub Chung-Lu graph whose top
    // vertices collect a Twitter-like share of all edges.
    let extreme = {
        let n = (50_000.0 * scale) as usize;
        let weights: Vec<f64> = (0..n)
            .map(|i| 600_000.0 * scale / (i as f64 + 1.0).powf(0.85))
            .collect();
        gp_gen::chung_lu(&weights, seed)
    };
    let named: Vec<(String, gp_core::EdgeList)> = vec![
        (
            "road-net-USA".into(),
            Dataset::RoadNetUsa.generate(scale, seed),
        ),
        ("Twitter".into(), Dataset::Twitter.generate(scale, seed)),
        ("UK-web".into(), Dataset::UkWeb.generate(scale, seed)),
        ("extreme power-law".into(), extreme),
    ];
    for (name, graph) in named {
        let imbalance = |strategy: Strategy| -> String {
            let assignment = strategy
                .build()
                .partition(
                    &graph,
                    &PartitionContext::new(spec.machines).with_seed(seed),
                )
                .assignment;
            let engine = Engine::new(EngineConfig::new(spec.clone()), Model::Sync);
            let (_, report) = engine
                .run(&graph, &assignment, &PageRank::fixed(3))
                .expect("PowerGraph holds any graph");
            // Max/mean per-machine work over the run.
            let machines = spec.machines as usize;
            let mut work = vec![0.0f64; machines];
            for step in &report.steps {
                for (m, w) in step.machine_work.iter().enumerate() {
                    work[m] += w;
                }
            }
            let mean = work.iter().sum::<f64>() / machines as f64;
            let max = work.iter().copied().fold(0.0, f64::max);
            format!("{:.2}x", max / mean.max(1e-12))
        };
        t.row(vec![
            name,
            imbalance(Strategy::OneDTarget),
            imbalance(Strategy::Grid),
            imbalance(Strategy::Hdrf),
        ]);
    }
    vec![t]
}

/// Chunk-based partitioning (Gemini, §2.2 related work) against the paper's
/// strategy set: replication factor per dataset class on 25 partitions. The
/// chunking column quantifies how much locality each dataset's id order
/// carries.
pub fn ablation_chunking(scale: f64, seed: u64) -> Vec<Table> {
    let ctx = PartitionContext::new(25).with_seed(seed);
    let mut t = Table::new(
        "Ablation — Gemini-style Chunking vs the paper's strategies (25 partitions) [RF]",
        &["Dataset", "Chunking", "Random", "Grid", "HDRF", "Hybrid"],
    );
    for dataset in Dataset::POWERGRAPH_SET {
        let graph = dataset.generate(scale, seed);
        let rf = |mut p: Box<dyn Partitioner>| {
            format!(
                "{:.2}",
                p.partition(&graph, &ctx).assignment.replication_factor()
            )
        };
        t.row(vec![
            dataset.to_string(),
            rf(Box::new(Chunking)),
            rf(Strategy::Random.build()),
            rf(Strategy::Grid.build()),
            rf(Strategy::Hdrf.build()),
            rf(Strategy::Hybrid.build()),
        ]);
    }
    vec![t]
}

/// Delta-caching ablation (a PowerGraph engine feature): gather caching
/// skips re-gathering for vertices whose neighborhood did not change.
/// It pays off for always-active programs like fixed-iteration PageRank,
/// where stabilized regions stop changing but every vertex still recomputes
/// each superstep. (Scatter-activated apps gain nothing: a vertex is only
/// activated *because* a gather neighbor changed, which dirties its cache —
/// the engine models exactly that.)
pub fn ablation_delta_caching(scale: f64, seed: u64) -> Vec<Table> {
    use gp_apps::PageRank;
    use gp_engine::{Engine, EngineConfig, Model};
    let spec = ClusterSpec::ec2_25();
    let mut t = Table::new(
        "Ablation — PowerGraph gather (delta) caching, PageRank(30) (UK-web analogue, EC2-25)",
        &[
            "Strategy",
            "gather msgs (off)",
            "gather msgs (on)",
            "compute s (off)",
            "compute s (on)",
        ],
    );
    let graph = Dataset::UkWeb.generate(scale, seed);
    let program = PageRank::fixed_with_tolerance(30, 1e-3);
    // One semantic pass per caching flag, priced on both partitionings.
    let traced = [false, true].map(|on| {
        let config = EngineConfig::new(spec.clone()).with_delta_caching(on);
        let engine = Engine::new(config, Model::Sync);
        let (_, trace) = engine.trace(&graph, &program);
        (engine, trace)
    });
    for strategy in [Strategy::Grid, Strategy::Hdrf] {
        let assignment = strategy
            .build()
            .partition(
                &graph,
                &PartitionContext::new(spec.machines).with_seed(seed),
            )
            .assignment;
        let gm =
            |r: &gp_engine::ComputeReport| r.steps.iter().map(|s| s.gather_messages).sum::<u64>();
        let [off, on] = [0, 1].map(|i| {
            let (engine, trace) = &traced[i];
            let priced = engine.price(trace, &graph, &assignment, &program);
            priced.expect("PowerGraph holds any graph")
        });
        t.row(vec![
            strategy.label().to_string(),
            gm(&off).to_string(),
            gm(&on).to_string(),
            format!("{:.1}", off.wall_clock_seconds()),
            format!("{:.1}", on.wall_clock_seconds()),
        ]);
    }
    vec![t]
}

/// Bipartite extension: compare the general-purpose strategies against
/// BiCut on an unbalanced users x items graph (the PowerLyra bipartite
/// extension noted in the paper's related work, §2.2).
pub fn ablation_bipartite(scale: f64, seed: u64) -> Vec<Table> {
    let params = gp_gen::BipartiteParams {
        users: ((40_000.0 * scale) as u64).max(100),
        items: ((2_000.0 * scale) as u64).max(10),
        ..Default::default()
    };
    let graph = gp_gen::bipartite(&params, seed);
    let ctx = PartitionContext::new(9).with_seed(seed);
    let mut t = Table::new(
        format!(
            "Ablation — bipartite graph ({} users x {} items, {} edges, 9 partitions)",
            params.users,
            params.items,
            graph.num_edges()
        ),
        &["Strategy", "RF", "edge imbalance"],
    );
    let mut run = |label: &str, mut p: Box<dyn Partitioner>| {
        let out = p.partition(&graph, &ctx);
        t.row(vec![
            label.to_string(),
            format!("{:.2}", out.assignment.replication_factor()),
            format!("{:.3}", out.assignment.balance().imbalance),
        ]);
    };
    run("BiCut", Box::<BiCut>::default());
    run("Chunking", Box::new(Chunking));
    for s in [
        Strategy::Random,
        Strategy::Grid,
        Strategy::Oblivious,
        Strategy::Hdrf,
        Strategy::Hybrid,
        Strategy::TwoD,
    ] {
        run(s.label(), s.build());
    }
    vec![t]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lambda_sweep_rows_cover_the_grid() {
        let t = &ablation_hdrf_lambda(0.05, 1)[0];
        assert_eq!(t.len(), 7);
    }

    #[test]
    fn threshold_sweep_includes_extremes() {
        let t = &ablation_hybrid_threshold(0.05, 1)[0];
        assert_eq!(t.len(), 7);
    }

    #[test]
    fn loader_sweep_has_four_rows() {
        let t = &ablation_loaders(0.05, 1)[0];
        assert_eq!(t.len(), 4);
    }

    #[test]
    fn bipartite_table_ranks_bicut_first() {
        let t = &ablation_bipartite(0.1, 1)[0];
        assert_eq!(t.len(), 8);
    }
}
