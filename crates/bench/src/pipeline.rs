//! The measurement pipeline: dataset → partition → ingress pricing →
//! engine run → §4.3 metrics.

use gp_apps::{Coloring, PageRank, Sssp, Wcc};
use gp_cluster::{ClusterSpec, CostRates};
use gp_core::{EdgeList, VertexId};
use gp_engine::{
    base_memory_per_machine, AsyncGas, CommsConfig, ComputeReport, ElasticConfig, EngineConfig,
    HybridGas, Layout, Pregel, PregelConfig, SyncGas,
};
use gp_fault::{CheckpointPolicy, FaultPlan};
use gp_gen::Dataset;
use gp_partition::{IngressReport, PartitionContext, PartitionOutcome, Strategy};
use gp_telemetry::{machine_span, span, TelemetrySink};
use std::collections::HashMap;

/// Which system's engine executes the compute phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EngineKind {
    /// PowerGraph: synchronous GAS (async for Coloring).
    PowerGraph,
    /// PowerLyra: hybrid differentiated engine (async for Coloring).
    PowerLyra,
    /// GraphX: Pregel over `partitions_per_machine` partitions.
    GraphX {
        /// Edge partitions per machine (one per core is the §7.2 rule).
        partitions_per_machine: u32,
        /// Executor memory in bytes.
        executor_memory_bytes: u64,
    },
}

impl EngineKind {
    /// GraphX with the paper's defaults: 16 partitions/machine, 8 GiB
    /// executors.
    pub fn graphx_default() -> Self {
        EngineKind::GraphX {
            partitions_per_machine: 16,
            executor_memory_bytes: 8 << 30,
        }
    }

    /// Partition count for a cluster under this engine.
    pub fn partitions(&self, spec: &ClusterSpec) -> u32 {
        match self {
            EngineKind::GraphX {
                partitions_per_machine,
                ..
            } => spec.machines * partitions_per_machine,
            _ => spec.machines,
        }
    }
}

/// The paper's applications, with their per-chapter parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum App {
    /// PageRank for a fixed number of supersteps ("PageRank(10)").
    PageRankFixed(u32),
    /// PageRank to convergence ("PageRank(C)").
    PageRankConv,
    /// Weakly connected components.
    Wcc,
    /// Single-source shortest paths from vertex 0 (undirected for PG/PL,
    /// §6.4.1).
    Sssp {
        /// Traverse edges both ways?
        undirected: bool,
    },
    /// k-core decomposition over `k_min..=k_max` (see [`App::kcore_paper`]).
    KCore {
        /// Smallest core order.
        k_min: u32,
        /// Largest core order.
        k_max: u32,
    },
    /// Simple greedy coloring (async engine on PG/PL, §5.4.1).
    Coloring,
}

impl App {
    /// The paper's long-running k-core sweep, recentred for the analogues.
    ///
    /// §5.3 peels `k = 10..=20` on the real uk-web-2005 graph, whose mean
    /// degree is ≈35 — the sweep cuts through the bulk of the mid-degree
    /// band, where replication factors differ most between strategies. The
    /// generated analogues are degree-scaled down (mean degree ≈10), so the
    /// same absolute range would retain only extreme hubs; hubs are mirrored
    /// on every machine under *every* strategy, which erases exactly the
    /// replication-driven network differences the long-job experiments
    /// measure. Keep the paper's eleven-run shape but start the sweep in the
    /// analogue's mid-degree band instead.
    pub fn kcore_paper() -> App {
        App::KCore {
            k_min: 5,
            k_max: 15,
        }
    }

    /// The six-application set of the PowerGraph/PowerLyra figures.
    pub fn paper_set() -> [App; 6] {
        [
            App::kcore_paper(),
            App::Coloring,
            App::PageRankFixed(10),
            App::Wcc,
            App::Sssp { undirected: true },
            App::PageRankConv,
        ]
    }

    /// Figure label.
    pub fn label(&self) -> &'static str {
        match self {
            App::PageRankFixed(_) => "PageRank(10)",
            App::PageRankConv => "PageRank(C)",
            App::Wcc => "WCC",
            App::Sssp { .. } => "SSSP",
            App::KCore { .. } => "K-Core",
            App::Coloring => "Coloring",
        }
    }

    /// Whether the app is natural (§6.1) — PageRank and directed SSSP.
    pub fn is_natural(&self) -> bool {
        match self {
            App::PageRankFixed(_) | App::PageRankConv => true,
            App::Sssp { undirected } => !undirected,
            _ => false,
        }
    }
}

/// Everything the paper measures for one job (§4.3).
#[derive(Debug, Clone)]
pub struct JobResult {
    /// Strategy label.
    pub strategy: Strategy,
    /// Application label.
    pub app: &'static str,
    /// Replication factor after ingress.
    pub replication_factor: f64,
    /// Simulated ingress time, seconds.
    pub ingress_seconds: f64,
    /// Simulated computation time, seconds (excludes ingress, §4.3).
    pub compute_seconds: f64,
    /// Mean per-machine inbound network traffic during compute, bytes.
    pub mean_net_in_bytes: f64,
    /// Peak per-machine memory (max − min methodology), bytes.
    pub peak_memory_bytes: f64,
    /// Supersteps/iterations executed.
    pub supersteps: u32,
    /// Per-machine mean CPU utilization during compute, percent.
    pub cpu_percents: Vec<f64>,
    /// Cumulative wall time at the end of each superstep (Figs 9.1/9.2).
    pub cumulative_seconds: Vec<f64>,
    /// Bytes written by checkpointing across the job (ch10).
    pub checkpoint_bytes: f64,
    /// Time spent re-fetching lost partitions after crashes (ch10).
    pub recovery_seconds: f64,
    /// Supersteps re-executed after rollbacks (ch10).
    pub supersteps_replayed: u32,
    /// Extra bytes resent by the reliable-delivery protocol (ch11).
    pub retransmit_bytes: f64,
    /// Barrier time lost to retry timeouts and delay spikes (ch11).
    pub retry_timeout_seconds: f64,
    /// Speculative backup tasks launched against stragglers (ch11).
    pub speculative_clones: u32,
    /// Wall-clock seconds saved by speculation (ch11).
    pub speculation_saved_seconds: f64,
    /// Elastic cluster events applied mid-job (ch13).
    pub scale_events: u32,
    /// Departures absorbed by evacuating masters within the warning window
    /// (ch13).
    pub evacuations: u32,
    /// Master state shipped off dying machines by evacuations (ch13).
    pub evacuated_bytes: f64,
    /// Departures whose warning window was too short, degenerating to crash
    /// recovery (ch13).
    pub forced_recoveries: u32,
    /// Time spent re-partitioning onto a widened cluster after scale-out
    /// (ch13).
    pub reingress_seconds: f64,
    /// True if the job failed (GraphX OOM, §7.3/§9.2.4).
    pub failed: bool,
}

impl JobResult {
    /// Total job duration (ingress + compute).
    pub fn total_seconds(&self) -> f64 {
        self.ingress_seconds + self.compute_seconds
    }
}

/// The experiment pipeline with caching of generated graphs and
/// partitionings (the same dataset×strategy×cluster triple is reused across
/// the six applications).
pub struct Pipeline {
    /// Dataset scale factor (1.0 = default mini sizes).
    pub scale: f64,
    /// Master seed.
    pub seed: u64,
    /// Real threads for ingress and engine kernels (1 = sequential,
    /// 0 = available parallelism). Every result is byte-identical at any
    /// value, which is why the partition cache key can ignore it.
    pub threads: u32,
    telemetry: TelemetrySink,
    graphs: HashMap<Dataset, EdgeList>,
    /// SSSP source of each dataset (its highest-out-degree vertex), found
    /// the first time an SSSP job runs on it.
    sssp_sources: HashMap<Dataset, VertexId>,
    partitions: HashMap<PartitionKey, PartitionOutcome>,
    /// Engine layout of each cached partitioning, built by the first job
    /// that computes on it. The key's loader count is the machine count.
    layouts: HashMap<PartitionKey, Layout>,
}

/// (dataset, strategy, partitions, loaders).
type PartitionKey = (Dataset, Strategy, u32, u32);

impl Pipeline {
    /// New pipeline at the given dataset scale.
    pub fn new(scale: f64, seed: u64) -> Self {
        Pipeline {
            scale,
            seed,
            threads: 1,
            telemetry: TelemetrySink::Disabled,
            graphs: HashMap::new(),
            sssp_sources: HashMap::new(),
            partitions: HashMap::new(),
            layouts: HashMap::new(),
        }
    }

    /// Builder: run ingress and engine kernels on `threads` real threads.
    pub fn with_threads(mut self, threads: u32) -> Self {
        self.threads = threads;
        self
    }

    /// Attach a telemetry sink. Strategies, engines and the pipeline itself
    /// record into it; everything stays inert with the disabled default.
    ///
    /// A recording sink is meant to trace **one job**: each traced run
    /// resets the simulated clock to zero, and the partition cache means
    /// ingress metrics are only recorded the first time a
    /// dataset×strategy×cluster triple is partitioned.
    pub fn with_telemetry(mut self, telemetry: TelemetrySink) -> Self {
        self.telemetry = telemetry;
        self
    }

    /// The attached telemetry sink (disabled unless
    /// [`Pipeline::with_telemetry`] was used).
    pub fn telemetry(&self) -> &TelemetrySink {
        &self.telemetry
    }

    /// The generated analogue for a dataset (cached).
    pub fn graph(&mut self, dataset: Dataset) -> &EdgeList {
        let scale = self.scale;
        let seed = self.seed;
        self.graphs
            .entry(dataset)
            .or_insert_with(|| dataset.generate(scale, seed))
    }

    /// Partition a dataset with a strategy into `partitions` parts, with
    /// `loaders` parallel loading machines (cached).
    pub fn partition(
        &mut self,
        dataset: Dataset,
        strategy: Strategy,
        partitions: u32,
        loaders: u32,
    ) -> &PartitionOutcome {
        let seed = self.seed;
        let scale = self.scale;
        let key = (dataset, strategy, partitions, loaders);
        if !self.partitions.contains_key(&key) {
            let graph = self
                .graphs
                .entry(dataset)
                .or_insert_with(|| dataset.generate(scale, seed));
            let ctx = PartitionContext::new(partitions)
                .with_seed(seed)
                .with_loaders(loaders)
                .with_threads(self.threads)
                .with_telemetry(self.telemetry.clone());
            let outcome = strategy.build().partition(graph, &ctx);
            self.partitions.insert(key, outcome);
        }
        &self.partitions[&key]
    }

    /// Ingress report + priced ingress seconds for a combination.
    pub fn ingress(
        &mut self,
        dataset: Dataset,
        strategy: Strategy,
        spec: &ClusterSpec,
        engine: EngineKind,
    ) -> (IngressReport, f64) {
        let partitions = engine.partitions(spec);
        let machines = spec.machines;
        let outcome = self.partition(dataset, strategy, partitions, machines);
        let report = IngressReport::from_outcome(strategy.label(), outcome, machines);
        let seconds = CostRates::default().ingress_seconds(&report, spec);
        (report, seconds)
    }

    /// Run the full pipeline for one job (fault-free, no checkpointing).
    pub fn run(
        &mut self,
        dataset: Dataset,
        strategy: Strategy,
        spec: &ClusterSpec,
        engine: EngineKind,
        app: App,
    ) -> JobResult {
        self.run_with_faults(
            dataset,
            strategy,
            spec,
            engine,
            app,
            FaultPlan::none(),
            CheckpointPolicy::disabled(),
        )
    }

    /// Run one job under a fault plan and checkpoint policy (ch10). With an
    /// empty plan and checkpointing disabled this is exactly [`Pipeline::run`].
    #[allow(clippy::too_many_arguments)]
    pub fn run_with_faults(
        &mut self,
        dataset: Dataset,
        strategy: Strategy,
        spec: &ClusterSpec,
        engine: EngineKind,
        app: App,
        fault_plan: FaultPlan,
        checkpoint: CheckpointPolicy,
    ) -> JobResult {
        self.run_with_comms(
            dataset,
            strategy,
            spec,
            engine,
            app,
            fault_plan,
            checkpoint,
            CommsConfig::disabled(),
        )
    }

    /// Run one job under a fault plan, checkpoint policy and communication
    /// protocol config (ch11). With comms disabled this is exactly
    /// [`Pipeline::run_with_faults`]; with everything disabled it is exactly
    /// [`Pipeline::run`].
    #[allow(clippy::too_many_arguments)]
    pub fn run_with_comms(
        &mut self,
        dataset: Dataset,
        strategy: Strategy,
        spec: &ClusterSpec,
        engine: EngineKind,
        app: App,
        fault_plan: FaultPlan,
        checkpoint: CheckpointPolicy,
        comms: CommsConfig,
    ) -> JobResult {
        self.run_with_elastic(
            dataset,
            strategy,
            spec,
            engine,
            app,
            fault_plan,
            checkpoint,
            comms,
            ElasticConfig::disabled(),
        )
    }

    /// Run one job under every mid-job model at once: faults, checkpoints,
    /// the comms protocol, and an elastic plan of scale-outs and departures
    /// (ch13). The widest variant — with the elastic config disabled it is
    /// exactly [`Pipeline::run_with_comms`], and with everything disabled it
    /// is exactly [`Pipeline::run`].
    #[allow(clippy::too_many_arguments)]
    pub fn run_with_elastic(
        &mut self,
        dataset: Dataset,
        strategy: Strategy,
        spec: &ClusterSpec,
        engine: EngineKind,
        app: App,
        fault_plan: FaultPlan,
        checkpoint: CheckpointPolicy,
        comms: CommsConfig,
        elastic: ElasticConfig,
    ) -> JobResult {
        let (ingress_report, ingress_seconds) = self.ingress(dataset, strategy, spec, engine);
        let key = (dataset, strategy, engine.partitions(spec), spec.machines);
        let graph = &self.graphs[&dataset];
        let outcome = &self.partitions[&key];
        let assignment = &outcome.assignment;
        let state_bytes = outcome.state_bytes;
        let layout = self
            .layouts
            .entry(key)
            .or_insert_with(|| Layout::build(graph, assignment, spec.machines));
        let sssp = |undirected: bool| {
            let source = *self.sssp_sources.entry(dataset).or_insert_with(|| {
                let deg = graph.degrees();
                (0..graph.num_vertices())
                    .map(VertexId)
                    .max_by_key(|&v| deg.out_degree(v))
                    .unwrap_or(VertexId(0))
            });
            if undirected {
                Sssp::undirected(source)
            } else {
                Sssp::directed(source)
            }
        };
        let telemetry = &self.telemetry;
        if telemetry.is_enabled() {
            // The trace starts at ingress: one cluster-track span for the
            // whole load, per-loader machine spans proportional to each
            // loader's share of the critical-path work, then shift the
            // clock so engine spans start where ingress ends.
            telemetry.set_time_offset(0.0);
            let label = strategy.label();
            span!(
                telemetry,
                "ingress",
                0.0,
                ingress_seconds,
                "ingress.{label}"
            );
            let max_work = ingress_report.max_loader_work();
            if max_work > 0.0 {
                for (m, &w) in ingress_report.loader_work.iter().enumerate() {
                    machine_span!(
                        telemetry,
                        "ingress",
                        m as u32,
                        0.0,
                        ingress_seconds * w / max_work,
                        "load"
                    );
                }
            }
            telemetry.set_time_offset(ingress_seconds);
        }
        let config = EngineConfig::new(spec.clone())
            .with_fault_plan(fault_plan)
            .with_checkpoint(checkpoint)
            .with_comms(comms)
            .with_elastic(elastic)
            .with_threads(self.threads)
            .with_telemetry(telemetry.clone());

        let reports: Vec<ComputeReport> = match (engine, app) {
            (EngineKind::PowerGraph, App::Coloring) | (EngineKind::PowerLyra, App::Coloring) => {
                let e = AsyncGas::new(config.clone());
                vec![e.run_on(layout, assignment, &Coloring).1]
            }
            (EngineKind::PowerGraph, _) => {
                let e = SyncGas::new(config.clone());
                run_app_sync(&e, layout, assignment, app, sssp)
            }
            (EngineKind::PowerLyra, _) => {
                let e = HybridGas::new(config.clone());
                run_app_hybrid(&e, layout, assignment, app, sssp)
            }
            (
                EngineKind::GraphX {
                    executor_memory_bytes,
                    ..
                },
                _,
            ) => {
                let pcfg =
                    PregelConfig::new(config.clone()).with_executor_memory(executor_memory_bytes);
                let e = Pregel::new(pcfg);
                match run_app_pregel(&e, layout, assignment, app, sssp) {
                    Ok(reports) => reports,
                    Err(_) => {
                        return JobResult {
                            strategy,
                            app: app.label(),
                            replication_factor: ingress_report.replication_factor,
                            ingress_seconds,
                            compute_seconds: f64::INFINITY,
                            mean_net_in_bytes: 0.0,
                            peak_memory_bytes: 0.0,
                            supersteps: 0,
                            cpu_percents: Vec::new(),
                            cumulative_seconds: Vec::new(),
                            checkpoint_bytes: 0.0,
                            recovery_seconds: 0.0,
                            supersteps_replayed: 0,
                            retransmit_bytes: 0.0,
                            retry_timeout_seconds: 0.0,
                            speculative_clones: 0,
                            speculation_saved_seconds: 0.0,
                            scale_events: 0,
                            evacuations: 0,
                            evacuated_bytes: 0.0,
                            forced_recoveries: 0,
                            reingress_seconds: 0.0,
                            failed: true,
                        }
                    }
                }
            }
        };

        // Wall clock per report: superstep walls plus any recovery transfer
        // time — identical to `compute_seconds()` in fault-free runs.
        let compute_seconds: f64 = reports.iter().map(|r| r.wall_clock_seconds()).sum();
        let mean_net: f64 = reports.iter().map(|r| r.mean_machine_in_bytes()).sum();
        let supersteps: u32 = reports.iter().map(|r| r.supersteps()).sum();
        let mut cumulative = Vec::new();
        let mut offset = 0.0;
        for r in &reports {
            for c in r.cumulative_seconds() {
                cumulative.push(offset + c);
            }
            offset = cumulative.last().copied().unwrap_or(offset);
        }
        // CPU percents over the whole compute phase (Fig 8.4): combine the
        // per-report machine utilizations weighted by each report's wall
        // time.
        let machines = spec.machines as usize;
        let mut cpu = vec![0.0f64; machines];
        for r in &reports {
            let w = r.wall_clock_seconds() / compute_seconds.max(1e-12);
            for (m, &p) in r.machine_cpu_percent(&config).iter().enumerate() {
                cpu[m] += w * p;
            }
        }
        // Peak memory: graph storage + strategy ingress state (the §6.4.2
        // overhead) + the largest superstep message buffer.
        let base = base_memory_per_machine(assignment, &config, state_bytes);
        let peak_buffer = reports
            .iter()
            .flat_map(|r| r.steps.iter())
            .map(|s| s.machine_in_bytes.iter().copied().fold(0.0, f64::max))
            .fold(0.0, f64::max);
        let peak_memory = base.iter().copied().fold(0.0, f64::max) + peak_buffer;

        JobResult {
            strategy,
            app: app.label(),
            replication_factor: ingress_report.replication_factor,
            ingress_seconds,
            compute_seconds,
            mean_net_in_bytes: mean_net,
            peak_memory_bytes: peak_memory,
            supersteps,
            cpu_percents: cpu,
            cumulative_seconds: cumulative,
            checkpoint_bytes: reports.iter().map(|r| r.checkpoint_bytes).sum(),
            recovery_seconds: reports.iter().map(|r| r.recovery_seconds).sum(),
            supersteps_replayed: reports.iter().map(|r| r.supersteps_replayed).sum(),
            retransmit_bytes: reports.iter().map(|r| r.retransmit_bytes).sum(),
            retry_timeout_seconds: reports.iter().map(|r| r.retry_timeout_seconds).sum(),
            speculative_clones: reports.iter().map(|r| r.speculative_clones).sum(),
            speculation_saved_seconds: reports.iter().map(|r| r.speculation_saved_seconds).sum(),
            scale_events: reports.iter().map(|r| r.scale_events).sum(),
            evacuations: reports.iter().map(|r| r.evacuations).sum(),
            evacuated_bytes: reports.iter().map(|r| r.evacuated_bytes).sum(),
            forced_recoveries: reports.iter().map(|r| r.forced_recoveries).sum(),
            reingress_seconds: reports.iter().map(|r| r.reingress_seconds).sum(),
            failed: false,
        }
    }
}

fn run_app_sync(
    e: &SyncGas,
    l: &Layout,
    a: &gp_partition::Assignment,
    app: App,
    sssp: impl FnOnce(bool) -> Sssp,
) -> Vec<ComputeReport> {
    match app {
        App::PageRankFixed(n) => vec![e.run_on(l, a, &PageRank::fixed(n)).1],
        App::PageRankConv => vec![e.run_on(l, a, &PageRank::to_convergence()).1],
        App::Wcc => vec![e.run_on(l, a, &Wcc).1],
        App::Sssp { undirected } => vec![e.run_on(l, a, &sssp(undirected)).1],
        App::KCore { k_min, k_max } => gp_apps::kcore::decompose_on(e, l, a, k_min, k_max).reports,
        App::Coloring => unreachable!("coloring runs on the async engine"),
    }
}

fn run_app_hybrid(
    e: &HybridGas,
    l: &Layout,
    a: &gp_partition::Assignment,
    app: App,
    sssp: impl FnOnce(bool) -> Sssp,
) -> Vec<ComputeReport> {
    match app {
        App::PageRankFixed(n) => vec![e.run_on(l, a, &PageRank::fixed(n)).1],
        App::PageRankConv => vec![e.run_on(l, a, &PageRank::to_convergence()).1],
        App::Wcc => vec![e.run_on(l, a, &Wcc).1],
        App::Sssp { undirected } => vec![e.run_on(l, a, &sssp(undirected)).1],
        App::KCore { k_min, k_max } => (k_min..=k_max)
            .map(|k| e.run_on(l, a, &gp_apps::KCore::new(k)).1)
            .collect(),
        App::Coloring => unreachable!("coloring runs on the async engine"),
    }
}

fn run_app_pregel(
    e: &Pregel,
    l: &Layout,
    a: &gp_partition::Assignment,
    app: App,
    sssp: impl FnOnce(bool) -> Sssp,
) -> Result<Vec<ComputeReport>, gp_engine::pregel::PregelOom> {
    Ok(match app {
        App::PageRankFixed(n) => vec![e.run_on(l, a, &PageRank::fixed(n))?.1],
        App::PageRankConv => vec![e.run_on(l, a, &PageRank::to_convergence())?.1],
        App::Wcc => vec![e.run_on(l, a, &Wcc)?.1],
        App::Sssp { undirected } => vec![e.run_on(l, a, &sssp(undirected))?.1],
        App::KCore { k_min, k_max } => {
            let mut reports = Vec::new();
            for k in k_min..=k_max {
                reports.push(e.run_on(l, a, &gp_apps::KCore::new(k))?.1);
            }
            reports
        }
        App::Coloring => vec![e.run_on(l, a, &Coloring)?.1],
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_pipeline() -> Pipeline {
        Pipeline::new(0.05, 7)
    }

    #[test]
    fn pipeline_caches_graphs_and_partitions() {
        let mut p = small_pipeline();
        let e1 = p.graph(Dataset::RoadNetCa).num_edges();
        let e2 = p.graph(Dataset::RoadNetCa).num_edges();
        assert_eq!(e1, e2);
        let spec = ClusterSpec::local_9();
        let (r1, _) = p.ingress(
            Dataset::RoadNetCa,
            Strategy::Random,
            &spec,
            EngineKind::PowerGraph,
        );
        let (r2, _) = p.ingress(
            Dataset::RoadNetCa,
            Strategy::Random,
            &spec,
            EngineKind::PowerGraph,
        );
        assert_eq!(r1.replication_factor, r2.replication_factor);
    }

    #[test]
    fn full_job_produces_sane_metrics() {
        let mut p = small_pipeline();
        let spec = ClusterSpec::local_9();
        let r = p.run(
            Dataset::LiveJournal,
            Strategy::Grid,
            &spec,
            EngineKind::PowerGraph,
            App::PageRankFixed(5),
        );
        assert!(!r.failed);
        assert!(r.replication_factor >= 1.0);
        assert!(r.ingress_seconds > 0.0);
        assert!(r.compute_seconds > 0.0);
        assert_eq!(r.supersteps, 5);
        assert!(r.peak_memory_bytes > 0.0);
        assert_eq!(r.cpu_percents.len(), 9);
        assert_eq!(r.cumulative_seconds.len(), 5);
    }

    #[test]
    fn coloring_routes_to_async_engine() {
        let mut p = small_pipeline();
        let spec = ClusterSpec::local_9();
        let r = p.run(
            Dataset::RoadNetCa,
            Strategy::Oblivious,
            &spec,
            EngineKind::PowerGraph,
            App::Coloring,
        );
        assert!(!r.failed);
        assert!(r.supersteps > 0);
    }

    #[test]
    fn kcore_sums_over_k_values() {
        let mut p = small_pipeline();
        let spec = ClusterSpec::local_9();
        let r = p.run(
            Dataset::LiveJournal,
            Strategy::Random,
            &spec,
            EngineKind::PowerLyra,
            App::KCore { k_min: 3, k_max: 5 },
        );
        assert!(r.supersteps >= 3, "at least one superstep per k");
    }

    #[test]
    fn graphx_oom_reports_failure() {
        let mut p = small_pipeline();
        let spec = ClusterSpec::local_10();
        let r = p.run(
            Dataset::Twitter,
            Strategy::Random,
            &spec,
            EngineKind::GraphX {
                partitions_per_machine: 16,
                executor_memory_bytes: 1 << 20, // 1 MiB: nothing fits
            },
            App::PageRankFixed(3),
        );
        assert!(
            r.failed,
            "tiny executors must OOM like Twitter on GraphX (§7.3)"
        );
    }

    #[test]
    fn engine_kind_partition_counts() {
        let spec = ClusterSpec::local_10();
        assert_eq!(EngineKind::PowerGraph.partitions(&spec), 10);
        assert_eq!(EngineKind::graphx_default().partitions(&spec), 160);
    }

    #[test]
    fn fault_free_run_with_faults_matches_run() {
        let mut p = small_pipeline();
        let spec = ClusterSpec::local_9();
        let args = (
            Dataset::LiveJournal,
            Strategy::Grid,
            EngineKind::PowerGraph,
            App::PageRankFixed(5),
        );
        let clean = p.run(args.0, args.1, &spec, args.2, args.3);
        let faultless = p.run_with_faults(
            args.0,
            args.1,
            &spec,
            args.2,
            args.3,
            FaultPlan::none(),
            CheckpointPolicy::disabled(),
        );
        assert_eq!(clean.compute_seconds, faultless.compute_seconds);
        assert_eq!(clean.mean_net_in_bytes, faultless.mean_net_in_bytes);
        assert_eq!(faultless.checkpoint_bytes, 0.0);
        assert_eq!(faultless.recovery_seconds, 0.0);
        assert_eq!(faultless.supersteps_replayed, 0);
    }

    #[test]
    fn crashed_job_pays_recovery_and_replay() {
        let mut p = small_pipeline();
        let spec = ClusterSpec::local_9();
        let args = (
            Dataset::LiveJournal,
            Strategy::Grid,
            EngineKind::PowerGraph,
            App::PageRankFixed(5),
        );
        let clean = p.run(args.0, args.1, &spec, args.2, args.3);
        let crashed = p.run_with_faults(
            args.0,
            args.1,
            &spec,
            args.2,
            args.3,
            FaultPlan::crash_at(3, 2),
            CheckpointPolicy::every(2),
        );
        assert!(crashed.supersteps_replayed > 0, "a crash must force replay");
        assert!(
            crashed.recovery_seconds > 0.0,
            "re-fetching partitions takes time"
        );
        assert!(crashed.checkpoint_bytes > 0.0, "checkpoints were written");
        assert!(
            crashed.compute_seconds > clean.compute_seconds,
            "faults can only slow the job down"
        );
    }

    #[test]
    fn traced_run_covers_ingress_and_supersteps() {
        let sink = TelemetrySink::recording();
        let mut p = Pipeline::new(0.05, 7).with_telemetry(sink.clone());
        let spec = ClusterSpec::local_9();
        let r = p.run(
            Dataset::LiveJournal,
            Strategy::Hdrf,
            &spec,
            EngineKind::PowerGraph,
            App::PageRankFixed(3),
        );
        let spans = sink.spans();
        let ingress = spans
            .iter()
            .find(|s| s.cat == "ingress" && s.name == "ingress.HDRF")
            .expect("ingress span");
        assert_eq!(ingress.start_s, 0.0);
        assert_eq!(ingress.dur_s, r.ingress_seconds);
        let first_step = spans
            .iter()
            .find(|s| s.cat == "superstep")
            .expect("superstep spans");
        assert!(
            (first_step.start_s - r.ingress_seconds).abs() < 1e-9,
            "supersteps start where ingress ends"
        );
        assert_eq!(sink.counter("engine.supersteps"), u64::from(r.supersteps));
        assert!(sink.counter("ingress.edges_placed") > 0);
        assert!(sink.counter("ingress.replicas_created") > 0);
    }

    #[test]
    fn lossy_network_job_pays_retransmits() {
        let mut p = small_pipeline();
        let spec = ClusterSpec::local_9();
        let args = (
            Dataset::LiveJournal,
            Strategy::Grid,
            EngineKind::PowerGraph,
            App::PageRankFixed(5),
        );
        let clean = p.run(args.0, args.1, &spec, args.2, args.3);
        let lossy = p.run_with_comms(
            args.0,
            args.1,
            &spec,
            args.2,
            args.3,
            FaultPlan::uniform_flaky(0.1, 9, 100),
            CheckpointPolicy::disabled(),
            CommsConfig::reliable(),
        );
        assert!(lossy.retransmit_bytes > 0.0);
        assert!(lossy.retry_timeout_seconds > 0.0);
        assert!(
            lossy.compute_seconds > clean.compute_seconds,
            "a lossy network can only slow the job down"
        );
        assert_eq!(lossy.supersteps, clean.supersteps, "no semantic change");
    }

    #[test]
    fn disabled_comms_matches_run_with_faults_exactly() {
        let mut p = small_pipeline();
        let spec = ClusterSpec::local_9();
        let args = (
            Dataset::LiveJournal,
            Strategy::Grid,
            EngineKind::PowerGraph,
            App::PageRankFixed(5),
        );
        let faults = p.run_with_faults(
            args.0,
            args.1,
            &spec,
            args.2,
            args.3,
            FaultPlan::crash_at(3, 2),
            CheckpointPolicy::every(2),
        );
        let comms = p.run_with_comms(
            args.0,
            args.1,
            &spec,
            args.2,
            args.3,
            FaultPlan::crash_at(3, 2),
            CheckpointPolicy::every(2),
            CommsConfig::disabled(),
        );
        assert_eq!(faults.compute_seconds, comms.compute_seconds);
        assert_eq!(comms.retransmit_bytes, 0.0);
        assert_eq!(comms.speculative_clones, 0);
    }

    #[test]
    fn disabled_elastic_matches_run_with_comms_exactly() {
        let mut p = small_pipeline();
        let spec = ClusterSpec::local_9();
        let args = (
            Dataset::LiveJournal,
            Strategy::Grid,
            EngineKind::PowerGraph,
            App::PageRankFixed(5),
        );
        let comms = p.run_with_comms(
            args.0,
            args.1,
            &spec,
            args.2,
            args.3,
            FaultPlan::none(),
            CheckpointPolicy::disabled(),
            CommsConfig::disabled(),
        );
        let elastic = p.run_with_elastic(
            args.0,
            args.1,
            &spec,
            args.2,
            args.3,
            FaultPlan::none(),
            CheckpointPolicy::disabled(),
            CommsConfig::disabled(),
            ElasticConfig::disabled(),
        );
        assert_eq!(comms.compute_seconds, elastic.compute_seconds);
        assert_eq!(elastic.scale_events, 0);
        assert_eq!(elastic.evacuations, 0);
        assert_eq!(elastic.reingress_seconds, 0.0);
    }

    #[test]
    fn preempted_job_records_elastic_costs() {
        use gp_engine::ElasticPlan;
        let mut p = small_pipeline();
        let spec = ClusterSpec::local_9();
        let args = (
            Dataset::LiveJournal,
            Strategy::Grid,
            EngineKind::PowerGraph,
            App::PageRankFixed(8),
        );
        let clean = p.run(args.0, args.1, &spec, args.2, args.3);
        let preempted = p.run_with_elastic(
            args.0,
            args.1,
            &spec,
            args.2,
            args.3,
            FaultPlan::none(),
            CheckpointPolicy::disabled(),
            CommsConfig::disabled(),
            ElasticConfig::new(ElasticPlan::preempt_at(3, 2, 3)),
        );
        assert_eq!(preempted.scale_events, 1);
        assert_eq!(preempted.evacuations, 1);
        assert!(preempted.evacuated_bytes > 0.0);
        assert!(
            preempted.compute_seconds > clean.compute_seconds,
            "losing a machine can only slow the job down"
        );
    }

    #[test]
    fn app_labels_and_naturalness() {
        assert_eq!(App::PageRankFixed(10).label(), "PageRank(10)");
        assert!(App::PageRankConv.is_natural());
        assert!(!App::Sssp { undirected: true }.is_natural());
        assert!(App::Sssp { undirected: false }.is_natural());
        assert!(!App::Wcc.is_natural());
        assert_eq!(App::paper_set().len(), 6);
    }
}
