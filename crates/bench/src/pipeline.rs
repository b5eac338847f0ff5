//! The measurement pipeline: dataset → partition → ingress pricing →
//! engine run → §4.3 metrics.

use gp_apps::{Coloring, KCore, PageRank, Sssp, Wcc};
use gp_cluster::{ClusterSpec, CostRates};
use gp_core::{EdgeList, VertexId};
use gp_elastic::ElasticKind;
use gp_engine::{
    base_memory_per_machine, CommsConfig, ComputeReport, ElasticConfig, Engine, EngineConfig,
    Model, PregelOom, SemanticTrace, Semantics, VertexProgram,
};
use gp_fault::{CheckpointPolicy, FaultPlan};
use gp_gen::Dataset;
use gp_partition::{
    Assignment, IngressReport, PartitionContext, PartitionOutcome, Strategy, System,
};
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

impl From<System> for EngineKind {
    /// The system's engine with the paper's defaults.
    fn from(system: System) -> Self {
        match system {
            System::PowerGraph => EngineKind::PowerGraph,
            System::PowerLyra => EngineKind::PowerLyra,
            System::GraphX => EngineKind::graphx_default(),
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

impl std::str::FromStr for App {
    type Err = String;

    /// The command-line names: `pagerank` runs to convergence, `pagerank10`
    /// for ten supersteps, `sssp` undirected, `kcore` the paper's sweep.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.to_ascii_lowercase().as_str() {
            "pagerank" | "pr" => Ok(App::PageRankConv),
            "pagerank10" | "pr10" => Ok(App::PageRankFixed(10)),
            "wcc" => Ok(App::Wcc),
            "sssp" => Ok(App::Sssp { undirected: true }),
            "kcore" | "k-core" => Ok(App::kcore_paper()),
            "coloring" => Ok(App::Coloring),
            other => Err(format!(
                "unknown app {other:?} (pagerank|pagerank10|wcc|sssp|kcore|coloring)"
            )),
        }
    }
}

/// Everything the paper measures for one job (§4.3).
#[derive(Debug, Clone, PartialEq)]
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

    /// The job as it stands when ingress ends: nothing computed yet.
    fn after_ingress(scenario: &Scenario, ingress: &IngressReport, ingress_seconds: f64) -> Self {
        JobResult {
            strategy: scenario.strategy,
            app: scenario.app.label(),
            replication_factor: ingress.replication_factor,
            ingress_seconds,
            compute_seconds: 0.0,
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
            failed: false,
        }
    }

    /// Add one engine report's totals to the job's (k-core is one report
    /// per k). Wall clock is superstep walls plus any recovery transfer
    /// time — identical to `compute_seconds()` in fault-free runs.
    fn absorb(&mut self, r: &ComputeReport) {
        self.compute_seconds += r.wall_clock_seconds();
        self.mean_net_in_bytes += r.mean_machine_in_bytes();
        self.supersteps += r.supersteps();
        self.checkpoint_bytes += r.checkpoint_bytes;
        self.recovery_seconds += r.recovery_seconds;
        self.supersteps_replayed += r.supersteps_replayed;
        self.retransmit_bytes += r.retransmit_bytes;
        self.retry_timeout_seconds += r.retry_timeout_seconds;
        self.speculative_clones += r.speculative_clones;
        self.speculation_saved_seconds += r.speculation_saved_seconds;
        self.scale_events += r.scale_events;
        self.evacuations += r.evacuations;
        self.evacuated_bytes += r.evacuated_bytes;
        self.forced_recoveries += r.forced_recoveries;
        self.reingress_seconds += r.reingress_seconds;
    }
}

/// One job: the (dataset, strategy, cluster, system, application) cell the
/// paper measures, plus the mid-job models layered on it. Every section
/// beyond the cell defaults to disabled, and a disabled section is exactly
/// absent from the result.
#[derive(Debug, Clone)]
pub struct Scenario {
    /// Dataset analogue to generate.
    pub dataset: Dataset,
    /// Partitioning strategy.
    pub strategy: Strategy,
    /// Simulated cluster.
    pub spec: ClusterSpec,
    /// System whose engine computes.
    pub engine: EngineKind,
    /// Application to run.
    pub app: App,
    /// Scheduled faults (ch10/ch11).
    pub fault_plan: FaultPlan,
    /// Checkpointing that bounds a crash's rollback (ch10).
    pub checkpoint: CheckpointPolicy,
    /// Reliable delivery and speculation protocols (ch11).
    pub comms: CommsConfig,
    /// Scale-outs and departures, with the repair policy (ch13).
    pub elastic: ElasticConfig,
}

impl Scenario {
    /// The plain job: no faults, no checkpoints, ideal network, fixed
    /// cluster.
    pub fn new(
        dataset: Dataset,
        strategy: Strategy,
        spec: &ClusterSpec,
        engine: EngineKind,
        app: App,
    ) -> Self {
        Scenario {
            dataset,
            strategy,
            spec: spec.clone(),
            engine,
            app,
            fault_plan: FaultPlan::none(),
            checkpoint: CheckpointPolicy::disabled(),
            comms: CommsConfig::disabled(),
            elastic: ElasticConfig::disabled(),
        }
    }

    /// Builder: run under a fault plan and checkpoint policy.
    pub fn with_faults(mut self, plan: FaultPlan, checkpoint: CheckpointPolicy) -> Self {
        self.fault_plan = plan;
        self.checkpoint = checkpoint;
        self
    }

    /// Builder: run under a communication-protocol config.
    pub fn with_comms(mut self, comms: CommsConfig) -> Self {
        self.comms = comms;
        self
    }

    /// Builder: run under an elastic plan of scale-outs and departures.
    pub fn with_elastic(mut self, elastic: ElasticConfig) -> Self {
        self.elastic = elastic;
        self
    }

    /// `Err` naming the first thing about the scenario that cannot happen:
    /// a strategy that cannot cut the cluster's partition count, an event on
    /// a machine the cluster does not have or at a superstep a fixed-length
    /// job never reaches, a scale-out of nothing, a warning window that
    /// opens before superstep 0. Front ends call this on what a user typed;
    /// [`Pipeline::run`] does not, the engines simply never fire such events.
    pub fn check(&self) -> Result<(), String> {
        let spec = &self.spec;
        self.strategy
            .check_partition_count(self.engine.partitions(spec))?;
        let on_cluster = |machine: u32| {
            if machine < spec.machines {
                return Ok(());
            }
            Err(format!(
                "machine {machine} out of range: {} has {} machines",
                spec.name, spec.machines
            ))
        };
        let fires = |step: u32| match self.app {
            App::PageRankFixed(n) if step >= n => Err(format!(
                "an event at superstep {step} never fires: PageRank({n}) ends after \
                 superstep {}",
                n.saturating_sub(1)
            )),
            _ => Ok(()),
        };
        for event in &self.fault_plan.events {
            on_cluster(event.machine)?;
            fires(event.superstep)?;
        }
        for event in &self.elastic.plan.events {
            fires(event.superstep)?;
            match event.kind {
                ElasticKind::ScaleOut { machines_added: 0 } => {
                    return Err("a scale-out must add at least one machine".to_string());
                }
                ElasticKind::ScaleOut { .. } => {}
                ElasticKind::Drain {
                    machine,
                    warning_steps,
                }
                | ElasticKind::Preempt {
                    machine,
                    warning_steps,
                } => {
                    on_cluster(machine)?;
                    if warning_steps > event.superstep {
                        return Err(format!(
                            "a warning of {warning_steps} supersteps cannot precede a \
                             departure at superstep {}",
                            event.superstep
                        ));
                    }
                }
            }
        }
        Ok(())
    }
}

/// A system's engine, configured for one cluster and pointed at one
/// partitioned graph: what an application's programs run on. The only
/// place an [`EngineKind`] picks an engine model and the only place an
/// [`App`] becomes vertex programs.
pub struct Deployment<'a> {
    /// System whose engine computes.
    pub engine: EngineKind,
    /// Cluster, mid-job models, threads and telemetry.
    pub config: EngineConfig,
    /// The graph, whose adjacency every program's semantic pass reads.
    pub graph: &'a EdgeList,
    /// The partitioning of `graph` every program is priced on.
    pub assignment: &'a Assignment,
}

impl Deployment<'_> {
    /// The engine `app`'s programs run on here: PowerGraph and PowerLyra
    /// run Coloring on their asynchronous engine (§5.4.1).
    fn engine(&self, app: App) -> Engine {
        let model = match self.engine {
            EngineKind::PowerGraph | EngineKind::PowerLyra if app == App::Coloring => Model::Async,
            EngineKind::PowerGraph => Model::Sync,
            EngineKind::PowerLyra => Model::Hybrid,
            EngineKind::GraphX {
                executor_memory_bytes,
                ..
            } => Model::GraphX {
                executor_memory_bytes,
            },
        };
        Engine::new(self.config.clone(), model)
    }

    /// Price program `i` of an app on `engine` from `traces[i]`, recording
    /// that trace first when `traces` ends before it. GraphX fails with
    /// [`PregelOom`] when the graph does not fit its executors, before
    /// anything is traced or priced.
    fn run<P: VertexProgram>(
        &self,
        engine: &Engine,
        program: &P,
        traces: &mut Vec<SemanticTrace>,
        i: usize,
    ) -> Result<ComputeReport, PregelOom> {
        engine.placement(self.assignment)?;
        if traces.len() == i {
            traces.push(engine.trace(self.graph, program).1);
        }
        engine.price(&traces[i], self.graph, self.assignment, program)
    }

    /// Run every program of `app` (one, or one per k for k-core), SSSP from
    /// `sssp_source`; one report per program. Program `i` is priced from
    /// `traces[i]`, and each missing trace is recorded and appended, so the
    /// caller keeps `traces` either empty or holding this graph's traces of
    /// `app` under the semantics this deployment runs it with.
    pub fn run_app(
        &self,
        app: App,
        sssp_source: VertexId,
        traces: &mut Vec<SemanticTrace>,
    ) -> Result<Vec<ComputeReport>, PregelOom> {
        let engine = &self.engine(app);
        let report = match app {
            App::PageRankFixed(n) => self.run(engine, &PageRank::fixed(n), traces, 0)?,
            App::PageRankConv => self.run(engine, &PageRank::to_convergence(), traces, 0)?,
            App::Wcc => self.run(engine, &Wcc, traces, 0)?,
            App::Sssp { undirected: true } => {
                self.run(engine, &Sssp::undirected(sssp_source), traces, 0)?
            }
            App::Sssp { undirected: false } => {
                self.run(engine, &Sssp::directed(sssp_source), traces, 0)?
            }
            App::KCore { k_min, k_max } => {
                return (k_min..=k_max)
                    .enumerate()
                    .map(|(i, k)| self.run(engine, &KCore::new(k), traces, i))
                    .collect()
            }
            App::Coloring => self.run(engine, &Coloring, traces, 0)?,
        };
        Ok(vec![report])
    }
}

/// The experiment pipeline with caching of generated graphs (each owns its
/// adjacency) and partitionings (the same dataset×strategy×cluster triple is
/// reused across the six applications), and each app's semantic trace across
/// partitionings.
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
    /// The key of `traces`: they are one entry, not a map, because every
    /// sweep runs its strategy, cluster, engine or fault loop innermost, and
    /// one entry bounds their memory by construction.
    trace_key: Option<TraceKey>,
    /// The semantic traces of the most recent job's app (one per program;
    /// k-core has one per k), priced again by every job with the same key.
    traces: Vec<SemanticTrace>,
}

/// (dataset, strategy, partitions, loaders).
type PartitionKey = (Dataset, Strategy, u32, u32);

/// (dataset, app, execution model): everything a trace depends on in one
/// pipeline, whose scale, seed and SSSP sources are fixed.
type TraceKey = (Dataset, App, Semantics);

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
            trace_key: None,
            traces: Vec::new(),
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
        let seconds = CostRates.ingress_seconds(&report, spec);
        (report, seconds)
    }

    /// Run the full pipeline for one job — the only way to run one. Every
    /// mid-job model of the scenario (faults, checkpoints, comms protocol,
    /// elastic plan) applies at once.
    pub fn run(&mut self, scenario: &Scenario) -> JobResult {
        let Scenario {
            dataset,
            strategy,
            ref spec,
            engine,
            app,
            ..
        } = *scenario;
        let (ingress_report, ingress_seconds) = self.ingress(dataset, strategy, spec, engine);
        let key = (dataset, strategy, engine.partitions(spec), spec.machines);
        let graph = &self.graphs[&dataset];
        let outcome = &self.partitions[&key];
        let assignment = &outcome.assignment;
        let sssp_source = match app {
            App::Sssp { .. } => *self.sssp_sources.entry(dataset).or_insert_with(|| {
                let deg = graph.degrees();
                (0..graph.num_vertices())
                    .map(VertexId)
                    .max_by_key(|&v| deg.out_degree(v))
                    .unwrap_or(VertexId(0))
            }),
            _ => VertexId(0),
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
        let deployment = Deployment {
            engine,
            config: EngineConfig::new(spec.clone())
                .with_fault_plan(scenario.fault_plan.clone())
                .with_checkpoint(scenario.checkpoint)
                .with_comms(scenario.comms.clone())
                .with_elastic(scenario.elastic.clone())
                .with_threads(self.threads)
                .with_telemetry(telemetry.clone()),
            graph,
            assignment,
        };
        let config = &deployment.config;
        let trace_key = Some((dataset, app, deployment.engine(app).semantics()));
        if self.trace_key != trace_key {
            self.trace_key = trace_key;
            self.traces.clear();
        }

        let mut job = JobResult::after_ingress(scenario, &ingress_report, ingress_seconds);
        let Ok(reports) = deployment.run_app(app, sssp_source, &mut self.traces) else {
            job.compute_seconds = f64::INFINITY;
            job.failed = true;
            return job;
        };
        for r in &reports {
            job.absorb(r);
            let offset = job.cumulative_seconds.last().copied().unwrap_or(0.0);
            job.cumulative_seconds
                .extend(r.cumulative_seconds().iter().map(|c| offset + c));
        }
        // CPU percents over the whole compute phase (Fig 8.4): combine the
        // per-report machine utilizations weighted by each report's wall
        // time.
        job.cpu_percents = vec![0.0f64; spec.machines as usize];
        for r in &reports {
            let w = r.wall_clock_seconds() / job.compute_seconds.max(1e-12);
            for (m, &p) in r.machine_cpu_percent(config).iter().enumerate() {
                job.cpu_percents[m] += w * p;
            }
        }
        // Peak memory: graph storage + strategy ingress state (the §6.4.2
        // overhead) + the largest superstep message buffer.
        let base = base_memory_per_machine(assignment, config, outcome.state_bytes);
        let peak_buffer = reports
            .iter()
            .flat_map(|r| r.steps.iter())
            .map(|s| s.machine_in_bytes.iter().copied().fold(0.0, f64::max))
            .fold(0.0, f64::max);
        job.peak_memory_bytes = base.iter().copied().fold(0.0, f64::max) + peak_buffer;
        job
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gp_engine::ElasticPlan;

    fn small_pipeline() -> Pipeline {
        Pipeline::new(0.05, 7)
    }

    /// PageRank(`steps`) on LiveJournal / Grid / Local-9 under PowerGraph.
    fn pagerank_job(steps: u32) -> Scenario {
        Scenario::new(
            Dataset::LiveJournal,
            Strategy::Grid,
            &ClusterSpec::local_9(),
            EngineKind::PowerGraph,
            App::PageRankFixed(steps),
        )
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
        let r = small_pipeline().run(&pagerank_job(5));
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
        let r = p.run(&Scenario::new(
            Dataset::RoadNetCa,
            Strategy::Oblivious,
            &spec,
            EngineKind::PowerGraph,
            App::Coloring,
        ));
        assert!(!r.failed);
        assert!(r.supersteps > 0);
    }

    #[test]
    fn kcore_sums_over_k_values() {
        let mut p = small_pipeline();
        let spec = ClusterSpec::local_9();
        let r = p.run(&Scenario::new(
            Dataset::LiveJournal,
            Strategy::Random,
            &spec,
            EngineKind::PowerLyra,
            App::KCore { k_min: 3, k_max: 5 },
        ));
        assert!(r.supersteps >= 3, "at least one superstep per k");
    }

    #[test]
    fn graphx_oom_reports_failure() {
        let mut p = small_pipeline();
        let spec = ClusterSpec::local_10();
        let r = p.run(&Scenario::new(
            Dataset::Twitter,
            Strategy::Random,
            &spec,
            EngineKind::GraphX {
                partitions_per_machine: 16,
                executor_memory_bytes: 1 << 20, // 1 MiB: nothing fits
            },
            App::PageRankFixed(3),
        ));
        assert!(
            r.failed,
            "tiny executors must OOM like Twitter on GraphX (§7.3)"
        );
        assert_eq!(r.compute_seconds, f64::INFINITY);
        assert_eq!(r.supersteps, 0);
    }

    #[test]
    fn engine_kind_partition_counts() {
        let spec = ClusterSpec::local_10();
        assert_eq!(EngineKind::PowerGraph.partitions(&spec), 10);
        assert_eq!(EngineKind::graphx_default().partitions(&spec), 160);
        assert_eq!(EngineKind::from(System::PowerLyra), EngineKind::PowerLyra);
        assert_eq!(EngineKind::from(System::GraphX).partitions(&spec), 160);
    }

    #[test]
    fn disabled_sections_are_absent() {
        for (engine, spec) in [
            (EngineKind::PowerGraph, ClusterSpec::local_9()),
            (EngineKind::PowerLyra, ClusterSpec::local_9()),
            (EngineKind::graphx_default(), ClusterSpec::local_10()),
        ] {
            let plain = Scenario::new(
                Dataset::LiveJournal,
                Strategy::Grid,
                &spec,
                engine,
                App::PageRankFixed(5),
            );
            let spelled_out = plain
                .clone()
                .with_faults(FaultPlan::none(), CheckpointPolicy::disabled())
                .with_comms(CommsConfig::disabled())
                .with_elastic(ElasticConfig::disabled());
            let mut p = small_pipeline();
            let job = p.run(&plain);
            assert_eq!(job, p.run(&spelled_out), "{engine:?}");
            assert!(!job.failed && job.compute_seconds > 0.0, "{engine:?}");
            assert_eq!(job.checkpoint_bytes + job.recovery_seconds, 0.0);
            assert_eq!(job.retransmit_bytes + job.retry_timeout_seconds, 0.0);
            assert_eq!(job.scale_events + job.evacuations, 0);
        }
    }

    #[test]
    fn jobs_priced_from_a_reused_trace_equal_fresh_ones() {
        let mut shared = Pipeline::new(0.02, 42);
        let mut hits = 0;
        let mut check = |scenario: Scenario| {
            let before = shared.trace_key;
            let job = shared.run(&scenario);
            hits += usize::from(before.is_some() && before == shared.trace_key);
            assert_eq!(job, Pipeline::new(0.02, 42).run(&scenario), "{scenario:?}");
        };
        // Figs 5.3–5.5's order: each app's first strategy records its
        // traces, the other three price them again.
        let spec = ClusterSpec::ec2_25();
        for app in App::paper_set() {
            for strategy in crate::experiments::ch5::PG_STRATEGIES {
                check(Scenario::new(
                    Dataset::UkWeb,
                    strategy,
                    &spec,
                    EngineKind::PowerGraph,
                    app,
                ));
            }
        }
        // Every mid-job model at once, priced from the clean job's trace.
        check(pagerank_job(8));
        check(
            pagerank_job(8)
                .with_faults(FaultPlan::crash_at(6, 1), CheckpointPolicy::every(2))
                .with_comms(CommsConfig::reliable().with_speculation(true))
                .with_elastic(ElasticConfig::new(ElasticPlan::preempt_at(3, 2, 3))),
        );
        assert_eq!(hits, 6 * 3 + 1);
    }

    #[test]
    fn crashed_job_pays_recovery_and_replay() {
        let mut p = small_pipeline();
        let clean = p.run(&pagerank_job(5));
        let crashed = p.run(
            &pagerank_job(5).with_faults(FaultPlan::crash_at(3, 2), CheckpointPolicy::every(2)),
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
        let r = p.run(&Scenario::new(
            Dataset::LiveJournal,
            Strategy::Hdrf,
            &spec,
            EngineKind::PowerGraph,
            App::PageRankFixed(3),
        ));
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
        let clean = p.run(&pagerank_job(5));
        let lossy = p.run(
            &pagerank_job(5)
                .with_faults(
                    FaultPlan::uniform_flaky(0.1, 9, 100),
                    CheckpointPolicy::disabled(),
                )
                .with_comms(CommsConfig::reliable()),
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
    fn preempted_job_records_elastic_costs() {
        let mut p = small_pipeline();
        let clean = p.run(&pagerank_job(8));
        let preempted = p.run(
            &pagerank_job(8).with_elastic(ElasticConfig::new(ElasticPlan::preempt_at(3, 2, 3))),
        );
        assert_eq!(preempted.scale_events, 1);
        assert_eq!(preempted.evacuations, 1);
        assert!(preempted.evacuated_bytes > 0.0);
        assert!(
            preempted.compute_seconds > clean.compute_seconds,
            "losing a machine can only slow the job down"
        );
    }

    /// One violated rule per row; the message must name it.
    #[test]
    fn check_names_the_rule_a_scenario_breaks() {
        use gp_elastic::ElasticEvent;
        let elastic = |superstep, kind| {
            let mut plan = ElasticPlan::none();
            plan.push(ElasticEvent { superstep, kind });
            ElasticConfig::new(plan)
        };
        let ckpt = CheckpointPolicy::every(2);
        let pds = Scenario {
            strategy: Strategy::Pds,
            ..pagerank_job(5)
        };
        let scale_out = |k| ElasticKind::ScaleOut { machines_added: k };
        let preempt = |machine, warning_steps| ElasticKind::Preempt {
            machine,
            warning_steps,
        };
        let drain = |machine, warning_steps| ElasticKind::Drain {
            machine,
            warning_steps,
        };
        for (broken, rule) in [
            (pds, "PDS cannot run on 9 partitions"),
            (
                pagerank_job(5).with_faults(FaultPlan::crash_at(2, 9), ckpt),
                "machine 9 out of range: Local-9 has 9 machines",
            ),
            (
                pagerank_job(5).with_elastic(elastic(2, drain(12, 1))),
                "machine 12 out of range",
            ),
            (
                pagerank_job(5).with_faults(FaultPlan::crash_at(30, 0), ckpt),
                "superstep 30 never fires: PageRank(5)",
            ),
            (
                pagerank_job(5).with_elastic(elastic(5, scale_out(2))),
                "superstep 5 never fires",
            ),
            (
                pagerank_job(5).with_elastic(elastic(3, scale_out(0))),
                "at least one machine",
            ),
            (
                pagerank_job(8).with_elastic(elastic(2, preempt(0, 5))),
                "warning of 5 supersteps cannot precede a departure at superstep 2",
            ),
            (
                pagerank_job(8).with_elastic(elastic(1, drain(0, 2))),
                "warning of 2 supersteps",
            ),
        ] {
            let err = broken.check().expect_err(rule);
            assert!(err.contains(rule), "{err:?} should name {rule:?}");
        }
    }

    #[test]
    fn check_accepts_every_scenario_the_harness_runs() {
        assert_eq!(pagerank_job(5).check(), Ok(()));
        let busy = pagerank_job(8)
            .with_faults(FaultPlan::crash_at(7, 8), CheckpointPolicy::every(2))
            .with_comms(CommsConfig::reliable().with_speculation(true))
            .with_elastic(ElasticConfig::new(ElasticPlan::preempt_at(3, 2, 3)));
        assert_eq!(busy.check(), Ok(()));
        // Only fixed-length jobs have a last superstep to miss.
        let open_ended = Scenario {
            app: App::Wcc,
            ..pagerank_job(5).with_faults(FaultPlan::crash_at(30, 0), CheckpointPolicy::every(2))
        };
        assert_eq!(open_ended.check(), Ok(()));
    }

    #[test]
    fn apps_parse_from_their_command_line_names() {
        assert_eq!("pagerank".parse(), Ok(App::PageRankConv));
        assert_eq!("PR10".parse(), Ok(App::PageRankFixed(10)));
        assert_eq!("sssp".parse(), Ok(App::Sssp { undirected: true }));
        assert_eq!("k-core".parse(), Ok(App::kcore_paper()));
        assert_eq!("coloring".parse(), Ok(App::Coloring));
        let err = "frobnicate".parse::<App>().unwrap_err();
        assert!(err.contains("pagerank|pagerank10|wcc"), "{err}");
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
