//! # gp-cli — the `distgraph` command-line tool
//!
//! Library backing the `distgraph` binary so every command is unit-testable:
//!
//! ```text
//! distgraph stats <graph.txt>                       # size, degrees, class
//! distgraph classify <graph.txt>                    # degree-class only
//! distgraph generate <dataset> [--scale S | --edges N] --seed N -o out.txt
//! distgraph store build powerlaw -o g.gps --edges 100M [--vertices N]
//! distgraph store build <dataset> -o g.gps [--scale S | --edges N]
//! distgraph store info <g.gps>                      # header + compression
//! distgraph store verify <g.gps>                    # checksum + structure
//! distgraph partition <graph.txt|graph.gps> --strategy hdrf --parts 9
//!                     [-o parts.txt]
//! distgraph recommend <graph.txt> --system powerlyra --machines 25 \
//!     --compute-ingress 2.0 [--natural]
//! distgraph run <graph.txt> --app pagerank --strategy grid --parts 9 \
//!     [--system powergraph] [--partition-file parts.txt]
//! distgraph serve <graph.txt|store.gps> --strategy hdrf --cluster local-9 \
//!     [--horizon S] [--sessions N] [--churn-scale F] [--threads N]
//! distgraph fault <dataset> --strategies random,hybrid --cluster ec2-16 \
//!     --crash-at 10 --machine 0 --interval 4 [--async]
//! distgraph elastic <dataset> --strategies random,grid --cluster local-9 \
//!     [--scale-out STEP:K] [--preempt STEP:M:W] [--drain STEP:M:W] \
//!     [--policy cost-based] [--tenants N] [--fair]
//! distgraph trace <dataset> --strategy hdrf --app pagerank --cluster ec2-16 \
//!     [--system powergraph] [--interval 4] [--crash-at 10 --machine 0] -o DIR
//! ```
//!
//! Commands parse into [`Command`], execute against a writer, and return an
//! exit code — the binary is a thin wrapper.

use gp_advisor::Workload;
use gp_apps::{PageRank, Sssp, Wcc};
use gp_bench::{App, EngineKind, Pipeline};
use gp_cluster::{ClusterSpec, CostRates, Table};
use gp_core::io::read_edge_list;
use gp_core::{EdgeList, GraphStats, StreamingEdges};
use gp_elastic::{
    ElasticConfig, ElasticEvent, ElasticKind, ElasticPlan, RepairPolicy, SchedulePolicy, TenantJob,
    TenantScheduler,
};
use gp_engine::{CommsConfig, EngineConfig, HybridGas, Layout, Pregel, PregelConfig, SyncGas};
use gp_fault::{recovery_cost, CheckpointPolicy, FaultEvent, FaultKind, FaultPlan};
use gp_gen::{classify, Dataset, DegreeAnalysis, PowerLawStreamParams};
use gp_partition::{IngressReport, PartitionContext, Strategy};
use gp_serve::{DriftPolicy, ServeConfig, TrafficPlan, TrafficRates};
use gp_store::GraphStore;
use gp_telemetry::TelemetrySink;
use std::io::Write;

/// A parsed CLI invocation.
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    /// Print graph statistics and degree analysis.
    Stats { path: String },
    /// Print just the degree class.
    Classify { path: String },
    /// Generate a dataset analogue.
    Generate {
        dataset: Dataset,
        scale: f64,
        /// Target edge count; overrides `scale` when present.
        edges: Option<u64>,
        seed: u64,
        out: Option<String>,
    },
    /// Build a compressed `.gps` store from a generator.
    StoreBuild {
        source: StoreSource,
        out: String,
        scale: f64,
        /// Target edge count; overrides `scale` for datasets, sets the
        /// exact edge count for `powerlaw`.
        edges: Option<u64>,
        /// Vertex-space size for `powerlaw` (default `edges / 16`).
        vertices: Option<u64>,
        seed: u64,
    },
    /// Print a store's header metadata and compression figures.
    StoreInfo { path: String },
    /// Full checksum + structural verification of a store file.
    StoreVerify { path: String },
    /// Partition a graph and report quality; optionally save the assignment.
    Partition {
        path: String,
        strategy: Strategy,
        parts: u32,
        seed: u64,
        /// Ingress worker threads (0 = all cores). Output is byte-identical
        /// at any value.
        threads: u32,
        /// Speculative ingress window for stateful strategies (0/1 = the
        /// kernel one edge at a time; >= 2 = the same kernel a window at a
        /// time, quality-parity rather than byte-identity with window 0,
        /// still byte-identical across thread counts;
        /// `gp_partition::WINDOW_AUTO`, CLI "auto" = adaptive controller).
        window: u32,
        out: Option<String>,
    },
    /// Recommend a strategy via the paper's decision trees.
    Recommend {
        path: String,
        system: SystemChoice,
        machines: u32,
        compute_ingress: f64,
        natural: bool,
    },
    /// Partition + run an application on a simulated engine.
    Run {
        path: String,
        app: AppChoice,
        strategy: Strategy,
        parts: u32,
        seed: u64,
        system: SystemChoice,
        partition_file: Option<String>,
        /// Worker threads for ingress and superstep accounting (0 = all
        /// cores). Reports are byte-identical at any value.
        threads: u32,
        /// Speculative ingress window (see `Partition::window`).
        window: u32,
    },
    /// Long-running serve: streaming updates, query traffic, drift repair.
    Serve {
        path: String,
        strategy: Strategy,
        parts: u32,
        seed: u64,
        cluster: ClusterChoice,
        /// Serving horizon in simulated seconds.
        horizon_s: f64,
        /// Concurrent user sessions in the traffic plan.
        sessions: u32,
        /// Multiplier on the insert/delete rates (query rates fixed).
        churn_scale: f64,
        /// Edge-imbalance threshold that triggers a rebalance.
        rebalance_threshold: f64,
        /// RF-growth factor over the post-ingress baseline that triggers a
        /// full repartition.
        rf_threshold: f64,
        /// Batch (re)partitioning threads; report byte-identical at any
        /// value.
        threads: u32,
    },
    /// Crash a machine mid-job and compare recovery cost across strategies.
    Fault {
        dataset: Dataset,
        scale: f64,
        seed: u64,
        cluster: ClusterChoice,
        crash_at: u32,
        machine: u32,
        interval: u32,
        asynchronous: bool,
        steps: u32,
        strategies: Vec<Strategy>,
        /// Uniform per-link packet-loss rate (0 = clean network).
        loss_rate: f64,
        /// Launch speculative backup tasks against stragglers.
        speculate: bool,
        /// Worker threads (0 = all cores); results byte-identical.
        threads: u32,
    },
    /// Replay a plan of mid-job cluster events — scale-outs, drains, spot
    /// preemptions — and/or schedule several tenants onto one cluster.
    Elastic {
        dataset: Dataset,
        scale: f64,
        seed: u64,
        cluster: ClusterChoice,
        strategies: Vec<Strategy>,
        /// `(superstep, machines_added)` of a scale-out, if any.
        scale_out: Option<(u32, u32)>,
        /// `(superstep, machine, warning_steps)` of a spot preemption.
        preempt: Option<(u32, u32, u32)>,
        /// `(superstep, machine, warning_steps)` of a planned drain.
        drain: Option<(u32, u32, u32)>,
        /// Scale-out repair policy: re-partition, ride, or price it.
        policy: RepairPolicy,
        /// PageRank supersteps in the measured job.
        steps: u32,
        /// Checkpoint interval in supersteps (0 = off) — the fallback when
        /// a warning window is too short to evacuate.
        interval: u32,
        /// Concurrent tenant jobs to schedule (< 2 skips the tenant table).
        tenants: u32,
        /// Fair-share scheduling instead of FIFO.
        fair: bool,
        /// Worker threads (0 = all cores); results byte-identical.
        threads: u32,
    },
    /// Run one (dataset, strategy, app, cluster) cell with telemetry
    /// recording and write Chrome trace-event JSON plus metrics artifacts.
    Trace {
        dataset: Dataset,
        scale: f64,
        seed: u64,
        strategy: Strategy,
        app: App,
        system: SystemChoice,
        cluster: ClusterChoice,
        /// `(superstep, machine)` of an injected crash, if any.
        crash: Option<(u32, u32)>,
        /// Checkpoint interval in supersteps (0 = off).
        interval: u32,
        /// Uniform per-link packet-loss rate (0 = clean network).
        loss_rate: f64,
        /// Launch speculative backup tasks against stragglers.
        speculate: bool,
        /// Worker threads (0 = all cores); artifacts byte-identical apart
        /// from the extra `par.*` telemetry entries.
        threads: u32,
        out_dir: String,
    },
    /// Print usage.
    Help,
}

/// What `store build` generates.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum StoreSource {
    /// Streaming power-law generator — out-of-core scale, edges go straight
    /// to disk without an in-memory edge list.
    PowerLaw,
    /// A Table 4.2 analogue generated in memory, then written sorted.
    Dataset(Dataset),
}

/// Parse a size like `250000`, `10M`, `1.5G` into a count. Counts are
/// *decimal* (`K = 1000`); byte quantities elsewhere in the workspace parse
/// through the same helper with `SizeUnit::Binary`.
fn parse_size(text: &str) -> Result<u64, String> {
    let total = gp_core::units::parse_scaled(text, gp_core::units::SizeUnit::Decimal)?;
    if !(1.0..=1e13).contains(&total) {
        return Err(format!("size {text:?} out of range [1, 1e13]"));
    }
    Ok(total.round() as u64)
}

/// Which simulated cluster the `fault` command runs on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ClusterChoice {
    /// Local-9 (9 machines).
    Local9,
    /// Local-10 (10 machines).
    Local10,
    /// EC2-16 (16 machines).
    Ec2x16,
    /// EC2-25 (25 machines).
    Ec2x25,
}

impl ClusterChoice {
    /// The full cluster specification.
    pub fn spec(self) -> ClusterSpec {
        match self {
            ClusterChoice::Local9 => ClusterSpec::local_9(),
            ClusterChoice::Local10 => ClusterSpec::local_10(),
            ClusterChoice::Ec2x16 => ClusterSpec::ec2_16(),
            ClusterChoice::Ec2x25 => ClusterSpec::ec2_25(),
        }
    }
}

impl std::str::FromStr for ClusterChoice {
    type Err = String;
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.to_ascii_lowercase().as_str() {
            "local-9" | "local9" => Ok(ClusterChoice::Local9),
            "local-10" | "local10" => Ok(ClusterChoice::Local10),
            "ec2-16" | "ec216" => Ok(ClusterChoice::Ec2x16),
            "ec2-25" | "ec225" => Ok(ClusterChoice::Ec2x25),
            other => Err(format!(
                "unknown cluster {other:?} (local-9|local-10|ec2-16|ec2-25)"
            )),
        }
    }
}

/// Which system's tree/engine to use.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SystemChoice {
    /// PowerGraph: Fig 5.9 tree, SyncGas engine.
    PowerGraph,
    /// PowerLyra: Fig 6.6 tree, HybridGas engine.
    PowerLyra,
    /// GraphX: Fig 9.3 tree, Pregel engine.
    GraphX,
}

impl std::str::FromStr for SystemChoice {
    type Err = String;
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.to_ascii_lowercase().as_str() {
            "powergraph" | "pg" => Ok(SystemChoice::PowerGraph),
            "powerlyra" | "pl" => Ok(SystemChoice::PowerLyra),
            "graphx" | "gx" => Ok(SystemChoice::GraphX),
            other => Err(format!(
                "unknown system {other:?} (powergraph|powerlyra|graphx)"
            )),
        }
    }
}

/// Which application to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AppChoice {
    /// PageRank to convergence.
    PageRank,
    /// Weakly connected components.
    Wcc,
    /// Undirected SSSP from vertex 0.
    Sssp,
}

impl std::str::FromStr for AppChoice {
    type Err = String;
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.to_ascii_lowercase().as_str() {
            "pagerank" | "pr" => Ok(AppChoice::PageRank),
            "wcc" => Ok(AppChoice::Wcc),
            "sssp" => Ok(AppChoice::Sssp),
            other => Err(format!("unknown app {other:?} (pagerank|wcc|sssp)")),
        }
    }
}

fn parse_trace_app(s: &str) -> Result<App, String> {
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

fn parse_dataset(s: &str) -> Result<Dataset, String> {
    Dataset::ALL
        .into_iter()
        .find(|d| d.spec().name.eq_ignore_ascii_case(s))
        .ok_or_else(|| {
            let names: Vec<&str> = Dataset::ALL.iter().map(|d| d.spec().name).collect();
            format!("unknown dataset {s:?} (one of {})", names.join(", "))
        })
}

/// Parse command-line arguments (without the program name).
pub fn parse(args: &[String]) -> Result<Command, String> {
    let mut it = args.iter();
    let Some(cmd) = it.next() else {
        return Ok(Command::Help);
    };
    // Collect positionals and --flags.
    let mut positional: Vec<String> = Vec::new();
    let mut flags: Vec<(String, Option<String>)> = Vec::new();
    let rest: Vec<&String> = it.collect();
    let mut i = 0;
    while i < rest.len() {
        let a = rest[i];
        if let Some(name) = a.strip_prefix("--") {
            let takes_value = !matches!(name, "natural" | "help" | "async" | "speculate" | "fair");
            if takes_value {
                let v = rest
                    .get(i + 1)
                    .ok_or_else(|| format!("--{name} needs a value"))?
                    .to_string();
                flags.push((name.to_string(), Some(v)));
                i += 2;
            } else {
                flags.push((name.to_string(), None));
                i += 1;
            }
        } else if let Some(short) = a.strip_prefix('-') {
            let name = match short {
                "o" => "out",
                "s" => "scale",
                other => other,
            };
            let v = rest
                .get(i + 1)
                .ok_or_else(|| format!("-{short} needs a value"))?
                .to_string();
            flags.push((name.to_string(), Some(v)));
            i += 2;
        } else {
            positional.push(a.to_string());
            i += 1;
        }
    }
    let flag = |name: &str| -> Option<&String> {
        flags
            .iter()
            .find(|(n, _)| n == name)
            .and_then(|(_, v)| v.as_ref())
    };
    let has = |name: &str| flags.iter().any(|(n, _)| n == name);
    let need_path = || -> Result<String, String> {
        positional
            .first()
            .cloned()
            .ok_or_else(|| "missing <graph> path".to_string())
    };
    let parse_flag = |name: &str, default: f64| -> Result<f64, String> {
        flag(name)
            .map(|v| v.parse::<f64>().map_err(|_| format!("bad --{name} {v:?}")))
            .unwrap_or(Ok(default))
    };
    let parse_u = |name: &str, default: u64| -> Result<u64, String> {
        flag(name)
            .map(|v| v.parse::<u64>().map_err(|_| format!("bad --{name} {v:?}")))
            .unwrap_or(Ok(default))
    };
    // Partition/machine counts must fit sane simulation bounds — a typo'd
    // count should error, not allocate gigabytes of per-partition state.
    let parse_count = |name: &str, default: u64| -> Result<u32, String> {
        let v = parse_u(name, default)?;
        if (1..=1_000_000).contains(&v) {
            Ok(v as u32)
        } else {
            Err(format!("--{name} must be between 1 and 1000000, got {v}"))
        }
    };
    // Worker threads: 0 means "all available cores", so parse_count's
    // lower bound does not apply; cap well above any real machine.
    let parse_threads = || -> Result<u32, String> {
        let v = parse_u("threads", 1)?;
        if v <= 4096 {
            Ok(v as u32)
        } else {
            Err(format!("--threads must be between 0 and 4096, got {v}"))
        }
    };
    // Speculative window: 0 (default) and 1 both run the sequential
    // stateful kernels; >= 2 enables windowed speculative ingress; "auto"
    // selects the adaptive window controller.
    let parse_window = || -> Result<u32, String> {
        if flag("window").map(String::as_str) == Some("auto") {
            return Ok(gp_partition::WINDOW_AUTO);
        }
        let v = parse_u("window", 0)?;
        if v <= 1 << 24 {
            Ok(v as u32)
        } else {
            Err(format!(
                "--window must be \"auto\" or between 0 and 16777216, got {v}"
            ))
        }
    };
    let parse_scale = || -> Result<f64, String> {
        let v = parse_flag("scale", 1.0)?;
        if v > 0.0 && v <= 1000.0 {
            Ok(v)
        } else {
            Err(format!("--scale must be in (0, 1000], got {v}"))
        }
    };
    let parse_loss_rate = || -> Result<f64, String> {
        let v = parse_flag("loss-rate", 0.0)?;
        if (0.0..1.0).contains(&v) {
            Ok(v)
        } else {
            Err(format!("--loss-rate must be in [0, 1), got {v}"))
        }
    };

    let parse_size_flag = |name: &str| -> Result<Option<u64>, String> {
        flag(name).map(|v| parse_size(v)).transpose()
    };
    // `STEP:K`-style composite values for the elastic event flags.
    let parse_colon = |name: &str, arity: usize, shape: &str| -> Result<Option<Vec<u32>>, String> {
        flag(name)
            .map(|v| {
                let parts: Result<Vec<u32>, _> = v.split(':').map(str::parse::<u32>).collect();
                match parts {
                    Ok(p) if p.len() == arity => Ok(p),
                    _ => Err(format!("--{name} expects {shape}, got {v:?}")),
                }
            })
            .transpose()
    };

    match cmd.as_str() {
        "help" | "--help" | "-h" => Ok(Command::Help),
        "stats" => Ok(Command::Stats { path: need_path()? }),
        "classify" => Ok(Command::Classify { path: need_path()? }),
        "generate" => {
            let dataset = parse_dataset(&need_path()?)?;
            Ok(Command::Generate {
                dataset,
                scale: parse_scale()?,
                edges: parse_size_flag("edges")?,
                seed: parse_u("seed", 42)?,
                out: flag("out").cloned(),
            })
        }
        "store" => {
            let action = positional
                .first()
                .cloned()
                .ok_or("missing store action (build|info|verify)")?;
            match action.as_str() {
                "build" => {
                    let src = positional
                        .get(1)
                        .ok_or("missing store source (powerlaw or a dataset name)")?;
                    let source = if src.eq_ignore_ascii_case("powerlaw") {
                        StoreSource::PowerLaw
                    } else {
                        StoreSource::Dataset(parse_dataset(src)?)
                    };
                    Ok(Command::StoreBuild {
                        source,
                        out: flag("out").cloned().ok_or("missing -o <out.gps>")?,
                        scale: parse_scale()?,
                        edges: parse_size_flag("edges")?,
                        vertices: parse_size_flag("vertices")?,
                        seed: parse_u("seed", 42)?,
                    })
                }
                "info" => Ok(Command::StoreInfo {
                    path: positional
                        .get(1)
                        .cloned()
                        .ok_or("missing <store.gps> path")?,
                }),
                "verify" => Ok(Command::StoreVerify {
                    path: positional
                        .get(1)
                        .cloned()
                        .ok_or("missing <store.gps> path")?,
                }),
                other => Err(format!(
                    "unknown store action {other:?} (build|info|verify)"
                )),
            }
        }
        "partition" => Ok(Command::Partition {
            path: need_path()?,
            strategy: flag("strategy")
                .ok_or("missing --strategy")?
                .parse::<Strategy>()?,
            parts: parse_count("parts", 9)?,
            seed: parse_u("seed", 42)?,
            threads: parse_threads()?,
            window: parse_window()?,
            out: flag("out").cloned(),
        }),
        "recommend" => Ok(Command::Recommend {
            path: need_path()?,
            system: flag("system")
                .map(|s| s.parse())
                .unwrap_or(Ok(SystemChoice::PowerGraph))?,
            machines: parse_count("machines", 9)?,
            compute_ingress: parse_flag("compute-ingress", 1.0)?,
            natural: has("natural"),
        }),
        "serve" => {
            let cluster = flag("cluster")
                .map(|s| s.parse())
                .unwrap_or(Ok(ClusterChoice::Local9))?;
            let parts = if has("parts") {
                parse_count("parts", 9)?
            } else {
                cluster.spec().machines
            };
            let horizon_s = parse_flag("horizon", 60.0)?;
            if !(horizon_s > 0.0 && horizon_s <= 86_400.0) {
                return Err(format!(
                    "--horizon must be in (0, 86400] seconds, got {horizon_s}"
                ));
            }
            let churn_scale = parse_flag("churn-scale", 1.0)?;
            if !(0.0..=1000.0).contains(&churn_scale) {
                return Err(format!(
                    "--churn-scale must be in [0, 1000], got {churn_scale}"
                ));
            }
            let rebalance_threshold = parse_flag("rebalance-threshold", 1.5)?;
            if rebalance_threshold <= 1.0 {
                return Err(format!(
                    "--rebalance-threshold must exceed 1.0, got {rebalance_threshold}"
                ));
            }
            let rf_threshold = parse_flag("rf-threshold", 1.25)?;
            if rf_threshold < 1.0 {
                return Err(format!(
                    "--rf-threshold must be at least 1.0, got {rf_threshold}"
                ));
            }
            Ok(Command::Serve {
                path: need_path()?,
                strategy: flag("strategy")
                    .map(|s| s.parse())
                    .unwrap_or(Ok(Strategy::Hdrf))?,
                parts,
                seed: parse_u("seed", 42)?,
                cluster,
                horizon_s,
                sessions: parse_count("sessions", 4)?,
                churn_scale,
                rebalance_threshold,
                rf_threshold,
                threads: parse_threads()?,
            })
        }
        "fault" => {
            let dataset = parse_dataset(&need_path()?)?;
            let strategies = flag("strategies")
                .map(|s| s.as_str())
                .unwrap_or("random,hybrid")
                .split(',')
                .map(|s| s.trim().parse::<Strategy>())
                .collect::<Result<Vec<_>, _>>()?;
            if strategies.is_empty() {
                return Err("--strategies needs at least one strategy".to_string());
            }
            Ok(Command::Fault {
                dataset,
                scale: parse_scale()?,
                seed: parse_u("seed", 42)?,
                cluster: flag("cluster")
                    .map(|s| s.parse())
                    .unwrap_or(Ok(ClusterChoice::Ec2x16))?,
                crash_at: parse_count("crash-at", 10)?,
                machine: u32::try_from(parse_u("machine", 0)?)
                    .map_err(|_| "--machine out of range".to_string())?,
                interval: u32::try_from(parse_u("interval", 4)?)
                    .map_err(|_| "--interval out of range".to_string())?,
                asynchronous: has("async"),
                steps: parse_count("steps", 20)?,
                strategies,
                loss_rate: parse_loss_rate()?,
                speculate: has("speculate"),
                threads: parse_threads()?,
            })
        }
        "elastic" => {
            let dataset = parse_dataset(&need_path()?)?;
            let strategies = flag("strategies")
                .map(|s| s.as_str())
                .unwrap_or("random,grid,hdrf")
                .split(',')
                .map(|s| s.trim().parse::<Strategy>())
                .collect::<Result<Vec<_>, _>>()?;
            if strategies.is_empty() {
                return Err("--strategies needs at least one strategy".to_string());
            }
            let scale_out =
                parse_colon("scale-out", 2, "STEP:MACHINES_ADDED")?.map(|p| (p[0], p[1]));
            let preempt = parse_colon("preempt", 3, "STEP:MACHINE:WARNING_STEPS")?
                .map(|p| (p[0], p[1], p[2]));
            let drain =
                parse_colon("drain", 3, "STEP:MACHINE:WARNING_STEPS")?.map(|p| (p[0], p[1], p[2]));
            let policy = match flag("policy").map(|s| s.as_str()).unwrap_or("cost-based") {
                "always" => RepairPolicy::AlwaysRepartition,
                "never" => RepairPolicy::NeverRepartition,
                "cost-based" | "cost" => RepairPolicy::default(),
                other => {
                    return Err(format!(
                        "unknown --policy {other:?} (always|never|cost-based)"
                    ))
                }
            };
            let tenants = parse_count("tenants", 1)?;
            if tenants > 32 {
                return Err(format!("--tenants must be between 1 and 32, got {tenants}"));
            }
            Ok(Command::Elastic {
                dataset,
                scale: parse_scale()?,
                seed: parse_u("seed", 42)?,
                cluster: flag("cluster")
                    .map(|s| s.parse())
                    .unwrap_or(Ok(ClusterChoice::Local9))?,
                strategies,
                scale_out,
                preempt,
                drain,
                policy,
                steps: parse_count("steps", 20)?,
                interval: u32::try_from(parse_u("interval", 4)?)
                    .map_err(|_| "--interval out of range".to_string())?,
                tenants,
                fair: has("fair"),
                threads: parse_threads()?,
            })
        }
        "trace" => {
            let dataset = parse_dataset(&need_path()?)?;
            let crash = if has("crash-at") {
                Some((
                    parse_count("crash-at", 10)?,
                    u32::try_from(parse_u("machine", 0)?)
                        .map_err(|_| "--machine out of range".to_string())?,
                ))
            } else {
                None
            };
            Ok(Command::Trace {
                dataset,
                scale: parse_scale()?,
                seed: parse_u("seed", 42)?,
                strategy: flag("strategy")
                    .map(|s| s.parse())
                    .unwrap_or(Ok(Strategy::Hdrf))?,
                app: parse_trace_app(flag("app").map(|s| s.as_str()).unwrap_or("pagerank"))?,
                system: flag("system")
                    .map(|s| s.parse())
                    .unwrap_or(Ok(SystemChoice::PowerGraph))?,
                cluster: flag("cluster")
                    .map(|s| s.parse())
                    .unwrap_or(Ok(ClusterChoice::Ec2x16))?,
                crash,
                interval: u32::try_from(parse_u("interval", 0)?)
                    .map_err(|_| "--interval out of range".to_string())?,
                loss_rate: parse_loss_rate()?,
                speculate: has("speculate"),
                threads: parse_threads()?,
                out_dir: flag("out").cloned().unwrap_or_else(|| "trace-out".into()),
            })
        }
        "run" => Ok(Command::Run {
            path: need_path()?,
            app: flag("app").ok_or("missing --app")?.parse()?,
            strategy: flag("strategy")
                .ok_or("missing --strategy")?
                .parse::<Strategy>()?,
            parts: parse_count("parts", 9)?,
            seed: parse_u("seed", 42)?,
            system: flag("system")
                .map(|s| s.parse())
                .unwrap_or(Ok(SystemChoice::PowerGraph))?,
            partition_file: flag("partition-file").cloned(),
            threads: parse_threads()?,
            window: parse_window()?,
        }),
        other => Err(format!("unknown command {other:?} (try `distgraph help`)")),
    }
}

/// Usage text.
pub fn usage() -> &'static str {
    "distgraph — partitioning-strategy testbed (VLDB'17 reproduction)

USAGE:
  distgraph stats <graph.txt>
  distgraph classify <graph.txt>
  distgraph generate <dataset> [--scale S | --edges E] [--seed N] [-o out.txt]
  distgraph partition <graph.txt|store.gps> --strategy <name> [--parts N]
                      [--seed N] [--threads N] [--window W|auto] [-o parts.txt]
  distgraph store build powerlaw|<dataset> -o store.gps [--edges E]
                  [--vertices V] [--scale S] [--seed N]
  distgraph store info <store.gps>
  distgraph store verify <store.gps>
  distgraph recommend <graph.txt> [--system powergraph|powerlyra|graphx]
                      [--machines N] [--compute-ingress R] [--natural]
  distgraph run <graph.txt> --app pagerank|wcc|sssp --strategy <name>
                [--parts N] [--system ...] [--partition-file parts.txt]
                [--threads N] [--window W|auto]
  distgraph serve <graph.txt|store.gps> [--strategy hdrf] [--cluster local-9]
                  [--parts N] [--horizon S] [--sessions N] [--churn-scale F]
                  [--rebalance-threshold F] [--rf-threshold F] [--seed N]
                  [--threads N]
  distgraph fault <dataset> [--strategies random,hybrid] [--cluster ec2-16]
                  [--crash-at 10] [--machine 0] [--interval 4] [--async]
                  [--steps 20] [--loss-rate P] [--speculate]
                  [--scale S] [--seed N] [--threads N]
  distgraph elastic <dataset> [--strategies random,grid,hdrf]
                  [--cluster local-9] [--scale-out STEP:K]
                  [--preempt STEP:M:W] [--drain STEP:M:W]
                  [--policy always|never|cost-based] [--steps 20]
                  [--interval 4] [--tenants N] [--fair]
                  [--scale S] [--seed N] [--threads N]
  distgraph trace <dataset> [--strategy hdrf] [--app pagerank|pagerank10|wcc|
                  sssp|kcore|coloring] [--system powergraph|powerlyra|graphx]
                  [--cluster ec2-16] [--interval K] [--crash-at N --machine M]
                  [--loss-rate P] [--speculate] [--scale S] [--seed N]
                  [--threads N] [-o DIR]

Graphs are plain-text edge lists (one `src dst` pair per line, # comments)
or compressed `.gps` stores (see `store build`); `partition` streams `.gps`
files off the memory mapping instead of materializing the edge list, so
graphs far larger than RAM partition with bounded peak RSS.
Size flags (`--edges`, `--vertices`) take decimal suffixes: 10K, 1.5M, 2G.
Strategies: Random, Assym-Rand, Grid, PDS, Oblivious, HDRF, 1D, 1D-Target,
2D, Hybrid, H-Ginger.
Datasets: road-net-CA, road-net-USA, LiveJournal, Enwiki-2013, Twitter, UK-web.
Clusters: local-9, local-10, ec2-16, ec2-25.

`trace` runs one job with telemetry recording and writes `trace.json`
(Chrome trace-event format — load it in https://ui.perfetto.dev or
chrome://tracing), `metrics.csv` and `summary.txt` into DIR.

`serve` holds the partitioned graph resident and replays a seeded stream of
edge inserts/deletes interleaved with k-hop and vertex-state reads. Replica
sets are maintained incrementally by the strategy's own streaming rule; when
edge balance or replication factor drifts past the thresholds, the server
pays for a rebalance or full repartition through the cluster cost model and
serves degraded until it clears. The report gives p50/p99/p999 latency per
query class and phase, and is byte-identical for the same seed.

`fault` crashes one machine mid-PageRank, rolls back to the last checkpoint,
and compares recovery cost (refetch traffic, replayed supersteps, wall-clock
overhead) across partitioning strategies.

`elastic` replays mid-job cluster events against each strategy: on
`--scale-out STEP:K` the repair policy either re-partitions onto the wider
cluster (paying a priced re-ingress) or rides the old assignment; on
`--preempt`/`--drain STEP:M:W` the dying machine's masters evacuate to
surviving replicas when the W-superstep warning window suffices, else the
job falls back to checkpoint recovery. `--tenants N` schedules N copies of
the job onto one cluster, FIFO by default or `--fair` for round-robin
fair-share with priced network interference. Same seed, same bytes.

`--loss-rate P` makes every link drop a fraction P of its packets; reliable
delivery retries with capped exponential backoff, so lossy links cost
retransmit traffic and timeout stalls instead of losing messages.
`--speculate` re-executes a straggling machine's partition on the
least-loaded peer and takes the first finisher.

`--threads N` runs ingress and superstep accounting on N worker threads
(0 = all cores). Every report, assignment, and trace artifact is
byte-identical at any thread count — parallelism only changes speed.

`--window W` (partition/run) turns on windowed speculative ingress for the
stateful strategies (hdrf, oblivious, hybrid, hybrid-ginger): edges are cut
into W-edge windows, workers score each window in parallel against a
read-only snapshot, and a sequential repair pass re-scores only the edges
whose inputs changed. W of 0 (default) or 1 runs the same kernel one edge
at a time; W >= 2 trades byte-identity with that one-edge drive for speed
while staying within 5% on replication factor and balance — and remains
byte-identical across thread counts at a fixed W. `--window auto` sizes
windows adaptively: they grow geometrically while the repair rate stays
low and halve on conflict storms, with the schedule derived purely from
committed-edge counts — still byte-identical at every thread count.
"
}

/// Execute a command, writing human-readable output to `out`. Returns the
/// process exit code.
pub fn execute<W: Write>(cmd: &Command, out: &mut W) -> std::io::Result<i32> {
    match cmd {
        Command::Help => {
            writeln!(out, "{}", usage())?;
            Ok(0)
        }
        Command::Stats { path } => {
            let loaded = match read_edge_list(path) {
                Ok(l) => l,
                Err(e) => return fail(out, &format!("cannot load {path}: {e}")),
            };
            let g = &loaded.graph;
            let stats = GraphStats::compute(g);
            let analysis = DegreeAnalysis::of(g);
            writeln!(out, "{stats}")?;
            writeln!(
                out,
                "degree class: {} (log-log slope {:.2}, low-degree residual {:.2})",
                classify(g),
                analysis.slope,
                analysis.low_degree_residual
            )?;
            Ok(0)
        }
        Command::Classify { path } => {
            let loaded = match read_edge_list(path) {
                Ok(l) => l,
                Err(e) => return fail(out, &format!("cannot load {path}: {e}")),
            };
            writeln!(out, "{}", classify(&loaded.graph))?;
            Ok(0)
        }
        Command::Generate {
            dataset,
            scale,
            edges,
            seed,
            out: dest,
        } => {
            let g = match edges {
                Some(target) => dataset.generate_with_edges(*target, *seed),
                None => dataset.generate(*scale, *seed),
            };
            writeln!(
                out,
                "generated {} analogue: {} vertices, {} edges",
                dataset,
                g.num_vertices(),
                g.num_edges()
            )?;
            if let Some(dest) = dest {
                let file = std::fs::File::create(dest)?;
                if let Err(e) = gp_core::io::write_edge_list(&g, std::io::BufWriter::new(file)) {
                    return fail(out, &format!("cannot write {dest}: {e}"));
                }
                writeln!(out, "wrote {dest}")?;
            }
            Ok(0)
        }
        Command::StoreBuild {
            source,
            out: dest,
            scale,
            edges,
            vertices,
            seed,
        } => {
            let result = match source {
                StoreSource::PowerLaw => {
                    let num_edges = edges.unwrap_or(1_000_000);
                    let num_vertices = vertices.unwrap_or((num_edges / 16).max(2));
                    gp_gen::build_powerlaw_store(
                        dest,
                        PowerLawStreamParams {
                            num_vertices,
                            num_edges,
                            ..Default::default()
                        },
                        *seed,
                    )
                }
                StoreSource::Dataset(dataset) => {
                    let s = match edges {
                        Some(target) => dataset.scale_for_edges(*target),
                        None => *scale,
                    };
                    gp_gen::build_dataset_store(dest, *dataset, s, *seed)
                }
            };
            let stats = match result {
                Ok(s) => s,
                Err(e) => return fail(out, &format!("cannot build {dest}: {e}")),
            };
            writeln!(
                out,
                "built {dest}: {} vertices, {} edges, {} ({:.2} bytes/edge vs 16 in memory)",
                stats.num_vertices,
                stats.num_edges,
                gp_cluster::table::fmt_bytes(stats.file_len as f64),
                stats.bytes_per_edge()
            )?;
            if let Some(rss) = gp_telemetry::peak_rss_bytes() {
                writeln!(
                    out,
                    "peak RSS: {}",
                    gp_cluster::table::fmt_bytes(rss as f64)
                )?;
            }
            Ok(0)
        }
        Command::StoreInfo { path } => {
            let store = match GraphStore::open(path) {
                Ok(s) => s,
                Err(e) => return fail(out, &format!("cannot open {path}: {e}")),
            };
            let info = store.info();
            let mut t = Table::new(format!("store {path}"), &["field", "value"]);
            t.row(vec!["vertices".into(), info.num_vertices.to_string()]);
            t.row(vec!["edges".into(), info.num_edges.to_string()]);
            t.row(vec![
                "file size".into(),
                gp_cluster::table::fmt_bytes(info.file_len as f64),
            ]);
            t.row(vec![
                "adjacency blob".into(),
                gp_cluster::table::fmt_bytes(info.data_len as f64),
            ]);
            t.row(vec![
                "index entries".into(),
                format!("{} (stride {})", info.index_entries, info.index_stride),
            ]);
            t.row(vec![
                "bytes/edge".into(),
                format!("{:.2}", info.bytes_per_edge()),
            ]);
            t.row(vec![
                "vs in-memory edge list".into(),
                format!("{:.1}x smaller", info.ratio_vs_edge_list()),
            ]);
            t.row(vec!["backing".into(), info.mapping.to_string()]);
            writeln!(out, "{t}")?;
            Ok(0)
        }
        Command::StoreVerify { path } => {
            let store = match GraphStore::open(path) {
                Ok(s) => s,
                Err(e) => return fail(out, &format!("cannot open {path}: {e}")),
            };
            match store.verify() {
                Ok(report) => {
                    writeln!(
                        out,
                        "ok: {} vertices, {} edges, max degree {}, {} empty vertices",
                        report.num_vertices,
                        report.num_edges,
                        report.max_degree,
                        report.empty_vertices
                    )?;
                    Ok(0)
                }
                Err(e) => fail(out, &format!("store {path} is corrupt: {e}")),
            }
        }
        Command::Partition {
            path,
            strategy,
            parts,
            seed,
            threads,
            window,
            out: dest,
        } => {
            // `.gps` stores stream straight off the mapping; text edge
            // lists load into memory. Both feed the same `StreamingEdges`
            // ingress and produce identical assignments for the same edge
            // sequence.
            let store;
            let loaded;
            let graph: &dyn StreamingEdges = if path.ends_with(".gps") {
                store = match GraphStore::open(path) {
                    Ok(s) => s,
                    Err(e) => return fail(out, &format!("cannot open {path}: {e}")),
                };
                &store
            } else {
                loaded = match read_edge_list(path) {
                    Ok(l) => l,
                    Err(e) => return fail(out, &format!("cannot load {path}: {e}")),
                };
                &loaded.graph
            };
            if !strategy.supports_partition_count(*parts) {
                return fail(
                    out,
                    &format!("{} cannot run on {parts} partitions", strategy.label()),
                );
            }
            let ctx = PartitionContext::new(*parts)
                .with_seed(*seed)
                .with_threads(*threads)
                .with_window(*window);
            let outcome = strategy.build().partition(graph, &ctx);
            let report = IngressReport::from_outcome(strategy.label(), &outcome, *parts);
            let mut t = Table::new(
                format!("{} over {parts} partitions", strategy.label()),
                &["metric", "value"],
            );
            t.row(vec![
                "replication factor".into(),
                format!("{:.3}", report.replication_factor),
            ]);
            t.row(vec![
                "edge imbalance (max/mean)".into(),
                format!("{:.3}", report.edge_imbalance),
            ]);
            t.row(vec![
                "mirrors created".into(),
                report.volumes.mirrors_created.to_string(),
            ]);
            t.row(vec!["ingress passes".into(), report.passes.to_string()]);
            if graph.source_kind() != "memory" {
                t.row(vec![
                    "source".into(),
                    format!(
                        "{} ({})",
                        graph.source_kind(),
                        gp_cluster::table::fmt_bytes(graph.storage_bytes().unwrap_or(0) as f64)
                    ),
                ]);
                if let Some(rss) = gp_telemetry::peak_rss_bytes() {
                    t.row(vec![
                        "peak RSS".into(),
                        gp_cluster::table::fmt_bytes(rss as f64),
                    ]);
                }
            }
            writeln!(out, "{t}")?;
            if let Some(dest) = dest {
                if let Err(e) = gp_partition::save_assignment(&outcome.assignment, dest) {
                    return fail(out, &format!("cannot write {dest}: {e}"));
                }
                writeln!(out, "saved assignment to {dest}")?;
            }
            Ok(0)
        }
        Command::Serve {
            path,
            strategy,
            parts,
            seed,
            cluster,
            horizon_s,
            sessions,
            churn_scale,
            rebalance_threshold,
            rf_threshold,
            threads,
        } => {
            let store;
            let loaded;
            let graph: &dyn StreamingEdges = if path.ends_with(".gps") {
                store = match GraphStore::open(path) {
                    Ok(s) => s,
                    Err(e) => return fail(out, &format!("cannot open {path}: {e}")),
                };
                &store
            } else {
                loaded = match read_edge_list(path) {
                    Ok(l) => l,
                    Err(e) => return fail(out, &format!("cannot load {path}: {e}")),
                };
                &loaded.graph
            };
            if !strategy.supports_partition_count(*parts) {
                return fail(
                    out,
                    &format!("{} cannot run on {parts} partitions", strategy.label()),
                );
            }
            if graph.num_vertices() < 2 {
                return fail(out, "serve needs a graph with at least two vertices");
            }
            let cfg = ServeConfig {
                strategy: *strategy,
                num_partitions: *parts,
                seed: *seed,
                spec: cluster.spec(),
                policy: DriftPolicy {
                    max_imbalance: *rebalance_threshold,
                    max_rf_growth: *rf_threshold,
                    ..DriftPolicy::default()
                },
                threads: *threads,
            };
            let rates = TrafficRates::default().with_churn_scale(*churn_scale);
            let plan =
                TrafficPlan::generate(*seed, graph.num_vertices(), *sessions, *horizon_s, &rates);
            let report = gp_serve::serve(graph, &plan, &cfg);
            write!(out, "{}", report.render())?;
            Ok(0)
        }
        Command::Recommend {
            path,
            system,
            machines,
            compute_ingress,
            natural,
        } => {
            let loaded = match read_edge_list(path) {
                Ok(l) => l,
                Err(e) => return fail(out, &format!("cannot load {path}: {e}")),
            };
            let class = classify(&loaded.graph);
            let w = Workload {
                graph_class: class,
                machines: *machines,
                compute_ingress_ratio: *compute_ingress,
                natural_app: *natural,
            };
            let rec = match system {
                SystemChoice::PowerGraph => gp_advisor::powergraph(&w),
                SystemChoice::PowerLyra => gp_advisor::powerlyra(&w),
                SystemChoice::GraphX => gp_advisor::graphx_all(&w),
            };
            writeln!(out, "graph class: {class}")?;
            writeln!(
                out,
                "recommended: {}",
                rec.strategies
                    .iter()
                    .map(|s| s.label())
                    .collect::<Vec<_>>()
                    .join(" or ")
            )?;
            writeln!(out, "decision path: {}", rec.path.join(" -> "))?;
            Ok(0)
        }
        Command::Run {
            path,
            app,
            strategy,
            parts,
            seed,
            system,
            partition_file,
            threads,
            window,
        } => {
            let loaded = match read_edge_list(path) {
                Ok(l) => l,
                Err(e) => return fail(out, &format!("cannot load {path}: {e}")),
            };
            let graph = &loaded.graph;
            let assignment = if let Some(pf) = partition_file {
                match gp_partition::load_assignment(graph, pf) {
                    Ok(a) => a,
                    Err(e) => return fail(out, &format!("cannot load {pf}: {e}")),
                }
            } else {
                let ctx = PartitionContext::new(*parts)
                    .with_seed(*seed)
                    .with_threads(*threads)
                    .with_window(*window);
                strategy.build().partition(graph, &ctx).assignment
            };
            let spec = match system {
                SystemChoice::GraphX => ClusterSpec::local_10(),
                _ => ClusterSpec::local_9(),
            };
            let report = run_app(graph, &assignment, *app, *system, &spec, *threads);
            let Some(report) = report else {
                return fail(out, "job ran out of memory on the simulated cluster");
            };
            writeln!(
                out,
                "{} on {} ({}): {} supersteps, {:.1} simulated seconds, {} of traffic",
                report.program,
                report.engine,
                spec.name,
                report.supersteps(),
                report.wall_clock_seconds(),
                gp_cluster::table::fmt_bytes(report.total_in_bytes())
            )?;
            Ok(0)
        }
        Command::Trace {
            dataset,
            scale,
            seed,
            strategy,
            app,
            system,
            cluster,
            crash,
            interval,
            loss_rate,
            speculate,
            threads,
            out_dir,
        } => {
            let spec = cluster.spec();
            let kind = match system {
                SystemChoice::PowerGraph => EngineKind::PowerGraph,
                SystemChoice::PowerLyra => EngineKind::PowerLyra,
                SystemChoice::GraphX => EngineKind::graphx_default(),
            };
            let partitions = kind.partitions(&spec);
            if !strategy.supports_partition_count(partitions) {
                return fail(
                    out,
                    &format!("{} cannot run on {partitions} partitions", strategy.label()),
                );
            }
            if let Some((_, machine)) = crash {
                if *machine >= spec.machines {
                    return fail(
                        out,
                        &format!(
                            "--machine {machine} out of range: {} has {} machines",
                            spec.name, spec.machines
                        ),
                    );
                }
            }
            // Flaky windows cover the whole job; a trace has no superstep
            // bound up front, so use a horizon past any simulated run.
            let mut plan = FaultPlan::uniform_flaky(*loss_rate, spec.machines, 100_000);
            if let Some((step, machine)) = crash {
                plan.push(FaultEvent {
                    superstep: *step,
                    machine: *machine,
                    kind: FaultKind::Crash,
                });
            }
            let policy = if *interval == 0 {
                CheckpointPolicy::disabled()
            } else {
                CheckpointPolicy::every(*interval)
            };
            let comms = comms_config(*loss_rate, *speculate);
            let sink = TelemetrySink::recording();
            let mut pipeline = Pipeline::new(*scale, *seed)
                .with_telemetry(sink.clone())
                .with_threads(*threads);
            let result = pipeline
                .run_with_comms(*dataset, *strategy, &spec, kind, *app, plan, policy, comms);
            if result.failed {
                return fail(out, "job ran out of memory on the simulated cluster");
            }
            let dir = std::path::Path::new(out_dir);
            std::fs::create_dir_all(dir)?;
            std::fs::write(dir.join("trace.json"), sink.chrome_trace_json())?;
            std::fs::write(dir.join("metrics.csv"), sink.metrics_csv())?;
            std::fs::write(dir.join("summary.txt"), sink.summary())?;
            writeln!(
                out,
                "{} × {} on {} ({}): ingress {:.1}s + compute {:.1}s, {} supersteps",
                strategy.label(),
                result.app,
                dataset,
                spec.name,
                result.ingress_seconds,
                result.compute_seconds,
                result.supersteps,
            )?;
            writeln!(
                out,
                "wrote {} spans to {}/trace.json (load in https://ui.perfetto.dev \
                 or chrome://tracing), plus metrics.csv and summary.txt",
                sink.spans().len(),
                dir.display(),
            )?;
            Ok(0)
        }
        Command::Elastic {
            dataset,
            scale,
            seed,
            cluster,
            strategies,
            scale_out,
            preempt,
            drain,
            policy,
            steps,
            interval,
            tenants,
            fair,
            threads,
        } => {
            let spec = cluster.spec();
            for (machine, what) in [
                preempt.map(|(_, m, _)| (m, "--preempt")),
                drain.map(|(_, m, _)| (m, "--drain")),
            ]
            .into_iter()
            .flatten()
            {
                if machine >= spec.machines {
                    return fail(
                        out,
                        &format!(
                            "{what} machine {machine} out of range: {} has {} machines",
                            spec.name, spec.machines
                        ),
                    );
                }
            }
            let mut plan = ElasticPlan::none();
            let mut described: Vec<String> = Vec::new();
            if let Some((step, k)) = scale_out {
                plan.push(ElasticEvent {
                    superstep: *step,
                    kind: ElasticKind::ScaleOut {
                        machines_added: (*k).max(1),
                    },
                });
                described.push(format!("+{k} machines @ step {step}"));
            }
            if let Some((step, machine, warning)) = preempt {
                plan.push(ElasticEvent {
                    superstep: *step,
                    kind: ElasticKind::Preempt {
                        machine: *machine,
                        warning_steps: (*warning).min(*step),
                    },
                });
                described.push(format!(
                    "preempt m{machine} @ step {step} (warning {warning})"
                ));
            }
            if let Some((step, machine, warning)) = drain {
                plan.push(ElasticEvent {
                    superstep: *step,
                    kind: ElasticKind::Drain {
                        machine: *machine,
                        warning_steps: (*warning).min(*step),
                    },
                });
                described.push(format!(
                    "drain m{machine} @ step {step} (warning {warning})"
                ));
            }
            if plan.is_empty() && *tenants < 2 {
                return fail(
                    out,
                    "nothing to simulate: add --scale-out/--preempt/--drain \
                     and/or --tenants N (N >= 2)",
                );
            }
            let checkpoint = if *interval == 0 {
                CheckpointPolicy::disabled()
            } else {
                CheckpointPolicy::every(*interval)
            };
            let mut pipeline = Pipeline::new(*scale, *seed).with_threads(*threads);
            let app = App::PageRankFixed(*steps);
            if !plan.is_empty() {
                let mut t = Table::new(
                    format!(
                        "Elastic plan [{}] on {} (PageRank({steps}), {} repair, \
                         checkpoint {})",
                        described.join(", "),
                        spec.name,
                        policy.label(),
                        if *interval == 0 {
                            "off".to_string()
                        } else {
                            format!("every {interval}")
                        },
                    ),
                    &[
                        "Strategy",
                        "RF",
                        "Clean (s)",
                        "Elastic (s)",
                        "Overhead",
                        "Events",
                        "Evacuated",
                        "Forced",
                        "Re-ingress (s)",
                    ],
                );
                for strategy in strategies {
                    if !strategy.supports_partition_count(spec.machines) {
                        return fail(
                            out,
                            &format!(
                                "{} cannot run on {} partitions",
                                strategy.label(),
                                spec.machines
                            ),
                        );
                    }
                    let clean =
                        pipeline.run(*dataset, *strategy, &spec, EngineKind::PowerGraph, app);
                    let elastic = pipeline.run_with_elastic(
                        *dataset,
                        *strategy,
                        &spec,
                        EngineKind::PowerGraph,
                        app,
                        FaultPlan::none(),
                        checkpoint,
                        CommsConfig::disabled(),
                        ElasticConfig::new(plan.clone()).with_repair(policy.clone()),
                    );
                    t.row(vec![
                        strategy.label().to_string(),
                        format!("{:.2}", elastic.replication_factor),
                        format!("{:.1}", clean.compute_seconds),
                        format!("{:.1}", elastic.compute_seconds),
                        format!(
                            "{:.2}x",
                            elastic.compute_seconds / clean.compute_seconds.max(1e-12)
                        ),
                        elastic.scale_events.to_string(),
                        gp_cluster::table::fmt_bytes(elastic.evacuated_bytes),
                        elastic.forced_recoveries.to_string(),
                        format!("{:.1}", elastic.reingress_seconds),
                    ]);
                }
                writeln!(out, "{t}")?;
            }
            if *tenants >= 2 {
                let solo =
                    pipeline.run(*dataset, strategies[0], &spec, EngineKind::PowerGraph, app);
                let mut walls = Vec::with_capacity(solo.cumulative_seconds.len());
                let mut prev = 0.0;
                for &c in &solo.cumulative_seconds {
                    walls.push(c - prev);
                    prev = c;
                }
                let per_step = solo.mean_net_in_bytes / f64::from(solo.supersteps.max(1));
                // Tenants replay the same job, arriving a quarter of a solo
                // run apart — enough overlap that scheduling policy matters.
                let jobs: Vec<TenantJob> = (0..*tenants)
                    .map(|i| {
                        TenantJob::new(
                            &format!("tenant-{i}"),
                            f64::from(i) * 0.25 * solo.compute_seconds,
                            walls.clone(),
                            vec![per_step; walls.len()],
                        )
                    })
                    .collect();
                let sched_policy = if *fair {
                    SchedulePolicy::FairShare
                } else {
                    SchedulePolicy::Fifo
                };
                let report = TenantScheduler::new(spec.clone(), sched_policy)
                    .run(&jobs, &TelemetrySink::Disabled);
                let mut t = Table::new(
                    format!(
                        "{tenants} tenants of {} × PageRank({steps}) on {} ({}): \
                         makespan {:.1}s",
                        strategies[0].label(),
                        spec.name,
                        sched_policy.label(),
                        report.makespan_s,
                    ),
                    &[
                        "Tenant",
                        "Arrival (s)",
                        "Start (s)",
                        "Finish (s)",
                        "Wait (s)",
                        "Interference (s)",
                        "Interference",
                    ],
                );
                for o in &report.outcomes {
                    t.row(vec![
                        o.name.clone(),
                        format!("{:.1}", o.arrival_s),
                        format!("{:.1}", o.start_s),
                        format!("{:.1}", o.finish_s),
                        format!("{:.1}", o.wait_seconds),
                        format!("{:.1}", o.interference_seconds),
                        gp_cluster::table::fmt_bytes(o.interference_bytes),
                    ]);
                }
                writeln!(out, "{t}")?;
            }
            Ok(0)
        }
        Command::Fault {
            dataset,
            scale,
            seed,
            cluster,
            crash_at,
            machine,
            interval,
            asynchronous,
            steps,
            strategies,
            loss_rate,
            speculate,
            threads,
        } => {
            let spec = cluster.spec();
            if *machine >= spec.machines {
                return fail(
                    out,
                    &format!(
                        "--machine {machine} out of range: {} has {} machines",
                        spec.name, spec.machines
                    ),
                );
            }
            let policy = match (*interval, *asynchronous) {
                (0, _) => CheckpointPolicy::disabled(),
                (k, false) => CheckpointPolicy::every(k),
                (k, true) => CheckpointPolicy::every(k).asynchronous(),
            };
            let graph = dataset.generate(*scale, *seed);
            writeln!(
                out,
                "{dataset} analogue (scale {scale}, seed {seed}): {} vertices, {} edges",
                graph.num_vertices(),
                graph.num_edges()
            )?;
            let rates = CostRates::default();
            let ckpt_label = match (*interval, *asynchronous) {
                (0, _) => "off".to_string(),
                (k, false) => format!("every {k} (sync)"),
                (k, true) => format!("every {k} (async)"),
            };
            let loss_label = if *loss_rate > 0.0 {
                format!(", {:.0}% packet loss", *loss_rate * 100.0)
            } else {
                String::new()
            };
            let mut t = Table::new(
                format!(
                    "Machine {machine} crashes at superstep {crash_at} on {} \
                     (PageRank({steps}), checkpoint {ckpt_label}{loss_label})",
                    spec.name
                ),
                &[
                    "Strategy",
                    "RF",
                    "Refetch",
                    "Recovery (s)",
                    "Replayed",
                    "Clean (s)",
                    "Faulted (s)",
                    "Overhead",
                    "Retransmit",
                    "Spec saved (s)",
                ],
            );
            for strategy in strategies {
                if !strategy.supports_partition_count(spec.machines) {
                    return fail(
                        out,
                        &format!(
                            "{} cannot run on {} partitions",
                            strategy.label(),
                            spec.machines
                        ),
                    );
                }
                let ctx = PartitionContext::new(spec.machines)
                    .with_seed(*seed)
                    .with_threads(*threads);
                let assignment = strategy.build().partition(&graph, &ctx).assignment;
                let rc = recovery_cost(&assignment, *machine, &spec, &rates);
                let program = PageRank::fixed(*steps);
                let clean_config = EngineConfig::new(spec.clone()).with_threads(*threads);
                let layout = Layout::build(&graph, &assignment, spec.machines);
                let (_, clean) = SyncGas::new(clean_config).run_on(&layout, &assignment, &program);
                let mut plan = FaultPlan::uniform_flaky(*loss_rate, spec.machines, *steps);
                plan.push(FaultEvent {
                    superstep: *crash_at,
                    machine: *machine,
                    kind: FaultKind::Crash,
                });
                let faulted_config = EngineConfig::new(spec.clone())
                    .with_threads(*threads)
                    .with_fault_plan(plan)
                    .with_checkpoint(policy)
                    .with_comms(comms_config(*loss_rate, *speculate));
                let (_, faulted) =
                    SyncGas::new(faulted_config).run_on(&layout, &assignment, &program);
                t.row(vec![
                    strategy.label().to_string(),
                    format!("{:.2}", assignment.replication_factor()),
                    gp_cluster::table::fmt_bytes(rc.refetch_bytes),
                    format!("{:.2}", faulted.recovery_seconds),
                    faulted.supersteps_replayed.to_string(),
                    format!("{:.1}", clean.wall_clock_seconds()),
                    format!("{:.1}", faulted.wall_clock_seconds()),
                    format!(
                        "{:.2}x",
                        faulted.wall_clock_seconds() / clean.wall_clock_seconds().max(1e-12)
                    ),
                    gp_cluster::table::fmt_bytes(faulted.retransmit_bytes),
                    format!("{:.2}", faulted.speculation_saved_seconds),
                ]);
            }
            writeln!(out, "{t}")?;
            Ok(0)
        }
    }
}

fn run_app(
    graph: &EdgeList,
    assignment: &gp_partition::Assignment,
    app: AppChoice,
    system: SystemChoice,
    spec: &ClusterSpec,
    threads: u32,
) -> Option<gp_engine::ComputeReport> {
    let config = EngineConfig::new(spec.clone()).with_threads(threads);
    macro_rules! dispatch {
        ($prog:expr) => {
            match system {
                SystemChoice::PowerGraph => Some(
                    SyncGas::new(config.clone())
                        .run(graph, assignment, &$prog)
                        .1,
                ),
                SystemChoice::PowerLyra => Some(
                    HybridGas::new(config.clone())
                        .run(graph, assignment, &$prog)
                        .1,
                ),
                SystemChoice::GraphX => Pregel::new(PregelConfig::new(config.clone()))
                    .run(graph, assignment, &$prog)
                    .ok()
                    .map(|r| r.1),
            }
        };
    }
    match app {
        AppChoice::PageRank => dispatch!(PageRank::to_convergence()),
        AppChoice::Wcc => dispatch!(Wcc),
        AppChoice::Sssp => dispatch!(Sssp::undirected(0u64)),
    }
}

/// Comms protocols implied by the CLI flags: a lossy network needs reliable
/// delivery; speculation is opt-in either way.
fn comms_config(loss_rate: f64, speculate: bool) -> CommsConfig {
    let comms = if loss_rate > 0.0 {
        CommsConfig::reliable()
    } else {
        CommsConfig::disabled()
    };
    comms.with_speculation(speculate)
}

fn fail<W: Write>(out: &mut W, msg: &str) -> std::io::Result<i32> {
    writeln!(out, "error: {msg}")?;
    Ok(2)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse_ok(args: &[&str]) -> Command {
        let v: Vec<String> = args.iter().map(|s| s.to_string()).collect();
        parse(&v).expect("parse")
    }

    fn run_to_string(cmd: &Command) -> (i32, String) {
        let mut buf = Vec::new();
        let code = execute(cmd, &mut buf).unwrap();
        (code, String::from_utf8(buf).unwrap())
    }

    /// Write a test graph to a per-test file (tests run concurrently).
    fn temp_graph_named(name: &str) -> String {
        let dir = std::env::temp_dir().join("distgraph-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("{name}.txt"));
        // Large enough that the heavy-tailed classification is stable.
        let g = gp_gen::barabasi_albert(5_000, 10, 1);
        let file = std::fs::File::create(&path).unwrap();
        gp_core::io::write_edge_list(&g, std::io::BufWriter::new(file)).unwrap();
        path.to_string_lossy().to_string()
    }

    #[test]
    fn parse_stats_and_classify() {
        assert_eq!(
            parse_ok(&["stats", "g.txt"]),
            Command::Stats {
                path: "g.txt".into()
            }
        );
        assert_eq!(
            parse_ok(&["classify", "g.txt"]),
            Command::Classify {
                path: "g.txt".into()
            }
        );
    }

    #[test]
    fn parse_partition_with_flags() {
        let cmd = parse_ok(&[
            "partition",
            "g.txt",
            "--strategy",
            "hdrf",
            "--parts",
            "16",
            "--seed",
            "7",
            "--threads",
            "3",
            "-o",
            "p.txt",
        ]);
        assert_eq!(
            cmd,
            Command::Partition {
                path: "g.txt".into(),
                strategy: Strategy::Hdrf,
                parts: 16,
                seed: 7,
                threads: 3,
                window: 0,
                out: Some("p.txt".into()),
            }
        );
    }

    #[test]
    fn parse_and_run_windowed_partition() {
        let cmd = parse_ok(&[
            "partition",
            "g.txt",
            "--strategy",
            "hdrf",
            "--window",
            "4096",
        ]);
        match &cmd {
            Command::Partition { window, .. } => assert_eq!(*window, 4096),
            other => panic!("parsed {other:?}"),
        }
        let path = temp_graph_named("windowed");
        let (code, text) = run_to_string(&Command::Partition {
            path,
            strategy: Strategy::Hdrf,
            parts: 4,
            seed: 1,
            threads: 2,
            window: 8,
            out: None,
        });
        assert_eq!(code, 0, "{text}");
        assert!(text.contains("replication factor"), "{text}");
    }

    #[test]
    fn parse_and_run_auto_window_partition() {
        let cmd = parse_ok(&[
            "partition",
            "g.txt",
            "--strategy",
            "hdrf",
            "--window",
            "auto",
        ]);
        match &cmd {
            Command::Partition { window, .. } => {
                assert_eq!(*window, gp_partition::WINDOW_AUTO)
            }
            other => panic!("parsed {other:?}"),
        }
        let path = temp_graph_named("autowindow");
        let (code, text) = run_to_string(&Command::Partition {
            path,
            strategy: Strategy::Hdrf,
            parts: 4,
            seed: 1,
            threads: 2,
            window: gp_partition::WINDOW_AUTO,
            out: None,
        });
        assert_eq!(code, 0, "{text}");
        assert!(text.contains("replication factor"), "{text}");
    }

    #[test]
    fn window_rejects_garbage_but_takes_auto() {
        let err = super::parse(&[
            "partition".into(),
            "g.txt".into(),
            "--strategy".into(),
            "hdrf".into(),
            "--window".into(),
            "soon".into(),
        ])
        .unwrap_err();
        assert!(err.contains("bad --window"), "{err}");
        let err = super::parse(&[
            "partition".into(),
            "g.txt".into(),
            "--strategy".into(),
            "hdrf".into(),
            "--window".into(),
            "999999999".into(),
        ])
        .unwrap_err();
        assert!(err.contains("auto"), "{err}");
    }

    #[test]
    fn parse_serve_defaults_and_flags() {
        // Defaults: HDRF on local-9, parts = cluster machines.
        assert_eq!(
            parse_ok(&["serve", "g.txt"]),
            Command::Serve {
                path: "g.txt".into(),
                strategy: Strategy::Hdrf,
                parts: 9,
                seed: 42,
                cluster: ClusterChoice::Local9,
                horizon_s: 60.0,
                sessions: 4,
                churn_scale: 1.0,
                rebalance_threshold: 1.5,
                rf_threshold: 1.25,
                threads: 1,
            }
        );
        let cmd = parse_ok(&[
            "serve",
            "g.gps",
            "--strategy",
            "random",
            "--cluster",
            "ec2-16",
            "--horizon",
            "30",
            "--sessions",
            "2",
            "--churn-scale",
            "4",
            "--rebalance-threshold",
            "1.2",
            "--rf-threshold",
            "1.1",
            "--seed",
            "7",
            "--threads",
            "3",
        ]);
        assert_eq!(
            cmd,
            Command::Serve {
                path: "g.gps".into(),
                strategy: Strategy::Random,
                parts: 16,
                seed: 7,
                cluster: ClusterChoice::Ec2x16,
                horizon_s: 30.0,
                sessions: 2,
                churn_scale: 4.0,
                rebalance_threshold: 1.2,
                rf_threshold: 1.1,
                threads: 3,
            }
        );
    }

    #[test]
    fn parse_serve_rejects_bad_thresholds() {
        let parse_strs = |args: &[&str]| {
            let v: Vec<String> = args.iter().map(|s| s.to_string()).collect();
            parse(&v)
        };
        assert!(parse_strs(&["serve", "g.txt", "--horizon", "0"]).is_err());
        assert!(parse_strs(&["serve", "g.txt", "--rebalance-threshold", "1.0"]).is_err());
        assert!(parse_strs(&["serve", "g.txt", "--rf-threshold", "0.9"]).is_err());
        assert!(parse_strs(&["serve", "g.txt", "--churn-scale", "-1"]).is_err());
    }

    #[test]
    fn serve_runs_and_reports_deterministically() {
        let path = temp_graph_named("serve-basic");
        let mk = |threads: u32| Command::Serve {
            path: path.clone(),
            strategy: Strategy::Random,
            parts: 9,
            seed: 7,
            cluster: ClusterChoice::Local9,
            horizon_s: 3.0,
            sessions: 2,
            churn_scale: 1.0,
            rebalance_threshold: 1.5,
            rf_threshold: 1.25,
            threads,
        };
        let (code, text) = run_to_string(&mk(1));
        assert_eq!(code, 0, "{text}");
        assert!(text.contains("serve report"), "{text}");
        assert!(text.contains("rebalances triggered:"), "{text}");
        let (code2, text2) = run_to_string(&mk(3));
        assert_eq!(code2, 0);
        assert_eq!(text, text2, "thread count leaked into the serve report");
    }

    #[test]
    fn parse_recommend_flags() {
        let cmd = parse_ok(&[
            "recommend",
            "g.txt",
            "--system",
            "powerlyra",
            "--machines",
            "25",
            "--compute-ingress",
            "2.5",
            "--natural",
        ]);
        assert_eq!(
            cmd,
            Command::Recommend {
                path: "g.txt".into(),
                system: SystemChoice::PowerLyra,
                machines: 25,
                compute_ingress: 2.5,
                natural: true,
            }
        );
    }

    #[test]
    fn parse_rejects_unknown_command_and_strategy() {
        assert!(parse(&["frobnicate".to_string()]).is_err());
        let args: Vec<String> = ["partition", "g.txt", "--strategy", "nope"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        assert!(parse(&args).is_err());
    }

    #[test]
    fn parse_rejects_out_of_range_counts_and_scales() {
        let parse_strs = |args: &[&str]| {
            let v: Vec<String> = args.iter().map(|s| s.to_string()).collect();
            parse(&v)
        };
        // A count that would wrap u32 or allocate absurd per-partition state.
        assert!(parse_strs(&[
            "partition",
            "g.txt",
            "--strategy",
            "grid",
            "--parts",
            "5000000000",
        ])
        .is_err());
        assert!(parse_strs(&["partition", "g.txt", "--strategy", "grid", "--parts", "0"]).is_err());
        assert!(parse_strs(&["generate", "LiveJournal", "--scale", "0"]).is_err());
        assert!(parse_strs(&["generate", "LiveJournal", "--scale", "-2"]).is_err());
        assert!(parse_strs(&["recommend", "g.txt", "--machines", "0"]).is_err());
        // --threads 0 is valid (all cores), but absurd pools are not.
        assert!(
            parse_strs(&["partition", "g.txt", "--strategy", "grid", "--threads", "0"]).is_ok()
        );
        assert!(parse_strs(&[
            "partition",
            "g.txt",
            "--strategy",
            "grid",
            "--threads",
            "99999",
        ])
        .is_err());
    }

    #[test]
    fn empty_args_show_help() {
        assert_eq!(parse(&[]).unwrap(), Command::Help);
        let (code, text) = run_to_string(&Command::Help);
        assert_eq!(code, 0);
        assert!(text.contains("USAGE"));
    }

    #[test]
    fn stats_and_classify_run_on_a_real_file() {
        let path = temp_graph_named("stats");
        let (code, text) = run_to_string(&Command::Stats { path: path.clone() });
        assert_eq!(code, 0);
        assert!(text.contains("|V|=5000"), "{text}");
        let (code, text) = run_to_string(&Command::Classify { path });
        assert_eq!(code, 0);
        assert!(text.contains("heavy-tailed"), "{text}");
    }

    #[test]
    fn partition_saves_and_run_reuses_the_file() {
        let path = temp_graph_named("partition");
        let pfile = std::env::temp_dir()
            .join("distgraph-cli-test")
            .join("parts.txt")
            .to_string_lossy()
            .to_string();
        let (code, text) = run_to_string(&Command::Partition {
            path: path.clone(),
            strategy: Strategy::Grid,
            parts: 9,
            seed: 1,
            threads: 2,
            window: 0,
            out: Some(pfile.clone()),
        });
        assert_eq!(code, 0, "{text}");
        assert!(text.contains("replication factor"));
        let (code, text) = run_to_string(&Command::Run {
            path,
            app: AppChoice::Wcc,
            strategy: Strategy::Random, // ignored: partition file wins
            parts: 9,
            seed: 1,
            system: SystemChoice::PowerGraph,
            partition_file: Some(pfile),
            threads: 1,
            window: 0,
        });
        assert_eq!(code, 0, "{text}");
        assert!(text.contains("WCC"), "{text}");
        assert!(text.contains("supersteps"));
    }

    #[test]
    fn run_refuses_a_partition_file_with_a_hostile_header() {
        let path = temp_graph_named("hostile-header");
        let pfile = std::env::temp_dir()
            .join("distgraph-cli-test")
            .join("hostile-parts.txt")
            .to_string_lossy()
            .to_string();
        let (code, text) = run_to_string(&Command::Partition {
            path: path.clone(),
            strategy: Strategy::Grid,
            parts: 16,
            seed: 1,
            threads: 1,
            window: 0,
            out: Some(pfile.clone()),
        });
        assert_eq!(code, 0, "{text}");
        // The header used to size a per-partition table: 4e9 × 8 bytes.
        let saved = std::fs::read_to_string(&pfile).unwrap();
        let hostile = saved.replacen("partitions 16", "partitions 4000000000", 1);
        std::fs::write(&pfile, hostile).unwrap();
        let (code, text) = run_to_string(&Command::Run {
            path,
            app: AppChoice::PageRank,
            strategy: Strategy::Grid,
            parts: 16,
            seed: 1,
            system: SystemChoice::PowerGraph,
            partition_file: Some(pfile.clone()),
            threads: 1,
            window: 0,
        });
        // `fail`'s code, like every other load error; not an abort.
        assert_eq!(code, 2, "{text}");
        assert!(text.contains(&format!("cannot load {pfile}")), "{text}");
        assert!(text.contains("4000000000"), "{text}");
    }

    #[test]
    fn run_works_on_all_three_systems() {
        let path = temp_graph_named("run");
        for system in [
            SystemChoice::PowerGraph,
            SystemChoice::PowerLyra,
            SystemChoice::GraphX,
        ] {
            let (code, text) = run_to_string(&Command::Run {
                path: path.clone(),
                app: AppChoice::PageRank,
                strategy: Strategy::Hybrid,
                parts: 9,
                seed: 1,
                system,
                partition_file: None,
                threads: 2, // exercise the parallel engine path
                window: 0,
            });
            assert_eq!(code, 0, "{system:?}: {text}");
            assert!(text.contains("PageRank"), "{system:?}: {text}");
        }
    }

    #[test]
    fn generate_writes_a_loadable_file() {
        let dir = std::env::temp_dir().join("distgraph-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let dest = dir.join("gen.txt").to_string_lossy().to_string();
        let (code, text) = run_to_string(&Command::Generate {
            dataset: Dataset::RoadNetCa,
            scale: 0.05,
            edges: None,
            seed: 3,
            out: Some(dest.clone()),
        });
        assert_eq!(code, 0, "{text}");
        let loaded = read_edge_list(&dest).unwrap();
        assert!(loaded.graph.num_edges() > 100);
    }

    #[test]
    fn recommend_reports_a_path() {
        let path = temp_graph_named("recommend");
        let (code, text) = run_to_string(&Command::Recommend {
            path,
            system: SystemChoice::PowerGraph,
            machines: 25,
            compute_ingress: 0.5,
            natural: false,
        });
        assert_eq!(code, 0);
        assert!(text.contains("recommended: Grid"), "{text}");
        assert!(text.contains("decision path"));
    }

    #[test]
    fn parse_fault_defaults_and_flags() {
        let cmd = parse_ok(&["fault", "LiveJournal"]);
        assert_eq!(
            cmd,
            Command::Fault {
                dataset: Dataset::LiveJournal,
                scale: 1.0,
                seed: 42,
                cluster: ClusterChoice::Ec2x16,
                crash_at: 10,
                machine: 0,
                interval: 4,
                asynchronous: false,
                steps: 20,
                strategies: vec![Strategy::Random, Strategy::Hybrid],
                loss_rate: 0.0,
                speculate: false,
                threads: 1,
            }
        );
        let cmd = parse_ok(&[
            "fault",
            "Twitter",
            "--strategies",
            "grid,hdrf,oblivious",
            "--cluster",
            "local-9",
            "--crash-at",
            "5",
            "--machine",
            "3",
            "--interval",
            "2",
            "--async",
            "--steps",
            "8",
            "--scale",
            "0.2",
            "--seed",
            "7",
            "--loss-rate",
            "0.05",
            "--speculate",
            "--threads",
            "4",
        ]);
        assert_eq!(
            cmd,
            Command::Fault {
                dataset: Dataset::Twitter,
                scale: 0.2,
                seed: 7,
                cluster: ClusterChoice::Local9,
                crash_at: 5,
                machine: 3,
                interval: 2,
                asynchronous: true,
                steps: 8,
                strategies: vec![Strategy::Grid, Strategy::Hdrf, Strategy::Oblivious],
                loss_rate: 0.05,
                speculate: true,
                threads: 4,
            }
        );
        let bad: Vec<String> = ["fault", "Twitter", "--cluster", "ec2-99"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        assert!(parse(&bad).is_err());
        let bad_loss: Vec<String> = ["fault", "Twitter", "--loss-rate", "1.5"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        assert!(parse(&bad_loss).is_err());
        let bad_loss: Vec<String> = ["trace", "Twitter", "--loss-rate", "-0.1"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        assert!(parse(&bad_loss).is_err());
    }

    #[test]
    fn parse_elastic_defaults_and_flags() {
        let cmd = parse_ok(&["elastic", "LiveJournal", "--tenants", "2"]);
        assert_eq!(
            cmd,
            Command::Elastic {
                dataset: Dataset::LiveJournal,
                scale: 1.0,
                seed: 42,
                cluster: ClusterChoice::Local9,
                strategies: vec![Strategy::Random, Strategy::Grid, Strategy::Hdrf],
                scale_out: None,
                preempt: None,
                drain: None,
                policy: RepairPolicy::default(),
                steps: 20,
                interval: 4,
                tenants: 2,
                fair: false,
                threads: 1,
            }
        );
        let cmd = parse_ok(&[
            "elastic",
            "road-net-CA",
            "--strategies",
            "random,hybrid",
            "--cluster",
            "local-9",
            "--scale-out",
            "2:9",
            "--preempt",
            "5:2:4",
            "--drain",
            "7:1:3",
            "--policy",
            "always",
            "--steps",
            "12",
            "--interval",
            "3",
            "--tenants",
            "3",
            "--fair",
            "--scale",
            "0.1",
            "--seed",
            "7",
            "--threads",
            "2",
        ]);
        assert_eq!(
            cmd,
            Command::Elastic {
                dataset: Dataset::RoadNetCa,
                scale: 0.1,
                seed: 7,
                cluster: ClusterChoice::Local9,
                strategies: vec![Strategy::Random, Strategy::Hybrid],
                scale_out: Some((2, 9)),
                preempt: Some((5, 2, 4)),
                drain: Some((7, 1, 3)),
                policy: RepairPolicy::AlwaysRepartition,
                steps: 12,
                interval: 3,
                tenants: 3,
                fair: true,
                threads: 2,
            }
        );
        for bad in [
            vec!["elastic", "Twitter", "--scale-out", "2"],
            vec!["elastic", "Twitter", "--preempt", "5:2"],
            vec!["elastic", "Twitter", "--preempt", "5:2:x"],
            vec!["elastic", "Twitter", "--policy", "maybe"],
            vec!["elastic", "Twitter", "--tenants", "99"],
        ] {
            let v: Vec<String> = bad.iter().map(|s| s.to_string()).collect();
            assert!(parse(&v).is_err(), "{bad:?} should not parse");
        }
    }

    #[test]
    fn elastic_command_reports_events_and_tenants() {
        let cmd = Command::Elastic {
            dataset: Dataset::LiveJournal,
            scale: 0.02,
            seed: 11,
            cluster: ClusterChoice::Local9,
            strategies: vec![Strategy::Random, Strategy::Grid],
            scale_out: Some((2, 9)),
            preempt: Some((5, 2, 4)),
            drain: None,
            policy: RepairPolicy::default(),
            steps: 12,
            interval: 4,
            tenants: 2,
            fair: true,
            threads: 1,
        };
        let (code, text) = run_to_string(&cmd);
        assert_eq!(code, 0, "{text}");
        assert!(text.contains("+9 machines @ step 2"), "{text}");
        assert!(text.contains("preempt m2 @ step 5"), "{text}");
        assert!(text.contains("tenant-1"), "{text}");
        assert!(text.contains("fair-share"), "{text}");
        // Same command, same bytes — the seeded pipeline is deterministic.
        let (_, again) = run_to_string(&cmd);
        assert_eq!(text, again);
    }

    #[test]
    fn elastic_command_requires_something_to_do() {
        let (code, text) = run_to_string(&Command::Elastic {
            dataset: Dataset::LiveJournal,
            scale: 0.02,
            seed: 11,
            cluster: ClusterChoice::Local9,
            strategies: vec![Strategy::Random],
            scale_out: None,
            preempt: None,
            drain: None,
            policy: RepairPolicy::default(),
            steps: 12,
            interval: 4,
            tenants: 1,
            fair: false,
            threads: 1,
        });
        assert_eq!(code, 2);
        assert!(text.contains("nothing to simulate"), "{text}");
    }

    #[test]
    fn fault_command_orders_recovery_by_replication_factor() {
        let (code, text) = run_to_string(&Command::Fault {
            dataset: Dataset::LiveJournal,
            scale: 0.02,
            seed: 11,
            cluster: ClusterChoice::Local9,
            crash_at: 3,
            machine: 2,
            interval: 2,
            asynchronous: false,
            steps: 8,
            strategies: vec![Strategy::Random, Strategy::Hybrid],
            loss_rate: 0.0,
            speculate: false,
            threads: 1,
        });
        assert_eq!(code, 0, "{text}");
        assert!(text.contains("crashes at superstep 3"), "{text}");
        let rows: Vec<&str> = text
            .lines()
            .filter(|l| l.contains("Random") || l.contains("Hybrid"))
            .collect();
        assert_eq!(rows.len(), 2, "{text}");
        // Random replicates more than Hybrid, so it must pay more to recover.
        // Tokens: strategy, RF, refetch value, refetch unit, recovery seconds.
        let recovery =
            |row: &str| -> f64 { row.split_whitespace().nth(4).unwrap().parse().unwrap() };
        let random = rows.iter().find(|r| r.contains("Random")).unwrap();
        let hybrid = rows.iter().find(|r| r.contains("Hybrid")).unwrap();
        assert!(recovery(random) > recovery(hybrid), "{text}");
    }

    #[test]
    fn parse_trace_defaults_and_flags() {
        let cmd = parse_ok(&["trace", "LiveJournal"]);
        assert_eq!(
            cmd,
            Command::Trace {
                dataset: Dataset::LiveJournal,
                scale: 1.0,
                seed: 42,
                strategy: Strategy::Hdrf,
                app: App::PageRankConv,
                system: SystemChoice::PowerGraph,
                cluster: ClusterChoice::Ec2x16,
                crash: None,
                interval: 0,
                loss_rate: 0.0,
                speculate: false,
                threads: 1,
                out_dir: "trace-out".into(),
            }
        );
        let cmd = parse_ok(&[
            "trace",
            "road-net-CA",
            "--strategy",
            "grid",
            "--app",
            "kcore",
            "--system",
            "powerlyra",
            "--cluster",
            "local-9",
            "--crash-at",
            "5",
            "--machine",
            "2",
            "--interval",
            "3",
            "--scale",
            "0.1",
            "--seed",
            "7",
            "--loss-rate",
            "0.02",
            "--speculate",
            "--threads",
            "0",
            "-o",
            "artifacts",
        ]);
        assert_eq!(
            cmd,
            Command::Trace {
                dataset: Dataset::RoadNetCa,
                scale: 0.1,
                seed: 7,
                strategy: Strategy::Grid,
                app: App::kcore_paper(),
                system: SystemChoice::PowerLyra,
                cluster: ClusterChoice::Local9,
                crash: Some((5, 2)),
                interval: 3,
                loss_rate: 0.02,
                speculate: true,
                threads: 0,
                out_dir: "artifacts".into(),
            }
        );
        let bad: Vec<String> = ["trace", "LiveJournal", "--app", "frobnicate"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        assert!(parse(&bad).is_err());
    }

    #[test]
    fn trace_writes_loadable_artifacts() {
        let dir = std::env::temp_dir()
            .join("distgraph-cli-test")
            .join("trace-artifacts");
        let (code, text) = run_to_string(&Command::Trace {
            dataset: Dataset::LiveJournal,
            scale: 0.05,
            seed: 7,
            strategy: Strategy::Hdrf,
            app: App::PageRankFixed(5),
            system: SystemChoice::PowerGraph,
            cluster: ClusterChoice::Local9,
            crash: None,
            interval: 2,
            loss_rate: 0.0,
            speculate: false,
            threads: 1,
            out_dir: dir.to_string_lossy().to_string(),
        });
        assert_eq!(code, 0, "{text}");
        assert!(text.contains("supersteps"), "{text}");
        let trace = std::fs::read_to_string(dir.join("trace.json")).unwrap();
        assert!(trace.contains("\"traceEvents\""));
        assert!(trace.contains("ingress.HDRF"), "trace covers ingress");
        assert!(trace.contains("superstep.0"), "trace covers supersteps");
        assert!(trace.contains("checkpoint.0"), "trace covers checkpoints");
        let csv = std::fs::read_to_string(dir.join("metrics.csv")).unwrap();
        assert!(csv.starts_with("kind,name,field,value"));
        assert!(csv.contains("ingress.replicas_created"));
        assert!(csv.contains("engine.supersteps"));
        let summary = std::fs::read_to_string(dir.join("summary.txt")).unwrap();
        assert!(summary.contains("telemetry summary"));
    }

    #[test]
    fn fault_command_with_loss_rate_reports_retransmits() {
        let (code, text) = run_to_string(&Command::Fault {
            dataset: Dataset::LiveJournal,
            scale: 0.02,
            seed: 11,
            cluster: ClusterChoice::Local9,
            crash_at: 3,
            machine: 2,
            interval: 2,
            asynchronous: false,
            steps: 8,
            strategies: vec![Strategy::Random],
            loss_rate: 0.1,
            speculate: false,
            threads: 1,
        });
        assert_eq!(code, 0, "{text}");
        assert!(text.contains("Retransmit"), "{text}");
        let row = text.lines().find(|l| l.contains("Random")).unwrap();
        // The retransmit column must be a real, nonzero byte count.
        let bytes_text = row
            .split_whitespace()
            .rev()
            .skip(1)
            .take(2)
            .collect::<Vec<_>>()
            .into_iter()
            .rev()
            .collect::<Vec<_>>()
            .join(" ");
        let bytes = gp_cluster::table::parse_bytes(&bytes_text).unwrap();
        assert!(bytes > 0.0, "{text}");
    }

    #[test]
    fn trace_with_loss_rate_records_retry_spans() {
        let dir = std::env::temp_dir()
            .join("distgraph-cli-test")
            .join("trace-netloss");
        let (code, text) = run_to_string(&Command::Trace {
            dataset: Dataset::LiveJournal,
            scale: 0.05,
            seed: 7,
            strategy: Strategy::Hdrf,
            app: App::PageRankFixed(5),
            system: SystemChoice::PowerGraph,
            cluster: ClusterChoice::Local9,
            crash: None,
            interval: 0,
            loss_rate: 0.1,
            speculate: true,
            threads: 1,
            out_dir: dir.to_string_lossy().to_string(),
        });
        assert_eq!(code, 0, "{text}");
        let trace = std::fs::read_to_string(dir.join("trace.json")).unwrap();
        assert!(trace.contains("\"retry\""), "trace covers retry windows");
        let csv = std::fs::read_to_string(dir.join("metrics.csv")).unwrap();
        assert!(csv.contains("net.retransmit_bytes"), "{csv}");
        assert!(csv.contains("net.flaky_windows"), "{csv}");
    }

    #[test]
    fn fault_command_rejects_machine_out_of_range() {
        let (code, text) = run_to_string(&Command::Fault {
            dataset: Dataset::LiveJournal,
            scale: 0.02,
            seed: 1,
            cluster: ClusterChoice::Local9,
            crash_at: 1,
            machine: 9,
            interval: 0,
            asynchronous: false,
            steps: 2,
            strategies: vec![Strategy::Random],
            loss_rate: 0.0,
            speculate: false,
            threads: 1,
        });
        assert_eq!(code, 2);
        assert!(text.contains("out of range"), "{text}");
    }

    #[test]
    fn errors_use_exit_code_two() {
        let (code, text) = run_to_string(&Command::Classify {
            path: "/nonexistent/graph.txt".into(),
        });
        assert_eq!(code, 2);
        assert!(text.contains("error:"));
    }

    #[test]
    fn pds_partition_count_is_validated() {
        let path = temp_graph_named("classify");
        let (code, text) = run_to_string(&Command::Partition {
            path,
            strategy: Strategy::Pds,
            parts: 9,
            seed: 1,
            threads: 1,
            window: 0,
            out: None,
        });
        assert_eq!(code, 2);
        assert!(text.contains("cannot run on 9 partitions"), "{text}");
    }

    #[test]
    fn parse_size_accepts_decimal_suffixes() {
        assert_eq!(parse_size("100"), Ok(100));
        assert_eq!(parse_size("10K"), Ok(10_000));
        assert_eq!(parse_size("10M"), Ok(10_000_000));
        assert_eq!(parse_size("1.5M"), Ok(1_500_000));
        assert_eq!(parse_size("2G"), Ok(2_000_000_000));
        assert_eq!(parse_size("0.5k"), Ok(500));
        assert!(parse_size("0").is_err());
        assert!(parse_size("-5M").is_err());
        assert!(parse_size("nope").is_err());
        assert!(parse_size("99999G").is_err());
    }

    #[test]
    fn size_parsers_share_one_helper_across_crates() {
        // Decimal counts and binary bytes disagree on the same text by
        // design: 10K items vs 10 KiB.
        assert_eq!(parse_size("10K"), Ok(10_000));
        assert_eq!(gp_cluster::table::parse_bytes("10K"), Some(10_240.0));
        // Byte-flavoured suffixes are a unit error for counts.
        assert!(parse_size("10KiB").is_err());
        assert!(parse_size("10MB").is_err());
        // The cluster's byte exports round-trip through the shared helper.
        let text = gp_cluster::table::fmt_bytes(1_500_000.0);
        let bytes = gp_cluster::table::parse_bytes(&text).unwrap();
        assert!(
            (bytes - 1_500_000.0).abs() / 1_500_000.0 < 0.005,
            "{text} -> {bytes}"
        );
    }

    #[test]
    fn parse_generate_with_edges() {
        let cmd = parse_ok(&["generate", "LiveJournal", "--edges", "10K", "--seed", "5"]);
        assert_eq!(
            cmd,
            Command::Generate {
                dataset: Dataset::LiveJournal,
                scale: 1.0,
                edges: Some(10_000),
                seed: 5,
                out: None,
            }
        );
    }

    #[test]
    fn parse_store_commands() {
        let cmd = parse_ok(&[
            "store",
            "build",
            "powerlaw",
            "-o",
            "s.gps",
            "--edges",
            "1M",
            "--vertices",
            "50K",
            "--seed",
            "9",
        ]);
        assert_eq!(
            cmd,
            Command::StoreBuild {
                source: StoreSource::PowerLaw,
                out: "s.gps".into(),
                scale: 1.0,
                edges: Some(1_000_000),
                vertices: Some(50_000),
                seed: 9,
            }
        );
        let cmd = parse_ok(&["store", "build", "road-net-CA", "-o", "ca.gps"]);
        assert_eq!(
            cmd,
            Command::StoreBuild {
                source: StoreSource::Dataset(Dataset::RoadNetCa),
                out: "ca.gps".into(),
                scale: 1.0,
                edges: None,
                vertices: None,
                seed: 42,
            }
        );
        assert_eq!(
            parse_ok(&["store", "info", "s.gps"]),
            Command::StoreInfo {
                path: "s.gps".into()
            }
        );
        assert_eq!(
            parse_ok(&["store", "verify", "s.gps"]),
            Command::StoreVerify {
                path: "s.gps".into()
            }
        );
        let parse_strs = |args: &[&str]| {
            let v: Vec<String> = args.iter().map(|s| s.to_string()).collect();
            parse(&v)
        };
        assert!(
            parse_strs(&["store", "build", "powerlaw"]).is_err(),
            "-o required"
        );
        assert!(parse_strs(&["store", "explode", "s.gps"]).is_err());
        assert!(parse_strs(&["store"]).is_err());
    }

    #[test]
    fn store_build_info_verify_round_trip() {
        let dir = std::env::temp_dir().join("distgraph-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("roundtrip.gps").to_string_lossy().to_string();
        let (code, text) = run_to_string(&Command::StoreBuild {
            source: StoreSource::PowerLaw,
            out: path.clone(),
            scale: 1.0,
            edges: Some(20_000),
            vertices: Some(2_000),
            seed: 7,
        });
        assert_eq!(code, 0, "{text}");
        assert!(text.contains("20000 edges"), "{text}");

        let (code, text) = run_to_string(&Command::StoreInfo { path: path.clone() });
        assert_eq!(code, 0, "{text}");
        assert!(text.contains("bytes/edge"), "{text}");

        let (code, text) = run_to_string(&Command::StoreVerify { path: path.clone() });
        assert_eq!(code, 0, "{text}");
        assert!(text.starts_with("ok:"), "{text}");

        // Corrupt one adjacency byte: verify must fail with exit code 2.
        let broken = dir
            .join("roundtrip-broken.gps")
            .to_string_lossy()
            .to_string();
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xFF;
        std::fs::write(&broken, bytes).unwrap();
        let (code, text) = run_to_string(&Command::StoreVerify { path: broken });
        assert_eq!(code, 2, "{text}");
        assert!(text.contains("corrupt"), "{text}");
    }

    #[test]
    fn gps_partition_matches_in_memory() {
        let dir = std::env::temp_dir().join("distgraph-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let gps = dir.join("stream-eq.gps").to_string_lossy().to_string();
        let (code, text) = run_to_string(&Command::StoreBuild {
            source: StoreSource::Dataset(Dataset::LiveJournal),
            out: gps.clone(),
            scale: 0.05,
            edges: None,
            vertices: None,
            seed: 11,
        });
        assert_eq!(code, 0, "{text}");

        // CLI partition of the .gps store, assignment saved to disk.
        let streamed_out = dir
            .join("stream-eq-parts.txt")
            .to_string_lossy()
            .to_string();
        let (code, text) = run_to_string(&Command::Partition {
            path: gps.clone(),
            strategy: Strategy::Hdrf,
            parts: 8,
            seed: 3,
            threads: 2,
            window: 0,
            out: Some(streamed_out.clone()),
        });
        assert_eq!(code, 0, "{text}");
        assert!(text.contains("store"), "source row expected: {text}");

        // Same edges partitioned from memory must agree byte-for-byte.
        let store = GraphStore::open(&gps).unwrap();
        let in_memory = store.to_edge_list();
        let ctx = PartitionContext::new(8).with_seed(3).with_threads(2);
        let outcome = Strategy::Hdrf.build().partition(&in_memory, &ctx);
        let memory_out = dir
            .join("memory-eq-parts.txt")
            .to_string_lossy()
            .to_string();
        gp_partition::save_assignment(&outcome.assignment, &memory_out).unwrap();
        assert_eq!(
            std::fs::read(&streamed_out).unwrap(),
            std::fs::read(&memory_out).unwrap(),
            "streamed .gps partition must match the in-memory assignment"
        );
    }
}
