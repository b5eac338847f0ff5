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
//! distgraph experiments <id…|all|list> [-s S] [--seed N] [--csv DIR] [--svg DIR]
//! ```
//!
//! Commands parse into [`Command`], execute against a writer, and return an
//! exit code — the binary is a thin wrapper. [`flags`] holds the one
//! tokenizer and the typed getters; every subcommand is a module owning an
//! `Args` struct with `parse(&Flags)` and `run(&self, out)`.

pub mod classify;
pub mod elastic;
pub mod experiments;
pub mod fault;
pub mod flags;
pub mod generate;
pub mod partition;
pub mod recommend;
pub mod run;
pub mod serve;
pub mod stats;
pub mod store;
pub mod trace;

pub use flags::Flags;

use gp_bench::Scenario;
use gp_cluster::ClusterSpec;
use gp_core::io::read_edge_list;
use gp_core::{EdgeList, StreamingEdges};
use gp_engine::CommsConfig;
use gp_fault::{FaultEvent, FaultKind, FaultPlan};
use gp_gen::Dataset;
use gp_partition::Strategy;
use gp_store::GraphStore;
use std::io::Write;

/// A parsed CLI invocation.
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    /// Print graph statistics and degree analysis.
    Stats(stats::Args),
    /// Print just the degree class.
    Classify(classify::Args),
    /// Generate a dataset analogue.
    Generate(generate::Args),
    /// Build, inspect or verify a compressed `.gps` store.
    Store(store::Args),
    /// Partition a graph and report quality; optionally save the assignment.
    Partition(partition::Args),
    /// Recommend a strategy via the paper's decision trees.
    Recommend(recommend::Args),
    /// Partition + run an application on a simulated engine.
    Run(run::Args),
    /// Long-running serve: streaming updates, query traffic, drift repair.
    Serve(serve::Args),
    /// Crash a machine mid-job and compare recovery cost across strategies.
    Fault(fault::Args),
    /// Replay a plan of mid-job cluster events — scale-outs, drains, spot
    /// preemptions — and/or schedule several tenants onto one cluster.
    Elastic(elastic::Args),
    /// Run one (dataset, strategy, app, cluster) cell with telemetry
    /// recording and write Chrome trace-event JSON plus metrics artifacts.
    Trace(trace::Args),
    /// Regenerate the paper's tables and figures from the experiment
    /// registry.
    Experiments(experiments::Args),
    /// Print usage.
    Help,
}

/// Why a subcommand stopped: a `String` to tell the user (`error: …`, exit
/// code 2) or the `io::Error` of an output stream that broke.
pub type Failure = Box<dyn std::error::Error>;

/// One subcommand: the flags it declares, how its arguments parse, and what
/// it does. To add a flag, list it in `VALUES` or `SWITCHES`, read it in
/// `parse` into a field of the args struct, and document it in [`usage`].
pub trait Subcommand: Sized {
    /// The word after `distgraph`.
    const NAME: &'static str;
    /// Flags that take a value, space-separated.
    const VALUES: &'static str;
    /// Flags that take none, space-separated.
    const SWITCHES: &'static str = "";

    /// Typed arguments from tokenized flags.
    fn parse(flags: &Flags) -> Result<Self, String>;

    /// Execute, writing the human-readable report to `out`.
    fn run(&self, out: &mut dyn Write) -> Result<(), Failure>;

    /// Tokenize `args` against the declared flags, then [`Subcommand::parse`].
    fn from_args(args: &[String]) -> Result<Self, String> {
        let flags = Flags::tokenize(Self::NAME, Self::VALUES, Self::SWITCHES, args)?;
        Self::parse(&flags)
    }
}

/// Parse command-line arguments (without the program name).
pub fn parse(args: &[String]) -> Result<Command, String> {
    let Some((cmd, rest)) = args.split_first() else {
        return Ok(Command::Help);
    };
    match cmd.as_str() {
        "help" | "--help" | "-h" => Ok(Command::Help),
        "stats" => Subcommand::from_args(rest).map(Command::Stats),
        "classify" => Subcommand::from_args(rest).map(Command::Classify),
        "generate" => Subcommand::from_args(rest).map(Command::Generate),
        "store" => store::Args::from_args(rest).map(Command::Store),
        "partition" => Subcommand::from_args(rest).map(Command::Partition),
        "recommend" => Subcommand::from_args(rest).map(Command::Recommend),
        "run" => Subcommand::from_args(rest).map(Command::Run),
        "serve" => Subcommand::from_args(rest).map(Command::Serve),
        "fault" => Subcommand::from_args(rest).map(Command::Fault),
        "elastic" => Subcommand::from_args(rest).map(Command::Elastic),
        "trace" => Subcommand::from_args(rest).map(Command::Trace),
        "experiments" => Subcommand::from_args(rest).map(Command::Experiments),
        other => Err(format!("unknown command {other:?} (try `distgraph help`)")),
    }
}

/// `label: a, b, c.` with eight names to a line.
fn name_list(label: &str, names: &[&str]) -> String {
    let lines: Vec<String> = names.chunks(8).map(|line| line.join(", ")).collect();
    format!("{label}: {}.", lines.join(",\n"))
}

/// Usage text.
pub fn usage() -> String {
    // Table 1.1 order, which is the order the enum declares them in.
    let mut strategies = Strategy::ALL;
    strategies.sort_by_key(|&s| s as u8);
    let strategies: Vec<&str> = strategies.iter().map(|s| s.label()).collect();
    let strategies = name_list("Strategies", &strategies);
    let datasets: Vec<&str> = Dataset::ALL.iter().map(|d| d.spec().name).collect();
    let datasets = name_list("Datasets", &datasets);
    let clusters = name_list("Clusters", &flags::clusters().map(|(name, _)| name));
    format!(
        "distgraph — partitioning-strategy testbed (VLDB'17 reproduction)

USAGE:
  distgraph stats <graph.txt>
  distgraph classify <graph.txt>
  distgraph generate <dataset> [--scale S | --edges E] [--seed N] [-o out.txt]
  distgraph partition <graph.txt|store.gps> --strategy <name> [--parts N]
                      [--seed N] [--threads N] [-o parts.txt]
  distgraph store build powerlaw|<dataset> -o store.gps [--edges E]
                  [--vertices V] [--scale S] [--seed N]
  distgraph store info <store.gps>
  distgraph store verify <store.gps>
  distgraph recommend <graph.txt> [--system powergraph|powerlyra|graphx]
                      [--machines N] [--compute-ingress R] [--natural]
  distgraph run <graph.txt> --app pagerank|wcc|sssp --strategy <name>
                [--parts N] [--system ...] [--partition-file parts.txt]
                [--threads N]
  distgraph serve <graph.txt|store.gps> [--strategy hdrf] [--cluster local-9]
                  [--parts N] [--horizon S] [--sessions N] [--churn-scale F]
                  [--rebalance-threshold F] [--rf-threshold F] [--seed N]
                  [--threads N]
  distgraph fault <dataset> [--strategies random,hybrid] [--cluster ec2-16]
                  [--crash-at 10] [--machine 0] [--interval 4] [--async]
                  [--steps 20] [--loss-rate P]
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
                  [--loss-rate P] [--scale S] [--seed N] [--threads N]
                  [-o DIR]
  distgraph experiments <id...|all|list> [-s S] [--seed N] [--csv DIR]
                        [--svg DIR]

Graphs are plain-text edge lists (one `src dst` pair per line, # comments)
or compressed `.gps` stores (see `store build`); `partition` streams `.gps`
files off the memory mapping instead of materializing the edge list, so
graphs far larger than RAM partition with bounded peak RSS.
Size flags (`--edges`, `--vertices`) take decimal suffixes: 10K, 1.5M, 2G.
{strategies}
{datasets}
{clusters}

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

`--threads N` (0 = all cores) runs on up to N worker threads: the
stateless strategies' chunked edge assignment and the freeze of the
placements into an assignment, HDRF's and Oblivious's loader blocks, and
the sync engines' semantic pass. Pricing stays sequential. Every report,
assignment, and trace artifact is byte-identical at any thread count —
parallelism only changes speed.
"
    )
}

/// Execute a command, writing human-readable output to `out`. Returns the
/// process exit code.
pub fn execute<W: Write>(cmd: &Command, out: &mut W) -> std::io::Result<i32> {
    let done = match cmd {
        Command::Help => writeln!(out, "{}", usage()).map_err(Failure::from),
        Command::Stats(args) => args.run(out),
        Command::Classify(args) => args.run(out),
        Command::Generate(args) => args.run(out),
        Command::Store(args) => args.run(out),
        Command::Partition(args) => args.run(out),
        Command::Recommend(args) => args.run(out),
        Command::Run(args) => args.run(out),
        Command::Serve(args) => args.run(out),
        Command::Fault(args) => args.run(out),
        Command::Elastic(args) => args.run(out),
        Command::Trace(args) => args.run(out),
        Command::Experiments(args) => args.run(out),
    };
    match done.map_err(|failure| failure.downcast::<std::io::Error>()) {
        Ok(()) => Ok(0),
        Err(Ok(io)) => Err(*io),
        Err(Err(message)) => {
            writeln!(out, "error: {message}")?;
            Ok(2)
        }
    }
}

/// Load a text edge list into memory.
fn load_graph(path: &str) -> Result<EdgeList, String> {
    match read_edge_list(path) {
        Ok(loaded) => Ok(loaded.graph),
        Err(e) => Err(format!("cannot load {path}: {e}")),
    }
}

/// A graph to stream edges from: `.gps` stores stream straight off the
/// mapping; text edge lists load into memory. Both feed the same
/// `StreamingEdges` ingress and produce identical assignments for the same
/// edge sequence.
fn open_edges(path: &str) -> Result<Box<dyn StreamingEdges>, String> {
    if path.ends_with(".gps") {
        let store = GraphStore::open(path).map_err(|e| format!("cannot open {path}: {e}"))?;
        Ok(Box::new(store))
    } else {
        Ok(Box::new(load_graph(path)?))
    }
}

/// The scenarios a subcommand is about to run, or the first rule one of them
/// breaks ([`Scenario::check`]) — before anything is printed.
fn checked(jobs: impl IntoIterator<Item = Scenario>) -> Result<Vec<Scenario>, String> {
    let checked = jobs.into_iter().map(|job| job.check().map(|()| job));
    checked.collect()
}

/// The fault plan the `--loss-rate` / `--crash-at` flags describe: every
/// link flaky for `horizon` supersteps, plus one `(superstep, machine)`
/// crash.
fn fault_plan(
    loss_rate: f64,
    spec: &ClusterSpec,
    horizon: u32,
    crash: Option<(u32, u32)>,
) -> FaultPlan {
    let mut plan = FaultPlan::uniform_flaky(loss_rate, spec.machines, horizon);
    if let Some((superstep, machine)) = crash {
        plan.push(FaultEvent {
            superstep,
            machine,
            kind: FaultKind::Crash,
        });
    }
    plan
}

/// Comms protocols implied by `--loss-rate`: a lossy network needs reliable
/// delivery. (The CLI schedules no slowdowns, so speculation would never
/// launch a backup task.)
fn comms_config(loss_rate: f64) -> CommsConfig {
    if loss_rate > 0.0 {
        CommsConfig::reliable()
    } else {
        CommsConfig::disabled()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flags::parse_size;
    use gp_bench::App;
    use gp_core::units::{parse_scaled, SizeUnit};
    use gp_elastic::{ElasticEvent, ElasticKind, RepairPolicy};
    use gp_partition::{PartitionContext, System};

    fn parse_ok(args: &[&str]) -> Command {
        let v: Vec<String> = args.iter().map(|s| s.to_string()).collect();
        parse(&v).expect("parse")
    }

    fn run_to_string(cmd: &Command) -> (i32, String) {
        let mut buf = Vec::new();
        let code = execute(cmd, &mut buf).unwrap();
        (code, String::from_utf8(buf).unwrap())
    }

    fn parse_strs(args: &[&str]) -> Result<Command, String> {
        let v: Vec<String> = args.iter().map(|s| s.to_string()).collect();
        parse(&v)
    }

    /// A valid invocation of every subcommand, then what must break it: a
    /// typo of one of its flags (with the suggestion it should draw), a
    /// flag borrowed from another subcommand, and — where the subcommand
    /// has flags at all — one given twice.
    #[test]
    fn every_subcommand_refuses_flags_it_does_not_declare() {
        type Row<'a> = (
            &'a [&'a str],
            (&'a [&'a str], Option<&'a str>),
            &'a [&'a str],
            &'a [&'a str],
        );
        let table: &[Row] = &[
            (
                &["stats", "g.txt"],
                (&["--parts", "banana"], None),
                &["--natural"],
                &[],
            ),
            (
                &["classify", "g.txt"],
                (&["--sed", "1"], None),
                &["--seed", "1"],
                &[],
            ),
            (
                &["generate", "Twitter", "--seed", "3"],
                (&["--edgs", "10K"], Some("--edges")),
                &["--parts", "4"],
                &["--seed", "4"],
            ),
            (
                &["store", "build", "powerlaw", "-o", "s.gps"],
                (&["--vertice", "10K"], Some("--vertices")),
                &["--strategy", "hdrf"],
                &["--out", "t.gps"],
            ),
            (
                &["store", "info", "s.gps"],
                (&["--edges", "5"], None),
                &["--fair"],
                &[],
            ),
            (
                &["store", "verify", "s.gps"],
                (&["--sed", "5"], None),
                &["-o", "x"],
                &[],
            ),
            (
                &["partition", "g.txt", "--strategy", "hdrf"],
                (&["--part", "9"], Some("--parts")),
                &["--machines", "9"],
                &["--strategy", "grid"],
            ),
            (
                &["recommend", "g.txt", "--natural"],
                (&["--machine", "9"], Some("--machines")),
                &["--parts", "9"],
                &["--natural"],
            ),
            (
                &["run", "g.txt", "--app", "wcc", "--strategy", "grid"],
                (&["--partition-fil", "p.txt"], Some("--partition-file")),
                &["--cluster", "local-9"],
                &["--app", "sssp"],
            ),
            (
                &["serve", "g.txt", "--horizon", "30"],
                (&["--session", "2"], Some("--sessions")),
                &["--fair"],
                &["--horizon", "40"],
            ),
            (
                &["fault", "uk-web", "--async"],
                (&["--stratgies", "random"], Some("--strategies")),
                &["--fair"],
                &["--async"],
            ),
            (
                &["elastic", "Twitter", "--tenants", "2"],
                (&["--scaleout", "2:9"], Some("--scale-out")),
                &["--loss-rate", "0.1"],
                &["--tenants", "3"],
            ),
            (
                &["trace", "LiveJournal", "-o", "dir"],
                (&["--intervall", "4"], Some("--interval")),
                &["--steps", "5"],
                &["--out", "elsewhere"],
            ),
            (
                &["experiments", "table4-1", "--seed", "3"],
                (&["--csvv", "dir"], Some("--csv")),
                &["--threads", "2"],
                &["--seed", "4"],
            ),
        ];
        for (valid, (typo, hint), foreign, repeat) in table {
            let command = match valid[0] {
                "store" => valid[..2].join(" "),
                word => word.to_string(),
            };
            assert!(parse_strs(valid).is_ok(), "{valid:?}");
            let err = parse_strs(&[*valid, *typo].concat()).unwrap_err();
            let named = format!("unknown flag {} for `{command}`", typo[0]);
            assert!(err.contains(&named), "{valid:?} + {typo:?}: {err}");
            match hint {
                Some(hint) => assert!(err.contains(&format!("(did you mean {hint}?)")), "{err}"),
                None => assert!(!err.contains("did you mean"), "{err}"),
            }
            let err = parse_strs(&[*valid, *foreign].concat()).unwrap_err();
            assert!(
                err.contains("unknown flag"),
                "{valid:?} + {foreign:?}: {err}"
            );
            if !repeat.is_empty() {
                let err = parse_strs(&[*valid, *repeat].concat()).unwrap_err();
                assert!(err.contains("given twice"), "{valid:?} + {repeat:?}: {err}");
            }
        }
    }

    #[test]
    fn short_flags_are_their_long_forms() {
        assert_eq!(
            parse_strs(&["generate", "Twitter", "-s", "0.5", "-o", "t.txt"]),
            parse_strs(&["generate", "Twitter", "--scale", "0.5", "--out", "t.txt"]),
        );
        let err = parse_strs(&["generate", "Twitter", "-o", "a", "--out", "b"]).unwrap_err();
        assert!(err.contains("--out given twice"), "{err}");
        let err = parse_strs(&["generate", "Twitter", "--seed"]).unwrap_err();
        assert!(err.contains("--seed needs a value"), "{err}");
    }

    #[test]
    fn experiments_check_ids_and_expand_all_in_parse() {
        let Command::Experiments(all) = parse_ok(&["experiments", "all", "-s", "0.5"]) else {
            panic!("experiments parses to Command::Experiments");
        };
        let registered: Vec<&str> = gp_bench::experiments::registry()
            .iter()
            .map(|e| e.id)
            .collect();
        assert_eq!((all.ids, all.list, all.scale), (registered, false, 0.5));
        let Command::Experiments(two) = parse_ok(&["experiments", "fig5-3", "table4-1"]) else {
            panic!("experiments parses to Command::Experiments");
        };
        assert_eq!(two.ids, ["fig5-3", "table4-1"]);
        assert_eq!((two.scale, two.seed, two.csv_dir), (1.0, 42, None));
        let Command::Experiments(list) = parse_ok(&["experiments", "list"]) else {
            panic!("experiments parses to Command::Experiments");
        };
        assert!(list.list && list.ids.is_empty());
        let err = parse_strs(&["experiments", "-s", "0.1"]).unwrap_err();
        assert!(err.contains("missing experiment ids"), "{err}");
        let err = parse_strs(&["experiments", "all", "fig5-33"]).unwrap_err();
        assert!(err.contains("unknown experiment \"fig5-33\""), "{err}");
    }

    /// Events that could never fire are refused by `Scenario::check`, not
    /// printed as a plan over a run they did not touch.
    #[test]
    fn scenario_commands_refuse_events_that_cannot_fire() {
        for (args, rule) in [
            (
                &["fault", "LiveJournal", "--crash-at", "30", "--steps", "5"][..],
                "superstep 30 never fires: PageRank(5)",
            ),
            (
                &[
                    "fault",
                    "LiveJournal",
                    "--steps",
                    "10050",
                    "--crash-at",
                    "10040",
                    "--strategies",
                    "random",
                ],
                "PageRank(10050) runs past the engines' ceiling of 10000 supersteps",
            ),
            (
                &[
                    "elastic",
                    "LiveJournal",
                    "--steps",
                    "10001",
                    "--scale-out",
                    "3:2",
                ],
                "PageRank(10001) runs past the engines' ceiling",
            ),
            (
                &[
                    "trace",
                    "LiveJournal",
                    "--app",
                    "wcc",
                    "--crash-at",
                    "10001",
                ],
                "superstep 10001 never fires: the engines stop after superstep 9999",
            ),
            (
                &[
                    "fault",
                    "LiveJournal",
                    "--cluster",
                    "local-9",
                    "--machine",
                    "9",
                ],
                "machine 9 out of range: Local-9 has 9 machines",
            ),
            (
                &["fault", "LiveJournal", "--strategies", "pds"],
                "PDS cannot run on 16 partitions",
            ),
            (
                &["elastic", "LiveJournal", "--scale-out", "3:0"],
                "at least one machine",
            ),
            (
                &["elastic", "LiveJournal", "--preempt", "2:0:5"],
                "warning of 5 supersteps cannot precede a departure at superstep 2",
            ),
            (
                &["elastic", "LiveJournal", "--drain", "2:9:1"],
                "machine 9 out of range",
            ),
            (
                &["elastic", "LiveJournal", "--scale-out", "25:2"],
                "superstep 25 never fires: PageRank(20)",
            ),
            (
                &["trace", "LiveJournal", "--crash-at", "3", "--machine", "16"],
                "machine 16 out of range: EC2-16 has 16 machines",
            ),
            (
                &[
                    "trace",
                    "LiveJournal",
                    "--strategy",
                    "pds",
                    "--system",
                    "graphx",
                ],
                "PDS cannot run on 256 partitions",
            ),
        ] {
            let cmd = parse_strs(&[args, &["--scale", "0.02"]].concat()).expect("parses");
            let (code, text) = run_to_string(&cmd);
            assert_eq!(code, 2, "{args:?}: {text}");
            assert!(text.starts_with("error: "), "nothing printed first: {text}");
            assert!(text.contains(rule), "{args:?} should name {rule:?}: {text}");
        }
    }

    #[test]
    fn unknown_names_list_the_valid_ones() {
        let err = parse_strs(&["partition", "g.txt", "--strategy", "nope"]).unwrap_err();
        assert!(
            err.contains("\"nope\"") && err.contains("H-Ginger"),
            "{err}"
        );
        let err = parse_strs(&["fault", "Twitter", "--strategies", "grid,nope"]).unwrap_err();
        assert!(
            err.contains("1D-Target") && err.contains("asymmetric-random"),
            "{err}"
        );
        let err = parse_strs(&["fault", "Twitter", "--cluster", "ec2-99"]).unwrap_err();
        assert!(err.contains("(local-9|local-10|ec2-16|ec2-25)"), "{err}");
        assert_eq!(
            parse_strs(&["fault", "Twitter", "--cluster", "EC216"]).ok(),
            parse_strs(&["fault", "Twitter", "--cluster", "ec2-16"]).ok()
        );
    }

    #[test]
    fn usage_lists_are_rendered_from_the_catalogs() {
        let text = usage();
        assert!(text.contains(
            "Strategies: Random, Assym-Rand, Grid, PDS, Oblivious, HDRF, 1D, 1D-Target,\n\
             2D, Hybrid, H-Ginger.\n"
        ));
        assert!(text.contains(
            "Datasets: road-net-CA, road-net-USA, LiveJournal, Enwiki-2013, Twitter, UK-web.\n"
        ));
        assert!(text.contains("Clusters: local-9, local-10, ec2-16, ec2-25.\n"));
        for strategy in Strategy::ALL {
            assert!(text.contains(strategy.label()), "{strategy}");
        }
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
            Command::Stats(stats::Args {
                path: "g.txt".into()
            })
        );
        assert_eq!(
            parse_ok(&["classify", "g.txt"]),
            Command::Classify(classify::Args {
                path: "g.txt".into()
            })
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
            Command::Partition(partition::Args {
                path: "g.txt".into(),
                strategy: Strategy::Hdrf,
                parts: 16,
                seed: 7,
                threads: 3,
                out: Some("p.txt".into()),
            })
        );
    }

    #[test]
    fn parse_serve_defaults_and_flags() {
        // Defaults: HDRF on local-9, parts = cluster machines.
        assert_eq!(
            parse_ok(&["serve", "g.txt"]),
            Command::Serve(serve::Args {
                path: "g.txt".into(),
                strategy: Strategy::Hdrf,
                parts: 9,
                seed: 42,
                cluster: ClusterSpec::local_9(),
                horizon_s: 60.0,
                sessions: 4,
                churn_scale: 1.0,
                rebalance_threshold: 1.5,
                rf_threshold: 1.25,
                threads: 1,
            })
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
            Command::Serve(serve::Args {
                path: "g.gps".into(),
                strategy: Strategy::Random,
                parts: 16,
                seed: 7,
                cluster: ClusterSpec::ec2_16(),
                horizon_s: 30.0,
                sessions: 2,
                churn_scale: 4.0,
                rebalance_threshold: 1.2,
                rf_threshold: 1.1,
                threads: 3,
            })
        );
    }

    #[test]
    fn parse_serve_rejects_bad_thresholds() {
        assert!(parse_strs(&["serve", "g.txt", "--horizon", "0"]).is_err());
        assert!(parse_strs(&["serve", "g.txt", "--rebalance-threshold", "1.0"]).is_err());
        assert!(parse_strs(&["serve", "g.txt", "--rf-threshold", "0.9"]).is_err());
        assert!(parse_strs(&["serve", "g.txt", "--churn-scale", "-1"]).is_err());
    }

    #[test]
    fn serve_runs_and_reports_deterministically() {
        let path = temp_graph_named("serve-basic");
        let mk = |threads: u32| {
            Command::Serve(serve::Args {
                path: path.clone(),
                strategy: Strategy::Random,
                parts: 9,
                seed: 7,
                cluster: ClusterSpec::local_9(),
                horizon_s: 3.0,
                sessions: 2,
                churn_scale: 1.0,
                rebalance_threshold: 1.5,
                rf_threshold: 1.25,
                threads,
            })
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
            Command::Recommend(recommend::Args {
                path: "g.txt".into(),
                system: System::PowerLyra,
                machines: 25,
                compute_ingress: 2.5,
                natural: true,
            })
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
        let (code, text) = run_to_string(&Command::Stats(stats::Args { path: path.clone() }));
        assert_eq!(code, 0);
        assert!(text.contains("|V|=5000"), "{text}");
        let (code, text) = run_to_string(&Command::Classify(classify::Args { path }));
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
        let (code, text) = run_to_string(&Command::Partition(partition::Args {
            path: path.clone(),
            strategy: Strategy::Grid,
            parts: 9,
            seed: 1,
            threads: 2,
            out: Some(pfile.clone()),
        }));
        assert_eq!(code, 0, "{text}");
        assert!(text.contains("replication factor"));
        let (code, text) = run_to_string(&Command::Run(run::Args {
            path,
            app: App::Wcc,
            strategy: Strategy::Random, // ignored: partition file wins
            parts: 9,
            seed: 1,
            system: System::PowerGraph,
            partition_file: Some(pfile),
            threads: 1,
        }));
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
        let (code, text) = run_to_string(&Command::Partition(partition::Args {
            path: path.clone(),
            strategy: Strategy::Grid,
            parts: 16,
            seed: 1,
            threads: 1,
            out: Some(pfile.clone()),
        }));
        assert_eq!(code, 0, "{text}");
        // The header used to size a per-partition table: 4e9 × 8 bytes.
        let saved = std::fs::read_to_string(&pfile).unwrap();
        let hostile = saved.replacen("partitions 16", "partitions 4000000000", 1);
        std::fs::write(&pfile, hostile).unwrap();
        let (code, text) = run_to_string(&Command::Run(run::Args {
            path,
            app: App::PageRankConv,
            strategy: Strategy::Grid,
            parts: 16,
            seed: 1,
            system: System::PowerGraph,
            partition_file: Some(pfile.clone()),
            threads: 1,
        }));
        // `fail`'s code, like every other load error; not an abort.
        assert_eq!(code, 2, "{text}");
        assert!(text.contains(&format!("cannot load {pfile}")), "{text}");
        assert!(text.contains("4000000000"), "{text}");
    }

    #[test]
    fn run_works_on_all_three_systems() {
        let path = temp_graph_named("run");
        for system in [System::PowerGraph, System::PowerLyra, System::GraphX] {
            let (code, text) = run_to_string(&Command::Run(run::Args {
                path: path.clone(),
                app: App::PageRankConv,
                strategy: Strategy::Hybrid,
                parts: 9,
                seed: 1,
                system,
                partition_file: None,
                threads: 2, // exercise the parallel engine path
            }));
            assert_eq!(code, 0, "{system:?}: {text}");
            assert!(text.contains("PageRank"), "{system:?}: {text}");
        }
    }

    #[test]
    fn generate_writes_a_loadable_file() {
        let dir = std::env::temp_dir().join("distgraph-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let dest = dir.join("gen.txt").to_string_lossy().to_string();
        let (code, text) = run_to_string(&Command::Generate(generate::Args {
            dataset: Dataset::RoadNetCa,
            scale: 0.05,
            edges: None,
            seed: 3,
            out: Some(dest.clone()),
        }));
        assert_eq!(code, 0, "{text}");
        let loaded = read_edge_list(&dest).unwrap();
        assert!(loaded.graph.num_edges() > 100);
    }

    #[test]
    fn recommend_reports_a_path() {
        let path = temp_graph_named("recommend");
        let (code, text) = run_to_string(&Command::Recommend(recommend::Args {
            path,
            system: System::PowerGraph,
            machines: 25,
            compute_ingress: 0.5,
            natural: false,
        }));
        assert_eq!(code, 0);
        assert!(text.contains("recommended: Grid"), "{text}");
        assert!(text.contains("decision path"));
    }

    #[test]
    fn parse_fault_defaults_and_flags() {
        let cmd = parse_ok(&["fault", "LiveJournal"]);
        assert_eq!(
            cmd,
            Command::Fault(fault::Args {
                dataset: Dataset::LiveJournal,
                scale: 1.0,
                seed: 42,
                cluster: ClusterSpec::ec2_16(),
                crash_at: 10,
                machine: 0,
                interval: 4,
                asynchronous: false,
                steps: 20,
                strategies: vec![Strategy::Random, Strategy::Hybrid],
                loss_rate: 0.0,
                threads: 1,
            })
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
            "--threads",
            "4",
        ]);
        assert_eq!(
            cmd,
            Command::Fault(fault::Args {
                dataset: Dataset::Twitter,
                scale: 0.2,
                seed: 7,
                cluster: ClusterSpec::local_9(),
                crash_at: 5,
                machine: 3,
                interval: 2,
                asynchronous: true,
                steps: 8,
                strategies: vec![Strategy::Grid, Strategy::Hdrf, Strategy::Oblivious],
                loss_rate: 0.05,
                threads: 4,
            })
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

    fn scale_out(superstep: u32, machines_added: u32) -> ElasticEvent {
        let kind = ElasticKind::ScaleOut { machines_added };
        ElasticEvent { superstep, kind }
    }

    fn preempt(superstep: u32, machine: u32, warning_steps: u32) -> ElasticEvent {
        let kind = ElasticKind::Preempt {
            machine,
            warning_steps,
        };
        ElasticEvent { superstep, kind }
    }

    fn drain(superstep: u32, machine: u32, warning_steps: u32) -> ElasticEvent {
        let kind = ElasticKind::Drain {
            machine,
            warning_steps,
        };
        ElasticEvent { superstep, kind }
    }

    #[test]
    fn parse_elastic_defaults_and_flags() {
        let cmd = parse_ok(&["elastic", "LiveJournal", "--tenants", "2"]);
        assert_eq!(
            cmd,
            Command::Elastic(elastic::Args {
                dataset: Dataset::LiveJournal,
                scale: 1.0,
                seed: 42,
                cluster: ClusterSpec::local_9(),
                strategies: vec![Strategy::Random, Strategy::Grid, Strategy::Hdrf],
                events: vec![],
                policy: RepairPolicy::default(),
                steps: 20,
                interval: 4,
                tenants: 2,
                fair: false,
                threads: 1,
            })
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
            Command::Elastic(elastic::Args {
                dataset: Dataset::RoadNetCa,
                scale: 0.1,
                seed: 7,
                cluster: ClusterSpec::local_9(),
                strategies: vec![Strategy::Random, Strategy::Hybrid],
                events: vec![scale_out(2, 9), preempt(5, 2, 4), drain(7, 1, 3)],
                policy: RepairPolicy::AlwaysRepartition,
                steps: 12,
                interval: 3,
                tenants: 3,
                fair: true,
                threads: 2,
            })
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
        let cmd = Command::Elastic(elastic::Args {
            dataset: Dataset::LiveJournal,
            scale: 0.02,
            seed: 11,
            cluster: ClusterSpec::local_9(),
            strategies: vec![Strategy::Random, Strategy::Grid],
            events: vec![scale_out(2, 9), preempt(5, 2, 4)],
            policy: RepairPolicy::default(),
            steps: 12,
            interval: 4,
            tenants: 2,
            fair: true,
            threads: 1,
        });
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
        let (code, text) = run_to_string(&Command::Elastic(elastic::Args {
            dataset: Dataset::LiveJournal,
            scale: 0.02,
            seed: 11,
            cluster: ClusterSpec::local_9(),
            strategies: vec![Strategy::Random],
            events: vec![],
            policy: RepairPolicy::default(),
            steps: 12,
            interval: 4,
            tenants: 1,
            fair: false,
            threads: 1,
        }));
        assert_eq!(code, 2);
        assert!(text.contains("nothing to simulate"), "{text}");
    }

    #[test]
    fn fault_command_orders_recovery_by_replication_factor() {
        let (code, text) = run_to_string(&Command::Fault(fault::Args {
            dataset: Dataset::LiveJournal,
            scale: 0.02,
            seed: 11,
            cluster: ClusterSpec::local_9(),
            crash_at: 3,
            machine: 2,
            interval: 2,
            asynchronous: false,
            steps: 8,
            strategies: vec![Strategy::Random, Strategy::Hybrid],
            loss_rate: 0.0,
            threads: 1,
        }));
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
            Command::Trace(trace::Args {
                dataset: Dataset::LiveJournal,
                scale: 1.0,
                seed: 42,
                strategy: Strategy::Hdrf,
                app: App::PageRankConv,
                system: System::PowerGraph,
                cluster: ClusterSpec::ec2_16(),
                crash: None,
                interval: 0,
                loss_rate: 0.0,
                threads: 1,
                out_dir: "trace-out".into(),
            })
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
            "--threads",
            "0",
            "-o",
            "artifacts",
        ]);
        assert_eq!(
            cmd,
            Command::Trace(trace::Args {
                dataset: Dataset::RoadNetCa,
                scale: 0.1,
                seed: 7,
                strategy: Strategy::Grid,
                app: App::kcore_paper(),
                system: System::PowerLyra,
                cluster: ClusterSpec::local_9(),
                crash: Some((5, 2)),
                interval: 3,
                loss_rate: 0.02,
                threads: 0,
                out_dir: "artifacts".into(),
            })
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
        let (code, text) = run_to_string(&Command::Trace(trace::Args {
            dataset: Dataset::LiveJournal,
            scale: 0.05,
            seed: 7,
            strategy: Strategy::Hdrf,
            app: App::PageRankFixed(5),
            system: System::PowerGraph,
            cluster: ClusterSpec::local_9(),
            crash: None,
            interval: 2,
            loss_rate: 0.0,
            threads: 1,
            out_dir: dir.to_string_lossy().to_string(),
        }));
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
        let (code, text) = run_to_string(&Command::Fault(fault::Args {
            dataset: Dataset::LiveJournal,
            scale: 0.02,
            seed: 11,
            cluster: ClusterSpec::local_9(),
            crash_at: 3,
            machine: 2,
            interval: 2,
            asynchronous: false,
            steps: 8,
            strategies: vec![Strategy::Random],
            loss_rate: 0.1,
            threads: 1,
        }));
        assert_eq!(code, 0, "{text}");
        assert!(text.contains("Retransmit"), "{text}");
        let row = text.lines().find(|l| l.contains("Random")).unwrap();
        // The retransmit column must be a real, nonzero byte count.
        let bytes_text = row
            .split_whitespace()
            .rev()
            .take(2)
            .collect::<Vec<_>>()
            .into_iter()
            .rev()
            .collect::<Vec<_>>()
            .join(" ");
        let bytes = parse_scaled(&bytes_text, SizeUnit::Binary).unwrap();
        assert!(bytes > 0.0, "{text}");
    }

    #[test]
    fn trace_with_loss_rate_records_retry_spans() {
        let dir = std::env::temp_dir()
            .join("distgraph-cli-test")
            .join("trace-netloss");
        let (code, text) = run_to_string(&Command::Trace(trace::Args {
            dataset: Dataset::LiveJournal,
            scale: 0.05,
            seed: 7,
            strategy: Strategy::Hdrf,
            app: App::PageRankFixed(5),
            system: System::PowerGraph,
            cluster: ClusterSpec::local_9(),
            crash: None,
            interval: 0,
            loss_rate: 0.1,
            threads: 1,
            out_dir: dir.to_string_lossy().to_string(),
        }));
        assert_eq!(code, 0, "{text}");
        let trace = std::fs::read_to_string(dir.join("trace.json")).unwrap();
        assert!(trace.contains("\"retry\""), "trace covers retry windows");
        let csv = std::fs::read_to_string(dir.join("metrics.csv")).unwrap();
        assert!(csv.contains("net.retransmit_bytes"), "{csv}");
        assert!(csv.contains("net.flaky_windows"), "{csv}");
    }

    #[test]
    fn fault_command_rejects_machine_out_of_range() {
        let (code, text) = run_to_string(&Command::Fault(fault::Args {
            dataset: Dataset::LiveJournal,
            scale: 0.02,
            seed: 1,
            cluster: ClusterSpec::local_9(),
            crash_at: 1,
            machine: 9,
            interval: 0,
            asynchronous: false,
            steps: 2,
            strategies: vec![Strategy::Random],
            loss_rate: 0.0,
            threads: 1,
        }));
        assert_eq!(code, 2);
        assert!(text.contains("out of range"), "{text}");
    }

    #[test]
    fn errors_use_exit_code_two() {
        let (code, text) = run_to_string(&Command::Classify(classify::Args {
            path: "/nonexistent/graph.txt".into(),
        }));
        assert_eq!(code, 2);
        assert!(text.contains("error:"));
    }

    #[test]
    fn pds_partition_count_is_validated() {
        let path = temp_graph_named("classify");
        let (code, text) = run_to_string(&Command::Partition(partition::Args {
            path,
            strategy: Strategy::Pds,
            parts: 9,
            seed: 1,
            threads: 1,
            out: None,
        }));
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
        assert_eq!(parse_scaled("10K", SizeUnit::Binary), Ok(10_240.0));
        // Byte-flavoured suffixes are a unit error for counts.
        assert!(parse_size("10KiB").is_err());
        assert!(parse_size("10MB").is_err());
        // The cluster's byte exports round-trip through the shared helper.
        let text = gp_cluster::table::fmt_bytes(1_500_000.0);
        let bytes = parse_scaled(&text, SizeUnit::Binary).unwrap();
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
            Command::Generate(generate::Args {
                dataset: Dataset::LiveJournal,
                scale: 1.0,
                edges: Some(10_000),
                seed: 5,
                out: None,
            })
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
            Command::Store(store::Args::Build {
                source: store::StoreSource::PowerLaw,
                out: "s.gps".into(),
                scale: 1.0,
                edges: Some(1_000_000),
                vertices: Some(50_000),
                seed: 9,
            })
        );
        let cmd = parse_ok(&["store", "build", "road-net-CA", "-o", "ca.gps"]);
        assert_eq!(
            cmd,
            Command::Store(store::Args::Build {
                source: store::StoreSource::Dataset(Dataset::RoadNetCa),
                out: "ca.gps".into(),
                scale: 1.0,
                edges: None,
                vertices: None,
                seed: 42,
            })
        );
        assert_eq!(
            parse_ok(&["store", "info", "s.gps"]),
            Command::Store(store::Args::Info {
                path: "s.gps".into()
            })
        );
        assert_eq!(
            parse_ok(&["store", "verify", "s.gps"]),
            Command::Store(store::Args::Verify {
                path: "s.gps".into()
            })
        );
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
        let (code, text) = run_to_string(&Command::Store(store::Args::Build {
            source: store::StoreSource::PowerLaw,
            out: path.clone(),
            scale: 1.0,
            edges: Some(20_000),
            vertices: Some(2_000),
            seed: 7,
        }));
        assert_eq!(code, 0, "{text}");
        assert!(text.contains("20000 edges"), "{text}");

        let (code, text) = run_to_string(&Command::Store(store::Args::Info { path: path.clone() }));
        assert_eq!(code, 0, "{text}");
        assert!(text.contains("bytes/edge"), "{text}");

        let (code, text) =
            run_to_string(&Command::Store(store::Args::Verify { path: path.clone() }));
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
        let (code, text) = run_to_string(&Command::Store(store::Args::Verify { path: broken }));
        assert_eq!(code, 2, "{text}");
        assert!(text.contains("corrupt"), "{text}");
    }

    #[test]
    fn gps_partition_matches_in_memory() {
        let dir = std::env::temp_dir().join("distgraph-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let gps = dir.join("stream-eq.gps").to_string_lossy().to_string();
        let (code, text) = run_to_string(&Command::Store(store::Args::Build {
            source: store::StoreSource::Dataset(Dataset::LiveJournal),
            out: gps.clone(),
            scale: 0.05,
            edges: None,
            vertices: None,
            seed: 11,
        }));
        assert_eq!(code, 0, "{text}");

        // CLI partition of the .gps store, assignment saved to disk.
        let streamed_out = dir
            .join("stream-eq-parts.txt")
            .to_string_lossy()
            .to_string();
        let (code, text) = run_to_string(&Command::Partition(partition::Args {
            path: gps.clone(),
            strategy: Strategy::Hdrf,
            parts: 8,
            seed: 3,
            threads: 2,
            out: Some(streamed_out.clone()),
        }));
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
