//! `distgraph trace <dataset>` — run one job with telemetry recording and
//! write Chrome trace-event JSON plus metrics artifacts.

use crate::{comms_config, fault_plan, Failure, Flags, Subcommand};
use gp_bench::{App, EngineKind, Pipeline, Scenario};
use gp_cluster::ClusterSpec;
use gp_fault::CheckpointPolicy;
use gp_gen::Dataset;
use gp_partition::{Strategy, System};
use gp_telemetry::TelemetrySink;
use std::io::Write;

/// Arguments of `trace`.
#[derive(Debug, Clone, PartialEq)]
pub struct Args {
    pub dataset: Dataset,
    pub scale: f64,
    pub seed: u64,
    pub strategy: Strategy,
    pub app: App,
    pub system: System,
    pub cluster: ClusterSpec,
    /// `(superstep, machine)` of an injected crash, if any.
    pub crash: Option<(u32, u32)>,
    /// Checkpoint interval in supersteps (0 = off).
    pub interval: u32,
    /// Uniform per-link packet-loss rate (0 = clean network).
    pub loss_rate: f64,
    /// Worker threads (0 = all cores); artifacts byte-identical at every
    /// count.
    pub threads: u32,
    pub out_dir: String,
}

impl Subcommand for Args {
    const NAME: &'static str = "trace";
    const VALUES: &'static str = "strategy app system cluster interval crash-at machine \
                                  loss-rate scale seed threads out";

    fn parse(f: &Flags) -> Result<Self, String> {
        let crash = match (f.value("crash-at"), f.value("machine")) {
            (Some(_), _) => Some((f.count_or("crash-at", 10)?, f.number("machine", 0)?)),
            (None, Some(_)) => {
                return Err(
                    "--machine without --crash-at injects no crash; give --crash-at N too".into(),
                )
            }
            (None, None) => None,
        };
        Ok(Args {
            dataset: f.dataset()?,
            scale: f.scale()?,
            seed: f.seed()?,
            strategy: f.strategy_or(Some(Strategy::Hdrf))?,
            app: f.parsed("app")?.unwrap_or(App::PageRankConv),
            system: f.parsed("system")?.unwrap_or(System::PowerGraph),
            cluster: f.cluster_or("ec2-16")?,
            crash,
            interval: f.number("interval", 0)?,
            loss_rate: f.loss_rate()?,
            threads: f.threads()?,
            out_dir: f.value("out").unwrap_or("trace-out").to_string(),
        })
    }

    fn run(&self, out: &mut dyn Write) -> Result<(), Failure> {
        let spec = &self.cluster;
        let engine = EngineKind::from(self.system);
        // Flaky windows cover the whole job; a trace has no superstep
        // bound up front, so use a horizon past any simulated run.
        let plan = fault_plan(self.loss_rate, spec, 100_000, self.crash);
        // Interval 0 is the disabled checkpoint policy.
        let job = Scenario::new(self.dataset, self.strategy, spec, engine, self.app)
            .with_faults(plan, CheckpointPolicy::every(self.interval))
            .with_comms(comms_config(self.loss_rate));
        job.check()?;
        let sink = TelemetrySink::recording();
        let mut pipeline = Pipeline::new(self.scale, self.seed)
            .with_telemetry(sink.clone())
            .with_threads(self.threads);
        let result = pipeline.run(&job);
        if result.failed {
            return Err("job ran out of memory on the simulated cluster".into());
        }
        // A crash always replays at least the step it hit, so none replayed
        // means the job converged before the crash's superstep.
        if let (Some((superstep, _)), 0) = (self.crash, result.supersteps_replayed) {
            return Err(format!(
                "the crash at superstep {superstep} never fired: the job ended after {} supersteps",
                result.supersteps
            )
            .into());
        }
        let dir = std::path::Path::new(&self.out_dir);
        std::fs::create_dir_all(dir)?;
        std::fs::write(dir.join("trace.json"), sink.chrome_trace_json())?;
        std::fs::write(dir.join("metrics.csv"), sink.metrics_csv())?;
        std::fs::write(dir.join("summary.txt"), sink.summary())?;
        writeln!(
            out,
            "{} × {} on {} ({}): ingress {:.1}s + compute {:.1}s, {} supersteps",
            self.strategy.label(),
            result.app,
            self.dataset,
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
        Ok(())
    }
}
