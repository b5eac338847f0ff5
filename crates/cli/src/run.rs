//! `distgraph run <graph.txt>` — partition, then run an application on a
//! simulated engine.

use crate::{load_graph, Failure, Flags, Subcommand};
use gp_bench::{App, Deployment, EngineKind};
use gp_cluster::table::fmt_bytes;
use gp_cluster::ClusterSpec;
use gp_core::VertexId;
use gp_engine::EngineConfig;
use gp_partition::{PartitionContext, Strategy, System};
use std::io::Write;

/// Arguments of `run`.
#[derive(Debug, Clone, PartialEq)]
pub struct Args {
    pub path: String,
    /// SSSP starts from vertex 0.
    pub app: App,
    pub strategy: Strategy,
    pub parts: u32,
    pub seed: u64,
    /// GraphX runs on Local-10, the GAS systems on Local-9.
    pub system: System,
    pub partition_file: Option<String>,
    /// Worker threads for ingress and the engine's semantic pass (0 = all
    /// cores). Reports are byte-identical at any value.
    pub threads: u32,
}

impl Subcommand for Args {
    const NAME: &'static str = "run";
    const VALUES: &'static str = "app strategy parts seed system partition-file threads";

    fn parse(flags: &Flags) -> Result<Self, String> {
        Ok(Args {
            path: flags.path()?,
            app: flags.parsed("app")?.ok_or("missing --app")?,
            strategy: flags.strategy_or(None)?,
            parts: flags.count_or("parts", 9)?,
            seed: flags.seed()?,
            system: flags.parsed("system")?.unwrap_or(System::PowerGraph),
            partition_file: flags.value("partition-file").map(str::to_string),
            threads: flags.threads()?,
        })
    }

    fn run(&self, out: &mut dyn Write) -> Result<(), Failure> {
        let graph = load_graph(&self.path)?;
        let assignment = if let Some(pf) = &self.partition_file {
            gp_partition::load_assignment(&graph, pf)
                .map_err(|e| format!("cannot load {pf}: {e}"))?
        } else {
            let ctx = PartitionContext::new(self.parts)
                .with_seed(self.seed)
                .with_threads(self.threads);
            self.strategy.build().partition(&graph, &ctx).assignment
        };
        let spec = match self.system {
            System::GraphX => ClusterSpec::local_10(),
            _ => ClusterSpec::local_9(),
        };
        let deployment = Deployment {
            engine: EngineKind::from(self.system),
            config: EngineConfig::new(spec.clone()).with_threads(self.threads),
            graph: &graph,
            assignment: &assignment,
        };
        let reports = deployment
            .run_app(self.app, VertexId(0), &mut Vec::new())
            .map_err(|_| "job ran out of memory on the simulated cluster")?;
        let first = reports.first().ok_or("the application ran no program")?;
        writeln!(
            out,
            "{} on {} ({}): {} supersteps, {:.1} simulated seconds, {} of traffic",
            first.program,
            first.engine,
            spec.name,
            reports.iter().map(|r| r.supersteps()).sum::<u32>(),
            reports.iter().map(|r| r.wall_clock_seconds()).sum::<f64>(),
            fmt_bytes(reports.iter().map(|r| r.total_in_bytes()).sum())
        )?;
        Ok(())
    }
}
