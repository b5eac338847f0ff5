//! `distgraph partition <graph>` — partition, report quality, optionally
//! save the assignment.

use crate::{open_edges, Failure, Flags, Subcommand};
use gp_cluster::table::fmt_bytes;
use gp_cluster::Table;
use gp_partition::{IngressReport, PartitionContext, Strategy};
use std::io::Write;

/// Arguments of `partition`.
#[derive(Debug, Clone, PartialEq)]
pub struct Args {
    pub path: String,
    pub strategy: Strategy,
    pub parts: u32,
    pub seed: u64,
    /// Ingress worker threads (0 = all cores). Output is byte-identical
    /// at any value.
    pub threads: u32,
    /// Speculative ingress window for HDRF and Oblivious (0/1 = the
    /// kernel one edge at a time; >= 2 = the same kernel a window at a
    /// time, quality-parity rather than byte-identity with window 0,
    /// still byte-identical across thread counts;
    /// `gp_partition::WINDOW_AUTO`, CLI "auto" = adaptive controller).
    /// Every other strategy refuses a window of 2 or more.
    pub window: u32,
    pub out: Option<String>,
}

impl Subcommand for Args {
    const NAME: &'static str = "partition";
    const VALUES: &'static str = "strategy parts seed threads window out";

    fn parse(flags: &Flags) -> Result<Self, String> {
        let args = Args {
            path: flags.path()?,
            strategy: flags.strategy_or(None)?,
            parts: flags.count_or("parts", 9)?,
            seed: flags.seed()?,
            threads: flags.threads()?,
            window: flags.window()?,
            out: flags.value("out").map(str::to_string),
        };
        args.strategy.check_window(args.window)?;
        Ok(args)
    }

    fn run(&self, out: &mut dyn Write) -> Result<(), Failure> {
        let (strategy, parts) = (self.strategy, self.parts);
        let graph = &*open_edges(&self.path)?;
        strategy.check_partition_count(parts)?;
        let ctx = PartitionContext::new(parts)
            .with_seed(self.seed)
            .with_threads(self.threads)
            .with_window(self.window);
        let outcome = strategy.build().partition(graph, &ctx);
        let report = IngressReport::from_outcome(strategy.label(), &outcome, parts);
        let mut t = Table::new(
            format!("{} over {parts} partitions", strategy.label()),
            &["metric", "value"],
        );
        let mut row = |metric: &str, value: String| {
            t.row(vec![metric.into(), value]);
        };
        row(
            "replication factor",
            format!("{:.3}", report.replication_factor),
        );
        row(
            "edge imbalance (max/mean)",
            format!("{:.3}", report.edge_imbalance),
        );
        row(
            "mirrors created",
            report.volumes.mirrors_created.to_string(),
        );
        row("ingress passes", report.passes.to_string());
        if graph.source_kind() != "memory" {
            let stored = fmt_bytes(graph.storage_bytes().unwrap_or(0) as f64);
            row("source", format!("{} ({stored})", graph.source_kind()));
            if let Some(rss) = gp_telemetry::peak_rss_bytes() {
                row("peak RSS", fmt_bytes(rss as f64));
            }
        }
        writeln!(out, "{t}")?;
        if let Some(dest) = &self.out {
            gp_partition::save_assignment(&outcome.assignment, dest)
                .map_err(|e| format!("cannot write {dest}: {e}"))?;
            writeln!(out, "saved assignment to {dest}")?;
        }
        Ok(())
    }
}
