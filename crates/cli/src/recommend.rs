//! `distgraph recommend <graph.txt>` — the paper's decision trees.

use crate::{load_graph, Failure, Flags, Subcommand};
use gp_advisor::Workload;
use gp_partition::System;
use std::io::Write;

/// Arguments of `recommend`.
#[derive(Debug, Clone, PartialEq)]
pub struct Args {
    pub path: String,
    /// Whose tree: Fig 5.9, 6.6 or 9.3.
    pub system: System,
    pub machines: u32,
    pub compute_ingress: f64,
    pub natural: bool,
}

impl Subcommand for Args {
    const NAME: &'static str = "recommend";
    const VALUES: &'static str = "system machines compute-ingress";
    const SWITCHES: &'static str = "natural";

    fn parse(flags: &Flags) -> Result<Self, String> {
        Ok(Args {
            path: flags.path()?,
            system: flags.parsed("system")?.unwrap_or(System::PowerGraph),
            machines: flags.count_or("machines", 9)?,
            compute_ingress: flags.number("compute-ingress", 1.0)?,
            natural: flags.has("natural"),
        })
    }

    fn run(&self, out: &mut dyn Write) -> Result<(), Failure> {
        let class = gp_gen::classify(&load_graph(&self.path)?);
        let w = Workload {
            graph_class: class,
            machines: self.machines,
            compute_ingress_ratio: self.compute_ingress,
            natural_app: self.natural,
        };
        let rec = match self.system {
            System::PowerGraph => gp_advisor::powergraph(&w),
            System::PowerLyra => gp_advisor::powerlyra(&w),
            System::GraphX => gp_advisor::graphx_all(&w),
        };
        let labels: Vec<&str> = rec.strategies.iter().map(|s| s.label()).collect();
        writeln!(out, "graph class: {class}")?;
        writeln!(out, "recommended: {}", labels.join(" or "))?;
        writeln!(out, "decision path: {}", rec.path.join(" -> "))?;
        Ok(())
    }
}
