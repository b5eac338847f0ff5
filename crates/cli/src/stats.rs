//! `distgraph stats <graph.txt>` — size, degrees, degree class.

use crate::{load_graph, Failure, Flags, Subcommand};
use gp_core::GraphStats;
use gp_gen::analysis::{classify_analysis, DegreeAnalysis};
use std::io::Write;

/// Arguments of `stats`.
#[derive(Debug, Clone, PartialEq)]
pub struct Args {
    pub path: String,
}

impl Subcommand for Args {
    const NAME: &'static str = "stats";
    const VALUES: &'static str = "";

    fn parse(flags: &Flags) -> Result<Self, String> {
        Ok(Args {
            path: flags.path()?,
        })
    }

    fn run(&self, out: &mut dyn Write) -> Result<(), Failure> {
        let g = load_graph(&self.path)?;
        let analysis = DegreeAnalysis::of(&g);
        writeln!(out, "{}", GraphStats::compute(&g))?;
        writeln!(
            out,
            "degree class: {} (log-log slope {:.2}, low-degree residual {:.2})",
            classify_analysis(&analysis),
            analysis.slope,
            analysis.low_degree_residual
        )?;
        Ok(())
    }
}
