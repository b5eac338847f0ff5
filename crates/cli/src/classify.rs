//! `distgraph classify <graph.txt>` — the degree class only.

use crate::{load_graph, Failure, Flags, Subcommand};
use std::io::Write;

/// Arguments of `classify`.
#[derive(Debug, Clone, PartialEq)]
pub struct Args {
    pub path: String,
}

impl Subcommand for Args {
    const NAME: &'static str = "classify";
    const VALUES: &'static str = "";

    fn parse(flags: &Flags) -> Result<Self, String> {
        Ok(Args {
            path: flags.path()?,
        })
    }

    fn run(&self, out: &mut dyn Write) -> Result<(), Failure> {
        writeln!(out, "{}", gp_gen::classify(&load_graph(&self.path)?))?;
        Ok(())
    }
}
