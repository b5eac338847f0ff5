//! `distgraph generate <dataset>` — write a dataset analogue as text.

use crate::{Failure, Flags, Subcommand};
use gp_gen::Dataset;
use std::io::Write;

/// Arguments of `generate`.
#[derive(Debug, Clone, PartialEq)]
pub struct Args {
    pub dataset: Dataset,
    pub scale: f64,
    /// Target edge count; overrides `scale` when present.
    pub edges: Option<u64>,
    pub seed: u64,
    pub out: Option<String>,
}

impl Subcommand for Args {
    const NAME: &'static str = "generate";
    const VALUES: &'static str = "scale edges seed out";

    fn parse(flags: &Flags) -> Result<Self, String> {
        Ok(Args {
            dataset: flags.dataset()?,
            scale: flags.scale()?,
            edges: flags.size("edges")?,
            seed: flags.seed()?,
            out: flags.value("out").map(str::to_string),
        })
    }

    fn run(&self, out: &mut dyn Write) -> Result<(), Failure> {
        let g = match self.edges {
            Some(target) => self.dataset.generate_with_edges(target, self.seed),
            None => self.dataset.generate(self.scale, self.seed),
        };
        writeln!(
            out,
            "generated {} analogue: {} vertices, {} edges",
            self.dataset,
            g.num_vertices(),
            g.num_edges()
        )?;
        if let Some(dest) = &self.out {
            let file = std::io::BufWriter::new(std::fs::File::create(dest)?);
            gp_core::io::write_edge_list(&g, file)
                .map_err(|e| format!("cannot write {dest}: {e}"))?;
            writeln!(out, "wrote {dest}")?;
        }
        Ok(())
    }
}
