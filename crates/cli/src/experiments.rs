//! `distgraph experiments <id…|all|list>` — regenerate the paper's tables
//! and figures from the experiment registry.
//!
//! Every experiment prints the rows/series the paper reports. `--scale`
//! trades fidelity for speed (1.0 = default mini datasets, 0.1 = smoke
//! test); `--csv DIR` also writes each table as CSV and `--svg DIR` each
//! chartable table as an SVG figure. Progress lines go to stderr, since
//! they carry host time.

use crate::{Failure, Flags, Subcommand};
use gp_bench::charts::chart_for;
use gp_bench::experiments::{find, registry, Experiment};
use std::io::Write;

/// The registered experiment `id` names.
fn lookup(id: &str) -> Result<Experiment, String> {
    find(id).ok_or_else(|| format!("unknown experiment {id:?} (see `distgraph experiments list`)"))
}

/// Arguments of `experiments`.
#[derive(Debug, Clone, PartialEq)]
pub struct Args {
    /// List the registry instead of running anything.
    pub list: bool,
    /// Registered ids, in the order to run them (`all` expanded).
    pub ids: Vec<&'static str>,
    pub scale: f64,
    pub seed: u64,
    pub csv_dir: Option<String>,
    pub svg_dir: Option<String>,
}

impl Subcommand for Args {
    const NAME: &'static str = "experiments";
    const VALUES: &'static str = "scale seed csv svg";

    fn parse(f: &Flags) -> Result<Self, String> {
        f.positional(0, "experiment ids (try `list` or `all`)")?;
        let words: Vec<&str> = (0..).map_while(|i| f.positional(i, "").ok()).collect();
        let mut ids = Vec::new();
        for &word in words.iter().filter(|&&w| w != "all" && w != "list") {
            ids.push(lookup(word)?.id);
        }
        if words.contains(&"all") {
            ids = registry().iter().map(|e| e.id).collect();
        }
        Ok(Args {
            list: words.contains(&"list"),
            ids,
            scale: f.scale()?,
            seed: f.seed()?,
            csv_dir: f.value("csv").map(str::to_string),
            svg_dir: f.value("svg").map(str::to_string),
        })
    }

    fn run(&self, out: &mut dyn Write) -> Result<(), Failure> {
        if self.list {
            for e in registry() {
                writeln!(out, "  {:<10} {}", e.id, e.title)?;
            }
            return Ok(());
        }
        for dir in [&self.csv_dir, &self.svg_dir].into_iter().flatten() {
            std::fs::create_dir_all(dir).map_err(|e| format!("cannot create {dir}: {e}"))?;
        }
        for &id in &self.ids {
            let exp = lookup(id)?;
            let (scale, seed) = (self.scale, self.seed);
            eprintln!(">> {id}: {} (scale {scale}, seed {seed})", exp.title);
            let start = std::time::Instant::now();
            for (i, table) in (exp.run)(scale, seed).iter().enumerate() {
                writeln!(out, "{table}")?;
                if let Some(dir) = &self.csv_dir {
                    let path = format!("{dir}/{id}-{i}.csv");
                    match std::fs::File::create(&path) {
                        Ok(mut f) => {
                            if let Err(e) = table.write_csv(&mut f).and_then(|_| f.flush()) {
                                eprintln!("warning: failed writing {path}: {e}");
                            }
                        }
                        Err(e) => eprintln!("warning: cannot create {path}: {e}"),
                    }
                }
                if let Some(dir) = &self.svg_dir {
                    if let Some(chart) = chart_for(table) {
                        let path = format!("{dir}/{id}-{i}.svg");
                        if let Err(e) = std::fs::write(&path, chart.to_svg()) {
                            eprintln!("warning: cannot write {path}: {e}");
                        }
                    }
                }
            }
            eprintln!("<< {id} done in {:.1}s\n", start.elapsed().as_secs_f64());
        }
        Ok(())
    }
}
