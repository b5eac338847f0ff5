//! `distgraph store build|info|verify` — compressed `.gps` graph stores.

use crate::flags::parse_dataset;
use crate::{Failure, Flags};
use gp_cluster::table::fmt_bytes;
use gp_cluster::Table;
use gp_gen::{Dataset, PowerLawStreamParams};
use gp_store::GraphStore;
use std::io::Write;

/// Arguments of `store`, by action.
#[derive(Debug, Clone, PartialEq)]
pub enum Args {
    /// Build a compressed `.gps` store from a generator.
    Build {
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
    Info { path: String },
    /// Full checksum + structural verification of a store file.
    Verify { path: String },
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

fn open(path: &str) -> Result<GraphStore, String> {
    GraphStore::open(path).map_err(|e| format!("cannot open {path}: {e}"))
}

impl Args {
    /// The action is the word after `store`; each action declares its own
    /// flags (`info` and `verify` take none).
    pub fn from_args(args: &[String]) -> Result<Self, String> {
        const ACTIONS: &str = "(build|info|verify)";
        let (action, rest) = args
            .split_first()
            .ok_or(format!("missing store action {ACTIONS}"))?;
        let path_of = |flags: Flags| Ok(flags.positional(0, "<store.gps> path")?.to_string());
        match action.as_str() {
            "build" => {
                let flags =
                    Flags::tokenize("store build", "out scale edges vertices seed", "", rest)?;
                let src = flags.positional(0, "store source (powerlaw or a dataset name)")?;
                Ok(Args::Build {
                    source: if src.eq_ignore_ascii_case("powerlaw") {
                        StoreSource::PowerLaw
                    } else {
                        StoreSource::Dataset(parse_dataset(src)?)
                    },
                    out: flags
                        .value("out")
                        .ok_or("missing -o <out.gps>")?
                        .to_string(),
                    scale: flags.scale()?,
                    edges: flags.size("edges")?,
                    vertices: flags.size("vertices")?,
                    seed: flags.seed()?,
                })
            }
            "info" => Flags::tokenize("store info", "", "", rest)
                .and_then(path_of)
                .map(|path| Args::Info { path }),
            "verify" => Flags::tokenize("store verify", "", "", rest)
                .and_then(path_of)
                .map(|path| Args::Verify { path }),
            other => Err(format!("unknown store action {other:?} {ACTIONS}")),
        }
    }

    /// Execute, writing the human-readable report to `out`.
    pub fn run(&self, out: &mut dyn Write) -> Result<(), Failure> {
        match self {
            Args::Build {
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
                        let params = PowerLawStreamParams {
                            num_vertices,
                            num_edges,
                            ..Default::default()
                        };
                        gp_gen::build_powerlaw_store(dest, params, *seed)
                    }
                    StoreSource::Dataset(dataset) => {
                        let scale = edges.map_or(*scale, |target| dataset.scale_for_edges(target));
                        gp_gen::build_dataset_store(dest, *dataset, scale, *seed)
                    }
                };
                let stats = result.map_err(|e| format!("cannot build {dest}: {e}"))?;
                writeln!(
                    out,
                    "built {dest}: {} vertices, {} edges, {} ({:.2} bytes/edge vs 16 in memory)",
                    stats.num_vertices,
                    stats.num_edges,
                    fmt_bytes(stats.file_len as f64),
                    stats.bytes_per_edge()
                )?;
                if let Some(rss) = gp_telemetry::peak_rss_bytes() {
                    writeln!(out, "peak RSS: {}", fmt_bytes(rss as f64))?;
                }
            }
            Args::Info { path } => {
                let info = open(path)?.info();
                let mut t = Table::new(format!("store {path}"), &["field", "value"]);
                let mut row = |field: &str, value: String| {
                    t.row(vec![field.into(), value]);
                };
                row("vertices", info.num_vertices.to_string());
                row("edges", info.num_edges.to_string());
                row("file size", fmt_bytes(info.file_len as f64));
                row("adjacency blob", fmt_bytes(info.data_len as f64));
                row(
                    "index entries",
                    format!("{} (stride {})", info.index_entries, info.index_stride),
                );
                row("bytes/edge", format!("{:.2}", info.bytes_per_edge()));
                row(
                    "vs in-memory edge list",
                    format!("{:.1}x smaller", info.ratio_vs_edge_list()),
                );
                row("backing", info.mapping.to_string());
                writeln!(out, "{t}")?;
            }
            Args::Verify { path } => {
                let report = open(path)?
                    .verify()
                    .map_err(|e| format!("store {path} is corrupt: {e}"))?;
                writeln!(
                    out,
                    "ok: {} vertices, {} edges, max degree {}, {} empty vertices",
                    report.num_vertices, report.num_edges, report.max_degree, report.empty_vertices
                )?;
            }
        }
        Ok(())
    }
}
