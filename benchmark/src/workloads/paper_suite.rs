//! `paper-suite`: every experiment in `gp_bench::experiments::registry()` at
//! a small dataset scale, every table rendered — what `experiments all`
//! does. The only workload where generators, all the partitioners, the four
//! engines and the four hooks each do a moderate share, so a layer's gain
//! must show here, diluted, or it did not matter to the user.

use super::{Env, Rep};
use crate::check::{ensure, Checks};
use gp_bench::experiments::{registry, Experiment};
use gp_cluster::Table;
use gp_gen::Dataset;

/// What set-up leaves behind.
pub struct Inputs {
    /// The registered experiments, in paper order.
    pub experiments: Vec<Experiment>,
    /// Total edges of the six analogues at the suite's scale and seed: the
    /// input size every experiment regenerates from.
    pub dataset_edges: u64,
}

/// Read the registry and size the inputs.
pub fn setup(env: &Env) -> Inputs {
    let dataset_edges = Dataset::ALL
        .iter()
        .map(|d| {
            env.tracer
                .span("gen.generate", || {
                    d.generate(env.sizes.suite_scale, env.seed)
                })
                .num_edges() as u64
        })
        .sum();
    Inputs {
        experiments: registry(),
        dataset_edges,
    }
}

/// Span (and per-layer metric stem) an experiment's run is timed under.
pub fn chapter_span(id: &str) -> &'static str {
    match id {
        _ if id.starts_with("ablation-") => "bench.ablations",
        _ if id.starts_with("ch1") => "bench.ch10_13",
        _ if id.contains("5-") => "bench.ch5",
        _ if id.contains("6-") => "bench.ch6",
        _ if id.contains("7-") => "bench.ch7",
        _ if id.contains("8-") => "bench.ch8",
        _ if id.contains("9-") => "bench.ch9",
        _ => "bench.tables",
    }
}

/// `Err` if any whitespace-separated token of any cell parses as a number
/// that is not finite (`NaN`, `inf`). Strings such as `FAILED` (GraphX
/// running out of memory, which the paper reports too) are not numbers, and
/// the first column is the row's label, where `inf` is a swept parameter
/// (the Hybrid threshold ablation), so only `NaN` is refused there.
fn cells_are_finite(table: &Table) -> Result<(), String> {
    for row in table.rows() {
        for (column, cell) in row.iter().enumerate() {
            for token in cell.split_whitespace() {
                let bad = token
                    .parse::<f64>()
                    .is_ok_and(|v| v.is_nan() || (column > 0 && v.is_infinite()));
                if bad {
                    return Err(format!("`{token}` in table `{}`", table.title()));
                }
            }
        }
    }
    Ok(())
}

/// One repetition; a work unit is one experiment.
pub fn rep(env: &Env, inputs: &Inputs) -> Rep {
    let t = env.tracer;
    let mut checks = Checks::default();
    let (mut tables_seen, mut rows_seen) = (0u64, 0u64);
    for exp in &inputs.experiments {
        checks.op(exp.id, |d| {
            let tables = t.span(chapter_span(exp.id), || {
                (exp.run)(env.sizes.suite_scale, env.seed)
            });
            let text: String = t.span("bench.render", || {
                tables.iter().map(Table::to_string).collect()
            });
            d.bytes(text.as_bytes());
            ensure(!tables.is_empty(), || "no tables".to_string())?;
            for table in &tables {
                ensure(!table.is_empty(), || {
                    format!("table `{}` has no rows", table.title())
                })?;
                cells_are_finite(table)?;
                rows_seen += table.len() as u64;
            }
            tables_seen += tables.len() as u64;
            Ok(())
        });
    }
    if let Some(pins) = env.pins {
        checks.op("suite shape", |_| {
            pins.exactly("suite.experiments", inputs.experiments.len() as u64)?;
            pins.exactly("suite.tables", tables_seen)?;
            // Per-iteration tables grow a row when a job needs one more
            // superstep on another seed's graph.
            pins.within_parity("suite.rows", rows_seen as f64)
        });
    }
    Rep::new(checks, inputs.experiments.len() as u64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_registered_experiment_maps_to_its_chapter() {
        let mut per_span = std::collections::BTreeMap::new();
        for exp in registry() {
            *per_span.entry(chapter_span(exp.id)).or_insert(0) += 1;
        }
        let expected = [
            ("bench.ablations", 9),
            ("bench.ch10_13", 8),
            ("bench.ch5", 8),
            ("bench.ch6", 6),
            ("bench.ch7", 2),
            ("bench.ch8", 4),
            ("bench.ch9", 4),
            ("bench.tables", 3),
        ];
        assert_eq!(per_span.into_iter().collect::<Vec<_>>(), expected);
    }

    #[test]
    fn non_finite_cells_are_caught_and_words_are_not() {
        let mut t = Table::new("t", &["a", "b"]);
        t.row(vec!["1.5 GiB".into(), "FAILED".into()]);
        assert!(cells_are_finite(&t).is_ok());
        t.row(vec!["inf".into(), "info".into()]);
        assert!(cells_are_finite(&t).is_ok());
        t.row(vec!["1".into(), "-inf".into()]);
        assert!(cells_are_finite(&t).is_err());
        let mut u = Table::new("u", &["a"]);
        u.row(vec!["NaN".into()]);
        assert!(cells_are_finite(&u).is_err());
    }
}
