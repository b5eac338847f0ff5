//! Table → SVG chart conversion for the `--svg` flag.
//!
//! Experiment tables come in a handful of shapes; this module recognizes
//! them by their headers and builds the matching [`Chart`]:
//!
//! * **RF scatter** — columns `[App, Strategy, RF, <metric>(, vs trend)]`
//!   (Figs 5.3–5.5, 6.1, 6.2, 8.3): one scatter series per application,
//!   x = replication factor, with trend lines.
//! * **Sweep bars** — columns `[Dataset, Cluster, <strategy>...]`
//!   (Figs 5.6/5.7/6.4/6.5/8.1/8.2): grouped bars, one series per strategy.
//! * **Per-dataset bars** — columns `[Dataset, <strategy>...]` (Fig 7.1).
//! * **Iteration lines** — columns `[Strategy, Partitioning (s), iter N...]`
//!   (Figs 9.1/9.2): one line per strategy over iterations.
//! * **Memory sweep line** — columns `[Executor memory, Execution time, ...]`
//!   (Fig 9.4).
//!
//! Tables that match no shape (decision trees, rankings) return `None`.

use gp_cluster::{Chart, ChartKind, Series, Table};
use gp_core::units::{parse_scaled, SizeUnit};

/// Parse a cell like `"54.74 MiB"`, `"79.1"`, `"1.33x"` or `"12.5%"` into a
/// plain number (bytes for byte units). Returns `None` for non-numeric cells
/// (`"FAILED"`, labels).
pub fn parse_value(cell: &str) -> Option<f64> {
    let cell = cell.trim().trim_end_matches(['x', '%']);
    parse_scaled(cell, SizeUnit::Binary).ok()
}

/// Build a chart from a table, if its shape is recognized.
pub fn chart_for(table: &Table) -> Option<Chart> {
    let headers = table.headers();
    if headers.len() >= 4 && headers[0] == "App" && headers[1] == "Strategy" && headers[2] == "RF" {
        return Some(rf_scatter(table));
    }
    if headers.len() >= 3 && headers[0] == "Dataset" && headers[1] == "Cluster" {
        return Some(sweep_bars(table, 2));
    }
    if headers.len() >= 2 && headers[0] == "Dataset" {
        return Some(sweep_bars(table, 1));
    }
    if headers.len() >= 3
        && headers[0] == "Strategy"
        && headers.iter().any(|h| h.starts_with("iter "))
    {
        return Some(iteration_lines(table));
    }
    if headers.first().map(String::as_str) == Some("Executor memory") {
        return Some(memory_line(table));
    }
    if headers.len() == 2 && headers[0].starts_with("In-degree") {
        return Some(histogram_line(table));
    }
    None
}

fn histogram_line(table: &Table) -> Chart {
    // Fig 5.8-style log-binned degree histograms: plot log10(count) against
    // log10(degree) so the power-law line is visible without log axes.
    let points: Vec<(f64, f64)> = table
        .rows()
        .iter()
        .filter_map(|r| {
            let d = parse_value(&r[0])?;
            let c = parse_value(&r[1])?;
            if d > 0.0 && c > 0.0 {
                Some((d.log10(), c.log10()))
            } else {
                None
            }
        })
        .collect();
    Chart::new(
        table.title(),
        "log10(in-degree)",
        "log10(count)",
        ChartKind::Line,
    )
    .series(Series::new("vertices", points))
}

fn rf_scatter(table: &Table) -> Chart {
    let metric = table.headers()[3].clone();
    let mut chart = Chart::new(
        table.title(),
        "Replication factor",
        metric,
        ChartKind::Scatter,
    )
    .with_trend_lines();
    let mut order: Vec<String> = Vec::new();
    for row in table.rows() {
        if !order.contains(&row[0]) {
            order.push(row[0].clone());
        }
    }
    for app in order {
        let points: Vec<(f64, f64)> = table
            .rows()
            .iter()
            .filter(|r| r[0] == app)
            .filter_map(|r| Some((parse_value(&r[2])?, parse_value(&r[3])?)))
            .collect();
        if !points.is_empty() {
            chart = chart.series(Series::new(app, points));
        }
    }
    chart
}

fn sweep_bars(table: &Table, first_value_col: usize) -> Chart {
    let categories: Vec<String> = table
        .rows()
        .iter()
        .map(|r| {
            if first_value_col == 2 {
                format!("{}/{}", r[0], r[1])
            } else {
                r[0].clone()
            }
        })
        .collect();
    let mut chart =
        Chart::new(table.title(), "", value_axis(table), ChartKind::Bars).categories(categories);
    for (ci, name) in table.headers().iter().enumerate().skip(first_value_col) {
        let points: Vec<(f64, f64)> = table
            .rows()
            .iter()
            .enumerate()
            .filter_map(|(ri, r)| Some((ri as f64, parse_value(&r[ci])?)))
            .collect();
        chart = chart.series(Series::new(name.clone(), points));
    }
    chart
}

fn iteration_lines(table: &Table) -> Chart {
    let mut chart = Chart::new(
        table.title(),
        "Iteration",
        "Total time (s)",
        ChartKind::Line,
    );
    let iters: Vec<(usize, f64)> = table
        .headers()
        .iter()
        .enumerate()
        .filter_map(|(i, h)| {
            h.strip_prefix("iter ")
                .and_then(|n| n.parse::<f64>().ok())
                .map(|n| (i, n))
        })
        .collect();
    for row in table.rows() {
        let points: Vec<(f64, f64)> = iters
            .iter()
            .filter_map(|&(col, it)| Some((it, parse_value(&row[col])?)))
            .collect();
        if !points.is_empty() {
            chart = chart.series(Series::new(row[0].clone(), points));
        }
    }
    chart
}

fn memory_line(table: &Table) -> Chart {
    let points: Vec<(f64, f64)> = table
        .rows()
        .iter()
        .filter_map(|r| Some((parse_value(&r[0])? / (1 << 20) as f64, parse_value(&r[1])?)))
        .collect();
    Chart::new(
        table.title(),
        "Executor memory (MiB)",
        "Execution time (s)",
        ChartKind::Line,
    )
    .series(Series::new("execution time", points))
}

fn value_axis(table: &Table) -> &'static str {
    let t = table.title().to_ascii_lowercase();
    if t.contains("ingress") || t.contains("time") {
        "seconds"
    } else if t.contains("replication") {
        "replication factor"
    } else {
        "value"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_every_charted_cell_form() {
        assert_eq!(parse_value("79.1"), Some(79.1));
        assert_eq!(parse_value(" 12 "), Some(12.0));
        assert_eq!(parse_value("2.00 KiB"), Some(2048.0));
        assert_eq!(parse_value("1.50 MiB"), Some(1.5 * 1024.0 * 1024.0));
        assert_eq!(
            parse_value("3.25 GiB"),
            Some(3.25 * 1024.0 * 1024.0 * 1024.0)
        );
        assert_eq!(parse_value("1.33x"), Some(1.33));
        assert_eq!(parse_value("45%"), Some(45.0));
        assert_eq!(parse_value("12.5%"), Some(12.5));
        assert_eq!(parse_value("FAILED"), None);
        assert_eq!(parse_value("HDRF"), None);
        assert_eq!(parse_value(""), None);
    }

    #[test]
    fn recognizes_rf_scatter_tables() {
        let mut t = Table::new("Fig X", &["App", "Strategy", "RF", "Net I/O", "vs trend"]);
        t.row(vec![
            "PR".into(),
            "Grid".into(),
            "3.0".into(),
            "1.00 MiB".into(),
            "1.0x".into(),
        ]);
        t.row(vec![
            "PR".into(),
            "Random".into(),
            "6.0".into(),
            "2.00 MiB".into(),
            "1.0x".into(),
        ]);
        let chart = chart_for(&t).expect("recognized");
        assert_eq!(chart.kind, ChartKind::Scatter);
        assert_eq!(chart.series.len(), 1);
        assert_eq!(chart.series[0].points.len(), 2);
        assert!(chart.to_svg().contains("stroke-dasharray")); // trend line
    }

    #[test]
    fn recognizes_sweep_tables() {
        let mut t = Table::new("RFs", &["Dataset", "Cluster", "Random", "Grid"]);
        t.row(vec![
            "uk".into(),
            "EC2-25".into(),
            "9.5".into(),
            "6.4".into(),
        ]);
        let chart = chart_for(&t).expect("recognized");
        assert_eq!(chart.kind, ChartKind::Bars);
        assert_eq!(chart.series.len(), 2);
        assert_eq!(chart.categories, vec!["uk/EC2-25"]);
    }

    #[test]
    fn recognizes_iteration_tables() {
        let mut t = Table::new(
            "Fig 9.1",
            &["Strategy", "Partitioning (s)", "iter 1", "iter 5"],
        );
        t.row(vec![
            "HDRF".into(),
            "30.0".into(),
            "31.0".into(),
            "35.0".into(),
        ]);
        let chart = chart_for(&t).expect("recognized");
        assert_eq!(chart.kind, ChartKind::Line);
        assert_eq!(chart.series[0].points, vec![(1.0, 31.0), (5.0, 35.0)]);
    }

    #[test]
    fn skips_failed_rows_in_memory_sweep() {
        let mut t = Table::new(
            "Fig 9.4",
            &["Executor memory", "Execution time (s)", "case"],
        );
        t.row(vec!["2.00 MiB".into(), "FAILED".into(), "case 1".into()]);
        t.row(vec!["8.00 MiB".into(), "100.0".into(), "case 3".into()]);
        let chart = chart_for(&t).expect("recognized");
        assert_eq!(chart.series[0].points.len(), 1);
        assert_eq!(chart.series[0].points[0], (8.0, 100.0));
    }

    #[test]
    fn recognizes_degree_histograms_in_log_space() {
        let mut t = Table::new("Fig 5.8", &["In-degree >=", "Count"]);
        t.row(vec!["1".into(), "1000".into()]);
        t.row(vec!["10".into(), "10".into()]);
        let chart = chart_for(&t).expect("recognized");
        assert_eq!(chart.kind, ChartKind::Line);
        assert_eq!(chart.series[0].points, vec![(0.0, 3.0), (1.0, 1.0)]);
    }

    #[test]
    fn unrecognized_tables_return_none() {
        let mut t = Table::new("tree", &["tree"]);
        t.row(vec!["Start".into()]);
        assert!(chart_for(&t).is_none());
    }
}
