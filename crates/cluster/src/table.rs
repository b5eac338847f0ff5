//! Plain-text table and CSV emission for the experiment harness.

use std::fmt;
use std::io::{self, Write};

/// A simple column-aligned table. The harness prints one per paper
/// table/figure, with the same rows/series the paper reports.
#[derive(Debug, Clone, Default)]
pub struct Table {
    title: String,
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// New table with a title and column headers.
    pub fn new(title: impl Into<String>, headers: &[&str]) -> Self {
        Table {
            title: title.into(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Append a row; must match the header width.
    pub fn row(&mut self, cells: Vec<String>) -> &mut Self {
        assert_eq!(cells.len(), self.headers.len(), "row width mismatch");
        self.rows.push(cells);
        self
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// The table title.
    pub fn title(&self) -> &str {
        &self.title
    }

    /// Column headers.
    pub fn headers(&self) -> &[String] {
        &self.headers
    }

    /// Data rows.
    pub fn rows(&self) -> &[Vec<String>] {
        &self.rows
    }

    /// True if the table has no data rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Write as CSV (title as a `#` comment line).
    pub fn write_csv<W: Write>(&self, mut w: W) -> io::Result<()> {
        writeln!(w, "# {}", self.title)?;
        writeln!(w, "{}", self.headers.join(","))?;
        for row in &self.rows {
            let escaped: Vec<String> = row
                .iter()
                .map(|c| {
                    if c.contains(',') || c.contains('"') {
                        format!("\"{}\"", c.replace('"', "\"\""))
                    } else {
                        c.clone()
                    }
                })
                .collect();
            writeln!(w, "{}", escaped.join(","))?;
        }
        Ok(())
    }
}

impl fmt::Display for Table {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                widths[i] = widths[i].max(c.len());
            }
        }
        writeln!(f, "== {} ==", self.title)?;
        let fmt_row = |row: &[String]| -> String {
            row.iter()
                .enumerate()
                .map(|(i, c)| format!("{:<w$}", c, w = widths[i]))
                .collect::<Vec<_>>()
                .join("  ")
        };
        writeln!(f, "{}", fmt_row(&self.headers))?;
        writeln!(
            f,
            "{}",
            widths
                .iter()
                .map(|w| "-".repeat(*w))
                .collect::<Vec<_>>()
                .join("  ")
        )?;
        for row in &self.rows {
            writeln!(f, "{}", fmt_row(row))?;
        }
        Ok(())
    }
}

/// Format a byte count with a binary-prefix unit.
pub fn fmt_bytes(bytes: f64) -> String {
    const UNITS: [&str; 5] = ["B", "KiB", "MiB", "GiB", "TiB"];
    let mut v = bytes;
    let mut u = 0;
    while v.abs() >= 1024.0 && u < UNITS.len() - 1 {
        v /= 1024.0;
        u += 1;
    }
    format!("{v:.2} {}", UNITS[u])
}

#[cfg(test)]
mod tests {
    use super::*;
    use gp_core::units::{parse_scaled, SizeUnit};

    #[test]
    fn table_renders_aligned_columns() {
        let mut t = Table::new("demo", &["strategy", "rf"]);
        t.row(vec!["Grid".into(), "3.2".into()]);
        t.row(vec!["Oblivious".into(), "4.8".into()]);
        let text = t.to_string();
        assert!(text.contains("== demo =="));
        assert!(text.contains("strategy"));
        assert!(text.lines().count() >= 5);
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn mismatched_rows_rejected() {
        Table::new("x", &["a", "b"]).row(vec!["only".into()]);
    }

    #[test]
    fn csv_escapes_commas_and_quotes() {
        let mut t = Table::new("t", &["name", "note"]);
        t.row(vec!["a,b".into(), "say \"hi\"".into()]);
        let mut buf = Vec::new();
        t.write_csv(&mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert!(text.contains("\"a,b\""));
        assert!(text.contains("\"say \"\"hi\"\"\""));
    }

    #[test]
    fn byte_formatting() {
        assert_eq!(fmt_bytes(512.0), "512.00 B");
        assert_eq!(fmt_bytes(2048.0), "2.00 KiB");
        assert!(fmt_bytes(3.5 * 1024.0 * 1024.0 * 1024.0).contains("GiB"));
    }

    #[test]
    fn fmt_bytes_round_trips_through_the_binary_parser() {
        for v in [0.0, 512.0, 2048.0, 3.5 * 1024.0 * 1024.0 * 1024.0] {
            let parsed = parse_scaled(&fmt_bytes(v), SizeUnit::Binary).unwrap();
            assert!((parsed - v).abs() <= v * 0.005 + 1e-9, "{v} -> {parsed}");
        }
        assert!(parse_scaled("12.00 QiB", SizeUnit::Binary).is_err());
        assert!(parse_scaled("garbage", SizeUnit::Binary).is_err());
    }

    #[test]
    fn short_forms_round_trip_through_fmt_bytes() {
        for text in ["1.5G", "0.5M", "512K", "3T"] {
            let v = parse_scaled(text, SizeUnit::Binary).unwrap();
            let reparsed = parse_scaled(&fmt_bytes(v), SizeUnit::Binary).unwrap();
            assert!(
                (reparsed - v).abs() <= v * 0.005,
                "{text}: {v} -> {reparsed}"
            );
        }
    }

    #[test]
    fn len_and_empty() {
        let mut t = Table::new("t", &["a"]);
        assert!(t.is_empty());
        t.row(vec!["1".into()]);
        assert_eq!(t.len(), 1);
    }
}
