//! Minimal dependency-free SVG charts for the experiment harness.
//!
//! The paper's results are figures; the harness regenerates each one as an
//! SVG next to its CSV (`experiments ... --svg DIR`). Supported forms:
//! scatter plots with optional per-series trend lines (Figs 5.3–5.5, 6.1,
//! 6.2, 8.3), grouped bar charts (Figs 5.6/5.7/6.4/6.5/7.1/8.1/8.2), and
//! line charts (Figs 6.3, 9.1, 9.2, 9.4).

use std::fmt::Write as _;

/// A named series of (x, y) points.
#[derive(Debug, Clone)]
pub struct Series {
    /// Legend label.
    pub label: String,
    /// Data points.
    pub points: Vec<(f64, f64)>,
}

impl Series {
    /// New series.
    pub fn new(label: impl Into<String>, points: Vec<(f64, f64)>) -> Self {
        Series {
            label: label.into(),
            points,
        }
    }
}

/// Chart kind.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChartKind {
    /// Markers only.
    Scatter,
    /// Markers connected by lines (x-sorted).
    Line,
    /// Grouped bars: x values are category indices (0, 1, 2, ...).
    Bars,
}

/// A chart description.
#[derive(Debug, Clone)]
pub struct Chart {
    /// Title drawn above the plot.
    pub title: String,
    /// X-axis label.
    pub x_label: String,
    /// Y-axis label.
    pub y_label: String,
    /// Kind of marks.
    pub kind: ChartKind,
    /// The data.
    pub series: Vec<Series>,
    /// Category names for `Bars` (indexed by x).
    pub categories: Vec<String>,
    /// Draw a least-squares trend line per series (scatter only).
    pub trend_lines: bool,
}

impl Chart {
    /// New empty chart.
    pub fn new(
        title: impl Into<String>,
        x_label: impl Into<String>,
        y_label: impl Into<String>,
        kind: ChartKind,
    ) -> Self {
        Chart {
            title: title.into(),
            x_label: x_label.into(),
            y_label: y_label.into(),
            kind,
            series: Vec::new(),
            categories: Vec::new(),
            trend_lines: false,
        }
    }

    /// Add a series.
    pub fn series(mut self, s: Series) -> Self {
        self.series.push(s);
        self
    }

    /// Set bar-chart category names.
    pub fn categories(mut self, names: Vec<String>) -> Self {
        self.categories = names;
        self
    }

    /// Enable per-series trend lines.
    pub fn with_trend_lines(mut self) -> Self {
        self.trend_lines = true;
        self
    }

    /// Render to an SVG string.
    pub fn to_svg(&self) -> String {
        const W: f64 = 760.0;
        const H: f64 = 480.0;
        const ML: f64 = 70.0; // margins
        const MR: f64 = 180.0;
        const MT: f64 = 48.0;
        const MB: f64 = 64.0;
        let pw = W - ML - MR;
        let ph = H - MT - MB;

        let all: Vec<(f64, f64)> = self
            .series
            .iter()
            .flat_map(|s| s.points.iter().copied())
            .collect();
        let (mut x0, mut x1) = min_max(all.iter().map(|p| p.0));
        let (y0_raw, y1_raw) = min_max(all.iter().map(|p| p.1));
        // Y axis from zero (the paper's bar/scatter style), padded top.
        let y0 = y0_raw.min(0.0);
        let mut y1 = y1_raw * 1.08;
        if (y1 - y0).abs() < 1e-12 {
            y1 = y0 + 1.0;
        }
        if self.kind == ChartKind::Bars {
            x0 = -0.5;
            x1 = self.categories.len().max(1) as f64 - 0.5;
        } else if (x1 - x0).abs() < 1e-12 {
            x1 = x0 + 1.0;
        }
        let sx = move |x: f64| ML + (x - x0) / (x1 - x0) * pw;
        let sy = move |y: f64| MT + ph - (y - y0) / (y1 - y0) * ph;

        let mut svg = String::new();
        let _ = write!(
            svg,
            r#"<svg xmlns="http://www.w3.org/2000/svg" width="{W}" height="{H}" viewBox="0 0 {W} {H}" font-family="sans-serif">"#
        );
        let _ = write!(svg, r#"<rect width="{W}" height="{H}" fill="white"/>"#);
        let _ = write!(
            svg,
            r#"<text x="{}" y="24" font-size="15" text-anchor="middle">{}</text>"#,
            ML + pw / 2.0,
            escape(&self.title)
        );
        // Axes.
        let _ = write!(
            svg,
            r#"<line x1="{ML}" y1="{}" x2="{}" y2="{}" stroke="black"/>"#,
            MT + ph,
            ML + pw,
            MT + ph
        );
        let _ = write!(
            svg,
            r#"<line x1="{ML}" y1="{MT}" x2="{ML}" y2="{}" stroke="black"/>"#,
            MT + ph
        );
        let _ = write!(
            svg,
            r#"<text x="{}" y="{}" font-size="12" text-anchor="middle">{}</text>"#,
            ML + pw / 2.0,
            H - 16.0,
            escape(&self.x_label)
        );
        let _ = write!(
            svg,
            r#"<text x="18" y="{}" font-size="12" text-anchor="middle" transform="rotate(-90 18 {})">{}</text>"#,
            MT + ph / 2.0,
            MT + ph / 2.0,
            escape(&self.y_label)
        );
        // Y ticks.
        for i in 0..=4 {
            let yv = y0 + (y1 - y0) * i as f64 / 4.0;
            let yy = sy(yv);
            let _ = write!(
                svg,
                r##"<line x1="{}" y1="{yy}" x2="{}" y2="{yy}" stroke="#ddd"/>"##,
                ML,
                ML + pw
            );
            let _ = write!(
                svg,
                r#"<text x="{}" y="{}" font-size="10" text-anchor="end">{}</text>"#,
                ML - 6.0,
                yy + 3.0,
                fmt_tick(yv)
            );
        }
        // X ticks / category labels.
        if self.kind == ChartKind::Bars {
            for (i, name) in self.categories.iter().enumerate() {
                let _ = write!(
                    svg,
                    r#"<text x="{}" y="{}" font-size="10" text-anchor="middle">{}</text>"#,
                    sx(i as f64),
                    MT + ph + 16.0,
                    escape(name)
                );
            }
        } else {
            for i in 0..=4 {
                let xv = x0 + (x1 - x0) * i as f64 / 4.0;
                let _ = write!(
                    svg,
                    r#"<text x="{}" y="{}" font-size="10" text-anchor="middle">{}</text>"#,
                    sx(xv),
                    MT + ph + 16.0,
                    fmt_tick(xv)
                );
            }
        }
        // Series.
        let n_series = self.series.len().max(1);
        for (si, s) in self.series.iter().enumerate() {
            let color = palette(si);
            match self.kind {
                ChartKind::Bars => {
                    let group_w = pw / self.categories.len().max(1) as f64;
                    let bar_w = (group_w * 0.8) / n_series as f64;
                    for &(x, y) in &s.points {
                        let cx = sx(x) - group_w * 0.4 + bar_w * si as f64;
                        let top = sy(y);
                        let _ = write!(
                            svg,
                            r#"<rect x="{cx:.1}" y="{top:.1}" width="{bar_w:.1}" height="{:.1}" fill="{color}"/>"#,
                            (MT + ph - top).max(0.0)
                        );
                    }
                }
                ChartKind::Line => {
                    let mut pts = s.points.clone();
                    pts.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap());
                    let path: Vec<String> = pts
                        .iter()
                        .map(|&(x, y)| format!("{:.1},{:.1}", sx(x), sy(y)))
                        .collect();
                    let _ = write!(
                        svg,
                        r#"<polyline points="{}" fill="none" stroke="{color}" stroke-width="2"/>"#,
                        path.join(" ")
                    );
                    for &(x, y) in &pts {
                        let _ = write!(
                            svg,
                            r#"<circle cx="{:.1}" cy="{:.1}" r="3" fill="{color}"/>"#,
                            sx(x),
                            sy(y)
                        );
                    }
                }
                ChartKind::Scatter => {
                    for &(x, y) in &s.points {
                        let _ = write!(
                            svg,
                            r#"<circle cx="{:.1}" cy="{:.1}" r="4" fill="{color}" fill-opacity="0.8"/>"#,
                            sx(x),
                            sy(y)
                        );
                    }
                    if self.trend_lines && s.points.len() >= 2 {
                        let (a, b) = gp_core::stats::linear_fit(&s.points);
                        let (fx0, fx1) = min_max(s.points.iter().map(|p| p.0));
                        let _ = write!(
                            svg,
                            r#"<line x1="{:.1}" y1="{:.1}" x2="{:.1}" y2="{:.1}" stroke="{color}" stroke-dasharray="5,4"/>"#,
                            sx(fx0),
                            sy(a + b * fx0),
                            sx(fx1),
                            sy(a + b * fx1)
                        );
                    }
                }
            }
            // Legend.
            let ly = MT + 14.0 * si as f64;
            let _ = write!(
                svg,
                r#"<rect x="{}" y="{}" width="10" height="10" fill="{color}"/>"#,
                ML + pw + 12.0,
                ly
            );
            let _ = write!(
                svg,
                r#"<text x="{}" y="{}" font-size="11">{}</text>"#,
                ML + pw + 26.0,
                ly + 9.0,
                escape(&s.label)
            );
        }
        svg.push_str("</svg>");
        svg
    }
}

fn min_max(values: impl Iterator<Item = f64>) -> (f64, f64) {
    let mut lo = f64::INFINITY;
    let mut hi = f64::NEG_INFINITY;
    for v in values {
        lo = lo.min(v);
        hi = hi.max(v);
    }
    if lo.is_infinite() {
        (0.0, 1.0)
    } else {
        (lo, hi)
    }
}

fn palette(i: usize) -> &'static str {
    const COLORS: [&str; 10] = [
        "#1f77b4", "#ff7f0e", "#2ca02c", "#d62728", "#9467bd", "#8c564b", "#e377c2", "#7f7f7f",
        "#bcbd22", "#17becf",
    ];
    COLORS[i % COLORS.len()]
}

fn fmt_tick(v: f64) -> String {
    if v == 0.0 {
        "0".into()
    } else if v.abs() >= 1e9 {
        format!("{:.1}G", v / 1e9)
    } else if v.abs() >= 1e6 {
        format!("{:.1}M", v / 1e6)
    } else if v.abs() >= 1e3 {
        format!("{:.1}k", v / 1e3)
    } else if v.abs() < 0.01 {
        format!("{v:.0e}")
    } else {
        format!("{v:.2}")
    }
}

fn escape(s: &str) -> String {
    s.replace('&', "&amp;")
        .replace('<', "&lt;")
        .replace('>', "&gt;")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn chart(kind: ChartKind) -> Chart {
        Chart::new("demo", "x", "y", kind)
            .series(Series::new("a", vec![(1.0, 2.0), (2.0, 4.0), (3.0, 6.0)]))
            .series(Series::new("b", vec![(1.0, 1.0), (2.0, 1.5), (3.0, 2.5)]))
    }

    #[test]
    fn scatter_renders_markers_and_legend() {
        let svg = chart(ChartKind::Scatter).to_svg();
        assert!(svg.starts_with("<svg"));
        assert!(svg.ends_with("</svg>"));
        assert_eq!(svg.matches("<circle").count(), 6);
        assert!(svg.contains(">a</text>"));
        assert!(svg.contains(">b</text>"));
    }

    #[test]
    fn trend_lines_add_dashed_lines() {
        let plain = chart(ChartKind::Scatter).to_svg();
        let trended = chart(ChartKind::Scatter).with_trend_lines().to_svg();
        assert!(!plain.contains("stroke-dasharray"));
        assert_eq!(trended.matches("stroke-dasharray").count(), 2);
    }

    #[test]
    fn line_chart_draws_polylines() {
        let svg = chart(ChartKind::Line).to_svg();
        assert_eq!(svg.matches("<polyline").count(), 2);
    }

    #[test]
    fn bar_chart_draws_grouped_rects() {
        let svg = Chart::new("bars", "dataset", "rf", ChartKind::Bars)
            .categories(vec!["a".into(), "b".into()])
            .series(Series::new("s1", vec![(0.0, 3.0), (1.0, 5.0)]))
            .series(Series::new("s2", vec![(0.0, 2.0), (1.0, 1.0)]))
            .to_svg();
        // 4 data rects + 2 legend swatches + background.
        assert_eq!(svg.matches("<rect").count(), 7);
        assert!(svg.contains(">a</text>"));
    }

    #[test]
    fn titles_are_escaped() {
        let svg = Chart::new("a < b & c", "x", "y", ChartKind::Scatter)
            .series(Series::new("s", vec![(0.0, 1.0)]))
            .to_svg();
        assert!(svg.contains("a &lt; b &amp; c"));
        assert!(!svg.contains("a < b"));
    }

    #[test]
    fn degenerate_data_does_not_panic() {
        // Single point, zero range.
        let svg = Chart::new("one", "x", "y", ChartKind::Line)
            .series(Series::new("s", vec![(5.0, 5.0)]))
            .to_svg();
        assert!(svg.contains("<circle"));
        // Empty series list.
        let svg = Chart::new("none", "x", "y", ChartKind::Scatter).to_svg();
        assert!(svg.ends_with("</svg>"));
    }
}
