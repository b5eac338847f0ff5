//! Whole-graph summary statistics (the columns of Table 4.2 plus extras used
//! by the degree-distribution analysis in §5.4.2).

use crate::EdgeList;

/// Summary statistics for a graph.
#[derive(Debug, Clone, PartialEq)]
pub struct GraphStats {
    /// Vertex count.
    pub num_vertices: u64,
    /// Edge count.
    pub num_edges: u64,
    /// Maximum in-degree.
    pub max_in_degree: u32,
    /// Maximum out-degree.
    pub max_out_degree: u32,
    /// Mean total degree (`2m / n` for a directed graph counting both ends).
    pub mean_degree: f64,
    /// Fraction of vertices with total degree <= 2 (the "low-degree mass"
    /// that separates UK-web-like power-law graphs from heavy-tailed social
    /// networks in Fig 5.8).
    pub low_degree_fraction: f64,
}

impl GraphStats {
    /// Compute statistics in one pass over degrees.
    pub fn compute(graph: &EdgeList) -> Self {
        let degrees = graph.degrees();
        let n = graph.num_vertices();
        let m = graph.num_edges() as u64;
        let mut max_in = 0u32;
        let mut max_out = 0u32;
        let mut low = 0u64;
        for v in 0..n {
            let vid = crate::VertexId(v);
            let din = degrees.in_degree(vid);
            let dout = degrees.out_degree(vid);
            max_in = max_in.max(din);
            max_out = max_out.max(dout);
            if din + dout <= 2 {
                low += 1;
            }
        }
        GraphStats {
            num_vertices: n,
            num_edges: m,
            max_in_degree: max_in,
            max_out_degree: max_out,
            mean_degree: if n == 0 {
                0.0
            } else {
                2.0 * m as f64 / n as f64
            },
            low_degree_fraction: if n == 0 { 0.0 } else { low as f64 / n as f64 },
        }
    }
}

impl std::fmt::Display for GraphStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "|V|={} |E|={} max_in={} max_out={} mean_deg={:.2} low_deg_frac={:.3}",
            self.num_vertices,
            self.num_edges,
            self.max_in_degree,
            self.max_out_degree,
            self.mean_degree,
            self.low_degree_fraction
        )
    }
}

/// Least-squares fit `y = a + b·x`; returns `(intercept, slope)`. Fewer
/// than two points, or points that all share one `x`, fit a flat line
/// through the mean `y` (0 when there are none). Draws the trend lines of
/// Figs 5.3–5.5/6.1/6.2/8.3 and fits Fig 5.8's degree distributions.
pub fn linear_fit(points: &[(f64, f64)]) -> (f64, f64) {
    let n = points.len() as f64;
    if points.len() < 2 {
        return (points.first().map(|p| p.1).unwrap_or(0.0), 0.0);
    }
    let sx: f64 = points.iter().map(|p| p.0).sum();
    let sy: f64 = points.iter().map(|p| p.1).sum();
    let sxx: f64 = points.iter().map(|p| p.0 * p.0).sum();
    let sxy: f64 = points.iter().map(|p| p.0 * p.1).sum();
    let denom = n * sxx - sx * sx;
    if denom.abs() < 1e-12 {
        return (sy / n, 0.0);
    }
    let slope = (n * sxy - sx * sy) / denom;
    ((sy - slope * sx) / n, slope)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn linear_fit_recovers_exact_lines() {
        let rising: Vec<(f64, f64)> = (0..10).map(|i| (i as f64, 2.0 + 3.0 * i as f64)).collect();
        let (a, b) = linear_fit(&rising);
        assert!((a - 2.0).abs() < 1e-9);
        assert!((b - 3.0).abs() < 1e-9);
        let falling: Vec<(f64, f64)> = (1..10).map(|i| (i as f64, 3.0 - 2.0 * i as f64)).collect();
        let (intercept, slope) = linear_fit(&falling);
        assert!((slope + 2.0).abs() < 1e-9);
        assert!((intercept - 3.0).abs() < 1e-9);
    }

    #[test]
    fn degenerate_fits_are_flat() {
        assert_eq!(linear_fit(&[]), (0.0, 0.0));
        assert_eq!(linear_fit(&[(1.0, 2.0)]), (2.0, 0.0));
        // Vertical line.
        let (a, b) = linear_fit(&[(2.0, 1.0), (2.0, 3.0)]);
        assert_eq!(b, 0.0);
        assert!((a - 2.0).abs() < 1e-9);
    }

    #[test]
    fn stats_on_star_graph() {
        // Star: 0 -> 1..=4
        let g = EdgeList::from_pairs((1..=4).map(|i| (0, i)).collect());
        let s = GraphStats::compute(&g);
        assert_eq!(s.num_vertices, 5);
        assert_eq!(s.num_edges, 4);
        assert_eq!(s.max_out_degree, 4);
        assert_eq!(s.max_in_degree, 1);
        assert!((s.mean_degree - 8.0 / 5.0).abs() < 1e-12);
        // Leaves have degree 1, hub has degree 4 -> 4/5 low-degree.
        assert!((s.low_degree_fraction - 0.8).abs() < 1e-12);
    }

    #[test]
    fn stats_on_empty_graph_are_zero() {
        let s = GraphStats::compute(&EdgeList::default());
        assert_eq!(s.num_vertices, 0);
        assert_eq!(s.mean_degree, 0.0);
        assert_eq!(s.low_degree_fraction, 0.0);
    }

    #[test]
    fn display_mentions_counts() {
        let g = EdgeList::from_pairs(vec![(0, 1)]);
        let text = GraphStats::compute(&g).to_string();
        assert!(text.contains("|V|=2"));
        assert!(text.contains("|E|=1"));
    }
}
