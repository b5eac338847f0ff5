//! Degree-distribution analysis: the Fig 5.8 log-log regression and the
//! three-way graph classification that drives every decision tree.
//!
//! §5.4.2 of the paper explains the key discriminator: plot in-degree
//! frequency on log-log axes and fit a power-law regression line. Twitter and
//! LiveJournal have *fewer* low-degree vertices than the line predicts
//! (heavy-tailed), UK-web matches/exceeds it (power-law), and road networks
//! have no tail at all (low-degree). We reproduce that test directly.

use gp_core::EdgeList;

/// The paper's three-way graph taxonomy (Table 4.2 "Type" column).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum GraphClass {
    /// Bounded degree, large diameter (road networks).
    LowDegree,
    /// Skewed distribution with a depleted low-degree head (social networks).
    HeavyTailed,
    /// Skewed distribution with the full low-degree head (web graphs).
    PowerLaw,
}

impl std::fmt::Display for GraphClass {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            GraphClass::LowDegree => "low-degree",
            GraphClass::HeavyTailed => "heavy-tailed",
            GraphClass::PowerLaw => "power-law",
        };
        f.write_str(s)
    }
}

/// Result of analyzing a graph's in-degree distribution.
#[derive(Debug, Clone)]
pub struct DegreeAnalysis {
    /// Histogram: `histogram[d] = number of vertices with in-degree d`
    /// (index 0 = degree 0). Truncated at the max in-degree.
    pub histogram: Vec<u64>,
    /// Fitted log-log slope of `count(d) ~ C * d^slope` over the mid-range
    /// (negative for skewed graphs; steepness ~ the power-law exponent).
    pub slope: f64,
    /// Fitted log-log intercept (`ln C`).
    pub intercept: f64,
    /// Ratio of *observed* to *regression-predicted* vertex count at low
    /// degrees (d in 1..=2). `< 1` means the low-degree head is depleted
    /// (heavy-tailed); `>= 1` means the head is full (power-law).
    pub low_degree_residual: f64,
    /// Maximum in-degree observed.
    pub max_in_degree: u32,
    /// Mean total degree.
    pub mean_degree: f64,
}

impl DegreeAnalysis {
    /// Analyze a graph's in-degree distribution.
    pub fn of(graph: &EdgeList) -> Self {
        let degrees = graph.degrees();
        let max_in = degrees.max_in_degree();
        let mut histogram = vec![0u64; max_in as usize + 1];
        for d in degrees.in_degrees() {
            histogram[d as usize] += 1;
        }
        // Fit ln(count) = intercept + slope * ln(d) over degrees with nonzero
        // counts, excluding d = 0 (log-undefined) and the extreme tail where
        // counts are 1 and noisy. Use logarithmic binning weights implicitly
        // by fitting on raw (d, count) points, which matches the simple
        // regression shown in Fig 5.8.
        let points: Vec<(f64, f64)> = histogram
            .iter()
            .enumerate()
            .skip(1)
            .filter(|(_, &c)| c > 0)
            .map(|(d, &c)| ((d as f64).ln(), (c as f64).ln()))
            .collect();
        let (intercept, slope) = gp_core::stats::linear_fit(&points);
        // Observed vs predicted mass at degree 1..=2.
        let observed: f64 = histogram.iter().skip(1).take(2).map(|&c| c as f64).sum();
        let predicted: f64 = (1..=2u32)
            .map(|d| (intercept + slope * (d as f64).ln()).exp())
            .sum();
        let low_degree_residual = if predicted > 0.0 {
            observed / predicted
        } else {
            0.0
        };
        let n = graph.num_vertices();
        DegreeAnalysis {
            histogram,
            slope,
            intercept,
            low_degree_residual,
            max_in_degree: max_in,
            mean_degree: if n == 0 {
                0.0
            } else {
                2.0 * graph.num_edges() as f64 / n as f64
            },
        }
    }

    /// Log-binned (degree, count) series for plotting — the Fig 5.8 series.
    pub fn log_binned(&self) -> Vec<(u32, u64)> {
        let mut out = Vec::new();
        let mut d = 1usize;
        while d < self.histogram.len() {
            let hi = (d * 2).min(self.histogram.len());
            let count: u64 = self.histogram[d..hi].iter().sum();
            if count > 0 {
                out.push((d as u32, count));
            }
            d = hi;
        }
        out
    }
}

/// Classify a graph into the paper's taxonomy.
///
/// Thresholds: a graph whose max in-degree is small (≤ 64) and whose mean
/// degree is modest is **low-degree** — road networks top out at degree 12.
/// Otherwise the split is on the Fig 5.8 residual test: depleted low-degree
/// head ⇒ **heavy-tailed**, full head ⇒ **power-law**.
pub fn classify(graph: &EdgeList) -> GraphClass {
    classify_analysis(&DegreeAnalysis::of(graph))
}

/// Classification from a precomputed analysis (cheaper when the analysis is
/// also being reported).
pub fn classify_analysis(a: &DegreeAnalysis) -> GraphClass {
    if a.max_in_degree <= 64 && a.mean_degree <= 16.0 {
        GraphClass::LowDegree
    } else if a.low_degree_residual < 0.5 {
        GraphClass::HeavyTailed
    } else {
        GraphClass::PowerLaw
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::*;

    #[test]
    fn road_network_classifies_low_degree() {
        let g = road_network(
            &RoadNetworkParams {
                width: 60,
                height: 60,
                ..Default::default()
            },
            1,
        );
        assert_eq!(classify(&g), GraphClass::LowDegree);
    }

    #[test]
    fn barabasi_albert_classifies_heavy_tailed() {
        let g = barabasi_albert(30_000, 10, 2);
        let a = DegreeAnalysis::of(&g);
        assert_eq!(
            classify_analysis(&a),
            GraphClass::HeavyTailed,
            "residual {}",
            a.low_degree_residual
        );
    }

    #[test]
    fn rmat_classifies_power_law() {
        let g = rmat(&RmatParams::web_graph(15, 400_000), 3);
        let a = DegreeAnalysis::of(&g);
        assert_eq!(
            classify_analysis(&a),
            GraphClass::PowerLaw,
            "residual {}",
            a.low_degree_residual
        );
    }

    #[test]
    fn skewed_graphs_have_negative_slope() {
        let g = rmat(&RmatParams::web_graph(14, 150_000), 5);
        let a = DegreeAnalysis::of(&g);
        assert!(a.slope < -0.5, "slope {}", a.slope);
    }

    #[test]
    fn histogram_sums_to_vertex_count() {
        let g = barabasi_albert(5_000, 4, 7);
        let a = DegreeAnalysis::of(&g);
        let total: u64 = a.histogram.iter().sum();
        assert_eq!(total, g.num_vertices());
    }

    #[test]
    fn log_binned_preserves_total_nonzero_degree_mass() {
        let g = rmat(&RmatParams::web_graph(12, 40_000), 9);
        let a = DegreeAnalysis::of(&g);
        let binned_total: u64 = a.log_binned().iter().map(|&(_, c)| c).sum();
        let direct_total: u64 = a.histogram.iter().skip(1).sum();
        assert_eq!(binned_total, direct_total);
    }

    #[test]
    fn empty_graph_analysis_does_not_panic() {
        let a = DegreeAnalysis::of(&gp_core::EdgeList::default());
        assert_eq!(a.max_in_degree, 0);
    }

    #[test]
    fn display_names_match_paper_vocabulary() {
        assert_eq!(GraphClass::LowDegree.to_string(), "low-degree");
        assert_eq!(GraphClass::HeavyTailed.to_string(), "heavy-tailed");
        assert_eq!(GraphClass::PowerLaw.to_string(), "power-law");
    }
}
