//! # gp-bench — the experiment harness
//!
//! One [`Pipeline`] call runs the paper's full measurement pipeline for a
//! (dataset, strategy, cluster, application, engine) combination: generate
//! the dataset analogue, stream it through the strategy, price the ingress,
//! execute the application on the selected engine, and collect every §4.3
//! metric. The [`experiments`] module regenerates each table and figure of
//! the paper from these jobs; the `experiments` binary prints them.

pub mod charts;
pub mod experiments;
pub mod pipeline;

pub use pipeline::{App, Deployment, EngineKind, JobResult, Pipeline, Scenario};

/// Least-squares fit `y = a + b·x`; returns `(intercept, slope)`. Used to
/// draw the trend lines of Figs 5.3–5.5/6.1/6.2/8.3.
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

/// Pearson correlation coefficient of a point set. The paper's linearity
/// claims (Figs 5.3–5.5) are checked against this in the integration tests.
pub fn pearson(points: &[(f64, f64)]) -> f64 {
    let n = points.len() as f64;
    if points.len() < 2 {
        return 0.0;
    }
    let mx = points.iter().map(|p| p.0).sum::<f64>() / n;
    let my = points.iter().map(|p| p.1).sum::<f64>() / n;
    let mut cov = 0.0;
    let mut vx = 0.0;
    let mut vy = 0.0;
    for (x, y) in points {
        cov += (x - mx) * (y - my);
        vx += (x - mx) * (x - mx);
        vy += (y - my) * (y - my);
    }
    if vx <= 0.0 || vy <= 0.0 {
        0.0
    } else {
        cov / (vx * vy).sqrt()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn linear_fit_recovers_line() {
        let pts: Vec<(f64, f64)> = (0..10).map(|i| (i as f64, 2.0 + 3.0 * i as f64)).collect();
        let (a, b) = linear_fit(&pts);
        assert!((a - 2.0).abs() < 1e-9);
        assert!((b - 3.0).abs() < 1e-9);
    }

    #[test]
    fn pearson_is_one_for_perfect_lines() {
        let pts: Vec<(f64, f64)> = (0..10).map(|i| (i as f64, 5.0 - 2.0 * i as f64)).collect();
        assert!((pearson(&pts) + 1.0).abs() < 1e-9);
    }

    #[test]
    fn degenerate_inputs_do_not_panic() {
        assert_eq!(linear_fit(&[]), (0.0, 0.0));
        assert_eq!(pearson(&[(1.0, 1.0)]), 0.0);
        // Vertical line.
        let (a, b) = linear_fit(&[(2.0, 1.0), (2.0, 3.0)]);
        assert_eq!(b, 0.0);
        assert!((a - 2.0).abs() < 1e-9);
    }
}
