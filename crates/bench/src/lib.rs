//! # gp-bench — the experiment harness
//!
//! One [`Pipeline`] call runs the paper's full measurement pipeline for a
//! (dataset, strategy, cluster, application, engine) combination: generate
//! the dataset analogue, stream it through the strategy, price the ingress,
//! execute the application on the selected engine, and collect every §4.3
//! metric. The [`experiments`] module regenerates each table and figure of
//! the paper from these jobs; `distgraph experiments` prints them.

pub mod charts;
pub mod experiments;
pub mod pipeline;

pub use pipeline::{App, Deployment, EngineKind, JobResult, Pipeline, Scenario};

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
    fn pearson_is_one_for_perfect_lines() {
        let pts: Vec<(f64, f64)> = (0..10).map(|i| (i as f64, 5.0 - 2.0 * i as f64)).collect();
        assert!((pearson(&pts) + 1.0).abs() < 1e-9);
    }

    #[test]
    fn degenerate_inputs_do_not_panic() {
        assert_eq!(pearson(&[(1.0, 1.0)]), 0.0);
    }
}
