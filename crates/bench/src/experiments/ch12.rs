//! Chapter 12 experiments — serving a partitioned graph under churn.
//!
//! The paper's pipeline ends when the job finishes; gp-serve asks what the
//! partitioning quality axes *cost* once the graph keeps changing and
//! queries keep arriving. Table 12.1 sweeps the churn rate against query
//! latency: every insert placed by a streaming rule and every delete's
//! refcount decay erode replication factor and balance, and tail latency
//! tracks the erosion. Table 12.2 sweeps the rebalance threshold: a tight
//! threshold repairs often and keeps queries on a balanced graph but pays
//! for each repair with a degraded window, a loose one serves steady but
//! increasingly skewed — the knob is a latency-vs-maintenance trade, not a
//! free parameter.

use gp_cluster::Table;
use gp_partition::Strategy;
use gp_serve::report::{Phase, QueryClass};
use gp_serve::{serve, DriftPolicy, ServeConfig, ServeReport, TrafficPlan, TrafficRates};

/// Churn multipliers swept in Table 12.1 (1.0 = the default 60 updates/s
/// per session against 90 queries/s).
pub const CHURN_SCALES: [f64; 4] = [0.0, 1.0, 4.0, 16.0];
/// Strategies served in Table 12.1: a hash baseline, the strongest greedy
/// heuristic, and the degree-differentiated hybrid.
pub const SERVE_STRATEGIES: [Strategy; 3] = [Strategy::Random, Strategy::Hdrf, Strategy::Hybrid];
/// Rebalance thresholds (max/mean edge imbalance) swept in Table 12.2.
pub const REBALANCE_THRESHOLDS: [f64; 5] = [1.01, 1.02, 1.05, 1.1, 1.5];

/// Serving horizon in simulated seconds.
const HORIZON_S: f64 = 20.0;
/// Concurrent traffic sessions.
const SESSIONS: u32 = 4;

fn serve_run(
    scale: f64,
    seed: u64,
    strategy: Strategy,
    rates: &TrafficRates,
    policy: DriftPolicy,
) -> ServeReport {
    // A scaled power-law base graph; ~80k edges at scale 1.
    let n = ((10_000.0 * scale) as u64).max(200);
    let g = gp_gen::barabasi_albert(n, 8, seed);
    let plan = TrafficPlan::generate(seed, g.num_vertices(), SESSIONS, HORIZON_S, rates);
    let mut cfg = ServeConfig::new(strategy);
    cfg.seed = seed;
    cfg.policy = policy;
    serve(&g, &plan, &cfg)
}

fn ms(h: Option<&gp_telemetry::Histogram>, q: f64) -> String {
    match h {
        Some(h) => format!("{:.3}", h.quantile(q) * 1e3),
        None => "-".to_string(),
    }
}

/// Table 12.1 — query latency vs churn rate.
///
/// Expectations: with zero churn the graph never drifts and no repair
/// fires; as churn grows, replication drifts upward for the greedy
/// strategies and the k-hop tail pays for the extra partition spread.
pub fn ch12_churn(scale: f64, seed: u64) -> Vec<Table> {
    let mut t = Table::new(
        "Table 12.1 — Query latency vs churn rate (Local-9, power-law base, \
         20 s horizon, 4 sessions; latencies in ms)",
        &[
            "Strategy",
            "Churn x",
            "state p50",
            "state p99",
            "khop2 p50",
            "khop2 p99",
            "final RF",
            "repairs",
        ],
    );
    for strategy in SERVE_STRATEGIES {
        for &churn in &CHURN_SCALES {
            let rates = TrafficRates::default().with_churn_scale(churn);
            let report = serve_run(scale, seed, strategy, &rates, DriftPolicy::default());
            let state = report.latency(QueryClass::State, Phase::Steady);
            let khop2 = report.latency(QueryClass::KHop2, Phase::Steady);
            t.row(vec![
                strategy.label().to_string(),
                format!("{churn}"),
                ms(state, 0.5),
                ms(state, 0.99),
                ms(khop2, 0.5),
                ms(khop2, 0.99),
                format!("{:.3}", report.final_rf),
                report.repairs.len().to_string(),
            ]);
        }
    }
    vec![t]
}

/// Table 12.2 — rebalance-threshold cost curve.
///
/// Random placement over a finite stream leaves a small stochastic
/// imbalance, so tight thresholds trip repeatedly while loose ones never
/// fire. Moving down the table: repairs and degraded queries fall, final
/// imbalance rises — the maintenance-vs-skew trade the threshold buys.
pub fn ch12_rebalance(scale: f64, seed: u64) -> Vec<Table> {
    let mut t = Table::new(
        "Table 12.2 — Rebalance-threshold cost curve (Random, Local-9, \
         default churn; latencies in ms)",
        &[
            "Threshold",
            "rebalances",
            "repair cost (s)",
            "degraded queries",
            "state p99 steady",
            "state p99 degraded",
            "final imbalance",
        ],
    );
    for &threshold in &REBALANCE_THRESHOLDS {
        let policy = DriftPolicy {
            max_imbalance: threshold,
            max_rf_growth: f64::INFINITY,
            min_gap_s: 2.0,
            check_every: 64,
        };
        let report = serve_run(
            scale,
            seed,
            Strategy::Random,
            &TrafficRates::default(),
            policy,
        );
        let degraded_queries: u64 = QueryClass::ALL
            .iter()
            .filter_map(|&c| report.latency(c, Phase::Degraded))
            .map(|h| h.count())
            .sum();
        // `+ 0.0` normalizes the empty sum (`-0.0`) so the cell prints
        // "0.000", not "-0.000".
        let cost: f64 = report.repairs.iter().map(|r| r.cost_s).sum::<f64>() + 0.0;
        t.row(vec![
            format!("{threshold}"),
            report.repair_count("rebalance").to_string(),
            format!("{cost:.3}"),
            degraded_queries.to_string(),
            ms(report.latency(QueryClass::State, Phase::Steady), 0.99),
            ms(report.latency(QueryClass::State, Phase::Degraded), 0.99),
            format!("{:.4}", report.final_imbalance),
        ]);
    }
    vec![t]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn churn_table_has_a_cell_per_strategy_and_scale() {
        let tables = ch12_churn(0.05, 7);
        assert_eq!(tables.len(), 1);
        assert_eq!(
            tables[0].rows().len(),
            SERVE_STRATEGIES.len() * CHURN_SCALES.len()
        );
        // Zero churn leaves nothing to drift: no repair fires.
        let zero = &tables[0].rows()[0];
        assert_eq!(zero[7], "0", "zero-churn row repaired: {zero:?}");
    }

    #[test]
    fn tighter_thresholds_never_repair_less() {
        let tables = ch12_rebalance(0.05, 7);
        let repairs: Vec<u64> = tables[0]
            .rows()
            .iter()
            .map(|r| r[1].parse().unwrap())
            .collect();
        assert!(
            repairs.windows(2).all(|w| w[0] >= w[1]),
            "repair counts not monotone over thresholds: {repairs:?}"
        );
    }
}
