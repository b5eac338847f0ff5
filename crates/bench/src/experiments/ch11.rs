//! Chapter 11 experiments — unreliable networks and straggler mitigation.
//!
//! The paper's clusters never drop a packet; gp-net extends the testbed with
//! the two protocols real deployments lean on. Table 11.1 sweeps a uniform
//! per-link loss rate against the ch5 strategy set: retransmissions are
//! priced per byte crossing a flaky receive window, so replication-heavy
//! strategies — which ship more bytes per superstep — pay proportionally
//! more, and the paper's replication-factor ordering reappears as a
//! *retransmit-traffic* ordering. Table 11.2 pits speculative re-execution
//! against PR 1's barrier-wait on a fixed straggler: launching a backup copy
//! of the slow machine's work on the least-loaded peer bounds the stall by
//! the clone's runtime instead of the straggler's slowdown factor.

use crate::experiments::ch10::pagerank_job;
use crate::experiments::ch5::PG_STRATEGIES;
use crate::experiments::{gb, secs};
use crate::pipeline::{Pipeline, Scenario};
use gp_cluster::Table;
use gp_engine::CommsConfig;
use gp_fault::{CheckpointPolicy, FaultEvent, FaultKind, FaultPlan};
use gp_partition::Strategy;

/// Per-link loss rates swept in Table 11.1 (0 = clean network).
pub const LOSS_RATES: [f64; 5] = [0.0, 0.02, 0.05, 0.1, 0.2];
/// Supersteps the sweep runs (PageRank iterations = flaky-window horizon).
const HORIZON: u32 = 20;

fn lossy_job(strategy: Strategy, loss: f64) -> Scenario {
    let job = pagerank_job(strategy, HORIZON);
    let flaky = FaultPlan::uniform_flaky(loss, job.spec.machines, HORIZON);
    job.with_faults(flaky, CheckpointPolicy::disabled())
        .with_comms(CommsConfig::reliable())
}

/// Table 11.1 — wall clock and retransmit traffic vs uniform loss rate.
///
/// The acceptance check of the network model: wall clock is monotone
/// non-decreasing in the loss rate for every strategy, and at a fixed loss
/// rate the retransmitted bytes are ordered by each strategy's replication
/// factor (more mirrors → more bytes exposed to the flaky windows).
pub fn ch11_netloss(scale: f64, seed: u64) -> Vec<Table> {
    let mut pipeline = Pipeline::new(scale, seed);
    let mut headers = vec!["Strategy".to_string(), "RF".to_string()];
    headers.extend(LOSS_RATES.iter().map(|p| format!("p={p} [wall s]")));
    headers.push(format!("Retransmit @{}", LOSS_RATES[4]));
    headers.push(format!("Timeout stall @{} (s)", LOSS_RATES[4]));
    let header_refs: Vec<&str> = headers.iter().map(|s| s.as_str()).collect();
    let mut t = Table::new(
        "Table 11.1 — Wall clock vs uniform packet-loss rate (PowerGraph, EC2-16, \
         UK-Web, PageRank(20), reliable delivery with capped exponential backoff)",
        &header_refs,
    );
    for strategy in PG_STRATEGIES {
        let jobs = pipeline.run_all(&LOSS_RATES.map(|loss| lossy_job(strategy, loss)));
        let mut row = vec![
            strategy.label().to_string(),
            format!("{:.2}", jobs[0].replication_factor),
        ];
        row.extend(jobs.iter().map(|job| secs(job.compute_seconds)));
        let worst = &jobs[LOSS_RATES.len() - 1];
        row.push(gb(worst.retransmit_bytes));
        row.push(format!("{:.2}", worst.retry_timeout_seconds));
        t.row(row);
    }
    vec![t]
}

/// The straggler scenario of Table 11.2: one machine computes 10x slower for
/// three supersteps in the middle of the job.
fn straggler_plan() -> FaultPlan {
    let mut plan = FaultPlan::none();
    plan.push(FaultEvent {
        superstep: 5,
        machine: 0,
        kind: FaultKind::Straggler {
            factor: 10.0,
            duration_steps: 3,
        },
    });
    plan
}

fn straggler_job(strategy: Strategy, comms: CommsConfig) -> Scenario {
    pagerank_job(strategy, HORIZON)
        .with_faults(straggler_plan(), CheckpointPolicy::disabled())
        .with_comms(comms)
}

/// Table 11.2 — speculative re-execution vs barrier-wait on a straggler.
///
/// The acceptance check of the speculation model: with the same straggler
/// plan, enabling speculation strictly reduces wall clock versus waiting at
/// the barrier (PR 1's only option), while never beating the clean run —
/// the saving is capped by the straggler's own penalty.
pub fn ch11_speculation(scale: f64, seed: u64) -> Vec<Table> {
    let mut pipeline = Pipeline::new(scale, seed);
    let mut t = Table::new(
        "Table 11.2 — Speculative straggler mitigation (PowerGraph, EC2-16, UK-Web, \
         PageRank(20), machine 0 computes 10x slower for supersteps 5-7)",
        &[
            "Strategy",
            "RF",
            "Clean wall (s)",
            "Barrier-wait wall (s)",
            "Speculative wall (s)",
            "Saved (s)",
            "Clones",
            "Residual overhead",
        ],
    );
    for strategy in PG_STRATEGIES {
        let clean = pipeline.run(&pagerank_job(strategy, HORIZON));
        let wait = pipeline.run(&straggler_job(strategy, CommsConfig::disabled()));
        let speculative = CommsConfig::disabled().with_speculation(true);
        let spec = pipeline.run(&straggler_job(strategy, speculative));
        t.row(vec![
            strategy.label().to_string(),
            format!("{:.2}", spec.replication_factor),
            secs(clean.compute_seconds),
            secs(wait.compute_seconds),
            secs(spec.compute_seconds),
            format!("{:.2}", spec.speculation_saved_seconds),
            spec.speculative_clones.to_string(),
            format!(
                "{:.2}x",
                spec.compute_seconds / clean.compute_seconds.max(1e-12)
            ),
        ]);
    }
    vec![t]
}

#[cfg(test)]
mod tests {
    use super::*;
    use gp_core::units::{parse_scaled, SizeUnit};

    #[test]
    fn wall_clock_is_monotone_in_loss_rate_for_every_strategy() {
        let tables = ch11_netloss(0.05, 7);
        assert_eq!(tables.len(), 1);
        let t = &tables[0];
        assert_eq!(t.len(), PG_STRATEGIES.len());
        for row in t.rows() {
            // Columns 2..2+LOSS_RATES.len() are the wall clocks.
            let walls: Vec<f64> = (2..2 + LOSS_RATES.len())
                .map(|i| row[i].parse().unwrap())
                .collect();
            for w in walls.windows(2) {
                assert!(
                    w[0] <= w[1] + 1e-9,
                    "wall must not decrease with loss for {}: {walls:?}",
                    row[0]
                );
            }
            assert!(
                walls[0] < walls[LOSS_RATES.len() - 1],
                "wall must strictly grow from p=0 to p=0.2 for {}",
                row[0]
            );
        }
    }

    #[test]
    fn retransmit_traffic_is_ordered_by_replication_factor() {
        let tables = ch11_netloss(0.05, 7);
        let t = &tables[0];
        let retrans_col = 2 + LOSS_RATES.len();
        let mut points: Vec<(f64, f64)> = t
            .rows()
            .iter()
            .map(|r| {
                let rf: f64 = r[1].parse().unwrap();
                let bytes = parse_scaled(&r[retrans_col], SizeUnit::Binary).unwrap();
                (rf, bytes)
            })
            .collect();
        points.sort_by(|a, b| a.0.total_cmp(&b.0));
        for i in 0..points.len() {
            for j in i + 1..points.len() {
                if points[j].0 > points[i].0 * 1.05 {
                    assert!(
                        points[j].1 > points[i].1,
                        "retransmit bytes must follow RF: {points:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn speculation_strictly_beats_barrier_wait() {
        let tables = ch11_speculation(0.05, 7);
        assert_eq!(tables.len(), 1);
        for row in tables[0].rows() {
            let clean: f64 = row[2].parse().unwrap();
            let wait: f64 = row[3].parse().unwrap();
            let spec: f64 = row[4].parse().unwrap();
            let clones: u32 = row[6].parse().unwrap();
            assert!(clones > 0, "backup tasks should launch for {}", row[0]);
            assert!(
                spec < wait,
                "speculation must strictly beat barrier-wait for {}: {spec} vs {wait}",
                row[0]
            );
            assert!(
                spec >= clean - 1e-9,
                "speculation can never beat the clean run for {}",
                row[0]
            );
        }
    }
}
