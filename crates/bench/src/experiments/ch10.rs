//! Chapter 10 experiments — fault injection, checkpointing and recovery.
//!
//! The paper measures failure-free executions; gp-fault extends the testbed
//! with the question operators actually face: *when a machine dies, how much
//! does each partitioning strategy pay to come back?* Recovery re-fetches the
//! dead machine's partitions — every edge it held plus one vertex image per
//! replica — so recovery traffic grows with the replication factor the
//! strategy produced, while checkpoints trade steady-state stall time against
//! shorter rollbacks.

use crate::experiments::ch5::PG_STRATEGIES;
use crate::experiments::{gb, secs};
use crate::pipeline::{App, EngineKind, Pipeline, Scenario};
use gp_cluster::{ClusterSpec, Table};
use gp_fault::{recovery_cost, CheckpointPolicy, FaultPlan};
use gp_gen::Dataset;
use gp_partition::Strategy;

/// The machine killed in the single-crash scenario.
const DEAD_MACHINE: u32 = 0;
/// Superstep at which the single-crash scenario strikes.
const CRASH_STEP: u32 = 10;

/// The job chapters 10 and 11 perturb: PageRank(`steps`) on UK-web / EC2-16
/// under PowerGraph.
pub fn pagerank_job(strategy: Strategy, steps: u32) -> Scenario {
    let (spec, app) = (ClusterSpec::ec2_16(), App::PageRankFixed(steps));
    Scenario::new(Dataset::UkWeb, strategy, &spec, EngineKind::PowerGraph, app)
}

/// The single-crash scenario for one strategy: PageRank(20) with one crash
/// at superstep [`CRASH_STEP`], checkpoint every 4 steps.
fn crash_job(strategy: Strategy) -> Scenario {
    let crash = FaultPlan::crash_at(CRASH_STEP, DEAD_MACHINE);
    pagerank_job(strategy, 20).with_faults(crash, CheckpointPolicy::every(4))
}

/// Table 10.1 — recovery cost by strategy after a single machine crash.
///
/// The acceptance check of the fault model: refetch traffic (and hence
/// recovery time) is ordered by the replication factor each strategy left on
/// the dead machine, on top of a near-constant edge-reload term.
pub fn ch10_recovery(scale: f64, seed: u64) -> Vec<Table> {
    let mut pipeline = Pipeline::new(scale, seed);
    let spec = ClusterSpec::ec2_16();
    let mut t = Table::new(
        "Table 10.1 — Single-crash recovery by strategy (PowerGraph, EC2-16, UK-Web, \
         PageRank(20), crash at superstep 10, checkpoint every 4)",
        &[
            "Strategy",
            "RF",
            "Refetch (GB)",
            "Recovery (s)",
            "Replayed steps",
            "Checkpoint I/O (GB)",
            "Clean wall (s)",
            "Faulted wall (s)",
            "Overhead",
        ],
    );
    for strategy in PG_STRATEGIES {
        let clean = pipeline.run(&pagerank_job(strategy, 20));
        let faulted = pipeline.run(&crash_job(strategy));
        let partitions = EngineKind::PowerGraph.partitions(&spec);
        let outcome = pipeline.partition(Dataset::UkWeb, strategy, partitions, spec.machines);
        let rc = recovery_cost(&outcome.assignment, DEAD_MACHINE, &spec);
        t.row(vec![
            strategy.label().to_string(),
            format!("{:.2}", faulted.replication_factor),
            gb(rc.refetch_bytes),
            format!("{:.2}", faulted.recovery_seconds),
            faulted.supersteps_replayed.to_string(),
            gb(faulted.checkpoint_bytes),
            secs(clean.compute_seconds),
            secs(faulted.compute_seconds),
            format!(
                "{:.2}x",
                faulted.compute_seconds / clean.compute_seconds.max(1e-12)
            ),
        ]);
    }
    vec![t]
}

/// Checkpoint intervals swept in Table 10.2 (0 = checkpointing off).
const INTERVALS: [u32; 6] = [0, 1, 2, 4, 8, 16];
/// Per-machine per-superstep crash probabilities swept in Table 10.2.
const CRASH_RATES: [f64; 3] = [0.0, 0.01, 0.03];
/// Supersteps the interval sweep runs (PageRank iterations = fault horizon).
const HORIZON: u32 = 20;

/// A swept checkpoint interval as Tables 10.2/10.3 print it.
fn interval_label(interval: u32) -> String {
    if interval == 0 {
        "off".to_string()
    } else {
        interval.to_string()
    }
}

/// Table 10.2 — wall clock vs checkpoint interval under random crashes, and
/// Table 10.3 — Young's optimal interval vs the empirically best one.
pub fn ch10_interval(scale: f64, seed: u64) -> Vec<Table> {
    let mut pipeline = Pipeline::new(scale, seed);
    let spec = ClusterSpec::ec2_16();
    let strategy = Strategy::Hdrf;
    let mut headers = vec!["Interval".to_string()];
    headers.extend(CRASH_RATES.iter().map(|r| format!("p={r} [wall s]")));
    let header_refs: Vec<&str> = headers.iter().map(|s| s.as_str()).collect();
    let mut sweep = Table::new(
        "Table 10.2 — Wall clock vs checkpoint interval under random crashes \
         (PowerGraph, EC2-16, UK-Web, PageRank(20), HDRF; interval 0 = off)",
        &header_refs,
    );
    // walls[rate_index][interval_index]
    let mut walls = vec![Vec::new(); CRASH_RATES.len()];
    for &interval in &INTERVALS {
        let mut row = vec![interval_label(interval)];
        for (ri, &rate) in CRASH_RATES.iter().enumerate() {
            // Same seed for every interval: the crash schedule is held fixed
            // so the interval is the only variable.
            let plan = FaultPlan::random_crashes(seed, &spec, HORIZON, rate);
            let policy = CheckpointPolicy::every(interval); // 0 disables
            let job = pipeline.run(&pagerank_job(strategy, HORIZON).with_faults(plan, policy));
            walls[ri].push(job.compute_seconds);
            row.push(secs(job.compute_seconds));
        }
        sweep.row(row);
    }

    // Young's approximation needs the checkpoint cost and the MTBF in
    // superstep units; both come from the clean run's mean superstep wall.
    let clean = &walls[0];
    let mean_step_s = clean[0] / HORIZON as f64;
    // Cost of one checkpoint in steps: marginal stall of interval-1
    // checkpointing over the uncheckpointed clean run, per checkpoint.
    let ckpt_cost_steps = (clean[1] - clean[0]) / HORIZON as f64 / mean_step_s.max(1e-12);
    let mut optimal = Table::new(
        "Table 10.3 — Young's optimal checkpoint interval vs swept best",
        &[
            "Crash rate",
            "MTBF (steps)",
            "Ckpt cost (steps)",
            "Young k*",
            "Best swept k",
        ],
    );
    for (ri, &rate) in CRASH_RATES.iter().enumerate() {
        if rate == 0.0 {
            continue;
        }
        let mtbf_steps = 1.0 / (rate * spec.machines as f64);
        let young = CheckpointPolicy::optimal_interval(ckpt_cost_steps, mtbf_steps);
        let best = INTERVALS
            .iter()
            .zip(&walls[ri])
            .min_by(|a, b| a.1.total_cmp(b.1))
            .map(|(&k, _)| k)
            .unwrap_or(0);
        optimal.row(vec![
            format!("{rate}"),
            format!("{mtbf_steps:.1}"),
            format!("{ckpt_cost_steps:.3}"),
            young.to_string(),
            interval_label(best),
        ]);
    }
    vec![sweep, optimal]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recovery_cost_is_ordered_by_replication_factor() {
        let tables = ch10_recovery(0.05, 7);
        assert_eq!(tables.len(), 1);
        let t = &tables[0];
        assert_eq!(t.len(), PG_STRATEGIES.len());
        // Columns: 1 = RF, 3 = recovery seconds.
        let mut points: Vec<(f64, f64)> = t
            .rows()
            .iter()
            .map(|r| (r[1].parse().unwrap(), r[3].parse().unwrap()))
            .collect();
        points.sort_by(|a, b| a.0.total_cmp(&b.0));
        // Ordered by RF: whenever two strategies' RFs are meaningfully apart
        // (>5%), the higher-RF one must pay more. Near-ties may invert via
        // the (small) edge-balance term of the refetch.
        for i in 0..points.len() {
            for j in i + 1..points.len() {
                if points[j].0 > points[i].0 * 1.05 {
                    assert!(
                        points[j].1 > points[i].1,
                        "recovery time must follow RF: {points:?}"
                    );
                }
            }
        }
        assert!(
            points.last().unwrap().1 > points.first().unwrap().1,
            "the highest-RF strategy must pay strictly more than the lowest"
        );
    }

    #[test]
    fn crash_overhead_is_positive_for_every_strategy() {
        let tables = ch10_recovery(0.05, 7);
        for row in tables[0].rows() {
            let replayed: u32 = row[4].parse().unwrap();
            assert!(
                replayed > 0,
                "crash at step 10 must force replay for {}",
                row[0]
            );
            let overhead: f64 = row[8].trim_end_matches('x').parse().unwrap();
            assert!(overhead > 1.0, "faulted run must be slower for {}", row[0]);
        }
    }

    #[test]
    fn interval_sweep_shapes_and_clean_column_is_flat_without_checkpoints() {
        let tables = ch10_interval(0.05, 7);
        assert_eq!(tables.len(), 2);
        let sweep = &tables[0];
        assert_eq!(sweep.len(), INTERVALS.len());
        // At rate 0 with checkpointing off the wall equals the clean run;
        // every enabled interval only adds stall time.
        let clean: Vec<f64> = sweep.rows().iter().map(|r| r[1].parse().unwrap()).collect();
        for (i, &w) in clean.iter().enumerate().skip(1) {
            assert!(
                w >= clean[0],
                "checkpointing cannot be faster than off at rate 0 (interval row {i})"
            );
        }
        // Denser checkpoints cost more stall when nothing fails.
        assert!(
            clean[1] >= clean[5],
            "interval 1 stalls at least as much as interval 16"
        );
        let optimal = &tables[1];
        assert_eq!(
            optimal.len(),
            CRASH_RATES.iter().filter(|&&r| r > 0.0).count()
        );
        for row in optimal.rows() {
            let young: u32 = row[3].parse().unwrap();
            assert!(young >= 1);
        }
    }
}
