//! Chapter 13 experiments — elastic clusters: mid-job scale-out, spot
//! preemption, and multi-tenant scheduling.
//!
//! The paper's cluster is fixed for the life of a job; gp-elastic asks what
//! each partitioning strategy costs once the cluster itself moves. Table
//! 13.1 prices the scale-out dilemma: machines join mid-job, and the job
//! either re-partitions onto the wider cluster (paying a full re-ingress
//! priced through `CostRates`) or rides the old assignment at degraded
//! balance. Which side wins depends on how much work remains *and* how much
//! replicated state the strategy would have to rebuild — the crossover the
//! `RepairPolicy` navigates. Table 13.2 runs two jobs against one cluster
//! under FIFO and fair-share scheduling. Table 13.3 sweeps the spot
//! preemption warning window: with enough warning the dying machine's
//! masters evacuate to surviving replicas, below the threshold the job
//! falls back to checkpoint recovery and replay.

use crate::{App, EngineKind, JobResult, Pipeline, Scenario};
use gp_cluster::{ClusterSpec, Table};
use gp_elastic::{
    ElasticConfig, ElasticPlan, RepairPolicy, SchedulePolicy, TenantJob, TenantScheduler,
};
use gp_fault::{CheckpointPolicy, FaultPlan};
use gp_gen::Dataset;
use gp_partition::Strategy;
use gp_telemetry::TelemetrySink;

/// Strategies compared in Table 13.1 — a hash baseline, a grid heuristic
/// and the strongest greedy heuristic, spanning the replication-factor
/// range that drives re-ingress cost apart.
pub const ELASTIC_STRATEGIES: [Strategy; 3] = [Strategy::Random, Strategy::Grid, Strategy::Hdrf];
/// Applications compared in Table 13.1: a long fixed-step job (lots of
/// post-event work to accelerate) and a short traversal (little left to
/// win back).
pub const ELASTIC_APPS: [App; 2] = [App::PageRankFixed(30), App::Wcc];
/// Warning windows (supersteps) swept in Table 13.3.
pub const WARNING_WINDOWS: [u32; 5] = [0, 1, 2, 4, 8];

/// Superstep at which the scale-out lands (early: most work remains).
const SCALE_OUT_STEP: u32 = 2;
/// Machines joining at the scale-out — a full cluster doubling, the spot
/// market's feast to match Table 13.3's famine.
const SCALE_OUT_K: u32 = 9;
/// Superstep at which the spot instance is reclaimed.
const PREEMPT_STEP: u32 = 5;
/// Machine reclaimed in Table 13.3.
const PREEMPT_MACHINE: u32 = 2;

/// [`App::label`] names the paper's figure series ("PageRank(10)" for any
/// fixed count); chapter 13 sweeps a non-paper step count, so spell it out.
fn app_label(app: App) -> String {
    match app {
        App::PageRankFixed(n) => format!("PageRank({n})"),
        other => other.label().to_string(),
    }
}

/// Table 13.1 + 13.2 — the scale-out dilemma and tenant scheduling.
///
/// Expectations for 13.1: with most of a long job ahead of the event,
/// re-partitioning amortizes and wins; for short jobs (or high-RF
/// strategies whose mirror state is expensive to rebuild) riding the old
/// assignment wins. The cost-based policy should land on the cheap side of
/// each row.
pub fn ch13_elasticity(scale: f64, seed: u64) -> Vec<Table> {
    let spec = ClusterSpec::local_9();
    let mut p = Pipeline::new(scale, seed);
    let mut t = Table::new(
        format!(
            "Table 13.1 — Scale-out at superstep {SCALE_OUT_STEP} (+{SCALE_OUT_K} machines, \
             LiveJournal, Local-9, PowerGraph): ride vs re-partition"
        ),
        &[
            "Strategy",
            "App",
            "RF",
            "Ride (s)",
            "Re-partition (s)",
            "Re-ingress (s)",
            "Winner",
            "Cost-based picks",
        ],
    );
    let scale_out = ElasticConfig::new(ElasticPlan::scale_out_at(SCALE_OUT_STEP, SCALE_OUT_K));
    let repairs = [
        RepairPolicy::NeverRepartition,
        RepairPolicy::AlwaysRepartition,
        RepairPolicy::default(),
    ];
    let mut jobs = Vec::new();
    for strategy in ELASTIC_STRATEGIES {
        for app in ELASTIC_APPS {
            let job = Scenario::new(
                Dataset::LiveJournal,
                strategy,
                &spec,
                EngineKind::PowerGraph,
                app,
            );
            for repair in &repairs {
                let elastic = scale_out.clone().with_repair(repair.clone());
                jobs.push(job.clone().with_elastic(elastic));
            }
        }
    }
    let results = p.run_all(&jobs);
    for (job, runs) in jobs.chunks(3).zip(results.chunks(3)) {
        let (job, ride, repart, cost_based) = (&job[0], &runs[0], &runs[1], &runs[2]);
        let winner = if repart.compute_seconds < ride.compute_seconds {
            "re-partition"
        } else {
            "ride"
        };
        let picked = if cost_based.reingress_seconds > 0.0 {
            "re-partition"
        } else {
            "ride"
        };
        t.row(vec![
            job.strategy.label().to_string(),
            app_label(job.app),
            format!("{:.2}", ride.replication_factor),
            format!("{:.1}", ride.compute_seconds),
            format!("{:.1}", repart.compute_seconds),
            format!("{:.1}", repart.reingress_seconds),
            winner.to_string(),
            picked.to_string(),
        ]);
    }
    vec![t, tenant_table(&mut p, &spec)]
}

/// Table 13.2 — two tenants, one cluster: FIFO vs fair-share.
///
/// Both jobs' per-superstep walls and traffic come from solo pipeline runs;
/// the scheduler then interleaves them, pricing the shared network through
/// the gp-net retry model. Fair-share cuts the second tenant's wait but
/// every concurrently-running superstep pays contention.
fn tenant_table(p: &mut Pipeline, spec: &ClusterSpec) -> Table {
    let job = |s, app| Scenario::new(Dataset::LiveJournal, s, spec, EngineKind::PowerGraph, app);
    let solo = p.run_all(&[
        job(Strategy::Grid, App::PageRankFixed(12)),
        job(Strategy::Hdrf, App::Wcc),
    ]);
    // The short job arrives once the long one is a couple of supersteps in.
    let arrival = solo[0].cumulative_seconds.get(1).copied().unwrap_or(0.0);
    let jobs = [
        tenant_job("pagerank", 0.0, &solo[0]),
        tenant_job("wcc", arrival, &solo[1]),
    ];
    let mut t = Table::new(
        "Table 13.2 — Two tenants on Local-9 (PageRank(12)@Grid + WCC@HDRF): \
         FIFO vs fair-share",
        &[
            "Policy",
            "Job",
            "Start (s)",
            "Finish (s)",
            "Wait (s)",
            "Interference (s)",
            "Makespan (s)",
        ],
    );
    for policy in [SchedulePolicy::Fifo, SchedulePolicy::FairShare] {
        let report =
            TenantScheduler::new(spec.clone(), policy).run(&jobs, &TelemetrySink::Disabled);
        for o in &report.outcomes {
            t.row(vec![
                policy.label().to_string(),
                o.name.clone(),
                format!("{:.1}", o.start_s),
                format!("{:.1}", o.finish_s),
                format!("{:.1}", o.wait_seconds),
                format!("{:.1}", o.interference_seconds),
                format!("{:.1}", report.makespan_s),
            ]);
        }
    }
    t
}

/// A tenant job whose step walls and per-step traffic replay a solo
/// pipeline run.
pub fn tenant_job(name: &str, arrival_s: f64, solo: &JobResult) -> TenantJob {
    let mut walls = Vec::with_capacity(solo.cumulative_seconds.len());
    let mut prev = 0.0;
    for &c in &solo.cumulative_seconds {
        walls.push(c - prev);
        prev = c;
    }
    let per_step = solo.mean_net_in_bytes / (solo.supersteps.max(1) as f64);
    let bytes = vec![per_step; walls.len()];
    TenantJob::new(name, arrival_s, walls, bytes)
}

/// Table 13.3 — spot preemption: wall clock vs warning-window length.
///
/// Expectations: with no warning the strike degenerates to checkpoint
/// recovery (rollback + replay); once the window covers the master
/// evacuation transfer, the job degrades gracefully and the wall clock
/// drops to the evacuation cost — the crossover that prices how much spot
/// warning is worth buying.
pub fn ch13_preemption(scale: f64, seed: u64) -> Vec<Table> {
    let spec = ClusterSpec::local_9();
    let mut p = Pipeline::new(scale, seed);
    let job = Scenario::new(
        Dataset::RoadNetCa,
        Strategy::Grid,
        &spec,
        EngineKind::PowerGraph,
        App::Sssp { undirected: true },
    )
    .with_faults(FaultPlan::none(), CheckpointPolicy::every(4));
    let clean = p.run(&job);
    let mut t = Table::new(
        format!(
            "Table 13.3 — Machine {PREEMPT_MACHINE} preempted at superstep {PREEMPT_STEP} \
             (road-net-CA, Grid, SSSP, checkpoint every 4): wall clock vs warning window"
        ),
        &[
            "Warning (steps)",
            "Outcome",
            "Wall (s)",
            "Overhead",
            "Evacuated",
            "Replayed",
            "Recovery (s)",
        ],
    );
    for w in WARNING_WINDOWS {
        let preempt = ElasticPlan::preempt_at(PREEMPT_STEP, PREEMPT_MACHINE, w);
        let r = p.run(&job.clone().with_elastic(ElasticConfig::new(preempt)));
        let outcome = if r.evacuations > 0 {
            "evacuated"
        } else {
            "checkpoint recovery"
        };
        t.row(vec![
            w.to_string(),
            outcome.to_string(),
            format!("{:.1}", r.compute_seconds),
            format!(
                "{:.2}x",
                r.compute_seconds / clean.compute_seconds.max(1e-12)
            ),
            crate::experiments::gb(r.evacuated_bytes),
            r.supersteps_replayed.to_string(),
            format!("{:.2}", r.recovery_seconds),
        ]);
    }
    vec![t]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn elasticity_reproduces_the_repartition_crossover() {
        let tables = ch13_elasticity(0.05, 7);
        assert_eq!(tables.len(), 2);
        let winners: Vec<&str> = tables[0].rows().iter().map(|r| r[6].as_str()).collect();
        assert_eq!(
            tables[0].rows().len(),
            ELASTIC_STRATEGIES.len() * ELASTIC_APPS.len()
        );
        assert!(
            winners.contains(&"re-partition") && winners.contains(&"ride"),
            "need a crossover, got {winners:?}"
        );
        // The cost-based policy lands on the winning side of every row.
        for row in tables[0].rows() {
            assert_eq!(row[6], row[7], "cost model mispriced {row:?}");
        }
    }

    #[test]
    fn fair_share_starts_the_second_tenant_sooner() {
        let tables = ch13_elasticity(0.05, 7);
        let rows = tables[1].rows();
        assert_eq!(rows.len(), 4);
        let wait = |policy: &str, job: &str| -> f64 {
            rows.iter()
                .find(|r| r[0] == policy && r[1] == job)
                .expect("row")[4]
                .parse()
                .unwrap()
        };
        assert!(
            wait("fair-share", "wcc") < wait("fifo", "wcc"),
            "fair-share must cut the late tenant's wait"
        );
    }

    #[test]
    fn preemption_shows_the_evacuation_crossover() {
        let tables = ch13_preemption(0.05, 7);
        let rows = tables[0].rows();
        assert_eq!(rows.len(), WARNING_WINDOWS.len());
        assert_eq!(rows[0][1], "checkpoint recovery", "w=0 cannot evacuate");
        let last = rows.last().unwrap();
        assert_eq!(last[1], "evacuated", "the widest window must suffice");
        let wall = |r: &Vec<String>| -> f64 { r[2].parse().unwrap() };
        assert!(
            wall(last) < wall(&rows[0]),
            "evacuation must beat checkpoint recovery: {} vs {}",
            wall(last),
            wall(&rows[0])
        );
        // Outcomes switch exactly once along the sweep: forced below the
        // threshold, graceful above.
        let flips = rows.windows(2).filter(|w| w[0][1] != w[1][1]).count();
        assert_eq!(flips, 1, "one crossover threshold expected");
    }
}
