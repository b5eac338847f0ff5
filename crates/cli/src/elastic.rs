//! `distgraph elastic <dataset>` — replay mid-job cluster events against
//! each strategy and/or schedule several tenants onto one cluster.

use crate::{checked, Failure, Flags, Subcommand};
use gp_bench::experiments::ch13::tenant_job;
use gp_bench::{App, EngineKind, Pipeline, Scenario};
use gp_cluster::table::fmt_bytes;
use gp_cluster::{ClusterSpec, Table};
use gp_elastic::{
    ElasticConfig, ElasticEvent, ElasticKind, ElasticPlan, RepairPolicy, SchedulePolicy, TenantJob,
    TenantScheduler,
};
use gp_fault::{CheckpointPolicy, FaultPlan};
use gp_gen::Dataset;
use gp_partition::Strategy;
use gp_telemetry::TelemetrySink;
use std::io::Write;

/// Arguments of `elastic`.
#[derive(Debug, Clone, PartialEq)]
pub struct Args {
    pub dataset: Dataset,
    pub scale: f64,
    pub seed: u64,
    pub cluster: ClusterSpec,
    pub strategies: Vec<Strategy>,
    /// The scale-out, preemption and drain asked for, in that order.
    pub events: Vec<ElasticEvent>,
    /// Scale-out repair policy: re-partition, ride, or price it.
    pub policy: RepairPolicy,
    /// PageRank supersteps in the measured job.
    pub steps: u32,
    /// Checkpoint interval in supersteps (0 = off) — the fallback when
    /// a warning window is too short to evacuate.
    pub interval: u32,
    /// Concurrent tenant jobs to schedule (< 2 skips the tenant table).
    pub tenants: u32,
    /// Fair-share scheduling instead of FIFO.
    pub fair: bool,
    /// Worker threads (0 = all cores); results byte-identical.
    pub threads: u32,
}

impl Subcommand for Args {
    const NAME: &'static str = "elastic";
    const VALUES: &'static str = "strategies cluster scale-out preempt drain policy steps \
                                  interval tenants scale seed threads";
    const SWITCHES: &'static str = "fair";

    fn parse(f: &Flags) -> Result<Self, String> {
        const DEPARTURE: &str = "STEP:MACHINE:WARNING_STEPS";
        let mut events = Vec::new();
        if let Some([superstep, machines_added]) = f.colon("scale-out", "STEP:MACHINES_ADDED")? {
            let kind = ElasticKind::ScaleOut { machines_added };
            events.push(ElasticEvent { superstep, kind });
        }
        if let Some([superstep, machine, warning_steps]) = f.colon("preempt", DEPARTURE)? {
            let kind = ElasticKind::Preempt {
                machine,
                warning_steps,
            };
            events.push(ElasticEvent { superstep, kind });
        }
        if let Some([superstep, machine, warning_steps]) = f.colon("drain", DEPARTURE)? {
            let kind = ElasticKind::Drain {
                machine,
                warning_steps,
            };
            events.push(ElasticEvent { superstep, kind });
        }
        let policy = match f.value("policy").unwrap_or("cost-based") {
            "always" => RepairPolicy::AlwaysRepartition,
            "never" => RepairPolicy::NeverRepartition,
            "cost-based" | "cost" => RepairPolicy::default(),
            other => {
                return Err(format!(
                    "unknown --policy {other:?} (always|never|cost-based)"
                ))
            }
        };
        Ok(Args {
            dataset: f.dataset()?,
            scale: f.scale()?,
            seed: f.seed()?,
            cluster: f.cluster_or("local-9")?,
            strategies: f.strategies_or("random,grid,hdrf")?,
            events,
            policy,
            steps: f.count_or("steps", 20)?,
            interval: f.number("interval", 4)?,
            tenants: f.number_where(
                "tenants",
                1,
                |n| (1..=32).contains(&n),
                "be between 1 and 32",
            )?,
            fair: f.has("fair"),
            threads: f.threads()?,
        })
    }

    fn run(&self, out: &mut dyn Write) -> Result<(), Failure> {
        let (spec, steps, interval, tenants) =
            (&self.cluster, self.steps, self.interval, self.tenants);
        if self.events.is_empty() && tenants < 2 {
            return Err("nothing to simulate: add --scale-out/--preempt/--drain \
                        and/or --tenants N (N >= 2)"
                .into());
        }
        let mut plan = ElasticPlan::none();
        for event in &self.events {
            plan.push(event.clone());
        }
        let clean_job = |strategy| {
            let app = App::PageRankFixed(steps);
            Scenario::new(self.dataset, strategy, spec, EngineKind::PowerGraph, app)
        };
        let elastic = ElasticConfig::new(plan).with_repair(self.policy.clone());
        let jobs = checked(self.strategies.iter().map(|&strategy| {
            // Interval 0 is the disabled checkpoint policy.
            clean_job(strategy)
                .with_faults(FaultPlan::none(), CheckpointPolicy::every(interval))
                .with_elastic(elastic.clone())
        }))?;

        let mut pipeline = Pipeline::new(self.scale, self.seed).with_threads(self.threads);
        if !self.events.is_empty() {
            let described: Vec<String> = self.events.iter().map(describe).collect();
            let mut t = Table::new(
                format!(
                    "Elastic plan [{}] on {} (PageRank({steps}), {} repair, \
                     checkpoint {})",
                    described.join(", "),
                    spec.name,
                    self.policy.label(),
                    if interval == 0 {
                        "off".to_string()
                    } else {
                        format!("every {interval}")
                    },
                ),
                &[
                    "Strategy",
                    "RF",
                    "Clean (s)",
                    "Elastic (s)",
                    "Overhead",
                    "Events",
                    "Evacuated",
                    "Forced",
                    "Re-ingress (s)",
                ],
            );
            for job in &jobs {
                let clean = pipeline.run(&clean_job(job.strategy));
                let elastic = pipeline.run(job);
                t.row(vec![
                    job.strategy.label().to_string(),
                    format!("{:.2}", elastic.replication_factor),
                    format!("{:.1}", clean.compute_seconds),
                    format!("{:.1}", elastic.compute_seconds),
                    format!(
                        "{:.2}x",
                        elastic.compute_seconds / clean.compute_seconds.max(1e-12)
                    ),
                    elastic.scale_events.to_string(),
                    fmt_bytes(elastic.evacuated_bytes),
                    elastic.forced_recoveries.to_string(),
                    format!("{:.1}", elastic.reingress_seconds),
                ]);
            }
            writeln!(out, "{t}")?;
        }
        if tenants >= 2 {
            let first = jobs[0].strategy;
            let solo = pipeline.run(&clean_job(first));
            // Tenants replay the same job, arriving a quarter of a solo
            // run apart — enough overlap that scheduling policy matters.
            let arrival = |i| f64::from(i) * 0.25 * solo.compute_seconds;
            let tenant_jobs: Vec<TenantJob> = (0..tenants)
                .map(|i| tenant_job(&format!("tenant-{i}"), arrival(i), &solo))
                .collect();
            let sched_policy = if self.fair {
                SchedulePolicy::FairShare
            } else {
                SchedulePolicy::Fifo
            };
            let report = TenantScheduler::new(spec.clone(), sched_policy)
                .run(&tenant_jobs, &TelemetrySink::Disabled);
            let mut t = Table::new(
                format!(
                    "{tenants} tenants of {} × PageRank({steps}) on {} ({}): \
                     makespan {:.1}s",
                    first.label(),
                    spec.name,
                    sched_policy.label(),
                    report.makespan_s,
                ),
                &[
                    "Tenant",
                    "Arrival (s)",
                    "Start (s)",
                    "Finish (s)",
                    "Wait (s)",
                    "Interference (s)",
                    "Interference",
                ],
            );
            for o in &report.outcomes {
                t.row(vec![
                    o.name.clone(),
                    format!("{:.1}", o.arrival_s),
                    format!("{:.1}", o.start_s),
                    format!("{:.1}", o.finish_s),
                    format!("{:.1}", o.wait_seconds),
                    format!("{:.1}", o.interference_seconds),
                    fmt_bytes(o.interference_bytes),
                ]);
            }
            writeln!(out, "{t}")?;
        }
        Ok(())
    }
}

/// One event as the plan title spells it.
fn describe(event: &ElasticEvent) -> String {
    let step = event.superstep;
    match event.kind {
        ElasticKind::ScaleOut { machines_added } => {
            format!("+{machines_added} machines @ step {step}")
        }
        ElasticKind::Preempt {
            machine,
            warning_steps,
        } => format!("preempt m{machine} @ step {step} (warning {warning_steps})"),
        ElasticKind::Drain {
            machine,
            warning_steps,
        } => format!("drain m{machine} @ step {step} (warning {warning_steps})"),
    }
}
