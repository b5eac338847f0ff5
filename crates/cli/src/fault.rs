//! `distgraph fault <dataset>` — crash one machine mid-PageRank and compare
//! recovery cost across strategies.

use crate::{checked, comms_config, fault_plan, Failure, Flags, Subcommand};
use gp_bench::{App, EngineKind, Pipeline, Scenario};
use gp_cluster::table::fmt_bytes;
use gp_cluster::{ClusterSpec, Table};
use gp_fault::{recovery_cost, CheckpointPolicy};
use gp_gen::Dataset;
use gp_partition::Strategy;
use std::io::Write;

/// Arguments of `fault`.
#[derive(Debug, Clone, PartialEq)]
pub struct Args {
    pub dataset: Dataset,
    pub scale: f64,
    pub seed: u64,
    pub cluster: ClusterSpec,
    pub crash_at: u32,
    pub machine: u32,
    /// Checkpoint interval in supersteps (0 = off).
    pub interval: u32,
    pub asynchronous: bool,
    /// PageRank supersteps in the measured job.
    pub steps: u32,
    pub strategies: Vec<Strategy>,
    /// Uniform per-link packet-loss rate (0 = clean network).
    pub loss_rate: f64,
    /// Launch speculative backup tasks against stragglers.
    pub speculate: bool,
    /// Worker threads (0 = all cores); results byte-identical.
    pub threads: u32,
}

impl Subcommand for Args {
    const NAME: &'static str = "fault";
    const VALUES: &'static str =
        "strategies cluster crash-at machine interval steps loss-rate scale seed threads";
    const SWITCHES: &'static str = "async speculate";

    fn parse(f: &Flags) -> Result<Self, String> {
        Ok(Args {
            dataset: f.dataset()?,
            scale: f.scale()?,
            seed: f.seed()?,
            cluster: f.cluster_or("ec2-16")?,
            crash_at: f.count_or("crash-at", 10)?,
            machine: f.number("machine", 0)?,
            interval: f.number("interval", 4)?,
            asynchronous: f.has("async"),
            steps: f.count_or("steps", 20)?,
            strategies: f.strategies_or("random,hybrid")?,
            loss_rate: f.loss_rate()?,
            speculate: f.has("speculate"),
            threads: f.threads()?,
        })
    }

    fn run(&self, out: &mut dyn Write) -> Result<(), Failure> {
        let (dataset, spec, steps) = (self.dataset, &self.cluster, self.steps);
        let (machine, crash_at) = (self.machine, self.crash_at);
        // Interval 0 is the disabled policy, whatever the write mode.
        let (policy, ckpt_label) = match (self.interval, self.asynchronous) {
            (0, _) => (CheckpointPolicy::disabled(), "off".to_string()),
            (k, false) => (CheckpointPolicy::every(k), format!("every {k} (sync)")),
            (k, true) => (
                CheckpointPolicy::every(k).asynchronous(),
                format!("every {k} (async)"),
            ),
        };
        let plan = fault_plan(self.loss_rate, spec, steps, Some((crash_at, machine)));
        let clean_job = |strategy| {
            let app = App::PageRankFixed(steps);
            Scenario::new(dataset, strategy, spec, EngineKind::PowerGraph, app)
        };
        let jobs = checked(self.strategies.iter().map(|&strategy| {
            clean_job(strategy)
                .with_faults(plan.clone(), policy)
                .with_comms(comms_config(self.loss_rate, self.speculate))
        }))?;

        let mut pipeline = Pipeline::new(self.scale, self.seed).with_threads(self.threads);
        let graph = pipeline.graph(dataset);
        writeln!(
            out,
            "{dataset} analogue (scale {}, seed {}): {} vertices, {} edges",
            self.scale,
            self.seed,
            graph.num_vertices(),
            graph.num_edges()
        )?;
        let loss_label = if self.loss_rate > 0.0 {
            format!(", {:.0}% packet loss", self.loss_rate * 100.0)
        } else {
            String::new()
        };
        let mut t = Table::new(
            format!(
                "Machine {machine} crashes at superstep {crash_at} on {} \
                 (PageRank({steps}), checkpoint {ckpt_label}{loss_label})",
                spec.name
            ),
            &[
                "Strategy",
                "RF",
                "Refetch",
                "Recovery (s)",
                "Replayed",
                "Clean (s)",
                "Faulted (s)",
                "Overhead",
                "Retransmit",
                "Spec saved (s)",
            ],
        );
        for job in &jobs {
            let clean = pipeline.run(&clean_job(job.strategy));
            let faulted = pipeline.run(job);
            let machines = spec.machines;
            let placed = pipeline.partition(dataset, job.strategy, machines, machines);
            let rc = recovery_cost(&placed.assignment, machine, spec);
            t.row(vec![
                job.strategy.label().to_string(),
                format!("{:.2}", faulted.replication_factor),
                fmt_bytes(rc.refetch_bytes),
                format!("{:.2}", faulted.recovery_seconds),
                faulted.supersteps_replayed.to_string(),
                format!("{:.1}", clean.compute_seconds),
                format!("{:.1}", faulted.compute_seconds),
                format!(
                    "{:.2}x",
                    faulted.compute_seconds / clean.compute_seconds.max(1e-12)
                ),
                fmt_bytes(faulted.retransmit_bytes),
                format!("{:.2}", faulted.speculation_saved_seconds),
            ]);
        }
        writeln!(out, "{t}")?;
        Ok(())
    }
}
