//! `distgraph serve <graph>` — hold the partitioned graph resident under a
//! stream of updates and queries.

use crate::{open_edges, Failure, Flags, Subcommand};
use gp_cluster::ClusterSpec;
use gp_partition::Strategy;
use gp_serve::{DriftPolicy, ServeConfig, TrafficPlan, TrafficRates};
use std::io::Write;

/// Arguments of `serve`.
#[derive(Debug, Clone, PartialEq)]
pub struct Args {
    pub path: String,
    pub strategy: Strategy,
    /// Partition count (default: the cluster's machines).
    pub parts: u32,
    pub seed: u64,
    pub cluster: ClusterSpec,
    /// Serving horizon in simulated seconds.
    pub horizon_s: f64,
    /// Concurrent user sessions in the traffic plan.
    pub sessions: u32,
    /// Multiplier on the insert/delete rates (query rates fixed).
    pub churn_scale: f64,
    /// Edge-imbalance threshold that triggers a rebalance.
    pub rebalance_threshold: f64,
    /// RF-growth factor over the post-ingress baseline that triggers a
    /// full repartition.
    pub rf_threshold: f64,
    /// Batch (re)partitioning threads; report byte-identical at any
    /// value.
    pub threads: u32,
}

impl Subcommand for Args {
    const NAME: &'static str = "serve";
    const VALUES: &'static str = "strategy cluster parts horizon sessions churn-scale \
                                  rebalance-threshold rf-threshold seed threads";

    fn parse(f: &Flags) -> Result<Self, String> {
        let cluster = f.cluster_or("local-9")?;
        let day = |s| s > 0.0 && s <= 86_400.0;
        let churn = |c| (0.0..=1000.0).contains(&c);
        Ok(Args {
            path: f.path()?,
            strategy: f.strategy_or(Some(Strategy::Hdrf))?,
            parts: f.count_or("parts", cluster.machines)?,
            seed: f.seed()?,
            cluster,
            horizon_s: f.number_where("horizon", 60.0, day, "be in (0, 86400] seconds")?,
            sessions: f.count_or("sessions", 4)?,
            churn_scale: f.number_where("churn-scale", 1.0, churn, "be in [0, 1000]")?,
            rebalance_threshold: f.number_where(
                "rebalance-threshold",
                1.5,
                |t| t > 1.0,
                "exceed 1.0",
            )?,
            rf_threshold: f.number_where("rf-threshold", 1.25, |t| t >= 1.0, "be at least 1.0")?,
            threads: f.threads()?,
        })
    }

    fn run(&self, out: &mut dyn Write) -> Result<(), Failure> {
        let graph = &*open_edges(&self.path)?;
        self.strategy.check_partition_count(self.parts)?;
        if graph.num_vertices() < 2 {
            return Err("serve needs a graph with at least two vertices".into());
        }
        let cfg = ServeConfig {
            strategy: self.strategy,
            num_partitions: self.parts,
            seed: self.seed,
            spec: self.cluster.clone(),
            policy: DriftPolicy {
                max_imbalance: self.rebalance_threshold,
                max_rf_growth: self.rf_threshold,
                ..DriftPolicy::default()
            },
            threads: self.threads,
        };
        let rates = TrafficRates::default().with_churn_scale(self.churn_scale);
        let vertices = graph.num_vertices();
        let plan =
            TrafficPlan::generate(self.seed, vertices, self.sessions, self.horizon_s, &rates);
        write!(out, "{}", gp_serve::serve(graph, &plan, &cfg).render())?;
        Ok(())
    }
}
