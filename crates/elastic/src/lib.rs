//! # gp-elastic — mid-job elasticity for the simulated engines
//!
//! The engines in `gp-engine` run on a fixed machine set; real clusters
//! grow, shrink, and lose spot instances mid-job. This crate models those
//! membership changes in the repo's deterministic-accounting style:
//!
//! * [`ElasticPlan`] — a hand-built schedule of [`ElasticKind::ScaleOut`],
//!   [`ElasticKind::Drain`] and [`ElasticKind::Preempt`] events, applied
//!   at superstep barriers by the engines' elastic hook (the elasticity
//!   analogue of `gp_fault::FaultPlan`). Spot preemptions live only here:
//!   a fault plan schedules crashes, slowdowns and flaky links.
//! * [`evacuation_cost`] / [`reingress_seconds`] — the two closed forms
//!   elasticity prices against, at `gp_cluster::CostRates`' byte sizes:
//!   moving a departing machine's masters to surviving replicas inside the
//!   warning window (graceful degradation), and replaying the checkpointed
//!   edge stream onto a new machine set. When the warning window is too
//!   short to drain, the departure degenerates to a crash and
//!   `gp_fault::recovery_cost` takes over.
//! * [`RepairPolicy`] — the scale-out decision: re-partition (pay
//!   re-ingress, run the rest of the job faster) or ride the old
//!   assignment in degraded balance. Cost-based by default, serve-style.
//! * [`TenantScheduler`] — FIFO vs fair-share over one [`gp_cluster::
//!   ClusterSpec`], pricing co-tenant interference through
//!   `gp_net::contention_loss_rate` and the retry closed forms
//!   (`gp_net::expected_retransmissions`, `expected_timeout_stall_s`).
//!
//! Everything here preserves the repo-wide contract: an empty plan leaves
//! reports bit-identical to a run without the model, and the same plan
//! always reproduces the same costs and tables.

pub mod cost;
pub mod plan;
pub mod repair;
pub mod tenant;

pub use cost::{evacuation_cost, reingress_seconds, EvacuationCost};
pub use plan::{ElasticEvent, ElasticKind, ElasticPlan};
pub use repair::RepairPolicy;
pub use tenant::{SchedulePolicy, TenantJob, TenantOutcome, TenantReport, TenantScheduler};

/// Elasticity settings threaded through `EngineConfig`: the event plan
/// plus the policy deciding what scale-outs do. Defaults to no events, and
/// an empty plan is *guaranteed inert* — the elastic hook returns before
/// touching the report (the same zero-cost-when-disabled contract as
/// `gp-fault` and `gp-net`).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ElasticConfig {
    /// Scheduled membership changes.
    pub plan: ElasticPlan,
    /// What a scale-out does about placement.
    pub repair: RepairPolicy,
}

impl ElasticConfig {
    /// No events (the default).
    pub fn disabled() -> Self {
        ElasticConfig::default()
    }

    /// A config around `plan` with the default (cost-based) repair policy.
    pub fn new(plan: ElasticPlan) -> Self {
        ElasticConfig {
            plan,
            ..Self::default()
        }
    }

    /// Builder: replace the repair policy.
    pub fn with_repair(mut self, repair: RepairPolicy) -> Self {
        self.repair = repair;
        self
    }

    /// True when the hook cannot alter a report.
    pub fn is_disabled(&self) -> bool {
        self.plan.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_disabled_regardless_of_policy() {
        assert!(ElasticConfig::default().is_disabled());
        assert!(ElasticConfig::disabled()
            .with_repair(RepairPolicy::AlwaysRepartition)
            .is_disabled());
        assert_eq!(ElasticConfig::default(), ElasticConfig::disabled());
    }

    #[test]
    fn a_plan_enables_the_config() {
        let c = ElasticConfig::new(ElasticPlan::scale_out_at(3, 2));
        assert!(!c.is_disabled());
        assert_eq!(c.repair, RepairPolicy::default());
    }
}
