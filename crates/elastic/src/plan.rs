//! Elastic plans: which machines join or leave the cluster, and when.
//!
//! An [`ElasticPlan`] is the elasticity analogue of `gp_fault::FaultPlan`:
//! drawn *before* the run from a seeded ChaCha stream and per-superstep
//! hazard rates ([`ElasticRates`]), or hand-built, then applied
//! deterministically at superstep barriers by the engines' elastic hook.
//! The same plan against the same job always produces byte-identical
//! reports, and the seed is stored in the plan so a run can be reproduced
//! from its printout.

use gp_cluster::ClusterSpec;
use gp_core::{ChaCha12, Rng};

/// One scheduled cluster-membership change.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ElasticKind {
    /// `machines_added` fresh machines join the cluster at the end of the
    /// event's superstep. Whether the job re-places partitions onto them
    /// (full re-ingress of the checkpointed edge stream) or rides the old
    /// assignment in degraded balance is the repair policy's call.
    ScaleOut {
        /// Machines joining.
        machines_added: u32,
    },
    /// Planned scale-in: the operator drains `machine`, announcing it
    /// `warning_steps` supersteps ahead. The machine's masters are
    /// evacuated to surviving replicas inside the window when it is long
    /// enough; otherwise the departure degenerates to a crash recovered
    /// from the last checkpoint.
    Drain {
        /// Machine index being drained.
        machine: u32,
        /// Supersteps of advance notice.
        warning_steps: u32,
    },
    /// Spot preemption: same mechanics as a drain, but scheduled by the
    /// provider with a (typically short) termination notice.
    Preempt {
        /// Machine index being reclaimed.
        machine: u32,
        /// Supersteps of advance notice.
        warning_steps: u32,
    },
}

impl ElasticKind {
    /// Sort key making plan order deterministic within one superstep:
    /// departures before arrivals (a drain and a scale-out in the same
    /// barrier settle the dying machine first), then machine index.
    fn order_key(&self) -> (u8, u32) {
        match *self {
            ElasticKind::Drain { machine, .. } => (0, machine),
            ElasticKind::Preempt { machine, .. } => (1, machine),
            ElasticKind::ScaleOut { machines_added } => (2, machines_added),
        }
    }
}

/// One scheduled elastic event.
#[derive(Debug, Clone, PartialEq)]
pub struct ElasticEvent {
    /// Superstep (0-based) at whose barrier the event applies.
    pub superstep: u32,
    /// The membership change.
    pub kind: ElasticKind,
}

/// Per-superstep hazard rates used to draw a plan.
#[derive(Debug, Clone)]
pub struct ElasticRates {
    /// Probability a scale-out lands in a given superstep.
    pub scale_out_per_step: f64,
    /// Probability a drain is scheduled in a given superstep.
    pub drain_per_step: f64,
    /// Probability a spot preemption strikes in a given superstep.
    pub preempt_per_step: f64,
    /// Machines added per scale-out, drawn uniformly (inclusive bounds).
    pub batch_range: (u32, u32),
    /// Drain warning windows, drawn uniformly (supersteps, inclusive).
    pub drain_warning_range: (u32, u32),
    /// Preemption warning windows, drawn uniformly (supersteps, inclusive).
    pub preempt_warning_range: (u32, u32),
}

impl Default for ElasticRates {
    fn default() -> Self {
        ElasticRates {
            scale_out_per_step: 0.0,
            drain_per_step: 0.0,
            preempt_per_step: 0.0,
            batch_range: (1, 3),
            drain_warning_range: (4, 8),
            preempt_warning_range: (0, 2),
        }
    }
}

impl ElasticRates {
    /// True when every hazard is zero (a draw yields an empty plan).
    pub fn all_zero(&self) -> bool {
        self.scale_out_per_step == 0.0 && self.drain_per_step == 0.0 && self.preempt_per_step == 0.0
    }
}

/// A deterministic schedule of cluster-membership changes for one run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ElasticPlan {
    /// Seed the plan was drawn from (0 for hand-built plans).
    pub seed: u64,
    /// Events sorted by superstep, then departure-before-arrival order.
    pub events: Vec<ElasticEvent>,
}

impl ElasticPlan {
    /// The empty plan: the machine set never changes.
    pub fn none() -> Self {
        ElasticPlan::default()
    }

    /// Draw a plan for `horizon` supersteps on `spec` from `rates`, seeded.
    /// Zero rates produce an empty plan for every seed. At most one
    /// departure is scheduled per superstep (the one-crash-per-step rule of
    /// `FaultPlan`), and departures stop once they would leave fewer than
    /// two machines alive.
    pub fn generate(seed: u64, spec: &ClusterSpec, horizon: u32, rates: &ElasticRates) -> Self {
        let mut plan = ElasticPlan {
            seed,
            events: Vec::new(),
        };
        if rates.all_zero() {
            return plan;
        }
        let mut rng = ChaCha12::new(seed);
        let mut alive = spec.machines;
        let (lo_b, hi_b) = rates.batch_range;
        for superstep in 0..horizon {
            // Fixed draw order per superstep keeps the stream layout stable.
            let scale_roll = rng.next_f64();
            let drain_roll = rng.next_f64();
            let preempt_roll = rng.next_f64();
            if scale_roll < rates.scale_out_per_step {
                let machines_added = lo_b + rng.next_below((hi_b - lo_b + 1) as u64) as u32;
                alive += machines_added;
                plan.push(ElasticEvent {
                    superstep,
                    kind: ElasticKind::ScaleOut { machines_added },
                });
            }
            let mut departed_this_step = false;
            if drain_roll < rates.drain_per_step && alive > 1 {
                let (lo_w, hi_w) = rates.drain_warning_range;
                let machine = rng.next_below(spec.machines as u64) as u32;
                let warning = lo_w + rng.next_below((hi_w - lo_w + 1) as u64) as u32;
                alive -= 1;
                departed_this_step = true;
                plan.push(ElasticEvent {
                    superstep,
                    kind: ElasticKind::Drain {
                        machine,
                        warning_steps: warning.min(superstep),
                    },
                });
            }
            if preempt_roll < rates.preempt_per_step && alive > 1 && !departed_this_step {
                let (lo_w, hi_w) = rates.preempt_warning_range;
                let machine = rng.next_below(spec.machines as u64) as u32;
                let warning = lo_w + rng.next_below((hi_w - lo_w + 1) as u64) as u32;
                alive -= 1;
                plan.push(ElasticEvent {
                    superstep,
                    kind: ElasticKind::Preempt {
                        machine,
                        warning_steps: warning.min(superstep),
                    },
                });
            }
        }
        plan
    }

    /// Hand-built plan: `k` machines join at the end of `superstep`.
    pub fn scale_out_at(superstep: u32, k: u32) -> Self {
        let mut plan = ElasticPlan::none();
        plan.push(ElasticEvent {
            superstep,
            kind: ElasticKind::ScaleOut {
                machines_added: k.max(1),
            },
        });
        plan
    }

    /// Hand-built plan: `machine` is spot-preempted at the end of
    /// `superstep` with `warning_steps` of notice (clamped so the notice
    /// never predates superstep 0).
    pub fn preempt_at(superstep: u32, machine: u32, warning_steps: u32) -> Self {
        let mut plan = ElasticPlan::none();
        plan.push(ElasticEvent {
            superstep,
            kind: ElasticKind::Preempt {
                machine,
                warning_steps: warning_steps.min(superstep),
            },
        });
        plan
    }

    /// Add an event, kept sorted by superstep then departure-first order.
    pub fn push(&mut self, event: ElasticEvent) {
        let key = (event.superstep, event.kind.order_key());
        let at = self
            .events
            .partition_point(|e| (e.superstep, e.kind.order_key()) <= key);
        self.events.insert(at, event);
    }

    /// True when no membership change is scheduled.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Events applying at `superstep`, in plan order.
    pub fn events_at(&self, superstep: u32) -> impl Iterator<Item = &ElasticEvent> {
        self.events.iter().filter(move |e| e.superstep == superstep)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn departures(plan: &ElasticPlan) -> usize {
        plan.events
            .iter()
            .filter(|e| !matches!(e.kind, ElasticKind::ScaleOut { .. }))
            .count()
    }

    #[test]
    fn zero_rates_empty_plan_for_any_seed() {
        let spec = ClusterSpec::local_9();
        for seed in [0u64, 1, 42, u64::MAX] {
            let plan = ElasticPlan::generate(seed, &spec, 100, &ElasticRates::default());
            assert!(plan.is_empty(), "seed {seed} produced events");
            assert_eq!(plan.seed, seed);
        }
    }

    #[test]
    fn same_seed_same_plan_different_seeds_differ() {
        let spec = ClusterSpec::ec2_16();
        let rates = ElasticRates {
            scale_out_per_step: 0.02,
            drain_per_step: 0.02,
            preempt_per_step: 0.05,
            ..ElasticRates::default()
        };
        let a = ElasticPlan::generate(9, &spec, 80, &rates);
        let b = ElasticPlan::generate(9, &spec, 80, &rates);
        assert_eq!(a, b);
        assert!(!a.is_empty(), "these rates over 80 steps should fire");
        let c = ElasticPlan::generate(10, &spec, 80, &rates);
        assert_ne!(a.events, c.events);
    }

    #[test]
    fn at_most_one_departure_per_superstep() {
        let spec = ClusterSpec::ec2_25();
        let rates = ElasticRates {
            drain_per_step: 0.2,
            preempt_per_step: 0.2,
            ..ElasticRates::default()
        };
        let plan = ElasticPlan::generate(3, &spec, 120, &rates);
        for step in 0..120 {
            let departures = plan
                .events_at(step)
                .filter(|e| !matches!(e.kind, ElasticKind::ScaleOut { .. }))
                .count();
            assert!(departures <= 1, "superstep {step} has {departures}");
        }
        assert!(departures(&plan) > 0);
    }

    #[test]
    fn departures_never_empty_the_cluster() {
        let spec = ClusterSpec::local_9().with_machines(2);
        let rates = ElasticRates {
            preempt_per_step: 1.0,
            ..ElasticRates::default()
        };
        let plan = ElasticPlan::generate(5, &spec, 50, &rates);
        assert_eq!(departures(&plan), 1, "2-machine cluster loses one");
    }

    #[test]
    fn hand_built_constructors_clamp_warnings() {
        let p = ElasticPlan::preempt_at(2, 4, 9);
        match p.events[0].kind {
            ElasticKind::Preempt { warning_steps, .. } => assert_eq!(warning_steps, 2),
            ref k => panic!("unexpected {k:?}"),
        }
        assert_eq!(
            ElasticPlan::scale_out_at(4, 0).events[0].kind,
            ElasticKind::ScaleOut { machines_added: 1 }
        );
    }

    #[test]
    fn push_orders_departures_before_arrivals() {
        let mut plan = ElasticPlan::none();
        plan.push(ElasticEvent {
            superstep: 5,
            kind: ElasticKind::ScaleOut { machines_added: 2 },
        });
        plan.push(ElasticEvent {
            superstep: 5,
            kind: ElasticKind::Drain {
                machine: 3,
                warning_steps: 1,
            },
        });
        plan.push(ElasticEvent {
            superstep: 2,
            kind: ElasticKind::Preempt {
                machine: 0,
                warning_steps: 0,
            },
        });
        let order: Vec<u32> = plan.events.iter().map(|e| e.superstep).collect();
        assert_eq!(order, vec![2, 5, 5]);
        assert!(matches!(plan.events[1].kind, ElasticKind::Drain { .. }));
        assert!(matches!(plan.events[2].kind, ElasticKind::ScaleOut { .. }));
    }
}
