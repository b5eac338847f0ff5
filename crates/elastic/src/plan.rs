//! Elastic plans: which machines join or leave the cluster, and when.
//!
//! An [`ElasticPlan`] is the elasticity analogue of `gp_fault::FaultPlan`:
//! built before the run, then applied deterministically at superstep
//! barriers by the engines' elastic hook. The same plan against the same
//! job always produces byte-identical reports.

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

/// A deterministic schedule of cluster-membership changes for one run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ElasticPlan {
    /// Events sorted by superstep, then departure-before-arrival order.
    pub events: Vec<ElasticEvent>,
}

impl ElasticPlan {
    /// The empty plan: the machine set never changes.
    pub fn none() -> Self {
        ElasticPlan::default()
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
