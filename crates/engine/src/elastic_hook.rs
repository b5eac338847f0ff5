//! Applying an elastic plan to a finished compute run.
//!
//! Like the fault hook, elasticity is priced as a post-processing pass
//! over the deterministic superstep stream — the engines' semantics never
//! see the machine set change; only the cost accounting does. The hook
//! runs *after* `apply_fault_model` (so fault replays are already in the
//! timeline) and *before* `apply_comms_model`:
//!
//! * **Scale-out** at a barrier hands the decision to the
//!   [`gp_elastic::RepairPolicy`]: re-partition (replay the checkpointed
//!   edge stream onto the wider cluster — priced by
//!   [`gp_elastic::reingress_seconds`], after which every remaining
//!   barrier speeds up by the capacity ratio) or ride the old assignment
//!   in degraded balance (the newcomers idle; nothing changes). The
//!   projected savings are computable exactly because the remaining
//!   timeline is known.
//! * **Drain / spot preemption** announces a departure `warning_steps`
//!   barriers ahead. If the dying machine's masters can stream to
//!   surviving replicas within that window
//!   ([`gp_elastic::evacuation_cost`] vs the window's wall time), the
//!   departure is graceful: the traffic lands in the departure step, one
//!   promotion barrier stalls it, and later barriers slow by the lost
//!   capacity. Too short a window degenerates to `gp_fault`-style crash
//!   recovery: the full re-fetch plus replay since the last checkpoint
//!   cadence.
//!
//! Replayed supersteps never re-trigger events (first-execution rule,
//! matching transient faults), and an empty plan leaves the report
//! bit-for-bit untouched. Each membership change is recorded as a
//! `StepEvent` on its step, for the trace drawn after every pass.

use crate::fault_hook::replay_after_loss;
use crate::report::{spread_to_peers, ComputeReport, EngineConfig, StepEvent, SuperstepStats};
use gp_elastic::{evacuation_cost, reingress_seconds, ElasticKind};
use gp_fault::recovery_cost;
use gp_partition::Assignment;

/// Rewrite `report` under `config`'s elastic plan. No-op when the plan is
/// empty.
pub fn apply_elastic_model(
    report: &mut ComputeReport,
    config: &EngineConfig,
    assignment: &Assignment,
) {
    if config.elastic.is_disabled() {
        return;
    }
    let plan = &config.elastic.plan;
    let spec = &config.spec;

    let original = std::mem::take(&mut report.steps);
    let mut timeline: Vec<SuperstepStats> = Vec::with_capacity(original.len());
    // Wall multiplier from membership changes so far: >1 after departures,
    // <1 after repaired scale-outs. Compute capacity redistributes across
    // the surviving/expanded fleet, so barriers scale by the inverse
    // capacity ratio.
    let mut wall_scale = 1.0f64;
    // Effective machine count (the original fleet plus joins minus exits).
    let mut alive = spec.machines;
    // Earliest timeline index a forced recovery must replay from: the step
    // after the fault pass's last checkpoint (which already charged the
    // snapshot traffic; here it only bounds replay depth).
    let (mut replay_from, mut checkpointed) = (0usize, false);

    for (i, step) in original.iter().enumerate() {
        // A checkpoint after the previous step made everything before this
        // one durable, replays appended here included.
        if checkpointed {
            replay_from = timeline.len();
        }
        checkpointed = step
            .events
            .iter()
            .any(|e| matches!(e, StepEvent::Checkpoint { .. }));
        let mut scaled = step.clone();
        scaled.wall_seconds *= wall_scale;
        timeline.push(scaled);
        let cur = timeline.len() - 1;
        if step.replay {
            continue;
        }

        for event in plan.events_at(step.superstep) {
            match event.kind {
                ElasticKind::ScaleOut { machines_added } => {
                    report.scale_events += 1;
                    let k = machines_added.max(1);
                    let remaining: f64 = original[i + 1..]
                        .iter()
                        .map(|s| s.wall_seconds * wall_scale)
                        .sum();
                    let wider = spec.with_machines(alive + k);
                    let cost = reingress_seconds(
                        assignment.num_edges() as u64,
                        assignment.total_images() as u64,
                        &wider,
                    );
                    let savings = remaining * (1.0 - alive as f64 / (alive + k) as f64);
                    let repartition = config.elastic.repair.should_repartition(savings, cost);
                    if repartition {
                        report.reingress_seconds += cost;
                        wall_scale *= alive as f64 / (alive + k) as f64;
                    }
                    let reingress_s = repartition.then_some(cost);
                    timeline[cur]
                        .events
                        .push(StepEvent::ScaleOut { k, reingress_s });
                    alive += k;
                }
                ElasticKind::Drain {
                    machine,
                    warning_steps,
                }
                | ElasticKind::Preempt {
                    machine,
                    warning_steps,
                } => {
                    if alive <= 1 {
                        continue; // a cluster cannot scale to nothing
                    }
                    report.scale_events += 1;
                    let machine = machine.min(spec.machines - 1);
                    // The notice arrived `warning_steps` barriers back, so
                    // the evacuation can stream during the walls of the
                    // last `warning_steps` executed steps (none for an
                    // unwarned strike).
                    let from = (cur + 1).saturating_sub(warning_steps as usize);
                    let window: f64 = timeline[from..=cur].iter().map(|s| s.wall_seconds).sum();
                    let evac = evacuation_cost(assignment, machine, spec);
                    let graceful = evac.transfer_seconds <= window;
                    timeline[cur].events.push(StepEvent::Departure {
                        machine,
                        drain: matches!(event.kind, ElasticKind::Drain { .. }),
                        window_steps: cur + 1 - from,
                        window_s: window,
                        evacuation: graceful.then(|| evac.clone()),
                    });
                    if graceful {
                        // Graceful: the masters streamed out during the
                        // warning window; the departure step carries the
                        // traffic and a promotion barrier.
                        report.evacuations += 1;
                        report.evacuated_bytes += evac.moved_bytes;
                        let last = timeline.last_mut().expect("step just pushed");
                        last.machine_out_bytes[machine as usize] += evac.moved_bytes;
                        spread_to_peers(
                            &mut last.machine_in_bytes,
                            machine as usize,
                            evac.moved_bytes,
                        );
                        last.wall_seconds += spec.latency_s;
                    } else {
                        // The notice came too late: the departure is a
                        // crash, priced exactly as the fault pass prices an
                        // unwarned loss.
                        report.forced_recoveries += 1;
                        let cost = recovery_cost(assignment, machine, spec);
                        let since = timeline[replay_from..=cur].to_vec();
                        let lost = StepEvent::ForcedRecovery;
                        replay_after_loss(report, &mut timeline, since, machine, cost, lost);
                    }
                    wall_scale *= alive as f64 / (alive - 1) as f64;
                    alive -= 1;
                }
            }
        }
    }
    report.steps = timeline;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::{ApplyInfo, Direction, InitInfo, VertexProgram};
    use crate::{Engine, Model};
    use gp_cluster::ClusterSpec;
    use gp_core::{EdgeList, VertexId};
    use gp_elastic::{ElasticConfig, ElasticEvent, ElasticPlan, RepairPolicy};
    use gp_partition::{PartitionContext, Strategy};
    use gp_telemetry::TelemetrySink;

    struct MinLabel;
    impl VertexProgram for MinLabel {
        type State = u64;
        type Accum = u64;
        fn name(&self) -> &'static str {
            "min-label"
        }
        fn gather_direction(&self) -> Direction {
            Direction::Both
        }
        fn scatter_direction(&self) -> Direction {
            Direction::Both
        }
        fn init(&self, v: VertexId, _: InitInfo) -> u64 {
            v.0
        }
        fn initially_active(&self, _: VertexId) -> bool {
            true
        }
        fn gather(&self, _: VertexId, _: VertexId, s: &u64, _: InitInfo) -> u64 {
            *s
        }
        fn merge(&self, a: u64, b: u64) -> u64 {
            a.min(b)
        }
        fn apply(&self, _: VertexId, old: &u64, acc: Option<u64>, _: ApplyInfo) -> u64 {
            acc.map_or(*old, |a| a.min(*old))
        }
    }

    fn job(config: EngineConfig) -> (Vec<u64>, ComputeReport) {
        let mut pairs: Vec<(u64, u64)> = (0..60).map(|i| (i, i + 1)).collect();
        pairs.extend((0..30).map(|i| (i, i + 31)));
        let g = EdgeList::from_pairs(pairs);
        let a = Strategy::Random
            .build()
            .partition(&g, &PartitionContext::new(9))
            .assignment;
        Engine::new(config, Model::Sync)
            .run(&g, &a, &MinLabel)
            .unwrap()
    }

    fn healthy() -> EngineConfig {
        EngineConfig::new(ClusterSpec::local_9())
    }

    fn elastic(plan: ElasticPlan, repair: RepairPolicy) -> EngineConfig {
        healthy().with_elastic(ElasticConfig::new(plan).with_repair(repair))
    }

    #[test]
    fn empty_plan_is_identity() {
        let (states_a, report_a) = job(healthy());
        let (states_b, report_b) = job(healthy().with_elastic(ElasticConfig::disabled()));
        assert_eq!(states_a, states_b);
        assert_eq!(
            format!("{report_a:?}"),
            format!("{report_b:?}"),
            "bit-for-bit"
        );
    }

    #[test]
    fn repartitioned_scale_out_pays_reingress_and_speeds_the_rest() {
        let (_, base) = job(healthy());
        let plan = ElasticPlan::scale_out_at(2, 9);
        let (states, r) = job(elastic(plan, RepairPolicy::AlwaysRepartition));
        assert_eq!(r.scale_events, 1);
        assert!(r.reingress_seconds > 0.0);
        assert!(
            r.wall_clock_seconds() > r.compute_seconds(),
            "re-ingress is wall time, not compute"
        );
        // Steps before the event unchanged, after it exactly halved (9→18).
        for i in 0..=2 {
            assert_eq!(r.steps[i].wall_seconds, base.steps[i].wall_seconds);
        }
        for i in 3..base.steps.len() {
            assert!((r.steps[i].wall_seconds - base.steps[i].wall_seconds / 2.0).abs() < 1e-12);
        }
        let (healthy_states, _) = job(healthy());
        assert_eq!(states, healthy_states, "semantics untouched");
    }

    #[test]
    fn degraded_scale_out_changes_only_the_counter() {
        let (_, base) = job(healthy());
        let plan = ElasticPlan::scale_out_at(2, 9);
        let (_, r) = job(elastic(plan, RepairPolicy::NeverRepartition));
        assert_eq!(r.scale_events, 1);
        assert_eq!(r.reingress_seconds, 0.0);
        assert_eq!(r.compute_seconds(), base.compute_seconds());
        assert_eq!(r.total_in_bytes(), base.total_in_bytes());
    }

    #[test]
    fn cost_based_repair_rides_small_late_scale_outs() {
        // One machine joining two steps before the end cannot amortize a
        // full re-ingress; a big early join can.
        let (_, base) = job(healthy());
        let steps = base.supersteps();
        let late = ElasticPlan::scale_out_at(steps - 2, 1);
        let (_, r_late) = job(elastic(late, RepairPolicy::default()));
        assert_eq!(r_late.reingress_seconds, 0.0, "late join rides");
        let early = ElasticPlan::scale_out_at(0, 27);
        let (_, r_early) = job(elastic(early, RepairPolicy::default()));
        assert!(
            r_early.reingress_seconds > 0.0,
            "early 4x join repartitions"
        );
    }

    #[test]
    fn warned_preemption_evacuates_gracefully() {
        let plan = ElasticPlan::preempt_at(5, 3, 4);
        let (_, r) = job(elastic(plan, RepairPolicy::default()));
        assert_eq!(r.evacuations, 1);
        assert_eq!(r.forced_recoveries, 0);
        assert!(r.evacuated_bytes > 0.0);
        assert_eq!(r.recovery_seconds, 0.0);
        assert_eq!(r.supersteps_replayed, 0);
        let (_, base) = job(healthy());
        // Survivors absorb the dead machine's share: later steps slower.
        assert!(
            r.steps[6].wall_seconds > base.steps[6].wall_seconds,
            "9 machines' work on 8"
        );
        assert!((r.total_in_bytes() - base.total_in_bytes() - r.evacuated_bytes).abs() < 1e-6);
    }

    #[test]
    fn unwarned_preemption_degenerates_to_crash_recovery() {
        let plan = ElasticPlan::preempt_at(5, 3, 0);
        let (_, r) = job(elastic(plan, RepairPolicy::default()));
        assert_eq!(r.evacuations, 0);
        assert_eq!(r.forced_recoveries, 1);
        assert!(r.recovery_seconds > 0.0);
        assert_eq!(r.supersteps_replayed, 6, "replay 0..=5 without checkpoints");
    }

    #[test]
    fn evacuation_is_never_worse_than_forced_recovery() {
        for machine in 0..9 {
            let graceful = job(elastic(
                ElasticPlan::preempt_at(5, machine, 5),
                RepairPolicy::default(),
            ))
            .1;
            let forced = job(elastic(
                ElasticPlan::preempt_at(5, machine, 0),
                RepairPolicy::default(),
            ))
            .1;
            assert!(graceful.evacuations == 1, "m{machine} window must suffice");
            assert!(
                graceful.wall_clock_seconds() <= forced.wall_clock_seconds(),
                "m{machine}: graceful {} vs forced {}",
                graceful.wall_clock_seconds(),
                forced.wall_clock_seconds()
            );
        }
    }

    #[test]
    fn checkpoints_bound_forced_replay_depth() {
        let cfg = healthy()
            .with_checkpoint(gp_fault::CheckpointPolicy::every(2))
            .with_elastic(ElasticConfig::new(ElasticPlan::preempt_at(5, 3, 0)));
        let (_, r) = job(cfg);
        assert_eq!(r.forced_recoveries, 1);
        assert_eq!(
            r.supersteps_replayed, 2,
            "checkpoint after step 3 → replay 4..=5"
        );
    }

    #[test]
    fn a_crash_replay_does_not_move_the_forced_recovery_checkpoint() {
        // The fault hook checkpoints after original steps 3, 7, ... even
        // when a crash at step 1 has replayed 0..=1 first, so an unwarned
        // departure at step 6 replays 4..=6 on top of the crash's replay.
        let checkpointed = || healthy().with_checkpoint(gp_fault::CheckpointPolicy::every(4));
        let crash = gp_fault::FaultPlan::crash_at(1, 2);
        let departure = ElasticConfig::new(ElasticPlan::preempt_at(6, 3, 0));
        let (_, crashed) = job(checkpointed().with_fault_plan(crash.clone()));
        assert_eq!(crashed.supersteps_replayed, 2);
        let (_, departed) = job(checkpointed().with_elastic(departure.clone()));
        assert_eq!(departed.supersteps_replayed, 3);
        let (_, both) = job(checkpointed()
            .with_fault_plan(crash)
            .with_elastic(departure));
        assert_eq!(both.forced_recoveries, 1);
        assert_eq!(both.supersteps_replayed, 2 + 3);
        let labels: Vec<u32> = both.steps.iter().take(12).map(|s| s.superstep).collect();
        assert_eq!(labels, [0, 1, 0, 1, 2, 3, 4, 5, 6, 4, 5, 6]);
    }

    #[test]
    fn elastic_spans_and_counters_are_recorded() {
        let sink = TelemetrySink::recording();
        let mut plan = ElasticPlan::preempt_at(4, 2, 3);
        plan.push(ElasticEvent {
            superstep: 1,
            kind: ElasticKind::ScaleOut { machines_added: 9 },
        });
        let cfg = healthy()
            .with_elastic(ElasticConfig::new(plan).with_repair(RepairPolicy::AlwaysRepartition))
            .with_telemetry(sink.clone());
        let _ = job(cfg);
        let spans = sink.spans();
        let names: Vec<&str> = spans
            .iter()
            .filter(|s| s.cat == "elastic")
            .map(|s| s.name.as_str())
            .collect();
        assert!(names.contains(&"scale_out.k9"), "{names:?}");
        assert!(names.contains(&"preempt.m2"), "{names:?}");
        assert!(names.contains(&"evacuation.m2"), "{names:?}");
        assert_eq!(sink.counter("elastic.scale_outs"), 1);
        assert_eq!(sink.counter("elastic.repartitions"), 1);
        assert_eq!(sink.counter("elastic.evacuations"), 1);
        assert!(sink.counter("elastic.evacuated_bytes") > 0);
    }

    #[test]
    fn a_cluster_never_departs_its_last_machine() {
        // Both machines of a 2-machine cluster are preempted unwarned; the
        // second departure would leave nothing to run on, so only the first
        // fires.
        let spec = ClusterSpec::local_9().with_machines(2);
        let mut pairs: Vec<(u64, u64)> = (0..60).map(|i| (i, i + 1)).collect();
        pairs.extend((0..30).map(|i| (i, i + 31)));
        let g = EdgeList::from_pairs(pairs);
        let a = Strategy::Random
            .build()
            .partition(&g, &PartitionContext::new(2))
            .assignment;
        let mut plan = ElasticPlan::preempt_at(3, 0, 0);
        plan.push(ElasticEvent {
            superstep: 5,
            kind: ElasticKind::Preempt {
                machine: 1,
                warning_steps: 0,
            },
        });
        let config = EngineConfig::new(spec).with_elastic(ElasticConfig::new(plan));
        let (_, r) = Engine::new(config, Model::Sync)
            .run(&g, &a, &MinLabel)
            .unwrap();
        let departures = r.steps.iter().flat_map(|s| &s.events);
        let departures = departures
            .filter(|e| matches!(e, StepEvent::Departure { .. }))
            .count();
        assert_eq!(departures, 1);
        assert_eq!(r.scale_events, 1, "the skipped departure is no event");
        assert_eq!(r.forced_recoveries, 1);
        assert_eq!(r.supersteps_replayed, 4, "replay 0..=3 only");
    }

    #[test]
    fn elastic_runs_are_deterministic() {
        let mut plan = ElasticPlan::scale_out_at(2, 3);
        for (superstep, kind) in [
            (
                5,
                ElasticKind::Preempt {
                    machine: 4,
                    warning_steps: 2,
                },
            ),
            (
                8,
                ElasticKind::Drain {
                    machine: 1,
                    warning_steps: 1,
                },
            ),
        ] {
            plan.push(ElasticEvent { superstep, kind });
        }
        let run = || job(healthy().with_elastic(ElasticConfig::new(plan.clone()))).1;
        assert_eq!(format!("{:?}", run()), format!("{:?}", run()));
    }
}
