//! Applying a fault plan and checkpoint policy to a finished compute run.
//!
//! The engines are semantically deterministic — replaying a superstep
//! re-executes exactly the same gathers, applies and scatters — so faults
//! can be priced as a post-processing pass over the superstep stream
//! instead of being entangled with every engine's inner loop:
//!
//! * **Stragglers** stretch the barrier: the afflicted machine's compute
//!   share of the step is multiplied by the slowdown factor and the
//!   difference added to the step's wall time.
//! * **Checkpoints** fire after every `interval`-th executed superstep:
//!   each machine snapshots the vertex state it masters to a peer
//!   (`(m + 1) % machines`), which shows up as inbound bytes on the peer
//!   and a stall on the barrier (full for sync, partial for async writes).
//! * **Crashes** strike at the end of their superstep, before its results
//!   are durable: the run pays the re-fetch of every partition the dead
//!   machine hosted (priced from the `Assignment` — proportional to the
//!   replication factor the strategy placed there) and then replays every
//!   superstep since the last checkpoint. Replayed steps are appended to
//!   the timeline in execution order with their original superstep labels.
//!
//! When the plan is empty and checkpointing is disabled this function
//! returns without touching the report — healthy runs are bit-for-bit
//! identical to runs made before this module existed. Each checkpoint and
//! crash is recorded as a `StepEvent` on its step; the trace is drawn from
//! those events after every pass has run.
//!
//! One modeling simplification: transient faults (stragglers, flaky
//! links) afflict only the *first* execution of a superstep; by the time a
//! replay happens, the transient condition has passed.

use crate::report::{spread_to_peers, ComputeReport, EngineConfig, StepEvent, SuperstepStats};
use gp_fault::{checkpoint_stall_seconds, recovery_cost, snapshot_bytes_per_machine, RecoveryCost};
use gp_partition::Assignment;

/// Rewrite `report` under `config`'s fault plan and checkpoint policy.
/// No-op when neither is active.
pub fn apply_fault_model(
    report: &mut ComputeReport,
    config: &EngineConfig,
    assignment: &Assignment,
) {
    let plan = &config.fault_plan;
    let policy = &config.checkpoint;
    if plan.is_empty() && !policy.is_enabled() {
        return;
    }
    let spec = &config.spec;
    let machines = spec.machines as usize;
    let compute_rate = spec.compute_rate();
    let snapshot = if policy.is_enabled() {
        snapshot_bytes_per_machine(&assignment.master_counts(), spec)
    } else {
        Vec::new()
    };
    let snapshot_total: f64 = snapshot.iter().sum();

    let original = std::mem::take(&mut report.steps);
    let mut timeline: Vec<SuperstepStats> = Vec::with_capacity(original.len());
    // Crash events fire once, on the first execution of their superstep.
    let mut pending_crashes: Vec<(u32, u32)> =
        plan.crashes().map(|e| (e.superstep, e.machine)).collect();
    // Original-step index the next replay starts from (everything before it
    // is covered by a durable checkpoint — or is superstep 0's initial
    // state, which ingress already made durable).
    let mut replay_from: usize = 0;

    for (i, step) in original.iter().enumerate() {
        timeline.push(slowed(step, config, compute_rate));

        // Crashes at this superstep (first execution only). Replay
        // everything since the last durable point, including the step the
        // crash interrupted.
        while let Some(pos) = pending_crashes
            .iter()
            .position(|&(s, _)| s == step.superstep)
        {
            let (_, machine) = pending_crashes.swap_remove(pos);
            let machine = machine.min(spec.machines - 1);
            let cost = recovery_cost(assignment, machine, spec);
            let since = original[replay_from..=i].to_vec();
            replay_after_loss(
                report,
                &mut timeline,
                since,
                machine,
                cost,
                StepEvent::Crash,
            );
        }

        // Checkpoint after the `interval`-th executed original step (a
        // crashed-and-replayed step checkpoints once, after its replay).
        if policy.due_after(i) {
            report.checkpoint_bytes += snapshot_total;
            let last = timeline.last_mut().expect("step just pushed");
            for (m, &bytes) in snapshot.iter().enumerate() {
                last.machine_in_bytes[(m + 1) % machines] += bytes;
                last.machine_out_bytes[m] += bytes;
            }
            let stall = checkpoint_stall_seconds(&snapshot, policy, spec);
            last.wall_seconds += stall;
            last.events.push(StepEvent::Checkpoint {
                stall_s: stall,
                bytes: snapshot_total,
            });
            replay_from = i + 1;
        }
    }
    report.steps = timeline;
}

/// `machine` is lost at the end of the last step of `timeline`, before that
/// step was durable: charge its re-fetch `cost` to `report`, mark the loss
/// on that step with `event`, then append a replay of `since`, every step
/// from the last durable point through the lost one. The re-fetched
/// partitions stream into the replacement machine while replay begins,
/// served evenly by the surviving peers.
pub(crate) fn replay_after_loss(
    report: &mut ComputeReport,
    timeline: &mut Vec<SuperstepStats>,
    since: Vec<SuperstepStats>,
    machine: u32,
    cost: RecoveryCost,
    event: fn(u32, RecoveryCost) -> StepEvent,
) {
    report.recovery_seconds += cost.transfer_seconds;
    report.supersteps_replayed += since.len() as u32;
    let (at, refetch) = (machine as usize, cost.refetch_bytes);
    let lost = timeline.last_mut().expect("a step was lost");
    lost.events.push(event(machine, cost));
    for (k, mut replayed) in since.into_iter().enumerate() {
        if k == 0 {
            replayed.machine_in_bytes[at] += refetch;
            spread_to_peers(&mut replayed.machine_out_bytes, at, refetch);
        }
        replayed.replay = true;
        replayed.events.clear();
        timeline.push(replayed);
    }
}

/// A copy of `step` with active straggler penalties added to its wall
/// time, which they never reduce.
fn slowed(step: &SuperstepStats, config: &EngineConfig, compute_rate: f64) -> SuperstepStats {
    let mut out = step.clone();
    for m in 0..config.spec.machines {
        let factor = config.fault_plan.slowdown_at(step.superstep, m);
        if factor > 1.0 {
            out.wall_seconds += (factor - 1.0) * step.machine_work[m as usize] / compute_rate;
        }
    }
    debug_assert!(out.wall_seconds >= step.wall_seconds);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::{ApplyInfo, Direction, InitInfo, VertexProgram};
    use crate::{Engine, Model};
    use gp_cluster::ClusterSpec;
    use gp_core::{EdgeList, VertexId};
    use gp_fault::{CheckpointPolicy, FaultEvent, FaultKind, FaultPlan};
    use gp_partition::{PartitionContext, Strategy};

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
        // A chain takes one superstep per hop, so crashes scheduled deep
        // into the run actually fire; side edges give every partition work.
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

    #[test]
    fn empty_plan_no_checkpoint_is_identity() {
        let (states_a, report_a) = job(healthy());
        let (states_b, report_b) = job(healthy().with_fault_plan(FaultPlan::none()));
        assert_eq!(states_a, states_b);
        assert_eq!(
            format!("{report_a:?}"),
            format!("{report_b:?}"),
            "bit-for-bit"
        );
    }

    #[test]
    fn zero_rate_generated_plan_is_identity() {
        let spec = ClusterSpec::local_9();
        let plan = FaultPlan::random_crashes(1234, &spec, 500, 0.0);
        let (_, report_a) = job(healthy());
        let (_, report_b) = job(healthy().with_fault_plan(plan));
        assert_eq!(format!("{report_a:?}"), format!("{report_b:?}"));
    }

    #[test]
    fn crash_replays_since_last_checkpoint() {
        let (_, base) = job(healthy());
        let steps = base.supersteps();
        assert!(steps > 6, "need a few supersteps, got {steps}");
        let cfg = healthy()
            .with_checkpoint(CheckpointPolicy::every(2))
            .with_fault_plan(FaultPlan::crash_at(5, 3));
        let (states, faulty) = job(cfg);
        // Crash at step index 5, last checkpoint after index 3 → replay 4..=5.
        assert_eq!(faulty.supersteps_replayed, 2);
        assert_eq!(faulty.steps.len() as u32, steps + 2);
        assert!(faulty.recovery_seconds > 0.0);
        assert!(faulty.checkpoint_bytes > 0.0);
        // Semantics are untouched — only the cost accounting changes.
        let (healthy_states, _) = job(healthy());
        assert_eq!(states, healthy_states);
    }

    #[test]
    fn crash_without_checkpoint_replays_from_start() {
        let cfg = healthy().with_fault_plan(FaultPlan::crash_at(5, 0));
        let (_, faulty) = job(cfg);
        assert_eq!(faulty.supersteps_replayed, 6, "replay supersteps 0..=5");
        assert_eq!(faulty.checkpoint_bytes, 0.0);
    }

    #[test]
    fn tighter_interval_cuts_replay_but_costs_more_checkpoints() {
        let crash = FaultPlan::crash_at(7, 2);
        let run = |interval: u32| {
            let (_, r) = job(healthy()
                .with_checkpoint(CheckpointPolicy::every(interval))
                .with_fault_plan(crash.clone()));
            r
        };
        let tight = run(1);
        let loose = run(6);
        assert!(tight.supersteps_replayed < loose.supersteps_replayed);
        assert!(tight.checkpoint_bytes > loose.checkpoint_bytes);
    }

    #[test]
    fn straggler_stretches_only_its_window() {
        let (_, base) = job(healthy());
        let mut plan = FaultPlan::none();
        plan.push(FaultEvent {
            superstep: 1,
            machine: 0,
            kind: FaultKind::Straggler {
                factor: 10.0,
                duration_steps: 1,
            },
        });
        let (_, slow) = job(healthy().with_fault_plan(plan));
        assert_eq!(slow.steps.len(), base.steps.len());
        assert!(slow.steps[1].wall_seconds > base.steps[1].wall_seconds);
        for i in [0usize, 2] {
            assert_eq!(slow.steps[i].wall_seconds, base.steps[i].wall_seconds);
        }
        assert_eq!(slow.recovery_seconds, 0.0);
    }

    #[test]
    fn straggler_charges_exactly_its_slowed_work() {
        // A straggler retiring work at 1/f of its rate adds exactly
        // `(f - 1) * work / rate` to the barrier of each step it afflicts.
        let (_, base) = job(healthy());
        let s = &base.steps[1];
        let machine = (0..9)
            .max_by(|&a, &b| s.machine_work[a].total_cmp(&s.machine_work[b]))
            .unwrap();
        assert!(s.machine_work[machine] > 0.0, "need work to slow down");
        let mut plan = FaultPlan::none();
        plan.push(FaultEvent {
            superstep: 1,
            machine: machine as u32,
            kind: FaultKind::Straggler {
                factor: 3.0,
                duration_steps: 1,
            },
        });
        let (_, slow) = job(healthy().with_fault_plan(plan));
        let rate = ClusterSpec::local_9().compute_rate();
        let expected = (3.0 - 1.0) * s.machine_work[machine] / rate;
        assert!(
            (slow.steps[1].wall_seconds - s.wall_seconds - expected).abs() < 1e-12,
            "straggler penalty: got {}, want {}",
            slow.steps[1].wall_seconds - s.wall_seconds,
            expected
        );
        for i in [0usize, 2] {
            assert_eq!(slow.steps[i].wall_seconds, base.steps[i].wall_seconds);
        }
    }

    #[test]
    fn checkpoint_bytes_show_up_as_peer_traffic() {
        let (_, base) = job(healthy());
        let (_, ckpt) = job(healthy().with_checkpoint(CheckpointPolicy::every(2)));
        assert!(ckpt.total_in_bytes() > base.total_in_bytes());
        assert!(ckpt.compute_seconds() > base.compute_seconds());
        assert!(
            (ckpt.total_in_bytes() - base.total_in_bytes() - ckpt.checkpoint_bytes).abs() < 1e-6,
            "extra traffic must equal the checkpoint bytes"
        );
    }

    #[test]
    fn async_checkpoints_stall_less() {
        let sync = job(healthy().with_checkpoint(CheckpointPolicy::every(2))).1;
        let asynch = job(healthy().with_checkpoint(CheckpointPolicy::every(2).asynchronous())).1;
        assert!(asynch.compute_seconds() < sync.compute_seconds());
        assert_eq!(asynch.checkpoint_bytes, sync.checkpoint_bytes);
    }

    #[test]
    fn crash_past_the_end_is_ignored() {
        let (_, base) = job(healthy());
        let (_, faulty) =
            job(healthy().with_fault_plan(FaultPlan::crash_at(base.supersteps() + 50, 1)));
        assert_eq!(faulty.supersteps_replayed, 0);
        assert_eq!(faulty.recovery_seconds, 0.0);
        assert_eq!(faulty.steps.len(), base.steps.len());
    }

    #[test]
    fn wall_clock_exceeds_compute_after_crash() {
        let (_, faulty) = job(healthy().with_fault_plan(FaultPlan::crash_at(3, 4)));
        assert!(faulty.wall_clock_seconds() > faulty.compute_seconds());
    }
}
