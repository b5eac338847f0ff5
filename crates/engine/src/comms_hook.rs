//! Applying the communication-layer protocols (gp-net) to a finished run.
//!
//! Runs after [`crate::fault_hook`] (which stretches walls and appends
//! replays) and [`crate::elastic_hook`]: a post-processing pass over the
//! superstep stream, bit-identical no-op when inactive. Each retry window
//! and backup task is recorded as a `StepEvent` on its step, for the trace
//! drawn after every pass.
//!
//! * **Reliable delivery** — each superstep's exchange is one ack window
//!   per machine. A [`gp_fault::FaultKind::Flaky`] window on machine `m`
//!   afflicts `m`'s receive side: the expected retransmissions and
//!   duplicate deliveries inflate `m`'s inbound bytes (the resent copies
//!   leave the surviving senders' NICs, split evenly), the extra bytes are
//!   priced through [`gp_cluster::CostRates::network_seconds`], and the
//!   worst per-machine timeout backoff plus delay spike stalls the
//!   barrier. A machine's *outbound* legs terminate at its peers' receive
//!   windows and are priced there when those are flaky too. With retries
//!   disabled, flaky windows are inert — the idealized network that
//!   existed before this module delivered everything for free.
//! * **Speculation** — per step, each machine's completion time is
//!   projected from its work/traffic shares plus active fault penalties;
//!   when the slowest projection crosses the straggler threshold,
//!   [`gp_net::plan_speculation`] launches a backup task on the
//!   least-loaded peer and the first finisher wins. Only the straggler's
//!   *compute* penalty is recoverable — by the time the straggler is
//!   detected (the median machine finishing), a degraded NIC's traffic has
//!   already been paid for — which also makes the saving provably no
//!   larger than what [`crate::fault_hook`] added, so a clean run can
//!   never be undercut.
//!
//! Like the fault model's transient rule, both protocols act on the
//! *first* execution of a superstep only: replays happen after the flaky
//! window or slowdown has passed.

use crate::report::{spread_to_peers, ComputeReport, EngineConfig, StepEvent};
use gp_cluster::CostRates;
use gp_net::{expected_retransmissions, expected_timeout_stall_s, plan_speculation};

/// Rewrite `report` under `config`'s comms protocols. No-op unless one can
/// act: retry only on scheduled flaky windows, speculation only on
/// scheduled slowdowns.
pub fn apply_comms_model(report: &mut ComputeReport, config: &EngineConfig) {
    let (plan, comms) = (&config.fault_plan, &config.comms);
    if !(comms.retry && plan.has_flaky() || comms.speculation && plan.has_slowdowns()) {
        return;
    }
    let machines = config.spec.machines as usize;
    let bandwidth = config.spec.bandwidth_bytes_per_s;
    let compute_rate = config.spec.compute_rate();

    // Transient rule: replays re-execute after the window has passed.
    for step in report.steps.iter_mut().filter(|s| !s.replay) {
        if comms.retry {
            let mut extra_total = 0.0f64;
            let mut stall_max = 0.0f64;
            for m in 0..machines {
                let Some(link) = plan.flaky_at(step.superstep, m as u32) else {
                    continue;
                };
                let retrans = expected_retransmissions(link.loss_rate);
                let inflate = (1.0 + retrans) * (1.0 + link.dup_rate) - 1.0;
                let extra = step.machine_in_bytes[m] * inflate;
                if extra > 0.0 {
                    step.machine_in_bytes[m] += extra;
                    // The resent copies leave the senders' NICs.
                    spread_to_peers(&mut step.machine_out_bytes, m, extra);
                    extra_total += extra;
                }
                let stall = expected_timeout_stall_s(link.loss_rate) + link.delay_spike_s;
                stall_max = stall_max.max(stall);
                step.events.push(StepEvent::Retry {
                    machine: m as u32,
                    dur_s: stall + extra / bandwidth,
                });
            }
            if extra_total > 0.0 || stall_max > 0.0 {
                step.wall_seconds +=
                    CostRates.network_seconds(extra_total, &config.spec) + stall_max;
                report.retransmit_bytes += extra_total;
                report.retry_timeout_seconds += stall_max;
            }
        }

        if comms.speculation && machines >= 2 {
            let mut projected = vec![0.0f64; machines];
            let mut penalty = vec![0.0f64; machines];
            for m in 0..machines {
                let (cf, nf) = plan.slowdown_at(step.superstep, m as u32);
                let w = step.machine_work[m];
                let inb = step.machine_in_bytes[m];
                let outb = step.machine_out_bytes[m];
                let compute_penalty = (cf - 1.0) * w / compute_rate;
                let network_penalty = (nf - 1.0) * (inb + outb) / bandwidth;
                projected[m] =
                    w / compute_rate + inb / bandwidth + compute_penalty + network_penalty;
                penalty[m] = compute_penalty;
            }
            if let Some(o) = plan_speculation(
                &projected,
                &penalty,
                &step.machine_work,
                &step.machine_in_bytes,
                compute_rate,
                bandwidth,
            ) {
                step.wall_seconds -= o.saved_seconds;
                step.machine_work[o.backup_machine] += o.clone_work;
                step.machine_in_bytes[o.backup_machine] += o.shipped_bytes;
                // The clone's inputs are served by the other machines.
                if o.shipped_bytes > 0.0 {
                    spread_to_peers(
                        &mut step.machine_out_bytes,
                        o.backup_machine,
                        o.shipped_bytes,
                    );
                }
                report.speculative_clones += 1;
                report.speculation_saved_seconds += o.saved_seconds;
                report.speculation_shipped_bytes += o.shipped_bytes;
                let (slow, backup) = (o.slow_machine, o.backup_machine);
                step.events
                    .push(StepEvent::Speculate(slow, backup, o.clone_seconds));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::{ApplyInfo, Direction, InitInfo, VertexProgram};
    use crate::{Engine, Model};
    use gp_cluster::ClusterSpec;
    use gp_core::{EdgeList, VertexId};
    use gp_fault::{FaultEvent, FaultKind, FaultPlan};
    use gp_net::CommsConfig;
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

    fn straggler_plan() -> FaultPlan {
        let mut plan = FaultPlan::none();
        plan.push(FaultEvent {
            superstep: 2,
            machine: 4,
            kind: FaultKind::Straggler {
                factor: 50.0,
                duration_steps: 2,
            },
        });
        plan
    }

    #[test]
    fn enabled_comms_over_clean_plan_is_identity() {
        let (s1, r1) = job(healthy());
        let (s2, r2) = job(healthy().with_comms(CommsConfig::reliable().with_speculation(true)));
        assert_eq!(s1, s2);
        assert_eq!(format!("{r1:?}"), format!("{r2:?}"), "bit-for-bit");
    }

    #[test]
    fn flaky_plan_with_comms_disabled_is_identity() {
        let (_, r1) = job(healthy());
        let plan = FaultPlan::uniform_flaky(0.1, 9, 100);
        let (_, r2) = job(healthy().with_fault_plan(plan));
        assert_eq!(format!("{r1:?}"), format!("{r2:?}"), "idealized network");
    }

    #[test]
    fn flaky_links_cost_retransmits_and_stalls() {
        let (_, base) = job(healthy());
        let plan = FaultPlan::uniform_flaky(0.1, 9, 100);
        let (states, flaky) = job(healthy()
            .with_fault_plan(plan)
            .with_comms(CommsConfig::reliable()));
        assert!(flaky.retransmit_bytes > 0.0);
        assert!(flaky.retry_timeout_seconds > 0.0);
        assert!(flaky.wall_clock_seconds() > base.wall_clock_seconds());
        assert!(flaky.total_in_bytes() > base.total_in_bytes());
        assert!(
            (flaky.total_in_bytes() - base.total_in_bytes() - flaky.retransmit_bytes).abs() < 1e-6,
            "extra inbound traffic must equal the retransmitted bytes"
        );
        // Semantics untouched — delivery is reliable, only cost changes.
        let (clean_states, _) = job(healthy());
        assert_eq!(states, clean_states);
    }

    #[test]
    fn wall_clock_is_monotone_in_loss_rate() {
        let run = |loss: f64| {
            let plan = FaultPlan::uniform_flaky(loss, 9, 100);
            job(healthy()
                .with_fault_plan(plan)
                .with_comms(CommsConfig::reliable()))
            .1
            .wall_clock_seconds()
        };
        let walls: Vec<f64> = [0.0, 0.02, 0.05, 0.1, 0.2]
            .iter()
            .map(|&l| run(l))
            .collect();
        for w in walls.windows(2) {
            assert!(w[0] <= w[1], "wall must not decrease with loss: {walls:?}");
        }
        assert!(walls[0] < walls[4], "and must strictly grow overall");
    }

    #[test]
    fn speculation_beats_barrier_wait_on_a_straggler() {
        let cfg_wait = healthy().with_fault_plan(straggler_plan());
        let cfg_spec = healthy()
            .with_fault_plan(straggler_plan())
            .with_comms(CommsConfig::disabled().with_speculation(true));
        let (_, wait) = job(cfg_wait);
        let (states, spec) = job(cfg_spec);
        assert!(spec.speculative_clones > 0, "backup tasks should launch");
        assert!(spec.speculation_saved_seconds > 0.0);
        assert!(
            spec.wall_clock_seconds() < wait.wall_clock_seconds(),
            "speculation must strictly beat barrier-wait: {} vs {}",
            spec.wall_clock_seconds(),
            wait.wall_clock_seconds()
        );
        // But never below the healthy run: the saving is capped by the
        // straggler's penalty.
        let (_, clean) = job(healthy());
        assert!(spec.wall_clock_seconds() >= clean.wall_clock_seconds());
        let (clean_states, _) = job(healthy());
        assert_eq!(states, clean_states, "first finisher has the same answer");
    }

    #[test]
    fn clone_costs_land_on_the_backup_machine() {
        let (_, base) = job(healthy());
        let (_, spec) = job(healthy()
            .with_fault_plan(straggler_plan())
            .with_comms(CommsConfig::disabled().with_speculation(true)));
        assert!(spec.speculation_shipped_bytes >= 0.0);
        let work =
            |r: &ComputeReport| -> f64 { r.steps.iter().flat_map(|s| &s.machine_work).sum() };
        assert!(
            work(&spec) > work(&base),
            "the clone's re-executed work is charged to the cluster"
        );
    }

    #[test]
    fn replays_are_not_afflicted_twice() {
        // A crash forces a replay of the flaky superstep; the replayed
        // execution happens after the window passed, so only the first
        // execution pays retransmits.
        let mut plan = FaultPlan::uniform_flaky(0.2, 9, 1);
        plan.push(FaultEvent {
            superstep: 3,
            machine: 2,
            kind: FaultKind::Crash,
        });
        let (_, r) = job(healthy()
            .with_fault_plan(plan.clone())
            .with_comms(CommsConfig::reliable()));
        let only_flaky = FaultPlan::uniform_flaky(0.2, 9, 1);
        let (_, f) = job(healthy()
            .with_fault_plan(only_flaky)
            .with_comms(CommsConfig::reliable()));
        assert!(r.supersteps_replayed > 0);
        assert!(
            (r.retransmit_bytes - f.retransmit_bytes).abs() < 1e-9,
            "replaying superstep 0 must not re-pay its retransmits"
        );
    }

    #[test]
    fn retry_spans_and_counters_are_recorded() {
        let sink = gp_telemetry::TelemetrySink::recording();
        let plan = FaultPlan::uniform_flaky(0.1, 9, 2);
        let (_, r) = job(healthy()
            .with_fault_plan(plan)
            .with_comms(CommsConfig::reliable())
            .with_telemetry(sink.clone()));
        let spans = sink.spans();
        assert!(
            spans.iter().any(|s| s.cat == "net" && s.name == "retry"),
            "missing retry spans"
        );
        assert!(sink.counter("net.flaky_windows") > 0);
        assert_eq!(
            sink.counter("net.retransmit_bytes"),
            r.retransmit_bytes.round() as u64
        );
    }

    #[test]
    fn speculation_spans_name_both_machines() {
        let sink = gp_telemetry::TelemetrySink::recording();
        let (_, r) = job(healthy()
            .with_fault_plan(straggler_plan())
            .with_comms(CommsConfig::disabled().with_speculation(true))
            .with_telemetry(sink.clone()));
        assert!(r.speculative_clones > 0);
        assert!(
            sink.spans()
                .iter()
                .any(|s| s.cat == "net" && s.name.starts_with("speculate.m")),
            "missing speculation span"
        );
        assert_eq!(
            sink.counter("net.speculations"),
            u64::from(r.speculative_clones)
        );
    }
}
