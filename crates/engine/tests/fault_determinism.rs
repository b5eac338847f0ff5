//! Property tests for the fault model's determinism guarantees.
//!
//! The subsystem's contract is that a `FaultPlan` fully determines what goes
//! wrong: the same seed and drawn events must reproduce a run bit-for-bit,
//! and a zero crash rate with no events must be indistinguishable from no
//! plan at all — for every seed. Reports are compared through their `Debug`
//! form, which prints every stat of every superstep, so equality here is
//! byte-identity.

use gp_apps::PageRank;
use gp_cluster::ClusterSpec;
use gp_engine::{CommsConfig, ComputeReport, Engine, EngineConfig, Model};
use gp_fault::{CheckpointPolicy, FaultEvent, FaultKind, FaultPlan};
use gp_partition::{PartitionContext, Strategy};
use proptest::prelude::*;

/// A drawn event: `(superstep, machine, kind, per-mill, duration)`.
type Drawn = (u32, u32, u8, u32, u32);

/// Up to a dozen drawn events over PageRank(10)'s supersteps on local-9.
fn drawn_events() -> impl proptest::strategy::Strategy<Value = Vec<Drawn>> {
    proptest::collection::vec((0u32..10, 0u32..9, 0u8..2, 0u32..1000, 1u32..5), 0..12)
}

/// Crashes at `crash_rate` per machine-step from `seed`, plus one straggler
/// (kind 0, factor 2–6) per drawn tuple and, when `flaky`, one flaky window
/// (kind 1, loss 1–20 %); kind-1 tuples are dropped otherwise.
fn plan(seed: u64, crash_rate: f64, drawn: &[Drawn], flaky: bool) -> FaultPlan {
    let spec = ClusterSpec::local_9();
    let mut plan = FaultPlan::random_crashes(seed, &spec, 64, crash_rate);
    for &(superstep, machine, kind, per_mill, duration_steps) in drawn {
        let x = f64::from(per_mill) / 1000.0;
        let kind = match kind {
            0 => FaultKind::Straggler {
                factor: 2.0 + 4.0 * x,
                duration_steps,
            },
            _ if flaky => FaultKind::Flaky {
                loss_rate: 0.01 + 0.19 * x,
                duration_steps,
            },
            _ => continue,
        };
        plan.push(FaultEvent {
            superstep,
            machine,
            kind,
        });
    }
    plan
}

/// One full run: partition a small power-law graph onto local-9 and price
/// PageRank(10) under `plan`.
fn run_under(plan: FaultPlan, interval: u32) -> ComputeReport {
    run_under_comms(plan, interval, CommsConfig::disabled())
}

/// [`run_under`] with the comms protocols configured too.
fn run_under_comms(plan: FaultPlan, interval: u32, comms: CommsConfig) -> ComputeReport {
    let spec = ClusterSpec::local_9();
    let graph = gp_gen::barabasi_albert(600, 4, 3);
    let assignment = Strategy::Hdrf
        .build()
        .partition(&graph, &PartitionContext::new(spec.machines))
        .assignment;
    let policy = if interval == 0 {
        CheckpointPolicy::disabled()
    } else {
        CheckpointPolicy::every(interval)
    };
    let config = EngineConfig::new(spec)
        .with_fault_plan(plan)
        .with_checkpoint(policy)
        .with_comms(comms);
    Engine::new(config, Model::Sync)
        .run(&graph, &assignment, &PageRank::fixed(10))
        .unwrap()
        .1
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn same_seed_same_report_bytes(
        seed in 0u64..1 << 48,
        interval in 0u32..5,
        drawn in drawn_events(),
    ) {
        let a = run_under(plan(seed, 0.02, &drawn, false), interval);
        let b = run_under(plan(seed, 0.02, &drawn, false), interval);
        prop_assert_eq!(format!("{a:?}"), format!("{b:?}"));
    }

    #[test]
    fn zero_rates_match_the_healthy_run_for_every_seed(
        seed in 0u64..1 << 48,
        other_seed in 0u64..1 << 48,
    ) {
        // No checkpointing, no crashes, no drawn events: every seed must
        // reproduce the plan-free run exactly, so any two seeds also match
        // each other.
        let healthy = run_under(FaultPlan::none(), 0);
        let a = run_under(plan(seed, 0.0, &[], true), 0);
        let b = run_under(plan(other_seed, 0.0, &[], true), 0);
        prop_assert_eq!(format!("{a:?}"), format!("{healthy:?}"));
        prop_assert_eq!(format!("{a:?}"), format!("{b:?}"));
        prop_assert_eq!(a.checkpoint_bytes, 0.0);
        prop_assert_eq!(a.recovery_seconds, 0.0);
        prop_assert_eq!(a.supersteps_replayed, 0);
    }

    #[test]
    fn same_seed_same_report_bytes_under_flaky_comms(
        seed in 0u64..1 << 48,
        interval in 0u32..5,
        drawn in drawn_events(),
    ) {
        let comms = CommsConfig::reliable().with_speculation(true);
        let a = run_under_comms(plan(seed, 0.02, &drawn, true), interval, comms.clone());
        let b = run_under_comms(plan(seed, 0.02, &drawn, true), interval, comms);
        prop_assert_eq!(format!("{a:?}"), format!("{b:?}"));
    }

    #[test]
    fn retries_are_free_on_a_lossless_network(
        seed in 0u64..1 << 48,
        interval in 0u32..5,
        drawn in drawn_events(),
    ) {
        // Crashes and stragglers — but zero flaky windows. Turning the retry
        // protocol on must not change a single byte of the report.
        let off = run_under(plan(seed, 0.02, &drawn, false), interval);
        let on = run_under_comms(plan(seed, 0.02, &drawn, false), interval, CommsConfig::reliable());
        prop_assert_eq!(format!("{off:?}"), format!("{on:?}"));
        prop_assert_eq!(on.retransmit_bytes, 0.0);
        prop_assert_eq!(on.retry_timeout_seconds, 0.0);
    }
}
