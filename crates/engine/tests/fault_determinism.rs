//! Property tests for the fault model's determinism guarantees.
//!
//! The subsystem's contract is that a `FaultPlan` fully determines what goes
//! wrong: the same seed must reproduce a run bit-for-bit, and a plan whose
//! hazard rates are all zero must be indistinguishable from no plan at all —
//! for every seed. Reports are compared through their `Debug` form, which
//! prints every stat of every superstep, so equality here is byte-identity.

use gp_apps::PageRank;
use gp_cluster::ClusterSpec;
use gp_engine::{CommsConfig, ComputeReport, Engine, EngineConfig, Model};
use gp_fault::{CheckpointPolicy, FaultPlan, FaultRates};
use gp_partition::{PartitionContext, Strategy};
use proptest::prelude::*;

/// One full run: partition a small power-law graph onto local-9, draw a
/// fault plan from `seed` and `rates`, and price PageRank(10) under it.
fn run_under(seed: u64, interval: u32, rates: &FaultRates) -> ComputeReport {
    run_under_comms(seed, interval, rates, CommsConfig::disabled())
}

/// [`run_under`] with the comms protocols configured too.
fn run_under_comms(
    seed: u64,
    interval: u32,
    rates: &FaultRates,
    comms: CommsConfig,
) -> ComputeReport {
    let spec = ClusterSpec::local_9();
    let graph = gp_gen::barabasi_albert(600, 4, 3);
    let assignment = Strategy::Hdrf
        .build()
        .partition(&graph, &PartitionContext::new(spec.machines))
        .assignment;
    let plan = FaultPlan::generate(seed, &spec, 64, rates);
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

/// Rates hot enough that plans actually schedule faults over the horizon.
fn lively_rates() -> FaultRates {
    FaultRates {
        crash_per_step: 0.02,
        degrade_per_step: 0.03,
        straggler_per_step: 0.03,
        ..FaultRates::default()
    }
}

/// [`lively_rates`] plus flaky network windows for the comms protocols.
fn flaky_rates() -> FaultRates {
    FaultRates {
        flaky_per_step: 0.08,
        ..lively_rates()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn same_seed_same_report_bytes(seed in 0u64..1 << 48, interval in 0u32..5) {
        let a = run_under(seed, interval, &lively_rates());
        let b = run_under(seed, interval, &lively_rates());
        prop_assert_eq!(format!("{a:?}"), format!("{b:?}"));
    }

    #[test]
    fn zero_rates_match_the_healthy_run_for_every_seed(
        seed in 0u64..1 << 48,
        other_seed in 0u64..1 << 48,
    ) {
        // No checkpointing, all-zero hazards: every seed must reproduce the
        // plan-free run exactly, so any two seeds also match each other.
        let healthy = run_under(0, 0, &FaultRates::default());
        let a = run_under(seed, 0, &FaultRates::default());
        let b = run_under(other_seed, 0, &FaultRates::default());
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
    ) {
        let comms = CommsConfig::reliable().with_speculation(true);
        let a = run_under_comms(seed, interval, &flaky_rates(), comms.clone());
        let b = run_under_comms(seed, interval, &flaky_rates(), comms);
        prop_assert_eq!(format!("{a:?}"), format!("{b:?}"));
    }

    #[test]
    fn retries_are_free_on_a_lossless_network(seed in 0u64..1 << 48, interval in 0u32..5) {
        // Crashes, degrades, stragglers — but zero flaky windows. Turning the
        // retry protocol on must not change a single byte of the report.
        let off = run_under(seed, interval, &lively_rates());
        let on = run_under_comms(seed, interval, &lively_rates(), CommsConfig::reliable());
        prop_assert_eq!(format!("{off:?}"), format!("{on:?}"));
        prop_assert_eq!(on.retransmit_bytes, 0.0);
        prop_assert_eq!(on.retry_timeout_seconds, 0.0);
    }
}
