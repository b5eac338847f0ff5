//! Property tests for the unreliable-network model's safety invariants.
//!
//! For *any* generated fault plan and *any* engine, with any combination of
//! the comms protocols switched on:
//!
//! * the end-to-end wall clock never undercuts the superstep sum
//!   (`wall_clock_seconds() >= compute_seconds()`), and never undercuts the
//!   healthy run — speculation's savings are capped by the fault penalty it
//!   rescues, so a lossy network cannot make the cluster faster;
//! * every retransmit/speculation field of the report is finite and
//!   non-negative, and every per-superstep wall stays non-negative.

use gp_apps::PageRank;
use gp_cluster::ClusterSpec;
use gp_engine::{CommsConfig, ComputeReport, Engine, EngineConfig, Model};
use gp_fault::{FaultPlan, FaultRates};
use gp_partition::{Assignment, PartitionContext, Strategy};
use proptest::prelude::*;

fn job() -> (gp_core::EdgeList, Assignment) {
    let graph = gp_gen::barabasi_albert(400, 4, 9);
    let assignment = Strategy::Hdrf
        .build()
        .partition(&graph, &PartitionContext::new(9))
        .assignment;
    (graph, assignment)
}

fn run_engine(which: u8, config: EngineConfig) -> ComputeReport {
    let (graph, assignment) = job();
    let program = PageRank::fixed(8);
    let model = [Model::Sync, Model::Hybrid, Model::Async, Model::GRAPHX][usize::from(which)];
    Engine::new(config, model)
        .run(&graph, &assignment, &program)
        .expect("default executors fit a 400-vertex graph")
        .1
}

fn hazard_rates(crash: f64, degrade: f64, straggle: f64, flaky: f64) -> FaultRates {
    FaultRates {
        crash_per_step: crash,
        degrade_per_step: degrade,
        straggler_per_step: straggle,
        flaky_per_step: flaky,
        ..FaultRates::default()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    #[test]
    fn comms_costs_are_finite_nonnegative_and_never_speed_up_the_cluster(
        seed in 0u64..1 << 48,
        // The vendored proptest only draws integers: per-mill hazard rates
        // and bit-flags map onto the float/bool parameters.
        crash_pm in 0u32..30,
        degrade_pm in 0u32..80,
        straggle_pm in 0u32..80,
        flaky_pm in 0u32..100,
        which in 0u8..4,
        protocol_bits in 0u8..4,
    ) {
        let spec = ClusterSpec::local_9();
        let plan = FaultPlan::generate(
            seed,
            &spec,
            32,
            &hazard_rates(
                f64::from(crash_pm) / 1000.0,
                f64::from(degrade_pm) / 1000.0,
                f64::from(straggle_pm) / 1000.0,
                f64::from(flaky_pm) / 1000.0,
            ),
        );
        let comms = CommsConfig {
            retry: protocol_bits & 1 != 0,
            speculation: protocol_bits & 2 != 0,
        };
        let clean = run_engine(which, EngineConfig::new(spec.clone()));
        let faulted = run_engine(
            which,
            EngineConfig::new(spec)
                .with_fault_plan(plan)
                .with_comms(comms),
        );

        prop_assert!(faulted.wall_clock_seconds().is_finite());
        prop_assert!(
            faulted.wall_clock_seconds() >= faulted.compute_seconds() - 1e-9,
            "recovery transfers can only add time"
        );
        prop_assert!(
            faulted.wall_clock_seconds() + 1e-9 >= clean.wall_clock_seconds(),
            "faults and protocol overheads can never beat the healthy run: \
             {} vs {}",
            faulted.wall_clock_seconds(),
            clean.wall_clock_seconds()
        );
        for field in [
            faulted.retransmit_bytes,
            faulted.retry_timeout_seconds,
            faulted.speculation_saved_seconds,
            faulted.speculation_shipped_bytes,
            faulted.recovery_seconds,
        ] {
            prop_assert!(field.is_finite() && field >= 0.0, "bad field {field}");
        }
        for step in &faulted.steps {
            prop_assert!(
                step.wall_seconds.is_finite() && step.wall_seconds >= 0.0,
                "superstep {} wall {} out of range",
                step.superstep,
                step.wall_seconds
            );
        }
    }
}
