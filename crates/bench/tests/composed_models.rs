//! Property test over every mid-job model at once: one [`Scenario`] carrying
//! a crash, flaky links under reliable delivery, speculation, a scale-out
//! and a checkpoint policy, on random small graphs (dataset × scale × seed),
//! strategies and systems.
//!
//! * the job's wall clock never undercuts its superstep sum, and every
//!   field of the result is finite and non-negative;
//! * the result is identical on 1 and 4 threads;
//! * the result is identical with telemetry recording or disabled.

use gp_bench::{App, EngineKind, JobResult, Pipeline, Scenario};
use gp_cluster::ClusterSpec;
use gp_engine::{CommsConfig, ElasticConfig, ElasticPlan, RepairPolicy};
use gp_fault::{CheckpointPolicy, FaultEvent, FaultKind, FaultPlan};
use gp_gen::Dataset;
use gp_partition::Strategy;
use gp_telemetry::TelemetrySink;
use proptest::prelude::*;

fn run(scenario: &Scenario, scale: f64, seed: u64, threads: u32, traced: bool) -> JobResult {
    let sink = if traced {
        TelemetrySink::recording()
    } else {
        TelemetrySink::Disabled
    };
    let mut pipeline = Pipeline::new(scale, seed)
        .with_threads(threads)
        .with_telemetry(sink.clone());
    let job = pipeline.run(scenario);
    assert_eq!(traced, !sink.spans().is_empty(), "sink saw the job");
    job
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn composed_scenario_is_sane_and_deterministic(
        seed in 0u64..1 << 32,
        // The vendored proptest only draws integers: indices and per-mill
        // rates map onto the enum, float and bool parameters.
        dataset in 0usize..6,
        scale_pm in 10u32..40,
        strategy in 0usize..9,
        system in 0u8..3,
        steps in 4u32..10,
        crash_step in 0u32..4,
        scale_out_step in 0u32..4,
        machines_added in 1u32..10,
        loss_pm in 1u32..150,
        interval in 0u32..4,
        repair in 0u8..3,
    ) {
        let (engine, spec) = match system {
            0 => (EngineKind::PowerGraph, ClusterSpec::local_9()),
            1 => (EngineKind::PowerLyra, ClusterSpec::ec2_16()),
            _ => (EngineKind::graphx_default(), ClusterSpec::local_10()),
        };
        let mut faults =
            FaultPlan::uniform_flaky(f64::from(loss_pm) / 1000.0, spec.machines, steps);
        faults.push(FaultEvent {
            superstep: crash_step,
            machine: (seed % u64::from(spec.machines)) as u32,
            kind: FaultKind::Crash,
        });
        let repair = match repair {
            0 => RepairPolicy::AlwaysRepartition,
            1 => RepairPolicy::NeverRepartition,
            _ => RepairPolicy::default(),
        };
        let scenario = Scenario::new(
            Dataset::ALL[dataset],
            Strategy::POWERLYRA_ALL[strategy],
            &spec,
            engine,
            App::PageRankFixed(steps),
        )
        .with_faults(faults, CheckpointPolicy::every(interval))
        .with_comms(CommsConfig::reliable().with_speculation(true))
        .with_elastic(
            ElasticConfig::new(ElasticPlan::scale_out_at(scale_out_step, machines_added))
                .with_repair(repair),
        );
        prop_assert_eq!(scenario.check(), Ok(()));
        let scale = f64::from(scale_pm) / 1000.0;

        let job = run(&scenario, scale, seed, 1, false);
        prop_assert!(!job.failed);
        let superstep_sum = job.cumulative_seconds.last().copied().unwrap_or(0.0);
        prop_assert!(
            job.compute_seconds >= superstep_sum - 1e-9,
            "recovery and re-ingress can only add time: {} vs {}",
            job.compute_seconds,
            superstep_sum
        );
        prop_assert!(job.supersteps >= steps, "replays only add supersteps");
        prop_assert_eq!(job.scale_events, 1);
        for field in [
            job.replication_factor,
            job.ingress_seconds,
            job.compute_seconds,
            job.mean_net_in_bytes,
            job.peak_memory_bytes,
            job.checkpoint_bytes,
            job.recovery_seconds,
            job.retransmit_bytes,
            job.retry_timeout_seconds,
            job.speculation_saved_seconds,
            job.evacuated_bytes,
            job.reingress_seconds,
        ] {
            prop_assert!(field.is_finite() && field >= 0.0, "bad field {field} in {job:?}");
        }
        for series in [&job.cpu_percents, &job.cumulative_seconds] {
            prop_assert!(series.iter().all(|x| x.is_finite() && *x >= 0.0), "{job:?}");
        }

        prop_assert_eq!(&job, &run(&scenario, scale, seed, 4, false), "threads 1 vs 4");
        prop_assert_eq!(&job, &run(&scenario, scale, seed, 1, true), "telemetry off vs on");
    }
}
