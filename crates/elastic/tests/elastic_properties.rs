//! Property gates for the elastic model, in the same style as the gp-net
//! zero-cost gates:
//!
//! 1. An empty `ElasticPlan` (hand-built or drawn at zero rates) leaves
//!    every engine's report **byte-identical** to a run without the model.
//! 2. Wall-clock is monotone in the preemption count: each additional
//!    strike can only cost time.
//! 3. When the warning window suffices, graceful evacuation never loses to
//!    checkpoint recovery of the same departure.
//! 4. The whole pipeline is byte-deterministic under a fixed seed.

use gp_apps::Wcc;
use gp_cluster::ClusterSpec;
use gp_core::EdgeList;
use gp_elastic::{
    ElasticConfig, ElasticEvent, ElasticKind, ElasticPlan, ElasticRates, RepairPolicy,
};
use gp_engine::{AsyncGas, ComputeReport, EngineConfig, HybridGas, Pregel, PregelConfig, SyncGas};
use gp_fault::CheckpointPolicy;
use gp_partition::{Assignment, PartitionContext, Strategy};

/// A chain with shortcut edges: WCC takes ~30 supersteps, so events
/// scheduled mid-run actually fire, and every partition carries work.
fn graph() -> EdgeList {
    let mut pairs: Vec<(u64, u64)> = (0..60).map(|i| (i, i + 1)).collect();
    pairs.extend((0..30).map(|i| (i, i + 31)));
    EdgeList::from_pairs(pairs)
}

fn assignment(g: &EdgeList) -> Assignment {
    Strategy::Random
        .build()
        .partition(g, &PartitionContext::new(9))
        .assignment
}

fn healthy() -> EngineConfig {
    EngineConfig::new(ClusterSpec::local_9())
}

fn sync_job(config: EngineConfig) -> (Vec<u64>, ComputeReport) {
    let g = graph();
    let a = assignment(&g);
    SyncGas::new(config).run(&g, &a, &Wcc)
}

#[test]
fn empty_plan_is_bit_identical_across_all_engines() {
    let g = graph();
    let a = assignment(&g);
    // Both flavors of "no events": the hand-built empty plan and a seeded
    // draw at all-zero rates.
    let zero_rate =
        ElasticPlan::generate(99, &ClusterSpec::local_9(), 500, &ElasticRates::default());
    for plan in [ElasticPlan::none(), zero_rate] {
        let with = ElasticConfig::new(plan).with_repair(RepairPolicy::AlwaysRepartition);

        let (s1, r1) = SyncGas::new(healthy()).run(&g, &a, &Wcc);
        let (s2, r2) = SyncGas::new(healthy().with_elastic(with.clone())).run(&g, &a, &Wcc);
        assert_eq!(s1, s2);
        assert_eq!(format!("{r1:?}"), format!("{r2:?}"), "sync-gas bit-for-bit");

        let (s1, r1) = HybridGas::new(healthy()).run(&g, &a, &Wcc);
        let (s2, r2) = HybridGas::new(healthy().with_elastic(with.clone())).run(&g, &a, &Wcc);
        assert_eq!(s1, s2);
        assert_eq!(format!("{r1:?}"), format!("{r2:?}"), "hybrid bit-for-bit");

        let (s1, r1) = AsyncGas::new(healthy()).run(&g, &a, &Wcc);
        let (s2, r2) = AsyncGas::new(healthy().with_elastic(with.clone())).run(&g, &a, &Wcc);
        assert_eq!(s1, s2);
        assert_eq!(
            format!("{r1:?}"),
            format!("{r2:?}"),
            "async-gas bit-for-bit"
        );

        let (s1, r1) = Pregel::new(PregelConfig::new(healthy()))
            .run(&g, &a, &Wcc)
            .expect("fits");
        let (s2, r2) = Pregel::new(PregelConfig::new(healthy().with_elastic(with)))
            .run(&g, &a, &Wcc)
            .expect("fits");
        assert_eq!(s1, s2);
        assert_eq!(format!("{r1:?}"), format!("{r2:?}"), "pregel bit-for-bit");
    }
}

#[test]
fn wall_clock_is_monotone_in_preemption_count() {
    let (_, base) = sync_job(healthy());
    let horizon = base.supersteps();
    assert!(horizon > 6, "need room for several strikes, got {horizon}");
    // The plan for `count` is a strict prefix of the plan for `count + 1`:
    // each step up adds exactly one unwarned departure to an otherwise
    // identical schedule.
    let strikes = [(2, 4), (4, 7), (6, 1)];
    let walls: Vec<f64> = (0..=strikes.len())
        .map(|count| {
            let mut plan = ElasticPlan::none();
            for &(superstep, machine) in &strikes[..count] {
                plan.push(ElasticEvent {
                    superstep,
                    kind: ElasticKind::Preempt {
                        machine,
                        warning_steps: 0,
                    },
                });
            }
            sync_job(healthy().with_elastic(ElasticConfig::new(plan)))
                .1
                .wall_clock_seconds()
        })
        .collect();
    for w in walls.windows(2) {
        assert!(w[0] < w[1], "an extra preemption must cost time: {walls:?}");
    }
}

#[test]
fn sufficient_warning_never_loses_to_checkpoint_recovery() {
    for machine in 0..9 {
        let (_, graceful) = sync_job(
            healthy().with_elastic(ElasticConfig::new(ElasticPlan::preempt_at(5, machine, 5))),
        );
        assert_eq!(
            graceful.evacuations, 1,
            "m{machine}: a 5-step window must suffice on this job"
        );
        assert_eq!(graceful.forced_recoveries, 0);
        // The same departure with no warning, recovered from checkpoints —
        // and from scratch. Graceful degradation beats both.
        let (_, from_ckpt) = sync_job(
            healthy()
                .with_checkpoint(CheckpointPolicy::every(2))
                .with_elastic(ElasticConfig::new(ElasticPlan::preempt_at(5, machine, 0))),
        );
        let (_, from_scratch) = sync_job(
            healthy().with_elastic(ElasticConfig::new(ElasticPlan::preempt_at(5, machine, 0))),
        );
        assert_eq!(from_ckpt.forced_recoveries, 1);
        assert!(
            graceful.wall_clock_seconds() <= from_ckpt.wall_clock_seconds(),
            "m{machine}: graceful {} vs checkpointed recovery {}",
            graceful.wall_clock_seconds(),
            from_ckpt.wall_clock_seconds()
        );
        assert!(
            graceful.wall_clock_seconds() <= from_scratch.wall_clock_seconds(),
            "m{machine}: graceful {} vs from-scratch recovery {}",
            graceful.wall_clock_seconds(),
            from_scratch.wall_clock_seconds()
        );
    }
}

#[test]
fn elastic_pipeline_is_byte_deterministic_under_a_seed() {
    let spec = ClusterSpec::local_9();
    let rates = ElasticRates {
        scale_out_per_step: 0.05,
        drain_per_step: 0.03,
        preempt_per_step: 0.08,
        ..ElasticRates::default()
    };
    let run = |seed: u64| {
        let plan = ElasticPlan::generate(seed, &spec, 30, &rates);
        let (states, report) = sync_job(healthy().with_elastic(ElasticConfig::new(plan)));
        format!("{states:?}/{report:?}")
    };
    assert_eq!(run(3), run(3), "same seed, same bytes");
    assert_ne!(run(3), run(4), "different seed, different schedule");
}
