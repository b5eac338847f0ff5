//! Property gates for the elastic model, in the same style as the gp-net
//! zero-cost gates:
//!
//! 1. An empty `ElasticPlan` leaves every engine's report
//!    **byte-identical** to a run without the model.
//! 2. Wall-clock is monotone in the preemption count: each additional
//!    strike can only cost time.
//! 3. When the warning window suffices, graceful evacuation never loses to
//!    checkpoint recovery of the same departure.
//! 4. The whole pipeline is byte-deterministic under any drawn plan.

use gp_apps::Wcc;
use gp_cluster::ClusterSpec;
use gp_core::EdgeList;
use gp_elastic::{ElasticConfig, ElasticEvent, ElasticKind, ElasticPlan, RepairPolicy};
use gp_engine::{ComputeReport, Engine, EngineConfig, Model};
use gp_fault::CheckpointPolicy;
use gp_partition::{Assignment, PartitionContext, Strategy};
use proptest::prelude::*;

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
    Engine::new(config, Model::Sync).run(&g, &a, &Wcc).unwrap()
}

#[test]
fn empty_plan_is_bit_identical_across_all_engines() {
    let g = graph();
    let a = assignment(&g);
    let with = ElasticConfig::new(ElasticPlan::none()).with_repair(RepairPolicy::AlwaysRepartition);
    for model in [Model::Sync, Model::Hybrid, Model::Async, Model::GRAPHX] {
        let (s1, r1) = Engine::new(healthy(), model).run(&g, &a, &Wcc).unwrap();
        let (s2, r2) = Engine::new(healthy().with_elastic(with.clone()), model)
            .run(&g, &a, &Wcc)
            .unwrap();
        assert_eq!(s1, s2, "{model:?}");
        assert_eq!(
            format!("{r1:?}"),
            format!("{r2:?}"),
            "{model:?} bit-for-bit"
        );
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn elastic_pipeline_is_byte_deterministic_under_a_drawn_plan(
        // (superstep, kind, machine or batch, warning): kind 0 scales out by
        // 1–3 machines, 1 drains and 2 preempts, warned up to 5 supersteps.
        drawn in proptest::collection::vec((0u32..20, 0u8..3, 0u32..9, 0u32..6), 1..6),
    ) {
        let mut plan = ElasticPlan::none();
        for &(superstep, kind, x, warning) in &drawn {
            let warning_steps = warning.min(superstep);
            let kind = match kind {
                0 => ElasticKind::ScaleOut {
                    machines_added: x % 3 + 1,
                },
                1 => ElasticKind::Drain {
                    machine: x,
                    warning_steps,
                },
                _ => ElasticKind::Preempt {
                    machine: x,
                    warning_steps,
                },
            };
            plan.push(ElasticEvent { superstep, kind });
        }
        let run = |config: EngineConfig| {
            let (states, report) = sync_job(config);
            format!("{states:?}/{report:?}")
        };
        let with = || healthy().with_elastic(ElasticConfig::new(plan.clone()));
        prop_assert_eq!(run(with()), run(with()), "same plan, same bytes");
        // Every event lands inside the run, so each one is counted.
        prop_assert_ne!(run(with()), run(healthy()), "a scheduled event shows");
    }
}
