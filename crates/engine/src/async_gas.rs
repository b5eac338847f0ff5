//! PowerGraph's asynchronous engine ([`Model::Async`](crate::Model::Async),
//! used by Simple Coloring, §5.4.1): its semantic pass and round clock.
//!
//! Without barriers, vertex updates execute as worker threads grab them,
//! reading whatever neighbor state is current. We model this with
//! deterministic block-sequential rounds over a PRNG-shuffled active set:
//! each update reads *current* states (not superstep-frozen ones), which is
//! what lets Simple Coloring converge at all — under synchronous semantics
//! adjacent vertices recolor simultaneously and livelock.
//!
//! Cost-wise the async engine pays per-update distributed-locking overhead
//! instead of per-superstep barriers, so its run time is **not** a clean
//! linear function of replication factor — the paper's explanation for why
//! Coloring deviates from the Fig 5.3/5.4 trend lines (and occasionally
//! "hangs" in the real system).

use crate::accounting::{MachineTallies, Update};
use crate::gas::{gather_neighbors, init_vertices, mark_neighbors};
use crate::program::{ApplyInfo, VertexProgram};
use crate::report::EngineConfig;
use crate::trace::{superstep_cap, SemanticTrace, Semantics};
use gp_core::{EdgeList, Rng, Splitmix64, VertexId};

/// Fraction of the cluster's synchronous throughput the async engine
/// achieves (lock contention, fine-grained scheduling).
const EFFICIENCY: f64 = 0.55;

/// Seconds of distributed-lock overhead per vertex update.
const LOCK_OVERHEAD_S: f64 = 2.0e-6;

/// PRNG seed for the update schedule.
const SCHEDULE_SEED: u64 = 0xA57C;

/// The async engine's round time, with no barrier: serialized-lock
/// overhead for the round's `active` updates plus pipelined work and
/// traffic.
pub(crate) fn lock_wall(config: &EngineConfig, tallies: &MachineTallies, active: usize) -> f64 {
    let machines = config.spec.machines as f64;
    let compute_rate = config.spec.compute_rate() * EFFICIENCY;
    active as f64 * LOCK_OVERHEAD_S / machines
        + tallies.work.iter().sum::<f64>() / compute_rate
        + tallies.in_bytes.iter().sum::<f64>() / (machines * config.spec.bandwidth_bytes_per_s)
}

/// The asynchronous semantic pass: rounds over the active set in an order
/// shuffled by a PRNG seeded with [`SCHEDULE_SEED`], each update reading and
/// committing current states. Returns the final states and the
/// [`SemanticTrace`] of every round's updates.
pub(crate) fn async_trace<P: VertexProgram>(
    graph: &EdgeList,
    program: &P,
) -> (Vec<P::State>, SemanticTrace) {
    let mut trace = SemanticTrace::new(program, Semantics::Asynchronous, graph);
    let csr = graph.csr();
    let n = csr.num_vertices() as usize;
    let (mut states, mut active) = init_vertices(program, csr);
    let gdir = program.gather_direction();
    let sdir = program.scatter_direction();
    let mut rng = Splitmix64::new(SCHEDULE_SEED);

    let mut order: Vec<usize> = Vec::new();
    let mut next_active = vec![false; n];
    for round in 0..superstep_cap(program) {
        order.clear();
        order.extend((0..n).filter(|&v| active[v]));
        if order.is_empty() {
            trace.converged = true;
            break;
        }
        // Fisher–Yates shuffle with the deterministic PRNG.
        for i in (1..order.len()).rev() {
            let j = rng.next_below(i as u64 + 1) as usize;
            order.swap(i, j);
        }
        next_active.fill(false);

        // The semantic pass must stay sequential — each update commits
        // immediately and the next one reads it — so costs are priced from
        // the update sequence after the round.
        let updates = trace.open_step();
        for &vi in &order {
            let v = VertexId(vi as u64);
            // Async gather reads *current* states.
            let acc = gather_neighbors(program, csr, &states, v, gdir);
            let new = program.apply(
                v,
                &states[vi],
                acc,
                ApplyInfo {
                    superstep: round,
                    out_degree: csr.out_degree(v),
                    in_degree: csr.in_degree(v),
                },
            );
            let changed = new != states[vi];
            if program.self_reactivates(&new) {
                next_active[vi] = true;
            }
            if changed {
                // Immediate commit — async semantics.
                states[vi] = new;
            }
            // Initial scatter in round 0 mirrors the synchronous engines.
            let scatters = changed || round == 0;
            if scatters {
                mark_neighbors(csr, v, sdir, &mut next_active);
            }
            updates.push(Update::new(vi, false, changed, scatters));
        }
        trace.close_step();
        std::mem::swap(&mut active, &mut next_active);
    }
    trace.frontier_empty = active.iter().all(|&a| !a);
    (states, trace)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::{Direction, InitInfo};
    use crate::{ComputeReport, Engine, Model};
    use gp_cluster::ClusterSpec;
    use gp_partition::{Assignment, PartitionContext, Strategy};

    /// Greedy coloring: the app that *requires* async semantics.
    struct Coloring;

    impl VertexProgram for Coloring {
        type State = u32;
        type Accum = Vec<u32>;
        fn name(&self) -> &'static str {
            "coloring"
        }
        fn gather_direction(&self) -> Direction {
            Direction::Both
        }
        fn scatter_direction(&self) -> Direction {
            Direction::Both
        }
        fn init(&self, _: VertexId, _: InitInfo) -> u32 {
            0
        }
        fn initially_active(&self, _: VertexId) -> bool {
            true
        }
        fn gather(&self, _: VertexId, _: VertexId, s: &u32, _: InitInfo) -> Vec<u32> {
            vec![*s]
        }
        fn merge(&self, mut a: Vec<u32>, b: Vec<u32>) -> Vec<u32> {
            a.extend(b);
            a
        }
        fn apply(&self, _: VertexId, old: &u32, acc: Option<Vec<u32>>, _: ApplyInfo) -> u32 {
            let taken = acc.unwrap_or_default();
            if !taken.contains(old) {
                return *old; // already conflict-free
            }
            (0..).find(|c| !taken.contains(c)).unwrap()
        }
        fn max_supersteps(&self) -> u32 {
            500
        }
    }

    fn run(g: &EdgeList, a: &Assignment) -> (Vec<u32>, ComputeReport) {
        let engine = Engine::new(EngineConfig::new(ClusterSpec::local_9()), Model::Async);
        engine.run(g, a, &Coloring).unwrap()
    }

    #[test]
    fn coloring_converges_to_proper_coloring() {
        let g = gp_gen::erdos_renyi(300, 1_500, 7);
        let a = Strategy::Random
            .build()
            .partition(&g, &PartitionContext::new(9))
            .assignment;
        let (colors, report) = run(&g, &a);
        assert!(report.converged, "async coloring should converge");
        for e in g.edges() {
            if !e.is_self_loop() {
                assert_ne!(
                    colors[e.src.index()],
                    colors[e.dst.index()],
                    "adjacent vertices share a color"
                );
            }
        }
    }

    #[test]
    fn coloring_uses_few_colors_on_a_path() {
        let g = EdgeList::from_pairs((0..100).map(|i| (i, i + 1)).collect());
        let a = Strategy::Random
            .build()
            .partition(&g, &PartitionContext::new(4))
            .assignment;
        let (colors, _) = run(&g, &a);
        assert!(
            colors.iter().all(|&c| c <= 2),
            "path needs at most 3 greedy colors"
        );
    }

    #[test]
    fn async_time_deviates_from_rf_linearity() {
        // Compare compute time ratios against RF ratios: async should NOT
        // track RF as tightly as the sync engine does.
        let g = gp_gen::barabasi_albert(2_000, 5, 11);
        let ctx = PartitionContext::new(9);
        let grid = Strategy::Grid.build().partition(&g, &ctx);
        let rand = Strategy::AsymmetricRandom.build().partition(&g, &ctx);
        let rf_ratio = rand.assignment.replication_factor() / grid.assignment.replication_factor();
        let (_, rep_g) = run(&g, &grid.assignment);
        let (_, rep_r) = run(&g, &rand.assignment);
        let time_ratio = rep_r.compute_seconds() / rep_g.compute_seconds();
        // The lock-overhead term is RF-independent, pulling the ratio toward
        // 1 relative to the RF ratio.
        assert!(
            (time_ratio - 1.0).abs() < (rf_ratio - 1.0).abs() + 0.5,
            "async time ratio {time_ratio} vs rf ratio {rf_ratio}"
        );
    }

    #[test]
    fn deterministic_given_seed() {
        let g = gp_gen::erdos_renyi(200, 1_000, 3);
        let a = Strategy::Random
            .build()
            .partition(&g, &PartitionContext::new(4))
            .assignment;
        let (c1, r1) = run(&g, &a);
        let (c2, r2) = run(&g, &a);
        assert_eq!(c1, c2);
        assert_eq!(r1.supersteps(), r2.supersteps());
    }
}
