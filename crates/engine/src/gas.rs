//! The synchronous GAS engine — PowerGraph (§5.1.2).
//!
//! Execution is divided into supersteps, each with Gather, Apply and Scatter
//! minor-steps separated by barriers:
//!
//! * **Gather** — every replica of an active vertex performs a local gather
//!   over its local gather-direction edges; *every mirror* then sends its
//!   partial aggregate to the master (one message per mirror — this is what
//!   makes network traffic linear in replication factor, Fig 5.3).
//! * **Apply** — the master merges partials, updates the vertex state, and,
//!   if the state changed, synchronizes all mirrors (one message per mirror).
//! * **Scatter** — replicas scan local scatter-direction edges of changed
//!   vertices and activate neighbors for the next superstep.
//!
//! State semantics are exact (one canonical state array, equivalent to
//! perfectly-synced mirrors); costs are accounted against the distributed
//! layout: the [`Assignment`](gp_partition::Assignment)'s replicas,
//! masters and local edge counts, folded onto the cluster's machines.
//! PowerLyra and GraphX run the same semantic pass and differ only in
//! cost ([`crate::Model`]).

use crate::accounting::{MachineTallies, Update};
use crate::program::{ApplyInfo, Direction, InitInfo, VertexProgram};
use crate::report::EngineConfig;
use crate::trace::{superstep_cap, SemanticTrace, Semantics};
use gp_core::{CsrGraph, EdgeList, VertexId};

#[inline]
fn info(csr: &CsrGraph, v: VertexId) -> InitInfo {
    InitInfo {
        num_vertices: csr.num_vertices(),
        out_degree: csr.out_degree(v),
        in_degree: csr.in_degree(v),
    }
}

/// Fold `program.accumulate` over `v`'s gather-direction neighbors, in-edges
/// first, reading `states` as they are: the one place an engine runs a
/// program's per-edge code. Plain `inline` is measured: with the programs'
/// callbacks inlined into this loop, forcing the loop itself into each
/// engine no longer pays (1 M-edge PageRank(10): 44 ms, 47 with
/// `inline(always)`; EXPERIMENTS.md "Engine hot path II").
#[inline]
pub(crate) fn gather_neighbors<P: VertexProgram>(
    program: &P,
    csr: &CsrGraph,
    states: &[P::State],
    v: VertexId,
    dir: Direction,
) -> Option<P::Accum> {
    let mut acc: Option<P::Accum> = None;
    let mut fold =
        |u: VertexId| program.accumulate(&mut acc, v, u, &states[u.index()], info(csr, u));
    if dir.includes_in() {
        csr.in_neighbors(v).for_each(&mut fold);
    }
    if dir.includes_out() {
        csr.out_neighbors(v).for_each(&mut fold);
    }
    acc
}

/// Set `marks[u]` for every `dir`-neighbor `u` of `v`.
#[inline]
pub(crate) fn mark_neighbors(csr: &CsrGraph, v: VertexId, dir: Direction, marks: &mut [bool]) {
    if dir.includes_out() {
        for u in csr.out_neighbors(v) {
            marks[u.index()] = true;
        }
    }
    if dir.includes_in() {
        for u in csr.in_neighbors(v) {
            marks[u.index()] = true;
        }
    }
}

/// Initial states and activity of every vertex.
pub(crate) fn init_vertices<P: VertexProgram>(
    program: &P,
    csr: &CsrGraph,
) -> (Vec<P::State>, Vec<bool>) {
    let states = csr
        .vertices()
        .map(|v| program.init(v, info(csr, v)))
        .collect();
    let active = csr
        .vertices()
        .map(|v| program.initially_active(v))
        .collect();
    (states, active)
}

/// What a semantic pass over a range of active vertices produces besides
/// its updates, in visit order: the states to commit, the delta-cache slots
/// to fill, and (in `marks`, when the program's activations are ever read)
/// next superstep's activations.
struct PassOutput<P: VertexProgram> {
    commits: Vec<(usize, P::State)>,
    cache_writes: Vec<(usize, Option<P::Accum>)>,
    marks: Vec<bool>,
}

impl<P: VertexProgram> PassOutput<P> {
    fn new(marks: usize) -> Self {
        PassOutput {
            commits: Vec::new(),
            cache_writes: Vec::new(),
            marks: vec![false; marks],
        }
    }
}

/// The synchronous semantic pass of PowerGraph, PowerLyra and GraphX:
/// the final states, and the [`SemanticTrace`] of every superstep's
/// updates. It reads the graph, the program, the superstep cap,
/// `config.par` and the gather-cache flag of `semantics`, never a
/// placement, so one pass prices on every partitioning.
///
/// Each superstep runs in two phases so that `config.par` can parallelize
/// it without changing a single output bit:
///
/// 1. **Semantic pass** (chunk-parallel): states are frozen for the
///    superstep, so every active vertex's gather/apply is independent.
///    Chunks emit ordered [`Update`]s and commits; concatenating them in
///    chunk order reproduces the sequential visit order, and per-chunk
///    activation bitmaps merge by OR (idempotent, order-free). On one
///    thread the pass writes straight into the trace and the loop's own
///    buffers.
/// 2. **Commit** (sequential): the delta-cache slots fill, changed states
///    land simultaneously (synchronous semantics), and the trace closes the
///    superstep. Its cost is a pure function of the placement and that
///    sequence ([`crate::accounting`]), so the pass never sees the price.
pub(crate) fn sync_trace<P: VertexProgram>(
    config: &EngineConfig,
    graph: &EdgeList,
    program: &P,
    semantics: Semantics,
) -> (Vec<P::State>, SemanticTrace) {
    let mut trace = SemanticTrace::new(program, semantics, graph);
    let csr = graph.csr();
    let delta_caching = matches!(
        semantics,
        Semantics::Synchronous {
            delta_caching: true
        }
    );
    let n = csr.num_vertices() as usize;
    let (mut states, mut active) = init_vertices(program, csr);
    let gdir = program.gather_direction();
    let sdir = program.scatter_direction();
    let cap = superstep_cap(program);
    let always_active = program.always_active();
    // An always-active program's activations are never read.
    let marks_neighbors = !always_active;

    // Gather (delta) caching: `gather_cache[v]` holds v's last computed
    // accumulator; it stays valid until a gather-direction neighbor of v
    // changes (`cache_dirty[v]`). Only allocated when enabled.
    let cached = if delta_caching { n } else { 0 };
    let mut gather_cache: Vec<Option<Option<P::Accum>>> = vec![None; cached];
    let mut cache_dirty = vec![true; cached];

    let mut actives: Vec<usize> = Vec::new();
    let mut out = PassOutput::<P>::new(if always_active { 0 } else { n });
    for superstep in 0..cap {
        actives.clear();
        actives.extend((0..n).filter(|&v| active[v]));
        if actives.is_empty() {
            trace.converged = true;
            break;
        }
        // --- Phase 1: semantic pass over frozen states. A vertex's cache
        // slot is read/written only by its own iteration, so deferring the
        // writes to after the pass keeps them slot-disjoint.
        let pass = |vertices: &[usize], updates: &mut Vec<Update>, out: &mut PassOutput<P>| {
            for &vi in vertices {
                let v = VertexId(vi as u64);
                let cache_hit = delta_caching && !cache_dirty[vi] && gather_cache[vi].is_some();
                let acc = if cache_hit {
                    gather_cache[vi].clone().expect("checked above")
                } else {
                    let acc = gather_neighbors(program, csr, &states, v, gdir);
                    if delta_caching {
                        out.cache_writes.push((vi, acc.clone()));
                    }
                    acc
                };
                let new = program.apply(
                    v,
                    &states[vi],
                    acc,
                    ApplyInfo {
                        superstep,
                        out_degree: csr.out_degree(v),
                        in_degree: csr.in_degree(v),
                    },
                );
                let changed = new != states[vi];
                // Initially-active vertices scatter in superstep 0 even
                // without a state change — "at the start of computation,
                // all [active] vertices ... send out their label IDs"
                // (§3.3.2); for SSSP only the source is active and must
                // seed the frontier.
                let scatters = changed || superstep == 0;
                if scatters && marks_neighbors {
                    mark_neighbors(csr, v, sdir, &mut out.marks);
                }
                if !always_active && program.self_reactivates(&new) {
                    out.marks[vi] = true;
                }
                updates.push(Update::new(vi, cache_hit, changed, scatters));
                if changed {
                    out.commits.push((vi, new));
                }
            }
        };
        out.marks.fill(false);
        if config.par.is_parallel() {
            // Ordered join: concatenate in chunk order, OR the bitmaps.
            let marks_len = out.marks.len();
            let chunks = gp_par::map_chunks(&config.par, actives.len(), |range| {
                let (mut updates, mut chunk) = (Vec::new(), PassOutput::new(marks_len));
                pass(&actives[range], &mut updates, &mut chunk);
                (updates, chunk)
            });
            for (updates, chunk) in chunks {
                trace.open_step().extend(updates);
                out.commits.extend(chunk.commits);
                out.cache_writes.extend(chunk.cache_writes);
                for (mark, chunk_mark) in out.marks.iter_mut().zip(&chunk.marks) {
                    *mark |= *chunk_mark;
                }
            }
        } else {
            pass(&actives, trace.open_step(), &mut out);
        }
        for (vi, acc) in out.cache_writes.drain(..) {
            gather_cache[vi] = Some(acc);
            cache_dirty[vi] = false;
        }

        // --- Phase 2: commit simultaneously (synchronous semantics).
        let any_changed = !out.commits.is_empty();
        for (vi, new) in out.commits.drain(..) {
            states[vi] = new;
            if delta_caching {
                // Invalidate the gather caches that read this vertex:
                // w gathers v through w's gather-direction edges, i.e.
                // v's *opposite*-direction neighbors.
                let v = VertexId(vi as u64);
                if gdir.includes_in() {
                    for w in csr.out_neighbors(v) {
                        cache_dirty[w.index()] = true;
                    }
                }
                if gdir.includes_out() {
                    for w in csr.in_neighbors(v) {
                        cache_dirty[w.index()] = true;
                    }
                }
            }
        }

        trace.close_step();

        if always_active {
            active.fill(true);
        } else {
            std::mem::swap(&mut active, &mut out.marks);
            if !any_changed && superstep > 0 {
                // Fixed point: nothing changed, so no scatter activations
                // exist (superstep 0 is exempt — initial scatters may still
                // seed work).
                trace.converged = true;
                break;
            }
        }
    }
    trace.frontier_empty = active.iter().all(|&a| !a);
    (states, trace)
}

/// PowerGraph's and PowerLyra's superstep time: the slowest machine's work,
/// the busiest machine's inbound traffic, and three minor-step barriers.
pub(crate) fn barrier_wall(config: &EngineConfig, tallies: &MachineTallies) -> f64 {
    let compute_rate = config.spec.compute_rate();
    let barrier =
        3.0 * config.spec.latency_s * (config.spec.machines as f64).log2().ceil().max(1.0);
    tallies.work.iter().copied().fold(0.0, f64::max) / compute_rate
        + tallies.in_bytes.iter().copied().fold(0.0, f64::max) / config.spec.bandwidth_bytes_per_s
        + barrier
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ComputeReport, Engine, Model};
    use gp_cluster::ClusterSpec;
    use gp_partition::{Assignment, PartitionContext, Strategy};

    /// Minimal label-propagation program (WCC) for engine tests.
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

    fn run<P: VertexProgram>(
        g: &EdgeList,
        a: &Assignment,
        p: &P,
    ) -> (Vec<P::State>, ComputeReport) {
        let engine = Engine::new(EngineConfig::new(ClusterSpec::local_9()), Model::Sync);
        engine.run(g, a, p).unwrap()
    }

    fn partitioned(g: &EdgeList, s: Strategy, p: u32) -> Assignment {
        s.build().partition(g, &PartitionContext::new(p)).assignment
    }

    #[test]
    fn min_label_converges_to_component_minimum() {
        // Two components: {0,1,2} and {3,4}.
        let g = EdgeList::from_pairs(vec![(0, 1), (1, 2), (3, 4)]);
        let a = partitioned(&g, Strategy::Random, 4);
        let (states, report) = run(&g, &a, &MinLabel);
        assert_eq!(states, vec![0, 0, 0, 3, 3]);
        assert!(report.converged);
    }

    #[test]
    fn chain_takes_diameter_supersteps() {
        let g = EdgeList::from_pairs((0..50).map(|i| (i, i + 1)).collect());
        let a = partitioned(&g, Strategy::Random, 4);
        let (states, report) = run(&g, &a, &MinLabel);
        assert!(states.iter().all(|&s| s == 0));
        // Label 0 travels one hop per superstep.
        assert!(
            report.supersteps() >= 50,
            "supersteps {}",
            report.supersteps()
        );
    }

    #[test]
    fn traffic_grows_with_replication_factor() {
        // The Fig 5.3 relationship, at unit-test scale.
        let g = gp_gen::barabasi_albert(3_000, 6, 5);
        let ctx = PartitionContext::new(9);
        let grid = Strategy::Grid.build().partition(&g, &ctx);
        let rand = Strategy::AsymmetricRandom.build().partition(&g, &ctx);
        assert!(rand.assignment.replication_factor() > grid.assignment.replication_factor());
        let (_, rep_grid) = run(&g, &grid.assignment, &MinLabel);
        let (_, rep_rand) = run(&g, &rand.assignment, &MinLabel);
        assert!(
            rep_rand.total_in_bytes() > rep_grid.total_in_bytes(),
            "higher RF must cost more traffic: {} vs {}",
            rep_rand.total_in_bytes(),
            rep_grid.total_in_bytes()
        );
    }

    #[test]
    fn single_partition_has_zero_network() {
        let g = gp_gen::erdos_renyi(200, 1_000, 2);
        let a = partitioned(&g, Strategy::Random, 1);
        let (_, report) = run(&g, &a, &MinLabel);
        assert_eq!(report.total_in_bytes(), 0.0);
        assert!(report.converged);
    }

    #[test]
    fn results_independent_of_partitioning() {
        let g = gp_gen::erdos_renyi(500, 3_000, 9);
        let mut last: Option<Vec<u64>> = None;
        for s in [
            Strategy::Random,
            Strategy::Grid,
            Strategy::Hybrid,
            Strategy::Hdrf,
        ] {
            let a = partitioned(&g, s, 9);
            let (states, _) = run(&g, &a, &MinLabel);
            if let Some(prev) = &last {
                assert_eq!(
                    prev, &states,
                    "partitioning must not change results ({s:?})"
                );
            }
            last = Some(states);
        }
    }

    #[test]
    fn inactive_start_converges_immediately() {
        struct Never;
        impl VertexProgram for Never {
            type State = u8;
            type Accum = u8;
            fn name(&self) -> &'static str {
                "never"
            }
            fn gather_direction(&self) -> Direction {
                Direction::Both
            }
            fn scatter_direction(&self) -> Direction {
                Direction::Both
            }
            fn init(&self, _: VertexId, _: InitInfo) -> u8 {
                0
            }
            fn initially_active(&self, _: VertexId) -> bool {
                false
            }
            fn gather(&self, _: VertexId, _: VertexId, s: &u8, _: InitInfo) -> u8 {
                *s
            }
            fn merge(&self, a: u8, _: u8) -> u8 {
                a
            }
            fn apply(&self, _: VertexId, old: &u8, _: Option<u8>, _: ApplyInfo) -> u8 {
                *old
            }
        }
        let g = EdgeList::from_pairs(vec![(0, 1)]);
        let a = partitioned(&g, Strategy::Random, 2);
        let (_, report) = run(&g, &a, &Never);
        assert_eq!(report.supersteps(), 0);
        assert!(report.converged);
    }

    #[test]
    fn gather_neighbors_visits_in_edges_then_out_edges_once_each() {
        /// Records every gathered neighbor, in visit order.
        struct Visits;
        impl VertexProgram for Visits {
            type State = u64;
            type Accum = Vec<u64>;
            fn name(&self) -> &'static str {
                "visits"
            }
            fn gather_direction(&self) -> Direction {
                Direction::Both
            }
            fn scatter_direction(&self) -> Direction {
                Direction::None
            }
            fn init(&self, v: VertexId, _: InitInfo) -> u64 {
                v.0
            }
            fn initially_active(&self, _: VertexId) -> bool {
                true
            }
            fn gather(&self, _: VertexId, nbr: VertexId, s: &u64, info: InitInfo) -> Vec<u64> {
                // The engine hands over the neighbor's own state and degrees.
                assert_eq!((*s, info.num_vertices), (nbr.0, 5));
                vec![nbr.0]
            }
            fn merge(&self, mut a: Vec<u64>, b: Vec<u64>) -> Vec<u64> {
                a.extend(b);
                a
            }
            fn apply(&self, _: VertexId, old: &u64, _: Option<Vec<u64>>, _: ApplyInfo) -> u64 {
                *old
            }
        }
        // Vertex 2: in-edges from 0, 1, 2 (self-loop) and 0 again (duplicate),
        // out-edges to 2, 3 and 3; vertex 4 has no out-edges.
        let g = EdgeList::from_pairs(vec![(0, 2), (1, 2), (2, 2), (0, 2), (2, 3), (2, 3), (3, 4)]);
        let csr = CsrGraph::from_edge_list(&g);
        let (states, _) = init_vertices(&Visits, &csr);
        let gathered = |v: u64, dir| {
            gather_neighbors(&Visits, &csr, &states, VertexId(v), dir).unwrap_or_default()
        };
        let sorted = |mut visits: Vec<u64>| {
            visits.sort_unstable();
            visits
        };
        assert_eq!(sorted(gathered(2, Direction::In)), [0, 0, 1, 2]);
        assert_eq!(sorted(gathered(2, Direction::Out)), [2, 3, 3]);
        for v in 0..5 {
            let both = [gathered(v, Direction::In), gathered(v, Direction::Out)].concat();
            assert_eq!(gathered(v, Direction::Both), both, "in-edges first at {v}");
            assert_eq!(
                both.len() as u32,
                csr.in_degree(VertexId(v)) + csr.out_degree(VertexId(v))
            );
            let none = gather_neighbors(&Visits, &csr, &states, VertexId(v), Direction::None);
            assert_eq!(none, None);
        }
        // No gather edges is `None`, not an empty accumulator.
        let no_edges = gather_neighbors(&Visits, &csr, &states, VertexId(4), Direction::Out);
        assert_eq!(no_edges, None);
    }

    #[test]
    fn wall_time_is_positive_and_bounded_by_parts() {
        let g = gp_gen::erdos_renyi(500, 4_000, 3);
        let a = partitioned(&g, Strategy::Random, 9);
        let (_, report) = run(&g, &a, &MinLabel);
        assert!(report.compute_seconds() > 0.0);
        for s in &report.steps {
            assert!(s.wall_seconds > 0.0);
            assert_eq!(s.machine_work.len(), 9);
        }
    }
}

#[cfg(test)]
mod delta_caching_tests {
    use super::*;
    use crate::program::{ApplyInfo, InitInfo};
    use crate::{ComputeReport, Engine, Model};
    use gp_cluster::ClusterSpec;
    use gp_partition::{PartitionContext, Strategy};

    /// PageRank-shaped convergence program: activity shrinks over time, so
    /// late supersteps have many unchanged neighborhoods for the cache.
    struct Converging;
    impl VertexProgram for Converging {
        type State = u64;
        type Accum = u64;
        fn name(&self) -> &'static str {
            "converging"
        }
        fn gather_direction(&self) -> Direction {
            Direction::In
        }
        fn scatter_direction(&self) -> Direction {
            Direction::Out
        }
        fn init(&self, v: VertexId, _: InitInfo) -> u64 {
            v.0 % 97
        }
        fn initially_active(&self, _: VertexId) -> bool {
            true
        }
        fn gather(&self, _: VertexId, _: VertexId, s: &u64, _: InitInfo) -> u64 {
            *s
        }
        fn merge(&self, a: u64, b: u64) -> u64 {
            a.max(b)
        }
        fn apply(&self, _: VertexId, old: &u64, acc: Option<u64>, _: ApplyInfo) -> u64 {
            acc.map_or(*old, |a| a.max(*old))
        }
    }

    fn run_with(delta: bool) -> (Vec<u64>, ComputeReport) {
        let g = gp_gen::barabasi_albert(3_000, 6, 11);
        let a = Strategy::Random
            .build()
            .partition(&g, &PartitionContext::new(9))
            .assignment;
        let config = EngineConfig::new(ClusterSpec::local_9()).with_delta_caching(delta);
        Engine::new(config, Model::Sync)
            .run(&g, &a, &Converging)
            .unwrap()
    }

    #[test]
    fn delta_caching_preserves_results() {
        let (plain, _) = run_with(false);
        let (cached, _) = run_with(true);
        assert_eq!(plain, cached);
    }

    #[test]
    fn delta_caching_cuts_gather_messages() {
        let (_, plain) = run_with(false);
        let (_, cached) = run_with(true);
        let gm = |r: &ComputeReport| r.steps.iter().map(|s| s.gather_messages).sum::<u64>();
        assert!(
            gm(&cached) < gm(&plain),
            "caching should cut gather messages: {} vs {}",
            gm(&cached),
            gm(&plain)
        );
        assert!(cached.compute_seconds() <= plain.compute_seconds());
    }
}
