//! The one cost-accounting kernel shared by every engine, and the pricing
//! loop that drives it.
//!
//! An engine's semantic pass reduces each vertex update to an [`Update`] —
//! the vertex and three flags — and [`Accountant::account`] turns a
//! superstep's update sequence into per-machine work, traffic and message
//! tallies against the [`Assignment`]'s replicas and local edge counts,
//! folded onto the cluster's machines: a pure function of the run's
//! constants and that sequence. [`Accountant::price`] walks a
//! [`SemanticTrace`] through it: a superstep the trace stores as a repeat
//! of the one before gets that one's tallies again instead of a recount,
//! and the engine's superstep clock turns each superstep's tallies into the
//! report's [`SuperstepStats`].
//!
//! Byte tallies accumulate as `u64`: every addend the engines ever added
//! was a `u64 as f64` into a cell starting at `0.0`, so below 2^53 (asserted
//! by [`Accountant::new`]) the f64 sum was exact, order-free, and equal to
//! the integer sum converted at the end. `work` addends are not integers
//! (`SCATTER_WORK` is 0.6); work stays f64 in the original per-cell order.

use crate::program::{Direction, VertexProgram};
use crate::report::{EngineConfig, SuperstepStats};
use crate::trace::{Origin, SemanticTrace, Semantics};
use gp_core::{EdgeList, VertexId};
use gp_partition::Assignment;
use std::sync::Arc;

/// Who sends gather partials to the master.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum GatherPolicy {
    /// PowerGraph: every mirror participates in the gather round.
    AllMirrors,
    /// PowerLyra: for vertices at or below the degree threshold, only
    /// replicas that hold local gather-direction edges send partials
    /// (a low-degree vertex whose gather-edges sit at its master sends
    /// nothing at all). Above the threshold, behave like PowerGraph.
    LocalAware {
        /// Degree at or below which the differentiated path is used.
        threshold: u32,
    },
    /// GraphX's `aggregateMessages`: whatever the degree, only edge
    /// partitions with gather-direction edges emit a (pre-aggregated)
    /// message per destination vertex, and no scatter scan is charged.
    EdgePartitions,
}

/// Work units per local edge a replica visits during gather.
const GATHER_WORK: f64 = 1.0;
/// Work units per apply, charged to the master's machine.
const APPLY_WORK: f64 = 2.0;
/// Work units per local edge a replica scans during scatter.
const SCATTER_WORK: f64 = 0.6;

/// One vertex update as cost accounting sees it: vertex index and flags,
/// packed so a superstep's sequence compares as a slice of words.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Update(u64);

impl Update {
    const CACHE_HIT: u64 = 1;
    const CHANGED: u64 = 2;
    const SCATTERS: u64 = 4;

    /// Update of vertex `vi`: gather served from the delta cache, state
    /// changed (mirrors are synchronized), scatter edges scanned.
    #[inline]
    pub fn new(vi: usize, cache_hit: bool, changed: bool, scatters: bool) -> Self {
        Update((vi as u64) << 3 | cache_hit as u64 | (changed as u64) << 1 | (scatters as u64) << 2)
    }

    #[inline]
    fn vertex(self) -> usize {
        (self.0 >> 3) as usize
    }
}

/// Per-machine cost tallies for one superstep, plus its message counters.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct MachineTallies {
    /// Work units per machine.
    pub work: Vec<f64>,
    /// Inbound bytes per machine.
    pub in_bytes: Vec<f64>,
    /// Outbound bytes per machine.
    pub out_bytes: Vec<f64>,
    /// Mirror→master partial-aggregate messages.
    pub gather_messages: u64,
    /// Master→mirror state-sync messages.
    pub sync_messages: u64,
}

#[inline]
fn local_edges(dir: Direction, local_in: u32, local_out: u32) -> u32 {
    (if dir.includes_in() { local_in } else { 0 })
        + (if dir.includes_out() { local_out } else { 0 })
}

/// Degree of a vertex from its images' `(local_in, local_out)` counts: its
/// in- plus out-degree, a self-loop counting once each way.
fn degree(local: &[(u32, u32)]) -> u32 {
    local.iter().map(|&(i, o)| i + o).sum()
}

/// The accounting of one engine run: the trace origin it prices and its constants
/// (assignment, local edge counts, machine fold, policy, directions, wire sizes).
pub(crate) struct Accountant<'a> {
    origin: Origin,
    assignment: &'a Assignment,
    /// The assignment's `(local_in, local_out)` per image.
    local: Arc<[(u32, u32)]>,
    /// Machine hosting each partition.
    machine_of: Vec<u32>,
    machines: usize,
    policy: GatherPolicy,
    gather: Direction,
    scatter: Direction,
    accum_bytes: u64,
    state_bytes: u64,
}

impl<'a> Accountant<'a> {
    /// Accountant for one run of `program` on `assignment` of `graph` under
    /// `config` and `semantics`. Panics if `assignment` placed another
    /// graph, or if a machine's byte tally could reach 2^53 in one
    /// superstep (each image adds at most one gather and one sync message
    /// to a cell), where the f64 sums this kernel stands in for would have
    /// started rounding.
    pub fn new<P: VertexProgram>(
        config: &EngineConfig,
        program: &P,
        semantics: Semantics,
        policy: GatherPolicy,
        graph: &EdgeList,
        assignment: &'a Assignment,
    ) -> Self {
        let spec = &config.spec;
        assert!(spec.machines > 0, "a cluster has at least one machine");
        let (accum_bytes, state_bytes) = (program.accum_wire_bytes(), program.state_wire_bytes());
        let images = assignment.total_images() as u128;
        assert!(
            u128::from(accum_bytes.max(state_bytes)) * 2 * images < 1 << 53,
            "per-superstep traffic of {images} images at {accum_bytes}/{state_bytes} B \
             per message is not exactly representable"
        );
        Accountant {
            origin: Origin::of(config, program, semantics, graph),
            assignment,
            local: assignment.local_edge_counts(graph),
            machine_of: (0..assignment.num_partitions())
                .map(|p| spec.machine_of(p))
                .collect(),
            machines: spec.machines as usize,
            policy,
            gather: program.gather_direction(),
            scatter: program.scatter_direction(),
            accum_bytes,
            state_bytes,
        }
    }

    /// `(local_in, local_out)` of each image of `v`, in the order of
    /// `assignment.replicas(v)`.
    #[inline]
    fn local_counts(&self, v: VertexId) -> &[(u32, u32)] {
        let images = self.assignment.replica_count(v) as usize;
        &self.local[self.assignment.replica_offset(v)..][..images]
    }

    /// Machine hosting partition `p`.
    #[inline]
    fn machine_of(&self, p: u32) -> usize {
        self.machine_of[p as usize] as usize
    }

    /// Tally one superstep's `updates`, in order.
    pub fn account(&self, updates: &[Update]) -> MachineTallies {
        let assignment = self.assignment;
        let machines = self.machines;
        let mut work = vec![0.0f64; machines];
        let mut in_bytes = vec![0u64; machines];
        let mut out_bytes = vec![0u64; machines];
        let (mut gather_messages, mut sync_messages) = (0u64, 0u64);
        let charges_scatter = self.policy != GatherPolicy::EdgePartitions;
        for &update in updates {
            let vi = update.vertex();
            let v = VertexId(vi as u64);
            let parts = assignment.replicas(v);
            let local = self.local_counts(v);
            let master = assignment.master_of(v).0;
            let master_machine = self.machine_of(master);
            // Gather. A cache hit skips both the local gather work and the
            // mirror→master partial aggregates.
            if update.0 & Update::CACHE_HIT == 0 {
                let every_mirror_sends = match self.policy {
                    GatherPolicy::AllMirrors => true,
                    GatherPolicy::LocalAware { threshold } => degree(local) > threshold,
                    GatherPolicy::EdgePartitions => false,
                };
                for (&p, &(local_in, local_out)) in parts.iter().zip(local) {
                    let local_gather = local_edges(self.gather, local_in, local_out);
                    let m = self.machine_of(p);
                    work[m] += GATHER_WORK * local_gather as f64;
                    if p != master && (every_mirror_sends || local_gather > 0) {
                        gather_messages += 1;
                        if m != master_machine {
                            in_bytes[master_machine] += self.accum_bytes;
                            out_bytes[m] += self.accum_bytes;
                        }
                    }
                }
            }
            // Apply.
            work[master_machine] += APPLY_WORK;
            if update.0 & Update::CHANGED != 0 {
                // Mirror synchronization.
                for &p in parts {
                    if p == master {
                        continue;
                    }
                    sync_messages += 1;
                    let m = self.machine_of(p);
                    if m != master_machine {
                        in_bytes[m] += self.state_bytes;
                        out_bytes[master_machine] += self.state_bytes;
                    }
                }
            }
            if update.0 & Update::SCATTERS != 0 && charges_scatter {
                // Replicas scan their local scatter edges.
                for (&p, &(local_in, local_out)) in parts.iter().zip(local) {
                    let local_scatter = local_edges(self.scatter, local_in, local_out);
                    work[self.machine_of(p)] += SCATTER_WORK * local_scatter as f64;
                }
            }
        }
        MachineTallies {
            work,
            in_bytes: in_bytes.into_iter().map(|b| b as f64).collect(),
            out_bytes: out_bytes.into_iter().map(|b| b as f64).collect(),
            gather_messages,
            sync_messages,
        }
    }

    /// The per-superstep stats of `trace`: each superstep's tallies (a
    /// repeat reuses the previous superstep's), priced by `step_wall`, which
    /// gets them with the superstep's active-vertex count and may add work
    /// of its own first. Panics if the trace was recorded on another graph
    /// or for another program, semantics or superstep cap.
    pub fn price(
        &self,
        trace: &SemanticTrace,
        mut step_wall: impl FnMut(&mut MachineTallies, usize) -> f64,
    ) -> Vec<SuperstepStats> {
        let mut tallies: Option<MachineTallies> = None;
        let mut stats = Vec::new();
        for (superstep, (updates, repeat)) in trace.steps(self.origin).enumerate() {
            if !repeat {
                tallies = Some(self.account(updates));
            }
            let mut t = tallies.clone().expect("the first superstep repeats none");
            let wall = step_wall(&mut t, updates.len());
            stats.push(SuperstepStats {
                superstep: superstep as u32,
                active_vertices: updates.len() as u64,
                gather_messages: t.gather_messages,
                sync_messages: t.sync_messages,
                machine_work: t.work,
                machine_in_bytes: t.in_bytes,
                machine_out_bytes: t.out_bytes,
                wall_seconds: wall,
                replay: false,
                events: Vec::new(),
            });
        }
        stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::{ApplyInfo, InitInfo};
    use gp_cluster::ClusterSpec;
    use gp_core::{CsrGraph, EdgeList, Rng, Splitmix64};
    use gp_partition::{PartitionContext, Strategy};

    /// Carries only what the cost model reads.
    struct Wire {
        accum: u64,
        state: u64,
    }

    impl VertexProgram for Wire {
        type State = u8;
        type Accum = u8;
        fn name(&self) -> &'static str {
            "wire"
        }
        fn gather_direction(&self) -> Direction {
            Direction::In
        }
        fn scatter_direction(&self) -> Direction {
            Direction::Both
        }
        fn init(&self, _: VertexId, _: InitInfo) -> u8 {
            0
        }
        fn initially_active(&self, _: VertexId) -> bool {
            true
        }
        fn gather(&self, _: VertexId, _: VertexId, _: &u8, _: InitInfo) -> u8 {
            0
        }
        fn merge(&self, a: u8, _: u8) -> u8 {
            a
        }
        fn apply(&self, _: VertexId, old: &u8, _: Option<u8>, _: ApplyInfo) -> u8 {
            *old
        }
        fn accum_wire_bytes(&self) -> u64 {
            self.accum
        }
        fn state_wire_bytes(&self) -> u64 {
            self.state
        }
    }

    /// A graph and an assignment of it, with the graph's adjacency.
    struct Placed {
        graph: EdgeList,
        csr: CsrGraph,
        assignment: Assignment,
    }

    impl Placed {
        fn new(graph: EdgeList, strategy: Strategy, parts: u32) -> Self {
            let assignment = strategy
                .build()
                .partition(&graph, &PartitionContext::new(parts))
                .assignment;
            Placed {
                csr: CsrGraph::from_edge_list(&graph),
                graph,
                assignment,
            }
        }

        fn accountant(&self, wire: &Wire, policy: GatherPolicy) -> Accountant<'_> {
            let semantics = Semantics::Asynchronous;
            Accountant::new(
                &EngineConfig::new(ClusterSpec::local_9()),
                wire,
                semantics,
                policy,
                &self.graph,
                &self.assignment,
            )
        }
    }

    /// 36 partitions folded onto 9 machines, so several replicas of one
    /// vertex share a work cell.
    fn placed() -> Placed {
        Placed::new(gp_gen::barabasi_albert(400, 4, 5), Strategy::Hdrf, 36)
    }

    /// A shuffled update stream with every flag combination.
    fn updates(placed: &Placed, seed: u64) -> Vec<Update> {
        let mut rng = Splitmix64::new(seed);
        let n = placed.csr.num_vertices();
        (0..3 * n)
            .map(|_| {
                let flags = rng.next_below(8);
                Update::new(
                    rng.next_below(n) as usize,
                    flags & 1 != 0,
                    flags & 2 != 0,
                    flags & 4 != 0,
                )
            })
            .collect()
    }

    /// The engines' accounting loop as it stood before this kernel: every
    /// tally an f64 sum in visit order, machines resolved by `%`, degrees
    /// read from the adjacency.
    fn f64_reference(model: &Accountant, csr: &CsrGraph, updates: &[Update]) -> MachineTallies {
        let (assignment, machines) = (model.assignment, model.machines);
        let machine_of = |p: u32| p as usize % machines;
        let mut t = MachineTallies {
            work: vec![0.0; machines],
            in_bytes: vec![0.0; machines],
            out_bytes: vec![0.0; machines],
            gather_messages: 0,
            sync_messages: 0,
        };
        for &update in updates {
            let v = VertexId(update.vertex() as u64);
            let reps = || {
                let local = model.local_counts(v);
                assignment.replicas(v).iter().zip(local)
            };
            let master = assignment.master_of(v).0;
            let master_machine = machine_of(master);
            let degree = csr.in_degree(v) + csr.out_degree(v);
            if update.0 & Update::CACHE_HIT == 0 {
                for (&p, &(local_in, local_out)) in reps() {
                    let local_gather = local_edges(model.gather, local_in, local_out);
                    let m = machine_of(p);
                    t.work[m] += GATHER_WORK * local_gather as f64;
                    if p == master {
                        continue;
                    }
                    let sends = match model.policy {
                        GatherPolicy::AllMirrors => true,
                        GatherPolicy::LocalAware { threshold } => {
                            degree > threshold || local_gather > 0
                        }
                        GatherPolicy::EdgePartitions => local_gather > 0,
                    };
                    if sends {
                        t.gather_messages += 1;
                        if m != master_machine {
                            t.in_bytes[master_machine] += model.accum_bytes as f64;
                            t.out_bytes[m] += model.accum_bytes as f64;
                        }
                    }
                }
            }
            t.work[master_machine] += APPLY_WORK;
            if update.0 & Update::CHANGED != 0 {
                for (&p, _) in reps() {
                    if p == master {
                        continue;
                    }
                    t.sync_messages += 1;
                    let m = machine_of(p);
                    if m != master_machine {
                        t.in_bytes[m] += model.state_bytes as f64;
                        t.out_bytes[master_machine] += model.state_bytes as f64;
                    }
                }
            }
            // The Pregel loop never had a scatter scan to charge.
            if update.0 & Update::SCATTERS != 0 && model.policy != GatherPolicy::EdgePartitions {
                for (&p, &(local_in, local_out)) in reps() {
                    let local_scatter = local_edges(model.scatter, local_in, local_out);
                    t.work[machine_of(p)] += SCATTER_WORK * local_scatter as f64;
                }
            }
        }
        t
    }

    #[test]
    fn kernel_is_bit_identical_to_the_f64_loop_under_every_policy() {
        let placed = placed();
        let stream = updates(&placed, 1);
        for policy in [
            GatherPolicy::AllMirrors,
            GatherPolicy::LocalAware { threshold: 6 },
            GatherPolicy::EdgePartitions,
        ] {
            // Wire sizes up to 2^40 keep the byte cells exactly
            // representable (about 1 100 images here).
            for (accum, state) in [(16, 8), (1 << 40, (1 << 40) - 1)] {
                let wire = Wire { accum, state };
                let model = placed.accountant(&wire, policy);
                let tallies = model.account(&stream);
                let reference = f64_reference(&model, &placed.csr, &stream);
                assert_eq!(tallies, reference, "{policy:?}");
                assert!(tallies.in_bytes.iter().sum::<f64>() > 0.0);
            }
        }
    }

    #[test]
    fn work_tallies_depend_on_order_so_the_test_stream_is_sensitive() {
        let placed = placed();
        let wire = Wire {
            accum: 16,
            state: 16,
        };
        let model = placed.accountant(&wire, GatherPolicy::AllMirrors);
        let mut stream = updates(&placed, 1);
        let forward = model.account(&stream);
        stream.reverse();
        let backward = model.account(&stream);
        assert_ne!(forward.work, backward.work);
        assert_eq!(
            forward.in_bytes, backward.in_bytes,
            "integer tallies are order-free"
        );
        assert_eq!(forward.out_bytes, backward.out_bytes);
    }

    #[test]
    #[should_panic(expected = "not exactly representable")]
    fn traffic_beyond_two_to_the_53_is_refused() {
        let wire = Wire {
            accum: 1 << 50,
            state: 8,
        };
        placed().accountant(&wire, GatherPolicy::AllMirrors);
    }

    #[test]
    fn count_derived_degree_is_the_adjacency_degree_with_self_loops() {
        // Vertex 1 has a duplicated self-loop, vertex 2 a single one.
        let pairs = vec![(0, 1), (1, 1), (1, 1), (1, 2), (2, 2), (2, 0), (3, 1)];
        let graph = EdgeList::from_pairs(pairs);
        for strategy in [Strategy::Random, Strategy::Hdrf] {
            for parts in [1, 2, 4] {
                let placed = Placed::new(graph.clone(), strategy, parts);
                let wire = Wire { accum: 8, state: 8 };
                let model = placed.accountant(&wire, GatherPolicy::AllMirrors);
                let csr = &placed.csr;
                for v in csr.vertices() {
                    assert_eq!(
                        degree(model.local_counts(v)),
                        csr.in_degree(v) + csr.out_degree(v),
                        "{v} under {strategy:?} on {parts} partitions"
                    );
                }
            }
        }
    }
}
