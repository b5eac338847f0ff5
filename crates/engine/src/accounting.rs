//! The one cost-accounting kernel shared by every engine, and the pricing
//! loop that drives it.
//!
//! An engine's semantic pass reduces each vertex update to an [`Update`] —
//! the vertex and three flags — and [`Accountant::account`] turns a
//! superstep's update sequence into per-machine work, traffic and message
//! tallies against the [`Layout`]: a pure function of the run's constants
//! and that sequence. [`price`] walks a [`SemanticTrace`] through it: a
//! superstep the trace stores as a repeat of the one before gets that one's
//! tallies again instead of a recount, and the engine's superstep clock
//! turns each superstep's tallies into the report's [`SuperstepStats`].
//!
//! Byte tallies accumulate as `u64`: every addend the engines ever added
//! was a `u64 as f64` into a cell starting at `0.0`, so below 2^53 (asserted
//! by [`Accountant::new`]) the f64 sum was exact, order-free, and equal to
//! the integer sum converted at the end. `work` addends are not integers
//! (`scatter_work` is 0.6); work stays f64 in the original per-cell order.

use crate::layout::Layout;
use crate::program::{Direction, VertexProgram};
use crate::report::{EngineConfig, SuperstepStats};
use crate::trace::{SemanticTrace, Semantics};
use gp_core::VertexId;

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

/// The accounting of one engine run: its constants (layout, policy,
/// directions, work per operation, wire sizes).
pub(crate) struct Accountant<'a> {
    layout: &'a Layout,
    policy: GatherPolicy,
    gather: Direction,
    scatter: Direction,
    gather_work: f64,
    apply_work: f64,
    scatter_work: f64,
    accum_bytes: u64,
    state_bytes: u64,
}

impl<'a> Accountant<'a> {
    /// Accountant for one run of `program` under `config`. Panics if
    /// `layout` was built for another cluster size, or if a machine's byte
    /// tally could reach 2^53 in one superstep (each image adds at most one
    /// gather and one sync message to a cell), where the f64 sums this
    /// kernel stands in for would have started rounding.
    pub fn new<P: VertexProgram>(
        config: &EngineConfig,
        program: &P,
        policy: GatherPolicy,
        layout: &'a Layout,
    ) -> Self {
        assert_eq!(
            layout.machines(),
            config.spec.machines,
            "layout was built for another cluster size"
        );
        let (accum_bytes, state_bytes) = (program.accum_wire_bytes(), program.state_wire_bytes());
        let images = layout.replicas().total_images() as u128;
        assert!(
            u128::from(accum_bytes.max(state_bytes)) * 2 * images < 1 << 53,
            "per-superstep traffic of {images} images at {accum_bytes}/{state_bytes} B \
             per message is not exactly representable"
        );
        Accountant {
            layout,
            policy,
            gather: program.gather_direction(),
            scatter: program.scatter_direction(),
            gather_work: config.gather_work,
            apply_work: config.apply_work,
            scatter_work: config.scatter_work,
            accum_bytes,
            state_bytes,
        }
    }

    /// Tally one superstep's `updates`, in order.
    pub fn account(&self, updates: &[Update]) -> MachineTallies {
        let layout = self.layout;
        let machines = layout.machines() as usize;
        let table = layout.replicas();
        let csr = layout.csr();
        let mut work = vec![0.0f64; machines];
        let mut in_bytes = vec![0u64; machines];
        let mut out_bytes = vec![0u64; machines];
        let (mut gather_messages, mut sync_messages) = (0u64, 0u64);
        let charges_scatter = self.policy != GatherPolicy::EdgePartitions;
        for &update in updates {
            let vi = update.vertex();
            let v = VertexId(vi as u64);
            let reps = table.replicas(v);
            let master = table.master_of(v);
            let master_machine = layout.master_machine(vi);
            // Gather. A cache hit skips both the local gather work and the
            // mirror→master partial aggregates.
            if update.0 & Update::CACHE_HIT == 0 {
                let every_mirror_sends = match self.policy {
                    GatherPolicy::AllMirrors => true,
                    GatherPolicy::LocalAware { threshold } => {
                        csr.in_degree(v) + csr.out_degree(v) > threshold
                    }
                    GatherPolicy::EdgePartitions => false,
                };
                for r in reps {
                    let local_gather = local_edges(self.gather, r.local_in, r.local_out);
                    let m = layout.machine_of(r.partition.0);
                    work[m] += self.gather_work * local_gather as f64;
                    if r.partition != master && (every_mirror_sends || local_gather > 0) {
                        gather_messages += 1;
                        if m != master_machine {
                            in_bytes[master_machine] += self.accum_bytes;
                            out_bytes[m] += self.accum_bytes;
                        }
                    }
                }
            }
            // Apply.
            work[master_machine] += self.apply_work;
            if update.0 & Update::CHANGED != 0 {
                // Mirror synchronization.
                for r in reps {
                    if r.partition == master {
                        continue;
                    }
                    sync_messages += 1;
                    let m = layout.machine_of(r.partition.0);
                    if m != master_machine {
                        in_bytes[m] += self.state_bytes;
                        out_bytes[master_machine] += self.state_bytes;
                    }
                }
            }
            if update.0 & Update::SCATTERS != 0 && charges_scatter {
                // Replicas scan their local scatter edges.
                for r in reps {
                    let local_scatter = local_edges(self.scatter, r.local_in, r.local_out);
                    work[layout.machine_of(r.partition.0)] +=
                        self.scatter_work * local_scatter as f64;
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
}

/// The per-superstep stats of `trace`, a pass of `program` under
/// `semantics`, on `layout` under `policy`: each superstep's tallies (a
/// repeat reuses the previous superstep's), priced by `step_wall`, which
/// gets them with the superstep's active-vertex count and may add work of
/// its own first. Panics if the trace was recorded on another graph or for
/// another program, semantics or superstep cap; see [`Accountant::new`] for
/// the other panics.
pub(crate) fn price<P: VertexProgram>(
    trace: &SemanticTrace,
    semantics: Semantics,
    program: &P,
    config: &EngineConfig,
    layout: &Layout,
    policy: GatherPolicy,
    mut step_wall: impl FnMut(&mut MachineTallies, usize) -> f64,
) -> Vec<SuperstepStats> {
    let steps = trace.steps(config, program, semantics, layout.csr());
    let accountant = Accountant::new(config, program, policy, layout);
    let mut tallies: Option<MachineTallies> = None;
    let mut stats = Vec::new();
    for (superstep, (updates, repeat)) in steps.enumerate() {
        if !repeat {
            tallies = Some(accountant.account(updates));
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
        });
    }
    stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::{ApplyInfo, InitInfo};
    use gp_cluster::ClusterSpec;
    use gp_core::Splitmix64;
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

    /// 36 partitions folded onto 9 machines, so several replicas of one
    /// vertex share a work cell.
    fn layout() -> Layout {
        let g = gp_gen::barabasi_albert(400, 4, 5);
        let a = Strategy::Hdrf
            .build()
            .partition(&g, &PartitionContext::new(36))
            .assignment;
        Layout::build(&g, &a, 9)
    }

    /// Work constants whose products are not exactly representable, so a
    /// cell's f64 sum depends on its addition order.
    fn config() -> EngineConfig {
        let mut config = EngineConfig::new(ClusterSpec::local_9());
        config.gather_work = 0.1;
        config.apply_work = 1e-3;
        config.scatter_work = 1e7 / 3.0;
        config
    }

    /// A shuffled update stream with every flag combination.
    fn updates(layout: &Layout, seed: u64) -> Vec<Update> {
        let mut rng = Splitmix64::new(seed);
        let n = layout.csr().num_vertices();
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
    /// tally an f64 sum in visit order, machines resolved by `%`.
    fn f64_reference(model: &Accountant, updates: &[Update]) -> MachineTallies {
        let layout = model.layout;
        let machines = layout.machines() as usize;
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
            let reps = layout.replicas().replicas(v);
            let master = layout.replicas().master_of(v);
            let master_machine = machine_of(master.0);
            let degree = layout.csr().in_degree(v) + layout.csr().out_degree(v);
            if update.0 & Update::CACHE_HIT == 0 {
                for r in reps {
                    let local_gather = local_edges(model.gather, r.local_in, r.local_out);
                    let m = machine_of(r.partition.0);
                    t.work[m] += model.gather_work * local_gather as f64;
                    if r.partition == master {
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
            t.work[master_machine] += model.apply_work;
            if update.0 & Update::CHANGED != 0 {
                for r in reps {
                    if r.partition == master {
                        continue;
                    }
                    t.sync_messages += 1;
                    let m = machine_of(r.partition.0);
                    if m != master_machine {
                        t.in_bytes[m] += model.state_bytes as f64;
                        t.out_bytes[master_machine] += model.state_bytes as f64;
                    }
                }
            }
            // The Pregel loop never had a scatter scan to charge.
            if update.0 & Update::SCATTERS != 0 && model.policy != GatherPolicy::EdgePartitions {
                for r in reps {
                    let local_scatter = local_edges(model.scatter, r.local_in, r.local_out);
                    t.work[machine_of(r.partition.0)] += model.scatter_work * local_scatter as f64;
                }
            }
        }
        t
    }

    #[test]
    fn kernel_is_bit_identical_to_the_f64_loop_under_every_policy() {
        let layout = layout();
        let stream = updates(&layout, 1);
        for policy in [
            GatherPolicy::AllMirrors,
            GatherPolicy::LocalAware { threshold: 6 },
            GatherPolicy::EdgePartitions,
        ] {
            // Wire sizes up to 2^40 keep the byte cells exactly
            // representable (about 1 100 images here).
            for (accum, state) in [(16, 8), (1 << 40, (1 << 40) - 1)] {
                let model = Accountant::new(&config(), &Wire { accum, state }, policy, &layout);
                let tallies = model.account(&stream);
                assert_eq!(tallies, f64_reference(&model, &stream), "{policy:?}");
                assert!(tallies.in_bytes.iter().sum::<f64>() > 0.0);
            }
        }
    }

    #[test]
    fn work_tallies_depend_on_order_so_the_test_stream_is_sensitive() {
        let layout = layout();
        let wire = Wire {
            accum: 16,
            state: 16,
        };
        let model = Accountant::new(&config(), &wire, GatherPolicy::AllMirrors, &layout);
        let mut stream = updates(&layout, 1);
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
        let layout = layout();
        let wire = Wire {
            accum: 1 << 50,
            state: 8,
        };
        Accountant::new(&config(), &wire, GatherPolicy::AllMirrors, &layout);
    }
}
