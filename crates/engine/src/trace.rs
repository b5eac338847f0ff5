//! Compute once, price many: the semantic trace of a run.
//!
//! Partitioning changes what a job costs, never what it computes. An
//! engine's semantic pass reads the graph's adjacency, the vertex states,
//! the program and its execution model, and nothing about where edges and
//! replicas live: the update sequence it hands to cost accounting is the
//! same for every strategy and cluster size, and (with equal delta-caching
//! flags) for PowerGraph, PowerLyra and GraphX alike. Every engine run
//! records that sequence as a [`SemanticTrace`] and then prices it, so one
//! semantic pass can be priced on many placements.

use crate::accounting::Update;
use crate::program::VertexProgram;
use gp_core::EdgeList;
use std::ops::Range;

/// The execution model a semantic pass follows: what a trace depends on
/// besides the graph, the program and the superstep cap.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Semantics {
    /// Supersteps over frozen states (PowerGraph, PowerLyra, GraphX), with
    /// the engine's effective gather-cache flag: a cache hit changes what
    /// accounting is charged, not the states.
    Synchronous {
        /// Gather (delta) caching in effect.
        delta_caching: bool,
    },
    /// PowerGraph's asynchronous rounds with immediate commits, each round's order
    /// shuffled by a PRNG with a fixed seed, seeded once per run.
    Asynchronous,
}

/// The engine's ceiling on supersteps, on top of the program's own cap: a
/// fixed-iteration PageRank asked for more still stops here.
pub const MAX_SUPERSTEPS: u32 = 10_000;

/// Supersteps a run of `program` may take.
pub(crate) fn superstep_cap<P: VertexProgram>(program: &P) -> u32 {
    program.max_supersteps().min(MAX_SUPERSTEPS)
}

/// Everything a trace depends on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Origin {
    program: &'static str,
    semantics: Semantics,
    cap: u32,
    /// Vertex count and edge-stream digest of the graph.
    graph: (u64, u64),
}

impl Origin {
    pub(crate) fn of<P: VertexProgram>(
        program: &P,
        semantics: Semantics,
        graph: &EdgeList,
    ) -> Self {
        Origin {
            program: program.name(),
            semantics,
            cap: superstep_cap(program),
            graph: (graph.num_vertices(), graph.edge_digest()),
        }
    }
}

/// One run's semantic pass, without its states: every superstep's packed
/// update words, one per active vertex in visit order, and how the pass
/// ended. A superstep whose sequence equals the previous one's is stored
/// as a repeat of it. Recorded by an engine's `trace`, priced on any
/// partitioning of the same graph by the `price` of an engine with the same
/// [`Semantics`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SemanticTrace {
    origin: Origin,
    /// The distinct supersteps' updates, concatenated.
    updates: Vec<Update>,
    /// Per superstep, its range of `updates`; a repeat shares the range of
    /// the superstep before it.
    steps: Vec<Range<usize>>,
    /// The pass stopped at a fixed point rather than at the superstep cap.
    pub(crate) converged: bool,
    /// No vertex was active when the pass stopped.
    pub(crate) frontier_empty: bool,
}

impl SemanticTrace {
    /// An empty trace of a pass of `program` under `semantics` over `graph`.
    pub(crate) fn new<P: VertexProgram>(
        program: &P,
        semantics: Semantics,
        graph: &EdgeList,
    ) -> Self {
        SemanticTrace {
            origin: Origin::of(program, semantics, graph),
            updates: Vec::new(),
            steps: Vec::new(),
            converged: false,
            frontier_empty: false,
        }
    }

    /// Where the open superstep's updates go, in visit order.
    #[inline]
    pub(crate) fn open_step(&mut self) -> &mut Vec<Update> {
        &mut self.updates
    }

    /// Close the superstep whose updates went to [`SemanticTrace::open_step`]
    /// since the last close, storing it as a repeat when it equals the
    /// previous one.
    pub(crate) fn close_step(&mut self) {
        let start = self.steps.last().map_or(0, |prev| prev.end);
        let step = start..self.updates.len();
        match self.steps.last() {
            Some(prev) if self.updates[prev.clone()] == self.updates[step.clone()] => {
                self.updates.truncate(start);
                self.steps.push(prev.clone());
            }
            _ => self.steps.push(step),
        }
    }

    /// Every superstep's updates, in order, each flagged when it repeats
    /// the superstep before it. Panics unless the trace has `origin`.
    pub(crate) fn steps(&self, origin: Origin) -> impl Iterator<Item = (&[Update], bool)> {
        assert_eq!(
            self.origin.graph, origin.graph,
            "the trace was recorded on another graph"
        );
        assert_eq!(
            self.origin, origin,
            "the trace was recorded for another program, semantics or superstep cap"
        );
        self.steps.iter().enumerate().map(|(i, step)| {
            let repeat = i > 0 && self.steps[i - 1] == *step;
            (&self.updates[step.clone()], repeat)
        })
    }

    /// The execution model the trace was recorded under.
    pub fn semantics(&self) -> Semantics {
        self.origin.semantics
    }

    /// Supersteps (async rounds) recorded.
    pub fn supersteps(&self) -> u32 {
        self.steps.len() as u32
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::{ApplyInfo, Direction, InitInfo};
    use crate::{Engine, EngineConfig, Model};
    use gp_cluster::ClusterSpec;
    use gp_core::VertexId;
    use gp_partition::{PartitionContext, Strategy};

    /// PageRank(10) as the paper runs it: always active, every rank that
    /// moves is a change.
    struct FixedRank;

    impl VertexProgram for FixedRank {
        type State = f64;
        type Accum = f64;
        fn name(&self) -> &'static str {
            "fixed-rank"
        }
        fn gather_direction(&self) -> Direction {
            Direction::In
        }
        fn scatter_direction(&self) -> Direction {
            Direction::Out
        }
        fn init(&self, _: VertexId, _: InitInfo) -> f64 {
            1.0
        }
        fn initially_active(&self, _: VertexId) -> bool {
            true
        }
        fn gather(&self, _: VertexId, _: VertexId, s: &f64, nbr: InitInfo) -> f64 {
            s / nbr.out_degree.max(1) as f64
        }
        fn merge(&self, a: f64, b: f64) -> f64 {
            a + b
        }
        fn apply(&self, _: VertexId, _: &f64, acc: Option<f64>, _: ApplyInfo) -> f64 {
            0.15 + 0.85 * acc.unwrap_or(0.0)
        }
        fn always_active(&self) -> bool {
            true
        }
        fn max_supersteps(&self) -> u32 {
            10
        }
    }

    #[test]
    fn fixed_iteration_trace_stores_repeats_once_and_prices_like_every_step_in_full() {
        let graph = gp_gen::erdos_renyi(2_000, 12_000, 3);
        let assignment = Strategy::Hdrf
            .build()
            .partition(&graph, &PartitionContext::new(9))
            .assignment;
        let engine = Engine::new(EngineConfig::new(ClusterSpec::local_9()), Model::Sync);
        let (_, trace) = engine.trace(&graph, &FixedRank);
        let n = graph.num_vertices() as usize;
        let mut distinct = trace.steps.clone();
        distinct.dedup();
        assert_eq!(trace.supersteps(), 10);
        assert_eq!(distinct.len(), 2, "superstep 0 scatters, the rest repeat");
        assert_eq!(trace.updates.len(), distinct.len() * n);

        // The same trace with every superstep stored in full.
        let mut full = trace.clone();
        full.updates = trace
            .steps
            .iter()
            .flat_map(|s| &trace.updates[s.clone()])
            .copied()
            .collect();
        full.steps = (0..trace.steps.len()).map(|i| i * n..(i + 1) * n).collect();
        let priced = |t: &SemanticTrace| {
            let report = engine.price(t, &graph, &assignment, &FixedRank).unwrap();
            format!("{report:?}")
        };
        assert_eq!(priced(&trace), priced(&full));
    }
}
