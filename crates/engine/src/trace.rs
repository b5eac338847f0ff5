//! Compute once, price many: the semantic trace of a run.
//!
//! Partitioning changes what a job costs, never what it computes. An
//! engine's semantic pass reads the graph's adjacency, the vertex states,
//! the program and its execution model, and nothing about where edges and
//! replicas live: the update sequence it hands to cost accounting is the
//! same for every strategy and cluster size, and (with equal delta-caching
//! flags) for SyncGas, HybridGas and Pregel alike. A [`SemanticTrace`]
//! keeps that sequence, so one semantic pass can be priced on many
//! placements. Each engine's `run_on` streams its pass straight into its
//! pricer instead and never materializes a trace.

use crate::accounting::Update;
use crate::program::VertexProgram;
use crate::report::EngineConfig;

/// The execution model a semantic pass follows: what a trace depends on
/// besides the graph, the program and the superstep cap.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Semantics {
    /// Supersteps over frozen states (SyncGas, HybridGas, Pregel), with the
    /// engine's effective gather-cache flag: a cache hit changes what
    /// accounting is charged, not the states.
    Synchronous {
        /// Gather (delta) caching in effect.
        delta_caching: bool,
    },
    /// AsyncGas's rounds with immediate commits, each round's order
    /// shuffled by a PRNG with a fixed seed, seeded once per run.
    Asynchronous,
}

/// How a semantic pass ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct TraceEnd {
    /// The pass stopped at a fixed point rather than at the superstep cap.
    pub converged: bool,
    /// No vertex was active when the pass stopped.
    pub frontier_empty: bool,
}

/// Receives each superstep of a semantic pass: its updates in visit order
/// and the number of vertices active at its start.
pub(crate) type OnStep<'a> = &'a mut dyn FnMut(&[Update], usize);

/// Supersteps a run of `program` under `config` may take.
pub(crate) fn superstep_cap<P: VertexProgram>(config: &EngineConfig, program: &P) -> u32 {
    program.max_supersteps().min(config.max_supersteps)
}

/// Everything besides the graph a trace depends on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Origin {
    program: &'static str,
    semantics: Semantics,
    cap: u32,
}

impl Origin {
    fn of<P: VertexProgram>(config: &EngineConfig, program: &P, semantics: Semantics) -> Self {
        Origin {
            program: program.name(),
            semantics,
            cap: superstep_cap(config, program),
        }
    }
}

/// One run's semantic pass, without its states: every superstep's packed
/// update words and active-vertex count, and how the pass ended. Recorded
/// by an engine's `trace`, priced on any partitioning of the same graph by
/// the `price` of an engine with the same [`Semantics`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SemanticTrace {
    origin: Origin,
    /// Every superstep's updates, concatenated.
    updates: Vec<Update>,
    /// Per superstep: where its updates end in `updates`, and its active
    /// vertices.
    steps: Vec<(usize, usize)>,
    end: TraceEnd,
}

impl SemanticTrace {
    /// Record the pass `run` drives for `program` under `config` and
    /// `semantics`, and return what it returns beside the trace.
    pub(crate) fn record<P: VertexProgram, T>(
        config: &EngineConfig,
        program: &P,
        semantics: Semantics,
        run: impl FnOnce(OnStep) -> (T, TraceEnd),
    ) -> (T, Self) {
        let (mut updates, mut steps) = (Vec::new(), Vec::new());
        let (out, end) = run(&mut |step: &[Update], active| {
            updates.extend_from_slice(step);
            steps.push((updates.len(), active));
        });
        let trace = SemanticTrace {
            origin: Origin::of(config, program, semantics),
            updates,
            steps,
            end,
        };
        (out, trace)
    }

    /// Hand every recorded superstep to `on_step`, in order. Panics unless
    /// the trace was recorded for this program, semantics and superstep cap.
    pub(crate) fn replay<P: VertexProgram>(
        &self,
        config: &EngineConfig,
        program: &P,
        semantics: Semantics,
        on_step: OnStep,
    ) -> TraceEnd {
        assert_eq!(
            self.origin,
            Origin::of(config, program, semantics),
            "the trace was recorded for another program, semantics or superstep cap"
        );
        let mut start = 0;
        for &(end, active) in &self.steps {
            on_step(&self.updates[start..end], active);
            start = end;
        }
        self.end
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
