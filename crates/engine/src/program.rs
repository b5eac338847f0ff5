//! The GAS vertex-program abstraction (§3.1).
//!
//! A [`VertexProgram`] specifies, exactly as in PowerGraph/PowerLyra:
//! which edge direction to **gather** along, a gather function and its
//! commutative-associative **merge**, an **apply** update, and which
//! direction to **scatter** (activate neighbors) along. The same programs
//! run unchanged on all four engines.

use gp_core::VertexId;

/// An edge direction selector for gather/scatter minor-steps.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Direction {
    /// No edges.
    None,
    /// In-edges (neighbors that point at me).
    In,
    /// Out-edges (neighbors I point at).
    Out,
    /// Both directions.
    Both,
}

impl Direction {
    /// Whether the direction includes in-edges.
    pub fn includes_in(self) -> bool {
        matches!(self, Direction::In | Direction::Both)
    }

    /// Whether the direction includes out-edges.
    pub fn includes_out(self) -> bool {
        matches!(self, Direction::Out | Direction::Both)
    }
}

/// Static per-vertex facts available to `init`.
#[derive(Debug, Clone, Copy)]
pub struct InitInfo {
    /// Total vertices in the graph.
    pub num_vertices: u64,
    /// The vertex's out-degree.
    pub out_degree: u32,
    /// The vertex's in-degree.
    pub in_degree: u32,
}

/// Facts available to `apply`.
#[derive(Debug, Clone, Copy)]
pub struct ApplyInfo {
    /// Current superstep (0-based).
    pub superstep: u32,
    /// The vertex's out-degree.
    pub out_degree: u32,
    /// The vertex's in-degree.
    pub in_degree: u32,
}

/// A Gather-Apply-Scatter vertex program.
///
/// Programs (and their state/accumulator types) must be thread-safe: the
/// engines' parallel path shares `&self` and the frozen state array across
/// superstep-kernel workers. All of the paper's applications are plain data
/// and satisfy the bounds automatically.
///
/// The engines reach a program's per-edge code only through
/// [`accumulate`](VertexProgram::accumulate), once per gather edge, and
/// `apply` and the activation predicates once per active vertex. An
/// implementation in another crate should mark those methods `#[inline]`:
/// a non-generic trait impl is otherwise compiled once in its own crate and
/// the superstep loop pays an out-of-line call per edge.
pub trait VertexProgram: Sync {
    /// Per-vertex state.
    type State: Clone + PartialEq + std::fmt::Debug + Send + Sync;
    /// Gather accumulator.
    type Accum: Clone + Send + Sync;

    /// Application name as used in the paper's figures.
    fn name(&self) -> &'static str;

    /// Direction gathered along.
    fn gather_direction(&self) -> Direction;

    /// Direction scattered along: a vertex whose state changed this
    /// superstep (and every vertex in superstep 0) activates its neighbors
    /// in this direction — the rule all five of the paper's applications
    /// follow.
    fn scatter_direction(&self) -> Direction;

    /// "Natural applications are defined as applications which Gather from
    /// one direction and Scatter in the other" (§1.3/§6.1). PowerLyra's
    /// Hybrid engine is optimized for these.
    fn is_natural(&self) -> bool {
        matches!(
            (self.gather_direction(), self.scatter_direction()),
            (Direction::In, Direction::Out) | (Direction::Out, Direction::In)
        )
    }

    /// Initial state of a vertex.
    fn init(&self, v: VertexId, info: InitInfo) -> Self::State;

    /// Whether the vertex starts active (e.g. only the source in SSSP).
    fn initially_active(&self, v: VertexId) -> bool;

    /// Gather along one edge: contribution of neighbor `nbr` (with state
    /// `nbr_state` and the given degrees) to `v`'s accumulator.
    fn gather(
        &self,
        v: VertexId,
        nbr: VertexId,
        nbr_state: &Self::State,
        nbr_info: InitInfo,
    ) -> Self::Accum;

    /// Commutative, associative combination of two accumulators.
    fn merge(&self, a: Self::Accum, b: Self::Accum) -> Self::Accum;

    /// Fold one gather edge into `acc` (`None` until the first edge): what
    /// the engines call per edge. It must equal folding [`gather`] with
    /// [`merge`], which is what the default does; override it only to avoid
    /// building a temporary accumulator per edge.
    ///
    /// [`gather`]: VertexProgram::gather
    /// [`merge`]: VertexProgram::merge
    #[inline]
    fn accumulate(
        &self,
        acc: &mut Option<Self::Accum>,
        v: VertexId,
        nbr: VertexId,
        nbr_state: &Self::State,
        nbr_info: InitInfo,
    ) {
        let g = self.gather(v, nbr, nbr_state, nbr_info);
        *acc = Some(match acc.take() {
            Some(a) => self.merge(a, g),
            None => g,
        });
    }

    /// Compute the new state from the old state and the merged accumulator
    /// (`None` when no gather edges contributed).
    fn apply(
        &self,
        v: VertexId,
        old: &Self::State,
        acc: Option<Self::Accum>,
        info: ApplyInfo,
    ) -> Self::State;

    /// Whether the vertex should remain active for the next superstep even
    /// without incoming activation (used by fixed-iteration PageRank where
    /// every vertex recomputes every superstep).
    fn always_active(&self) -> bool {
        false
    }

    /// Whether a vertex with the given post-apply state re-activates itself
    /// for the next superstep regardless of neighbor activity. K-core peeling
    /// uses this: every *alive* vertex recounts its alive neighbors each
    /// superstep until a fixed point, which is what makes k-core the paper's
    /// long-compute application (Table 5.1). The engine still terminates as
    /// soon as a superstep changes nothing.
    fn self_reactivates(&self, _state: &Self::State) -> bool {
        false
    }

    /// Wire size of one accumulator (partial-aggregate message), bytes.
    fn accum_wire_bytes(&self) -> u64 {
        16
    }

    /// Wire size of one vertex-state sync message, bytes.
    fn state_wire_bytes(&self) -> u64 {
        16
    }

    /// Maximum supersteps before the engine declares non-convergence.
    fn max_supersteps(&self) -> u32 {
        10_000
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Dummy {
        g: Direction,
        s: Direction,
    }

    impl VertexProgram for Dummy {
        type State = u64;
        type Accum = u64;
        fn name(&self) -> &'static str {
            "dummy"
        }
        fn gather_direction(&self) -> Direction {
            self.g
        }
        fn scatter_direction(&self) -> Direction {
            self.s
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
            a + b
        }
        fn apply(&self, _: VertexId, old: &u64, acc: Option<u64>, _: ApplyInfo) -> u64 {
            old + acc.unwrap_or(0)
        }
    }

    #[test]
    fn naturalness_matches_the_papers_definition() {
        let natural = Dummy {
            g: Direction::In,
            s: Direction::Out,
        };
        assert!(natural.is_natural());
        let natural2 = Dummy {
            g: Direction::Out,
            s: Direction::In,
        };
        assert!(natural2.is_natural());
        let undirected = Dummy {
            g: Direction::Both,
            s: Direction::Both,
        };
        assert!(!undirected.is_natural());
        let same_dir = Dummy {
            g: Direction::In,
            s: Direction::In,
        };
        assert!(!same_dir.is_natural());
    }

    #[test]
    fn direction_inclusion() {
        assert!(Direction::Both.includes_in() && Direction::Both.includes_out());
        assert!(Direction::In.includes_in() && !Direction::In.includes_out());
        assert!(!Direction::None.includes_in() && !Direction::None.includes_out());
    }
}
