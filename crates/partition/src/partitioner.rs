//! The [`Partitioner`] trait and partitioning context.
//!
//! All strategies are *online* (streaming) partitioners in the paper's sense:
//! they see the edge stream once per pass and assign each edge as it arrives.
//! The paper's ingress setup (§5.3) splits the input into one block per
//! machine and loads blocks in parallel; stateful heuristics (Oblivious,
//! HDRF) keep **per-loader** state only — each loader is "oblivious" to
//! assignments made by the others. [`PartitionContext::num_loaders`] models
//! that: stateless strategies ignore it, stateful ones shard their state.

use crate::assignment::Assignment;
use gp_core::StreamingEdges;
use gp_par::ParConfig;
use gp_telemetry::TelemetrySink;

// Simulated ingress work units (arbitrary units; the cluster model converts
// them to seconds), calibrated so the relative ingress times of Figs
// 5.7/6.4/8.2 hold: hash assignment is much cheaper than the greedy
// heuristics, whose per-edge cost grows with the replica sets they must
// scan, and multi-pass strategies pay per extra pass.

/// Work to parse one edge off the input stream (paid every pass).
pub(crate) const PARSE_EDGE: f64 = 3.0;
/// Work to hash-assign one edge (Random/Grid/1D/2D/PDS and Hybrid's hashing
/// phases).
pub(crate) const HASH_ASSIGN: f64 = 0.15;
/// Fixed work per greedy-heuristic decision (Oblivious/HDRF).
pub(crate) const HEURISTIC_BASE: f64 = 0.3;
/// Work per candidate partition inspected by a greedy heuristic. The
/// candidate count is `|A(u)| + |A(v)|` (Appendix A), so hubs that are
/// replicated everywhere make the heuristic slow — this is what makes
/// HDRF/Oblivious ingress slow on power-law graphs but competitive on road
/// networks (§5.4.3).
pub(crate) const HEURISTIC_PER_CANDIDATE: f64 = 0.4;
/// Work per vertex scored by the Ginger heuristic phase.
pub(crate) const GINGER_BASE: f64 = 0.8;
/// Work per in-neighbor scanned by the Ginger heuristic.
pub(crate) const GINGER_PER_NEIGHBOR: f64 = 0.25;

/// Everything a strategy needs besides the edges themselves.
#[derive(Debug, Clone)]
pub struct PartitionContext {
    /// Number of partitions to produce. One per machine for
    /// PowerGraph/PowerLyra; typically one per core for GraphX (§7.2).
    pub num_partitions: u32,
    /// Number of parallel ingress loaders (= machines, §5.3). Stateful
    /// heuristics shard their state per loader.
    pub num_loaders: u32,
    /// Hash/tie-break seed.
    pub seed: u64,
    /// Telemetry sink; [`TelemetrySink::Disabled`] by default, in which
    /// case strategies record nothing and compute nothing extra.
    pub telemetry: TelemetrySink,
    /// Real ingress thread count (distinct from the *simulated*
    /// `num_loaders`): how many OS threads stream edge chunks in parallel.
    /// Results are byte-identical at any value — see the `gp-par`
    /// ordered-reduction rule.
    pub par: ParConfig,
}

impl PartitionContext {
    /// Context with `num_partitions` partitions, the same number of loaders
    /// and seed 42.
    pub fn new(num_partitions: u32) -> Self {
        assert!(num_partitions > 0, "need at least one partition");
        PartitionContext {
            num_partitions,
            num_loaders: num_partitions,
            seed: 42,
            telemetry: TelemetrySink::Disabled,
            par: ParConfig::default(),
        }
    }

    /// Override the seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Override the loader count (e.g. GraphX: 16 partitions/machine but 9
    /// loading machines).
    pub fn with_loaders(mut self, loaders: u32) -> Self {
        assert!(loaders > 0, "need at least one loader");
        self.num_loaders = loaders;
        self
    }

    /// Attach a telemetry sink; strategies record ingress counters, gauges
    /// and per-loader work histograms into it.
    pub fn with_telemetry(mut self, telemetry: TelemetrySink) -> Self {
        self.telemetry = telemetry;
        self
    }

    /// Set the real ingress thread count (`0` = available parallelism,
    /// `1` = sequential). Never changes a single output byte.
    pub fn with_threads(mut self, threads: u32) -> Self {
        self.par = ParConfig::new(threads);
        self
    }

    /// Ignores `window`: a name the `benchmark/` package still calls,
    /// nothing else. Goes once the benchmark stops calling it.
    #[doc(hidden)]
    pub fn with_window(self, _window: u32) -> Self {
        self
    }
}

/// A window value the `benchmark/` package still passes; ignored, like
/// every other, and used nowhere else.
#[doc(hidden)]
pub const WINDOW_AUTO: u32 = u32::MAX;

/// What a partitioning run produces: the assignment plus ingress accounting.
#[derive(Debug, Clone)]
pub struct PartitionOutcome {
    /// Edge → partition mapping with derived replication statistics.
    pub assignment: Assignment,
    /// Simulated work units burned by each parallel loader. Ingress wall
    /// time is driven by `max(loader_work)`.
    pub loader_work: Vec<f64>,
    /// Full passes made over the edge stream (1 = single-pass streaming,
    /// 2 = Hybrid's counting+reassignment, 3 = Hybrid-Ginger).
    pub passes: u32,
    /// Peak bytes of strategy-private state (degree counters, replica
    /// bitsets, reassignment buffers). Hybrid/H-Ginger's extra phases make
    /// this large — the memory overhead of Figs 6.2/6.3.
    pub state_bytes: u64,
}

/// A graph partitioning strategy.
pub trait Partitioner {
    /// Short name as used in the paper's figures (e.g. `"HDRF"`).
    fn name(&self) -> &'static str;

    /// Partition the source's edges into `ctx.num_partitions` parts. Any
    /// [`StreamingEdges`] source works — an in-memory `EdgeList` (which
    /// coerces at every historical call site) or a mapped `gp-store` file —
    /// and the outcome depends only on the edge sequence, never on how it
    /// is stored.
    fn partition(&mut self, graph: &dyn StreamingEdges, ctx: &PartitionContext)
        -> PartitionOutcome;
}

/// Split `total` items into per-loader chunk lengths (mirrors
/// `EdgeList::blocks`); used by strategies to attribute work to loaders and
/// to bound each simulated loader's slice of the stream.
pub fn loader_chunks(total: usize, loaders: u32) -> Vec<usize> {
    let l = loaders as usize;
    let base = total / l;
    let rem = total % l;
    (0..l).map(|i| base + usize::from(i < rem)).collect()
}

/// The same split as [`loader_chunks`], as edge-index ranges into the
/// stream. Block boundaries are a pure function of `(total, loaders)` — the
/// determinism anchor that makes loader-shard results independent of both
/// thread count and edge storage.
pub fn loader_ranges(total: usize, loaders: u32) -> Vec<std::ops::Range<usize>> {
    let mut start = 0usize;
    loader_chunks(total, loaders)
        .into_iter()
        .map(|len| {
            let r = start..start + len;
            start += len;
            r
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn context_defaults_are_sane() {
        let ctx = PartitionContext::new(9);
        assert_eq!(ctx.num_partitions, 9);
        assert_eq!(ctx.num_loaders, 9);
        assert_eq!(ctx.seed, 42);
    }

    #[test]
    #[should_panic(expected = "at least one partition")]
    fn zero_partitions_is_rejected() {
        PartitionContext::new(0);
    }

    #[test]
    fn builder_overrides_apply() {
        let ctx = PartitionContext::new(4).with_seed(7).with_loaders(2);
        assert_eq!(ctx.seed, 7);
        assert_eq!(ctx.num_loaders, 2);
    }

    #[test]
    fn loader_chunks_cover_everything_evenly() {
        let chunks = loader_chunks(10, 3);
        assert_eq!(chunks.iter().sum::<usize>(), 10);
        assert_eq!(chunks, vec![4, 3, 3]);
        assert_eq!(loader_chunks(0, 3), vec![0, 0, 0]);
        assert_eq!(loader_chunks(2, 5), vec![1, 1, 0, 0, 0]);
    }

    const _: () = assert!(HASH_ASSIGN < HEURISTIC_BASE);
}
