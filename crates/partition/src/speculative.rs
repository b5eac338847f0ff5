//! Windowed speculative ingress for the stateful greedy partitioners, HDRF
//! and Oblivious — the only strategies with a windowed path.
//!
//! HDRF and Oblivious assign each edge by scoring it against state mutated
//! by every previous edge — an inherently sequential loop that caps ingress
//! at ~6M edges/s while the stateless hash families stream at 40M+. This
//! module bounds how stale that state may be instead: within a window, an
//! edge whose endpoints no earlier edge of the window touched is scored
//! against the window-start snapshot, which only a capacity check can
//! invalidate.
//!
//! 1. **Window.** Each loader's edge block is cut into windows — fixed
//!    `W`-edge windows for `--window W`, or adaptively sized ones for
//!    `--window auto` (see [`WindowController`]). Either way the window
//!    schedule is a pure function of the edge stream, never of the thread
//!    count.
//! 2. **Walk.** One sequential pass walks the window in stream order,
//!    scoring each edge once and committing it. An edge whose endpoints
//!    were both untouched earlier in the window is scored against the
//!    window-start snapshot (replica [`PartitionSet`]s, per-partition loads,
//!    degree counters) — its replica sets are still the snapshot's, and the
//!    kernel keeps a copy of the snapshot's loads. If that pick is at the
//!    live capacity cap, or an endpoint was already touched, the edge is
//!    scored against the live state instead. Scoring runs in explicit
//!    4-wide unrolled lanes with branchless capacity selects over the
//!    bitset words (see [`SCORE_LANES`]), into one reused [`ScoreScratch`] —
//!    no per-edge allocation, no branches the vectorizer cannot lower to
//!    masks. Each edge draws tie-breaks from its own [`Splitmix64`] seeded
//!    by the *stream index*, so a score depends only on `(visible state,
//!    edge, index)`.
//! 3. **Merge.** Strategies with degree state fold the committed window's
//!    endpoint touches into their counters *after* the walk
//!    ([`WindowKernel::end_window`]) — degree counters are frozen for the
//!    duration of a window by design, and elementwise integer addition is
//!    insensitive to the order of the fold.
//!
//! Loader blocks are independent — each is a pure function of its own edge
//! range, with its own kernel, stamp set and window schedule — so
//! [`partition_blocks`] runs them concurrently on the ordered pool, up to
//! `--threads` at a time, each writing its placements into its own slice of
//! the stream-order result.
//!
//! ## Determinism and the quality-parity contract
//!
//! Each rule is implemented once, as a [`WindowKernel`]. *Sequential*
//! ingress (`window <= 1`) is the window-1 drive of that kernel
//! ([`run_sequential`], one [`WindowKernel::step`] per edge), which is also
//! the serving-time assign step. A window only changes *when* state is
//! frozen, never which function scores: at `W = 1` the snapshot is the live
//! state, so [`run_windowed`] at `W = 1` commits byte-for-byte what the
//! sequential drive commits (tested below) — the drive just skips the
//! stamp set and per-window buffers one edge cannot amortize.
//!
//! The committed output is a pure function of `(graph, seed, partitions,
//! loaders, window)`: window boundaries (fixed *or* adaptive — the
//! controller only reads committed-edge counts), per-edge RNGs, the
//! stream-order walk and the deferred degree merge are all independent of
//! `--threads`, so any thread count yields byte-identical placements —
//! `threads == 1` simply runs the loader blocks one after another.
//!
//! `window >= 2` output is **not** byte-identical to `window <= 1`: degree
//! counters are frozen per window (an edge's θ sees previous windows plus
//! its own endpoints, not same-window predecessors), and pure balance drift
//! within a window is deliberately not treated as a conflict. Those
//! deviations are bounded by the window length and gated by the
//! `stateful_parity` suite: replication factor and balance within 5% of the
//! window-1 drive.

use crate::assignment::Assignment;
use crate::partitioner::{loader_ranges, PartitionContext, PartitionOutcome};
use crate::strategies::oblivious::GreedyState;
use gp_core::{
    for_each_edge, Edge, PartitionId, PartitionSet, Splitmix64, StreamingEdges, VertexId,
};
use std::ops::Range;

/// Sentinel `window` value meaning *adaptive*: the [`WindowController`]
/// grows the window geometrically while the repair rate stays low and
/// shrinks it on conflict storms. CLI spelling: `--window auto`.
pub const WINDOW_AUTO: u32 = u32::MAX;

/// Counters describing one windowed run (exported as `par.spec_*`
/// telemetry): windows processed, edges placed from the window-start
/// snapshot, edges scored live, plus the adaptive controller's trajectory.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
struct SpecStats {
    /// Windows processed across all loader blocks.
    windows: u64,
    /// Edges committed at their window-start-snapshot placement.
    speculated: u64,
    /// Edges scored against the live state: an endpoint was touched earlier
    /// in the window, or the snapshot's pick was at the live capacity cap.
    repaired: u64,
    /// Largest window actually processed (equals the configured window for
    /// fixed-window runs, up to block truncation).
    max_window: u64,
    /// Times the adaptive controller halved the window after a conflict
    /// storm. Always 0 for fixed-window runs.
    shrinks: u64,
}

impl SpecStats {
    /// Fold another run's counters into this one.
    fn absorb(&mut self, other: SpecStats) {
        self.windows += other.windows;
        self.speculated += other.speculated;
        self.repaired += other.repaired;
        self.max_window = self.max_window.max(other.max_window);
        self.shrinks += other.shrinks;
    }

    /// Fraction of edges scored against the live state.
    fn repair_rate(&self) -> f64 {
        let scored = self.speculated + self.repaired;
        if scored == 0 {
            0.0
        } else {
            self.repaired as f64 / scored as f64
        }
    }
}

/// Per-block window-size schedule. For a fixed `--window W` it always
/// answers `W`. For `--window auto` it starts at [`Self::INITIAL`] and,
/// after each window commits, doubles the window (up to [`Self::MAX`])
/// while the window's live-scored share (its repair rate) stayed under
/// [`Self::GROW_BELOW`], or halves it (down to [`Self::MIN`]) when the rate
/// exceeded [`Self::SHRINK_ABOVE`] — a conflict storm, where few edges can
/// use the snapshot and big windows only widen the frozen-degree deviation.
///
/// The controller's only inputs are the committed window length and the
/// repair count — both pure functions of the edge stream — so the schedule
/// is bit-identical across thread counts, and each loader block runs its
/// own controller from scratch, keeping blocks independent.
struct WindowController {
    next: usize,
    adaptive: bool,
}

impl WindowController {
    /// Starting window for `--window auto`.
    const INITIAL: usize = 1024;
    /// Conflict-storm floor: never shrink below this.
    const MIN: usize = 256;
    /// Growth ceiling: windows larger than this stop amortizing per-window
    /// overhead and only widen the frozen-degree deviation.
    const MAX: usize = 262_144;
    /// Repair rate under which the window doubles.
    const GROW_BELOW: f64 = 0.15;
    /// Repair rate above which the window halves.
    const SHRINK_ABOVE: f64 = 0.40;

    fn new(window: u32) -> Self {
        if window == WINDOW_AUTO {
            WindowController {
                next: Self::INITIAL,
                adaptive: true,
            }
        } else {
            WindowController {
                next: window as usize,
                adaptive: false,
            }
        }
    }

    /// Size of the next window to cut.
    fn current(&self) -> usize {
        self.next
    }

    /// Feed back one committed window: `committed` edges, of which
    /// `repaired` were scored live. Adjusts the next window size (adaptive
    /// mode only) and counts shrinks into `stats`.
    fn observe(&mut self, committed: usize, repaired: u64, stats: &mut SpecStats) {
        if !self.adaptive || committed == 0 {
            return;
        }
        let rate = repaired as f64 / committed as f64;
        if rate < Self::GROW_BELOW {
            self.next = (self.next * 2).min(Self::MAX);
        } else if rate > Self::SHRINK_ABOVE {
            let shrunk = (self.next / 2).max(Self::MIN);
            if shrunk < self.next {
                stats.shrinks += 1;
            }
            self.next = shrunk;
        }
    }
}

/// Reusable scoring scratch: the per-partition score buffer the 4-wide
/// lanes fill and the pick scans read. One lives in each loader block's
/// walk (and in each serving partitioner), reused across every edge it
/// scores — the score path itself allocates nothing.
pub(crate) struct ScoreScratch {
    scores: Vec<f64>,
}

impl ScoreScratch {
    pub(crate) fn new(partitions: usize) -> Self {
        ScoreScratch {
            scores: vec![0.0; partitions],
        }
    }

    #[inline]
    pub(crate) fn scores(&mut self) -> &mut [f64] {
        &mut self.scores
    }
}

/// O(1) membership over `0..n` vertices with O(1) whole-set clear: each
/// vertex carries the id of the last window that touched it. Avoids an
/// O(n/64) bitset clear per window, which would dominate at small `W`.
struct StampSet {
    stamp: Vec<u32>,
    epoch: u32,
}

impl StampSet {
    fn new(n: usize) -> Self {
        StampSet {
            stamp: vec![0; n],
            epoch: 0,
        }
    }

    /// Start a new window: every vertex becomes unmarked. Handles epoch
    /// wrap-around (once per 2^32 windows) by a full reset.
    fn advance(&mut self) {
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            self.stamp.iter_mut().for_each(|s| *s = 0);
            self.epoch = 1;
        }
    }

    #[inline]
    fn contains(&self, v: VertexId) -> bool {
        self.stamp[v.index()] == self.epoch
    }

    #[inline]
    fn mark(&mut self, v: VertexId) {
        self.stamp[v.index()] = self.epoch;
    }
}

/// The per-edge tie-break RNG of the windowed kernels: a fresh
/// [`Splitmix64`] keyed by `(loader seed, stream index)`. Giving every edge
/// its own stream is what lets the windowed walk, the sequential drive and
/// the serving step score the same edge identically, and lets a capacity
/// fallback re-score an edge without the first score's draws leaking in.
#[inline]
pub(crate) fn edge_rng(seed: u64, global_idx: usize) -> Splitmix64 {
    Splitmix64::new(gp_core::hash_u64(global_idx as u64, seed))
}

/// Lane width of the unrolled scoring loops. The lane bodies are pure
/// f64 multiply/add plus a branchless capacity select, so on targets with
/// 256-bit vectors (`target_feature = "avx2"`) LLVM lowers each 4-lane
/// group to single `vmulpd`/`vaddpd`/`vblendvpd` instructions; elsewhere
/// the identical code lowers to scalar ops — and because vector mul/add
/// round exactly like their scalar IEEE-754 counterparts, both lowerings
/// are bit-identical.
pub(crate) const SCORE_LANES: usize = 4;

/// Least-loaded partition over all partitions, ties broken uniformly with
/// `rng` (one draw over ascending order). The min/tie reduction runs in
/// [`SCORE_LANES`]-wide unrolled lanes; min and tie-count are
/// order-insensitive, and the final pick scans ascending, so the result
/// matches the scalar loop exactly.
pub(crate) fn least_loaded_all(loads: &[u64], rng: &mut Splitmix64) -> PartitionId {
    let mut lane_min = [u64::MAX; SCORE_LANES];
    let chunks = loads.chunks_exact(SCORE_LANES);
    let tail = chunks.remainder();
    for c in chunks {
        for k in 0..SCORE_LANES {
            lane_min[k] = lane_min[k].min(c[k]);
        }
    }
    let mut min = lane_min.into_iter().min().expect("lanes > 0");
    for &l in tail {
        min = min.min(l);
    }
    let mut tied = 0u64;
    for &l in loads {
        tied += u64::from(l == min);
    }
    let pick = rng.next_below(tied);
    let mut seen = 0;
    for (c, &l) in loads.iter().enumerate() {
        if l == min {
            if seen == pick {
                return PartitionId(c as u32);
            }
            seen += 1;
        }
    }
    unreachable!("pick < tied count")
}

/// Least-loaded partition among a non-empty candidate set, ties broken
/// uniformly with `rng` over ascending bit order.
pub(crate) fn least_loaded_in(
    loads: &[u64],
    candidates: &PartitionSet,
    rng: &mut Splitmix64,
) -> PartitionId {
    let min = candidates
        .iter()
        .map(|c| loads[c as usize])
        .min()
        .expect("non-empty candidate set");
    let tied = candidates
        .iter()
        .filter(|&c| loads[c as usize] == min)
        .count() as u64;
    let pick = rng.next_below(tied);
    let mut seen = 0;
    for c in candidates.iter() {
        if loads[c as usize] == min {
            if seen == pick {
                return PartitionId(c);
            }
            seen += 1;
        }
    }
    unreachable!("pick < tied count")
}

/// HDRF's Appendix-B score as a pure function of the visible state. The
/// caller supplies the loads and their aggregates (`max_load`/`min_load` —
/// the window-start snapshot's for a frozen score, live otherwise) and
/// a [`ScoreScratch`] buffer; the fill loop runs in explicit
/// [`SCORE_LANES`]-wide unrolled lanes whose bodies are branchless —
/// membership is two shifts off the replica-bitset words, the capacity
/// constraint is a select to `-inf` — and the best/tie scan walks the
/// filled buffer in ascending partition order with the same `1e-12`
/// epsilon. When every partition is at capacity (transient at tiny loads)
/// it falls back to the least-loaded one, as Oblivious does.
#[allow(clippy::too_many_arguments)]
pub(crate) fn hdrf_score(
    loads: &[u64],
    capacity: u64,
    au: &PartitionSet,
    av: &PartitionSet,
    theta_u: f64,
    theta_v: f64,
    lambda: f64,
    max_load: f64,
    min_load: f64,
    rng: &mut Splitmix64,
    scores: &mut [f64],
) -> PartitionId {
    let p = loads.len();
    debug_assert_eq!(scores.len(), p);
    const EPS: f64 = 1.0;
    let g_u = 1.0 + (1.0 - theta_u);
    let g_v = 1.0 + (1.0 - theta_v);
    let uw = au.words();
    let vw = av.words();
    let bal_denom = EPS + max_load - min_load;
    // One lane: straight-line f64 arithmetic with a branchless select.
    // Inline sets always carry 4 words; vertices never placed past
    // partition 255 read membership 0 beyond them, as they must.
    let lane = |j: usize| -> f64 {
        let (wi, bit) = (j / 64, j % 64);
        let in_u = (uw.get(wi).copied().unwrap_or(0) >> bit & 1) as f64;
        let in_v = (vw.get(wi).copied().unwrap_or(0) >> bit & 1) as f64;
        let c_rep = in_u * g_u + in_v * g_v;
        let c_bal = (max_load - loads[j] as f64) / bal_denom;
        let score = c_rep + lambda * c_bal;
        // At-capacity partitions score -inf: they can never win the max
        // scan, and `(-inf) - best` is never within the tie epsilon.
        if loads[j] < capacity {
            score
        } else {
            f64::NEG_INFINITY
        }
    };
    let mut j = 0;
    while j + SCORE_LANES <= p {
        let s0 = lane(j);
        let s1 = lane(j + 1);
        let s2 = lane(j + 2);
        let s3 = lane(j + 3);
        scores[j] = s0;
        scores[j + 1] = s1;
        scores[j + 2] = s2;
        scores[j + 3] = s3;
        j += SCORE_LANES;
    }
    while j < p {
        scores[j] = lane(j);
        j += 1;
    }
    // Best score and tie count over the filled buffer (ascending order).
    // `NaN <= eps` is false, so an all-at-capacity buffer (best stays -inf)
    // leaves `tied == 0`.
    let mut best_score = f64::NEG_INFINITY;
    let mut tied = 0u64;
    for &score in scores.iter() {
        if score > best_score + 1e-12 {
            best_score = score;
            tied = 1;
        } else if (score - best_score).abs() <= 1e-12 {
            tied += 1;
        }
    }
    if tied == 0 {
        return least_loaded_all(loads, rng);
    }
    let pick = rng.next_below(tied);
    let mut seen = 0;
    for (m, &score) in scores.iter().enumerate() {
        if (score - best_score).abs() <= 1e-12 {
            if seen == pick {
                return PartitionId(m as u32);
            }
            seen += 1;
        }
    }
    unreachable!("pick < tied count")
}

/// Oblivious's Appendix-A case analysis as a pure function of the visible
/// state. The intersection/union cases are word-wise AND/OR over the
/// bitset words and the least-loaded fallbacks run the lane-unrolled min
/// reduction.
pub(crate) fn oblivious_score(
    loads: &[u64],
    capacity: u64,
    au: &PartitionSet,
    av: &PartitionSet,
    rng: &mut Splitmix64,
) -> PartitionId {
    let inter = au.intersection(av);
    let choice = if !inter.is_empty() {
        least_loaded_in(loads, &inter, rng)
    } else if au.is_empty() && av.is_empty() {
        least_loaded_all(loads, rng)
    } else if av.is_empty() {
        least_loaded_in(loads, au, rng)
    } else if au.is_empty() {
        least_loaded_in(loads, av, rng)
    } else {
        least_loaded_in(loads, &au.union(av), rng)
    };
    if loads[choice.index()] >= capacity {
        least_loaded_all(loads, rng)
    } else {
        choice
    }
}

/// One stateful strategy's scoring rule, the only implementation of it: a
/// per-loader [`GreedyState`] plus pure scoring functions over it
/// (window-start-snapshot and live variants) and a deferred end-of-window
/// degree merge. Batch ingress at every window and the serving-time assign
/// step all reach the rule through this trait.
pub(crate) trait WindowKernel {
    /// The replica sets, loads and work tally the rule scores against; the
    /// drivers commit placements into it.
    fn greedy(&self) -> &GreedyState;
    fn greedy_mut(&mut self) -> &mut GreedyState;

    /// Called once per window, before its first edge: snapshot the
    /// per-partition loads and whatever load aggregates the frozen score
    /// reads (max/min load, capacity). The snapshot lifts two O(p) scans per
    /// edge out of the walk, and keeps a frozen score exact after earlier
    /// edges of the window moved the live loads.
    fn begin_window(&mut self);

    /// Score edge `e` (stream index `idx`) against the window-start
    /// snapshot: the loads and aggregates saved by [`Self::begin_window`],
    /// with the live replica sets and degree counters. Only exact for an
    /// edge whose endpoints no earlier edge of the window touched — their
    /// replica sets are still the snapshot's, and degree counters move only
    /// in [`Self::end_window`].
    fn score_frozen(&self, e: Edge, idx: usize, scratch: &mut ScoreScratch) -> PartitionId;

    /// Score edge `e` against the live state (a windowed edge whose
    /// endpoint was touched or whose frozen pick hit the capacity cap, and
    /// every edge of the window-1 drive). Same pure function as
    /// [`Self::score_frozen`], but loads and aggregates are the live ones.
    fn score_live(&self, e: Edge, idx: usize, scratch: &mut ScoreScratch) -> PartitionId;

    /// Fold the committed window's endpoint touches into deferred state
    /// (degree counters), called after the whole window has committed —
    /// degree counters are frozen for the duration of a window by design.
    fn end_window(&mut self, _edges: &[Edge]) {}

    /// Window 1 for one edge: score against the live state, commit, fold.
    /// This is the sequential ingress step and the serving assign step.
    #[inline]
    fn step(&mut self, e: Edge, idx: usize, scratch: &mut ScoreScratch) -> PartitionId {
        let p = self.score_live(e, idx, scratch);
        self.greedy_mut().commit_priced(e, p);
        self.end_window(std::slice::from_ref(&e));
        p
    }

    /// Unwind a served delete of `e` from `p`: decay loads (and degree
    /// counters) so later placements see the smaller graph.
    fn retire(&mut self, _e: Edge, p: PartitionId) {
        self.greedy_mut().retire(p);
    }

    /// Strategy-private state estimate for ingress memory accounting,
    /// excluding whatever windowing machinery the driver allocates.
    fn state_bytes(&self) -> u64 {
        self.greedy().state_bytes()
    }
}

/// Drive one loader block one edge at a time — window 1 of the kernel,
/// without the stamp set and per-window buffers of [`run_windowed`] —
/// writing edge `block.start + j`'s placement to `out[j]`.
fn run_sequential<K: WindowKernel>(
    graph: &dyn StreamingEdges,
    block: Range<usize>,
    kernel: &mut K,
    out: &mut [PartitionId],
) {
    let mut scratch = ScoreScratch::new(kernel.greedy().load.len());
    let mut slots = out.iter_mut().zip(block.clone());
    for_each_edge(graph, block, |e| {
        let (slot, idx) = slots.next().expect("one slot per block edge");
        *slot = kernel.step(e, idx, &mut scratch);
    });
}

/// Drive one loader block through windows, writing edge `block.start + j`'s
/// placement to `out[j]`. `ctx.window` is a fixed size or
/// [`WINDOW_AUTO`]. Each window is one stream-order walk that scores every
/// edge once — against the window-start snapshot when neither endpoint was
/// touched earlier in the window and the pick is under the live capacity
/// cap, live otherwise — then the deferred degree merge.
fn run_windowed<K: WindowKernel>(
    graph: &dyn StreamingEdges,
    block: Range<usize>,
    ctx: &PartitionContext,
    kernel: &mut K,
    out: &mut [PartitionId],
) -> SpecStats {
    debug_assert!(ctx.window >= 1, "a window holds at least one edge");
    let mut stats = SpecStats::default();
    let mut stamp = StampSet::new(graph.num_vertices() as usize);
    let mut ctl = WindowController::new(ctx.window);
    let slice = graph.as_edge_slice();
    // The spill buffer for non-memory sources (the in-memory fast path
    // walks the stream's slice), reused across windows.
    let mut buf: Vec<Edge> = Vec::new();
    let mut scratch = ScoreScratch::new(kernel.greedy().load.len());
    let mut start = block.start;
    while start < block.end {
        let end = (start + ctl.current()).min(block.end);
        let edges: &[Edge] = match slice {
            Some(s) => &s[start..end],
            None => {
                buf.clear();
                for_each_edge(graph, start..end, |e| buf.push(e));
                &buf
            }
        };
        kernel.begin_window();
        stamp.advance();
        let mut repaired = 0u64;
        for (i, &e) in edges.iter().enumerate() {
            let idx = start + i;
            let clean = !stamp.contains(e.src) && !stamp.contains(e.dst);
            let frozen = clean
                .then(|| kernel.score_frozen(e, idx, &mut scratch))
                .filter(|&p| !kernel.greedy().over_capacity(p));
            let p = frozen.unwrap_or_else(|| {
                repaired += 1;
                kernel.score_live(e, idx, &mut scratch)
            });
            kernel.greedy_mut().commit_priced(e, p);
            stamp.mark(e.src);
            stamp.mark(e.dst);
            out[idx - block.start] = p;
        }
        kernel.end_window(edges);
        let committed = edges.len();
        stats.windows += 1;
        stats.speculated += committed as u64 - repaired;
        stats.repaired += repaired;
        stats.max_window = stats.max_window.max(committed as u64);
        ctl.observe(committed, repaired, &mut stats);
        start = end;
    }
    stats
}

/// Run every loader block of a stateful strategy and freeze the outcome:
/// the whole of HDRF's and Oblivious's `partition`. Each block is a pure
/// function of its own edge range — own kernel (from `make_kernel`), own
/// window schedule — driven one edge at a time for `window <= 1` and
/// window by window otherwise. Blocks run concurrently on the ordered
/// pool, up to `--threads` at a time, each writing its placements into its
/// own slice of the stream-order result, so no schedule or thread count
/// changes a byte.
pub(crate) fn partition_blocks<K, F>(
    name: &'static str,
    graph: &dyn StreamingEdges,
    ctx: &PartitionContext,
    make_kernel: F,
) -> PartitionOutcome
where
    K: WindowKernel,
    F: Fn(usize) -> K + Sync,
{
    let n = graph.num_vertices();
    let run_block = |i: usize, block: Range<usize>, out: &mut [PartitionId]| {
        let mut kernel = make_kernel(i);
        let mut stats = SpecStats::default();
        let mut bytes = 0;
        if ctx.window <= 1 {
            run_sequential(graph, block, &mut kernel, out);
        } else {
            stats = run_windowed(graph, block, ctx, &mut kernel, out);
            // The modelled windowing machinery, a simulated output: 20
            // bytes per edge of the largest window actually cut (the edge
            // and its pick) and the per-vertex stamp table.
            bytes = stats.max_window * 20 + n * 4;
        }
        bytes += kernel.state_bytes();
        (kernel.greedy().work, bytes, stats)
    };
    let run_block = &run_block;
    let mut parts = vec![PartitionId(0); graph.num_edges()];
    let mut rest = parts.as_mut_slice();
    let mut tasks = Vec::new();
    for (i, block) in loader_ranges(graph.num_edges(), ctx.num_loaders)
        .into_iter()
        .enumerate()
    {
        let (out, tail) = rest.split_at_mut(block.len());
        rest = tail;
        tasks.push(move || run_block(i, block, out));
    }
    let mut loader_work = Vec::with_capacity(tasks.len());
    let mut state_bytes = 0u64;
    let mut stats = SpecStats::default();
    for (work, bytes, block_stats) in gp_par::run_ordered(ctx.par.effective_threads(), tasks) {
        loader_work.push(work);
        state_bytes = state_bytes.max(bytes);
        stats.absorb(block_stats);
    }
    let outcome = PartitionOutcome {
        assignment: Assignment::from_edge_partitions_par(
            graph,
            parts,
            ctx.num_partitions,
            ctx.seed,
            &ctx.par,
        ),
        loader_work,
        passes: 1,
        state_bytes,
    };
    crate::strategies::record_ingress_telemetry(name, graph, &outcome, ctx);
    record_speculation_telemetry(ctx, &stats);
    outcome
}

/// Record a windowed speculative run's counters. Only emitted when the
/// window is actually on (`window >= 2`), and under the `par.` prefix that
/// trace-identity comparisons already strip — so every golden trace and
/// byte-identity gate for non-windowed runs is untouched.
fn record_speculation_telemetry(ctx: &PartitionContext, stats: &SpecStats) {
    let sink = &ctx.telemetry;
    if !sink.is_enabled() || ctx.window < 2 {
        return;
    }
    // The configured window is only meaningful when fixed; under
    // `--window auto` the observed `par.spec_window_size` gauge carries the
    // controller's trajectory instead.
    if ctx.window != WINDOW_AUTO {
        sink.gauge_set("par.window_size", f64::from(ctx.window));
    }
    sink.gauge_set("par.spec_window_size", stats.max_window as f64);
    sink.gauge_set("par.spec_repair_rate", stats.repair_rate());
    sink.counter_add("par.spec_windows", stats.windows);
    sink.counter_add("par.spec_edges", stats.speculated);
    sink.counter_add("par.spec_repaired", stats.repaired);
    sink.counter_add("par.spec_shrinks", stats.shrinks);
}

#[cfg(test)]
mod tests {
    use super::*;
    use gp_core::EdgeList;

    #[test]
    fn stamp_set_separates_windows() {
        let mut s = StampSet::new(4);
        s.advance();
        s.mark(VertexId(1));
        assert!(s.contains(VertexId(1)));
        assert!(!s.contains(VertexId(0)));
        s.advance();
        assert!(!s.contains(VertexId(1)), "new window unmarks everything");
    }

    #[test]
    fn edge_rng_is_stable_per_index() {
        let a = edge_rng(42, 7).next_u64();
        let b = edge_rng(42, 7).next_u64();
        let c = edge_rng(42, 8).next_u64();
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    /// The executable meaning of "sequential is window 1": driving a block
    /// through [`run_windowed`] at `W = 1` commits exactly what
    /// [`run_sequential`] commits — placements, work and every piece of
    /// kernel state — for both rules, one loader and nine.
    #[test]
    fn window_one_equals_the_sequential_drive() {
        use crate::strategies::hdrf::HdrfWindowKernel;
        use crate::strategies::oblivious::ObliviousWindowKernel;

        fn check<K: WindowKernel>(
            graph: &EdgeList,
            loaders: u32,
            make: impl Fn(usize) -> K,
            same_extra: impl Fn(&K, &K) -> bool,
        ) {
            let ctx = PartitionContext::new(9).with_window(1);
            let blocks = loader_ranges(graph.num_edges(), loaders);
            for (i, block) in blocks.into_iter().enumerate() {
                let (mut seq, mut win) = (make(i), make(i));
                let mut seq_parts = vec![PartitionId(0); block.len()];
                let mut win_parts = seq_parts.clone();
                run_sequential(graph, block.clone(), &mut seq, &mut seq_parts);
                let stats = run_windowed(graph, block.clone(), &ctx, &mut win, &mut win_parts);
                assert_eq!(stats.windows, block.len() as u64);
                assert_eq!(stats.max_window, u64::from(!block.is_empty()));
                assert_eq!(seq_parts, win_parts, "loader {i}/{loaders}: placements");
                let (a, b) = (seq.greedy(), win.greedy());
                assert_eq!(a.work.to_bits(), b.work.to_bits(), "loader {i}: work");
                assert_eq!(a.load, b.load);
                assert_eq!(a.assigned, b.assigned);
                assert_eq!(a.a, b.a, "loader {i}: replica sets");
                assert_eq!(seq.state_bytes(), win.state_bytes());
                assert!(same_extra(&seq, &win), "loader {i}: degree counters");
            }
        }

        let road = gp_gen::RoadNetworkParams {
            width: 30,
            height: 30,
            ..Default::default()
        };
        let graphs = [
            gp_gen::erdos_renyi(800, 6_000, 3),
            gp_gen::barabasi_albert(1_500, 6, 7),
            gp_gen::road_network(&road, 5),
        ];
        for g in &graphs {
            let n = g.num_vertices();
            for loaders in [1u32, 9] {
                check(
                    g,
                    loaders,
                    |i| HdrfWindowKernel::new(9, n, 11 ^ (0x4d5f + i as u64), 1.0),
                    |a, b| a.partial_degree == b.partial_degree,
                );
                check(
                    g,
                    loaders,
                    |i| ObliviousWindowKernel::new(9, n, 11 ^ (0x0b11 + i as u64)),
                    |_, _| true,
                );
            }
        }
    }

    /// The speculate-all-then-repair drive [`run_windowed`] replaced, kept
    /// as its reference: score every edge of a window against the
    /// window-start snapshot first, then walk the window in stream order,
    /// keeping a pick iff neither endpoint was touched earlier in the window
    /// and the pick is under the live capacity cap, and re-scoring the edge
    /// live otherwise.
    fn speculate_then_repair<K: WindowKernel>(
        graph: &EdgeList,
        block: Range<usize>,
        window: u32,
        kernel: &mut K,
        parts: &mut Vec<PartitionId>,
    ) -> SpecStats {
        let mut stats = SpecStats::default();
        let mut stamp = StampSet::new(graph.num_vertices() as usize);
        let mut ctl = WindowController::new(window);
        let mut scratch = ScoreScratch::new(kernel.greedy().load.len());
        let mut start = block.start;
        while start < block.end {
            let end = (start + ctl.current()).min(block.end);
            let edges = &graph.edges()[start..end];
            kernel.begin_window();
            let spec: Vec<PartitionId> = (start..end)
                .zip(edges)
                .map(|(idx, &e)| kernel.score_frozen(e, idx, &mut scratch))
                .collect();
            stamp.advance();
            let mut repaired = 0u64;
            for ((idx, &e), &provisional) in (start..end).zip(edges).zip(&spec) {
                let clean = !stamp.contains(e.src)
                    && !stamp.contains(e.dst)
                    && !kernel.greedy().over_capacity(provisional);
                let p = if clean {
                    provisional
                } else {
                    repaired += 1;
                    kernel.score_live(e, idx, &mut scratch)
                };
                kernel.greedy_mut().commit_priced(e, p);
                stamp.mark(e.src);
                stamp.mark(e.dst);
                parts.push(p);
            }
            kernel.end_window(edges);
            stats.windows += 1;
            stats.speculated += edges.len() as u64 - repaired;
            stats.repaired += repaired;
            stats.max_window = stats.max_window.max(edges.len() as u64);
            ctl.observe(edges.len(), repaired, &mut stats);
            start = end;
        }
        stats
    }

    /// A kernel wrapper that counts its frozen and live score calls.
    struct Tally<K> {
        inner: K,
        frozen: std::cell::Cell<u64>,
        live: std::cell::Cell<u64>,
    }

    impl<K> Tally<K> {
        fn new(inner: K) -> Self {
            Tally {
                inner,
                frozen: Default::default(),
                live: Default::default(),
            }
        }

        fn calls(&self) -> u64 {
            self.frozen.get() + self.live.get()
        }
    }

    impl<K: WindowKernel> WindowKernel for Tally<K> {
        fn greedy(&self) -> &GreedyState {
            self.inner.greedy()
        }

        fn greedy_mut(&mut self) -> &mut GreedyState {
            self.inner.greedy_mut()
        }

        fn begin_window(&mut self) {
            self.inner.begin_window();
        }

        fn score_frozen(&self, e: Edge, idx: usize, scratch: &mut ScoreScratch) -> PartitionId {
            self.frozen.set(self.frozen.get() + 1);
            self.inner.score_frozen(e, idx, scratch)
        }

        fn score_live(&self, e: Edge, idx: usize, scratch: &mut ScoreScratch) -> PartitionId {
            self.live.set(self.live.get() + 1);
            self.inner.score_live(e, idx, scratch)
        }

        fn end_window(&mut self, edges: &[Edge]) {
            self.inner.end_window(edges);
        }

        fn state_bytes(&self) -> u64 {
            self.inner.state_bytes()
        }
    }

    /// The two stream shapes the windowed drives are checked on: a
    /// source-sorted BA graph, where nearly every edge shares an endpoint
    /// with an earlier edge of its window, and a shuffled ER stream, where
    /// most edges stay clean and are scored from the snapshot's loads.
    fn window_streams() -> [(&'static str, EdgeList); 2] {
        let mut sorted = gp_gen::barabasi_albert(3_000, 6, 5).edges().to_vec();
        sorted.sort_by_key(|e| (e.src, e.dst));
        let mut shuffled = gp_gen::erdos_renyi(2_000, 16_000, 9).edges().to_vec();
        let mut rng = Splitmix64::new(17);
        for i in (1..shuffled.len()).rev() {
            shuffled.swap(i, rng.next_below(i as u64 + 1) as usize);
        }
        [
            ("sorted BA", EdgeList::from_edges(sorted)),
            ("shuffled ER", EdgeList::from_edges(shuffled)),
        ]
    }

    /// Run both drives on every loader block of `graph` at `window` and
    /// hand each block's two kernels, stats and score tallies to `check`.
    fn drive_both<K: WindowKernel>(
        graph: &EdgeList,
        window: u32,
        loaders: u32,
        make: impl Fn(usize) -> K,
        mut check: impl FnMut(Range<usize>, [(&Tally<K>, SpecStats); 2]),
    ) {
        let ctx = PartitionContext::new(9).with_window(window);
        for (i, block) in loader_ranges(graph.num_edges(), loaders)
            .into_iter()
            .enumerate()
        {
            let (mut old, mut new) = (Tally::new(make(i)), Tally::new(make(i)));
            let mut old_parts = Vec::new();
            let mut new_parts = vec![PartitionId(0); block.len()];
            let old_stats =
                speculate_then_repair(graph, block.clone(), window, &mut old, &mut old_parts);
            let new_stats = run_windowed(graph, block.clone(), &ctx, &mut new, &mut new_parts);
            assert_eq!(old_parts, new_parts, "block {i}: placements");
            check(block, [(&old, old_stats), (&new, new_stats)]);
        }
    }

    /// Scoring each edge once commits exactly what scoring every edge
    /// against the snapshot and then repairing commits: placements, stats,
    /// loads, replica sets, degree counters, work and state bytes, for both
    /// rules, fixed and adaptive windows, one loader and nine.
    #[test]
    fn one_walk_equals_speculate_then_repair() {
        use crate::strategies::hdrf::HdrfWindowKernel;
        use crate::strategies::oblivious::ObliviousWindowKernel;

        fn same_greedy(a: &GreedyState, b: &GreedyState, what: &str) {
            assert_eq!(a.work.to_bits(), b.work.to_bits(), "{what}: work");
            assert_eq!(a.load, b.load, "{what}: loads");
            assert_eq!(a.assigned, b.assigned, "{what}: assigned");
            assert_eq!(a.a, b.a, "{what}: replica sets");
        }

        let mut clean = 0;
        for (name, g) in &window_streams() {
            let n = g.num_vertices();
            for window in [2, 16, 4096, WINDOW_AUTO] {
                for loaders in [1u32, 9] {
                    let what = format!("{name} W={window} loaders={loaders}");
                    let hdrf =
                        |i: usize| HdrfWindowKernel::new(9, n, 11 ^ (0x4d5f + i as u64), 1.0);
                    drive_both(g, window, loaders, hdrf, |_, [(old, a), (new, b)]| {
                        assert_eq!(a, b, "{what}: HDRF stats");
                        same_greedy(old.greedy(), new.greedy(), &what);
                        assert_eq!(old.inner.partial_degree, new.inner.partial_degree);
                        assert_eq!(old.state_bytes(), new.state_bytes(), "{what}");
                        clean += b.speculated;
                    });
                    let obl = |i: usize| ObliviousWindowKernel::new(9, n, 11 ^ (0x0b11 + i as u64));
                    drive_both(g, window, loaders, obl, |_, [(old, a), (new, b)]| {
                        assert_eq!(a, b, "{what}: Oblivious stats");
                        same_greedy(old.greedy(), new.greedy(), &what);
                        assert_eq!(old.state_bytes(), new.state_bytes(), "{what}");
                    });
                }
            }
        }
        assert!(clean > 100_000, "snapshot-scored edges exercised: {clean}");
    }

    /// The work the one walk removes, as a count: a windowed block makes
    /// `edges + capacity fallbacks` score calls, where speculating first
    /// made `edges + repaired`. Conflicts (an endpoint touched earlier in
    /// the window) are counted independently of either drive.
    #[test]
    fn one_walk_scores_each_edge_once_plus_capacity_fallbacks() {
        use crate::strategies::hdrf::HdrfWindowKernel;

        let (mut old_calls, mut new_calls, mut fallbacks) = (0, 0, 0);
        for (name, g) in &window_streams() {
            let n = g.num_vertices();
            for window in [2u32, 16, 4096] {
                let hdrf = |i: usize| HdrfWindowKernel::new(9, n, 11 ^ (0x4d5f + i as u64), 1.0);
                drive_both(g, window, 9, hdrf, |block, [(old, a), (new, b)]| {
                    let edges = &g.edges()[block];
                    let conflicts: u64 = edges
                        .chunks(window as usize)
                        .map(|w| {
                            let mut seen = std::collections::HashSet::new();
                            let mut hit = 0;
                            for e in w {
                                hit += u64::from(seen.contains(&e.src) || seen.contains(&e.dst));
                                seen.extend([e.src, e.dst]);
                            }
                            hit
                        })
                        .sum();
                    let edges = edges.len() as u64;
                    assert_eq!(old.calls(), edges + a.repaired, "{name} W={window}");
                    assert_eq!(new.frozen.get(), edges - conflicts, "{name} W={window}");
                    assert_eq!(
                        new.calls(),
                        edges + b.repaired - conflicts,
                        "{name} W={window}"
                    );
                    fallbacks += b.repaired - conflicts;
                    old_calls += old.calls();
                    new_calls += new.calls();
                });
            }
        }
        assert!(fallbacks > 0, "capacity fallbacks exercised: {fallbacks}");
        assert!(
            new_calls * 3 < old_calls * 2,
            "one walk: {new_calls} calls vs {old_calls}, {fallbacks} fallbacks"
        );
    }

    #[test]
    fn lane_unrolled_least_loaded_handles_all_lengths() {
        // Lengths straddling the 4-lane boundary: the unrolled reduction
        // must agree with a plain scalar argmin + same-tie pick.
        for p in 1..=11usize {
            let loads: Vec<u64> = (0..p).map(|i| ((i * 7 + 3) % 5) as u64).collect();
            let got = least_loaded_all(&loads, &mut Splitmix64::new(1));
            let min = *loads.iter().min().unwrap();
            let tied: Vec<usize> = (0..p).filter(|&i| loads[i] == min).collect();
            let pick = Splitmix64::new(1).next_below(tied.len() as u64) as usize;
            assert_eq!(got, PartitionId(tied[pick] as u32), "p={p}");
        }
    }

    #[test]
    fn fixed_controller_never_moves() {
        let mut stats = SpecStats::default();
        let mut ctl = WindowController::new(4096);
        assert_eq!(ctl.current(), 4096);
        ctl.observe(4096, 4096, &mut stats); // 100% repair rate
        assert_eq!(ctl.current(), 4096, "fixed windows ignore the repair rate");
        assert_eq!(stats.shrinks, 0);
    }

    #[test]
    fn adaptive_controller_grows_on_clean_windows() {
        let mut stats = SpecStats::default();
        let mut ctl = WindowController::new(WINDOW_AUTO);
        assert_eq!(ctl.current(), WindowController::INITIAL);
        let mut w = ctl.current();
        for _ in 0..32 {
            ctl.observe(w, 0, &mut stats);
            w = ctl.current();
        }
        assert_eq!(w, WindowController::MAX, "clean stream must reach the cap");
        assert_eq!(stats.shrinks, 0);
    }

    #[test]
    fn adaptive_controller_shrinks_on_conflict_storms_to_the_floor() {
        let mut stats = SpecStats::default();
        let mut ctl = WindowController::new(WINDOW_AUTO);
        let mut w = ctl.current();
        for _ in 0..32 {
            ctl.observe(w, w as u64, &mut stats); // every edge repaired
            w = ctl.current();
        }
        assert_eq!(w, WindowController::MIN, "storm must reach the floor");
        assert!(stats.shrinks >= 1, "shrinks must be counted");
    }

    #[test]
    fn adaptive_controller_holds_in_the_dead_band() {
        let mut stats = SpecStats::default();
        let mut ctl = WindowController::new(WINDOW_AUTO);
        let w = ctl.current();
        // Repair rate between the thresholds: hold steady.
        ctl.observe(1000, 250, &mut stats);
        assert_eq!(ctl.current(), w);
        assert_eq!(stats.shrinks, 0);
    }

    #[test]
    fn spec_stats_absorb_tracks_extrema() {
        let mut a = SpecStats {
            windows: 1,
            speculated: 10,
            repaired: 2,
            max_window: 512,
            shrinks: 0,
        };
        let b = SpecStats {
            windows: 2,
            speculated: 5,
            repaired: 5,
            max_window: 2048,
            shrinks: 3,
        };
        a.absorb(b);
        assert_eq!(a.windows, 3);
        assert_eq!(a.max_window, 2048);
        assert_eq!(a.shrinks, 3);
        assert!((a.repair_rate() - 7.0 / 22.0).abs() < 1e-12);
    }
}
