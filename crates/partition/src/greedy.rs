//! Stateful ingress for the greedy partitioners, HDRF and Oblivious.
//!
//! Both assign each edge by scoring it against state mutated by every
//! previous edge of its loader — replica [`PartitionSet`]s, per-partition
//! loads and, for HDRF, partial-degree counters. Each rule is implemented
//! once, as a [`GreedyKernel`]: a pure score over that state plus a commit.
//! [`GreedyKernel::step`] (score, then commit) is both the batch ingress
//! step and the serving-time assign step.
//!
//! Scoring runs in explicit 4-wide unrolled lanes with branchless capacity
//! selects over the bitset words (see [`SCORE_LANES`]), into one reused
//! [`ScoreScratch`] — no per-edge allocation, no branches the vectorizer
//! cannot lower to masks. Each edge draws tie-breaks from its own
//! [`Splitmix64`] seeded by the *stream index*.
//!
//! The paper's systems get ingress parallelism from independent loaders,
//! each oblivious to the others (§5.3). [`partition_blocks`] models exactly
//! that: every loader block is a pure function of its own edge range, with
//! its own kernel, so the blocks run concurrently on the ordered pool, up
//! to `--threads` at a time, each writing its placements into its own slice
//! of the stream-order result. The output is a pure function of `(graph,
//! seed, partitions, loaders)`; any thread count yields byte-identical
//! placements.

use crate::assignment::Assignment;
use crate::partitioner::{loader_ranges, PartitionContext, PartitionOutcome};
use crate::strategies::oblivious::GreedyState;
use gp_core::{for_each_edge, Edge, PartitionId, PartitionSet, Splitmix64, StreamingEdges};
use std::ops::Range;

/// Reusable scoring scratch: the per-partition score buffer the 4-wide
/// lanes fill and the pick scans read. One lives in each loader block's
/// drive (and in each serving partitioner), reused across every edge it
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

/// The per-edge tie-break RNG of the greedy kernels: a fresh
/// [`Splitmix64`] keyed by `(loader seed, stream index)`. Giving every edge
/// its own stream makes a score depend only on `(state, edge, index)`, so
/// batch ingress and the serving step score the same edge identically.
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
/// caller supplies the loads, their aggregates (`max_load`/`min_load`) and
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
/// per-loader [`GreedyState`] plus a pure score over it. Batch ingress and
/// the serving-time assign step both reach the rule through this trait.
pub(crate) trait GreedyKernel {
    /// The replica sets, loads and work tally the rule scores against;
    /// commits land in it.
    fn greedy(&self) -> &GreedyState;
    fn greedy_mut(&mut self) -> &mut GreedyState;

    /// Score edge `e` (stream index `idx`) against the current state.
    fn score(&self, e: Edge, idx: usize, scratch: &mut ScoreScratch) -> PartitionId;

    /// Record that `e` was placed on `p`: loads, replica sets and work, and
    /// whatever per-vertex state the rule keeps (HDRF's degree counters).
    /// Serving also calls this to absorb a base edge batch ingress placed.
    fn commit(&mut self, e: Edge, p: PartitionId) {
        self.greedy_mut().commit_priced(e, p);
    }

    /// Score one edge and commit it: the ingress step and the serving
    /// assign step.
    #[inline]
    fn step(&mut self, e: Edge, idx: usize, scratch: &mut ScoreScratch) -> PartitionId {
        let p = self.score(e, idx, scratch);
        self.commit(e, p);
        p
    }

    /// Unwind a served delete of `e` from `p`: decay loads (and degree
    /// counters) so later placements see the smaller graph.
    fn retire(&mut self, _e: Edge, p: PartitionId) {
        self.greedy_mut().retire(p);
    }

    /// Strategy-private state estimate for ingress memory accounting.
    fn state_bytes(&self) -> u64 {
        self.greedy().state_bytes()
    }
}

/// Drive one loader block one edge at a time, writing edge `block.start +
/// j`'s placement to `out[j]`.
fn run_block<K: GreedyKernel>(
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

/// Run every loader block of a stateful strategy and freeze the outcome:
/// the whole of HDRF's and Oblivious's `partition`. Each block gets its own
/// kernel from `make_kernel(block index)`; blocks run concurrently on the
/// ordered pool, up to `--threads` at a time, each writing its placements
/// into its own slice of the stream-order result, so no thread count
/// changes a byte.
pub(crate) fn partition_blocks<K, F>(
    name: &'static str,
    graph: &dyn StreamingEdges,
    ctx: &PartitionContext,
    make_kernel: F,
) -> PartitionOutcome
where
    K: GreedyKernel,
    F: Fn(usize) -> K + Sync,
{
    let make_kernel = &make_kernel;
    let mut parts = vec![PartitionId(0); graph.num_edges()];
    let mut rest = parts.as_mut_slice();
    let mut tasks = Vec::new();
    for (i, block) in loader_ranges(graph.num_edges(), ctx.num_loaders)
        .into_iter()
        .enumerate()
    {
        let (out, tail) = rest.split_at_mut(block.len());
        rest = tail;
        tasks.push(move || {
            let mut kernel = make_kernel(i);
            run_block(graph, block, &mut kernel, out);
            (kernel.greedy().work, kernel.state_bytes())
        });
    }
    let mut loader_work = Vec::with_capacity(tasks.len());
    let mut state_bytes = 0u64;
    for (work, bytes) in gp_par::run_ordered(ctx.par.effective_threads(), tasks) {
        loader_work.push(work);
        state_bytes = state_bytes.max(bytes);
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
    outcome
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn edge_rng_is_stable_per_index() {
        let a = edge_rng(42, 7).next_u64();
        let b = edge_rng(42, 7).next_u64();
        let c = edge_rng(42, 8).next_u64();
        assert_eq!(a, b);
        assert_ne!(a, c);
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
}
