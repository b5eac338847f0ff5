//! Stateful ingress for the greedy partitioners, HDRF and Oblivious.
//!
//! Both assign each edge by scoring it against state mutated by every
//! previous edge of its loader — flat replica-set words, per-partition
//! loads and, for HDRF, partial-degree counters. Each rule is implemented
//! once, as a [`GreedyKernel`]: a pure score over that state plus a commit.
//! [`GreedyKernel::step`] (score, then commit) is both the batch ingress
//! step and the serving-time assign step.
//!
//! Scoring reads each endpoint's replica words in place and allocates
//! nothing: HDRF at `λ ≤ 1` scores only the partitions that can win, and
//! otherwise scores every partition once into a stack array that the leader
//! and tie-pick passes both read (past 64 partitions the tie pick scores
//! again). Each edge draws tie-breaks from its own [`Splitmix64`] seeded by
//! the *stream index*.
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
use crate::replica_words::bits;
use crate::strategies::oblivious::GreedyState;
use gp_core::{for_each_edge, Edge, PartitionId, Rng, Splitmix64, StreamingEdges};
use std::ops::Range;

/// The per-edge tie-break RNG of the greedy kernels: a fresh
/// [`Splitmix64`] keyed by `(loader seed, stream index)`. Giving every edge
/// its own stream makes a score depend only on `(state, edge, index)`, so
/// batch ingress and the serving step score the same edge identically.
#[inline]
pub(crate) fn edge_rng(seed: u64, global_idx: usize) -> Splitmix64 {
    Splitmix64::new(gp_core::hash_u64(global_idx as u64, seed))
}

/// Least-loaded partition over all partitions, ties broken uniformly with
/// `rng` (one draw over ascending order).
pub(crate) fn least_loaded_all(loads: &[u64], rng: &mut Splitmix64) -> PartitionId {
    least_loaded_in(loads, 0..loads.len(), rng)
}

/// Least-loaded partition among a non-empty candidate set, given as
/// ascending ids, ties broken uniformly with `rng` over that order: one
/// min/tie pass, one draw, one pick pass.
pub(crate) fn least_loaded_in(
    loads: &[u64],
    candidates: impl Iterator<Item = usize> + Clone,
    rng: &mut Splitmix64,
) -> PartitionId {
    let (mut min, mut tied) = (u64::MAX, 0u64);
    for c in candidates.clone() {
        let l = loads[c];
        if l < min {
            (min, tied) = (l, 1);
        } else if l == min {
            tied += 1;
        }
    }
    assert!(tied > 0, "non-empty candidate set");
    let pick = rng.next_below(tied) as usize;
    let c = candidates
        .filter(|&c| loads[c] == min)
        .nth(pick)
        .expect("pick < tied count");
    PartitionId(c as u32)
}

/// HDRF's tie scan over `(partition, score)` pairs in ascending partition
/// order: the best score and the count within `1e-12` of it, then one draw
/// picks among those. `None` (and no draw) when every score is `-inf`.
/// `NaN <= eps` is false, so `-inf` entries never tie with a `-inf` best.
fn pick_best(
    scored: impl Iterator<Item = (usize, f64)> + Clone,
    rng: &mut Splitmix64,
) -> Option<PartitionId> {
    let mut best_score = f64::NEG_INFINITY;
    let mut tied = 0u64;
    for (_, score) in scored.clone() {
        if score > best_score + 1e-12 {
            best_score = score;
            tied = 1;
        } else if (score - best_score).abs() <= 1e-12 {
            tied += 1;
        }
    }
    if tied == 0 {
        return None;
    }
    let pick = rng.next_below(tied) as usize;
    let (m, _) = scored
        .filter(|&(_, score)| (score - best_score).abs() <= 1e-12)
        .nth(pick)
        .expect("pick < tied count");
    Some(PartitionId(m as u32))
}

/// `λ·C_BAL(j)` of Appendix B for a partition holding `load` edges, when
/// the loads span `min_load..=max_load`. HDRF caches it per partition.
#[inline]
pub(crate) fn balance_term(lambda: f64, load: u64, max_load: u64, min_load: u64) -> f64 {
    const EPS: f64 = 1.0;
    let (max_load, min_load) = (max_load as f64, min_load as f64);
    lambda * ((max_load - load as f64) / (EPS + max_load - min_load))
}

/// Partition counts up to which HDRF's full scan keeps its scores on the
/// stack (512 bytes) rather than computing each twice.
const SCORE_SLOTS: usize = 64;

/// HDRF's Appendix-B score as a pure function of the visible state: the
/// loads, each partition's cached balance term `bal[j] = λ·C_BAL(j)` and
/// both endpoints' replica words. Ties within `1e-12` break with `rng`,
/// scanned in ascending partition order; at-capacity partitions score
/// `-inf`, and when every partition is at capacity (transient at tiny
/// loads) the least-loaded one wins, as in Oblivious.
///
/// With `members_first` only the members of `A(u) ∪ A(v)` under capacity
/// are scored. The caller sets it when `λ ≤ 1`, where it is exact: a member
/// scores its `g > 1` plus a balance term `≥ 0`, a non-member only its
/// balance term `λ·(max−min)/(1+max−min) < 1`, so any eligible member beats
/// every non-member by far more than the tie epsilon, and the scan over
/// members alone sees the same leader and ties. When no member is eligible,
/// or without `members_first`, every partition is scored once, into a stack
/// array of [`SCORE_SLOTS`] scores that both tie-scan passes read. Past that
/// many partitions the pick pass recomputes each score instead: a score is
/// a pure function of its partition — membership is two shifts off the
/// words, the capacity constraint a select to `-inf` — so the recomputed
/// value is the stored one, bit for bit.
#[allow(clippy::too_many_arguments)]
pub(crate) fn hdrf_score(
    loads: &[u64],
    capacity: u64,
    au: &[u64],
    av: &[u64],
    theta_u: f64,
    theta_v: f64,
    members_first: bool,
    bal: &[f64],
    rng: &mut Splitmix64,
) -> PartitionId {
    let g_u = 1.0 + (1.0 - theta_u);
    let g_v = 1.0 + (1.0 - theta_v);
    // Straight-line f64 arithmetic with a branchless select.
    let score_of = |j: usize| -> f64 {
        let (wi, bit) = (j / 64, j % 64);
        let in_u = (au[wi] >> bit & 1) as f64;
        let in_v = (av[wi] >> bit & 1) as f64;
        let score = in_u * g_u + in_v * g_v + bal[j];
        // At-capacity partitions score -inf: they can never win the max
        // scan, and `(-inf) - best` is never within the tie epsilon.
        if loads[j] < capacity {
            score
        } else {
            f64::NEG_INFINITY
        }
    };
    if members_first {
        let members = bits(au.len(), |i| au[i] | av[i]).map(|j| (j, score_of(j)));
        if let Some(pick) = pick_best(members, rng) {
            return pick;
        }
    }
    let n = loads.len();
    let best = if n <= SCORE_SLOTS {
        let mut scores = [f64::NEG_INFINITY; SCORE_SLOTS];
        for (j, s) in scores[..n].iter_mut().enumerate() {
            *s = score_of(j);
        }
        pick_best(scores[..n].iter().copied().enumerate(), rng)
    } else {
        pick_best((0..n).map(|j| (j, score_of(j))), rng)
    };
    best.unwrap_or_else(|| least_loaded_all(loads, rng))
}

/// Oblivious's Appendix-A case analysis as a pure function of the visible
/// state, reading the endpoints' replica words in place: the intersection
/// when it is non-empty, every partition when neither endpoint is placed,
/// and otherwise the union — which is the placed endpoint's own set when
/// only one is.
pub(crate) fn oblivious_score(
    loads: &[u64],
    capacity: u64,
    au: &[u64],
    av: &[u64],
    rng: &mut Splitmix64,
) -> PartitionId {
    let words = au.len();
    let choice = if au.iter().zip(av).any(|(x, y)| x & y != 0) {
        least_loaded_in(loads, bits(words, |i| au[i] & av[i]), rng)
    } else if au.iter().chain(av).all(|&x| x == 0) {
        least_loaded_all(loads, rng)
    } else {
        least_loaded_in(loads, bits(words, |i| au[i] | av[i]), rng)
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
    fn score(&self, e: Edge, idx: usize) -> PartitionId;

    /// Record that `e` was placed on `p`: loads, replica sets and work, and
    /// whatever per-vertex state the rule keeps (HDRF's degree counters).
    /// Serving also calls this to absorb a base edge batch ingress placed.
    fn commit(&mut self, e: Edge, p: PartitionId) {
        self.greedy_mut().commit_priced(e, p);
    }

    /// Score one edge and commit it: the ingress step and the serving
    /// assign step.
    #[inline]
    fn step(&mut self, e: Edge, idx: usize) -> PartitionId {
        let p = self.score(e, idx);
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
    let mut slots = out.iter_mut().zip(block.clone());
    for_each_edge(graph, block, |e| {
        let (slot, idx) = slots.next().expect("one slot per block edge");
        *slot = kernel.step(e, idx);
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
    use crate::strategies::oblivious::GreedyState;

    #[test]
    fn edge_rng_is_stable_per_index() {
        let a = edge_rng(42, 7).next_u64();
        let b = edge_rng(42, 7).next_u64();
        let c = edge_rng(42, 8).next_u64();
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn least_loaded_all_handles_all_lengths() {
        // A plain scalar argmin + same-tie pick must agree.
        for p in 1..=11usize {
            let loads: Vec<u64> = (0..p).map(|i| ((i * 7 + 3) % 5) as u64).collect();
            let got = least_loaded_all(&loads, &mut Splitmix64::new(1));
            let min = *loads.iter().min().unwrap();
            let tied: Vec<usize> = (0..p).filter(|&i| loads[i] == min).collect();
            let pick = Splitmix64::new(1).next_below(tied.len() as u64) as usize;
            assert_eq!(got, PartitionId(tied[pick] as u32), "p={p}");
        }
    }

    /// Members-first HDRF scoring picks what the dense scan picks, on random
    /// committed states: λ ∈ {0, 0.25, 1}, 2, 9 and 300 partitions,
    /// self-loops, and capacities that leave some members, or every
    /// partition, at capacity.
    #[test]
    fn members_first_pick_equals_the_dense_pick() {
        const N: u64 = 60;
        for lambda in [0.0f64, 0.25, 1.0] {
            for partitions in [2u32, 9, 300] {
                let mut state = GreedyState::new(partitions, N);
                let mut rng = Splitmix64::new(u64::from(partitions) ^ lambda.to_bits());
                let (mut by_members, mut dense) = (0, 0);
                for i in 0..3_000usize {
                    let u = rng.next_below(N / 10);
                    let v = rng.next_below(N);
                    let e = Edge::new(u, if rng.next_below(10) == 0 { u } else { v });
                    let loads = &state.load;
                    let max = *loads.iter().max().unwrap();
                    let min = *loads.iter().min().unwrap();
                    let bal: Vec<f64> = loads
                        .iter()
                        .map(|&l| balance_term(lambda, l, max, min))
                        .collect();
                    // From "every partition full" to "none full".
                    let capacity = min + rng.next_below(max - min + 2);
                    let theta_u = (rng.next_below(1_000) + 1) as f64 / 1_001.0;
                    let (au, av) = (state.replicas(e.src), state.replicas(e.dst));
                    let pick = |members_first| {
                        hdrf_score(
                            loads,
                            capacity,
                            au,
                            av,
                            theta_u,
                            1.0 - theta_u,
                            members_first,
                            &bal,
                            &mut edge_rng(7, i),
                        )
                    };
                    let want = pick(false);
                    assert_eq!(pick(true), want, "λ={lambda} p={partitions} edge {i}");
                    let eligible_member =
                        bits(au.len(), |w| au[w] | av[w]).any(|j| loads[j] < capacity);
                    if eligible_member {
                        by_members += 1;
                    } else {
                        dense += 1;
                    }
                    let p = if rng.next_below(3) == 0 {
                        PartitionId(rng.next_below(u64::from(partitions)) as u32)
                    } else {
                        want
                    };
                    state.commit(e, p);
                }
                assert!(by_members > 100 && dense > 100, "{by_members} / {dense}");
            }
        }
    }
}
