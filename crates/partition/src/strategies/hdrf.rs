//! HDRF — High-Degree Replicated First (§5.2.4, Appendix B).
//!
//! HDRF is Oblivious's sibling: same streaming structure, but scoring
//! machines by *partial degree* so that when an edge `(u, v)` must split a
//! vertex, the **higher-degree** endpoint is the one replicated. With
//! `θ(v) = δ(v) / (δ(u) + δ(v))` on running partial-degree counters:
//!
//! ```text
//! C(u,v,M)    = C_REP(u,v,M) + λ · C_BAL(M)
//! C_REP       = g(u,M) + g(v,M)
//! g(v,M)      = 1 + (1 − θ(v))   if M ∈ A(v), else 0
//! C_BAL(M)    = (maxload − load(M)) / (ε + maxload − minload)
//! ```
//!
//! The machine with the highest score wins; ties break randomly. PowerGraph
//! hard-codes `λ = 1`, which makes balance a tie-breaker and HDRF behave
//! like Oblivious (footnote 1 in §5.4.2) — our default too.
//!
//! Like Oblivious, distributed ingress gives each loader its own state.

use crate::greedy::{self, edge_rng, GreedyKernel};
use crate::partitioner::{PartitionContext, PartitionOutcome, Partitioner};
use crate::strategies::oblivious::GreedyState;
use gp_core::{Edge, PartitionId, StreamingEdges};

/// HDRF streaming partitioner with tunable balance weight `λ`.
#[derive(Debug, Clone)]
pub struct Hdrf {
    /// Balance weight; `λ ≤ 1` means balance only breaks ties (§B). The
    /// paper (and PowerGraph) use 1.0.
    pub lambda: f64,
}

impl Default for Hdrf {
    fn default() -> Self {
        Hdrf { lambda: 1.0 }
    }
}

impl Hdrf {
    /// HDRF with the paper's recommended `λ = 1`.
    pub fn recommended() -> Self {
        Self::default()
    }

    /// HDRF with a custom balance weight (used by the ablation bench).
    pub fn with_lambda(lambda: f64) -> Self {
        assert!(lambda >= 0.0, "lambda must be non-negative");
        Hdrf { lambda }
    }
}

/// HDRF's [`GreedyKernel`] — the one implementation of the Appendix-B rule,
/// scored through the pure [`greedy::hdrf_score`] function with per-edge
/// RNGs. An edge's θ sees the counters of every earlier edge plus its own
/// endpoint bump, and its commit then folds that bump in: Appendix B's
/// increment-then-score order exactly.
pub(crate) struct HdrfKernel {
    greedy: GreedyState,
    /// `bal[j] = λ·C_BAL(j)` for every partition, from the loads' extremes
    /// below. A commit rewrites one entry unless it moved an extreme; a
    /// retire rewrites them all.
    bal: Vec<f64>,
    max_load: u64,
    min_load: u64,
    /// Partitions whose load is `min_load`.
    at_min: usize,
    /// Partial degree counters δ (Appendix B), dense vertex-indexed — the
    /// ids are `0..n` already, so a flat table beats hashing on every edge.
    partial_degree: Vec<u64>,
    /// Vertices with a nonzero counter (memory accounting parity with the
    /// historical per-entry map accounting: 40 bytes per touched vertex).
    touched: u64,
    lambda: f64,
    seed: u64,
}

impl HdrfKernel {
    pub(crate) fn new(partitions: u32, vertices: u64, seed: u64, lambda: f64) -> Self {
        let mut kernel = HdrfKernel {
            greedy: GreedyState::new(partitions, vertices),
            bal: vec![0.0; partitions as usize],
            max_load: 0,
            min_load: 0,
            at_min: 0,
            partial_degree: vec![0; vertices as usize],
            touched: 0,
            lambda,
            seed,
        };
        kernel.refresh_balance();
        kernel
    }

    /// Recompute the loads' extremes and every balance term.
    fn refresh_balance(&mut self) {
        let loads = &self.greedy.load;
        self.max_load = *loads.iter().max().expect("partitions > 0");
        self.min_load = *loads.iter().min().expect("partitions > 0");
        self.at_min = loads.iter().filter(|&&l| l == self.min_load).count();
        for (b, &l) in self.bal.iter_mut().zip(loads) {
            *b = greedy::balance_term(self.lambda, l, self.max_load, self.min_load);
        }
    }

    /// θ uses the committed counters plus this edge's own contribution
    /// (Appendix B: counters are incremented when the edge is processed,
    /// then used for θ). A self-loop bumps its single endpoint twice.
    #[inline]
    fn thetas(&self, e: Edge) -> (f64, f64) {
        let bump = if e.src == e.dst { 2 } else { 1 };
        let du = (self.partial_degree[e.src.index()] + bump) as f64;
        let dv = (self.partial_degree[e.dst.index()] + bump) as f64;
        (du / (du + dv), dv / (du + dv))
    }
}

impl GreedyKernel for HdrfKernel {
    fn greedy(&self) -> &GreedyState {
        &self.greedy
    }

    fn greedy_mut(&mut self) -> &mut GreedyState {
        &mut self.greedy
    }

    #[inline]
    fn score(&self, e: Edge, idx: usize) -> PartitionId {
        let (theta_u, theta_v) = self.thetas(e);
        greedy::hdrf_score(
            &self.greedy.load,
            self.greedy.capacity(),
            self.greedy.replicas(e.src),
            self.greedy.replicas(e.dst),
            theta_u,
            theta_v,
            self.lambda <= 1.0,
            &self.bal,
            &mut edge_rng(self.seed, idx),
        )
    }

    fn commit(&mut self, e: Edge, p: PartitionId) {
        let old = self.greedy.load[p.index()];
        self.greedy.commit_priced(e, p);
        if old == self.min_load {
            self.at_min -= 1;
        }
        if old == self.max_load || self.at_min == 0 {
            self.refresh_balance();
        } else {
            self.bal[p.index()] =
                greedy::balance_term(self.lambda, old + 1, self.max_load, self.min_load);
        }
        for v in [e.src, e.dst] {
            let d = &mut self.partial_degree[v.index()];
            if *d == 0 {
                self.touched += 1;
            }
            *d += 1;
        }
    }

    fn retire(&mut self, e: Edge, p: PartitionId) {
        self.greedy.retire(p);
        self.refresh_balance();
        // Partial degrees shrink with the graph so θ keeps tracking the
        // live degree distribution.
        for v in [e.src, e.dst] {
            let d = &mut self.partial_degree[v.index()];
            *d = d.saturating_sub(1);
        }
    }

    fn state_bytes(&self) -> u64 {
        self.greedy.state_bytes() + 40 * self.touched
    }
}

impl Partitioner for Hdrf {
    fn name(&self) -> &'static str {
        "HDRF"
    }

    fn partition(
        &mut self,
        graph: &dyn StreamingEdges,
        ctx: &PartitionContext,
    ) -> PartitionOutcome {
        // As with Oblivious, per-loader state is independent: block
        // boundaries and per-block seeds depend only on `num_loaders`.
        let lambda = self.lambda;
        greedy::partition_blocks(self.name(), graph, ctx, |i| {
            HdrfKernel::new(
                ctx.num_partitions,
                graph.num_vertices(),
                ctx.seed ^ (0x4d5f + i as u64),
                lambda,
            )
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::replica_words::tests::set;
    use crate::strategies::oblivious::Oblivious;
    use crate::Strategy;
    use gp_core::{Rng, Splitmix64};

    fn centralized(p: u32) -> PartitionContext {
        PartitionContext::new(p).with_loaders(1)
    }

    fn kernel(partitions: u32, vertices: u64, lambda: f64) -> HdrfKernel {
        HdrfKernel::new(partitions, vertices, 1, lambda)
    }

    /// The plain scalar Appendix-B scorer — the body of the sequential
    /// `choose` this crate carried before the kernels were unified, with
    /// the tie-break stream passed in. Kept as the oracle for
    /// [`greedy::hdrf_score`]: branchy per-partition loop, explicit
    /// tie list, at-capacity partitions skipped rather than scored `-inf`.
    fn oracle_choose(k: &HdrfKernel, e: Edge, rng: &mut Splitmix64) -> PartitionId {
        // Counters are incremented when the edge is processed, then used.
        let degree = |v: gp_core::VertexId| {
            let own = [e.src, e.dst].iter().filter(|&&w| w == v).count() as u64;
            (k.partial_degree[v.index()] + own) as f64
        };
        let (du, dv) = (degree(e.src), degree(e.dst));
        let theta_u = du / (du + dv);
        let theta_v = dv / (du + dv);
        let (au, av) = (set(k.greedy.replicas(e.src)), set(k.greedy.replicas(e.dst)));
        let loads = &k.greedy.load;
        let max_load = *loads.iter().max().unwrap() as f64;
        let min_load = *loads.iter().min().unwrap() as f64;
        const EPS: f64 = 1.0;
        let mut best_score = f64::NEG_INFINITY;
        let mut tied: Vec<u32> = Vec::new();
        let capacity = k.greedy.capacity();
        for m in 0..loads.len() as u32 {
            if loads[m as usize] >= capacity {
                continue;
            }
            let g_u = if au.contains(&m) {
                1.0 + (1.0 - theta_u)
            } else {
                0.0
            };
            let g_v = if av.contains(&m) {
                1.0 + (1.0 - theta_v)
            } else {
                0.0
            };
            let c_rep = g_u + g_v;
            let c_bal = (max_load - loads[m as usize] as f64) / (EPS + max_load - min_load);
            let score = c_rep + k.lambda * c_bal;
            if score > best_score + 1e-12 {
                best_score = score;
                tied.clear();
                tied.push(m);
            } else if (score - best_score).abs() <= 1e-12 {
                tied.push(m);
            }
        }
        if tied.is_empty() {
            // Everything at capacity: least loaded overall.
            let min = *loads.iter().min().unwrap();
            tied = (0..loads.len() as u32)
                .filter(|&m| loads[m as usize] == min)
                .collect();
        }
        PartitionId(tied[rng.next_below(tied.len() as u64) as usize])
    }

    /// Pick-for-pick agreement of the kernel with the scalar oracle on
    /// random committed states: λ ∈ {0, 1, 4}, self-loops in both the
    /// committed and the probed edges, and 300 partitions so hub replica
    /// sets reach ids past the first four words.
    #[test]
    fn kernel_agrees_with_the_scalar_oracle() {
        const N: u64 = 60;
        for lambda in [0.0, 1.0, 4.0] {
            for partitions in [2u32, 9, 300] {
                let mut k = kernel(partitions, N, lambda);
                let mut rng = Splitmix64::new(u64::from(partitions) ^ lambda.to_bits());
                let mut spilled = false;
                for i in 0..4_000u64 {
                    // Small hub set so replica sets grow wide; one edge in
                    // ten a self-loop.
                    let u = rng.next_below(N / 10);
                    let v = rng.next_below(N);
                    let e = Edge::new(u, if rng.next_below(10) == 0 { u } else { v });
                    let got = k.score(e, i as usize);
                    let want = oracle_choose(&k, e, &mut edge_rng(k.seed, i as usize));
                    assert_eq!(got, want, "λ={lambda} p={partitions} edge {i} ({e:?})");
                    // Mostly follow the rule, sometimes scatter, so states
                    // are ones no greedy run alone would reach.
                    let p = if rng.next_below(3) == 0 {
                        PartitionId(rng.next_below(u64::from(partitions)) as u32)
                    } else {
                        got
                    };
                    k.commit(e, p);
                    spilled |= k.greedy.replicas(e.src).iter().skip(4).any(|&w| w != 0);
                }
                assert_eq!(spilled, partitions == 300, "heap-spilled sets exercised");
            }
        }
    }

    /// Every partition at capacity: the kernel falls back to least-loaded,
    /// exactly as the oracle does.
    #[test]
    fn all_at_capacity_falls_back_to_least_loaded() {
        let mut k = kernel(5, 16, 1.0);
        k.commit(Edge::new(0u64, 1u64), PartitionId(3));
        k.greedy.load = vec![9, 7, 8, 7, 9];
        k.greedy.assigned = 0; // capacity 4: everything is over it
        k.refresh_balance();
        let mut picks = std::collections::BTreeSet::new();
        for idx in 0..64 {
            let e = Edge::new(0u64, 1u64);
            let got = k.score(e, idx);
            assert_eq!(got, oracle_choose(&k, e, &mut edge_rng(k.seed, idx)));
            picks.insert(got.0);
        }
        assert_eq!(
            picks.into_iter().collect::<Vec<_>>(),
            vec![1, 3],
            "only the two least-loaded partitions, and both of them"
        );
    }

    /// After any run of commits and retires, the balance cache and the
    /// extremes it rests on equal a fresh recompute bit for bit.
    #[test]
    fn balance_cache_matches_a_fresh_recompute() {
        const N: u64 = 40;
        for lambda in [0.25f64, 1.0, 4.0] {
            for partitions in [1u32, 2, 9, 300] {
                let mut k = kernel(partitions, N, lambda);
                let mut rng = Splitmix64::new(u64::from(partitions) ^ lambda.to_bits());
                let mut placed: Vec<(Edge, PartitionId)> = Vec::new();
                for i in 0..3_000usize {
                    if !placed.is_empty() && rng.next_below(4) == 0 {
                        let at = rng.next_below(placed.len() as u64) as usize;
                        let (e, p) = placed.swap_remove(at);
                        k.retire(e, p);
                    } else {
                        let e = Edge::new(rng.next_below(N), rng.next_below(N));
                        let p = if rng.next_below(2) == 0 {
                            PartitionId(rng.next_below(u64::from(partitions)) as u32)
                        } else {
                            k.score(e, i)
                        };
                        k.commit(e, p);
                        placed.push((e, p));
                    }
                    let loads = &k.greedy.load;
                    let max = *loads.iter().max().unwrap();
                    let min = *loads.iter().min().unwrap();
                    assert_eq!((k.max_load, k.min_load), (max, min), "step {i}");
                    assert_eq!(k.at_min, loads.iter().filter(|&&l| l == min).count());
                    for (j, (&b, &l)) in k.bal.iter().zip(loads).enumerate() {
                        let fresh = greedy::balance_term(lambda, l, max, min);
                        assert_eq!(b.to_bits(), fresh.to_bits(), "step {i}, partition {j}");
                    }
                }
            }
        }
    }

    #[test]
    fn repeated_edge_stays_put() {
        let mut k = kernel(4, 128, 1.0);
        let e = Edge::new(0u64, 1u64);
        let p1 = k.step(e, 0);
        let p2 = k.step(e, 1);
        assert_eq!(p1, p2, "co-located endpoints dominate the score");
    }

    #[test]
    fn low_degree_endpoint_wins_placement() {
        // u is a hub (high partial degree), w is fresh. A new edge (u, w)
        // joining them where u lives on p0 and w on p1: HDRF should prefer
        // keeping LOW-degree w intact (place on p1, replicating hub u).
        let mut k = kernel(2, 128, 0.0); // no balance term
        for i in 10..30u64 {
            k.commit(Edge::new(0u64, i), PartitionId(0)); // hub u = 0 on p0
        }
        k.commit(Edge::new(99u64, 50u64), PartitionId(1)); // w = 99 on p1
                                                           // Filler on fresh vertices evens the loads (20 each), so the
                                                           // capacity cap binds on neither partition: degrees decide.
        for j in 0..19u64 {
            k.commit(Edge::new(60 + 2 * j, 61 + 2 * j), PartitionId(1));
        }
        assert!(k.greedy.load.iter().all(|&l| l < k.greedy.capacity()));
        let p = k.score(Edge::new(0u64, 99u64), 40);
        assert_eq!(
            p,
            PartitionId(1),
            "HDRF must replicate the high-degree endpoint"
        );
    }

    #[test]
    fn hdrf_close_to_oblivious_at_lambda_one() {
        // Footnote §5.4.2: λ=1 makes HDRF and Oblivious perform similarly.
        let g = gp_gen::barabasi_albert(10_000, 8, 4);
        let h = Hdrf::recommended()
            .partition(&g, &centralized(9))
            .assignment
            .replication_factor();
        let o = Oblivious
            .partition(&g, &centralized(9))
            .assignment
            .replication_factor();
        assert!((h - o).abs() / o < 0.2, "HDRF {h} vs Oblivious {o}");
    }

    #[test]
    fn hdrf_beats_random_on_power_law() {
        let g = gp_gen::rmat(&gp_gen::RmatParams::web_graph(13, 60_000), 5);
        let h = Hdrf::recommended()
            .partition(&g, &centralized(9))
            .assignment
            .replication_factor();
        let r = Strategy::Random
            .build()
            .partition(&g, &PartitionContext::new(9))
            .assignment
            .replication_factor();
        assert!(h < r * 0.8, "HDRF {h} should clearly beat Random {r}");
    }

    #[test]
    fn high_lambda_forces_balance_at_rf_cost() {
        let g = gp_gen::barabasi_albert(8_000, 6, 7);
        let loose = Hdrf::with_lambda(0.1).partition(&g, &centralized(8));
        let tight = Hdrf::with_lambda(10.0).partition(&g, &centralized(8));
        assert!(
            tight.assignment.balance().imbalance <= loose.assignment.balance().imbalance + 1e-9,
            "higher lambda should not worsen balance"
        );
        assert!(
            tight.assignment.replication_factor() >= loose.assignment.replication_factor(),
            "higher lambda should not improve RF"
        );
    }

    #[test]
    fn loads_stay_balanced_at_default_lambda() {
        let g = gp_gen::barabasi_albert(10_000, 8, 9);
        let out = Hdrf::recommended().partition(&g, &PartitionContext::new(9));
        assert!(out.assignment.balance().imbalance < 1.3);
    }

    #[test]
    fn deterministic_per_seed() {
        let g = gp_gen::erdos_renyi(1_000, 8_000, 6);
        let a = Hdrf::recommended().partition(&g, &PartitionContext::new(4));
        let b = Hdrf::recommended().partition(&g, &PartitionContext::new(4));
        assert_eq!(
            a.assignment.edge_partitions(),
            b.assignment.edge_partitions()
        );
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_lambda_rejected() {
        Hdrf::with_lambda(-1.0);
    }
}
