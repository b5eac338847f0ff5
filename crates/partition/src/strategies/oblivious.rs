//! Oblivious greedy partitioning (§5.2.2, Appendix A).
//!
//! Oblivious places each edge to greedily minimize the replication-factor
//! objective, which devolves into four cases on the already-placed replica
//! sets `A(u)`, `A(v)`:
//!
//! 1. `A(u) ∩ A(v) ≠ ∅` — place on the least-loaded machine in the
//!    intersection.
//! 2. only one endpoint placed — least-loaded machine among its replicas.
//! 3. neither placed — least-loaded machine overall.
//! 4. both placed, disjoint — least-loaded machine in the union.
//!
//! Ties break randomly; "least loaded" counts edges assigned so far.
//!
//! In PowerGraph's distributed ingress, each loading machine keeps **its own**
//! `A(v)` and load table — it is *oblivious* to the other loaders' decisions
//! (§5.2.2). We model exactly that: the edge stream is split into one block
//! per loader and each block is partitioned by an independent instance of the
//! heuristic. With `num_loaders == 1` you get the idealized centralized
//! variant.

use crate::assignment::Shard;
use crate::greedy::{self, edge_rng, GreedyKernel};
use crate::partitioner::{
    PartitionContext, PartitionOutcome, Partitioner, HEURISTIC_BASE, HEURISTIC_PER_CANDIDATE,
    PARSE_EDGE,
};
use crate::replica_words::{count, ReplicaWords};
use gp_core::{Edge, PartitionId, StreamingEdges, VertexId};

/// Oblivious greedy vertex-cut partitioner.
#[derive(Debug, Default, Clone)]
pub struct Oblivious;

/// Per-loader greedy state shared by Oblivious and HDRF: replica sets known
/// to this loader and per-partition edge loads.
///
/// Replica sets are one flat [`ReplicaWords`] table over the dense vertex
/// ids `0..n`, so the per-edge hot path does two O(1) bit inserts and reads
/// each endpoint's set as a word slice — no hashing, no per-vertex heap
/// lists, and 8 B per vertex at up to 64 partitions.
pub(crate) struct GreedyState {
    /// Partitions this loader has placed each vertex on.
    a: ReplicaWords,
    /// Edges this loader has assigned to each partition.
    pub load: Vec<u64>,
    /// Simulated work units burned by this loader.
    pub work: f64,
    /// Edges assigned so far (drives the capacity cap).
    pub assigned: u64,
    /// Running replica-state memory estimate, kept formula-compatible with
    /// the historical per-vertex-list accounting (32 bytes per touched
    /// vertex + 4 per replica entry) so ingress memory reports are stable.
    replica_bytes: u64,
}

/// Load-balance slack: a partition may exceed the running average by at
/// most this factor. PowerGraph's greedy ingress enforces the same kind of
/// capacity constraint ("partitions are balanced in order to avoid
/// overloading individual servers", §1).
const BALANCE_SLACK: f64 = 1.1;

impl GreedyState {
    pub fn new(num_partitions: u32, num_vertices: u64) -> Self {
        GreedyState {
            a: ReplicaWords::new(num_vertices, num_partitions),
            load: vec![0; num_partitions as usize],
            work: 0.0,
            assigned: 0,
            replica_bytes: 0,
        }
    }

    /// Maximum edges a partition may currently hold.
    #[inline]
    pub fn capacity(&self) -> u64 {
        (BALANCE_SLACK * self.assigned as f64 / self.load.len() as f64) as u64 + 4
    }

    /// Partitions this loader has placed `v` on, as `ceil(P/64)` words.
    #[inline]
    pub fn replicas(&self, v: VertexId) -> &[u64] {
        self.a.row(v.index())
    }

    /// Record that edge `e` was placed on `p`.
    pub fn commit(&mut self, e: Edge, p: PartitionId) {
        self.load[p.index()] += 1;
        self.assigned += 1;
        for v in [e.src, e.dst] {
            if self.a.insert(v.index(), p.0) {
                self.replica_bytes += if count(self.a.row(v.index())) == 1 {
                    36
                } else {
                    4
                };
            }
        }
    }

    /// [`Self::commit`] plus the decision's simulated work, priced from the
    /// replica sets as they stood when the edge was scored: parse + fixed
    /// heuristic cost, plus a candidate cost per replica of either endpoint
    /// (Appendix A).
    pub fn commit_priced(&mut self, e: Edge, p: PartitionId) {
        let candidates = count(self.replicas(e.src)) + count(self.replicas(e.dst));
        self.work += PARSE_EDGE + HEURISTIC_BASE + HEURISTIC_PER_CANDIDATE * candidates as f64;
        self.commit(e, p);
    }

    /// Unwind a served delete from `p`. Replica sets never shrink here.
    pub fn retire(&mut self, p: PartitionId) {
        let load = &mut self.load[p.index()];
        *load = load.saturating_sub(1);
        self.assigned = self.assigned.saturating_sub(1);
    }

    /// Approximate bytes of loader state (for ingress memory accounting).
    pub fn state_bytes(&self) -> u64 {
        self.replica_bytes + 8 * self.load.len() as u64
    }

    /// Hand a finished batch loader's replica words and loads over as its
    /// assignment shard: recording its edges would have built exactly these.
    pub(crate) fn take_shard(&mut self, digest: u64) -> Shard {
        let (sets, edge_counts) = (std::mem::take(&mut self.a), std::mem::take(&mut self.load));
        Shard {
            sets,
            edge_counts,
            digest,
        }
    }
}

/// Oblivious's [`GreedyKernel`]: a per-loader [`GreedyState`] scored through
/// the pure [`greedy::oblivious_score`] case analysis with per-edge RNGs.
pub(crate) struct ObliviousKernel {
    greedy: GreedyState,
    seed: u64,
}

impl ObliviousKernel {
    pub(crate) fn new(partitions: u32, vertices: u64, seed: u64) -> Self {
        ObliviousKernel {
            greedy: GreedyState::new(partitions, vertices),
            seed,
        }
    }
}

impl GreedyKernel for ObliviousKernel {
    fn greedy(&self) -> &GreedyState {
        &self.greedy
    }

    fn greedy_mut(&mut self) -> &mut GreedyState {
        &mut self.greedy
    }

    fn score(&self, e: Edge, idx: usize) -> PartitionId {
        greedy::oblivious_score(
            &self.greedy.load,
            self.greedy.capacity(),
            self.greedy.replicas(e.src),
            self.greedy.replicas(e.dst),
            &mut edge_rng(self.seed, idx),
        )
    }
}

impl Partitioner for Oblivious {
    fn name(&self) -> &'static str {
        "Oblivious"
    }

    fn partition(
        &mut self,
        graph: &dyn StreamingEdges,
        ctx: &PartitionContext,
    ) -> PartitionOutcome {
        // Loaders are independent by design (each is "oblivious" to the
        // others): block boundaries and per-block seeds depend only on
        // `num_loaders`, never on the thread count.
        greedy::partition_blocks(self.name(), graph, ctx, |i| {
            ObliviousKernel::new(
                ctx.num_partitions,
                graph.num_vertices(),
                ctx.seed ^ (0x0b11 + i as u64),
            )
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::replica_words::tests::set;
    use gp_core::{Rng, Splitmix64};

    fn ctx(p: u32) -> PartitionContext {
        PartitionContext::new(p)
    }

    fn centralized(p: u32) -> PartitionContext {
        PartitionContext::new(p).with_loaders(1)
    }

    fn kernel(partitions: u32, vertices: u64) -> ObliviousKernel {
        ObliviousKernel::new(partitions, vertices, 1)
    }

    fn score(k: &ObliviousKernel, e: Edge) -> PartitionId {
        k.score(e, 0)
    }

    /// Scalar least-loaded among `candidates` (ascending), one tie-break
    /// draw — the oracle for the bit-scan reductions.
    fn oracle_least_loaded(
        loads: &[u64],
        candidates: impl Iterator<Item = u32>,
        rng: &mut Splitmix64,
    ) -> PartitionId {
        let candidates: Vec<u32> = candidates.collect();
        let min = candidates.iter().map(|&c| loads[c as usize]).min().unwrap();
        let tied: Vec<u32> = candidates
            .into_iter()
            .filter(|&c| loads[c as usize] == min)
            .collect();
        PartitionId(tied[rng.next_below(tied.len() as u64) as usize])
    }

    /// Appendix A's four-case analysis, written out plainly — the body of
    /// the sequential `oblivious_choose` this crate carried before the
    /// kernels were unified, with the tie-break stream passed in. Kept as
    /// the oracle for [`greedy::oblivious_score`].
    fn oracle_choose(state: &GreedyState, e: Edge, rng: &mut Splitmix64) -> PartitionId {
        let all = 0..state.load.len() as u32;
        let (au, av) = (set(state.replicas(e.src)), set(state.replicas(e.dst)));
        let mut inter = au.intersection(&av).copied().peekable();
        let choice = if inter.peek().is_some() {
            // Case 1: replicas of both already co-located somewhere.
            oracle_least_loaded(&state.load, inter, rng)
        } else if au.is_empty() && av.is_empty() {
            // Case 3: fresh edge.
            oracle_least_loaded(&state.load, all.clone(), rng)
        } else if av.is_empty() {
            // Case 2: only u placed.
            oracle_least_loaded(&state.load, au.iter().copied(), rng)
        } else if au.is_empty() {
            // Case 2 (symmetric): only v placed.
            oracle_least_loaded(&state.load, av.iter().copied(), rng)
        } else {
            // Case 4: both placed, disjoint — least loaded in the union.
            oracle_least_loaded(&state.load, au.union(&av).copied(), rng)
        };
        if state.load[choice.index()] >= state.capacity() {
            oracle_least_loaded(&state.load, all, rng)
        } else {
            choice
        }
    }

    /// Pick-for-pick agreement of the kernel with the four-case oracle on
    /// random committed states, including self-loops and 300 partitions
    /// (replica ids past the first four words).
    #[test]
    fn kernel_agrees_with_the_four_case_oracle() {
        const N: u64 = 60;
        for partitions in [2u32, 9, 300] {
            let mut k = kernel(partitions, N);
            let mut rng = Splitmix64::new(u64::from(partitions));
            let mut spilled = false;
            for i in 0..4_000u64 {
                let u = rng.next_below(N / 10);
                let v = rng.next_below(N);
                let e = Edge::new(u, if rng.next_below(10) == 0 { u } else { v });
                let got = k.score(e, i as usize);
                let want = oracle_choose(&k.greedy, e, &mut edge_rng(k.seed, i as usize));
                assert_eq!(got, want, "p={partitions} edge {i} ({e:?})");
                // Mostly follow the rule, sometimes scatter, so all four
                // cases and the capacity override keep firing.
                let p = if rng.next_below(3) == 0 {
                    PartitionId(rng.next_below(u64::from(partitions)) as u32)
                } else {
                    got
                };
                k.greedy.commit_priced(e, p);
                spilled |= k.greedy.replicas(e.src).iter().skip(4).any(|&w| w != 0);
            }
            assert_eq!(spilled, partitions == 300, "heap-spilled sets exercised");
        }
    }

    /// Every partition at capacity: the preferred set is overridden by the
    /// global least-loaded machine, in the kernel as in the oracle.
    #[test]
    fn all_at_capacity_falls_back_to_least_loaded() {
        let mut k = kernel(5, 16);
        k.greedy.commit(Edge::new(0u64, 1u64), PartitionId(0));
        k.greedy.load = vec![9, 7, 8, 7, 9];
        k.greedy.assigned = 0; // capacity 4: everything is over it
        let mut picks = std::collections::BTreeSet::new();
        for idx in 0..64 {
            let e = Edge::new(0u64, 1u64);
            let got = k.score(e, idx);
            let want = oracle_choose(&k.greedy, e, &mut edge_rng(k.seed, idx));
            assert_eq!(got, want);
            picks.insert(got.0);
        }
        assert_eq!(picks.into_iter().collect::<Vec<_>>(), vec![1, 3]);
    }

    #[test]
    fn case1_places_in_intersection() {
        let mut k = kernel(4, 128);
        k.greedy.commit(Edge::new(0u64, 1u64), PartitionId(2));
        // Both 0 and 1 live on p2 only; the next (0,1)-ish edge must go there.
        assert_eq!(score(&k, Edge::new(0u64, 1u64)), PartitionId(2));
    }

    #[test]
    fn case2_follows_the_placed_endpoint() {
        let mut k = kernel(4, 128);
        k.greedy.commit(Edge::new(0u64, 1u64), PartitionId(3));
        let p = score(&k, Edge::new(0u64, 9u64));
        assert_eq!(p, PartitionId(3), "new edge should join u's only replica");
    }

    #[test]
    fn case3_balances_fresh_edges() {
        let mut k = kernel(2, 128);
        k.greedy.load = vec![5, 0];
        let p = score(&k, Edge::new(10u64, 11u64));
        assert_eq!(
            p,
            PartitionId(1),
            "fresh edge must go to the least-loaded machine"
        );
    }

    #[test]
    fn case4_uses_least_loaded_in_union() {
        let mut k = kernel(4, 128);
        k.greedy.commit(Edge::new(0u64, 5u64), PartitionId(0));
        k.greedy.commit(Edge::new(1u64, 6u64), PartitionId(2));
        k.greedy.load[0] = 10; // make p2 the lighter of {0, 2}
        assert_eq!(score(&k, Edge::new(0u64, 1u64)), PartitionId(2));
    }

    #[test]
    fn oblivious_rf_beats_random_on_low_degree_graphs() {
        // §5.4.2: heuristics shine on low-degree graphs.
        let g = gp_gen::road_network(
            &gp_gen::RoadNetworkParams {
                width: 60,
                height: 60,
                ..Default::default()
            },
            3,
        );
        let ob = Oblivious
            .partition(&g, &centralized(9))
            .assignment
            .replication_factor();
        let rnd = crate::Strategy::Random
            .build()
            .partition(&g, &ctx(9))
            .assignment
            .replication_factor();
        assert!(
            ob < rnd * 0.75,
            "oblivious {ob} should clearly beat random {rnd}"
        );
    }

    #[test]
    fn distributed_oblivious_is_worse_than_centralized() {
        // Per-loader state loses information — more loaders, higher RF.
        let g = gp_gen::barabasi_albert(8_000, 6, 2);
        let central = Oblivious
            .partition(&g, &centralized(8))
            .assignment
            .replication_factor();
        let dist = Oblivious
            .partition(&g, &PartitionContext::new(8).with_loaders(8))
            .assignment
            .replication_factor();
        assert!(
            dist >= central,
            "distributed {dist} vs centralized {central}"
        );
    }

    #[test]
    fn loads_stay_balanced() {
        let g = gp_gen::erdos_renyi(5_000, 60_000, 7);
        let out = Oblivious.partition(&g, &ctx(9));
        assert!(out.assignment.balance().imbalance < 1.25);
    }

    #[test]
    fn work_grows_with_replica_sets() {
        // A hub graph forces large A(v) scans; per-edge work should exceed a
        // road network's.
        let hub = gp_gen::barabasi_albert(4_000, 8, 1);
        let road = gp_gen::road_network(
            &gp_gen::RoadNetworkParams {
                width: 65,
                height: 65,
                ..Default::default()
            },
            1,
        );
        let ctx9 = centralized(9);
        let w_hub: f64 = Oblivious
            .partition(&hub, &ctx9)
            .loader_work
            .iter()
            .sum::<f64>()
            / hub.num_edges() as f64;
        let w_road: f64 = Oblivious
            .partition(&road, &ctx9)
            .loader_work
            .iter()
            .sum::<f64>()
            / road.num_edges() as f64;
        assert!(
            w_hub > w_road * 1.1,
            "per-edge work: hub {w_hub} should exceed road {w_road}"
        );
    }

    #[test]
    fn deterministic_per_seed() {
        let g = gp_gen::erdos_renyi(1_000, 8_000, 5);
        let a = Oblivious.partition(&g, &ctx(4));
        let b = Oblivious.partition(&g, &ctx(4));
        assert_eq!(
            a.assignment.edge_partitions(),
            b.assignment.edge_partitions()
        );
        let c = Oblivious.partition(&g, &PartitionContext::new(4).with_seed(99));
        assert_ne!(
            a.assignment.edge_partitions(),
            c.assignment.edge_partitions()
        );
    }

    #[test]
    fn state_bytes_are_reported() {
        let g = gp_gen::erdos_renyi(1_000, 5_000, 3);
        let out = Oblivious.partition(&g, &ctx(4));
        assert!(out.state_bytes > 0);
    }
}
