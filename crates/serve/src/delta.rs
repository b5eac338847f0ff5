//! Incrementally maintained assignment state: per-vertex replica refcounts
//! and per-partition edge loads.
//!
//! The batch [`Assignment`](gp_partition::Assignment) derives replica sets
//! from the full edge→partition map in one pass; a serving process instead
//! maintains the same quantities edge-by-edge. Refcounts live in one flat
//! `n × P` table of `u32`s, and beside it each vertex keeps a membership
//! bitset of `⌈P/64⌉` words (gp-partition's replica-word layout): an insert
//! that touches a partition for the first time sets a bit (mirror birth), a
//! delete that drops a refcount to zero clears it. No update allocates.
//! Replication factor and edge balance — the drift signals — read off this
//! state in O(p).

use gp_core::{Edge, PartitionId, VertexId};
use gp_partition::assignment::default_master_pick;
use gp_partition::BalanceReport;

/// Replica refcounts + edge loads, maintained under churn.
#[derive(Debug, Clone)]
pub struct IncrementalAssignment {
    num_partitions: u32,
    seed: u64,
    /// Live edges pinning each image: `(v, p)` at `v * P + p`. A refcount
    /// is at most `v`'s live edge count, which `LiveGraph` bounds by `u32`.
    refs: Vec<u32>,
    /// Membership bitsets, `width` words per vertex: bit `p % 64` of word
    /// `v * width + p / 64` is set while `(v, p)`'s refcount is positive.
    words: Vec<u64>,
    width: usize,
    /// Live edges per partition.
    edge_counts: Vec<u64>,
    /// Total (vertex, partition) images with refcount > 0.
    total_images: u64,
    /// Vertices with at least one image.
    covered: u64,
}

impl IncrementalAssignment {
    /// Empty state for `num_vertices` vertices over `num_partitions`
    /// partitions. `seed` drives the master-pick policy and must match the
    /// batch seed.
    pub fn new(num_vertices: u64, num_partitions: u32, seed: u64) -> Self {
        let width = (num_partitions as usize).div_ceil(64);
        IncrementalAssignment {
            num_partitions,
            seed,
            refs: vec![0; num_vertices as usize * num_partitions as usize],
            words: vec![0; num_vertices as usize * width],
            width,
            edge_counts: vec![0; num_partitions as usize],
            total_images: 0,
            covered: 0,
        }
    }

    /// Partition count.
    pub fn num_partitions(&self) -> u32 {
        self.num_partitions
    }

    /// Record edge `e` placed on `p`.
    pub fn add(&mut self, e: Edge, p: PartitionId) {
        self.edge_counts[p.index()] += 1;
        self.ref_inc(e.src, p.0);
        if e.dst != e.src {
            self.ref_inc(e.dst, p.0);
        }
    }

    /// Unwind edge `e` previously placed on `p`.
    pub fn remove(&mut self, e: Edge, p: PartitionId) {
        self.edge_counts[p.index()] -= 1;
        self.ref_dec(e.src, p.0);
        if e.dst != e.src {
            self.ref_dec(e.dst, p.0);
        }
    }

    /// Re-place edge `e` from partition `from` to `to` (a rebalance move).
    pub fn move_edge(&mut self, e: Edge, from: PartitionId, to: PartitionId) {
        self.remove(e, from);
        self.add(e, to);
    }

    fn ref_inc(&mut self, v: VertexId, p: u32) {
        let r = &mut self.refs[v.index() * self.num_partitions as usize + p as usize];
        *r += 1;
        if *r == 1 {
            let row = &mut self.words[v.index() * self.width..][..self.width];
            if row.iter().all(|&w| w == 0) {
                self.covered += 1;
            }
            row[p as usize / 64] |= 1 << (p % 64);
            self.total_images += 1;
        }
    }

    fn ref_dec(&mut self, v: VertexId, p: u32) {
        let r = &mut self.refs[v.index() * self.num_partitions as usize + p as usize];
        *r = r
            .checked_sub(1)
            .expect("removing an edge that was never added");
        if *r == 0 {
            let row = &mut self.words[v.index() * self.width..][..self.width];
            row[p as usize / 64] &= !(1 << (p % 64));
            self.total_images -= 1;
            if row.iter().all(|&w| w == 0) {
                self.covered -= 1;
            }
        }
    }

    /// `v`'s membership words, low ids first.
    fn row(&self, v: VertexId) -> &[u64] {
        &self.words[v.index() * self.width..][..self.width]
    }

    /// Whether `v` has an image on `p`.
    pub(crate) fn hosts(&self, v: VertexId, p: PartitionId) -> bool {
        self.row(v)[p.index() / 64] >> (p.0 % 64) & 1 == 1
    }

    /// Partitions hosting an image of `v`, ascending.
    pub fn replicas(&self, v: VertexId) -> impl Iterator<Item = u32> + '_ {
        self.row(v)
            .iter()
            .enumerate()
            .flat_map(|(i, &w)| ones(w).map(move |b| 64 * i as u32 + b))
    }

    /// Master partition of `v` under the shared hash policy, or partition 0
    /// for a vertex with no images (nothing to read there anyway).
    pub fn master_of(&self, v: VertexId) -> PartitionId {
        let len: u32 = self.row(v).iter().map(|w| w.count_ones()).sum();
        if len == 0 {
            return PartitionId(0);
        }
        // The bits ascend, so the pick-th set bit is the entry the batch
        // Assignment indexes in its sorted replica slice.
        let pick = default_master_pick(v, self.seed, len as usize);
        PartitionId(self.replicas(v).nth(pick).expect("pick < image count"))
    }

    /// Mean images per vertex with at least one image — the paper's
    /// replication factor, over the live graph.
    pub fn replication_factor(&self) -> f64 {
        if self.covered == 0 {
            return 0.0;
        }
        self.total_images as f64 / self.covered as f64
    }

    /// Max/mean live edge load (1.0 = perfectly balanced). Zero-edge states
    /// report 1.0.
    pub fn edge_imbalance(&self) -> f64 {
        BalanceReport::from_counts(&self.edge_counts).imbalance
    }

    /// Live edges per partition.
    pub fn edge_counts(&self) -> &[u64] {
        &self.edge_counts
    }

    /// The partition carrying the most live edges (lowest id wins ties).
    pub fn most_loaded(&self) -> PartitionId {
        let mut best = 0usize;
        for (i, &c) in self.edge_counts.iter().enumerate() {
            if c > self.edge_counts[best] {
                best = i;
            }
        }
        PartitionId(best as u32)
    }

    /// The partition carrying the fewest live edges (lowest id wins ties).
    pub fn least_loaded(&self) -> PartitionId {
        let mut best = 0usize;
        for (i, &c) in self.edge_counts.iter().enumerate() {
            if c < self.edge_counts[best] {
                best = i;
            }
        }
        PartitionId(best as u32)
    }
}

/// The set bits of one word, ascending.
fn ones(mut w: u64) -> impl Iterator<Item = u32> {
    std::iter::from_fn(move || {
        (w != 0).then(|| {
            let b = w.trailing_zeros();
            w &= w - 1;
            b
        })
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use gp_partition::{Assignment, PartitionContext, Strategy};
    use proptest::prelude::*;
    use std::collections::BTreeMap;

    fn batch_and_delta(
        strategy: Strategy,
    ) -> (Assignment, IncrementalAssignment, gp_core::EdgeList) {
        let g = gp_gen::barabasi_albert(1_500, 5, 3);
        let out = strategy
            .build()
            .partition(&g, &PartitionContext::new(9).with_seed(7));
        // Replay every placed edge through `add`: the derived statistics
        // must match the batch assignment exactly.
        let a = &out.assignment;
        let mut delta = IncrementalAssignment::new(a.num_vertices(), a.num_partitions(), 7);
        for (i, &e) in g.edges().iter().enumerate() {
            delta.add(e, a.edge_partition(i));
        }
        (out.assignment, delta, g)
    }

    #[test]
    fn seeded_state_matches_batch_statistics() {
        for s in [Strategy::Random, Strategy::Hdrf, Strategy::Hybrid] {
            let (batch, delta, g) = batch_and_delta(s);
            assert_eq!(
                delta.replication_factor(),
                batch.replication_factor(),
                "{s}: rf"
            );
            assert_eq!(delta.edge_counts(), batch.edge_counts(), "{s}: loads");
            for v in 0..g.num_vertices() {
                let v = VertexId(v);
                let got: Vec<u32> = delta.replicas(v).collect();
                assert_eq!(got.as_slice(), batch.replicas(v), "{s}: replicas of {v:?}");
            }
        }
    }

    #[test]
    fn masters_match_the_batch_default_policy() {
        // Random has no master override, so batch masters are exactly the
        // shared default_master_pick policy this struct re-derives.
        let (batch, delta, g) = batch_and_delta(Strategy::Random);
        for v in 0..g.num_vertices() {
            let v = VertexId(v);
            if batch.replica_count(v) > 0 {
                assert_eq!(delta.master_of(v), batch.master_of(v), "{v:?}");
            }
        }
    }

    #[test]
    fn add_then_remove_is_identity() {
        let mut delta = IncrementalAssignment::new(10, 4, 7);
        let before_rf = delta.replication_factor();
        let e = Edge::new(1u64, 2u64);
        delta.add(e, PartitionId(3));
        assert_eq!(delta.replicas(VertexId(1)).count(), 1);
        assert_eq!(delta.replication_factor(), 1.0);
        delta.remove(e, PartitionId(3));
        assert_eq!(delta.replicas(VertexId(1)).count(), 0);
        assert_eq!(delta.replication_factor(), before_rf);
        assert_eq!(delta.edge_counts(), &[0, 0, 0, 0]);
    }

    #[test]
    fn refcounts_keep_images_alive_until_the_last_edge_leaves() {
        let mut delta = IncrementalAssignment::new(10, 4, 7);
        let a = Edge::new(1u64, 2u64);
        let b = Edge::new(1u64, 3u64);
        delta.add(a, PartitionId(0));
        delta.add(b, PartitionId(0));
        assert_eq!(
            delta.replicas(VertexId(1)).count(),
            1,
            "one image, two refs"
        );
        delta.remove(a, PartitionId(0));
        assert_eq!(delta.replicas(VertexId(1)).count(), 1, "still referenced");
        delta.remove(b, PartitionId(0));
        assert_eq!(delta.replicas(VertexId(1)).count(), 0, "torn down");
    }

    #[test]
    fn move_edge_shifts_load_and_replicas() {
        let mut delta = IncrementalAssignment::new(10, 4, 7);
        let e = Edge::new(5u64, 6u64);
        delta.add(e, PartitionId(0));
        delta.move_edge(e, PartitionId(0), PartitionId(2));
        assert_eq!(delta.edge_counts(), &[0, 0, 1, 0]);
        assert_eq!(delta.replicas(VertexId(5)).collect::<Vec<_>>(), vec![2]);
    }

    #[test]
    fn imbalance_and_extremes() {
        let mut delta = IncrementalAssignment::new(10, 4, 7);
        assert_eq!(delta.edge_imbalance(), 1.0, "empty state is balanced");
        for i in 0..6 {
            delta.add(Edge::new(i as u64, (i + 1) as u64), PartitionId(0));
        }
        delta.add(Edge::new(8u64, 9u64), PartitionId(1));
        // loads [6,1,0,0]: mean 1.75, max 6.
        assert!((delta.edge_imbalance() - 6.0 / 1.75).abs() < 1e-12);
        assert_eq!(delta.most_loaded(), PartitionId(0));
        assert_eq!(delta.least_loaded(), PartitionId(2));
    }

    #[test]
    fn self_loops_count_one_endpoint() {
        let mut delta = IncrementalAssignment::new(10, 4, 7);
        let e = Edge::new(3u64, 3u64);
        delta.add(e, PartitionId(1));
        assert_eq!(delta.replicas(VertexId(3)).count(), 1);
        assert_eq!(delta.total_images, 1);
        delta.remove(e, PartitionId(1));
        assert_eq!(delta.total_images, 0);
    }

    /// The table against a `(vertex, partition) → refcount` map: every
    /// derived read agrees.
    fn check_against_model(
        delta: &IncrementalAssignment,
        model: &BTreeMap<(u64, u32), u32>,
        loads: &[u64],
        vertices: u64,
        seed: u64,
    ) {
        let covered = (0..vertices)
            .filter(|&v| model.range((v, 0)..(v + 1, 0)).next().is_some())
            .count();
        let rf = if covered == 0 {
            0.0
        } else {
            model.len() as f64 / covered as f64
        };
        assert_eq!(delta.replication_factor(), rf);
        assert_eq!(delta.edge_counts(), loads);
        let most = (0..loads.len()).rev().max_by_key(|&i| loads[i]).unwrap();
        let least = (0..loads.len()).min_by_key(|&i| loads[i]).unwrap();
        assert_eq!(delta.most_loaded(), PartitionId(most as u32));
        assert_eq!(delta.least_loaded(), PartitionId(least as u32));
        for v in 0..vertices {
            let want: Vec<u32> = model
                .range((v, 0)..(v + 1, 0))
                .map(|(&(_, p), _)| p)
                .collect();
            let got: Vec<u32> = delta.replicas(VertexId(v)).collect();
            assert_eq!(got, want, "replicas of {v}");
            if !want.is_empty() {
                let pick = default_master_pick(VertexId(v), seed, want.len());
                assert_eq!(
                    delta.master_of(VertexId(v)),
                    PartitionId(want[pick]),
                    "master of {v}"
                );
            }
            for p in 0..delta.num_partitions() {
                assert_eq!(
                    delta.hosts(VertexId(v), PartitionId(p)),
                    model.contains_key(&(v, p)),
                    "({v}, p{p})"
                );
            }
        }
    }

    /// Random add / remove / move streams, self-loops included, checked
    /// after every step at partition counts on both sides of each word
    /// boundary.
    fn replay_against_model(partitions: u32, seed: u64, ops: &[(u8, u64, u64, u32, usize)]) {
        const N: u64 = 12;
        let mut delta = IncrementalAssignment::new(N, partitions, seed);
        let mut model: BTreeMap<(u64, u32), u32> = BTreeMap::new();
        let mut loads = vec![0u64; partitions as usize];
        let mut placed: Vec<(Edge, PartitionId)> = Vec::new();
        let place = |e: Edge,
                     p: PartitionId,
                     sign: i32,
                     model: &mut BTreeMap<_, u32>,
                     loads: &mut [u64]| {
            if sign > 0 {
                loads[p.index()] += 1;
            } else {
                loads[p.index()] -= 1;
            }
            let mut ends = vec![e.src.0];
            if e.dst != e.src {
                ends.push(e.dst.0);
            }
            for x in ends {
                let r = model.entry((x, p.0)).or_default();
                *r = r.checked_add_signed(sign).unwrap();
                if *r == 0 {
                    model.remove(&(x, p.0));
                }
            }
        };
        for &(op, u, v, p, pick) in ops {
            let p = PartitionId(p % partitions);
            match op {
                0 if !placed.is_empty() => {
                    let (e, from) = placed.swap_remove(pick % placed.len());
                    delta.remove(e, from);
                    place(e, from, -1, &mut model, &mut loads);
                }
                1 if !placed.is_empty() => {
                    let at = pick % placed.len();
                    let (e, from) = placed[at];
                    delta.move_edge(e, from, p);
                    place(e, from, -1, &mut model, &mut loads);
                    place(e, p, 1, &mut model, &mut loads);
                    placed[at].1 = p;
                }
                _ => {
                    // Op 3 adds a self-loop; random pairs add some too.
                    let e = Edge::new(u, if op == 3 { u } else { v });
                    delta.add(e, p);
                    place(e, p, 1, &mut model, &mut loads);
                    placed.push((e, p));
                }
            }
            check_against_model(&delta, &model, &loads, N, seed);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        #[test]
        fn table_matches_a_refcount_map(
            seed in 0u64..1_000,
            ops in proptest::collection::vec(
                (0u8..4, 0u64..12, 0u64..12, 0u32..300, 0usize..1_000),
                1..200,
            ),
        ) {
            for partitions in [1u32, 9, 16, 64, 65, 300] {
                replay_against_model(partitions, seed, &ops);
            }
        }
    }
}
