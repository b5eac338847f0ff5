//! Incrementally maintained assignment state: per-vertex replica refcounts
//! and per-partition edge loads.
//!
//! The batch [`Assignment`](gp_partition::Assignment) derives replica sets
//! from the full edge→partition map in one pass; a serving process instead
//! maintains the same quantities edge-by-edge. Each vertex keeps a sorted
//! `(partition, refcount)` list: an insert that touches a partition for the
//! first time creates an image (mirror birth), a delete that drops a
//! refcount to zero tears it down. Replication factor and edge balance —
//! the drift signals — read off this state in O(p).

use gp_core::{Edge, PartitionId, VertexId};
use gp_partition::assignment::default_master_pick;
use gp_partition::BalanceReport;

/// Replica refcounts + edge loads, maintained under churn.
#[derive(Debug, Clone)]
pub struct IncrementalAssignment {
    num_partitions: u32,
    seed: u64,
    /// Per-vertex sorted `(partition, edge refcount)` lists.
    replicas: Vec<Vec<(u32, u32)>>,
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
        IncrementalAssignment {
            num_partitions,
            seed,
            replicas: vec![Vec::new(); num_vertices as usize],
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
        let list = &mut self.replicas[v.index()];
        match list.binary_search_by_key(&p, |&(part, _)| part) {
            Ok(at) => list[at].1 += 1,
            Err(at) => {
                if list.is_empty() {
                    self.covered += 1;
                }
                self.total_images += 1;
                list.insert(at, (p, 1));
            }
        }
    }

    fn ref_dec(&mut self, v: VertexId, p: u32) {
        let list = &mut self.replicas[v.index()];
        let at = list
            .binary_search_by_key(&p, |&(part, _)| part)
            .expect("removing an edge that was never added");
        list[at].1 -= 1;
        if list[at].1 == 0 {
            list.remove(at);
            self.total_images -= 1;
            if list.is_empty() {
                self.covered -= 1;
            }
        }
    }

    /// Partitions hosting an image of `v`, ascending.
    pub fn replicas(&self, v: VertexId) -> impl Iterator<Item = u32> + '_ {
        self.replicas[v.index()].iter().map(|&(p, _)| p)
    }

    /// Master partition of `v` under the shared hash policy, or partition 0
    /// for a vertex with no images (nothing to read there anyway).
    pub fn master_of(&self, v: VertexId) -> PartitionId {
        let list = &self.replicas[v.index()];
        if list.is_empty() {
            return PartitionId(0);
        }
        // The per-vertex lists are sorted, so this is the same pick the
        // batch Assignment makes over its sorted replica slices.
        PartitionId(list[default_master_pick(v, self.seed, list.len())].0)
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

#[cfg(test)]
mod tests {
    use super::*;
    use gp_partition::{Assignment, PartitionContext, Strategy};

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
}
