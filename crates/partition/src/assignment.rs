//! Edge→partition assignments and the statistics the paper derives from them.
//!
//! The central quality metric is the **replication factor** (§5.1.1): the
//! mean number of images (master + mirrors) per vertex. "Lower replication
//! factors are associated with lower communication overheads and faster
//! computation" — Figs 5.3–5.5 show the linear relationships, which our
//! engine models reproduce because network/memory accounting is driven by
//! the replica sets computed here.
//!
//! Replica storage is two-phase for speed. During the build, per-vertex
//! replica sets are one flat table of `ceil(P/64)` bitset words per vertex —
//! O(1) insert per edge endpoint and a one-OR-per-word shard merge on the
//! parallel path (set union is exactly what the sequential build computes,
//! so chunking cannot change the result). After the build the sets are
//! **frozen** into a CSR-flattened view (`rep_offsets` + `rep_flat`): one
//! offsets array and one contiguous sorted-id array instead of one heap
//! `Vec` per vertex. All read paths (`replicas`, slots, masters, RF, counts)
//! serve from that view and the bitsets are dropped.
//!
//! An assignment also remembers which edge stream it placed, as the
//! stream's [`gp_core::edge_digest`], and builds its per-image local edge
//! counts the first time an engine asks — refusing any graph whose digest
//! differs, so the cached counts can only ever describe their own graph.

use crate::local_edges::count_local_edges;
use crate::replica_words::{bits, ReplicaWords};
use gp_core::{
    for_each_edge, hash_stream_edge, hash_u64, Edge, EdgeList, PartitionId, StreamingEdges,
    VertexId,
};
use gp_par::ParConfig;
use std::sync::{Arc, OnceLock};

/// An edge→partition assignment plus derived replication structure.
#[derive(Debug, Clone)]
pub struct Assignment {
    num_partitions: u32,
    num_vertices: u64,
    /// Partition of each edge, aligned with the source edge stream.
    edge_partition: Vec<PartitionId>,
    /// Frozen CSR view: `rep_flat[rep_offsets[v]..rep_offsets[v+1]]` is the
    /// sorted partition list of vertex `v`.
    rep_offsets: Vec<u64>,
    rep_flat: Vec<u32>,
    /// Master partition of each vertex (meaningless for isolated vertices).
    masters: Vec<PartitionId>,
    /// Edges per partition.
    edge_counts: Vec<u64>,
    /// [`gp_core::edge_digest`] of the edge stream that was placed.
    stream_digest: u64,
    /// `(local_in, local_out)` per image, aligned with `rep_flat`; built by
    /// the first [`Assignment::local_edge_counts`].
    local_edges: OnceLock<Arc<[(u32, u32)]>>,
}

impl Assignment {
    /// Build from per-edge partition choices. Masters are chosen
    /// pseudo-randomly among each vertex's replicas (PowerGraph's policy,
    /// §5.1.1) unless a strategy overrides them via
    /// [`Assignment::set_masters`].
    pub fn from_edge_partitions(
        graph: &dyn StreamingEdges,
        edge_partition: Vec<PartitionId>,
        num_partitions: u32,
        seed: u64,
    ) -> Self {
        Self::from_edge_partitions_par(
            graph,
            edge_partition,
            num_partitions,
            seed,
            &ParConfig::default(),
        )
    }

    /// Multi-threaded [`Assignment::from_edge_partitions`]: workers build
    /// thread-local replica-bitset/edge-count/digest shards over disjoint
    /// edge chunks, merged pairwise in a reduction tree whose operators
    /// (word-wise OR, integer and wrapping addition) are associative,
    /// commutative and insensitive to chunk boundaries — so the result is
    /// byte-identical to the sequential build at any thread count, while
    /// the merge itself runs in `log2(chunks)` parallel rounds instead of
    /// one sequential left fold (the fold was eating the whole
    /// stateless-ingress speedup: `chunks - 1` full O(n)-vertex merges on
    /// one thread).
    pub fn from_edge_partitions_par(
        graph: &dyn StreamingEdges,
        edge_partition: Vec<PartitionId>,
        num_partitions: u32,
        seed: u64,
        par: &ParConfig,
    ) -> Self {
        assert_eq!(
            edge_partition.len(),
            graph.num_edges(),
            "one partition per edge"
        );
        let n = graph.num_vertices() as usize;
        let build_shard = |range: std::ops::Range<usize>| {
            let mut sets = ReplicaWords::new(graph.num_vertices(), num_partitions);
            let mut edge_counts = vec![0u64; num_partitions as usize];
            let mut digest = 0u64;
            let mut i = range.start;
            for_each_edge(graph, range, |e| {
                let p = edge_partition[i];
                digest = digest.wrapping_add(hash_stream_edge(i, e));
                i += 1;
                debug_assert!(p.0 < num_partitions, "partition {p} out of range");
                edge_counts[p.index()] += 1;
                sets.insert(e.src.index(), p.0);
                sets.insert(e.dst.index(), p.0);
            });
            (sets, edge_counts, digest)
        };
        let mut shards = gp_par::map_chunks(par, graph.num_edges(), build_shard);
        // Pairwise reduction tree: each round merges shard 2k+1 into shard
        // 2k, all pairs in parallel on the ordered pool. The merge kernel is
        // one OR per replica word plus an integer add per partition and one
        // for the digest — no allocation, no per-element branching. At one
        // thread there is one shard and no round runs.
        while shards.len() > 1 {
            let mut iter = shards.into_iter();
            let mut tasks = Vec::new();
            while let Some(left) = iter.next() {
                let right = iter.next();
                tasks.push(move || {
                    let (mut sets, mut counts, mut digest) = left;
                    if let Some((right_sets, right_counts, right_digest)) = right {
                        for (total, c) in counts.iter_mut().zip(right_counts) {
                            *total += c;
                        }
                        sets.union_with(&right_sets);
                        digest = digest.wrapping_add(right_digest);
                    }
                    (sets, counts, digest)
                });
            }
            shards = gp_par::run_ordered(par.effective_threads(), tasks);
        }
        // An empty edge stream yields no chunks; fall back to an empty shard.
        let (replica_sets, edge_counts, stream_digest) =
            shards.pop().unwrap_or_else(|| build_shard(0..0));
        // Freeze the read side: one offsets array + one contiguous sorted-id
        // array, in place of a heap Vec per vertex.
        let mut rep_offsets = Vec::with_capacity(n + 1);
        let mut rep_flat = Vec::with_capacity(replica_sets.total());
        rep_offsets.push(0u64);
        for v in 0..n {
            let row = replica_sets.row(v);
            rep_flat.extend(bits(row.len(), |i| row[i]).map(|p| p as u32));
            rep_offsets.push(rep_flat.len() as u64);
        }
        // Free the word table before the masters are allocated.
        drop(replica_sets);
        // Master choice is a pure per-vertex hash over the frozen view, so
        // it chunks freely across workers.
        let masters: Vec<PartitionId> = gp_par::map_chunks(par, n, |range| {
            range
                .map(|v| {
                    let lo = rep_offsets[v] as usize;
                    let hi = rep_offsets[v + 1] as usize;
                    default_master(VertexId(v as u64), seed, &rep_flat[lo..hi])
                })
                .collect::<Vec<_>>()
        })
        .into_iter()
        .flatten()
        .collect();
        Assignment {
            num_partitions,
            num_vertices: graph.num_vertices(),
            edge_partition,
            rep_offsets,
            rep_flat,
            masters,
            edge_counts,
            stream_digest,
            local_edges: OnceLock::new(),
        }
    }

    /// Number of partitions.
    #[inline]
    pub fn num_partitions(&self) -> u32 {
        self.num_partitions
    }

    /// Number of vertices in the underlying graph.
    #[inline]
    pub fn num_vertices(&self) -> u64 {
        self.num_vertices
    }

    /// Number of edges assigned.
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.edge_partition.len()
    }

    /// Partition of the `i`-th edge of the source stream.
    #[inline]
    pub fn edge_partition(&self, i: usize) -> PartitionId {
        self.edge_partition[i]
    }

    /// All per-edge partitions, stream-aligned.
    #[inline]
    pub fn edge_partitions(&self) -> &[PartitionId] {
        &self.edge_partition
    }

    /// Partitions holding a replica of `v` (sorted, possibly empty for
    /// isolated vertices) — a slice of the frozen CSR view.
    #[inline]
    pub fn replicas(&self, v: VertexId) -> &[u32] {
        let lo = self.rep_offsets[v.index()] as usize;
        let hi = self.rep_offsets[v.index() + 1] as usize;
        &self.rep_flat[lo..hi]
    }

    /// Start of `v`'s slice in the flattened replica view; `replica_slot`
    /// indexes are relative to this.
    #[inline]
    pub fn replica_offset(&self, v: VertexId) -> usize {
        self.rep_offsets[v.index()] as usize
    }

    /// Slot of partition `p` within `v`'s sorted replica list. `p` must be
    /// a replica of `v` (guaranteed for the partition of any edge incident
    /// to `v`, by construction).
    #[inline]
    pub fn replica_slot(&self, v: VertexId, p: PartitionId) -> usize {
        self.replicas(v)
            .binary_search(&p.0)
            .unwrap_or_else(|_| panic!("{p} does not host a replica of {v}"))
    }

    /// Total number of vertex images (the length of the flattened view).
    #[inline]
    pub fn total_images(&self) -> usize {
        self.rep_flat.len()
    }

    /// Number of images (master + mirrors) of `v`.
    #[inline]
    pub fn replica_count(&self, v: VertexId) -> u32 {
        (self.rep_offsets[v.index() + 1] - self.rep_offsets[v.index()]) as u32
    }

    /// Master partition of `v`.
    #[inline]
    pub fn master_of(&self, v: VertexId) -> PartitionId {
        self.masters[v.index()]
    }

    /// All per-vertex masters, indexed by vertex id.
    #[inline]
    pub fn masters(&self) -> &[PartitionId] {
        &self.masters
    }

    /// Override master placement (BiCut's favorite side, a loaded
    /// partition file). Each master must be one of the vertex's replicas.
    pub fn set_masters(&mut self, masters: Vec<PartitionId>) {
        assert_eq!(masters.len() as u64, self.num_vertices);
        for (v, &m) in masters.iter().enumerate() {
            let replicas = self.replicas(VertexId(v as u64));
            assert!(
                replicas.is_empty() || replicas.binary_search(&m.0).is_ok(),
                "master {m} of v{v} is not a replica"
            );
        }
        self.masters = masters;
    }

    /// Masters at home: each vertex's master goes to `home(v)` when that
    /// partition holds one of its replicas (or it has none), else to its
    /// first replica. Hybrid and H-Ginger co-locate a low-degree vertex's
    /// master with its in-edges this way (§6.2.1), VEBO with its out-edges.
    pub(crate) fn set_masters_at_home(&mut self, home: impl Fn(VertexId) -> PartitionId) {
        self.masters = (0..self.num_vertices)
            .map(VertexId)
            .map(|v| {
                let (home, reps) = (home(v), self.replicas(v));
                if reps.is_empty() || reps.binary_search(&home.0).is_ok() {
                    home
                } else {
                    PartitionId(reps[0])
                }
            })
            .collect();
    }

    /// Average number of images per vertex, over vertices with at least one
    /// image — the paper's headline partitioning-quality metric.
    pub fn replication_factor(&self) -> f64 {
        let (total, present) = self
            .rep_offsets
            .windows(2)
            .map(|w| w[1] - w[0])
            .filter(|&len| len > 0)
            .fold((0u64, 0u64), |(t, c), len| (t + len, c + 1));
        if present == 0 {
            0.0
        } else {
            total as f64 / present as f64
        }
    }

    /// Total number of mirrors (images that are not masters).
    pub fn total_mirrors(&self) -> u64 {
        self.rep_offsets
            .windows(2)
            .map(|w| w[1] - w[0])
            .filter(|&len| len > 0)
            .map(|len| len - 1)
            .sum()
    }

    /// Edges per partition.
    #[inline]
    pub fn edge_counts(&self) -> &[u64] {
        &self.edge_counts
    }

    /// Vertex images per partition (masters + mirrors hosted) — one pass
    /// over the flattened view.
    pub fn replica_counts(&self) -> Vec<u64> {
        let mut counts = vec![0u64; self.num_partitions as usize];
        for &p in &self.rep_flat {
            counts[p as usize] += 1;
        }
        counts
    }

    /// Master vertices per partition.
    pub fn master_counts(&self) -> Vec<u64> {
        let mut counts = vec![0u64; self.num_partitions as usize];
        for (w, &m) in self.rep_offsets.windows(2).zip(&self.masters) {
            if w[1] > w[0] {
                counts[m.index()] += 1;
            }
        }
        counts
    }

    /// Load-balance summary over edge counts.
    pub fn balance(&self) -> BalanceReport {
        BalanceReport::from_counts(&self.edge_counts)
    }

    /// [`gp_core::edge_digest`] of the edge stream this assignment placed.
    #[inline]
    pub fn stream_digest(&self) -> u64 {
        self.stream_digest
    }

    /// `(local_in, local_out)` of every vertex image — how many of its in-
    /// and out-edges that partition holds — aligned with the flattened
    /// replica view (`replica_offset(v)` starts `v`'s slice). Built by the
    /// first call and shared by every later one. Panics with "assignment of
    /// another graph" unless `graph` is the edge stream this assignment
    /// placed, up to a 64-bit digest collision.
    pub fn local_edge_counts(&self, graph: &EdgeList) -> Arc<[(u32, u32)]> {
        assert!(
            graph.num_vertices() == self.num_vertices
                && graph.num_edges() == self.num_edges()
                && graph.edge_digest() == self.stream_digest,
            "assignment of another graph"
        );
        Arc::clone(
            self.local_edges
                .get_or_init(|| count_local_edges(graph, self).into()),
        )
    }
}

/// Max/mean load imbalance statistics.
#[derive(Debug, Clone, PartialEq)]
pub struct BalanceReport {
    /// Largest per-partition count.
    pub max: u64,
    /// Smallest per-partition count.
    pub min: u64,
    /// Mean per-partition count.
    pub mean: f64,
    /// `max / mean` — 1.0 is perfectly balanced; the paper's "balanced
    /// partitions" requirement (§1) caps this.
    pub imbalance: f64,
}

impl BalanceReport {
    /// Summarize a per-partition count vector.
    pub fn from_counts(counts: &[u64]) -> Self {
        let max = counts.iter().copied().max().unwrap_or(0);
        let min = counts.iter().copied().min().unwrap_or(0);
        let mean = if counts.is_empty() {
            0.0
        } else {
            counts.iter().sum::<u64>() as f64 / counts.len() as f64
        };
        let imbalance = if mean > 0.0 { max as f64 / mean } else { 1.0 };
        BalanceReport {
            max,
            min,
            mean,
            imbalance,
        }
    }
}

/// PowerGraph's default master policy (§5.1.1): a pseudo-random pick among
/// the vertex's **sorted** replica list, keyed by vertex id and seed.
///
/// This is the exact formula the batch build uses, exported so the
/// serving-time incremental maintenance re-derives byte-identical masters
/// from its own replica sets. Vertices with no replicas report partition 0
/// (meaningless, matching the batch convention for isolated vertices).
pub fn default_master(v: VertexId, seed: u64, replicas: &[u32]) -> PartitionId {
    if replicas.is_empty() {
        PartitionId(0)
    } else {
        PartitionId(replicas[default_master_pick(v, seed, replicas.len())])
    }
}

/// The index [`default_master`] picks in a sorted replica list of `len > 0`
/// partitions — the hash alone, for callers that keep the list in a shape
/// of their own.
pub fn default_master_pick(v: VertexId, seed: u64, len: usize) -> usize {
    hash_u64(v.0, seed ^ 0x5EED_0F0A) as usize % len
}

/// Partition every edge with a pure function of the edge (the stateless
/// hash strategies): each worker streams a disjoint edge chunk through the
/// function; per-chunk results concatenate in chunk order, reproducing the
/// sequential stream exactly.
pub fn assign_stateless_par(
    graph: &dyn StreamingEdges,
    num_partitions: u32,
    seed: u64,
    par: &ParConfig,
    f: impl Fn(Edge) -> PartitionId + Sync,
) -> Assignment {
    let mut parts: Vec<PartitionId> = vec![PartitionId(0); graph.num_edges()];
    gp_par::fill_chunks(par, &mut parts, |range, out| {
        let mut slot = 0usize;
        for_each_edge(graph, range, |e| {
            out[slot] = f(e);
            slot += 1;
        });
    });
    Assignment::from_edge_partitions_par(graph, parts, num_partitions, seed, par)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gp_core::EdgeList;

    fn tiny() -> EdgeList {
        EdgeList::from_pairs(vec![(0, 1), (1, 2), (2, 0), (0, 3)])
    }

    fn assign_round_robin(graph: &EdgeList, parts: u32) -> Assignment {
        let v: Vec<PartitionId> = (0..graph.num_edges())
            .map(|i| PartitionId((i as u32) % parts))
            .collect();
        Assignment::from_edge_partitions(graph, v, parts, 1)
    }

    #[test]
    fn replicas_are_sorted_and_deduplicated() {
        let g = tiny();
        let a = assign_round_robin(&g, 2);
        for v in 0..g.num_vertices() {
            let r = a.replicas(VertexId(v));
            assert!(
                r.windows(2).all(|w| w[0] < w[1]),
                "replicas not sorted/unique: {r:?}"
            );
        }
    }

    #[test]
    fn single_partition_has_rf_one() {
        let g = tiny();
        let a = assign_round_robin(&g, 1);
        assert_eq!(a.replication_factor(), 1.0);
        assert_eq!(a.total_mirrors(), 0);
    }

    #[test]
    fn replication_factor_hand_computed() {
        // Edges (0,1),(1,2),(2,0),(0,3) round-robin over 2 partitions:
        // p0: (0,1),(2,0)  p1: (1,2),(0,3)
        // replicas: v0 {0,1}, v1 {0,1}, v2 {0,1}, v3 {1} → RF = 7/4
        let a = assign_round_robin(&tiny(), 2);
        assert!((a.replication_factor() - 1.75).abs() < 1e-12);
        assert_eq!(a.total_mirrors(), 3);
    }

    #[test]
    fn masters_are_replicas() {
        let g = tiny();
        let a = assign_round_robin(&g, 3);
        for v in 0..g.num_vertices() {
            let v = VertexId(v);
            if a.replica_count(v) > 0 {
                assert!(a.replicas(v).contains(&a.master_of(v).0));
            }
        }
    }

    #[test]
    fn master_counts_sum_to_present_vertices() {
        let g = tiny();
        let a = assign_round_robin(&g, 3);
        let sum: u64 = a.master_counts().iter().sum();
        assert_eq!(sum, 4);
    }

    #[test]
    fn replica_counts_sum_matches_total_images() {
        let g = tiny();
        let a = assign_round_robin(&g, 2);
        let images: u64 = a.replica_counts().iter().sum();
        let direct: u64 = (0..4).map(|v| a.replica_count(VertexId(v)) as u64).sum();
        assert_eq!(images, direct);
        assert_eq!(images, a.total_images() as u64);
    }

    #[test]
    fn replica_slot_indexes_the_flattened_view() {
        let g = tiny();
        let a = assign_round_robin(&g, 3);
        for v in 0..g.num_vertices() {
            let v = VertexId(v);
            for (slot, &p) in a.replicas(v).iter().enumerate() {
                assert_eq!(a.replica_slot(v, PartitionId(p)), slot);
            }
        }
    }

    #[test]
    fn set_masters_validates_membership() {
        let g = tiny();
        let mut a = assign_round_robin(&g, 2);
        // v3 only lives on p1, so forcing master p1 everywhere it exists works:
        let forced: Vec<PartitionId> = (0..4)
            .map(|v| PartitionId(a.replicas(VertexId(v))[0]))
            .collect();
        a.set_masters(forced.clone());
        assert_eq!(a.master_of(VertexId(3)), forced[3]);
    }

    #[test]
    #[should_panic(expected = "not a replica")]
    fn set_masters_rejects_non_replica() {
        let g = EdgeList::from_pairs(vec![(0, 1)]);
        let mut a = Assignment::from_edge_partitions(&g, vec![PartitionId(0)], 2, 1);
        a.set_masters(vec![PartitionId(1), PartitionId(0)]);
    }

    #[test]
    fn balance_report_math() {
        let b = BalanceReport::from_counts(&[10, 20, 30]);
        assert_eq!(b.max, 30);
        assert_eq!(b.min, 10);
        assert!((b.mean - 20.0).abs() < 1e-12);
        assert!((b.imbalance - 1.5).abs() < 1e-12);
    }

    #[test]
    fn balance_of_empty_counts_is_neutral() {
        let b = BalanceReport::from_counts(&[]);
        assert_eq!(b.imbalance, 1.0);
    }

    #[test]
    fn isolated_vertices_do_not_skew_rf() {
        let g = EdgeList::with_vertex_count(vec![Edge::new(0u64, 1u64)], 10).unwrap();
        let a = Assignment::from_edge_partitions(&g, vec![PartitionId(0)], 4, 1);
        assert_eq!(a.replication_factor(), 1.0);
    }

    #[test]
    fn an_assignment_carries_its_streams_digest_and_shares_one_count_array() {
        let g = tiny();
        let a = assign_round_robin(&g, 2);
        assert_eq!(a.stream_digest(), g.edge_digest());
        let counts = a.local_edge_counts(&g);
        // p0 holds (0,1) and (2,0), p1 holds (1,2) and (0,3); v0's images.
        assert_eq!(counts[..2], [(1, 1), (0, 1)]);
        assert!(Arc::ptr_eq(&counts, &a.local_edge_counts(&g)));
        assert!(Arc::ptr_eq(&counts, &a.clone().local_edge_counts(&g)));
    }

    #[test]
    #[should_panic(expected = "assignment of another graph")]
    fn local_edge_counts_refuse_another_graph_of_the_same_shape() {
        let g = tiny();
        let a = assign_round_robin(&g, 2);
        a.local_edge_counts(&g);
        let reversed: Vec<Edge> = g.edges().iter().map(|e| e.reversed()).collect();
        a.local_edge_counts(&EdgeList::from_edges(reversed));
    }

    #[test]
    fn stateless_helper_applies_function() {
        let g = tiny();
        let a = assign_stateless_par(&g, 2, 1, &ParConfig::default(), |e| {
            PartitionId((e.src.0 % 2) as u32)
        });
        assert_eq!(a.edge_partition(0), PartitionId(0)); // (0,1)
        assert_eq!(a.edge_partition(1), PartitionId(1)); // (1,2)
    }
}
