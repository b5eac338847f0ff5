//! The seven stateless hash strategies: Random (canonical), Asymmetric
//! Random, 1D, 1D-Target and 2D here, Grid and PDS in
//! [`constrained`](super::constrained).
//!
//! GraphX's whole strategy set (§7.2) is "hash-based and stateless (they
//! assign each edge independent of previous assignments), making them highly
//! parallelizable streaming graph partitioning strategies"; PowerGraph's
//! Random, Grid and PDS are the same kind, and the thesis adds 1D-Target
//! (§8.2.3). Such a strategy is nothing but its edge → partition function,
//! so each is one `HashRule`: batch ingress (`HashPartitioner`) and
//! serving (`Strategy::incremental`) both place edges through it, and agree
//! because they read the same value.

use crate::assignment::assign_stateless_par;
use crate::partitioner::{PartitionContext, PartitionOutcome, Partitioner};
use crate::strategies::constrained::{grid_edge, pds_edge, PdsTable};
use crate::strategies::stateless_loader_work;
use crate::strategy::Strategy;
use gp_core::{
    hash_canonical_edge, hash_directed_edge, hash_vertex, Edge, PartitionId, StreamingEdges,
};

/// PowerGraph's `Random` / GraphX's `CanonicalRandomVertexCut` (§5.2.1,
/// §7.2.1): hash of the edge ignoring direction, so `(u,v)` and `(v,u)`
/// land on the same partition.
pub(crate) fn random_edge(e: Edge, seed: u64, p: u32) -> PartitionId {
    PartitionId((hash_canonical_edge(e.src, e.dst, seed) % p as u64) as u32)
}

/// GraphX's `RandomVertexCut` — "Asymmetric Random" in the thesis (§8.1):
/// hash of the *directed* edge, so `(u,v)` and `(v,u)` may land on different
/// partitions. §8.2.2 shows this yields strictly worse replication factors
/// than canonical Random; we reproduce that.
pub(crate) fn asym_random_edge(e: Edge, seed: u64, p: u32) -> PartitionId {
    PartitionId((hash_directed_edge(e.src, e.dst, seed) % p as u64) as u32)
}

/// GraphX's 1D edge partitioning (§7.2.2): hash of the **source** vertex, so
/// all out-edges of a vertex are co-located.
pub(crate) fn one_d_edge(e: Edge, seed: u64, p: u32) -> PartitionId {
    PartitionId((hash_vertex(e.src, seed) % p as u64) as u32)
}

/// The thesis's 1D variant (§8.2.3): hash of the **target** vertex, so all
/// *in*-edges are co-located. Under PowerLyra's hybrid engine this matches
/// the gather direction of natural applications (PageRank gathers along
/// in-edges) and cuts gather-phase network traffic — Fig 8.3.
pub(crate) fn one_d_target_edge(e: Edge, seed: u64, p: u32) -> PartitionId {
    PartitionId((hash_vertex(e.dst, seed) % p as u64) as u32)
}

/// GraphX's 2D edge partitioning (§7.2.3): partitions form a `side × side`
/// matrix; the source hash picks the column, the destination hash the row,
/// folded back modulo `p` for non-square counts. Guarantees a
/// `2*sqrt(P) - 1` replication upper bound for perfect squares. `side` must
/// be `matrix_side(p)`.
pub(crate) fn two_d_edge(e: Edge, seed: u64, p: u32, side: u64) -> PartitionId {
    let col = hash_vertex(e.src, seed) % side;
    let row = hash_vertex(e.dst, seed ^ 0x2D2D) % side;
    PartitionId(((col * side + row) % p as u64) as u32)
}

/// Side of the smallest square matrix with at least `p` cells, shared by 2D
/// and Grid.
fn matrix_side(p: u32) -> u64 {
    (p as f64).sqrt().ceil() as u64
}

/// One stateless strategy's edge → partition function, with everything it
/// derives from the partition count and seed computed once. Each variant
/// holds exactly the arguments its per-edge function takes.
pub(crate) enum HashRule {
    Random {
        seed: u64,
        p: u32,
    },
    AsymmetricRandom {
        seed: u64,
        p: u32,
    },
    OneD {
        seed: u64,
        p: u32,
    },
    OneDTarget {
        seed: u64,
        p: u32,
    },
    TwoD {
        seed: u64,
        p: u32,
        side: u64,
    },
    Grid {
        seed: u64,
        p: u32,
        side: u64,
        cells: u64,
    },
    Pds {
        seed: u64,
        table: PdsTable,
    },
}

impl HashRule {
    /// The rule of `strategy` on `p` partitions. Panics on a stateful
    /// strategy, and for PDS on a count [`Strategy::supports_partition_count`]
    /// refuses.
    pub(crate) fn new(strategy: Strategy, p: u32, seed: u64) -> Self {
        match strategy {
            Strategy::Random => HashRule::Random { seed, p },
            Strategy::AsymmetricRandom => HashRule::AsymmetricRandom { seed, p },
            Strategy::OneD => HashRule::OneD { seed, p },
            Strategy::OneDTarget => HashRule::OneDTarget { seed, p },
            Strategy::TwoD => HashRule::TwoD {
                seed,
                p,
                side: matrix_side(p),
            },
            Strategy::Grid => {
                let side = matrix_side(p);
                HashRule::Grid {
                    seed,
                    p,
                    side,
                    cells: side * side,
                }
            }
            Strategy::Pds => HashRule::Pds {
                seed,
                table: PdsTable::new(p),
            },
            Strategy::Oblivious | Strategy::Hdrf | Strategy::Hybrid | Strategy::HybridGinger => {
                unreachable!("{strategy} is not a stateless hash strategy")
            }
        }
    }

    /// The partition of one edge: the serving path's per-edge step.
    pub(crate) fn place(&self, e: Edge) -> PartitionId {
        match *self {
            HashRule::Random { seed, p } => random_edge(e, seed, p),
            HashRule::AsymmetricRandom { seed, p } => asym_random_edge(e, seed, p),
            HashRule::OneD { seed, p } => one_d_edge(e, seed, p),
            HashRule::OneDTarget { seed, p } => one_d_target_edge(e, seed, p),
            HashRule::TwoD { seed, p, side } => two_d_edge(e, seed, p, side),
            HashRule::Grid {
                seed,
                p,
                side,
                cells,
            } => grid_edge(e, seed, p, side, cells),
            HashRule::Pds { seed, ref table } => pds_edge(e, seed, table),
        }
    }
}

/// The batch partitioner of every stateless hash strategy: one pass, each
/// edge placed by the strategy's [`HashRule`].
pub(crate) struct HashPartitioner(pub(crate) Strategy);

impl Partitioner for HashPartitioner {
    fn name(&self) -> &'static str {
        self.0.label()
    }

    fn partition(
        &mut self,
        graph: &dyn StreamingEdges,
        ctx: &PartitionContext,
    ) -> PartitionOutcome {
        let par = &ctx.par;
        // Match once, outside the edge loop, so each rule compiles into a
        // loop of its own rather than a match per edge.
        let assignment = match HashRule::new(self.0, ctx.num_partitions, ctx.seed) {
            HashRule::Random { seed, p } => {
                assign_stateless_par(graph, p, seed, par, |e| random_edge(e, seed, p))
            }
            HashRule::AsymmetricRandom { seed, p } => {
                assign_stateless_par(graph, p, seed, par, |e| asym_random_edge(e, seed, p))
            }
            HashRule::OneD { seed, p } => {
                assign_stateless_par(graph, p, seed, par, |e| one_d_edge(e, seed, p))
            }
            HashRule::OneDTarget { seed, p } => {
                assign_stateless_par(graph, p, seed, par, |e| one_d_target_edge(e, seed, p))
            }
            HashRule::TwoD { seed, p, side } => {
                assign_stateless_par(graph, p, seed, par, |e| two_d_edge(e, seed, p, side))
            }
            HashRule::Grid {
                seed,
                p,
                side,
                cells,
            } => assign_stateless_par(graph, p, seed, par, |e| grid_edge(e, seed, p, side, cells)),
            HashRule::Pds { seed, table } => {
                assign_stateless_par(graph, ctx.num_partitions, seed, par, |e| {
                    pds_edge(e, seed, &table)
                })
            }
        };
        let outcome = PartitionOutcome {
            assignment,
            loader_work: stateless_loader_work(graph.num_edges(), ctx),
            passes: 1,
            state_bytes: 0,
        };
        super::record_ingress_telemetry(self.name(), graph, &outcome, ctx);
        outcome
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gp_core::{Edge, EdgeList, VertexId};

    fn graph_with_reversals() -> EdgeList {
        // Every edge and its reversal.
        let mut pairs = Vec::new();
        for i in 0..500u64 {
            let (u, v) = (i, (i * 7 + 3) % 997);
            if u != v {
                pairs.push((u, v));
                pairs.push((v, u));
            }
        }
        EdgeList::from_pairs(pairs)
    }

    fn ctx(p: u32) -> PartitionContext {
        PartitionContext::new(p)
    }

    fn run(strategy: Strategy, g: &EdgeList, ctx: &PartitionContext) -> PartitionOutcome {
        strategy.build().partition(g, ctx)
    }

    #[test]
    fn random_places_reversed_edges_together() {
        let g = graph_with_reversals();
        let out = run(Strategy::Random, &g, &ctx(8));
        for i in (0..g.num_edges()).step_by(2) {
            assert_eq!(
                out.assignment.edge_partition(i),
                out.assignment.edge_partition(i + 1),
                "edge {i} and its reversal split"
            );
        }
    }

    #[test]
    fn asymmetric_random_splits_some_reversed_edges() {
        let g = graph_with_reversals();
        let out = run(Strategy::AsymmetricRandom, &g, &ctx(8));
        let split = (0..g.num_edges())
            .step_by(2)
            .filter(|&i| out.assignment.edge_partition(i) != out.assignment.edge_partition(i + 1))
            .count();
        assert!(split > 100, "expected many split pairs, got {split}");
    }

    #[test]
    fn asymmetric_rf_exceeds_canonical_rf_on_symmetric_graphs() {
        // §8.2.2: Asymmetric Random yields higher replication factors.
        let g = graph_with_reversals();
        let rf_canon = run(Strategy::Random, &g, &ctx(9))
            .assignment
            .replication_factor();
        let rf_asym = run(Strategy::AsymmetricRandom, &g, &ctx(9))
            .assignment
            .replication_factor();
        assert!(
            rf_asym > rf_canon,
            "asym {rf_asym} should exceed canonical {rf_canon}"
        );
    }

    #[test]
    fn one_d_colocates_out_edges() {
        let g = EdgeList::from_pairs((1..50).map(|i| (7, i)).collect());
        let out = run(Strategy::OneD, &g, &ctx(6));
        let first = out.assignment.edge_partition(0);
        assert!((0..g.num_edges()).all(|i| out.assignment.edge_partition(i) == first));
        assert_eq!(out.assignment.replica_count(VertexId(7)), 1);
    }

    #[test]
    fn one_d_target_colocates_in_edges() {
        let g = EdgeList::from_pairs((1..50).map(|i| (i, 7)).collect());
        let out = run(Strategy::OneDTarget, &g, &ctx(6));
        let first = out.assignment.edge_partition(0);
        assert!((0..g.num_edges()).all(|i| out.assignment.edge_partition(i) == first));
        assert_eq!(out.assignment.replica_count(VertexId(7)), 1);
    }

    #[test]
    fn two_d_respects_replication_upper_bound() {
        // 2*sqrt(P)-1 bound for perfect-square P (§7.2.3).
        let g = gp_gen::barabasi_albert(5_000, 8, 3);
        let p = 16u32;
        let out = run(Strategy::TwoD, &g, &ctx(p));
        let bound = 2 * matrix_side(p) as u32 - 1;
        for v in 0..g.num_vertices() {
            assert!(
                out.assignment.replica_count(VertexId(v)) <= bound,
                "v{v} exceeds 2sqrt(P)-1"
            );
        }
    }

    #[test]
    fn two_d_handles_non_square_partition_counts() {
        let g = gp_gen::erdos_renyi(2_000, 10_000, 5);
        let out = run(Strategy::TwoD, &g, &ctx(10));
        // All partitions in range and all used.
        let counts = out.assignment.edge_counts();
        assert_eq!(counts.len(), 10);
        assert!(
            counts.iter().all(|&c| c > 0),
            "unused partition: {counts:?}"
        );
    }

    #[test]
    fn stateless_strategies_have_balanced_edge_loads() {
        let g = gp_gen::erdos_renyi(5_000, 100_000, 8);
        for (name, out) in [
            ("random", run(Strategy::Random, &g, &ctx(9))),
            ("asym", run(Strategy::AsymmetricRandom, &g, &ctx(9))),
        ] {
            let b = out.assignment.balance();
            assert!(b.imbalance < 1.1, "{name} imbalance {}", b.imbalance);
        }
    }

    #[test]
    fn one_d_balance_suffers_on_power_law_graphs() {
        // A hub's out-edges all pile onto one partition.
        let mut pairs: Vec<(u64, u64)> = (1..2_000).map(|i| (0, i)).collect();
        pairs.extend((1..500).map(|i| (i, i + 1)));
        let g = EdgeList::from_pairs(pairs);
        let out = run(Strategy::OneD, &g, &ctx(8));
        assert!(out.assignment.balance().imbalance > 2.0);
    }

    #[test]
    fn different_seeds_change_assignments() {
        let g = gp_gen::erdos_renyi(500, 2_000, 2);
        let a = run(Strategy::Random, &g, &PartitionContext::new(4).with_seed(1));
        let b = run(Strategy::Random, &g, &PartitionContext::new(4).with_seed(2));
        assert_ne!(
            a.assignment.edge_partitions(),
            b.assignment.edge_partitions()
        );
    }

    #[test]
    fn single_edge_graph_works_everywhere() {
        let g = EdgeList::from_edges(vec![Edge::new(0u64, 1u64)]);
        for s in [
            Strategy::Random,
            Strategy::AsymmetricRandom,
            Strategy::OneD,
            Strategy::OneDTarget,
            Strategy::TwoD,
        ] {
            let out = run(s, &g, &ctx(4));
            assert_eq!(out.assignment.num_edges(), 1);
            assert_eq!(out.assignment.replication_factor(), 1.0, "{s}");
        }
    }

    #[test]
    fn loader_work_is_reported_per_loader() {
        let g = gp_gen::erdos_renyi(100, 1_000, 1);
        let out = run(
            Strategy::Random,
            &g,
            &PartitionContext::new(4).with_loaders(4),
        );
        assert_eq!(out.loader_work.len(), 4);
        assert!(out.loader_work.iter().all(|&w| w > 0.0));
        assert_eq!(out.passes, 1);
    }
}
