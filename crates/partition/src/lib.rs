//! # gp-partition — every partitioning strategy from Table 1.1
//!
//! This crate implements, from scratch, the 11 catalog strategies evaluated by
//! the paper ([`Strategy`]) plus BiCut, Chunking and VEBO, which are reached
//! as types in [`strategies`]. The seven stateless hash strategies (Random,
//! Asymmetric Random, Grid, PDS, 1D, 1D-Target, 2D) have no types of their
//! own: each is a per-edge rule that [`Strategy::build`] and
//! [`Strategy::incremental`] both place edges by.
//!
//! | Strategy | Native system | Reference |
//! |---|---|---|
//! | Random (canonical) | PowerGraph / PowerLyra | §5.2.1 |
//! | Asymmetric Random | GraphX ("Random") | §7.2.1, §8.2.2 |
//! | Grid (resilient to non-square counts) | PowerGraph (constrained) | §5.2.3, §9.1, Graphbuilder |
//! | PDS (7, 13, 31, 57 or 133 partitions) | PowerGraph (constrained) | §5.2.3, perfect difference sets |
//! | Oblivious | PowerGraph (greedy) | §5.2.2, Appendix A |
//! | HDRF | PowerGraph (greedy, λ) | §5.2.4, Appendix B |
//! | 1D | GraphX | §7.2.2 |
//! | 1D-Target | thesis's new variant | §8.2.3 |
//! | 2D | GraphX | §7.2.3 |
//! | Hybrid | PowerLyra | §6.2.1 |
//! | Hybrid-Ginger | PowerLyra | §6.2.2 |
//! | BiCut | PowerLyra extension for bipartite graphs | §2.2 |
//! | Chunking | Gemini-style contiguous ranges | beyond the paper |
//! | VEBO | vertex/edge-balanced ordering | Sun et al. |
//!
//! Strategies consume an edge stream and produce an [`Assignment`] (edge →
//! partition) plus ingress accounting (simulated per-loader work, passes over
//! the data, strategy state memory) that the cluster model turns into the
//! ingress times of Figs 5.7/6.4/8.2. [`Assignment`] derives everything the
//! paper measures from partitions: replication factor, masters/mirrors,
//! load balance — and, built once on first use, the per-image local edge
//! counts the engines price from.
//!
//! ## Example
//!
//! ```
//! use gp_core::EdgeList;
//! use gp_partition::{PartitionContext, Strategy};
//!
//! let graph = EdgeList::from_pairs(vec![(0, 1), (1, 2), (2, 0), (0, 3), (3, 1)]);
//! let ctx = PartitionContext::new(4).with_seed(7);
//! let outcome = Strategy::Hdrf.build().partition(&graph, &ctx);
//! assert!(outcome.assignment.replication_factor() >= 1.0);
//! ```

pub mod assignment;
mod greedy;
pub mod incremental;
pub mod ingress;
mod local_edges;
pub mod partitioner;
pub mod persist;
pub mod strategies;
pub mod strategy;

pub use assignment::{Assignment, BalanceReport};
pub use gp_par::ParConfig;
pub use incremental::IncrementalPartitioner;
pub use ingress::{IngressReport, IngressVolumes};
#[doc(hidden)]
pub use partitioner::WINDOW_AUTO;
pub use partitioner::{PartitionContext, PartitionOutcome, Partitioner};
pub use persist::{load_assignment, read_assignment, save_assignment, write_assignment};
pub use strategies::sharded_degree_table;
pub use strategy::{Strategy, System};
