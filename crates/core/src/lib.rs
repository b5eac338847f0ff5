//! # gp-core — graph substrate
//!
//! Foundation types shared by every other crate in the workspace: vertex and
//! partition identifiers, edges, edge-list and CSR graph containers, degree
//! tables, stable hashing, seeded random streams, plain-text edge-list I/O
//! (the on-disk format used by the paper's datasets, §4.2), and summary
//! statistics.
//!
//! Everything here is deterministic: the hash functions are fixed-key
//! SplitMix64-based mixers, so a given (graph, strategy, seed) triple always
//! produces the same partitioning, replication factor and simulated metrics.
//!
//! ## Quick tour
//!
//! ```
//! use gp_core::{EdgeList, VertexId, CsrGraph};
//!
//! // A tiny directed triangle plus a pendant vertex.
//! let graph = EdgeList::from_pairs(vec![(0, 1), (1, 2), (2, 0), (2, 3)]);
//! assert_eq!(graph.num_edges(), 4);
//! assert_eq!(graph.num_vertices(), 4);
//!
//! let csr = CsrGraph::from_edge_list(&graph);
//! assert_eq!(csr.out_neighbors(VertexId(2)).collect::<Vec<_>>(),
//!            vec![VertexId(0), VertexId(3)]);
//! ```

pub mod error;
pub mod graph;
pub mod hash;
pub mod ids;
pub mod io;
pub mod pset;
pub mod rng;
pub mod source;
pub mod stats;
pub mod units;

pub use error::CoreError;
pub use graph::{CsrGraph, DegreeTable, Edge, EdgeList};
pub use hash::{hash_canonical_edge, hash_directed_edge, hash_stream_edge, hash_u64, hash_vertex};
pub use ids::{PartitionId, VertexId};
pub use pset::PartitionSet;
pub use rng::{ChaCha12, Rng, Splitmix64, Xoshiro256};
pub use source::{collect_edge_list, edge_digest, for_each_edge, EdgeStreamIter, StreamingEdges};
pub use stats::GraphStats;

/// Convenient `Result` alias for fallible gp-core operations.
pub type Result<T> = std::result::Result<T, CoreError>;
