//! # gp-apps — the paper's five benchmark applications (§3.3)
//!
//! Each application is a [`VertexProgram`](gp_engine::VertexProgram) and runs
//! unchanged on every engine:
//!
//! | App | Gather | Scatter | Natural? | Notes |
//! |---|---|---|---|---|
//! | [`PageRank`] | In | Out | yes | fixed-iteration or to-convergence |
//! | [`Wcc`] | Both | Both | no | label propagation |
//! | [`KCore`] | Both | Both | no | peeling, one run per k (§5.3's `k_min..=k_max` sweep) |
//! | [`Sssp`] | In/Both | Out/Both | directed: yes | undirected used for PG/PL (§6.4.1) |
//! | [`Coloring`] | Both | Both | no | needs the async engine (§5.4.1) |

pub mod coloring;
pub mod kcore;
pub mod pagerank;
pub mod sssp;
pub mod wcc;

pub use coloring::Coloring;
pub use kcore::KCore;
pub use pagerank::{PageRank, PageRankMode};
pub use sssp::Sssp;
pub use wcc::Wcc;
