//! # gp-gen — synthetic graph generators and degree analysis
//!
//! The paper evaluates on six real-world graphs (Table 4.2) spanning three
//! degree classes that its analysis (§5.4.2, Fig 5.8) shows are the *only*
//! graph property the partitioning results depend on:
//!
//! * **Low-degree** — road networks (road-net-CA, road-net-USA): bounded
//!   degree (max 12 in the real data), huge diameter.
//! * **Heavy-tailed** — social networks (LiveJournal, Twitter, Enwiki-2013):
//!   skewed degree distribution but with *fewer low-degree vertices than a
//!   true power law predicts* (they sit below the log-log regression line).
//! * **Power-law** — web graphs (UK-web): skewed *and* with the full
//!   low-degree head (many degree-1/2 vertices).
//!
//! We cannot ship multi-billion-edge crawls, so this crate generates scaled
//! synthetic analogues with the same signatures: lattice-with-shortcut road
//! networks, Barabási–Albert graphs (minimum attachment degree ⇒ depleted
//! low-degree head ⇒ heavy-tailed), and R-MAT graphs (full power-law head).
//! [`analysis`] implements the Fig 5.8 log-log regression and the
//! low-degree-mass classifier that separates the three classes, and
//! [`datasets`] is a registry mirroring Table 4.2 at a user-chosen scale.

pub mod analysis;
pub mod datasets;
pub mod generators;
pub mod store_build;
pub mod stream;

pub use analysis::{classify, DegreeAnalysis, GraphClass};
pub use datasets::{Dataset, DatasetSpec};
pub use generators::{
    barabasi_albert, barabasi_albert_reciprocal, bipartite, chung_lu, erdos_renyi, rmat,
    road_network, web_graph, BipartiteParams, RmatParams, RoadNetworkParams,
};
pub use store_build::{build_dataset_store, build_powerlaw_store};
pub use stream::{PowerLawStream, PowerLawStreamParams};
