//! # gp-cluster — the simulated cluster
//!
//! The paper runs on four clusters (Table 4.1): a local cluster of 9/10
//! machines and EC2 m4.2xlarge clusters of 16 and 25. We replace physical
//! hardware with a deterministic model:
//!
//! * [`ClusterSpec`] — machine count, cores, memory, network bandwidth and
//!   latency, with presets for the paper's four clusters;
//! * [`cost`] — [`CostRates`], the fixed byte sizes of the simulated wire
//!   and storage formats, converting what partitioning and the engines
//!   produce (work units, bytes shipped, replicas stored) into simulated
//!   seconds and bytes;
//! * [`table`] — plain-text table/CSV emission for the experiment harness;
//! * [`plot`] — dependency-free SVG charts for the `--svg` figure renders.

pub mod cost;
pub mod plot;
pub mod spec;
pub mod table;

pub use cost::CostRates;
pub use plot::{Chart, ChartKind, Series};
pub use spec::ClusterSpec;
pub use table::Table;
