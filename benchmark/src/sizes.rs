//! Input sizes. One struct so the workloads, the layer probes and the
//! harness self-test run the same code at three scales.

/// Partitions (and simulated machines, EC2-16) used by every workload.
pub const PARTS: u32 = 16;
/// Client sessions of the serving workload.
pub const SESSIONS: u32 = 8;
/// Churn multiplier of the serving workload (`--churn-scale`).
pub const CHURN_SCALE: f64 = 4.0;

/// Sizes of every generated input.
#[derive(Debug, Clone, PartialEq)]
pub struct Sizes {
    /// `full` (the workloads), `probe` (the layer probes) or `tiny` (tests).
    /// Quality pins exist for `full` only.
    pub label: &'static str,
    /// Dataset scale handed to every registered experiment.
    pub suite_scale: f64,
    /// Edges / vertices of the power-law `.gps` store that ingress streams.
    pub store_edges: u64,
    /// See `store_edges`.
    pub store_vertices: u64,
    /// Edges of the LiveJournal analogue the engines run on.
    pub graph_edges: u64,
    /// Edges / vertices of the power-law store that serving starts from.
    pub serve_edges: u64,
    /// See `serve_edges`.
    pub serve_vertices: u64,
    /// Simulated serving horizon in seconds.
    pub serve_horizon_s: f64,
}

impl Sizes {
    /// The workload sizes: the issue's sizes cut 4x (input size, after
    /// repetitions) so that a run with its set-up fits the driver's budget
    /// while one repetition still lasts about a second.
    pub fn full() -> Sizes {
        Sizes {
            label: "full",
            suite_scale: 0.02,
            store_edges: 1_000_000,
            store_vertices: 62_500,
            graph_edges: 1_000_000,
            serve_edges: 250_000,
            serve_vertices: 15_625,
            serve_horizon_s: 150.0,
        }
    }

    /// The layer probes' sizes: every layer's entry points once, in a few
    /// seconds, identically in every traced run.
    pub fn probe() -> Sizes {
        Sizes {
            label: "probe",
            suite_scale: 0.005,
            store_edges: 250_000,
            store_vertices: 15_625,
            graph_edges: 250_000,
            serve_edges: 100_000,
            serve_vertices: 6_250,
            serve_horizon_s: 60.0,
        }
    }

    /// Sizes for the harness self-test.
    #[cfg(test)]
    pub fn tiny() -> Sizes {
        Sizes {
            label: "tiny",
            suite_scale: 0.002,
            store_edges: 20_000,
            store_vertices: 1_250,
            graph_edges: 10_000,
            serve_edges: 10_000,
            serve_vertices: 625,
            serve_horizon_s: 20.0,
        }
    }
}
