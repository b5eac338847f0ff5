//! The serve report: every number a run produced, rendered deterministically.
//!
//! Determinism is a hard guarantee, not an aspiration: the CI smoke job
//! diffs two renders byte-for-byte, so everything here is fixed-precision
//! formatting over values that are themselves pure functions of
//! `(snapshot, plan, config)`.

use crate::latency::LATENCY_BOUNDS_S;
use gp_telemetry::Histogram;
use std::fmt::Write as _;

/// Query classes with their own latency histograms.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QueryClass {
    /// One-hop neighborhood read.
    KHop1,
    /// Two-hop neighborhood read.
    KHop2,
    /// Vertex-state read.
    State,
}

impl QueryClass {
    /// Every class, in report order.
    pub const ALL: [QueryClass; 3] = [QueryClass::KHop1, QueryClass::KHop2, QueryClass::State];

    /// The class's name in the report.
    pub fn label(self) -> &'static str {
        match self {
            QueryClass::KHop1 => "khop1",
            QueryClass::KHop2 => "khop2",
            QueryClass::State => "state",
        }
    }
}

/// Serving phases: steady state vs. degraded (repair in flight).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// No repair in flight.
    Steady,
    /// Queries contend with an in-flight repair.
    Degraded,
}

impl Phase {
    /// Every phase, in report order.
    pub const ALL: [Phase; 2] = [Phase::Steady, Phase::Degraded];

    /// The phase's name in the report.
    pub fn label(self) -> &'static str {
        match self {
            Phase::Steady => "steady",
            Phase::Degraded => "degraded",
        }
    }
}

/// One latency histogram per (class, phase), all on `LATENCY_BOUNDS_S`.
pub(crate) type LatencyTable = [[Histogram; 2]; 3];

/// An empty [`LatencyTable`]: recording into it never allocates.
pub(crate) fn latency_table() -> LatencyTable {
    std::array::from_fn(|_| std::array::from_fn(|_| Histogram::new(&LATENCY_BOUNDS_S)))
}

/// One repair the drift policy triggered.
#[derive(Debug, Clone, PartialEq)]
pub struct RepairRecord {
    /// Simulated time the repair fired.
    pub time_s: f64,
    /// `"rebalance"` or `"repartition"`.
    pub kind: &'static str,
    /// Human-readable specifics (edges moved, partitions involved).
    pub detail: String,
    /// Simulated seconds the repair occupied the cluster (the degraded
    /// window's length).
    pub cost_s: f64,
}

/// Everything one serve run produced.
#[derive(Debug, Clone)]
pub struct ServeReport {
    /// Strategy name as printed in the paper's figures.
    pub strategy: &'static str,
    /// Cluster the run was priced on.
    pub cluster: &'static str,
    /// Partition count.
    pub num_partitions: u32,
    /// Run seed (partitioning and traffic).
    pub seed: u64,
    /// Sessions in the traffic plan.
    pub sessions: u32,
    /// Serving horizon in simulated seconds.
    pub horizon_s: f64,
    /// Edges in the base snapshot.
    pub base_edges: usize,
    /// Live edges when the horizon closed.
    pub final_edges: usize,
    /// Applied insert / delete / query event counts.
    pub inserts: u64,
    /// Deletes actually applied (a delete against an empty graph is a no-op).
    pub deletes: u64,
    /// Queries answered.
    pub queries: u64,
    /// Replication factor right after base ingress.
    pub base_rf: f64,
    /// Replication factor at the horizon.
    pub final_rf: f64,
    /// Edge imbalance right after base ingress.
    pub base_imbalance: f64,
    /// Edge imbalance at the horizon.
    pub final_imbalance: f64,
    /// Repairs in trigger order.
    pub repairs: Vec<RepairRecord>,
    /// Latency histograms, indexed by class then phase.
    pub(crate) latency: LatencyTable,
}

impl ServeReport {
    /// Record one query latency.
    pub fn record_latency(&mut self, class: QueryClass, phase: Phase, seconds: f64) {
        self.latency[class as usize][phase as usize].record(seconds);
    }

    /// The latency histogram of one (class, phase) cell, or `None` when no
    /// query landed there.
    pub fn latency(&self, class: QueryClass, phase: Phase) -> Option<&Histogram> {
        let h = &self.latency[class as usize][phase as usize];
        (h.count() > 0).then_some(h)
    }

    /// How many repairs of `kind` fired.
    pub fn repair_count(&self, kind: &str) -> usize {
        self.repairs.iter().filter(|r| r.kind == kind).count()
    }

    /// Render the full report. Byte-identical across runs with the same
    /// inputs — the CI smoke test diffs this output.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "serve report");
        let _ = writeln!(
            out,
            "  strategy {} on {} ({} partitions), seed {}",
            self.strategy, self.cluster, self.num_partitions, self.seed
        );
        let _ = writeln!(
            out,
            "  horizon {:.1} s, {} sessions",
            self.horizon_s, self.sessions
        );
        let _ = writeln!(
            out,
            "  edges: base {}, final {} ({} inserts, {} deletes)",
            self.base_edges, self.final_edges, self.inserts, self.deletes
        );
        let _ = writeln!(out, "  queries answered: {}", self.queries);
        let _ = writeln!(
            out,
            "  replication factor: base {:.4}, final {:.4}",
            self.base_rf, self.final_rf
        );
        let _ = writeln!(
            out,
            "  edge imbalance: base {:.4}, final {:.4}",
            self.base_imbalance, self.final_imbalance
        );
        let _ = writeln!(out, "latency (ms)");
        let _ = writeln!(
            out,
            "  {:<8} {:<9} {:>8} {:>10} {:>10} {:>10}",
            "class", "phase", "count", "p50", "p99", "p999"
        );
        for class in QueryClass::ALL {
            for phase in Phase::ALL {
                let Some(h) = self.latency(class, phase) else {
                    continue;
                };
                let _ = writeln!(
                    out,
                    "  {:<8} {:<9} {:>8} {:>10.4} {:>10.4} {:>10.4}",
                    class.label(),
                    phase.label(),
                    h.count(),
                    h.p50() * 1e3,
                    h.p99() * 1e3,
                    h.p999() * 1e3
                );
            }
        }
        let _ = writeln!(
            out,
            "rebalances triggered: {}",
            self.repair_count("rebalance")
        );
        let _ = writeln!(
            out,
            "repartitions triggered: {}",
            self.repair_count("repartition")
        );
        for r in &self.repairs {
            let _ = writeln!(
                out,
                "  t={:>8.3} s  {:<11} {:>8.4} s  {}",
                r.time_s, r.kind, r.cost_s, r.detail
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn blank() -> ServeReport {
        ServeReport {
            strategy: "HDRF",
            cluster: "Local-9",
            num_partitions: 9,
            seed: 42,
            sessions: 4,
            horizon_s: 60.0,
            base_edges: 1_000,
            final_edges: 1_100,
            inserts: 300,
            deletes: 200,
            queries: 500,
            base_rf: 2.5,
            final_rf: 2.7,
            base_imbalance: 1.01,
            final_imbalance: 1.2,
            repairs: Vec::new(),
            latency: latency_table(),
        }
    }

    #[test]
    fn render_is_stable_and_greppable() {
        let mut r = blank();
        r.record_latency(QueryClass::State, Phase::Steady, 2e-4);
        r.record_latency(QueryClass::KHop1, Phase::Degraded, 3e-3);
        r.repairs.push(RepairRecord {
            time_s: 12.5,
            kind: "rebalance",
            detail: "moved 40 edges p0 -> p3".into(),
            cost_s: 0.8,
        });
        let a = r.render();
        let b = r.render();
        assert_eq!(a, b);
        assert!(a.contains("rebalances triggered: 1"), "{a}");
        assert!(a.contains("repartitions triggered: 0"), "{a}");
        assert!(a.contains("khop1"), "{a}");
        assert!(a.contains("state"), "{a}");
    }

    #[test]
    fn empty_histogram_cells_are_omitted() {
        let mut r = blank();
        r.record_latency(QueryClass::State, Phase::Steady, 2e-4);
        assert!(r.latency(QueryClass::State, Phase::Degraded).is_none());
        let text = r.render();
        assert!(!text.contains("degraded  "), "{text}");
    }

    #[test]
    fn repair_counts_split_by_kind() {
        let mut r = blank();
        for kind in ["rebalance", "rebalance", "repartition"] {
            r.repairs.push(RepairRecord {
                time_s: 1.0,
                kind,
                detail: String::new(),
                cost_s: 0.1,
            });
        }
        assert_eq!(r.repair_count("rebalance"), 2);
        assert_eq!(r.repair_count("repartition"), 1);
    }
}
