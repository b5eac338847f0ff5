//! Strategy implementations, one module per family. The seven stateless
//! hash strategies are rules, not types: [`hash`] and [`constrained`] hold
//! their per-edge functions, and one partitioner serves them all through
//! [`Strategy::build`](crate::Strategy::build).

pub mod bicut;
pub mod chunking;
pub mod constrained;
pub mod hash;
pub mod hdrf;
pub mod hybrid;
pub mod oblivious;
pub mod vebo;

pub use bicut::{BiCut, FavoriteSide};
pub use chunking::Chunking;
pub use hdrf::Hdrf;
pub use hybrid::{Hybrid, HybridGinger};
pub use oblivious::Oblivious;
pub use vebo::Vebo;

use crate::ingress::IngressReport;
use crate::partitioner::{
    loader_chunks, PartitionContext, PartitionOutcome, HASH_ASSIGN, PARSE_EDGE,
};
use crate::speculative::SpecStats;
use gp_core::StreamingEdges;

/// Per-loader work for a single-pass stateless hash strategy: every loader
/// parses and hash-assigns its block.
pub(crate) fn stateless_loader_work(total_edges: usize, ctx: &PartitionContext) -> Vec<f64> {
    loader_chunks(total_edges, ctx.num_loaders)
        .into_iter()
        .map(|c| c as f64 * (PARSE_EDGE + HASH_ASSIGN))
        .collect()
}

/// Record a finished partitioning run into `ctx.telemetry`. Every strategy
/// calls this from the tail of its `partition`, so one `trace` run captures
/// the same quantities the paper's ingress tables report — edges shipped,
/// replicas/mirrors created, passes, state bytes, replication factor — no
/// matter which strategy ran. Disabled sinks bail before the replica scan,
/// so untraced runs pay nothing.
pub(crate) fn record_ingress_telemetry(
    strategy: &'static str,
    graph: &dyn StreamingEdges,
    outcome: &PartitionOutcome,
    ctx: &PartitionContext,
) {
    let sink = &ctx.telemetry;
    if !sink.is_enabled() {
        return;
    }
    // Storage-source observability: only emitted for non-memory sources, so
    // traces of in-memory runs (the golden files) stay byte-identical.
    if graph.source_kind() != "memory" {
        if let Some(bytes) = graph.storage_bytes() {
            sink.counter_add("ingress.source_bytes", bytes);
        }
    }
    let report = IngressReport::from_outcome(strategy, outcome, ctx.num_loaders);
    sink.counter_add(
        "ingress.edges_placed",
        outcome.assignment.num_edges() as u64,
    );
    sink.counter_add("ingress.edges_shipped", report.volumes.edges_shipped);
    sink.counter_add("ingress.replicas_created", report.volumes.replicas_created);
    sink.counter_add("ingress.mirrors_created", report.volumes.mirrors_created);
    sink.counter_add("ingress.passes", u64::from(report.passes));
    sink.counter_add("ingress.state_bytes", report.state_bytes);
    sink.gauge_set("ingress.replication_factor", report.replication_factor);
    sink.gauge_set("ingress.edge_imbalance", report.edge_imbalance);
    for w in &report.loader_work {
        sink.histogram_record(
            "ingress.loader_work_units",
            &gp_telemetry::sink::WORK_BUCKETS,
            *w,
        );
    }
    // Real-parallelism observability. Only emitted when threads > 1, so a
    // `--threads 1` trace stays byte-identical to the pre-parallel format;
    // the `par` category / `par.` prefix let identity tests compare traces
    // across thread counts modulo exactly these entries.
    if ctx.par.is_parallel() {
        let threads = ctx.par.effective_threads();
        let chunks = gp_par::chunk_ranges(outcome.assignment.num_edges(), threads);
        sink.gauge_set("par.threads", threads as f64);
        sink.counter_add("par.ingress_chunks", chunks.len() as u64);
        // One span per ingress worker on its machine lane; duration is the
        // chunk's *simulated* parse+assign work (deterministic), not
        // wall-clock, matching the simulated-seconds contract of the trace.
        let per_edge = PARSE_EDGE + HASH_ASSIGN;
        for (i, r) in chunks.iter().enumerate() {
            sink.record_machine_span(
                "par",
                format!("par.ingress.worker{i}"),
                i as u32,
                0.0,
                r.len() as f64 * per_edge * 1e-6,
            );
        }
    }
}

/// Record a windowed speculative run's counters. Only emitted when the
/// window is actually on (`window >= 2`), and under the `par.` prefix that
/// trace-identity comparisons already strip — so every golden trace and
/// byte-identity gate for non-windowed runs is untouched.
pub(crate) fn record_speculation_telemetry(ctx: &PartitionContext, stats: &SpecStats) {
    let sink = &ctx.telemetry;
    if !sink.is_enabled() || ctx.window < 2 {
        return;
    }
    // The configured window is only meaningful when fixed; under
    // `--window auto` the observed `par.spec_window_size` gauge carries the
    // controller's trajectory instead.
    if ctx.window != crate::speculative::WINDOW_AUTO {
        sink.gauge_set("par.window_size", f64::from(ctx.window));
    }
    sink.gauge_set("par.spec_window_size", stats.max_window as f64);
    sink.gauge_set("par.spec_repair_rate", stats.repair_rate());
    sink.counter_add("par.spec_windows", stats.windows);
    sink.counter_add("par.spec_edges", stats.speculated);
    sink.counter_add("par.spec_repaired", stats.repaired);
    sink.counter_add("par.spec_shrinks", stats.shrinks);
}
