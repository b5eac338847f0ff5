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
use gp_core::{for_each_edge, DegreeTable, StreamingEdges};
use gp_par::ParConfig;

/// Per-loader work for a single-pass stateless hash strategy: every loader
/// parses and hash-assigns its block.
pub(crate) fn stateless_loader_work(total_edges: usize, ctx: &PartitionContext) -> Vec<f64> {
    loader_chunks(total_edges, ctx.num_loaders)
        .into_iter()
        .map(|c| c as f64 * (PARSE_EDGE + HASH_ASSIGN))
        .collect()
}

/// Per-vertex in/out degrees computed in parallel: each chunk counts into a
/// thread-local [`DegreeTable`] shard, shards merge in chunk order.
/// Elementwise integer addition is chunking-invariant, so the result is
/// byte-identical to [`gp_core::EdgeList::degrees`] at every thread count —
/// property-tested in `crates/partition/tests/shard_merge.rs`. Hybrid's and
/// VEBO's degree pass.
pub fn sharded_degree_table(graph: &dyn StreamingEdges, par: &ParConfig) -> DegreeTable {
    let n = graph.num_vertices() as usize;
    let mut shards = gp_par::map_chunks(par, graph.num_edges(), |range| {
        let mut shard = DegreeTable::zeroed(n);
        for_each_edge(graph, range, |e| shard.record(e));
        shard
    });
    if shards.len() == 1 {
        return shards.pop().expect("one shard");
    }
    let mut table = DegreeTable::zeroed(n);
    for shard in &shards {
        table.merge_from(shard);
    }
    table
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use gp_core::{EdgeList, VertexId};

    #[test]
    fn sharded_degrees_match_sequential_at_every_thread_count() {
        let g = gp_gen::barabasi_albert(500, 4, 11);
        let seq = g.degrees();
        for threads in [1u32, 2, 4, 7] {
            let par = sharded_degree_table(&g, &ParConfig::new(threads));
            for v in 0..g.num_vertices() {
                let v = VertexId(v);
                assert_eq!(par.in_degree(v), seq.in_degree(v), "threads={threads}");
                assert_eq!(par.out_degree(v), seq.out_degree(v), "threads={threads}");
            }
        }
    }

    #[test]
    fn empty_graph_has_an_empty_degree_table() {
        let g = EdgeList::from_pairs(Vec::new());
        assert_eq!(sharded_degree_table(&g, &ParConfig::new(4)).len(), 0);
    }
}
