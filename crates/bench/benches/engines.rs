//! Criterion micro-benchmarks: engine superstep throughput per engine kind,
//! and the cost of building the compute-side structures (CSR, replica
//! table, and the fused `Layout` holding both) from an assignment.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use gp_apps::{PageRank, Wcc};
use gp_cluster::ClusterSpec;
use gp_core::CsrGraph;
use gp_engine::{EngineConfig, HybridGas, Layout, Pregel, PregelConfig, ReplicaTable, SyncGas};
use gp_gen::barabasi_albert;
use gp_partition::{PartitionContext, Strategy};

fn bench_engines(c: &mut Criterion) {
    let graph = barabasi_albert(20_000, 8, 4);
    let assignment = Strategy::Hybrid
        .build()
        .partition(&graph, &PartitionContext::new(9).with_seed(4))
        .assignment;
    let mut group = c.benchmark_group("engine-pagerank5");
    group.throughput(Throughput::Elements(graph.num_edges() as u64 * 5));
    let pr = PageRank::fixed(5);

    group.bench_function(BenchmarkId::new("sync-gas", "ba-160k"), |b| {
        let e = SyncGas::new(EngineConfig::new(ClusterSpec::local_9()));
        b.iter(|| e.run(&graph, &assignment, &pr).1.wall_clock_seconds())
    });
    group.bench_function(BenchmarkId::new("hybrid-gas", "ba-160k"), |b| {
        let e = HybridGas::new(EngineConfig::new(ClusterSpec::local_9()));
        b.iter(|| e.run(&graph, &assignment, &pr).1.wall_clock_seconds())
    });
    group.bench_function(BenchmarkId::new("pregel", "ba-160k"), |b| {
        let e = Pregel::new(PregelConfig::new(EngineConfig::new(ClusterSpec::local_9())));
        b.iter(|| {
            e.run(&graph, &assignment, &pr)
                .unwrap()
                .1
                .wall_clock_seconds()
        })
    });
    group.finish();

    let mut group = c.benchmark_group("engine-wcc");
    group.throughput(Throughput::Elements(graph.num_edges() as u64));
    group.bench_function("sync-gas/ba-160k", |b| {
        let e = SyncGas::new(EngineConfig::new(ClusterSpec::local_9()));
        b.iter(|| e.run(&graph, &assignment, &Wcc).1.supersteps())
    });
    group.finish();
}

fn bench_structures(c: &mut Criterion) {
    let graph = barabasi_albert(20_000, 8, 4);
    let assignment = Strategy::Random
        .build()
        .partition(&graph, &PartitionContext::new(9).with_seed(4))
        .assignment;
    let mut group = c.benchmark_group("structures");
    group.throughput(Throughput::Elements(graph.num_edges() as u64));
    group.bench_function("csr-build", |b| {
        b.iter(|| CsrGraph::from_edge_list(&graph).num_edges())
    });
    group.bench_function("replica-table-build", |b| {
        b.iter(|| ReplicaTable::build(&graph, &assignment).num_vertices())
    });
    group.bench_function("layout-build", |b| {
        b.iter(|| Layout::build(&graph, &assignment, 9).csr().num_edges())
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_engines, bench_structures
}
criterion_main!(benches);
