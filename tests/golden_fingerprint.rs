//! Behaviour lock for the ingress kernels: a stable fingerprint of everything
//! they can observably change — full assignment state (edge partitions,
//! sorted replica lists, masters, counts) plus engine reports, over a spread
//! of graphs × partitioners × thread counts — must equal
//! `tests/golden_fingerprint.txt` byte for byte. Every cell is partitioned
//! twice more, streamed off a store and from the identical sorted edges in
//! memory, and any divergence between those two panics. A change that re-pins
//! a strategy regenerates the golden file and says so; on a mismatch the
//! actual listing is left under `target/tmp/` for a plain `diff`.

use distgraph::apps::PageRank;
use distgraph::cluster::ClusterSpec;
use distgraph::core::{StreamingEdges, VertexId};
use distgraph::engine::{Engine, EngineConfig, Model};
use distgraph::partition::strategies::{BiCut, Chunking, Vebo};
use distgraph::partition::{PartitionContext, PartitionOutcome, Partitioner, Strategy};
use std::fmt::Write as _;
use std::path::Path;

/// Order-sensitive FNV-style digest over the full observable assignment
/// state: edge partitions, sorted replica lists, masters, counts, RF,
/// mirrors, loader work, and state bytes.
fn assignment_digest(out: &PartitionOutcome, num_vertices: u64) -> u64 {
    let a = &out.assignment;
    let mut h: u64 = 0xcbf29ce484222325;
    let mut mix = |x: u64| {
        h ^= x;
        h = h.wrapping_mul(0x100000001b3);
    };
    for p in a.edge_partitions() {
        mix(p.0 as u64);
    }
    for v in 0..num_vertices {
        let v = VertexId(v);
        mix(0xfeed);
        for &r in a.replicas(v) {
            mix(r as u64);
        }
        mix(a.master_of(v).0 as u64);
    }
    for &c in a.edge_counts() {
        mix(c);
    }
    mix((a.replication_factor() * 1e9) as u64);
    mix(a.total_mirrors());
    for c in a.replica_counts() {
        mix(c);
    }
    for c in a.master_counts() {
        mix(c);
    }
    for &w in &out.loader_work {
        mix((w * 1e9) as u64);
    }
    mix(out.state_bytes);
    h
}

fn kernel_fingerprint() -> String {
    let mut text = String::new();
    let graphs = vec![
        ("er", distgraph::gen::erdos_renyi(800, 6_000, 3)),
        ("ba", distgraph::gen::barabasi_albert(1_500, 6, 7)),
        (
            "road",
            distgraph::gen::road_network(
                &distgraph::gen::RoadNetworkParams {
                    width: 30,
                    height: 30,
                    ..Default::default()
                },
                5,
            ),
        ),
    ];
    let mut partitioners: Vec<(String, Box<dyn Partitioner>, u32)> = Strategy::ALL
        .into_iter()
        .map(|s| {
            let parts = if s == Strategy::Pds { 7 } else { 9 };
            (s.label().to_string(), s.build(), parts)
        })
        .collect();
    partitioners.push(("BiCut".into(), Box::new(BiCut::default()), 9));
    partitioners.push(("Chunking".into(), Box::new(Chunking), 9));
    partitioners.push(("VEBO".into(), Box::new(Vebo), 9));

    for (gname, graph) in &graphs {
        // The same edges as a compressed in-memory `.gps` store. Streamed
        // ingress consumes them in (src, dst)-sorted order, so its in-memory
        // reference is `store.to_edge_list()`, not the generator's order.
        let mut bytes = std::io::Cursor::new(Vec::new());
        distgraph::store::write_edge_list(&mut bytes, graph).expect("build store");
        let store =
            distgraph::store::GraphStore::open_bytes(bytes.into_inner()).expect("reopen store");
        let sorted = store.to_edge_list();
        for (pname, partitioner, parts) in &mut partitioners {
            for threads in [1u32, 2, 4] {
                let ctx = PartitionContext::new(*parts)
                    .with_seed(11)
                    .with_threads(threads);
                let out = partitioner.partition(graph, &ctx);
                let h = assignment_digest(&out, graph.num_vertices());
                let streamed = partitioner.partition(&store, &ctx);
                let stream_h = assignment_digest(&streamed, store.num_vertices());
                let sorted_h =
                    assignment_digest(&partitioner.partition(&sorted, &ctx), sorted.num_vertices());
                assert_eq!(
                    stream_h, sorted_h,
                    "{gname} {pname} t{threads}: streamed store ingress diverges from the \
                     in-memory partition of the same sorted edges"
                );
                writeln!(
                    text,
                    "{gname} {pname} t{threads} assign={h:016x} stream={stream_h:016x} \
                     work={:.6} state_bytes={} passes={}",
                    out.loader_work.iter().sum::<f64>(),
                    out.state_bytes,
                    out.passes
                )
                .expect("write to a String");
                if threads == 1 {
                    let config = EngineConfig::new(ClusterSpec::local_9()).with_threads(1);
                    let (states, report) = Engine::new(config, Model::Sync)
                        .run(graph, &out.assignment, &PageRank::fixed(3))
                        .unwrap();
                    let mut h2: u64 = 0xcbf29ce484222325;
                    for s in format!("{states:?}|{report:?}").bytes() {
                        h2 ^= s as u64;
                        h2 = h2.wrapping_mul(0x100000001b3);
                    }
                    writeln!(text, "{gname} {pname} engine={h2:016x}").expect("write to a String");
                }
            }
        }
    }
    text
}

#[test]
fn kernels_produce_the_pinned_fingerprint() {
    let golden = include_str!("golden_fingerprint.txt");
    let actual = kernel_fingerprint();
    if actual != golden {
        let dump = Path::new(env!("CARGO_TARGET_TMPDIR")).join("golden_fingerprint.actual.txt");
        std::fs::write(&dump, &actual).expect("write actual fingerprint");
        for (n, (want, got)) in golden.lines().zip(actual.lines()).enumerate() {
            assert_eq!(
                want,
                got,
                "line {} of tests/golden_fingerprint.txt moved (pinned vs now); full listing: {}",
                n + 1,
                dump.display()
            );
        }
        panic!(
            "fingerprint has {} lines, tests/golden_fingerprint.txt {}; full listing: {}",
            actual.lines().count(),
            golden.lines().count(),
            dump.display()
        );
    }
}
