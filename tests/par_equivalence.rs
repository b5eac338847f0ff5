//! The headline guarantee of the deterministic-parallel layer (`gp-par`):
//! every assignment, compute report, and vertex state is **byte-identical**
//! at any thread count. Parallelism may only change speed.
//!
//! Proptest drives random graphs through all fourteen partitioners (the
//! eleven `Strategy` variants plus BiCut, Chunking and VEBO) and all four
//! engines at thread counts {1, 2, 4, 7}, comparing the serialized
//! artifacts. The compared bytes cover the full observable `Assignment`
//! state — per-edge partitions, masters, replica lists in sorted order, all
//! derived counts, and the digest of the edge stream it placed — so a
//! divergence anywhere in the bitset/CSR replica kernels (not just in edge
//! placement) fails the suite.
//!
//! HDRF and Oblivious reach that guarantee by construction: each loader
//! block is driven one edge at a time by its own kernel, and the blocks run
//! concurrently on the ordered pool at `threads >= 2` and one after another
//! at `threads = 1`, so the same comparison pins "block scheduling moves no
//! byte".

use distgraph::apps::{PageRank, Wcc};
use distgraph::cluster::ClusterSpec;
use distgraph::core::{edge_digest, Edge, EdgeList, Rng, StreamingEdges, VertexId};
use distgraph::engine::{Engine, EngineConfig, Model};
use distgraph::partition::strategies::{BiCut, Chunking, Vebo};
use distgraph::partition::{write_assignment, PartitionContext, Partitioner, Strategy};
use proptest::prelude::*;
// The partition::Strategy enum shadows proptest's Strategy trait; re-import
// the trait anonymously for method syntax.
use proptest::strategy::Strategy as _;

/// Every engine model, GraphX on its default executors.
const MODELS: [Model; 4] = [Model::Sync, Model::Hybrid, Model::Async, Model::GRAPHX];

/// Arbitrary small graph: up to 60 vertices, up to 240 edges.
fn arb_graph() -> impl proptest::strategy::Strategy<Value = EdgeList> {
    (
        2u64..60,
        proptest::collection::vec((0u64..60, 0u64..60), 1..240),
    )
        .prop_map(|(n, pairs)| {
            let edges: Vec<Edge> = pairs
                .into_iter()
                .map(|(a, b)| Edge::new(a % n, b % n))
                .collect();
            EdgeList::with_vertex_count(edges, n).expect("ids in range")
        })
}

/// All fourteen partitioners, each with a partition count it supports
/// (PDS needs p²+p+1).
fn all_partitioners() -> Vec<(String, Box<dyn Partitioner>, u32)> {
    let mut out: Vec<(String, Box<dyn Partitioner>, u32)> = Strategy::ALL
        .into_iter()
        .map(|s| {
            let parts = if s == Strategy::Pds { 7 } else { 9 };
            (s.label().to_string(), s.build(), parts)
        })
        .collect();
    out.push(("BiCut".into(), Box::new(BiCut::default()), 9));
    out.push(("Chunking".into(), Box::new(Chunking), 9));
    out.push(("VEBO".into(), Box::new(Vebo), 9));
    out
}

/// The serialized assignment a partitioner produces at a given thread
/// count: the persisted form (edge partitions + masters) plus every other
/// observable — sorted replica lists, bitset/CSR agreement, edge counts,
/// replica/master counts, RF, mirrors, ingress accounting, and the digest of
/// the edge stream, which must be the stream's own.
fn assignment_bytes(
    graph: &dyn StreamingEdges,
    partitioner: &mut dyn Partitioner,
    parts: u32,
    seed: u64,
    threads: u32,
) -> Vec<u8> {
    let ctx = PartitionContext::new(parts)
        .with_seed(seed)
        .with_threads(threads);
    let outcome = partitioner.partition(graph, &ctx);
    let a = &outcome.assignment;
    assert_eq!(
        a.stream_digest(),
        edge_digest(graph),
        "the placed stream's digest"
    );
    let mut buf = Vec::new();
    write_assignment(a, &mut buf).expect("serialize");
    use std::io::Write as _;
    for v in 0..graph.num_vertices() {
        let v = VertexId(v);
        writeln!(buf, "r {v} {:?}", a.replicas(v)).unwrap();
    }
    writeln!(
        buf,
        "counts {:?} {:?} {:?} rf {} mirrors {} work {:?} state {} digest {:#x}",
        a.edge_counts(),
        a.replica_counts(),
        a.master_counts(),
        a.replication_factor(),
        a.total_mirrors(),
        outcome.loader_work,
        outcome.state_bytes,
        a.stream_digest(),
    )
    .unwrap();
    buf
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    #[test]
    fn parallel_ingress_is_byte_identical_for_every_partitioner(
        graph in arb_graph(),
        seed in 0u64..1000,
    ) {
        for (name, mut partitioner, parts) in all_partitioners() {
            let seq = assignment_bytes(&graph, &mut *partitioner, parts, seed, 1);
            for threads in [2u32, 4, 7] {
                let par = assignment_bytes(&graph, &mut *partitioner, parts, seed, threads);
                prop_assert_eq!(
                    &seq, &par,
                    "{} diverges at {} threads", name, threads
                );
            }
        }
    }

    // Same guarantee from the storage layer: partitioning a compressed
    // `.gps` store by streaming it must match partitioning the identical
    // edge sequence held in memory, for every partitioner, at every thread
    // count. The store sorts edges by (src, dst), so the in-memory
    // reference is `store.to_edge_list()` — the same canonical order.
    #[test]
    fn streamed_ingress_matches_in_memory_for_every_partitioner(
        graph in arb_graph(),
        seed in 0u64..1000,
    ) {
        let mut bytes = std::io::Cursor::new(Vec::new());
        distgraph::store::write_edge_list(&mut bytes, &graph).expect("build store");
        let store = distgraph::store::GraphStore::open_bytes(bytes.into_inner())
            .expect("reopen store");
        let in_memory = store.to_edge_list();
        for (name, mut partitioner, parts) in all_partitioners() {
            for threads in [1u32, 2, 4] {
                let mem = assignment_bytes(&in_memory, &mut *partitioner, parts, seed, threads);
                let streamed = assignment_bytes(&store, &mut *partitioner, parts, seed, threads);
                prop_assert_eq!(
                    &mem, &streamed,
                    "{} streamed ingress diverges from memory at {} threads", name, threads
                );
            }
        }
    }

    #[test]
    fn parallel_supersteps_are_byte_identical_for_every_engine(
        graph in arb_graph(),
        seed in 0u64..1000,
    ) {
        let assignment = Strategy::Hdrf
            .build()
            .partition(&graph, &PartitionContext::new(9).with_seed(seed))
            .assignment;
        let spec = ClusterSpec::local_9();
        // (states, report) rendered to bytes for each engine × thread count.
        let run_all = |threads: u32| -> Vec<String> {
            let config = EngineConfig::new(spec.clone()).with_threads(threads);
            let prog = PageRank::fixed(4);
            let engine = |model| Engine::new(config.clone(), model);
            let run = |model| engine(model).run(&graph, &assignment, &prog).expect("fits");
            let [sync, hybrid, async_, pregel] = MODELS.map(run);
            let wcc = engine(Model::Sync).run(&graph, &assignment, &Wcc).unwrap();
            vec![
                format!("{:?}|{:?}", sync.0, sync.1),
                format!("{:?}|{:?}", hybrid.0, hybrid.1),
                format!("{:?}|{:?}", async_.0, async_.1),
                format!("{:?}|{:?}", pregel.0, pregel.1),
                format!("{:?}|{:?}", wcc.0, wcc.1),
            ]
        };
        let seq = run_all(1);
        for threads in [2u32, 4, 7] {
            let par = run_all(threads);
            for (engine, (s, p)) in ["sync", "hybrid", "async", "pregel", "sync-wcc"]
                .iter()
                .zip(seq.iter().zip(par.iter()))
            {
                prop_assert_eq!(s, p, "{} diverges at {} threads", engine, threads);
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    // VEBO is an *ordering* strategy: its placement depends only on the
    // degree sequence, so permuting vertex ids (edge multiset preserved
    // under the relabeling) must permute the assignment with it — the
    // per-partition vertex/edge-count vectors are exactly invariant.
    #[test]
    fn vebo_is_ordering_invariant(
        graph in arb_graph(),
        seed in 0u64..1000,
    ) {
        let n = graph.num_vertices();
        // Deterministic pseudo-random permutation of the vertex ids.
        let mut perm: Vec<u64> = (0..n).collect();
        let mut rng = distgraph::core::Splitmix64::new(seed ^ 0xbe0);
        for i in (1..perm.len()).rev() {
            let j = rng.next_below(i as u64 + 1) as usize;
            perm.swap(i, j);
        }
        let relabeled = EdgeList::with_vertex_count(
            graph
                .edges()
                .iter()
                .map(|e| Edge::new(perm[e.src.index()], perm[e.dst.index()]))
                .collect(),
            n,
        )
        .expect("ids in range");
        let ctx = PartitionContext::new(9).with_seed(seed);
        let base = Vebo.partition(&graph, &ctx).assignment;
        let relab = Vebo.partition(&relabeled, &ctx).assignment;
        // Identical degree sequences → identical LPT evolution → identical
        // partition-level load vectors (sorted: partition *indices* may
        // swap between degree-tied vertices).
        let sorted = |mut v: Vec<u64>| { v.sort_unstable(); v };
        prop_assert_eq!(
            sorted(base.edge_counts().to_vec()),
            sorted(relab.edge_counts().to_vec()),
            "edge loads changed under vertex relabeling"
        );
        // Vertex-balance invariance holds for vertices *with* out-edges:
        // their master is always the LPT owner (the owner holds their
        // out-edges, hence a replica). Zero-out-degree vertices fall back
        // to `replicas[0]`, which depends on where in-edges landed — not a
        // degree-sequence quantity — so they are excluded here.
        let owner_counts = |g: &EdgeList, a: &distgraph::partition::Assignment| {
            let mut out_deg = vec![0u64; n as usize];
            for e in g.edges() {
                out_deg[e.src.index()] += 1;
            }
            let mut counts = vec![0u64; 9];
            for v in 0..n {
                if out_deg[v as usize] > 0 {
                    counts[a.master_of(VertexId(v)).index()] += 1;
                }
            }
            counts
        };
        prop_assert_eq!(
            sorted(owner_counts(&graph, &base)),
            sorted(owner_counts(&relabeled, &relab)),
            "owner vertex counts changed under vertex relabeling"
        );
        // RF is *not* an exact invariant: degree-tied vertices swap
        // partitions under relabeling and tied vertices need not be
        // structurally interchangeable — so only the degree-derived load
        // vectors above are asserted exactly.
    }
}

/// A realistic-size fixed case on top of the proptest sweep: a heavy-tailed
/// LiveJournal analogue through ingress + every engine, including
/// `--threads 0` (all cores), whose effective count depends on the host —
/// exactly what the byte-identity guarantee must absorb.
#[test]
fn realistic_graph_is_byte_identical_at_every_thread_count() {
    let graph = distgraph::gen::Dataset::LiveJournal.generate(0.05, 7);
    for (name, mut partitioner, parts) in all_partitioners() {
        let seq = assignment_bytes(&graph, &mut *partitioner, parts, 5, 1);
        for threads in [2u32, 4, 0] {
            let par = assignment_bytes(&graph, &mut *partitioner, parts, 5, threads);
            assert_eq!(seq, par, "{name} diverges at {threads} threads");
        }
    }
    let assignment = Strategy::Hdrf
        .build()
        .partition(&graph, &PartitionContext::new(9).with_seed(5))
        .assignment;
    let spec = ClusterSpec::local_9();
    let run = |threads: u32| -> String {
        let config = EngineConfig::new(spec.clone()).with_threads(threads);
        let prog = PageRank::fixed(6);
        let [sync, hybrid, async_, pregel] = MODELS.map(|model| {
            let engine = Engine::new(config.clone(), model);
            engine.run(&graph, &assignment, &prog).expect("fits")
        });
        format!(
            "{:?}|{:?}|{:?}|{:?}|{:?}|{:?}|{:?}|{:?}",
            sync.0, sync.1, hybrid.0, hybrid.1, async_.0, async_.1, pregel.0, pregel.1
        )
    };
    let seq = run(1);
    for threads in [2u32, 4, 0] {
        assert_eq!(seq, run(threads), "engines diverge at {threads} threads");
    }
}

/// Speed half of the contract: more threads must actually help on hosts that
/// have the cores — on the stateless path (Random) *and* the stateful
/// greedy path (HDRF). On single-core runners a strict win is impossible,
/// so the assertion degrades to a bounded-overhead check there — the real
/// measurement for that case is `benchmark/`'s `mt-scaling` workload
/// (`par.speedup.*`, and `par.cpu_inflation` for replayed work).
#[test]
fn parallel_ingress_wins_on_multicore_hosts() {
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let graph = distgraph::gen::barabasi_albert(20_000, 10, 1);
    for strategy in [Strategy::Random, Strategy::Hdrf] {
        let time = |threads: u32| -> f64 {
            let ctx = PartitionContext::new(9).with_seed(1).with_threads(threads);
            strategy.build().partition(&graph, &ctx); // warm-up
            let mut best = f64::INFINITY;
            for _ in 0..3 {
                let t0 = std::time::Instant::now();
                let out = strategy.build().partition(&graph, &ctx);
                best = best.min(t0.elapsed().as_secs_f64());
                assert_eq!(out.assignment.num_edges(), graph.num_edges());
            }
            best
        };
        let label = strategy.label();
        let one = time(1);
        let four = time(4);
        if cores >= 4 {
            assert!(
                four <= one,
                "[{label}] 4-thread ingress ({four:.4}s) slower than 1-thread ({one:.4}s) \
                 on {cores} cores"
            );
        } else {
            // Without cores to exploit, 4 workers time-slice one core and
            // debug builds amplify the per-chunk overhead, so only a
            // pathological blow-up (e.g. accidentally duplicated work) fails
            // here. The calibrated numbers are `par.speedup.random` and
            // `par.speedup.hdrf_auto` on `benchmark/`'s `mt-scaling`.
            assert!(
                four < one * 3.0,
                "[{label}] 4-thread ingress ({four:.4}s) pathologically slower than \
                 1-thread ({one:.4}s)"
            );
        }
    }
}
