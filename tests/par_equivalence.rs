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
//! The windowed speculative ingress path (`--window >= 2`) deliberately
//! relaxes byte-identity *versus the one-edge-at-a-time drive* — state is
//! frozen per window — so its contract is gated separately by the
//! `stateful_parity` block below: bit-identical output across thread counts
//! at a fixed window (`threads = 1` runs every block inline, `threads >= 2`
//! overlaps loader blocks on the pipeline, so the same comparison pins
//! "block overlap moves no byte"), `window 1 ≡ window 0`, and RF/balance
//! within 5% (plus a discreteness allowance on the tiny proptest graphs) of
//! window 0 otherwise.

use distgraph::apps::{PageRank, Wcc};
use distgraph::cluster::ClusterSpec;
use distgraph::core::{edge_digest, Edge, EdgeList, StreamingEdges, VertexId};
use distgraph::engine::{Engine, EngineConfig, Model};
use distgraph::partition::strategies::{BiCut, Chunking, Vebo};
use distgraph::partition::{
    write_assignment, PartitionContext, Partitioner, Strategy, WINDOW_AUTO,
};
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

/// HDRF and Oblivious, the strategies with a windowed speculative ingress
/// path, then the riders: Hybrid and H-Ginger have no windowed path (their
/// passes are parallel maps around H-Ginger's one sequential scan), so they
/// ride along to pin that every window leaves their bytes equal to window 0.
const STATEFUL: [Strategy; 4] = [
    Strategy::Hdrf,
    Strategy::Oblivious,
    Strategy::Hybrid,
    Strategy::HybridGinger,
];

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
    windowed_bytes(graph, partitioner, parts, seed, threads, 0)
}

/// [`assignment_bytes`] with the speculative-ingress window set; `0` is the
/// default one-edge-at-a-time drive.
fn windowed_bytes(
    graph: &dyn StreamingEdges,
    partitioner: &mut dyn Partitioner,
    parts: u32,
    seed: u64,
    threads: u32,
    window: u32,
) -> Vec<u8> {
    let ctx = PartitionContext::new(parts)
        .with_seed(seed)
        .with_threads(threads)
        .with_window(window);
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

    // The quality-parity contract of windowed speculative ingress, on
    // random graphs × {HDRF, Oblivious, Hybrid, H-Ginger} × threads
    // {1, 2, 4, 7}:
    //
    // 1. at a fixed window the output is bit-identical across thread
    //    counts (speculation is deterministic; threads only change who
    //    scores a chunk, and whether loader blocks run inline at
    //    `threads = 1` or overlapped on the block pipeline above it);
    // 2. `window == 1` is the same one-edge-at-a-time drive as
    //    `window == 0`, byte-identical by construction;
    // 3. at `window >= 2` replication factor and edge imbalance stay
    //    within 5% of window 0 — plus a discreteness
    //    allowance, because on graphs this small (≤60 vertices, ≤240
    //    edges, 9 partitions) a single legitimately re-drawn tie-break
    //    moves RF by 2/|V| and imbalance by p/|E|, quanta far coarser
    //    than 5%. The strict relative-5% gate runs on a realistic-size
    //    graph in `windowed_hdrf_holds_strict_parity_at_scale` below.
    #[test]
    fn stateful_parity(
        graph in arb_graph(),
        seed in 0u64..1000,
    ) {
        let n = graph.num_vertices() as f64;
        let m = graph.num_edges() as f64;
        for strategy in STATEFUL {
            let label = strategy.label();
            let seq = windowed_bytes(&graph, &mut *strategy.build(), 9, seed, 1, 0);
            let rider = matches!(strategy, Strategy::Hybrid | Strategy::HybridGinger);
            for window in [4u32, 16, WINDOW_AUTO] {
                let fixed = windowed_bytes(&graph, &mut *strategy.build(), 9, seed, 1, window);
                if rider {
                    prop_assert_eq!(
                        &fixed, &seq,
                        "{} has no windowed path, yet window={} moved it", label, window
                    );
                }
                for threads in [2u32, 4, 7] {
                    let par = windowed_bytes(&graph, &mut *strategy.build(), 9, seed, threads, window);
                    prop_assert_eq!(
                        &fixed, &par,
                        "{} window={} diverges at {} threads", label, window, threads
                    );
                }
            }
            let w1 = windowed_bytes(&graph, &mut *strategy.build(), 9, seed, 1, 1);
            prop_assert_eq!(
                &seq, &w1,
                "{} window=1 must equal window=0 byte-for-byte", label
            );
            let ctx_seq = PartitionContext::new(9).with_seed(seed);
            let ctx_win = PartitionContext::new(9).with_seed(seed).with_window(16);
            let a = strategy.build().partition(&graph, &ctx_seq).assignment;
            let b = strategy.build().partition(&graph, &ctx_win).assignment;
            let (rf_s, rf_w) = (a.replication_factor(), b.replication_factor());
            let (bal_s, bal_w) = (a.balance().imbalance, b.balance().imbalance);
            // Additive discreteness terms: a re-drawn tie can move RF by
            // 2/|V| per affected edge, and within one window up to
            // `window` edges may commit against a stale balance signal,
            // shifting the heaviest partition by `window` edges, i.e.
            // imbalance by window*p/m. Both terms vanish at realistic
            // scale (window << m/p) — the strict relative-5% bound is
            // enforced in `windowed_hdrf_holds_strict_parity_at_scale`.
            let rf_slack = 0.05 * rf_s + 2.0 * 9.0 / n;
            let bal_slack = 0.05 * bal_s + 16.0 * 9.0 / m;
            // One-sided: windowed must not be *worse* than sequential by
            // more than the slack; strictly better is never a failure.
            prop_assert!(
                rf_w - rf_s <= rf_slack,
                "{}: windowed RF {:.4} vs sequential {:.4} (slack {:.4})",
                label, rf_w, rf_s, rf_slack
            );
            prop_assert!(
                bal_w - bal_s <= bal_slack,
                "{}: windowed imbalance {:.4} vs sequential {:.4} (slack {:.4})",
                label, bal_w, bal_s, bal_slack
            );
        }
    }

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

/// The strict relative-5% half of the windowed parity contract, where the
/// discreteness allowance of the proptest block vanishes: a realistic
/// power-law graph at the bench's shape (degree ~10, 9 partitions) and the
/// bench's production window (4096).
#[test]
fn windowed_hdrf_holds_strict_parity_at_scale() {
    let graph = distgraph::gen::barabasi_albert(20_000, 8, 3);
    for strategy in STATEFUL {
        let label = strategy.label();
        let seq = strategy
            .build()
            .partition(&graph, &PartitionContext::new(9).with_seed(3))
            .assignment;
        let win = strategy
            .build()
            .partition(
                &graph,
                &PartitionContext::new(9).with_seed(3).with_window(4096),
            )
            .assignment;
        // One-sided gaps: the contract is "no more than 5% *worse* than
        // the sequential kernel" — frozen in-window degrees sometimes make
        // the windowed kernel strictly better, which must not fail the gate.
        let rf_gap = win.replication_factor() / seq.replication_factor() - 1.0;
        let bal_gap = win.balance().imbalance / seq.balance().imbalance - 1.0;
        assert!(
            rf_gap <= 0.05,
            "{label}: windowed RF {:.4} vs sequential {:.4} ({:.2}% off)",
            win.replication_factor(),
            seq.replication_factor(),
            rf_gap * 100.0
        );
        assert!(
            bal_gap <= 0.05,
            "{label}: windowed imbalance {:.4} vs sequential {:.4} ({:.2}% off)",
            win.balance().imbalance,
            seq.balance().imbalance,
            bal_gap * 100.0
        );
    }
}

/// `--window auto` at realistic scale: the adaptive controller's window
/// schedule is a pure function of the committed edge stream, so the output
/// must stay bit-identical across thread counts {1, 2, 4, 7} — blocks
/// inline at 1 thread, overlapped on the block pipeline above it — even as
/// windows grow and shrink. Multiple loader blocks (9) exercise the
/// per-block controller reset and the block pipeline together.
#[test]
fn auto_window_is_thread_identical_at_scale() {
    let graph = distgraph::gen::barabasi_albert(20_000, 8, 3);
    for strategy in STATEFUL {
        let label = strategy.label();
        let base = windowed_bytes(&graph, &mut *strategy.build(), 9, 3, 1, WINDOW_AUTO);
        for threads in [2u32, 4, 7] {
            let par = windowed_bytes(&graph, &mut *strategy.build(), 9, 3, threads, WINDOW_AUTO);
            assert_eq!(
                base, par,
                "{label} --window auto diverges at {threads} threads"
            );
        }
    }
}

/// A conflict storm must make the adaptive controller shrink its window: a
/// pure star graph routes every edge through the hub, so each speculated
/// edge after a window's first finds the hub stamped and repairs — repair
/// rate ~1, far over the shrink threshold. The shrink count is observable
/// through the `par.spec_shrinks` telemetry counter, the repair rate
/// through its gauge, and the placements stay thread-identical throughout.
#[test]
fn conflict_storm_forces_window_shrink() {
    use distgraph::telemetry::TelemetrySink;
    let edges: Vec<Edge> = (1..=6_000u64).map(|i| Edge::new(0u64, i)).collect();
    let graph = EdgeList::with_vertex_count(edges, 6_001).expect("ids in range");
    let sink = TelemetrySink::recording();
    let ctx = PartitionContext::new(9)
        .with_seed(3)
        .with_loaders(1)
        .with_window(WINDOW_AUTO)
        .with_telemetry(sink.clone());
    let storm = Strategy::Hdrf.build().partition(&graph, &ctx).assignment;
    assert!(
        sink.counter("par.spec_shrinks") >= 1,
        "a ~100% repair-rate stream must shrink the window at least once \
         (shrinks = {})",
        sink.counter("par.spec_shrinks")
    );
    let rate = sink
        .metrics()
        .gauge("par.spec_repair_rate")
        .expect("repair-rate gauge");
    assert!(
        rate > 0.4,
        "star-graph repair rate {rate} should be a storm"
    );
    // Determinism holds under the storm too.
    let again = Strategy::Hdrf
        .build()
        .partition(&graph, &ctx.clone().with_telemetry(TelemetrySink::Disabled))
        .assignment;
    assert_eq!(storm.edge_partitions(), again.edge_partitions());
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
