//! Round-trip guarantees of the `.gps` format: encode → (mmap or bytes) →
//! decode reproduces the source adjacency exactly — including empty
//! adjacency, isolated vertices, duplicate edges, and max-degree hubs — and
//! every corruption (bit flips anywhere, truncation at any length) is
//! rejected by `open`/`verify`, never silently decoded.

use gp_core::{collect_edge_list, Edge, EdgeList, StreamingEdges, VertexId};
use gp_store::{builder, GraphStore};
use proptest::prelude::*;

/// Arbitrary graph with isolated trailing vertices and duplicate edges.
fn arb_graph() -> impl proptest::strategy::Strategy<Value = EdgeList> {
    (
        1u64..80,
        proptest::collection::vec((0u64..80, 0u64..80), 1..300),
    )
        .prop_map(|(n, pairs)| {
            let edges: Vec<Edge> = pairs
                .into_iter()
                .map(|(a, b)| Edge::new(a % n, b % n))
                .collect();
            // n itself may exceed every endpoint: isolated trailing vertices.
            EdgeList::with_vertex_count(edges, n).expect("ids in range")
        })
}

fn store_bytes(graph: &EdgeList) -> Vec<u8> {
    let mut bytes = Vec::new();
    builder::write_edge_list(std::io::Cursor::new(&mut bytes), graph).expect("build");
    bytes
}

fn canonical(graph: &EdgeList) -> Vec<Edge> {
    let mut edges = graph.edges().to_vec();
    edges.sort_unstable();
    edges
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    #[test]
    fn encode_decode_round_trips_the_sorted_adjacency(graph in arb_graph()) {
        let store = GraphStore::open_bytes(store_bytes(&graph)).expect("open");
        let report = store.verify().expect("verify");
        prop_assert_eq!(report.num_edges as usize, graph.num_edges());
        let expected = canonical(&graph);
        // Full stream in canonical order.
        prop_assert_eq!(store.to_edge_list().edges(), &expected[..]);
        prop_assert_eq!(store.num_vertices(), graph.num_vertices());
        // Per-vertex adjacency seek agrees with the stream.
        let mut adj = Vec::new();
        for v in 0..graph.num_vertices() {
            store.adjacency(VertexId(v), &mut adj);
            let direct: Vec<VertexId> = expected
                .iter()
                .filter(|e| e.src.0 == v)
                .map(|e| e.dst)
                .collect();
            prop_assert_eq!(&adj, &direct, "adjacency mismatch at vertex {}", v);
        }
    }

    #[test]
    fn read_edges_is_correct_from_every_offset(graph in arb_graph(), at in 0usize..300) {
        let store = GraphStore::open_bytes(store_bytes(&graph)).expect("open");
        let expected = canonical(&graph);
        let start = at % (expected.len() + 1);
        let mut buf = vec![Edge::new(0u64, 0u64); 7];
        let got = store.read_edges(start, &mut buf);
        let want = (expected.len() - start).min(7);
        prop_assert_eq!(got, want);
        prop_assert_eq!(&buf[..got], &expected[start..start + want]);
    }

    #[test]
    fn any_payload_bit_flip_fails_verify(graph in arb_graph(), which in 0usize..10_000) {
        let mut bytes = store_bytes(&graph);
        let byte = gp_store::HEADER_LEN + which % (bytes.len() - gp_store::HEADER_LEN);
        bytes[byte] ^= 0x40;
        // An `Err` here is the structural check catching it; a header
        // parse can't see payload damage, so on `Ok` verify must.
        if let Ok(store) = GraphStore::open_bytes(bytes) {
            prop_assert!(
                store.verify().is_err(),
                "flipped payload byte {} went undetected", byte
            );
        }
    }

    #[test]
    fn any_truncation_is_rejected(graph in arb_graph(), frac in 0usize..1000) {
        let bytes = store_bytes(&graph);
        let keep = frac * (bytes.len() - 1) / 1000; // strictly shorter
        let truncated = bytes[..keep].to_vec();
        prop_assert!(
            GraphStore::open_bytes(truncated).is_err(),
            "truncation to {} of {} bytes went undetected", keep, bytes.len()
        );
    }
}

/// A low-stride store exercises index-entry agreement on every record; a
/// high-stride store exercises long forward decodes from one entry.
#[test]
fn extreme_strides_round_trip() {
    let graph = EdgeList::from_pairs(
        (0..500u64)
            .flat_map(|i| [(i % 40, (i * 13) % 40), (39, i % 40)])
            .collect(),
    );
    let mut expected = graph.edges().to_vec();
    expected.sort_unstable();
    for stride in [1u32, 2, 7, 64, 100_000] {
        let mut bytes = Vec::new();
        let mut b =
            gp_store::StoreBuilder::new(std::io::Cursor::new(&mut bytes), graph.num_vertices())
                .unwrap()
                .with_stride(stride);
        let mut targets = Vec::new();
        for v in 0..graph.num_vertices() {
            targets.clear();
            targets.extend(expected.iter().filter(|e| e.src.0 == v).map(|e| e.dst));
            b.append_vertex(&targets).unwrap();
        }
        b.finish().unwrap();
        let store = GraphStore::open_bytes(bytes).unwrap();
        store.verify().unwrap();
        assert_eq!(store.header().index_stride, stride);
        assert_eq!(store.to_edge_list().edges(), &expected[..]);
    }
}

/// The shapes the proptest generator only rarely hits, pinned explicitly.
#[test]
fn degenerate_shapes_round_trip() {
    // Entirely isolated vertices (no edges at all).
    let empty = EdgeList::with_vertex_count(Vec::new(), 17).unwrap();
    let store = GraphStore::open_bytes(store_bytes(&empty)).unwrap();
    let report = store.verify().unwrap();
    assert_eq!(report.num_edges, 0);
    assert_eq!(report.empty_vertices, 17);
    assert_eq!(store.read_edges(0, &mut [Edge::new(0u64, 0u64); 4]), 0);

    // Zero vertices.
    let nothing = EdgeList::from_edges(Vec::new());
    let store = GraphStore::open_bytes(store_bytes(&nothing)).unwrap();
    assert_eq!(store.verify().unwrap().num_vertices, 0);

    // One hub holding every edge (max-degree vertex), duplicates included.
    let hub = EdgeList::from_pairs((0..2_000u64).map(|i| (0, i % 50)).collect());
    let store = GraphStore::open_bytes(store_bytes(&hub)).unwrap();
    let report = store.verify().unwrap();
    assert_eq!(report.max_degree, 2_000);
    assert_eq!(store.to_edge_list().edges(), &canonical(&hub)[..]);

    // Self-loops only.
    let loops = EdgeList::from_pairs((0..40u64).map(|i| (i, i)).collect());
    let store = GraphStore::open_bytes(store_bytes(&loops)).unwrap();
    store.verify().unwrap();
    assert_eq!(collect_edge_list(&store).edges(), &canonical(&loops)[..]);
}

/// File-backed path: build on disk, mmap it, verify, and stream — the exact
/// sequence `store build` / `store verify` / `partition` run.
#[test]
fn file_round_trip_through_mmap() {
    let dir = std::env::temp_dir().join("gp-store-roundtrip");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("file_round_trip.gps");
    let graph = EdgeList::from_pairs(
        (0..5_000u64)
            .map(|i| ((i * 7) % 300, (i * i + 3) % 300))
            .collect(),
    );
    let stats = builder::write_edge_list_to_path(&path, &graph).unwrap();
    assert_eq!(stats.num_edges as usize, graph.num_edges());
    assert!(stats.bytes_per_edge() < 16.0, "no compression achieved");
    let store = GraphStore::open(&path).unwrap();
    assert_eq!(store.info().mapping, "mmap");
    store.verify().unwrap();
    assert_eq!(store.to_edge_list().edges(), &canonical(&graph)[..]);
    std::fs::remove_file(&path).ok();
}
