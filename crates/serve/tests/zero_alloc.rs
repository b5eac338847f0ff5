//! Serving reads must not allocate: once a serve run has ingested its base
//! graph, a k-hop or state read only touches scratch sized up front and a
//! fixed latency table. A counting global allocator turns that into a
//! deterministic fact: a query-only plan twice as long allocates exactly as
//! often.
//!
//! Churn may allocate only where the graph grows: inserts extend the edge
//! arrays and adjacency lists, while the replica refcounts are one table
//! sized up front. `churn_allocations_per_thousand_events` bounds both
//! rates; run it with `--nocapture` to see the figures.

use gp_core::{Edge, EdgeList, PartitionId, Rng, Splitmix64};
use gp_partition::Strategy;
use gp_serve::{serve, DriftPolicy, IncrementalAssignment, ServeConfig, TrafficPlan, TrafficRates};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    /// Allocations made by the current thread (the test harness's other
    /// threads must not leak into the count).
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

struct Counting;

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the counter is a const-initialised thread-local
// `Cell` with no destructor, so touching it neither allocates nor unwinds.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

const HORIZON_S: f64 = 4.0;

fn base_graph() -> EdgeList {
    gp_gen::barabasi_albert(2_000, 5, 3)
}

fn config() -> ServeConfig {
    let mut cfg = ServeConfig::new(Strategy::Hdrf);
    cfg.policy = DriftPolicy {
        max_imbalance: f64::INFINITY,
        max_rf_growth: f64::INFINITY,
        ..DriftPolicy::default()
    };
    cfg
}

/// Allocations made by one serve run, and how many events it replayed.
fn allocations(g: &EdgeList, rates: &TrafficRates, horizon_s: f64) -> (u64, u64) {
    let plan = TrafficPlan::generate(5, g.num_vertices(), 4, horizon_s, rates);
    let cfg = config();
    let before = ALLOCATIONS.with(Cell::get);
    std::hint::black_box(serve(g, &plan, &cfg));
    (
        ALLOCATIONS.with(Cell::get) - before,
        plan.events.len() as u64,
    )
}

#[test]
fn queries_allocate_nothing() {
    let g = base_graph();
    let queries_only = TrafficRates::default().with_churn_scale(0.0);
    let (short, short_events) = allocations(&g, &queries_only, HORIZON_S);
    let (long, long_events) = allocations(&g, &queries_only, 2.0 * HORIZON_S);
    assert!(
        long_events > short_events + 1_000,
        "the longer plan adds queries"
    );
    assert_eq!(
        long,
        short,
        "{} more queries cost {} more allocations",
        long_events - short_events,
        long as i64 - short as i64
    );
}

#[test]
fn churn_allocations_per_thousand_events() {
    let g = base_graph();
    let only = |inserts_per_s, deletes_per_s| TrafficRates {
        inserts_per_s,
        deletes_per_s,
        khop_per_s: 0.0,
        reads_per_s: 0.0,
        max_hops: 1,
    };
    // Inserts grow the edge arrays and adjacency lists; deletes only
    // tombstone and unlink.
    for (kind, rates, bound) in [
        ("inserts", only(100.0, 0.0), 105.0),
        ("deletes", only(0.0, 100.0), 0.0),
    ] {
        let (short, short_events) = allocations(&g, &rates, HORIZON_S);
        let (long, long_events) = allocations(&g, &rates, 2.0 * HORIZON_S);
        let per_thousand = (long as f64 - short as f64) * 1e3 / (long_events - short_events) as f64;
        println!("{kind}: {per_thousand:.1} allocations per 1,000");
        assert!(
            per_thousand <= bound,
            "{kind}: {per_thousand:.1} allocations per 1,000, bound {bound}"
        );
    }
}

#[test]
fn incremental_assignment_updates_allocate_nothing() {
    const VERTICES: u64 = 2_000;
    const PARTS: u64 = 9;
    let mut delta = IncrementalAssignment::new(VERTICES, PARTS as u32, 7);
    let mut placed: Vec<(Edge, PartitionId)> = Vec::with_capacity(10_000);
    let mut rng = Splitmix64::new(3);
    let before = ALLOCATIONS.with(Cell::get);
    for _ in 0..10_000 {
        let part = PartitionId(rng.next_below(PARTS) as u32);
        match rng.next_below(4) {
            0 if !placed.is_empty() => {
                let at = rng.next_below(placed.len() as u64) as usize;
                let (e, p) = placed.swap_remove(at);
                delta.remove(e, p);
            }
            1 if !placed.is_empty() => {
                let at = rng.next_below(placed.len() as u64) as usize;
                let (e, p) = placed[at];
                delta.move_edge(e, p, part);
                placed[at].1 = part;
            }
            _ => {
                let e = Edge::new(rng.next_below(VERTICES), rng.next_below(VERTICES));
                delta.add(e, part);
                placed.push((e, part));
            }
        }
    }
    let allocations = ALLOCATIONS.with(Cell::get) - before;
    std::hint::black_box(delta.replication_factor());
    assert_eq!(
        allocations, 0,
        "10,000 updates allocated {allocations} times"
    );
}
