//! The closed-form Grid and PDS picks must stay allocation-free per edge:
//! both once built a candidate `Vec` per call, which put Grid under a third
//! of Random's ingress throughput. So must the greedy HDRF and Oblivious
//! steps, whose replica-set unions once cloned heap sets past 256
//! partitions. A counting global allocator makes "no per-edge allocation
//! grew back" a deterministic fact instead of a timing.

use gp_core::Edge;
use gp_partition::Strategy;
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

#[test]
fn grid_and_pds_assign_without_allocating() {
    const VERTICES: u64 = 5_000;
    for (strategy, parts) in [(Strategy::Grid, 9), (Strategy::Pds, 7)] {
        let mut partitioner = strategy.incremental(parts, VERTICES, 11);
        let before = ALLOCATIONS.with(Cell::get);
        for i in 0..10_000u64 {
            let e = Edge::new((i * 7919) % VERTICES, (i * 104_729 + 13) % VERTICES);
            std::hint::black_box(partitioner.assign(i, e));
        }
        let allocated = ALLOCATIONS.with(Cell::get) - before;
        assert_eq!(allocated, 0, "{strategy:?}: 10k assign calls allocated");
    }
}

#[test]
fn greedy_assign_allocates_nothing_after_warm_up() {
    const VERTICES: u64 = 5_000;
    // Sources from a small hub set, so hub replica sets grow wide.
    let edge = |i: u64| Edge::new((i * 7919) % 97, (i * 104_729 + 13) % VERTICES);
    for strategy in [Strategy::Hdrf, Strategy::Oblivious] {
        for parts in [16, 300] {
            let mut partitioner = strategy.incremental(parts, VERTICES, 11);
            for i in 0..2_000u64 {
                partitioner.assign(i, edge(i));
            }
            let before = ALLOCATIONS.with(Cell::get);
            for i in 2_000..12_000u64 {
                std::hint::black_box(partitioner.assign(i, edge(i)));
            }
            let allocated = ALLOCATIONS.with(Cell::get) - before;
            assert_eq!(
                allocated, 0,
                "{strategy:?} at {parts} partitions: 10k assign calls allocated"
            );
        }
    }
}
