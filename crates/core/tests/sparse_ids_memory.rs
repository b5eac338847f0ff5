//! A text edge list's ids may be anything up to `u64::MAX`; the reader's
//! memory must follow the number of distinct ids, never their values. A
//! counting global allocator measures the bytes one parse asks for: a file
//! of four ids as far apart as `0` and `u64::MAX` costs no more than a
//! two-id file plus a small constant per id.

use gp_core::io::read_edge_list;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    /// Bytes requested by the current thread (the test harness's other
    /// threads must not leak into the count).
    static REQUESTED: Cell<usize> = const { Cell::new(0) };
}

struct Counting;

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the counter is a const-initialised thread-local
// `Cell` with no destructor, so touching it neither allocates nor unwinds.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        REQUESTED.with(|n| n.set(n.get() + layout.size()));
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        REQUESTED.with(|n| n.set(n.get() + new_size));
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Bytes requested while reading `text` back from a file, and the
/// original ids read.
fn parse_cost(text: &str) -> (usize, Vec<u64>) {
    let path = std::env::temp_dir().join(format!("sparse-ids-{}.txt", std::process::id()));
    std::fs::write(&path, text).expect("write the edge list");
    let before = REQUESTED.with(Cell::get);
    let loaded = read_edge_list(&path).expect("the file parses");
    let cost = REQUESTED.with(Cell::get) - before;
    std::fs::remove_file(&path).ok();
    (cost, loaded.original_ids)
}

#[test]
fn ids_far_apart_cost_memory_per_id_not_per_value() {
    /// Bytes a dense id may cost on top of the block buffer: its table
    /// slot or map entry, its `original_ids` slot and its share of an edge.
    const PER_ID: usize = 256;
    let (baseline, ids) = parse_cost("0 1\n");
    assert_eq!(ids, vec![0, 1]);
    // The block buffer is at most 1 MiB, and it is most of the baseline.
    assert!(baseline <= (1 << 20) + 2 * PER_ID, "baseline {baseline} B");

    let text = format!("0 {}\n{} {}\n", u32::MAX, 1u64 << 40, u64::MAX);
    let (cost, ids) = parse_cost(&text);
    assert_eq!(ids, vec![0, u32::MAX as u64, 1 << 40, u64::MAX]);
    assert!(
        cost <= baseline + 4 * PER_ID,
        "4 sparse ids cost {cost} B against {baseline} B for 2 dense ones"
    );
}
