//! # gp-par — deterministic bounded parallelism primitives
//!
//! The whole repo's value rests on bit-reproducible runs: the paper's
//! findings are ordinal, so a report that changes with the thread count
//! would be worthless. This crate provides the small execution layer that
//! lets ingress and the engines use multiple threads *without* changing a
//! single output byte:
//!
//! * [`ParConfig`] — the `--threads N` knob (default `1` = sequential,
//!   `0` = available parallelism).
//! * [`run_ordered`] — a bounded worker pool over `std::thread::scope`
//!   that runs a task list and returns results **in task order**,
//!   regardless of which worker finished first. At one worker it runs the
//!   tasks inline: the only place that decides "sequential or not".
//! * [`map_chunks`] / [`fill_chunks`] — split an index range into
//!   deterministic chunks (a pure function of `(total, workers)`, never of
//!   runtime scheduling) and run one task per chunk on that pool.
//!
//! ## The ordered-reduction rule
//!
//! Callers stay byte-identical across thread counts by obeying one rule:
//! per-chunk results are merged *in chunk order*, and every merge operator
//! is insensitive to where the chunk boundaries fall — concatenation of
//! per-element maps, sorted-set union, and integer elementwise addition all
//! qualify. Floating-point accumulation does **not** (f64 addition is not
//! associative), so no f64 sum is ever split across chunks.

use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Thread-count knob shared by the CLI, `Pipeline`, `PartitionContext` and
/// `EngineConfig`. `threads == 1` (the default) keeps every code path
/// inline with zero spawned threads; `threads == 0` resolves to the
/// machine's available parallelism at call time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ParConfig {
    /// Requested worker count. `0` means "use available parallelism".
    pub threads: u32,
}

impl Default for ParConfig {
    fn default() -> Self {
        Self { threads: 1 }
    }
}

impl ParConfig {
    pub fn new(threads: u32) -> Self {
        Self { threads }
    }

    /// Resolved worker count: `0` maps to `available_parallelism()`
    /// (falling back to 1 when the platform cannot report it).
    pub fn effective_threads(&self) -> usize {
        match self.threads {
            0 => std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
            n => n as usize,
        }
    }

    /// Whether any code path should spawn worker threads at all.
    pub fn is_parallel(&self) -> bool {
        self.effective_threads() > 1
    }
}

/// Split `0..total` into at most `workers` contiguous ranges whose sizes
/// differ by at most one, never emitting an empty range. Purely a function
/// of its arguments: chunk boundaries are part of the deterministic
/// contract, not a scheduling artifact.
///
/// Boundary behavior: `total == 0` yields no chunks; `total < workers`
/// yields `total` single-element chunks; remainders go to the earliest
/// chunks (first `total % workers` chunks are one element longer).
fn chunk_ranges(total: usize, workers: usize) -> Vec<Range<usize>> {
    if total == 0 {
        return Vec::new();
    }
    let workers = workers.max(1).min(total);
    let base = total / workers;
    let rem = total % workers;
    let mut out = Vec::with_capacity(workers);
    let mut start = 0;
    for i in 0..workers {
        let len = base + usize::from(i < rem);
        out.push(start..start + len);
        start += len;
    }
    out
}

/// Run `tasks` on a pool of at most `threads` scoped workers and return the
/// results **in task order**. With `threads <= 1` (or a single task) the
/// tasks run inline on the caller's thread — that is the `--threads 1`
/// sequential path, byte-identical by construction.
///
/// Workers pull task indices from a shared atomic counter, so *which*
/// worker runs a task is nondeterministic — but each result lands in the
/// slot of its task index, so the returned vector never is.
pub fn run_ordered<T, F>(threads: usize, tasks: Vec<F>) -> Vec<T>
where
    T: Send,
    F: FnOnce() -> T + Send,
{
    let n = tasks.len();
    let workers = threads.max(1).min(n);
    if workers <= 1 {
        return tasks.into_iter().map(|t| t()).collect();
    }
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<F>>> = tasks.into_iter().map(|t| Mutex::new(Some(t))).collect();
    let results: Vec<Mutex<Option<T>>> = (0..n).map(|_| Mutex::new(None)).collect();
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                let task = slots[i]
                    .lock()
                    .expect("task slot lock")
                    .take()
                    .expect("each task index is claimed exactly once");
                let out = task();
                *results[i].lock().expect("result slot lock") = Some(out);
            });
        }
    });
    results
        .into_iter()
        .map(|m| {
            m.into_inner()
                .expect("result slot lock")
                .expect("every claimed task stores its result")
        })
        .collect()
}

/// Chunk `0..total` per `chunk_ranges` and map each chunk with `f` on
/// the [`run_ordered`] pool, returning per-chunk results in chunk order. At
/// one thread that is a single inline call over the whole range.
pub fn map_chunks<T, F>(par: &ParConfig, total: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(Range<usize>) -> T + Sync,
{
    let workers = par.effective_threads();
    let f = &f;
    let tasks: Vec<_> = chunk_ranges(total, workers)
        .into_iter()
        .map(|r| move || f(r))
        .collect();
    run_ordered(workers, tasks)
}

/// Chunk `0..out.len()` per `chunk_ranges` and fill each chunk of `out`
/// in place: `f` receives the index range a chunk covers and the mutable
/// sub-slice for exactly that range. The slices are disjoint
/// (`split_at_mut`), so each output index is written by exactly one worker
/// with a value that can only depend on the index — determinism needs no
/// merge step at all. This is the zero-copy variant of [`map_chunks`] for
/// element-wise transforms into a pre-allocated buffer.
pub fn fill_chunks<T, F>(par: &ParConfig, out: &mut [T], f: F)
where
    T: Send,
    F: Fn(Range<usize>, &mut [T]) + Sync,
{
    let workers = par.effective_threads();
    let f = &f;
    let mut rest = out;
    let mut tasks = Vec::new();
    for r in chunk_ranges(rest.len(), workers) {
        let (slice, tail) = rest.split_at_mut(r.len());
        rest = tail;
        tasks.push(move || f(r, slice));
    }
    run_ordered(workers, tasks);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_sequential() {
        let par = ParConfig::default();
        assert_eq!(par.threads, 1);
        assert_eq!(par.effective_threads(), 1);
        assert!(!par.is_parallel());
    }

    #[test]
    fn zero_resolves_to_available_parallelism() {
        let par = ParConfig::new(0);
        let n = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        assert_eq!(par.effective_threads(), n);
    }

    #[test]
    fn chunk_ranges_empty_input_yields_no_chunks() {
        assert!(chunk_ranges(0, 4).is_empty());
        assert!(chunk_ranges(0, 0).is_empty());
    }

    #[test]
    fn chunk_ranges_fewer_items_than_workers() {
        // |E| < threads: one chunk per item, none empty.
        let ranges = chunk_ranges(3, 8);
        assert_eq!(ranges, vec![0..1, 1..2, 2..3]);
    }

    #[test]
    fn chunk_ranges_non_divisible_remainder() {
        // |E| % threads != 0: earliest chunks absorb the remainder.
        let ranges = chunk_ranges(10, 4);
        assert_eq!(ranges, vec![0..3, 3..6, 6..8, 8..10]);
    }

    #[test]
    fn chunk_ranges_cover_exactly_once() {
        for total in [0usize, 1, 2, 7, 64, 1000] {
            for workers in [0usize, 1, 2, 3, 7, 13, 2000] {
                let ranges = chunk_ranges(total, workers);
                let mut next = 0;
                for r in &ranges {
                    assert_eq!(r.start, next, "gap at {total}/{workers}");
                    assert!(r.end > r.start, "empty chunk at {total}/{workers}");
                    next = r.end;
                }
                assert_eq!(next, total, "coverage at {total}/{workers}");
            }
        }
    }

    #[test]
    fn run_ordered_preserves_task_order() {
        for threads in [1usize, 2, 7] {
            let tasks: Vec<_> = (0..23u64).map(|i| move || i * i).collect();
            let out = run_ordered(threads, tasks);
            let expect: Vec<u64> = (0..23).map(|i| i * i).collect();
            assert_eq!(out, expect, "threads={threads}");
        }
    }

    #[test]
    fn run_ordered_handles_empty_and_single() {
        let none: Vec<fn() -> u32> = Vec::new();
        assert!(run_ordered::<u32, _>(4, none).is_empty());
        assert_eq!(run_ordered(4, vec![|| 42u32]), vec![42]);
    }

    #[test]
    fn map_chunks_concatenation_is_chunking_invariant() {
        let data: Vec<u64> = (0..101).map(|i| i * 3 + 1).collect();
        let seq: Vec<u64> = data.clone();
        for threads in [1u32, 2, 3, 7] {
            let par = ParConfig::new(threads);
            let chunks = map_chunks(&par, data.len(), |r| data[r].to_vec());
            let flat: Vec<u64> = chunks.into_iter().flatten().collect();
            assert_eq!(flat, seq, "threads={threads}");
        }
    }

    #[test]
    fn map_chunks_runs_one_task_per_chunk_in_order() {
        let idx = map_chunks(&ParConfig::new(4), 16, |r| r.start);
        assert_eq!(idx, vec![0, 4, 8, 12]);
        assert_eq!(map_chunks(&ParConfig::new(1), 16, |r| r), vec![0..16]);
        assert!(map_chunks(&ParConfig::new(4), 0, |r| r).is_empty());
    }

    #[test]
    fn fill_chunks_writes_every_slot_exactly_like_sequential() {
        for threads in [1u32, 2, 3, 7] {
            for total in [0usize, 1, 5, 100, 101] {
                let par = ParConfig::new(threads);
                let mut out = vec![0u64; total];
                fill_chunks(&par, &mut out, |range, slice| {
                    for (slot, i) in slice.iter_mut().zip(range) {
                        *slot = (i as u64) * 3 + 1;
                    }
                });
                let expect: Vec<u64> = (0..total as u64).map(|i| i * 3 + 1).collect();
                assert_eq!(out, expect, "threads={threads} total={total}");
            }
        }
    }
}
