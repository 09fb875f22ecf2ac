//! A dependency-free work-stealing thread pool for data-parallel loops.
//!
//! The workspace's numeric kernels and sweep drivers are embarrassingly
//! parallel over *disjoint output regions* — matrix rows, block-sparse
//! block-rows, (model, strategy, length) sweep combos. This crate provides
//! exactly that shape of parallelism and nothing else:
//!
//! * [`parallel_chunks_mut`] — fixed-size chunks of one mutable slice
//!   (the `par_chunks_mut` shape the vendored `rayon` facade delegates to).
//! * [`parallel_ranges_mut`] — variable-length contiguous ranges of one
//!   mutable slice (block-sparse block-rows have ragged widths).
//! * [`parallel_chunks_mut3`] — three slices chunked in lockstep (kernels
//!   that write one wide output plus per-row side outputs, e.g. the fused
//!   `Q·Kᵀ`+LS epilogue producing `X'`, `m'`, `d'`).
//! * [`parallel_map`] — index-ordered map over a shared slice (sweep
//!   binaries fan combos out and print results in deterministic order).
//!
//! # Execution model
//!
//! Work items are dealt into per-worker deques as contiguous index ranges
//! (preserving locality), then `std::thread::scope` spawns one worker per
//! deque. Each worker pops *its own* deque from the front; when empty it
//! steals from the *back* of a victim's deque. Items only ever leave deques,
//! so an empty full scan proves global completion and workers exit without
//! any further synchronization.
//!
//! # Determinism contract
//!
//! Every entry point hands each closure invocation a disjoint output region
//! identified by a stable index. The closure's arithmetic depends only on
//! that index and on shared read-only inputs — never on scheduling — so
//! results are bit-identical at any thread count, including the serial
//! fallback. Reduction axes are *never* split across workers: a parallel
//! reduction would need a combine step whose association order (and hence
//! floating-point rounding) depends on timing. See `DESIGN.md` §8.
//!
//! # Thread-count selection
//!
//! [`num_threads`] resolves, in order: the programmatic override
//! ([`set_thread_override`], used by benchmarks to compare 1 vs N in one
//! process), the `RESOFTMAX_THREADS` environment variable, then
//! [`std::thread::available_parallelism`]. At 1 thread every entry point
//! degrades to a plain sequential loop with no pool machinery. Nested calls
//! from inside a worker also run sequentially (the outermost loop owns the
//! hardware), so parallel sweeps calling parallel kernels do not oversubscribe.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::cell::Cell;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Programmatic thread-count override; `0` means "not set".
static THREAD_OVERRIDE: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// Set while the current thread is a pool worker: nested parallel calls
    /// run sequentially instead of spawning a second level of threads.
    static IN_POOL: Cell<bool> = const { Cell::new(false) };
}

/// Elements below this count run sequentially in [`parallel_chunks_mut`] /
/// [`parallel_chunks_mut3`]: spawning scoped threads costs tens of
/// microseconds, which dwarfs the work of a tiny matrix. Results are
/// bit-identical either way; this is purely a latency heuristic.
const MIN_PARALLEL_ELEMS: usize = 4096;

/// Overrides the thread count for subsequent parallel regions.
///
/// `Some(n)` forces `n` workers (1 = serial); `None` restores the
/// environment/hardware default. Process-global: intended for benchmark
/// harnesses that time serial vs parallel in one process, not for scoping.
pub fn set_thread_override(n: Option<usize>) {
    THREAD_OVERRIDE.store(n.unwrap_or(0), Ordering::SeqCst);
}

/// The number of workers a parallel region started now would use.
///
/// Resolution order: [`set_thread_override`] value, then the
/// `RESOFTMAX_THREADS` environment variable (non-numeric or zero values are
/// ignored), then [`std::thread::available_parallelism`], then 1.
pub fn num_threads() -> usize {
    let forced = THREAD_OVERRIDE.load(Ordering::SeqCst);
    if forced > 0 {
        return forced;
    }
    if let Ok(s) = std::env::var("RESOFTMAX_THREADS") {
        if let Ok(n) = s.trim().parse::<usize>() {
            if n > 0 {
                return n;
            }
        }
    }
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// `true` while called from inside a pool worker (nested regions serialize).
pub fn in_parallel_region() -> bool {
    IN_POOL.with(Cell::get)
}

/// The work-stealing executor: deals `entries` into per-worker deques and
/// runs `f` on every entry exactly once. `entries` must be nonempty and
/// `workers >= 2` (callers handle the serial cases).
fn execute<T: Send, F>(entries: Vec<(usize, T)>, workers: usize, f: &F)
where
    F: Fn(usize, T) + Sync,
{
    let n = entries.len();
    let workers = workers.min(n);
    let mut deques: Vec<Mutex<VecDeque<(usize, T)>>> =
        (0..workers).map(|_| Mutex::new(VecDeque::new())).collect();
    // Deal contiguous index ranges: entry e goes to worker e·W/n, giving each
    // worker a run of neighboring chunks (locality) of near-equal length.
    for (e, entry) in entries.into_iter().enumerate() {
        let w = e * workers / n;
        deques[w]
            .get_mut()
            .expect("fresh mutex cannot be poisoned")
            .push_back(entry);
    }
    let deques = &deques;
    std::thread::scope(|scope| {
        for w in 0..workers {
            scope.spawn(move || {
                IN_POOL.with(|c| c.set(true));
                loop {
                    // Owner end: front of our own deque.
                    let own = deques[w].lock().expect("worker panicked").pop_front();
                    if let Some((i, item)) = own {
                        f(i, item);
                        continue;
                    }
                    // Steal end: back of the first non-empty victim.
                    let mut stolen = None;
                    for off in 1..workers {
                        let v = (w + off) % workers;
                        stolen = deques[v].lock().expect("worker panicked").pop_back();
                        if stolen.is_some() {
                            break;
                        }
                    }
                    match stolen {
                        Some((i, item)) => f(i, item),
                        // All deques empty: no item can reappear, so done.
                        None => break,
                    }
                }
                IN_POOL.with(|c| c.set(false));
            });
        }
    });
}

/// Decides whether a region over `n_items` work items (covering
/// `total_elems` slice elements) runs in parallel, and with how many workers.
fn plan(n_items: usize, total_elems: usize, min_elems: usize) -> Option<usize> {
    let threads = num_threads();
    if threads <= 1 || n_items <= 1 || total_elems < min_elems || in_parallel_region() {
        return None;
    }
    Some(threads)
}

/// Runs `f(chunk_index, chunk)` over non-overlapping mutable chunks of
/// length `chunk_size` (last may be shorter), in parallel across workers.
///
/// Equivalent to `data.chunks_mut(chunk_size).enumerate().for_each(..)` —
/// bit-identically so, at any thread count, provided `f` writes only through
/// its chunk (the types enforce this) and reads only shared inputs.
///
/// # Panics
///
/// Panics if `chunk_size` is zero, or propagates a panic from `f`.
pub fn parallel_chunks_mut<T, F>(data: &mut [T], chunk_size: usize, f: F)
where
    T: Send,
    F: Fn(usize, &mut [T]) + Sync,
{
    assert!(chunk_size != 0, "chunk_size must be non-zero");
    let _span = resoftmax_obs::span!("parallel_chunks_mut", "parallel");
    let n_chunks = data.len().div_ceil(chunk_size);
    match plan(n_chunks, data.len(), MIN_PARALLEL_ELEMS) {
        None => {
            for (i, chunk) in data.chunks_mut(chunk_size).enumerate() {
                f(i, chunk);
            }
        }
        Some(workers) => {
            let entries: Vec<(usize, &mut [T])> = data.chunks_mut(chunk_size).enumerate().collect();
            execute(entries, workers, &f);
        }
    }
}

/// Runs `f(range_index, range)` over variable-length contiguous ranges of
/// `data`, where `lens[i]` is the length of range `i` (zero-length ranges
/// are visited with an empty slice).
///
/// This is the ragged counterpart of [`parallel_chunks_mut`], used for
/// block-sparse block-rows whose retained-block counts differ per row.
///
/// # Panics
///
/// Panics if `lens` does not sum to `data.len()`, or propagates from `f`.
pub fn parallel_ranges_mut<T, F>(data: &mut [T], lens: &[usize], f: F)
where
    T: Send,
    F: Fn(usize, &mut [T]) + Sync,
{
    assert_eq!(
        lens.iter().sum::<usize>(),
        data.len(),
        "range lengths must cover the slice exactly"
    );
    let _span = resoftmax_obs::span!("parallel_ranges_mut", "parallel");
    match plan(lens.len(), data.len().max(lens.len()), 0) {
        None => {
            let mut rest = data;
            for (i, &len) in lens.iter().enumerate() {
                let (range, tail) = rest.split_at_mut(len);
                f(i, range);
                rest = tail;
            }
        }
        Some(workers) => {
            let mut entries: Vec<(usize, &mut [T])> = Vec::with_capacity(lens.len());
            let mut rest = data;
            for (i, &len) in lens.iter().enumerate() {
                let (range, tail) = rest.split_at_mut(len);
                entries.push((i, range));
                rest = tail;
            }
            execute(entries, workers, &|i, range| f(i, range));
        }
    }
}

/// Runs `f(i, chunk_a, chunk_b, chunk_c)` over three slices chunked in
/// lockstep: chunk `i` of `a` has length `ca`, of `b` length `cb`, of `c`
/// length `cc`. All three must yield the same number of chunks.
///
/// Kernels with one wide output and narrow per-row side outputs (fused
/// `Q·Kᵀ`+LS writes `X'` rows plus `m'`/`d'` rows) parallelize over rows
/// without restructuring their storage.
///
/// # Panics
///
/// Panics if any chunk size is zero or the chunk counts disagree, or
/// propagates a panic from `f`.
pub fn parallel_chunks_mut3<T, U, V, F>(
    a: &mut [T],
    ca: usize,
    b: &mut [U],
    cb: usize,
    c: &mut [V],
    cc: usize,
    f: F,
) where
    T: Send,
    U: Send,
    V: Send,
    F: Fn(usize, &mut [T], &mut [U], &mut [V]) + Sync,
{
    assert!(
        ca != 0 && cb != 0 && cc != 0,
        "chunk sizes must be non-zero"
    );
    let n_chunks = a.len().div_ceil(ca);
    assert_eq!(n_chunks, b.len().div_ceil(cb), "chunk counts disagree");
    assert_eq!(n_chunks, c.len().div_ceil(cc), "chunk counts disagree");
    let _span = resoftmax_obs::span!("parallel_chunks_mut3", "parallel");
    let total = a.len() + b.len() + c.len();
    match plan(n_chunks, total, MIN_PARALLEL_ELEMS) {
        None => {
            for ((i, (xa, xb)), xc) in a
                .chunks_mut(ca)
                .zip(b.chunks_mut(cb))
                .enumerate()
                .zip(c.chunks_mut(cc))
            {
                f(i, xa, xb, xc);
            }
        }
        Some(workers) => {
            type Entry<'s, T, U, V> = (usize, (&'s mut [T], &'s mut [U], &'s mut [V]));
            let entries: Vec<Entry<'_, T, U, V>> = a
                .chunks_mut(ca)
                .zip(b.chunks_mut(cb))
                .zip(c.chunks_mut(cc))
                .map(|((xa, xb), xc)| (xa, xb, xc))
                .enumerate()
                .collect();
            execute(entries, workers, &|i, (xa, xb, xc)| f(i, xa, xb, xc));
        }
    }
}

/// Maps `f` over `items` in parallel, returning results in item order.
///
/// The order of the returned vector (and therefore anything printed from
/// it afterwards) is independent of scheduling — sweep binaries rely on
/// this for byte-identical serial-vs-parallel output. Unlike the chunk
/// entry points, no element-count heuristic applies: even two items go
/// parallel, because sweep items are individually heavy.
///
/// # Panics
///
/// Propagates a panic from `f`.
pub fn parallel_map<I, R, F>(items: &[I], f: F) -> Vec<R>
where
    I: Sync,
    R: Send,
    F: Fn(usize, &I) -> R + Sync,
{
    let _span = resoftmax_obs::span!("parallel_map", "parallel");
    let mut out: Vec<Option<R>> = Vec::new();
    out.resize_with(items.len(), || None);
    match plan(items.len(), usize::MAX, 0) {
        None => {
            for (i, slot) in out.iter_mut().enumerate() {
                *slot = Some(f(i, &items[i]));
            }
        }
        Some(workers) => {
            let entries: Vec<(usize, &mut [Option<R>])> = out.chunks_mut(1).enumerate().collect();
            execute(entries, workers, &|i, slot: &mut [Option<R>]| {
                slot[0] = Some(f(i, &items[i]));
            });
        }
    }
    out.into_iter()
        .map(|r| r.expect("every index visited exactly once"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    /// Forces a worker count for one test body, restoring the default after.
    /// Tests in this crate share the process-global override, so they run
    /// under a lock to avoid trampling each other.
    fn with_threads<R>(n: usize, body: impl FnOnce() -> R) -> R {
        static GUARD: Mutex<()> = Mutex::new(());
        let _g = GUARD.lock().unwrap();
        set_thread_override(Some(n));
        let r = body();
        set_thread_override(None);
        r
    }

    #[test]
    fn chunks_visit_every_chunk_once_parallel() {
        with_threads(4, || {
            let mut data = vec![0u32; 10_000];
            parallel_chunks_mut(&mut data, 3, |i, chunk| {
                for x in chunk {
                    *x += 1 + i as u32;
                }
            });
            for (e, &x) in data.iter().enumerate() {
                assert_eq!(x, 1 + (e / 3) as u32);
            }
        });
    }

    #[test]
    fn parallel_matches_serial_bitwise() {
        let run = |threads: usize| {
            with_threads(threads, || {
                let mut data: Vec<f64> = (0..9999).map(|i| f64::from(i as u32) * 0.1).collect();
                parallel_chunks_mut(&mut data, 7, |i, chunk| {
                    let mut acc = 0.0f64;
                    for x in chunk.iter() {
                        acc += x.sin();
                    }
                    for x in chunk.iter_mut() {
                        *x = acc * (i as f64 + 1.0);
                    }
                });
                data
            })
        };
        let serial = run(1);
        assert_eq!(serial, run(2));
        assert_eq!(serial, run(8));
    }

    #[test]
    fn small_slices_stay_serial_but_correct() {
        with_threads(8, || {
            let mut data = vec![1u8; 16]; // below MIN_PARALLEL_ELEMS
            parallel_chunks_mut(&mut data, 4, |i, c| c.fill(i as u8));
            assert_eq!(&data[..4], &[0; 4]);
            assert_eq!(&data[12..], &[3; 4]);
        });
    }

    #[test]
    #[should_panic(expected = "chunk_size must be non-zero")]
    fn zero_chunk_size_panics() {
        parallel_chunks_mut(&mut [0u8; 4], 0, |_, _| {});
    }

    #[test]
    fn ranges_cover_ragged_rows() {
        with_threads(4, || {
            let mut data = vec![0u32; 10];
            let lens = [3, 0, 5, 2];
            parallel_ranges_mut(&mut data, &lens, |i, range| {
                range.fill(i as u32 + 1);
            });
            assert_eq!(data, [1, 1, 1, 3, 3, 3, 3, 3, 4, 4]);
        });
    }

    #[test]
    #[should_panic(expected = "cover the slice exactly")]
    fn ranges_must_cover() {
        parallel_ranges_mut(&mut [0u8; 4], &[1, 2], |_, _| {});
    }

    #[test]
    fn chunks3_locksteps_three_slices() {
        with_threads(4, || {
            let rows = 800;
            let mut a = vec![0u32; rows * 8];
            let mut b = vec![0u16; rows * 2];
            let mut c = vec![0u8; rows];
            parallel_chunks_mut3(&mut a, 8, &mut b, 2, &mut c, 1, |i, xa, xb, xc| {
                xa.fill(i as u32);
                xb.fill(i as u16);
                xc.fill(1);
            });
            assert_eq!(a[8 * 13], 13);
            assert_eq!(b[2 * 13], 13);
            assert!(c.iter().all(|&x| x == 1));
        });
    }

    #[test]
    #[should_panic(expected = "chunk counts disagree")]
    fn chunks3_rejects_mismatched_counts() {
        parallel_chunks_mut3(
            &mut [0u8; 4],
            2,
            &mut [0u8; 9],
            2,
            &mut [0u8; 2],
            1,
            |_, _, _, _| {},
        );
    }

    #[test]
    fn map_preserves_order() {
        with_threads(8, || {
            let items: Vec<usize> = (0..500).collect();
            let out = parallel_map(&items, |i, &x| {
                assert_eq!(i, x);
                x * 2
            });
            assert_eq!(out, (0..500).map(|x| x * 2).collect::<Vec<_>>());
        });
    }

    #[test]
    fn nested_regions_serialize() {
        with_threads(4, || {
            let inner_parallel = AtomicUsize::new(0);
            let items: Vec<usize> = (0..8).collect();
            parallel_map(&items, |_, _| {
                assert!(in_parallel_region());
                // A nested region must not spawn: plan() returns None.
                let mut data = vec![0u8; 10_000];
                parallel_chunks_mut(&mut data, 16, |_, c| c.fill(1));
                if data.iter().all(|&x| x == 1) {
                    inner_parallel.fetch_add(1, Ordering::Relaxed);
                }
            });
            assert!(!in_parallel_region());
            assert_eq!(inner_parallel.load(Ordering::Relaxed), 8);
        });
    }

    #[test]
    fn stealing_drains_imbalanced_deques() {
        // One huge chunk pins a worker; the others must steal the rest.
        with_threads(4, || {
            let mut data = vec![0u64; 64 * 1024];
            let lens: Vec<usize> = std::iter::once(60 * 1024)
                .chain(std::iter::repeat_n(64, 64))
                .collect();
            parallel_ranges_mut(&mut data, &lens, |_, range| {
                let mut acc = 0u64;
                for (e, x) in range.iter_mut().enumerate() {
                    acc = acc.wrapping_add(e as u64);
                    *x = acc;
                }
            });
            assert!(data[60 * 1024 - 1] > 0);
        });
    }

    #[test]
    fn override_beats_env_and_restores() {
        with_threads(3, || assert_eq!(num_threads(), 3));
        // After restoration the default resolution path is active again.
        assert!(num_threads() >= 1);
    }
}
