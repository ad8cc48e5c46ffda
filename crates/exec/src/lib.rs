#![deny(missing_debug_implementations)]

//! Deterministic parallel execution for the *Know Your Phish* workspace.
//!
//! Every hot path of the reproduction — batch scraping, feature
//! extraction, gradient-boosting fits, dataset scoring, cross-validation
//! folds — is embarrassingly parallel over rows, columns or folds, but the
//! workspace is vendored and offline, so pulling in rayon is not an
//! option. This crate provides the minimal substitute on plain `std`:
//!
//! - [`Pool`] — a lightweight scoped thread pool (a thread *count* plus
//!   `std::thread::scope` spawning; threads are not kept alive between
//!   calls, which keeps the crate dependency- and unsafe-free),
//! - [`Pool::par_map`] / [`Pool::par_map_index`] — order-preserving
//!   chunked map: results come back indexed exactly as the input,
//! - [`Pool::par_chunks`] / [`Pool::par_chunks_mut`] — chunk-level
//!   fan-out over (mutable) slices,
//! - a process-wide default pool sized from `KYP_THREADS`, `set_threads`,
//!   or the machine's available parallelism, in that order.
//!
//! # Determinism contract
//!
//! Callers pass *pure* per-item functions; the pool guarantees the
//! assembled output is in input order regardless of which worker computed
//! which chunk. Under that discipline a computation produces bit-identical
//! results at **any** thread count — the property the repo's determinism
//! suite (`tests/determinism.rs`) enforces for training, classification
//! and cross-validation.
//!
//! # Examples
//!
//! ```
//! let pool = kyp_exec::Pool::new(4);
//! let doubled = pool.par_map(&[1, 2, 3, 4, 5], |x| x * 2);
//! assert_eq!(doubled, vec![2, 4, 6, 8, 10]);
//! ```

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::thread;

/// Chunks handed out per worker thread; >1 so uneven per-item costs
/// load-balance instead of serialising on the slowest chunk.
const CHUNKS_PER_THREAD: usize = 4;

/// Process-wide default thread count. `0` means "not yet resolved".
static GLOBAL_THREADS: AtomicUsize = AtomicUsize::new(0);

/// Overrides the default thread count for every subsequent [`pool`] call.
///
/// `0` resets to auto-detection (`KYP_THREADS`, then available
/// parallelism). Values are clamped to at least 1 thread.
pub fn set_threads(n: usize) {
    GLOBAL_THREADS.store(n, Ordering::SeqCst);
}

/// The thread count the default pool will use.
///
/// Resolution order: [`set_threads`] override → `KYP_THREADS` environment
/// variable → `std::thread::available_parallelism()` → 1.
pub fn current_threads() -> usize {
    let n = GLOBAL_THREADS.load(Ordering::SeqCst);
    if n > 0 {
        return n;
    }
    let resolved = std::env::var("KYP_THREADS")
        .ok()
        .and_then(|v| v.trim().parse::<usize>().ok())
        .filter(|&v| v >= 1)
        .unwrap_or_else(|| thread::available_parallelism().map_or(1, std::num::NonZero::get));
    resolved
}

/// The process-wide default pool (see [`current_threads`]).
pub fn pool() -> Pool {
    Pool::new(current_threads())
}

/// A scoped thread pool: a thread count plus order-preserving fan-out
/// primitives built on `std::thread::scope`.
///
/// Cheap to construct and `Copy`-sized; keeping one around merely pins a
/// thread count. With `threads == 1` every primitive degrades to the plain
/// serial loop with zero spawning overhead, which is what the determinism
/// tests force.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Pool {
    threads: usize,
}

impl Pool {
    /// A pool running `threads` workers (clamped to at least 1).
    pub fn new(threads: usize) -> Self {
        Pool {
            threads: threads.max(1),
        }
    }

    /// The worker count.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Maps `f` over `0..n`, returning results in index order.
    ///
    /// Work is dealt out in contiguous chunks through an atomic cursor;
    /// each worker appends `(chunk_start, results)` pairs which are
    /// reassembled by start index, so the output is identical to the
    /// serial `(0..n).map(f).collect()` whatever the thread count.
    ///
    /// # Panics
    ///
    /// A panic in `f` propagates to the caller once all workers have
    /// stopped (the panic payload of the first panicking worker).
    pub fn par_map_index<R, F>(&self, n: usize, f: F) -> Vec<R>
    where
        R: Send,
        F: Fn(usize) -> R + Sync,
    {
        let workers = self.threads.min(n);
        if workers <= 1 {
            return (0..n).map(f).collect();
        }
        let chunk = n.div_ceil(workers * CHUNKS_PER_THREAD).max(1);
        let cursor = AtomicUsize::new(0);
        let parts: Mutex<Vec<(usize, Vec<R>)>> = Mutex::new(Vec::new());

        thread::scope(|scope| {
            for _ in 0..workers {
                scope.spawn(|| loop {
                    let start = cursor.fetch_add(chunk, Ordering::Relaxed);
                    if start >= n {
                        return;
                    }
                    let end = (start + chunk).min(n);
                    let out: Vec<R> = (start..end).map(&f).collect();
                    parts
                        .lock()
                        .expect("worker poisoned parts")
                        .push((start, out));
                });
            }
        });

        let mut parts = parts.into_inner().expect("worker poisoned parts");
        parts.sort_unstable_by_key(|(start, _)| *start);
        let mut result = Vec::with_capacity(n);
        for (_, mut part) in parts {
            result.append(&mut part);
        }
        debug_assert_eq!(result.len(), n);
        result
    }

    /// Maps `f` over the items of a slice, preserving input order.
    pub fn par_map<T, R, F>(&self, items: &[T], f: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        F: Fn(&T) -> R + Sync,
    {
        self.par_map_index(items.len(), |i| f(&items[i]))
    }

    /// Applies `f` to consecutive chunks of at most `chunk_size` items,
    /// returning one result per chunk in slice order. `f` receives the
    /// chunk index and the chunk.
    ///
    /// # Panics
    ///
    /// Panics when `chunk_size == 0`; panics in `f` propagate.
    pub fn par_chunks<T, R, F>(&self, items: &[T], chunk_size: usize, f: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        F: Fn(usize, &[T]) -> R + Sync,
    {
        assert!(chunk_size > 0, "chunk_size must be positive");
        let n_chunks = items.len().div_ceil(chunk_size);
        self.par_map_index(n_chunks, |c| {
            let start = c * chunk_size;
            let end = (start + chunk_size).min(items.len());
            f(c, &items[start..end])
        })
    }

    /// Splits `items` into one contiguous chunk per worker and runs
    /// `f(chunk_start_offset, chunk)` on each concurrently. The chunks are
    /// disjoint, so mutation is race-free by construction.
    ///
    /// # Panics
    ///
    /// Panics in `f` propagate.
    pub fn par_chunks_mut<T, F>(&self, items: &mut [T], f: F)
    where
        T: Send,
        F: Fn(usize, &mut [T]) + Sync,
    {
        let n = items.len();
        let workers = self.threads.min(n);
        if workers <= 1 {
            f(0, items);
            return;
        }
        let chunk = n.div_ceil(workers);
        thread::scope(|scope| {
            for (c, slice) in items.chunks_mut(chunk).enumerate() {
                let f = &f;
                scope.spawn(move || f(c * chunk, slice));
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::sync::atomic::AtomicU64;

    #[test]
    fn par_map_empty_input() {
        let pool = Pool::new(8);
        let out: Vec<i32> = pool.par_map(&[] as &[i32], |x| *x);
        assert!(out.is_empty());
        let out: Vec<usize> = pool.par_map_index(0, |i| i);
        assert!(out.is_empty());
    }

    #[test]
    fn par_map_orders_more_items_than_threads() {
        let pool = Pool::new(3);
        let items: Vec<u64> = (0..1000).collect();
        let serial: Vec<u64> = items.iter().map(|x| x * x + 1).collect();
        let parallel = pool.par_map(&items, |x| x * x + 1);
        assert_eq!(parallel, serial);
    }

    #[test]
    fn par_map_matches_at_every_thread_count() {
        for threads in [1, 2, 5, 16] {
            let pool = Pool::new(threads);
            let got = pool.par_map_index(257, |i| i as u64 * 3);
            let want: Vec<u64> = (0..257).map(|i| i as u64 * 3).collect();
            assert_eq!(got, want, "threads = {threads}");
        }
    }

    #[test]
    fn par_map_propagates_worker_panic() {
        let pool = Pool::new(4);
        let result = catch_unwind(AssertUnwindSafe(|| {
            pool.par_map_index(100, |i| {
                assert!(i != 37, "worker exploded");
                i
            })
        }));
        assert!(result.is_err(), "panic must propagate to the caller");
    }

    #[test]
    fn par_map_visits_every_index_once() {
        let pool = Pool::new(7);
        let visits = AtomicU64::new(0);
        let out = pool.par_map_index(500, |i| {
            visits.fetch_add(1, Ordering::Relaxed);
            i
        });
        assert_eq!(visits.load(Ordering::Relaxed), 500);
        assert_eq!(out, (0..500).collect::<Vec<_>>());
    }

    #[test]
    fn par_chunks_covers_slice_in_order() {
        let pool = Pool::new(4);
        let items: Vec<u32> = (0..103).collect();
        let sums = pool.par_chunks(&items, 10, |c, chunk| {
            (c, chunk.iter().copied().sum::<u32>())
        });
        assert_eq!(sums.len(), 11);
        assert_eq!(sums.last().unwrap().1, 100 + 101 + 102);
        let total: u32 = sums.iter().map(|(_, s)| s).sum();
        assert_eq!(total, items.iter().sum::<u32>());
        for (i, (c, _)) in sums.iter().enumerate() {
            assert_eq!(i, *c);
        }
    }

    #[test]
    #[should_panic(expected = "chunk_size must be positive")]
    fn par_chunks_rejects_zero_chunk() {
        Pool::new(2).par_chunks(&[1, 2, 3], 0, |_, _| ());
    }

    #[test]
    fn par_chunks_mut_mutates_disjointly() {
        let pool = Pool::new(4);
        let mut values = vec![0u64; 1001];
        pool.par_chunks_mut(&mut values, |offset, chunk| {
            for (k, v) in chunk.iter_mut().enumerate() {
                *v = (offset + k) as u64;
            }
        });
        let want: Vec<u64> = (0..1001).collect();
        assert_eq!(values, want);
    }

    #[test]
    fn single_thread_pool_runs_inline() {
        let pool = Pool::new(1);
        assert_eq!(pool.threads(), 1);
        assert_eq!(pool.par_map_index(5, |i| i * 2), vec![0, 2, 4, 6, 8]);
        let mut v = vec![1, 2, 3];
        pool.par_chunks_mut(&mut v, |_, chunk| {
            for x in chunk.iter_mut() {
                *x += 10;
            }
        });
        assert_eq!(v, vec![11, 12, 13]);
    }

    #[test]
    fn pool_clamps_zero_threads() {
        assert_eq!(Pool::new(0).threads(), 1);
    }

    #[test]
    fn global_override_wins() {
        set_threads(3);
        assert_eq!(current_threads(), 3);
        assert_eq!(pool().threads(), 3);
        set_threads(0); // reset to auto-detection
        assert!(current_threads() >= 1);
    }
}
