//! jinjing-par: a zero-dependency, work-stealing, scoped thread pool.
//!
//! The crate exists for one reason: the verifier's hot loops (per-`(class,
//! path)` solver queries in `check`, per-neighborhood placement in `fix`)
//! are embarrassingly parallel — every
//! Eq. 3 query is an independent SAT instance. We want to fan those out
//! without pulling `rayon` (the workspace is std-only by policy) and
//! without giving up determinism: reports must be byte-identical no matter
//! how many worker threads ran.
//!
//! Design:
//!
//! * [`Pool`] is a *value*, not a set of live threads. Threads are spawned
//!   per [`Pool::par_map`] call inside [`std::thread::scope`], so borrowed
//!   data (networks, tasks, solvers' inputs) flows into workers without
//!   `'static` bounds and without any unsafe code.
//! * Work distribution is chunked work-stealing: the index range is split
//!   into contiguous chunks, one deque per worker. Workers pop from the
//!   *front* of their own deque (preserving locality and approximate index
//!   order) and steal from the *back* of a victim's deque when empty.
//! * Determinism: every worker tags results with the item index; the
//!   driver reassembles them in index order. `threads <= 1` (or a single
//!   item) short-circuits to the exact serial `for` loop — no threads, no
//!   locks — so the default configuration behaves precisely like the
//!   pre-parallel code.
//! * Early exit is expressed through [`Cancel`], a monotonically
//!   decreasing index threshold. Calling [`Cancel::cut`]`(i)` after
//!   finding a "violation" at index `i` lets workers skip indices strictly
//!   greater than the smallest cut index. The minimal violating index is
//!   never skipped (only indices *beyond* a cut are), so a driver that
//!   folds results in index order and stops at the first violation sees
//!   the same outcome regardless of thread count or scheduling.
//! * Streamed (rather than batched) workloads — the `jinjing serve`
//!   daemon's request dispatch — use [`queue::Bounded`], a bounded MPMC
//!   queue with non-blocking admission (backpressure), a graceful-drain
//!   close, and depth introspection for live metrics.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod queue;

use std::collections::VecDeque;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::thread;

/// Environment variable consulted when a thread count of `0` ("auto") is
/// requested. Invalid or missing values resolve to `1` (serial).
pub const THREADS_ENV: &str = "JINJING_THREADS";

thread_local! {
    /// Worker slot of the calling thread when it was spawned by a
    /// [`Pool`] fan-out; `None` on the driver and on foreign threads.
    static CURRENT_WORKER: std::cell::Cell<Option<usize>> =
        const { std::cell::Cell::new(None) };
}

/// The pool-worker slot index (`0..workers`) of the calling thread, or
/// `None` outside a [`Pool`] fan-out (including the serial `threads <= 1`
/// path, which runs on the caller's thread).
///
/// This is observability plumbing, not scheduling state: per-request
/// flight recorders use it to tag trace events with the worker track
/// that produced them. Pool threads live only for the duration of one
/// `par_map` call, so the tag never leaks across fan-outs.
#[must_use]
pub fn current_worker() -> Option<usize> {
    CURRENT_WORKER.with(std::cell::Cell::get)
}

/// Upper bound on worker threads; guards against absurd env values.
const MAX_THREADS: usize = 256;

/// Resolve a requested thread count to an effective one.
///
/// * `0` means "auto": consult [`THREADS_ENV`], defaulting to `1`
///   (serial) when unset or unparsable. Serial-by-default keeps the
///   out-of-the-box behavior identical to the historical implementation.
/// * Any other value is used as-is, clamped to the private `MAX_THREADS`.
#[must_use]
pub fn resolve_threads(requested: usize) -> usize {
    let n = if requested == 0 {
        std::env::var(THREADS_ENV)
            .ok()
            .and_then(|v| v.trim().parse::<usize>().ok())
            .unwrap_or(1)
    } else {
        requested
    };
    n.clamp(1, MAX_THREADS)
}

/// A cooperative early-exit threshold shared between workers.
///
/// Semantics: after `cut(i)`, indices strictly greater than the smallest
/// cut index may be skipped. Indices `<=` the smallest cut index are
/// always processed, which is what makes "first violation in index order"
/// deterministic under any schedule.
#[derive(Debug)]
pub struct Cancel {
    threshold: AtomicUsize,
}

impl Default for Cancel {
    fn default() -> Self {
        Self::new()
    }
}

impl Cancel {
    /// A fresh threshold; nothing is cancelled.
    #[must_use]
    pub fn new() -> Self {
        Cancel {
            threshold: AtomicUsize::new(usize::MAX),
        }
    }

    /// Record a "violation" at `index`: indices beyond the minimum cut
    /// index become skippable. Monotone (uses `fetch_min`), so concurrent
    /// cuts converge on the smallest index.
    pub fn cut(&self, index: usize) {
        self.threshold.fetch_min(index, Ordering::SeqCst);
    }

    /// Should work at `index` be skipped? True iff some strictly smaller
    /// index has been cut.
    #[must_use]
    pub fn is_beyond(&self, index: usize) -> bool {
        index > self.threshold.load(Ordering::SeqCst)
    }

    /// Has any index been cut?
    #[must_use]
    pub fn is_cut(&self) -> bool {
        self.threshold.load(Ordering::SeqCst) != usize::MAX
    }

    /// The smallest cut index, if any.
    #[must_use]
    pub fn threshold(&self) -> Option<usize> {
        match self.threshold.load(Ordering::SeqCst) {
            usize::MAX => None,
            t => Some(t),
        }
    }
}

/// A scoped work-stealing thread pool with a fixed worker count.
///
/// `Pool` is cheap to construct (it holds only the thread count); workers
/// are spawned per call inside [`std::thread::scope`].
#[derive(Debug, Clone, Copy)]
pub struct Pool {
    threads: usize,
}

impl Default for Pool {
    fn default() -> Self {
        Pool::new(0)
    }
}

impl Pool {
    /// Create a pool. `threads == 0` means "auto" (see
    /// [`resolve_threads`]); the result is always `>= 1`.
    #[must_use]
    pub fn new(threads: usize) -> Self {
        Pool {
            threads: resolve_threads(threads),
        }
    }

    /// Create a pool from [`THREADS_ENV`] alone.
    #[must_use]
    pub fn from_env() -> Self {
        Pool::new(0)
    }

    /// Effective worker count (always `>= 1`).
    #[must_use]
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Is this pool going to run everything on the caller's thread?
    #[must_use]
    pub fn is_serial(&self) -> bool {
        self.threads <= 1
    }

    /// Run `f` with a [`std::thread::Scope`] so callers can spawn custom
    /// borrowed workers. Provided for irregular parallel sections that
    /// don't fit the `par_map` shape.
    pub fn scope<'env, F, R>(&self, f: F) -> R
    where
        F: for<'scope> FnOnce(&'scope thread::Scope<'scope, 'env>) -> R,
    {
        thread::scope(f)
    }

    /// Map `f` over `items` in parallel, returning results in item order.
    ///
    /// `f` receives `(index, &item)`. With one worker (or fewer than two
    /// items) this is exactly the serial loop — no threads are spawned.
    pub fn par_map<T, R, F>(&self, items: &[T], f: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        F: Fn(usize, &T) -> R + Sync,
    {
        let cancel = Cancel::new();
        let opts = self.run(items, &cancel, &f);
        // No cancellation: every slot is filled.
        opts.into_iter()
            .map(|o| o.expect("par_map: un-cancelled index missing"))
            .collect()
    }

    /// Like [`Pool::par_map`], but workers may skip indices beyond the
    /// smallest index `cut` on `cancel` (typically by `f` itself, after
    /// detecting a violation). Skipped slots are `None`.
    ///
    /// Guarantee: for every index `i` less than or equal to the smallest
    /// cut index, the result slot `i` is `Some`. A driver folding results
    /// in index order and stopping at the first "violating" `Some`
    /// therefore observes a schedule-independent outcome.
    pub fn par_map_cancel<T, R, F>(&self, items: &[T], cancel: &Cancel, f: F) -> Vec<Option<R>>
    where
        T: Sync,
        R: Send,
        F: Fn(usize, &T) -> R + Sync,
    {
        self.run(items, cancel, &f)
    }

    fn run<T, R, F>(&self, items: &[T], cancel: &Cancel, f: &F) -> Vec<Option<R>>
    where
        T: Sync,
        R: Send,
        F: Fn(usize, &T) -> R + Sync,
    {
        let n = items.len();
        let workers = self.threads.min(n).max(1);
        if workers <= 1 {
            // Exact serial path: index order, caller's thread, no locks.
            let mut out: Vec<Option<R>> = Vec::with_capacity(n);
            for (i, item) in items.iter().enumerate() {
                if cancel.is_beyond(i) {
                    out.push(None);
                } else {
                    out.push(Some(f(i, item)));
                }
            }
            return out;
        }

        // One deque per worker, seeded with a contiguous chunk of the
        // index range so initial execution is cache-friendly and roughly
        // index-ordered.
        let deques: Vec<Mutex<VecDeque<usize>>> = split_chunks(n, workers)
            .into_iter()
            .map(|range| Mutex::new(range.collect()))
            .collect();
        let buckets: Vec<Mutex<Vec<(usize, R)>>> =
            (0..workers).map(|_| Mutex::new(Vec::new())).collect();

        thread::scope(|s| {
            let deques = &deques;
            for (w, bucket) in buckets.iter().enumerate() {
                s.spawn(move || {
                    CURRENT_WORKER.with(|c| c.set(Some(w)));
                    let mut local: Vec<(usize, R)> = Vec::new();
                    while let Some(i) = next_index(deques, w) {
                        if !cancel.is_beyond(i) {
                            local.push((i, f(i, &items[i])));
                        }
                    }
                    *bucket.lock().expect("par: result bucket poisoned") = local;
                });
            }
        });

        let mut out: Vec<Option<R>> = (0..n).map(|_| None).collect();
        for bucket in buckets {
            for (i, r) in bucket.into_inner().expect("par: result bucket poisoned") {
                out[i] = Some(r);
            }
        }
        out
    }
}

/// Split `0..n` into `workers` contiguous ranges whose lengths differ by
/// at most one.
fn split_chunks(n: usize, workers: usize) -> Vec<std::ops::Range<usize>> {
    let base = n / workers;
    let extra = n % workers;
    let mut out = Vec::with_capacity(workers);
    let mut start = 0;
    for w in 0..workers {
        let len = base + usize::from(w < extra);
        out.push(start..start + len);
        start += len;
    }
    out
}

/// Pop the next index for worker `w`: front of its own deque, else steal
/// from the *back* of the first non-empty victim (round-robin scan). A
/// full empty scan means all work has been claimed — no task ever spawns
/// new work, so it is safe to exit.
fn next_index(deques: &[Mutex<VecDeque<usize>>], w: usize) -> Option<usize> {
    if let Some(i) = deques[w].lock().expect("par: deque poisoned").pop_front() {
        return Some(i);
    }
    let k = deques.len();
    for off in 1..k {
        let victim = (w + off) % k;
        if let Some(i) = deques[victim]
            .lock()
            .expect("par: deque poisoned")
            .pop_back()
        {
            return Some(i);
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn current_worker_is_tagged_in_parallel_and_absent_serially() {
        assert_eq!(current_worker(), None, "driver thread has no slot");
        let items: Vec<usize> = (0..64).collect();
        // Serial path: runs on the caller's thread, no slot.
        let serial = Pool::new(1).par_map(&items, |_, _| current_worker());
        assert!(serial.iter().all(Option::is_none));
        // Parallel path: every item sees some worker slot within range.
        let workers = 4;
        let par = Pool::new(workers).par_map(&items, |_, _| current_worker());
        assert!(par.iter().all(|w| w.is_some_and(|w| w < workers)));
    }

    #[test]
    fn chunks_cover_range_exactly() {
        for n in [0usize, 1, 2, 5, 7, 16, 97] {
            for workers in 1..=8 {
                let chunks = split_chunks(n, workers);
                assert_eq!(chunks.len(), workers);
                let mut covered = Vec::new();
                for c in &chunks {
                    covered.extend(c.clone());
                }
                assert_eq!(covered, (0..n).collect::<Vec<_>>());
                let lens: Vec<usize> = chunks.iter().map(ExactSizeIterator::len).collect();
                let (mn, mx) = (lens.iter().min().unwrap(), lens.iter().max().unwrap());
                assert!(mx - mn <= 1, "unbalanced chunks: {lens:?}");
            }
        }
    }

    #[test]
    fn par_map_matches_serial_for_all_thread_counts() {
        let items: Vec<u64> = (0..257).collect();
        let serial: Vec<u64> = items
            .iter()
            .enumerate()
            .map(|(i, x)| x * 3 + i as u64)
            .collect();
        for threads in [1usize, 2, 3, 4, 8] {
            let pool = Pool::new(threads);
            let got = pool.par_map(&items, |i, x| x * 3 + i as u64);
            assert_eq!(got, serial, "threads={threads}");
        }
    }

    #[test]
    fn par_map_handles_empty_and_singleton() {
        let pool = Pool::new(4);
        let empty: Vec<u32> = Vec::new();
        assert!(pool.par_map(&empty, |_, x| *x).is_empty());
        assert_eq!(pool.par_map(&[42u32], |i, x| x + i as u32), vec![42]);
    }

    #[test]
    fn work_stealing_balances_skewed_load() {
        // Front-loaded work: without stealing, worker 0 would do almost
        // everything while the rest idle. We can't observe idleness
        // directly, but we can check correctness under heavy skew.
        let items: Vec<u64> = (0..64).collect();
        let pool = Pool::new(4);
        let touched = AtomicU64::new(0);
        let got = pool.par_map(&items, |i, x| {
            if i < 8 {
                // Busy work proportional to nothing useful; keeps early
                // chunks occupied so later chunks get stolen.
                let mut acc = *x;
                for _ in 0..20_000 {
                    acc = acc.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
                }
                touched.fetch_add(acc & 1, Ordering::Relaxed);
            }
            x + 1
        });
        assert_eq!(got, (1..=64).collect::<Vec<u64>>());
    }

    #[test]
    fn cancel_skips_only_beyond_threshold() {
        let c = Cancel::new();
        assert!(!c.is_cut());
        assert!(!c.is_beyond(0));
        assert!(!c.is_beyond(usize::MAX - 1));
        c.cut(10);
        assert!(c.is_cut());
        assert_eq!(c.threshold(), Some(10));
        assert!(!c.is_beyond(10));
        assert!(!c.is_beyond(3));
        assert!(c.is_beyond(11));
        c.cut(25); // larger cut never raises the threshold
        assert_eq!(c.threshold(), Some(10));
        c.cut(4);
        assert_eq!(c.threshold(), Some(4));
        assert!(c.is_beyond(5));
        assert!(!c.is_beyond(4));
    }

    #[test]
    fn minimal_violation_survives_any_schedule() {
        // Items 13, 29, 57 are "violations". Whatever the schedule, every
        // index <= 13 must be present and the fold-in-order outcome must
        // be 13.
        let items: Vec<usize> = (0..64).collect();
        let violating = [13usize, 29, 57];
        for threads in [1usize, 2, 4, 8] {
            for _round in 0..8 {
                let pool = Pool::new(threads);
                let cancel = Cancel::new();
                let out = pool.par_map_cancel(&items, &cancel, |i, _x| {
                    let bad = violating.contains(&i);
                    if bad {
                        cancel.cut(i);
                    }
                    bad
                });
                for (i, slot) in out.iter().enumerate().take(14) {
                    assert!(slot.is_some(), "index {i} skipped (threads={threads})");
                }
                let first = out.iter().enumerate().find_map(|(i, s)| match s {
                    Some(true) => Some(i),
                    _ => None,
                });
                assert_eq!(first, Some(13), "threads={threads}");
            }
        }
    }

    #[test]
    fn resolve_threads_semantics() {
        assert_eq!(resolve_threads(1), 1);
        assert_eq!(resolve_threads(7), 7);
        assert_eq!(resolve_threads(100_000), MAX_THREADS);
        // requested == 0 consults the env; with the variable unset it is
        // serial. (Set/remove in one test to avoid races between tests.)
        std::env::remove_var(THREADS_ENV);
        assert_eq!(resolve_threads(0), 1);
        std::env::set_var(THREADS_ENV, "4");
        assert_eq!(resolve_threads(0), 4);
        assert_eq!(Pool::from_env().threads(), 4);
        std::env::set_var(THREADS_ENV, "not-a-number");
        assert_eq!(resolve_threads(0), 1);
        std::env::set_var(THREADS_ENV, "0");
        assert_eq!(resolve_threads(0), 1);
        std::env::remove_var(THREADS_ENV);
    }

    #[test]
    fn pool_scope_spawns_borrowed_workers() {
        let data = [1u32, 2, 3, 4];
        let total = AtomicU64::new(0);
        let pool = Pool::new(2);
        pool.scope(|s| {
            for chunk in data.chunks(2) {
                let total = &total;
                s.spawn(move || {
                    let sum: u32 = chunk.iter().sum();
                    total.fetch_add(u64::from(sum), Ordering::Relaxed);
                });
            }
        });
        assert_eq!(total.load(Ordering::Relaxed), 10);
    }
}
