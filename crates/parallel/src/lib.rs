//! # exes-parallel
//!
//! Deterministic data parallelism for the ExES probe engine, built on
//! `std::thread::scope` (the build runs fully offline, so a rayon-style
//! work-stealing pool is provided from scratch rather than as a dependency).
//!
//! The one primitive everything else uses is [`parallel_map`]: apply a pure
//! function to every element of a slice, on as many threads as the machine
//! offers, and return the results **in input order**. Output identity with the
//! sequential `items.iter().map(f).collect()` is the load-bearing guarantee —
//! the counterfactual beam search requires byte-identical results whether
//! probes run on one thread or sixteen.
//!
//! ## When a map spreads
//!
//! A map starts on the calling thread and measures itself. It spreads the
//! items left over helper threads only once it has worked for 100 µs and
//! the items left would, at the rate so far, take at least that long again:
//! spawning and joining a scoped thread costs tens of microseconds, so a
//! batch of less than about 200 µs never pays for one, and an expensive one
//! runs its first 100 µs on one thread. A single item, or a single item
//! left, is never spread.
//!
//! A map called while another map has spread its items runs inline on the
//! thread that called it: every thread is busy already. A map called from
//! the part of a map that runs before it spreads may spread itself, so one
//! request answered alone still reaches every core through its inner maps.
//!
//! ## The `EXES_THREADS` environment variable
//!
//! `EXES_THREADS` caps the worker count globally:
//!
//! * **unset** or **unparseable** — use the hardware parallelism reported by
//!   the OS;
//! * **`1`** — force sequential execution everywhere;
//! * **`0`** — treated identically to `1` (sequential); `0` historically fell
//!   back to hardware parallelism, which silently turned "disable threading"
//!   into "use every core";
//! * **`n ≥ 2`** — use at most `n` worker threads.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;
use std::time::{Duration, Instant};

/// How long a map works on the calling thread before it may spread, and how
/// much work must be left for it to: long enough that a helper repays its
/// spawn, short enough to be a small share of any batch worth spreading.
const SPREAD_AFTER: Duration = Duration::from_micros(100);

thread_local! {
    /// Whether this thread is working items of a map that has spread.
    static SPREAD: Cell<bool> = const { Cell::new(false) };
}

/// Marks the current thread as working a spread map until dropped, restoring
/// the previous mark even when an item panics.
struct SpreadMark(bool);

impl SpreadMark {
    fn set() -> Self {
        SpreadMark(SPREAD.replace(true))
    }
}

impl Drop for SpreadMark {
    fn drop(&mut self) {
        SPREAD.set(self.0);
    }
}

/// The hardware parallelism, read once: the OS query reads cgroup files on
/// every call.
fn hardware_threads() -> usize {
    static HARDWARE: OnceLock<usize> = OnceLock::new();
    *HARDWARE.get_or_init(|| {
        std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1)
    })
}

/// Number of worker threads [`parallel_map`] may use for a workload of
/// `items` elements: the available hardware parallelism, capped by the item
/// count, and overridable with the `EXES_THREADS` environment variable (see
/// the crate docs; `EXES_THREADS=0` and `EXES_THREADS=1` both force sequential
/// execution everywhere).
pub fn thread_count(items: usize) -> usize {
    let hw = std::env::var("EXES_THREADS")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
        // 0 means "no extra parallelism", i.e. one (the calling) thread — not
        // "fall back to every core the hardware has".
        .map(|n| n.max(1))
        .unwrap_or_else(hardware_threads);
    hw.min(items).max(1)
}

/// Applies `f` to every element of `items` and returns the outputs in input
/// order. Spreads over threads when the items are costly enough (see the
/// crate docs); the results are identical either way.
pub fn parallel_map<T, R, F>(items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    parallel_map_with_threads(items, thread_count(items.len()), f)
}

/// [`parallel_map`] with an explicit worker count — lets tests drive the
/// multi-thread path even on single-core machines.
pub fn parallel_map_with_threads<T, R, F>(items: &[T], threads: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let mut out: Vec<R> = Vec::with_capacity(items.len());
    if threads <= 1 || items.len() <= 1 || SPREAD.get() {
        out.extend(items.iter().map(f));
        return out;
    }
    let started = Instant::now();
    while out.len() < items.len() {
        out.push(f(&items[out.len()]));
        let (done, left) = (out.len(), items.len() - out.len());
        if worth_spreading(started.elapsed(), done, left) {
            spread(&items[done..], threads.min(left), &f, &mut out);
        }
    }
    out
}

/// Whether a map that spent `spent` on its first `done` items should spread
/// the `left` items still to do: at least two are left, it has worked for
/// [`SPREAD_AFTER`], and at the rate so far (`spent / done` per item) the
/// items left would take at least another [`SPREAD_AFTER`].
fn worth_spreading(spent: Duration, done: usize, left: usize) -> bool {
    left >= 2
        && spent >= SPREAD_AFTER
        && spent.as_nanos() * left as u128 >= SPREAD_AFTER.as_nanos() * done as u128
}

/// Works `rest` on the calling thread and `workers - 1` helpers, each
/// claiming one item at a time, and appends the outputs to `out` in input
/// order.
fn spread<T, R, F>(rest: &[T], workers: usize, f: &F, out: &mut Vec<R>)
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let cursor = AtomicUsize::new(0);
    let work = || {
        let _mark = SpreadMark::set();
        let mut local: Vec<(usize, R)> = Vec::new();
        loop {
            // Relaxed: the cursor only hands out indices; the items were
            // published by the spawn, and the outputs return by the joins.
            let i = cursor.fetch_add(1, Ordering::Relaxed);
            let Some(item) = rest.get(i) else { break };
            local.push((i, f(item)));
        }
        local
    };
    let mut slots: Vec<Option<R>> = std::iter::repeat_with(|| None).take(rest.len()).collect();
    std::thread::scope(|scope| {
        let helpers: Vec<_> = (1..workers).map(|_| scope.spawn(work)).collect();
        let mut finished = vec![work()];
        for helper in helpers {
            finished.push(
                helper
                    .join()
                    .unwrap_or_else(|panic| std::panic::resume_unwind(panic)),
            );
        }
        for (i, r) in finished.into_iter().flatten() {
            slots[i] = Some(r);
        }
    });
    out.extend(
        slots
            .into_iter()
            .map(|r| r.expect("every item claimed once")),
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::sync::Mutex;
    use std::thread::ThreadId;

    /// Busy-waits for `d`: a stand-in for an item that costs CPU time.
    fn spin(d: Duration) {
        let start = Instant::now();
        while start.elapsed() < d {
            std::hint::spin_loop();
        }
    }

    #[test]
    fn matches_sequential_map_exactly() {
        let items: Vec<u64> = (0..1000).collect();
        let f = |&x: &u64| x * x + 1;
        let sequential: Vec<u64> = items.iter().map(f).collect();
        assert_eq!(parallel_map(&items, f), sequential);
        // Force real multi-threading regardless of the host's core count.
        for threads in [2, 3, 8] {
            assert_eq!(parallel_map_with_threads(&items, threads, f), sequential);
        }
    }

    #[test]
    fn small_inputs_run_inline() {
        let items = [1u32, 2, 3];
        assert_eq!(parallel_map(&items, |&x| x + 1), vec![2, 3, 4]);
        let empty: [u32; 0] = [];
        assert!(parallel_map(&empty, |&x| x).is_empty());
    }

    #[test]
    fn uneven_workloads_keep_order() {
        let items: Vec<usize> = (0..257).collect();
        let out = parallel_map_with_threads(&items, 4, |&i| {
            // Simulate wildly uneven probe costs.
            let mut acc = 0u64;
            for k in 0..(i % 17) * 1000 {
                acc = acc.wrapping_add(k as u64);
            }
            (i, acc)
        });
        for (i, (idx, _)) in out.iter().enumerate() {
            assert_eq!(i, *idx);
        }
    }

    #[test]
    fn only_a_costly_remainder_is_spread() {
        let us = Duration::from_micros;
        // Not yet worked long enough, however much is left.
        assert!(!worth_spreading(us(99), 40, 100_000));
        // Worked long enough, and the rest would take as long again.
        assert!(worth_spreading(us(100), 40, 40));
        assert!(worth_spreading(us(5_000), 1, 2));
        // The rest is quicker than a spread could repay.
        assert!(!worth_spreading(us(150), 60, 39));
        // One item left cannot be shared.
        assert!(!worth_spreading(us(5_000), 1, 1));
    }

    #[test]
    fn cheap_items_never_leave_the_calling_thread() {
        let caller = std::thread::current().id();
        let items: Vec<u64> = (0..64).collect();
        let threads = parallel_map_with_threads(&items, 4, |_| std::thread::current().id());
        assert!(threads.iter().all(|&t| t == caller));
    }

    #[test]
    fn costly_items_spread_and_keep_their_order() {
        let items: Vec<usize> = (0..24).collect();
        let seen = Mutex::new(HashSet::new());
        let out = parallel_map_with_threads(&items, 2, |&i| {
            seen.lock().unwrap().insert(std::thread::current().id());
            spin(Duration::from_millis(1));
            i * 3
        });
        assert_eq!(out, items.iter().map(|i| i * 3).collect::<Vec<_>>());
        assert!(
            seen.lock().unwrap().len() > 1,
            "a 24 ms map stayed on one thread"
        );
    }

    #[test]
    fn a_map_nested_in_a_spread_map_runs_inline() {
        let caller = std::thread::current().id();
        let items: Vec<usize> = (0..16).collect();
        // Per outer item: the thread that ran it and the threads its nested
        // map ran on.
        let runs: Mutex<Vec<(ThreadId, HashSet<ThreadId>)>> = Mutex::new(Vec::new());
        let out = parallel_map_with_threads(&items, 2, |&i| {
            let seen = Mutex::new(HashSet::new());
            let inner = parallel_map_with_threads(&items, 2, |&j| {
                seen.lock().unwrap().insert(std::thread::current().id());
                spin(Duration::from_micros(200));
                i + j
            });
            let here = std::thread::current().id();
            runs.lock()
                .unwrap()
                .push((here, seen.into_inner().unwrap()));
            inner.iter().sum::<usize>()
        });
        let expected: Vec<usize> = items.iter().map(|&i| 16 * i + 120).collect();
        assert_eq!(out, expected);
        let runs = runs.into_inner().unwrap();
        // The outer map spread: some item ran on a helper, and every nested
        // map a helper ran stayed on that helper.
        let helper_runs: Vec<_> = runs.iter().filter(|(t, _)| *t != caller).collect();
        assert!(!helper_runs.is_empty(), "the outer map never spread");
        for (thread, seen) in helper_runs {
            assert_eq!(*seen, HashSet::from([*thread]));
        }
    }

    #[test]
    fn a_panicking_item_propagates_and_leaves_the_thread_unmarked() {
        let items: Vec<usize> = (0..8).collect();
        let outcome = std::panic::catch_unwind(|| {
            parallel_map_with_threads(&items, 2, |&i| {
                spin(Duration::from_micros(200));
                assert!(i != 5, "item 5 fails");
                i
            })
        });
        assert!(outcome.is_err());
        assert!(!SPREAD.get());
    }

    #[test]
    fn thread_count_is_positive_and_bounded() {
        assert_eq!(thread_count(0), 1);
        assert_eq!(thread_count(1), 1);
        assert!(thread_count(10_000) >= 1);
    }

    #[test]
    fn exes_threads_zero_means_sequential() {
        // `EXES_THREADS=0` must behave like `EXES_THREADS=1` (sequential), not
        // silently fall back to hardware parallelism. The env var is process
        // wide, so sibling tests running concurrently may briefly observe
        // these overrides — that is safe here because no other test in this
        // crate reads the variable (the others pass explicit thread counts)
        // and parallel_map returns input-order results for *any* thread
        // count, but keep it that way: tests that read
        // `EXES_THREADS`-dependent behaviour belong in this function.
        std::env::set_var("EXES_THREADS", "0");
        assert_eq!(thread_count(10_000), 1);
        std::env::set_var("EXES_THREADS", "1");
        assert_eq!(thread_count(10_000), 1);
        std::env::set_var("EXES_THREADS", "3");
        assert_eq!(thread_count(10_000), 3);
        std::env::remove_var("EXES_THREADS");
    }
}
