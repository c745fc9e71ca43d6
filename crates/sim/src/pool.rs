//! Deterministic std-only thread pool for experiment fan-out.
#![allow(clippy::disallowed_types, clippy::disallowed_methods)]
// ^ clippy mirror of D001/D004 (clippy.toml): this module holds the
// justified wall-clock telemetry and CGCT_JOBS reads; see the
// per-site cgct-lint allows below.
//!
//! The paper's evaluation (§5) is a cross-product — figures × region
//! sizes × RCA geometries × nine workloads × perturbed seeds — and every
//! cell is an independent pure function of its work item. This module
//! runs such products on scoped [`std::thread`] workers that pull
//! `(index, item)` pairs from a shared [`Injector`] (a
//! `Mutex<VecDeque>` guarded by a `Condvar`), with the worker count
//! taken from [`std::thread::available_parallelism`] unless the
//! `CGCT_JOBS` environment variable overrides it.
//!
//! Determinism is by construction, not by accident:
//!
//! * a work item's seed is part of the item (derived from the
//!   experiment's [`SeedSequence`](crate::SeedSequence) root), never
//!   from worker identity or scheduling order;
//! * results are collected out-of-order into per-index slots and
//!   returned **in canonical item order**, so the merged output of a
//!   2-worker run, an 8-worker run, and a serial run are identical;
//! * `jobs = 1` (or `CGCT_JOBS=1`) degrades to a plain in-order loop on
//!   the calling thread — no worker threads are spawned at all.
//!
//! # Examples
//!
//! ```
//! use cgct_sim::pool;
//!
//! let squares = pool::run_on(4, (0u64..32).collect(), |_idx, x| x * x);
//! assert_eq!(squares, (0u64..32).map(|x| x * x).collect::<Vec<_>>());
//! ```

use std::collections::VecDeque;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex};
// cgct-lint: allow(D001) wall-clock here is host-side pool telemetry (ItemReport.seconds), never part of simulated state or artifacts
use std::time::Instant;

/// A closeable multi-producer multi-consumer FIFO work queue.
///
/// `Mutex<VecDeque>` holds the pending items; a [`Condvar`] parks
/// consumers while the queue is empty but still open. Once
/// [`close`](Injector::close) is called, drained consumers see `None`
/// and exit.
///
/// # Examples
///
/// ```
/// use cgct_sim::pool::Injector;
///
/// let q: Injector<u32> = Injector::new();
/// q.push(7);
/// q.close();
/// assert_eq!(q.pop(), Some(7));
/// assert_eq!(q.pop(), None); // closed and drained
/// ```
#[derive(Debug)]
pub struct Injector<T> {
    state: Mutex<InjectorState<T>>,
    nonempty: Condvar,
}

#[derive(Debug)]
struct InjectorState<T> {
    queue: VecDeque<T>,
    closed: bool,
}

impl<T> Default for Injector<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> Injector<T> {
    /// Creates an empty, open queue.
    pub fn new() -> Self {
        Injector {
            state: Mutex::new(InjectorState {
                queue: VecDeque::new(),
                closed: false,
            }),
            nonempty: Condvar::new(),
        }
    }

    /// Enqueues one item and wakes a waiting consumer.
    ///
    /// # Panics
    ///
    /// Panics if the queue has been closed.
    pub fn push(&self, item: T) {
        let mut st = self.state.lock().expect("injector poisoned");
        assert!(!st.closed, "push after close");
        st.queue.push_back(item);
        drop(st);
        self.nonempty.notify_one();
    }

    /// Marks the queue closed and wakes every waiting consumer.
    pub fn close(&self) {
        self.state.lock().expect("injector poisoned").closed = true;
        self.nonempty.notify_all();
    }

    /// Dequeues the next item, blocking while the queue is empty but
    /// open. Returns `None` once the queue is closed *and* drained.
    pub fn pop(&self) -> Option<T> {
        let mut st = self.state.lock().expect("injector poisoned");
        loop {
            if let Some(item) = st.queue.pop_front() {
                return Some(item);
            }
            if st.closed {
                return None;
            }
            st = self.nonempty.wait(st).expect("injector poisoned");
        }
    }

    /// Number of items currently queued (racy; for diagnostics only).
    pub fn len(&self) -> usize {
        self.state.lock().expect("injector poisoned").queue.len()
    }

    /// Whether the queue is currently empty (racy; for diagnostics only).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Progress report passed to the observer after each completed item.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ItemReport {
    /// Canonical index of the item that just finished.
    pub index: usize,
    /// Items completed so far (including this one).
    pub done: usize,
    /// Total items in this run.
    pub total: usize,
    /// Wall-clock seconds this item took.
    pub seconds: f64,
}

/// The worker count: `CGCT_JOBS` if set, else the machine's available
/// parallelism (falling back to 4 if that cannot be determined).
///
/// `CGCT_JOBS=1` forces fully serial execution; values that do not
/// parse as a positive integer are ignored.
pub fn jobs() -> usize {
    // cgct-lint: allow(D004) this is the one documented read of CGCT_JOBS; cgct-sim sits below the cgct-system config seam
    jobs_from(std::env::var("CGCT_JOBS").ok().as_deref())
}

/// [`jobs`] with the environment override passed explicitly (testable).
pub fn jobs_from(env_override: Option<&str>) -> usize {
    if let Some(v) = env_override {
        if let Ok(n) = v.trim().parse::<usize>() {
            if n >= 1 {
                return n;
            }
        }
    }
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4)
}

/// Maps `f` over `items` on [`jobs`]`()` workers, preserving item order
/// in the returned vector.
pub fn run<T, R, F>(items: Vec<T>, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(usize, T) -> R + Sync,
{
    run_on(jobs(), items, f)
}

/// [`run`] with an explicit worker count.
pub fn run_on<T, R, F>(jobs: usize, items: Vec<T>, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(usize, T) -> R + Sync,
{
    run_observed(jobs, items, f, |_| {})
}

/// [`run_on`] with a progress observer, called after every completed
/// item (from whichever worker finished it).
///
/// The observer sees completion order, which **is** scheduling
/// dependent; the returned results are not — they are always in
/// canonical item order.
///
/// # Panics
///
/// Propagates the first panic raised by `f` once all workers have
/// stopped.
pub fn run_observed<T, R, F, O>(jobs: usize, items: Vec<T>, f: F, observe: O) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(usize, T) -> R + Sync,
    O: Fn(ItemReport) + Sync,
{
    let total = items.len();
    if total == 0 {
        return Vec::new();
    }
    let workers = jobs.max(1).min(total);
    if workers == 1 {
        // Serial escape hatch: run in order on the calling thread.
        return items
            .into_iter()
            .enumerate()
            .map(|(index, item)| {
                // cgct-lint: allow(D001) per-item wall time is telemetry for progress display only
                let t0 = Instant::now();
                let r = f(index, item);
                observe(ItemReport {
                    index,
                    done: index + 1,
                    total,
                    seconds: t0.elapsed().as_secs_f64(),
                });
                r
            })
            .collect();
    }

    let injector: Injector<(usize, T)> = Injector::new();
    // One slot per item so workers never contend on a shared results
    // vector; canonical order falls out of the slot index.
    let slots: Vec<Mutex<Option<R>>> = (0..total).map(|_| Mutex::new(None)).collect();
    let done = AtomicUsize::new(0);
    for pair in items.into_iter().enumerate() {
        injector.push(pair);
    }
    injector.close();
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| {
                while let Some((index, item)) = injector.pop() {
                    // cgct-lint: allow(D001) per-item wall time is telemetry for progress display only
                    let t0 = Instant::now();
                    let r = f(index, item);
                    *slots[index].lock().expect("result slot poisoned") = Some(r);
                    let finished = done.fetch_add(1, Ordering::SeqCst) + 1;
                    observe(ItemReport {
                        index,
                        done: finished,
                        total,
                        seconds: t0.elapsed().as_secs_f64(),
                    });
                }
            });
        }
    });
    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("result slot poisoned")
                .expect("worker exited without producing a result")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::sync::atomic::AtomicU64;
    use std::sync::Mutex;

    #[test]
    fn results_are_in_canonical_order_for_any_worker_count() {
        let items: Vec<u64> = (0..100).collect();
        let expect: Vec<u64> = items.iter().map(|x| x * 3 + 1).collect();
        for jobs in [1, 2, 3, 8, 64, 200] {
            let got = run_on(jobs, items.clone(), |_, x| x * 3 + 1);
            assert_eq!(got, expect, "jobs={jobs}");
        }
    }

    #[test]
    fn single_job_runs_on_calling_thread_in_order() {
        let caller = std::thread::current().id();
        let seen = Mutex::new(Vec::new());
        run_on(1, (0usize..16).collect(), |i, x| {
            assert_eq!(std::thread::current().id(), caller);
            seen.lock().unwrap().push(i);
            x
        });
        assert_eq!(*seen.lock().unwrap(), (0..16).collect::<Vec<_>>());
    }

    #[test]
    fn parallel_run_uses_multiple_threads() {
        // With workers blocked until both have picked up an item, two
        // distinct thread ids must appear.
        let barrier = std::sync::Barrier::new(2);
        let ids = Mutex::new(HashSet::new());
        run_on(2, vec![(), ()], |_, _| {
            ids.lock().unwrap().insert(std::thread::current().id());
            barrier.wait();
        });
        assert_eq!(ids.lock().unwrap().len(), 2);
    }

    #[test]
    fn observer_sees_every_item_exactly_once() {
        for jobs in [1, 4] {
            let seen = Mutex::new(Vec::new());
            let sum = AtomicU64::new(0);
            run_observed(
                jobs,
                (0u64..37).collect(),
                |_, x| {
                    sum.fetch_add(x, Ordering::Relaxed);
                },
                |report| {
                    assert_eq!(report.total, 37);
                    assert!(report.done >= 1 && report.done <= 37);
                    assert!(report.seconds >= 0.0);
                    seen.lock().unwrap().push(report.index);
                },
            );
            let mut indices = seen.lock().unwrap().clone();
            indices.sort_unstable();
            assert_eq!(indices, (0..37).collect::<Vec<_>>(), "jobs={jobs}");
            assert_eq!(sum.load(Ordering::Relaxed), (0..37).sum::<u64>());
        }
    }

    #[test]
    fn empty_input_returns_empty() {
        let out: Vec<u32> = run_on(8, Vec::<u32>::new(), |_, x| x);
        assert!(out.is_empty());
    }

    #[test]
    fn injector_delivers_all_items_across_consumers() {
        let q: Injector<u32> = Injector::new();
        let got = Mutex::new(Vec::new());
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    while let Some(x) = q.pop() {
                        got.lock().unwrap().push(x);
                    }
                });
            }
            // Producer: stream items, then close (consumers may be
            // parked on the condvar at any point in between).
            for x in 0..1000 {
                q.push(x);
            }
            q.close();
        });
        let mut v = got.into_inner().unwrap();
        v.sort_unstable();
        assert_eq!(v, (0..1000).collect::<Vec<_>>());
    }

    #[test]
    fn injector_pop_after_close_drains_then_stops() {
        let q: Injector<&str> = Injector::new();
        q.push("a");
        q.push("b");
        q.close();
        assert_eq!(q.pop(), Some("a"));
        assert_eq!(q.pop(), Some("b"));
        assert_eq!(q.pop(), None);
        assert_eq!(q.pop(), None);
    }

    #[test]
    #[should_panic(expected = "push after close")]
    fn injector_rejects_push_after_close() {
        let q: Injector<u8> = Injector::new();
        q.close();
        q.push(1);
    }

    #[test]
    fn jobs_from_parses_override() {
        assert_eq!(jobs_from(Some("1")), 1);
        assert_eq!(jobs_from(Some("6")), 6);
        assert_eq!(jobs_from(Some(" 12 ")), 12);
        // Invalid values fall back to machine parallelism (>= 1).
        assert!(jobs_from(Some("0")) >= 1);
        assert!(jobs_from(Some("lots")) >= 1);
        assert!(jobs_from(None) >= 1);
    }

    #[test]
    fn worker_panic_propagates() {
        let result = std::panic::catch_unwind(|| {
            run_on(2, vec![0u32, 1, 2, 3], |_, x| {
                if x == 2 {
                    panic!("item failed");
                }
                x
            })
        });
        assert!(result.is_err());
    }
}
