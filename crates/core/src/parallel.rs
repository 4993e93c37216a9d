//! Shared worker-pool utilities.
//!
//! One idiom serves every parallel site in the crate: an **order-preserving
//! parallel map** over an owned work list, built on `std` alone: scoped
//! threads (`std::thread::scope`), one `mpsc` task queue that the workers
//! share behind a `Mutex`, and one `mpsc` result channel. Callers fan the
//! *pure* part of their work out through [`par_map`] and then apply the
//! results sequentially in a deterministic order, so parallel and
//! sequential runs produce identical structures.
//!
//! The engine underneath is [`par_map_streamed`]: a **bounded-window
//! streaming map**. At most `window` items are admitted at once — counting
//! both tasks in flight and results buffered for in-order delivery — and
//! each result is handed to a sink callback in input order as soon as its
//! turn completes, so the caller can release a shard's state eagerly instead
//! of holding all `n` results until the round ends. [`par_map_isolated`] is
//! the window = `n` special case that collects into a vector.
//!
//! The pool is **panic-safe**: every task body runs under `catch_unwind`, so
//! one misbehaving task cannot unwind the scope and take the other tasks'
//! results with it. [`par_map_isolated`] surfaces per-item faults as
//! `Result<R, TaskFault>` in the original item order; [`par_map`] keeps its
//! infallible signature (a faulting task re-raises after all surviving
//! results are collected) so existing callers see byte-identical behaviour.
//!
//! The pool has **one level of parallelism**: a map issued from a pool
//! worker runs inline on that worker, through the same sequential loop a
//! `threads = 1` map takes (see [`effective_threads`]). Work is independent
//! per source, so the parallelism belongs at the outermost map — the
//! framework's per-source rounds — and a hierarchy built inside a source's
//! task must not open a second pool per level. Effective concurrency is
//! `min(threads, items, window)` for a map issued from any other thread,
//! and 1 inside a worker. The inline route is the `threads = 1` code, so
//! outputs stay bit-identical at every thread count.
//!
//! When the calling thread holds an active [`crate::budget::BudgetScope`]
//! with a wall-clock deadline, the collection loop switches from blocking
//! `recv` to `recv_timeout` against that deadline: a pool whose workers are
//! stuck in a pathological task is abandoned at the deadline instead of
//! hanging the run (workers observe a cancel flag and drain the remaining
//! queue without executing it).

use crate::budget;
use crate::quarantine::FaultCause;
use crate::telemetry;
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{self, RecvTimeoutError};
use std::sync::{Mutex, PoisonError};
use std::thread;
use std::time::Instant;

/// Worker-pool instrumentation. `pool.tasks` (exact, counted once per map
/// call) and the per-kind fault counters are precise; the wait/exec/
/// occupancy histograms are *statistical samples* — every
/// [`SPAN_SAMPLE_EVERY`]-th task per thread, starting with the first —
/// because two clock reads plus three histogram records per task would
/// dominate the sub-microsecond tasks this pool is fed (millions per
/// run). Sampling keeps the shape of the distributions at ~1/64 the cost.
mod metrics {
    use crate::budget::BreachKind;
    use crate::quarantine::FaultCause;

    crate::counter!(pub TASKS, "pool.tasks");
    crate::counter!(pub FAULTS_PARSE, "pool.faults.parse");
    crate::counter!(pub FAULTS_PANIC, "pool.faults.panic");
    crate::counter!(pub FAULTS_BUDGET, "pool.faults.budget");
    crate::counter!(pub FAULTS_DEADLINE, "pool.faults.deadline");
    crate::histogram!(pub TASK_WAIT_NS, "pool.task.wait_ns");
    crate::histogram!(pub TASK_EXEC_NS, "pool.task.exec_ns");
    crate::histogram!(pub WINDOW_OCCUPANCY, "pool.window.occupancy");

    /// Counts one fault under the counter matching its cause. Deadline
    /// breaches get their own bucket (they mean the *pool* was abandoned,
    /// not that the task itself exhausted a budget).
    pub fn record_fault(cause: &FaultCause) {
        match cause {
            FaultCause::Parse { .. } => FAULTS_PARSE.inc(),
            FaultCause::Panic { .. } => FAULTS_PANIC.inc(),
            FaultCause::Budget(breach) if breach.kind == BreachKind::Deadline => {
                FAULTS_DEADLINE.inc()
            }
            FaultCause::Budget(_) => FAULTS_BUDGET.inc(),
        }
    }
}

/// One task in this many (per thread) records its timing histograms.
const SPAN_SAMPLE_EVERY: u32 = 64;

thread_local! {
    /// Per-thread sample pacer for the pool's timing histograms.
    static SPAN_PACER: std::cell::Cell<u32> = const { std::cell::Cell::new(0) };
}

/// Whether this thread's next pool event falls on the sample grid. The
/// first event on every thread samples, so short runs still populate the
/// histograms.
#[inline]
fn sample_span() -> bool {
    SPAN_PACER.with(|c| {
        let v = c.get();
        c.set(v.wrapping_add(1));
        v % SPAN_SAMPLE_EVERY == 0
    })
}

thread_local! {
    /// Set for the lifetime of every pool worker thread: maps issued from
    /// it run inline (see [`effective_threads`]).
    static IN_WORKER: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

/// The number of threads a map issued from this thread actually uses:
/// `threads` on any thread outside the pool, 1 on a pool worker. Nested
/// maps run inline on the worker that issued them, so a source task never
/// spawns threads of its own.
pub fn effective_threads(threads: usize) -> usize {
    if threads > 1 && IN_WORKER.with(|w| w.get()) {
        1
    } else {
        threads
    }
}

/// A fault raised by one task of a parallel map: which item faulted and why.
#[derive(Debug, Clone, PartialEq)]
pub struct TaskFault {
    /// Index of the faulting item in the input `items` vector.
    pub index: usize,
    /// The converted panic payload (typed budget breaches are preserved).
    pub cause: FaultCause,
}

thread_local! {
    /// Set while a `run_isolated` body executes, so the process-wide panic
    /// hook stays silent for panics we intend to catch and report.
    static QUIET_PANICS: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

fn install_quiet_hook() {
    static ONCE: std::sync::Once = std::sync::Once::new();
    ONCE.call_once(|| {
        let previous = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if !QUIET_PANICS.with(|q| q.get()) {
                previous(info);
            }
        }));
    });
}

/// Runs `f` under `catch_unwind`, converting a panic into a structured
/// [`FaultCause`] and suppressing the default panic-hook stderr noise for
/// the duration. The body is treated as logically unwind-safe: a faulting
/// task's partial state is discarded wholesale, never observed.
pub fn run_isolated<R>(f: impl FnOnce() -> R) -> Result<R, FaultCause> {
    install_quiet_hook();
    struct QuietGuard(bool);
    impl Drop for QuietGuard {
        fn drop(&mut self) {
            QUIET_PANICS.with(|q| q.set(self.0));
        }
    }
    let _guard = QuietGuard(QUIET_PANICS.with(|q| q.replace(true)));
    catch_unwind(AssertUnwindSafe(f)).map_err(FaultCause::from_panic_payload)
}

/// The `FaultCause` of a task abandoned at the pool's deadline.
fn deadline_cause() -> FaultCause {
    run_isolated(|| budget::breach_deadline()).expect_err("breach always unwinds")
}

/// Converts a delivered slot into the sink's `Result` form.
fn finish_slot<R>(index: usize, out: Option<Result<R, FaultCause>>) -> Result<R, TaskFault> {
    match out {
        Some(Ok(r)) => Ok(r),
        Some(Err(cause)) => {
            metrics::record_fault(&cause);
            Err(TaskFault { index, cause })
        }
        // Slot skipped after cancellation (or lost to an abandoned pool):
        // the deadline elapsed before this task ran.
        None => {
            metrics::FAULTS_DEADLINE.inc();
            Err(TaskFault {
                index,
                cause: deadline_cause(),
            })
        }
    }
}

/// Streaming order-preserving parallel map with a bounded admission window.
///
/// At most `window` items are admitted at once — in flight on a worker or
/// buffered awaiting in-order delivery — so the caller's peak resident state
/// is proportional to the window, not to `items.len()`. Each result is
/// handed to `sink(index, result)` in input order the moment its turn
/// completes; `sink` runs on the calling thread and is called exactly once
/// per item, faulted or not.
///
/// Every task runs isolated (see [`par_map_isolated`]); deadline handling,
/// fault conversion, and the sequential fallback — taken for `threads <= 1`,
/// fewer than two items, or a call from a pool worker — are identical, so a
/// streamed run produces bit-identical sink invocations at every
/// `(window, threads)` combination.
pub fn par_map_streamed<T, R, F, S>(threads: usize, window: usize, items: Vec<T>, f: F, mut sink: S)
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
    S: FnMut(usize, Result<R, TaskFault>),
{
    let n = items.len();
    // Counted once per map call, not per task: the total stays exact by
    // the time the call returns (every admitted item reaches the sink)
    // without an atomic bump on each sub-microsecond task.
    metrics::TASKS.add(n as u64);
    let deadline = budget::active_deadline();
    // `effective_threads` last, so 1-thread maps never touch the TLS flag.
    if threads <= 1 || n <= 1 || effective_threads(threads) <= 1 {
        for (index, item) in items.into_iter().enumerate() {
            if let Some(d) = deadline {
                if Instant::now() >= d {
                    sink(index, finish_slot(index, None));
                    continue;
                }
            }
            if telemetry::enabled() && sample_span() {
                let start_ns = telemetry::clock_ns();
                let out = run_isolated(|| f(item));
                metrics::TASK_WAIT_NS.record(0);
                metrics::TASK_EXEC_NS.record(telemetry::clock_ns().saturating_sub(start_ns));
                sink(index, finish_slot(index, Some(out)));
            } else {
                let out = run_isolated(|| f(item));
                sink(index, finish_slot(index, Some(out)));
            }
        }
        return;
    }

    let window = window.max(1);
    let (task_tx, task_rx) = mpsc::channel::<(usize, T, u64)>();
    // One task queue shared by every worker: a worker holds the lock only
    // while it takes its next task, never while the task body runs. Nothing
    // can panic under the lock, and `recv` leaves the receiver valid, so a
    // poisoned lock is recovered from.
    let task_rx = Mutex::new(task_rx);
    let (res_tx, res_rx) = mpsc::channel::<(usize, Option<Result<R, FaultCause>>)>();
    let cancelled = AtomicBool::new(false);
    thread::scope(|scope| {
        for _ in 0..threads.min(n).min(window) {
            let res_tx = res_tx.clone();
            let (f, task_rx, cancelled) = (&f, &task_rx, &cancelled);
            scope.spawn(move || {
                IN_WORKER.with(|w| w.set(true));
                loop {
                    let next = task_rx
                        .lock()
                        .unwrap_or_else(PoisonError::into_inner)
                        .recv();
                    let Ok((i, item, enqueued_ns)) = next else {
                        break;
                    };
                    // After cancellation we still drain the queue so the
                    // collector sees exactly one marker per admitted item,
                    // but skip the work. `enqueued_ns == u64::MAX` marks an
                    // unsampled task (see the admission site).
                    let out = if cancelled.load(Ordering::Acquire) {
                        None
                    } else if enqueued_ns != u64::MAX {
                        let start_ns = telemetry::clock_ns();
                        metrics::TASK_WAIT_NS.record(start_ns.saturating_sub(enqueued_ns));
                        let out = run_isolated(|| f(item));
                        metrics::TASK_EXEC_NS
                            .record(telemetry::clock_ns().saturating_sub(start_ns));
                        Some(out)
                    } else {
                        Some(run_isolated(|| f(item)))
                    };
                    res_tx
                        .send((i, out))
                        .expect("the collector outlives the scope");
                }
            });
        }
        drop(res_tx);
        let mut feed = items.into_iter().enumerate();
        // Results that completed out of order, keyed by input index. Entries
        // here still count against the window, so buffered memory is bounded
        // by `window` items too.
        let mut pending: BTreeMap<usize, Option<Result<R, FaultCause>>> = BTreeMap::new();
        let mut in_flight = 0usize;
        let mut next = 0usize;
        while next < n {
            while in_flight < window {
                match feed.next() {
                    Some((i, item)) => {
                        // The admission decides whether this task samples
                        // its timing histograms; `u64::MAX` marks the
                        // unsampled majority so workers skip both clock
                        // reads entirely.
                        let enqueued_ns = if telemetry::enabled() && sample_span() {
                            metrics::WINDOW_OCCUPANCY.record(in_flight as u64 + 1);
                            telemetry::clock_ns()
                        } else {
                            u64::MAX
                        };
                        task_tx
                            .send((i, item, enqueued_ns))
                            .expect("the queue outlives the scope");
                        in_flight += 1;
                    }
                    None => break,
                }
            }
            if in_flight == 0 {
                // Feeder exhausted with nothing outstanding — only reachable
                // when results were lost to a dead pool; the drain below
                // fills the remaining slots.
                break;
            }
            let msg = match deadline {
                Some(d) if !cancelled.load(Ordering::Acquire) => {
                    let now = Instant::now();
                    if now >= d {
                        cancelled.store(true, Ordering::Release);
                        continue;
                    }
                    match res_rx.recv_timeout(d - now) {
                        Ok(msg) => Some(msg),
                        Err(RecvTimeoutError::Timeout) => {
                            cancelled.store(true, Ordering::Release);
                            continue;
                        }
                        Err(RecvTimeoutError::Disconnected) => None,
                    }
                }
                // No deadline (or already cancelled — only drain remains,
                // which cannot block indefinitely): plain blocking recv.
                _ => res_rx.recv().ok(),
            };
            let Some((i, out)) = msg else { break };
            pending.insert(i, out);
            // Deliver every in-order result that is now ready; each delivery
            // frees one window slot for the feeder.
            while let Some(out) = pending.remove(&next) {
                let index = next;
                next += 1;
                in_flight -= 1;
                sink(index, finish_slot(index, out));
            }
        }
        // Close the task queue so workers exit and the scope can join.
        drop(task_tx);
        // Abandoned-pool drain: deliver any remaining slots (buffered or
        // never completed) so the sink always sees exactly n calls in order.
        while next < n {
            let index = next;
            next += 1;
            let out = pending.remove(&index).flatten();
            sink(index, finish_slot(index, out));
        }
    });
}

/// Order-preserving parallel map over `items` with `threads` workers,
/// surfacing per-item faults.
///
/// Every task runs isolated: a panic (or budget breach) in one task becomes
/// `Err(TaskFault)` at that item's position while every other task runs to
/// completion. Output order always matches input order, whatever the thread
/// count — fault positions never perturb the order or values of surviving
/// results.
///
/// With `threads <= 1`, fewer than two items, or when called from a pool
/// worker, this degrades to a plain sequential loop with no thread or
/// channel overhead.
pub fn par_map_isolated<T, R, F>(threads: usize, items: Vec<T>, f: F) -> Vec<Result<R, TaskFault>>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    let n = items.len();
    let mut out = Vec::with_capacity(n);
    par_map_streamed(threads, n.max(1), items, f, |index, r| {
        debug_assert_eq!(index, out.len(), "sink delivery is in input order");
        out.push(r);
    });
    out
}

/// Order-preserving parallel map over `items` with `threads` workers.
///
/// Infallible wrapper over [`par_map_isolated`]: behaviour is byte-identical
/// to the pre-isolation pool for non-panicking tasks, and a task that *does*
/// panic re-raises on the calling thread — but only after every other task
/// has run to completion, so sibling work is never torn down mid-flight.
///
/// With `threads <= 1`, fewer than two items, or when called from a pool
/// worker, this degrades to a plain sequential map with no thread or
/// channel overhead, so callers can pass a configured thread count
/// straight through.
pub fn par_map<T, R, F>(threads: usize, items: Vec<T>, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    par_map_isolated(threads, items, f)
        .into_iter()
        .map(|r| match r {
            Ok(v) => v,
            Err(fault) => match fault.cause {
                FaultCause::Budget(breach) => budget::breach(breach),
                cause => panic!("par_map task {} panicked: {cause}", fault.index),
            },
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::budget::{BreachKind, BudgetBreach, BudgetScope, SourceBudget};
    use std::time::Duration;

    #[test]
    fn par_map_preserves_order() {
        let items: Vec<u32> = (0..100).collect();
        let out = par_map(4, items.clone(), |x| x * 2);
        assert_eq!(out, items.iter().map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn par_map_sequential_fallback() {
        assert_eq!(par_map(1, vec![3, 1, 2], |x| x + 1), vec![4, 2, 3]);
        assert_eq!(par_map(8, vec![7], |x| x - 1), vec![6]);
        assert_eq!(par_map(8, Vec::<u8>::new(), |x| x), Vec::<u8>::new());
    }

    #[test]
    fn streamed_delivers_in_order_at_every_window() {
        for window in [1usize, 2, 3, 7, 64] {
            for threads in [1usize, 4, 8] {
                let mut seen: Vec<(usize, u32)> = Vec::new();
                par_map_streamed(
                    threads,
                    window,
                    (0u32..50).collect(),
                    |x| x * 2,
                    |i, r| {
                        seen.push((i, r.expect("no faults injected")));
                    },
                );
                let expect: Vec<(usize, u32)> =
                    (0..50).map(|i| (i as usize, i as u32 * 2)).collect();
                assert_eq!(seen, expect, "window {window}, threads {threads}");
            }
        }
    }

    #[test]
    fn streamed_window_bounds_admission() {
        use std::sync::atomic::AtomicUsize;
        let in_flight = AtomicUsize::new(0);
        let peak = AtomicUsize::new(0);
        let window = 3usize;
        par_map_streamed(
            8,
            window,
            (0u32..40).collect(),
            |x| {
                let cur = in_flight.fetch_add(1, Ordering::SeqCst) + 1;
                peak.fetch_max(cur, Ordering::SeqCst);
                std::thread::sleep(Duration::from_millis(1));
                in_flight.fetch_sub(1, Ordering::SeqCst);
                x
            },
            |_, _| {},
        );
        assert!(
            peak.load(Ordering::SeqCst) <= window,
            "no more than `window` tasks may execute concurrently"
        );
    }

    #[test]
    fn streamed_surfaces_faults_in_order() {
        for window in [1usize, 2, 16] {
            let mut seen = Vec::new();
            par_map_streamed(
                4,
                window,
                (0u32..20).collect(),
                |x| {
                    if x % 5 == 0 {
                        panic!("boom {x}");
                    }
                    x
                },
                |i, r| seen.push((i, r)),
            );
            assert_eq!(seen.len(), 20);
            for (pos, (i, r)) in seen.iter().enumerate() {
                assert_eq!(pos, *i, "sink order matches input order");
                if pos % 5 == 0 {
                    let fault = r.as_ref().unwrap_err();
                    assert_eq!(fault.index, pos);
                } else {
                    assert_eq!(*r.as_ref().unwrap(), pos as u32);
                }
            }
        }
    }

    #[test]
    fn isolated_surfaces_faults_in_place() {
        for threads in [1, 4] {
            let out = par_map_isolated(threads, (0u32..20).collect(), |x| {
                if x % 7 == 3 {
                    panic!("fault at {x}");
                }
                x * 10
            });
            for (i, r) in out.iter().enumerate() {
                if i % 7 == 3 {
                    let fault = r.as_ref().unwrap_err();
                    assert_eq!(fault.index, i);
                    match &fault.cause {
                        FaultCause::Panic { message } => {
                            assert_eq!(message, &format!("fault at {i}"));
                        }
                        other => panic!("unexpected cause {other:?}"),
                    }
                } else {
                    assert_eq!(*r.as_ref().unwrap(), (i as u32) * 10);
                }
            }
        }
    }

    #[test]
    fn isolated_all_tasks_fault() {
        let out = par_map_isolated(4, vec![(); 16], |()| -> u8 { panic!("nothing survives") });
        assert_eq!(out.len(), 16);
        assert!(out.iter().all(|r| r.is_err()));
        assert!((0..16).all(|i| out[i].as_ref().unwrap_err().index == i));
    }

    #[test]
    fn isolated_preserves_typed_budget_breach() {
        let breach = BudgetBreach {
            kind: BreachKind::Facts,
            limit: 3,
            observed: 8,
        };
        let out = par_map_isolated(2, vec![0, 1], |x| {
            if x == 1 {
                crate::budget::breach(BudgetBreach {
                    kind: BreachKind::Facts,
                    limit: 3,
                    observed: 8,
                });
            }
            x
        });
        assert_eq!(out[0], Ok(0));
        assert_eq!(
            out[1].as_ref().unwrap_err().cause,
            FaultCause::Budget(breach)
        );
    }

    #[test]
    fn deadline_abandons_stuck_pool() {
        // 16 tasks x 20ms on 2 workers ≈ 160ms of work against a 40ms
        // deadline: completion within the deadline is impossible, so some
        // tail of the task list must come back as Deadline faults while
        // every completed prefix value is correct.
        let budget = SourceBudget::unlimited().with_deadline(Duration::from_millis(40));
        let _scope = BudgetScope::enter(&budget);
        let out = par_map_isolated(2, (0u32..16).collect(), |x| {
            std::thread::sleep(Duration::from_millis(20));
            x + 1
        });
        let deadline_faults = out
            .iter()
            .filter(|r| {
                matches!(
                    r,
                    Err(TaskFault {
                        cause: FaultCause::Budget(BudgetBreach {
                            kind: BreachKind::Deadline,
                            ..
                        }),
                        ..
                    })
                )
            })
            .count();
        assert!(deadline_faults > 0, "deadline never fired: {out:?}");
        for (i, r) in out.iter().enumerate() {
            if let Ok(v) = r {
                assert_eq!(*v, i as u32 + 1);
            }
        }
    }

    #[test]
    fn deadline_with_small_window_delivers_every_slot_in_order() {
        // 16 tasks x 20ms admitted two at a time against a 50ms deadline:
        // most items are still unadmitted when the deadline fires. They are
        // admitted afterwards and skipped by the workers, and every slot
        // must still reach the sink, in order.
        let budget = SourceBudget::unlimited().with_deadline(Duration::from_millis(50));
        let _scope = BudgetScope::enter(&budget);
        let mut seen = Vec::new();
        par_map_streamed(
            4,
            2,
            (0u32..16).collect(),
            |x| {
                std::thread::sleep(Duration::from_millis(20));
                x + 1
            },
            |i, r| seen.push((i, r)),
        );
        assert_eq!(seen.len(), 16, "one sink call per item");
        for (pos, (i, r)) in seen.iter().enumerate() {
            assert_eq!(pos, *i, "sink order matches input order");
            if let Ok(v) = r {
                assert_eq!(*v, pos as u32 + 1);
            }
        }
        assert!(seen[0].1.is_ok(), "first task started before the deadline");
        assert!(
            seen.iter().any(|(_, r)| matches!(
                r,
                Err(TaskFault {
                    cause: FaultCause::Budget(BudgetBreach {
                        kind: BreachKind::Deadline,
                        ..
                    }),
                    ..
                })
            )),
            "deadline never fired: {seen:?}"
        );
    }

    #[test]
    fn sequential_path_respects_deadline() {
        let budget = SourceBudget::unlimited().with_deadline(Duration::from_millis(10));
        let _scope = BudgetScope::enter(&budget);
        let out = par_map_isolated(1, (0u32..8).collect(), |x| {
            std::thread::sleep(Duration::from_millis(15));
            x
        });
        assert!(out[0].is_ok(), "first task started before the deadline");
        assert!(
            out.iter().any(|r| r.is_err()),
            "later tasks must observe the elapsed deadline"
        );
    }

    /// Runs `body` once as the task of a 4-thread streamed map, so it
    /// executes on a pool worker.
    fn on_worker<R: Send>(body: impl Fn() -> R + Sync) -> R {
        let mut out = None;
        par_map_streamed(
            4,
            4,
            vec![(), ()],
            |()| body(),
            |i, r| {
                if i == 0 {
                    out = Some(r.expect("worker body does not fault"));
                }
            },
        );
        out.expect("sink saw item 0")
    }

    #[test]
    fn nested_map_runs_inline_on_the_worker() {
        let (worker, ran_on) = on_worker(|| {
            let me = std::thread::current().id();
            (
                me,
                par_map(4, (0..32).collect(), |_: u32| std::thread::current().id()),
            )
        });
        assert_ne!(worker, std::thread::current().id(), "body ran on a worker");
        assert!(
            ran_on.iter().all(|&id| id == worker),
            "every nested item ran on its worker"
        );
    }

    #[test]
    fn nested_map_preserves_order_and_faults() {
        let out = on_worker(|| {
            par_map_isolated(4, (0u32..20).collect(), |x| {
                if x % 6 == 1 {
                    panic!("nested fault at {x}");
                }
                x * 3
            })
        });
        assert_eq!(out.len(), 20);
        for (i, r) in out.iter().enumerate() {
            if i % 6 == 1 {
                let fault = r.as_ref().unwrap_err();
                assert_eq!(fault.index, i);
                assert_eq!(
                    fault.cause,
                    FaultCause::Panic {
                        message: format!("nested fault at {i}")
                    }
                );
            } else {
                assert_eq!(*r.as_ref().unwrap(), i as u32 * 3);
            }
        }
    }

    #[test]
    fn nested_map_respects_the_worker_deadline() {
        // 16 x 10ms inline against a 50ms deadline: the loop must stop
        // running items once the deadline passes, so the tail faults.
        let out = on_worker(|| {
            let budget = SourceBudget::unlimited().with_deadline(Duration::from_millis(50));
            let _scope = BudgetScope::enter(&budget);
            par_map_isolated(4, (0u32..16).collect(), |x| {
                std::thread::sleep(Duration::from_millis(10));
                x
            })
        });
        assert!(out[0].is_ok(), "first task started before the deadline");
        let is_deadline = |r: &Result<u32, TaskFault>| {
            matches!(
                r,
                Err(TaskFault {
                    cause: FaultCause::Budget(BudgetBreach {
                        kind: BreachKind::Deadline,
                        ..
                    }),
                    ..
                })
            )
        };
        let first_fault = out.iter().position(is_deadline).expect("deadline fired");
        assert!(
            out[first_fault..].iter().all(is_deadline),
            "the whole tail faults"
        );
    }

    #[test]
    fn top_level_map_still_fans_out() {
        // Each task waits (bounded) until both have started: on one thread
        // the first times out alone and both report the same id.
        let arrived = (std::sync::Mutex::new(0usize), std::sync::Condvar::new());
        let ids = par_map(4, vec![0u32, 1], |_| {
            let (count, cv) = &arrived;
            let mut n = count.lock().expect("no task panics holding it");
            *n += 1;
            cv.notify_all();
            let _ = cv
                .wait_timeout_while(n, Duration::from_secs(5), |n| *n < 2)
                .expect("no task panics holding it");
            std::thread::current().id()
        });
        assert_ne!(ids[0], ids[1], "a main-thread map uses several workers");
    }

    #[test]
    fn a_free_worker_takes_queued_tasks_while_another_runs() {
        // Item 0 waits (bounded) until item 2 has run. A worker that held
        // the queue lock through its task body would keep the other worker
        // from taking items 1 and 2, and item 0 would time out.
        let ran = (Mutex::new(false), std::sync::Condvar::new());
        let out = par_map(2, vec![0u32, 1, 2], |x| {
            let (flag, cv) = &ran;
            match x {
                0 => {
                    let seen = flag.lock().expect("no task panics holding it");
                    let (seen, _) = cv
                        .wait_timeout_while(seen, Duration::from_secs(5), |seen| !*seen)
                        .expect("no task panics holding it");
                    *seen
                }
                2 => {
                    *flag.lock().expect("no task panics holding it") = true;
                    cv.notify_all();
                    true
                }
                _ => true,
            }
        });
        assert_eq!(out, vec![true, true, true], "item 0 saw item 2 run");
    }

    #[test]
    fn pool_spawns_at_most_threads_items_and_window_workers() {
        let caller = std::thread::current().id();
        for (threads, window, n) in [(8usize, 3usize, 40u32), (2, 64, 40), (8, 64, 5)] {
            let ids = Mutex::new(std::collections::HashSet::new());
            par_map_streamed(
                threads,
                window,
                (0..n).collect(),
                |_| {
                    ids.lock()
                        .expect("no task panics holding it")
                        .insert(std::thread::current().id());
                    std::thread::sleep(Duration::from_millis(1));
                },
                |_, r| r.expect("no faults injected"),
            );
            let ids = ids.into_inner().expect("no task panics holding it");
            let cap = threads.min(window).min(n as usize);
            assert!(
                !ids.is_empty() && ids.len() <= cap,
                "{} workers ran tasks, at most {cap} allowed \
                 (threads {threads}, window {window}, items {n})",
                ids.len()
            );
            assert!(!ids.contains(&caller), "the calling thread only collects");
        }
    }

    #[test]
    fn effective_threads_is_one_only_on_a_worker() {
        assert_eq!(effective_threads(4), 4);
        assert_eq!(effective_threads(1), 1);
        assert_eq!(on_worker(|| effective_threads(4)), 1);
    }

    #[test]
    #[should_panic(expected = "par_map task 2 panicked")]
    fn infallible_wrapper_reraises() {
        par_map(4, vec![0, 1, 2, 3], |x| {
            if x == 2 {
                panic!("boom");
            }
            x
        });
    }
}
