//! # gridsched-exec
//!
//! A vendored, dependency-free **persistent worker pool** for the strategy
//! sweep hot path.
//!
//! The planning layer regenerates full scenario sweeps on every release,
//! replan and fault-driven schedule switch. Before this crate, each sweep
//! spawned one scoped OS thread per scenario (~20µs of spawn/join churn per
//! ~500µs of planning work) and tore everything down again. The pool keeps
//! long-lived workers parked on a condvar; a sweep is submitted as a *batch*
//! — a shared claim counter over `0..len` that workers (and the submitting
//! thread itself) drain one index at a time. Chunk size 1 is deliberate:
//! scenarios are coarse-grained and few, so per-claim overhead is noise and
//! the finest granularity gives the best load balance.
//!
//! ## Determinism contract
//!
//! [`WorkerPool::scatter`] writes each result into a slot addressed by its
//! input index. Collection order is therefore **input order, regardless of
//! completion order** — the caller observes exactly what a sequential loop
//! would produce, bit for bit, as long as the closure itself is a pure
//! function of its index. This is the contract the strategy sweep's
//! determinism suite pins.
//!
//! ## Why `unsafe` lives here
//!
//! Every other workspace crate carries `#![forbid(unsafe_code)]`. The pool
//! needs two narrow unsafe ingredients — a type-erased closure pointer so a
//! non-generic batch can sit in a queue, and index-addressed result slots
//! written concurrently — so it is quarantined in this crate with the
//! invariants documented at each `unsafe` block.

#![warn(missing_docs)]
#![deny(unsafe_op_in_unsafe_fn)]

use std::cell::UnsafeCell;
use std::collections::VecDeque;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::thread::JoinHandle;

/// A batch of `len` independent work items drained through a shared claim
/// counter.
///
/// # Safety invariant
///
/// `data` points at a `F: Fn(usize) + Sync` that lives on the stack of the
/// thread inside [`WorkerPool::run_batch`]. It is dereferenced (via `call`)
/// only between claiming an index `< len` and decrementing `remaining`.
/// While any such dereference is in flight, `remaining > 0`, so the
/// submitting thread is still blocked waiting on `done` and the closure is
/// alive. A laggard worker that still holds an `Arc<Batch>` after the batch
/// completed can only observe `next >= len` and returns without touching
/// `data`.
struct Batch {
    data: *const (),
    call: unsafe fn(*const (), usize),
    len: usize,
    /// Next unclaimed index. Claims beyond `len` mean "drained".
    next: AtomicUsize,
    /// Items not yet finished; the last decrement flips `done`.
    remaining: AtomicUsize,
    done: Mutex<bool>,
    done_cv: Condvar,
    /// First panic payload observed while running items, if any.
    panic: Mutex<Option<Box<dyn std::any::Any + Send>>>,
}

// SAFETY: `data` is only ever dereferenced under the lifetime invariant
// documented on [`Batch`], and the pointee is `Sync` (enforced by the
// `F: Sync` bound on `run_batch`), so shared access from worker threads is
// sound. All other fields are `Send + Sync` already.
unsafe impl Send for Batch {}
// SAFETY: see the `Send` justification above.
unsafe impl Sync for Batch {}

impl Batch {
    fn fully_claimed(&self) -> bool {
        self.next.load(Ordering::Relaxed) >= self.len
    }

    /// Drain items from the claim counter until the batch is exhausted.
    ///
    /// Called from worker threads and from the submitting thread itself
    /// (caller participation makes a zero-worker pool a plain sequential
    /// loop with two atomic ops of overhead per item).
    fn run_worker(&self) {
        loop {
            let i = self.next.fetch_add(1, Ordering::Relaxed);
            if i >= self.len {
                return;
            }
            // SAFETY: we claimed `i < len` and have not yet decremented
            // `remaining`, so per the struct invariant the closure behind
            // `data` is alive and `call` was monomorphized for its exact
            // type by `run_batch`.
            let outcome = catch_unwind(AssertUnwindSafe(|| unsafe { (self.call)(self.data, i) }));
            if let Err(payload) = outcome {
                let mut slot = self.panic.lock().unwrap();
                if slot.is_none() {
                    *slot = Some(payload);
                }
            }
            // AcqRel: the final decrement acquires every preceding worker's
            // release, so the waiter observes all result-slot writes.
            if self.remaining.fetch_sub(1, Ordering::AcqRel) == 1 {
                let mut done = self.done.lock().unwrap();
                *done = true;
                self.done_cv.notify_all();
            }
        }
    }
}

/// Type-erasure trampoline: recovers the concrete closure type `F` that
/// `run_batch` erased into `Batch::data`.
///
/// # Safety
///
/// `data` must point to a live `F` and be called only under the [`Batch`]
/// lifetime invariant.
unsafe fn call_erased<F: Fn(usize)>(data: *const (), i: usize) {
    // SAFETY: `run_batch::<F>` stored `&F` as `data` and paired it with
    // `call_erased::<F>`, so the cast recovers the original type.
    let f = unsafe { &*data.cast::<F>() };
    f(i);
}

/// One result cell of a scatter, written exactly once by whichever thread
/// claims its index.
struct Slot<T>(UnsafeCell<Option<T>>);

// SAFETY: each slot is written by exactly one claimant (indices are handed
// out once by the atomic counter) and only read by the submitting thread
// after the batch's completion barrier, so there is never a concurrent
// read/write or write/write.
unsafe impl<T: Send> Sync for Slot<T> {}

struct Shared {
    queue: Mutex<VecDeque<Arc<Batch>>>,
    work_cv: Condvar,
    shutdown: AtomicBool,
}

/// A persistent pool of worker threads draining [`scatter`] batches.
///
/// Workers are spawned once and parked between batches; the pool is meant
/// to be created once per process (see [`WorkerPool::global`]) and reused
/// across every sweep of a campaign. Dropping the pool joins all workers.
///
/// [`scatter`]: WorkerPool::scatter
pub struct WorkerPool {
    shared: Arc<Shared>,
    handles: Vec<JoinHandle<()>>,
}

impl WorkerPool {
    /// Spawn a pool with `workers` long-lived threads.
    ///
    /// `workers == 0` is valid and useful: every scatter then runs inline
    /// on the submitting thread (sequential fallback with no thread
    /// hand-off at all).
    pub fn new(workers: usize) -> Self {
        let shared = Arc::new(Shared {
            queue: Mutex::new(VecDeque::new()),
            work_cv: Condvar::new(),
            shutdown: AtomicBool::new(false),
        });
        let handles = (0..workers)
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("gridsched-sweep-{i}"))
                    .spawn(move || worker_loop(&shared))
                    .expect("spawn sweep worker")
            })
            .collect();
        Self { shared, handles }
    }

    /// The process-wide pool used by the strategy sweep: sized to
    /// `available_parallelism - 1` (the submitting thread participates),
    /// capped at 8 — scenario sweeps are at most a handful of items, so
    /// more workers only add wake-up cost. On a single-core machine this
    /// is a zero-worker pool and every sweep runs sequentially inline.
    pub fn global() -> &'static WorkerPool {
        static POOL: OnceLock<WorkerPool> = OnceLock::new();
        POOL.get_or_init(|| {
            let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
            WorkerPool::new(cores.saturating_sub(1).min(8))
        })
    }

    /// Number of worker threads (not counting the submitting thread).
    pub fn workers(&self) -> usize {
        self.handles.len()
    }

    /// Run `f(0..len)` across the pool and return the results **in input
    /// order**, regardless of which thread computed what or when it
    /// finished. The submitting thread participates in the drain.
    ///
    /// If any invocation panics, the batch still runs to completion (so no
    /// worker can outlive the closure) and the first payload is re-raised
    /// on the submitting thread afterwards.
    pub fn scatter<T, F>(&self, len: usize, f: F) -> Vec<T>
    where
        T: Send,
        F: Fn(usize) -> T + Sync,
    {
        let slots: Vec<Slot<T>> = (0..len).map(|_| Slot(UnsafeCell::new(None))).collect();
        let fill = |i: usize| {
            let value = f(i);
            // SAFETY: index `i` was claimed exactly once (atomic counter),
            // so this is the only write to `slots[i]`, and the submitting
            // thread reads it only after the completion barrier.
            unsafe { *slots[i].0.get() = Some(value) };
        };
        self.run_batch(len, &fill);
        slots
            .into_iter()
            .map(|s| s.0.into_inner().expect("every scatter slot filled"))
            .collect()
    }

    fn run_batch<F: Fn(usize) + Sync>(&self, len: usize, f: &F) {
        if len == 0 {
            return;
        }
        let batch = Arc::new(Batch {
            data: (f as *const F).cast::<()>(),
            call: call_erased::<F>,
            len,
            next: AtomicUsize::new(0),
            remaining: AtomicUsize::new(len),
            done: Mutex::new(false),
            done_cv: Condvar::new(),
            panic: Mutex::new(None),
        });
        if !self.handles.is_empty() && len > 1 {
            let mut queue = self.shared.queue.lock().unwrap();
            queue.push_back(Arc::clone(&batch));
            drop(queue);
            self.shared.work_cv.notify_all();
        }
        // Caller participation: drain alongside the workers.
        batch.run_worker();
        let mut done = batch.done.lock().unwrap();
        while !*done {
            done = batch.done_cv.wait(done).unwrap();
        }
        drop(done);
        if !self.handles.is_empty() && len > 1 {
            // Hygiene: drop the drained batch from the queue so laggards
            // never even see it. (Workers also skip fully-claimed batches.)
            let mut queue = self.shared.queue.lock().unwrap();
            queue.retain(|b| !Arc::ptr_eq(b, &batch));
        }
        let payload = batch.panic.lock().unwrap().take();
        if let Some(payload) = payload {
            resume_unwind(payload);
        }
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        self.shared.shutdown.store(true, Ordering::Release);
        self.shared.work_cv.notify_all();
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
    }
}

fn worker_loop(shared: &Shared) {
    loop {
        let batch = {
            let mut queue = shared.queue.lock().unwrap();
            loop {
                if shared.shutdown.load(Ordering::Acquire) {
                    return;
                }
                while queue.front().is_some_and(|b| b.fully_claimed()) {
                    queue.pop_front();
                }
                if let Some(front) = queue.front() {
                    break Arc::clone(front);
                }
                queue = shared.work_cv.wait(queue).unwrap();
            }
        };
        batch.run_worker();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn scatter_returns_results_in_input_order() {
        let pool = WorkerPool::new(3);
        // Uneven sleeps force out-of-order completion; collection must
        // still be input-ordered.
        let out = pool.scatter(16, |i| {
            if i % 3 == 0 {
                std::thread::sleep(std::time::Duration::from_millis(2));
            }
            i * i
        });
        assert_eq!(out, (0..16).map(|i| i * i).collect::<Vec<_>>());
    }

    #[test]
    fn zero_worker_pool_runs_inline() {
        let pool = WorkerPool::new(0);
        assert_eq!(pool.workers(), 0);
        let main = std::thread::current().id();
        let out = pool.scatter(5, |i| {
            assert_eq!(std::thread::current().id(), main);
            i + 1
        });
        assert_eq!(out, vec![1, 2, 3, 4, 5]);
    }

    /// Batches per reuse test: Miri interprets every instruction, so the
    /// loop is shortened there — the interleavings it explores do not
    /// need 50 rounds to show up.
    const REUSE_ROUNDS: u64 = if cfg!(miri) { 4 } else { 50 };

    #[test]
    fn pool_is_reusable_across_batches() {
        let pool = WorkerPool::new(2);
        let touched = AtomicU64::new(0);
        for round in 0..REUSE_ROUNDS {
            let out = pool.scatter(4, |i| {
                touched.fetch_add(1, Ordering::Relaxed);
                round * 10 + i as u64
            });
            assert_eq!(out, (0..4).map(|i| round * 10 + i).collect::<Vec<_>>());
        }
        assert_eq!(touched.load(Ordering::Relaxed), REUSE_ROUNDS * 4);
    }

    #[test]
    fn concurrent_scatters_from_two_submitters_stay_isolated() {
        // Two threads race batches onto one pool. The mutex serializes
        // the batches; the test pins that neither submitter ever sees
        // the other's results — the aliasing scenario Miri watches the
        // type-erased closure pointer for.
        let pool = WorkerPool::new(2);
        std::thread::scope(|scope| {
            let a = scope.spawn(|| pool.scatter(6, |i| i * 2));
            let b = scope.spawn(|| pool.scatter(4, |i| i * 3 + 1));
            assert_eq!(a.join().unwrap(), vec![0, 2, 4, 6, 8, 10]);
            assert_eq!(b.join().unwrap(), vec![1, 4, 7, 10]);
        });
    }

    #[test]
    fn empty_scatter_is_a_no_op() {
        let pool = WorkerPool::new(2);
        let out: Vec<u32> = pool.scatter(0, |_| unreachable!("no items"));
        assert!(out.is_empty());
    }

    #[test]
    fn panics_propagate_to_the_submitter_after_completion() {
        let pool = WorkerPool::new(2);
        let completed = AtomicU64::new(0);
        let result = catch_unwind(AssertUnwindSafe(|| {
            pool.scatter(8, |i| {
                if i == 3 {
                    panic!("scenario 3 exploded");
                }
                completed.fetch_add(1, Ordering::Relaxed);
                i
            })
        }));
        assert!(result.is_err(), "panic must reach the submitting thread");
        // Every non-panicking item still ran: the batch drains fully so no
        // worker can hold a dangling closure pointer.
        assert_eq!(completed.load(Ordering::Relaxed), 7);
        // The pool survives a panicked batch.
        assert_eq!(pool.scatter(3, |i| i), vec![0, 1, 2]);
    }

    #[test]
    fn global_pool_is_sized_for_the_machine() {
        let pool = WorkerPool::global();
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        assert_eq!(pool.workers(), cores.saturating_sub(1).min(8));
        assert_eq!(pool.scatter(4, |i| i * 2), vec![0, 2, 4, 6]);
    }

    #[test]
    fn scatter_matches_sequential_loop_bit_for_bit() {
        // A miniature determinism pin: a stateful-per-index computation
        // must produce identical results pooled and sequential.
        fn compute(i: usize) -> Vec<u64> {
            let mut x = 0x9e3779b97f4a7c15u64 ^ i as u64;
            (0..32)
                .map(|_| {
                    x ^= x << 13;
                    x ^= x >> 7;
                    x ^= x << 17;
                    x
                })
                .collect()
        }
        let pool = WorkerPool::new(4);
        let pooled = pool.scatter(12, compute);
        let sequential: Vec<_> = (0..12).map(compute).collect();
        assert_eq!(pooled, sequential);
    }
}
