//! Process-wide kernel parallelism: configuration and the persistent
//! worker pool.
//!
//! Kernels are single-threaded by default so determinism tests and
//! benchmarks measure the serial arithmetic. The streaming runtime (or a
//! caller that wants intra-op parallelism) opts in by raising the thread
//! count; kernels that honour it split work into disjoint output regions
//! with unchanged per-element arithmetic, so results stay bit-identical
//! at any setting.
//!
//! Above one thread, [`parallel_for_chunks`] runs on a process-wide pool
//! of parked worker threads and a chunked work queue. Submitting a kernel
//! wakes the workers, every participant (including the submitting thread)
//! claims chunk indices from a shared counter, and the submitter blocks
//! until all chunks have completed. No OS threads are created in steady
//! state.
//!
//! Chunks are claimed dynamically, so which thread runs a chunk is
//! nondeterministic — but every chunk writes a disjoint output region in
//! unchanged arithmetic order, so results are bit-identical across thread
//! counts.

use std::collections::VecDeque;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};

static THREADS: AtomicUsize = AtomicUsize::new(1);

/// `1` while some thread is fanned out on the pool. Concurrent submitters
/// (serving worker threads racing each other) would otherwise fight over
/// the same parked helpers — condvar wake churn and queue-lock contention
/// with no extra cores to show for it — so the loser runs its chunks
/// inline instead (see `run_on_pool`).
static ACTIVE_SUBMITTER: AtomicUsize = AtomicUsize::new(0);

/// Hard cap on persistent pool workers: thread counts above this still
/// execute correctly (chunk claiming just has fewer claimants), without
/// letting a stress test park hundreds of idle OS threads.
const MAX_POOL_WORKERS: usize = 15;

/// Global switch for intra-kernel worker threads.
#[derive(Debug, Clone, Copy)]
pub struct TensorParallel;

impl TensorParallel {
    /// Sets the worker-thread count used by parallel-capable kernels.
    /// `0` is treated as `1` (serial).
    pub fn set_threads(n: usize) {
        THREADS.store(n.max(1), Ordering::Relaxed);
    }

    /// The configured worker-thread count (default 1: serial).
    pub fn threads() -> usize {
        THREADS.load(Ordering::Relaxed)
    }
}

/// Typed panic payload re-raised on the submitting thread when a pool
/// chunk panics. Workers catch the original unwind (they must survive to
/// serve later jobs), so the payload that crosses the completion barrier
/// is this struct — callers that `catch_unwind` around a kernel can
/// downcast it to learn which chunk failed and why, instead of matching
/// on an opaque string.
#[derive(Debug)]
pub struct ChunkPanic {
    /// Index of the first chunk observed to panic (claim order is
    /// nondeterministic, so "first observed", not "lowest index").
    pub chunk: usize,
    /// Stringified payload of that chunk's original panic.
    pub message: String,
}

impl std::fmt::Display for ChunkPanic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "tensor pool chunk {} panicked: {}",
            self.chunk, self.message
        )
    }
}

/// A raw-pointer wrapper that lets chunk closures derive disjoint `&mut`
/// slices of one output buffer from worker threads. The caller guarantees
/// disjointness (each chunk index maps to its own region).
pub(crate) struct SendPtr<T>(pub(crate) *mut T);

// Manual impls: a derive would bound on `T: Copy`, but the pointee type
// is irrelevant to copying the pointer itself.
impl<T> Clone for SendPtr<T> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<T> Copy for SendPtr<T> {}

// SAFETY: `SendPtr` is only used to hand a base pointer to chunk tasks
// that write disjoint regions while the submitting call frame keeps the
// underlying buffer alive and blocked from other access.
unsafe impl<T> Send for SendPtr<T> {}
unsafe impl<T> Sync for SendPtr<T> {}

impl<T> SendPtr<T> {
    pub(crate) fn get(self) -> *mut T {
        self.0
    }
}

/// One submitted kernel: an erased task closure plus chunk-claim and
/// completion counters.
struct Job {
    /// Borrowed task, lifetime-erased. SAFETY: the submitter blocks in
    /// `run_on_pool` until `pending` hits zero, so the borrow outlives
    /// every dereference.
    task: *const (dyn Fn(usize) + Sync),
    total: usize,
    next: AtomicUsize,
    pending: AtomicUsize,
    /// First observed chunk panic `(chunk index, stringified payload)`,
    /// re-raised as a typed [`ChunkPanic`] on the submitting thread once
    /// the completion barrier has passed.
    panic_slot: Mutex<Option<(usize, String)>>,
}

// SAFETY: the raw task pointer is only dereferenced while the submitting
// call frame (which owns the pointee) is blocked waiting for completion.
unsafe impl Send for Job {}
unsafe impl Sync for Job {}

struct Pool {
    state: Mutex<PoolState>,
    /// Signals parked workers that the queue is non-empty.
    work_cv: Condvar,
    /// Signals submitters that some job's `pending` reached zero.
    done_lock: Mutex<()>,
    done_cv: Condvar,
}

struct PoolState {
    queue: VecDeque<Arc<Job>>,
    /// Workers spawned so far (monotone; workers never exit).
    workers: usize,
}

fn pool() -> &'static Pool {
    static POOL: OnceLock<Pool> = OnceLock::new();
    POOL.get_or_init(|| Pool {
        state: Mutex::new(PoolState {
            queue: VecDeque::new(),
            workers: 0,
        }),
        work_cv: Condvar::new(),
        done_lock: Mutex::new(()),
        done_cv: Condvar::new(),
    })
}

/// Claims and runs chunks of `job` until the claim counter is exhausted.
/// Panics inside the task are caught (the worker must survive) and
/// re-raised on the submitting thread.
fn run_chunks(p: &Pool, job: &Job) {
    loop {
        let i = job.next.fetch_add(1, Ordering::Relaxed);
        if i >= job.total {
            return;
        }
        // SAFETY: see `Job::task` — the submitter keeps the closure alive
        // until `pending` reaches zero, which cannot happen before this
        // chunk's decrement below.
        let task = unsafe { &*job.task };
        if let Err(payload) = catch_unwind(AssertUnwindSafe(|| task(i))) {
            let mut slot = job.panic_slot.lock().unwrap();
            if slot.is_none() {
                *slot = Some((i, payload_message(payload.as_ref())));
            }
        }
        // Release pairs with the submitter's Acquire load: chunk writes
        // become visible once it observes the final decrement (RMW
        // release sequences cover every earlier decrement too).
        if job.pending.fetch_sub(1, Ordering::Release) == 1 {
            drop(p.done_lock.lock().unwrap());
            p.done_cv.notify_all();
        }
    }
}

fn worker_loop(p: &'static Pool) {
    loop {
        let job = {
            let mut st = p.state.lock().unwrap();
            loop {
                // Drop fully-claimed jobs; stragglers keep their own Arc.
                while let Some(front) = st.queue.front() {
                    if front.next.load(Ordering::Relaxed) >= front.total {
                        st.queue.pop_front();
                    } else {
                        break;
                    }
                }
                if let Some(front) = st.queue.front() {
                    break front.clone();
                }
                st = p.work_cv.wait(st).unwrap();
            }
        };
        run_chunks(p, &job);
    }
}

/// Runs `task(0..total)` on the persistent pool, blocking until every
/// chunk has completed. The submitting thread participates in chunk
/// claiming, so progress never depends on pool workers being scheduled.
fn run_on_pool(total: usize, task: &(dyn Fn(usize) + Sync)) {
    // Clamp helpers to the machine: a pool never oversubscribes, so a
    // thread count above the core count degenerates to the serial loop
    // instead of paying wake/context-switch churn for no parallelism.
    // Results are bit-identical either way — chunks are self-contained —
    // so this only moves overhead, never values.
    let hw = std::thread::available_parallelism().map_or(1, |n| n.get());
    let helpers = TensorParallel::threads()
        .min(hw)
        .saturating_sub(1)
        .min(MAX_POOL_WORKERS);
    if helpers == 0 {
        run_inline(total, task);
        return;
    }
    // Single-submitter guard: when another thread already has a job fanned
    // out, this submitter runs its chunks inline rather than queueing.
    // Chunks are self-contained (disjoint output regions, unchanged
    // arithmetic order), so the result is bit-identical — this only trades
    // away wake/lock churn that was costing more than the parallelism it
    // bought (the t2 e2e regression in BENCH_streaming.json).
    if ACTIVE_SUBMITTER
        .compare_exchange(0, 1, Ordering::Acquire, Ordering::Relaxed)
        .is_err()
    {
        run_inline(total, task);
        return;
    }
    // Releases the slot even when a chunk panic propagates below.
    struct SubmitterSlot;
    impl Drop for SubmitterSlot {
        fn drop(&mut self) {
            ACTIVE_SUBMITTER.store(0, Ordering::Release);
        }
    }
    let _slot = SubmitterSlot;
    let p = pool();
    // SAFETY: lifetime erasure only — `task` outlives this frame, and
    // this frame blocks until all chunk executions are done.
    let task: *const (dyn Fn(usize) + Sync) =
        unsafe { std::mem::transmute::<_, &'static (dyn Fn(usize) + Sync)>(task) };
    let job = Arc::new(Job {
        task,
        total,
        next: AtomicUsize::new(0),
        pending: AtomicUsize::new(total),
        panic_slot: Mutex::new(None),
    });
    {
        let mut st = p.state.lock().unwrap();
        let target = helpers;
        while st.workers < target {
            st.workers += 1;
            std::thread::Builder::new()
                .name("upaq-tensor-pool".into())
                .spawn(move || worker_loop(p))
                .expect("spawn tensor pool worker");
        }
        st.queue.push_back(job.clone());
    }
    p.work_cv.notify_all();
    run_chunks(p, &job);
    let mut guard = p.done_lock.lock().unwrap();
    while job.pending.load(Ordering::Acquire) != 0 {
        guard = p.done_cv.wait(guard).unwrap();
    }
    drop(guard);
    let stored = job.panic_slot.lock().unwrap().take();
    if let Some((chunk, message)) = stored {
        resume_unwind(Box::new(ChunkPanic { chunk, message }));
    }
}

/// Serial fallback for the pool (no helpers available, or another
/// submitter already has the pool fanned out). Mirrors pool semantics
/// exactly: every chunk is attempted, and the first observed panic is
/// re-raised afterwards as a typed [`ChunkPanic`] — so callers see one
/// contract above one thread regardless of core count or contention.
fn run_inline(total: usize, task: &(dyn Fn(usize) + Sync)) {
    let mut first: Option<(usize, String)> = None;
    for i in 0..total {
        if let Err(payload) = catch_unwind(AssertUnwindSafe(|| task(i))) {
            if first.is_none() {
                first = Some((i, payload_message(payload.as_ref())));
            }
        }
    }
    if let Some((chunk, message)) = first {
        resume_unwind(Box::new(ChunkPanic { chunk, message }));
    }
}

/// Renders a caught panic payload for the [`ChunkPanic`] re-raise.
fn payload_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Runs `f(0)`, `f(1)`, …, `f(total - 1)`, distributing chunk indices
/// over the worker pool when [`TensorParallel::threads`] is above one.
///
/// Chunk-to-thread assignment is dynamic, so callers must make each chunk
/// write a disjoint output region in self-contained arithmetic order —
/// then results are bit-identical to the serial loop at any thread count.
///
/// Panics raised by `f` propagate to the caller. Above one thread the
/// payload crossing the completion barrier is a typed [`ChunkPanic`]
/// (first observed failing chunk + original message).
pub fn parallel_for_chunks<F: Fn(usize) + Sync>(total: usize, f: F) {
    if TensorParallel::threads().min(total) <= 1 {
        for i in 0..total {
            f(i);
        }
        return;
    }
    run_on_pool(total, &f);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_serial_and_zero_clamps() {
        // Note: global state — keep this the only test mutating it in this
        // crate's unit suite (integration tests get their own process).
        assert_eq!(TensorParallel::threads(), 1);
        TensorParallel::set_threads(0);
        assert_eq!(TensorParallel::threads(), 1);
        TensorParallel::set_threads(4);
        assert_eq!(TensorParallel::threads(), 4);
        TensorParallel::set_threads(1);
    }

    #[test]
    fn serial_chunks_run_in_order() {
        // threads = 1 (the default) takes the plain serial path.
        let seen = Mutex::new(Vec::new());
        parallel_for_chunks(4, |i| seen.lock().unwrap().push(i));
        assert_eq!(*seen.lock().unwrap(), vec![0, 1, 2, 3]);
    }

    #[test]
    fn zero_chunks_is_a_no_op() {
        parallel_for_chunks(0, |_| panic!("must not run"));
    }
}
