//! The fleet's global ready queue: every stream's admitted frames in one
//! place, drained by the shared worker pool in earliest-deadline-first
//! order with starvation aging.
//!
//! The queue is deliberately *not* FIFO. Each job carries the wall-clock
//! deadline its own stream imposes, and [`ReadyQueue::pop_group`] hands a
//! worker the `max_batch` most urgent jobs by that deadline — which is
//! what lets frames from *different* streams sit next to each other in
//! one group and become a cross-stream batch. Pure EDF starves relaxed
//! streams under overload (their deadlines always sort last), so any job
//! older than the boost age jumps to the front regardless of deadline and
//! is marked [`FleetJob::boosted`] for the fairness report.
//!
//! Producers get two pushes, one per serving mode's loss policy:
//! [`push_wait`][ReadyQueue::push_wait] blocks (lossless, for saturate /
//! bit-identity runs) and [`push_bounded`][ReadyQueue::push_bounded]
//! bounds each *stream's* backlog by evicting that stream's own oldest
//! job (per-tenant drop-oldest: one stream's burst cannot push another
//! stream's frames out). Every eviction or rejection hands the job back
//! to the caller, so the server can charge the right stream's counters —
//! the queue itself never silently discards a frame.

use std::sync::{Condvar, Mutex};
use std::time::{Duration, Instant};
use upaq_kitti::stream::Frame;

/// One frame waiting for backbone service, tagged with its stream.
#[derive(Debug)]
pub struct FleetJob<T> {
    /// Index of the stream this frame belongs to.
    pub stream: usize,
    /// The frame itself.
    pub frame: Frame<T>,
    /// When the frame entered the serving layer.
    pub arrived: Instant,
    /// The owning stream's per-frame deadline, seconds from arrival.
    pub deadline_s: f64,
    /// Global admission sequence number (FIFO tiebreak).
    pub seq: u64,
    /// Set by the queue when starvation aging promoted this job.
    pub boosted: bool,
}

impl<T> FleetJob<T> {
    /// The wall-clock instant this frame's deadline expires.
    pub fn deadline_at(&self) -> Instant {
        self.arrived + Duration::from_secs_f64(self.deadline_s)
    }

    /// Seconds of deadline budget left at `now` (negative once expired).
    pub fn budget_s(&self, now: Instant) -> f64 {
        self.deadline_s - self.age_s(now)
    }

    /// Seconds this job has waited since arrival, as of `now`.
    pub fn age_s(&self, now: Instant) -> f64 {
        now.saturating_duration_since(self.arrived).as_secs_f64()
    }
}

/// What [`ReadyQueue::push_bounded`] did with the offered job.
#[derive(Debug)]
pub enum PushVerdict<T> {
    /// The job was enqueued.
    Accepted,
    /// The job was enqueued after evicting the same stream's oldest
    /// queued job, which is handed back for accounting.
    Evicted(FleetJob<T>),
    /// The queue is globally full; the offered job is handed back.
    Rejected(FleetJob<T>),
    /// The queue was closed; the offered job is handed back.
    Closed(FleetJob<T>),
}

struct Inner<T> {
    jobs: Vec<FleetJob<T>>,
    closed: bool,
    max_depth: usize,
}

/// Bounded multi-producer multi-consumer ready queue with EDF + aging
/// group pops. Close is lossless: a push either lands before close (and
/// will be drained) or is handed back to the producer — never silently
/// lost — and consumers drain what remains before seeing the end.
pub struct ReadyQueue<T> {
    inner: Mutex<Inner<T>>,
    not_empty: Condvar,
    not_full: Condvar,
    capacity: usize,
}

/// Selection order: starving jobs first (oldest arrival first), then EDF
/// by wall-clock deadline, global sequence as the final tiebreak.
fn rank<T>(job: &FleetJob<T>, now: Instant, boost_age_s: f64) -> (bool, Instant, u64) {
    let starving = job.age_s(now) > boost_age_s;
    let primary = if starving {
        job.arrived
    } else {
        job.deadline_at()
    };
    (!starving, primary, job.seq)
}

impl<T> ReadyQueue<T> {
    /// A queue holding at most `capacity` jobs across all streams.
    ///
    /// # Panics
    ///
    /// Panics on zero capacity.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "ready queue needs capacity >= 1");
        ReadyQueue {
            inner: Mutex::new(Inner {
                jobs: Vec::new(),
                closed: false,
                max_depth: 0,
            }),
            not_empty: Condvar::new(),
            not_full: Condvar::new(),
            capacity,
        }
    }

    /// Global capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Jobs currently queued.
    pub fn len(&self) -> usize {
        self.inner.lock().unwrap().jobs.len()
    }

    /// Whether the queue is currently empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// High-water mark of the queue depth.
    pub fn max_depth(&self) -> usize {
        self.inner.lock().unwrap().max_depth
    }

    /// Whether the queue has been closed.
    pub fn is_closed(&self) -> bool {
        self.inner.lock().unwrap().closed
    }

    /// Blocks until space frees up, then enqueues (lossless admission).
    ///
    /// # Errors
    ///
    /// Hands the job back once the queue is closed.
    pub fn push_wait(&self, job: FleetJob<T>) -> Result<(), FleetJob<T>> {
        let mut inner = self.inner.lock().unwrap();
        loop {
            if inner.closed {
                return Err(job);
            }
            if inner.jobs.len() < self.capacity {
                break;
            }
            inner = self.not_full.wait(inner).unwrap();
        }
        inner.jobs.push(job);
        inner.max_depth = inner.max_depth.max(inner.jobs.len());
        drop(inner);
        self.not_empty.notify_one();
        Ok(())
    }

    /// Non-blocking admission with a per-stream backlog bound: when the
    /// offering stream already has `per_stream_cap` jobs queued, that
    /// stream's *oldest* job is evicted to make room (per-tenant
    /// drop-oldest — a fast stream sheds its own stale frames, never a
    /// neighbour's). A globally full queue rejects the offered job
    /// instead.
    pub fn push_bounded(&self, job: FleetJob<T>, per_stream_cap: usize) -> PushVerdict<T> {
        let per_stream_cap = per_stream_cap.max(1);
        let mut inner = self.inner.lock().unwrap();
        if inner.closed {
            return PushVerdict::Closed(job);
        }
        let same: Vec<usize> = inner
            .jobs
            .iter()
            .enumerate()
            .filter(|(_, j)| j.stream == job.stream)
            .map(|(i, _)| i)
            .collect();
        if same.len() >= per_stream_cap {
            let oldest = same
                .into_iter()
                .min_by_key(|&i| inner.jobs[i].seq)
                .expect("stream has queued jobs");
            let evicted = inner.jobs.swap_remove(oldest);
            inner.jobs.push(job);
            inner.max_depth = inner.max_depth.max(inner.jobs.len());
            drop(inner);
            self.not_empty.notify_one();
            return PushVerdict::Evicted(evicted);
        }
        if inner.jobs.len() >= self.capacity {
            return PushVerdict::Rejected(job);
        }
        inner.jobs.push(job);
        inner.max_depth = inner.max_depth.max(inner.jobs.len());
        drop(inner);
        self.not_empty.notify_one();
        PushVerdict::Accepted
    }

    /// Blocks until at least one job is available (or close), then removes
    /// and returns up to `max_batch` jobs: starving jobs (waited longer
    /// than `boost_age_s`) first in arrival order — marked
    /// [`FleetJob::boosted`] — then earliest-deadline-first. Returns
    /// `None` only when the queue is closed *and* drained, so no admitted
    /// job is ever lost to shutdown.
    pub fn pop_group(&self, max_batch: usize, boost_age_s: f64) -> Option<Vec<FleetJob<T>>> {
        let mut inner = self.inner.lock().unwrap();
        loop {
            if !inner.jobs.is_empty() {
                break;
            }
            if inner.closed {
                return None;
            }
            inner = self.not_empty.wait(inner).unwrap();
        }
        let now = Instant::now();
        let take = max_batch.max(1).min(inner.jobs.len());
        let mut order: Vec<usize> = (0..inner.jobs.len()).collect();
        order.sort_by_key(|&i| rank(&inner.jobs[i], now, boost_age_s));
        let mut picked = order[..take].to_vec();
        // Descending removal keeps the remaining picked indices valid
        // under swap_remove.
        picked.sort_unstable_by(|a, b| b.cmp(a));
        let mut group = Vec::with_capacity(take);
        for idx in picked {
            let mut job = inner.jobs.swap_remove(idx);
            if job.age_s(now) > boost_age_s {
                job.boosted = true;
            }
            group.push(job);
        }
        group.sort_by_key(|j| rank(j, now, boost_age_s));
        drop(inner);
        self.not_full.notify_all();
        Some(group)
    }

    /// Closes the queue: blocked producers get their jobs handed back,
    /// consumers drain the backlog and then see `None`.
    pub fn close(&self) {
        self.inner.lock().unwrap().closed = true;
        self.not_empty.notify_all();
        self.not_full.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn job(stream: usize, seq: u64, deadline_s: f64, aged_s: f64) -> FleetJob<()> {
        FleetJob {
            stream,
            frame: Frame {
                id: seq,
                scene_index: 0,
                data: (),
            },
            arrived: Instant::now() - Duration::from_secs_f64(aged_s),
            deadline_s,
            seq,
            boosted: false,
        }
    }

    #[test]
    fn pop_group_orders_by_earliest_deadline() {
        let q: ReadyQueue<()> = ReadyQueue::new(8);
        q.push_wait(job(0, 0, 0.300, 0.0)).unwrap();
        q.push_wait(job(1, 1, 0.050, 0.0)).unwrap();
        q.push_wait(job(2, 2, 0.150, 0.0)).unwrap();
        let group = q.pop_group(3, f64::INFINITY).unwrap();
        let streams: Vec<usize> = group.iter().map(|j| j.stream).collect();
        assert_eq!(streams, vec![1, 2, 0]);
        assert!(group.iter().all(|j| !j.boosted));
        assert!(q.is_empty());
    }

    #[test]
    fn pop_group_respects_max_batch_and_leaves_the_rest() {
        let q: ReadyQueue<()> = ReadyQueue::new(8);
        for seq in 0..5 {
            q.push_wait(job(seq as usize, seq, 0.100, 0.0)).unwrap();
        }
        let group = q.pop_group(2, f64::INFINITY).unwrap();
        assert_eq!(group.len(), 2);
        assert_eq!(q.len(), 3);
        // Equal deadlines fall back to admission order.
        assert_eq!(group[0].seq, 0);
        assert_eq!(group[1].seq, 1);
    }

    #[test]
    fn starving_job_jumps_the_deadline_order_and_is_marked_boosted() {
        let q: ReadyQueue<()> = ReadyQueue::new(8);
        // A relaxed-deadline job that has waited 1 s vs. a fresh tight one:
        // pure EDF would run the fresh job first and starve the old one.
        q.push_wait(job(0, 0, 10.0, 1.0)).unwrap();
        q.push_wait(job(1, 1, 0.010, 0.0)).unwrap();
        let group = q.pop_group(2, 0.500).unwrap();
        assert_eq!(group[0].stream, 0, "starving job must run first");
        assert!(group[0].boosted);
        assert!(!group[1].boosted);
    }

    #[test]
    fn push_bounded_evicts_only_the_offending_streams_oldest() {
        let q: ReadyQueue<()> = ReadyQueue::new(8);
        assert!(matches!(
            q.push_bounded(job(0, 0, 0.1, 0.0), 2),
            PushVerdict::Accepted
        ));
        assert!(matches!(
            q.push_bounded(job(1, 1, 0.1, 0.0), 2),
            PushVerdict::Accepted
        ));
        assert!(matches!(
            q.push_bounded(job(0, 2, 0.1, 0.0), 2),
            PushVerdict::Accepted
        ));
        // Stream 0 is at its bound: its own oldest (seq 0) is evicted;
        // stream 1's job is untouched.
        match q.push_bounded(job(0, 3, 0.1, 0.0), 2) {
            PushVerdict::Evicted(old) => {
                assert_eq!(old.stream, 0);
                assert_eq!(old.seq, 0);
            }
            other => panic!("expected eviction, got {other:?}"),
        }
        assert_eq!(q.len(), 3);
        let group = q.pop_group(3, f64::INFINITY).unwrap();
        assert!(group.iter().any(|j| j.stream == 1));
    }

    #[test]
    fn push_bounded_rejects_when_globally_full() {
        let q: ReadyQueue<()> = ReadyQueue::new(2);
        assert!(matches!(
            q.push_bounded(job(0, 0, 0.1, 0.0), 4),
            PushVerdict::Accepted
        ));
        assert!(matches!(
            q.push_bounded(job(1, 1, 0.1, 0.0), 4),
            PushVerdict::Accepted
        ));
        match q.push_bounded(job(2, 2, 0.1, 0.0), 4) {
            PushVerdict::Rejected(back) => assert_eq!(back.seq, 2),
            other => panic!("expected rejection, got {other:?}"),
        }
        assert_eq!(q.max_depth(), 2);
    }

    #[test]
    fn close_hands_jobs_back_and_drains_the_backlog() {
        let q: ReadyQueue<()> = ReadyQueue::new(4);
        q.push_wait(job(0, 0, 0.1, 0.0)).unwrap();
        q.push_wait(job(1, 1, 0.1, 0.0)).unwrap();
        q.close();
        assert!(q.push_wait(job(2, 2, 0.1, 0.0)).is_err());
        assert!(matches!(
            q.push_bounded(job(3, 3, 0.1, 0.0), 1),
            PushVerdict::Closed(_)
        ));
        // Consumers still drain what was admitted before close.
        let group = q.pop_group(8, f64::INFINITY).unwrap();
        assert_eq!(group.len(), 2);
        assert!(q.pop_group(8, f64::INFINITY).is_none());
    }

    #[test]
    fn blocked_producer_wakes_when_a_consumer_drains() {
        let q: std::sync::Arc<ReadyQueue<()>> = std::sync::Arc::new(ReadyQueue::new(1));
        q.push_wait(job(0, 0, 0.1, 0.0)).unwrap();
        let producer = {
            let q = q.clone();
            std::thread::spawn(move || q.push_wait(job(1, 1, 0.1, 0.0)).is_ok())
        };
        // Give the producer a moment to block on the full queue.
        std::thread::sleep(Duration::from_millis(20));
        let group = q.pop_group(1, f64::INFINITY).unwrap();
        assert_eq!(group[0].seq, 0);
        assert!(producer.join().unwrap());
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn budget_and_age_are_consistent() {
        let j = job(0, 0, 0.100, 0.040);
        let now = Instant::now();
        let age = j.age_s(now);
        assert!(age >= 0.040);
        assert!((j.budget_s(now) - (0.100 - age)).abs() < 1e-9);
    }
}
