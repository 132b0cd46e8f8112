//! Background prefetch workers (§4.3: "dedicated background threads to
//! issue prefetch calls to prevent impacting application thread
//! performance").
//!
//! Workers are modeled as virtual-time FCFS servers rather than real OS
//! threads: an application thread pays only a cheap enqueue cost, the
//! request is assigned to the worker with the earliest availability, and
//! the worker's server determines *when in virtual time* the prefetch
//! syscalls execute. The actual state mutation happens immediately (on the
//! caller's stack) with a detached clock starting at the worker's dispatch
//! time, so results are deterministic while the timing matches a real
//! worker pool: a saturated pool delays prefetches, and more workers
//! (`NR_WORKERS_VAR`) drain the queue faster.

use simclock::{FcfsResource, ThreadClock};

/// Timing facts about one dispatched job, for telemetry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Dispatch {
    /// Worker index the job ran on.
    pub worker: usize,
    /// Virtual time the job was enqueued.
    pub enqueue_ns: u64,
    /// Virtual time the worker started issuing it.
    pub start_ns: u64,
    /// Virtual time the job's issuing completed.
    pub end_ns: u64,
}

impl Dispatch {
    /// Time the job sat in the queue before a worker picked it up.
    pub fn queue_wait_ns(&self) -> u64 {
        self.start_ns.saturating_sub(self.enqueue_ns)
    }

    /// Enqueue-to-completion latency.
    pub fn latency_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.enqueue_ns)
    }
}

/// A pool of virtual prefetch workers.
#[derive(Debug)]
pub struct WorkerPool {
    servers: Vec<FcfsResource>,
    /// Fixed dispatch overhead per request (dequeue + bookkeeping).
    dispatch_ns: u64,
}

impl WorkerPool {
    /// Creates a pool of `workers` servers.
    ///
    /// # Panics
    ///
    /// Panics if `workers` is zero.
    pub fn new(workers: usize) -> Self {
        assert!(workers > 0, "worker pool needs at least one worker");
        Self {
            servers: (0..workers)
                .map(|_| FcfsResource::new("prefetch-worker"))
                .collect(),
            dispatch_ns: 300,
        }
    }

    /// Number of workers.
    pub fn len(&self) -> usize {
        self.servers.len()
    }

    /// Whether the pool is empty (never true; pools have ≥1 worker).
    pub fn is_empty(&self) -> bool {
        self.servers.is_empty()
    }

    /// The worker that can start a job enqueued at `now` the earliest,
    /// tie-broken by index so same-seed runs stay deterministic.
    ///
    /// Availability is the server's `clear_time` — the end of the busy
    /// interval containing `now` (or `now` itself when idle). The old
    /// `fetch_add % len` round-robin could queue a job behind a saturated
    /// worker while others sat idle.
    pub fn least_loaded(&self, now: u64) -> usize {
        self.servers
            .iter()
            .enumerate()
            .min_by_key(|(_, server)| server.clear_time(now))
            .map(|(idx, _)| idx)
            .unwrap_or(0)
    }

    /// Dispatches a job enqueued at `enqueue_ns`, running `job` with a
    /// clock positioned at the worker's start time. `estimated_ns` is the
    /// server occupancy reserved for the job (its issuing cost, not the
    /// device time, which the job charges itself). The job lands on the
    /// worker with the earliest availability ([`WorkerPool::least_loaded`]).
    ///
    /// Returns the dispatch timing record (worker index, queue wait, and
    /// the virtual time at which the job's issuing completed).
    pub fn dispatch<F>(&self, enqueue_ns: u64, estimated_ns: u64, job: F) -> Dispatch
    where
        F: FnOnce(&mut ThreadClock),
    {
        let worker = self.least_loaded(enqueue_ns);
        let access = self.servers[worker].access(enqueue_ns, self.dispatch_ns + estimated_ns);
        let mut clock = ThreadClock::detached_at(access.start_ns);
        // The job runs on the caller's stack but on the worker's detached
        // timeline: span leaves it records are off the caller's critical
        // path and must attach as async children.
        crate::span::suspended(|| job(&mut clock));
        let dispatch = Dispatch {
            worker,
            enqueue_ns,
            start_ns: access.start_ns,
            // The worker stays occupied through its reservation even when
            // the job itself issues faster than estimated.
            end_ns: clock.now().max(access.end_ns),
        };
        crate::span::record_leaf(
            crate::span::SpanKind::WorkerQueueWait,
            dispatch.queue_wait_ns(),
            dispatch.start_ns,
        );
        crate::span::record_leaf(
            crate::span::SpanKind::WorkerRun,
            dispatch.end_ns.saturating_sub(dispatch.start_ns),
            dispatch.end_ns,
        );
        dispatch
    }

    /// Total queueing delay requests have experienced across workers.
    pub fn total_wait_ns(&self) -> u64 {
        self.servers.iter().map(|s| s.stats().wait_ns()).sum()
    }

    /// Total jobs dispatched.
    pub fn jobs(&self) -> u64 {
        self.servers.iter().map(|s| s.stats().acquisitions()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pool(workers: usize) -> WorkerPool {
        WorkerPool::new(workers)
    }

    #[test]
    fn single_worker_serializes_jobs() {
        let pool = pool(1);
        let first = pool.dispatch(0, 10_000, |_| {});
        let second = pool.dispatch(0, 10_000, |_| {});
        assert!(second.end_ns >= first.end_ns + 10_000);
        assert!(second.queue_wait_ns() >= 10_000);
        assert_eq!(pool.jobs(), 2);
    }

    #[test]
    fn more_workers_run_in_parallel() {
        let pool = pool(4);
        let dispatches: Vec<Dispatch> = (0..4).map(|_| pool.dispatch(0, 10_000, |_| {})).collect();
        // All four run concurrently: all finish near 10_300, on distinct
        // workers, with no queueing.
        assert!(dispatches.iter().all(|d| d.end_ns < 12_000));
        assert!(dispatches.iter().all(|d| d.queue_wait_ns() == 0));
        let workers: std::collections::HashSet<usize> =
            dispatches.iter().map(|d| d.worker).collect();
        assert_eq!(workers.len(), 4);
        assert_eq!(pool.total_wait_ns(), 0);
    }

    #[test]
    fn dispatch_avoids_saturated_workers() {
        // A long job saturates worker 0; under round-robin the next two
        // short jobs would alternate 1, 0 and the third would queue behind
        // the long job. Earliest-availability keeps them on worker 1.
        let pool = pool(2);
        let long = pool.dispatch(0, 100_000, |_| {});
        assert_eq!(long.worker, 0);
        let short1 = pool.dispatch(0, 10_000, |_| {});
        assert_eq!(short1.worker, 1);
        assert_eq!(short1.queue_wait_ns(), 0);
        let short2 = pool.dispatch(0, 10_000, |_| {});
        assert_eq!(
            short2.worker, 1,
            "must not round-robin onto the saturated worker"
        );
        assert!(short2.queue_wait_ns() < long.end_ns - long.enqueue_ns);
        assert_eq!(pool.total_wait_ns(), short2.queue_wait_ns());
    }

    #[test]
    fn tie_break_is_lowest_index() {
        let pool = pool(4);
        // All idle: deterministic pick is worker 0.
        assert_eq!(pool.least_loaded(0), 0);
        let d = pool.dispatch(0, 1_000, |_| {});
        assert_eq!(d.worker, 0);
        // Worker 0 busy, the rest idle and tied: pick worker 1.
        assert_eq!(pool.least_loaded(0), 1);
    }

    #[test]
    fn job_clock_starts_at_dispatch_time() {
        let pool = pool(1);
        pool.dispatch(5_000, 100, |clock| {
            assert!(clock.now() >= 5_000);
        });
    }

    #[test]
    fn job_device_time_extends_completion() {
        let pool = pool(1);
        let dispatch = pool.dispatch(0, 100, |clock| clock.advance(50_000));
        assert!(dispatch.end_ns >= 50_000);
        assert!(dispatch.latency_ns() >= 50_000);
    }

    #[test]
    #[should_panic(expected = "at least one worker")]
    fn zero_workers_rejected() {
        pool(0);
    }
}
