//! Runtime-level counters.

use simclock::Counter;

/// CROSS-LIB counters — the runtime-side telemetry the paper reports
/// (prefetch syscalls saved, evictions, predictor activity).
#[derive(Debug, Default)]
pub struct LibStats {
    /// Reads intercepted by the runtime.
    pub reads: Counter,
    /// Writes intercepted by the runtime.
    pub writes: Counter,
    /// Prefetch requests enqueued to the worker pool.
    pub prefetches_enqueued: Counter,
    /// Prefetch requests skipped because the user-level bitmap showed the
    /// range fully cached — the syscalls CrossPrefetch saves.
    pub prefetches_skipped: Counter,
    /// Pages the runtime asked the OS to prefetch.
    pub pages_requested: Counter,
    /// Pages the OS actually initiated (from `readahead_info` replies).
    pub pages_initiated: Counter,
    /// Files evicted by the memory watcher.
    pub files_evicted: Counter,
    /// Pages dropped by runtime-driven eviction.
    pub pages_evicted: Counter,
    /// fincore polls issued (FincoreApp mode).
    pub fincore_polls: Counter,
    /// Worker-side prefetch attempts retried after a transient device
    /// error.
    pub prefetch_retries: Counter,
    /// Prefetch requests abandoned after exhausting the retry budget.
    pub prefetch_give_ups: Counter,
    /// Pages those abandoned requests covered (left unmarked in the
    /// user-level view, so later reads still demand-fetch them).
    pub pages_abandoned: Counter,
    /// Demand-read errors surfaced to the workload through the shim.
    pub read_errors: Counter,
    /// Times the stale-view watchdog dropped a file's range tree after
    /// observing OS-side reclaim.
    pub stale_resyncs: Counter,
    /// Stale pages (claimed cached, found evicted) the watchdog observed.
    pub stale_pages_observed: Counter,
    /// Adjacent planned prefetch runs merged into an earlier submission
    /// (the tenant ladder's [`crate::AdmissionRung::CoalescedOnly`] rung);
    /// each merge is one saved syscall-bearing submission.
    pub prefetch_runs_coalesced: Counter,
    /// Submission batches flushed to the vectored OS path
    /// ([`crate::RuntimeConfig::batch_submit`]).
    pub batches_flushed: Counter,
    /// Batches flushed because they reached `batch_max_runs`.
    pub batch_flush_full: Counter,
    /// Batches flushed by the `batch_deadline_ns` virtual-time deadline.
    pub batch_flush_deadline: Counter,
    /// Batches flushed explicitly (drain points: shutdown, cache drops,
    /// [`crate::Runtime::flush_prefetch_batches`]).
    pub batch_flush_explicit: Counter,
    /// Prefetch runs submitted through batches (entries across all
    /// flushes).
    pub batch_runs_submitted: Counter,
    /// Batched runs the OS merged into an adjacent run of the same inode
    /// before hitting the device.
    pub batch_runs_merged: Counter,
    /// Syscall crossings batching avoided: for a flush of N entries,
    /// N-1 crossings the unbatched path would have paid.
    pub batch_crossings_saved: Counter,
    /// Staged prefetch runs drained from the submission queues and
    /// piggybacked on a demand-read ring crossing
    /// ([`crate::RuntimeConfig::ring_submit`]) instead of waiting for
    /// their own flush.
    pub ring_staged_runs_piggybacked: Counter,
    /// Known runs pre-issued through the ring (Foreactor's explicit
    /// speculation): the predictor's learned run remainder, crossing with
    /// the miss that starts the run.
    pub ring_spec_issued: Counter,
    /// Pre-issued runs whose continuation was read with no crossing.
    pub ring_spec_absorbed: Counter,
    /// Pre-issued runs the stream left before any continuation absorbed
    /// (their pages surface as `wasted` unless something else reads them).
    pub ring_spec_cancelled: Counter,
    /// Pages pre-issued runs initiated, billed to `pages_initiated` like
    /// any prefetched page.
    pub ring_spec_pages_charged: Counter,
    /// Deadline-timer firings by the completion reactor (batches flushed
    /// *at* their virtual-time deadline rather than at the next read's
    /// convenience).
    pub ring_timer_fires: Counter,
    /// Correlation-mined prefetch runs issued by the prediction engine
    /// (zero under the strided default, which emits no association runs).
    pub engine_assoc_runs: Counter,
    /// Pages those association runs requested (after memory clamping and
    /// the visibility check: a run that was cached whole adds nothing).
    pub engine_assoc_pages: Counter,
    /// Deferred association-mining passes dispatched to the worker pool.
    pub engine_mining_passes: Counter,
    /// Adaptive-engine duel windows closed (shadow scoreboards compared).
    pub engine_duels: Counter,
    /// Adaptive-engine ownership changes (a duel crowned a new engine).
    pub engine_ownership_flips: Counter,
    /// Cross-tier promotion jobs dispatched to the worker pool
    /// ([`crate::tiering::TierPlanner`]-approved predicted-hot ranges).
    pub promotions_issued: Counter,
    /// Promotion jobs whose remote→local copy completed (possibly copying
    /// zero new pages when demand reads beat the worker to the range).
    pub promotions_completed: Counter,
    /// Pages promotion jobs published into the cache (billed as
    /// prefetch-initiated pages, so the quality ledger identity holds).
    pub promotion_pages: Counter,
    /// Promotion attempts retried after a transient remote-device error.
    pub promotion_retries: Counter,
    /// Promotion jobs abandoned after exhausting the retry budget
    /// (placement is left unchanged; demand reads still work remotely).
    pub promotion_give_ups: Counter,
}

impl LibStats {
    /// Fraction of would-be prefetch calls avoided via cache visibility.
    pub fn skip_ratio(&self) -> f64 {
        let enq = self.prefetches_enqueued.get() as f64;
        let skipped = self.prefetches_skipped.get() as f64;
        if enq + skipped == 0.0 {
            return 0.0;
        }
        skipped / (enq + skipped)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn skip_ratio_handles_zero() {
        let stats = LibStats::default();
        assert_eq!(stats.skip_ratio(), 0.0);
        stats.prefetches_enqueued.add(3);
        stats.prefetches_skipped.add(1);
        assert!((stats.skip_ratio() - 0.25).abs() < 1e-12);
    }
}
