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
    /// Known runs pre-issued through the ring (Foreactor's explicit
    /// speculation): the predictor's learned run remainder, crossing with
    /// the miss that starts the run.
    pub ring_spec_issued: Counter,
    /// Pre-issued runs whose continuation was read with no crossing.
    pub ring_spec_absorbed: Counter,
    /// Pre-issued runs the stream left before any continuation absorbed
    /// (their pages surface as `wasted` unless something else reads them),
    /// and rides that left the ring for a worker without becoming pending:
    /// a crossing whose rider faulted, a degraded kernel's blind re-issue.
    pub ring_spec_cancelled: Counter,
    /// Pages pre-issued runs initiated, billed to `pages_initiated` like
    /// any prefetched page.
    pub ring_spec_pages_charged: Counter,
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
    /// ([`crate::tiering::TierPlanner`]-approved ranges: a range that
    /// missed again within the local tier's reach).
    pub promotions_issued: Counter,
    /// Promotion jobs whose remote→local copy completed (possibly copying
    /// zero new pages when demand reads beat the worker to the range).
    pub promotions_completed: Counter,
    /// Pages promotion jobs newly inserted into the page cache (billed as
    /// prefetch-initiated pages, so the quality ledger identity holds). A
    /// promotion copies a range its read just cached, so it usually
    /// inserts none: the store's `promoted_blocks` is what grows.
    pub promotion_pages: Counter,
    /// Promotion attempts retried after a transient remote-device error.
    pub promotion_retries: Counter,
    /// Promotion jobs abandoned after exhausting the retry budget
    /// (placement is left unchanged; demand reads still work remotely).
    pub promotion_give_ups: Counter,
}
