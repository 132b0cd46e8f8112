//! Aggregated runtime telemetry reports.
//!
//! CROSS-LIB's value proposition is *visibility*: the OS exports cache
//! state and counters, the runtime adds its own, and operators can see
//! exactly what prefetching did. [`RuntimeReport`] snapshots both layers
//! into one structure with a human-readable rendering, a hand-rolled
//! machine-readable [`RuntimeReport::to_json`] export (the build is
//! dependency-free, so no serde), and interval accounting via
//! [`RuntimeReport::delta`].

use std::fmt;

use simclock::HistogramSnapshot;
use simos::{PrefetchQuality, RegistryStats};

use crate::metrics::{PipelineStage, ReadClass};
use crate::span::SpanClassTotals;
use crate::tenant::TenantReport;
use crate::Runtime;

/// Version stamped into every JSON export; bump on breaking layout change.
pub const TELEMETRY_SCHEMA_VERSION: u32 = 1;

/// Top-level JSON sections added after schema v1 was frozen, in export
/// order. Each is emitted whether or not its feature is on; stripping all
/// of them from an export leaves the schema-v1 baseline layout, which is
/// what `schema_compat` and the knob-off byte-identity tests compare.
pub const ADDITIVE_SECTIONS: [&str; 5] = ["spans", "ring", "range_index", "tenants", "tiering"];

/// A point-in-time snapshot of the cross-layered telemetry.
#[derive(Debug, Clone, PartialEq)]
pub struct RuntimeReport {
    /// Mechanism label (Table 2 name).
    pub mode: &'static str,
    /// Reads intercepted by the shim.
    pub reads: u64,
    /// Writes intercepted by the shim.
    pub writes: u64,
    /// Page-cache hit ratio over the OS lifetime.
    pub hit_ratio: f64,
    /// `readahead_info` calls issued.
    pub ra_info_calls: u64,
    /// Prefetch requests skipped thanks to cache visibility.
    pub prefetches_skipped: u64,
    /// Pages the OS initiated on behalf of the runtime.
    pub pages_initiated: u64,
    /// Pages evicted by the runtime's memory watcher.
    pub pages_evicted_by_lib: u64,
    /// Pages evicted by the OS LRU.
    pub pages_evicted_by_os: u64,
    /// Device bytes read and written.
    pub device_read_bytes: u64,
    /// Device bytes written.
    pub device_write_bytes: u64,
    /// Resident / budget pages.
    pub resident_pages: u64,
    /// Memory budget in pages.
    pub budget_pages: u64,
    /// Aggregate OS lock wait (tree + bitmap + mmap), nanoseconds.
    pub os_lock_wait_ns: u64,
    /// Aggregate user-level range-tree lock wait, nanoseconds.
    pub lib_lock_wait_ns: u64,
    /// Prefetch-quality tallies (timely / late / wasted pages).
    pub prefetch_quality: PrefetchQuality,
    /// Worker prefetch attempts retried after a transient device error.
    pub prefetch_retries: u64,
    /// Prefetch requests abandoned after exhausting the retry budget.
    pub prefetch_give_ups: u64,
    /// Pages abandoned prefetches left to demand fetching.
    pub pages_abandoned: u64,
    /// Demand-read errors surfaced to the workload through the shim.
    pub read_errors: u64,
    /// Stale-view resyncs (range tree dropped after observed OS reclaim).
    pub stale_resyncs: u64,
    /// `readahead_info` attempts rejected by a stock kernel.
    pub ra_info_unsupported: u64,
    /// Whether the runtime permanently downgraded visibility prefetch to
    /// blind `readahead(2)`.
    pub degraded_to_blind: bool,
    /// Transient EIOs the device's fault plan injected into reads.
    pub device_read_faults: u64,
    /// Device reads that landed inside an injected latency-spike window.
    pub device_latency_spikes: u64,
    /// Trace events dropped by the bounded ring (0 when tracing is off).
    pub trace_events_dropped: u64,
    /// Read latency, reads served entirely from ready cache.
    pub read_cache_hit: HistogramSnapshot,
    /// Read latency, reads served by prefetched pages.
    pub read_prefetch_hit: HistogramSnapshot,
    /// Read latency, reads that waited on synchronous device I/O.
    pub read_demand_miss: HistogramSnapshot,
    /// Write latency.
    pub write_latency: HistogramSnapshot,
    /// Prefetch enqueue-to-completion latency.
    pub prefetch_latency: HistogramSnapshot,
    /// Worker-queue wait of prefetch jobs.
    pub worker_queue: HistogramSnapshot,
    /// Per-read OS cache-tree lock wait distribution.
    pub os_lock_wait: HistogramSnapshot,
    /// Per-acquisition user-level range-tree lock wait distribution.
    pub lib_lock_wait: HistogramSnapshot,
    /// Runtime eviction scan time.
    pub evict_scan: HistogramSnapshot,
    /// OS reclaim pass scan time.
    pub os_reclaim_scan: HistogramSnapshot,
    /// Adjacent prefetch runs merged by opt-in submission coalescing.
    pub prefetch_runs_coalesced: u64,
    /// Submission batches flushed to the vectored OS path.
    pub batches_flushed: u64,
    /// Batches flushed for reaching their entry capacity.
    pub batch_flush_full: u64,
    /// Batches flushed by the virtual-time deadline.
    pub batch_flush_deadline: u64,
    /// Batches flushed by an explicit drain.
    pub batch_flush_explicit: u64,
    /// Prefetch runs submitted through batches.
    pub batch_runs_submitted: u64,
    /// Batched runs the OS merged into an adjacent run before the device.
    pub batch_runs_merged: u64,
    /// Syscall crossings batching avoided (entries minus one, per flush).
    pub batch_crossings_saved: u64,
    /// Vectored `readahead_batch` calls the OS served.
    pub ra_batch_calls: u64,
    /// Entries per flushed batch (SQ occupancy at flush time).
    pub batch_occupancy: HistogramSnapshot,
    /// Stable name of the prediction engine new descriptors use
    /// ([`predict::EngineKind::name`], policy-resolved).
    pub engine: &'static str,
    /// Correlation-mined prefetch runs the engine issued.
    pub engine_assoc_runs: u64,
    /// Pages those association runs scheduled.
    pub engine_assoc_pages: u64,
    /// Deferred mining passes dispatched to the worker pool.
    pub engine_mining_passes: u64,
    /// Adaptive duel windows closed.
    pub engine_duels: u64,
    /// Adaptive ownership changes.
    pub engine_ownership_flips: u64,
    /// Whether the completion-driven ring was enabled (policy-resolved:
    /// the config knob ANDed with cache visibility).
    pub ring_enabled: bool,
    /// Demand reads the ring absorbed without a syscall crossing.
    pub ring_absorbed_reads: u64,
    /// Vectored `read_batch` crossings the OS served (demand entries
    /// plus piggybacked prefetch runs per call).
    pub ring_demand_batch_calls: u64,
    /// Staged prefetch runs piggybacked on demand-read ring crossings.
    pub ring_staged_runs_piggybacked: u64,
    /// Speculative next-read pre-issues dispatched.
    pub ring_spec_issued: u64,
    /// Speculative pre-issues absorbed by a matching demand read.
    pub ring_spec_absorbed: u64,
    /// Speculative pre-issues cancelled on mispredict.
    pub ring_spec_cancelled: u64,
    /// Pages cancelled speculations re-entered into the quality ledger.
    pub ring_spec_pages_charged: u64,
    /// Deadline-timer firings by the completion reactor. The timer also
    /// serves plain `batch_submit` mode (overdue batches flush at their
    /// own due time), so this can be nonzero with the ring disabled.
    pub ring_timer_fires: u64,
    /// Which range-index implementation backs the per-file cache views:
    /// always `"bplus"` ([`crate::BPlusRangeIndex`]).
    pub range_index_kind: &'static str,
    /// Deepest per-file tree (1 = a lone leaf root).
    pub range_index_depth: u64,
    /// Leaves allocated across files.
    pub range_index_leaves: u64,
    /// Leaf splits performed.
    pub range_index_splits: u64,
    /// Adjacent-leaf merges performed.
    pub range_index_merges: u64,
    /// Optimistic read descents that failed version validation and paid
    /// the re-descent penalty (0 single-threaded).
    pub range_index_retries: u64,
    /// Per-stage virtual-time cost of the staged read pipeline, in
    /// [`PipelineStage::all`] order as `(stage name, distribution)`.
    pub stage_latency: Vec<(&'static str, HistogramSnapshot)>,
    /// Whether causal span tracing was enabled at snapshot time.
    pub spans_enabled: bool,
    /// Reads that completed with a span frame.
    pub spans_reads_traced: u64,
    /// Exemplars admitted into the tail reservoirs.
    pub spans_exemplars_admitted: u64,
    /// Exemplars displaced from full reservoirs by slower reads.
    pub spans_exemplars_evicted: u64,
    /// Per-class critical-path totals as `(class name, totals)`, in
    /// cache-hit / prefetch-hit / demand-miss order (all-zero while span
    /// tracing is off, so the section's presence never depends on it).
    pub spans_classes: Vec<(&'static str, SpanClassTotals)>,
    /// Whether the multi-tenant arbiter was configured
    /// ([`crate::RuntimeConfig::tenants`]).
    pub tenants_enabled: bool,
    /// Fair-share rebalance passes the arbiter ran.
    pub tenant_rebalances: u64,
    /// Per-tenant admission rows, in tenant-table order (empty without an
    /// arbiter, so the additive section's presence never depends on the
    /// knob).
    pub tenants: Vec<TenantReport>,
    /// Whether the cross-tier promotion planner was built (a tiering
    /// config was present *and* the OS sits on a tiered store).
    pub tiering_enabled: bool,
    /// Whether the OS-side write-back daemon was configured
    /// ([`simos::OsConfig::writeback`]).
    pub writeback_enabled: bool,
    /// Local-tier read requests (all tier fields are zero un-tiered).
    pub tier_local_reads: u64,
    /// Local-tier write requests.
    pub tier_local_writes: u64,
    /// Local-tier bytes read.
    pub tier_local_read_bytes: u64,
    /// Local-tier bytes written.
    pub tier_local_write_bytes: u64,
    /// Remote-tier read requests.
    pub tier_remote_reads: u64,
    /// Remote-tier write requests.
    pub tier_remote_writes: u64,
    /// Remote-tier bytes read.
    pub tier_remote_read_bytes: u64,
    /// Remote-tier bytes written.
    pub tier_remote_write_bytes: u64,
    /// Local-tier blocks resident at snapshot time.
    pub tier_local_resident_blocks: u64,
    /// Local-tier capacity, in blocks.
    pub tier_local_capacity_blocks: u64,
    /// Promotion jobs the planner dispatched to the worker pool.
    pub promotions_issued: u64,
    /// Promotion jobs whose remote→local copy completed.
    pub promotions_completed: u64,
    /// Pages completed promotions published into the cache (billed as
    /// prefetch-initiated).
    pub promotion_pages: u64,
    /// Promotion attempts retried after a transient remote fault.
    pub promotion_retries: u64,
    /// Promotion jobs abandoned after exhausting the retry budget.
    pub promotion_give_ups: u64,
    /// Blocks the store moved to the local tier by promotion.
    pub tier_promoted_blocks: u64,
    /// Promotion copies rejected by an injected remote fault (store-side).
    pub tier_promotion_faults: u64,
    /// Promoted blocks demoted or dropped without ever being read
    /// locally — the placement analogue of wasted prefetch.
    pub tier_promoted_wasted_blocks: u64,
    /// Demotion passes (placement words returned to the remote tier).
    pub tier_demotions: u64,
    /// Blocks returned to the remote tier by demotion.
    pub tier_demoted_blocks: u64,
    /// Demoted blocks that were locally modified and were written back to
    /// the remote device first.
    pub tier_demoted_dirty_blocks: u64,
    /// Pages the write path newly dirtied (ledger: `dirtied ==
    /// written_back + dropped + dirty_now`).
    pub wb_dirtied_pages: u64,
    /// Dirty pages flushed to a device (any flush path).
    pub wb_written_back_pages: u64,
    /// Dirty pages discarded without write-back (`unlink`).
    pub wb_dropped_dirty_pages: u64,
    /// Pages dirty at snapshot time (point-in-time, not monotone).
    pub wb_dirty_pages_now: u64,
    /// Flushes forced by dirty thresholds.
    pub wb_flush_threshold: u64,
    /// Flushes forced by a virtual-time dirty deadline.
    pub wb_flush_deadline: u64,
    /// Synchronous flushes (`fsync`, write-through).
    pub wb_flush_sync: u64,
    /// Flushes riding eviction paths (advice, cache drops, reclaim).
    pub wb_flush_drop: u64,
    /// Device write crossings issued by run-based flushing.
    pub wb_runs_flushed: u64,
    /// Adjacent dirty runs merged into one crossing by gap coalescing.
    pub wb_runs_coalesced: u64,
    /// Real-lock contention on the CROSS-LIB per-file registry shards
    /// (wall-clock, contended acquisitions only; zero single-threaded).
    pub lib_registry: RegistryStats,
    /// Real-lock contention on the CROSS-OS inode-cache registry shards.
    pub os_cache_registry: RegistryStats,
    /// Real-lock contention on the CROSS-OS descriptor-table shards.
    pub os_fd_registry: RegistryStats,
}

impl RuntimeReport {
    /// Snapshots the current counters of `runtime` and its OS.
    pub fn collect(runtime: &Runtime) -> Self {
        let os = runtime.os();
        let stats = runtime.stats();
        let metrics = runtime.metrics();
        let index_stats = runtime.range_index_stats();
        let tiered = os.tiered();
        let tier_local = tiered.map(|t| t.local().stats());
        let tier_remote = tiered.map(|t| t.remote().stats());
        let tier_stats = tiered.map(|t| t.stats());
        Self {
            mode: runtime.config().mode.label(),
            reads: stats.reads.get(),
            writes: stats.writes.get(),
            hit_ratio: os.hit_ratio(),
            ra_info_calls: os.stats().ra_info_calls.get(),
            prefetches_skipped: stats.prefetches_skipped.get(),
            pages_initiated: stats.pages_initiated.get(),
            pages_evicted_by_lib: stats.pages_evicted.get(),
            pages_evicted_by_os: os.mem().evicted.get(),
            device_read_bytes: os.device().stats().read_bytes.get(),
            device_write_bytes: os.device().stats().write_bytes.get(),
            resident_pages: os.mem().resident(),
            budget_pages: os.mem().budget(),
            os_lock_wait_ns: os.total_lock_wait_ns(),
            lib_lock_wait_ns: runtime.lib_lock_wait_ns(),
            prefetch_quality: os.prefetch_quality(),
            prefetch_retries: stats.prefetch_retries.get(),
            prefetch_give_ups: stats.prefetch_give_ups.get(),
            pages_abandoned: stats.pages_abandoned.get(),
            read_errors: stats.read_errors.get(),
            stale_resyncs: stats.stale_resyncs.get(),
            ra_info_unsupported: os.stats().ra_info_unsupported.get(),
            degraded_to_blind: runtime.degraded_to_blind(),
            device_read_faults: os.device().stats().injected_read_faults.get(),
            device_latency_spikes: os.device().stats().latency_spike_requests.get(),
            trace_events_dropped: runtime.trace().dropped(),
            read_cache_hit: metrics.read_cache_hit_ns.snapshot(),
            read_prefetch_hit: metrics.read_prefetch_hit_ns.snapshot(),
            read_demand_miss: metrics.read_demand_miss_ns.snapshot(),
            write_latency: metrics.write_ns.snapshot(),
            prefetch_latency: metrics.prefetch_ns.snapshot(),
            worker_queue: metrics.worker_queue_ns.snapshot(),
            os_lock_wait: os.stats().lock_wait_hist.snapshot(),
            lib_lock_wait: metrics.lib_lock_wait_ns.snapshot(),
            evict_scan: metrics.evict_scan_ns.snapshot(),
            os_reclaim_scan: os.stats().reclaim_scan_hist.snapshot(),
            prefetch_runs_coalesced: stats.prefetch_runs_coalesced.get(),
            batches_flushed: stats.batches_flushed.get(),
            batch_flush_full: stats.batch_flush_full.get(),
            batch_flush_deadline: stats.batch_flush_deadline.get(),
            batch_flush_explicit: stats.batch_flush_explicit.get(),
            batch_runs_submitted: stats.batch_runs_submitted.get(),
            batch_runs_merged: stats.batch_runs_merged.get(),
            batch_crossings_saved: stats.batch_crossings_saved.get(),
            ra_batch_calls: os.stats().ra_batch_calls.get(),
            batch_occupancy: metrics.batch_occupancy.snapshot(),
            engine: runtime.inner.policy.engine.name(),
            engine_assoc_runs: stats.engine_assoc_runs.get(),
            engine_assoc_pages: stats.engine_assoc_pages.get(),
            engine_mining_passes: stats.engine_mining_passes.get(),
            engine_duels: stats.engine_duels.get(),
            engine_ownership_flips: stats.engine_ownership_flips.get(),
            ring_enabled: runtime.inner.policy.ring,
            ring_absorbed_reads: os.stats().absorbed_reads.get(),
            ring_demand_batch_calls: os.stats().read_batch_calls.get(),
            ring_staged_runs_piggybacked: stats.ring_staged_runs_piggybacked.get(),
            ring_spec_issued: stats.ring_spec_issued.get(),
            ring_spec_absorbed: stats.ring_spec_absorbed.get(),
            ring_spec_cancelled: stats.ring_spec_cancelled.get(),
            ring_spec_pages_charged: stats.ring_spec_pages_charged.get(),
            ring_timer_fires: stats.ring_timer_fires.get(),
            range_index_kind: "bplus",
            range_index_depth: index_stats.depth,
            range_index_leaves: index_stats.leaves,
            range_index_splits: index_stats.splits,
            range_index_merges: index_stats.merges,
            range_index_retries: index_stats.optimistic_retries,
            stage_latency: PipelineStage::all()
                .iter()
                .map(|&stage| (stage.name(), metrics.stage_hist(stage).snapshot()))
                .collect(),
            spans_enabled: runtime.spans().is_enabled(),
            spans_reads_traced: runtime.spans().reads_traced(),
            spans_exemplars_admitted: runtime.spans().exemplars_admitted(),
            spans_exemplars_evicted: runtime.spans().exemplars_evicted(),
            spans_classes: [
                ReadClass::CacheHit,
                ReadClass::PrefetchHit,
                ReadClass::DemandMiss,
            ]
            .iter()
            .map(|&class| (class.name(), runtime.spans().class_totals(class)))
            .collect(),
            tenants_enabled: runtime.inner.tenants.is_some(),
            tenant_rebalances: runtime.tenants().map_or(0, |a| a.rebalances()),
            tenants: runtime.tenants().map_or_else(Vec::new, |a| a.reports()),
            tiering_enabled: runtime.inner.planner.is_some(),
            writeback_enabled: os.config().writeback.is_some(),
            tier_local_reads: tier_local.map_or(0, |s| s.read_requests.get()),
            tier_local_writes: tier_local.map_or(0, |s| s.write_requests.get()),
            tier_local_read_bytes: tier_local.map_or(0, |s| s.read_bytes.get()),
            tier_local_write_bytes: tier_local.map_or(0, |s| s.write_bytes.get()),
            tier_remote_reads: tier_remote.map_or(0, |s| s.read_requests.get()),
            tier_remote_writes: tier_remote.map_or(0, |s| s.write_requests.get()),
            tier_remote_read_bytes: tier_remote.map_or(0, |s| s.read_bytes.get()),
            tier_remote_write_bytes: tier_remote.map_or(0, |s| s.write_bytes.get()),
            tier_local_resident_blocks: tiered.map_or(0, |t| t.local_resident_blocks()),
            tier_local_capacity_blocks: tiered.map_or(0, |t| t.local_capacity_blocks()),
            promotions_issued: stats.promotions_issued.get(),
            promotions_completed: stats.promotions_completed.get(),
            promotion_pages: stats.promotion_pages.get(),
            promotion_retries: stats.promotion_retries.get(),
            promotion_give_ups: stats.promotion_give_ups.get(),
            tier_promoted_blocks: tier_stats.map_or(0, |s| s.promoted_blocks.get()),
            tier_promotion_faults: tier_stats.map_or(0, |s| s.promotion_faults.get()),
            tier_promoted_wasted_blocks: tier_stats.map_or(0, |s| s.promoted_wasted_blocks.get()),
            tier_demotions: tier_stats.map_or(0, |s| s.demotions.get()),
            tier_demoted_blocks: tier_stats.map_or(0, |s| s.demoted_blocks.get()),
            tier_demoted_dirty_blocks: tier_stats.map_or(0, |s| s.demoted_dirty_blocks.get()),
            wb_dirtied_pages: os.stats().dirtied_pages.get(),
            wb_written_back_pages: os.stats().written_back_pages.get(),
            wb_dropped_dirty_pages: os.stats().dropped_dirty_pages.get(),
            wb_dirty_pages_now: os.mem().dirty(),
            wb_flush_threshold: os.stats().wb_flush_threshold.get(),
            wb_flush_deadline: os.stats().wb_flush_deadline.get(),
            wb_flush_sync: os.stats().wb_flush_sync.get(),
            wb_flush_drop: os.stats().wb_flush_drop.get(),
            wb_runs_flushed: os.stats().wb_runs_flushed.get(),
            wb_runs_coalesced: os.stats().wb_runs_coalesced.get(),
            lib_registry: runtime.file_registry_stats(),
            os_cache_registry: os.cache_registry_stats(),
            os_fd_registry: os.fd_registry_stats(),
        }
    }

    /// Prefetch efficiency: fraction of device pages read that were
    /// initiated by a prefetch path, clamped to `[0, 1]`.
    ///
    /// The raw initiated count can exceed the device's page traffic
    /// (overlapping requests are deduplicated by the cache after they are
    /// counted), so the ratio is clamped rather than letting bookkeeping
    /// races report an efficiency above 1.0.
    pub fn prefetch_share(&self) -> f64 {
        let device_pages = self.device_read_bytes.div_ceil(crate::PAGE_SIZE);
        if device_pages == 0 {
            return 0.0;
        }
        (self.pages_initiated as f64 / device_pages as f64).min(1.0)
    }

    /// Interval accounting: everything monotonic in `self` minus
    /// `earlier`, saturating at zero. Point-in-time fields (`mode`,
    /// `hit_ratio`, `resident_pages`, `budget_pages`) are taken from
    /// `self` unchanged.
    pub fn delta(&self, earlier: &RuntimeReport) -> RuntimeReport {
        RuntimeReport {
            mode: self.mode,
            reads: self.reads.saturating_sub(earlier.reads),
            writes: self.writes.saturating_sub(earlier.writes),
            hit_ratio: self.hit_ratio,
            ra_info_calls: self.ra_info_calls.saturating_sub(earlier.ra_info_calls),
            prefetches_skipped: self
                .prefetches_skipped
                .saturating_sub(earlier.prefetches_skipped),
            pages_initiated: self.pages_initiated.saturating_sub(earlier.pages_initiated),
            pages_evicted_by_lib: self
                .pages_evicted_by_lib
                .saturating_sub(earlier.pages_evicted_by_lib),
            pages_evicted_by_os: self
                .pages_evicted_by_os
                .saturating_sub(earlier.pages_evicted_by_os),
            device_read_bytes: self
                .device_read_bytes
                .saturating_sub(earlier.device_read_bytes),
            device_write_bytes: self
                .device_write_bytes
                .saturating_sub(earlier.device_write_bytes),
            resident_pages: self.resident_pages,
            budget_pages: self.budget_pages,
            os_lock_wait_ns: self.os_lock_wait_ns.saturating_sub(earlier.os_lock_wait_ns),
            lib_lock_wait_ns: self
                .lib_lock_wait_ns
                .saturating_sub(earlier.lib_lock_wait_ns),
            prefetch_quality: self.prefetch_quality.delta(earlier.prefetch_quality),
            prefetch_retries: self
                .prefetch_retries
                .saturating_sub(earlier.prefetch_retries),
            prefetch_give_ups: self
                .prefetch_give_ups
                .saturating_sub(earlier.prefetch_give_ups),
            pages_abandoned: self.pages_abandoned.saturating_sub(earlier.pages_abandoned),
            read_errors: self.read_errors.saturating_sub(earlier.read_errors),
            stale_resyncs: self.stale_resyncs.saturating_sub(earlier.stale_resyncs),
            ra_info_unsupported: self
                .ra_info_unsupported
                .saturating_sub(earlier.ra_info_unsupported),
            degraded_to_blind: self.degraded_to_blind,
            device_read_faults: self
                .device_read_faults
                .saturating_sub(earlier.device_read_faults),
            device_latency_spikes: self
                .device_latency_spikes
                .saturating_sub(earlier.device_latency_spikes),
            trace_events_dropped: self
                .trace_events_dropped
                .saturating_sub(earlier.trace_events_dropped),
            read_cache_hit: self.read_cache_hit.delta(&earlier.read_cache_hit),
            read_prefetch_hit: self.read_prefetch_hit.delta(&earlier.read_prefetch_hit),
            read_demand_miss: self.read_demand_miss.delta(&earlier.read_demand_miss),
            write_latency: self.write_latency.delta(&earlier.write_latency),
            prefetch_latency: self.prefetch_latency.delta(&earlier.prefetch_latency),
            worker_queue: self.worker_queue.delta(&earlier.worker_queue),
            os_lock_wait: self.os_lock_wait.delta(&earlier.os_lock_wait),
            lib_lock_wait: self.lib_lock_wait.delta(&earlier.lib_lock_wait),
            evict_scan: self.evict_scan.delta(&earlier.evict_scan),
            os_reclaim_scan: self.os_reclaim_scan.delta(&earlier.os_reclaim_scan),
            prefetch_runs_coalesced: self
                .prefetch_runs_coalesced
                .saturating_sub(earlier.prefetch_runs_coalesced),
            batches_flushed: self.batches_flushed.saturating_sub(earlier.batches_flushed),
            batch_flush_full: self
                .batch_flush_full
                .saturating_sub(earlier.batch_flush_full),
            batch_flush_deadline: self
                .batch_flush_deadline
                .saturating_sub(earlier.batch_flush_deadline),
            batch_flush_explicit: self
                .batch_flush_explicit
                .saturating_sub(earlier.batch_flush_explicit),
            batch_runs_submitted: self
                .batch_runs_submitted
                .saturating_sub(earlier.batch_runs_submitted),
            batch_runs_merged: self
                .batch_runs_merged
                .saturating_sub(earlier.batch_runs_merged),
            batch_crossings_saved: self
                .batch_crossings_saved
                .saturating_sub(earlier.batch_crossings_saved),
            ra_batch_calls: self.ra_batch_calls.saturating_sub(earlier.ra_batch_calls),
            batch_occupancy: self.batch_occupancy.delta(&earlier.batch_occupancy),
            engine: self.engine,
            engine_assoc_runs: self
                .engine_assoc_runs
                .saturating_sub(earlier.engine_assoc_runs),
            engine_assoc_pages: self
                .engine_assoc_pages
                .saturating_sub(earlier.engine_assoc_pages),
            engine_mining_passes: self
                .engine_mining_passes
                .saturating_sub(earlier.engine_mining_passes),
            engine_duels: self.engine_duels.saturating_sub(earlier.engine_duels),
            engine_ownership_flips: self
                .engine_ownership_flips
                .saturating_sub(earlier.engine_ownership_flips),
            ring_enabled: self.ring_enabled,
            ring_absorbed_reads: self
                .ring_absorbed_reads
                .saturating_sub(earlier.ring_absorbed_reads),
            ring_demand_batch_calls: self
                .ring_demand_batch_calls
                .saturating_sub(earlier.ring_demand_batch_calls),
            ring_staged_runs_piggybacked: self
                .ring_staged_runs_piggybacked
                .saturating_sub(earlier.ring_staged_runs_piggybacked),
            ring_spec_issued: self
                .ring_spec_issued
                .saturating_sub(earlier.ring_spec_issued),
            ring_spec_absorbed: self
                .ring_spec_absorbed
                .saturating_sub(earlier.ring_spec_absorbed),
            ring_spec_cancelled: self
                .ring_spec_cancelled
                .saturating_sub(earlier.ring_spec_cancelled),
            ring_spec_pages_charged: self
                .ring_spec_pages_charged
                .saturating_sub(earlier.ring_spec_pages_charged),
            ring_timer_fires: self
                .ring_timer_fires
                .saturating_sub(earlier.ring_timer_fires),
            range_index_kind: self.range_index_kind,
            range_index_depth: self.range_index_depth,
            range_index_leaves: self.range_index_leaves,
            range_index_splits: self
                .range_index_splits
                .saturating_sub(earlier.range_index_splits),
            range_index_merges: self
                .range_index_merges
                .saturating_sub(earlier.range_index_merges),
            range_index_retries: self
                .range_index_retries
                .saturating_sub(earlier.range_index_retries),
            stage_latency: self
                .stage_latency
                .iter()
                .map(|(name, snap)| {
                    let prior = earlier
                        .stage_latency
                        .iter()
                        .find(|(n, _)| n == name)
                        .map(|(_, s)| s);
                    match prior {
                        Some(s) => (*name, snap.delta(s)),
                        None => (*name, snap.clone()),
                    }
                })
                .collect(),
            spans_enabled: self.spans_enabled,
            spans_reads_traced: self
                .spans_reads_traced
                .saturating_sub(earlier.spans_reads_traced),
            spans_exemplars_admitted: self
                .spans_exemplars_admitted
                .saturating_sub(earlier.spans_exemplars_admitted),
            spans_exemplars_evicted: self
                .spans_exemplars_evicted
                .saturating_sub(earlier.spans_exemplars_evicted),
            spans_classes: self
                .spans_classes
                .iter()
                .map(|(name, totals)| {
                    let prior = earlier
                        .spans_classes
                        .iter()
                        .find(|(n, _)| n == name)
                        .map(|(_, t)| t);
                    match prior {
                        Some(t) => (*name, totals.delta(t)),
                        None => (*name, *totals),
                    }
                })
                .collect(),
            tenants_enabled: self.tenants_enabled,
            tenant_rebalances: self
                .tenant_rebalances
                .saturating_sub(earlier.tenant_rebalances),
            tenants: self
                .tenants
                .iter()
                .map(|row| {
                    let prior = earlier.tenants.iter().find(|r| r.name == row.name);
                    match prior {
                        Some(r) => row.delta(r),
                        None => row.clone(),
                    }
                })
                .collect(),
            tiering_enabled: self.tiering_enabled,
            writeback_enabled: self.writeback_enabled,
            tier_local_reads: self
                .tier_local_reads
                .saturating_sub(earlier.tier_local_reads),
            tier_local_writes: self
                .tier_local_writes
                .saturating_sub(earlier.tier_local_writes),
            tier_local_read_bytes: self
                .tier_local_read_bytes
                .saturating_sub(earlier.tier_local_read_bytes),
            tier_local_write_bytes: self
                .tier_local_write_bytes
                .saturating_sub(earlier.tier_local_write_bytes),
            tier_remote_reads: self
                .tier_remote_reads
                .saturating_sub(earlier.tier_remote_reads),
            tier_remote_writes: self
                .tier_remote_writes
                .saturating_sub(earlier.tier_remote_writes),
            tier_remote_read_bytes: self
                .tier_remote_read_bytes
                .saturating_sub(earlier.tier_remote_read_bytes),
            tier_remote_write_bytes: self
                .tier_remote_write_bytes
                .saturating_sub(earlier.tier_remote_write_bytes),
            tier_local_resident_blocks: self.tier_local_resident_blocks,
            tier_local_capacity_blocks: self.tier_local_capacity_blocks,
            promotions_issued: self
                .promotions_issued
                .saturating_sub(earlier.promotions_issued),
            promotions_completed: self
                .promotions_completed
                .saturating_sub(earlier.promotions_completed),
            promotion_pages: self.promotion_pages.saturating_sub(earlier.promotion_pages),
            promotion_retries: self
                .promotion_retries
                .saturating_sub(earlier.promotion_retries),
            promotion_give_ups: self
                .promotion_give_ups
                .saturating_sub(earlier.promotion_give_ups),
            tier_promoted_blocks: self
                .tier_promoted_blocks
                .saturating_sub(earlier.tier_promoted_blocks),
            tier_promotion_faults: self
                .tier_promotion_faults
                .saturating_sub(earlier.tier_promotion_faults),
            tier_promoted_wasted_blocks: self
                .tier_promoted_wasted_blocks
                .saturating_sub(earlier.tier_promoted_wasted_blocks),
            tier_demotions: self.tier_demotions.saturating_sub(earlier.tier_demotions),
            tier_demoted_blocks: self
                .tier_demoted_blocks
                .saturating_sub(earlier.tier_demoted_blocks),
            tier_demoted_dirty_blocks: self
                .tier_demoted_dirty_blocks
                .saturating_sub(earlier.tier_demoted_dirty_blocks),
            wb_dirtied_pages: self
                .wb_dirtied_pages
                .saturating_sub(earlier.wb_dirtied_pages),
            wb_written_back_pages: self
                .wb_written_back_pages
                .saturating_sub(earlier.wb_written_back_pages),
            wb_dropped_dirty_pages: self
                .wb_dropped_dirty_pages
                .saturating_sub(earlier.wb_dropped_dirty_pages),
            wb_dirty_pages_now: self.wb_dirty_pages_now,
            wb_flush_threshold: self
                .wb_flush_threshold
                .saturating_sub(earlier.wb_flush_threshold),
            wb_flush_deadline: self
                .wb_flush_deadline
                .saturating_sub(earlier.wb_flush_deadline),
            wb_flush_sync: self.wb_flush_sync.saturating_sub(earlier.wb_flush_sync),
            wb_flush_drop: self.wb_flush_drop.saturating_sub(earlier.wb_flush_drop),
            wb_runs_flushed: self.wb_runs_flushed.saturating_sub(earlier.wb_runs_flushed),
            wb_runs_coalesced: self
                .wb_runs_coalesced
                .saturating_sub(earlier.wb_runs_coalesced),
            lib_registry: self.lib_registry.delta(&earlier.lib_registry),
            os_cache_registry: self.os_cache_registry.delta(&earlier.os_cache_registry),
            os_fd_registry: self.os_fd_registry.delta(&earlier.os_fd_registry),
        }
    }

    /// Machine-readable export (schema [`TELEMETRY_SCHEMA_VERSION`]).
    ///
    /// Hand-rolled rather than serde-derived: the reproduction builds with
    /// zero external dependencies. Histograms are exported as
    /// `{count, sum, p50, p95, p99}` summary objects.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(2048);
        out.push('{');
        push_field(&mut out, "schema_version", TELEMETRY_SCHEMA_VERSION.into());
        out.push_str(&format!("\"mode\":\"{}\",", json_escape(self.mode)));
        out.push_str("\"counters\":{");
        push_field(&mut out, "reads", self.reads);
        push_field(&mut out, "writes", self.writes);
        push_field(&mut out, "ra_info_calls", self.ra_info_calls);
        push_field(&mut out, "prefetches_skipped", self.prefetches_skipped);
        push_field(&mut out, "pages_initiated", self.pages_initiated);
        push_field(&mut out, "pages_evicted_by_lib", self.pages_evicted_by_lib);
        push_field(&mut out, "pages_evicted_by_os", self.pages_evicted_by_os);
        push_field(&mut out, "device_read_bytes", self.device_read_bytes);
        push_field(&mut out, "device_write_bytes", self.device_write_bytes);
        push_field(&mut out, "resident_pages", self.resident_pages);
        push_field(&mut out, "budget_pages", self.budget_pages);
        push_field(&mut out, "os_lock_wait_ns", self.os_lock_wait_ns);
        push_field(&mut out, "lib_lock_wait_ns", self.lib_lock_wait_ns);
        push_field(&mut out, "trace_events_dropped", self.trace_events_dropped);
        push_field(&mut out, "prefetch_retries", self.prefetch_retries);
        push_field(&mut out, "prefetch_give_ups", self.prefetch_give_ups);
        push_field(&mut out, "pages_abandoned", self.pages_abandoned);
        push_field(&mut out, "read_errors", self.read_errors);
        push_field(&mut out, "stale_resyncs", self.stale_resyncs);
        push_field(&mut out, "ra_info_unsupported", self.ra_info_unsupported);
        push_field(&mut out, "device_read_faults", self.device_read_faults);
        push_field(
            &mut out,
            "device_latency_spikes",
            self.device_latency_spikes,
        );
        out.push_str(&format!(
            "\"degraded_to_blind\":{},",
            self.degraded_to_blind
        ));
        out.push_str(&format!("\"hit_ratio\":{:.6}", self.hit_ratio));
        out.push_str("},");
        out.push_str("\"prefetch_quality\":{");
        push_field(&mut out, "timely", self.prefetch_quality.timely);
        push_field(&mut out, "late", self.prefetch_quality.late);
        out.push_str(&format!("\"wasted\":{}", self.prefetch_quality.wasted));
        out.push_str("},");
        out.push_str("\"histograms\":{");
        let hists: [(&str, &HistogramSnapshot); 10] = [
            ("read_cache_hit_ns", &self.read_cache_hit),
            ("read_prefetch_hit_ns", &self.read_prefetch_hit),
            ("read_demand_miss_ns", &self.read_demand_miss),
            ("write_ns", &self.write_latency),
            ("prefetch_ns", &self.prefetch_latency),
            ("worker_queue_ns", &self.worker_queue),
            ("os_lock_wait_ns", &self.os_lock_wait),
            ("lib_lock_wait_ns", &self.lib_lock_wait),
            ("evict_scan_ns", &self.evict_scan),
            ("os_reclaim_scan_ns", &self.os_reclaim_scan),
        ];
        for (i, (name, snap)) in hists.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&json_hist(name, snap));
        }
        out.push_str("},");
        // Additive schema-v1 extensions: every pre-existing key above
        // renders byte-identically; new sections only append.
        out.push_str("\"stages\":{");
        for (i, (name, snap)) in self.stage_latency.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&json_hist(name, snap));
        }
        out.push_str("},");
        push_field(
            &mut out,
            "prefetch_runs_coalesced",
            self.prefetch_runs_coalesced,
        );
        // Batched submission (all-zero when `batch_submit` is off, so the
        // section's presence never depends on configuration).
        out.push_str("\"batching\":{");
        push_field(&mut out, "batches_flushed", self.batches_flushed);
        push_field(&mut out, "flush_full", self.batch_flush_full);
        push_field(&mut out, "flush_deadline", self.batch_flush_deadline);
        push_field(&mut out, "flush_explicit", self.batch_flush_explicit);
        push_field(&mut out, "runs_submitted", self.batch_runs_submitted);
        push_field(&mut out, "runs_merged", self.batch_runs_merged);
        push_field(&mut out, "crossings_saved", self.batch_crossings_saved);
        push_field(&mut out, "ra_batch_calls", self.ra_batch_calls);
        out.push_str(&json_hist("occupancy", &self.batch_occupancy));
        out.push_str("},");
        // Prediction-engine accounting (all-zero under the strided
        // default, so the section's presence never depends on the knob).
        out.push_str("\"engines\":{");
        out.push_str(&format!("\"selected\":\"{}\",", json_escape(self.engine)));
        push_field(&mut out, "assoc_runs", self.engine_assoc_runs);
        push_field(&mut out, "assoc_pages", self.engine_assoc_pages);
        push_field(&mut out, "mining_passes", self.engine_mining_passes);
        push_field(&mut out, "duels", self.engine_duels);
        out.push_str(&format!(
            "\"ownership_flips\":{}",
            self.engine_ownership_flips
        ));
        out.push_str("},");
        // Causal span tracing (all-zero while disabled — the additive
        // section is always present, its content never perturbs the
        // pre-span byte layout of the sections above).
        out.push_str("\"spans\":{");
        out.push_str(&format!("\"enabled\":{},", self.spans_enabled));
        push_field(&mut out, "reads_traced", self.spans_reads_traced);
        push_field(
            &mut out,
            "exemplars_admitted",
            self.spans_exemplars_admitted,
        );
        push_field(&mut out, "exemplars_evicted", self.spans_exemplars_evicted);
        out.push_str("\"classes\":{");
        for (i, (name, totals)) in self.spans_classes.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "\"{}\":{{\"reads\":{},\"stage_compute_ns\":{},\"lock_wait_ns\":{},\"queue_wait_ns\":{},\"device_service_ns\":{},\"retry_backoff_ns\":{}}}",
                name,
                totals.reads,
                totals.path.stage_compute_ns,
                totals.path.lock_wait_ns,
                totals.path.queue_wait_ns,
                totals.path.device_service_ns,
                totals.path.retry_backoff_ns
            ));
        }
        out.push_str("}},");
        // Completion-driven ring (all-zero when `ring_submit` is off, so
        // the additive section's presence never depends on the knob).
        out.push_str("\"ring\":{");
        out.push_str(&format!("\"enabled\":{},", self.ring_enabled));
        push_field(&mut out, "absorbed_reads", self.ring_absorbed_reads);
        push_field(&mut out, "demand_batch_calls", self.ring_demand_batch_calls);
        push_field(
            &mut out,
            "staged_runs_piggybacked",
            self.ring_staged_runs_piggybacked,
        );
        push_field(&mut out, "spec_issued", self.ring_spec_issued);
        push_field(&mut out, "spec_absorbed", self.ring_spec_absorbed);
        push_field(&mut out, "spec_cancelled", self.ring_spec_cancelled);
        push_field(&mut out, "spec_pages_charged", self.ring_spec_pages_charged);
        out.push_str(&format!("\"timer_fires\":{}", self.ring_timer_fires));
        out.push_str("},");
        // Range-index structure (additive; depth/leaves describe current
        // shape, the rest are monotone event counters).
        out.push_str("\"range_index\":{");
        out.push_str(&format!(
            "\"kind\":\"{}\",",
            json_escape(self.range_index_kind)
        ));
        push_field(&mut out, "depth", self.range_index_depth);
        push_field(&mut out, "leaves", self.range_index_leaves);
        push_field(&mut out, "splits", self.range_index_splits);
        push_field(&mut out, "merges", self.range_index_merges);
        out.push_str(&format!(
            "\"optimistic_retries\":{}",
            self.range_index_retries
        ));
        out.push_str("},");
        // Multi-tenant arbitration (additive; empty list without an
        // arbiter, so stripping the section restores the pre-tenant byte
        // layout exactly).
        out.push_str("\"tenants\":{");
        out.push_str(&format!("\"enabled\":{},", self.tenants_enabled));
        push_field(&mut out, "rebalances", self.tenant_rebalances);
        out.push_str("\"list\":[");
        for (i, row) in self.tenants.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"name\":\"{}\",\"qos\":\"{}\",\"weight\":{},\"budget_pages\":{},\"window_used_pages\":{},\"initiated_pages\":{},\"admitted_pages\":{},\"degraded_coalesced\":{},\"degraded_blind\":{},\"denied\":{},\"denied_pages\":{}}}",
                json_escape(&row.name),
                row.qos,
                row.weight,
                row.budget_pages,
                row.window_used_pages,
                row.initiated_pages,
                row.admitted_pages,
                row.degraded_coalesced,
                row.degraded_blind,
                row.denied,
                row.denied_pages
            ));
        }
        out.push_str("]},");
        // Cross-tier placement & write-back (all-zero/false when tiering
        // and the write-back daemon are off, so the additive section's
        // presence never depends on the knobs; `schema_compat` strips it
        // for pre-tiering comparisons).
        out.push_str("\"tiering\":{");
        out.push_str(&format!("\"enabled\":{},", self.tiering_enabled));
        out.push_str(&format!(
            "\"writeback_enabled\":{},",
            self.writeback_enabled
        ));
        out.push_str("\"local\":{");
        push_field(&mut out, "reads", self.tier_local_reads);
        push_field(&mut out, "writes", self.tier_local_writes);
        push_field(&mut out, "read_bytes", self.tier_local_read_bytes);
        push_field(&mut out, "write_bytes", self.tier_local_write_bytes);
        push_field(&mut out, "resident_blocks", self.tier_local_resident_blocks);
        out.push_str(&format!(
            "\"capacity_blocks\":{}",
            self.tier_local_capacity_blocks
        ));
        out.push_str("},");
        out.push_str("\"remote\":{");
        push_field(&mut out, "reads", self.tier_remote_reads);
        push_field(&mut out, "writes", self.tier_remote_writes);
        push_field(&mut out, "read_bytes", self.tier_remote_read_bytes);
        out.push_str(&format!("\"write_bytes\":{}", self.tier_remote_write_bytes));
        out.push_str("},");
        out.push_str("\"promotions\":{");
        push_field(&mut out, "issued", self.promotions_issued);
        push_field(&mut out, "completed", self.promotions_completed);
        push_field(&mut out, "pages", self.promotion_pages);
        push_field(&mut out, "retries", self.promotion_retries);
        push_field(&mut out, "give_ups", self.promotion_give_ups);
        push_field(&mut out, "blocks", self.tier_promoted_blocks);
        push_field(&mut out, "faults", self.tier_promotion_faults);
        out.push_str(&format!(
            "\"wasted_blocks\":{}",
            self.tier_promoted_wasted_blocks
        ));
        out.push_str("},");
        out.push_str("\"demotions\":{");
        push_field(&mut out, "passes", self.tier_demotions);
        push_field(&mut out, "blocks", self.tier_demoted_blocks);
        out.push_str(&format!(
            "\"dirty_blocks\":{}",
            self.tier_demoted_dirty_blocks
        ));
        out.push_str("},");
        out.push_str("\"writeback\":{");
        push_field(&mut out, "dirtied_pages", self.wb_dirtied_pages);
        push_field(&mut out, "written_back_pages", self.wb_written_back_pages);
        push_field(&mut out, "dropped_dirty_pages", self.wb_dropped_dirty_pages);
        push_field(&mut out, "dirty_pages", self.wb_dirty_pages_now);
        push_field(&mut out, "flush_threshold", self.wb_flush_threshold);
        push_field(&mut out, "flush_deadline", self.wb_flush_deadline);
        push_field(&mut out, "flush_sync", self.wb_flush_sync);
        push_field(&mut out, "flush_drop", self.wb_flush_drop);
        push_field(&mut out, "runs_flushed", self.wb_runs_flushed);
        out.push_str(&format!("\"runs_coalesced\":{}", self.wb_runs_coalesced));
        out.push_str("}},");
        // Keep "registries" the last section: shard count is deployment
        // configuration (it never affects the simulated timeline), so
        // determinism checks across shard counts compare the prefix.
        out.push_str("\"registries\":{");
        for (i, (name, stats)) in [
            ("lib_files", &self.lib_registry),
            ("os_caches", &self.os_cache_registry),
            ("os_fds", &self.os_fd_registry),
        ]
        .iter()
        .enumerate()
        {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "\"{}\":{{\"shards\":{},\"lock_wait_ns\":{},\"contended\":{},\"per_shard_wait_ns\":[{}]}}",
                name,
                stats.shards(),
                stats.total_wait_ns(),
                stats.total_contended(),
                stats
                    .per_shard_wait_ns
                    .iter()
                    .map(|ns| ns.to_string())
                    .collect::<Vec<_>>()
                    .join(",")
            ));
        }
        out.push_str("}}");
        out
    }

    fn latency_line(name: &str, snap: &HistogramSnapshot) -> String {
        if snap.count == 0 {
            format!("  {name:<16} (no samples)")
        } else {
            format!(
                "  {:<16} n={:<8} p50={} ns  p95={} ns  p99={} ns",
                name,
                snap.count,
                snap.p50(),
                snap.p95(),
                snap.p99()
            )
        }
    }
}

fn push_field(out: &mut String, name: &str, value: u64) {
    out.push_str(&format!("\"{name}\":{value},"));
}

/// One histogram as a `{count, sum, p50, p95, p99}` summary object.
fn json_hist(name: &str, snap: &HistogramSnapshot) -> String {
    format!(
        "\"{}\":{{\"count\":{},\"sum\":{},\"p50\":{},\"p95\":{},\"p99\":{}}}",
        name,
        snap.count,
        snap.sum,
        snap.p50(),
        snap.p95(),
        snap.p99()
    )
}

/// Minimal JSON string escaping (quotes, backslash, control chars).
fn json_escape(s: &str) -> String {
    let mut escaped = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => escaped.push_str("\\\""),
            '\\' => escaped.push_str("\\\\"),
            c if (c as u32) < 0x20 => escaped.push_str(&format!("\\u{:04x}", c as u32)),
            c => escaped.push(c),
        }
    }
    escaped
}

impl fmt::Display for RuntimeReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "=== CrossPrefetch runtime report [{}] ===", self.mode)?;
        writeln!(
            f,
            "I/O        : {} reads, {} writes",
            self.reads, self.writes
        )?;
        writeln!(
            f,
            "cache      : {:.1}% hits, {}/{} pages resident",
            self.hit_ratio * 100.0,
            self.resident_pages,
            self.budget_pages
        )?;
        writeln!(
            f,
            "prefetch   : {} readahead_info calls, {} skipped by visibility, {} pages initiated",
            self.ra_info_calls, self.prefetches_skipped, self.pages_initiated
        )?;
        writeln!(
            f,
            "quality    : {} timely, {} late, {} wasted prefetched pages",
            self.prefetch_quality.timely, self.prefetch_quality.late, self.prefetch_quality.wasted
        )?;
        writeln!(
            f,
            "eviction   : {} pages by runtime, {} pages by OS LRU",
            self.pages_evicted_by_lib, self.pages_evicted_by_os
        )?;
        writeln!(
            f,
            "device     : {:.1} MB read, {:.1} MB written ({:.0}% prefetch-driven)",
            self.device_read_bytes as f64 / 1e6,
            self.device_write_bytes as f64 / 1e6,
            self.prefetch_share() * 100.0
        )?;
        writeln!(
            f,
            "lock waits : {} us OS-side, {} us user-side",
            self.os_lock_wait_ns / 1_000,
            self.lib_lock_wait_ns / 1_000
        )?;
        writeln!(
            f,
            "faults     : {} injected EIOs, {} retries, {} give-ups ({} pages), {} read errors, {} resyncs{}",
            self.device_read_faults,
            self.prefetch_retries,
            self.prefetch_give_ups,
            self.pages_abandoned,
            self.read_errors,
            self.stale_resyncs,
            if self.degraded_to_blind {
                " [degraded to blind readahead]"
            } else {
                ""
            }
        )?;
        writeln!(
            f,
            "trace      : {} ring-dropped events",
            self.trace_events_dropped
        )?;
        writeln!(f, "latency    :")?;
        for (name, snap) in [
            ("read/cache-hit", &self.read_cache_hit),
            ("read/prefetch-hit", &self.read_prefetch_hit),
            ("read/demand-miss", &self.read_demand_miss),
            ("prefetch", &self.prefetch_latency),
        ] {
            writeln!(f, "{}", Self::latency_line(name, snap))?;
        }
        writeln!(f, "pipeline   :")?;
        for (name, snap) in &self.stage_latency {
            writeln!(f, "{}", Self::latency_line(name, snap))?;
        }
        writeln!(
            f,
            "registries : lib {} shards ({} contended, {} us), os-caches {} shards ({} contended, {} us), os-fds {} shards ({} contended, {} us)",
            self.lib_registry.shards(),
            self.lib_registry.total_contended(),
            self.lib_registry.total_wait_ns() / 1_000,
            self.os_cache_registry.shards(),
            self.os_cache_registry.total_contended(),
            self.os_cache_registry.total_wait_ns() / 1_000,
            self.os_fd_registry.shards(),
            self.os_fd_registry.total_contended(),
            self.os_fd_registry.total_wait_ns() / 1_000
        )?;
        writeln!(
            f,
            "range-index: {} (depth {}, {} leaves, {} splits, {} merges, {} optimistic retries)",
            self.range_index_kind,
            self.range_index_depth,
            self.range_index_leaves,
            self.range_index_splits,
            self.range_index_merges,
            self.range_index_retries
        )?;
        if self.prefetch_runs_coalesced > 0 {
            writeln!(
                f,
                "coalescing : {} prefetch runs merged before submission",
                self.prefetch_runs_coalesced
            )?;
        }
        if self.batches_flushed > 0 {
            writeln!(
                f,
                "batching   : {} batches ({} runs, {} merged), {} crossings saved ({} full / {} deadline / {} explicit)",
                self.batches_flushed,
                self.batch_runs_submitted,
                self.batch_runs_merged,
                self.batch_crossings_saved,
                self.batch_flush_full,
                self.batch_flush_deadline,
                self.batch_flush_explicit
            )?;
        }
        if self.ring_enabled
            || self.ring_absorbed_reads > 0
            || self.ring_demand_batch_calls > 0
            || self.ring_timer_fires > 0
        {
            writeln!(
                f,
                "ring       : {} absorbed reads, {} batch crossings ({} piggybacked runs), spec {} issued / {} absorbed / {} cancelled ({} pages charged), {} timer fires",
                self.ring_absorbed_reads,
                self.ring_demand_batch_calls,
                self.ring_staged_runs_piggybacked,
                self.ring_spec_issued,
                self.ring_spec_absorbed,
                self.ring_spec_cancelled,
                self.ring_spec_pages_charged,
                self.ring_timer_fires
            )?;
        }
        if self.engine != "strided" || self.engine_assoc_runs > 0 || self.engine_mining_passes > 0 {
            writeln!(
                f,
                "engines    : {} selected, {} assoc runs ({} pages), {} mining passes, {} duels, {} ownership flips",
                self.engine,
                self.engine_assoc_runs,
                self.engine_assoc_pages,
                self.engine_mining_passes,
                self.engine_duels,
                self.engine_ownership_flips
            )?;
        }
        if self.tenants_enabled {
            writeln!(
                f,
                "tenants    : {} configured, {} rebalances",
                self.tenants.len(),
                self.tenant_rebalances
            )?;
            for row in &self.tenants {
                writeln!(
                    f,
                    "  {:<12} [{:<6}] share={:<8} initiated={:<8} admitted={:<8} degraded={}+{} denied={} ({} pages)",
                    row.name,
                    row.qos,
                    row.budget_pages,
                    row.initiated_pages,
                    row.admitted_pages,
                    row.degraded_coalesced,
                    row.degraded_blind,
                    row.denied,
                    row.denied_pages
                )?;
            }
        }
        if self.tiering_enabled || self.wb_dirtied_pages > 0 {
            writeln!(
                f,
                "tiering    : local {}/{} blocks, promotions {} issued / {} completed ({} pages, {} retries, {} give-ups), demotions {} ({} blocks)",
                self.tier_local_resident_blocks,
                self.tier_local_capacity_blocks,
                self.promotions_issued,
                self.promotions_completed,
                self.promotion_pages,
                self.promotion_retries,
                self.promotion_give_ups,
                self.tier_demotions,
                self.tier_demoted_blocks
            )?;
            writeln!(
                f,
                "write-back : {} dirtied, {} written back, {} dropped, {} dirty now; flushes {} threshold / {} deadline / {} sync / {} drop ({} runs, {} coalesced)",
                self.wb_dirtied_pages,
                self.wb_written_back_pages,
                self.wb_dropped_dirty_pages,
                self.wb_dirty_pages_now,
                self.wb_flush_threshold,
                self.wb_flush_deadline,
                self.wb_flush_sync,
                self.wb_flush_drop,
                self.wb_runs_flushed,
                self.wb_runs_coalesced
            )?;
        }
        if self.spans_reads_traced > 0 {
            writeln!(
                f,
                "spans      : {} reads traced, {} exemplars kept ({} displaced)",
                self.spans_reads_traced,
                self.spans_exemplars_admitted
                    .saturating_sub(self.spans_exemplars_evicted),
                self.spans_exemplars_evicted
            )?;
            for (name, totals) in &self.spans_classes {
                if totals.reads == 0 {
                    continue;
                }
                writeln!(
                    f,
                    "  {:<16} n={:<8} compute={} ns  lock={} ns  queue={} ns  device={} ns  backoff={} ns",
                    name,
                    totals.reads,
                    totals.path.stage_compute_ns,
                    totals.path.lock_wait_ns,
                    totals.path.queue_wait_ns,
                    totals.path.device_service_ns,
                    totals.path.retry_backoff_ns
                )?;
            }
        }
        write!(f, "")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Mode;
    use simos::{Device, DeviceConfig, FileSystem, FsKind, Os, OsConfig};

    fn runtime() -> Runtime {
        let os = Os::new(
            OsConfig::with_memory_mb(64),
            Device::new(DeviceConfig::local_nvme()),
            FileSystem::new(FsKind::Ext4Like),
        );
        Runtime::with_mode(os, Mode::PredictOpt)
    }

    #[test]
    fn report_reflects_activity() {
        let rt = runtime();
        let mut clock = rt.new_clock();
        let file = rt.create_sized(&mut clock, "/t", 8 << 20).unwrap();
        for i in 0..128u64 {
            file.read_charge(&mut clock, i * 16 * 1024, 16 * 1024);
        }
        let report = RuntimeReport::collect(&rt);
        assert_eq!(report.mode, "CrossP[+predict+opt]");
        assert_eq!(report.reads, 128);
        assert!(report.pages_initiated > 0);
        assert!(report.device_read_bytes > 0);
        assert!(report.hit_ratio > 0.0);
        assert_eq!(report.range_index_kind, "bplus");
        assert!(report.range_index_leaves > 0);
        // The latency histograms cover every read.
        let latency_samples = report.read_cache_hit.count
            + report.read_prefetch_hit.count
            + report.read_demand_miss.count;
        assert_eq!(latency_samples, 128);
        // A sequential scan produces timely prefetched pages.
        assert!(report.prefetch_quality.timely + report.prefetch_quality.late > 0);
    }

    #[test]
    fn report_renders_every_section() {
        let rt = runtime();
        let mut clock = rt.new_clock();
        let file = rt.create_sized(&mut clock, "/t", 1 << 20).unwrap();
        file.read_charge(&mut clock, 0, 64 * 1024);
        let rendered = RuntimeReport::collect(&rt).to_string();
        for section in [
            "I/O",
            "cache",
            "prefetch",
            "quality",
            "eviction",
            "device",
            "lock waits",
            "faults",
            "trace",
            "latency",
        ] {
            assert!(rendered.contains(section), "missing section {section}");
        }
    }

    #[test]
    fn prefetch_share_handles_zero_device_traffic() {
        let rt = runtime();
        let report = RuntimeReport::collect(&rt);
        assert_eq!(report.prefetch_share(), 0.0);
    }

    #[test]
    fn prefetch_share_counts_partial_pages_and_stays_clamped() {
        let rt = runtime();
        let mut report = RuntimeReport::collect(&rt);
        // Less than one page of device traffic still counts as traffic
        // (the old integer division truncated this to zero pages).
        report.device_read_bytes = 100;
        report.pages_initiated = 1;
        assert_eq!(report.prefetch_share(), 1.0);
        // Initiated counts exceeding device traffic clamp at 1.0.
        report.device_read_bytes = 2 * crate::PAGE_SIZE;
        report.pages_initiated = 1000;
        assert_eq!(report.prefetch_share(), 1.0);
    }

    #[test]
    fn json_export_is_parseable_shape() {
        let rt = runtime();
        let mut clock = rt.new_clock();
        let file = rt.create_sized(&mut clock, "/t", 4 << 20).unwrap();
        for i in 0..32u64 {
            file.read_charge(&mut clock, i * 16 * 1024, 16 * 1024);
        }
        let json = RuntimeReport::collect(&rt).to_json();
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains("\"schema_version\":1"));
        assert!(json.contains("\"read_cache_hit_ns\""));
        assert!(json.contains("\"prefetch_quality\""));
        assert!(json.contains("\"range_index\":{\"kind\":\"bplus\""));
        assert!(json.contains("\"optimistic_retries\""));
        for section in ADDITIVE_SECTIONS {
            assert!(json.contains(&format!("\"{section}\":{{")), "{section}");
        }
        // Balanced braces and quotes — cheap structural sanity without a
        // JSON parser in the dependency-free build.
        assert_eq!(
            json.matches('{').count(),
            json.matches('}').count(),
            "unbalanced braces"
        );
        assert_eq!(json.matches('"').count() % 2, 0, "unbalanced quotes");
    }

    #[test]
    fn delta_is_monotonic_and_interval_scoped() {
        let rt = runtime();
        let mut clock = rt.new_clock();
        let file = rt.create_sized(&mut clock, "/t", 8 << 20).unwrap();
        for i in 0..64u64 {
            file.read_charge(&mut clock, i * 16 * 1024, 16 * 1024);
        }
        let first = RuntimeReport::collect(&rt);
        for i in 64..96u64 {
            file.read_charge(&mut clock, i * 16 * 1024, 16 * 1024);
        }
        let second = RuntimeReport::collect(&rt);
        let delta = second.delta(&first);
        assert_eq!(delta.reads, 32);
        // Monotone counters never go negative (saturating), and the delta
        // is bounded by the later snapshot.
        assert!(delta.pages_initiated <= second.pages_initiated);
        assert!(delta.device_read_bytes <= second.device_read_bytes);
        let delta_samples = delta.read_cache_hit.count
            + delta.read_prefetch_hit.count
            + delta.read_demand_miss.count;
        assert_eq!(delta_samples, 32);
        // Delta of a report with itself is empty.
        let zero = second.delta(&second);
        assert_eq!(zero.reads, 0);
        assert_eq!(zero.read_cache_hit.count, 0);
    }
}
