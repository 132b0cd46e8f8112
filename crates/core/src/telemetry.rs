//! Aggregated runtime telemetry reports.
//!
//! CROSS-LIB's value proposition is *visibility*: the OS exports cache
//! state and counters, the runtime adds its own, and operators can see
//! exactly what prefetching did. [`RuntimeReport`] snapshots both layers
//! into one structure with a human-readable rendering, a hand-rolled
//! machine-readable [`RuntimeReport::to_json`] export (the build is
//! dependency-free, so no serde), and interval accounting via
//! [`RuntimeReport::delta`].
//!
//! Every field is stated once, in the `report_fields!` table below: doc,
//! [`FieldKind`], type, JSON section and key, collect expression. The
//! struct, `collect`, `delta`, the JSON export and the additive-section
//! set are generated from it, so **adding a counter is one table entry**
//! (plus the `LibStats` / `OsStats` counter it reads). Only the `Display`
//! prose is written by hand.

use std::fmt::{self, Write as _};

use simclock::HistogramSnapshot;
use simos::{PrefetchQuality, RegistryStats};

use crate::metrics::{PipelineStage, ReadClass};
use crate::span::SpanClassTotals;
use crate::tenant::TenantReport;
use crate::Runtime;

/// Version stamped into every JSON export; bump on breaking layout change.
pub const TELEMETRY_SCHEMA_VERSION: u32 = 1;

/// How a report field behaves over an interval ([`RuntimeReport::delta`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FieldKind {
    /// Monotone event count (or a composite): saturating `later - earlier`.
    Counter,
    /// Monotone sample distribution(s): bucket-wise `later - earlier`.
    Histogram,
    /// Point-in-time quantity: taken from the later snapshot.
    Gauge,
    /// Point-in-time boolean: taken from the later snapshot.
    Flag,
    /// Static name: taken from the later snapshot.
    Label,
}

/// One row of the report's field table ([`RuntimeReport::FIELDS`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FieldSpec {
    /// The `RuntimeReport` field name.
    pub name: &'static str,
    /// Interval behaviour.
    pub kind: FieldKind,
    /// JSON objects enclosing the key, outermost first (empty = top level).
    pub path: &'static [&'static str],
    /// JSON key.
    pub key: &'static str,
    /// Whether the enclosing top-level section was added after schema v1
    /// was frozen (see [`RuntimeReport::additive_sections`]).
    pub additive: bool,
}

/// A value the report can export and difference: scalars, histograms and
/// the few irregular shapes (name-keyed lists, tenant rows, registry
/// shards). The table's [`FieldKind`] decides whether `since` applies.
pub(crate) trait Metric {
    fn write_json(&self, out: &mut String);
    /// `self - earlier` for monotone values; point-in-time types keep the
    /// default, the later snapshot.
    fn since(&self, _earlier: &Self) -> Self
    where
        Self: Sized + Clone,
    {
        self.clone()
    }
}

/// One field's interval value: monotone kinds subtract, the rest copy.
fn interval<T: Metric + Clone>(kind: FieldKind, now: &T, earlier: &T) -> T {
    match kind {
        FieldKind::Counter | FieldKind::Histogram => now.since(earlier),
        FieldKind::Gauge | FieldKind::Flag | FieldKind::Label => now.clone(),
    }
}

macro_rules! is_additive {
    (additive) => {
        true
    };
    (frozen) => {
        false
    };
}

/// Expands the field table into the report struct, its field-spec table,
/// `collect`, `delta` and the (spec, value) walk `to_json` renders.
macro_rules! report_fields {
    (
        collect($runtime:ident) { $($prelude:tt)* }
        $(
            $schema:ident $path:tt {
                $(
                    $(#[$doc:meta])*
                    $kind:ident $name:ident: $ty:ty = $key:literal <= $collect:expr;
                )*
            }
        )*
    ) => {
        /// A point-in-time snapshot of the cross-layered telemetry.
        #[derive(Debug, Clone, PartialEq)]
        pub struct RuntimeReport {
            $($(
                $(#[$doc])*
                #[doc = concat!(
                    "\n\n[`FieldKind::", stringify!($kind), "`]; JSON `", stringify!($path), "` key `", $key, "`."
                )]
                pub $name: $ty,
            )*)*
        }

        impl RuntimeReport {
            /// The field table, in JSON export order: one row per field.
            pub const FIELDS: &'static [FieldSpec] = &[
                $($(FieldSpec {
                    name: stringify!($name),
                    kind: FieldKind::$kind,
                    path: &$path,
                    key: $key,
                    additive: is_additive!($schema),
                },)*)*
            ];

            /// Snapshots the current counters of `runtime` and its OS.
            pub fn collect($runtime: &Runtime) -> Self {
                $($prelude)*
                Self { $($($name: $collect,)*)* }
            }

            /// Interval accounting, by each field's [`FieldKind`] (stated in
            /// its doc and in [`Self::FIELDS`]): counters and histograms
            /// are `self` minus `earlier` (saturating at zero); gauges,
            /// flags and labels are point-in-time, taken from `self`.
            pub fn delta(&self, earlier: &RuntimeReport) -> RuntimeReport {
                RuntimeReport {
                    $($($name: interval(FieldKind::$kind, &self.$name, &earlier.$name),)*)*
                }
            }

            /// Every field with its table row, in table order.
            fn fields(&self) -> impl Iterator<Item = (&'static FieldSpec, &dyn Metric)> {
                let values = [$($(&self.$name as &dyn Metric,)*)*];
                Self::FIELDS.iter().zip(values)
            }
        }
    };
}

report_fields! {
    collect(runtime) {
        let os = runtime.os();
        let os_stats = os.stats();
        let device = os.device().stats();
        let stats = runtime.stats();
        let metrics = runtime.metrics();
        let spans = runtime.spans();
        let index = runtime.range_index_stats();
        let tiered = os.tiered();
        let tier_local = tiered.map(|t| t.local().stats());
        let tier_remote = tiered.map(|t| t.remote().stats());
        let tier_stats = tiered.map(|t| t.stats());
    }

    frozen [] {
        /// Mechanism label (Table 2 name).
        Label mode: &'static str = "mode" <= runtime.config().mode.label();
    }
    frozen ["counters"] {
        /// Reads intercepted by the shim.
        Counter reads: u64 = "reads" <= stats.reads.get();
        /// Writes intercepted by the shim.
        Counter writes: u64 = "writes" <= stats.writes.get();
        /// `readahead_info` calls issued.
        Counter ra_info_calls: u64 = "ra_info_calls" <= os_stats.ra_info_calls.get();
        /// Prefetch requests skipped thanks to cache visibility.
        Counter prefetches_skipped: u64 = "prefetches_skipped" <= stats.prefetches_skipped.get();
        /// Pages the OS initiated on behalf of the runtime.
        Counter pages_initiated: u64 = "pages_initiated" <= stats.pages_initiated.get();
        /// Pages evicted by the runtime's memory watcher.
        Counter pages_evicted_by_lib: u64 = "pages_evicted_by_lib" <= stats.pages_evicted.get();
        /// Pages evicted by the OS LRU.
        Counter pages_evicted_by_os: u64 = "pages_evicted_by_os" <= os.mem().evicted.get();
        /// Device bytes read.
        Counter device_read_bytes: u64 = "device_read_bytes" <= device.read_bytes.get();
        /// Device bytes written.
        Counter device_write_bytes: u64 = "device_write_bytes" <= device.write_bytes.get();
        /// Pages resident in the page cache.
        Gauge resident_pages: u64 = "resident_pages" <= os.mem().resident();
        /// Memory budget in pages.
        Gauge budget_pages: u64 = "budget_pages" <= os.mem().budget();
        /// Aggregate OS lock wait (tree + bitmap + mmap), nanoseconds.
        Counter os_lock_wait_ns: u64 = "os_lock_wait_ns" <= os.total_lock_wait_ns();
        /// Aggregate user-level range-tree lock wait, nanoseconds.
        Counter lib_lock_wait_ns: u64 = "lib_lock_wait_ns" <= runtime.lib_lock_wait_ns();
        /// Trace events dropped by the bounded ring (0 when tracing is off).
        Counter trace_events_dropped: u64 = "trace_events_dropped" <= runtime.trace().dropped();
        /// Worker prefetch attempts retried after a transient device error.
        Counter prefetch_retries: u64 = "prefetch_retries" <= stats.prefetch_retries.get();
        /// Prefetch requests abandoned after exhausting the retry budget.
        Counter prefetch_give_ups: u64 = "prefetch_give_ups" <= stats.prefetch_give_ups.get();
        /// Pages abandoned prefetches left to demand fetching.
        Counter pages_abandoned: u64 = "pages_abandoned" <= stats.pages_abandoned.get();
        /// Demand-read errors surfaced to the workload through the shim.
        Counter read_errors: u64 = "read_errors" <= stats.read_errors.get();
        /// Stale-view resyncs (range tree dropped after observed OS reclaim).
        Counter stale_resyncs: u64 = "stale_resyncs" <= stats.stale_resyncs.get();
        /// `readahead_info` attempts rejected by a stock kernel.
        Counter ra_info_unsupported: u64 = "ra_info_unsupported" <= os_stats.ra_info_unsupported.get();
        /// Transient EIOs the device's fault plan injected into reads.
        Counter device_read_faults: u64 = "device_read_faults" <= device.injected_read_faults.get();
        /// Device reads that landed inside an injected latency-spike window.
        Counter device_latency_spikes: u64 = "device_latency_spikes" <= device.latency_spike_requests.get();
        /// Whether the runtime permanently downgraded visibility prefetch to
        /// blind `readahead(2)`.
        Flag degraded_to_blind: bool = "degraded_to_blind" <= runtime.degraded_to_blind();
        /// Page-cache hit ratio over the OS lifetime.
        Gauge hit_ratio: f64 = "hit_ratio" <= os.hit_ratio();
    }
    frozen [] {
        /// Prefetch-quality tallies (timely / late / wasted pages).
        Counter prefetch_quality: PrefetchQuality = "prefetch_quality" <= os.prefetch_quality();
    }
    frozen ["histograms"] {
        /// Read latency, reads served entirely from ready cache.
        Histogram read_cache_hit: HistogramSnapshot = "read_cache_hit_ns" <= metrics.read_cache_hit_ns.snapshot();
        /// Read latency, reads served by prefetched pages.
        Histogram read_prefetch_hit: HistogramSnapshot = "read_prefetch_hit_ns" <= metrics.read_prefetch_hit_ns.snapshot();
        /// Read latency, reads that waited on synchronous device I/O.
        Histogram read_demand_miss: HistogramSnapshot = "read_demand_miss_ns" <= metrics.read_demand_miss_ns.snapshot();
        /// Write latency.
        Histogram write_latency: HistogramSnapshot = "write_ns" <= metrics.write_ns.snapshot();
        /// Prefetch enqueue-to-completion latency.
        Histogram prefetch_latency: HistogramSnapshot = "prefetch_ns" <= metrics.prefetch_ns.snapshot();
        /// Worker-queue wait of prefetch jobs.
        Histogram worker_queue: HistogramSnapshot = "worker_queue_ns" <= metrics.worker_queue_ns.snapshot();
        /// Per-read OS cache-tree lock wait distribution.
        Histogram os_lock_wait: HistogramSnapshot = "os_lock_wait_ns" <= os_stats.lock_wait_hist.snapshot();
        /// Per-acquisition user-level range-tree lock wait distribution.
        Histogram lib_lock_wait: HistogramSnapshot = "lib_lock_wait_ns" <= metrics.lib_lock_wait_ns.snapshot();
        /// Runtime eviction scan time.
        Histogram evict_scan: HistogramSnapshot = "evict_scan_ns" <= metrics.evict_scan_ns.snapshot();
        /// OS reclaim pass scan time.
        Histogram os_reclaim_scan: HistogramSnapshot = "os_reclaim_scan_ns" <= os_stats.reclaim_scan_hist.snapshot();
    }
    frozen [] {
        /// Per-stage virtual-time cost of the staged read pipeline, in
        /// [`PipelineStage::all`] order as `(stage name, distribution)`.
        Histogram stage_latency: Vec<(&'static str, HistogramSnapshot)> = "stages" <= PipelineStage::all()
            .iter()
            .map(|&stage| (stage.name(), metrics.stage_hist(stage).snapshot()))
            .collect();
        /// Adjacent prefetch runs merged by opt-in submission coalescing.
        Counter prefetch_runs_coalesced: u64 = "prefetch_runs_coalesced" <= stats.prefetch_runs_coalesced.get();
    }
    // Batched submission: all-zero when `batch_submit` is off — like every
    // section below, its presence never depends on configuration.
    frozen ["batching"] {
        /// Submission batches flushed to the vectored OS path.
        Counter batches_flushed: u64 = "batches_flushed" <= stats.batches_flushed.get();
        /// Batches flushed for reaching their entry capacity.
        Counter batch_flush_full: u64 = "flush_full" <= stats.batch_flush_full.get();
        /// Batches flushed by the virtual-time deadline.
        Counter batch_flush_deadline: u64 = "flush_deadline" <= stats.batch_flush_deadline.get();
        /// Batches flushed by an explicit drain.
        Counter batch_flush_explicit: u64 = "flush_explicit" <= stats.batch_flush_explicit.get();
        /// Prefetch runs submitted through batches.
        Counter batch_runs_submitted: u64 = "runs_submitted" <= stats.batch_runs_submitted.get();
        /// Batched runs the OS merged into an adjacent run before the device.
        Counter batch_runs_merged: u64 = "runs_merged" <= stats.batch_runs_merged.get();
        /// Syscall crossings batching avoided (entries minus one, per flush).
        Counter batch_crossings_saved: u64 = "crossings_saved" <= stats.batch_crossings_saved.get();
        /// Vectored `readahead_batch` calls the OS served.
        Counter ra_batch_calls: u64 = "ra_batch_calls" <= os_stats.ra_batch_calls.get();
        /// Entries per flushed batch (SQ occupancy at flush time).
        Histogram batch_occupancy: HistogramSnapshot = "occupancy" <= metrics.batch_occupancy.snapshot();
    }
    frozen ["engines"] {
        /// Stable name of the prediction engine new descriptors use
        /// ([`predict::EngineKind::name`], policy-resolved).
        Label engine: &'static str = "selected" <= runtime.inner.policy.engine.name();
        /// Correlation-mined prefetch runs the engine issued.
        Counter engine_assoc_runs: u64 = "assoc_runs" <= stats.engine_assoc_runs.get();
        /// Pages those association runs requested (cached pages excluded).
        Counter engine_assoc_pages: u64 = "assoc_pages" <= stats.engine_assoc_pages.get();
        /// Deferred mining passes dispatched to the worker pool.
        Counter engine_mining_passes: u64 = "mining_passes" <= stats.engine_mining_passes.get();
        /// Adaptive duel windows closed.
        Counter engine_duels: u64 = "duels" <= stats.engine_duels.get();
        /// Adaptive ownership changes.
        Counter engine_ownership_flips: u64 = "ownership_flips" <= stats.engine_ownership_flips.get();
    }
    // Additive sections only ever append: with all of them left out the
    // export is the frozen schema-v1 layout, byte for byte.
    additive ["spans"] {
        /// Whether causal span tracing was enabled at snapshot time.
        Flag spans_enabled: bool = "enabled" <= spans.is_enabled();
        /// Reads that completed with a span frame.
        Counter spans_reads_traced: u64 = "reads_traced" <= spans.reads_traced();
        /// Exemplars admitted into the tail reservoirs.
        Counter spans_exemplars_admitted: u64 = "exemplars_admitted" <= spans.exemplars_admitted();
        /// Exemplars displaced from full reservoirs by slower reads.
        Counter spans_exemplars_evicted: u64 = "exemplars_evicted" <= spans.exemplars_evicted();
        /// Per-class critical-path totals as `(class name, totals)`, in
        /// cache-hit / prefetch-hit / demand-miss order (all-zero while span
        /// tracing is off).
        Counter spans_classes: Vec<(&'static str, SpanClassTotals)> = "classes" <=
            [ReadClass::CacheHit, ReadClass::PrefetchHit, ReadClass::DemandMiss]
                .iter()
                .map(|&class| (class.name(), spans.class_totals(class)))
                .collect();
    }
    additive ["ring"] {
        /// Whether the completion-driven ring was enabled (policy-resolved:
        /// the config knob ANDed with cache visibility).
        Flag ring_enabled: bool = "enabled" <= runtime.inner.policy.ring;
        /// Demand reads the ring absorbed without a syscall crossing.
        Counter ring_absorbed_reads: u64 = "absorbed_reads" <= os_stats.absorbed_reads.get();
        /// Vectored `read_batch` crossings the OS served (demand entries
        /// plus piggybacked prefetch runs per call).
        Counter ring_demand_batch_calls: u64 = "demand_batch_calls" <= os_stats.read_batch_calls.get();
        /// Staged prefetch runs piggybacked on demand-read ring crossings
        /// (runs are only staged while `batch_submit` is also on).
        Counter ring_staged_runs_piggybacked: u64 = "staged_runs_piggybacked" <= stats.ring_staged_runs_piggybacked.get();
        /// Known runs pre-issued with the miss that starts them.
        Counter ring_spec_issued: u64 = "spec_issued" <= stats.ring_spec_issued.get();
        /// Pre-issued runs whose continuation read crossed nothing.
        Counter ring_spec_absorbed: u64 = "spec_absorbed" <= stats.ring_spec_absorbed.get();
        /// Pre-issued runs the stream left before absorbing from them.
        Counter ring_spec_cancelled: u64 = "spec_cancelled" <= stats.ring_spec_cancelled.get();
        /// Pages pre-issued runs initiated (billed as prefetch).
        Counter ring_spec_pages_charged: u64 = "spec_pages_charged" <= stats.ring_spec_pages_charged.get();
        /// Deadline-timer firings by the completion reactor. The timer also
        /// serves plain `batch_submit` mode (overdue batches flush at their
        /// own due time), so this can be nonzero with the ring disabled.
        Counter ring_timer_fires: u64 = "timer_fires" <= stats.ring_timer_fires.get();
    }
    additive ["range_index"] {
        /// Which range-index implementation backs the per-file cache views:
        /// always `"bplus"` ([`crate::BPlusRangeIndex`]).
        Label range_index_kind: &'static str = "kind" <= "bplus";
        /// Most levels any file's index has: 0 = empty, 1 = a lone leaf,
        /// 2 = routing map over leaves.
        Gauge range_index_depth: u64 = "depth" <= index.depth;
        /// Leaves allocated across files.
        Gauge range_index_leaves: u64 = "leaves" <= index.leaves;
        /// Leaf splits performed (contiguous runs chopped at the span cap).
        Counter range_index_splits: u64 = "splits" <= index.splits;
        /// Adjacent-leaf merges performed.
        Counter range_index_merges: u64 = "merges" <= index.merges;
        /// Optimistic reads that failed version validation and paid the
        /// retry penalty (0 single-threaded).
        Counter range_index_retries: u64 = "optimistic_retries" <= index.optimistic_retries;
    }
    additive ["tenants"] {
        /// Whether the multi-tenant arbiter was configured
        /// ([`crate::RuntimeConfig::tenants`]).
        Flag tenants_enabled: bool = "enabled" <= runtime.inner.tenants.is_some();
        /// Fair-share rebalance passes the arbiter ran.
        Counter tenant_rebalances: u64 = "rebalances" <= runtime.tenants().map_or(0, |a| a.rebalances());
        /// Per-tenant admission rows, in tenant-table order (empty without
        /// an arbiter). Each row's monotone fields difference over an
        /// interval; its budget and window usage are point-in-time.
        Counter tenants: Vec<TenantReport> = "list" <= runtime.tenants().map_or_else(Vec::new, |a| a.reports());
    }
    additive ["tiering"] {
        /// Whether the cross-tier promotion planner was built (a tiering
        /// config was present *and* the OS sits on a tiered store).
        Flag tiering_enabled: bool = "enabled" <= runtime.inner.planner.is_some();
        /// Whether the OS-side write-back daemon was configured
        /// ([`simos::OsConfig::writeback`]).
        Flag writeback_enabled: bool = "writeback_enabled" <= os.config().writeback.is_some();
    }
    additive ["tiering", "local"] {
        /// Local-tier read requests (all tier fields are zero un-tiered).
        Counter tier_local_reads: u64 = "reads" <= tier_local.map_or(0, |s| s.read_requests.get());
        /// Local-tier write requests.
        Counter tier_local_writes: u64 = "writes" <= tier_local.map_or(0, |s| s.write_requests.get());
        /// Local-tier bytes read.
        Counter tier_local_read_bytes: u64 = "read_bytes" <= tier_local.map_or(0, |s| s.read_bytes.get());
        /// Local-tier bytes written.
        Counter tier_local_write_bytes: u64 = "write_bytes" <= tier_local.map_or(0, |s| s.write_bytes.get());
        /// Local-tier blocks resident at snapshot time.
        Gauge tier_local_resident_blocks: u64 = "resident_blocks" <= tiered.map_or(0, |t| t.local_resident_blocks());
        /// Local-tier capacity, in blocks.
        Gauge tier_local_capacity_blocks: u64 = "capacity_blocks" <= tiered.map_or(0, |t| t.local_capacity_blocks());
    }
    additive ["tiering", "remote"] {
        /// Remote-tier read requests.
        Counter tier_remote_reads: u64 = "reads" <= tier_remote.map_or(0, |s| s.read_requests.get());
        /// Remote-tier write requests.
        Counter tier_remote_writes: u64 = "writes" <= tier_remote.map_or(0, |s| s.write_requests.get());
        /// Remote-tier bytes read.
        Counter tier_remote_read_bytes: u64 = "read_bytes" <= tier_remote.map_or(0, |s| s.read_bytes.get());
        /// Remote-tier bytes written.
        Counter tier_remote_write_bytes: u64 = "write_bytes" <= tier_remote.map_or(0, |s| s.write_bytes.get());
    }
    additive ["tiering", "promotions"] {
        /// Promotion jobs the planner dispatched to the worker pool.
        Counter promotions_issued: u64 = "issued" <= stats.promotions_issued.get();
        /// Promotion jobs whose remote→local copy completed.
        Counter promotions_completed: u64 = "completed" <= stats.promotions_completed.get();
        /// Pages completed promotions published into the cache (billed as
        /// prefetch-initiated).
        Counter promotion_pages: u64 = "pages" <= stats.promotion_pages.get();
        /// Promotion attempts retried after a transient remote fault.
        Counter promotion_retries: u64 = "retries" <= stats.promotion_retries.get();
        /// Promotion jobs abandoned after exhausting the retry budget.
        Counter promotion_give_ups: u64 = "give_ups" <= stats.promotion_give_ups.get();
        /// Blocks the store moved to the local tier by promotion.
        Counter tier_promoted_blocks: u64 = "blocks" <= tier_stats.map_or(0, |s| s.promoted_blocks.get());
        /// Promotion copies rejected by an injected remote fault (store-side).
        Counter tier_promotion_faults: u64 = "faults" <= tier_stats.map_or(0, |s| s.promotion_faults.get());
        /// Promoted blocks demoted or dropped without ever being read
        /// locally — the placement analogue of wasted prefetch.
        Counter tier_promoted_wasted_blocks: u64 = "wasted_blocks" <= tier_stats.map_or(0, |s| s.promoted_wasted_blocks.get());
    }
    additive ["tiering", "demotions"] {
        /// Demotion passes (placement words returned to the remote tier).
        Counter tier_demotions: u64 = "passes" <= tier_stats.map_or(0, |s| s.demotions.get());
        /// Blocks returned to the remote tier by demotion.
        Counter tier_demoted_blocks: u64 = "blocks" <= tier_stats.map_or(0, |s| s.demoted_blocks.get());
        /// Demoted blocks that were locally modified and were written back to
        /// the remote device first.
        Counter tier_demoted_dirty_blocks: u64 = "dirty_blocks" <= tier_stats.map_or(0, |s| s.demoted_dirty_blocks.get());
    }
    additive ["tiering", "writeback"] {
        /// Pages the write path newly dirtied (ledger: `dirtied ==
        /// written_back + dropped + dirty_now`).
        Counter wb_dirtied_pages: u64 = "dirtied_pages" <= os_stats.dirtied_pages.get();
        /// Dirty pages flushed to a device (any flush path).
        Counter wb_written_back_pages: u64 = "written_back_pages" <= os_stats.written_back_pages.get();
        /// Dirty pages discarded without write-back (`unlink`).
        Counter wb_dropped_dirty_pages: u64 = "dropped_dirty_pages" <= os_stats.dropped_dirty_pages.get();
        /// Pages dirty at snapshot time.
        Gauge wb_dirty_pages_now: u64 = "dirty_pages" <= os.mem().dirty();
        /// Flushes forced by dirty thresholds.
        Counter wb_flush_threshold: u64 = "flush_threshold" <= os_stats.wb_flush_threshold.get();
        /// Flushes forced by a virtual-time dirty deadline.
        Counter wb_flush_deadline: u64 = "flush_deadline" <= os_stats.wb_flush_deadline.get();
        /// Synchronous flushes (`fsync`, write-through).
        Counter wb_flush_sync: u64 = "flush_sync" <= os_stats.wb_flush_sync.get();
        /// Flushes riding eviction paths (advice, cache drops, reclaim).
        Counter wb_flush_drop: u64 = "flush_drop" <= os_stats.wb_flush_drop.get();
        /// Device write crossings issued by run-based flushing.
        Counter wb_runs_flushed: u64 = "runs_flushed" <= os_stats.wb_runs_flushed.get();
        /// Adjacent dirty runs merged into one crossing by gap coalescing.
        Counter wb_runs_coalesced: u64 = "runs_coalesced" <= os_stats.wb_runs_coalesced.get();
    }
    // Keep "registries" the last section: shard count is deployment
    // configuration (it never affects the simulated timeline), so
    // determinism checks across shard counts compare the prefix.
    frozen ["registries"] {
        /// Real-lock contention on the CROSS-LIB per-file registry shards
        /// (wall-clock, contended acquisitions only; zero single-threaded).
        Counter lib_registry: RegistryStats = "lib_files" <= runtime.file_registry_stats();
        /// Real-lock contention on the CROSS-OS inode-cache registry shards.
        Counter os_cache_registry: RegistryStats = "os_caches" <= os.cache_registry_stats();
        /// Real-lock contention on the CROSS-OS descriptor-table shards.
        Counter os_fd_registry: RegistryStats = "os_fds" <= os.fd_registry_stats();
    }
}

impl RuntimeReport {
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

    /// Top-level JSON sections added after schema v1 was frozen, read from
    /// the field table in export order. Each is emitted whether or not its
    /// feature is on; [`Self::to_json_without`] all of them is the schema-v1
    /// baseline layout the knob-off byte-identity checks compare.
    pub fn additive_sections() -> Vec<&'static str> {
        let mut sections: Vec<_> = Self::FIELDS
            .iter()
            .filter(|spec| spec.additive)
            .map(|spec| spec.path[0])
            .collect();
        sections.dedup();
        sections
    }

    /// Machine-readable export (schema [`TELEMETRY_SCHEMA_VERSION`]);
    /// histograms are `{count, sum, p50, p95, p99}` summary objects.
    pub fn to_json(&self) -> String {
        self.to_json_without(&[])
    }

    /// [`Self::to_json`] minus the named top-level sections: the walk
    /// skips their table rows, with no surgery on a rendered string.
    pub fn to_json_without(&self, skip: &[&str]) -> String {
        let mut out = String::with_capacity(4096);
        let _ = write!(out, "{{\"schema_version\":{TELEMETRY_SCHEMA_VERSION}");
        // JSON objects currently open below the root.
        let mut open: &[&str] = &[];
        for (spec, value) in self.fields() {
            if spec.path.first().is_some_and(|top| skip.contains(top)) {
                continue;
            }
            let shared = open
                .iter()
                .zip(spec.path)
                .take_while(|(a, b)| a == b)
                .count();
            for _ in shared..open.len() {
                out.push('}');
            }
            // A freshly opened object's first member follows its brace
            // directly, so one comma covers the whole step.
            out.push(',');
            for section in &spec.path[shared..] {
                let _ = write!(out, "\"{section}\":{{");
            }
            let _ = write!(out, "\"{}\":", spec.key);
            value.write_json(&mut out);
            open = spec.path;
        }
        for _ in 0..=open.len() {
            out.push('}');
        }
        out
    }

    fn latency_line(name: &str, snap: &HistogramSnapshot) -> String {
        if snap.count == 0 {
            return format!("  {name:<16} (no samples)");
        }
        let (n, p50, p95, p99) = (snap.count, snap.p50(), snap.p95(), snap.p99());
        format!("  {name:<16} n={n:<8} p50={p50} ns  p95={p95} ns  p99={p99} ns")
    }
}

impl Metric for u64 {
    fn write_json(&self, out: &mut String) {
        let _ = write!(out, "{self}");
    }
    fn since(&self, earlier: &Self) -> Self {
        self.saturating_sub(*earlier)
    }
}

impl Metric for bool {
    fn write_json(&self, out: &mut String) {
        let _ = write!(out, "{self}");
    }
}

impl Metric for f64 {
    fn write_json(&self, out: &mut String) {
        let _ = write!(out, "{self:.6}");
    }
}

impl Metric for &'static str {
    fn write_json(&self, out: &mut String) {
        push_json_string(out, self);
    }
}

/// One histogram as a `{count, sum, p50, p95, p99}` summary object.
impl Metric for HistogramSnapshot {
    fn write_json(&self, out: &mut String) {
        let (count, sum, p50, p95, p99) =
            (self.count, self.sum, self.p50(), self.p95(), self.p99());
        let _ = write!(
            out,
            "{{\"count\":{count},\"sum\":{sum},\"p50\":{p50},\"p95\":{p95},\"p99\":{p99}}}"
        );
    }
    fn since(&self, earlier: &Self) -> Self {
        self.delta(earlier)
    }
}

impl Metric for PrefetchQuality {
    fn write_json(&self, out: &mut String) {
        let _ = write!(
            out,
            "{{\"timely\":{},\"late\":{},\"wasted\":{}}}",
            self.timely, self.late, self.wasted
        );
    }
    fn since(&self, earlier: &Self) -> Self {
        self.delta(*earlier)
    }
}

/// Name-keyed lists (`stages`, `spans.classes`) render as one object and
/// difference entry by entry; an entry `earlier` lacks is taken whole.
impl<T: Metric + Clone> Metric for Vec<(&'static str, T)> {
    fn write_json(&self, out: &mut String) {
        out.push('{');
        for (i, (name, value)) in self.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "\"{name}\":");
            value.write_json(out);
        }
        out.push('}');
    }
    fn since(&self, earlier: &Self) -> Self {
        self.iter()
            .map(|(name, value)| {
                let prior = earlier.iter().find(|(n, _)| n == name);
                (
                    *name,
                    prior.map_or_else(|| value.clone(), |(_, p)| value.since(p)),
                )
            })
            .collect()
    }
}

impl Metric for RegistryStats {
    fn write_json(&self, out: &mut String) {
        let _ = write!(
            out,
            "{{\"shards\":{},\"lock_wait_ns\":{},\"contended\":{},\"per_shard_wait_ns\":[",
            self.shards(),
            self.total_wait_ns(),
            self.total_contended()
        );
        for (i, ns) in self.per_shard_wait_ns.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "{ns}");
        }
        out.push_str("]}");
    }
    fn since(&self, earlier: &Self) -> Self {
        self.delta(earlier)
    }
}

/// Appends `s` as a JSON string literal (quotes, backslash and control
/// characters escaped).
pub(crate) fn push_json_string(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
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
        let (os_us, lib_us) = (self.os_lock_wait_ns / 1_000, self.lib_lock_wait_ns / 1_000);
        writeln!(f, "lock waits : {os_us} us OS-side, {lib_us} us user-side")?;
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
        let merged = self.prefetch_runs_coalesced;
        if merged > 0 {
            writeln!(
                f,
                "coalescing : {merged} prefetch runs merged before submission"
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
            let (configured, rebalances) = (self.tenants.len(), self.tenant_rebalances);
            writeln!(
                f,
                "tenants    : {configured} configured, {rebalances} rebalances"
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
        Ok(())
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
        // Every section the table names opens exactly once, wherever it
        // nests, and the additive set is read off the same table.
        let mut paths: Vec<_> = RuntimeReport::FIELDS.iter().map(|f| f.path).collect();
        paths.dedup();
        for section in paths.iter().filter_map(|path| path.last()) {
            let opener = format!("\"{section}\":{{");
            assert_eq!(json.matches(&opener).count(), 1, "{section}");
        }
        let additive = RuntimeReport::additive_sections();
        assert_eq!(
            additive,
            ["spans", "ring", "range_index", "tenants", "tiering"]
        );
        for spec in RuntimeReport::FIELDS {
            let listed = spec.path.first().is_some_and(|top| additive.contains(top));
            assert_eq!(spec.additive, listed, "{}: mixed section", spec.name);
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
        // Delta of a report with itself, for every table entry: monotone
        // kinds are empty (x == x - x only at zero), point-in-time kinds
        // are the snapshot itself.
        let zero = second.delta(&second);
        let settled = zero.delta(&zero);
        let render = |value: &dyn Metric| {
            let mut json = String::new();
            value.write_json(&mut json);
            json
        };
        for (((spec, value), (_, snapshot)), (_, emptied)) in
            zero.fields().zip(second.fields()).zip(settled.fields())
        {
            let want = match spec.kind {
                FieldKind::Counter | FieldKind::Histogram => emptied,
                FieldKind::Gauge | FieldKind::Flag | FieldKind::Label => snapshot,
            };
            assert_eq!(render(value), render(want), "{}", spec.name);
        }
        assert_eq!(zero.reads, 0);
        assert_eq!(zero.read_cache_hit.count, 0);
        assert_eq!(zero.range_index_leaves, second.range_index_leaves);
        assert!(second.range_index_leaves > 0);
    }
}
