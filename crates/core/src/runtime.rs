//! The CROSS-LIB runtime: interception shim, prefetch orchestration,
//! memory-budget policies.

use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;
use predict::{
    AccessObservation, Engine, Prediction, PredictionEngine, PrefetchDecision, QualityFeedback,
};
use simclock::ThreadClock;
use simos::shard::{RegistryStats, ShardedMap};
use simos::{
    Advice, Fd, FsError, InodeId, IoError, MmapOutcome, Os, PrefetchQuality, RaBatchCompletion,
    RaBatchEntry, RaInfoRequest, ReadBatchEntry, ReadOutcome, PAGE_SIZE,
};

use crate::config::{Features, Mode, RuntimeConfig};
use crate::metrics::RuntimeMetrics;
use crate::policy::{OpenAction, Policy};
use crate::range_index::{BPlusRangeIndex, IndexStats, LockScope};
use crate::read_path::FillMode;
use crate::ring::{Flush, FlushReason, SubmissionQueue};
use crate::span::{CrossLayerSink, SpanCollector, SpanKind};
use crate::stats::LibStats;
use crate::tenant::{AdmissionRung, TenantArbiter, TenantId, UNBOUND_TENANT};
use crate::tiering::TierPlanner;
use crate::trace::{LookupOutcome, TraceEventKind, TraceLog};
use crate::worker::{Dispatch, WorkerPool};

/// One staged prefetch run awaiting submission through the ring: a
/// limit-sized sub-range of a planned prefetch, carrying everything the
/// worker needs to build its [`RaBatchEntry`] at flush time.
#[derive(Debug)]
pub(crate) struct BatchedRun {
    file: Arc<LibFile>,
    start: u64,
    end: u64,
    relax: bool,
}

/// Per-file (per-inode) runtime state, shared by every descriptor opened on
/// the file — the userspace mirror of the kernel's per-inode bitmap.
#[derive(Debug)]
pub struct LibFile {
    /// The file's inode.
    pub ino: InodeId,
    /// A descriptor the runtime owns for issuing prefetch/advice calls.
    pub(crate) prefetch_fd: Fd,
    /// User-level cache view with per-range locking.
    pub(crate) tree: BPlusRangeIndex,
    /// Virtual time of the most recent application access.
    pub(crate) last_access_ns: AtomicU64,
    /// Reads since the last fincore poll (FincoreApp mode).
    pub(crate) reads_since_poll: AtomicU64,
    /// Pages the user-level view claimed cached but the OS missed —
    /// evidence that the imported bitmap has gone stale (e.g. the OS LRU
    /// reclaimed behind CROSS-LIB's back, §4.4's freshness challenge).
    pub(crate) stale_pages: AtomicU64,
    /// Whether a whole-file fetch was already scheduled (FetchAll mode) —
    /// concurrent opens of a shared file must not stack redundant streams.
    pub(crate) fetchall_scheduled: std::sync::atomic::AtomicBool,
    /// Reads since the last whole-file refetch round (FetchAll mode):
    /// Table 2 describes `[+fetchall+opt]` as *monitoring* missing blocks
    /// via the exported bitmaps and prefetching them — a continuous
    /// policy, re-run periodically, not a one-shot open-time stream.
    pub(crate) reads_since_refetch: AtomicU64,
    /// Circular cursor for FetchAll refetch rounds.
    pub(crate) refetch_cursor: AtomicU64,
    /// Owning tenant index ([`crate::tenant::UNBOUND_TENANT`] when the
    /// file was opened without one or no arbiter is configured). Set by
    /// the first tenant-carrying open; admission and initiated-page
    /// attribution read it on every prefetch.
    pub(crate) tenant: AtomicU32,
}

/// Reads between per-file quality-feedback samples: engines that learn
/// from timely/late/wasted accounting see a fresh delta this often, cheap
/// enough to hide in the accounting stage, frequent enough to steer the
/// correlation support bar and the adaptive hit weighting within a run.
const FEEDBACK_INTERVAL_READS: u64 = 64;

/// Stop *aggressive* window growth when available memory drops to this
/// fraction of the budget (§4.6's high watermark).
pub(crate) const AGGRESSIVE_FLOOR: f64 = 0.15;
/// Stop *all* floor-respecting prefetch below this available fraction.
pub(crate) const PREFETCH_FLOOR: f64 = 0.05;
/// The memory watcher begins evicting when free memory drops below this
/// fraction of the budget.
pub(crate) const EVICT_TRIGGER: f64 = 0.10;
/// The memory watcher stops evicting once free memory is back at this
/// fraction of the budget.
pub(crate) const EVICT_TARGET: f64 = 0.25;
/// Attempts a worker makes on a transiently failing prefetch, ring
/// speculation or promotion copy before giving the range up (first try +
/// retries).
pub(crate) const PREFETCH_RETRY_ATTEMPTS: u32 = 4;
/// Initial retry backoff in virtual ns; doubles per attempt.
pub(crate) const PREFETCH_RETRY_BACKOFF_NS: u64 = 100 * simclock::NS_PER_US;

/// An open file handle through CROSS-LIB — the shim's `FILE*` analogue.
///
/// Each handle carries its own prediction [`Engine`] (§4.6's
/// per-file-descriptor prefetching, generalised to the pluggable engines
/// in the [`predict`] crate), while the cache view ([`LibFile`]) is shared
/// across handles to the same file.
#[derive(Debug)]
pub struct CpFile {
    pub(crate) runtime: Runtime,
    pub(crate) fd: Fd,
    pub(crate) file: Arc<LibFile>,
    /// The prediction engine driving this descriptor's prefetch decisions
    /// (strided counter by default; correlation or adaptive by config).
    pub(crate) engine: Mutex<Engine>,
    /// Whether the engine consumes prefetch-quality feedback — cached at
    /// open so the strided hot path never touches the quality counters.
    pub(crate) engine_feedback: bool,
    /// Reads since the last quality-feedback sample.
    reads_since_feedback: AtomicU64,
    /// The timely/late/wasted totals already fed to the engine, so each
    /// feedback call carries only the delta since the previous one.
    fed_quality: Mutex<PrefetchQuality>,
    /// Pages prefetched ahead of (forward) or behind (backward) the stream
    /// through this descriptor — the async-marker analogue that paces
    /// window growth by consumption instead of by access count.
    pub(crate) fwd_frontier: AtomicU64,
    pub(crate) back_frontier: AtomicU64,
    /// Current prefetch window for this descriptor, in pages.
    pub(crate) window_pages: AtomicU64,
    /// One past the last page of the run the ring pre-issued with the miss
    /// that started it, until a continuation is read with no crossing
    /// (`ring_spec_absorbed`) or the stream jumps away first
    /// (`ring_spec_cancelled`); 0 = none outstanding.
    pub(crate) preissued: AtomicU64,
    /// Whether mapped access restored fault-around already.
    mmap_touched: std::sync::atomic::AtomicBool,
    /// Last pattern index the tracer saw for this descriptor
    /// ([`predict::AccessPattern::index`]; 255 = none yet). Only
    /// touched while tracing is enabled.
    pub(crate) last_pattern: std::sync::atomic::AtomicU8,
}

/// The CROSS-LIB runtime. Cheap to clone; all clones share state.
#[derive(Debug, Clone)]
pub struct Runtime {
    pub(crate) inner: Arc<RuntimeInner>,
}

#[derive(Debug)]
pub(crate) struct RuntimeInner {
    pub(crate) os: Arc<Os>,
    pub(crate) config: RuntimeConfig,
    /// The mechanism-dispatch table, resolved once at construction.
    pub(crate) policy: Policy,
    /// Per-inode runtime state, sharded by inode number so unrelated
    /// files' opens never serialize on one registry lock.
    files: ShardedMap<Arc<LibFile>>,
    pub(crate) workers: WorkerPool,
    /// Staged prefetch runs awaiting submission through the ring (one
    /// slot per worker). Only consulted when [`Policy::batch_submit`] is
    /// on; with batching off no entry is ever pushed and the queue is
    /// inert.
    batch_queue: SubmissionQueue<BatchedRun>,
    pub(crate) stats: LibStats,
    /// Last time (virtual ns) the memory watcher scanned candidates —
    /// bounds the eviction scan to once per watcher interval.
    last_evict_scan_ns: AtomicU64,
    /// OS eviction count at the last pressure sample.
    last_evicted_pages: AtomicU64,
    /// Aggressive growth is paused until this virtual time — set whenever
    /// reclaim activity is observed. The paper pauses aggressiveness below
    /// a free-memory threshold; with a steady-state-full clean cache, the
    /// observable signal for "no headroom" is reclaim running.
    aggressive_pause_until: AtomicU64,
    /// Decision-event trace sink (disabled by default); also installed
    /// into the OS so kernel-side decisions land in the same log.
    pub(crate) trace: Arc<TraceLog>,
    /// Always-on latency distributions.
    pub(crate) metrics: RuntimeMetrics,
    /// Causal span collector (disabled by default): tail exemplars with
    /// critical-path attribution for the slowest reads per latency class.
    pub(crate) spans: Arc<SpanCollector>,
    /// One-way degradation latch: set when the kernel rejects
    /// `readahead_info` (`IoError::Unsupported`). Once set, every
    /// visibility prefetch is issued as blind `readahead(2)` instead —
    /// CROSS-LIB on a stock kernel keeps working, it just loses the
    /// cache-visibility syscall savings.
    pub(crate) degraded: AtomicBool,
    /// Multi-tenant fair-share admission arbiter
    /// ([`crate::RuntimeConfig::tenants`]); `None` (the default) bypasses
    /// every tenant path.
    pub(crate) tenants: Option<TenantArbiter>,
    /// Cross-tier promotion planner ([`crate::RuntimeConfig::tiering`]);
    /// built only when the config asks for it *and* the OS actually sits
    /// on a tiered store. `None` (the default) dispatches no promotion
    /// job, ever.
    pub(crate) planner: Option<TierPlanner>,
}

impl Runtime {
    /// Attaches a runtime in the given mechanism mode to an OS.
    pub fn new(os: Arc<Os>, mut config: RuntimeConfig) -> Self {
        // The OS initiates at most its own ceiling per call; a larger chunk
        // would be marked cached in the user-level view without being read.
        config.max_prefetch_pages = config
            .max_prefetch_pages
            .min(simos::CROSSOS_MAX_PREFETCH_PAGES);
        let policy = Policy::for_config(&config);
        let shards = config.effective_registry_shards();
        let workers = WorkerPool::new(config.workers.max(1), Arc::clone(os.global()));
        let batch_queue = SubmissionQueue::new(
            config.workers.max(1),
            config.batch_max_runs,
            config.batch_deadline_ns,
        );
        let trace = Arc::new(TraceLog::default());
        let spans = Arc::new(SpanCollector::new(config.span_exemplars));
        // Bridge kernel-side decisions (readahead_info, RA window growth,
        // reclaim) into the same trace log, and kernel-side wait/service
        // windows into the calling read's span frame. First runtime
        // attached wins.
        os.set_trace_sink(Arc::new(CrossLayerSink {
            trace: Arc::clone(&trace),
            spans: Arc::clone(&spans),
        }) as Arc<dyn simos::OsTraceSink>);
        let tenants = config.tenants.clone().map(TenantArbiter::new);
        // Promotion needs somewhere to promote *to*: a tiering config on
        // an un-tiered OS builds no planner (and no new code path runs).
        let planner = (config.tiering.is_some() && os.tiered().is_some()).then(TierPlanner::new);
        Self {
            inner: Arc::new(RuntimeInner {
                os,
                config,
                policy,
                files: ShardedMap::new(shards),
                workers,
                batch_queue,
                stats: LibStats::default(),
                last_evict_scan_ns: AtomicU64::new(0),
                last_evicted_pages: AtomicU64::new(0),
                aggressive_pause_until: AtomicU64::new(0),
                trace,
                metrics: RuntimeMetrics::default(),
                spans,
                degraded: AtomicBool::new(false),
                tenants,
                planner,
            }),
        }
    }

    /// Convenience: a runtime with paper defaults for `mode`.
    pub fn with_mode(os: Arc<Os>, mode: Mode) -> Self {
        Self::new(os, RuntimeConfig::new(mode))
    }

    /// The underlying OS.
    pub fn os(&self) -> &Arc<Os> {
        &self.inner.os
    }

    /// The configuration in effect.
    pub fn config(&self) -> &RuntimeConfig {
        &self.inner.config
    }

    /// The effective feature set.
    pub fn features(&self) -> Features {
        self.inner.policy.features
    }

    /// The mechanism-dispatch table in effect.
    pub fn policy(&self) -> &Policy {
        &self.inner.policy
    }

    /// Runtime counters.
    pub fn stats(&self) -> &LibStats {
        &self.inner.stats
    }

    /// Worker-pool telemetry.
    pub fn workers(&self) -> &WorkerPool {
        &self.inner.workers
    }

    /// Whether the runtime has permanently downgraded cache-visibility
    /// prefetch to blind `readahead(2)` because the kernel rejected
    /// `readahead_info` (runs against a stock kernel without CROSS-OS).
    pub fn degraded_to_blind(&self) -> bool {
        self.inner.degraded.load(Ordering::Relaxed)
    }

    /// The decision-event trace log (disabled by default; turn on with
    /// [`TraceLog::set_enabled`]).
    pub fn trace(&self) -> &Arc<TraceLog> {
        &self.inner.trace
    }

    /// The always-on latency histograms.
    pub fn metrics(&self) -> &RuntimeMetrics {
        &self.inner.metrics
    }

    /// The causal span collector (disabled by default; turn on with
    /// [`SpanCollector::set_enabled`]).
    pub fn spans(&self) -> &Arc<SpanCollector> {
        &self.inner.spans
    }

    /// Wall-clock registry-shard wait observed runtime-wide right now
    /// (lib files + OS caches + OS fds) — sampled at span begin/end to
    /// attribute real contention to in-flight exemplars.
    pub(crate) fn registry_wait_now(&self) -> u64 {
        self.inner.files.total_wait_ns() + self.inner.os.registry_wait_ns()
    }

    /// A fresh worker clock attached to the OS global clock.
    pub fn new_clock(&self) -> ThreadClock {
        self.inner.os.new_clock()
    }

    pub(crate) fn scope(&self) -> LockScope {
        self.inner.policy.scope
    }

    fn lib_file(&self, ino: InodeId, fd: Fd) -> Arc<LibFile> {
        self.inner.files.get_or_insert_with(ino.0, || {
            let tree = BPlusRangeIndex::new();
            tree.set_wait_histogram(Arc::clone(&self.inner.metrics.lib_lock_wait_ns));
            Arc::new(LibFile {
                ino,
                prefetch_fd: fd,
                tree,
                last_access_ns: AtomicU64::new(0),
                reads_since_poll: AtomicU64::new(0),
                stale_pages: AtomicU64::new(0),
                fetchall_scheduled: std::sync::atomic::AtomicBool::new(false),
                reads_since_refetch: AtomicU64::new(0),
                refetch_cursor: AtomicU64::new(0),
                tenant: AtomicU32::new(UNBOUND_TENANT),
            })
        })
    }

    // ----- open -------------------------------------------------------------

    /// Opens an existing file through the shim.
    ///
    /// # Errors
    ///
    /// Propagates [`FsError::NotFound`].
    pub fn open(&self, clock: &mut ThreadClock, path: &str) -> Result<CpFile, FsError> {
        let fd = self.inner.os.open(clock, path)?;
        Ok(self.wrap_fd(clock, fd, None))
    }

    /// Opens an existing file on behalf of `tenant`: the file joins the
    /// tenant's registry and its prefetch is arbitrated under the
    /// tenant's fair share. Without a configured arbiter (or for a tenant
    /// outside the table) this is exactly [`Runtime::open`].
    ///
    /// # Errors
    ///
    /// Propagates [`FsError::NotFound`].
    pub fn open_for_tenant(
        &self,
        clock: &mut ThreadClock,
        path: &str,
        tenant: TenantId,
    ) -> Result<CpFile, FsError> {
        let fd = self.inner.os.open(clock, path)?;
        Ok(self.wrap_fd(clock, fd, Some(tenant)))
    }

    /// Creates an empty file through the shim.
    ///
    /// # Errors
    ///
    /// Propagates [`FsError::AlreadyExists`].
    pub fn create(&self, clock: &mut ThreadClock, path: &str) -> Result<CpFile, FsError> {
        let fd = self.inner.os.create(clock, path)?;
        Ok(self.wrap_fd(clock, fd, None))
    }

    /// Creates a file with preallocated size through the shim.
    ///
    /// # Errors
    ///
    /// Propagates [`FsError::AlreadyExists`].
    pub fn create_sized(
        &self,
        clock: &mut ThreadClock,
        path: &str,
        bytes: u64,
    ) -> Result<CpFile, FsError> {
        let fd = self.inner.os.create_sized(clock, path, bytes)?;
        Ok(self.wrap_fd(clock, fd, None))
    }

    /// [`Runtime::create_sized`] on behalf of `tenant` (see
    /// [`Runtime::open_for_tenant`]).
    ///
    /// # Errors
    ///
    /// Propagates [`FsError::AlreadyExists`].
    pub fn create_sized_for_tenant(
        &self,
        clock: &mut ThreadClock,
        path: &str,
        bytes: u64,
        tenant: TenantId,
    ) -> Result<CpFile, FsError> {
        let fd = self.inner.os.create_sized(clock, path, bytes)?;
        Ok(self.wrap_fd(clock, fd, Some(tenant)))
    }

    fn wrap_fd(&self, clock: &mut ThreadClock, fd: Fd, tenant: Option<TenantId>) -> CpFile {
        let ino = self.inner.os.fd_inode(fd);
        let file = self.lib_file(ino, fd);
        let policy = &self.inner.policy;

        // Tenant binding happens before any open-time prefetch so the
        // optimistic window and fetchall streams are attributed and
        // arbitrated from the first page.
        if let (Some(arbiter), Some(tenant)) = (&self.inner.tenants, tenant) {
            if arbiter.bind(tenant, ino) {
                file.tenant.store(tenant.0, Ordering::Relaxed);
            }
        }

        if policy.silence_heuristic_ra {
            // CROSS-LIB owns prefetching: silence the OS heuristic so the
            // two layers do not double-prefetch.
            self.inner.os.fadvise(clock, fd, Advice::Random, 0, 0);
        }

        match policy.open_action {
            OpenAction::Nothing => {}
            OpenAction::ScheduleWholeFile => {
                // [+fetchall+opt]: schedule the whole file at the *first*
                // open; concurrent opens of a shared file reuse the same
                // stream.
                if !file.fetchall_scheduled.swap(true, Ordering::Relaxed) {
                    let pages = self.inner.os.fs().size(ino).div_ceil(PAGE_SIZE);
                    self.prefetch_pages(
                        clock, &file, 0, pages, /* respect_floors = */ false, None,
                    );
                }
            }
            OpenAction::OptimisticWindow => {
                // §4.6: optimistic 2 MiB at open, memory permitting.
                let pages = self.inner.config.open_prefetch_bytes / PAGE_SIZE;
                self.prefetch_pages(clock, &file, 0, pages, true, None);
            }
        }

        let engine = Engine::for_kind(self.inner.policy.engine, &self.inner.config.engine_tuning);
        CpFile {
            runtime: self.clone(),
            fd,
            file,
            engine_feedback: engine.wants_feedback(),
            engine: Mutex::new(engine),
            reads_since_feedback: AtomicU64::new(0),
            fed_quality: Mutex::new(PrefetchQuality::default()),
            fwd_frontier: AtomicU64::new(0),
            back_frontier: AtomicU64::new(u64::MAX),
            window_pages: AtomicU64::new(0),
            preissued: AtomicU64::new(0),
            mmap_touched: std::sync::atomic::AtomicBool::new(false),
            last_pattern: std::sync::atomic::AtomicU8::new(u8::MAX),
        }
    }

    // ----- prefetch orchestration --------------------------------------------

    /// Credits pages the OS initiated for a prefetch on `file`: the
    /// global counter always, plus the owning tenant's ledger when an
    /// arbiter is configured — keeping the per-tenant
    /// `timely + late + wasted == initiated` invariant intact across
    /// every initiation path (worker, batch completion, pre-issued run).
    pub(crate) fn note_pages_initiated(&self, file: &LibFile, pages: u64) {
        self.inner.stats.pages_initiated.add(pages);
        if pages == 0 {
            return;
        }
        if let Some(arbiter) = &self.inner.tenants {
            let tenant = file.tenant.load(Ordering::Relaxed);
            if tenant != UNBOUND_TENANT {
                arbiter.note_initiated(tenant, pages);
            }
        }
    }

    /// Dispatches a cross-tier promotion job: a background remote→local
    /// copy of a planner-approved predicted-hot range, issued on the
    /// worker pool off the read's critical path. Transient remote faults
    /// retry through the same doubling backoff ladder as prefetch; an
    /// exhausted budget gives up with the placement map unchanged —
    /// demand reads keep working against the remote tier. Pages a
    /// completed copy publishes into the cache are billed as
    /// prefetch-initiated, so `timely + late + wasted == pages_initiated`
    /// carries over with promotions in play.
    pub(crate) fn dispatch_promotion(
        &self,
        clock: &mut ThreadClock,
        file: &Arc<LibFile>,
        start: u64,
        pages: u64,
    ) {
        let inner = &self.inner;
        if inner.planner.is_none() {
            return;
        }
        inner.stats.promotions_issued.incr();
        let runtime = self.clone();
        let file = Arc::clone(file);
        let est_ns = inner.os.config().costs.syscall_ns.max(1);
        let dispatch = inner.workers.dispatch(clock.now(), est_ns, move |wclock| {
            let stats = &runtime.inner.stats;
            let copied = runtime.retry_ladder(
                wclock,
                (file.ino, start, pages),
                0,
                &stats.promotion_retries,
                |wclock| {
                    let os = &runtime.inner.os;
                    os.try_promote_range(wclock, file.ino, start, pages).ok()
                },
            );
            match copied {
                Some(newly) => {
                    stats.promotions_completed.incr();
                    stats.promotion_pages.add(newly);
                    runtime.note_pages_initiated(&file, newly);
                }
                None => stats.promotion_give_ups.incr(),
            }
        });
        self.note_queue_wait(&dispatch);
    }

    /// The one retry ladder for background I/O that hit a transient
    /// fault. Runs `attempt` until it yields a value; each `None` (a
    /// transient failure) is counted in `retries`, traced as
    /// `PrefetchRetry` with its 1-based attempt number, and followed by a
    /// doubling virtual-time backoff from [`PREFETCH_RETRY_BACKOFF_NS`].
    /// `spent` is the attempts the caller already made, and saw fail,
    /// before entering. When [`PREFETCH_RETRY_ATTEMPTS`] are used up the
    /// `(ino, start_page, pages)` range is traced `PrefetchAbandoned` and
    /// the ladder returns `None`; what giving up costs is the caller's to
    /// count.
    fn retry_ladder<T>(
        &self,
        clock: &mut ThreadClock,
        (ino, start_page, pages): (InodeId, u64, u64),
        spent: u32,
        retries: &simclock::Counter,
        mut attempt: impl FnMut(&mut ThreadClock) -> Option<T>,
    ) -> Option<T> {
        let trace = &self.inner.trace;
        let mut failed = spent;
        let mut backoff = PREFETCH_RETRY_BACKOFF_NS;
        loop {
            if failed >= PREFETCH_RETRY_ATTEMPTS {
                let abandoned = TraceEventKind::PrefetchAbandoned {
                    ino,
                    start_page,
                    pages,
                };
                trace.emit(clock.now(), abandoned);
                return None;
            }
            if failed > 0 {
                retries.incr();
                let retry = TraceEventKind::PrefetchRetry {
                    ino,
                    start_page,
                    pages,
                    attempt: failed,
                };
                trace.emit(clock.now(), retry);
                clock.advance(backoff);
                crate::span::record_leaf(SpanKind::RetryBackoff, backoff, clock.now());
                backoff = backoff.saturating_mul(2);
            }
            if let Some(done) = attempt(clock) {
                return Some(done);
            }
            failed += 1;
        }
    }

    /// Flips the one-way degradation latch (the kernel rejected
    /// `readahead_info`), tracing the downgrade the first time only.
    fn latch_degraded(&self, now_ns: u64, ino: InodeId) {
        if !self.inner.degraded.swap(true, Ordering::Relaxed) {
            let downgraded = TraceEventKind::VisibilityDowngraded { ino };
            self.inner.trace.emit(now_ns, downgraded);
        }
    }

    /// Books how long a job just handed to the worker pool sat queued.
    fn note_queue_wait(&self, dispatch: &Dispatch) {
        let waited = dispatch.queue_wait_ns();
        self.inner.metrics.worker_queue_ns.record(waited);
    }

    /// The multi-tenant admission arbiter, when configured.
    pub fn tenants(&self) -> Option<&TenantArbiter> {
        self.inner.tenants.as_ref()
    }

    fn free_fraction(&self) -> f64 {
        let mem = self.inner.os.mem();
        mem.free_pages() as f64 / mem.budget().max(1) as f64
    }

    /// Fraction of the budget that is free *or reclaimable* (clean cached
    /// pages). A steady-state page cache is always "full" of clean pages;
    /// those are available to prefetching — only dirty data is not.
    fn available_fraction(&self) -> f64 {
        let mem = self.inner.os.mem();
        let unavailable = mem.dirty();
        1.0 - (unavailable as f64 / mem.budget().max(1) as f64)
    }

    /// Whether aggressive window growth is currently allowed: requires
    /// clean-memory headroom *and* no recent reclaim activity (memory
    /// pressure pauses aggressiveness for a grace interval — §4.6's
    /// high-watermark behaviour under a steady-state-full cache).
    pub(crate) fn aggressive_allowed(&self, now: u64) -> bool {
        let inner = &self.inner;
        if self.available_fraction() <= AGGRESSIVE_FLOOR {
            return false;
        }
        let evicted = inner.os.mem().evicted.get();
        let last = inner.last_evicted_pages.swap(evicted, Ordering::Relaxed);
        if evicted > last && last > 0 {
            inner
                .aggressive_pause_until
                .fetch_max(now + 50 * simclock::NS_PER_MS, Ordering::Relaxed);
        }
        now >= inner.aggressive_pause_until.load(Ordering::Relaxed)
    }

    /// Schedules a prefetch of `[from, from + want)` pages of `file`.
    ///
    /// The calling thread pays only the user-level bitmap check and an
    /// enqueue; issuing (syscalls, bitmap locks, device) happens on the
    /// worker pool's virtual time. Returns the page index the schedule
    /// actually reached (`from` when nothing was scheduled), so pacing
    /// frontiers reflect the memory-clamped reality.
    ///
    /// With a `rider` — the demand crossing about to be made for the miss
    /// that starts a known run — the request takes neither route: admitted
    /// in full, and billed to the tenant window like any other prefetch,
    /// its limit-sized runs are left in `rider` to cross with that miss as
    /// demand-class entries (DESIGN §13); refused, nothing is scheduled.
    pub(crate) fn prefetch_pages(
        &self,
        clock: &mut ThreadClock,
        file: &Arc<LibFile>,
        from: u64,
        want: u64,
        respect_floors: bool,
        rider: Option<&mut Vec<BatchedRun>>,
    ) -> u64 {
        let inner = &self.inner;
        let costs = &inner.os.config().costs;
        let file_pages = inner.os.fs().size(file.ino).div_ceil(PAGE_SIZE);
        let end = (from + want).min(file_pages);
        if from >= end {
            return from;
        }
        if respect_floors && self.available_fraction() < PREFETCH_FLOOR {
            return from;
        }
        // Memory-budget clamp: one prefetch may claim at most half the
        // truly-free headroom, but never less than budget/32 — a full
        // cache of *clean* pages is reclaimable, so modest windows stay
        // productive while no single call can blow the whole budget.
        let end = if respect_floors {
            let mem = inner.os.mem();
            let headroom = (mem.free_pages() / 2).max(mem.budget() / 32).max(1);
            from + (end - from).min(headroom)
        } else {
            end
        };

        // Tenant admission: under memory pressure a tenant over its fair
        // share degrades — coalesced-only, then a single blind window,
        // then outright denial — before any demand read pays. Files with
        // no tenant (and runtimes with no arbiter) skip this entirely.
        let mut force_coalesce = false;
        let mut force_blind = false;
        let mut end = end;
        let tenant = file.tenant.load(Ordering::Relaxed);
        if let Some(arbiter) = inner.tenants.as_ref().filter(|_| tenant != UNBOUND_TENANT) {
            let (pages, now) = (end - from, clock.now());
            let rung = if rider.is_none() {
                arbiter.admit(&inner.os, tenant, pages, now)
            } else if arbiter.admit_in_full(&inner.os, tenant, pages, now) {
                AdmissionRung::Full
            } else {
                AdmissionRung::Deny
            };
            match rung {
                AdmissionRung::Full => {}
                AdmissionRung::CoalescedOnly => force_coalesce = true,
                AdmissionRung::Blind => {
                    // One OS readahead window, issued blind below.
                    force_blind = true;
                    end = from + pages.min(inner.os.config().ra_max_pages.max(1));
                }
                AdmissionRung::Deny => return from,
            }
        }

        // User-level visibility check: skip entirely-cached requests. This
        // is the system-call reduction at the heart of §4.2.
        let missing = if inner.policy.features.visibility && !force_blind {
            let runs = file.tree.missing_in(clock, costs, self.scope(), from, end);
            if force_coalesce {
                self.coalesce_runs(runs)
            } else {
                runs
            }
        } else {
            vec![(from, end)]
        };
        if missing.is_empty() {
            inner.stats.prefetches_skipped.incr();
            inner.trace.emit(
                clock.now(),
                TraceEventKind::TreeLookup {
                    ino: file.ino,
                    start_page: from,
                    pages: end - from,
                    outcome: LookupOutcome::SkippedByVisibility,
                },
            );
            return end;
        }
        inner.stats.prefetches_enqueued.incr();
        let total: u64 = missing.iter().map(|&(s, e)| e - s).sum();
        inner.stats.pages_requested.add(total);
        clock.advance(costs.lock_op_ns); // enqueue

        // Vectored paths: ride the demand crossing, or stage limit-sized
        // runs in the submission queue (a full or expired slot flushes as
        // one vectored crossing), and return. Degradation falls back to
        // the per-run path below — blind `readahead(2)` has no vectored
        // form, whether the blindness came from the kernel latch or the
        // tenant admission ladder.
        let relax_limits = inner.policy.features.relax_limits;
        if !inner.degraded.load(Ordering::Relaxed) && !force_blind {
            if let Some(rider) = rider {
                inner.stats.ring_spec_issued.incr();
                let issued = TraceEventKind::RingSpecIssued {
                    ino: file.ino,
                    start_page: missing[0].0,
                    pages: total,
                };
                inner.trace.emit(clock.now(), issued);
                self.limit_sized_runs(file, &missing, relax_limits, |run| rider.push(run));
                return end;
            }
            if inner.policy.batch_submit {
                self.enqueue_batched(clock, file, &missing, relax_limits);
                return end;
            }
        }

        let runtime = self.clone();
        let file = Arc::clone(file);
        let relax = relax_limits && !force_blind;
        let visibility = inner.policy.features.visibility && !force_blind;
        let max_pages = inner.config.max_prefetch_pages;
        // Reserve worker occupancy proportional to the syscalls the job
        // will issue.
        let os_cap = inner.os.config().ra_max_pages;
        let call_estimate: u64 = if relax {
            // One syscall per max_pages chunk of each missing run — a run
            // longer than the relaxed ceiling still takes several calls.
            missing
                .iter()
                .map(|&(s, e)| (e - s).div_ceil(max_pages.max(1)))
                .sum()
        } else {
            total.div_ceil(os_cap.max(1))
        };
        let est_ns = call_estimate * inner.os.config().costs.syscall_ns;

        let first_page = missing[0].0;
        let ino = file.ino;
        let dispatch = inner.workers.dispatch(clock.now(), est_ns, move |wclock| {
            runtime.issue_prefetch(wclock, &file, &missing, relax, visibility, 0);
        });
        self.note_queue_wait(&dispatch);
        inner.metrics.prefetch_ns.record(dispatch.latency_ns());
        if inner.trace.is_enabled() {
            inner.trace.emit(
                dispatch.enqueue_ns,
                TraceEventKind::PrefetchEnqueued {
                    ino,
                    start_page: first_page,
                    pages: total,
                    worker: dispatch.worker,
                },
            );
            inner.trace.emit(
                dispatch.end_ns,
                TraceEventKind::PrefetchCompleted {
                    ino,
                    queue_wait_ns: dispatch.queue_wait_ns(),
                    latency_ns: dispatch.latency_ns(),
                },
            );
        }
        end
    }

    /// Merges adjacent missing runs separated by at most one OS readahead
    /// window into a single submission — the tenant ladder's
    /// [`AdmissionRung::CoalescedOnly`] rung trades a few duplicate-checked
    /// pages for fewer syscalls. The merged span covers the gap pages too —
    /// safe only on the cache-visibility path, where the OS dedups
    /// already-cached pages inside the span.
    fn coalesce_runs(&self, runs: Vec<(u64, u64)>) -> Vec<(u64, u64)> {
        let gap = self.inner.os.config().ra_max_pages;
        let mut out: Vec<(u64, u64)> = Vec::with_capacity(runs.len());
        for (start, end) in runs {
            match out.last_mut() {
                Some(last) if start <= last.1.saturating_add(gap) => {
                    last.1 = last.1.max(end);
                    self.inner.stats.prefetch_runs_coalesced.incr();
                }
                _ => out.push((start, end)),
            }
        }
        out
    }

    /// Splits the missing runs into limit-sized entries — so vectored and
    /// unbatched submissions initiate identical page counts, only the
    /// crossing count differs — handing each to `sink`.
    fn limit_sized_runs(
        &self,
        file: &Arc<LibFile>,
        missing: &[(u64, u64)],
        relax: bool,
        mut sink: impl FnMut(BatchedRun),
    ) {
        let cap = if relax {
            self.inner.config.max_prefetch_pages.max(1)
        } else {
            self.inner.os.config().ra_max_pages.max(1)
        };
        for &(start, end) in missing {
            let mut cursor = start;
            while cursor < end {
                let upto = (cursor + cap).min(end);
                sink(BatchedRun {
                    file: Arc::clone(file),
                    start: cursor,
                    end: upto,
                    relax,
                });
                cursor = upto;
            }
        }
    }

    /// Batching half of [`Runtime::prefetch_pages`]: stages the
    /// limit-sized runs in the submission queue. A push that fills the
    /// slot or finds it past its deadline flushes inline.
    fn enqueue_batched(
        &self,
        clock: &mut ThreadClock,
        file: &Arc<LibFile>,
        missing: &[(u64, u64)],
        relax: bool,
    ) {
        let now = clock.now();
        let slot = self.inner.workers.least_loaded(now);
        self.limit_sized_runs(file, missing, relax, |run| {
            if let Some(flush) = self.inner.batch_queue.push(slot, now, run) {
                self.flush_batch(clock, slot, flush);
            }
        });
    }

    /// Fires the reactor timer: flushes batches whose virtual-time
    /// deadline has passed, each *at its own due time*. Called from the
    /// read path's prefetch-plan stage and the explicit drain points; the
    /// common case is one relaxed load of the deadline hint and an
    /// immediate return.
    pub(crate) fn flush_due_batches(&self, clock: &mut ThreadClock) {
        let inner = &self.inner;
        if !inner.policy.batch_submit || clock.now() < inner.batch_queue.next_deadline_ns() {
            return;
        }
        for (slot, flush) in inner.batch_queue.drain_due(clock.now()) {
            self.flush_batch(clock, slot, flush);
        }
    }

    /// Drains every staged prefetch batch. Expired batches fire first
    /// through the reactor timer — dispatched at their own deadline, not
    /// the caller's `now` — and only still-young batches drain as
    /// [`FlushReason::Explicit`]. Benches and workloads call this at
    /// measurement boundaries so no planned prefetch is left staged; a
    /// no-op when batching is off.
    pub fn flush_prefetch_batches(&self, clock: &mut ThreadClock) {
        let inner = &self.inner;
        if !inner.policy.batch_submit {
            return;
        }
        self.flush_due_batches(clock);
        for (slot, flush) in inner.batch_queue.drain_all() {
            self.flush_batch(clock, slot, flush);
        }
    }

    /// Hands one flushed batch to its worker as a single vectored
    /// crossing. A deadline flush dispatches at the batch's *own* due
    /// time (`opened_ns + deadline_ns`) in virtual time — the reactor
    /// timer firing — not at whatever later moment a read happened to
    /// pump the queue; the worker's FCFS server handles a past enqueue
    /// time naturally (the job starts at `max(due, clear_time)`).
    /// Billing (flush-reason counters, the occupancy histogram) is
    /// always against the flushed batch's own entries.
    fn flush_batch(&self, clock: &mut ThreadClock, slot: usize, flush: Flush<BatchedRun>) {
        let inner = &self.inner;
        if flush.entries.is_empty() {
            return;
        }
        let at_ns = match flush.reason {
            FlushReason::Deadline => {
                inner.stats.ring_timer_fires.incr();
                flush.due_ns(inner.batch_queue.deadline_ns())
            }
            FlushReason::Full | FlushReason::Explicit => clock.now(),
        };
        let batch = flush.entries;
        let runs = batch.len() as u64;
        let pages: u64 = batch.iter().map(|r| r.end - r.start).sum();
        inner.stats.batches_flushed.incr();
        match flush.reason {
            FlushReason::Full => inner.stats.batch_flush_full.incr(),
            FlushReason::Deadline => inner.stats.batch_flush_deadline.incr(),
            FlushReason::Explicit => inner.stats.batch_flush_explicit.incr(),
        }
        inner.stats.batch_runs_submitted.add(runs);
        inner.stats.batch_crossings_saved.add(runs - 1);
        inner.metrics.batch_occupancy.record(runs);
        inner.trace.emit(
            at_ns,
            TraceEventKind::BatchFlushed {
                runs,
                pages,
                reason: flush.reason,
            },
        );
        let runtime = self.clone();
        let est_ns = inner.os.config().costs.syscall_ns;
        let dispatch = inner
            .workers
            .dispatch_on(slot, at_ns, est_ns, move |wclock| {
                runtime.issue_prefetch_batch(wclock, batch);
            });
        self.note_queue_wait(&dispatch);
        inner.metrics.prefetch_ns.record(dispatch.latency_ns());
        crate::span::record_leaf(SpanKind::BatchFlush, dispatch.latency_ns(), dispatch.end_ns);
    }

    /// Worker half of the batched path: one vectored syscall covers the
    /// whole batch, then completions are handled per entry. A transiently
    /// failed merged run falls back to the unbatched retry ladder for each
    /// of its entries (the batch submission counts as their first
    /// attempt); an `Unsupported` kernel flips the one-way degradation
    /// latch and re-issues every staged run through the unbatched path,
    /// which then goes blind.
    fn issue_prefetch_batch(&self, clock: &mut ThreadClock, batch: Vec<BatchedRun>) {
        let entries = self.batch_entries(&batch);
        match self.inner.os.try_readahead_batch(clock, &entries) {
            Ok(completions) => self.apply_batch_completions(clock, &batch, &completions),
            Err(_) => {
                if let Some(run) = batch.first() {
                    self.latch_degraded(clock.now(), run.file.ino);
                }
                for run in &batch {
                    self.reissue_run(clock, run, 0);
                }
            }
        }
    }

    /// Builds the vectored OS entries for a set of staged runs — shared
    /// by the batch-flush worker and the demand-path ring crossing so
    /// both submit byte-identical requests.
    fn batch_entries(&self, batch: &[BatchedRun]) -> Vec<RaBatchEntry> {
        let os_cap = self.inner.os.config().ra_max_pages;
        batch
            .iter()
            .map(|run| {
                RaBatchEntry::new(
                    run.file.prefetch_fd,
                    run.start * PAGE_SIZE,
                    (run.end - run.start) * PAGE_SIZE,
                )
                .with_limit_pages(if run.relax {
                    run.end - run.start
                } else {
                    os_cap
                })
            })
            .collect()
    }

    /// Per-entry completion handling for a vectored submission: merged
    /// accounting, user-view import, and the transient-failure retry
    /// ladder, entered with one attempt spent — the vectored submission
    /// was each entry's first.
    fn apply_batch_completions(
        &self,
        clock: &mut ThreadClock,
        batch: &[BatchedRun],
        completions: &[RaBatchCompletion],
    ) {
        let inner = &self.inner;
        let costs = &inner.os.config().costs;
        for (run, done) in batch.iter().zip(completions) {
            if done.merged {
                inner.stats.batch_runs_merged.incr();
            }
            if done.error.is_some() {
                self.reissue_run(clock, run, 1);
                continue;
            }
            self.note_pages_initiated(&run.file, done.initiated_pages);
            run.file
                .tree
                .mark_cached(clock, costs, self.scope(), run.start, run.end);
        }
    }

    /// Reactor half of a demand ring crossing that piggybacked staged
    /// prefetch runs: completion handling (merged accounting, user-view
    /// import, the retry ladder) runs on the worker pool, off the demand
    /// path.
    fn finish_ring_crossing(
        &self,
        clock: &mut ThreadClock,
        staged: Vec<BatchedRun>,
        completions: Vec<RaBatchCompletion>,
    ) {
        if staged.is_empty() {
            return;
        }
        let inner = &self.inner;
        inner
            .stats
            .ring_staged_runs_piggybacked
            .add(staged.len() as u64);
        let runtime = self.clone();
        let dispatch = inner.workers.dispatch(clock.now(), 0, move |wclock| {
            runtime.apply_batch_completions(wclock, &staged, &completions);
        });
        self.note_queue_wait(&dispatch);
        // Measured on the detached worker timeline: attach as an async
        // child, never on the demand read's critical path.
        crate::span::suspended(|| {
            crate::span::record_leaf(
                SpanKind::RingComplete,
                dispatch.latency_ns(),
                dispatch.end_ns,
            );
        });
    }

    /// Degradation exit for a rejected ring crossing (`Unsupported`
    /// kernel): latch the one-way downgrade and re-issue the staged runs
    /// through the unbatched — now blind — worker path so no planned
    /// prefetch is lost.
    fn ring_degrade(&self, clock: &mut ThreadClock, staged: Vec<BatchedRun>, ino: InodeId) {
        let inner = &self.inner;
        self.latch_degraded(clock.now(), ino);
        let est_ns = inner.os.config().costs.syscall_ns;
        for run in staged {
            let runtime = self.clone();
            inner.workers.dispatch(clock.now(), est_ns, move |wclock| {
                runtime.reissue_run(wclock, &run, 0);
            });
        }
    }

    /// Sends one staged run down the unbatched worker path instead, with
    /// `spent` attempts already made on it by a vectored submission.
    fn reissue_run(&self, clock: &mut ThreadClock, run: &BatchedRun, spent: u32) {
        let range = [(run.start, run.end)];
        self.issue_prefetch(clock, &run.file, &range, run.relax, true, spent);
    }

    /// Worker half: actually issue the prefetch syscalls.
    ///
    /// Every attempt goes through the fallible OS surface, so injected
    /// faults reach the degradation ladder:
    ///
    /// * a transient device error (`IoError::Io`) walks
    ///   [`Runtime::retry_ladder`] with the prefetch budget
    ///   ([`PREFETCH_RETRY_ATTEMPTS`] tries, `spent` of them already made
    ///   by the caller); exhaustion abandons the chunk *without* marking
    ///   it in the user-level view, so later reads demand-fetch it
    ///   correctly;
    /// * `IoError::Unsupported` from `readahead_info` (a stock kernel
    ///   without CROSS-OS) flips the runtime-wide one-way `degraded`
    ///   latch and re-issues the same chunk as blind `readahead(2)`.
    fn issue_prefetch(
        &self,
        clock: &mut ThreadClock,
        file: &Arc<LibFile>,
        missing: &[(u64, u64)],
        relax: bool,
        visibility: bool,
        spent: u32,
    ) {
        let inner = &self.inner;
        let costs = &inner.os.config().costs;
        let os_cap = inner.os.config().ra_max_pages;
        let max_pages = inner.config.max_prefetch_pages;
        for &(start, end) in missing {
            let mut cursor = start;
            while cursor < end {
                let span = end - cursor;
                let use_info = visibility && !inner.degraded.load(Ordering::Relaxed);
                // Blind readahead(2) initiates at most one OS window per
                // call, so blind chunks are capped at the window size;
                // only the readahead_info path may carry relaxed chunks.
                let chunk = if relax && use_info {
                    span.min(max_pages)
                } else {
                    span.min(os_cap)
                };
                let attempt = |clock: &mut ThreadClock| {
                    let outcome = if use_info {
                        let req = RaInfoRequest::prefetch(cursor * PAGE_SIZE, chunk * PAGE_SIZE)
                            .with_limit_pages(if relax { chunk } else { os_cap });
                        inner
                            .os
                            .try_readahead_info(clock, file.prefetch_fd, req)
                            .map(|info| {
                                self.note_pages_initiated(file, info.initiated_pages);
                                // Import the OS's view: mark both
                                // already-cached and newly initiated pages
                                // in the user-level tree.
                                file.tree.mark_cached(
                                    clock,
                                    costs,
                                    self.scope(),
                                    cursor,
                                    cursor + chunk,
                                );
                            })
                    } else {
                        // Blind prefetching without cache visibility:
                        // plain readahead(2) through the contended tree
                        // path. Counts only pages the OS actually
                        // initiated (cached pages are deduplicated).
                        inner
                            .os
                            .try_readahead(
                                clock,
                                file.prefetch_fd,
                                cursor * PAGE_SIZE,
                                chunk * PAGE_SIZE,
                            )
                            .map(|initiated| self.note_pages_initiated(file, initiated))
                    };
                    match outcome {
                        Ok(()) => Some(true),
                        Err(IoError::Unsupported) if use_info => {
                            self.latch_degraded(clock.now(), file.ino);
                            Some(false)
                        }
                        Err(_) => None,
                    }
                };
                let range = (file.ino, cursor, chunk);
                let retries = &inner.stats.prefetch_retries;
                match self.retry_ladder(clock, range, spent, retries, attempt) {
                    Some(true) => {}
                    // Downgraded: same cursor, recomputed as a blind chunk.
                    Some(false) => continue,
                    None => {
                        inner.stats.prefetch_give_ups.incr();
                        inner.stats.pages_abandoned.add(chunk);
                    }
                }
                cursor += chunk;
            }
        }
    }

    // ----- memory watcher -----------------------------------------------------

    /// Runs the §4.6 aggressive-reclamation policy if free memory dropped
    /// below the trigger: evict least-recently-used files (preferring those
    /// inactive for 30 s) via `fadvise(DONTNEED)` until the target is met.
    pub fn maybe_evict(&self, clock: &mut ThreadClock, current: InodeId) {
        let inner = &self.inner;
        if !inner.policy.features.aggressive {
            return;
        }
        if self.free_fraction() >= EVICT_TRIGGER {
            return;
        }
        // Bound the candidate scan to once per watcher interval.
        let now = clock.now();
        let last = inner.last_evict_scan_ns.load(Ordering::Relaxed);
        let interval = inner.config.evict_scan_interval_ns;
        if now < last.saturating_add(interval)
            || inner
                .last_evict_scan_ns
                .compare_exchange(last, now, Ordering::Relaxed, Ordering::Relaxed)
                .is_err()
        {
            return;
        }
        let costs = &inner.os.config().costs;
        let inactive_cutoff = now.saturating_sub(inner.os.config().inactive_after_ns);
        let idle_cutoff = now.saturating_sub(inner.config.evict_min_idle_ns);

        let mut candidates: Vec<Arc<LibFile>> = inner
            .inner_files()
            .into_iter()
            .filter(|f| {
                f.ino != current
                    // Never evict files another thread is actively using;
                    // the OS word-granular LRU handles those gracefully.
                    && f.last_access_ns.load(Ordering::Relaxed) < idle_cutoff
            })
            .collect();
        // Inactive files first, then LRU order.
        candidates.sort_by_key(|f| {
            let last = f.last_access_ns.load(Ordering::Relaxed);
            (last >= inactive_cutoff, last)
        });

        for file in candidates {
            if self.free_fraction() >= EVICT_TARGET {
                break;
            }
            let resident = inner.os.cache(file.ino).state.read().resident();
            if resident == 0 {
                continue;
            }
            // Charge what the fadvise actually dropped, not the residency
            // snapshot above: OS reclaim can race between the snapshot and
            // the advice call, and the snapshot would over-count.
            let dropped = inner
                .os
                .fadvise(clock, file.prefetch_fd, Advice::DontNeed, 0, u64::MAX);
            file.tree.clear(clock, costs, self.scope());
            if dropped == 0 {
                continue;
            }
            inner.stats.files_evicted.incr();
            inner.stats.pages_evicted.add(dropped);
            inner.trace.emit(
                clock.now(),
                TraceEventKind::LibEvict {
                    ino: file.ino,
                    pages: dropped,
                },
            );
        }
        inner.metrics.evict_scan_ns.record(clock.now() - now);
    }

    /// Resets the runtime's imported cache views — the user-level analogue
    /// of dropping the page cache. Benches call this together with
    /// [`Os::drop_caches`] between a load phase and a measured read phase,
    /// simulating the paper's fresh-process runs (a freshly-linked
    /// CROSS-LIB starts with no imported bitmaps).
    pub fn drop_cache_view(&self, clock: &mut ThreadClock) {
        // Staged-but-unflushed batch entries die with the view: they were
        // planned against the imported bitmaps being dropped.
        let _ = self.inner.batch_queue.drain_all();
        let costs = &self.inner.os.config().costs;
        for file in self.inner.inner_files() {
            file.tree.clear(clock, costs, self.scope());
            file.stale_pages.store(0, Ordering::Relaxed);
            file.fetchall_scheduled.store(false, Ordering::Relaxed);
            file.reads_since_refetch.store(0, Ordering::Relaxed);
            file.refetch_cursor.store(0, Ordering::Relaxed);
        }
    }

    // ----- telemetry -----------------------------------------------------------

    /// Aggregate user-level lock wait across all files' range trees.
    pub fn lib_lock_wait_ns(&self) -> u64 {
        self.inner
            .inner_files()
            .iter()
            .map(|f| f.tree.lock_wait_ns())
            .sum()
    }

    /// Real-lock contention accounting for the per-file state registry
    /// (host wall-clock waits on contended shard acquisitions; zero in
    /// single-threaded runs).
    pub fn file_registry_stats(&self) -> RegistryStats {
        self.inner.files.stats()
    }

    /// Structural statistics aggregated across every file's range index
    /// (depth takes the max; leaves, splits, merges, retries sum).
    pub fn range_index_stats(&self) -> IndexStats {
        let mut total = IndexStats::default();
        for file in self.inner.inner_files() {
            total.absorb(&file.tree.stats());
        }
        total
    }
}

impl RuntimeInner {
    /// All per-file states, in inode order (deterministic iteration).
    pub(crate) fn inner_files(&self) -> Vec<Arc<LibFile>> {
        self.files.values_sorted()
    }
}

impl CpFile {
    /// The raw descriptor (for workload-level `APPonly` policies).
    pub fn fd(&self) -> Fd {
        self.fd
    }

    /// The file's inode.
    pub fn ino(&self) -> InodeId {
        self.file.ino
    }

    /// The owning runtime.
    pub fn runtime(&self) -> &Runtime {
        &self.runtime
    }

    /// File size in bytes.
    pub fn size(&self) -> u64 {
        self.runtime.os().fs().size(self.file.ino)
    }

    /// Reads `len` bytes at `offset`, timing only (no content).
    pub fn read_charge(&self, clock: &mut ThreadClock, offset: u64, len: u64) -> ReadOutcome {
        self.pipeline_read(clock, offset, len, false).0
    }

    /// Reads `len` bytes at `offset`, returning content.
    pub fn read(&self, clock: &mut ThreadClock, offset: u64, len: u64) -> Vec<u8> {
        let outcome = self.read_charge(clock, offset, len);
        self.fetch(offset, outcome)
    }

    /// The content tail of a read whose charge delivered `outcome`.
    fn fetch(&self, offset: u64, outcome: ReadOutcome) -> Vec<u8> {
        let mut buf = vec![0u8; outcome.bytes as usize];
        if outcome.bytes > 0 {
            self.runtime
                .os()
                .fetch_content(self.file.ino, offset, &mut buf);
        }
        buf
    }

    /// The content tail of a write whose charge absorbed `written` bytes.
    fn store(&self, offset: u64, data: &[u8], written: u64) -> u64 {
        if written > 0 {
            self.runtime
                .os()
                .store_content(self.file.ino, offset, &data[..written as usize]);
        }
        written
    }

    /// Fallible read, timing only: like [`CpFile::read_charge`] but the
    /// demand fill goes through the fallible OS surface, so an injected
    /// transient device error surfaces to the workload instead of being
    /// absorbed. Pages the fill completed before the fault stay cached —
    /// a retry reads only what is still missing.
    ///
    /// # Errors
    ///
    /// Returns [`IoError::Io`] when the device fault plan injects an EIO
    /// into a demand-class read.
    pub fn try_read_charge(
        &self,
        clock: &mut ThreadClock,
        offset: u64,
        len: u64,
    ) -> Result<ReadOutcome, IoError> {
        self.pipeline_try_read(clock, offset, len)
            .map(|(outcome, _)| outcome)
    }

    /// Fallible read returning content (see [`CpFile::try_read_charge`]).
    ///
    /// # Errors
    ///
    /// Returns [`IoError::Io`] when the device fault plan injects an EIO
    /// into a demand-class read.
    pub fn try_read(
        &self,
        clock: &mut ThreadClock,
        offset: u64,
        len: u64,
    ) -> Result<Vec<u8>, IoError> {
        let outcome = self.try_read_charge(clock, offset, len)?;
        Ok(self.fetch(offset, outcome))
    }

    /// Writes `len` bytes at `offset`, timing only.
    pub fn write_charge(&self, clock: &mut ThreadClock, offset: u64, len: u64) -> u64 {
        self.pipeline_read(clock, offset, len, true).0.bytes
    }

    /// Writes content at `offset`.
    pub fn write(&self, clock: &mut ThreadClock, offset: u64, data: &[u8]) -> u64 {
        let written = self.write_charge(clock, offset, data.len() as u64);
        self.store(offset, data, written)
    }

    /// Fallible write, timing only: the read-modify-write head/tail
    /// demand reads consult the device fault plan. On an injected fault
    /// nothing is inserted or dirtied — a retry redoes the whole write.
    ///
    /// # Errors
    ///
    /// Returns [`IoError::Io`] when the device fault plan injects an EIO
    /// into the RMW head/tail demand reads.
    pub fn try_write_charge(
        &self,
        clock: &mut ThreadClock,
        offset: u64,
        len: u64,
    ) -> Result<u64, IoError> {
        self.pipeline_try_write(clock, offset, len)
            .map(|(outcome, _)| outcome.bytes)
    }

    /// Fallible write with content (see [`CpFile::try_write_charge`]).
    ///
    /// # Errors
    ///
    /// Returns [`IoError::Io`] when the device fault plan injects an EIO
    /// into the RMW head/tail demand reads.
    pub fn try_write(
        &self,
        clock: &mut ThreadClock,
        offset: u64,
        data: &[u8],
    ) -> Result<u64, IoError> {
        let written = self.try_write_charge(clock, offset, data.len() as u64)?;
        Ok(self.store(offset, data, written))
    }

    /// `fsync` passthrough.
    pub fn fsync(&self, clock: &mut ThreadClock) {
        self.runtime.os().fsync(clock, self.fd);
    }

    /// Advice passthrough (used by `APPonly` workload policies).
    pub fn advise(&self, clock: &mut ThreadClock, advice: Advice, offset: u64, len: u64) {
        self.runtime
            .os()
            .fadvise(clock, self.fd, advice, offset, len);
    }

    /// `readahead(2)` passthrough (used by `APPonly` workload policies).
    pub fn readahead(&self, clock: &mut ThreadClock, offset: u64, len: u64) -> u64 {
        self.runtime.os().readahead(clock, self.fd, offset, len)
    }

    /// Memory-mapped access through the shim (§4.6 mmap support): the
    /// runtime watches mapped-access progress and prefetches ahead using
    /// the same predictor machinery.
    pub fn mmap_read(&self, clock: &mut ThreadClock, offset: u64, len: u64) -> MmapOutcome {
        let runtime = &self.runtime;
        let inner = &runtime.inner;
        // The shim silences heuristic readahead on the *read(2)* path to
        // avoid double-prefetching, but mmap faults have no syscall to
        // intercept: restore fault-around for mapped access (the OS bitmap
        // dedups any overlap with the runtime's own prefetch).
        if inner.policy.intercept
            && self
                .mmap_touched
                .compare_exchange(false, true, Ordering::Relaxed, Ordering::Relaxed)
                .is_ok()
        {
            inner.os.fadvise(clock, self.fd, Advice::Normal, 0, 0);
        }
        let outcome = inner.os.mmap_read(clock, self.fd, offset, len);
        // Mapped access is activity: without the stamp the memory watcher
        // sees a file touched only through mmap as idle since boot.
        self.file
            .last_access_ns
            .store(clock.now(), Ordering::Relaxed);
        // Only the pages the OS actually mapped (it clamps to the file) may
        // enter the user-level view or reach the engine.
        if inner.policy.features.predict && outcome.pages > 0 {
            let costs = &inner.os.config().costs;
            let p0 = offset / PAGE_SIZE;
            let p1 = p0 + outcome.pages;
            if inner.policy.features.visibility {
                self.file
                    .tree
                    .mark_cached(clock, costs, runtime.scope(), p0, p1);
            }
            // A fault has no ring crossing for a known run to ride.
            let decision = self.observe(clock, p0, p1 - p0);
            self.apply_decision(clock, decision, p0, p1, false);
            self.maybe_feed_quality();
        }
        outcome
    }

    // ----- completion-driven ring --------------------------------------------

    /// Drains every staged submission batch for piggybacking on a demand
    /// ring crossing, building their vectored entries. Empty (and free)
    /// when batching is off or nothing is staged.
    fn ring_stage(&self) -> (Vec<BatchedRun>, Vec<RaBatchEntry>) {
        let inner = &self.runtime.inner;
        if !inner.policy.batch_submit {
            return (Vec::new(), Vec::new());
        }
        let mut staged = Vec::new();
        for (_, flush) in inner.batch_queue.drain_all() {
            staged.extend(flush.entries);
        }
        let entries = self.runtime.batch_entries(&staged);
        (staged, entries)
    }

    /// Demand ring crossing: the miss and any staged prefetch runs cross
    /// as one vectored `read_batch` call, under `F`'s fault discipline — a
    /// transient device fault in the demand portion surfaces to the
    /// caller while the piggybacked prefetch completions still process.
    /// A `known_run` prediction made at this miss is planned first and,
    /// admitted in full, crosses with it as demand-class entries whose
    /// completions are applied here, on the reader's clock: the view must
    /// claim the run before the reader's next access asks for it. Refused
    /// (or with nothing missing), it is handed back to the engine.
    /// An `Unsupported` kernel latches degradation, re-issues the staged
    /// runs through the blind path, and falls back to the plain read.
    pub(crate) fn ring_fill<F: FillMode>(
        &self,
        clock: &mut ThreadClock,
        offset: u64,
        len: u64,
        known_run: Option<Prediction>,
    ) -> Result<ReadOutcome, F::Error> {
        let runtime = &self.runtime;
        let (mut staged, mut entries) = self.ring_stage();
        let mut riders = Vec::new();
        if let Some(pred) = known_run {
            let (p0, p1) = (
                offset / PAGE_SIZE,
                (offset + len.max(1)).div_ceil(PAGE_SIZE),
            );
            self.paced_prefetch(clock, pred, p0, p1, Some(&mut riders));
            if riders.is_empty() {
                self.engine.lock().defer_known_run();
            }
            let ridden = runtime.batch_entries(&riders);
            entries.extend(ridden.into_iter().map(RaBatchEntry::with_demand_class));
        }
        let demand = ReadBatchEntry::new(self.fd, offset, len);
        match F::ring_cross(&runtime.inner.os, clock, demand, &entries) {
            Ok((outcome, mut completions)) => {
                let ridden = completions.split_off(staged.len());
                if ridden.iter().all(|done| done.error.is_none()) {
                    let charged = ridden.iter().map(|done| done.initiated_pages).sum();
                    runtime.inner.stats.ring_spec_pages_charged.add(charged);
                    runtime.apply_batch_completions(clock, &riders, &ridden);
                    if let Some(last) = riders.last() {
                        self.preissued.store(last.end, Ordering::Relaxed);
                    }
                } else {
                    // A faulted rider retries where staged runs do: on a
                    // worker, off the reader's clock.
                    staged.append(&mut riders);
                    completions.extend(ridden);
                }
                runtime.finish_ring_crossing(clock, staged, completions);
                outcome
            }
            Err(_) => {
                staged.append(&mut riders);
                runtime.ring_degrade(clock, staged, self.file.ino);
                F::fill(self, clock, offset, len)
            }
        }
    }

    // ----- prediction-engine plumbing ----------------------------------------

    /// Forgets the outstanding pre-issued run; whether there was one.
    pub(crate) fn take_preissued(&self) -> bool {
        let outstanding = self.preissued.load(Ordering::Relaxed) != 0;
        if outstanding {
            self.preissued.store(0, Ordering::Relaxed);
        }
        outstanding
    }

    /// One engine step for an access of `pages` pages at `page`.
    pub(crate) fn observe(&self, clock: &ThreadClock, page: u64, pages: u64) -> PrefetchDecision {
        let runtime = &self.runtime;
        let features = &runtime.inner.policy.features;
        self.engine.lock().observe(&AccessObservation {
            page,
            pages,
            aggressive_ok: features.aggressive && runtime.aggressive_allowed(clock.now()),
            max_prefetch_pages: runtime.inner.config.max_prefetch_pages,
        })
    }

    /// Applies an engine decision for the access `[p0, p1)` — the one
    /// place a prediction is routed, for the read and the mapped path
    /// alike. The prediction goes to the paced-frontier planner, unless it
    /// is a known run and the caller `crosses` the ring next: that one is
    /// returned, to ride the crossing ([`CpFile::ring_fill`]) or, if it
    /// cannot, be handed back to the engine.
    /// Then the non-strided parts: the mined correlation runs are issued,
    /// duel bookkeeping recorded, and a mining pass dispatched when one is
    /// due. A strided decision carries none of these, so the default
    /// engine's hot path is untouched — every counter below stays zero
    /// and no extra virtual time is charged.
    pub(crate) fn apply_decision(
        &self,
        clock: &mut ThreadClock,
        decision: PrefetchDecision,
        p0: u64,
        p1: u64,
        crosses: bool,
    ) -> Option<Prediction> {
        let inner = &self.runtime.inner;
        let mut known_run = None;
        if let Some(pred) = decision.prediction {
            if pred.jumped && self.take_preissued() {
                inner.stats.ring_spec_cancelled.incr();
            }
            if crosses && pred.known_run {
                known_run = Some(pred);
            } else {
                self.paced_prefetch(clock, pred, p0, p1, None);
            }
        }
        for run in &decision.runs {
            if run.pages == 0 {
                continue;
            }
            inner.stats.engine_assoc_runs.incr();
            // `prefetch_pages` also returns the run's end when the
            // visibility check skips it whole, so count what it requested
            // (a concurrent reader's request inside the call is counted
            // too: the counter is the runtime's, not the file's).
            let requested = inner.stats.pages_requested.get();
            self.runtime
                .prefetch_pages(clock, &self.file, run.start, run.pages, true, None);
            inner
                .stats
                .engine_assoc_pages
                .add(inner.stats.pages_requested.get() - requested);
        }
        if decision.duel_completed {
            inner.stats.engine_duels.incr();
        }
        if let Some(winner) = decision.new_owner {
            inner.stats.engine_ownership_flips.incr();
            inner.trace.emit(
                clock.now(),
                TraceEventKind::EngineOwner {
                    ino: self.file.ino,
                    engine: winner.name(),
                },
            );
        }
        if decision.mine_due {
            self.dispatch_mining(clock);
        }
        known_run
    }

    /// Runs the engine's deferred mining pass on the worker pool, charging
    /// the association-table maintenance to worker virtual time — the
    /// miner never runs on the application thread (§4.6 keeps heavy work
    /// off the I/O path; MITHRIL mines asynchronously for the same
    /// reason).
    fn dispatch_mining(&self, clock: &mut ThreadClock) {
        let inner = &self.runtime.inner;
        inner.stats.engine_mining_passes.incr();
        let step_ns = inner.os.config().costs.predictor_step_ns.max(1);
        let dispatch = inner.workers.dispatch(clock.now(), step_ns, |wclock| {
            let pairs = self.engine.lock().mine();
            wclock.advance(step_ns.saturating_mul(pairs.max(1)));
        });
        self.runtime.note_queue_wait(&dispatch);
    }

    /// Feeds the per-file timely/late/wasted delta to engines that learn
    /// from it (correlation support tuning, adaptive hit weighting),
    /// sampled every [`FEEDBACK_INTERVAL_READS`] accesses. The caller
    /// gates it off entirely for the strided engine via the cached
    /// `engine_feedback` flag. Reads real lock state only — no virtual
    /// time is charged, so enabling feedback never perturbs the simulated
    /// timeline by itself.
    pub(crate) fn maybe_feed_quality(&self) {
        if self.reads_since_feedback.fetch_add(1, Ordering::Relaxed) + 1 < FEEDBACK_INTERVAL_READS {
            return;
        }
        self.reads_since_feedback.store(0, Ordering::Relaxed);
        let quality = self
            .runtime
            .inner
            .os
            .cache(self.file.ino)
            .state
            .read()
            .quality();
        let mut fed = self.fed_quality.lock();
        let delta = quality.delta(*fed);
        *fed = quality;
        drop(fed);
        if delta == PrefetchQuality::default() {
            return;
        }
        self.engine.lock().feedback(&QualityFeedback {
            timely: delta.timely,
            late: delta.late,
            wasted: delta.wasted,
        });
    }
}
