//! The CROSS-LIB runtime: per-file state and the shim's open and I/O entry
//! points (admission: `admit`; the predictor: `engine`; the §4.6 memory
//! watcher: `watcher`).

use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::{Mutex, RwLock};
use predict::Predictor;
use simclock::ThreadClock;
use simos::{
    into_ok, Advice, Fd, FdEntry, FsError, InodeId, IoError, MayFault, MmapOutcome, NeverFault, Os,
    ReadOutcome, PAGE_SIZE,
};

use crate::config::{Features, Mode, RuntimeConfig};
use crate::metrics::RuntimeMetrics;
use crate::outstanding::Outstanding;
use crate::policy::{OpenAction, Policy};
use crate::range_index::{BPlusRangeIndex, IndexStats, LockScope};
use crate::stats::LibStats;
use crate::tenant::{TenantArbiter, TenantId, UNBOUND_TENANT};
use crate::tiering::TierPlanner;
use crate::trace::{SpanView, Tracer};
use crate::worker::WorkerPool;

/// Per-file (per-inode) runtime state, shared by every descriptor opened on
/// the file — the userspace mirror of the kernel's per-inode bitmap.
#[derive(Debug)]
pub struct LibFile {
    /// The file's inode.
    pub ino: InodeId,
    /// The OS entry of the descriptor the file was first opened with:
    /// workers issue prefetch and advice calls through it.
    pub(crate) os_file: Arc<FdEntry>,
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
    /// file was opened without one or no tenant table is configured). Set
    /// by the first tenant-carrying open; admitted- and initiated-page
    /// billing read it on every prefetch.
    pub(crate) tenant: AtomicU32,
    /// `CpFile` handles open on the file: the memory watcher returns a
    /// stream's consumed words only while its handle is the only one.
    pub(crate) handles: AtomicU32,
}

/// An open file handle through CROSS-LIB — the shim's `FILE*` analogue.
///
/// Each handle carries one record of its outstanding speculation: its
/// own [`Predictor`] (§4.6's per-file-descriptor prefetching), pacing
/// frontiers and window, the ring's pending ride, the memory watcher's
/// run; the cache view ([`LibFile`]) is shared across handles to the
/// same file.
#[derive(Debug)]
pub struct CpFile {
    pub(crate) runtime: Runtime,
    /// This handle's own OS descriptor, released when the handle drops.
    fd: Fd,
    /// Its entry, resolved once at open.
    pub(crate) os_file: Arc<FdEntry>,
    pub(crate) file: Arc<LibFile>,
    /// This descriptor's predictor and outstanding speculation, changed
    /// only through the record's transitions ([`Outstanding`]). The read
    /// pipeline locks it once per access, from its predict stage through
    /// account; the mapped path once per access.
    pub(crate) outstanding: Mutex<Outstanding>,
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
    /// Per-inode runtime state indexed by inode number (`None` for an
    /// inode never opened through this runtime).
    files: RwLock<Vec<Option<Arc<LibFile>>>>,
    pub(crate) workers: WorkerPool,
    pub(crate) stats: LibStats,
    /// Last time (virtual ns) the memory watcher scanned candidates —
    /// bounds the eviction scan to once per watcher interval.
    pub(crate) last_evict_scan_ns: AtomicU64,
    /// Pages evicted (by OS reclaim and the memory watcher) at the last
    /// pressure sample.
    pub(crate) last_evicted_pages: AtomicU64,
    /// Aggressive growth is paused until this virtual time — set whenever
    /// reclaim activity is observed. The paper pauses aggressiveness below
    /// a free-memory threshold; with a steady-state-full clean cache, the
    /// observable signal for "no headroom" is reclaim running.
    pub(crate) aggressive_pause_until: AtomicU64,
    /// The tracer: the decision-event ring and the causal span collector
    /// (tail exemplars with critical-path attribution for the slowest
    /// reads per latency class), both off by default; also installed into
    /// the OS, so kernel-side decisions and windows reach the same views.
    pub(crate) trace: Arc<Tracer>,
    /// Always-on latency distributions.
    pub(crate) metrics: RuntimeMetrics,
    /// One-way degradation latch: set when the kernel rejects
    /// `readahead_info` (`IoError::Unsupported`). Once set, every
    /// visibility prefetch is issued as blind `readahead(2)` instead —
    /// CROSS-LIB on a stock kernel keeps working, it just loses the
    /// cache-visibility syscall savings.
    pub(crate) degraded: AtomicBool,
    /// The tenant table and its books ([`crate::RuntimeConfig::tenants`]);
    /// `None` (the default) bypasses every tenant path.
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
        let workers = WorkerPool::new(config.workers.max(1));
        let trace = Arc::new(Tracer::default());
        // Kernel-side decisions (readahead_info, RA window growth, reclaim,
        // ring crossings) and wait/service windows reach the same tracer.
        // First runtime attached wins.
        os.set_trace_sink(Arc::clone(&trace) as Arc<dyn simos::OsTraceSink>);
        let tenants = config.tenants.clone().map(TenantArbiter::new);
        // Promotion needs somewhere to promote *to*: a tiering config on
        // an un-tiered OS builds no planner (and no new code path runs).
        // The planner reaches back as far as the local tier holds.
        let planner = os
            .tiered()
            .filter(|_| config.tiering.is_some())
            .map(|tiered| TierPlanner::with_reach(tiered.local_capacity_blocks()));
        Self {
            inner: Arc::new(RuntimeInner {
                os,
                config,
                policy,
                files: RwLock::new(Vec::new()),
                workers,
                stats: LibStats::default(),
                last_evict_scan_ns: AtomicU64::new(0),
                last_evicted_pages: AtomicU64::new(0),
                aggressive_pause_until: AtomicU64::new(0),
                trace,
                metrics: RuntimeMetrics::default(),
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

    /// The tenant table and its books, when configured.
    pub fn tenants(&self) -> Option<&TenantArbiter> {
        self.inner.tenants.as_ref()
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

    /// The decision-event trace (disabled by default; turn on with
    /// [`Tracer::set_enabled`]).
    pub fn trace(&self) -> &Tracer {
        &self.inner.trace
    }

    /// The always-on latency histograms.
    pub fn metrics(&self) -> &RuntimeMetrics {
        &self.inner.metrics
    }

    /// The causal span collector (disabled by default; turn on with
    /// [`SpanView::set_enabled`]).
    pub fn spans(&self) -> SpanView<'_> {
        self.inner.trace.spans()
    }

    /// A fresh worker clock attached to the OS global clock.
    pub fn new_clock(&self) -> ThreadClock {
        self.inner.os.new_clock()
    }

    pub(crate) fn scope(&self) -> LockScope {
        self.inner.policy.scope
    }

    /// The per-file state of `os_file`'s inode, built on first open under
    /// the table's write lock (double-checked, so racing first opens agree
    /// on one).
    fn lib_file(&self, os_file: &Arc<FdEntry>) -> Arc<LibFile> {
        let ino = os_file.cache.inode.ino();
        let slot = ino.0 as usize;
        if let Some(Some(file)) = self.inner.files.read().get(slot) {
            return Arc::clone(file);
        }
        let mut files = self.inner.files.write();
        if files.len() <= slot {
            files.resize(slot + 1, None);
        }
        let file = files[slot].get_or_insert_with(|| {
            let tree = BPlusRangeIndex::new();
            tree.set_wait_histogram(Arc::clone(&self.inner.metrics.lib_lock_wait_ns));
            Arc::new(LibFile {
                ino,
                os_file: Arc::clone(os_file),
                tree,
                last_access_ns: AtomicU64::new(0),
                reads_since_poll: AtomicU64::new(0),
                stale_pages: AtomicU64::new(0),
                fetchall_scheduled: std::sync::atomic::AtomicBool::new(false),
                reads_since_refetch: AtomicU64::new(0),
                refetch_cursor: AtomicU64::new(0),
                tenant: AtomicU32::new(UNBOUND_TENANT),
                handles: AtomicU32::new(0),
            })
        });
        Arc::clone(file)
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
    /// tenant's registry and its prefetch is billed to the tenant's books.
    /// Without a tenant table (or for a tenant outside it) this is exactly
    /// [`Runtime::open`].
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
        let os_file = self.inner.os.fd_entry(fd);
        let file = self.lib_file(&os_file);
        let policy = &self.inner.policy;

        // Tenant binding happens before any open-time prefetch so the
        // optimistic window and fetchall streams are billed from the
        // first page.
        if let (Some(tenants), Some(tenant)) = (&self.inner.tenants, tenant) {
            if tenants.bind(tenant, &os_file.cache) {
                file.tenant.store(tenant.0, Ordering::Relaxed);
            }
        }

        if policy.silence_heuristic_ra {
            // CROSS-LIB owns prefetching: silence the OS heuristic so the
            // two layers do not double-prefetch.
            self.inner.os.fadvise(clock, &os_file, Advice::Random, 0, 0);
        }

        match policy.open_action {
            OpenAction::Nothing => {}
            OpenAction::ScheduleWholeFile => {
                // [+fetchall+opt]: schedule the whole file at the *first*
                // open; concurrent opens of a shared file reuse the same
                // stream.
                if !file.fetchall_scheduled.swap(true, Ordering::Relaxed) {
                    self.prefetch_pages(clock, &file, 0, file.pages(), None);
                }
            }
            OpenAction::OptimisticWindow => {
                // §4.6: optimistic 2 MiB at open, memory permitting.
                let pages = self.inner.config.open_prefetch_bytes / PAGE_SIZE;
                self.prefetch_pages(clock, &file, 0, pages, None);
            }
        }

        let predictor = Predictor::new(self.inner.config.engine_tuning.predictor_bits);
        file.handles.fetch_add(1, Ordering::Relaxed);
        CpFile {
            runtime: self.clone(),
            fd,
            os_file,
            file,
            outstanding: Mutex::new(Outstanding::open(predictor)),
            mmap_touched: std::sync::atomic::AtomicBool::new(false),
            last_pattern: std::sync::atomic::AtomicU8::new(u8::MAX),
        }
    }

    /// Resets the runtime's imported cache views — the user-level analogue
    /// of dropping the page cache. Benches call this together with
    /// [`Os::drop_caches`] between a load phase and a measured read phase,
    /// simulating the paper's fresh-process runs (a freshly-linked
    /// CROSS-LIB starts with no imported bitmaps).
    pub fn drop_cache_view(&self, clock: &mut ThreadClock) {
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

    /// Structural statistics aggregated across every file's range index
    /// (depth takes the max; nodes and retries sum).
    pub fn range_index_stats(&self) -> IndexStats {
        let mut total = IndexStats::default();
        for file in self.inner.inner_files() {
            total.absorb(&file.tree.stats());
        }
        total
    }
}

impl LibFile {
    /// The file's size in pages, read off its inode.
    pub(crate) fn pages(&self) -> u64 {
        self.os_file.cache.inode.size().div_ceil(PAGE_SIZE)
    }
}

impl RuntimeInner {
    /// All per-file states, in inode order (deterministic iteration).
    pub(crate) fn inner_files(&self) -> Vec<Arc<LibFile>> {
        self.files.read().iter().flatten().cloned().collect()
    }
}

impl CpFile {
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
        self.os_file.cache.inode.size()
    }

    /// Runs the ring pre-issued through this descriptor that no read has
    /// absorbed and no jump has cancelled yet (0 or 1): with every open
    /// descriptor's, it closes the ring's ledger, `ring_spec_issued ==
    /// ring_spec_absorbed + ring_spec_cancelled + pending`.
    pub fn rides_pending(&self) -> u64 {
        u64::from(self.outstanding.lock().ride_pending())
    }

    /// Reads `len` bytes at `offset`, timing only (no content).
    pub fn read_charge(&self, clock: &mut ThreadClock, offset: u64, len: u64) -> ReadOutcome {
        into_ok(self.run_pipeline::<NeverFault>(clock, offset, len, false))
    }

    /// Reads `len` bytes at `offset`, returning content.
    pub fn read(&self, clock: &mut ThreadClock, offset: u64, len: u64) -> Vec<u8> {
        let outcome = self.read_charge(clock, offset, len);
        self.fetch(offset, outcome)
    }

    /// The content tail of a read whose charge delivered `outcome`.
    fn fetch(&self, offset: u64, outcome: ReadOutcome) -> Vec<u8> {
        self.runtime
            .os()
            .read_content(&self.os_file.cache.inode, offset, outcome.bytes)
    }

    /// The content tail of a write whose charge absorbed `written` bytes.
    fn store(&self, offset: u64, data: &[u8], written: u64) -> u64 {
        if written > 0 {
            self.runtime.os().write_content(
                &self.os_file.cache.inode,
                offset,
                &data[..written as usize],
            );
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
        self.run_pipeline::<MayFault>(clock, offset, len, false)
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
        into_ok(self.run_pipeline::<NeverFault>(clock, offset, len, true)).bytes
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
        self.run_pipeline::<MayFault>(clock, offset, len, true)
            .map(|outcome| outcome.bytes)
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
        self.runtime.os().fsync(clock, &self.os_file);
    }

    /// Advice passthrough (used by `APPonly` workload policies).
    pub fn advise(&self, clock: &mut ThreadClock, advice: Advice, offset: u64, len: u64) {
        self.runtime
            .os()
            .fadvise(clock, &self.os_file, advice, offset, len);
    }

    /// `readahead(2)` passthrough (used by `APPonly` workload policies).
    pub fn readahead(&self, clock: &mut ThreadClock, offset: u64, len: u64) -> u64 {
        self.runtime
            .os()
            .readahead(clock, &self.os_file, offset, len)
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
            inner.os.fadvise(clock, &self.os_file, Advice::Normal, 0, 0);
        }
        let outcome = inner.os.mmap_read(clock, &self.os_file, offset, len);
        // Mapped access is activity: without the stamp the memory watcher
        // sees a file touched only through mmap as idle since boot.
        self.file
            .last_access_ns
            .store(clock.now(), Ordering::Relaxed);
        // Only the pages the OS actually mapped (it clamps to the file) may
        // enter the user-level view or reach the predictor.
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
            let mut outstanding = self.outstanding.lock();
            let pred = self.observe(clock, &mut outstanding, p0, p1 - p0);
            self.apply_prediction(clock, &mut outstanding, pred, p0, p1, false);
        }
        outcome
    }
}

impl Drop for CpFile {
    fn drop(&mut self) {
        self.runtime.os().release_fd(self.fd);
        self.file.handles.fetch_sub(1, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simos::{Device, DeviceConfig, FileSystem, FsKind, OsConfig};

    /// Racing first opens of one file build its per-file state once: every
    /// handle shares one `LibFile`, so one user-level cache view. Each
    /// round releases the threads on one fresh inode together.
    #[test]
    fn concurrent_first_opens_share_one_lib_file() {
        const THREADS: usize = 4;
        const FILES: usize = 64;
        let os = Os::new(
            OsConfig::with_memory_mb(64),
            Device::new(DeviceConfig::local_nvme()),
            FileSystem::new(FsKind::Ext4Like),
        );
        // Created below the runtime, so no per-file state exists yet.
        let mut clock = os.new_clock();
        let fds: Vec<Fd> = (0..FILES)
            .map(|i| {
                os.create_sized(&mut clock, &format!("/f{i}"), 1 << 16)
                    .unwrap()
            })
            .collect();
        let runtime = Runtime::new(os, RuntimeConfig::new(Mode::Predict));
        let start = std::sync::Barrier::new(THREADS);
        let seen: Vec<Vec<Arc<LibFile>>> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..THREADS)
                .map(|_| {
                    s.spawn(|| {
                        fds.iter()
                            .map(|&fd| {
                                start.wait();
                                runtime.lib_file(&runtime.os().fd_entry(fd))
                            })
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        for (i, first) in seen[0].iter().enumerate() {
            assert!(
                seen.iter().all(|files| Arc::ptr_eq(&files[i], first)),
                "file {i} got two states"
            );
        }
        assert_eq!(runtime.inner.inner_files().len(), FILES);
    }

    /// Every `CpFile` field, destructured with no `..`, names its owner. A
    /// new field is a compile error here first: per-descriptor speculative
    /// state belongs in the one record (`Outstanding`), not beside it.
    #[test]
    fn every_cp_file_field_names_its_owner() {
        let os = Os::new(
            OsConfig::with_memory_mb(16),
            Device::new(DeviceConfig::local_nvme()),
            FileSystem::new(FsKind::Ext4Like),
        );
        let runtime = Runtime::new(os, RuntimeConfig::new(Mode::Predict));
        let mut clock = runtime.new_clock();
        let file = runtime.create_sized(&mut clock, "/f", 1 << 16).unwrap();
        let CpFile {
            runtime: _,      // the shim: config, policy, workers, stats
            fd: _,           // `Drop`: released with the handle
            os_file: _,      // every syscall the pipeline makes
            file: _,         // `LibFile`, shared: the view, `stale_pages`
            outstanding: _,  // outstanding.rs: predictor, frontiers, window, ride, run
            mmap_touched: _, // `mmap_read`: fault-around restored once
            last_pattern: _, // read_path.rs predict stage: tracing only
        } = &file;
    }
}
