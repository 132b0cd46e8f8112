//! The OS facade: file descriptors, read/write/prefetch syscalls, reclaim.

use std::sync::{Arc, OnceLock};

use parking_lot::{Mutex, RwLock};
use simclock::{Access, FcfsResource, GlobalClock, ThreadClock};
use simfs::{FileSystem, FsError, InodeId, Run};
use simstore::{Device, IoPriority, TieredStore, BLOCK_SIZE};

use crate::cache::InodeCache;
use crate::error::IoError;
use crate::readahead::{RaMode, RaState};
use crate::reclaim::{select_victims, MemoryManager};
use crate::stats::OsStats;
use crate::trace::{OsSpanKind, OsTraceEvent, OsTraceSink};
use crate::OsConfig;

/// Compile-time fault discipline of the shared read/prefetch pipelines.
///
/// The fallible entry points instantiate the shared implementations with
/// [`MayFault`] (device charges consult the fault plan and can surface an
/// error); the infallible ones use [`NeverFault`], whose error type is
/// uninhabited — the infallible adapters are statically fault-free
/// instead of dynamically asserting `unreachable!()`.
pub(crate) trait FaultMode {
    /// Error a device charge can surface; uninhabited for [`NeverFault`].
    type Error;

    /// Charges a device read under this mode's fault discipline.
    fn charge_read(
        device: &Device,
        clock: &mut ThreadClock,
        blocks: u64,
        priority: IoPriority,
    ) -> Result<(), Self::Error>;
}

/// Fault discipline of the `try_*` surface: consults the fault plan.
pub(crate) struct MayFault;

impl FaultMode for MayFault {
    type Error = IoError;

    fn charge_read(
        device: &Device,
        clock: &mut ThreadClock,
        blocks: u64,
        priority: IoPriority,
    ) -> Result<(), IoError> {
        device
            .try_charge_read(clock, blocks, priority)
            .map_err(IoError::from)
    }
}

/// Fault discipline of the infallible surface: never consults the fault
/// plan, so its error type has no values and error arms vanish at
/// compile time.
pub(crate) struct NeverFault;

impl FaultMode for NeverFault {
    type Error = std::convert::Infallible;

    fn charge_read(
        device: &Device,
        clock: &mut ThreadClock,
        blocks: u64,
        priority: IoPriority,
    ) -> Result<(), std::convert::Infallible> {
        device.charge_read(clock, blocks, priority);
        Ok(())
    }
}

/// Collapses an infallible `Result` without a runtime assertion.
pub(crate) fn into_ok<T>(result: Result<T, std::convert::Infallible>) -> T {
    match result {
        Ok(value) => value,
        Err(err) => match err {},
    }
}

/// Page size in bytes (same as the device block size).
pub const PAGE_SIZE: u64 = BLOCK_SIZE as u64;

/// Global dirty pages past which the write path forces writeback (the
/// hard, synchronous limit; Linux's `dirty_ratio` at this scale).
const DIRTY_LIMIT_PAGES: u64 = 4096;

/// A file whose oldest dirty page is older than this is flushed on the
/// next daemon tick (Linux's 30 s `dirty_expire_centisecs` scaled to
/// simulation time).
const DIRTY_DEADLINE_NS: u64 = 500 * simclock::NS_PER_MS;

/// The daemon merges dirty runs separated by at most this many
/// clean-but-present pages into one device write (the gap pages ride
/// along), trading a few extra bytes for strictly fewer write crossings.
const COALESCE_GAP_PAGES: u64 = 8;

/// A file descriptor handle.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Fd(pub usize);

/// `posix_fadvise`-style access hints.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Advice {
    /// Reset to heuristic readahead.
    Normal,
    /// Expect sequential access: double the readahead cap.
    Sequential,
    /// Expect random access: disable readahead.
    Random,
    /// Populate the cache for a range now (like `readahead(2)`).
    WillNeed,
    /// Drop cached pages for a range.
    DontNeed,
}

/// Per-open-file state.
#[derive(Debug)]
pub struct FdEntry {
    /// The file's inode.
    pub ino: InodeId,
    pub(crate) ra: Mutex<RaState>,
}

impl FdEntry {
    /// Current readahead mode override of this descriptor.
    pub fn ra_mode(&self) -> RaMode {
        self.ra.lock().mode()
    }
}

/// The descriptor table: entries indexed by descriptor number plus a LIFO
/// free list, so slots released by [`Os::close`] are reused instead of
/// growing the table without bound.
#[derive(Debug, Default)]
struct FdTable {
    /// `None` marks a closed slot; the length is the high-water mark.
    slots: Vec<Option<Arc<FdEntry>>>,
    /// Slots returned by `close`, reused most-recently-freed first.
    free: Vec<usize>,
}

/// Result of a read: page-level hit/miss accounting.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReadOutcome {
    /// Pages the read covered.
    pub pages: u64,
    /// Pages found in the cache.
    pub hit_pages: u64,
    /// Pages that required device I/O on the critical path.
    pub miss_pages: u64,
    /// Of the hit pages, those placed by a prefetch path and touched here
    /// for the first time (timely + late) — distinguishes a prefetch-hit
    /// read from a plain cache-hit re-read.
    pub prefetch_hit_pages: u64,
    /// Bytes delivered.
    pub bytes: u64,
}

/// The simulated operating system.
///
/// All syscall-like methods charge virtual time to the caller's
/// [`ThreadClock`]; real state is protected by fine-grained `parking_lot`
/// locks, so any number of worker threads may call in concurrently.
#[derive(Debug)]
pub struct Os {
    config: OsConfig,
    /// The device demand I/O lands on by default. In tiered mode this is
    /// the *local* tier; routed charge sites consult the placement map and
    /// may redirect individual extents to the remote device instead.
    device: Arc<Device>,
    /// Two-tier composition when booted via [`Os::new_tiered`]; `None`
    /// keeps every charge site byte-identical to the single-device OS.
    tiered: Option<Arc<TieredStore>>,
    fs: Arc<FileSystem>,
    global: Arc<GlobalClock>,
    /// Inode caches indexed by inode number. The filesystem hands inodes
    /// out densely from 0 and never reuses one, and [`Os::cache`] fills
    /// every slot up to the requested inode, so the table keeps the
    /// one-slot-per-inode shape reclaim indexes by position.
    caches: RwLock<Vec<Arc<InodeCache>>>,
    fds: RwLock<FdTable>,
    mem: MemoryManager,
    /// Process address-space lock (taken by fincore/mincore and faults).
    mmap_lock: FcfsResource,
    stats: OsStats,
    /// Cross-layer trace sink installed by CROSS-LIB (write-once).
    trace: OnceLock<Arc<dyn OsTraceSink>>,
}

impl Os {
    /// Boots an OS over a device and filesystem.
    pub fn new(config: OsConfig, device: Device, fs: FileSystem) -> Arc<Self> {
        Self::boot(config, Arc::new(device), None, fs)
    }

    /// Boots an OS over a two-tier store. Demand I/O defaults to the fast
    /// local device; charge sites route per-extent through the placement
    /// map, so blocks not (yet) promoted are served by the remote tier.
    pub fn new_tiered(config: OsConfig, tiered: TieredStore, fs: FileSystem) -> Arc<Self> {
        let tiered = Arc::new(tiered);
        Self::boot(config, Arc::clone(tiered.local()), Some(tiered), fs)
    }

    fn boot(
        config: OsConfig,
        device: Arc<Device>,
        tiered: Option<Arc<TieredStore>>,
        fs: FileSystem,
    ) -> Arc<Self> {
        let mem = MemoryManager::new(config.memory_budget_pages);
        Arc::new(Self {
            config,
            device,
            tiered,
            fs: Arc::new(fs),
            global: Arc::new(GlobalClock::new()),
            caches: RwLock::new(Vec::new()),
            fds: RwLock::new(FdTable::default()),
            mem,
            mmap_lock: FcfsResource::new("mmap-sem"),
            stats: OsStats::default(),
            trace: OnceLock::new(),
        })
    }

    /// Installs the cross-layer trace sink. Write-once: later calls are
    /// ignored so multiple runtimes over one OS keep the first sink.
    pub fn set_trace_sink(&self, sink: Arc<dyn OsTraceSink>) {
        let _ = self.trace.set(sink);
    }

    /// Hands `event` to the installed trace sink, if one exists and has a
    /// view on — one `OnceLock` load plus one atomic flag check.
    pub(crate) fn emit(&self, ts_ns: u64, event: OsTraceEvent) {
        if let Some(sink) = self.trace.get().filter(|sink| sink.enabled()) {
            sink.emit(ts_ns, event);
        }
    }

    /// Emits a wait or service window of `kind` lasting `dur_ns` and
    /// ending at `end_ns` (zero-length windows are not emitted).
    pub(crate) fn emit_window(&self, end_ns: u64, kind: OsSpanKind, dur_ns: u64) {
        if dur_ns > 0 {
            self.emit(end_ns, OsTraceEvent::Window { kind, dur_ns });
        }
    }

    /// The configuration in effect.
    pub fn config(&self) -> &OsConfig {
        &self.config
    }

    /// The storage device (the local tier when booted tiered).
    pub fn device(&self) -> &Arc<Device> {
        &self.device
    }

    /// The two-tier store, when booted via [`Os::new_tiered`].
    pub fn tiered(&self) -> Option<&Arc<TieredStore>> {
        self.tiered.as_ref()
    }

    /// The filesystem.
    pub fn fs(&self) -> &Arc<FileSystem> {
        &self.fs
    }

    /// The global virtual clock all worker clocks should attach to.
    pub fn global(&self) -> &Arc<GlobalClock> {
        &self.global
    }

    /// A fresh worker clock attached to this OS's global clock.
    pub fn new_clock(&self) -> ThreadClock {
        ThreadClock::new(Arc::clone(&self.global))
    }

    /// Memory accounting.
    pub fn mem(&self) -> &MemoryManager {
        &self.mem
    }

    /// Aggregate OS counters.
    pub fn stats(&self) -> &OsStats {
        &self.stats
    }

    /// The address-space lock resource (exposed for telemetry/tests).
    pub fn mmap_lock(&self) -> &FcfsResource {
        &self.mmap_lock
    }

    /// Cache object for an inode (creating the slot if needed).
    pub fn cache(&self, ino: InodeId) -> Arc<InodeCache> {
        let slot = ino.0 as usize;
        if let Some(cache) = self.caches.read().get(slot) {
            return Arc::clone(cache);
        }
        // Fill every slot up to `ino`, so the table stays dense even when
        // inodes are first touched out of order.
        let mut caches = self.caches.write();
        while caches.len() <= slot {
            let next = InodeId(caches.len() as u64);
            caches.push(Arc::new(InodeCache::new(next)));
        }
        Arc::clone(&caches[slot])
    }

    /// All cache objects in inode order (reclaim scan, telemetry).
    pub fn all_caches(&self) -> Vec<Arc<InodeCache>> {
        self.caches.read().clone()
    }

    /// Descriptor-slot accounting as `(high_water, live)`: slots ever
    /// allocated and descriptors currently open. With free-list reuse the
    /// high-water mark tracks peak concurrent opens, not total opens.
    pub fn fd_slot_stats(&self) -> (usize, usize) {
        let fds = self.fds.read();
        (fds.slots.len(), fds.slots.len() - fds.free.len())
    }

    // ----- namespace ------------------------------------------------------

    /// Creates an empty file and opens it.
    ///
    /// # Errors
    ///
    /// Propagates [`FsError::AlreadyExists`].
    pub fn create(&self, clock: &mut ThreadClock, path: &str) -> Result<Fd, FsError> {
        clock.advance(self.config.costs.syscall_ns);
        let ino = self.fs.create(path)?;
        Ok(self.install_fd(ino))
    }

    /// Creates a file with `bytes` preallocated (fallocate-style) and opens
    /// it.
    ///
    /// # Errors
    ///
    /// Propagates [`FsError::AlreadyExists`].
    pub fn create_sized(
        &self,
        clock: &mut ThreadClock,
        path: &str,
        bytes: u64,
    ) -> Result<Fd, FsError> {
        clock.advance(self.config.costs.syscall_ns);
        let ino = self.fs.create_sized(path, bytes)?;
        Ok(self.install_fd(ino))
    }

    /// Opens an existing file.
    ///
    /// # Errors
    ///
    /// Returns [`FsError::NotFound`] if `path` names nothing.
    pub fn open(&self, clock: &mut ThreadClock, path: &str) -> Result<Fd, FsError> {
        clock.advance(self.config.costs.syscall_ns);
        let ino = self
            .fs
            .lookup(path)
            .ok_or_else(|| FsError::NotFound(path.to_string()))?;
        Ok(self.install_fd(ino))
    }

    /// Closes a descriptor, returning its slot to the free list for reuse.
    /// Using a closed descriptor afterwards is a harness bug and panics in
    /// [`Os::fd_entry`].
    pub fn close(&self, clock: &mut ThreadClock, fd: Fd) {
        clock.advance(self.config.costs.syscall_ns);
        let mut fds = self.fds.write();
        if fds.slots.get_mut(fd.0).and_then(Option::take).is_some() {
            fds.free.push(fd.0);
        }
    }

    /// Removes a file, dropping its cached pages.
    ///
    /// # Errors
    ///
    /// Returns [`FsError::NotFound`] if `path` names nothing.
    pub fn unlink(&self, clock: &mut ThreadClock, path: &str) -> Result<(), FsError> {
        clock.advance(self.config.costs.syscall_ns);
        let ino = self.fs.unlink(path)?;
        let cache = self.cache(ino);
        let (removed, dirty) = cache.state.write().remove_range(0, u64::MAX / 2);
        self.mem.note_removed(removed);
        self.mem.note_cleaned(dirty);
        // Unlink honestly drops dirty data without device I/O — the only
        // path that closes the dirty ledger without a write-back.
        self.stats.dropped_dirty_pages.add(dirty);
        if let Some(tiered) = &self.tiered {
            tiered.forget_file(ino.0, &|f, lb| self.fs.map_block(InodeId(f), lb));
        }
        Ok(())
    }

    fn install_fd(&self, ino: InodeId) -> Fd {
        // Ensure the cache slot exists before I/O begins.
        let _ = self.cache(ino);
        let entry = Some(Arc::new(FdEntry {
            ino,
            ra: Mutex::new(RaState::new(self.config.ra_max_pages)),
        }));
        let mut fds = self.fds.write();
        match fds.free.pop() {
            Some(slot) => {
                fds.slots[slot] = entry;
                Fd(slot)
            }
            None => {
                fds.slots.push(entry);
                Fd(fds.slots.len() - 1)
            }
        }
    }

    /// Resolves a descriptor.
    ///
    /// # Panics
    ///
    /// Panics on a dangling (closed or never-opened) descriptor — always a
    /// harness bug.
    pub fn fd_entry(&self, fd: Fd) -> Arc<FdEntry> {
        self.fds
            .read()
            .slots
            .get(fd.0)
            .and_then(Option::clone)
            .expect("dangling file descriptor")
    }

    /// Inode behind a descriptor.
    pub fn fd_inode(&self, fd: Fd) -> InodeId {
        self.fd_entry(fd).ino
    }

    /// Size in bytes of the file behind `fd`.
    pub fn file_size(&self, fd: Fd) -> u64 {
        self.fs.size(self.fd_inode(fd))
    }

    /// Settles a virtual-lock acquisition the caller just made: advances
    /// to its end and bridges any queueing into the span stream as `kind`.
    pub(crate) fn settle_lock(&self, clock: &mut ThreadClock, access: Access, kind: OsSpanKind) {
        clock.advance_to(access.end_ns);
        self.emit_window(access.end_ns, kind, access.wait_ns);
    }

    /// Whether a demand read of `pages` should overtake in-flight prefetch
    /// that lands at `ready_at`. Waiting up to about the demand cost for
    /// an in-flight page is the normal prefetch-hit path; beyond twice
    /// that, overtaking the queued stream is strictly better even with
    /// the duplicate I/O.
    pub(crate) fn demand_overtakes(&self, clock: &ThreadClock, ready_at: u64, pages: u64) -> bool {
        let device = self.device.config();
        let refetch_estimate = device.read_request_latency_ns()
            + simclock::transfer_ns(pages * PAGE_SIZE, device.read_bw);
        ready_at.saturating_sub(clock.now()) > refetch_estimate * 2
    }

    /// Waits out in-flight prefetch that lands at `ready_at`.
    pub(crate) fn wait_ready(&self, clock: &mut ThreadClock, ready_at: u64) {
        let wait = ready_at.saturating_sub(clock.now());
        if wait == 0 {
            return;
        }
        self.stats.ready_wait_ns.add(wait);
        clock.advance_to(ready_at);
        self.emit_window(ready_at, OsSpanKind::ReadyWait, wait);
    }

    /// First stage of the extent router: visits `[lstart, lstart + pages)`
    /// as maximal logical runs each held by one device — the whole range
    /// on the single device, the placement map's same-tier runs when
    /// tiered. Run-based write-back stops here (it charges one request per
    /// logical run); read charges continue through [`Os::route_extents`].
    fn tier_runs<'a, E>(
        &'a self,
        ino: InodeId,
        lstart: u64,
        pages: u64,
        mut visit: impl FnMut(u64, u64, &'a Arc<Device>) -> Result<(), E>,
    ) -> Result<(), E> {
        match &self.tiered {
            None => visit(lstart, pages, &self.device),
            Some(tiered) => tiered
                .split_runs(ino.0, lstart, pages)
                .into_iter()
                .try_for_each(|(start, count, tier)| visit(start, count, tiered.device(tier))),
        }
    }

    /// The extent router: logical pages → tier split → physically
    /// contiguous runs. Visits each physical run with the device holding
    /// it, in logical order, stopping at the first error. Every read charge
    /// site and the byte path resolve their device here.
    pub(crate) fn route_extents<'a, E>(
        &'a self,
        ino: InodeId,
        lstart: u64,
        pages: u64,
        mut visit: impl FnMut(&'a Arc<Device>, Run) -> Result<(), E>,
    ) -> Result<(), E> {
        self.tier_runs(ino, lstart, pages, |start, count, device| {
            self.fs
                .map_blocks(ino, start, count)
                .into_iter()
                .try_for_each(|run| visit(device, run))
        })
    }

    /// Charges device reads for `pages` logical pages of `ino` starting at
    /// `lstart`, one charge per routed extent, so one logical read may
    /// cross both tiers. A tiered demand read also stamps the placement
    /// map's touch clock (promotion payoff / demotion recency).
    pub(crate) fn charge_read_runs<F: FaultMode>(
        &self,
        clock: &mut ThreadClock,
        ino: InodeId,
        lstart: u64,
        pages: u64,
        priority: IoPriority,
    ) -> Result<(), F::Error> {
        self.route_extents(ino, lstart, pages, |device, run| {
            F::charge_read(device, clock, run.blocks, priority)
        })?;
        // Only a demand read counts as the application touching the
        // range — prefetch passing over a promoted block must not clear
        // its promoted-unread bit (that would launder wasted promotions
        // into useful ones).
        if let (Some(tiered), IoPriority::Blocking) = (&self.tiered, priority) {
            tiered.note_read(ino.0, lstart, pages, clock.now());
        }
        Ok(())
    }

    // ----- read path ------------------------------------------------------

    /// Reads `len` bytes at `offset`, returning content.
    pub fn read(&self, clock: &mut ThreadClock, fd: Fd, offset: u64, len: u64) -> Vec<u8> {
        let outcome = self.read_charge(clock, fd, offset, len);
        self.fetch_content_vec(self.fd_inode(fd), offset, outcome.bytes)
    }

    /// The charging half of the read path: identical timing and cache
    /// behaviour to [`Os::read`], without materializing content. Workloads
    /// that only measure use this. Never consults the fault plan's EIO
    /// schedule (see [`IoError`]).
    pub fn read_charge(
        &self,
        clock: &mut ThreadClock,
        fd: Fd,
        offset: u64,
        len: u64,
    ) -> ReadOutcome {
        into_ok(self.read_charge_impl::<NeverFault>(clock, fd, offset, len))
    }

    /// Fallible variant of [`Os::read_charge`]. Failure semantics: runs of
    /// missing pages are demand-filled front to back; on an injected fault
    /// the runs already filled stay cached (and are inserted into the
    /// tree), the faulted run and everything after it stay absent, and the
    /// error surfaces to the caller — a retry re-reads only what is still
    /// missing. The heuristic-readahead tail is best-effort: its prefetch
    /// faults are swallowed, as kernel readahead never fails a `read(2)`.
    ///
    /// # Errors
    ///
    /// Returns [`IoError::Io`] when the fault plan injects an EIO into the
    /// demand fill.
    pub fn try_read_charge(
        &self,
        clock: &mut ThreadClock,
        fd: Fd,
        offset: u64,
        len: u64,
    ) -> Result<ReadOutcome, IoError> {
        self.read_charge_impl::<MayFault>(clock, fd, offset, len)
    }

    fn read_charge_impl<F: FaultMode>(
        &self,
        clock: &mut ThreadClock,
        fd: Fd,
        offset: u64,
        len: u64,
    ) -> Result<ReadOutcome, F::Error> {
        clock.advance(self.config.costs.syscall_ns);
        self.stats.syscalls.incr();
        self.stats.reads.incr();
        self.read_charge_body::<F>(clock, fd, offset, len)
    }

    /// The syscall-free body of the read path: identical cache walk,
    /// classification, ready-wait, demand fill, and heuristic-readahead
    /// tail as [`Os::read_charge`], without the boundary-crossing charge
    /// or the `syscalls`/`reads` counters. The vectored
    /// [`Os::try_read_batch`] runs each demand entry through this body
    /// after charging one shared crossing for the whole batch.
    pub(crate) fn read_charge_body<F: FaultMode>(
        &self,
        clock: &mut ThreadClock,
        fd: Fd,
        offset: u64,
        len: u64,
    ) -> Result<ReadOutcome, F::Error> {
        let costs = &self.config.costs;

        let entry = self.fd_entry(fd);
        let cache = self.cache(entry.ino);
        let size = self.fs.size(entry.ino);
        let len = len.min(size.saturating_sub(offset));
        if len == 0 {
            return Ok(ReadOutcome::default());
        }
        let p0 = offset / PAGE_SIZE;
        let p1 = (offset + len).div_ceil(PAGE_SIZE);
        let pages = p1 - p0;

        // Slow path: walk the cache tree under the tree lock (read side),
        // one pagevec batch at a time.
        let mut remaining = pages;
        let mut tree_wait_ns = 0;
        while remaining > 0 {
            let batch = remaining.min(15);
            let access = cache
                .tree_lock
                .read(clock.now(), costs.tree_walk_per_page_ns * batch);
            clock.advance_to(access.end_ns);
            tree_wait_ns += access.wait_ns;
            remaining -= batch;
        }
        self.stats.lock_wait_hist.record(tree_wait_ns);
        self.emit_window(clock.now(), OsSpanKind::TreeLockWait, tree_wait_ns);

        let (missing, ready_at, present, prefetch_hit) = {
            let mut state = cache.state.write();
            let (timely, late) = state.classify_access(p0, p1, clock.now());
            (
                state.missing_runs(p0, p1),
                state.ready_max(p0, p1),
                state.present_in(p0, p1),
                timely + late,
            )
        };
        cache.hits.add(present);
        cache.misses.add(pages - present);
        self.stats.hit_pages.add(present);
        self.stats.miss_pages.add(pages - present);

        // Wait for in-flight prefetch covering this range — unless a
        // demand read would deliver sooner, in which case it overtakes the
        // queued stream (NVMe serves demand I/O alongside background
        // streams; waiting longer than the demand cost for a queued
        // readahead would be pathological). The duplicate device work is
        // charged.
        // Readiness applies only when the range actually has present
        // (in-flight or cached) pages; `ready` is word-granular, and a
        // fully-missing range must not wait on unrelated neighbours.
        if present > 0 {
            let mut overtook = false;
            if self.demand_overtakes(clock, ready_at, pages) {
                let t0 = clock.now();
                // A transient fault in the overtake attempt is not fatal:
                // the queued prefetch stream is still coming, so fall back
                // to waiting for it rather than failing the read.
                overtook = self
                    .charge_read_runs::<F>(clock, entry.ino, p0, pages, IoPriority::Blocking)
                    .is_ok();
                if overtook {
                    let now = clock.now();
                    cache.state.write().lower_ready(p0, p1, now);
                    self.stats.demand_bypass_pages.add(present);
                    self.stats.demand_fill_ns.add(now - t0);
                    self.emit_window(now, OsSpanKind::DeviceRead, now - t0);
                }
            }
            if !overtook {
                self.wait_ready(clock, ready_at);
            }
        }

        // Demand-fill the misses synchronously. In fallible mode a fault
        // stops the fill: runs already charged are inserted (they really
        // were read), the rest stay absent, and the error surfaces after
        // the tree is made consistent.
        if !missing.is_empty() {
            let t0 = clock.now();
            let mut inserted = 0;
            let mut filled: Vec<(u64, u64)> = Vec::new();
            let mut fault: Option<F::Error> = None;
            for &(mstart, mend) in &missing {
                if let Err(err) = self.charge_read_runs::<F>(
                    clock,
                    entry.ino,
                    mstart,
                    mend - mstart,
                    IoPriority::Blocking,
                ) {
                    fault = Some(err);
                    break;
                }
                inserted += mend - mstart;
                filled.push((mstart, mend));
            }
            self.stats.demand_fill_ns.add(clock.now() - t0);
            self.emit_window(clock.now(), OsSpanKind::DeviceRead, clock.now() - t0);
            if inserted > 0 {
                let hold =
                    costs.tree_insert_per_page_ns * inserted + costs.page_alloc_ns * inserted;
                let access = cache.tree_lock.write(clock.now(), hold);
                self.settle_lock(clock, access, OsSpanKind::TreeLockWait);
                let now = clock.now();
                let mut newly = 0;
                {
                    let mut state = cache.state.write();
                    for &(mstart, mend) in &filled {
                        newly += state.insert_range(mstart, mend, now, 0);
                    }
                }
                if self.mem.note_inserted(newly) {
                    self.reclaim(clock);
                }
            }
            if let Some(err) = fault {
                self.stats.demand_read_errors.incr();
                return Err(err);
            }
        } else {
            let now = clock.now();
            cache.state.write().touch_range(p0, p1, now);
        }

        // Copy to the user buffer.
        clock.advance(costs.copy_pages_ns(pages));
        self.stats.bytes_read.add(len);

        self.heuristic_readahead::<F>(clock, &entry, &cache, p0, pages);

        Ok(ReadOutcome {
            pages,
            hit_pages: present,
            miss_pages: pages - present,
            prefetch_hit_pages: prefetch_hit,
            bytes: len,
        })
    }

    /// The heuristic-readahead tail of a read: advances the descriptor's
    /// window state machine and issues the window it asks for through the
    /// baseline tree path. Kernel readahead is best-effort: in fallible
    /// mode a fault aborts the window silently, never the read that
    /// triggered it.
    pub(crate) fn heuristic_readahead<F: FaultMode>(
        &self,
        clock: &mut ThreadClock,
        entry: &FdEntry,
        cache: &InodeCache,
        p0: u64,
        pages: u64,
    ) {
        let Some(req) = entry.ra.lock().on_read(p0, pages) else {
            return;
        };
        self.emit(
            clock.now(),
            OsTraceEvent::RaWindowGrow {
                ino: entry.ino,
                start_page: req.start,
                window_pages: req.count,
            },
        );
        let _ = self.prefetch_via_tree::<F>(clock, entry.ino, cache, req.start, req.count);
    }

    /// Baseline prefetch: inserts `[start, start+count)` through the cache
    /// tree lock (the un-delineated path). Device I/O is asynchronous.
    /// Returns pages newly scheduled. All-or-nothing in fallible mode: on
    /// an injected fault nothing is inserted or published — a retry
    /// re-covers the whole range — and the error surfaces to the caller.
    fn prefetch_via_tree<F: FaultMode>(
        &self,
        clock: &mut ThreadClock,
        ino: InodeId,
        cache: &InodeCache,
        start: u64,
        count: u64,
    ) -> Result<u64, F::Error> {
        let costs = &self.config.costs;
        let file_pages = self.fs.size(ino).div_ceil(PAGE_SIZE);
        let end = (start + count).min(file_pages);
        if start >= end {
            return Ok(0);
        }
        let (fill, missing) = cache.scan_missing(start, end);
        if missing.is_empty() {
            return Ok(0);
        }
        let total: u64 = missing.iter().map(|&(s, e)| e - s).sum();

        // Lock charge: baseline prefetch contends on the tree lock.
        let hold = costs.tree_insert_per_page_ns * total + costs.page_alloc_ns * total;
        let access = cache.tree_lock.write(clock.now(), hold);
        self.settle_lock(clock, access, OsSpanKind::TreeLockWait);

        let ready = self.charge_prefetch_progressive::<F>(
            clock.now(),
            IoPriority::Prefetch,
            ino,
            &missing,
        )?;
        Ok(self.publish_prefetched(clock, cache, fill, &ready))
    }

    /// The byte path's walk over `[offset, offset + len)`: one pass of
    /// [`Os::route_extents`] over the pages under it, visiting each block's
    /// share of the range in order as `(device, pblock, within, take)` —
    /// `take` bytes starting `within` bytes into physical block `pblock`.
    fn walk_content(
        &self,
        ino: InodeId,
        offset: u64,
        len: u64,
        mut visit: impl FnMut(&Device, u64, usize, usize),
    ) {
        if len == 0 {
            return;
        }
        let end = offset + len;
        let p0 = offset / PAGE_SIZE;
        let mut pos = offset;
        into_ok(
            self.route_extents(ino, p0, end.div_ceil(PAGE_SIZE) - p0, |device, run| {
                for pblock in run.pstart..run.pstart + run.blocks {
                    let within = pos % PAGE_SIZE;
                    let take = (PAGE_SIZE - within).min(end - pos);
                    visit(device, pblock, within as usize, take as usize);
                    pos += take;
                }
                Ok(())
            }),
        );
    }

    /// Fetches content bytes into `out` from the backing store without a
    /// time charge — callers must have charged the read via
    /// [`Os::read_charge`] already.
    pub fn fetch_content(&self, ino: InodeId, offset: u64, out: &mut [u8]) {
        let mut done = 0;
        self.walk_content(
            ino,
            offset,
            out.len() as u64,
            |device, pblock, within, take| {
                let dest = &mut out[done..done + take];
                device.store().with_block(pblock, |block| {
                    dest.copy_from_slice(&block[within..within + take])
                });
                done += take;
            },
        );
    }

    /// [`Os::fetch_content`] into a new vector of `len` bytes, built by
    /// appending each block's bytes — nothing is zero-filled first.
    pub fn fetch_content_vec(&self, ino: InodeId, offset: u64, len: u64) -> Vec<u8> {
        let mut out = Vec::with_capacity(len as usize);
        self.walk_content(ino, offset, len, |device, pblock, within, take| {
            device.store().with_block(pblock, |block| {
                out.extend_from_slice(&block[within..within + take])
            });
        });
        out
    }

    /// Stores content bytes into the backing store without a time charge —
    /// callers must have charged the write via [`Os::write_charge`] already.
    /// Holes are allocated block by block, as a page-at-a-time writer
    /// allocates them. Writes land on the tier holding each block — no
    /// write allocation; local-placed blocks pick up their modified bits
    /// first, so demotion copies them back, and a block's first local write
    /// takes its bytes over from the remote store
    /// ([`TieredStore::note_range_written`]).
    pub fn store_content(&self, ino: InodeId, offset: u64, data: &[u8]) {
        if data.is_empty() {
            return;
        }
        let p0 = offset / PAGE_SIZE;
        let pages = (offset + data.len() as u64).div_ceil(PAGE_SIZE) - p0;
        self.fs.allocate_each(ino, p0, pages);
        if let Some(tiered) = &self.tiered {
            let map = |f: u64, lb: u64| self.fs.map_block(InodeId(f), lb);
            tiered.note_range_written(ino.0, p0, pages, self.global.now(), &map);
        }
        let mut done = 0;
        self.walk_content(
            ino,
            offset,
            data.len() as u64,
            |device, pblock, within, take| {
                device.store_partial(pblock, within, &data[done..done + take]);
                done += take;
            },
        );
    }

    // ----- write path -----------------------------------------------------

    /// Writes `data` at `offset` (content path).
    pub fn write(&self, clock: &mut ThreadClock, fd: Fd, offset: u64, data: &[u8]) -> u64 {
        let written = self.write_charge(clock, fd, offset, data.len() as u64);
        self.store_content(self.fd_inode(fd), offset, data);
        written
    }

    /// The charging half of the write path.
    pub fn write_charge(&self, clock: &mut ThreadClock, fd: Fd, offset: u64, len: u64) -> u64 {
        into_ok(self.write_charge_impl::<NeverFault>(clock, fd, offset, len))
    }

    /// Fallible variant of [`Os::write_charge`]: the read-modify-write
    /// head/tail demand reads consult the fault plan. On an injected fault
    /// nothing is inserted or dirtied — a retry redoes the whole write.
    /// The absorbed write itself never fails (write-back happens later,
    /// off the caller's syscall).
    ///
    /// # Errors
    ///
    /// Returns [`IoError::Io`] when the fault plan injects an EIO into the
    /// RMW demand read.
    pub fn try_write_charge(
        &self,
        clock: &mut ThreadClock,
        fd: Fd,
        offset: u64,
        len: u64,
    ) -> Result<u64, IoError> {
        self.write_charge_impl::<MayFault>(clock, fd, offset, len)
    }

    fn write_charge_impl<F: FaultMode>(
        &self,
        clock: &mut ThreadClock,
        fd: Fd,
        offset: u64,
        len: u64,
    ) -> Result<u64, F::Error> {
        let costs = &self.config.costs;
        clock.advance(costs.syscall_ns);
        self.stats.syscalls.incr();
        self.stats.writes.incr();
        if len == 0 {
            return Ok(0);
        }
        let entry = self.fd_entry(fd);
        let cache = self.cache(entry.ino);
        let p0 = offset / PAGE_SIZE;
        let p1 = (offset + len).div_ceil(PAGE_SIZE);
        let pages = p1 - p0;

        // Partial head/tail pages that are absent need read-modify-write.
        let (head_missing, tail_missing) = {
            let state = cache.state.read();
            let head = !offset.is_multiple_of(PAGE_SIZE) && !state.is_present(p0);
            let tail = !(offset + len).is_multiple_of(PAGE_SIZE)
                && p1 - 1 != p0
                && !state.is_present(p1 - 1);
            (head, tail)
        };
        for (is_missing, page) in [(head_missing, p0), (tail_missing, p1 - 1)] {
            if is_missing {
                if let Err(err) =
                    self.charge_read_runs::<F>(clock, entry.ino, page, 1, IoPriority::Blocking)
                {
                    self.stats.demand_read_errors.incr();
                    return Err(err);
                }
            }
        }

        // Insert + dirty under the tree lock.
        let hold = costs.tree_insert_per_page_ns * pages;
        let access = cache.tree_lock.write(clock.now(), hold);
        clock.advance_to(access.end_ns);
        let now = clock.now();
        let (newly, dirtied) = {
            let mut state = cache.state.write();
            let newly = state.insert_range(p0, p1, now, 0);
            let dirtied = state.mark_dirty(p0, p1, now);
            (newly, dirtied)
        };
        self.mem.note_dirtied(dirtied);
        self.stats.dirtied_pages.add(dirtied);
        clock.advance(costs.copy_pages_ns(pages));
        self.stats.bytes_written.add(len);
        self.fs.set_size(entry.ino, offset + len);
        if self.mem.note_inserted(newly) {
            self.reclaim(clock);
        }

        match &self.config.writeback {
            // Legacy dirty throttling: force background writeback of the
            // whole file past the hard limit. Byte-identical to the
            // pre-daemon behaviour.
            None => {
                if self.mem.dirty() > DIRTY_LIMIT_PAGES
                    && self.writeback_file(clock, entry.ino, false) > 0
                {
                    self.stats.wb_flush_threshold.incr();
                }
            }
            Some(wb) => {
                if wb.write_through {
                    if self.writeback_file(clock, entry.ino, true) > 0 {
                        self.stats.wb_flush_sync.incr();
                    }
                } else {
                    let file_dirty = cache.state.read().dirty_pages();
                    if file_dirty >= wb.file_dirty_threshold_pages {
                        // Per-file threshold: background flush of this file.
                        if self.writeback_file(clock, entry.ino, false) > 0 {
                            self.stats.wb_flush_threshold.incr();
                        }
                    } else if self.mem.dirty() > DIRTY_LIMIT_PAGES {
                        // Hard global limit: the writer pays, synchronously.
                        if self.writeback_file(clock, entry.ino, true) > 0 {
                            self.stats.wb_flush_threshold.incr();
                        }
                    }
                    self.writeback_tick(clock);
                }
            }
        }
        Ok(len)
    }

    /// Flushes a file's dirty pages, returning the count flushed. `sync`
    /// waits for completion (fsync); otherwise the device work detaches
    /// from the caller's clock. With a write-back daemon configured or a
    /// tiered store present this flushes run-by-run (gap coalescing,
    /// per-tier routing); otherwise it keeps the legacy one-charge shape.
    pub fn writeback_file(&self, clock: &mut ThreadClock, ino: InodeId, sync: bool) -> u64 {
        if self.config.writeback.is_some() || self.tiered.is_some() {
            return self.writeback_file_runs(clock, ino, sync);
        }
        let cache = self.cache(ino);
        let dirty = cache.state.write().clear_dirty();
        if dirty == 0 {
            return 0;
        }
        self.mem.note_cleaned(dirty);
        self.stats.written_back_pages.add(dirty);
        self.charge_default_write(clock, dirty, sync);
        dirty
    }

    /// Charges a write of `pages` to the default device: synchronously on
    /// the caller's clock at demand priority, or detached from it at
    /// background priority. The aggregate flushes that know a page count
    /// but no extents (legacy whole-file write-back, dirty pages dropped
    /// by reclaim, `DONTNEED` and `drop_caches`) charge here.
    fn charge_default_write(&self, clock: &mut ThreadClock, pages: u64, sync: bool) {
        if sync {
            self.device.charge_write(clock, pages, IoPriority::Blocking);
        } else {
            let mut io_clock = ThreadClock::detached_at(clock.now());
            self.device
                .charge_write(&mut io_clock, pages, IoPriority::Prefetch);
        }
    }

    /// Run-based flush: clears the file's dirty runs, merging runs whose
    /// clean gap is at most `COALESCE_GAP_PAGES` into one device crossing
    /// (the gap pages ride along as extra bytes — strictly fewer write
    /// requests for a few redundant writes). Each merged run is charged
    /// once per device currently holding part of it. Returns the dirty
    /// pages flushed.
    pub fn writeback_file_runs(&self, clock: &mut ThreadClock, ino: InodeId, sync: bool) -> u64 {
        // Without the daemon (a tiered store's flushes) runs never merge.
        let gap = match self.config.writeback {
            Some(_) => COALESCE_GAP_PAGES,
            None => 0,
        };
        let cache = self.cache(ino);
        let (runs, dirty) = {
            let mut state = cache.state.write();
            let runs = state.dirty_runs();
            let mut dirty = 0;
            for &(s, e) in &runs {
                dirty += state.clear_dirty_range(s, e);
            }
            (runs, dirty)
        };
        if dirty == 0 {
            return 0;
        }
        self.mem.note_cleaned(dirty);
        self.stats.written_back_pages.add(dirty);

        // Gap-coalesce adjacent runs into single crossings.
        let mut merged: Vec<(u64, u64)> = Vec::new();
        for &(s, e) in &runs {
            match merged.last_mut() {
                Some(last) if s - last.1 <= gap => {
                    self.stats.wb_runs_coalesced.incr();
                    last.1 = e;
                }
                _ => merged.push((s, e)),
            }
        }

        let priority = if sync {
            IoPriority::Blocking
        } else {
            IoPriority::Prefetch
        };
        let mut detached = (!sync).then(|| ThreadClock::detached_at(clock.now()));
        let io: &mut ThreadClock = match detached.as_mut() {
            Some(io) => io,
            None => clock,
        };
        let t0 = io.now();
        for &(s, e) in &merged {
            into_ok(self.tier_runs(ino, s, e - s, |_, count, device| {
                self.stats.wb_runs_flushed.incr();
                device.charge_write(io, count, priority);
                Ok(())
            }));
        }
        self.emit_window(io.now(), OsSpanKind::WritebackFlush, io.now() - t0);
        dirty
    }

    /// One write-back daemon pass: flushes files whose oldest dirty page
    /// has outlived the virtual-time deadline, then — while global dirty
    /// occupancy exceeds the soft background threshold — sweeps the
    /// longest-dirty files first. A no-op without a [`crate::WritebackConfig`].
    /// The write path calls this after every absorbed write; long-running
    /// harnesses may also tick it explicitly.
    pub fn writeback_tick(&self, clock: &mut ThreadClock) {
        let Some(wb) = &self.config.writeback else {
            return;
        };
        let now = clock.now();
        let mut dirty_files: Vec<(u64, InodeId)> = Vec::new();
        for cache in self.all_caches() {
            let state = cache.state.read();
            if state.dirty_pages() > 0 {
                dirty_files.push((state.dirty_since_ns(), cache.ino));
            }
        }
        dirty_files.sort_unstable();
        for &(since, ino) in &dirty_files {
            if since != 0
                && since.saturating_add(DIRTY_DEADLINE_NS) <= now
                && self.writeback_file_runs(clock, ino, false) > 0
            {
                self.stats.wb_flush_deadline.incr();
            }
        }
        for &(_, ino) in &dirty_files {
            if self.mem.dirty() <= wb.background_dirty_pages {
                break;
            }
            if self.writeback_file_runs(clock, ino, false) > 0 {
                self.stats.wb_flush_threshold.incr();
            }
        }
    }

    /// `fsync(2)`: synchronously flush the file.
    pub fn fsync(&self, clock: &mut ThreadClock, fd: Fd) {
        clock.advance(self.config.costs.syscall_ns);
        self.stats.syscalls.incr();
        let ino = self.fd_inode(fd);
        if self.writeback_file(clock, ino, true) > 0 {
            self.stats.wb_flush_sync.incr();
        }
    }

    // ----- prefetch control syscalls ---------------------------------------

    /// `readahead(2)`: initiate readahead for `[offset, offset + len)`.
    ///
    /// Faithful to the pathology in the paper's Figure 1: the OS silently
    /// caps the request at the readahead limit and reports the *requested*
    /// length, so applications cannot tell how much was actually initiated.
    /// The true initiated page count is recorded in [`OsStats`].
    pub fn readahead(&self, clock: &mut ThreadClock, fd: Fd, offset: u64, len: u64) -> u64 {
        into_ok(self.readahead_impl::<NeverFault>(clock, fd, offset, len));
        len
    }

    /// Fallible `readahead(2)` variant that also fixes its reporting: the
    /// return value is the number of pages *actually initiated* (after the
    /// silent cap and after skipping already-cached pages), not the
    /// requested length. All-or-nothing on an injected fault — nothing is
    /// inserted, so a retry re-covers the whole range.
    ///
    /// # Errors
    ///
    /// Returns [`IoError::Io`] when the fault plan injects an EIO into the
    /// prefetch-class device reads.
    pub fn try_readahead(
        &self,
        clock: &mut ThreadClock,
        fd: Fd,
        offset: u64,
        len: u64,
    ) -> Result<u64, IoError> {
        self.readahead_impl::<MayFault>(clock, fd, offset, len)
    }

    /// `readahead(2)` proper: one crossing, the silent cap, then the
    /// baseline tree prefetch. Returns the pages actually initiated.
    fn readahead_impl<F: FaultMode>(
        &self,
        clock: &mut ThreadClock,
        fd: Fd,
        offset: u64,
        len: u64,
    ) -> Result<u64, F::Error> {
        clock.advance(self.config.costs.syscall_ns);
        self.stats.syscalls.incr();
        self.stats.ra_calls.incr();
        let entry = self.fd_entry(fd);
        let cache = self.cache(entry.ino);
        let start = offset / PAGE_SIZE;
        let capped = len.div_ceil(PAGE_SIZE).min(entry.ra.lock().effective_max());
        self.prefetch_via_tree::<F>(clock, entry.ino, &cache, start, capped)
    }

    /// Promotes the remote-placed blocks of `[start, start+pages)` to the
    /// local tier and publishes the copied pages into the page cache as
    /// prefetched — the promotion read already pulled the bytes through
    /// memory, so no second device read is charged for the insert. Returns
    /// the pages newly inserted; callers bill them as initiated prefetch
    /// so the quality-ledger identity keeps holding. `Ok(0)` without a
    /// tiered store, when the range is already local, or when the local
    /// tier cannot make room even after demoting its coldest words.
    ///
    /// # Errors
    ///
    /// Surfaces the remote tier's injected fault. Runs copied before the
    /// fault stay promoted at the device level (the placement map never
    /// holds a half-copied run), but nothing is inserted into the page
    /// cache — no speculative page goes unbilled.
    pub fn try_promote_range(
        &self,
        clock: &mut ThreadClock,
        ino: InodeId,
        start: u64,
        pages: u64,
    ) -> Result<u64, IoError> {
        let Some(tiered) = &self.tiered else {
            return Ok(0);
        };
        let costs = &self.config.costs;
        let file_pages = self.fs.size(ino).div_ceil(PAGE_SIZE);
        let end = (start + pages).min(file_pages);
        if start >= end {
            return Ok(0);
        }
        let map = |f: u64, lb: u64| self.fs.map_block(InodeId(f), lb);
        let work = tiered.remote_runs(ino.0, start, end - start);
        let want: u64 = work.iter().map(|&(_, c)| c).sum();
        if want == 0 {
            return Ok(0);
        }
        if !tiered.ensure_room(clock, want, &map) {
            return Ok(0);
        }
        let t0 = clock.now();
        let mut copy = Ok(0);
        for &(rs, rc) in &work {
            let phys: Vec<(u64, u64)> = self
                .fs
                .map_blocks(ino, rs, rc)
                .iter()
                .map(|run| (run.pstart, run.blocks))
                .collect();
            copy = tiered.try_promote(clock, ino.0, rs, rc, &phys);
            if copy.is_err() {
                break;
            }
        }
        self.emit_window(clock.now(), OsSpanKind::TierPromote, clock.now() - t0);
        copy?;
        let cache = self.cache(ino);
        let hold = costs.tree_insert_per_page_ns * want + costs.page_alloc_ns * want;
        let access = cache.tree_lock.write(clock.now(), hold);
        clock.advance_to(access.end_ns);
        let now = clock.now();
        let ready: Vec<_> = work.iter().map(|&(rs, rc)| (rs, rs + rc, now)).collect();
        Ok(self.publish_prefetched(clock, &cache, cache.fill_guard.lock(), &ready))
    }

    /// `posix_fadvise(2)`.
    ///
    /// Returns the number of pages actually dropped from the cache —
    /// nonzero only for [`Advice::DontNeed`], and possibly smaller than
    /// the byte range suggests when OS reclaim already removed pages.
    /// Callers that evict for accounting purposes must charge this
    /// return value, not a residency snapshot taken before the call.
    pub fn fadvise(
        &self,
        clock: &mut ThreadClock,
        fd: Fd,
        advice: Advice,
        offset: u64,
        len: u64,
    ) -> u64 {
        let costs = &self.config.costs;
        clock.advance(costs.syscall_ns);
        self.stats.syscalls.incr();
        let entry = self.fd_entry(fd);
        match advice {
            Advice::Normal => entry.ra.lock().set_mode(RaMode::Normal),
            Advice::Sequential => entry.ra.lock().set_mode(RaMode::Sequential),
            Advice::Random => entry.ra.lock().set_mode(RaMode::Random),
            Advice::WillNeed => {
                let cache = self.cache(entry.ino);
                let start = offset / PAGE_SIZE;
                let pages = len.div_ceil(PAGE_SIZE).min(entry.ra.lock().effective_max());
                into_ok(
                    self.prefetch_via_tree::<NeverFault>(clock, entry.ino, &cache, start, pages),
                );
            }
            Advice::DontNeed => {
                let cache = self.cache(entry.ino);
                // Linux semantics: only pages wholly inside the byte range
                // are dropped (start rounds up, end rounds down).
                let p0 = offset.div_ceil(PAGE_SIZE);
                let p1 = if len == u64::MAX {
                    u64::MAX / 2
                } else {
                    (offset + len) / PAGE_SIZE
                };
                let (removed, dirty) = {
                    let mut state = cache.state.write();
                    state.remove_range(p0, p1)
                };
                if removed > 0 {
                    let access = cache
                        .tree_lock
                        .write(clock.now(), costs.lru_per_page_ns * removed);
                    clock.advance_to(access.end_ns);
                }
                self.mem.note_removed(removed);
                self.mem.note_cleaned(dirty);
                if dirty > 0 {
                    self.stats.written_back_pages.add(dirty);
                    self.stats.wb_flush_drop.incr();
                    self.charge_default_write(clock, dirty, false);
                }
                self.stats.evicted_by_advice.add(removed);
                return removed;
            }
        }
        0
    }

    /// `fincore`-style cache residency query for a whole file.
    ///
    /// Expensive by design (§2.1, §3.2): serializes on the address-space
    /// lock and holds the file's cache-tree lock exclusively while walking
    /// every page's metadata.
    pub fn fincore(&self, clock: &mut ThreadClock, fd: Fd) -> u64 {
        let costs = &self.config.costs;
        clock.advance(costs.syscall_ns);
        self.stats.syscalls.incr();
        self.stats.fincore_calls.incr();
        let entry = self.fd_entry(fd);
        let cache = self.cache(entry.ino);
        let file_pages = self.fs.size(entry.ino).div_ceil(PAGE_SIZE);

        let mmap = self.mmap_lock.access(
            clock.now(),
            costs.fincore_mmap_lock_ns + costs.fincore_scan_per_page_ns * file_pages / 8,
        );
        clock.advance_to(mmap.end_ns);
        let tree = cache
            .tree_lock
            .write(clock.now(), costs.fincore_scan_per_page_ns * file_pages);
        clock.advance_to(tree.end_ns);
        let present = cache.state.read().present_in(0, file_pages);
        present
    }

    /// `mincore(2)`-style residency query over a byte range: returns one
    /// bool per page. Like `fincore`, it pays the address-space lock and a
    /// per-page metadata walk — cheaper than whole-file `fincore` for
    /// small ranges, still far costlier than `readahead_info`'s bitmap
    /// fast path.
    pub fn mincore(&self, clock: &mut ThreadClock, fd: Fd, offset: u64, len: u64) -> Vec<bool> {
        let costs = &self.config.costs;
        clock.advance(costs.syscall_ns);
        self.stats.syscalls.incr();
        let entry = self.fd_entry(fd);
        let cache = self.cache(entry.ino);
        let p0 = offset / PAGE_SIZE;
        let p1 = (offset + len).div_ceil(PAGE_SIZE).max(p0);
        let pages = p1 - p0;

        let mmap = self.mmap_lock.access(
            clock.now(),
            costs.fincore_mmap_lock_ns + costs.fincore_scan_per_page_ns * pages / 8,
        );
        clock.advance_to(mmap.end_ns);
        let tree = cache
            .tree_lock
            .write(clock.now(), costs.fincore_scan_per_page_ns * pages);
        clock.advance_to(tree.end_ns);
        let state = cache.state.read();
        (p0..p1).map(|page| state.is_present(page)).collect()
    }

    // ----- reclaim ----------------------------------------------------------

    /// Drops every clean cached page and writes back dirty ones — the
    /// `echo 3 > /proc/sys/vm/drop_caches` analogue the paper uses to
    /// clear the page cache before each experiment.
    pub fn drop_caches(&self, clock: &mut ThreadClock) {
        let mut dirty_total = 0;
        for cache in self.all_caches() {
            let (removed, dirty) = cache.state.write().remove_range(0, u64::MAX / 2);
            self.mem.note_removed(removed);
            self.mem.note_cleaned(dirty);
            dirty_total += dirty;
        }
        if dirty_total > 0 {
            self.stats.written_back_pages.add(dirty_total);
            self.stats.wb_flush_drop.incr();
            self.charge_default_write(clock, dirty_total, true);
        }
    }

    /// Synchronous reclaim down to the watermark, charged to `clock`.
    pub fn reclaim(&self, clock: &mut ThreadClock) {
        let target = self.mem.reclaim_target(self.config.reclaim_slack);
        if target == 0 {
            return;
        }
        let scan_start_ns = clock.now();
        self.mem.reclaim_runs.incr();
        let caches = self.all_caches();
        let victims = select_victims(&caches, target);
        let costs = &self.config.costs;
        let mut dirty_total = 0;
        let mut freed_total = 0;
        for (_, idx, widx, _) in victims {
            let cache = &caches[idx];
            let (removed, dirty) = cache.state.write().evict_word(widx);
            if removed == 0 {
                continue;
            }
            let access = cache
                .tree_lock
                .write(clock.now(), costs.lru_per_page_ns * removed);
            clock.advance_to(access.end_ns);
            self.mem.note_removed(removed);
            self.mem.note_cleaned(dirty);
            self.mem.evicted.add(removed);
            dirty_total += dirty;
            freed_total += removed;
        }
        self.stats
            .reclaim_scan_hist
            .record(clock.now() - scan_start_ns);
        // Flat-leaf rule: reclaim bridges one whole-pass window; the lock
        // waits inside it are already part of the pass, not separate leaves.
        self.emit_window(
            clock.now(),
            OsSpanKind::ReclaimPass,
            clock.now() - scan_start_ns,
        );
        self.emit(
            clock.now(),
            OsTraceEvent::OsReclaim {
                target_pages: target,
                freed_pages: freed_total,
            },
        );
        if dirty_total > 0 {
            self.stats.written_back_pages.add(dirty_total);
            self.stats.wb_flush_drop.incr();
            self.charge_default_write(clock, dirty_total, false);
        }
    }

    /// Aggregate lock wait time (tree + bitmap + mmap) in nanoseconds —
    /// the numerator of the paper's "Locking (%)" rows.
    pub fn total_lock_wait_ns(&self) -> u64 {
        let cache_wait: u64 = self
            .all_caches()
            .iter()
            .map(|c| c.tree_lock.total_wait_ns() + c.bitmap_lock.total_wait_ns())
            .sum();
        cache_wait + self.mmap_lock.stats().wait_ns()
    }

    /// Aggregate prefetch-quality tallies (timely/late/wasted) over all
    /// files.
    pub fn prefetch_quality(&self) -> crate::cache::PrefetchQuality {
        let mut total = crate::cache::PrefetchQuality::default();
        for cache in self.all_caches() {
            total.merge(cache.state.read().quality());
        }
        total
    }

    /// Global page-cache hit ratio over all files.
    pub fn hit_ratio(&self) -> f64 {
        let hits = self.stats.hit_pages.get() as f64;
        let misses = self.stats.miss_pages.get() as f64;
        if hits + misses == 0.0 {
            return 1.0;
        }
        hits / (hits + misses)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::FsKind;
    use proptest::prelude::*;
    use simstore::DeviceConfig;

    const FILE_PAGES: u64 = 512;

    #[test]
    fn write_path_constants_are_pinned() {
        assert_eq!(DIRTY_LIMIT_PAGES, 4096);
        assert_eq!(DIRTY_DEADLINE_NS, 500 * simclock::NS_PER_MS);
        assert_eq!(COALESCE_GAP_PAGES, 8);
    }

    /// Inodes first touched out of order still leave one cache per inode,
    /// in inode order: reclaim maps its positional victim indices back
    /// into the `all_caches()` snapshot.
    #[test]
    fn cache_table_is_dense_in_inode_order() {
        let os = Os::new(
            OsConfig::with_memory_mb(64),
            Device::new(DeviceConfig::local_nvme()),
            FileSystem::new(FsKind::Ext4Like),
        );
        let five = os.cache(InodeId(5));
        let two = os.cache(InodeId(2));
        let caches = os.all_caches();
        let inos: Vec<u64> = caches.iter().map(|cache| cache.ino.0).collect();
        assert_eq!(inos, (0..=5).collect::<Vec<u64>>());
        assert!(Arc::ptr_eq(&caches[5], &five));
        assert!(Arc::ptr_eq(&caches[2], &two));
        assert!(Arc::ptr_eq(&os.cache(InodeId(2)), &two));
        for (i, cache) in caches.iter().enumerate() {
            assert!(
                caches[i + 1..]
                    .iter()
                    .all(|other| !Arc::ptr_eq(cache, other)),
                "inode {i} shares its cache"
            );
        }
    }

    /// A tiered OS with one physically fragmented file (allocated
    /// alternately with a second file on the log-structured allocator)
    /// and the given logical runs promoted.
    fn fragmented_tiered(promoted: &[(u64, u64)]) -> (Arc<Os>, InodeId) {
        let os = Os::new_tiered(
            OsConfig::with_memory_mb(64),
            TieredStore::new(
                Device::new(DeviceConfig::local_nvme()),
                Device::new(DeviceConfig::remote_nvmeof()),
                1 << 20,
            ),
            FileSystem::new(FsKind::F2fsLike),
        );
        let mut clock = os.new_clock();
        let fd = os.create(&mut clock, "/routed").unwrap();
        let other = os.create(&mut clock, "/interleaved").unwrap();
        let (ino, other) = (os.fd_inode(fd), os.fd_inode(other));
        for i in 0..FILE_PAGES / 32 {
            os.fs().allocate(ino, i * 32, 32);
            os.fs().allocate(other, i * 32, 32);
        }
        os.fs().set_size(ino, FILE_PAGES * PAGE_SIZE);
        assert!(os.fs().extent_count(ino) > 1, "file must be fragmented");
        for &(start, count) in promoted {
            os.try_promote_range(&mut clock, ino, start, count).unwrap();
        }
        (os, ino)
    }

    /// What the router visits, as `(device, blocks)` in visiting order.
    fn routed(os: &Os, ino: InodeId, start: u64, count: u64) -> Vec<(*const Device, u64)> {
        let mut out = Vec::new();
        into_ok(os.route_extents(ino, start, count, |device, run| {
            out.push((Arc::as_ptr(device), run.blocks));
            Ok(())
        }));
        out
    }

    proptest! {
        /// Over random placements and query ranges the extent router yields
        /// exactly `split_runs` × `map_blocks`: every physical run of every
        /// same-tier logical run, in logical order, paired with the device
        /// of that tier.
        #[test]
        fn extent_router_is_tier_split_times_block_map(
            promoted in prop::collection::vec((0u64..FILE_PAGES, 1u64..96), 0..10),
            queries in prop::collection::vec((0u64..FILE_PAGES, 0u64..256), 1..8),
        ) {
            let (os, ino) = fragmented_tiered(&promoted);
            let tiered = os.tiered().unwrap();
            for (start, count) in queries {
                let count = count.min(FILE_PAGES - start);
                let mut expected = Vec::new();
                for (s, c, tier) in tiered.split_runs(ino.0, start, count) {
                    for run in os.fs().map_blocks(ino, s, c) {
                        expected.push((Arc::as_ptr(tiered.device(tier)), run.blocks));
                    }
                }
                prop_assert_eq!(routed(&os, ino, start, count), expected);
            }
        }
    }

    /// Without tiers the router is the block map on the one device.
    #[test]
    fn untiered_router_is_the_block_map() {
        let os = Os::new(
            OsConfig::with_memory_mb(64),
            Device::new(DeviceConfig::local_nvme()),
            FileSystem::new(FsKind::Ext4Like),
        );
        let mut clock = os.new_clock();
        let fd = os.create_sized(&mut clock, "/flat", 1 << 20).unwrap();
        let ino = os.fd_inode(fd);
        let expected: Vec<_> = os
            .fs()
            .map_blocks(ino, 3, 200)
            .iter()
            .map(|run| (Arc::as_ptr(os.device()), run.blocks))
            .collect();
        assert_eq!(routed(&os, ino, 3, 200), expected);
        assert!(routed(&os, ino, 3, 0).is_empty());
    }

    // ----- the byte path against its per-page oracle ---------------------

    const FILE_BYTES: u64 = FILE_PAGES * PAGE_SIZE;

    /// The device that holds logical page `lblock`, resolved on its own.
    fn page_device(os: &Os, ino: InodeId, lblock: u64) -> &Arc<Device> {
        match os.tiered() {
            Some(tiered) => tiered.device(tiered.tier_of(ino.0, lblock)),
            None => os.device(),
        }
    }

    /// Calls `visit(device, pblock, within, done, take)` for each page of
    /// `[offset, offset + len)`, resolving every page on its own through
    /// the block map and the placement map: the per-page walk the routed
    /// byte path replaced, kept here as its oracle.
    fn per_page(
        os: &Os,
        ino: InodeId,
        offset: u64,
        len: usize,
        mut visit: impl FnMut(&Device, u64, usize, usize, usize),
    ) {
        let mut done = 0usize;
        while done < len {
            let abs = offset + done as u64;
            let lblock = abs / PAGE_SIZE;
            let within = (abs % PAGE_SIZE) as usize;
            let take = (PAGE_SIZE as usize - within).min(len - done);
            let pblock = os.fs().map_block(ino, lblock);
            visit(page_device(os, ino, lblock), pblock, within, done, take);
            done += take;
        }
    }

    fn fetch_per_page(os: &Os, ino: InodeId, offset: u64, len: u64) -> Vec<u8> {
        let mut out = vec![0u8; len as usize];
        per_page(
            os,
            ino,
            offset,
            out.len(),
            |device, pblock, within, done, take| {
                let mut block = [0u8; BLOCK_SIZE];
                device.store().read_block(pblock, &mut block);
                out[done..done + take].copy_from_slice(&block[within..within + take]);
            },
        );
        out
    }

    fn store_per_page(os: &Os, ino: InodeId, offset: u64, data: &[u8]) {
        per_page(
            os,
            ino,
            offset,
            data.len(),
            |device, pblock, within, done, take| {
                device.store_partial(pblock, within, &data[done..done + take]);
            },
        );
    }

    /// `len` bytes of content derived from `seed`, clamped to the file.
    fn payload(offset: u64, len: u64, seed: u8) -> Vec<u8> {
        let len = len.min(FILE_BYTES - offset);
        (0..len)
            .map(|i| (i as u8).wrapping_mul(31).wrapping_add(seed))
            .collect()
    }

    /// A twin of [`fragmented_tiered`]'s OS: the same fragmented file,
    /// the same bytes written before promotion (so promoted words carry
    /// real content as well as synthetic blocks), the same words promoted.
    fn seeded_tiered(seeds: &[(u64, u64, u8)], promoted: &[(u64, u64)]) -> (Arc<Os>, InodeId) {
        let (os, ino) = fragmented_tiered(&[]);
        for &(offset, len, seed) in seeds {
            store_per_page(&os, ino, offset, &payload(offset, len, seed));
        }
        let mut clock = os.new_clock();
        for &(start, count) in promoted {
            os.try_promote_range(&mut clock, ino, start, count).unwrap();
        }
        (os, ino)
    }

    /// The tier ownership invariant over the whole file: a block whose
    /// placement word reads local and modified has no bytes in the remote
    /// store.
    fn assert_modified_local_blocks_own_their_bytes(os: &Os, ino: InodeId) {
        let tiered = os.tiered().unwrap();
        for word in 0..FILE_PAGES.div_ceil(simstore::PLACEMENT_WORD_BLOCKS) {
            let (local, modified) = tiered.placement_bits(ino.0, word);
            for bit in 0..simstore::PLACEMENT_WORD_BLOCKS {
                if (local & modified) >> bit & 1 == 1 {
                    let lb = word * simstore::PLACEMENT_WORD_BLOCKS + bit;
                    let pblock = os.fs().map_block(ino, lb);
                    assert!(
                        !tiered.remote().store().holds(pblock),
                        "local modified block {lb} still has remote bytes"
                    );
                }
            }
        }
    }

    proptest! {
        /// Over a fragmented log-structured file with random promoted words
        /// and random unaligned ranges (partial head and tail pages, written
        /// and never-written blocks): routed `store_content` leaves the same
        /// bytes as the per-page store, and routed `fetch_content` /
        /// `fetch_content_vec` read what the per-page fetch reads. After
        /// every op no local modified block has remote bytes. A demotion
        /// afterwards copies back exactly the written local blocks.
        #[test]
        fn routed_byte_path_matches_the_per_page_walk(
            seeds in prop::collection::vec((0u64..FILE_BYTES, 1u64..40_000, any::<u8>()), 0..6),
            promoted in prop::collection::vec((0u64..FILE_PAGES, 1u64..96), 0..8),
            ops in prop::collection::vec(
                (prop::bool::ANY, 0u64..FILE_BYTES, 0u64..6 * PAGE_SIZE, any::<u8>()),
                1..24,
            ),
        ) {
            let (routed_os, ino) = seeded_tiered(&seeds, &promoted);
            let (oracle_os, oracle_ino) = seeded_tiered(&seeds, &promoted);
            prop_assert_eq!(ino, oracle_ino);
            let tiered = routed_os.tiered().unwrap();
            let was_local: Vec<bool> = (0..FILE_PAGES)
                .map(|lb| tiered.tier_of(ino.0, lb) == simstore::Tier::Local)
                .collect();
            let mut written_local = vec![false; FILE_PAGES as usize];
            for (write, offset, len, seed) in ops {
                if write {
                    let data = payload(offset, len, seed);
                    routed_os.store_content(ino, offset, &data);
                    store_per_page(&oracle_os, ino, offset, &data);
                    let pages = offset / PAGE_SIZE..(offset + data.len() as u64).div_ceil(PAGE_SIZE);
                    for lb in pages.filter(|&lb| was_local[lb as usize]) {
                        written_local[lb as usize] = true;
                    }
                } else {
                    let len = len.min(FILE_BYTES - offset);
                    let want = fetch_per_page(&oracle_os, ino, offset, len);
                    prop_assert_eq!(&fetch_per_page(&routed_os, ino, offset, len), &want);
                    prop_assert_eq!(&routed_os.fetch_content_vec(ino, offset, len), &want);
                    let mut out = vec![0u8; len as usize];
                    routed_os.fetch_content(ino, offset, &mut out);
                    prop_assert_eq!(&out, &want);
                }
                assert_modified_local_blocks_own_their_bytes(&routed_os, ino);
            }
            let whole = fetch_per_page(&oracle_os, ino, 0, FILE_BYTES);
            prop_assert_eq!(&routed_os.fetch_content_vec(ino, 0, FILE_BYTES), &whole);

            let local = tiered.local_resident_blocks();
            let map = |f: u64, lb: u64| routed_os.fs().map_block(InodeId(f), lb);
            prop_assert_eq!(tiered.demote_cold(&mut routed_os.new_clock(), u64::MAX, &map), local);
            let dirty = written_local.iter().filter(|&&w| w).count() as u64;
            prop_assert_eq!(tiered.stats().demoted_dirty_blocks.get(), dirty);
            prop_assert_eq!(tiered.local().store().resident_blocks(), 0);
            for lb in 0..FILE_PAGES {
                let remote = tiered.remote().store().read_block_vec(map(ino.0, lb));
                let at = (lb * PAGE_SIZE) as usize;
                prop_assert_eq!(&remote[..], &whole[at..at + PAGE_SIZE as usize]);
            }
        }
    }
}
