//! The OS facade: descriptors, read/prefetch syscalls, byte path, reclaim.

use std::sync::{Arc, OnceLock};

use parking_lot::{Mutex, RwLock};
use simclock::{Access, FcfsResource, GlobalClock, ThreadClock};
use simfs::{FileSystem, FsError, Inode, InodeId, Run};
use simstore::{Device, IoPriority, TieredStore, BLOCK_SIZE};

use crate::cache::InodeCache;
use crate::error::IoError;
use crate::readahead::{RaMode, RaState};
use crate::reclaim::{select_victims, MemoryManager};
use crate::stats::OsStats;
use crate::trace::{OsSpanKind, OsTraceEvent, OsTraceSink};
use crate::{OsConfig, WritebackConfig};

/// Compile-time fault discipline of the read, write and prefetch paths,
/// for both layers: the simulated kernel's syscalls and CROSS-LIB's read
/// pipeline are generic over it.
///
/// [`MayFault`] consults the device fault plan and can surface an
/// [`IoError`]; [`NeverFault`] never does, and its error type is
/// uninhabited, so an infallible caller discharges the `Result` with
/// [`into_ok`] instead of dynamically asserting `unreachable!()`. Sealed:
/// these two are the only disciplines.
pub trait FaultMode: sealed::Sealed {
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

mod sealed {
    /// Keeps [`super::FaultMode`] closed to the two disciplines here.
    pub trait Sealed {}
    impl Sealed for super::MayFault {}
    impl Sealed for super::NeverFault {}
}

/// Fault discipline of the `try_*` surface: consults the fault plan.
pub struct MayFault;

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
pub struct NeverFault;

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

/// Collapses an infallible (`NeverFault`) `Result` without a runtime
/// assertion.
pub fn into_ok<T>(result: Result<T, std::convert::Infallible>) -> T {
    match result {
        Ok(value) => value,
        Err(err) => match err {},
    }
}

/// Page size in bytes (same as the device block size).
pub const PAGE_SIZE: u64 = BLOCK_SIZE as u64;

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

/// Per-open-file state, resolved once at open: the file's page cache and
/// the descriptor's readahead state. Every per-file syscall works on an
/// entry; the inode itself, with its size and block map, hangs off the
/// cache ([`InodeCache::inode`]).
#[derive(Debug)]
pub struct FdEntry {
    /// The file's page cache, shared by every descriptor on the inode.
    pub cache: Arc<InodeCache>,
    pub(crate) ra: Mutex<RaState>,
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
    /// The write-back daemon's tunables: `config.writeback` resolved at
    /// boot, `None` meaning the defaults.
    pub(crate) writeback: WritebackConfig,
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
        let writeback = config.writeback.clone().unwrap_or_default();
        Arc::new(Self {
            config,
            writeback,
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
            let next = self.fs.inode(InodeId(caches.len() as u64));
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
        self.release_fd(fd);
    }

    /// [`Os::close`] without the syscall charge: frees the descriptor's
    /// slot. For a holder that drops its descriptor with no clock at hand.
    pub fn release_fd(&self, fd: Fd) {
        let mut fds = self.fds.write();
        if fds.slots.get_mut(fd.0).and_then(Option::take).is_some() {
            fds.free.push(fd.0);
        }
    }

    /// Removes a file, dropping its cached pages. A tiered store forgets
    /// the file's placement while the inode still maps its blocks, so the
    /// local copies discarded are the file's own.
    ///
    /// # Errors
    ///
    /// Returns [`FsError::NotFound`] if `path` names nothing.
    pub fn unlink(&self, clock: &mut ThreadClock, path: &str) -> Result<(), FsError> {
        clock.advance(self.config.costs.syscall_ns);
        let ino = self.fs.unlink(path, |inode| {
            if let Some(tiered) = &self.tiered {
                tiered.forget_file(inode.ino().0, &|_, lb| inode.map_block(lb));
            }
        })?;
        let cache = self.cache(ino);
        let (removed, dirty) = cache.state.write().remove_range(0, u64::MAX / 2);
        self.mem.note_removed(removed);
        self.note_discarded(dirty.iter().map(|&(s, e)| e - s).sum());
        Ok(())
    }

    fn install_fd(&self, ino: InodeId) -> Fd {
        let entry = Some(Arc::new(FdEntry {
            cache: self.cache(ino),
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
        self.fd_entry(fd).cache.inode.ino()
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
    /// tiered, visited under the placement guard
    /// ([`TieredStore::with_written_runs`], which also marks the range
    /// written when `written` carries a write's time). The write path's
    /// run flush stops here (it charges one request per logical run);
    /// read charges continue through [`Os::route_extents`].
    pub(crate) fn tier_runs<'a, E>(
        &'a self,
        inode: &Inode,
        lstart: u64,
        pages: u64,
        written: Option<u64>,
        mut visit: impl FnMut(u64, u64, &'a Arc<Device>) -> Result<(), E>,
    ) -> Result<(), E> {
        let Some(tiered) = &self.tiered else {
            return visit(lstart, pages, &self.device);
        };
        let map = |_: u64, lb: u64| inode.map_block(lb);
        let written = written.map(|now| (now, &map as &dyn Fn(u64, u64) -> u64));
        tiered.with_written_runs(
            inode.ino().0,
            lstart,
            pages,
            written,
            |start, count, tier| visit(start, count, tiered.device(tier)),
        )
    }

    /// The extent router: logical pages → tier split → physically
    /// contiguous runs. Visits each physical run with the device holding
    /// it, in logical order, stopping at the first error. Every read charge
    /// site resolves its device here.
    pub(crate) fn route_extents<'a, E>(
        &'a self,
        inode: &Inode,
        lstart: u64,
        pages: u64,
        mut visit: impl FnMut(&'a Arc<Device>, Run) -> Result<(), E>,
    ) -> Result<(), E> {
        self.tier_runs(inode, lstart, pages, None, |start, count, device| {
            inode
                .map_blocks(start, count)
                .into_iter()
                .try_for_each(|run| visit(device, run))
        })
    }

    /// Charges device reads for `pages` logical pages of `inode` starting at
    /// `lstart`, one charge per routed extent, so one logical read may
    /// cross both tiers. A tiered demand read also stamps the placement
    /// map's touch clock (promotion payoff / demotion recency).
    pub(crate) fn charge_read_runs<F: FaultMode>(
        &self,
        clock: &mut ThreadClock,
        inode: &Inode,
        lstart: u64,
        pages: u64,
        priority: IoPriority,
    ) -> Result<(), F::Error> {
        self.route_extents(inode, lstart, pages, |device, run| {
            F::charge_read(device, clock, run.blocks, priority)
        })?;
        // Only a demand read counts as the application touching the
        // range — prefetch passing over a promoted block must not clear
        // its promoted-unread bit (that would launder wasted promotions
        // into useful ones).
        if let (Some(tiered), IoPriority::Blocking) = (&self.tiered, priority) {
            tiered.note_read(inode.ino().0, lstart, pages, clock.now());
        }
        Ok(())
    }

    // ----- read path ------------------------------------------------------

    /// The charging half of the read path: cache walk, ready-wait, demand
    /// fill and heuristic-readahead tail, timed, without materializing
    /// content ([`Os::read_content`] does that). Workloads that only
    /// measure use this. Never consults the fault plan's EIO schedule
    /// (see [`IoError`]).
    pub fn read_charge(
        &self,
        clock: &mut ThreadClock,
        fd: Fd,
        offset: u64,
        len: u64,
    ) -> ReadOutcome {
        into_ok(self.read_charge_as::<NeverFault>(clock, &self.fd_entry(fd), offset, len))
    }

    /// Fallible variant of [`Os::read_charge`]:
    /// [`Os::read_charge_as`]`::<MayFault>`.
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
        self.read_charge_as::<MayFault>(clock, &self.fd_entry(fd), offset, len)
    }

    /// The read syscall under fault discipline `F`. Failure semantics
    /// ([`MayFault`]): runs of missing pages are demand-filled front to
    /// back; on an injected fault the runs already filled stay cached (and
    /// are inserted into the tree), the faulted run and everything after
    /// it stay absent, and the error surfaces to the caller — a retry
    /// re-reads only what is still missing. The heuristic-readahead tail
    /// is best-effort: its prefetch faults are swallowed, as kernel
    /// readahead never fails a `read(2)`.
    ///
    /// # Errors
    ///
    /// Under [`MayFault`], [`IoError::Io`] when the fault plan injects an
    /// EIO into the demand fill.
    pub fn read_charge_as<F: FaultMode>(
        &self,
        clock: &mut ThreadClock,
        file: &FdEntry,
        offset: u64,
        len: u64,
    ) -> Result<ReadOutcome, F::Error> {
        clock.advance(self.config.costs.syscall_ns);
        self.stats.syscalls.incr();
        self.stats.reads.incr();
        self.read_charge_body::<F>(clock, file, offset, len)
    }

    /// The syscall-free body of the read path: identical cache walk,
    /// classification, ready-wait, demand fill, and heuristic-readahead
    /// tail as [`Os::read_charge`], without the boundary-crossing charge
    /// or the `syscalls`/`reads` counters. The vectored
    /// [`Os::read_batch`] runs each demand entry through this body
    /// after charging one shared crossing for the whole batch.
    pub(crate) fn read_charge_body<F: FaultMode>(
        &self,
        clock: &mut ThreadClock,
        file: &FdEntry,
        offset: u64,
        len: u64,
    ) -> Result<ReadOutcome, F::Error> {
        let costs = &self.config.costs;
        let cache = &*file.cache;
        let size = cache.inode.size();
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
            let access = cache.tree_lock.read(clock.now(), costs.tree_walk_ns(batch));
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
                    .charge_read_runs::<F>(clock, &cache.inode, p0, pages, IoPriority::Blocking)
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
                    &cache.inode,
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

        self.heuristic_readahead::<F>(clock, file, p0, pages);

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
        file: &FdEntry,
        p0: u64,
        pages: u64,
    ) {
        let Some(req) = file.ra.lock().on_read(p0, pages) else {
            return;
        };
        self.emit(
            clock.now(),
            OsTraceEvent::RaWindowGrow {
                ino: file.cache.inode.ino(),
                start_page: req.start,
                window_pages: req.count,
            },
        );
        let _ = self.prefetch_via_tree::<F>(clock, &file.cache, req.start, req.count);
    }

    /// Baseline prefetch: inserts `[start, start+count)` through the cache
    /// tree lock (the un-delineated path). Device I/O is asynchronous.
    /// Returns pages newly scheduled. All-or-nothing in fallible mode: on
    /// an injected fault nothing is inserted or published — a retry
    /// re-covers the whole range — and the error surfaces to the caller.
    fn prefetch_via_tree<F: FaultMode>(
        &self,
        clock: &mut ThreadClock,
        cache: &InodeCache,
        start: u64,
        count: u64,
    ) -> Result<u64, F::Error> {
        let costs = &self.config.costs;
        let file_pages = cache.inode.size().div_ceil(PAGE_SIZE);
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
            &cache.inode,
            &missing,
        )?;
        Ok(self.publish_prefetched(clock, cache, fill, &ready))
    }

    /// The byte path's walk over `[offset, offset + len)`: one pass of the
    /// extent router over the pages under it ([`Os::tier_runs`] ×
    /// `map_blocks`; a write's pass also marks them written), visiting
    /// each block's share of the range in order as `(device, pblock,
    /// within, take)` — `take` bytes starting `within` bytes into physical
    /// block `pblock` — under the file's placement guard.
    fn walk_content(
        &self,
        inode: &Inode,
        offset: u64,
        len: u64,
        written: Option<u64>,
        mut visit: impl FnMut(&Device, u64, usize, usize),
    ) {
        if len == 0 {
            return;
        }
        let end = offset + len;
        let p0 = offset / PAGE_SIZE;
        let mut pos = offset;
        let pages = end.div_ceil(PAGE_SIZE) - p0;
        into_ok(
            self.tier_runs(inode, p0, pages, written, |start, count, device| {
                for run in inode.map_blocks(start, count) {
                    for pblock in run.pstart..run.pstart + run.blocks {
                        let within = pos % PAGE_SIZE;
                        let take = (PAGE_SIZE - within).min(end - pos);
                        visit(device, pblock, within as usize, take as usize);
                        pos += take;
                    }
                }
                Ok(())
            }),
        );
    }

    /// Fetches `len` content bytes at `offset` from the backing store
    /// without a time charge — callers must have charged the read via
    /// [`Os::read_charge`] already. Each block's bytes are appended under
    /// the placement guard; nothing is zero-filled first.
    pub fn read_content(&self, inode: &Inode, offset: u64, len: u64) -> Vec<u8> {
        let mut out = Vec::with_capacity(len as usize);
        self.walk_content(inode, offset, len, None, |device, pblock, within, take| {
            device.store().with_block(pblock, |block| {
                out.extend_from_slice(&block[within..within + take])
            });
        });
        out
    }

    /// [`Os::write_content`] to the file numbered `ino`.
    pub fn store_content(&self, ino: InodeId, offset: u64, data: &[u8]) {
        self.write_content(&self.fs.inode(ino), offset, data);
    }

    /// Stores content bytes into the backing store without a time charge —
    /// callers must have charged the write via [`Os::write_charge`] already.
    /// Holes are allocated block by block, as a page-at-a-time writer
    /// allocates them. Writes land on the tier holding each block — no
    /// write allocation. One placement guard covers the whole write: the
    /// walk marks it written ([`TieredStore::note_range_written`]) and
    /// stores each block's bytes.
    pub fn write_content(&self, inode: &Inode, offset: u64, data: &[u8]) {
        if data.is_empty() {
            return;
        }
        let p0 = offset / PAGE_SIZE;
        let pages = (offset + data.len() as u64).div_ceil(PAGE_SIZE) - p0;
        inode.allocate_each(p0, pages);
        let mut done = 0;
        self.walk_content(
            inode,
            offset,
            data.len() as u64,
            Some(self.global.now()),
            |device, pblock, within, take| {
                device
                    .store()
                    .write_partial(pblock, within, &data[done..done + take]);
                done += take;
            },
        );
    }

    // ----- prefetch control syscalls ---------------------------------------

    /// `readahead(2)`: initiate readahead for `[offset, offset + len)`.
    ///
    /// Faithful to the pathology in the paper's Figure 1: the OS silently
    /// caps the request at the readahead limit and reports the *requested*
    /// length, so applications cannot tell how much was actually initiated.
    /// The true initiated page count is recorded in [`OsStats`].
    pub fn readahead(&self, clock: &mut ThreadClock, file: &FdEntry, offset: u64, len: u64) -> u64 {
        into_ok(self.readahead_impl::<NeverFault>(clock, file, offset, len));
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
        file: &FdEntry,
        offset: u64,
        len: u64,
    ) -> Result<u64, IoError> {
        self.readahead_impl::<MayFault>(clock, file, offset, len)
    }

    /// `readahead(2)` proper: one crossing, the silent cap, then the
    /// baseline tree prefetch. Returns the pages actually initiated.
    fn readahead_impl<F: FaultMode>(
        &self,
        clock: &mut ThreadClock,
        file: &FdEntry,
        offset: u64,
        len: u64,
    ) -> Result<u64, F::Error> {
        clock.advance(self.config.costs.syscall_ns);
        self.stats.syscalls.incr();
        self.stats.ra_calls.incr();
        let start = offset / PAGE_SIZE;
        let capped = len.div_ceil(PAGE_SIZE).min(file.ra.lock().effective_max());
        self.prefetch_via_tree::<F>(clock, &file.cache, start, capped)
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
        let cache = self.cache(ino);
        let file_pages = cache.inode.size().div_ceil(PAGE_SIZE);
        let end = (start + pages).min(file_pages);
        if start >= end {
            return Ok(0);
        }
        // Demotion may pick any file's words, named by number: the one
        // block map through the inode table.
        let map = |f: u64, lb: u64| self.fs.inode(InodeId(f)).map_block(lb);
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
            let phys: Vec<(u64, u64)> = cache
                .inode
                .map_blocks(rs, rc)
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
        file: &FdEntry,
        advice: Advice,
        offset: u64,
        len: u64,
    ) -> u64 {
        let costs = &self.config.costs;
        clock.advance(costs.syscall_ns);
        self.stats.syscalls.incr();
        let cache = &file.cache;
        match advice {
            Advice::Normal => file.ra.lock().set_mode(RaMode::Normal),
            Advice::Sequential => file.ra.lock().set_mode(RaMode::Sequential),
            Advice::Random => file.ra.lock().set_mode(RaMode::Random),
            Advice::WillNeed => {
                let start = offset / PAGE_SIZE;
                let pages = len.div_ceil(PAGE_SIZE).min(file.ra.lock().effective_max());
                into_ok(self.prefetch_via_tree::<NeverFault>(clock, cache, start, pages));
            }
            Advice::DontNeed => {
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
                self.flush_dropped(clock, &[(&cache.inode, dirty)], false);
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
    pub fn fincore(&self, clock: &mut ThreadClock, file: &FdEntry) -> u64 {
        let costs = &self.config.costs;
        clock.advance(costs.syscall_ns);
        self.stats.syscalls.incr();
        self.stats.fincore_calls.incr();
        let cache = &file.cache;
        let file_pages = cache.inode.size().div_ceil(PAGE_SIZE);

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
        let cache = &entry.cache;
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
        let caches = self.all_caches();
        let mut dropped = Vec::new();
        for cache in &caches {
            let (removed, dirty) = cache.state.write().remove_range(0, u64::MAX / 2);
            self.mem.note_removed(removed);
            if !dirty.is_empty() {
                dropped.push((&*cache.inode, dirty));
            }
        }
        self.flush_dropped(clock, &dropped, true);
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
        let mut dropped = Vec::new();
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
            self.mem.evicted.add(removed);
            if !dirty.is_empty() {
                dropped.push((&*cache.inode, dirty));
            }
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
        self.flush_dropped(clock, &dropped, false);
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
    use simstore::{DeviceConfig, Tier};

    const FILE_PAGES: u64 = 512;

    /// Inodes first touched out of order still leave one cache per inode,
    /// in inode order: reclaim maps its positional victim indices back
    /// into the `all_caches()` snapshot.
    #[test]
    fn cache_table_is_dense_in_inode_order() {
        let fs = FileSystem::new(FsKind::Ext4Like);
        for i in 0..6 {
            fs.create(&format!("/{i}")).unwrap();
        }
        let os = Os::new(
            OsConfig::with_memory_mb(64),
            Device::new(DeviceConfig::local_nvme()),
            fs,
        );
        let five = os.cache(InodeId(5));
        let two = os.cache(InodeId(2));
        let caches = os.all_caches();
        let inos: Vec<u64> = caches.iter().map(|cache| cache.inode.ino().0).collect();
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

    /// A descriptor is resolved once, at open: whichever call opened it,
    /// its entry holds the inode's one cache object, and two descriptors
    /// on one file share it.
    #[test]
    fn fd_entry_holds_its_inode_cache() {
        let os = Os::new(
            OsConfig::with_memory_mb(64),
            Device::new(DeviceConfig::local_nvme()),
            FileSystem::new(FsKind::Ext4Like),
        );
        let mut clock = os.new_clock();
        let created = os.create(&mut clock, "/created").unwrap();
        let sized = os.create_sized(&mut clock, "/sized", 1 << 20).unwrap();
        let opened = os.open(&mut clock, "/sized").unwrap();
        for fd in [created, sized, opened] {
            let ino = os.fd_inode(fd);
            assert!(Arc::ptr_eq(&os.fd_entry(fd).cache, &os.cache(ino)));
        }
        assert!(!Arc::ptr_eq(&os.fd_entry(sized), &os.fd_entry(opened)));
        assert!(Arc::ptr_eq(
            &os.fd_entry(sized).cache,
            &os.fd_entry(opened).cache
        ));
        assert!(!Arc::ptr_eq(
            &os.fd_entry(created).cache,
            &os.fd_entry(sized).cache
        ));
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
            os.fs().inode(ino).allocate(i * 32, 32);
            os.fs().inode(other).allocate(i * 32, 32);
        }
        os.fs().inode(ino).set_size(FILE_PAGES * PAGE_SIZE);
        assert!(
            os.fs().inode(ino).extent_count() > 1,
            "file must be fragmented"
        );
        for &(start, count) in promoted {
            os.try_promote_range(&mut clock, ino, start, count).unwrap();
        }
        (os, ino)
    }

    /// What the router visits, as `(device, blocks)` in visiting order.
    fn routed(os: &Os, ino: InodeId, start: u64, count: u64) -> Vec<(*const Device, u64)> {
        let mut out = Vec::new();
        into_ok(
            os.route_extents(&os.fs().inode(ino), start, count, |device, run| {
                out.push((Arc::as_ptr(device), run.blocks));
                Ok(())
            }),
        );
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
                    for run in os.fs().inode(ino).map_blocks(s, c) {
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
            .inode(ino)
            .map_blocks(3, 200)
            .iter()
            .map(|run| (Arc::as_ptr(os.device()), run.blocks))
            .collect();
        assert_eq!(routed(&os, ino, 3, 200), expected);
        assert!(routed(&os, ino, 3, 0).is_empty());
    }

    /// Unlinking a file with promoted blocks forgets its placement while
    /// the inode still maps them: every block goes back to the allocator,
    /// and the local copies discarded are the file's own.
    #[test]
    fn unlinking_a_promoted_file_frees_its_blocks_and_local_copies() {
        let os = Os::new_tiered(
            OsConfig::with_memory_mb(64),
            TieredStore::new(
                Device::new(DeviceConfig::local_nvme()),
                Device::new(DeviceConfig::remote_nvmeof()),
                1 << 20,
            ),
            FileSystem::new(FsKind::Ext4Like),
        );
        let mut clock = os.new_clock();
        let fd = os.create_sized(&mut clock, "/promoted", 1 << 20).unwrap();
        let inode = os.fd_entry(fd).cache.inode.clone();
        os.write_content(&inode, 0, &[7; 64 * PAGE_SIZE as usize]);
        os.try_promote_range(&mut clock, inode.ino(), 0, 64)
            .unwrap();
        let tiered = os.tiered().unwrap();
        let local = tiered.device(Tier::Local).store();
        assert_eq!(tiered.local_resident_blocks(), 64);
        assert_eq!(local.resident_blocks(), 64);
        os.close(&mut clock, fd);
        os.unlink(&mut clock, "/promoted").unwrap();
        assert_eq!(os.fs().allocated_blocks(), 0);
        assert_eq!(tiered.local_resident_blocks(), 0);
        assert_eq!(local.resident_blocks(), 0);
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
            let pblock = os.fs().inode(ino).map_block(lblock);
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
                device.store().with_block(pblock, |block| {
                    out[done..done + take].copy_from_slice(&block[within..within + take])
                });
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
                device
                    .store()
                    .write_partial(pblock, within, &data[done..done + take]);
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
                    let pblock = os.fs().inode(ino).map_block(lb);
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
        /// bytes as the per-page store, and routed `read_content`
        /// reads what the per-page fetch reads. After
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
                    prop_assert_eq!(&routed_os.read_content(&routed_os.fs().inode(ino), offset, len), &want);
                }
                assert_modified_local_blocks_own_their_bytes(&routed_os, ino);
            }
            let whole = fetch_per_page(&oracle_os, ino, 0, FILE_BYTES);
            prop_assert_eq!(&routed_os.read_content(&routed_os.fs().inode(ino), 0, FILE_BYTES), &whole);

            let local = tiered.local_resident_blocks();
            let map = |f: u64, lb: u64| routed_os.fs().inode(InodeId(f)).map_block(lb);
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

    // ----- tier moves racing the byte path -------------------------------

    /// Runs `mover(round)` for rounds 0, 1, … on this thread until 0.8 s
    /// have passed, while `probe` loops on a second one from before the
    /// first round until after the last, at most eight probes ahead per
    /// round: the placement guard is not fair, and a probe that re-takes
    /// it at once would starve the mover. Returns how many probes returned
    /// `false`, and how many ran.
    fn race(mut mover: impl FnMut(u64), mut probe: impl FnMut() -> bool + Send) -> (u64, u64) {
        use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
        let (moved, done) = (AtomicU64::new(0), AtomicBool::new(false));
        std::thread::scope(|scope| {
            let prober = scope.spawn(|| {
                let (mut bad, mut probes) = (0, 0);
                loop {
                    let last = done.load(Ordering::Acquire);
                    if !last && probes >= 8 * (moved.load(Ordering::Acquire) + 1) {
                        std::thread::yield_now();
                        continue;
                    }
                    bad += u64::from(!probe());
                    probes += 1;
                    if last {
                        return (bad, probes);
                    }
                }
            });
            let start = std::time::Instant::now();
            for round in 0.. {
                if start.elapsed() >= std::time::Duration::from_millis(800) {
                    break;
                }
                mover(round);
                moved.fetch_add(1, Ordering::Release);
            }
            done.store(true, Ordering::Release);
            prober.join().unwrap()
        })
    }

    /// A reader of a locally modified block, racing a loop of rewrite →
    /// demotion → promotion of that block, reads the written bytes every
    /// time: the demotion hands them back and drops the local copy under
    /// the guard the reader routes under.
    #[test]
    fn a_read_racing_tier_moves_sees_the_written_bytes() {
        let (os, ino) = fragmented_tiered(&[(0, 64)]);
        let tiered = os.tiered().unwrap();
        let offset = 5 * PAGE_SIZE;
        let data = payload(offset, PAGE_SIZE, 0x5A);
        os.store_content(ino, offset, &data);
        let map = |f: u64, lb: u64| os.fs().inode(InodeId(f)).map_block(lb);
        let mut clock = os.new_clock();
        let (torn, reads) = race(
            |_| {
                os.store_content(ino, offset, &data);
                tiered.demote_cold(&mut clock, u64::MAX, &map);
                os.try_promote_range(&mut clock, ino, 5, 1).unwrap();
            },
            || os.read_content(&os.fs().inode(ino), offset, PAGE_SIZE) == data,
        );
        assert_eq!(torn, 0, "{torn} of {reads} reads saw other bytes");
    }

    /// A writer that reads back each 16-block write, racing a loop of
    /// demotion → promotion of those blocks, never finds its write gone,
    /// and after both threads stop the blocks read the last write.
    #[test]
    fn a_write_racing_demotion_is_not_lost() {
        let (os, ino) = fragmented_tiered(&[(0, 64)]);
        let tiered = os.tiered().unwrap();
        let (offset, len) = (8 * PAGE_SIZE, 16 * PAGE_SIZE);
        let writes: Vec<Vec<u8>> = (1..=4).map(|seed| payload(offset, len, seed)).collect();
        let map = |f: u64, lb: u64| os.fs().inode(InodeId(f)).map_block(lb);
        let mut clock = os.new_clock();
        let mut next = 0;
        let (lost, tries) = race(
            |_| {
                tiered.demote_cold(&mut clock, u64::MAX, &map);
                os.try_promote_range(&mut clock, ino, 8, 16).unwrap();
            },
            || {
                next += 1;
                let data = &writes[next % writes.len()];
                os.store_content(ino, offset, data);
                os.read_content(&os.fs().inode(ino), offset, len) == *data
            },
        );
        assert_eq!(lost, 0, "{lost} of {tries} writes were lost");
        let last = &writes[next % writes.len()];
        assert_eq!(os.read_content(&os.fs().inode(ino), offset, len), *last);
    }

    /// Promotion's mirror of the demotion window: a writer follows the
    /// word being promoted and writes its first block while promotion
    /// shares the word's 64 blocks of bytes and flips its bits. Each write
    /// reads back, and after both threads stop every word's first block
    /// reads the last write made to it. Every eighth round demotes the
    /// whole file first while the writer stands aside (it announces a
    /// write in `busy`, then skips it if `demoting` is set), so only
    /// promotions race the writes.
    #[test]
    fn a_remote_write_racing_promotion_is_visible_after_it() {
        use std::sync::atomic::{AtomicBool, AtomicU64, Ordering::SeqCst};
        const WORDS: u64 = FILE_PAGES / simstore::PLACEMENT_WORD_BLOCKS;
        let (os, ino) = fragmented_tiered(&[]);
        let tiered = os.tiered().unwrap();
        os.store_content(ino, 0, &payload(0, FILE_BYTES, 0x33));
        let map = |f: u64, lb: u64| os.fs().inode(InodeId(f)).map_block(lb);
        let mut clock = os.new_clock();
        let word = AtomicU64::new(0);
        let (demoting, busy) = (AtomicBool::new(false), AtomicBool::new(false));
        let writes: Vec<Vec<u8>> = (1..=4).map(|seed| payload(0, PAGE_SIZE, seed)).collect();
        let mut last = [None; WORDS as usize];
        let mut next = 0;
        let (lost, tries) = race(
            |round| {
                if round % WORDS == 0 {
                    demoting.store(true, SeqCst);
                    while busy.load(SeqCst) {
                        std::thread::yield_now();
                    }
                    tiered.demote_cold(&mut clock, u64::MAX, &map);
                    demoting.store(false, SeqCst);
                }
                word.store(round % WORDS, SeqCst);
                let lb = round % WORDS * simstore::PLACEMENT_WORD_BLOCKS;
                os.try_promote_range(&mut clock, ino, lb, simstore::PLACEMENT_WORD_BLOCKS)
                    .unwrap();
            },
            || {
                busy.store(true, SeqCst);
                let kept = demoting.load(SeqCst) || {
                    let w = word.load(SeqCst);
                    let offset = w * simstore::PLACEMENT_WORD_BLOCKS * PAGE_SIZE;
                    next += 1;
                    let data = &writes[next % writes.len()];
                    os.store_content(ino, offset, data);
                    last[w as usize] = Some(data);
                    os.read_content(&os.fs().inode(ino), offset, PAGE_SIZE) == *data
                };
                busy.store(false, SeqCst);
                kept
            },
        );
        assert_eq!(lost, 0, "{lost} of {tries} writes were lost");
        for (w, want) in (0..WORDS).zip(last) {
            if let Some(want) = want {
                let offset = w * simstore::PLACEMENT_WORD_BLOCKS * PAGE_SIZE;
                assert_eq!(
                    os.read_content(&os.fs().inode(ino), offset, PAGE_SIZE),
                    *want,
                    "word {w}"
                );
            }
        }
    }
}
