//! CROSS-OS: the kernel half of CrossPrefetch.
//!
//! Implements the paper's `readahead_info` system call (§4.4): one call
//! that (1) checks the per-inode cache-state bitmap on a *fast path* that
//! takes only the bitmap rw-lock, never the cache-tree lock; (2) issues
//! prefetch I/O for the missing sub-ranges only, updating the bitmap once
//! after the whole walk; (3) exports a selectable window of the bitmap to
//! user space; and (4) exports telemetry — per-file residency, free
//! memory, hit/miss counters — that CROSS-LIB's aggressive-prefetch and
//! eviction policies feed on.
//!
//! The limit relaxation of §4.7 is the `limit_pages` override: unlike
//! `readahead(2)`, a `readahead_info` request may exceed the OS readahead
//! cap, up to [`CROSSOS_MAX_PREFETCH_PAGES`].

use parking_lot::MutexGuard;
use simclock::ThreadClock;
use simstore::wordwalk::bit_is_set;
use simstore::IoPriority;

use crate::cache::{InodeCache, PageRange, PAGES_PER_WORD};
use crate::error::IoError;
use crate::os::{into_ok, FaultMode, Fd, FdEntry, MayFault, NeverFault, Os, PAGE_SIZE};
use crate::trace::{OsSpanKind, OsTraceEvent};
use simfs::Inode;

/// Hard ceiling any `readahead_info` limit override may reach, in pages:
/// the paper caps relaxed prefetch requests at 64 MiB (§4.7).
pub const CROSSOS_MAX_PREFETCH_PAGES: u64 = (64 << 20) / PAGE_SIZE;

/// Request structure for [`Os::readahead_info`] — the `info` parameter of
/// the paper's Listing 1, input half.
#[derive(Debug, Clone, Copy)]
pub struct RaInfoRequest {
    /// Byte offset of the range of interest.
    pub offset: u64,
    /// Byte length of the range of interest.
    pub len: u64,
    /// Per-call prefetch limit override (pages). `None` uses the OS
    /// readahead cap; values are clamped to the CROSS-OS ceiling.
    pub limit_pages: Option<u64>,
    /// If set, only query state and export the bitmap; never start I/O.
    /// The exported window is the one covering `offset..offset+len`.
    pub query_only: bool,
}

impl RaInfoRequest {
    /// A plain prefetch-and-report request over a byte range.
    pub fn prefetch(offset: u64, len: u64) -> Self {
        Self {
            offset,
            len,
            limit_pages: None,
            query_only: false,
        }
    }

    /// A pure cache-state query over a byte range.
    pub fn query(offset: u64, len: u64) -> Self {
        Self {
            query_only: true,
            ..Self::prefetch(offset, len)
        }
    }

    /// Sets the §4.7 limit override.
    pub fn with_limit_pages(mut self, pages: u64) -> Self {
        self.limit_pages = Some(pages);
        self
    }
}

/// Reply structure — the `info` parameter of Listing 1, output half.
#[derive(Debug, Clone)]
pub struct RaInfo {
    /// Exported presence bitmap words; bit 0 of word 0 is page
    /// `window_start`.
    pub bitmap: Vec<u64>,
    /// First page the exported bitmap covers (word-aligned).
    pub window_start: u64,
    /// Pages of the requested range that were already cached.
    pub cached_pages: u64,
    /// Pages of the requested range newly scheduled for prefetch.
    pub initiated_pages: u64,
    /// Virtual time at which all initiated I/O completes.
    pub ready_at_ns: u64,
    /// Telemetry: pages of this file resident in the cache.
    pub file_resident_pages: u64,
    /// Telemetry: free pages in the system memory budget.
    pub free_pages: u64,
    /// Telemetry: lifetime page-cache hits for this file.
    pub file_hits: u64,
    /// Telemetry: lifetime page-cache misses for this file.
    pub file_misses: u64,
}

impl Os {
    /// The `readahead_info` system call (§4.4, Listing 1).
    ///
    /// Semantics, in order:
    /// 1. Charge one syscall crossing.
    /// 2. Fast path: take the per-inode **bitmap** rw-lock (read) and scan
    ///    the requested window — no cache-tree lock involved.
    /// 3. If pages are missing and this is not a query: clamp to the limit
    ///    (override or OS cap), issue prefetch-class device reads for the
    ///    missing runs only, and take the bitmap lock (write) *once* to
    ///    publish the whole walk.
    /// 4. Export the bitmap window and telemetry to user space.
    ///
    /// # Example — the paper's Listing 1 `prefetcher` loop
    ///
    /// ```
    /// use simos::{Device, DeviceConfig, FileSystem, FsKind, Os, OsConfig,
    ///             RaInfoRequest, PAGE_SIZE};
    ///
    /// let os = Os::new(
    ///     OsConfig::with_memory_mb(64),
    ///     Device::new(DeviceConfig::local_nvme()),
    ///     FileSystem::new(FsKind::Ext4Like),
    /// );
    /// let mut clock = os.new_clock();
    /// let fd = os.create_sized(&mut clock, "/data", 8 << 20)?;
    ///
    /// // prefetcher(fd, offset, prefetch_size): loop readahead_info calls
    /// // until the whole window is scheduled, advancing by what each call
    /// // reports (Listing 1's `offset = predict(&info)`).
    /// let (mut offset, prefetch_limit) = (0u64, 4u64 << 20);
    /// while offset < prefetch_limit {
    ///     let info = os.readahead_info(
    ///         &mut clock,
    ///         fd,
    ///         RaInfoRequest::prefetch(offset, 1 << 20),
    ///     );
    ///     offset += (info.initiated_pages + info.cached_pages) * PAGE_SIZE;
    /// }
    /// assert_eq!(os.cache(os.fd_inode(fd)).state.read().resident() * PAGE_SIZE,
    ///            4 << 20);
    /// # Ok::<(), simos::FsError>(())
    /// ```
    pub fn readahead_info(&self, clock: &mut ThreadClock, fd: Fd, req: RaInfoRequest) -> RaInfo {
        into_ok(self.readahead_info_impl::<NeverFault>(clock, &self.fd_entry(fd), req))
    }

    /// Fallible variant of [`Os::readahead_info`].
    ///
    /// Two failure modes, matching the degradation ladder CROSS-LIB needs:
    ///
    /// * **`Unsupported`** — the kernel was built without CROSS-OS
    ///   ([`crate::OsConfig::readahead_info_supported`] is `false`, i.e. a
    ///   stock kernel). The call charges one syscall crossing (the failed
    ///   `ENOSYS` probe) and fails permanently; callers should latch onto
    ///   blind `readahead(2)`.
    /// * **`Io`** — the fault plan injected a transient EIO into one of
    ///   the prefetch-class device reads. All-or-nothing: nothing is
    ///   inserted or published, so a retry re-covers the whole range.
    ///
    /// # Errors
    ///
    /// See above; [`IoError::Unsupported`] or [`IoError::Io`].
    pub fn try_readahead_info(
        &self,
        clock: &mut ThreadClock,
        file: &FdEntry,
        req: RaInfoRequest,
    ) -> Result<RaInfo, IoError> {
        self.probe_cross_os(clock)?;
        self.readahead_info_impl::<MayFault>(clock, file, req)
    }

    fn readahead_info_impl<F: FaultMode>(
        &self,
        clock: &mut ThreadClock,
        file: &FdEntry,
        req: RaInfoRequest,
    ) -> Result<RaInfo, F::Error> {
        let costs = &self.config().costs;
        clock.advance(costs.syscall_ns);
        self.stats().syscalls.incr();
        self.stats().ra_info_calls.incr();

        let cache = &*file.cache;
        let file_pages = cache.inode.size().div_ceil(PAGE_SIZE);

        let p0 = (req.offset / PAGE_SIZE).min(file_pages);
        let p1 = ((req.offset + req.len).div_ceil(PAGE_SIZE)).min(file_pages);

        let range_pages = p1.saturating_sub(p0);
        let budget = (!req.query_only).then(|| self.prefetch_cap(req.limit_pages));
        let (cached_pages, initiated, ready_at) =
            self.prefetch_range::<F>(clock, cache, (p0, p1), budget, IoPriority::Prefetch)?;

        // Export the bitmap window: the request's own range, at least one
        // page wide.
        let w1 = p1.max(p0 + 1);
        let window_start = (p0 / PAGES_PER_WORD) * PAGES_PER_WORD;
        let bitmap = cache.state.read().snapshot_words(p0, w1);
        clock.advance(costs.bitmap_copy_ns(w1 - p0));

        self.emit(
            clock.now(),
            OsTraceEvent::RaInfoCall {
                ino: cache.inode.ino(),
                start_page: p0,
                pages: range_pages,
                cached_pages,
                initiated_pages: initiated,
            },
        );

        let state = cache.state.read();
        Ok(RaInfo {
            bitmap,
            window_start,
            cached_pages,
            initiated_pages: initiated,
            ready_at_ns: ready_at,
            file_resident_pages: state.resident(),
            free_pages: self.mem().free_pages(),
            file_hits: cache.hits.get(),
            file_misses: cache.misses.get(),
        })
    }
}

/// One published piece of a prefetch fill: pages `[start, end)` whose
/// device transfer completes at `ready_ns`.
pub(crate) type ReadyPiece = (u64, u64, u64);

/// Takes missing runs front to back until `budget` pages are consumed.
fn clamp_to_budget(missing: &[PageRange], mut budget: u64) -> Vec<PageRange> {
    let mut scheduled = Vec::new();
    for &(s, e) in missing {
        if budget == 0 {
            break;
        }
        let take = (e - s).min(budget);
        scheduled.push((s, s + take));
        budget -= take;
    }
    scheduled
}

/// The steps every prefetch path shares: `readahead_info`, the baseline
/// tree prefetch and a ring crossing's riders.
impl Os {
    /// The failed `ENOSYS` probe of a stock kernel: one crossing, counted,
    /// and the permanent [`IoError::Unsupported`].
    fn probe_cross_os(&self, clock: &mut ThreadClock) -> Result<(), IoError> {
        if self.config().readahead_info_supported {
            return Ok(());
        }
        clock.advance(self.config().costs.syscall_ns);
        self.stats().syscalls.incr();
        self.stats().ra_info_unsupported.incr();
        Err(IoError::Unsupported)
    }

    /// Page limit of one prefetch request: the §4.7 override or the OS
    /// readahead cap, clamped to the CROSS-OS ceiling.
    fn prefetch_cap(&self, limit_pages: Option<u64>) -> u64 {
        limit_pages
            .unwrap_or(self.config().ra_max_pages)
            .clamp(1, CROSSOS_MAX_PREFETCH_PAGES)
    }

    /// Scan → clamp → charge → publish, the body `readahead_info` and a
    /// ring crossing's rider share. Scans `[p0, p1)` on the fast path
    /// (bitmap read lock, never the cache-tree lock) and, given a page
    /// `budget` (`None` only queries), charges the missing runs it covers
    /// at `priority` from the end of the scan and publishes them under the
    /// bitmap write lock, once. The per-inode fill guard is held from scan
    /// to publish. Returns `(cached, initiated, ready_at_ns)`.
    /// All-or-nothing: a fault propagates before anything is inserted or
    /// published, leaving the bitmap and tree exactly as before the call.
    fn prefetch_range<F: FaultMode>(
        &self,
        clock: &mut ThreadClock,
        cache: &InodeCache,
        (p0, p1): PageRange,
        budget: Option<u64>,
        priority: IoPriority,
    ) -> Result<(u64, u64, u64), F::Error> {
        let range_pages = p1.saturating_sub(p0);
        let costs = &self.config().costs;
        let scan = cache
            .bitmap_lock
            .read(clock.now(), costs.bitmap_scan_ns(range_pages));
        self.settle_lock(clock, scan, OsSpanKind::BitmapLockWait);
        let (fill, missing) = cache.scan_missing(p0, p1);
        let missing_pages: u64 = missing.iter().map(|&(s, e)| e - s).sum();
        let cached = range_pages - missing_pages;
        let Some(budget) = budget.filter(|_| missing_pages > 0) else {
            return Ok((cached, 0, 0));
        };
        let scheduled = clamp_to_budget(&missing, budget);
        let ready =
            self.charge_prefetch_progressive::<F>(clock.now(), priority, &cache.inode, &scheduled)?;
        let ready_at = ready.last().map_or(0, |piece| piece.2);
        let pages = scheduled.iter().map(|&(s, e)| e - s).sum();
        let initiated = self.publish_bitmap(clock, cache, fill, pages, &ready);
        Ok((cached, initiated, ready_at))
    }

    /// The device charge of every prefetch fill. I/O proceeds off the
    /// caller's critical path, on a clock detached at `start_ns`, and large
    /// transfers complete *progressively*: the device is charged in
    /// VFS-request-sized chunks and each chunk's own completion recorded,
    /// so readers consume the front of a big prefetch while its tail is
    /// still in flight. Returns the pieces to publish; the last one's
    /// readiness is when the whole transfer lands. Whatever the priority
    /// this is speculation, not the application touching the range, so a
    /// tiered store's touch clock is not stamped.
    pub(crate) fn charge_prefetch_progressive<F: FaultMode>(
        &self,
        start_ns: u64,
        priority: IoPriority,
        inode: &Inode,
        scheduled: &[PageRange],
    ) -> Result<Vec<ReadyPiece>, F::Error> {
        let mut io_clock = ThreadClock::detached_at(start_ns);
        let chunk_pages = (self.device().config().max_request_bytes / PAGE_SIZE).max(1);
        let mut ready = Vec::new();
        for &(s, e) in scheduled {
            let mut cursor = s;
            while cursor < e {
                let upto = (cursor + chunk_pages).min(e);
                let before = io_clock.now();
                self.route_extents(inode, cursor, upto - cursor, |device, run| {
                    F::charge_read(device, &mut io_clock, run.blocks, priority)
                })?;
                push_interpolated_ready(&mut ready, cursor, upto, before, io_clock.now());
                cursor = upto;
            }
        }
        let done_ns = io_clock.now();
        self.emit_window(done_ns, OsSpanKind::DevicePrefetch, done_ns - start_ns);
        Ok(ready)
    }

    /// CROSS-OS publish: takes the bitmap lock (write side, short hold)
    /// once after the entire walk of `pages` scheduled pages, then
    /// publishes.
    fn publish_bitmap(
        &self,
        clock: &mut ThreadClock,
        cache: &InodeCache,
        fill: MutexGuard<'_, ()>,
        pages: u64,
        ready: &[ReadyPiece],
    ) -> u64 {
        let costs = &self.config().costs;
        let hold = costs.bitmap_lock_hold_ns + costs.bitmap_scan_ns(pages);
        let publish = cache.bitmap_lock.write(clock.now(), hold);
        self.settle_lock(clock, publish, OsSpanKind::BitmapLockWait);
        self.publish_prefetched(clock, cache, fill, ready)
    }

    /// The tail of every prefetch fill: inserts the `(start, end,
    /// ready_ns)` pieces as prefetched pages, closes the fill, and accounts
    /// the newly resident pages (reclaiming if that crossed the budget).
    /// Returns the pages newly inserted.
    pub(crate) fn publish_prefetched(
        &self,
        clock: &mut ThreadClock,
        cache: &InodeCache,
        fill: MutexGuard<'_, ()>,
        ready: &[ReadyPiece],
    ) -> u64 {
        // Bias the recency of readahead pages slightly into the future:
        // a page prefetched-but-not-yet-read must outrank just-consumed
        // stream history in the LRU, or reclaim cannibalizes the window
        // right before the reader arrives (the classic use-once-scan
        // pathology; Linux protects readahead pages similarly).
        let touch = clock.now() + PREFETCH_TOUCH_BIAS_NS;
        let mut newly = 0;
        {
            let mut state = cache.state.write();
            for &(s, e, ready_ns) in ready {
                newly += state.insert_range_prefetched(s, e, touch, ready_ns);
            }
        }
        drop(fill);
        self.stats().prefetched_pages.add(newly);
        if self.mem().note_inserted(newly) {
            self.reclaim(clock);
        }
        newly
    }
}

/// One rider of a ring crossing ([`Os::read_batch`]): a *known future
/// demand read* (Foreactor's explicit speculation) over a byte range of one
/// open file, submitted with the read that blocks. A rider is charged
/// after the crossing's demand entries, but on a clock detached at the
/// submission instant rather than at their completion, and on the device's
/// blocking horizon — FCFS on the background horizon it would queue behind
/// any streaming window and the reader would wait out up to twice the
/// refetch estimate before [`Os::absorb_read`] gives up on it. Its pages
/// are still published as prefetched, so the quality ledger classifies
/// every one. Each rider fills and fails alone; the matching
/// [`RaBatchCompletion`] is its completion-queue element.
#[derive(Debug, Clone, Copy)]
pub struct RaBatchEntry<'a> {
    /// Open file the range belongs to.
    pub file: &'a FdEntry,
    /// Byte offset of the range to fetch.
    pub offset: u64,
    /// Byte length of the range to fetch.
    pub len: u64,
    /// Per-entry page limit override, as [`RaInfoRequest::limit_pages`];
    /// `None` uses the OS readahead cap.
    pub limit_pages: Option<u64>,
}

impl<'a> RaBatchEntry<'a> {
    /// A rider over a byte range with the default limit.
    pub fn new(file: &'a FdEntry, offset: u64, len: u64) -> Self {
        Self {
            file,
            offset,
            len,
            limit_pages: None,
        }
    }

    /// Sets the §4.7 limit override for this entry.
    pub fn with_limit_pages(mut self, pages: u64) -> Self {
        self.limit_pages = Some(pages);
        self
    }
}

/// Per-entry completion of a ring crossing's riders, index-matched to the
/// submitted [`RaBatchEntry`] slice.
#[derive(Debug, Clone, Copy, Default)]
pub struct RaBatchCompletion {
    /// Pages of the entry's range already cached at submission time.
    pub cached_pages: u64,
    /// Pages of the entry's range newly fetched.
    pub initiated_pages: u64,
    /// Virtual time at which this entry's initiated I/O completes
    /// (0 when nothing was initiated).
    pub ready_at_ns: u64,
    /// Transient failure of this entry's device reads, if any.
    /// All-or-nothing: the entry initiated nothing and a retry re-covers
    /// its whole range.
    pub error: Option<IoError>,
}

/// One demand-read entry of a ring crossing ([`Os::read_batch`]): a
/// `read(2)`-shaped request that crosses with the riders it carries.
#[derive(Debug, Clone, Copy)]
pub struct ReadBatchEntry<'a> {
    /// Open file to read from.
    pub file: &'a FdEntry,
    /// Byte offset of the read.
    pub offset: u64,
    /// Byte length of the read.
    pub len: u64,
}

impl<'a> ReadBatchEntry<'a> {
    /// A demand-read entry over a byte range.
    pub fn new(file: &'a FdEntry, offset: u64, len: u64) -> Self {
        Self { file, offset, len }
    }
}

/// The CQ of one ring crossing: per-demand-entry outcomes paired with
/// per-rider completions.
pub type ReadBatchResult<E> = (
    Vec<Result<crate::os::ReadOutcome, E>>,
    Vec<RaBatchCompletion>,
);

impl Os {
    /// Ring crossing, the one vectored syscall: demand reads and the
    /// riders they carry submitted as **one** crossing (the io_uring-style
    /// shared SQ). The demand half runs each entry through the full
    /// read-path body (classification, ready-wait, synchronous demand
    /// fill, heuristic-readahead tail) on the caller's clock — demand
    /// misses stay on the critical path exactly as `read(2)` — while each
    /// rider fills off the critical path ([`RaBatchEntry`]). Only one
    /// `syscall_ns` boundary charge is paid for the whole submission.
    ///
    /// Demand entries and riders run under fault discipline `F`: under
    /// [`MayFault`] each demand outcome is its own `Result`
    /// ([`Os::read_charge_as`] semantics) and a rider's device fault
    /// surfaces in its [`RaBatchCompletion::error`]; under [`NeverFault`]
    /// nothing consults the fault plan.
    ///
    /// # Errors
    ///
    /// [`IoError::Unsupported`] when the kernel lacks CROSS-OS
    /// ([`crate::OsConfig::readahead_info_supported`] is `false`): the
    /// whole submission is rejected after the one failed probe crossing
    /// and nothing runs.
    pub fn read_batch<F: FaultMode>(
        &self,
        clock: &mut ThreadClock,
        demand: &[ReadBatchEntry<'_>],
        riders: &[RaBatchEntry<'_>],
    ) -> Result<ReadBatchResult<F::Error>, IoError> {
        self.probe_cross_os(clock)?;
        clock.advance(self.config().costs.syscall_ns);
        let submitted_ns = clock.now();
        self.stats().syscalls.incr();
        self.stats().read_batch_calls.incr();
        self.emit(
            clock.now(),
            OsTraceEvent::RingCrossing {
                demand_entries: demand.len() as u64,
                ra_entries: riders.len() as u64,
            },
        );
        // Demand first: the riders queue behind the demand fills on the
        // device, so a miss costs exactly what it costs alone.
        let outcomes = demand
            .iter()
            .map(|entry| self.read_charge_body::<F>(clock, entry.file, entry.offset, entry.len))
            .collect();
        let completions = riders
            .iter()
            .map(|entry| self.ride::<F>(entry, submitted_ns))
            .collect();
        Ok((outcomes, completions))
    }

    /// One rider's fill: [`Os::prefetch_range`] at blocking priority on a
    /// clock detached at `submitted_ns`, under `F`'s fault discipline.
    fn ride<F: FaultMode>(&self, entry: &RaBatchEntry<'_>, submitted_ns: u64) -> RaBatchCompletion {
        let cache = &entry.file.cache;
        let file_pages = cache.inode.size().div_ceil(PAGE_SIZE);
        let p0 = (entry.offset / PAGE_SIZE).min(file_pages);
        let p1 = ((entry.offset + entry.len).div_ceil(PAGE_SIZE)).min(file_pages);
        let mut at = ThreadClock::detached_at(submitted_ns);
        let budget = Some(self.prefetch_cap(entry.limit_pages));
        match self.prefetch_range::<F>(&mut at, cache, (p0, p1), budget, IoPriority::Blocking) {
            Ok((cached_pages, initiated_pages, ready_at_ns)) => RaBatchCompletion {
                cached_pages,
                initiated_pages,
                ready_at_ns,
                error: None,
            },
            Err(_) => RaBatchCompletion {
                error: Some(IoError::Io),
                ..RaBatchCompletion::default()
            },
        }
    }

    /// Completion-ring absorption of a fully cached demand read: the
    /// user-level runtime believes `[offset, offset+len)` is resident, and
    /// this call confirms it against the shared CROSS-OS bitmap *without a
    /// syscall crossing* — paying only the bitmap scan, any residual
    /// ready-wait, and the user-copy. Returns `None` (leaving all state
    /// untouched) when the view is stale (pages actually missing) or when
    /// in-flight readiness is far enough out that the syscall path's
    /// demand-bypass would be faster — the caller then falls back to the
    /// normal crossing, keeping cache accounting identical either way.
    pub fn absorb_read(
        &self,
        clock: &mut ThreadClock,
        file: &FdEntry,
        offset: u64,
        len: u64,
    ) -> Option<crate::os::ReadOutcome> {
        let costs = &self.config().costs;
        let cache = &file.cache;
        let size = cache.inode.size();
        let len = len.min(size.saturating_sub(offset));
        if len == 0 {
            return None;
        }
        let p0 = offset / PAGE_SIZE;
        let p1 = (offset + len).div_ceil(PAGE_SIZE);
        let pages = p1 - p0;

        // Completion check on the delineated path: bitmap read lock, never
        // the cache-tree lock.
        let scan = cache
            .bitmap_lock
            .read(clock.now(), costs.bitmap_scan_ns(pages));
        self.settle_lock(clock, scan, OsSpanKind::BitmapLockWait);

        let (timely, late, ready_at) = {
            let mut state = cache.state.write();
            if !state.missing_runs(p0, p1).is_empty() {
                // Stale user-level view (OS reclaim beat us): nothing was
                // mutated, so the normal syscall path still sees a
                // pristine range and accounts the misses itself.
                return None;
            }
            let ready_at = state.ready_max(p0, p1);
            if self.demand_overtakes(clock, ready_at, pages) {
                // The syscall path would overtake this queued prefetch
                // with a demand read; let it.
                return None;
            }
            let (timely, late) = state.classify_access(p0, p1, clock.now());
            (timely, late, ready_at)
        };
        cache.hits.add(pages);
        self.stats().hit_pages.add(pages);
        self.wait_ready(clock, ready_at);
        let now = clock.now();
        cache.state.write().touch_range(p0, p1, now);
        clock.advance(costs.copy_pages_ns(pages));
        self.stats().bytes_read.add(len);
        self.stats().absorbed_reads.incr();

        // Keep the heuristic-readahead state machine in lockstep with the
        // syscall path (every ring-eligible mode silences it at open, but
        // the descriptor state must not diverge).
        self.heuristic_readahead::<NeverFault>(clock, file, p0, pages);

        Some(crate::os::ReadOutcome {
            pages,
            hit_pages: pages,
            miss_pages: 0,
            prefetch_hit_pages: timely + late,
            bytes: len,
        })
    }
}

/// Recency bias for prefetched-but-unread pages (see
/// [`Os::publish_prefetched`]).
const PREFETCH_TOUCH_BIAS_NS: u64 = 5 * simclock::NS_PER_MS;

/// Records sub-chunk readiness for `[start, end)` filled between `t0` and
/// `t1`: the device streams data in, so the front of a request becomes
/// readable before its tail. Readiness is interpolated linearly over
/// 32-page (128 KiB) sub-chunks, matching DMA-completion granularity.
fn push_interpolated_ready(out: &mut Vec<ReadyPiece>, start: u64, end: u64, t0: u64, t1: u64) {
    const SUB_PAGES: u64 = 32;
    let total = end - start;
    let span = t1.saturating_sub(t0);
    let mut cursor = start;
    while cursor < end {
        let upto = (cursor + SUB_PAGES).min(end);
        let frac_num = upto - start;
        let ready = t0 + span * frac_num / total.max(1);
        out.push((cursor, upto, ready));
        cursor = upto;
    }
}

/// Returns whether `page` is set in an exported [`RaInfo`] bitmap.
pub fn bitmap_has_page(info: &RaInfo, page: u64) -> bool {
    page >= info.window_start && bit_is_set(&info.bitmap, page - info.window_start)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{FileSystem, FsKind, OsConfig};
    use simstore::{Device, DeviceConfig};
    use std::sync::Arc;

    fn os_with_file(bytes: u64) -> (Arc<Os>, Fd, ThreadClock) {
        let os = Os::new(
            OsConfig::with_memory_mb(256),
            Device::new(DeviceConfig::local_nvme()),
            FileSystem::new(FsKind::Ext4Like),
        );
        let mut clock = os.new_clock();
        let fd = os.create_sized(&mut clock, "/f", bytes).unwrap();
        (os, fd, clock)
    }

    #[test]
    fn prefetch_fills_missing_range() {
        let (os, fd, mut clock) = os_with_file(4 << 20);
        let info = os.readahead_info(
            &mut clock,
            fd,
            RaInfoRequest::prefetch(0, 1 << 20).with_limit_pages(256),
        );
        assert_eq!(info.cached_pages, 0);
        assert_eq!(info.initiated_pages, 256);
        assert!(info.ready_at_ns > 0);
        // Second call sees everything cached, initiates nothing.
        let info2 = os.readahead_info(&mut clock, fd, RaInfoRequest::prefetch(0, 1 << 20));
        assert_eq!(info2.cached_pages, 256);
        assert_eq!(info2.initiated_pages, 0);
    }

    #[test]
    fn query_only_never_starts_io() {
        let (os, fd, mut clock) = os_with_file(1 << 20);
        let info = os.readahead_info(&mut clock, fd, RaInfoRequest::query(0, 1 << 20));
        assert_eq!(info.initiated_pages, 0);
        assert_eq!(os.device().stats().read_bytes.get(), 0);
    }

    #[test]
    fn default_limit_is_os_readahead_cap() {
        let (os, fd, mut clock) = os_with_file(16 << 20);
        let info = os.readahead_info(&mut clock, fd, RaInfoRequest::prefetch(0, 16 << 20));
        assert_eq!(info.initiated_pages, os.config().ra_max_pages);
    }

    #[test]
    fn limit_override_exceeds_cap_but_respects_ceiling() {
        let (os, fd, mut clock) = os_with_file(256 << 20);
        let huge = u64::MAX;
        let info = os.readahead_info(
            &mut clock,
            fd,
            RaInfoRequest::prefetch(0, 256 << 20).with_limit_pages(huge),
        );
        assert_eq!(info.initiated_pages, CROSSOS_MAX_PREFETCH_PAGES);
    }

    #[test]
    fn bitmap_export_reflects_presence() {
        let (os, fd, mut clock) = os_with_file(4 << 20);
        os.readahead_info(
            &mut clock,
            fd,
            RaInfoRequest::prefetch(0, 512 * 1024).with_limit_pages(128),
        );
        let info = os.readahead_info(&mut clock, fd, RaInfoRequest::query(0, 4 << 20));
        assert!(bitmap_has_page(&info, 0));
        assert!(bitmap_has_page(&info, 127));
        assert!(!bitmap_has_page(&info, 128));
        assert!(!bitmap_has_page(&info, 1000));
    }

    #[test]
    fn telemetry_reports_memory_and_counters() {
        let (os, fd, mut clock) = os_with_file(4 << 20);
        let before = os.mem().free_pages();
        let info = os.readahead_info(
            &mut clock,
            fd,
            RaInfoRequest::prefetch(0, 1 << 20).with_limit_pages(256),
        );
        assert_eq!(info.file_resident_pages, 256);
        assert_eq!(info.free_pages, before - 256);
    }

    #[test]
    fn fast_path_avoids_tree_lock() {
        let (os, fd, mut clock) = os_with_file(4 << 20);
        os.readahead_info(
            &mut clock,
            fd,
            RaInfoRequest::prefetch(0, 1 << 20).with_limit_pages(256),
        );
        let cache = os.cache(os.fd_inode(fd));
        assert_eq!(cache.tree_lock.write_stats().acquisitions(), 0);
        assert!(cache.bitmap_lock.write_stats().acquisitions() > 0);
    }

    #[test]
    fn prefetch_skips_cached_prefix() {
        let (os, fd, mut clock) = os_with_file(4 << 20);
        os.readahead_info(
            &mut clock,
            fd,
            RaInfoRequest::prefetch(0, 256 * 4096).with_limit_pages(256),
        );
        let read_bytes_before = os.device().stats().read_bytes.get();
        // Request overlapping [128, 384): only [256, 384) is missing.
        let info = os.readahead_info(
            &mut clock,
            fd,
            RaInfoRequest::prefetch(128 * 4096, 256 * 4096).with_limit_pages(256),
        );
        assert_eq!(info.cached_pages, 128);
        assert_eq!(info.initiated_pages, 128);
        let read_bytes_after = os.device().stats().read_bytes.get();
        assert_eq!(read_bytes_after - read_bytes_before, 128 * 4096);
    }

    #[test]
    fn range_clamps_to_file_size() {
        let (os, fd, mut clock) = os_with_file(64 * 1024); // 16 pages
        let info = os.readahead_info(&mut clock, fd, RaInfoRequest::prefetch(0, u64::MAX / 4));
        assert_eq!(info.initiated_pages, 16);
    }

    #[test]
    fn try_variant_matches_infallible_without_faults() {
        let (os, fd, mut clock) = os_with_file(4 << 20);
        let info = os
            .try_readahead_info(
                &mut clock,
                &os.fd_entry(fd),
                RaInfoRequest::prefetch(0, 1 << 20).with_limit_pages(256),
            )
            .unwrap();
        assert_eq!(info.initiated_pages, 256);
    }

    #[test]
    fn unsupported_kernel_rejects_try_readahead_info() {
        let mut config = OsConfig::with_memory_mb(64);
        config.readahead_info_supported = false;
        let os = Os::new(
            config,
            Device::new(DeviceConfig::local_nvme()),
            FileSystem::new(FsKind::Ext4Like),
        );
        let mut clock = os.new_clock();
        let fd = os.create_sized(&mut clock, "/f", 1 << 20).unwrap();
        let err = os
            .try_readahead_info(
                &mut clock,
                &os.fd_entry(fd),
                RaInfoRequest::prefetch(0, 1 << 20),
            )
            .unwrap_err();
        assert_eq!(err, IoError::Unsupported);
        assert_eq!(os.stats().ra_info_unsupported.get(), 1);
        // Nothing was scheduled and no device I/O happened.
        assert_eq!(os.device().stats().read_bytes.get(), 0);
        // The infallible entry point still works (flag only gates try_*).
        let info = os.readahead_info(&mut clock, fd, RaInfoRequest::prefetch(0, 1 << 20));
        assert_eq!(info.initiated_pages, 32);
    }

    #[test]
    fn batch_matches_unbatched_initiated_pages_with_fewer_crossings() {
        let mk = || os_with_file(8 << 20);

        let (batched_os, bfd, mut bclock) = mk();
        let bfile = batched_os.fd_entry(bfd);
        let riders: Vec<RaBatchEntry> = (0..4)
            .map(|i| {
                RaBatchEntry::new(&bfile, i * 64 * PAGE_SIZE, 64 * PAGE_SIZE).with_limit_pages(64)
            })
            .collect();
        let (_, completions) = batched_os
            .read_batch::<MayFault>(&mut bclock, &[], &riders)
            .unwrap();
        let batched_pages: u64 = completions.iter().map(|c| c.initiated_pages).sum();

        let (plain_os, pfd, mut pclock) = mk();
        let mut plain_pages = 0;
        for i in 0..4u64 {
            let info = plain_os.readahead_info(
                &mut pclock,
                pfd,
                RaInfoRequest::prefetch(i * 64 * PAGE_SIZE, 64 * PAGE_SIZE).with_limit_pages(64),
            );
            plain_pages += info.initiated_pages;
        }
        assert_eq!(batched_pages, plain_pages);
        assert!(batched_os.stats().syscalls.get() < plain_os.stats().syscalls.get());
    }

    #[test]
    fn batch_charges_one_crossing_for_many_entries() {
        let (os, fd, mut clock) = os_with_file(8 << 20);
        let syscalls_before = os.stats().syscalls.get();
        // Four disjoint far-apart riders of 32 pages, no demand entry.
        let stride = (os.config().ra_max_pages + 64) * PAGE_SIZE;
        let file = os.fd_entry(fd);
        let riders: Vec<RaBatchEntry> = (0..4)
            .map(|i| RaBatchEntry::new(&file, i * stride, 32 * PAGE_SIZE).with_limit_pages(32))
            .collect();
        let (outcomes, completions) = os.read_batch::<MayFault>(&mut clock, &[], &riders).unwrap();
        assert_eq!(os.stats().syscalls.get() - syscalls_before, 1);
        assert_eq!(os.stats().read_batch_calls.get(), 1);
        assert!(outcomes.is_empty());
        assert_eq!(completions.len(), 4);
        for c in &completions {
            assert_eq!((c.initiated_pages, c.cached_pages), (32, 0));
            assert!(c.error.is_none());
            assert!(c.ready_at_ns > 0);
        }
        assert_eq!(os.stats().prefetched_pages.get(), 128);
    }

    #[test]
    fn read_batch_charges_one_crossing_for_demand_and_prefetch() {
        let (os, fd, mut clock) = os_with_file(8 << 20);
        let syscalls_before = os.stats().syscalls.get();
        let file = os.fd_entry(fd);
        let demand = [ReadBatchEntry::new(&file, 0, 64 * 1024)];
        let stride = (os.config().ra_max_pages + 64) * PAGE_SIZE;
        let riders = [
            RaBatchEntry::new(&file, stride, 32 * PAGE_SIZE).with_limit_pages(32),
            RaBatchEntry::new(&file, 2 * stride, 32 * PAGE_SIZE).with_limit_pages(32),
        ];
        let (outcomes, completions) = os
            .read_batch::<NeverFault>(&mut clock, &demand, &riders)
            .unwrap();
        assert_eq!(os.stats().syscalls.get() - syscalls_before, 1);
        assert_eq!(os.stats().read_batch_calls.get(), 1);
        assert_eq!(outcomes.len(), 1);
        assert_eq!(into_ok(outcomes[0]).pages, 16);
        assert_eq!(into_ok(outcomes[0]).miss_pages, 16);
        assert_eq!(completions.len(), 2);
        assert!(completions.iter().all(|c| c.initiated_pages == 32));
        // The demand read is an ordinary `read` body: its pages are
        // resident afterwards, but `reads` (syscall crossings) stays 0.
        assert_eq!(os.stats().reads.get(), 0);
    }

    #[test]
    fn demand_class_entry_is_billed_published_and_fails_alone() {
        use simstore::FaultPlan;
        // Healthy: the rider's pages are published as prefetched (so the
        // quality ledger sees them) on the blocking class — no
        // prefetch-class device request is made for it.
        let (os, fd, mut clock) = os_with_file(8 << 20);
        let file = os.fd_entry(fd);
        let rider = RaBatchEntry::new(&file, 0, 12 * PAGE_SIZE);
        let (_, done) = os
            .read_batch::<MayFault>(&mut clock, &[], &[rider])
            .unwrap();
        assert_eq!((done[0].initiated_pages, done[0].cached_pages), (12, 0));
        assert_eq!(os.stats().prefetched_pages.get(), 12);
        assert_eq!(os.device().stats().prefetch_requests.get(), 0);
        os.drop_caches(&mut clock);
        assert_eq!(os.prefetch_quality().wasted, 12);

        // Demand-class faults fail a rider that needs the device, and
        // spare the call, the cached miss it rides with and a rider that
        // finds its range cached; all-or-nothing, nothing of it is
        // published.
        let os = Os::new(
            OsConfig::with_memory_mb(256),
            Device::with_fault_plan(
                DeviceConfig::local_nvme(),
                FaultPlan::seeded(3).with_demand_eio(1.0),
            ),
            FileSystem::new(FsKind::Ext4Like),
        );
        let mut clock = os.new_clock();
        let fd = os.create_sized(&mut clock, "/f", 8 << 20).unwrap();
        os.fadvise(&mut clock, &os.fd_entry(fd), crate::Advice::Random, 0, 0);
        os.readahead_info(
            &mut clock,
            fd,
            RaInfoRequest::prefetch(1 << 20, 12 * PAGE_SIZE).with_limit_pages(12),
        );
        let file = os.fd_entry(fd);
        let demand = [ReadBatchEntry::new(&file, 1 << 20, 4 * PAGE_SIZE)];
        let riders = [
            RaBatchEntry::new(&file, 0, 12 * PAGE_SIZE),
            RaBatchEntry::new(&file, (1 << 20) + 4 * PAGE_SIZE, 8 * PAGE_SIZE),
        ];
        let (outcomes, done) = os
            .read_batch::<MayFault>(&mut clock, &demand, &riders)
            .unwrap();
        assert_eq!(outcomes[0].as_ref().map(|o| o.hit_pages), Ok(4));
        assert_eq!(done[0].error, Some(IoError::Io));
        assert_eq!(done[0].initiated_pages, 0);
        assert_eq!(done[1].error, None);
        assert_eq!((done[1].initiated_pages, done[1].cached_pages), (0, 8));
        assert_eq!(os.stats().prefetched_pages.get(), 12);
        let info = os.readahead_info(&mut clock, fd, RaInfoRequest::query(0, 12 * PAGE_SIZE));
        assert_eq!(info.cached_pages, 0);
    }

    #[test]
    fn batch_fault_fails_entries_not_the_batch() {
        use simstore::FaultPlan;
        let os = Os::new(
            OsConfig::with_memory_mb(256),
            Device::with_fault_plan(
                DeviceConfig::local_nvme(),
                FaultPlan::seeded(3).with_demand_eio(1.0),
            ),
            FileSystem::new(FsKind::Ext4Like),
        );
        let mut clock = os.new_clock();
        let fd = os.create_sized(&mut clock, "/f", 4 << 20).unwrap();
        let file = os.fd_entry(fd);
        let riders = [
            RaBatchEntry::new(&file, 0, 32 * PAGE_SIZE).with_limit_pages(32),
            RaBatchEntry::new(&file, 32 * PAGE_SIZE, 32 * PAGE_SIZE).with_limit_pages(32),
        ];
        // The call itself succeeds; each faulted rider surfaces per entry.
        let (_, completions) = os.read_batch::<MayFault>(&mut clock, &[], &riders).unwrap();
        assert!(completions.iter().all(|c| c.error == Some(IoError::Io)));
        assert!(completions.iter().all(|c| c.initiated_pages == 0));
        // All-or-nothing per rider: nothing was inserted.
        let info = os
            .try_readahead_info(
                &mut clock,
                &os.fd_entry(fd),
                RaInfoRequest::query(0, 4 << 20),
            )
            .unwrap();
        assert_eq!(info.cached_pages, 0);
        assert_eq!(os.stats().prefetched_pages.get(), 0);
    }

    #[test]
    fn read_batch_unsupported_rejects_whole_submission() {
        let mut config = OsConfig::with_memory_mb(64);
        config.readahead_info_supported = false;
        let os = Os::new(
            config,
            Device::new(DeviceConfig::local_nvme()),
            FileSystem::new(FsKind::Ext4Like),
        );
        let mut clock = os.new_clock();
        let fd = os.create_sized(&mut clock, "/f", 1 << 20).unwrap();
        let err = os
            .read_batch::<MayFault>(
                &mut clock,
                &[ReadBatchEntry::new(&os.fd_entry(fd), 0, 4096)],
                &[],
            )
            .unwrap_err();
        assert_eq!(err, IoError::Unsupported);
        assert_eq!(os.stats().ra_info_unsupported.get(), 1);
        assert_eq!(os.device().stats().read_bytes.get(), 0);
    }

    #[test]
    fn unsupported_kernel_rejects_whole_batch() {
        let mut config = OsConfig::with_memory_mb(64);
        config.readahead_info_supported = false;
        let os = Os::new(
            config,
            Device::new(DeviceConfig::local_nvme()),
            FileSystem::new(FsKind::Ext4Like),
        );
        let mut clock = os.new_clock();
        let fd = os.create_sized(&mut clock, "/f", 1 << 20).unwrap();
        let file = os.fd_entry(fd);
        let riders = [
            RaBatchEntry::new(&file, 0, 8 * PAGE_SIZE),
            RaBatchEntry::new(&file, 1 << 19, 8 * PAGE_SIZE),
        ];
        let err = os
            .read_batch::<MayFault>(&mut clock, &[], &riders)
            .unwrap_err();
        assert_eq!(err, IoError::Unsupported);
        assert_eq!(os.stats().ra_info_unsupported.get(), 1);
        // No rider ran.
        assert_eq!(os.device().stats().read_bytes.get(), 0);
        assert_eq!(os.stats().prefetched_pages.get(), 0);
    }

    #[test]
    fn absorb_read_serves_cached_range_without_crossing() {
        let (os, fd, mut clock) = os_with_file(4 << 20);
        // Nothing cached yet: absorb refuses, mutating nothing.
        assert!(os
            .absorb_read(&mut clock, &os.fd_entry(fd), 0, 64 * 1024)
            .is_none());
        assert_eq!(os.stats().hit_pages.get(), 0);

        os.readahead_info(
            &mut clock,
            fd,
            RaInfoRequest::prefetch(0, 1 << 20).with_limit_pages(256),
        );
        let syscalls_before = os.stats().syscalls.get();
        let outcome = os
            .absorb_read(&mut clock, &os.fd_entry(fd), 0, 64 * 1024)
            .expect("fully cached range absorbs");
        assert_eq!(os.stats().syscalls.get(), syscalls_before);
        assert_eq!(outcome.pages, 16);
        assert_eq!(outcome.hit_pages, 16);
        assert_eq!(outcome.miss_pages, 0);
        assert_eq!(outcome.prefetch_hit_pages, 16);
        assert_eq!(os.stats().absorbed_reads.get(), 1);
        assert_eq!(os.stats().hit_pages.get(), 16);
        // Re-absorbing the same range is a plain cache hit now.
        let again = os
            .absorb_read(&mut clock, &os.fd_entry(fd), 0, 64 * 1024)
            .unwrap();
        assert_eq!(again.prefetch_hit_pages, 0);
        assert_eq!(again.hit_pages, 16);
    }

    #[test]
    fn absorb_read_matches_read_charge_accounting() {
        // Same prefetched range, consumed via absorb vs via read_charge:
        // page-level accounting (hits, prefetch-hit classification) must
        // be identical — only the crossing counters differ.
        let run = |absorb: bool| {
            let (os, fd, mut clock) = os_with_file(4 << 20);
            os.readahead_info(
                &mut clock,
                fd,
                RaInfoRequest::prefetch(0, 1 << 20).with_limit_pages(256),
            );
            let outcome = if absorb {
                os.absorb_read(&mut clock, &os.fd_entry(fd), 0, 256 * 1024)
                    .unwrap()
            } else {
                os.read_charge(&mut clock, fd, 0, 256 * 1024)
            };
            (
                outcome,
                os.stats().hit_pages.get(),
                os.stats().miss_pages.get(),
                os.prefetch_quality(),
            )
        };
        let (a_out, a_hits, a_misses, a_q) = run(true);
        let (r_out, r_hits, r_misses, r_q) = run(false);
        assert_eq!(a_out, r_out);
        assert_eq!((a_hits, a_misses), (r_hits, r_misses));
        assert_eq!(a_q, r_q);
    }

    #[test]
    fn injected_prefetch_fault_is_all_or_nothing() {
        use simstore::FaultPlan;
        let os = Os::new(
            OsConfig::with_memory_mb(256),
            Device::with_fault_plan(
                DeviceConfig::local_nvme(),
                FaultPlan::seeded(3).with_prefetch_eio(1.0),
            ),
            FileSystem::new(FsKind::Ext4Like),
        );
        let mut clock = os.new_clock();
        let fd = os.create_sized(&mut clock, "/f", 4 << 20).unwrap();
        let err = os
            .try_readahead_info(
                &mut clock,
                &os.fd_entry(fd),
                RaInfoRequest::prefetch(0, 1 << 20).with_limit_pages(256),
            )
            .unwrap_err();
        assert_eq!(err, IoError::Io);
        // Nothing inserted: a later query sees an empty cache.
        let info = os
            .try_readahead_info(
                &mut clock,
                &os.fd_entry(fd),
                RaInfoRequest::query(0, 1 << 20),
            )
            .unwrap();
        assert_eq!(info.cached_pages, 0);
        assert_eq!(os.stats().prefetched_pages.get(), 0);
    }
}
