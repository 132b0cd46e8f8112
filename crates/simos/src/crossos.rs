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

use std::sync::Arc;

use parking_lot::MutexGuard;
use simclock::ThreadClock;
use simstore::wordwalk::{bit_is_set, word_spans};
use simstore::{Device, DeviceError, IoPriority};

use crate::cache::{InodeCache, PageRange, PAGES_PER_WORD};
use crate::error::IoError;
use crate::os::{into_ok, FaultMode, Fd, MayFault, NeverFault, Os, PAGE_SIZE};
use crate::trace::OsSpanKind;
use simfs::InodeId;

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
    pub query_only: bool,
    /// Page window `[start, end)` of the bitmap to export. `None` exports
    /// the window covering `offset..offset+len`.
    pub bitmap_window: Option<(u64, u64)>,
    /// Export granularity: one exported bit covers `2^bitmap_shift` pages
    /// (the artifact's `CROSS_BITMAP_SHIFT`). A coarse bit is set only
    /// when *every* page it covers is cached, so coarse views are
    /// conservative — they can cause redundant prefetch, never a false
    /// hit. Shift 0 is exact.
    pub bitmap_shift: u32,
}

impl RaInfoRequest {
    /// A plain prefetch-and-report request over a byte range.
    pub fn prefetch(offset: u64, len: u64) -> Self {
        Self {
            offset,
            len,
            limit_pages: None,
            query_only: false,
            bitmap_window: None,
            bitmap_shift: 0,
        }
    }

    /// Sets the coarse-export granularity (`CROSS_BITMAP_SHIFT`).
    pub fn with_bitmap_shift(mut self, shift: u32) -> Self {
        self.bitmap_shift = shift.min(16);
        self
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
        into_ok(self.readahead_info_impl::<NeverFault>(clock, fd, req))
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
        fd: Fd,
        req: RaInfoRequest,
    ) -> Result<RaInfo, IoError> {
        self.probe_cross_os(clock)?;
        self.readahead_info_impl::<MayFault>(clock, fd, req)
    }

    fn readahead_info_impl<F: FaultMode>(
        &self,
        clock: &mut ThreadClock,
        fd: Fd,
        req: RaInfoRequest,
    ) -> Result<RaInfo, F::Error> {
        let costs = &self.config().costs;
        clock.advance(costs.syscall_ns);
        self.stats().syscalls.incr();
        self.stats().ra_info_calls.incr();

        let entry = self.fd_entry(fd);
        let cache = self.cache(entry.ino);
        let file_pages = self.fs().size(entry.ino).div_ceil(PAGE_SIZE);

        let p0 = (req.offset / PAGE_SIZE).min(file_pages);
        let p1 = ((req.offset + req.len).div_ceil(PAGE_SIZE)).min(file_pages);

        let range_pages = p1.saturating_sub(p0);
        let budget = (!req.query_only).then(|| self.prefetch_cap(req.limit_pages));
        let (cached_pages, initiated, ready_at) = self.prefetch_range::<F>(
            clock,
            (entry.ino, &cache),
            (p0, p1),
            budget,
            IoPriority::Prefetch,
        )?;

        // Export the bitmap window, coarsened per the requested shift (one
        // exported bit per 2^shift pages; a coarse bit requires all its
        // pages present). Coarser exports copy proportionally fewer words.
        let (w0, w1) = req.bitmap_window.unwrap_or((p0, p1.max(p0 + 1)));
        let window_start = (w0 / PAGES_PER_WORD) * PAGES_PER_WORD;
        let bitmap = {
            let state = cache.state.read();
            if req.bitmap_shift == 0 {
                state.snapshot_words(w0, w1.max(w0 + 1))
            } else {
                coarsen_bitmap(&state, window_start, w1.max(w0 + 1), req.bitmap_shift)
            }
        };
        clock.advance(
            costs.bitmap_copy_ns((w1.saturating_sub(w0).max(1)) >> req.bitmap_shift.min(16)),
        );

        if let Some(sink) = self.trace_sink() {
            sink.emit_os_event(
                clock.now(),
                crate::trace::OsTraceEvent::RaInfoCall {
                    ino: entry.ino,
                    start_page: p0,
                    pages: range_pages,
                    cached_pages,
                    initiated_pages: initiated,
                },
            );
        }

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

/// The steps every prefetch path shares. The direct paths
/// (`readahead_info`, baseline tree prefetch) and the vectored batch body
/// differ in which of the two device charges below they make.
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
    /// demand-class batch entry share. Scans `[p0, p1)` on the fast path
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
        (ino, cache): (InodeId, &InodeCache),
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
            self.charge_prefetch_progressive::<F>(clock.now(), priority, ino, &scheduled)?;
        let ready_at = ready.last().map_or(0, |piece| piece.2);
        let pages = scheduled.iter().map(|&(s, e)| e - s).sum();
        let initiated = self.publish_bitmap(clock, cache, fill, pages, &ready);
        Ok((cached, initiated, ready_at))
    }

    /// The direct paths' device charge. I/O proceeds off the caller's
    /// critical path, on a clock detached at `start_ns`, and large
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
        ino: InodeId,
        scheduled: &[PageRange],
    ) -> Result<Vec<ReadyPiece>, F::Error> {
        let mut io_clock = ThreadClock::detached_at(Arc::clone(self.global()), start_ns);
        let chunk_pages = (self.device().config().max_request_bytes / PAGE_SIZE).max(1);
        let mut ready = Vec::new();
        for &(s, e) in scheduled {
            let mut cursor = s;
            while cursor < e {
                let upto = (cursor + chunk_pages).min(e);
                let before = io_clock.now();
                self.route_extents(ino, cursor, upto - cursor, |device, blocks| {
                    F::charge_read(device, &mut io_clock, blocks, priority)
                })?;
                push_interpolated_ready(&mut ready, cursor, upto, before, io_clock.now());
                cursor = upto;
            }
        }
        let done_ns = io_clock.now();
        if done_ns > start_ns {
            if let Some(sink) = self.span_sink() {
                sink.emit_os_span(done_ns, OsSpanKind::DevicePrefetch, done_ns - start_ns);
            }
        }
        Ok(ready)
    }

    /// The batch body's device charge: one vectored submission per device
    /// touched carries all of the run's physical extents — one fixed
    /// latency, one congestion check, one fault draw each — the default
    /// (local) device first, a single submission when un-tiered.
    fn charge_prefetch_vectored(
        &self,
        io_clock: &mut ThreadClock,
        ino: InodeId,
        scheduled: &[PageRange],
    ) -> Result<(), DeviceError> {
        let mut per_device: Vec<(&Arc<Device>, Vec<u64>)> = vec![(self.device(), Vec::new())];
        for &(s, e) in scheduled {
            into_ok(self.route_extents(ino, s, e - s, |device, blocks| {
                match per_device.iter_mut().find(|(d, _)| Arc::ptr_eq(d, device)) {
                    Some((_, runs)) => runs.push(blocks),
                    None => per_device.push((device, vec![blocks])),
                }
                Ok(())
            }));
        }
        for (device, runs) in per_device {
            device.try_charge_read_vectored(io_clock, &runs, IoPriority::Prefetch)?;
        }
        Ok(())
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

/// One entry of a batched prefetch submission ([`Os::try_readahead_batch`]):
/// a `readahead_info`-style prefetch request over a byte range of one
/// descriptor. Entries are the submission-queue elements; the matching
/// [`RaBatchCompletion`] is the completion-queue element.
#[derive(Debug, Clone, Copy)]
pub struct RaBatchEntry {
    /// Descriptor whose file the range belongs to.
    pub fd: Fd,
    /// Byte offset of the range to prefetch.
    pub offset: u64,
    /// Byte length of the range to prefetch.
    pub len: u64,
    /// Per-entry prefetch limit override (pages), as
    /// [`RaInfoRequest::limit_pages`]; `None` uses the OS readahead cap.
    pub limit_pages: Option<u64>,
    /// Explicit speculation (Foreactor): a *known future demand read*
    /// submitted with the one that blocks. Charged after the crossing's
    /// demand entries, but on a clock detached at the submission instant
    /// rather than at their completion, and on the device's blocking
    /// horizon — FCFS on the background horizon it would queue behind any
    /// streaming window and the reader would wait out up to twice the
    /// refetch estimate before [`Os::absorb_read`] gives up on it. Its
    /// pages are still published as prefetched, so the quality ledger
    /// classifies every one. Never merged with neighbours; fails alone.
    pub demand_class: bool,
}

impl RaBatchEntry {
    /// A prefetch entry over a byte range with the default limit.
    pub fn new(fd: Fd, offset: u64, len: u64) -> Self {
        Self {
            fd,
            offset,
            len,
            limit_pages: None,
            demand_class: false,
        }
    }

    /// Makes this a demand-class entry ([`RaBatchEntry::demand_class`]).
    pub fn with_demand_class(mut self) -> Self {
        self.demand_class = true;
        self
    }

    /// Sets the §4.7 limit override for this entry.
    pub fn with_limit_pages(mut self, pages: u64) -> Self {
        self.limit_pages = Some(pages);
        self
    }
}

/// Per-entry completion of a batched submission, index-matched to the
/// submitted [`RaBatchEntry`] slice.
#[derive(Debug, Clone, Copy, Default)]
pub struct RaBatchCompletion {
    /// Pages of the entry's range already cached at submission time.
    pub cached_pages: u64,
    /// Pages of the entry's range newly scheduled for prefetch.
    pub initiated_pages: u64,
    /// Virtual time at which this entry's initiated I/O completes
    /// (0 when nothing was initiated).
    pub ready_at_ns: u64,
    /// Whether the entry was merged into an adjacent run of the same
    /// inode before hitting the device. Merged entries are still fully
    /// serviced — the merge only saves per-request device overhead.
    pub merged: bool,
    /// Transient failure of this entry's merged device run, if any.
    /// Per-run all-or-nothing: the entry initiated nothing and a retry
    /// re-covers its whole range.
    pub error: Option<IoError>,
}

/// A member of one per-inode merged run: index into the caller's entry
/// slice plus its clamped page range and limit.
struct BatchMember {
    idx: usize,
    p0: u64,
    p1: u64,
    cap: u64,
}

/// Pages of `[s, e)` overlapping `[a, b)`.
fn overlap(s: u64, e: u64, a: u64, b: u64) -> u64 {
    e.min(b).saturating_sub(s.max(a))
}

/// Removes `[a, b)` from the disjoint sorted range set, returning how
/// many pages were claimed. Ranges partially covered are split so every
/// page is claimed at most once across calls.
fn claim_overlap(ranges: &mut Vec<(u64, u64)>, a: u64, b: u64) -> u64 {
    let mut claimed = 0u64;
    let mut next: Vec<(u64, u64)> = Vec::with_capacity(ranges.len() + 1);
    for &(s, e) in ranges.iter() {
        let took = overlap(s, e, a, b);
        if took == 0 {
            next.push((s, e));
            continue;
        }
        claimed += took;
        if s < a {
            next.push((s, a));
        }
        if e > b {
            next.push((b, e));
        }
    }
    *ranges = next;
    claimed
}

impl Os {
    /// Batched prefetch submission — the vectored form of
    /// [`Os::try_readahead_info`] (SQ/CQ model). The caller hands over a
    /// whole submission queue of prefetch entries; the OS charges **one**
    /// syscall crossing for the batch, groups entries by inode, merges
    /// adjacent runs (gap at most one OS readahead window), issues one
    /// vectored prefetch-class device submission per merged run, publishes
    /// each inode's bitmap once, and returns per-entry completions so the
    /// caller's per-run retry/degradation machinery still operates on
    /// individual entries.
    ///
    /// Unlike `readahead_info` there is no bitmap export: the completion
    /// queue carries counts only, keeping the crossing cheap.
    ///
    /// # Errors
    ///
    /// [`IoError::Unsupported`] when the kernel lacks CROSS-OS
    /// ([`crate::OsConfig::readahead_info_supported`] is `false`): the
    /// whole batch is rejected after the one failed probe crossing.
    /// Transient device faults are **not** batch errors — they surface
    /// per entry via [`RaBatchCompletion::error`], failing only the
    /// members of the faulted merged run.
    pub fn try_readahead_batch(
        &self,
        clock: &mut ThreadClock,
        entries: &[RaBatchEntry],
    ) -> Result<Vec<RaBatchCompletion>, IoError> {
        self.probe_cross_os(clock)?;
        clock.advance(self.config().costs.syscall_ns);
        self.stats().syscalls.incr();
        self.stats().ra_batch_calls.incr();
        let submitted_ns = clock.now();
        Ok(self.readahead_batch_body::<MayFault>(clock, entries, submitted_ns))
    }

    /// The crossing-free body of the vectored prefetch path: grouping,
    /// merging, device submission, and publication exactly as
    /// [`Os::try_readahead_batch`], without the boundary charge or the
    /// `syscalls`/`ra_batch_calls` counters. The combined ring crossing
    /// ([`Os::try_read_batch`]) runs staged prefetch entries through this
    /// body after its demand half, sharing one syscall charge.
    /// Demand-class entries go first, each by itself through
    /// [`Os::prefetch_range`] on a clock detached at `submitted_ns`, under
    /// `F`'s fault discipline.
    pub(crate) fn readahead_batch_body<F: FaultMode>(
        &self,
        clock: &mut ThreadClock,
        entries: &[RaBatchEntry],
        submitted_ns: u64,
    ) -> Vec<RaBatchCompletion> {
        let costs = &self.config().costs;
        let mut completions = vec![RaBatchCompletion::default(); entries.len()];

        // Group entries by inode, first-appearance order (deterministic).
        let mut inodes: Vec<InodeId> = Vec::new();
        let mut groups: Vec<Vec<BatchMember>> = Vec::new();
        for (idx, entry) in entries.iter().enumerate() {
            let ino = self.fd_entry(entry.fd).ino;
            let file_pages = self.fs().size(ino).div_ceil(PAGE_SIZE);
            let p0 = (entry.offset / PAGE_SIZE).min(file_pages);
            let p1 = ((entry.offset + entry.len).div_ceil(PAGE_SIZE)).min(file_pages);
            let cap = self.prefetch_cap(entry.limit_pages);
            if entry.demand_class {
                let mut at = ThreadClock::detached_at(Arc::clone(self.global()), submitted_ns);
                let target = (ino, &*self.cache(ino));
                let done = self.prefetch_range::<F>(
                    &mut at,
                    target,
                    (p0, p1),
                    Some(cap),
                    IoPriority::Blocking,
                );
                completions[idx] = match done {
                    Ok((cached_pages, initiated_pages, ready_at_ns)) => RaBatchCompletion {
                        cached_pages,
                        initiated_pages,
                        ready_at_ns,
                        ..RaBatchCompletion::default()
                    },
                    Err(_) => RaBatchCompletion {
                        error: Some(IoError::Io),
                        ..RaBatchCompletion::default()
                    },
                };
                continue;
            }
            let gi = inodes.iter().position(|&i| i == ino).unwrap_or_else(|| {
                inodes.push(ino);
                groups.push(Vec::new());
                groups.len() - 1
            });
            groups[gi].push(BatchMember { idx, p0, p1, cap });
        }

        // Device I/O accumulates off the caller's critical path on one
        // detached clock: the batch is a single submission stream, so its
        // merged runs issue back to back exactly like the splits of one
        // large transfer.
        let mut io_clock = ThreadClock::detached_at(Arc::clone(self.global()), clock.now());
        let merge_gap = self.config().ra_max_pages;
        let spans = self.span_sink();

        for (ino, mut members) in inodes.into_iter().zip(groups) {
            let cache = self.cache(ino);
            members.sort_by_key(|m| (m.p0, m.p1));

            // Merge adjacent member ranges into submission runs: (start,
            // end, page budget, member indices).
            let mut runs: Vec<(u64, u64, u64, Vec<usize>)> = Vec::new();
            for (mi, m) in members.iter().enumerate() {
                if m.p1 <= m.p0 {
                    continue;
                }
                match runs.last_mut() {
                    Some(run) if m.p0 <= run.1.saturating_add(merge_gap) => {
                        run.1 = run.1.max(m.p1);
                        run.2 = run.2.saturating_add(m.cap).min(CROSSOS_MAX_PREFETCH_PAGES);
                        run.3.push(mi);
                        completions[m.idx].merged = true;
                    }
                    _ => runs.push((m.p0, m.p1, m.cap, vec![mi])),
                }
            }
            if runs.is_empty() {
                continue;
            }

            // Fast path: one bitmap read scan per inode over the merged
            // spans — never the cache-tree lock.
            let scan_pages: u64 = runs.iter().map(|r| r.1 - r.0).sum();
            let scan = cache
                .bitmap_lock
                .read(clock.now(), costs.bitmap_scan_ns(scan_pages));
            self.settle_lock(clock, scan, OsSpanKind::BitmapLockWait);

            // One fill per inode: every run's scan and the single publish
            // below happen under the same guard.
            let fill = cache.fill_guard.lock();
            let mut inserted: Vec<ReadyPiece> = Vec::new();
            let mut publish_pages = 0u64;
            for run in &runs {
                let missing = cache.state.read().missing_runs(run.0, run.1);
                for &mi in &run.3 {
                    let m = &members[mi];
                    let missing_in_member: u64 = missing
                        .iter()
                        .map(|&(s, e)| overlap(s, e, m.p0, m.p1))
                        .sum();
                    completions[m.idx].cached_pages = (m.p1 - m.p0) - missing_in_member;
                }
                let scheduled = clamp_to_budget(&missing, run.2);
                if scheduled.is_empty() {
                    continue;
                }

                let before = io_clock.now();
                if self
                    .charge_prefetch_vectored(&mut io_clock, ino, &scheduled)
                    .is_err()
                {
                    // Per-run all-or-nothing: nothing of this run is
                    // inserted or published; its members learn via the
                    // completion queue and may retry individually.
                    for &mi in &run.3 {
                        completions[members[mi].idx].error = Some(IoError::Io);
                    }
                    continue;
                }
                let after = io_clock.now();
                if after > before {
                    if let Some(sink) = spans {
                        sink.emit_os_span(after, OsSpanKind::DevicePrefetch, after - before);
                    }
                }

                // The device streams the vector front to back: interpolate
                // readiness across the scheduled pages so readers consume
                // the head of the batch while its tail is in flight.
                let total: u64 = scheduled.iter().map(|&(s, e)| e - s).sum();
                let span = after.saturating_sub(before);
                let mut done = 0u64;
                for &(s, e) in &scheduled {
                    let t0 = before + span * done / total.max(1);
                    done += e - s;
                    let t1 = before + span * done / total.max(1);
                    push_interpolated_ready(&mut inserted, s, e, t0, t1);
                }
                // Bill every scheduled page to exactly one completion:
                // each member *claims* (removes) its overlap from the
                // scheduled set, so a page shared by overlapping members is
                // billed once, and merge-gap pages — read, published, and
                // flagged despite overlapping no member's byte range — go
                // to the run's head member.
                let mut unclaimed = scheduled.clone();
                for &mi in &run.3 {
                    let m = &members[mi];
                    let init = claim_overlap(&mut unclaimed, m.p0, m.p1);
                    completions[m.idx].initiated_pages = init;
                    if init > 0 {
                        completions[m.idx].ready_at_ns = after;
                    }
                }
                let gap: u64 = unclaimed.iter().map(|&(s, e)| e - s).sum();
                if gap > 0 {
                    let head = &mut completions[members[run.3[0]].idx];
                    head.initiated_pages += gap;
                    head.ready_at_ns = after;
                }
                publish_pages += total;
            }

            // Publish once per inode after the whole walk.
            if !inserted.is_empty() {
                self.publish_bitmap(clock, &cache, fill, publish_pages, &inserted);
            }
        }

        completions
    }
}

/// One demand-read entry of a combined ring submission
/// ([`Os::try_read_batch`]): a `read(2)`-shaped request that crosses
/// alongside staged prefetch entries.
#[derive(Debug, Clone, Copy)]
pub struct ReadBatchEntry {
    /// Descriptor to read from.
    pub fd: Fd,
    /// Byte offset of the read.
    pub offset: u64,
    /// Byte length of the read.
    pub len: u64,
}

impl ReadBatchEntry {
    /// A demand-read entry over a byte range.
    pub fn new(fd: Fd, offset: u64, len: u64) -> Self {
        Self { fd, offset, len }
    }
}

/// The CQ of one combined ring crossing: per-demand-entry outcomes paired
/// with per-prefetch-entry completions.
pub type ReadBatchResult<E> = (
    Vec<Result<crate::os::ReadOutcome, E>>,
    Vec<RaBatchCompletion>,
);

impl Os {
    /// Combined ring crossing: demand reads and staged prefetch entries
    /// submitted as **one** vectored syscall (the io_uring-style shared
    /// SQ). The demand half runs each entry through the full read-path
    /// body (classification, ready-wait, synchronous demand fill,
    /// heuristic-readahead tail) on the caller's clock — demand misses
    /// stay on the critical path exactly as `read(2)` — while the
    /// prefetch half reuses the vectored [`Os::try_readahead_batch`] body
    /// off the critical path. Only one `syscall_ns` boundary charge is
    /// paid for the whole submission.
    ///
    /// Demand entries never consult the fault plan (the infallible
    /// discipline of [`Os::read_charge`]); prefetch-half device faults
    /// surface per entry via [`RaBatchCompletion::error`].
    ///
    /// # Errors
    ///
    /// [`IoError::Unsupported`] when the kernel lacks CROSS-OS
    /// ([`crate::OsConfig::readahead_info_supported`] is `false`): the
    /// whole submission is rejected after the one failed probe crossing
    /// and nothing runs.
    pub fn read_batch(
        &self,
        clock: &mut ThreadClock,
        demand: &[ReadBatchEntry],
        prefetch: &[RaBatchEntry],
    ) -> Result<(Vec<crate::os::ReadOutcome>, Vec<RaBatchCompletion>), IoError> {
        self.read_batch_impl::<NeverFault>(clock, demand, prefetch)
            .map(|(outcomes, completions)| {
                (outcomes.into_iter().map(into_ok).collect(), completions)
            })
    }

    /// Fallible variant of [`Os::read_batch`]: demand entries consult the
    /// fault plan ([`Os::try_read_charge`] semantics, per entry), so each
    /// demand outcome is its own `Result`.
    ///
    /// # Errors
    ///
    /// [`IoError::Unsupported`] as for [`Os::read_batch`]. Transient
    /// demand-fill faults surface per demand entry; prefetch faults per
    /// prefetch entry.
    pub fn try_read_batch(
        &self,
        clock: &mut ThreadClock,
        demand: &[ReadBatchEntry],
        prefetch: &[RaBatchEntry],
    ) -> Result<ReadBatchResult<IoError>, IoError> {
        self.read_batch_impl::<MayFault>(clock, demand, prefetch)
    }

    fn read_batch_impl<F: FaultMode>(
        &self,
        clock: &mut ThreadClock,
        demand: &[ReadBatchEntry],
        prefetch: &[RaBatchEntry],
    ) -> Result<ReadBatchResult<F::Error>, IoError> {
        self.probe_cross_os(clock)?;
        clock.advance(self.config().costs.syscall_ns);
        let submitted_ns = clock.now();
        self.stats().syscalls.incr();
        self.stats().read_batch_calls.incr();
        if let Some(sink) = self.trace_sink() {
            sink.emit_os_event(
                clock.now(),
                crate::trace::OsTraceEvent::ReadBatch {
                    demand_entries: demand.len() as u64,
                    ra_entries: prefetch.len() as u64,
                },
            );
        }
        // Demand first: with the ring disabled, staged batches still
        // waiting on their deadline flush *after* the triggering read, so
        // the demand fill covers its own misses and the later flush
        // deduplicates against them. Running the demand half first keeps
        // that ordering — and thus the hit/miss accounting — identical.
        let outcomes = demand
            .iter()
            .map(|entry| self.read_charge_body::<F>(clock, entry.fd, entry.offset, entry.len))
            .collect();
        let completions = self.readahead_batch_body::<F>(clock, prefetch, submitted_ns);
        Ok((outcomes, completions))
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
        fd: Fd,
        offset: u64,
        len: u64,
    ) -> Option<crate::os::ReadOutcome> {
        let costs = &self.config().costs;
        let entry = self.fd_entry(fd);
        let cache = self.cache(entry.ino);
        let size = self.fs().size(entry.ino);
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
        self.heuristic_readahead::<NeverFault>(clock, &entry, &cache, p0, pages);

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

/// Coarsens a presence window: exported bit `i` covers pages
/// `[start + i*2^shift, start + (i+1)*2^shift)` and is set only when all
/// of them are present.
fn coarsen_bitmap(state: &crate::cache::CacheState, start: u64, end: u64, shift: u32) -> Vec<u64> {
    let group = 1u64 << shift.min(16);
    let groups = (end - start).div_ceil(group);
    // Every group starts set; each missing run clears the groups it touches.
    let mut out: Vec<u64> = word_spans(0, groups).map(|(_, mask)| mask).collect();
    for (s, e) in state.missing_runs(start, end) {
        for (w, mask) in word_spans((s - start) / group, (e - start).div_ceil(group)) {
            out[w] &= !mask;
        }
    }
    out
}

/// Returns whether `page` is set in an exported [`RaInfo`] bitmap
/// (exact exports only — for coarse exports index by group).
pub fn bitmap_has_page(info: &RaInfo, page: u64) -> bool {
    page >= info.window_start && bit_is_set(&info.bitmap, page - info.window_start)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{FileSystem, FsKind, OsConfig};
    use simstore::{Device, DeviceConfig};

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
    fn coarse_export_is_conservative() {
        let (os, fd, mut clock) = os_with_file(8 << 20); // 2048 pages
                                                         // Cache pages [0, 100): group of 64 pages fully covered only for
                                                         // group 0 at shift 6.
        os.readahead_info(
            &mut clock,
            fd,
            RaInfoRequest::prefetch(0, 100 * 4096).with_limit_pages(100),
        );
        let info = os.readahead_info(
            &mut clock,
            fd,
            RaInfoRequest::query(0, 8 << 20).with_bitmap_shift(6),
        );
        // Group 0 (pages 0..64) fully cached -> bit set; group 1 (64..128)
        // partially cached -> clear.
        assert_eq!(info.bitmap[0] & 0b11, 0b01);
    }

    #[test]
    fn coarse_export_copies_fewer_words() {
        let (os, fd, mut clock) = os_with_file(256 << 20);
        let exact = os.readahead_info(&mut clock, fd, RaInfoRequest::query(0, 256 << 20));
        let coarse = os.readahead_info(
            &mut clock,
            fd,
            RaInfoRequest::query(0, 256 << 20).with_bitmap_shift(6),
        );
        assert!(coarse.bitmap.len() * 32 < exact.bitmap.len());
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
                fd,
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
            .try_readahead_info(&mut clock, fd, RaInfoRequest::prefetch(0, 1 << 20))
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
    fn batch_charges_one_crossing_for_many_entries() {
        let (os, fd, mut clock) = os_with_file(8 << 20);
        let syscalls_before = os.stats().syscalls.get();
        // Four disjoint far-apart runs (beyond the merge gap) of 32 pages.
        let stride = (os.config().ra_max_pages + 64) * PAGE_SIZE;
        let entries: Vec<RaBatchEntry> = (0..4)
            .map(|i| RaBatchEntry::new(fd, i * stride, 32 * PAGE_SIZE).with_limit_pages(32))
            .collect();
        let completions = os.try_readahead_batch(&mut clock, &entries).unwrap();
        assert_eq!(os.stats().syscalls.get() - syscalls_before, 1);
        assert_eq!(os.stats().ra_batch_calls.get(), 1);
        assert_eq!(completions.len(), 4);
        for c in &completions {
            assert_eq!(c.initiated_pages, 32);
            assert_eq!(c.cached_pages, 0);
            assert!(!c.merged);
            assert!(c.error.is_none());
            assert!(c.ready_at_ns > 0);
        }
        assert_eq!(os.stats().prefetched_pages.get(), 128);
    }

    #[test]
    fn batch_merges_adjacent_runs_into_one_device_submission() {
        let (os, fd, mut clock) = os_with_file(8 << 20);
        let entries: Vec<RaBatchEntry> = (0..4)
            .map(|i| RaBatchEntry::new(fd, i * 32 * PAGE_SIZE, 32 * PAGE_SIZE).with_limit_pages(32))
            .collect();
        let completions = os.try_readahead_batch(&mut clock, &entries).unwrap();
        assert_eq!(os.device().stats().vectored_submissions.get(), 1);
        assert!(!completions[0].merged);
        assert!(completions[1..].iter().all(|c| c.merged));
        let total: u64 = completions.iter().map(|c| c.initiated_pages).sum();
        assert_eq!(total, 128);
    }

    #[test]
    fn batch_billing_is_closed_over_gaps_and_overlaps() {
        // Two entries within the merge gap (the pages between them get
        // scheduled as part of the merged run) plus a third overlapping
        // the first: the completions must bill every physically initiated
        // page exactly once — gap pages to the head member, shared pages
        // to whichever member claims them first — so the caller's
        // `pages_initiated` ledger matches the OS's prefetch flags.
        let (os, fd, mut clock) = os_with_file(64 << 20);
        let gap = os.config().ra_max_pages / 2;
        let entries = [
            RaBatchEntry::new(fd, 0, 32 * PAGE_SIZE).with_limit_pages(256),
            RaBatchEntry::new(fd, (32 + gap) * PAGE_SIZE, 32 * PAGE_SIZE).with_limit_pages(256),
            RaBatchEntry::new(fd, 16 * PAGE_SIZE, 32 * PAGE_SIZE).with_limit_pages(256),
        ];
        let completions = os.try_readahead_batch(&mut clock, &entries).unwrap();
        assert!(completions.iter().all(|c| c.error.is_none()));
        let billed: u64 = completions.iter().map(|c| c.initiated_pages).sum();
        assert_eq!(
            billed,
            os.stats().prefetched_pages.get(),
            "vectored billing must equal physically initiated pages"
        );
        // The whole merged span [0, 64+gap) was read: gap pages included.
        assert_eq!(billed, 64 + gap);
    }

    #[test]
    fn claim_overlap_splits_and_never_double_claims() {
        let mut ranges = vec![(0u64, 10u64), (20, 30)];
        assert_eq!(claim_overlap(&mut ranges, 5, 25), 10);
        assert_eq!(ranges, vec![(0, 5), (25, 30)]);
        // A second claim over the same span finds nothing left.
        assert_eq!(claim_overlap(&mut ranges, 5, 25), 0);
        assert_eq!(claim_overlap(&mut ranges, 0, 30), 10);
        assert!(ranges.is_empty());
    }

    #[test]
    fn batch_entries_for_distinct_files_do_not_merge() {
        let (os, fd_a, mut clock) = os_with_file(4 << 20);
        let fd_b = os.create_sized(&mut clock, "/g", 4 << 20).unwrap();
        let entries = [
            RaBatchEntry::new(fd_a, 0, 32 * PAGE_SIZE).with_limit_pages(32),
            RaBatchEntry::new(fd_b, 0, 32 * PAGE_SIZE).with_limit_pages(32),
        ];
        let completions = os.try_readahead_batch(&mut clock, &entries).unwrap();
        assert_eq!(os.device().stats().vectored_submissions.get(), 2);
        assert!(completions.iter().all(|c| !c.merged));
        assert!(completions.iter().all(|c| c.initiated_pages == 32));
    }

    #[test]
    fn batch_matches_unbatched_initiated_pages_with_fewer_crossings() {
        let mk = || os_with_file(8 << 20);

        let (batched_os, bfd, mut bclock) = mk();
        let entries: Vec<RaBatchEntry> = (0..4)
            .map(|i| {
                RaBatchEntry::new(bfd, i * 64 * PAGE_SIZE, 64 * PAGE_SIZE).with_limit_pages(64)
            })
            .collect();
        let completions = batched_os
            .try_readahead_batch(&mut bclock, &entries)
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
        let err = os
            .try_readahead_batch(&mut clock, &[RaBatchEntry::new(fd, 0, 1 << 20)])
            .unwrap_err();
        assert_eq!(err, IoError::Unsupported);
        assert_eq!(os.stats().ra_info_unsupported.get(), 1);
        assert_eq!(os.device().stats().read_bytes.get(), 0);
    }

    #[test]
    fn batch_fault_fails_entries_not_the_batch() {
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
        let entries = [
            RaBatchEntry::new(fd, 0, 32 * PAGE_SIZE).with_limit_pages(32),
            RaBatchEntry::new(fd, 32 * PAGE_SIZE, 32 * PAGE_SIZE).with_limit_pages(32),
        ];
        // The call itself succeeds; the faulted run surfaces per entry.
        let completions = os.try_readahead_batch(&mut clock, &entries).unwrap();
        assert!(completions.iter().all(|c| c.error == Some(IoError::Io)));
        assert!(completions.iter().all(|c| c.initiated_pages == 0));
        // All-or-nothing per run: nothing was inserted.
        let info = os
            .try_readahead_info(&mut clock, fd, RaInfoRequest::query(0, 4 << 20))
            .unwrap();
        assert_eq!(info.cached_pages, 0);
        assert_eq!(os.stats().prefetched_pages.get(), 0);
    }

    #[test]
    fn read_batch_charges_one_crossing_for_demand_and_prefetch() {
        let (os, fd, mut clock) = os_with_file(8 << 20);
        let syscalls_before = os.stats().syscalls.get();
        let demand = [ReadBatchEntry::new(fd, 0, 64 * 1024)];
        let stride = (os.config().ra_max_pages + 64) * PAGE_SIZE;
        let prefetch = [
            RaBatchEntry::new(fd, stride, 32 * PAGE_SIZE).with_limit_pages(32),
            RaBatchEntry::new(fd, 2 * stride, 32 * PAGE_SIZE).with_limit_pages(32),
        ];
        let (outcomes, completions) = os.read_batch(&mut clock, &demand, &prefetch).unwrap();
        assert_eq!(os.stats().syscalls.get() - syscalls_before, 1);
        assert_eq!(os.stats().read_batch_calls.get(), 1);
        assert_eq!(os.stats().ra_batch_calls.get(), 0);
        assert_eq!(outcomes.len(), 1);
        assert_eq!(outcomes[0].pages, 16);
        assert_eq!(outcomes[0].miss_pages, 16);
        assert_eq!(completions.len(), 2);
        assert!(completions.iter().all(|c| c.initiated_pages == 32));
        // The demand read is an ordinary `read` body: its pages are
        // resident afterwards, but `reads` (syscall crossings) stays 0.
        assert_eq!(os.stats().reads.get(), 0);
    }

    #[test]
    fn demand_class_entry_is_billed_published_and_fails_alone() {
        use simstore::FaultPlan;
        // Healthy: the entry's pages are published as prefetched (so the
        // quality ledger sees them) on the blocking class — no
        // prefetch-class device request is made for it.
        let (os, fd, mut clock) = os_with_file(8 << 20);
        let entry = RaBatchEntry::new(fd, 0, 12 * PAGE_SIZE).with_demand_class();
        let done = os.try_readahead_batch(&mut clock, &[entry]).unwrap();
        assert_eq!((done[0].initiated_pages, done[0].cached_pages), (12, 0));
        assert_eq!(os.stats().prefetched_pages.get(), 12);
        assert_eq!(os.device().stats().prefetch_requests.get(), 0);
        os.drop_caches(&mut clock);
        assert_eq!(os.prefetch_quality().wasted, 12);

        // Demand-class faults hit it and spare its prefetch-class
        // neighbour; all-or-nothing, nothing of it is published.
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
        let entries = [
            RaBatchEntry::new(fd, 0, 12 * PAGE_SIZE).with_demand_class(),
            RaBatchEntry::new(fd, 1 << 20, 12 * PAGE_SIZE),
        ];
        let done = os.try_readahead_batch(&mut clock, &entries).unwrap();
        assert_eq!(done[0].error, Some(IoError::Io));
        assert_eq!((done[0].initiated_pages, done[1].initiated_pages), (0, 12));
        assert_eq!(os.stats().prefetched_pages.get(), 12);
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
            .try_read_batch(&mut clock, &[ReadBatchEntry::new(fd, 0, 4096)], &[])
            .unwrap_err();
        assert_eq!(err, IoError::Unsupported);
        assert_eq!(os.stats().ra_info_unsupported.get(), 1);
        assert_eq!(os.device().stats().read_bytes.get(), 0);
    }

    #[test]
    fn absorb_read_serves_cached_range_without_crossing() {
        let (os, fd, mut clock) = os_with_file(4 << 20);
        // Nothing cached yet: absorb refuses, mutating nothing.
        assert!(os.absorb_read(&mut clock, fd, 0, 64 * 1024).is_none());
        assert_eq!(os.stats().hit_pages.get(), 0);

        os.readahead_info(
            &mut clock,
            fd,
            RaInfoRequest::prefetch(0, 1 << 20).with_limit_pages(256),
        );
        let syscalls_before = os.stats().syscalls.get();
        let outcome = os
            .absorb_read(&mut clock, fd, 0, 64 * 1024)
            .expect("fully cached range absorbs");
        assert_eq!(os.stats().syscalls.get(), syscalls_before);
        assert_eq!(outcome.pages, 16);
        assert_eq!(outcome.hit_pages, 16);
        assert_eq!(outcome.miss_pages, 0);
        assert_eq!(outcome.prefetch_hit_pages, 16);
        assert_eq!(os.stats().absorbed_reads.get(), 1);
        assert_eq!(os.stats().hit_pages.get(), 16);
        // Re-absorbing the same range is a plain cache hit now.
        let again = os.absorb_read(&mut clock, fd, 0, 64 * 1024).unwrap();
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
                os.absorb_read(&mut clock, fd, 0, 256 * 1024).unwrap()
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
                fd,
                RaInfoRequest::prefetch(0, 1 << 20).with_limit_pages(256),
            )
            .unwrap_err();
        assert_eq!(err, IoError::Io);
        // Nothing inserted: a later query sees an empty cache.
        let info = os
            .try_readahead_info(&mut clock, fd, RaInfoRequest::query(0, 1 << 20))
            .unwrap();
        assert_eq!(info.cached_pages, 0);
        assert_eq!(os.stats().prefetched_pages.get(), 0);
    }
}
