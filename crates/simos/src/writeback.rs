//! The write path: `write`, `fsync` and the CAWL-style write-back daemon.
//!
//! Writes absorb into the page cache; [`Os::flush_runs`] writes a file's
//! dirty runs back when a [`FlushCause`] forces it, and
//! [`Os::flush_dropped`] writes back the dirty runs an eviction path
//! removed, each to the tier that holds it. This module owns the dirty
//! ledger, `dirtied == written_back + dropped + dirty now`: three calls
//! make every transition, each moving the dirty gauge and its `OsStats`
//! counter together ([`Os::note_dirtied`], [`Os::note_written_back`],
//! [`Os::note_discarded`]).

use std::sync::Arc;

use simclock::{Counter, ThreadClock};
use simfs::Inode;
use simstore::{Device, IoPriority};

use crate::cache::{InodeCache, PageRange};
use crate::error::IoError;
use crate::os::{into_ok, FaultMode, Fd, FdEntry, MayFault, NeverFault, Os, PAGE_SIZE};
use crate::stats::OsStats;
use crate::trace::OsSpanKind;

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

/// Why a file's dirty runs are flushed.
#[derive(Debug, Clone, Copy)]
enum FlushCause {
    /// `fsync` or a write-through write.
    Sync,
    /// The file's dirty threshold, or the daemon's background sweep.
    Threshold,
    /// Global dirty past [`DIRTY_LIMIT_PAGES`].
    HardLimit,
    /// The file's oldest dirty page outlived [`DIRTY_DEADLINE_NS`].
    Deadline,
}

impl FlushCause {
    /// Whether the caller waits for the device, and the counter the flush
    /// bumps (a hard-limit flush counts as a threshold flush).
    fn effect(self, stats: &OsStats) -> (bool, &Counter) {
        match self {
            Self::Sync => (true, &stats.wb_flush_sync),
            Self::Threshold => (false, &stats.wb_flush_threshold),
            Self::HardLimit => (true, &stats.wb_flush_threshold),
            Self::Deadline => (false, &stats.wb_flush_deadline),
        }
    }
}

impl Os {
    /// The charging half of the write path; [`Os::write_content`] lands
    /// the bytes. Never consults the fault plan's EIO schedule.
    pub fn write_charge(&self, clock: &mut ThreadClock, fd: Fd, offset: u64, len: u64) -> u64 {
        into_ok(self.write_charge_as::<NeverFault>(clock, &self.fd_entry(fd), offset, len))
    }

    /// Fallible variant of [`Os::write_charge`]:
    /// [`Os::write_charge_as`]`::<MayFault>`.
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
        self.write_charge_as::<MayFault>(clock, &self.fd_entry(fd), offset, len)
    }

    /// The write syscall under fault discipline `F`: the read-modify-write
    /// head/tail demand reads consult the fault plan under [`MayFault`].
    /// On an injected fault nothing is inserted or dirtied — a retry
    /// redoes the whole write. The absorbed write itself never fails
    /// (write-back happens later, off the caller's syscall).
    ///
    /// # Errors
    ///
    /// Under [`MayFault`], [`IoError::Io`] when the fault plan injects an
    /// EIO into the RMW demand read.
    pub fn write_charge_as<F: FaultMode>(
        &self,
        clock: &mut ThreadClock,
        file: &FdEntry,
        offset: u64,
        len: u64,
    ) -> Result<u64, F::Error> {
        let costs = &self.config().costs;
        let stats = self.stats();
        clock.advance(costs.syscall_ns);
        stats.syscalls.incr();
        stats.writes.incr();
        if len == 0 {
            return Ok(0);
        }
        let cache = &*file.cache;
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
                    self.charge_read_runs::<F>(clock, &cache.inode, page, 1, IoPriority::Blocking)
                {
                    stats.demand_read_errors.incr();
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
        self.note_dirtied(dirtied);
        clock.advance(costs.copy_pages_ns(pages));
        stats.bytes_written.add(len);
        cache.inode.set_size(offset + len);
        if self.mem().note_inserted(newly) {
            self.reclaim(clock);
        }

        if self.writeback.write_through {
            self.flush_runs(clock, cache, FlushCause::Sync);
            return Ok(len);
        }
        if cache.state.read().dirty_pages() >= self.writeback.file_dirty_threshold_pages {
            self.flush_runs(clock, cache, FlushCause::Threshold);
        } else if self.mem().dirty() > DIRTY_LIMIT_PAGES {
            self.flush_runs(clock, cache, FlushCause::HardLimit);
        }
        self.writeback_tick(clock);
        Ok(len)
    }

    /// `fsync(2)`: synchronously flush the file.
    pub fn fsync(&self, clock: &mut ThreadClock, file: &FdEntry) {
        clock.advance(self.config().costs.syscall_ns);
        self.stats().syscalls.incr();
        self.flush_runs(clock, &file.cache, FlushCause::Sync);
    }

    /// One write-back daemon pass: flushes files whose oldest dirty page
    /// has outlived the virtual-time deadline, then — while global dirty
    /// occupancy exceeds the soft background threshold — sweeps the
    /// longest-dirty files first. The write path calls this after every
    /// absorbed write.
    fn writeback_tick(&self, clock: &mut ThreadClock) {
        let now = clock.now();
        let mut dirty_files: Vec<(u64, Arc<InodeCache>)> = Vec::new();
        for cache in self.all_caches() {
            let state = cache.state.read();
            if state.dirty_pages() > 0 {
                let since = state.dirty_since_ns();
                drop(state);
                dirty_files.push((since, cache));
            }
        }
        dirty_files.sort_unstable_by_key(|(since, cache)| (*since, cache.inode.ino()));
        for (since, cache) in &dirty_files {
            if *since != 0 && since.saturating_add(DIRTY_DEADLINE_NS) <= now {
                self.flush_runs(clock, cache, FlushCause::Deadline);
            }
        }
        for (_, cache) in &dirty_files {
            if self.mem().dirty() <= self.writeback.background_dirty_pages {
                break;
            }
            self.flush_runs(clock, cache, FlushCause::Threshold);
        }
    }

    /// The run flush: clears a file's dirty runs and writes them back,
    /// merging runs whose clean gap is at most [`COALESCE_GAP_PAGES`]
    /// into one device crossing (the gap pages ride along as extra bytes
    /// — strictly fewer write requests for a few redundant writes). Each
    /// merged run is charged once per device currently holding part of
    /// it, on the caller's clock when `cause` is synchronous, detached
    /// from it otherwise. A flush that finds the file clean does nothing
    /// and counts nothing.
    fn flush_runs(&self, clock: &mut ThreadClock, cache: &InodeCache, cause: FlushCause) {
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
            return;
        }
        self.note_written_back(dirty);
        let stats = self.stats();
        let (sync, counter) = cause.effect(stats);
        counter.incr();

        // Gap-coalesce adjacent runs into single crossings.
        let mut merged: Vec<(u64, u64)> = Vec::new();
        for &(s, e) in &runs {
            match merged.last_mut() {
                Some(last) if s - last.1 <= COALESCE_GAP_PAGES => {
                    stats.wb_runs_coalesced.incr();
                    last.1 = e;
                }
                _ => merged.push((s, e)),
            }
        }

        let mut detached = ThreadClock::detached_at(clock.now());
        let (io, priority) = if sync {
            (clock, IoPriority::Blocking)
        } else {
            (&mut detached, IoPriority::Prefetch)
        };
        let t0 = io.now();
        for &(s, e) in &merged {
            into_ok(
                self.tier_runs(&cache.inode, s, e - s, None, |_, count, device| {
                    stats.wb_runs_flushed.incr();
                    device.charge_write(io, count, priority);
                    Ok(())
                }),
            );
        }
        self.emit_window(io.now(), OsSpanKind::WritebackFlush, io.now() - t0);
    }

    /// The drop flush: writes back the dirty runs an eviction path
    /// (`fadvise(DONTNEED)`, `drop_caches`, reclaim) removed from the
    /// cache, each run given with its file. Every run is routed through
    /// [`Os::tier_runs`], as the run flush routes, and each device is
    /// charged one write of the pages it holds: one write on an un-tiered
    /// OS, at most one per tier on a tiered one. The write lands on the
    /// caller's clock at demand priority when `sync`, detached from it at
    /// background priority otherwise.
    pub(crate) fn flush_dropped(
        &self,
        clock: &mut ThreadClock,
        dropped: &[(&Inode, Vec<PageRange>)],
        sync: bool,
    ) {
        let mut per_device: Vec<(&Arc<Device>, u64)> = Vec::new();
        for (inode, runs) in dropped {
            for &(s, e) in runs {
                into_ok(self.tier_runs(inode, s, e - s, None, |_, count, device| {
                    match per_device.iter_mut().find(|(d, _)| Arc::ptr_eq(d, device)) {
                        Some((_, pages)) => *pages += count,
                        None => per_device.push((device, count)),
                    }
                    Ok(())
                }));
            }
        }
        let pages: u64 = per_device.iter().map(|&(_, pages)| pages).sum();
        if pages == 0 {
            return;
        }
        self.note_written_back(pages);
        self.stats().wb_flush_drop.incr();
        let mut detached = ThreadClock::detached_at(clock.now());
        let (io, priority) = if sync {
            (clock, IoPriority::Blocking)
        } else {
            (&mut detached, IoPriority::Prefetch)
        };
        for (device, pages) in per_device {
            device.charge_write(io, pages, priority);
        }
    }

    /// Ledger: a write newly dirtied `pages`.
    fn note_dirtied(&self, pages: u64) {
        self.mem().note_dirtied(pages);
        self.stats().dirtied_pages.add(pages);
    }

    /// Ledger: a flush wrote `pages` dirty pages back to a device.
    fn note_written_back(&self, pages: u64) {
        self.mem().note_cleaned(pages);
        self.stats().written_back_pages.add(pages);
    }

    /// Ledger: `unlink` discarded `pages` dirty pages without device I/O.
    pub(crate) fn note_discarded(&self, pages: u64) {
        self.mem().note_cleaned(pages);
        self.stats().dropped_dirty_pages.add(pages);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn write_path_constants_are_pinned() {
        assert_eq!(DIRTY_LIMIT_PAGES, 4096);
        assert_eq!(DIRTY_DEADLINE_NS, 500 * simclock::NS_PER_MS);
        assert_eq!(COALESCE_GAP_PAGES, 8);
    }
}
