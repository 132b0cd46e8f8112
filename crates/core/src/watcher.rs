//! The §4.6 memory watcher: under memory pressure CROSS-LIB gives the OS
//! back pages it knows are spent, before the OS's word LRU evicts blind.
//!
//! It runs after every intercepted access in a `+opt` mode (the
//! [`PostReadHook::MemoryWatcher`](crate::policy::PostReadHook) hook), and
//! only while free memory is below [`EVICT_TRIGGER`], in this order:
//!
//! 1. **Idle files** ([`Runtime::maybe_evict`]): at most once per scan
//!    interval, *other* files idle past `evict_min_idle_ns` are dropped
//!    whole, inactive ones first, until free memory is back at
//!    [`EVICT_TARGET`].
//! 2. **The run behind the reader** (drop-behind): if free memory is still
//!    below the trigger, the oldest 64-page word the descriptor's current
//!    forward run has read in full goes back to the OS — one word per
//!    access, so the freed memory never widens the admission clamp by more
//!    than the stream consumes, and reclaim's aggressive pause still sees
//!    the pressure (it counts these pages too).
//!
//! The run is what the descriptor read as one steady forward stream
//! (`DefinitelySequential`, `Forward`, not `jumped`), kept in the
//! descriptor's record ([`Outstanding`]): the descriptor's first access,
//! a jump and any other access that is not steady restart it at the next
//! word boundary past the access, so a burst of a few reads at a random
//! offset never returns the file below it. A word
//! holding dirty pages is left to write-back, and nothing is returned
//! while another handle is open on the file: it may still be reading what
//! this one has passed.

use std::sync::atomic::Ordering;
use std::sync::Arc;

use simclock::ThreadClock;
use simos::{Advice, InodeId, PAGE_SIZE};
use simstore::wordwalk::WORD_BITS;

use crate::outstanding::Outstanding;
use crate::runtime::{CpFile, LibFile, Runtime};
use crate::trace::TraceEventKind;

/// The memory watcher begins evicting when free memory drops below this
/// fraction of the budget.
pub(crate) const EVICT_TRIGGER: f64 = 0.10;
/// The idle-file pass stops evicting once free memory is back at this
/// fraction of the budget.
pub(crate) const EVICT_TARGET: f64 = 0.25;

impl Runtime {
    pub(crate) fn free_fraction(&self) -> f64 {
        let mem = self.inner.os.mem();
        mem.free_pages() as f64 / mem.budget().max(1) as f64
    }

    /// Runs the §4.6 aggressive-reclamation policy if free memory dropped
    /// below the trigger: evict least-recently-used files (preferring those
    /// idle past [`OsConfig::inactive_after_ns`](simos::OsConfig::inactive_after_ns))
    /// via `fadvise(DONTNEED)` until the target is met.
    pub fn maybe_evict(&self, clock: &mut ThreadClock, current: InodeId) {
        let inner = &self.inner;
        if !inner.policy.features.aggressive || self.free_fraction() >= EVICT_TRIGGER {
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
            let resident = file.os_file.cache.state.read().resident();
            if resident == 0 {
                continue;
            }
            // Charge what the fadvise actually dropped, not the residency
            // snapshot above: OS reclaim can race between the snapshot and
            // the advice call, and the snapshot would over-count.
            let dropped = inner
                .os
                .fadvise(clock, &file.os_file, Advice::DontNeed, 0, u64::MAX);
            file.tree.clear(clock, costs, self.scope());
            if dropped == 0 {
                continue;
            }
            inner.stats.files_evicted.incr();
            self.note_lib_evicted(clock.now(), file.ino, dropped);
        }
        inner.metrics.evict_scan_ns.record(clock.now() - now);
    }

    /// Books pages CROSS-LIB returned to the OS: the report's
    /// `pages_evicted_by_lib` and a `LibEvict` trace event.
    fn note_lib_evicted(&self, now: u64, ino: InodeId, pages: u64) {
        self.inner.stats.pages_evicted.add(pages);
        self.inner
            .trace
            .emit(now, TraceEventKind::LibEvict { ino, pages });
    }
}

impl CpFile {
    /// The watcher's post-access hook for the access `[p0, p1)`;
    /// `forward_run` is whether it continued a steady forward read run
    /// ([`Outstanding::step_run`]).
    pub(crate) fn watch_memory(
        &self,
        clock: &mut ThreadClock,
        outstanding: &mut Outstanding,
        p0: u64,
        p1: u64,
        forward_run: bool,
    ) {
        outstanding.step_run(p1, forward_run);
        let runtime = &self.runtime;
        runtime.maybe_evict(clock, self.file.ino);
        if runtime.free_fraction() < EVICT_TRIGGER {
            self.drop_behind(clock, outstanding, p0);
        }
    }

    /// Returns the oldest whole word of the run behind `p0` to the OS
    /// ([`Outstanding::take_word_behind`]): a worker job, reserved one
    /// syscall, `DONTNEED`s it and clears it from the user-level view. A
    /// word with nothing resident or with dirty pages is passed over
    /// without a job.
    fn drop_behind(&self, clock: &mut ThreadClock, outstanding: &mut Outstanding, p0: u64) {
        let file = &self.file;
        if file.handles.load(Ordering::Relaxed) > 1 {
            return;
        }
        let Some((start, end)) = outstanding.take_word_behind(p0) else {
            return;
        };
        let (resident, dirty) = {
            let state = file.os_file.cache.state.read();
            let dirty = state.dirty_pages() > 0
                && state
                    .dirty_runs()
                    .iter()
                    .any(|&(s, e)| s < end && start < e);
            (state.present_in(start, end), dirty)
        };
        if resident == 0 || dirty {
            return;
        }
        let inner = &self.runtime.inner;
        let syscall_ns = inner.os.config().costs.syscall_ns;
        let (runtime, file) = (self.runtime.clone(), Arc::clone(file));
        let dispatch = inner
            .workers
            .dispatch(clock.now(), syscall_ns, move |wclock| {
                let os = runtime.os();
                let (offset, len) = (start * PAGE_SIZE, WORD_BITS * PAGE_SIZE);
                let dropped = os.fadvise(wclock, &file.os_file, Advice::DontNeed, offset, len);
                let costs = &os.config().costs;
                file.tree
                    .clear_range(wclock, costs, runtime.scope(), start, end);
                if dropped > 0 {
                    runtime.note_lib_evicted(wclock.now(), file.ino, dropped);
                }
            });
        self.runtime.note_queue_wait(&dispatch);
    }
}

#[cfg(test)]
mod tests {
    use simos::{Device, DeviceConfig, FileSystem, FsKind, Os, OsConfig, PAGE_SIZE};

    use crate::outstanding::run_start;
    use crate::{Mode, Runtime, RuntimeConfig};

    /// A fresh descriptor's first access starts its run past itself, even
    /// a read large enough for the predictor to call it steady at once: a
    /// stream opened mid-file never returns the words below where it began.
    #[test]
    fn a_first_access_starts_the_run_past_itself() {
        let os = Os::new(
            OsConfig::with_memory_mb(64),
            Device::new(DeviceConfig::local_nvme()),
            FileSystem::new(FsKind::Ext4Like),
        );
        let runtime = Runtime::new(os, RuntimeConfig::new(Mode::PredictOpt));
        let mut clock = runtime.new_clock();
        let file = runtime.create_sized(&mut clock, "/f", 64 << 20).unwrap();
        let (p0, pages) = (1000, 256);
        file.read_charge(&mut clock, p0 * PAGE_SIZE, pages * PAGE_SIZE);
        let run_start = run_start(&file.outstanding.lock());
        assert_eq!(run_start, Some((p0 + pages).next_multiple_of(64)));
    }

    /// A jump restarts the run wherever the descriptor makes it, on the
    /// mapped path too: reads after a mapped jump never inherit the run
    /// the descriptor's earlier reads left far behind.
    #[test]
    fn a_mapped_jump_restarts_the_run_past_itself() {
        let os = Os::new(
            OsConfig::with_memory_mb(64),
            Device::new(DeviceConfig::local_nvme()),
            FileSystem::new(FsKind::Ext4Like),
        );
        let runtime = Runtime::new(os, RuntimeConfig::new(Mode::PredictOpt));
        let mut clock = runtime.new_clock();
        let file = runtime.create_sized(&mut clock, "/f", 64 << 20).unwrap();
        let chunk = 16 << 10;
        for i in 0..16 {
            file.read_charge(&mut clock, i * chunk, chunk);
        }
        let p0 = 8192;
        let mapped = file.mmap_read(&mut clock, p0 * PAGE_SIZE, 4 * PAGE_SIZE);
        let past = (p0 + mapped.pages).next_multiple_of(64);
        assert_eq!(run_start(&file.outstanding.lock()), Some(past));
    }

    /// One returned word leaves both the OS cache and the user-level view,
    /// on a worker reserved for its syscall, with the reader paying
    /// nothing; the run start stops at the reader's own word, and a word
    /// with nothing resident costs no job.
    #[test]
    fn a_returned_word_leaves_the_os_cache_and_the_view() {
        let os = Os::new(
            OsConfig::with_memory_mb(64),
            Device::new(DeviceConfig::local_nvme()),
            FileSystem::new(FsKind::Ext4Like),
        );
        let mut config = RuntimeConfig::new(Mode::PredictOpt);
        config.workers = 1;
        let runtime = Runtime::new(os, config);
        let mut clock = runtime.new_clock();
        let file = runtime.create_sized(&mut clock, "/f", 4 << 20).unwrap();
        let chunk = 16 << 10;
        for i in 0..3 * 64 * PAGE_SIZE / chunk {
            file.read_charge(&mut clock, i * chunk, chunk);
        }
        let mut outstanding = file.outstanding.lock();
        outstanding.step_run(0, false); // the run starts at page 0
        clock.advance(simclock::NS_PER_SEC); // every worker idle
        let (os, costs, scope) = (runtime.os(), &runtime.os().config().costs, runtime.scope());
        let present = |from, to| os.cache(file.ino()).state.read().present_in(from, to);
        assert_eq!(present(0, 192), 192);

        let now = clock.now();
        file.drop_behind(&mut clock, &mut outstanding, 192);
        assert_eq!(clock.now(), now, "the reader pays nothing");
        assert_eq!(run_start(&outstanding), Some(64));
        assert_eq!(runtime.stats().pages_evicted.get(), 64);
        assert_eq!((present(0, 64), present(64, 192)), (0, 128));
        let mut claimed = |from, to| file.file.tree.cached_in(&mut clock, costs, scope, from, to);
        assert_eq!((claimed(0, 64), claimed(64, 192)), (0, 128));
        let next = runtime.workers().dispatch(now, 0, |_| {});
        assert!(next.queue_wait_ns() >= costs.syscall_ns);

        file.drop_behind(&mut clock, &mut outstanding, 192);
        file.drop_behind(&mut clock, &mut outstanding, 192);
        file.drop_behind(&mut clock, &mut outstanding, 192);
        assert_eq!(run_start(&outstanding), Some(192));
        assert_eq!(runtime.stats().pages_evicted.get(), 192);

        let jobs = runtime.workers().jobs();
        outstanding.step_run(0, false);
        file.drop_behind(&mut clock, &mut outstanding, 192);
        assert_eq!(run_start(&outstanding), Some(64));
        assert_eq!(runtime.workers().jobs(), jobs, "nothing resident, no job");
    }

    /// A read past EOF delivers nothing, so it does not continue the run:
    /// a steady stream that reaches the end of the file under pressure
    /// returns no word for the read that finds the file exhausted, and
    /// its run restarts past that read.
    #[test]
    fn a_read_past_eof_returns_no_word() {
        let os = Os::new(
            OsConfig::with_memory_mb(16),
            Device::new(DeviceConfig::local_nvme()),
            FileSystem::new(FsKind::Ext4Like),
        );
        let runtime = Runtime::new(os, RuntimeConfig::new(Mode::PredictOpt));
        let mut clock = runtime.new_clock();
        let size = 32 << 20;
        let file = runtime.create_sized(&mut clock, "/f", size).unwrap();
        let chunk = 16 << 10;
        for i in 0..size / chunk {
            file.read_charge(&mut clock, i * chunk, chunk);
        }
        // Hold the cache full, so the watcher runs on the next access.
        let mem = runtime.os().mem();
        mem.note_inserted(mem.free_pages());
        let last_word = size / PAGE_SIZE - 64;
        let cache = runtime.os().cache(file.ino());
        assert_eq!(cache.state.read().present_in(last_word, last_word + 64), 64);
        let evicted = runtime.stats().pages_evicted.get();

        let outcome = file.read_charge(&mut clock, size, chunk);
        assert_eq!(outcome.pages, 0);
        assert_eq!(
            runtime.stats().pages_evicted.get(),
            evicted,
            "a word came back"
        );
        assert_eq!(cache.state.read().present_in(last_word, last_word + 64), 64);
        let past = (size + chunk) / PAGE_SIZE;
        assert_eq!(
            run_start(&file.outstanding.lock()),
            Some(past.next_multiple_of(64))
        );
    }
}
