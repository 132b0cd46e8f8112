//! Memory-mapped access path.
//!
//! `mmap` I/O has no syscalls to intercept: access pattern information only
//! surfaces as page faults. Present pages cost a minor TLB/page-table touch;
//! absent pages take a major fault — address-space lock, device read, and
//! (unless the mapping is advised `Random`) Linux-style fault-around that
//! pulls a small window of neighbouring pages.

use simclock::ThreadClock;
use simstore::IoPriority;

use crate::os::{into_ok, FdEntry, NeverFault, Os, PAGE_SIZE};
use crate::readahead::RaMode;

/// Outcome of an [`Os::mmap_read`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MmapOutcome {
    /// Pages touched by the access.
    pub pages: u64,
    /// Pages that were already resident.
    pub minor: u64,
    /// Pages that took a major fault.
    pub major: u64,
}

impl Os {
    /// Installs an access-pattern advice on a mapping (madvise analogue).
    /// `Random` disables fault-around for the descriptor.
    pub fn madvise(&self, clock: &mut ThreadClock, file: &FdEntry, advice: crate::os::Advice) {
        self.fadvise(clock, file, advice, 0, 0);
    }

    /// Simulates load instructions over `[offset, offset + len)` of a
    /// mapped file.
    ///
    /// No syscall cost is charged — that is the point of `mmap` — but every
    /// absent page pays a major fault, and fault-around readahead applies
    /// unless the descriptor was advised `Random`.
    pub fn mmap_read(
        &self,
        clock: &mut ThreadClock,
        file: &FdEntry,
        offset: u64,
        len: u64,
    ) -> MmapOutcome {
        let costs = &self.config().costs;
        let cache = &file.cache;
        let size = cache.inode.size();
        let len = len.min(size.saturating_sub(offset));
        if len == 0 {
            return MmapOutcome::default();
        }
        let p0 = offset / PAGE_SIZE;
        let p1 = (offset + len).div_ceil(PAGE_SIZE);
        let file_pages = size.div_ceil(PAGE_SIZE);
        let fault_around = match file.ra.lock().mode() {
            RaMode::Random => 0,
            _ => self.config().fault_around_pages,
        };

        let mut outcome = MmapOutcome {
            pages: p1 - p0,
            ..MmapOutcome::default()
        };
        let mut page = p0;
        while page < p1 {
            let (present, ready) = {
                let state = cache.state.read();
                (state.is_present(page), state.ready_max(page, page + 1))
            };
            if present {
                outcome.minor += 1;
                clock.advance(costs.mmap_minor_ns);
                clock.advance_to(ready);
                cache.hits.incr();
                self.stats().hit_pages.incr();
                page += 1;
                continue;
            }

            // Major fault: address-space lock (shared), then fill the page
            // plus the fault-around window through the cache tree.
            outcome.major += 1;
            cache.misses.incr();
            self.stats().miss_pages.incr();
            clock.advance(costs.fault_ns);
            let mmap_access = self.mmap_lock().access(clock.now(), costs.lock_op_ns);
            clock.advance_to(mmap_access.end_ns);

            let fill_end = (page + 1 + fault_around).min(file_pages);
            let missing = cache.state.read().missing_runs(page, fill_end);
            let total: u64 = missing.iter().map(|&(s, e)| e - s).sum();
            if total > 0 {
                for &(s, e) in &missing {
                    into_ok(self.charge_read_runs::<NeverFault>(
                        clock,
                        &cache.inode,
                        s,
                        e - s,
                        IoPriority::Blocking,
                    ));
                }
                let hold = costs.tree_insert_per_page_ns * total;
                let tree = cache.tree_lock.write(clock.now(), hold);
                clock.advance_to(tree.end_ns);
                let now = clock.now();
                let mut newly = 0;
                {
                    let mut state = cache.state.write();
                    for &(s, e) in &missing {
                        newly += state.insert_range(s, e, now, 0);
                    }
                }
                if self.mem().note_inserted(newly) {
                    self.reclaim(clock);
                }
            }
            page += 1;
        }
        let now = clock.now();
        cache.state.write().touch_range(p0, p1, now);
        outcome
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::os::{Advice, Fd};
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
        let fd = os.create_sized(&mut clock, "/m", bytes).unwrap();
        (os, fd, clock)
    }

    #[test]
    fn first_touch_major_faults_with_fault_around() {
        let (os, fd, mut clock) = os_with_file(1 << 20);
        let outcome = os.mmap_read(&mut clock, &os.fd_entry(fd), 0, 4096);
        assert_eq!(outcome.major, 1);
        // Fault-around made the neighbours resident.
        let outcome2 = os.mmap_read(&mut clock, &os.fd_entry(fd), 4096, 4096 * 8);
        assert_eq!(outcome2.major, 0);
        assert_eq!(outcome2.minor, 8);
    }

    #[test]
    fn random_advice_disables_fault_around() {
        let (os, fd, mut clock) = os_with_file(1 << 20);
        os.madvise(&mut clock, &os.fd_entry(fd), Advice::Random);
        let outcome = os.mmap_read(&mut clock, &os.fd_entry(fd), 0, 4096);
        assert_eq!(outcome.major, 1);
        let outcome2 = os.mmap_read(&mut clock, &os.fd_entry(fd), 4096, 4096);
        assert_eq!(outcome2.major, 1, "no fault-around under Random advice");
    }

    #[test]
    fn minor_faults_are_cheap() {
        let (os, fd, mut clock) = os_with_file(1 << 20);
        os.mmap_read(&mut clock, &os.fd_entry(fd), 0, 64 * 4096);
        let before = clock.now();
        os.mmap_read(&mut clock, &os.fd_entry(fd), 0, 16 * 4096);
        let minor_cost = clock.now() - before;
        assert!(minor_cost < 100_000, "resident touch cost {minor_cost}ns");
    }

    /// On a tiered OS a major fault is served by the tier the placement
    /// map names: never-promoted blocks move the remote device's counters
    /// only, promoted ones the local device's — and count as the
    /// application touching them, so a later demotion is not "wasted".
    #[test]
    fn tiered_major_faults_charge_the_tier_holding_the_blocks() {
        use simstore::TieredStore;
        let os = Os::new_tiered(
            OsConfig::with_memory_mb(256),
            TieredStore::new(
                Device::new(DeviceConfig::local_nvme()),
                Device::new(DeviceConfig::remote_nvmeof()),
                4096,
            ),
            FileSystem::new(FsKind::Ext4Like),
        );
        let mut clock = os.new_clock();
        let fd = os.create_sized(&mut clock, "/t", 1 << 20).unwrap();
        let ino = os.fd_inode(fd);
        let tiered = os.tiered().unwrap();

        os.mmap_read(&mut clock, &os.fd_entry(fd), 0, 64 * PAGE_SIZE);
        let resident = os.cache(ino).state.read().resident();
        assert!(resident >= 64);
        assert_eq!(
            tiered.remote().stats().read_bytes.get(),
            resident * PAGE_SIZE
        );
        assert_eq!(tiered.local().stats().read_bytes.get(), 0);

        // Promote an untouched range at the store level (no cache insert),
        // then fault it in: the reads land on the local device.
        let phys: Vec<(u64, u64)> = os
            .fs()
            .inode(ino)
            .map_blocks(128, 64)
            .iter()
            .map(|run| (run.pstart, run.blocks))
            .collect();
        tiered
            .try_promote(&mut clock, ino.0, 128, 64, &phys)
            .unwrap();
        let remote_before = tiered.remote().stats().read_bytes.get();
        os.madvise(&mut clock, &os.fd_entry(fd), Advice::Random);
        os.mmap_read(
            &mut clock,
            &os.fd_entry(fd),
            128 * PAGE_SIZE,
            64 * PAGE_SIZE,
        );
        assert_eq!(
            tiered.local().stats().read_bytes.get(),
            64 * PAGE_SIZE,
            "promoted blocks must be read from the local tier"
        );
        assert_eq!(tiered.remote().stats().read_bytes.get(), remote_before);
        let map = |f: u64, lb: u64| os.fs().inode(simfs::InodeId(f)).map_block(lb);
        assert_eq!(tiered.demote_cold(&mut clock, 64, &map), 64);
        assert_eq!(tiered.stats().promoted_wasted_blocks.get(), 0);
    }

    #[test]
    fn mmap_read_clamps_to_file_size() {
        let (os, fd, mut clock) = os_with_file(8 * 4096);
        let outcome = os.mmap_read(&mut clock, &os.fd_entry(fd), 0, u64::MAX / 4);
        assert_eq!(outcome.pages, 8);
    }
}
