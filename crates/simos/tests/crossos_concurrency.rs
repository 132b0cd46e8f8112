//! Concurrency-focused tests for the CROSS-OS extension: the delineated
//! paths, bitmap consistency under parallel mutation, and the contention
//! accounting that Figure 6 and Table 1 are built on.

use simos::{
    Device, DeviceConfig, FileSystem, FsKind, Os, OsConfig, RaBatchEntry, RaInfoRequest, PAGE_SIZE,
};
use std::sync::Arc;

fn boot(memory_mb: u64) -> Arc<Os> {
    Os::new(
        OsConfig::with_memory_mb(memory_mb),
        Device::new(DeviceConfig::local_nvme()),
        FileSystem::new(FsKind::Ext4Like),
    )
}

#[test]
fn concurrent_readahead_info_never_double_fetches() {
    let os = boot(512);
    let mut setup = os.new_clock();
    os.create_sized(&mut setup, "/c", 64 << 20).unwrap();

    crossbeam::scope(|scope| {
        for t in 0..8u64 {
            let os = Arc::clone(&os);
            scope.spawn(move |_| {
                let mut clock = os.new_clock();
                let fd = os.open(&mut clock, "/c").unwrap();
                // All threads prefetch the same 16 MiB, 2 MiB at a time.
                for i in 0..8u64 {
                    os.readahead_info(
                        &mut clock,
                        fd,
                        RaInfoRequest::prefetch(i * (2 << 20), 2 << 20).with_limit_pages(512),
                    );
                }
                let _ = t;
            });
        }
    })
    .unwrap();

    // Exactly one copy of the 16 MiB went over the device, regardless of
    // which thread fetched which part.
    let expected = 16u64 << 20;
    let read = os.device().stats().read_bytes.get();
    assert_eq!(read, expected, "each page fetched exactly once");
    let cache = os.cache(os.fs().lookup("/c").unwrap());
    assert_eq!(cache.state.read().resident(), expected / PAGE_SIZE);
}

/// The same race with the two vectored classes mixed: half the threads
/// submit each 2 MiB piece as a demand-class batch entry, half as a
/// prefetch-class one. Both fill under the per-inode guard, so every page
/// still crosses the device once.
#[test]
fn concurrent_demand_class_entries_never_double_fetch() {
    let os = boot(512);
    let mut setup = os.new_clock();
    os.create_sized(&mut setup, "/e", 64 << 20).unwrap();

    crossbeam::scope(|scope| {
        for t in 0..8u64 {
            let os = Arc::clone(&os);
            scope.spawn(move |_| {
                let mut clock = os.new_clock();
                let fd = os.open(&mut clock, "/e").unwrap();
                for i in 0..8u64 {
                    let entry = RaBatchEntry::new(fd, i * (2 << 20), 2 << 20).with_limit_pages(512);
                    let entry = if t % 2 == 0 {
                        entry.with_demand_class()
                    } else {
                        entry
                    };
                    os.try_readahead_batch(&mut clock, &[entry]).unwrap();
                }
            });
        }
    })
    .unwrap();

    let expected = 16u64 << 20;
    assert_eq!(os.device().stats().read_bytes.get(), expected);
    assert_eq!(os.stats().prefetched_pages.get(), expected / PAGE_SIZE);
}

#[test]
fn delineated_paths_charge_separate_locks() {
    let os = boot(512);
    let mut clock = os.new_clock();
    let fd = os.create_sized(&mut clock, "/d", 32 << 20).unwrap();
    let cache = os.cache(os.fd_inode(fd));

    // Prefetch-only activity: all contention on the bitmap lock.
    for i in 0..16u64 {
        os.readahead_info(
            &mut clock,
            fd,
            RaInfoRequest::prefetch(i * (1 << 20), 1 << 20).with_limit_pages(256),
        );
    }
    assert_eq!(cache.tree_lock.write_stats().acquisitions(), 0);
    let bitmap_writes = cache.bitmap_lock.write_stats().acquisitions();
    assert!(bitmap_writes > 0);

    // Regular-I/O activity: all churn on the tree lock, none on bitmap.
    for i in 0..64u64 {
        os.read_charge(&mut clock, fd, (16 << 20) + i * 64 * 1024, 64 * 1024);
    }
    assert!(cache.tree_lock.write_stats().acquisitions() > 0);
    assert_eq!(
        cache.bitmap_lock.write_stats().acquisitions(),
        bitmap_writes
    );
}

#[test]
fn bitmap_consistent_under_concurrent_read_and_prefetch() {
    let os = boot(1024);
    let mut setup = os.new_clock();
    os.create_sized(&mut setup, "/m", 64 << 20).unwrap();

    crossbeam::scope(|scope| {
        // Prefetchers walk forward; readers read random spots.
        for t in 0..4u64 {
            let os = Arc::clone(&os);
            scope.spawn(move |_| {
                let mut clock = os.new_clock();
                let fd = os.open(&mut clock, "/m").unwrap();
                for i in 0..64u64 {
                    os.readahead_info(
                        &mut clock,
                        fd,
                        RaInfoRequest::prefetch(((t * 64 + i) % 256) * 256 * 1024, 256 * 1024),
                    );
                }
            });
        }
        for t in 0..4u64 {
            let os = Arc::clone(&os);
            scope.spawn(move |_| {
                let mut clock = os.new_clock();
                let fd = os.open(&mut clock, "/m").unwrap();
                for i in 0..128u64 {
                    let offset = ((t * 997 + i * 131) % 16_000) * PAGE_SIZE;
                    os.read_charge(&mut clock, fd, offset, 16 * 1024);
                }
            });
        }
    })
    .unwrap();

    // Invariant: per-inode resident count equals the popcount of presence.
    let cache = os.cache(os.fs().lookup("/m").unwrap());
    let state = cache.state.read();
    let counted = state.present_in(0, (64 << 20) / PAGE_SIZE);
    assert_eq!(counted, state.resident());
    assert_eq!(os.mem().resident(), state.resident());
}

#[test]
fn mincore_reports_residency_and_charges_like_fincore() {
    let os = boot(256);
    let mut clock = os.new_clock();
    let fd = os.create_sized(&mut clock, "/mc", 4 << 20).unwrap();
    // Disable heuristic readahead so residency is exactly what we read.
    os.fadvise(&mut clock, fd, simos::Advice::Random, 0, 0);
    os.read_charge(&mut clock, fd, 0, 256 * 1024); // 64 pages cached

    let t0 = clock.now();
    let residency = os.mincore(&mut clock, fd, 0, 512 * 1024);
    let mincore_cost = clock.now() - t0;
    assert_eq!(residency.len(), 128);
    assert!(residency[..64].iter().all(|&r| r));
    assert!(residency[64..].iter().all(|&r| !r));

    // readahead_info's query fast path is far cheaper for the same range.
    let t1 = clock.now();
    os.readahead_info(&mut clock, fd, RaInfoRequest::query(0, 512 * 1024));
    let info_cost = clock.now() - t1;
    assert!(
        mincore_cost > 3 * info_cost,
        "mincore {mincore_cost}ns vs readahead_info query {info_cost}ns"
    );
}

#[test]
fn per_inode_lru_respects_budget_too() {
    let mut config = OsConfig::with_memory_mb(8);
    config.per_inode_lru = true;
    let os = Os::new(
        config,
        Device::new(DeviceConfig::local_nvme()),
        FileSystem::new(FsKind::Ext4Like),
    );
    let mut clock = os.new_clock();
    let fd = os.create_sized(&mut clock, "/big", 64 << 20).unwrap();
    for i in 0..1024u64 {
        os.read_charge(&mut clock, fd, i * 64 * 1024, 64 * 1024);
    }
    assert!(os.mem().resident() <= os.mem().budget());
    assert!(os.mem().evicted.get() > 0);
}

#[test]
fn telemetry_counters_are_monotone_under_concurrency() {
    let os = boot(256);
    let mut setup = os.new_clock();
    os.create_sized(&mut setup, "/t", 32 << 20).unwrap();
    crossbeam::scope(|scope| {
        for _ in 0..8 {
            let os = Arc::clone(&os);
            scope.spawn(move |_| {
                let mut clock = os.new_clock();
                let fd = os.open(&mut clock, "/t").unwrap();
                for i in 0..64u64 {
                    os.read_charge(&mut clock, fd, i * 128 * 1024, 128 * 1024);
                }
            });
        }
    })
    .unwrap();
    let stats = os.stats();
    // 8 threads x 64 reads + 8 opens; every read accounted.
    assert_eq!(stats.reads.get(), 8 * 64);
    assert_eq!(
        stats.hit_pages.get() + stats.miss_pages.get(),
        8 * 64 * 32 // 128 KiB = 32 pages per read
    );
}
