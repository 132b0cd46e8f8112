//! Concurrency-focused tests for the CROSS-OS extension: the delineated
//! paths, bitmap consistency under parallel mutation, and the contention
//! accounting that Figure 6 and Table 1 are built on.

use simos::{
    Advice, Device, DeviceConfig, FileSystem, FsKind, MayFault, Os, OsConfig, RaBatchEntry,
    RaInfoRequest, PAGE_SIZE,
};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Barrier};

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

/// The same race over the two fill paths: half the threads send each
/// 2 MiB piece as a rider on a ring crossing, half as a `readahead_info`
/// prefetch. Both fill under the per-inode guard, so every page still
/// crosses the device once.
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
                let file = os.fd_entry(fd);
                for i in 0..8u64 {
                    let (offset, len) = (i * (2 << 20), 2 << 20);
                    if t % 2 == 0 {
                        let rider = RaBatchEntry::new(&file, offset, len).with_limit_pages(512);
                        os.read_batch::<MayFault>(&mut clock, &[], &[rider])
                            .unwrap();
                    } else {
                        let req = RaInfoRequest::prefetch(offset, len).with_limit_pages(512);
                        os.try_readahead_info(&mut clock, &file, req).unwrap();
                    }
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
    os.fadvise(&mut clock, &os.fd_entry(fd), simos::Advice::Random, 0, 0);
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

/// The absorb race gate: reader threads absorb one 64-page range through
/// the shared bitmap while another thread prefetches it and drops it again
/// with `fadvise(DontNeed)`, the whole range or only its second half. An
/// absorb checks the bitmap and classifies the pages under one state lock,
/// so it returns `Some` only for a range that was whole when it checked,
/// booked as 64 hits: a reader that saw the range broken for the whole of
/// its absorb (the churn thread's generation, odd while it mutates, did
/// not move) must get `None`. A `None` leaves the range untouched and the
/// reader crosses with `read(2)` for the range's first half instead (with
/// readahead off, so only the churn thread ever makes the range whole).
/// Every page read is then booked exactly once, as a hit or a miss, and
/// the bitmap's popcount still equals the resident count.
#[test]
fn absorb_races_prefetch_and_dontneed() {
    const PAGES: u64 = 64;
    const READS: u64 = 2_000;
    const READERS: u64 = 3;
    let os = boot(256);
    let mut setup = os.new_clock();
    os.create_sized(&mut setup, "/a", 4 << 20).unwrap();
    let len = PAGES * PAGE_SIZE;
    let start = Barrier::new(READERS as usize + 1);
    let done = AtomicBool::new(false);
    // Even: no mutation in flight; 4k: the range broken, 4k + 2: whole.
    let generation = AtomicU64::new(0);

    let (absorbed, refused) = crossbeam::scope(|scope| {
        let churn = {
            let (os, start, done, generation) = (Arc::clone(&os), &start, &done, &generation);
            scope.spawn(move |_| {
                let mut clock = os.new_clock();
                let fd = os.open(&mut clock, "/a").unwrap();
                let file = os.fd_entry(fd);
                start.wait();
                let mut churns = 0u64;
                while !done.load(Ordering::SeqCst) {
                    generation.fetch_add(1, Ordering::SeqCst);
                    let req = RaInfoRequest::prefetch(0, len).with_limit_pages(PAGES);
                    os.try_readahead_info(&mut clock, &file, req).unwrap();
                    generation.fetch_add(1, Ordering::SeqCst);
                    std::thread::yield_now();
                    generation.fetch_add(1, Ordering::SeqCst);
                    let from = if churns.is_multiple_of(2) { 0 } else { len / 2 };
                    os.fadvise(&mut clock, &file, Advice::DontNeed, from, len - from);
                    generation.fetch_add(1, Ordering::SeqCst);
                    std::thread::yield_now();
                    churns += 1;
                }
            })
        };
        let readers: Vec<_> = (0..READERS)
            .map(|_| {
                let (os, start, generation) = (Arc::clone(&os), &start, &generation);
                scope.spawn(move |_| {
                    let mut clock = os.new_clock();
                    let fd = os.open(&mut clock, "/a").unwrap();
                    let file = os.fd_entry(fd);
                    os.fadvise(&mut clock, &file, Advice::Random, 0, 0);
                    let (mut absorbed, mut refused) = (0u64, 0u64);
                    start.wait();
                    for _ in 0..READS {
                        let before = generation.load(Ordering::SeqCst);
                        let absorb = os.absorb_read(&mut clock, &file, 0, len);
                        if before % 4 == 0 && generation.load(Ordering::SeqCst) == before {
                            assert!(absorb.is_none(), "absorbed a range broken throughout");
                            refused += 1;
                        }
                        match absorb {
                            Some(outcome) => {
                                assert_eq!(
                                    (outcome.pages, outcome.hit_pages, outcome.miss_pages),
                                    (PAGES, PAGES, 0),
                                    "an absorb served a range that was not whole"
                                );
                                absorbed += 1;
                            }
                            None => {
                                let outcome = os.read_charge(&mut clock, fd, 0, len / 2);
                                assert_eq!(outcome.pages, PAGES / 2);
                            }
                        }
                        std::thread::yield_now();
                    }
                    (absorbed, refused)
                })
            })
            .collect();
        // Stop the churn before a failed reader's panic propagates.
        let joined: Vec<_> = readers.into_iter().map(|reader| reader.join()).collect();
        done.store(true, Ordering::SeqCst);
        churn.join().unwrap();
        joined
            .into_iter()
            .map(|counts| counts.unwrap())
            .fold((0, 0), |(a, r), (ra, rr)| (a + ra, r + rr))
    })
    .unwrap();

    assert!(refused > 0, "no absorb met a range broken throughout");
    let stats = os.stats();
    assert_eq!(stats.absorbed_reads.get(), absorbed);
    let crossed = READERS * READS - absorbed;
    assert_eq!(stats.reads.get(), crossed);
    assert_eq!(
        stats.hit_pages.get() + stats.miss_pages.get(),
        absorbed * PAGES + crossed * PAGES / 2,
        "every page read is booked once, as a hit or a miss"
    );
    let cache = os.cache(os.fs().lookup("/a").unwrap());
    let state = cache.state.read();
    assert_eq!(state.present_in(0, (4 << 20) / PAGE_SIZE), state.resident());
    assert_eq!(os.mem().resident(), state.resident());
}
