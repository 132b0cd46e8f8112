//! Behavioural tests for the simulated OS: read/write paths, Linux-style
//! readahead, fadvise semantics, fincore cost, reclaim under pressure.

use simclock::ThreadClock;
use simos::{
    Advice, Device, DeviceConfig, Fd, FileSystem, FsKind, Os, OsConfig, Tier, TieredStore,
    WritebackConfig, PAGE_SIZE,
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
fn cold_read_misses_then_hits() {
    let os = boot(256);
    let mut clock = os.new_clock();
    let fd = os.create_sized(&mut clock, "/f", 1 << 20).unwrap();
    let first = os.read_charge(&mut clock, fd, 0, 64 * 1024);
    assert_eq!(first.miss_pages, 16);
    let second = os.read_charge(&mut clock, fd, 0, 64 * 1024);
    assert_eq!(second.miss_pages, 0);
    assert_eq!(second.hit_pages, 16);
}

#[test]
fn sequential_scan_triggers_readahead_hits() {
    let os = boot(512);
    let mut clock = os.new_clock();
    let fd = os.create_sized(&mut clock, "/seq", 64 << 20).unwrap();
    // Scan sequentially in 16 KiB chunks; after warmup, readahead should
    // deliver most pages ahead of the reads.
    let mut miss = 0;
    let mut total = 0;
    let chunk = 16 * 1024u64;
    for i in 0..2048u64 {
        let outcome = os.read_charge(&mut clock, fd, i * chunk, chunk);
        miss += outcome.miss_pages;
        total += outcome.pages;
    }
    let miss_rate = miss as f64 / total as f64;
    assert!(
        miss_rate < 0.2,
        "sequential scan should be mostly prefetched, miss rate {miss_rate}"
    );
    assert!(os.stats().prefetched_pages.get() > 0);
}

#[test]
fn random_reads_never_prefetch_after_warmup() {
    let os = boot(512);
    let mut clock = os.new_clock();
    let fd = os.create_sized(&mut clock, "/rand", 64 << 20).unwrap();
    os.fadvise(&mut clock, &os.fd_entry(fd), Advice::Random, 0, 0);
    let before = os.stats().prefetched_pages.get();
    // Widely scattered reads.
    for i in 0..64u64 {
        let offset = (i * 7919 % 16000) * PAGE_SIZE;
        os.read_charge(&mut clock, fd, offset, 4096);
    }
    assert_eq!(os.stats().prefetched_pages.get(), before);
}

#[test]
fn readahead_syscall_caps_at_os_limit() {
    let os = boot(512);
    let mut clock = os.new_clock();
    let fd = os.create_sized(&mut clock, "/big", 16 << 20).unwrap();
    // Ask for 4 MiB; Linux silently caps at 128 KiB (Figure 1 pathology).
    let reported = os.readahead(&mut clock, &os.fd_entry(fd), 0, 4 << 20);
    assert_eq!(reported, 4 << 20, "the syscall reports the requested size");
    assert_eq!(
        os.stats().prefetched_pages.get(),
        os.config().ra_max_pages,
        "but only the cap was actually initiated"
    );
}

#[test]
fn fadvise_sequential_doubles_cap() {
    let os = boot(512);
    let mut clock = os.new_clock();
    let fd = os.create_sized(&mut clock, "/s", 16 << 20).unwrap();
    os.fadvise(&mut clock, &os.fd_entry(fd), Advice::Sequential, 0, 0);
    os.readahead(&mut clock, &os.fd_entry(fd), 0, 4 << 20);
    assert_eq!(
        os.stats().prefetched_pages.get(),
        2 * os.config().ra_max_pages
    );
}

#[test]
fn fadvise_willneed_populates_and_dontneed_drops() {
    let os = boot(512);
    let mut clock = os.new_clock();
    let fd = os.create_sized(&mut clock, "/w", 1 << 20).unwrap();
    os.fadvise(
        &mut clock,
        &os.fd_entry(fd),
        Advice::WillNeed,
        0,
        128 * 1024,
    );
    let cache = os.cache(os.fd_inode(fd));
    assert_eq!(cache.state.read().resident(), 32);
    os.fadvise(
        &mut clock,
        &os.fd_entry(fd),
        Advice::DontNeed,
        0,
        128 * 1024,
    );
    assert_eq!(cache.state.read().resident(), 0);
    assert_eq!(os.mem().resident(), 0);
}

/// The content path: a write charge lands the bytes with `store_content`,
/// a read charge fetches them with `read_content`.
fn write(os: &Os, clock: &mut ThreadClock, fd: Fd, offset: u64, data: &[u8]) {
    os.write_charge(clock, fd, offset, data.len() as u64);
    os.store_content(os.fd_inode(fd), offset, data);
}

#[test]
fn write_then_read_round_trips_content() {
    let os = boot(256);
    let mut clock = os.new_clock();
    let fd = os.create(&mut clock, "/data").unwrap();
    let payload: Vec<u8> = (0..10_000u32).map(|i| (i % 251) as u8).collect();
    write(&os, &mut clock, fd, 3_000, &payload);
    let outcome = os.read_charge(&mut clock, fd, 3_000, payload.len() as u64);
    let back = os.read_content(&os.fs().inode(os.fd_inode(fd)), 3_000, outcome.bytes);
    assert_eq!(back, payload);
}

#[test]
fn write_extends_file_size() {
    let os = boot(256);
    let mut clock = os.new_clock();
    let fd = os.create(&mut clock, "/grow").unwrap();
    write(&os, &mut clock, fd, 0, &[1u8; 5000]);
    assert_eq!(os.fd_entry(fd).cache.inode.size(), 5000);
    write(&os, &mut clock, fd, 100_000, &[2u8; 100]);
    assert_eq!(os.fd_entry(fd).cache.inode.size(), 100_100);
}

#[test]
fn fsync_waits_for_writeback() {
    let os = boot(256);
    let mut clock = os.new_clock();
    let fd = os.create(&mut clock, "/wal").unwrap();
    write(&os, &mut clock, fd, 0, &vec![0u8; 1 << 20]);
    let before = clock.now();
    os.fsync(&mut clock, &os.fd_entry(fd));
    assert!(
        clock.now() > before + 1_000_000,
        "fsync must pay device write"
    );
    assert_eq!(os.mem().dirty(), 0);
}

#[test]
fn reclaim_keeps_resident_at_budget() {
    let os = boot(8); // 8 MiB budget = 2048 pages
    let mut clock = os.new_clock();
    let fd = os.create_sized(&mut clock, "/huge", 64 << 20).unwrap();
    // Stream through 64 MiB: 8x the budget.
    let chunk = 64 * 1024u64;
    for i in 0..1024u64 {
        os.read_charge(&mut clock, fd, i * chunk, chunk);
    }
    assert!(
        os.mem().resident() <= os.mem().budget(),
        "resident {} must not exceed budget {}",
        os.mem().resident(),
        os.mem().budget()
    );
    assert!(os.mem().evicted.get() > 0);
}

#[test]
fn eviction_prefers_cold_file() {
    let os = boot(8);
    let mut clock = os.new_clock();
    let cold = os.create_sized(&mut clock, "/cold", 4 << 20).unwrap();
    let hot = os.create_sized(&mut clock, "/hot", 4 << 20).unwrap();
    // Touch cold once, then hammer hot while pressure builds.
    os.read_charge(&mut clock, fd_read(cold), 0, 2 << 20);
    for round in 0..8u64 {
        for i in 0..64u64 {
            os.read_charge(&mut clock, hot, i * 64 * 1024, 64 * 1024);
        }
        let _ = round;
    }
    let cold_resident = os.cache(os.fd_inode(cold)).state.read().resident();
    let hot_resident = os.cache(os.fd_inode(hot)).state.read().resident();
    assert!(
        hot_resident > cold_resident,
        "hot {hot_resident} should outlive cold {cold_resident}"
    );
}

fn fd_read(fd: simos::Fd) -> simos::Fd {
    fd
}

#[test]
fn fincore_is_much_more_expensive_than_readahead_info_query() {
    let os = boot(512);
    let mut clock = os.new_clock();
    let fd = os.create_sized(&mut clock, "/big", 256 << 20).unwrap();

    let t0 = clock.now();
    os.fincore(&mut clock, &os.fd_entry(fd));
    let fincore_cost = clock.now() - t0;

    let t1 = clock.now();
    os.readahead_info(&mut clock, fd, simos::RaInfoRequest::query(0, 256 << 20));
    let info_cost = clock.now() - t1;

    assert!(
        fincore_cost > 10 * info_cost,
        "fincore {fincore_cost}ns should dwarf readahead_info query {info_cost}ns"
    );
}

#[test]
fn unlink_releases_cache_pages() {
    let os = boot(256);
    let mut clock = os.new_clock();
    let fd = os.create_sized(&mut clock, "/tmp", 1 << 20).unwrap();
    os.read_charge(&mut clock, fd, 0, 1 << 20);
    assert!(os.mem().resident() > 0);
    os.unlink(&mut clock, "/tmp").unwrap();
    assert_eq!(os.mem().resident(), 0);
}

#[test]
fn concurrent_readers_on_shared_file_are_consistent() {
    let os = boot(512);
    let mut setup = os.new_clock();
    os.create_sized(&mut setup, "/shared", 32 << 20).unwrap();
    crossbeam::scope(|scope| {
        for t in 0..8u64 {
            let os = Arc::clone(&os);
            scope.spawn(move |_| {
                let mut clock = os.new_clock();
                let fd = os.open(&mut clock, "/shared").unwrap();
                for i in 0..128u64 {
                    let offset = ((t * 131 + i * 17) % 8000) * PAGE_SIZE;
                    os.read_charge(&mut clock, fd, offset, 16 * 1024);
                }
            });
        }
    })
    .unwrap();
    // Presence accounting must be exact after the storm.
    let cache = os.cache(os.fs().lookup("/shared").unwrap());
    let state = cache.state.read();
    let counted = state.present_in(0, (32 << 20) / PAGE_SIZE);
    assert_eq!(counted, state.resident());
    assert_eq!(os.mem().resident(), state.resident());
}

#[test]
fn read_past_eof_returns_empty() {
    let os = boot(256);
    let mut clock = os.new_clock();
    let fd = os.create_sized(&mut clock, "/small", 10_000).unwrap();
    let outcome = os.read_charge(&mut clock, fd, 20_000, 4096);
    assert_eq!(outcome.bytes, 0);
    let partial = os.read_charge(&mut clock, fd, 8_000, 4096);
    assert_eq!(partial.bytes, 2_000);
}

#[test]
fn prefetch_wait_is_charged_when_reading_in_flight_pages() {
    let os = boot(512);
    let mut clock = os.new_clock();
    let fd = os.create_sized(&mut clock, "/inflight", 64 << 20).unwrap();
    // Kick a large prefetch, then read its tail immediately: the read is
    // not free — it either waits for the in-flight stream (when close) or
    // pays a demand read that overtakes it (when far).
    os.readahead_info(
        &mut clock,
        fd,
        simos::RaInfoRequest::prefetch(0, 8 << 20).with_limit_pages(2048),
    );
    let t0 = clock.now();
    os.read_charge(&mut clock, fd, (8 << 20) - 4096, 4096);
    let wait = clock.now() - t0;
    assert!(
        wait > 50_000,
        "read of in-flight page costs I/O, got {wait}ns"
    );

    // Reading the *front* of the stream waits briefly (it is nearly ready)
    // without a bypass.
    let bypass_before = os.stats().demand_bypass_pages.get();
    let t1 = clock.now();
    os.read_charge(&mut clock, fd, 0, 4096);
    let front = clock.now() - t1;
    assert!(front < 2_000_000, "front of stream should be near-ready");
    let _ = bypass_before;
}

// ----- fault injection & fallible variants ---------------------------------

mod faults {
    use super::*;
    use simos::{FaultPlan, IoError};

    fn boot_with_plan(memory_mb: u64, plan: FaultPlan) -> Arc<Os> {
        Os::new(
            OsConfig::with_memory_mb(memory_mb),
            Device::with_fault_plan(DeviceConfig::local_nvme(), plan),
            FileSystem::new(FsKind::Ext4Like),
        )
    }

    #[test]
    fn try_read_matches_infallible_without_plan() {
        let os = boot(256);
        let mut clock = os.new_clock();
        let fd = os.create_sized(&mut clock, "/f", 1 << 20).unwrap();
        let outcome = os.try_read_charge(&mut clock, fd, 0, 64 * 1024).unwrap();
        assert_eq!(outcome.miss_pages, 16);
        assert_eq!(os.stats().demand_read_errors.get(), 0);
    }

    #[test]
    fn demand_fault_surfaces_and_retry_completes() {
        // ~40% of demand requests fail; prefetch untouched. Retrying the
        // read must eventually succeed, filling only what is still missing.
        let os = boot_with_plan(256, FaultPlan::seeded(11).with_demand_eio(0.4));
        let mut clock = os.new_clock();
        let fd = os.create_sized(&mut clock, "/f", 8 << 20).unwrap();
        let mut errors = 0;
        for i in 0..32u64 {
            let offset = i * 256 * 1024;
            let mut attempts = 0;
            loop {
                match os.try_read_charge(&mut clock, fd, offset, 256 * 1024) {
                    Ok(outcome) => {
                        assert_eq!(outcome.pages, 64);
                        break;
                    }
                    Err(IoError::Io) => {
                        errors += 1;
                        attempts += 1;
                        assert!(attempts < 200, "retries should converge");
                    }
                    Err(other) => panic!("unexpected error {other:?}"),
                }
            }
        }
        assert!(errors > 0, "a 40% EIO rate must surface at least once");
        assert_eq!(os.stats().demand_read_errors.get(), errors);
        // Once all retries succeeded the whole range is cached.
        let outcome = os.try_read_charge(&mut clock, fd, 0, 8 << 20).unwrap();
        assert_eq!(outcome.miss_pages, 0);
    }

    #[test]
    fn partial_fill_keeps_completed_runs_cached() {
        // Every demand request faults: the first run charged fails, so
        // nothing is cached and the error surfaces.
        let os = boot_with_plan(256, FaultPlan::seeded(0).with_demand_eio(1.0));
        let mut clock = os.new_clock();
        let fd = os.create_sized(&mut clock, "/f", 1 << 20).unwrap();
        let err = os
            .try_read_charge(&mut clock, fd, 0, 64 * 1024)
            .unwrap_err();
        assert_eq!(err, IoError::Io);
        let cache = os.cache(os.fd_inode(fd));
        assert_eq!(cache.state.read().present_in(0, 16), 0);
    }

    #[test]
    fn try_readahead_reports_actually_initiated_pages() {
        let os = boot(512);
        let mut clock = os.new_clock();
        let fd = os.create_sized(&mut clock, "/big", 16 << 20).unwrap();
        // 4 MiB requested; the OS cap (32 pages) is what actually starts.
        let initiated = os
            .try_readahead(&mut clock, &os.fd_entry(fd), 0, 4 << 20)
            .unwrap();
        assert_eq!(initiated, os.config().ra_max_pages);
        // Second call over the now-cached window initiates nothing.
        let again = os
            .try_readahead(&mut clock, &os.fd_entry(fd), 0, 128 * 1024)
            .unwrap();
        assert_eq!(again, 0);
    }

    #[test]
    fn prefetch_fault_never_fails_the_read() {
        // Prefetch-class EIO at 100%: heuristic readahead dies silently,
        // demand reads keep succeeding.
        let os = boot_with_plan(512, FaultPlan::seeded(5).with_prefetch_eio(1.0));
        let mut clock = os.new_clock();
        let fd = os.create_sized(&mut clock, "/seq", 8 << 20).unwrap();
        let chunk = 16 * 1024u64;
        for i in 0..256u64 {
            let outcome = os
                .try_read_charge(&mut clock, fd, i * chunk, chunk)
                .unwrap();
            assert_eq!(outcome.pages, 4);
        }
        assert_eq!(os.stats().prefetched_pages.get(), 0);
        assert!(os.device().stats().injected_read_faults.get() > 0);
    }
}

/// One write-back trigger and what it must leave behind.
struct FlushCase {
    name: &'static str,
    memory_pages: u64,
    writeback: WritebackConfig,
    trigger: fn(&Os, &mut ThreadClock),
    /// Cause counters: threshold, deadline, sync, drop.
    causes: [u64; 4],
    written_back: u64,
    dropped: u64,
}

/// Every dirty-page transition in one table: each write-back trigger bumps
/// exactly its own cause counter, once, and the dirty ledger
/// (`dirtied == written_back + dropped + dirty now`) balances after it.
/// `unlink` is the one transition that flushes nothing.
#[test]
fn each_flush_cause_bumps_only_its_own_counter() {
    use simclock::NS_PER_MS;

    const MEMORY: u64 = 1 << 16;
    fn causes(os: &Os) -> [u64; 4] {
        let s = os.stats();
        [
            s.wb_flush_threshold.get(),
            s.wb_flush_deadline.get(),
            s.wb_flush_sync.get(),
            s.wb_flush_drop.get(),
        ]
    }
    fn new_file(os: &Os, clock: &mut ThreadClock, path: &str) -> Fd {
        os.create_sized(clock, path, 0).unwrap()
    }
    let defaults = WritebackConfig::default;

    let cases = [
        FlushCase {
            name: "write-through",
            memory_pages: MEMORY,
            writeback: WritebackConfig {
                write_through: true,
                ..defaults()
            },
            trigger: |os, clock| {
                let fd = new_file(os, clock, "/wt");
                os.write_charge(clock, fd, 0, 4 * PAGE_SIZE);
            },
            causes: [0, 0, 1, 0],
            written_back: 4,
            dropped: 0,
        },
        FlushCase {
            name: "fsync",
            memory_pages: MEMORY,
            writeback: defaults(),
            trigger: |os, clock| {
                let fd = new_file(os, clock, "/fsync");
                os.write_charge(clock, fd, 0, 4 * PAGE_SIZE);
                os.fsync(clock, &os.fd_entry(fd));
            },
            causes: [0, 0, 1, 0],
            written_back: 4,
            dropped: 0,
        },
        FlushCase {
            name: "per-file threshold",
            memory_pages: MEMORY,
            writeback: defaults(),
            trigger: |os, clock| {
                let fd = new_file(os, clock, "/threshold");
                let pages = WritebackConfig::default().file_dirty_threshold_pages;
                os.write_charge(clock, fd, 0, pages * PAGE_SIZE);
            },
            causes: [1, 0, 0, 0],
            written_back: 1024,
            dropped: 0,
        },
        FlushCase {
            name: "hard limit",
            memory_pages: MEMORY,
            writeback: WritebackConfig {
                file_dirty_threshold_pages: 1 << 20,
                background_dirty_pages: 1 << 20,
                write_through: false,
            },
            trigger: |os, clock| {
                // One write past the 4096-page hard limit: the writer
                // flushes its own file synchronously.
                let fd = new_file(os, clock, "/limit");
                os.write_charge(clock, fd, 0, 4100 * PAGE_SIZE);
            },
            causes: [1, 0, 0, 0],
            written_back: 4100,
            dropped: 0,
        },
        FlushCase {
            name: "deadline",
            memory_pages: MEMORY,
            writeback: defaults(),
            trigger: |os, clock| {
                let old = new_file(os, clock, "/old");
                os.write_charge(clock, old, 0, 4 * PAGE_SIZE);
                clock.advance(600 * NS_PER_MS);
                // The next write's daemon pass finds `/old` past its
                // 500 ms deadline; `/new` is fresh.
                let new = new_file(os, clock, "/new");
                os.write_charge(clock, new, 0, 4 * PAGE_SIZE);
            },
            causes: [0, 1, 0, 0],
            written_back: 4,
            dropped: 0,
        },
        FlushCase {
            name: "background sweep",
            memory_pages: MEMORY,
            writeback: defaults(),
            trigger: |os, clock| {
                // Each file stays under the per-file threshold; the third
                // lifts global dirty past the background threshold, and
                // flushing the oldest file brings it back under.
                for path in ["/bg0", "/bg1", "/bg2"] {
                    let fd = new_file(os, clock, path);
                    os.write_charge(clock, fd, 0, 900 * PAGE_SIZE);
                }
            },
            causes: [1, 0, 0, 0],
            written_back: 900,
            dropped: 0,
        },
        FlushCase {
            name: "DONTNEED",
            memory_pages: MEMORY,
            writeback: defaults(),
            trigger: |os, clock| {
                let fd = new_file(os, clock, "/advise");
                os.write_charge(clock, fd, 0, 4 * PAGE_SIZE);
                os.fadvise(clock, &os.fd_entry(fd), Advice::DontNeed, 0, 4 * PAGE_SIZE);
            },
            causes: [0, 0, 0, 1],
            written_back: 4,
            dropped: 0,
        },
        FlushCase {
            name: "drop_caches",
            memory_pages: MEMORY,
            writeback: defaults(),
            trigger: |os, clock| {
                let fd = new_file(os, clock, "/drop");
                os.write_charge(clock, fd, 0, 4 * PAGE_SIZE);
                os.drop_caches(clock);
            },
            causes: [0, 0, 0, 1],
            written_back: 4,
            dropped: 0,
        },
        FlushCase {
            name: "reclaim",
            memory_pages: 256,
            writeback: defaults(),
            trigger: |os, clock| {
                // Two dirty words, then a clean read that overflows the
                // 256-page budget: reclaim evicts the older, dirty words.
                let fd = new_file(os, clock, "/dirty");
                os.write_charge(clock, fd, 0, 128 * PAGE_SIZE);
                let clean = os.create_sized(clock, "/clean", 256 * PAGE_SIZE).unwrap();
                os.read_charge(clock, clean, 0, 256 * PAGE_SIZE);
            },
            causes: [0, 0, 0, 1],
            written_back: 128,
            dropped: 0,
        },
        FlushCase {
            name: "unlink",
            memory_pages: MEMORY,
            writeback: defaults(),
            trigger: |os, clock| {
                let fd = new_file(os, clock, "/gone");
                os.write_charge(clock, fd, 0, 4 * PAGE_SIZE);
                os.unlink(clock, "/gone").unwrap();
            },
            causes: [0, 0, 0, 0],
            written_back: 0,
            dropped: 4,
        },
    ];
    for case in cases {
        let name = case.name;
        let config = OsConfig {
            memory_budget_pages: case.memory_pages,
            writeback: Some(case.writeback),
            ..OsConfig::default()
        };
        let os = Os::new(
            config,
            Device::new(DeviceConfig::local_nvme()),
            FileSystem::new(FsKind::Ext4Like),
        );
        let mut clock = os.new_clock();
        (case.trigger)(&os, &mut clock);
        let s = os.stats();
        assert_eq!(
            causes(&os),
            case.causes,
            "{name}: [threshold, deadline, sync, drop]"
        );
        assert_eq!(
            s.written_back_pages.get(),
            case.written_back,
            "{name}: written-back pages"
        );
        assert_eq!(
            s.dropped_dirty_pages.get(),
            case.dropped,
            "{name}: dropped dirty pages"
        );
        assert!(s.dirtied_pages.get() > 0, "{name}: nothing dirtied");
        assert_eq!(
            s.dirtied_pages.get(),
            s.written_back_pages.get() + s.dropped_dirty_pages.get() + os.mem().dirty(),
            "{name}: dirty ledger out of balance"
        );
    }
}

/// The drop flush bills each tier the dropped dirty pages it holds:
/// `fadvise(DONTNEED)`, reclaim and `drop_caches` each write what a
/// per-page walk of the placement map finds on each tier, one write per
/// tier holding any. The file alternates 64-page local and remote words;
/// nothing but the drop flush writes (run flushes are held off).
#[test]
fn a_drop_flush_bills_each_tier_what_a_per_page_walk_finds() {
    const PAGES: u64 = 1024;
    let mut config = OsConfig::with_memory_mb(2);
    config.writeback = Some(WritebackConfig {
        file_dirty_threshold_pages: 1 << 20,
        background_dirty_pages: 1 << 20,
        write_through: false,
    });
    let store = TieredStore::new(
        Device::new(DeviceConfig::local_nvme()),
        Device::new(DeviceConfig::remote_nvmeof()),
        PAGES,
    );
    let os = Os::new_tiered(config, store, FileSystem::new(FsKind::Ext4Like));
    let mut clock = os.new_clock();
    let fd = os
        .create_sized(&mut clock, "/tiers", PAGES * PAGE_SIZE)
        .unwrap();
    let entry = os.fd_entry(fd);
    let ino = entry.cache.inode.ino();
    for start in (0..PAGES).step_by(128) {
        assert_eq!(
            os.try_promote_range(&mut clock, ino, start, 64).unwrap(),
            64
        );
    }
    os.drop_caches(&mut clock);
    let tiered = Arc::clone(os.tiered().unwrap());
    let writes = || {
        [Tier::Local, Tier::Remote].map(|tier| {
            let stats = tiered.device(tier).stats();
            (stats.write_requests.get(), stats.write_bytes.get())
        })
    };
    let dirty = || -> Vec<u64> {
        let runs = entry.cache.state.read().dirty_runs();
        runs.into_iter().flat_map(|(s, e)| s..e).collect()
    };
    let mut billed = [0u64; 2];
    let mut check = |label: &str, op: &mut dyn FnMut(&mut ThreadClock)| {
        let (before, writes_before) = (dirty(), writes());
        op(&mut clock);
        let after = dirty();
        let mut pages = [0u64; 2];
        for page in before.iter().filter(|p| !after.contains(p)) {
            let tier = tiered.tier_of(ino.0, *page);
            pages[usize::from(tier == Tier::Remote)] += 1;
        }
        let writes_after = writes();
        for t in 0..2 {
            let want = (u64::from(pages[t] > 0), pages[t] * PAGE_SIZE);
            let got = (
                writes_after[t].0 - writes_before[t].0,
                writes_after[t].1 - writes_before[t].1,
            );
            assert_eq!(
                got, want,
                "{label}: tier {t} billed {got:?}, walk finds {want:?}"
            );
            billed[t] += pages[t];
        }
    };
    for page in (0..200).step_by(2) {
        check("write", &mut |c| {
            os.write_charge(c, fd, page * PAGE_SIZE, PAGE_SIZE);
        });
    }
    check("fadvise", &mut |c| {
        os.fadvise(c, &entry, Advice::DontNeed, 32 * PAGE_SIZE, 128 * PAGE_SIZE);
    });
    for page in (200..PAGES).step_by(8) {
        check("write + reclaim", &mut |c| {
            os.write_charge(c, fd, page * PAGE_SIZE, 8 * PAGE_SIZE);
        });
    }
    check("drop_caches", &mut |c| os.drop_caches(c));
    let stats = os.stats();
    assert!(
        billed[0] > 0 && billed[1] > 0,
        "both tiers billed: {billed:?}"
    );
    assert!(
        stats.wb_flush_drop.get() >= 3,
        "fadvise, reclaim and drop_caches flushed"
    );
    assert!(os.mem().evicted.get() > 0, "reclaim never ran");
    assert_eq!(stats.wb_runs_flushed.get(), 0, "a run flush wrote");
}
