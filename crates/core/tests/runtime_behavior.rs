//! End-to-end behaviour of the CROSS-LIB runtime in every mode.

use crossprefetch::{Mode, Runtime, RuntimeConfig};
use simos::{Device, DeviceConfig, FileSystem, FsKind, Os, OsConfig, PAGE_SIZE};
use std::sync::Arc;

fn boot(memory_mb: u64) -> Arc<Os> {
    Os::new(
        OsConfig::with_memory_mb(memory_mb),
        Device::new(DeviceConfig::local_nvme()),
        FileSystem::new(FsKind::Ext4Like),
    )
}

fn runtime(mode: Mode, memory_mb: u64) -> Runtime {
    Runtime::with_mode(boot(memory_mb), mode)
}

#[test]
fn predict_mode_prefetches_sequential_stream() {
    let rt = runtime(Mode::Predict, 512);
    let mut clock = rt.new_clock();
    let file = rt.create_sized(&mut clock, "/seq", 64 << 20).unwrap();
    let chunk = 16 * 1024u64;
    let mut miss = 0u64;
    let mut total = 0u64;
    for i in 0..1024u64 {
        let outcome = file.read_charge(&mut clock, i * chunk, chunk);
        miss += outcome.miss_pages;
        total += outcome.pages;
    }
    let miss_rate = miss as f64 / total as f64;
    assert!(miss_rate < 0.25, "predict mode miss rate {miss_rate}");
    assert!(rt.stats().pages_initiated.get() > 0);
}

#[test]
fn predict_opt_issues_fewer_larger_calls_than_predict() {
    let scan = |mode: Mode| {
        let rt = runtime(mode, 1024);
        let mut clock = rt.new_clock();
        let file = rt.create_sized(&mut clock, "/seq", 128 << 20).unwrap();
        let chunk = 64 * 1024u64;
        for i in 0..2048u64 {
            file.read_charge(&mut clock, i * chunk, chunk);
        }
        (
            rt.os().stats().ra_info_calls.get(),
            clock.now(),
            rt.os().hit_ratio(),
        )
    };
    let (calls_predict, time_predict, _) = scan(Mode::Predict);
    let (calls_opt, time_opt, hit_opt) = scan(Mode::PredictOpt);
    assert!(
        calls_opt < calls_predict,
        "opt should batch: {calls_opt} vs {calls_predict} calls"
    );
    // Single-threaded on a dedicated device both modes approach device
    // bandwidth, so opt only needs to be competitive here; its win shows
    // under contention (Figure 5/10 benches).
    assert!(
        time_opt as f64 <= time_predict as f64 * 1.10,
        "opt should be competitive: {time_opt} vs {time_predict}"
    );
    assert!(hit_opt > 0.7, "opt sequential hit ratio {hit_opt}");
}

#[test]
fn random_access_stops_prefetching() {
    let rt = runtime(Mode::PredictOpt, 256);
    let mut clock = rt.new_clock();
    let file = rt.create_sized(&mut clock, "/rand", 256 << 20).unwrap();
    // Warm the predictor down with scattered single-page reads.
    for i in 0..200u64 {
        let offset = ((i * 977 + 13) % 60000) * PAGE_SIZE;
        file.read_charge(&mut clock, offset, 4096);
    }
    let initiated_mid = rt.stats().pages_initiated.get();
    for i in 0..200u64 {
        let offset = ((i * 1973 + 7) % 60000) * PAGE_SIZE;
        file.read_charge(&mut clock, offset, 4096);
    }
    let initiated_after = rt.stats().pages_initiated.get();
    // Prefetching must flatline once the file is classified random.
    let late_growth = initiated_after - initiated_mid;
    assert!(
        late_growth < 500,
        "random stream should barely prefetch, grew {late_growth} pages"
    );
}

#[test]
fn visibility_skips_redundant_prefetch_calls() {
    let rt = runtime(Mode::PredictOpt, 512);
    let mut clock = rt.new_clock();
    let file = rt.create_sized(&mut clock, "/f", 32 << 20).unwrap();
    // First pass warms the cache and the user bitmap.
    let chunk = 64 * 1024u64;
    for i in 0..512u64 {
        file.read_charge(&mut clock, i * chunk, chunk);
    }
    // Second pass over the same data: everything is cached, so the
    // runtime should skip prefetch syscalls.
    for i in 0..512u64 {
        file.read_charge(&mut clock, i * chunk, chunk);
    }
    assert!(
        rt.stats().prefetches_skipped.get() > 0,
        "cache visibility must suppress redundant prefetches"
    );
}

#[test]
fn fetchall_loads_whole_file_at_open() {
    let rt = runtime(Mode::FetchAllOpt, 512);
    let mut clock = rt.new_clock();
    let file = rt.create_sized(&mut clock, "/db", 16 << 20).unwrap();
    // Open alone schedules the entire file.
    let resident = rt.os().cache(file.ino()).state.read().resident();
    assert_eq!(resident, (16 << 20) / PAGE_SIZE);
}

#[test]
fn fetchall_overruns_memory_budget() {
    // Memory-insensitive by design: a file larger than memory pollutes.
    let rt = runtime(Mode::FetchAllOpt, 16);
    let mut clock = rt.new_clock();
    rt.create_sized(&mut clock, "/huge", 64 << 20).unwrap();
    assert!(
        rt.os().mem().evicted.get() > 0,
        "fetchall must thrash reclaim"
    );
}

#[test]
fn aggressive_eviction_keeps_free_memory() {
    // Short idle horizon so the watcher may evict within this small run.
    let mut config = RuntimeConfig::new(Mode::PredictOpt);
    config.evict_min_idle_ns = simclock::NS_PER_MS;
    let rt = Runtime::new(boot(32), config);
    let mut clock = rt.new_clock();
    // Several files, streamed one after another: old ones must be evicted
    // by the runtime's LRU-of-files policy.
    for f in 0..6 {
        let path = format!("/f{f}");
        let file = rt.create_sized(&mut clock, &path, 16 << 20).unwrap();
        let chunk = 64 * 1024u64;
        for i in 0..256u64 {
            file.read_charge(&mut clock, i * chunk, chunk);
        }
    }
    assert!(rt.stats().files_evicted.get() > 0);
    let mem = rt.os().mem();
    assert!(mem.resident() <= mem.budget());
}

#[test]
fn passthrough_modes_touch_no_runtime_machinery() {
    for mode in [Mode::AppOnly, Mode::OsOnly] {
        let rt = runtime(mode, 128);
        let mut clock = rt.new_clock();
        let file = rt.create_sized(&mut clock, "/p", 4 << 20).unwrap();
        for i in 0..64u64 {
            file.read_charge(&mut clock, i * 16_384, 16_384);
        }
        assert_eq!(rt.stats().prefetches_enqueued.get(), 0, "{mode:?}");
        assert_eq!(rt.os().stats().ra_info_calls.get(), 0, "{mode:?}");
    }
}

#[test]
fn osonly_prefetches_apponly_random_does_not() {
    // OSonly: heuristic readahead fires on sequential streams.
    let rt = runtime(Mode::OsOnly, 256);
    let mut clock = rt.new_clock();
    let file = rt.create_sized(&mut clock, "/os", 16 << 20).unwrap();
    for i in 0..256u64 {
        file.read_charge(&mut clock, i * 16_384, 16_384);
    }
    assert!(rt.os().stats().prefetched_pages.get() > 0);

    // APPonly with fadvise(RANDOM): nothing prefetches.
    let rt2 = runtime(Mode::AppOnly, 256);
    let mut clock2 = rt2.new_clock();
    let file2 = rt2.create_sized(&mut clock2, "/app", 16 << 20).unwrap();
    file2.advise(&mut clock2, simos::Advice::Random, 0, 0);
    for i in 0..256u64 {
        file2.read_charge(&mut clock2, i * 16_384, 16_384);
    }
    assert_eq!(rt2.os().stats().prefetched_pages.get(), 0);
}

#[test]
fn fincore_mode_polls_and_pays_lock_costs() {
    let rt = runtime(Mode::FincoreApp, 256);
    let mut clock = rt.new_clock();
    let file = rt.create_sized(&mut clock, "/fc", 64 << 20).unwrap();
    for i in 0..256u64 {
        file.read_charge(&mut clock, i * 16_384, 16_384);
    }
    assert!(rt.stats().fincore_polls.get() > 0);
    assert!(rt.os().stats().fincore_calls.get() > 0);
}

#[test]
fn whole_file_lock_contends_at_saturation_per_node_does_not() {
    // The deterministic mechanism behind the Table 5 "+range tree" stage
    // and Figure 6: when concurrent threads update the user-level cache
    // view back-to-back (colliding virtual timestamps), one whole-file
    // bitmap lock serializes them while per-node locks on disjoint ranges
    // do not. (The end-to-end throughput ladder is regenerated by
    // `cargo bench -p cp-bench --bench tab05_breakdown`.)
    use crossprefetch::{LockScope, RangeTree};
    use simclock::{CostModel, GlobalClock, ThreadClock};

    let costs = CostModel::default();
    let run = |scope_kind: LockScope| {
        let tree = std::sync::Arc::new(RangeTree::new());
        crossbeam::scope(|scope| {
            for t in 0..8u64 {
                let tree = std::sync::Arc::clone(&tree);
                let costs = costs.clone();
                scope.spawn(move |_| {
                    // All threads issue updates at identical virtual
                    // stamps — the saturation regime.
                    let mut clock = ThreadClock::new(std::sync::Arc::new(GlobalClock::new()));
                    for i in 0..200u64 {
                        let base = t * 4096 + i * 8;
                        tree.mark_cached(&mut clock, &costs, scope_kind, base, base + 8);
                    }
                });
            }
        })
        .unwrap();
        tree.lock_wait_ns()
    };

    let whole_file = run(LockScope::WholeFile);
    let per_node = run(LockScope::PerNode);
    assert!(
        whole_file > 10 * per_node.max(1),
        "whole-file wait {whole_file}ns must dwarf per-node {per_node}ns"
    );
}

#[test]
fn content_round_trips_through_the_shim() {
    let rt = runtime(Mode::PredictOpt, 128);
    let mut clock = rt.new_clock();
    let file = rt.create(&mut clock, "/doc").unwrap();
    let data: Vec<u8> = (0..50_000u32).map(|i| (i % 241) as u8).collect();
    file.write(&mut clock, 1234, &data);
    let back = file.read(&mut clock, 1234, data.len() as u64);
    assert_eq!(back, data);
}

#[test]
fn mmap_predict_mode_prefetches() {
    let rt = runtime(Mode::PredictOpt, 512);
    let mut clock = rt.new_clock();
    let file = rt.create_sized(&mut clock, "/mm", 64 << 20).unwrap();
    let mut major = 0u64;
    for i in 0..512u64 {
        let outcome = file.mmap_read(&mut clock, i * 64 * 1024, 64 * 1024);
        major += outcome.major;
    }
    let total_pages = 512 * 16;
    assert!(
        (major as f64 / total_pages as f64) < 0.4,
        "mmap sequential mostly prefetched, major rate {}",
        major as f64 / total_pages as f64
    );
}

#[test]
fn shared_file_handles_share_cache_view() {
    let rt = runtime(Mode::PredictOpt, 512);
    let mut clock = rt.new_clock();
    rt.create_sized(&mut clock, "/shared", 8 << 20).unwrap();
    let h1 = rt.open(&mut clock, "/shared").unwrap();
    let h2 = rt.open(&mut clock, "/shared").unwrap();
    // h1 streams the first half; h2's reads of the same half hit.
    for i in 0..256u64 {
        h1.read_charge(&mut clock, i * 16_384, 16_384);
    }
    let outcome = h2.read_charge(&mut clock, 0, 1 << 20);
    assert_eq!(outcome.miss_pages, 0, "second handle must see shared cache");
}

/// An 8 MiB file touched on every iteration beside a 256 MiB stream on a
/// 32 MiB cache. Returns `(hot pages resident, hot pages, files evicted)`.
fn hot_file_beside_stream(hot_via_mmap: bool) -> (u64, u64, u64) {
    let rt = runtime(Mode::PredictOpt, 32);
    let mut clock = rt.new_clock();
    let hot_bytes = 8u64 << 20;
    let hot = rt.create_sized(&mut clock, "/hot", hot_bytes).unwrap();
    let stream = rt.create_sized(&mut clock, "/stream", 256 << 20).unwrap();
    let chunk = 32 * 1024u64;
    for i in 0..8192u64 {
        let at = i * chunk % hot_bytes;
        if hot_via_mmap {
            hot.mmap_read(&mut clock, at, chunk);
        } else {
            hot.read_charge(&mut clock, at, chunk);
        }
        stream.read_charge(&mut clock, i * chunk, chunk);
    }
    let ino = rt.os().fs().lookup("/hot").unwrap();
    let resident = rt.os().cache(ino).state.read().resident();
    (
        resident,
        hot_bytes / PAGE_SIZE,
        rt.stats().files_evicted.get(),
    )
}

#[test]
fn memory_watcher_sees_mmap_access_as_activity() {
    // The §4.6 watcher evicts whole files idle past `evict_min_idle_ns`;
    // a file kept hot through mapped access is as busy as one kept hot
    // through read(2) and must survive beside the stream either way.
    let via_read = hot_file_beside_stream(false);
    let via_mmap = hot_file_beside_stream(true);
    assert_eq!(via_read.2, 0, "read-hot file evicted: {via_read:?}");
    assert_eq!(via_read.0, via_read.1, "read-hot file not resident");
    assert_eq!(via_mmap, via_read, "mmap-hot file treated as idle");
}

#[test]
fn reads_the_os_clamps_do_not_mark_the_user_level_view() {
    // The view may only claim pages a read actually covered: an empty
    // read, a read at or past EOF, and the tail of an EOF-straddling read
    // deliver nothing there, so a later real read of those pages (after
    // another writer grew the file) must not find a stale claim.
    let rt = runtime(Mode::Predict, 512);
    let mut clock = rt.new_clock();
    let pages = 64u64;
    let file = rt
        .create_sized(&mut clock, "/clamped", pages * PAGE_SIZE)
        .unwrap();
    assert_eq!(file.read_charge(&mut clock, 10 * PAGE_SIZE, 0).pages, 0);
    assert_eq!(
        file.read_charge(&mut clock, pages * PAGE_SIZE, PAGE_SIZE)
            .pages,
        0
    );
    assert_eq!(
        file.read_charge(&mut clock, (pages + 6) * PAGE_SIZE, PAGE_SIZE)
            .pages,
        0
    );
    let straddle = file.read_charge(&mut clock, (pages - 1) * PAGE_SIZE, 3 * PAGE_SIZE);
    assert_eq!(straddle.pages, 1);

    let ino = rt.os().fs().lookup("/clamped").unwrap();
    rt.os().fs().set_size(ino, (pages + 16) * PAGE_SIZE);
    for page in [10, pages, pages + 1, pages + 6] {
        let outcome = file.read_charge(&mut clock, page * PAGE_SIZE, PAGE_SIZE);
        assert_eq!(outcome.miss_pages, 1, "page {page} was never read before");
        assert_eq!(
            rt.stats().stale_pages_observed.get(),
            0,
            "view claimed page {page}, which no read ever covered"
        );
    }
}

#[test]
fn mapped_accesses_the_os_clamps_do_not_mark_the_user_level_view() {
    // Same contract on the mmap path: the OS clamps a mapped access to
    // the file and reports the pages it touched, and only those may enter
    // the view.
    let rt = runtime(Mode::Predict, 512);
    let mut clock = rt.new_clock();
    let pages = 64u64;
    let file = rt
        .create_sized(&mut clock, "/mapped", pages * PAGE_SIZE)
        .unwrap();
    assert_eq!(
        file.mmap_read(&mut clock, pages * PAGE_SIZE, PAGE_SIZE)
            .pages,
        0
    );
    assert_eq!(
        file.mmap_read(&mut clock, (pages + 6) * PAGE_SIZE, PAGE_SIZE)
            .pages,
        0
    );
    let straddle = file.mmap_read(&mut clock, (pages - 1) * PAGE_SIZE, 3 * PAGE_SIZE);
    assert_eq!(straddle.pages, 1);

    let ino = rt.os().fs().lookup("/mapped").unwrap();
    rt.os().fs().set_size(ino, (pages + 16) * PAGE_SIZE);
    // Descending, so the fault-around readahead that mapped access
    // restores on the descriptor never fetches the next probe.
    for page in [pages + 6, pages + 1, pages] {
        let outcome = file.read_charge(&mut clock, page * PAGE_SIZE, PAGE_SIZE);
        assert_eq!(
            outcome.miss_pages, 1,
            "page {page} was never touched before"
        );
        assert_eq!(
            rt.stats().stale_pages_observed.get(),
            0,
            "view claimed page {page}, which no mapped access ever covered"
        );
    }
}

#[test]
fn a_prefetch_ceiling_above_the_os_one_does_not_overmark_the_view() {
    // CROSS-OS initiates at most its own 64 MiB ceiling per call. A larger
    // `max_prefetch_pages` used to make LIB mark the whole chunk cached
    // and advance past pages the OS never started: the view went stale
    // (384 pages over 3 resyncs, 53 248 of 65 536 pages initiated at 4x).
    // `Runtime::new` clamps the setting to the ceiling it cannot exceed.
    let ceiling = simos::CROSSOS_MAX_PREFETCH_PAGES;
    for max_prefetch_pages in [ceiling, 4 * ceiling] {
        let mut config = RuntimeConfig::new(Mode::FetchAllOpt);
        config.max_prefetch_pages = max_prefetch_pages;
        let rt = Runtime::new(boot(1024), config);
        assert_eq!(rt.config().max_prefetch_pages, ceiling);
        let mut clock = rt.new_clock();
        let file = rt.create_sized(&mut clock, "/big", 256 << 20).unwrap();
        let chunk = 64 * 1024u64;
        for i in 0..(256 << 20) / chunk {
            file.read_charge(&mut clock, i * chunk, chunk);
        }
        let stats = rt.stats();
        assert_eq!(
            (
                stats.stale_pages_observed.get(),
                stats.stale_resyncs.get(),
                stats.pages_initiated.get()
            ),
            (0, 0, (256 << 20) / PAGE_SIZE),
            "max_prefetch_pages {max_prefetch_pages}"
        );
    }
}
