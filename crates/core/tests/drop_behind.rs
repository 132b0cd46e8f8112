//! The §4.6 memory watcher's drop-behind: under memory pressure a
//! descriptor's steady forward run gives the OS back, one 64-page word per
//! read, the words it has read in full. Each test below fails if the guard
//! it names is removed.

use std::sync::Arc;

use crossprefetch::{
    CpFile, Device, DeviceConfig, FileSystem, FsKind, Mode, Os, OsConfig, Runtime, RuntimeReport,
};
use simclock::ThreadClock;

const CHUNK: u64 = 16 << 10;

fn boot(memory_mb: u64) -> Arc<Os> {
    Os::new(
        OsConfig::with_memory_mb(memory_mb),
        Device::new(DeviceConfig::local_nvme()),
        FileSystem::new(FsKind::Ext4Like),
    )
}

fn runtime(memory_mb: u64) -> (Runtime, ThreadClock) {
    let rt = Runtime::with_mode(boot(memory_mb), Mode::PredictOpt);
    let clock = rt.new_clock();
    (rt, clock)
}

/// Reads `[from, to)` bytes of `file` forward in 16 KiB chunks; returns
/// the pages that missed the cache or waited on a prefetch.
fn stream(file: &CpFile, clock: &mut ThreadClock, from: u64, to: u64) -> u64 {
    (from / CHUNK..to / CHUNK)
        .map(|i| {
            let outcome = file.read_charge(clock, i * CHUNK, CHUNK);
            outcome.pages - outcome.hit_pages + outcome.prefetch_hit_pages
        })
        .sum()
}

/// Asserts the prefetch-quality books balance once the cache is dropped
/// (still-speculative pages settle as wasted).
fn assert_ledger_balances(rt: &Runtime, clock: &mut ThreadClock) -> RuntimeReport {
    rt.os().drop_caches(clock);
    let report = RuntimeReport::collect(rt);
    let q = report.prefetch_quality;
    assert_eq!(
        q.timely + q.late + q.wasted,
        report.pages_initiated,
        "quality books don't balance: {q:?}, initiated {}",
        report.pages_initiated
    );
    report
}

/// The watcher: a lone reader streaming a file twice the cache returns its
/// consumed words, so reclaim evicts less; the returned pages leave the
/// user-level view with them (no stale claims to resync).
#[test]
fn a_forward_reader_twice_the_cache_returns_its_consumed_words() {
    let (rt, mut clock) = runtime(16);
    let file = rt.create_sized(&mut clock, "/seq", 32 << 20).unwrap();
    stream(&file, &mut clock, 0, 32 << 20);
    let dropped = rt.stats().pages_evicted.get();
    assert!(dropped > 0, "the watcher returned nothing");
    assert_eq!(rt.stats().files_evicted.get(), 0, "no idle file to evict");
    assert_eq!(rt.os().stats().evicted_by_advice.get(), dropped);
    let report = assert_ledger_balances(&rt, &mut clock);
    assert_eq!(report.pages_evicted_by_lib, dropped);
    assert_eq!(report.stale_resyncs, 0);
}

/// The trigger: a file that fits in memory is never returned, so its
/// second pass is all cache hits.
#[test]
fn a_file_that_fits_is_never_dropped() {
    let (rt, mut clock) = runtime(64);
    let size = 16 << 20;
    let file = rt.create_sized(&mut clock, "/fits", size).unwrap();
    stream(&file, &mut clock, 0, size);
    let second = stream(&file, &mut clock, 0, size);
    assert_eq!(rt.stats().pages_evicted.get(), 0);
    assert_eq!(second, 0, "the second pass must hit the cache throughout");
}

/// The open-handle guard: two descriptors streaming one file at different
/// offsets return nothing, since each may still read what the other
/// passed.
#[test]
fn two_descriptors_on_one_file_drop_nothing() {
    let (rt, mut clock) = runtime(16);
    let size = 64 << 20;
    let lead = rt.create_sized(&mut clock, "/shared", size).unwrap();
    let trail = rt.open(&mut clock, "/shared").unwrap();
    let half = size / 2;
    for i in 0..half / CHUNK {
        lead.read_charge(&mut clock, half + i * CHUNK, CHUNK);
        trail.read_charge(&mut clock, i * CHUNK, CHUNK);
    }
    assert!(
        rt.os().mem().evicted.get() > 0,
        "the cache was under pressure"
    );
    assert_eq!(rt.stats().pages_evicted.get(), 0);
}

/// The run reset: bursts of four sequential reads at random offsets never
/// form a run long enough to own a whole word behind the reader, so a
/// burst never returns the file below it.
#[test]
fn bursty_runs_at_random_offsets_drop_nothing() {
    let (rt, mut clock) = runtime(16);
    let size: u64 = 64 << 20;
    let file = rt.create_sized(&mut clock, "/bursty", size).unwrap();
    let slots = size / CHUNK - 4;
    let mut state = 0x9E37_79B9_7F4A_7C15u64;
    for _ in 0..4096 {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let slot = (state >> 33) % slots;
        stream(&file, &mut clock, slot * CHUNK, (slot + 4) * CHUNK);
    }
    assert!(
        rt.os().mem().evicted.get() > 0,
        "the cache was under pressure"
    );
    assert_eq!(rt.stats().pages_evicted.get(), 0);
}

/// The dirty guard: words holding dirty pages are left to write-back. The
/// reader passes eight dirty words under pressure and returns the clean
/// words past them only; the dirty ledger balances with nothing flushed.
#[test]
fn words_with_dirty_pages_are_not_dropped() {
    let (rt, mut clock) = runtime(16);
    let dirty = 2 << 20;
    let file = rt.create_sized(&mut clock, "/dirty", 24 << 20).unwrap();
    for i in 0..dirty / CHUNK {
        file.write_charge(&mut clock, i * CHUNK, CHUNK);
    }
    // Fill the rest of the cache so the reader starts under pressure.
    let filler = rt.create_sized(&mut clock, "/filler", 12 << 20).unwrap();
    stream(&filler, &mut clock, 0, 12 << 20);
    drop(filler);
    stream(&file, &mut clock, 0, 24 << 20);

    let os = rt.os();
    let dirty_pages = dirty / crossprefetch::PAGE_SIZE;
    assert!(
        rt.stats().pages_evicted.get() > 0,
        "clean words are returned"
    );
    assert_eq!(os.stats().dirtied_pages.get(), dirty_pages);
    assert_eq!(os.mem().dirty(), dirty_pages, "no dirty page was dropped");
    assert_eq!(
        os.stats().written_back_pages.get() + os.mem().dirty(),
        os.stats().dirtied_pages.get(),
        "dirty ledger"
    );
}
