//! Cross-crate integration tests: the full stack from device model to
//! CROSS-LIB runtime, exercised together.

use crossprefetch::{Mode, Runtime};
use simos::{Advice, Device, DeviceConfig, FileSystem, FsKind, Os, OsConfig, RaInfoRequest};
use std::sync::Arc;

fn boot(memory_mb: u64, fs: FsKind) -> Arc<Os> {
    Os::new(
        OsConfig::with_memory_mb(memory_mb),
        Device::new(DeviceConfig::local_nvme()),
        FileSystem::new(fs),
    )
}

#[test]
fn end_to_end_content_integrity_under_prefetching() {
    // Data written through the runtime must read back identically through
    // every mechanism, across cache drops and evictions.
    for mode in [Mode::AppOnly, Mode::OsOnly, Mode::Predict, Mode::PredictOpt] {
        let os = boot(16, FsKind::Ext4Like);
        let rt = Runtime::with_mode(Arc::clone(&os), mode);
        let mut clock = rt.new_clock();
        let file = rt.create(&mut clock, "/it/data").unwrap();
        let payload: Vec<u8> = (0..1_000_000u32)
            .map(|i| (i.wrapping_mul(2654435761) >> 13) as u8)
            .collect();
        file.write(&mut clock, 0, &payload);

        // Cache pressure: stream another file bigger than memory.
        let noise = rt.create_sized(&mut clock, "/it/noise", 32 << 20).unwrap();
        for i in 0..512u64 {
            noise.read_charge(&mut clock, i * 64 * 1024, 64 * 1024);
        }

        let back = file.read(&mut clock, 0, payload.len() as u64);
        assert_eq!(back, payload, "{mode:?}");
    }
}

#[test]
fn virtual_time_is_monotone_through_the_stack() {
    let os = boot(64, FsKind::Ext4Like);
    let rt = Runtime::with_mode(Arc::clone(&os), Mode::PredictOpt);
    let mut clock = rt.new_clock();
    let file = rt.create_sized(&mut clock, "/it/mono", 8 << 20).unwrap();
    let mut last = clock.now();
    for i in 0..256u64 {
        file.read_charge(&mut clock, i * 16 * 1024, 16 * 1024);
        assert!(clock.now() >= last);
        last = clock.now();
    }
    assert!(os.global().now() >= last);
}

#[test]
fn readahead_info_bitmap_matches_true_cache_state() {
    let os = boot(128, FsKind::Ext4Like);
    let mut clock = os.new_clock();
    let fd = os.create_sized(&mut clock, "/it/bitmap", 8 << 20).unwrap();
    // Create a deliberately patchy cache: stripes of reads.
    for stripe in 0..16u64 {
        if stripe % 3 == 0 {
            os.read_charge(&mut clock, fd, stripe * 512 * 1024, 256 * 1024);
        }
    }
    let info = os.readahead_info(&mut clock, fd, RaInfoRequest::query(0, 8 << 20));
    let cache = os.cache(os.fd_inode(fd));
    let state = cache.state.read();
    for page in 0..(8 << 20) / 4096 {
        assert_eq!(
            simos::bitmap_has_page(&info, page),
            state.is_present(page),
            "page {page}"
        );
    }
}

#[test]
fn f2fs_and_ext4_deliver_identical_content() {
    for fs in [FsKind::Ext4Like, FsKind::F2fsLike] {
        let os = boot(64, fs);
        let rt = Runtime::with_mode(Arc::clone(&os), Mode::PredictOpt);
        let mut clock = rt.new_clock();
        // Interleave writes to two files to exercise allocator differences.
        let a = rt.create(&mut clock, "/x/a").unwrap();
        let b = rt.create(&mut clock, "/x/b").unwrap();
        for i in 0..64u64 {
            a.write(&mut clock, i * 4096, &[i as u8; 4096]);
            b.write(&mut clock, i * 4096, &[(i + 128) as u8; 4096]);
        }
        for i in (0..64u64).rev() {
            assert_eq!(a.read(&mut clock, i * 4096, 4096), vec![i as u8; 4096]);
            assert_eq!(
                b.read(&mut clock, i * 4096, 4096),
                vec![(i + 128) as u8; 4096]
            );
        }
    }
}

#[test]
fn remote_storage_is_slower_but_mechanism_ordering_holds() {
    let run = |device: DeviceConfig, mode: Mode| {
        let os = Os::new(
            OsConfig::with_memory_mb(64),
            Device::new(device),
            FileSystem::new(FsKind::Ext4Like),
        );
        let rt = Runtime::with_mode(Arc::clone(&os), mode);
        let mut clock = rt.new_clock();
        let file = rt.create_sized(&mut clock, "/r/f", 32 << 20).unwrap();
        if mode == Mode::AppOnly {
            file.advise(&mut clock, Advice::Random, 0, 0);
        }
        let t0 = clock.now();
        for i in 0..1024u64 {
            file.read_charge(&mut clock, i * 16 * 1024, 16 * 1024);
        }
        (clock.now() - t0) as f64
    };
    // Remote is slower than local for the same mechanism.
    let local = run(DeviceConfig::local_nvme(), Mode::PredictOpt);
    let remote = run(DeviceConfig::remote_nvmeof(), Mode::PredictOpt);
    assert!(remote > local);
    // CrossPrefetch still beats the no-prefetch posture on remote storage.
    let remote_app = run(DeviceConfig::remote_nvmeof(), Mode::AppOnly);
    assert!(remote_app > remote);
}

#[test]
fn lsm_store_runs_on_the_full_stack() {
    use minilsm::{bench_key, bench_value, Db, DbBench, DbOptions};
    let os = boot(128, FsKind::Ext4Like);
    let rt = Runtime::with_mode(Arc::clone(&os), Mode::PredictOpt);
    let mut clock = rt.new_clock();
    let db = Db::create(rt.clone(), &mut clock, DbOptions::default());
    let bench = DbBench::new(Arc::clone(&db), 30_000, 256);
    bench.fill_seq();

    os.drop_caches(&mut clock);
    rt.drop_cache_view(&mut clock);

    // Values survive the cache drop (they live on the device).
    let mut probe = rt.new_clock();
    for i in (0..30_000u64).step_by(1111) {
        assert_eq!(db.get(&mut probe, &bench_key(i)), Some(bench_value(i, 256)));
    }
    // And the read phase performs sane I/O accounting.
    let result = bench.read_random(4, 200, 3);
    assert!(result.hit_ratio >= 0.0 && result.hit_ratio <= 1.0);
    assert!(result.kops() > 0.0);
    // The dirty ledger balances over the WAL and SSTable writes.
    let s = os.stats();
    assert_eq!(
        s.dirtied_pages.get(),
        s.written_back_pages.get() + s.dropped_dirty_pages.get() + os.mem().dirty(),
        "dirty ledger out of balance"
    );
}

#[test]
fn snappy_workload_compresses_file_contents_faithfully() {
    use workloads::{compress, decompress};
    let os = boot(64, FsKind::Ext4Like);
    let rt = Runtime::with_mode(Arc::clone(&os), Mode::PredictOpt);
    let mut clock = rt.new_clock();
    let file = rt.create(&mut clock, "/sz/in").unwrap();
    let text: Vec<u8> = std::iter::repeat_n(
        b"all work and no play makes io a dull boy ".as_slice(),
        4000,
    )
    .flatten()
    .copied()
    .collect();
    file.write(&mut clock, 0, &text);

    let data = file.read(&mut clock, 0, text.len() as u64);
    let packed = compress(&data);
    assert!(
        packed.len() < text.len() / 4,
        "repetitive text compresses well"
    );
    assert_eq!(decompress(&packed).unwrap(), text);
}

#[test]
fn prefetch_quality_and_trace_cover_sequential_then_random() {
    use crossprefetch::RuntimeReport;
    use std::collections::HashSet;

    let os = boot(64, FsKind::Ext4Like);
    let rt = Runtime::with_mode(Arc::clone(&os), Mode::PredictOpt);
    assert!(!rt.trace().is_enabled(), "tracing must default to off");
    rt.trace().set_enabled(true);
    let mut clock = rt.new_clock();
    let file = rt.create_sized(&mut clock, "/q/data", 32 << 20).unwrap();

    // Phase 1: sequential scan of the first 8 MiB. The predictor ramps,
    // prefetch runs ahead, and consumed speculative pages classify as
    // timely (or late when the read overtakes the fill).
    for i in 0..512u64 {
        file.read_charge(&mut clock, i * 16 * 1024, 16 * 1024);
    }
    let mid = os.prefetch_quality();
    assert!(
        mid.timely + mid.late > 0,
        "sequential phase must consume prefetched pages"
    );

    // Phase 2: far random jumps. The predictor collapses to random (no
    // new prefetch), leaving the pages speculated ahead of the abandoned
    // sequential stream untouched.
    let mut state = 0x9E3779B97F4A7C15u64;
    for _ in 0..256 {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let offset = (state % (31 << 20)) & !4095;
        file.read_charge(&mut clock, offset, 16 * 1024);
    }

    // Evicting those never-read speculative pages marks them wasted.
    os.drop_caches(&mut clock);
    let quality = os.prefetch_quality();
    assert!(quality.timely > 0, "expected timely pages, got {quality:?}");
    assert!(quality.wasted > 0, "expected wasted pages, got {quality:?}");

    // The latency histograms separate outcome classes: the stream produces
    // prefetch hits, the random phase produces demand misses.
    let report = RuntimeReport::collect(&rt);
    assert!(report.read_prefetch_hit.count > 0);
    assert!(report.read_demand_miss.count > 0);
    assert_eq!(report.prefetch_quality.timely, quality.timely);

    // And the decision trace spans both layers with distinct event kinds.
    let events = rt.trace().snapshot();
    let kinds: HashSet<&str> = events.iter().map(|e| e.kind.name()).collect();
    assert!(
        kinds.len() >= 5,
        "expected >=5 distinct event kinds, got {kinds:?}"
    );
    assert!(kinds.contains("read-exit"));
    assert!(kinds.contains("ra-info-call"), "OS events must bridge over");
}

#[test]
fn mode_comparison_shapes_hold_end_to_end() {
    // The headline ordering on a batched-random shared file, asserted
    // across the whole stack in one place. Four threads keep the run in
    // the latency-sensitive regime where prefetching differentiates; at
    // full device saturation all mechanisms converge on bandwidth.
    let run = |mode: Mode| {
        let os = boot(48, FsKind::Ext4Like);
        let rt = Runtime::with_mode(Arc::clone(&os), mode);
        let cfg = workloads::MicroConfig {
            threads: 4,
            data_bytes: 128 << 20,
            io_bytes: 16 * 1024,
            ops_per_thread: 1200,
            shared: true,
            pattern: workloads::MicroPattern::BatchedRandom { batch: 8 },
            seed: 0xE2E,
        };
        workloads::setup_micro(&rt, &cfg);
        let result = workloads::run_micro(&rt, &cfg);
        (result.mbps(), result.miss_pct)
    };
    let (app, app_miss) = run(Mode::AppOnly);
    let (crossp, crossp_miss) = run(Mode::PredictOpt);
    assert!(
        crossp > app * 1.25,
        "CrossPrefetch {crossp:.0} MB/s must clearly beat APPonly {app:.0} MB/s"
    );
    assert!(
        crossp_miss < app_miss / 2.0,
        "CrossPrefetch miss {crossp_miss:.0}% must be well below APPonly {app_miss:.0}%"
    );
}
