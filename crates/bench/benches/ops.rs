//! Microbenches for the design-choice ablations DESIGN.md calls out:
//! bitmap fast path vs fincore-style scan, range-index mark/query,
//! predictor step cost, and `readahead_info` round trips.
//!
//! These measure *wall-clock* cost of the real data structures (not
//! virtual time), confirming the implementation itself is cheap enough to
//! sit on every I/O. The harness is hand-rolled (warmup + timed batches,
//! best-of-N ns/op) so it runs with no external bench framework.

use crossprefetch::{BPlusRangeIndex, LockScope, Mode, Predictor, Runtime};
use simclock::{CostModel, GlobalClock, ThreadClock};
use simos::{Device, DeviceConfig, FileSystem, FsKind, Os, OsConfig, RaInfoRequest};
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

/// Runs `op` in timed batches and prints the best observed ns/op.
fn bench_function<T>(name: &str, mut op: impl FnMut() -> T) {
    const BATCH: u32 = 1_000;
    const ROUNDS: u32 = 20;
    // Warmup: populate caches before measuring.
    for _ in 0..BATCH {
        black_box(op());
    }
    let mut best_ns = f64::INFINITY;
    for _ in 0..ROUNDS {
        let start = Instant::now();
        for _ in 0..BATCH {
            black_box(op());
        }
        let per_op = start.elapsed().as_nanos() as f64 / f64::from(BATCH);
        best_ns = best_ns.min(per_op);
    }
    println!("{name:<40} {best_ns:>12.1} ns/op");
}

fn clock() -> ThreadClock {
    ThreadClock::new(Arc::new(GlobalClock::new()))
}

fn bench_predictor() {
    let mut p = Predictor::new(3);
    let mut page = 0u64;
    bench_function("predictor_step_sequential", || {
        let pred = p.on_access(page, 4, true, 16384);
        page += 4;
        pred
    });
    let mut p = Predictor::new(3);
    let mut page = 0u64;
    bench_function("predictor_step_random", || {
        page = (page
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407))
            % 1_000_000;
        p.on_access(page, 4, true, 16384)
    });
}

fn bench_range_index() {
    let costs = CostModel::default();
    let index = BPlusRangeIndex::new();
    let mut clk = clock();
    let mut at = 0u64;
    bench_function("range_index_mark_64p", || {
        index.mark_cached(&mut clk, &costs, LockScope::PerNode, at, at + 64);
        at = (at + 64) % (1 << 20);
    });
    let index = BPlusRangeIndex::new();
    let mut clk = clock();
    index.mark_cached(&mut clk, &costs, LockScope::PerNode, 0, 1 << 16);
    bench_function("range_index_missing_query_1024p", || {
        index.missing_in(&mut clk, &costs, LockScope::PerNode, 100, 1124)
    });
}

fn os_with_file(bytes: u64) -> (Arc<Os>, simos::Fd, ThreadClock) {
    let os = Os::new(
        OsConfig::with_memory_mb(512),
        Device::new(DeviceConfig::local_nvme()),
        FileSystem::new(FsKind::Ext4Like),
    );
    let mut clk = os.new_clock();
    let fd = os.create_sized(&mut clk, "/bench", bytes).unwrap();
    (os, fd, clk)
}

fn bench_visibility_paths() {
    // The core CROSS-OS ablation: exported-bitmap query vs fincore scan.
    let (os, fd, mut clk) = os_with_file(256 << 20);
    bench_function("readahead_info_query_256MB_file", || {
        os.readahead_info(&mut clk, fd, RaInfoRequest::query(0, 4 << 20))
    });
    let (os, fd, mut clk) = os_with_file(256 << 20);
    bench_function("fincore_scan_256MB_file", || os.fincore(&mut clk, fd));
}

fn bench_runtime_read() {
    let os = Os::new(
        OsConfig::with_memory_mb(256),
        Device::new(DeviceConfig::local_nvme()),
        FileSystem::new(FsKind::Ext4Like),
    );
    let rt = Runtime::with_mode(os, Mode::PredictOpt);
    let mut clk = rt.new_clock();
    let file = rt.create_sized(&mut clk, "/hot", 8 << 20).unwrap();
    // Warm everything.
    for i in 0..512u64 {
        file.read_charge(&mut clk, i * 16_384, 16_384);
    }
    let mut i = 0u64;
    bench_function("crosslib_cached_read_16k", || {
        let outcome = file.read_charge(&mut clk, (i % 512) * 16_384, 16_384);
        i += 1;
        outcome
    });
}

fn bench_snappy() {
    let compressible: Vec<u8> = std::iter::repeat_n(b"the quick brown fox ".as_slice(), 3277)
        .flatten()
        .copied()
        .collect();
    bench_function("snappy/compress_64k_text", || {
        workloads::compress(black_box(&compressible))
    });
    let packed = workloads::compress(&compressible);
    bench_function("snappy/decompress_64k_text", || {
        workloads::decompress(black_box(&packed)).unwrap()
    });
}

fn main() {
    println!("{:<40} {:>12}", "bench", "best");
    bench_predictor();
    bench_range_index();
    bench_visibility_paths();
    bench_runtime_read();
    bench_snappy();
}
