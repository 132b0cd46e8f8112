//! Shared-file analytics: many threads scanning disjoint regions of one
//! big file — the HPC pattern the paper's microbenchmark models (§5.2).
//!
//! Demonstrates the concurrency half of CrossPrefetch: with one shared
//! file, every thread's cache-state updates used to serialize on a single
//! per-file lock; the range tree gives each 4 MiB region its own lock, so
//! non-overlapping workers proceed in parallel.
//!
//! Run with: `cargo run --release --example shared_file_analytics`

use crossprefetch::{Mode, Runtime};
use simos::{Device, DeviceConfig, FileSystem, FsKind, Os, OsConfig};
use std::sync::Arc;

const FILE_BYTES: u64 = 256 << 20;
const THREADS: usize = 16;

fn run(mode: Mode) -> (f64, u64) {
    let os = Os::new(
        OsConfig::with_memory_mb(128),
        Device::new(DeviceConfig::local_nvme()),
        FileSystem::new(FsKind::Ext4Like),
    );
    let runtime = Runtime::with_mode(Arc::clone(&os), mode);
    os.fs()
        .create_sized("/warehouse/events.bin", FILE_BYTES)
        .unwrap();

    let start = os.global().now();
    let spans = simclock::run_threads(os.global(), start, THREADS, |t, clock| {
        let file = runtime.open(clock, "/warehouse/events.bin").unwrap();
        // Each analyst scans its own shard.
        let shard = FILE_BYTES / THREADS as u64;
        let lo = shard * t as u64;
        let chunk = 64 * 1024u64;
        for i in 0..(shard / chunk) {
            file.read_charge(clock, lo + i * chunk, chunk);
        }
        clock.now() - start
    });
    let elapsed = *spans.iter().max().unwrap();
    let mbps = (FILE_BYTES as f64 / 1e6) / (elapsed as f64 / 1e9);
    (mbps, runtime.lib_lock_wait_ns())
}

fn main() {
    println!("16 threads scanning disjoint shards of one 256 MiB file\n");
    println!(
        "{:<24} {:>14} {:>22}",
        "mechanism", "aggregate MB/s", "user-level lock wait"
    );
    println!("{}", "-".repeat(62));
    for mode in [Mode::OsOnly, Mode::Predict, Mode::PredictOpt] {
        let (mbps, lock_wait) = run(mode);
        println!(
            "{:<24} {:>14.0} {:>19}us",
            mode.label(),
            mbps,
            lock_wait / 1_000
        );
    }
    println!();
    println!("The range tree keeps non-overlapping shards on separate locks,");
    println!("so the user-level lock wait stays negligible as threads scale.");
}
