//! The paper's custom multi-threaded microbenchmark (§5.2).
//!
//! Threads issue 16 KiB reads either on **private** per-thread files or on
//! non-overlapping regions of one **shared** file, with **sequential** or
//! **batched-random** access (the paper's "rand" pattern: batched reads
//! within a randomly chosen region, like RocksDB's batched-but-random
//! analysis workload). Figure 6's variant adds concurrent writers to the
//! shared file and reports aggregated write throughput.
//!
//! The `APPonly` policy is implemented here, as in real applications: for
//! sequential work the app issues a large `readahead` per region and
//! assumes it completed (Figure 1's under-prefetch pathology); for random
//! work it disables OS prefetching like RocksDB does.

use crossprefetch::{Advice, CpFile, Mode, Runtime, PAGE_SIZE};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use simclock::Throughput;

/// Access pattern of the microbenchmark.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MicroPattern {
    /// Sequential streaming over the thread's region.
    Sequential,
    /// Batched-random: pick a random spot in the region, read `batch`
    /// consecutive I/Os, jump again.
    BatchedRandom {
        /// Consecutive I/Os per batch.
        batch: u64,
    },
}

/// Microbenchmark parameters.
#[derive(Debug, Clone)]
pub struct MicroConfig {
    /// Worker threads.
    pub threads: usize,
    /// Total dataset bytes (split across private files, or the shared
    /// file's size).
    pub data_bytes: u64,
    /// Bytes per I/O (paper: 16 KiB).
    pub io_bytes: u64,
    /// I/O operations per thread.
    pub ops_per_thread: u64,
    /// One shared file vs. a private file per thread.
    pub shared: bool,
    /// Access pattern.
    pub pattern: MicroPattern,
    /// RNG seed.
    pub seed: u64,
}

impl Default for MicroConfig {
    fn default() -> Self {
        Self {
            threads: 8,
            data_bytes: 1 << 30,
            io_bytes: 16 * 1024,
            ops_per_thread: 2_000,
            shared: true,
            pattern: MicroPattern::BatchedRandom { batch: 8 },
            seed: 42,
        }
    }
}

/// Microbenchmark outcome.
#[derive(Debug, Clone, Copy)]
pub struct MicroResult {
    /// Bytes read (or written, for the writer side of the RW variant).
    pub bytes: u64,
    /// Operations completed.
    pub ops: u64,
    /// Slowest worker's virtual span.
    pub elapsed_ns: u64,
    /// Page-cache miss rate over the run, in percent.
    pub miss_pct: f64,
}

impl MicroResult {
    /// Aggregate MB/s of virtual time.
    pub fn mbps(&self) -> f64 {
        Throughput::new(self.bytes, self.ops, self.elapsed_ns).mb_per_sec()
    }
}

fn region_of(cfg: &MicroConfig, thread: usize) -> (u64, u64) {
    let region = cfg.data_bytes / cfg.threads as u64;
    let start = region * thread as u64;
    (start, start + region)
}

fn apply_apponly_policy(
    runtime: &Runtime,
    clock: &mut simclock::ThreadClock,
    file: &CpFile,
    pattern: MicroPattern,
) {
    if runtime.config().mode != Mode::AppOnly {
        return;
    }
    match pattern {
        // Sequential: hint the OS and prefetch big (which the OS caps).
        MicroPattern::Sequential => {
            file.advise(clock, Advice::Sequential, 0, 0);
        }
        // Random: RocksDB-style distrust — disable OS prefetching.
        MicroPattern::BatchedRandom { .. } => {
            file.advise(clock, Advice::Random, 0, 0);
        }
    }
}

/// Prepares the dataset files for `cfg` (preallocated, cold cache).
pub fn setup_micro(runtime: &Runtime, cfg: &MicroConfig) {
    let clock = runtime.new_clock();
    if cfg.shared {
        runtime
            .os()
            .fs()
            .create_sized("/micro/shared", cfg.data_bytes)
            .expect("fresh namespace");
    } else {
        let per_thread = cfg.data_bytes / cfg.threads as u64;
        for t in 0..cfg.threads {
            runtime
                .os()
                .fs()
                .create_sized(&format!("/micro/t{t}"), per_thread)
                .expect("fresh namespace");
        }
    }
    let _ = clock;
}

/// Runs the read microbenchmark. Call [`setup_micro`] first.
pub fn run_micro(runtime: &Runtime, cfg: &MicroConfig) -> MicroResult {
    let hits0 = runtime.os().stats().hit_pages.get();
    let miss0 = runtime.os().stats().miss_pages.get();
    let start = runtime.os().global().now();

    let spans = simclock::run_threads(runtime.os().global(), start, cfg.threads, |t, clock| {
        let path = if cfg.shared {
            "/micro/shared".to_string()
        } else {
            format!("/micro/t{t}")
        };
        let file = runtime.open(clock, &path).expect("setup ran");
        apply_apponly_policy(runtime, clock, &file, cfg.pattern);

        let (lo, hi) = if cfg.shared {
            region_of(cfg, t)
        } else {
            (0, cfg.data_bytes / cfg.threads as u64)
        };
        let mut rng = StdRng::seed_from_u64(cfg.seed ^ (t as u64) << 32);
        let mut bytes = 0u64;
        let io = cfg.io_bytes;
        let app_only = runtime.config().mode == Mode::AppOnly;

        match cfg.pattern {
            MicroPattern::Sequential => {
                let mut offset = lo;
                let mut since_ra = u64::MAX; // force initial RA
                for _ in 0..cfg.ops_per_thread {
                    if offset + io > hi {
                        offset = lo;
                    }
                    // APPonly: prefetch 4 MiB ahead per region
                    // and assume it happened (Figure 1).
                    if app_only && since_ra >= (4 << 20) {
                        file.readahead(clock, offset, 4 << 20);
                        since_ra = 0;
                    }
                    file.read_charge(clock, offset, io);
                    offset += io;
                    since_ra = since_ra.saturating_add(io);
                    bytes += io;
                }
            }
            MicroPattern::BatchedRandom { batch } => {
                let span = (hi - lo).saturating_sub(batch * io).max(1);
                let mut done = 0u64;
                while done < cfg.ops_per_thread {
                    let base = lo + rng.gen_range(0..span) / PAGE_SIZE * PAGE_SIZE;
                    for j in 0..batch.min(cfg.ops_per_thread - done) {
                        file.read_charge(clock, base + j * io, io);
                        bytes += io;
                    }
                    done += batch;
                }
            }
        }
        (bytes, clock.now() - start)
    });

    let hits = runtime.os().stats().hit_pages.get() - hits0;
    let misses = runtime.os().stats().miss_pages.get() - miss0;
    MicroResult {
        bytes: spans.iter().map(|s| s.0).sum(),
        ops: cfg.threads as u64 * cfg.ops_per_thread,
        elapsed_ns: spans.iter().map(|s| s.1).max().unwrap_or(1).max(1),
        miss_pct: if hits + misses == 0 {
            0.0
        } else {
            100.0 * misses as f64 / (hits + misses) as f64
        },
    }
}

/// Figure 6 variant: `readers` random readers plus `writers` random
/// writers on non-overlapping ranges of one shared file. Returns
/// `(write_result, read_result)`.
pub fn run_shared_rw(
    runtime: &Runtime,
    readers: usize,
    writers: usize,
    data_bytes: u64,
    ops_per_thread: u64,
    seed: u64,
) -> (MicroResult, MicroResult) {
    {
        runtime
            .os()
            .fs()
            .create_sized("/micro/rw", data_bytes)
            .expect("fresh namespace");
    }
    let io = 16 * 1024u64;
    let total = readers + writers;
    let start = runtime.os().global().now();

    let spans = simclock::run_threads(runtime.os().global(), start, total, |t, clock| {
        let is_writer = t < writers;
        let file = runtime.open(clock, "/micro/rw").expect("created");
        if runtime.config().mode == Mode::AppOnly {
            file.advise(clock, Advice::Random, 0, 0);
        }
        let region = data_bytes / total as u64;
        let lo = region * t as u64;
        let span = region.saturating_sub(8 * io).max(1);
        let mut rng = StdRng::seed_from_u64(seed ^ (t as u64) << 28);
        let mut bytes = 0u64;
        let mut done = 0u64;
        while done < ops_per_thread {
            let base = lo + rng.gen_range(0..span) / PAGE_SIZE * PAGE_SIZE;
            for j in 0..8.min(ops_per_thread - done) {
                if is_writer {
                    file.write_charge(clock, base + j * io, io);
                } else {
                    file.read_charge(clock, base + j * io, io);
                }
                bytes += io;
            }
            done += 8;
        }
        (is_writer, bytes, clock.now() - start)
    });

    let collect = |want_writer: bool| {
        let picked: Vec<_> = spans.iter().filter(|s| s.0 == want_writer).collect();
        MicroResult {
            bytes: picked.iter().map(|s| s.1).sum(),
            ops: picked.len() as u64 * ops_per_thread,
            elapsed_ns: picked.iter().map(|s| s.2).max().unwrap_or(1).max(1),
            miss_pct: 0.0,
        }
    };
    (collect(true), collect(false))
}

#[cfg(test)]
mod tests {
    use super::*;
    use simos::{Device, DeviceConfig, FileSystem, FsKind, Os, OsConfig};

    fn runtime(mode: Mode, memory_mb: u64) -> Runtime {
        let os = Os::new(
            OsConfig::with_memory_mb(memory_mb),
            Device::new(DeviceConfig::local_nvme()),
            FileSystem::new(FsKind::Ext4Like),
        );
        Runtime::with_mode(os, mode)
    }

    fn small_cfg(pattern: MicroPattern, shared: bool) -> MicroConfig {
        // 8 threads keep the device saturated, where prefetch efficiency
        // (request amortization) separates the mechanisms.
        MicroConfig {
            threads: 8,
            data_bytes: 256 << 20,
            io_bytes: 16 * 1024,
            ops_per_thread: 1200,
            shared,
            pattern,
            seed: 7,
        }
    }

    #[test]
    fn sequential_crossp_competitive_with_osonly() {
        // Sequential streams are where OS readahead is at its best; the
        // paper reports modest CrossPrefetch gains there. Under parallel
        // test execution the thread interleaving adds noise, so this test
        // asserts parity-or-better with a small tolerance — the decisive
        // full-scale comparison is fig05_micro's bench output.
        let run = |mode| {
            let rt = runtime(mode, 128);
            let cfg = small_cfg(MicroPattern::Sequential, false);
            setup_micro(&rt, &cfg);
            let result = run_micro(&rt, &cfg);
            (result.mbps(), result.miss_pct)
        };
        let (osonly, _) = run(Mode::OsOnly);
        let (crossp, crossp_miss) = run(Mode::Predict);
        assert!(
            crossp > osonly * 0.9,
            "seq: CrossP {crossp:.0} MB/s vs OSonly {osonly:.0} MB/s"
        );
        assert!(crossp_miss < 10.0, "seq miss rate {crossp_miss:.0}%");
    }

    #[test]
    fn batched_random_crossp_beats_apponly() {
        let run = |mode| {
            let rt = runtime(mode, 64);
            let cfg = small_cfg(MicroPattern::BatchedRandom { batch: 8 }, true);
            setup_micro(&rt, &cfg);
            let result = run_micro(&rt, &cfg);
            (result.mbps(), result.miss_pct)
        };
        let (app, app_miss) = run(Mode::AppOnly);
        let (crossp, crossp_miss) = run(Mode::PredictOpt);
        assert!(
            crossp > app,
            "rand: CrossP {crossp:.0} MB/s vs APPonly {app:.0} MB/s"
        );
        assert!(
            crossp_miss < app_miss,
            "rand miss: CrossP {crossp_miss:.0}% vs APPonly {app_miss:.0}%"
        );
    }

    #[test]
    fn shared_rw_produces_both_sides() {
        let rt = runtime(Mode::PredictOpt, 64);
        let (w, r) = run_shared_rw(&rt, 4, 2, 128 << 20, 200, 3);
        assert!(w.bytes > 0 && r.bytes > 0);
        assert_eq!(w.ops, 2 * 200);
        assert_eq!(r.ops, 4 * 200);
    }

    #[test]
    fn private_files_have_no_shared_tree_contention() {
        let rt = runtime(Mode::OsOnly, 128);
        let cfg = small_cfg(MicroPattern::Sequential, false);
        setup_micro(&rt, &cfg);
        run_micro(&rt, &cfg);
        // Four private files exist.
        assert!(rt.os().fs().lookup("/micro/t0").is_some());
        assert!(rt.os().fs().lookup("/micro/t3").is_some());
    }
}
