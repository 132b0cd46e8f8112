//! YCSB cloud-serving workloads A–F over the LSM store (Figure 9a).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use minilsm::{bench_key, bench_value, BenchResult, Db, DbIter, ScanDirection};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::zipf::{Latest, Zipfian};

/// The six core YCSB workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum YcsbWorkload {
    /// 50% read / 50% update, zipfian.
    A,
    /// 95% read / 5% update, zipfian.
    B,
    /// 100% read, zipfian.
    C,
    /// 95% read of recent keys / 5% insert ("latest" distribution).
    D,
    /// 95% short scans / 5% insert, zipfian start keys.
    E,
    /// 50% read / 50% read-modify-write, zipfian.
    F,
}

impl YcsbWorkload {
    /// All six, in order.
    pub fn all() -> [YcsbWorkload; 6] {
        [
            YcsbWorkload::A,
            YcsbWorkload::B,
            YcsbWorkload::C,
            YcsbWorkload::D,
            YcsbWorkload::E,
            YcsbWorkload::F,
        ]
    }

    /// Display label.
    pub fn label(self) -> &'static str {
        match self {
            YcsbWorkload::A => "A",
            YcsbWorkload::B => "B",
            YcsbWorkload::C => "C",
            YcsbWorkload::D => "D",
            YcsbWorkload::E => "E",
            YcsbWorkload::F => "F",
        }
    }
}

/// YCSB run-phase parameters.
#[derive(Debug, Clone)]
pub struct YcsbConfig {
    /// Which workload mix.
    pub workload: YcsbWorkload,
    /// Client threads (paper: 16).
    pub threads: usize,
    /// Operations per thread.
    pub ops_per_thread: u64,
    /// Keys loaded in the warm-up phase.
    pub keys: u64,
    /// Value size (paper: 4 KiB).
    pub value_bytes: usize,
    /// Zipfian skew (YCSB default 0.99).
    pub theta: f64,
    /// Entries per scan for workload E.
    pub scan_len: u64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for YcsbConfig {
    fn default() -> Self {
        Self {
            workload: YcsbWorkload::C,
            threads: 16,
            ops_per_thread: 500,
            keys: 100_000,
            value_bytes: 4096,
            theta: 0.99,
            scan_len: 50,
            seed: 99,
        }
    }
}

/// Runs the YCSB run phase against a pre-loaded database.
pub fn run_ycsb(db: &Arc<Db>, cfg: &YcsbConfig) -> BenchResult {
    let zipf = Zipfian::new(cfg.keys, cfg.theta);
    let latest = Latest::new(cfg.keys, cfg.theta);
    let insert_counter = AtomicU64::new(cfg.keys);
    let hits0 = db.runtime().os().stats().hit_pages.get();
    let miss0 = db.runtime().os().stats().miss_pages.get();
    let start = db.runtime().os().global().now();

    let global = db.runtime().os().global();
    let spans = simclock::run_threads(global, start, cfg.threads, |t, clock| {
        let mut rng = StdRng::seed_from_u64(cfg.seed ^ (t as u64) << 32);
        let mut ops = 0u64;
        let mut bytes = 0u64;
        for _ in 0..cfg.ops_per_thread {
            let dice: f64 = rng.gen();
            match cfg.workload {
                YcsbWorkload::A => {
                    if dice < 0.5 {
                        bytes += ycsb_read(db, clock, &zipf, &mut rng, cfg);
                    } else {
                        ycsb_update(db, clock, &zipf, &mut rng, cfg);
                        bytes += cfg.value_bytes as u64;
                    }
                }
                YcsbWorkload::B => {
                    if dice < 0.95 {
                        bytes += ycsb_read(db, clock, &zipf, &mut rng, cfg);
                    } else {
                        ycsb_update(db, clock, &zipf, &mut rng, cfg);
                        bytes += cfg.value_bytes as u64;
                    }
                }
                YcsbWorkload::C => {
                    bytes += ycsb_read(db, clock, &zipf, &mut rng, cfg);
                }
                YcsbWorkload::D => {
                    if dice < 0.95 {
                        let max = insert_counter.load(Ordering::Relaxed);
                        let key = latest.sample(&mut rng, max);
                        if let Some(v) = db.get(clock, &bench_key(key)) {
                            bytes += v.len() as u64;
                        }
                    } else {
                        let key = insert_counter.fetch_add(1, Ordering::Relaxed);
                        db.put(clock, &bench_key(key), &bench_value(key, cfg.value_bytes));
                        bytes += cfg.value_bytes as u64;
                    }
                }
                YcsbWorkload::E => {
                    if dice < 0.95 {
                        let from = zipf.sample(&mut rng);
                        let start_key = bench_key(from);
                        let mut iter =
                            DbIter::new(db, clock, Some(&start_key), ScanDirection::Forward);
                        for _ in 0..cfg.scan_len {
                            match iter.next(clock) {
                                Some(entry) => {
                                    bytes += entry.value.map_or(0, |v| v.len() as u64);
                                }
                                None => break,
                            }
                        }
                    } else {
                        let key = insert_counter.fetch_add(1, Ordering::Relaxed);
                        db.put(clock, &bench_key(key), &bench_value(key, cfg.value_bytes));
                        bytes += cfg.value_bytes as u64;
                    }
                }
                YcsbWorkload::F => {
                    if dice < 0.5 {
                        bytes += ycsb_read(db, clock, &zipf, &mut rng, cfg);
                    } else {
                        // Read-modify-write.
                        let key = zipf.sample(&mut rng);
                        let kb = bench_key(key);
                        if let Some(v) = db.get(clock, &kb) {
                            bytes += v.len() as u64;
                        }
                        db.put(clock, &kb, &bench_value(key, cfg.value_bytes));
                        bytes += cfg.value_bytes as u64;
                    }
                }
            }
            ops += 1;
        }
        (ops, bytes, clock.now() - start)
    });

    let hits = db.runtime().os().stats().hit_pages.get() - hits0;
    let misses = db.runtime().os().stats().miss_pages.get() - miss0;
    BenchResult {
        ops: spans.iter().map(|s| s.0).sum(),
        bytes: spans.iter().map(|s| s.1).sum(),
        elapsed_ns: spans.iter().map(|s| s.2).max().unwrap_or(1).max(1),
        hit_ratio: if hits + misses == 0 {
            1.0
        } else {
            hits as f64 / (hits + misses) as f64
        },
    }
}

fn ycsb_read(
    db: &Arc<Db>,
    clock: &mut simclock::ThreadClock,
    zipf: &Zipfian,
    rng: &mut StdRng,
    _cfg: &YcsbConfig,
) -> u64 {
    let key = zipf.sample(rng);
    db.get(clock, &bench_key(key)).map_or(0, |v| v.len() as u64)
}

fn ycsb_update(
    db: &Arc<Db>,
    clock: &mut simclock::ThreadClock,
    zipf: &Zipfian,
    rng: &mut StdRng,
    cfg: &YcsbConfig,
) {
    let key = zipf.sample(rng);
    db.put(clock, &bench_key(key), &bench_value(key, cfg.value_bytes));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crossprefetch::{Mode, Runtime};
    use minilsm::{DbBench, DbOptions};
    use simos::{Device, DeviceConfig, FileSystem, FsKind, Os, OsConfig};

    fn loaded_db(keys: u64) -> Arc<Db> {
        let os = Os::new(
            OsConfig::with_memory_mb(128),
            Device::new(DeviceConfig::local_nvme()),
            FileSystem::new(FsKind::Ext4Like),
        );
        let runtime = Runtime::with_mode(os, Mode::PredictOpt);
        let mut clock = runtime.new_clock();
        let db = Db::create(runtime, &mut clock, DbOptions::default());
        let bench = DbBench::new(Arc::clone(&db), keys, 256);
        bench.fill_seq();
        db
    }

    #[test]
    fn all_workloads_complete() {
        let db = loaded_db(20_000);
        for workload in YcsbWorkload::all() {
            let cfg = YcsbConfig {
                workload,
                threads: 4,
                ops_per_thread: 50,
                keys: 20_000,
                value_bytes: 256,
                scan_len: 10,
                ..YcsbConfig::default()
            };
            let result = run_ycsb(&db, &cfg);
            assert_eq!(result.ops, 200, "workload {}", workload.label());
            assert!(result.bytes > 0, "workload {}", workload.label());
        }
    }

    #[test]
    fn workload_d_inserts_grow_the_keyspace() {
        let db = loaded_db(10_000);
        let cfg = YcsbConfig {
            workload: YcsbWorkload::D,
            threads: 4,
            ops_per_thread: 200,
            keys: 10_000,
            value_bytes: 128,
            ..YcsbConfig::default()
        };
        run_ycsb(&db, &cfg);
        // Some inserted keys beyond the original space must exist.
        let mut clock = db.runtime().new_clock();
        let found = (10_000..10_040u64).any(|k| db.get(&mut clock, &bench_key(k)).is_some());
        assert!(found, "workload D must insert new keys");
    }
}
