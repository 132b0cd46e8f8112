//! `db_bench`-style workload driver.
//!
//! Implements the access patterns the paper evaluates on RocksDB:
//! `fillseq` (load), `readrandom`, `multireadrandom` (batched MultiGet —
//! the paper's "batched-but-random" pattern), `readseq`, `readreverse`,
//! and `readwhilescanning`. Worker threads are real OS threads, each with
//! its own virtual clock; reported throughput is ops over the slowest
//! worker's virtual span, matching how db_bench reports aggregate numbers.

use std::sync::Arc;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use simclock::Throughput;

use crate::db::Db;
use crate::iter::{DbIter, ScanDirection};

/// Fixed-width db_bench-style key encoding.
pub fn bench_key(i: u64) -> Vec<u8> {
    format!("{i:016}").into_bytes()
}

/// Deterministic value bytes for key `i`.
pub fn bench_value(i: u64, len: usize) -> Vec<u8> {
    let mut v = vec![0u8; len];
    let seed = i.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    for (j, b) in v.iter_mut().enumerate() {
        *b = (seed.rotate_left((j % 61) as u32) as u8).wrapping_add(j as u8);
    }
    v
}

/// One workload's outcome.
#[derive(Debug, Clone, Copy)]
pub struct BenchResult {
    /// Operations completed across all threads.
    pub ops: u64,
    /// Payload bytes touched.
    pub bytes: u64,
    /// Virtual elapsed time (slowest worker).
    pub elapsed_ns: u64,
    /// Page-cache hit ratio during the run.
    pub hit_ratio: f64,
}

impl BenchResult {
    /// Thousand operations per second of virtual time.
    pub fn kops(&self) -> f64 {
        Throughput::new(self.bytes, self.ops, self.elapsed_ns).kops_per_sec()
    }

    /// Megabytes per second of virtual time.
    pub fn mbps(&self) -> f64 {
        Throughput::new(self.bytes, self.ops, self.elapsed_ns).mb_per_sec()
    }
}

/// The db_bench driver bound to one database.
#[derive(Debug)]
pub struct DbBench {
    db: Arc<Db>,
    /// Total keys loaded by the fill phase.
    pub keys: u64,
    /// Value size in bytes.
    pub value_bytes: usize,
}

impl DbBench {
    /// Wraps a database for benchmarking.
    pub fn new(db: Arc<Db>, keys: u64, value_bytes: usize) -> Self {
        Self {
            db,
            keys,
            value_bytes,
        }
    }

    /// The database under test.
    pub fn db(&self) -> &Arc<Db> {
        &self.db
    }

    /// `fillseq`: loads keys `0..self.keys` in order and flushes.
    pub fn fill_seq(&self) -> BenchResult {
        let mut clock = self.db.runtime().new_clock();
        let start = clock.now();
        for i in 0..self.keys {
            self.db
                .put(&mut clock, &bench_key(i), &bench_value(i, self.value_bytes));
        }
        self.db.flush(&mut clock);
        BenchResult {
            ops: self.keys,
            bytes: self.keys * self.value_bytes as u64,
            elapsed_ns: clock.now() - start,
            hit_ratio: self.db.runtime().os().hit_ratio(),
        }
    }

    fn run_threads<F>(&self, threads: usize, worker: F) -> BenchResult
    where
        F: Fn(usize, &mut simclock::ThreadClock) -> (u64, u64) + Sync,
    {
        let hits0 = self.db.runtime().os().stats().hit_pages.get();
        let miss0 = self.db.runtime().os().stats().miss_pages.get();
        let start = self.db.runtime().os().global().now();
        let global = self.db.runtime().os().global();
        let results = simclock::run_threads(global, start, threads, |t, clock| {
            let (ops, bytes) = worker(t, clock);
            (ops, bytes, clock.now() - start)
        });
        let hits = self.db.runtime().os().stats().hit_pages.get() - hits0;
        let misses = self.db.runtime().os().stats().miss_pages.get() - miss0;
        BenchResult {
            ops: results.iter().map(|r| r.0).sum(),
            bytes: results.iter().map(|r| r.1).sum(),
            elapsed_ns: results.iter().map(|r| r.2).max().unwrap_or(1).max(1),
            hit_ratio: if hits + misses == 0 {
                1.0
            } else {
                hits as f64 / (hits + misses) as f64
            },
        }
    }

    /// `readrandom`: uniform point gets.
    pub fn read_random(&self, threads: usize, ops_per_thread: u64, seed: u64) -> BenchResult {
        self.run_threads(threads, |t, clock| {
            let mut rng = StdRng::seed_from_u64(seed ^ (t as u64) << 32);
            let mut bytes = 0u64;
            for _ in 0..ops_per_thread {
                let key = bench_key(rng.gen_range(0..self.keys));
                if let Some(v) = self.db.get(clock, &key) {
                    bytes += v.len() as u64;
                }
            }
            (ops_per_thread, bytes)
        })
    }

    /// `multireadrandom`: batched gets from a random base — adjacent keys
    /// in a batch share SSTable blocks, the paper's batched-but-random
    /// pattern.
    pub fn multiread_random(
        &self,
        threads: usize,
        batches_per_thread: u64,
        batch: u64,
        seed: u64,
    ) -> BenchResult {
        self.run_threads(threads, |t, clock| {
            let mut rng = StdRng::seed_from_u64(seed ^ (t as u64) << 32);
            let mut bytes = 0u64;
            for _ in 0..batches_per_thread {
                let base = rng.gen_range(0..self.keys.saturating_sub(batch).max(1));
                let mut keys: Vec<Vec<u8>> = (0..batch).map(|j| bench_key(base + j)).collect();
                for value in self.db.multi_get(clock, &mut keys).into_iter().flatten() {
                    bytes += value.len() as u64;
                }
            }
            (batches_per_thread * batch, bytes)
        })
    }

    /// `readseq`: each thread scans a contiguous shard of the key space.
    pub fn read_seq(&self, threads: usize) -> BenchResult {
        self.scan_workload(threads, ScanDirection::Forward)
    }

    /// `readreverse`: each thread scans its shard backwards.
    pub fn read_reverse(&self, threads: usize) -> BenchResult {
        self.scan_workload(threads, ScanDirection::Reverse)
    }

    fn scan_workload(&self, threads: usize, direction: ScanDirection) -> BenchResult {
        let shard = self.keys / threads as u64;
        self.run_threads(threads, |t, clock| {
            let lo = shard * t as u64;
            let hi = if t == threads - 1 {
                self.keys
            } else {
                shard * (t as u64 + 1)
            };
            let start_key = match direction {
                ScanDirection::Forward => bench_key(lo),
                ScanDirection::Reverse => bench_key(hi - 1),
            };
            let mut iter = DbIter::new(&self.db, clock, Some(&start_key), direction);
            let mut ops = 0u64;
            let mut bytes = 0u64;
            let limit_lo = bench_key(lo);
            let limit_hi = bench_key(hi);
            while let Some(entry) = iter.next(clock) {
                let inside = match direction {
                    ScanDirection::Forward => entry.key < limit_hi,
                    ScanDirection::Reverse => entry.key >= limit_lo,
                };
                if !inside {
                    break;
                }
                ops += 1;
                bytes += entry.value.map_or(0, |v| v.len() as u64);
            }
            (ops, bytes)
        })
    }

    /// `readwhilescanning`: thread 0 scans continuously while the others
    /// issue random gets.
    pub fn read_while_scanning(
        &self,
        threads: usize,
        ops_per_thread: u64,
        seed: u64,
    ) -> BenchResult {
        self.run_threads(threads, |t, clock| {
            if t == 0 {
                let mut iter = DbIter::new(&self.db, clock, None, ScanDirection::Forward);
                let mut ops = 0u64;
                let mut bytes = 0u64;
                // The scanner covers roughly as much work as a reader.
                for _ in 0..ops_per_thread * 4 {
                    match iter.next(clock) {
                        Some(entry) => {
                            ops += 1;
                            bytes += entry.value.map_or(0, |v| v.len() as u64);
                        }
                        None => {
                            iter = DbIter::new(&self.db, clock, None, ScanDirection::Forward);
                        }
                    }
                }
                (ops, bytes)
            } else {
                let mut rng = StdRng::seed_from_u64(seed ^ (t as u64) << 32);
                let mut bytes = 0u64;
                for _ in 0..ops_per_thread {
                    let key = bench_key(rng.gen_range(0..self.keys));
                    if let Some(v) = self.db.get(clock, &key) {
                        bytes += v.len() as u64;
                    }
                }
                (ops_per_thread, bytes)
            }
        })
    }
}
