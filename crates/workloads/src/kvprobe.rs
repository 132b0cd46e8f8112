//! KvProbe: a zipfian index-then-data probe workload (the YCSB-C shape
//! correlation prefetching targets).
//!
//! Each probe samples a key from a [`Zipfian`] distribution, reads the
//! key's *index* page, then walks the key's *record* — a short run of
//! consecutive data pages placed at a hashed (key-order-destroying) slot
//! in the data region. The resulting page stream is what separates the
//! prediction engines:
//!
//! * index page → first record page is a recurring *jump* for hot keys
//!   (mineable association, invisible to a stride detector);
//! * within a record the stream is briefly sequential: a bare `2^c`
//!   counter ramps up inside it and overshoots past its end, which is
//!   why the strided predictor plans such runs by their learned length;
//! * hashed record placement means no global stride ever emerges.
//!
//! The driver is single-threaded and fully deterministic for a given
//! config, so engine comparisons and same-seed determinism checks can
//! diff telemetry byte-for-byte.

use crossprefetch::{Runtime, PAGE_SIZE};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::zipf::Zipfian;

/// KvProbe parameters.
#[derive(Debug, Clone)]
pub struct KvProbeConfig {
    /// Distinct keys (one index page each).
    pub keys: u64,
    /// Consecutive data pages per record.
    pub record_pages: u64,
    /// Key probes to issue.
    pub probes: u64,
    /// Zipfian skew over the key space (YCSB default 0.99).
    pub theta: f64,
    /// RNG seed for the key sampler.
    pub seed: u64,
}

impl Default for KvProbeConfig {
    fn default() -> Self {
        Self {
            keys: 512,
            record_pages: 8,
            probes: 4096,
            theta: 0.99,
            seed: 42,
        }
    }
}

impl KvProbeConfig {
    /// Pages in the index region (one per key).
    pub fn index_pages(&self) -> u64 {
        self.keys
    }

    /// Total dataset bytes (index region + data region).
    pub fn dataset_bytes(&self) -> u64 {
        (self.index_pages() + self.keys * self.record_pages) * PAGE_SIZE
    }

    /// First byte of `key`'s record: records live at hashed slots so key
    /// order says nothing about data order.
    fn record_offset(&self, key: u64) -> u64 {
        let slot = splitmix64(key ^ self.seed.rotate_left(17)) % self.keys;
        (self.index_pages() + slot * self.record_pages) * PAGE_SIZE
    }
}

/// KvProbe outcome.
#[derive(Debug, Clone, Copy)]
pub struct KvProbeResult {
    /// Index-page reads issued (one per probe).
    pub index_reads: u64,
    /// Data-page reads issued.
    pub data_reads: u64,
    /// Bytes read.
    pub bytes: u64,
    /// Virtual span of the run.
    pub elapsed_ns: u64,
}

/// SplitMix64 finalizer — the slot hash (deterministic, dependency-free).
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Creates the probe dataset at `path` (preallocated, cold cache).
pub fn setup_kvprobe(runtime: &Runtime, cfg: &KvProbeConfig, path: &str) {
    runtime
        .os()
        .fs()
        .create_sized(path, cfg.dataset_bytes())
        .expect("fresh namespace");
}

/// Runs the probe loop. Call [`setup_kvprobe`] first.
///
/// Staged prefetch batches are flushed before returning, so telemetry
/// collected right after the call covers every planned prefetch.
pub fn run_kvprobe(
    runtime: &Runtime,
    clock: &mut simclock::ThreadClock,
    cfg: &KvProbeConfig,
    path: &str,
) -> KvProbeResult {
    assert!(cfg.keys > 0, "kvprobe needs at least one key");
    assert!(cfg.record_pages > 0, "records need at least one page");
    let start = clock.now();
    let file = runtime.open(clock, path).expect("setup ran");
    let zipf = Zipfian::new(cfg.keys, cfg.theta);
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let mut index_reads = 0u64;
    let mut data_reads = 0u64;
    for _ in 0..cfg.probes {
        let key = zipf.sample(&mut rng);
        file.read_charge(clock, key * PAGE_SIZE, PAGE_SIZE);
        index_reads += 1;
        let base = cfg.record_offset(key);
        for j in 0..cfg.record_pages {
            file.read_charge(clock, base + j * PAGE_SIZE, PAGE_SIZE);
            data_reads += 1;
        }
    }
    runtime.flush_prefetch_batches(clock);
    KvProbeResult {
        index_reads,
        data_reads,
        bytes: (index_reads + data_reads) * PAGE_SIZE,
        elapsed_ns: (clock.now() - start).max(1),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crossprefetch::{EngineKind, Mode, RuntimeConfig};
    use simos::{Device, DeviceConfig, FileSystem, FsKind, Os, OsConfig};

    fn runtime(engine: EngineKind, memory_mb: u64) -> Runtime {
        let os = Os::new(
            OsConfig::with_memory_mb(memory_mb),
            Device::new(DeviceConfig::local_nvme()),
            FileSystem::new(FsKind::Ext4Like),
        );
        let mut config = RuntimeConfig::new(Mode::Predict);
        config.engine = engine;
        Runtime::new(os, config)
    }

    #[test]
    fn probe_counts_match_the_config() {
        let rt = runtime(EngineKind::Strided, 64);
        let cfg = KvProbeConfig {
            probes: 256,
            ..KvProbeConfig::default()
        };
        setup_kvprobe(&rt, &cfg, "/kv");
        let mut clock = rt.new_clock();
        let result = run_kvprobe(&rt, &mut clock, &cfg, "/kv");
        assert_eq!(result.index_reads, 256);
        assert_eq!(result.data_reads, 256 * cfg.record_pages);
        assert_eq!(rt.stats().reads.get(), 256 * (1 + cfg.record_pages));
    }

    #[test]
    fn records_stay_inside_the_data_region() {
        let cfg = KvProbeConfig::default();
        let end = cfg.dataset_bytes();
        for key in 0..cfg.keys {
            let off = cfg.record_offset(key);
            assert!(off >= cfg.index_pages() * PAGE_SIZE);
            assert!(off + cfg.record_pages * PAGE_SIZE <= end);
        }
    }

    #[test]
    fn correlation_engine_mines_the_probe_stream() {
        let rt = runtime(EngineKind::Correlation, 64);
        let cfg = KvProbeConfig {
            probes: 2048,
            ..KvProbeConfig::default()
        };
        setup_kvprobe(&rt, &cfg, "/kv");
        let mut clock = rt.new_clock();
        run_kvprobe(&rt, &mut clock, &cfg, "/kv");
        assert!(rt.stats().engine_mining_passes.get() > 0);
        assert!(
            rt.stats().engine_assoc_runs.get() > 0,
            "hot-key index→record pairs should mine into prefetch runs"
        );
    }

    #[test]
    fn same_seed_runs_are_identical() {
        let run = || {
            let rt = runtime(EngineKind::Adaptive, 64);
            let cfg = KvProbeConfig {
                probes: 1024,
                ..KvProbeConfig::default()
            };
            setup_kvprobe(&rt, &cfg, "/kv");
            let mut clock = rt.new_clock();
            let result = run_kvprobe(&rt, &mut clock, &cfg, "/kv");
            (
                result.elapsed_ns,
                crossprefetch::RuntimeReport::collect(&rt).to_json(),
            )
        };
        let (a_ns, a_json) = run();
        let (b_ns, b_json) = run();
        assert_eq!(a_ns, b_ns);
        assert_eq!(a_json, b_json);
    }
}
