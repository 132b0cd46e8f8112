//! Filebench-style multi-instance macrobenchmarks (Figure 8b).
//!
//! Four personalities, run as N independent "instances" (the paper runs
//! 16) that share one OS and memory budget but own private files and a
//! private CROSS-LIB runtime each — like separate processes linked against
//! the library:
//!
//! * `seqread` — large-file sequential streaming;
//! * `randread` — scattered 8 KiB reads over a large file;
//! * `mongodb` — metadata-intensive: thousands of small files created,
//!   written, fsynced, re-read, and deleted;
//! * `videoserver` — many concurrent 1 MiB-request sequential streams plus
//!   a background writer appending new content.

use std::sync::Arc;

use crossprefetch::{Advice, Mode, Runtime, RuntimeConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use simclock::Throughput;
use simos::Os;

/// Filebench personality.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Personality {
    /// Sequential whole-file streaming.
    SeqRead,
    /// Random 8 KiB reads.
    RandRead,
    /// Metadata-intensive small-file churn.
    MongoDb,
    /// Streaming video server.
    VideoServer,
}

impl Personality {
    /// All four, in the paper's presentation order.
    pub fn all() -> [Personality; 4] {
        [
            Personality::SeqRead,
            Personality::RandRead,
            Personality::MongoDb,
            Personality::VideoServer,
        ]
    }

    /// Display label.
    pub fn label(self) -> &'static str {
        match self {
            Personality::SeqRead => "seqread",
            Personality::RandRead => "randread",
            Personality::MongoDb => "mongodb",
            Personality::VideoServer => "videoserve",
        }
    }
}

/// Multi-instance run parameters.
#[derive(Debug, Clone)]
pub struct FilebenchConfig {
    /// Personality to run.
    pub personality: Personality,
    /// Concurrent instances (paper: 16).
    pub instances: usize,
    /// Dataset bytes per instance.
    pub bytes_per_instance: u64,
    /// Operations per instance.
    pub ops_per_instance: u64,
    /// Mechanism each instance's runtime uses.
    pub mode: Mode,
    /// RNG seed.
    pub seed: u64,
}

impl Default for FilebenchConfig {
    fn default() -> Self {
        Self {
            personality: Personality::SeqRead,
            instances: 16,
            bytes_per_instance: 64 << 20,
            ops_per_instance: 500,
            mode: Mode::PredictOpt,
            seed: 17,
        }
    }
}

/// Aggregate outcome across instances.
#[derive(Debug, Clone, Copy)]
pub struct FilebenchResult {
    /// Bytes moved across all instances.
    pub bytes: u64,
    /// Operations across all instances.
    pub ops: u64,
    /// Slowest instance's virtual span.
    pub elapsed_ns: u64,
}

impl FilebenchResult {
    /// Aggregate MB/s of virtual time.
    pub fn mbps(&self) -> f64 {
        Throughput::new(self.bytes, self.ops, self.elapsed_ns).mb_per_sec()
    }
}

/// Runs `cfg.instances` instances of the personality on a shared OS.
pub fn run_filebench(os: &Arc<Os>, cfg: &FilebenchConfig) -> FilebenchResult {
    let start = os.global().now();
    let spans = simclock::run_threads(os.global(), start, cfg.instances, |inst, clock| {
        // Each instance links its own CROSS-LIB runtime.
        let runtime = Runtime::new(Arc::clone(os), RuntimeConfig::new(cfg.mode));
        let (ops, bytes) = run_instance(&runtime, clock, inst, cfg);
        (ops, bytes, clock.now() - start)
    });
    FilebenchResult {
        bytes: spans.iter().map(|s| s.1).sum(),
        ops: spans.iter().map(|s| s.0).sum(),
        elapsed_ns: spans.iter().map(|s| s.2).max().unwrap_or(1).max(1),
    }
}

fn run_instance(
    runtime: &Runtime,
    clock: &mut simclock::ThreadClock,
    inst: usize,
    cfg: &FilebenchConfig,
) -> (u64, u64) {
    let mut rng = StdRng::seed_from_u64(cfg.seed ^ (inst as u64) << 24);
    match cfg.personality {
        Personality::SeqRead => {
            let path = format!("/fb/seq{inst}");
            runtime
                .os()
                .fs()
                .create_sized(&path, cfg.bytes_per_instance)
                .expect("fresh namespace");
            let file = runtime.open(clock, &path).expect("created above");
            if cfg.mode == Mode::AppOnly {
                file.advise(clock, Advice::Sequential, 0, 0);
            }
            let io = 128 * 1024u64;
            let mut offset = 0u64;
            let mut bytes = 0u64;
            for _ in 0..cfg.ops_per_instance {
                if offset + io > cfg.bytes_per_instance {
                    offset = 0;
                }
                if cfg.mode == Mode::AppOnly && offset.is_multiple_of(4 << 20) {
                    file.readahead(clock, offset, 4 << 20);
                }
                file.read_charge(clock, offset, io);
                offset += io;
                bytes += io;
            }
            (cfg.ops_per_instance, bytes)
        }
        Personality::RandRead => {
            let path = format!("/fb/rand{inst}");
            runtime
                .os()
                .fs()
                .create_sized(&path, cfg.bytes_per_instance)
                .expect("fresh namespace");
            let file = runtime.open(clock, &path).expect("created above");
            if cfg.mode == Mode::AppOnly {
                file.advise(clock, Advice::Random, 0, 0);
            }
            let io = 8 * 1024u64;
            let mut bytes = 0u64;
            // Batched random, like the paper's analysis workloads.
            let mut done = 0u64;
            while done < cfg.ops_per_instance {
                let base = rng.gen_range(0..cfg.bytes_per_instance.saturating_sub(8 * io).max(1));
                let base = base / 4096 * 4096;
                for j in 0..4.min(cfg.ops_per_instance - done) {
                    file.read_charge(clock, base + j * io, io);
                    bytes += io;
                }
                done += 4;
            }
            (cfg.ops_per_instance, bytes)
        }
        Personality::MongoDb => {
            // Thousands of small files: create, write, fsync, read, some
            // deletes. File size 64 KiB.
            let file_bytes = 64 * 1024u64;
            let files = cfg.ops_per_instance;
            let mut bytes = 0u64;
            for i in 0..files {
                let path = format!("/fb/mongo{inst}/{i:05}");
                let file = runtime.create(clock, &path).expect("unique per instance");
                file.write_charge(clock, 0, file_bytes);
                file.fsync(clock);
                file.read_charge(clock, 0, file_bytes);
                bytes += 2 * file_bytes;
                if i % 8 == 0 && i > 0 {
                    let victim = format!("/fb/mongo{inst}/{:05}", i - 8);
                    let _ = runtime.os().unlink(clock, &victim);
                }
            }
            (files, bytes)
        }
        Personality::VideoServer => {
            // A library of "videos"; several streams read sequentially at
            // 1 MiB requests from random starting videos; one appender
            // adds new content periodically.
            let videos = 8u64;
            let video_bytes = cfg.bytes_per_instance / videos;
            let paths: Vec<String> = (0..videos)
                .map(|v| {
                    let path = format!("/fb/video{inst}/{v}");
                    runtime
                        .os()
                        .fs()
                        .create_sized(&path, video_bytes)
                        .expect("fresh namespace");
                    path
                })
                .collect();
            let io = 1 << 20u64;
            // A stream is up to eight reads, all inside the video.
            let stream = (video_bytes / io).clamp(1, 8);
            let last_start_page = video_bytes.saturating_sub(stream * io) / 4096;
            let mut bytes = 0u64;
            let mut served = 0u64;
            while served < cfg.ops_per_instance {
                // Pick a video and stream a run of it.
                let video = &paths[rng.gen_range(0..videos) as usize];
                let file = runtime.open(clock, video).expect("created above");
                if cfg.mode == Mode::AppOnly {
                    file.advise(clock, Advice::Sequential, 0, 0);
                }
                let mut offset = rng.gen_range(0..last_start_page + 1) * 4096;
                for _ in 0..stream.min(cfg.ops_per_instance - served) {
                    bytes += file.read_charge(clock, offset, io).bytes;
                    offset += io;
                    served += 1;
                }
                // Occasional new content appended.
                if rng.gen_bool(0.05) {
                    file.write_charge(clock, video_bytes, 256 * 1024);
                }
            }
            (served, bytes)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simos::{Device, DeviceConfig, FileSystem, FsKind, OsConfig};

    fn os(memory_mb: u64) -> Arc<Os> {
        Os::new(
            OsConfig::with_memory_mb(memory_mb),
            Device::new(DeviceConfig::local_nvme()),
            FileSystem::new(FsKind::Ext4Like),
        )
    }

    #[test]
    fn all_personalities_complete() {
        for personality in Personality::all() {
            let os = os(128);
            let cfg = FilebenchConfig {
                personality,
                instances: 2,
                bytes_per_instance: 16 << 20,
                ops_per_instance: 60,
                mode: Mode::PredictOpt,
                seed: 5,
            };
            let result = run_filebench(&os, &cfg);
            assert!(result.bytes > 0, "{}", personality.label());
            assert!(result.mbps() > 0.0, "{}", personality.label());
        }
    }

    #[test]
    fn mongodb_churns_the_namespace() {
        let os = os(128);
        let cfg = FilebenchConfig {
            personality: Personality::MongoDb,
            instances: 2,
            bytes_per_instance: 8 << 20,
            ops_per_instance: 64,
            mode: Mode::OsOnly,
            seed: 5,
        };
        run_filebench(&os, &cfg);
        // Files exist but some were deleted.
        let remaining = os.fs().list_prefix("/fb/mongo0/").len();
        assert!(remaining > 0 && remaining < 64);
    }

    #[test]
    fn seqread_crossp_beats_osonly_single_instance() {
        // Single instance => single worker thread => fully deterministic
        // virtual time, immune to host CPU oversubscription. The
        // multi-instance aggregate is exercised by the fig08b bench.
        let run = |mode| {
            let os = os(64);
            let cfg = FilebenchConfig {
                personality: Personality::SeqRead,
                instances: 1,
                bytes_per_instance: 32 << 20,
                ops_per_instance: 600,
                mode,
                seed: 5,
            };
            run_filebench(&os, &cfg).mbps()
        };
        let osonly = run(Mode::OsOnly);
        let crossp = run(Mode::PredictOpt);
        assert!(
            crossp > osonly,
            "seqread: CrossP {crossp:.0} vs OSonly {osonly:.0} MB/s"
        );
    }
}
