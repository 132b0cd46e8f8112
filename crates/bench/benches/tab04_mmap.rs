//! Table 4: memory-mapped sequential and random workloads.
//!
//! The paper reports `readseq` 578/830/1270 MB/s and `readrandom`
//! 84/484/752 MB/s for APPonly / OSonly / CrossP[+predict+opt]: APPonly
//! turns prefetching off with `madvise(RANDOM)` and collapses; OSonly gets
//! fault-around; CrossP watches the exported bitmap and prefetches ahead.

use cp_bench::{banner, boot, fmt_mbps, runtime, scale, TablePrinter};
use crossprefetch::{Advice, Mode, PAGE_SIZE};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use simclock::Throughput;
use std::sync::Arc;

fn run(mode: Mode, sequential: bool) -> f64 {
    let os = boot(96);
    let rt = runtime(Arc::clone(&os), mode);
    let threads = 8usize;
    let file_bytes: u64 = 160 << 20;
    {
        os.fs().create_sized("/mmap/data", file_bytes).unwrap();
    }
    let start = os.global().now();
    let spans = simclock::run_threads(os.global(), start, threads, |t, clock| {
        let file = rt.open(clock, "/mmap/data").unwrap();
        if rt.config().mode == Mode::AppOnly {
            // Unmodified app behaviour: madvise(RANDOM) (§5.2 Table 4).
            file.advise(clock, Advice::Random, 0, 0);
        }
        let region = file_bytes / threads as u64;
        let lo = region * t as u64;
        let io = 64 * 1024u64;
        let mut rng = StdRng::seed_from_u64(0xAB1E ^ (t as u64) << 30);
        let mut bytes = 0u64;
        let ops = 400 * cp_bench::scale();
        let mut offset = lo;
        for _ in 0..ops {
            if sequential {
                if offset + io > lo + region {
                    offset = lo;
                }
                file.mmap_read(clock, offset, io);
                offset += io;
            } else {
                let at = lo + rng.gen_range(0..region.saturating_sub(io).max(1));
                let at = at / PAGE_SIZE * PAGE_SIZE;
                file.mmap_read(clock, at, io);
            }
            bytes += io;
        }
        (bytes, clock.now() - start)
    });
    let bytes: u64 = spans.iter().map(|s| s.0).sum();
    let elapsed = spans.iter().map(|s| s.1).max().unwrap_or(1).max(1);
    let _ = scale();
    Throughput::new(bytes, 0, elapsed).mb_per_sec()
}

fn main() {
    banner(
        "Table 4",
        "mmap readseq / readrandom (8 threads)",
        "readseq 578/830/1270, readrandom 84/484/752 MB/s for APPonly/OSonly/predict+opt",
    );
    let mut table = TablePrinter::new(["workload", "APPonly", "OSonly", "CrossP[+predict+opt]"]);
    for (name, sequential) in [("readseq", true), ("readrandom", false)] {
        let app = run(Mode::AppOnly, sequential);
        let os = run(Mode::OsOnly, sequential);
        let crossp = run(Mode::PredictOpt, sequential);
        table.row([
            name.to_string(),
            fmt_mbps(app),
            fmt_mbps(os),
            fmt_mbps(crossp),
        ]);
    }
    table.print();
}
