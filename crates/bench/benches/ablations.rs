//! Ablations over the artifact's customization knobs (paper appendix A.6):
//! predictor counter width (`CROSS_BITMAP_SHIFT` analogue for prediction),
//! prefetch worker count (`NR_WORKERS_VAR`), open-prefetch size
//! (`PREFETCH_SIZE_VAR`), bitmap export granularity, and the per-inode-LRU
//! future-work feature (§4.6).

use cp_bench::{banner, boot, fmt_mbps, scale, TablePrinter};
use crossprefetch::{Mode, Runtime, RuntimeConfig};
use simos::{Device, DeviceConfig, FileSystem, FsKind, Os, OsConfig, RaInfoRequest};
use std::sync::Arc;
use workloads::{run_micro, setup_micro, MicroConfig, MicroPattern};

fn micro_with(config: RuntimeConfig, os: Arc<simos::Os>) -> f64 {
    let rt = Runtime::new(os, config);
    let cfg = MicroConfig {
        threads: 8,
        data_bytes: 96 << 20,
        io_bytes: 16 * 1024,
        ops_per_thread: 600 * scale(),
        shared: true,
        pattern: MicroPattern::BatchedRandom { batch: 8 },
        seed: 0xAB1,
    };
    setup_micro(&rt, &cfg);
    run_micro(&rt, &cfg).mbps()
}

fn predictor_bits_sweep() {
    println!("--- predictor counter width (3 bits is the paper's choice) ---");
    let mut table = TablePrinter::new(["bits", "MB/s"]);
    for bits in 1..=5u32 {
        let mut config = RuntimeConfig::new(Mode::PredictOpt);
        config.engine_tuning.predictor_bits = bits;
        let os = boot(64);
        table.row([bits.to_string(), fmt_mbps(micro_with(config, os))]);
    }
    table.print();
    println!();
}

fn workers_sweep() {
    println!("--- prefetch worker threads (NR_WORKERS_VAR) ---");
    let mut table = TablePrinter::new(["workers", "MB/s"]);
    for workers in [1usize, 2, 4, 8] {
        let mut config = RuntimeConfig::new(Mode::PredictOpt);
        config.workers = workers;
        let os = boot(64);
        table.row([workers.to_string(), fmt_mbps(micro_with(config, os))]);
    }
    table.print();
    println!();
}

fn open_prefetch_sweep() {
    println!("--- optimistic open-prefetch size (PREFETCH_SIZE_VAR) ---");
    let mut table = TablePrinter::new(["open prefetch", "MB/s"]);
    for mb in [0u64, 1, 2, 8] {
        let mut config = RuntimeConfig::new(Mode::PredictOpt);
        config.open_prefetch_bytes = mb << 20;
        let os = boot(64);
        table.row([format!("{mb} MiB"), fmt_mbps(micro_with(config, os))]);
    }
    table.print();
    println!();
}

fn bitmap_shift_sweep() {
    println!("--- bitmap export granularity (CROSS_BITMAP_SHIFT) ---");
    let os = boot(512);
    let mut clock = os.new_clock();
    let fd = os.create_sized(&mut clock, "/shift", 512 << 20).unwrap();
    // Populate half the file so the export has structure.
    os.readahead_info(
        &mut clock,
        fd,
        RaInfoRequest::prefetch(0, 256 << 20).with_limit_pages(1 << 16),
    );
    let mut table = TablePrinter::new(["shift", "bit covers", "words", "query cost (us)"]);
    for shift in [0u32, 2, 4, 6] {
        let t0 = clock.now();
        let info = os.readahead_info(
            &mut clock,
            fd,
            RaInfoRequest::query(0, 512 << 20).with_bitmap_shift(shift),
        );
        table.row([
            shift.to_string(),
            format!("{} KiB", (4 << shift)),
            info.bitmap.len().to_string(),
            format!("{:.1}", (clock.now() - t0) as f64 / 1_000.0),
        ]);
    }
    table.print();
    println!();
}

fn per_inode_lru_toggle() {
    println!("--- per-inode LRU reclaim (the paper's future-work item) ---");
    let mut table = TablePrinter::new(["reclaim", "MB/s"]);
    for (label, enabled) in [("global word LRU", false), ("per-inode LRU", true)] {
        let mut os_config = OsConfig::with_memory_mb(48);
        os_config.per_inode_lru = enabled;
        let os = Os::new(
            os_config,
            Device::new(DeviceConfig::local_nvme()),
            FileSystem::new(FsKind::Ext4Like),
        );
        let config = RuntimeConfig::new(Mode::PredictOpt);
        table.row([label.to_string(), fmt_mbps(micro_with(config, os))]);
    }
    table.print();
}

fn main() {
    banner(
        "Ablations",
        "artifact knobs: predictor bits, workers, open-prefetch, bitmap shift, per-inode LRU",
        "3-bit counter best (paper §4.6); other knobs plateau quickly",
    );
    predictor_bits_sweep();
    workers_sweep();
    open_prefetch_sweep();
    bitmap_shift_sweep();
    per_inode_lru_toggle();
}
