//! # cp-bench — harnesses regenerating every table and figure of the paper
//!
//! Each bench target (see `benches/`) reproduces one evaluation artifact
//! of *CrossPrefetch* (ASPLOS 2024) at laptop scale: the workload shape,
//! parameter sweep, and mechanism comparison are the paper's; dataset and
//! memory sizes are scaled down together so the memory:data ratios match.
//! Every harness prints the measured series next to the paper's reported
//! shape so EXPERIMENTS.md can record both.
//!
//! Run everything with `cargo bench --workspace`, or a single figure with
//! e.g. `cargo bench -p cp-bench --bench fig05_micro`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::sync::Arc;

use crossprefetch::{Mode, Runtime, RuntimeConfig, TieredStore};
use simos::{Device, DeviceConfig, FileSystem, FsKind, Os, OsConfig};

/// Boots a fresh OS with `memory_mb` of page cache on a local NVMe model
/// and an ext4-like filesystem.
pub fn boot(memory_mb: u64) -> Arc<Os> {
    boot_with(memory_mb, DeviceConfig::local_nvme(), FsKind::Ext4Like)
}

/// Boots a fresh OS with explicit device and filesystem models.
pub fn boot_with(memory_mb: u64, device: DeviceConfig, fs: FsKind) -> Arc<Os> {
    Os::new(
        OsConfig::with_memory_mb(memory_mb),
        Device::new(device),
        FileSystem::new(fs),
    )
}

/// Boots a fresh OS over a two-tier store: `memory_mb` of page cache in
/// front of a local NVMe tier capped at `local_capacity_blocks`, with the
/// paper's RDMA NVMe-oF remote model holding everything else (every block
/// starts remote; promotion moves ranges that miss again local).
pub fn boot_tiered(memory_mb: u64, local_capacity_blocks: u64) -> Arc<Os> {
    Os::new_tiered(
        OsConfig::with_memory_mb(memory_mb),
        TieredStore::new(
            Device::new(DeviceConfig::local_nvme()),
            Device::new(DeviceConfig::remote_nvmeof()),
            local_capacity_blocks,
        ),
        FileSystem::new(FsKind::Ext4Like),
    )
}

/// A runtime in `mode` with paper-default tunables.
pub fn runtime(os: Arc<Os>, mode: Mode) -> Runtime {
    Runtime::new(os, RuntimeConfig::new(mode))
}

/// Fixed-width table printer for bench output.
#[derive(Debug)]
pub struct TablePrinter {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl TablePrinter {
    /// Starts a table with the given column headers.
    pub fn new<S: Into<String>, I: IntoIterator<Item = S>>(headers: I) -> Self {
        Self {
            headers: headers.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends one row (stringified cells).
    pub fn row<S: Into<String>, I: IntoIterator<Item = S>>(&mut self, cells: I) {
        self.rows.push(cells.into_iter().map(Into::into).collect());
    }

    /// Renders the table to stdout.
    pub fn print(&self) {
        let cols = self.headers.len();
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate().take(cols) {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let line = |cells: &[String]| {
            let mut out = String::new();
            for (i, cell) in cells.iter().enumerate().take(cols) {
                out.push_str(&format!("{:<width$}  ", cell, width = widths[i]));
            }
            println!("{}", out.trim_end());
        };
        line(&self.headers);
        println!(
            "{}",
            widths
                .iter()
                .map(|w| "-".repeat(*w))
                .collect::<Vec<_>>()
                .join("--")
        );
        for row in &self.rows {
            line(row);
        }
    }
}

/// Prints the standard bench banner.
pub fn banner(id: &str, title: &str, paper_shape: &str) {
    println!();
    println!("=== {id}: {title} ===");
    println!("paper shape: {paper_shape}");
    println!();
}

/// Formats a throughput with sensible precision.
pub fn fmt_mbps(v: f64) -> String {
    if v >= 100.0 {
        format!("{v:.0}")
    } else {
        format!("{v:.1}")
    }
}

/// Environment-controlled scale factor (`CP_BENCH_SCALE`, default 1).
///
/// Scale 1 keeps every bench in seconds; higher values enlarge datasets
/// and op counts proportionally for tighter confidence.
pub fn scale() -> u64 {
    std::env::var("CP_BENCH_SCALE")
        .ok()
        .and_then(|s| s.parse().ok())
        .filter(|&s| s >= 1)
        .unwrap_or(1)
}

/// Shared LSM-workload setup matching the paper's RocksDB configuration:
/// 40 M keys / 120 GB DB means ~3 KB per key — one data block per key —
/// so a 16-key `MultiGet` batch spans 16 consecutive blocks, which is the
/// locality the prefetching mechanisms act on. Scaled: 100 k keys of 4 KiB
/// values (~450 MB), memory a bit above the DB (Figure 2's "fits in
/// memory") unless a sweep overrides it.
#[derive(Debug, Clone, Copy)]
pub struct LsmSetup {
    /// Keys loaded by `fillseq`.
    pub keys: u64,
    /// Value size in bytes.
    pub value_bytes: usize,
    /// Page-cache budget in MiB for the read phase.
    pub memory_mb: u64,
}

impl Default for LsmSetup {
    fn default() -> Self {
        Self {
            keys: 200_000 * scale(),
            value_bytes: 4096,
            memory_mb: 1024,
        }
    }
}

/// Builds, fills, and cold-starts an LSM database under `mode`.
///
/// Returns the OS (for telemetry) and the ready-to-run bench driver; the
/// page cache is dropped between the load and read phases, as the paper
/// does before each experiment.
pub fn build_lsm(mode: Mode, setup: LsmSetup) -> (Arc<Os>, minilsm::DbBench) {
    let os = boot(setup.memory_mb);
    let rt = runtime(Arc::clone(&os), mode);
    let mut clock = rt.new_clock();
    let db = minilsm::Db::create(rt.clone(), &mut clock, minilsm::DbOptions::default());
    let bench = minilsm::DbBench::new(db, setup.keys, setup.value_bytes);
    bench.fill_seq();
    let mut c = os.new_clock();
    os.drop_caches(&mut c);
    rt.drop_cache_view(&mut c);
    (os, bench)
}

/// Runs the db_bench access-pattern grid (Figures 7b, 7d, 8a) over the
/// given device and filesystem models, printing the comparison table.
pub fn run_patterns(device: simos::DeviceConfig, fs: FsKind, figure: &str, shape: &str) {
    use crossprefetch::Mode;
    banner(
        figure,
        &format!("db_bench patterns, 32 threads ({fs:?})"),
        shape,
    );
    let patterns = [
        "readseq",
        "readrandom",
        "multireadrandom",
        "readreverse",
        "readscan",
    ];
    let mut table = TablePrinter::new([
        "workload",
        "APPonly",
        "OSonly",
        "+predict",
        "+predict+opt",
        "+fetchall+opt",
        "best vs APPonly",
    ]);
    for pattern in patterns {
        let mut cells = vec![pattern.to_string()];
        let mut first = None;
        let mut best: f64 = 0.0;
        for mode in Mode::table2() {
            let os = boot_with(64, device.clone(), fs);
            let rt = runtime(Arc::clone(&os), mode);
            let mut clock = rt.new_clock();
            let db = minilsm::Db::create(rt.clone(), &mut clock, minilsm::DbOptions::default());
            let bench = minilsm::DbBench::new(db, 100_000 * scale(), 400);
            bench.fill_seq();
            let mut c = os.new_clock();
            os.drop_caches(&mut c);
            rt.drop_cache_view(&mut c);

            let threads = 32;
            let result = match pattern {
                "readseq" => bench.read_seq(threads),
                "readrandom" => bench.read_random(threads, 120 * scale(), 0x7B),
                "multireadrandom" => bench.multiread_random(threads, 24 * scale(), 16, 0x7B),
                "readreverse" => bench.read_reverse(threads),
                "readscan" => bench.read_while_scanning(threads, 80 * scale(), 0x7B),
                _ => unreachable!(),
            };
            let mbps = result.mbps();
            if mode == Mode::AppOnly {
                first = Some(mbps);
            }
            best = best.max(mbps / first.unwrap_or(mbps));
            cells.push(fmt_mbps(mbps));
        }
        cells.push(format!("{best:.2}x"));
        table.row(cells);
    }
    table.print();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_printer_renders() {
        let mut t = TablePrinter::new(["mech", "MB/s"]);
        t.row(["OSonly", "123"]);
        t.row(["CrossP", "456"]);
        t.print();
    }

    #[test]
    fn scale_defaults_to_one() {
        assert!(scale() >= 1);
    }

    #[test]
    fn boot_produces_distinct_oses() {
        let a = boot(64);
        let b = boot(64);
        assert_eq!(a.mem().budget(), b.mem().budget());
        assert!(!Arc::ptr_eq(&a, &b));
    }
}
