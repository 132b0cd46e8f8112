//! schema-compat: prove the span subsystem is pay-nothing-off.
//!
//! Runs one fixed, fully deterministic single-threaded workload per
//! Table-2 mechanism (plus the fincore baseline), exports telemetry JSON
//! with every opt-in subsystem left at its default (disabled), strips
//! the additive sections ([`ADDITIVE_SECTIONS`]), and compares the
//! result byte-for-byte against the checked-in pre-span baseline
//! (`tests/data/telemetry_schema_baseline.json`). Any other byte
//! difference means a change that should be inert altered the schema-v1
//! surface.
//!
//! Usage:
//!   cargo run --release --example schema_compat            # verify
//!   cargo run --release --example schema_compat -- --write # regenerate baseline

use std::path::PathBuf;

use cp_bench::strip_section;
use crossprefetch::{Mode, Runtime, RuntimeConfig, RuntimeReport, ADDITIVE_SECTIONS};
use simos::{Device, DeviceConfig, FileSystem, FsKind, Os, OsConfig};

fn baseline_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("data")
        .join("telemetry_schema_baseline.json")
}

/// One deterministic mixed workload under `mode`: sequential ramp, warm
/// re-reads, seeded random jumps. Single-threaded, so the export is a pure
/// function of the mode.
fn run_mode(mode: Mode) -> String {
    let os = Os::new(
        OsConfig::with_memory_mb(64),
        Device::new(DeviceConfig::local_nvme()),
        FileSystem::new(FsKind::Ext4Like),
    );
    let config = RuntimeConfig::new(mode);
    let runtime = Runtime::new(os, config);
    let mut clock = runtime.new_clock();
    let file = runtime
        .create_sized(&mut clock, "/data/compat.bin", 16 << 20)
        .expect("fresh namespace");
    let chunk = 16 * 1024u64;
    for i in 0..256u64 {
        file.read_charge(&mut clock, i * chunk, chunk);
    }
    for i in 0..64u64 {
        file.read_charge(&mut clock, i * chunk, chunk);
    }
    let mut state = 0x9E3779B97F4A7C15u64;
    for _ in 0..64 {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        file.read_charge(&mut clock, (state % (15 << 20)) & !4095, chunk);
    }
    runtime.flush_prefetch_batches(&mut clock);
    RuntimeReport::collect(&runtime).to_json()
}

fn main() {
    let modes = [
        Mode::AppOnly,
        Mode::OsOnly,
        Mode::Predict,
        Mode::PredictOpt,
        Mode::FetchAllOpt,
        Mode::FincoreApp,
    ];
    let current: Vec<String> = modes
        .iter()
        .map(|&mode| {
            ADDITIVE_SECTIONS
                .iter()
                .fold(run_mode(mode), |json, section| {
                    strip_section(&json, section)
                })
        })
        .collect();
    let rendered = current.join("\n") + "\n";

    let path = baseline_path();
    if std::env::args().any(|a| a == "--write") {
        std::fs::create_dir_all(path.parent().unwrap()).expect("baseline dir");
        std::fs::write(&path, &rendered).expect("write baseline");
        eprintln!("wrote baseline: {} ({} modes)", path.display(), modes.len());
        return;
    }

    let baseline = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        eprintln!("cannot read baseline {}: {e}", path.display());
        eprintln!("generate it with: cargo run --release --example schema_compat -- --write");
        std::process::exit(2);
    });
    if rendered == baseline {
        println!(
            "schema-compat OK: {} mechanisms byte-identical to the pre-span baseline",
            modes.len()
        );
        return;
    }
    let base_lines: Vec<&str> = baseline.lines().collect();
    for (i, line) in rendered.lines().enumerate() {
        let want = base_lines.get(i).copied().unwrap_or("<missing>");
        if line != want {
            let diverge = line
                .bytes()
                .zip(want.bytes())
                .position(|(a, b)| a != b)
                .unwrap_or(line.len().min(want.len()));
            let lo = diverge.saturating_sub(60);
            eprintln!("schema-compat FAILED: mechanism #{i} diverges at byte {diverge}");
            eprintln!(
                "  current : ...{}",
                &line[lo..(diverge + 60).min(line.len())]
            );
            eprintln!(
                "  baseline: ...{}",
                &want[lo..(diverge + 60).min(want.len())]
            );
            std::process::exit(1);
        }
    }
    eprintln!("schema-compat FAILED: line counts differ");
    std::process::exit(1);
}
