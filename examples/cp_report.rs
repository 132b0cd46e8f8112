//! cp-report: run a mixed workload with tracing enabled, then dump the
//! full observability surface — the machine-readable JSON report, the
//! decision trace, and a compact decision-timeline summary.
//!
//! Run with: `cargo run --release --example cp_report`
//!
//! Pass a path as the first argument to also write the JSON report to a
//! file: `cargo run --release --example cp_report -- /tmp/report.json`

use std::collections::BTreeMap;

use crossprefetch::{Mode, Runtime, RuntimeReport, TraceEvent};
use simos::{Device, DeviceConfig, FileSystem, FsKind, Os, OsConfig};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let os = Os::new(
        OsConfig::with_memory_mb(48),
        Device::new(DeviceConfig::local_nvme()),
        FileSystem::new(FsKind::Ext4Like),
    );
    let runtime = Runtime::with_mode(os, Mode::PredictOpt);
    runtime.trace().set_enabled(true);
    let mut clock = runtime.new_clock();

    // The workload: a sequential scan that ramps the predictor and the
    // prefetch window, followed by far random jumps that collapse it —
    // together they exercise every outcome class (cache hits on re-reads,
    // prefetch hits on the stream, demand misses on the jumps).
    // Bigger than memory, so the random phase cannot all be resident.
    let file = runtime.create_sized(&mut clock, "/data/mixed.bin", 64 << 20)?;
    let chunk = 16 * 1024u64;
    for i in 0..768u64 {
        file.read_charge(&mut clock, i * chunk, chunk);
    }
    // Re-read a warm region: pure cache hits.
    for i in 0..128u64 {
        file.read_charge(&mut clock, i * chunk, chunk);
    }
    // Random phase.
    let mut state = 0x2545F4914F6CDD1Du64;
    for _ in 0..256 {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        file.read_charge(&mut clock, (state % (63 << 20)) & !4095, chunk);
    }

    // A recurring far-jump chain on a second file: the strided counter
    // classifies it random and prefetches nothing for it.
    let chain = runtime.create_sized(&mut clock, "/data/chain.bin", 16 << 20)?;
    for _ in 0..128u64 {
        for &page in &[100u64, 1600, 3200] {
            chain.read_charge(&mut clock, page * 4096, 8192);
        }
    }

    // 1. Machine-readable report.
    let report = RuntimeReport::collect(&runtime);
    let json = report.to_json();
    println!("--- telemetry (JSON, schema v{}) ---", {
        crossprefetch::TELEMETRY_SCHEMA_VERSION
    });
    println!("{json}");
    if let Some(path) = std::env::args().nth(1) {
        std::fs::write(&path, &json)?;
        eprintln!("(wrote JSON report to {path})");
    }

    // 2. Human-readable report.
    println!("\n--- runtime report ---");
    println!("{report}");

    // 3. Decision trace: the tail of the event log, then a timeline
    //    summary of what each layer decided per virtual-time slice.
    let events = runtime.trace().snapshot();
    let dropped = runtime.trace().dropped();
    println!(
        "--- decision trace ({} events, {} dropped) — last 20 ---",
        events.len(),
        dropped
    );
    if dropped > 0 {
        // The ring is bounded and drops oldest-first: make the
        // truncation visible where the reader would otherwise assume
        // the log starts at the beginning of the run.
        println!("[... {dropped} earlier events dropped by the bounded trace ring ...]");
    }
    for event in events.iter().rev().take(20).rev() {
        println!("{event}");
    }

    println!("\n--- decision timeline (events per kind per ms slice) ---");
    print_timeline(&events);
    Ok(())
}

/// Renders event counts per kind bucketed into coarse virtual-time slices,
/// so the phase structure of the run (ramp, steady stream, random
/// collapse) is visible at a glance.
fn print_timeline(events: &[TraceEvent]) {
    if events.is_empty() {
        println!("(no events)");
        return;
    }
    let span = events.last().unwrap().ts_ns - events.first().unwrap().ts_ns + 1;
    let slices = 8u64;
    let width = (span / slices).max(1);
    let t0 = events.first().unwrap().ts_ns;
    // kind -> per-slice counts
    let mut table: BTreeMap<&'static str, Vec<u64>> = BTreeMap::new();
    for event in events {
        let slice = ((event.ts_ns - t0) / width).min(slices - 1) as usize;
        table
            .entry(event.kind.name())
            .or_insert_with(|| vec![0; slices as usize])[slice] += 1;
    }
    println!(
        "{:<20} {}",
        "kind",
        (0..slices)
            .map(|i| format!("{:>6}", format!("t{i}")))
            .collect::<String>()
    );
    for (kind, counts) in &table {
        let row: String = counts.iter().map(|c| format!("{c:>6}")).collect();
        println!("{kind:<20} {row}");
    }
}
