//! fault-injection: run the CrossPrefetch stack under a seeded device
//! fault plan and dump the resulting telemetry JSON.
//!
//! The device injects transient EIOs into prefetch- and demand-class
//! reads plus periodic latency-spike windows, all derived from one seed —
//! two runs with the same seed produce byte-identical telemetry, so
//! `cmp` against the same example built from another commit shows any
//! behaviour change. CI runs it at seeds 42 and 1729 as a smoke test: the
//! run asserts that every demand error the runtime counted
//! (`read_errors`) surfaced to the workload.
//!
//! Run with:
//! `cargo run --release --example fault_injection -- /tmp/faults.json [seed] [engine]`
//!
//! The optional third argument selects the prediction engine
//! (`strided`, `correlation`, or `adaptive`; default `strided`), so a
//! comparison can cover each engine.

use crossprefetch::{
    Device, DeviceConfig, EngineKind, FaultPlan, FileSystem, FsKind, Mode, Os, OsConfig, Runtime,
    RuntimeConfig, RuntimeReport,
};
use simclock::{NS_PER_MS, NS_PER_US};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let out_path = std::env::args().nth(1);
    let seed: u64 = std::env::args()
        .nth(2)
        .map(|s| s.parse())
        .transpose()?
        .unwrap_or(0xC0FFEE);
    let engine = match std::env::args().nth(3).as_deref() {
        None => EngineKind::Strided,
        Some(name) => EngineKind::all()
            .into_iter()
            .find(|e| e.name() == name)
            .ok_or_else(|| format!("unknown engine {name:?} (strided|correlation|adaptive)"))?,
    };

    let plan = FaultPlan::seeded(seed)
        .with_prefetch_eio(0.10)
        .with_demand_eio(0.02)
        .with_latency_spikes(20 * NS_PER_MS, 2 * NS_PER_MS, 500 * NS_PER_US);
    let os = Os::new(
        OsConfig::with_memory_mb(64),
        Device::with_fault_plan(DeviceConfig::local_nvme(), plan),
        FileSystem::new(FsKind::Ext4Like),
    );
    let mut config = RuntimeConfig::new(Mode::PredictOpt);
    config.engine = engine;
    let runtime = Runtime::new(os, config);
    let mut clock = runtime.new_clock();

    // A sequential stream (exercises the worker retry ladder against
    // prefetch-class EIOs) followed by a fallible random phase over a
    // larger-than-memory file, so demand-class EIOs reach the workload.
    let file = runtime.create_sized(&mut clock, "/data/faulty.bin", 96 << 20)?;
    let chunk = 16 * 1024u64;
    for i in 0..2048u64 {
        file.read_charge(&mut clock, i * chunk, chunk);
    }
    let mut state = seed | 1;
    let mut surfaced = 0u64;
    for _ in 0..2048 {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let offset = (state % (95 << 20)) & !4095;
        if file.try_read_charge(&mut clock, offset, chunk).is_err() {
            surfaced += 1;
        }
    }

    let report = RuntimeReport::collect(&runtime);
    let json = report.to_json();
    println!("{json}");
    eprintln!(
        "seed={seed:#x} engine={}: {} injected EIOs, {} retries, {} give-ups, \
         {} demand errors surfaced, {} spiked requests",
        engine.name(),
        report.device_read_faults,
        report.prefetch_retries,
        report.prefetch_give_ups,
        surfaced,
        report.device_latency_spikes,
    );
    assert_eq!(report.read_errors, surfaced);
    if let Some(path) = out_path {
        std::fs::write(&path, &json)?;
        eprintln!("(wrote telemetry JSON to {path})");
    }
    Ok(())
}
