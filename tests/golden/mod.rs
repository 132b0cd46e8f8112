//! Telemetry golden support, shared by `tests/telemetry_golden.rs` (which
//! verifies) and `examples/schema_compat.rs` (which verifies or, with
//! `--write`, regenerates): the two deterministic workloads, their exports
//! and the mismatch diagnostic.

use std::path::PathBuf;

use cp_bench::{boot, runtime};
use crossprefetch::{
    Mode, QosClass, Runtime, RuntimeConfig, RuntimeReport, TenantId, TenantSpec, TenantsConfig,
    TieredStore, TieringConfig, WritebackConfig,
};
use simos::{Device, DeviceConfig, FileSystem, FsKind, Os, OsConfig};

/// Directory holding the checked-in goldens.
pub fn golden_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/data")
}

/// `steps` seeded pseudo-random page-aligned offsets below `span` bytes
/// (the LCG every byte-identity workload shares).
fn lcg_offsets(steps: usize, span: u64) -> impl Iterator<Item = u64> {
    let mut state = 0x9E3779B97F4A7C15u64;
    std::iter::repeat_with(move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (state % span) & !4095
    })
    .take(steps)
}

/// The schema-v1 baseline workload under `mode`, every opt-in subsystem
/// at its default (off): sequential ramp, warm re-reads, seeded random
/// jumps. Single-threaded, so the report is a pure function of the mode.
fn schema_workload(mode: Mode) -> RuntimeReport {
    let rt = runtime(boot(64), mode);
    let mut clock = rt.new_clock();
    let file = rt
        .create_sized(&mut clock, "/data/compat.bin", 16 << 20)
        .expect("fresh namespace");
    let chunk = 16 * 1024u64;
    for i in (0..256u64).chain(0..64) {
        file.read_charge(&mut clock, i * chunk, chunk);
    }
    for offset in lcg_offsets(64, 15 << 20) {
        file.read_charge(&mut clock, offset, chunk);
    }
    RuntimeReport::collect(&rt)
}

/// The feature-on golden workload: `ring_submit`, a two-tenant arbiter,
/// cross-tier promotion over a [`TieredStore`] with the default write-back
/// daemon, and span tracing, all on together under `CrossP[+predict+opt]`.
/// Single-threaded and seeded.
fn feature_on_workload() -> RuntimeReport {
    let mut os_config = OsConfig::with_memory_mb(24);
    os_config.writeback = Some(WritebackConfig::default());
    let os = Os::new_tiered(
        os_config,
        TieredStore::new(
            Device::new(DeviceConfig::local_nvme()),
            Device::new(DeviceConfig::remote_nvmeof()),
            2048,
        ),
        FileSystem::new(FsKind::Ext4Like),
    );
    let mut config = RuntimeConfig::new(Mode::PredictOpt);
    config.ring_submit = true;
    config.tenants = Some(TenantsConfig::new(vec![
        TenantSpec::new("batch", QosClass::Bronze),
        TenantSpec::new("gold", QosClass::Gold),
    ]));
    config.tiering = Some(TieringConfig::new());
    let rt = Runtime::new(os, config);
    rt.spans().set_enabled(true);

    let mut clock = rt.new_clock();
    let bytes = 16u64 << 20;
    let batch = rt
        .create_sized_for_tenant(&mut clock, "/golden/batch.bin", bytes, TenantId(0))
        .expect("fresh namespace");
    let gold = rt
        .create_sized_for_tenant(&mut clock, "/golden/gold.bin", bytes, TenantId(1))
        .expect("fresh namespace");
    let plain = rt
        .create_sized(&mut clock, "/golden/plain.bin", bytes)
        .expect("fresh namespace");
    let chunk = 16 * 1024u64;
    for i in 0..512u64 {
        batch.read_charge(&mut clock, i * chunk, chunk);
        gold.read_charge(&mut clock, (i % 128) * chunk, chunk);
        if i % 4 == 0 {
            plain.write_charge(&mut clock, (i * 3 % 1024) * chunk, chunk);
        }
    }
    for offset in lcg_offsets(128, bytes - chunk) {
        gold.read_charge(&mut clock, offset, chunk);
        plain.read_charge(&mut clock, offset, chunk);
    }
    plain.fsync(&mut clock);
    RuntimeReport::collect(&rt)
}

/// The reports behind the goldens: the baseline workload under each
/// mechanism (Table 2 plus the Figure 2 fincore strawman), then the
/// feature-on workload.
pub fn golden_reports() -> (Vec<RuntimeReport>, RuntimeReport) {
    let baseline = Mode::table2()
        .into_iter()
        .chain([Mode::FincoreApp])
        .map(schema_workload)
        .collect();
    (baseline, feature_on_workload())
}

/// The checked-in telemetry goldens as `(file name under
/// [`golden_dir`], current export)`:
///
/// * `telemetry_schema_baseline.json` — one line per mechanism of the
///   baseline workload with every additive section left out: the frozen
///   schema-v1 layout of a run with every opt-in subsystem off.
/// * `telemetry_feature_on_golden.json` — the full export of the
///   feature-on workload, pinning the byte layout of the additive
///   sections the baseline leaves out.
pub fn telemetry_goldens() -> [(&'static str, String); 2] {
    let additive = RuntimeReport::additive_sections();
    let (baseline, feature_on) = golden_reports();
    [
        (
            "telemetry_schema_baseline.json",
            baseline
                .iter()
                .map(|report| report.to_json_without(&additive) + "\n")
                .collect(),
        ),
        (
            "telemetry_feature_on_golden.json",
            feature_on.to_json() + "\n",
        ),
    ]
}

/// Where `current` first departs from `golden`, rendered as a line number
/// plus a 120-byte window of both sides; `None` when they are identical.
pub fn golden_mismatch(current: &str, golden: &str) -> Option<String> {
    if current == golden {
        return None;
    }
    let mut want_lines = golden.lines();
    for (i, line) in current.lines().enumerate() {
        let want = want_lines.next().unwrap_or("<missing>");
        if line != want {
            let at = line
                .bytes()
                .zip(want.bytes())
                .position(|(a, b)| a != b)
                .unwrap_or(line.len().min(want.len()));
            let window = |s: &str| {
                String::from_utf8_lossy(&s.as_bytes()[at.saturating_sub(60)..s.len().min(at + 60)])
                    .into_owned()
            };
            return Some(format!(
                "line {i} diverges at byte {at}\n  current: ...{}\n  golden : ...{}",
                window(line),
                window(want)
            ));
        }
    }
    Some("line counts differ".to_string())
}
