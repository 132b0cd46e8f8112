//! cp_flame: folded-stack critical paths for the slowest reads.
//!
//! Runs the kvprobe workload (zipfian index-then-data probes) under the
//! full mechanism with the adaptive engine and causal span tracing
//! enabled, then emits the tail exemplars' span trees
//! in Brendan Gregg's collapsed format — one `frame;frame;...frame count`
//! line per folded stack, counts in virtual nanoseconds — ready for
//! `flamegraph.pl` or any folded-stack viewer.
//!
//! Stacks are rooted at `read-<latency-class>`; stage residuals fold
//! under `stage:<name>`, synchronous waits under their stage, and
//! off-critical-path work (worker jobs, prefetch device windows) under an
//! `async` frame.
//!
//! Usage:
//!   cargo run --release --example cp_flame             # stacks to stdout
//!   cargo run --release --example cp_flame -- out.folded

use std::collections::BTreeMap;

use crossprefetch::{EngineKind, Mode, Runtime, RuntimeConfig};
use simos::{Device, DeviceConfig, FileSystem, FsKind, Os, OsConfig};
use workloads::kvprobe::{run_kvprobe, setup_kvprobe, KvProbeConfig};

fn main() {
    let os = Os::new(
        OsConfig::with_memory_mb(64),
        Device::new(DeviceConfig::local_nvme()),
        FileSystem::new(FsKind::Ext4Like),
    );
    let mut config = RuntimeConfig::new(Mode::PredictOpt);
    config.engine = EngineKind::Adaptive;
    let runtime = Runtime::new(os, config);
    runtime.spans().set_enabled(true);

    let mut clock = runtime.new_clock();
    let cfg = KvProbeConfig::default();
    setup_kvprobe(&runtime, &cfg, "/kv/probe.db");
    let result = run_kvprobe(&runtime, &mut clock, &cfg, "/kv/probe.db");

    let spans = runtime.spans();
    let exemplars = spans.exemplars();
    assert!(
        !exemplars.is_empty(),
        "span tracing was on; the tail reservoirs must hold exemplars"
    );

    // Validate the critical-path contract on every kept exemplar before
    // trusting the folded output: buckets partition the read's latency.
    for exemplar in &exemplars {
        assert_eq!(
            exemplar.path.total_ns(),
            exemplar.latency_ns,
            "critical-path buckets must sum to the end-to-end latency (req {})",
            exemplar.req_id
        );
    }

    // Aggregate folded lines across the exemplars; BTreeMap keeps the
    // output deterministic.
    let mut folded: BTreeMap<String, u64> = BTreeMap::new();
    for exemplar in &exemplars {
        for (stack, weight) in exemplar.folded_lines() {
            assert!(weight > 0, "folded lines never carry zero weight");
            assert!(
                stack.split(';').count() >= 2,
                "every stack has a root and at least one frame: {stack}"
            );
            *folded.entry(stack).or_insert(0) += weight;
        }
    }

    let mut out = String::new();
    for (stack, weight) in &folded {
        out.push_str(&format!("{stack} {weight}\n"));
    }

    eprintln!(
        "cp_flame: {} probes ({} reads), {} exemplars across classes, {} distinct stacks",
        cfg.probes,
        result.index_reads + result.data_reads,
        exemplars.len(),
        folded.len()
    );
    if let Some(slowest) = exemplars.first() {
        eprintln!(
            "slowest read: req {} class {} latency {} ns — compute {} / lock {} / queue {} / device {} / backoff {} ns",
            slowest.req_id,
            slowest.class.name(),
            slowest.latency_ns,
            slowest.path.stage_compute_ns,
            slowest.path.lock_wait_ns,
            slowest.path.queue_wait_ns,
            slowest.path.device_service_ns,
            slowest.path.retry_backoff_ns
        );
    }

    match std::env::args().nth(1) {
        Some(path) => {
            std::fs::write(&path, &out).expect("write folded output");
            eprintln!("wrote {path}");
        }
        None => print!("{out}"),
    }
}
