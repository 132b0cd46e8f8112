//! The one predictor: the engine knob inert on every mode, same-seed
//! determinism, closed-loop prefetch-quality accounting, and the time
//! gate against `OsOnly` on an out-of-cache kvprobe.

use std::sync::Arc;

use cp_bench::boot;
use crossprefetch::{EngineKind, Mode, Runtime, RuntimeConfig, RuntimeReport, PAGE_SIZE};
use simclock::{ThreadClock, NS_PER_MS, NS_PER_US};
use simos::{Device, DeviceConfig, FaultPlan, FileSystem, FsKind, Os, OsConfig};
use workloads::{run_kvprobe, setup_kvprobe, KvProbeConfig};

/// The same deterministic mixed workload the ring suite drives:
/// sequential ramp, warm re-read, random jumps.
fn run_mixed_workload(config: RuntimeConfig) -> String {
    let runtime = Runtime::new(boot(48), config);
    let mut clock = runtime.new_clock();
    let file = runtime
        .create_sized(&mut clock, "/data/w.bin", 48 << 20)
        .unwrap();
    let chunk = 16 * 1024u64;
    for i in 0..512u64 {
        file.read_charge(&mut clock, i * chunk, chunk);
    }
    for i in 0..64u64 {
        file.read_charge(&mut clock, i * chunk, chunk);
    }
    let mut state = 0x9E3779B97F4A7C15u64;
    for _ in 0..128 {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        file.read_charge(&mut clock, (state % (47 << 20)) & !4095, chunk);
    }
    RuntimeReport::collect(&runtime).to_json()
}

/// There is one predictor: on every mode, under every `EngineKind`, the
/// mixed workload's full telemetry export is byte for byte the default
/// config's.
#[test]
fn engine_kind_is_inert() {
    for mode in [
        Mode::AppOnly,
        Mode::OsOnly,
        Mode::Predict,
        Mode::PredictOpt,
        Mode::FetchAllOpt,
        Mode::FincoreApp,
    ] {
        let baseline = run_mixed_workload(RuntimeConfig::new(mode));
        for engine in [EngineKind::Strided, EngineKind::Adaptive] {
            let mut tweaked = RuntimeConfig::new(mode);
            tweaked.engine = engine;
            assert_eq!(
                baseline,
                run_mixed_workload(tweaked),
                "{}: engine {engine:?} changed the run",
                mode.label()
            );
        }
    }
}

/// A seeded zipfian kvprobe on `Mode::Predict` (no OS heuristic
/// readahead, no open-time prefetch: the predictor's own plans are the
/// only speculative pages). Returns the runtime and its clock.
fn probe(os: Arc<Os>, probes: u64, seed: u64) -> (Runtime, ThreadClock) {
    let runtime = Runtime::new(os, RuntimeConfig::new(Mode::Predict));
    let cfg = KvProbeConfig {
        probes,
        seed,
        ..KvProbeConfig::default()
    };
    setup_kvprobe(&runtime, &cfg, "/kv");
    let mut clock = runtime.new_clock();
    run_kvprobe(&runtime, &mut clock, &cfg, "/kv");
    (runtime, clock)
}

/// Same-seed zipfian runs diff clean on a healthy device and under the
/// `fault_injection` example's seeded plan (transient prefetch- and
/// demand-class EIOs plus latency spikes), where the retry ladder must
/// demonstrably engage.
#[test]
fn same_seed_runs_are_identical() {
    let faults = FaultPlan::seeded(0xC0FFEE)
        .with_prefetch_eio(0.10)
        .with_demand_eio(0.02)
        .with_latency_spikes(20 * NS_PER_MS, 2 * NS_PER_MS, 500 * NS_PER_US);
    for plan in [FaultPlan::seeded(0), faults] {
        let run = || {
            // 8 MB against the 18 MiB dataset: eviction keeps the
            // predictor prefetching, so the 10 % prefetch EIO has requests
            // to hit.
            let os = Os::new(
                OsConfig::with_memory_mb(8),
                Device::with_fault_plan(DeviceConfig::local_nvme(), plan.clone()),
                FileSystem::new(FsKind::Ext4Like),
            );
            let (runtime, mut clock) = probe(os, 2048, 7);
            // kvprobe's reads are infallible; a fallible scattered tail
            // lets demand-class EIOs reach the workload too.
            let file = runtime.open(&mut clock, "/kv").unwrap();
            let pages = file.size() / PAGE_SIZE;
            let surfaced = (0..1024u64)
                .filter(|i| {
                    let page = i.wrapping_mul(0x9E37_79B9) % pages;
                    file.try_read_charge(&mut clock, page * PAGE_SIZE, PAGE_SIZE)
                        .is_err()
                })
                .count() as u64;
            let report = RuntimeReport::collect(&runtime);
            assert_eq!(report.read_errors, surfaced);
            report
        };
        let (first, second) = (run(), run());
        assert_eq!(first.to_json(), second.to_json(), "same-seed divergence");
        if plan != FaultPlan::seeded(0) {
            assert!(first.device_read_faults > 0, "no EIO was injected");
            assert!(first.prefetch_retries > 0, "the retry ladder never engaged");
            assert!(first.read_errors > 0, "no demand EIO surfaced");
        }
    }
}

/// Closed-loop quality accounting on an index-then-record probe stream.
/// After a zipfian run plus a cache drop (still-speculative pages settle
/// as wasted), every initiated prefetch page has been classified exactly
/// once: timely + late + wasted sums to `pages_initiated` (seed 42: 95.6 %
/// hits, 80 wasted of 1 814).
#[test]
fn quality_counters_sum_to_pages_initiated() {
    // 8 MB of memory against an 18 MiB dataset: eviction keeps cold pages
    // uncached, so planned prefetches actually issue (and the stale-view
    // watchdog resyncs the user-level tree, re-enabling prefetches of
    // previously-read pages).
    let (runtime, mut clock) = probe(boot(8), 2048, 42);
    runtime.os().drop_caches(&mut clock);
    let report = RuntimeReport::collect(&runtime);
    let q = report.prefetch_quality;
    assert!(
        report.pages_initiated > 0,
        "the probe stream should trigger prefetching"
    );
    assert_eq!(
        q.timely + q.late + q.wasted,
        report.pages_initiated,
        "quality books don't balance (timely={} late={} wasted={} initiated={})",
        q.timely,
        q.late,
        q.wasted,
        report.pages_initiated
    );
}

/// The same gate for the default engine: on that 9x-cache kvprobe
/// `Predict` + `Strided` + ring finishes in at most `OsOnly`'s virtual
/// time / 1.3, wastes at most a tenth of what it initiates, balances its
/// quality ledger, and repeats exactly per seed (seed 42: 433 ms against
/// 803 ms, 120 wasted pages of 8 372; before the predictor learned the
/// run shape it lost to `OsOnly`).
#[test]
fn strided_beats_osonly_on_an_out_of_cache_kvprobe() {
    let cfg = KvProbeConfig {
        keys: 4096,
        probes: 4096,
        ..KvProbeConfig::default()
    };
    let run = |config: RuntimeConfig| {
        let runtime = Runtime::new(boot(16), config);
        setup_kvprobe(&runtime, &cfg, "/kv");
        let mut clock = runtime.new_clock();
        let elapsed_ns = run_kvprobe(&runtime, &mut clock, &cfg, "/kv").elapsed_ns;
        runtime.os().drop_caches(&mut clock);
        (elapsed_ns, RuntimeReport::collect(&runtime))
    };
    let strided = || {
        let mut config = RuntimeConfig::new(Mode::Predict);
        config.ring_submit = true;
        run(config)
    };
    let (os_only_ns, _) = run(RuntimeConfig::new(Mode::OsOnly));
    let (strided_ns, report) = strided();
    assert!(
        strided_ns * 13 <= os_only_ns * 10,
        "strided took {strided_ns} ns, OSonly {os_only_ns} ns"
    );
    let q = report.prefetch_quality;
    assert_eq!(q.timely + q.late + q.wasted, report.pages_initiated);
    assert!(
        q.wasted * 10 <= report.pages_initiated,
        "{} of {} initiated pages wasted",
        q.wasted,
        report.pages_initiated
    );
    let (again_ns, again) = strided();
    assert_eq!(strided_ns, again_ns);
    assert_eq!(report.to_json(), again.to_json());
}

/// The frozen `engines` telemetry section keeps its schema-v1 layout at
/// constant values: the one predictor's name and zeros.
#[test]
fn engines_section_reads_its_constants() {
    let (runtime, _) = probe(boot(64), 1024, 11);
    let report = RuntimeReport::collect(&runtime);
    assert!(report.to_json().contains(
        "\"engines\":{\"selected\":\"strided\",\"assoc_runs\":0,\"assoc_pages\":0,\
         \"mining_passes\":0,\"duels\":0,\"ownership_flips\":0}"
    ));
}
