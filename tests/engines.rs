//! Pluggable prediction engines: engine selection inert on modes that
//! never predict, per-engine determinism, and closed-loop
//! prefetch-quality accounting.

use std::sync::Arc;

use cp_bench::boot;
use crossprefetch::{EngineKind, Mode, Runtime, RuntimeConfig, RuntimeReport, PAGE_SIZE};
use simclock::{ThreadClock, NS_PER_MS, NS_PER_US};
use simos::{Device, DeviceConfig, FaultPlan, FileSystem, FsKind, Os, OsConfig};
use workloads::{run_kvprobe, setup_kvprobe, KvProbeConfig};

/// The same deterministic mixed workload the batching inertness test
/// drives: sequential ramp, warm re-read, random jumps.
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
    runtime.flush_prefetch_batches(&mut clock);
    RuntimeReport::collect(&runtime).to_json()
}

/// Selecting a non-strided engine on a mode that never consults a
/// predictor resolves back to strided: the knob cannot perturb
/// non-predicting mechanisms.
#[test]
fn engine_selection_is_inert_without_predict() {
    for mode in [
        Mode::AppOnly,
        Mode::OsOnly,
        Mode::FetchAllOpt,
        Mode::FincoreApp,
    ] {
        let baseline = run_mixed_workload(RuntimeConfig::new(mode));
        for engine in [EngineKind::Correlation, EngineKind::Adaptive] {
            let mut tweaked = RuntimeConfig::new(mode);
            tweaked.engine = engine;
            assert_eq!(
                baseline,
                run_mixed_workload(tweaked),
                "{}: engine {} leaked into a non-predicting mode",
                mode.label(),
                engine.name()
            );
        }
    }
}

/// A seeded zipfian kvprobe under `engine` on `Mode::Predict` (no OS
/// heuristic readahead, no open-time prefetch: the engine's own plans are
/// the only speculative pages). Returns the runtime and its clock.
fn probe(engine: EngineKind, os: Arc<Os>, probes: u64, seed: u64) -> (Runtime, ThreadClock) {
    let mut config = RuntimeConfig::new(Mode::Predict);
    config.engine = engine;
    let runtime = Runtime::new(os, config);
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

/// Same-seed zipfian runs diff clean for every engine — the correlation
/// miner and the adaptive duel are as deterministic as the strided
/// counter — on a healthy device and under the `fault_injection`
/// example's seeded plan (transient prefetch- and demand-class EIOs plus
/// latency spikes), where the retry ladder must demonstrably engage.
#[test]
fn same_seed_runs_are_identical_for_every_engine() {
    let faults = FaultPlan::seeded(0xC0FFEE)
        .with_prefetch_eio(0.10)
        .with_demand_eio(0.02)
        .with_latency_spikes(20 * NS_PER_MS, 2 * NS_PER_MS, 500 * NS_PER_US);
    for plan in [FaultPlan::seeded(0), faults] {
        for engine in EngineKind::all() {
            let run = || {
                // 8 MB against the 18 MiB dataset: eviction keeps every
                // engine prefetching, so the 10 % prefetch EIO has
                // requests to hit even under the frugal correlation miner.
                let os = Os::new(
                    OsConfig::with_memory_mb(8),
                    Device::with_fault_plan(DeviceConfig::local_nvme(), plan.clone()),
                    FileSystem::new(FsKind::Ext4Like),
                );
                let (runtime, mut clock) = probe(engine, os, 2048, 7);
                // kvprobe's reads are infallible; a fallible scattered
                // tail lets demand-class EIOs reach the workload too.
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
            let name = engine.name();
            assert_eq!(
                first.to_json(),
                second.to_json(),
                "{name}: same-seed divergence"
            );
            assert!(
                first
                    .to_json()
                    .contains(&format!("\"selected\":\"{name}\"")),
                "{name}: telemetry should name the selected engine"
            );
            if plan != FaultPlan::seeded(0) {
                assert!(first.device_read_faults > 0, "{name}: no EIO was injected");
                assert!(
                    first.prefetch_retries > 0,
                    "{name}: the retry ladder never engaged"
                );
                assert!(first.read_errors > 0, "{name}: no demand EIO surfaced");
            }
        }
    }
}

/// Closed-loop quality accounting and the engine-comparison gate, on an
/// index-then-record probe stream. After a zipfian run plus a cache drop
/// (still-speculative pages settle as wasted), every initiated prefetch
/// page has been classified exactly once — timely + late + wasted sums to
/// `pages_initiated` — for each engine. Since the strided predictor
/// learned the run shape all three convert nearly all they prefetch into
/// hits, so the gate is that none trails: no engine's hit ratio is more
/// than 0.05 below the best, and neither learned engine wastes more than
/// 1.25x strided's pages (seed 42: strided 95.6 % at 80 wasted of 1 814,
/// correlation 100 % at 0 of 76, adaptive 95.3 % at 80 of 1 697).
#[test]
fn quality_counters_sum_to_pages_initiated_for_every_engine() {
    let [strided, correlation, adaptive] = EngineKind::all().map(|engine| {
        // 8 MB of memory against an 18 MiB dataset: eviction keeps cold
        // pages uncached, so planned prefetches actually issue (and the
        // stale-view watchdog resyncs the user-level tree, re-enabling
        // prefetches of previously-read pages).
        let (runtime, mut clock) = probe(engine, boot(8), 2048, 42);
        runtime.os().drop_caches(&mut clock);
        let report = RuntimeReport::collect(&runtime);
        let q = report.prefetch_quality;
        assert!(
            report.pages_initiated > 0,
            "{}: the probe stream should trigger prefetching",
            engine.name()
        );
        assert_eq!(
            q.timely + q.late + q.wasted,
            report.pages_initiated,
            "{}: quality books don't balance (timely={} late={} wasted={} initiated={})",
            engine.name(),
            q.timely,
            q.late,
            q.wasted,
            report.pages_initiated
        );
        let hit_ratio = (q.timely + q.late) as f64 / report.pages_initiated as f64;
        (hit_ratio, q.wasted)
    });
    let best = strided.0.max(correlation.0).max(adaptive.0);
    for (name, (hit_ratio, wasted)) in [
        ("strided", strided),
        ("correlation", correlation),
        ("adaptive", adaptive),
    ] {
        assert!(
            hit_ratio >= best - 0.05,
            "{name}: prefetch-hit ratio {hit_ratio:.3} trails the best engine's {best:.3}"
        );
        assert!(
            wasted * 4 <= strided.1 * 5,
            "{name}: {wasted} wasted pages exceed 1.25x strided's {}",
            strided.1
        );
    }
}

/// The adaptive selector must not tax the stream the strided counter
/// owns: sequential 16 KiB reads finish within 2 % of `Strided`'s virtual
/// time (today: identical to the nanosecond).
#[test]
fn adaptive_matches_strided_on_sequential_reads() {
    let [strided, _, adaptive] = EngineKind::all().map(|engine| {
        let mut config = RuntimeConfig::new(Mode::Predict);
        config.engine = engine;
        let runtime = Runtime::new(boot(64), config);
        let mut clock = runtime.new_clock();
        let file = runtime
            .create_sized(&mut clock, "/data/seq.bin", 48 << 20)
            .unwrap();
        for i in 0..768u64 {
            file.read_charge(&mut clock, i * 16_384, 16_384);
        }
        runtime.flush_prefetch_batches(&mut clock);
        clock.now()
    });
    assert!(
        strided.abs_diff(adaptive) * 50 <= strided,
        "adaptive {adaptive} ns drifts more than 2% from strided {strided} ns"
    );
}

/// The gate on time, not only on hit ratio: on a zipfian kvprobe whose
/// data is 9x the cache (4 096 keys x 9 pages against 16 MB — the default
/// 512-key dataset fits the correlation table and never shows the
/// failure), `Predict` + `Adaptive` + ring finishes in less virtual time
/// than `OsOnly` on the same OS config, wastes at most a tenth of what it
/// initiates, balances its quality ledger, and repeats exactly per seed
/// (seed 42: 528 ms against 803 ms — 1 135 ms before run shape and
/// I/O-scored duels — and 4 wasted pages of 7 245).
#[test]
fn adaptive_beats_osonly_on_an_out_of_cache_kvprobe() {
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
    let adaptive = || {
        let mut config = RuntimeConfig::new(Mode::Predict);
        config.engine = EngineKind::Adaptive;
        config.ring_submit = true;
        run(config)
    };
    let (os_only_ns, _) = run(RuntimeConfig::new(Mode::OsOnly));
    let (adaptive_ns, report) = adaptive();
    assert!(
        adaptive_ns < os_only_ns,
        "adaptive took {adaptive_ns} ns, OSonly {os_only_ns} ns"
    );
    let q = report.prefetch_quality;
    assert!(report.pages_initiated > 0);
    assert_eq!(q.timely + q.late + q.wasted, report.pages_initiated);
    assert!(
        q.wasted * 10 <= report.pages_initiated,
        "{} of {} initiated pages wasted",
        q.wasted,
        report.pages_initiated
    );
    let (again_ns, again) = adaptive();
    assert_eq!(adaptive_ns, again_ns);
    assert_eq!(report.to_json(), again.to_json());
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

/// The correlation and adaptive engines leave fingerprints in the new
/// telemetry section; the strided default leaves it at zero.
#[test]
fn engine_counters_track_the_selected_engine() {
    let (strided, _) = probe(EngineKind::Strided, boot(64), 1024, 11);
    let strided = RuntimeReport::collect(&strided);
    assert_eq!(strided.engine_assoc_runs, 0);
    assert_eq!(strided.engine_mining_passes, 0);

    let (adaptive, _) = probe(EngineKind::Adaptive, boot(64), 2048, 11);
    let stats = adaptive.stats();
    assert!(stats.engine_mining_passes.get() > 0);
    assert!(
        stats.engine_duels.get() > 0,
        "the adaptive engine should close duel windows on a 2048-probe run"
    );
}
