//! Pluggable prediction engines: knob inertness under the strided
//! default, per-engine determinism, and closed-loop prefetch-quality
//! accounting.

use crossprefetch::{EngineKind, Mode, Runtime, RuntimeConfig, RuntimeReport, SEQ_BATCH_PAGES};
use simos::{Device, DeviceConfig, FileSystem, FsKind, Os, OsConfig};
use workloads::{run_kvprobe, setup_kvprobe, KvProbeConfig};

fn os(memory_mb: u64) -> std::sync::Arc<Os> {
    Os::new(
        OsConfig::with_memory_mb(memory_mb),
        Device::new(DeviceConfig::local_nvme()),
        FileSystem::new(FsKind::Ext4Like),
    )
}

const MECHANISMS: [Mode; 6] = [
    Mode::AppOnly,
    Mode::OsOnly,
    Mode::Predict,
    Mode::PredictOpt,
    Mode::FetchAllOpt,
    Mode::FincoreApp,
];

/// The same deterministic mixed workload the batching inertness test
/// drives: sequential ramp, warm re-read, random jumps.
fn run_mixed_workload(config: RuntimeConfig) -> String {
    let runtime = Runtime::new(os(48), config);
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

/// With the default `Strided` engine selected, every correlation and
/// adaptive knob must be inert: telemetry stays byte-identical across all
/// six Table-2 mechanisms no matter how they are set.
#[test]
fn engine_knobs_are_inert_under_strided() {
    for mode in MECHANISMS {
        let baseline = run_mixed_workload(RuntimeConfig::new(mode));
        let mut tweaked = RuntimeConfig::new(mode);
        tweaked.engine_tuning.correlation.history = 16;
        tweaked.engine_tuning.correlation.max_assocs = 8;
        tweaked.engine_tuning.correlation.mine_interval = 2;
        tweaked.engine_tuning.correlation.min_support = 1;
        tweaked.engine_tuning.correlation.max_span_pages = 1;
        tweaked.engine_tuning.adaptive.sample_interval = 1;
        tweaked.engine_tuning.adaptive.duel_window = 2;
        tweaked.engine_tuning.adaptive.shadow_capacity = 4;
        assert_eq!(
            baseline,
            run_mixed_workload(tweaked),
            "{}: engine knobs leaked into the strided path",
            mode.label()
        );
    }
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

/// One-page reads at a 16 KiB stride: each read leaves a 3-page gap, so
/// the stream is sequential-ish under the default 32-page batch window
/// and random under a 1-page window.
fn run_gapped_stride_workload(config: RuntimeConfig) -> String {
    let runtime = Runtime::new(os(48), config);
    let mut clock = runtime.new_clock();
    let file = runtime
        .create_sized(&mut clock, "/data/s.bin", 48 << 20)
        .unwrap();
    for i in 0..1024u64 {
        file.read_charge(&mut clock, i * 16 * 1024, 4096);
    }
    runtime.flush_prefetch_batches(&mut clock);
    RuntimeReport::collect(&runtime).to_json()
}

/// The lifted `seq_batch_pages` knob: an explicit default is
/// byte-identical to the implicit one (the lift changed nothing), and a
/// non-default value actually changes behaviour (the knob is live, not
/// decorative).
#[test]
fn seq_batch_pages_default_is_identical_and_knob_is_live() {
    for mode in [Mode::Predict, Mode::PredictOpt] {
        let baseline = run_mixed_workload(RuntimeConfig::new(mode));
        let mut explicit = RuntimeConfig::new(mode);
        explicit.engine_tuning.seq_batch_pages = SEQ_BATCH_PAGES;
        assert_eq!(baseline, run_mixed_workload(explicit));

        let strided = run_gapped_stride_workload(RuntimeConfig::new(mode));
        let mut narrow = RuntimeConfig::new(mode);
        narrow.engine_tuning.seq_batch_pages = 1;
        assert_ne!(
            strided,
            run_gapped_stride_workload(narrow),
            "{}: a one-page batch window should classify the 3-page gaps as random",
            mode.label()
        );
    }
}

fn kvprobe_json(engine: EngineKind, seed: u64) -> String {
    let o = os(64);
    let mut config = RuntimeConfig::new(Mode::Predict);
    config.engine = engine;
    let runtime = Runtime::new(o, config);
    let cfg = KvProbeConfig {
        probes: 1024,
        seed,
        ..KvProbeConfig::default()
    };
    setup_kvprobe(&runtime, &cfg, "/kv");
    let mut clock = runtime.new_clock();
    run_kvprobe(&runtime, &mut clock, &cfg, "/kv");
    RuntimeReport::collect(&runtime).to_json()
}

/// Same-seed zipfian runs diff clean for every engine — the correlation
/// miner and the adaptive duel are as deterministic as the strided
/// counter.
#[test]
fn same_seed_runs_are_identical_for_every_engine() {
    for engine in EngineKind::all() {
        let first = kvprobe_json(engine, 7);
        let second = kvprobe_json(engine, 7);
        assert_eq!(first, second, "{}: same-seed divergence", engine.name());
        assert!(
            first.contains(&format!("\"selected\":\"{}\"", engine.name())),
            "{}: telemetry should name the selected engine",
            engine.name()
        );
    }
}

/// Closed-loop quality accounting: after a zipfian run plus a cache drop,
/// every initiated prefetch page has been classified exactly once —
/// timely + late + wasted sums to `pages_initiated` — for each engine.
///
/// `Mode::Predict` silences the OS heuristic readahead and does no
/// open-time prefetch, so the runtime's own prefetch paths are the only
/// source of speculative pages; dropping the cache at the end converts
/// still-speculative pages to wasted, closing the books.
#[test]
fn quality_counters_sum_to_pages_initiated_for_every_engine() {
    for engine in EngineKind::all() {
        // 8 MB of memory against an 18 MiB dataset: eviction keeps cold
        // pages uncached, so planned prefetches actually issue (and the
        // stale-view watchdog resyncs the user-level tree, re-enabling
        // prefetches of previously-read pages).
        let o = os(8);
        let mut config = RuntimeConfig::new(Mode::Predict);
        config.engine = engine;
        let runtime = Runtime::new(o, config);
        let cfg = KvProbeConfig {
            probes: 2048,
            ..KvProbeConfig::default()
        };
        setup_kvprobe(&runtime, &cfg, "/kv");
        let mut clock = runtime.new_clock();
        run_kvprobe(&runtime, &mut clock, &cfg, "/kv");
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
    }
}

/// The correlation and adaptive engines leave fingerprints in the new
/// telemetry section; the strided default leaves it at zero.
#[test]
fn engine_counters_track_the_selected_engine() {
    let strided = kvprobe_json(EngineKind::Strided, 11);
    assert!(strided.contains("\"assoc_runs\":0,"));
    assert!(strided.contains("\"mining_passes\":0,"));

    let o = os(64);
    let mut config = RuntimeConfig::new(Mode::Predict);
    config.engine = EngineKind::Adaptive;
    let runtime = Runtime::new(o, config);
    let cfg = KvProbeConfig {
        probes: 2048,
        seed: 11,
        ..KvProbeConfig::default()
    };
    setup_kvprobe(&runtime, &cfg, "/kv");
    let mut clock = runtime.new_clock();
    run_kvprobe(&runtime, &mut clock, &cfg, "/kv");
    let stats = runtime.stats();
    assert!(stats.engine_mining_passes.get() > 0);
    assert!(
        stats.engine_duels.get() > 0,
        "the adaptive engine should close duel windows on a 2048-probe run"
    );
}
