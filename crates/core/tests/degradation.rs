//! Fault injection and graceful degradation: the error model end to end.
//!
//! Covers the degradation ladder (§4.4's freshness/robustness challenges
//! under an adversarial device): transient-EIO retry and give-up on the
//! worker path, the permanent downgrade to blind `readahead(2)` on a stock
//! kernel, stale-view resynchronisation after OS reclaim, the memory
//! watcher's LRU-of-files ordering, and the pay-nothing-when-disabled
//! guarantee of an all-zero fault plan.

use crossprefetch::{
    Device, DeviceConfig, FaultPlan, FileSystem, FsKind, InodeId, Mode, Os, OsConfig, Runtime,
    RuntimeConfig, RuntimeReport, TraceEventKind,
};
use std::sync::Arc;

fn boot(memory_mb: u64) -> Arc<Os> {
    Os::new(
        OsConfig::with_memory_mb(memory_mb),
        Device::new(DeviceConfig::local_nvme()),
        FileSystem::new(FsKind::Ext4Like),
    )
}

fn boot_with_plan(memory_mb: u64, plan: FaultPlan) -> Arc<Os> {
    Os::new(
        OsConfig::with_memory_mb(memory_mb),
        Device::with_fault_plan(DeviceConfig::local_nvme(), plan),
        FileSystem::new(FsKind::Ext4Like),
    )
}

/// Streams `total` bytes sequentially in `chunk`-byte reads, returning the
/// bytes delivered.
fn stream(
    file: &crossprefetch::CpFile,
    clock: &mut simclock::ThreadClock,
    total: u64,
    chunk: u64,
) -> u64 {
    let mut bytes = 0;
    let mut offset = 0;
    while offset < total {
        bytes += file.read_charge(clock, offset, chunk).bytes;
        offset += chunk;
    }
    bytes
}

#[test]
fn stale_view_resyncs_after_os_reclaims_behind_the_runtime() {
    let rt = Runtime::with_mode(boot(512), Mode::Predict);
    let mut clock = rt.new_clock();
    let size = 4 << 20; // 1024 pages
    let file = rt.create_sized(&mut clock, "/stale", size).unwrap();
    // First pass marks the whole file cached in the user-level view.
    stream(&file, &mut clock, size, 16 * 1024);
    assert_eq!(rt.stats().stale_pages_observed.get(), 0);

    // The OS drops its cache behind the runtime's back (the user-level
    // bitmap import is now entirely stale).
    let mut oc = rt.os().new_clock();
    rt.os().drop_caches(&mut oc);

    // Second pass: the view claims every page cached, the reads all miss.
    // The watchdog accumulates the unexpected misses and resyncs by
    // dropping the tree once enough evidence piles up.
    let bytes = stream(&file, &mut clock, size, 16 * 1024);
    assert_eq!(bytes, size, "reads must survive a stale view");
    assert!(
        rt.stats().stale_pages_observed.get() >= 128,
        "stale pages observed: {}",
        rt.stats().stale_pages_observed.get()
    );
    assert!(
        rt.stats().stale_resyncs.get() >= 1,
        "the watchdog must resync at least once"
    );
    // Telemetry surfaces the resync.
    let report = RuntimeReport::collect(&rt);
    assert_eq!(report.stale_resyncs, rt.stats().stale_resyncs.get());
    assert!(report.to_json().contains("\"stale_resyncs\":"));
}

#[test]
fn memory_watcher_evicts_oldest_idle_file_and_stops_at_target() {
    // 32 MiB budget; A and B (8 MiB each) go idle, then streaming C
    // (14 MiB) pushes free memory below the 10% trigger. Evicting A alone
    // restores >= 25% free (the target), so B must survive.
    let mut config = RuntimeConfig::new(Mode::PredictOpt);
    config.evict_min_idle_ns = simclock::NS_PER_US;
    config.evict_scan_interval_ns = simclock::NS_PER_US;
    let rt = Runtime::new(boot(32), config);
    rt.trace().set_enabled(true);
    let mut clock = rt.new_clock();

    let a = rt.create_sized(&mut clock, "/a", 8 << 20).unwrap();
    stream(&a, &mut clock, 8 << 20, 64 * 1024);
    let b = rt.create_sized(&mut clock, "/b", 8 << 20).unwrap();
    stream(&b, &mut clock, 8 << 20, 64 * 1024);
    let c = rt.create_sized(&mut clock, "/c", 14 << 20).unwrap();
    stream(&c, &mut clock, 14 << 20, 64 * 1024);

    assert!(
        rt.stats().files_evicted.get() >= 1,
        "pressure must trigger the watcher"
    );
    let evicted: Vec<InodeId> = rt
        .trace()
        .snapshot()
        .iter()
        .filter_map(|e| match e.kind {
            TraceEventKind::LibEvict { ino, .. } => Some(ino),
            _ => None,
        })
        .collect();
    assert_eq!(
        evicted.first(),
        Some(&a.ino()),
        "LRU-of-files must evict the oldest idle file first"
    );
    // Stop-at-target: one eviction restored the target, so B keeps its
    // pages and is never evicted.
    assert!(
        !evicted.contains(&b.ino()),
        "watcher must stop at the eviction target instead of draining every file"
    );
    assert!(
        rt.os().cache(b.ino()).state.read().resident() > 0,
        "B must stay resident"
    );
}

#[test]
fn transient_prefetch_faults_retry_then_recover() {
    let plan = FaultPlan::seeded(7).with_prefetch_eio(0.2);
    let rt = Runtime::with_mode(boot_with_plan(512, plan), Mode::PredictOpt);
    let mut clock = rt.new_clock();
    let size = 32 << 20;
    let file = rt.create_sized(&mut clock, "/retry", size).unwrap();
    let bytes = stream(&file, &mut clock, size, 64 * 1024);
    assert_eq!(bytes, size, "faulty prefetch must never corrupt reads");
    assert!(
        rt.os().device().stats().injected_read_faults.get() > 0,
        "the plan must actually inject faults"
    );
    assert!(
        rt.stats().prefetch_retries.get() > 0,
        "transient EIOs must be retried"
    );
    // At 20% per-attempt failure and 4 attempts, nearly every chunk lands.
    assert!(
        rt.stats().pages_initiated.get() > 0,
        "retried prefetches must eventually initiate pages"
    );
    let report = RuntimeReport::collect(&rt);
    assert_eq!(report.prefetch_retries, rt.stats().prefetch_retries.get());
    assert!(report.device_read_faults > 0);
}

#[test]
fn exhausted_retries_abandon_the_range_but_reads_survive() {
    let plan = FaultPlan::seeded(3).with_prefetch_eio(1.0);
    let rt = Runtime::with_mode(boot_with_plan(256, plan), Mode::PredictOpt);
    rt.trace().set_enabled(true);
    let mut clock = rt.new_clock();
    let size = 8 << 20;
    let file = rt.create_sized(&mut clock, "/doomed", size).unwrap();
    let bytes = stream(&file, &mut clock, size, 64 * 1024);
    assert_eq!(
        bytes, size,
        "demand reads must survive a dead prefetch path"
    );
    assert!(
        rt.stats().prefetch_give_ups.get() > 0,
        "every prefetch must exhaust its retries"
    );
    assert!(rt.stats().pages_abandoned.get() > 0);
    // All-or-nothing injection: nothing was ever initiated, and the
    // user-level view was never marked by a failed prefetch — the misses
    // all resolve as honest demand fills.
    assert_eq!(rt.stats().pages_initiated.get(), 0);
    assert_eq!(rt.os().stats().prefetched_pages.get(), 0);
    assert_eq!(
        rt.os().stats().miss_pages.get(),
        size / crossprefetch::PAGE_SIZE,
        "every page must be demand-fetched exactly once"
    );
    let abandoned = rt
        .trace()
        .snapshot()
        .iter()
        .filter(|e| matches!(e.kind, TraceEventKind::PrefetchAbandoned { .. }))
        .count();
    assert!(abandoned > 0, "abandonment must be traced");
}

#[test]
fn unsupported_kernel_downgrades_to_blind_readahead() {
    let run = |supported: bool, mode: Mode| {
        let mut os_config = OsConfig::with_memory_mb(512);
        os_config.readahead_info_supported = supported;
        let os = Os::new(
            os_config,
            Device::new(DeviceConfig::local_nvme()),
            FileSystem::new(FsKind::Ext4Like),
        );
        let rt = Runtime::with_mode(os, mode);
        rt.trace().set_enabled(true);
        let mut clock = rt.new_clock();
        let size = 32 << 20;
        let file = rt.create_sized(&mut clock, "/blind", size).unwrap();
        let bytes = stream(&file, &mut clock, size, 16 * 1024);
        assert_eq!(bytes, size);
        rt
    };

    let rt = run(false, Mode::Predict);
    assert!(rt.degraded_to_blind(), "the latch must flip");
    assert!(
        rt.os().stats().ra_info_unsupported.get() >= 1,
        "the rejected probe must be counted"
    );
    assert_eq!(
        rt.os().stats().ra_info_calls.get(),
        0,
        "no readahead_info call may succeed on a stock kernel"
    );
    assert!(
        rt.os().stats().ra_calls.get() > 0,
        "degraded prefetch must fall back to readahead(2)"
    );
    let downgrades = rt
        .trace()
        .snapshot()
        .iter()
        .filter(|e| matches!(e.kind, TraceEventKind::VisibilityDowngraded { .. }))
        .count();
    assert_eq!(downgrades, 1, "the latch is one-way: one trace event");
    let report = RuntimeReport::collect(&rt);
    assert!(report.degraded_to_blind);
    assert!(report.to_json().contains("\"degraded_to_blind\":true"));

    // Degraded CrossP still prefetches about as well as the OS heuristic:
    // the run completes with a hit ratio in OSonly's neighbourhood.
    let baseline = run(true, Mode::OsOnly);
    let degraded_hits = rt.os().hit_ratio();
    let osonly_hits = baseline.os().hit_ratio();
    assert!(
        (degraded_hits - osonly_hits).abs() < 0.10,
        "degraded hit ratio {degraded_hits:.3} vs OSonly {osonly_hits:.3}"
    );
}

#[test]
fn all_zero_fault_plan_is_bit_identical() {
    let run = |plan: Option<FaultPlan>| {
        let device_config = DeviceConfig::local_nvme();
        let device = match plan {
            Some(plan) => Device::with_fault_plan(device_config, plan),
            None => Device::new(device_config),
        };
        let os = Os::new(
            OsConfig::with_memory_mb(128),
            device,
            FileSystem::new(FsKind::Ext4Like),
        );
        let rt = Runtime::with_mode(os, Mode::PredictOpt);
        let mut clock = rt.new_clock();
        let size = 16 << 20;
        let file = rt.create_sized(&mut clock, "/zero", size).unwrap();
        stream(&file, &mut clock, size, 16 * 1024);
        (clock.now(), RuntimeReport::collect(&rt).to_json())
    };
    let without = run(None);
    let with_zero_plan = run(Some(FaultPlan::seeded(42)));
    assert_eq!(
        without, with_zero_plan,
        "an all-zero plan must not perturb virtual time or telemetry"
    );
}
