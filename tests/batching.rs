//! Batched prefetch submission on the one vectored crossing left: known
//! runs riding a demand miss's ring crossing (`Os::read_batch`).
//! Same-seed determinism with riders crossing and faulting, the prefetch
//! submission crossings the riders save at parity, and a faulted rider's
//! entry into the retry ladder.

use cp_bench::boot;
use crossprefetch::{CpFile, Mode, Runtime, RuntimeConfig, RuntimeReport, TraceEventKind};
use simclock::ThreadClock;
use simos::{Device, DeviceConfig, FaultPlan, FileSystem, FsKind, Os, OsConfig};
use std::collections::{HashMap, HashSet};
use std::sync::Arc;

/// Bursts of four 16 KiB reads on distinct 128 KiB-aligned slots of the
/// 128 MiB burst file: once two bursts have completed, the miss that
/// starts a burst carries the rest of it across the ring as a rider. A
/// surfaced EIO is re-read, as an application's own retry loop would.
fn bursts(clock: &mut ThreadClock, file: &CpFile, count: u64) {
    for n in 0..count {
        let base = (n * 7919 % 1000) * (128 << 10);
        for r in 0..4 {
            while file
                .try_read_charge(clock, base + r * 16_384, 16_384)
                .is_err()
            {}
        }
    }
}

/// A runtime on `os` with rides on or off, and the 128 MiB burst file.
fn burst_runtime(os: Arc<Os>, mode: Mode, ride: bool) -> (Runtime, ThreadClock, CpFile) {
    let mut config = RuntimeConfig::new(mode);
    config.ring_submit = ride;
    let runtime = Runtime::new(os, config);
    let mut clock = runtime.new_clock();
    let file = runtime
        .create_sized(&mut clock, "/data/bursts.bin", 128 << 20)
        .unwrap();
    (runtime, clock, file)
}

/// An OS over 64 MB of cache whose device faults demand-class reads (a
/// rider's fill is one) at `demand_eio` and prefetch-class reads (a
/// `readahead_info` retry is one) at `prefetch_eio`.
fn faulty_os(demand_eio: f64, prefetch_eio: f64) -> Arc<Os> {
    let plan = FaultPlan::seeded(7)
        .with_demand_eio(demand_eio)
        .with_prefetch_eio(prefetch_eio);
    Os::new(
        OsConfig::with_memory_mb(64),
        Device::with_fault_plan(DeviceConfig::local_nvme(), plan),
        FileSystem::new(FsKind::Ext4Like),
    )
}

/// Batched runs are deterministic: the same configuration twice produces
/// byte-identical telemetry, both with riders crossing cleanly and with
/// riders faulting and retrying on a worker under a seeded fault plan.
#[test]
fn batched_run_is_deterministic() {
    for mode in [Mode::Predict, Mode::PredictOpt] {
        for demand_eio in [0.0, 0.3] {
            let run = || {
                let (runtime, mut clock, file) =
                    burst_runtime(faulty_os(demand_eio, 0.0), mode, true);
                bursts(&mut clock, &file, 200);
                let stats = runtime.stats();
                assert!(stats.ring_spec_issued.get() > 0, "no rider crossed");
                assert_eq!(stats.prefetch_retries.get() > 0, demand_eio > 0.0);
                RuntimeReport::collect(&runtime).to_json()
            };
            assert_eq!(
                run(),
                run(),
                "{} (demand EIO {demand_eio}): same-seed divergence",
                mode.label()
            );
        }
    }
}

/// Riding the miss, a known run's prefetch submission pays no crossing of
/// its own: on the burst stream rides pay under half the `readahead_info`
/// submissions of the rides-off path (204 -> 6; 406 -> 208 crossings
/// overall), while initiating exactly the same pages at exactly the same
/// cache-hit ratio. In both arms only a burst's miss crosses: every other
/// read is claimed by the view and resident, and absorbs (201 demand
/// crossings for 201 misses and 800 reads; a demand half that never
/// absorbed would cross 800 times).
#[test]
fn batching_halves_crossings_at_parity() {
    let run = |ride: bool| {
        let (runtime, mut clock, file) = burst_runtime(boot(64), Mode::Predict, ride);
        bursts(&mut clock, &file, 200);
        let os = runtime.os().stats();
        let report = RuntimeReport::collect(&runtime);
        assert_eq!(
            os.reads.get() + os.read_batch_calls.get(),
            report.read_demand_miss.count,
            "rides={ride}: a read that did not miss crossed"
        );
        (
            os.ra_info_calls.get(),
            report.pages_initiated,
            report.hit_ratio,
        )
    };
    let (direct_submits, direct_pages, direct_hits) = run(false);
    let (ride_submits, ride_pages, ride_hits) = run(true);
    assert!(
        ride_submits * 2 <= direct_submits,
        "expected >=2x fewer prefetch submissions: {ride_submits} vs {direct_submits}"
    );
    assert_eq!(ride_pages, direct_pages, "riding lost or added pages");
    assert_eq!(ride_hits, direct_hits, "hit ratio moved");
}

/// Device faults on riders fail individual completions, not the crossing:
/// the reads go on, and each faulted rider enters the per-run retry
/// ladder with the crossing counted as its first attempt. With
/// `readahead_info` healthy, a faulted rider's first retry succeeds and
/// is traced as attempt 1 (a ladder entered afresh would trace nothing).
/// With `readahead_info` always failing, a faulted rider stops at
/// `PREFETCH_RETRY_ATTEMPTS` = 4 device tries (the crossing + 3 retries),
/// each numbered once, before it is abandoned.
#[test]
fn partial_batch_failure_feeds_the_retry_ladder() {
    for prefetch_eio in [0.0, 1.0] {
        let os = faulty_os(0.3, prefetch_eio);
        let (runtime, mut clock, file) = burst_runtime(os, Mode::Predict, true);
        runtime.trace().set_enabled(true);
        bursts(&mut clock, &file, 200);

        let mut riders = HashSet::new();
        let mut read_errors = 0;
        let mut failed_attempts: HashMap<_, Vec<u32>> = HashMap::new();
        let mut abandoned = Vec::new();
        for event in runtime.trace().snapshot() {
            match event.kind {
                TraceEventKind::RingSpecIssued {
                    ino,
                    start_page,
                    pages,
                } => {
                    riders.insert((ino, start_page, pages));
                }
                TraceEventKind::ReadError { .. } => read_errors += 1,
                TraceEventKind::PrefetchRetry {
                    ino,
                    start_page,
                    pages,
                    attempt,
                } => failed_attempts
                    .entry((ino, start_page, pages))
                    .or_default()
                    .push(attempt),
                TraceEventKind::PrefetchAbandoned {
                    ino,
                    start_page,
                    pages,
                } => abandoned.push((ino, start_page, pages)),
                _ => {}
            }
        }
        let stats = runtime.stats();
        // Every read completed: each attempt is a completion or a
        // surfaced error the loop re-read.
        assert_eq!(stats.reads.get(), 800 + read_errors);
        assert_eq!(stats.prefetch_give_ups.get(), abandoned.len() as u64);

        if prefetch_eio == 0.0 {
            assert!(
                stats.prefetch_retries.get() > 0,
                "a faulted rider must enter the ladder one attempt in"
            );
            assert!(abandoned.is_empty(), "a healthy retry gives nothing up");
            for (range, attempts) in &failed_attempts {
                assert!(riders.contains(range), "{range:?} never rode a crossing");
                assert_eq!(attempts, &vec![1], "{range:?}: the crossing was try 1");
            }
        } else {
            let ridden: Vec<_> = abandoned.iter().filter(|r| riders.contains(r)).collect();
            assert!(!ridden.is_empty(), "no faulted rider exhausted its ladder");
            for range in ridden {
                assert_eq!(
                    failed_attempts.get(range),
                    Some(&vec![1, 2, 3]),
                    "{range:?}: 4 tries, numbered once each"
                );
            }
            assert_eq!(stats.prefetch_retries.get(), 3 * abandoned.len() as u64);
        }
    }
}
