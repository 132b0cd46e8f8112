//! Completion-driven ring: off-path byte-identity, same-seed
//! determinism, visibility gating, demand-crossing reduction at hit
//! parity, run pre-issue (one miss per burst and per cold record, abandoned
//! runs, the demand-class ordering), and closed-loop prefetch-quality
//! accounting with the ring enabled.

use cp_bench::boot;
use crossprefetch::{CpFile, Mode, Runtime, RuntimeConfig, RuntimeReport};
use simclock::ThreadClock;
use workloads::{run_kvprobe, setup_kvprobe, KvProbeConfig};

const MECHANISMS: [Mode; 6] = [
    Mode::AppOnly,
    Mode::OsOnly,
    Mode::Predict,
    Mode::PredictOpt,
    Mode::FetchAllOpt,
    Mode::FincoreApp,
];

/// The same deterministic mixed workload the batching tests drive:
/// sequential ramp, warm re-read, seeded random jumps.
fn run_workload(config: RuntimeConfig) -> String {
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

/// The ring requires cache visibility (the absorb path reads the shared
/// bitmap): turning the knob on under a blind mechanism changes nothing,
/// end to end.
#[test]
fn ring_is_gated_on_visibility_end_to_end() {
    for mode in [Mode::AppOnly, Mode::OsOnly, Mode::FincoreApp] {
        let baseline = run_workload(RuntimeConfig::new(mode));
        let mut ringed = RuntimeConfig::new(mode);
        ringed.ring_submit = true;
        assert_eq!(
            baseline,
            run_workload(ringed),
            "{}: ring_submit must be inert without visibility",
            mode.label()
        );
    }
}

/// Ring-enabled runs are deterministic: the same configuration twice
/// produces byte-identical telemetry, for every mechanism, with and
/// without batching stacked on top.
#[test]
fn ring_run_is_deterministic_for_every_mechanism() {
    for mode in MECHANISMS {
        for batch in [false, true] {
            let mut config = RuntimeConfig::new(mode);
            config.ring_submit = true;
            config.batch_submit = batch;
            let first = run_workload(config.clone());
            let second = run_workload(config);
            assert_eq!(
                first,
                second,
                "{} (batch={batch}): same-seed ring divergence",
                mode.label()
            );
        }
    }
}

/// The tentpole gate: with the ring enabled, demand reads stop crossing
/// one syscall each — fully-claimed reads absorb through the shared
/// bitmap and misses share vectored `read_batch` crossings — while the
/// cache-hit accounting stays identical.
#[test]
fn ring_cuts_demand_crossings_at_hit_parity() {
    let run = |ring: bool| {
        let mut config = RuntimeConfig::new(Mode::Predict);
        config.ring_submit = ring;
        let runtime = Runtime::new(boot(64), config);
        let mut clock = runtime.new_clock();
        let file = runtime
            .create_sized(&mut clock, "/data/seq.bin", 48 << 20)
            .unwrap();
        for i in 0..768u64 {
            file.read_charge(&mut clock, i * 16_384, 16_384);
        }
        runtime.flush_prefetch_batches(&mut clock);
        let os = runtime.os();
        let crossings = os.stats().reads.get() + os.stats().read_batch_calls.get();
        let report = RuntimeReport::collect(&runtime);
        (
            crossings,
            report.hit_ratio,
            report.reads,
            report.pages_initiated,
            report.prefetch_quality.timely + report.prefetch_quality.late,
        )
    };
    let (off_crossings, off_hits, off_reads, off_init, off_consumed) = run(false);
    let (on_crossings, on_hits, on_reads, on_init, on_consumed) = run(true);
    assert_eq!(off_reads, on_reads, "ring must not lose reads");
    assert!(
        on_crossings * 2 <= off_crossings,
        "expected >=2x fewer demand-read crossings: {on_crossings} vs {off_crossings}"
    );
    // Identical hit accounting: same hit ratio, same initiated pages,
    // same consumed (timely+late) prefetched pages.
    assert_eq!(off_hits, on_hits, "hit ratio must not change");
    assert_eq!(off_init, on_init, "initiated pages must not change");
    assert_eq!(off_consumed, on_consumed, "consumed pages must not change");
}

/// A ring-on runtime over 64 MB of cache with one 128 MiB file: bursts
/// land on distinct 128 KiB-aligned slots, so no burst finds another's
/// pages.
fn burst_runtime() -> (Runtime, ThreadClock, CpFile) {
    let mut config = RuntimeConfig::new(Mode::Predict);
    config.ring_submit = true;
    let runtime = Runtime::new(boot(64), config);
    let mut clock = runtime.new_clock();
    let file = runtime
        .create_sized(&mut clock, "/data/bursts.bin", 128 << 20)
        .unwrap();
    (runtime, clock, file)
}

/// Reads the first `reads` 16 KiB reads of burst `n`.
fn burst(file: &CpFile, clock: &mut ThreadClock, n: u64, reads: u64) {
    let base = (n * 7919 % 1000) * (128 << 10);
    for r in 0..reads {
        file.read_charge(clock, base + r * 16_384, 16_384);
    }
}

/// Crossings a demand read can make: `read(2)` and the vectored ring call.
fn demand_crossings(runtime: &Runtime) -> u64 {
    let os = runtime.os().stats();
    os.reads.get() + os.read_batch_calls.get()
}

/// The run-level successor of the one-read-behind speculation: once two
/// bursts have completed, the miss that starts a burst carries the rest of
/// it across the ring, so a burst of four reads pays one demand miss (two
/// at the parent: the jump was silent and the first continuation missed)
/// and its three continuations absorb with no crossing of their own.
#[test]
fn a_burst_pays_one_miss_and_its_continuations_never_cross() {
    let (runtime, mut clock, file) = burst_runtime();
    const WARM_UP: u64 = 3;
    const BURSTS: u64 = 200;
    for n in 0..WARM_UP {
        burst(&file, &mut clock, n, 4);
    }
    let before = RuntimeReport::collect(&runtime);
    let crossings_before = demand_crossings(&runtime);
    for n in WARM_UP..WARM_UP + BURSTS {
        burst(&file, &mut clock, n, 4);
    }
    let after = RuntimeReport::collect(&runtime);
    let misses = after.read_demand_miss.count - before.read_demand_miss.count;
    assert!(
        misses * 10 <= BURSTS * 11,
        "{misses} demand-miss reads over {BURSTS} bursts"
    );
    assert_eq!(
        demand_crossings(&runtime) - crossings_before,
        BURSTS,
        "one crossing per burst: the miss that starts it"
    );
    let issued = after.ring_spec_issued - before.ring_spec_issued;
    let absorbed = after.ring_spec_absorbed - before.ring_spec_absorbed;
    assert_eq!((issued, absorbed), (BURSTS, BURSTS));
    assert_eq!(after.ring_spec_cancelled, 0);
    assert_eq!(
        after.ring_spec_pages_charged - before.ring_spec_pages_charged,
        BURSTS * 12,
        "every pre-issued page is billed as initiated prefetch"
    );
}

/// A reader that leaves a run after its first read never comes back for
/// what the ring pre-issued: the run counts as cancelled, its pages
/// surface as `wasted` once the cache drops them, and the closed-loop
/// invariant (timely + late + wasted == pages_initiated) holds.
#[test]
fn an_abandoned_run_leaves_its_preissued_pages_as_wasted() {
    let (runtime, mut clock, file) = burst_runtime();
    for n in 0..4 {
        burst(&file, &mut clock, n, 4);
    }
    burst(&file, &mut clock, 4, 1); // abandoned after the miss
    burst(&file, &mut clock, 5, 4); // the jump away settles it
    let stats = runtime.stats();
    assert_eq!(stats.ring_spec_cancelled.get(), 1);
    assert!(stats.ring_spec_absorbed.get() < stats.ring_spec_issued.get());
    runtime.os().drop_caches(&mut clock);
    let report = RuntimeReport::collect(&runtime);
    let q = report.prefetch_quality;
    assert!(q.wasted >= 12, "the abandoned remainder: {q:?}");
    assert_eq!(
        q.timely + q.late + q.wasted,
        report.pages_initiated,
        "quality books don't balance with the ring on \
         (timely={} late={} wasted={} initiated={})",
        q.timely,
        q.late,
        q.wasted,
        report.pages_initiated
    );
}

/// Under a demand-class fault plan a rider can fail where the miss it
/// rode with did not: it fails alone (all-or-nothing, nothing published),
/// retries on a worker like any staged run — off the reader's clock — and
/// the ledger still classifies every page exactly once.
#[test]
fn a_faulted_rider_retries_off_the_readers_clock_and_the_books_balance() {
    use simos::{Device, DeviceConfig, FaultPlan, FileSystem, FsKind, Os, OsConfig};
    let plan = FaultPlan::seeded(11).with_demand_eio(0.3);
    let os = Os::new(
        OsConfig::with_memory_mb(64),
        Device::with_fault_plan(DeviceConfig::local_nvme(), plan),
        FileSystem::new(FsKind::Ext4Like),
    );
    let mut config = RuntimeConfig::new(Mode::Predict);
    config.ring_submit = true;
    let runtime = Runtime::new(os, config);
    let mut clock = runtime.new_clock();
    let file = runtime
        .create_sized(&mut clock, "/data/bursts.bin", 128 << 20)
        .unwrap();
    for n in 0..200u64 {
        let base = (n * 7919 % 1000) * (128 << 10);
        for r in 0..4 {
            // The application's own retry loop: a surfaced EIO is retried.
            while file
                .try_read_charge(&mut clock, base + r * 16_384, 16_384)
                .is_err()
            {}
        }
    }
    let stats = runtime.stats();
    assert!(stats.ring_spec_issued.get() > 0);
    assert!(
        stats.prefetch_retries.get() > 0,
        "some rider must have faulted"
    );
    runtime.os().drop_caches(&mut clock);
    let report = RuntimeReport::collect(&runtime);
    let q = report.prefetch_quality;
    assert_eq!(q.timely + q.late + q.wasted, report.pages_initiated);
}

/// The ordering the pre-issue is about, at the OS surface: the demand
/// entry is charged first and the demand-class entry on a clock of its
/// own from the submission instant, so the miss costs exactly what it
/// costs alone, while the remainder is in flight from the submission and
/// not from the miss's completion (where a prefetch-class entry starts).
#[test]
fn a_demand_class_entry_never_delays_the_miss_it_rides_with() {
    use simos::{RaBatchEntry, ReadBatchEntry, PAGE_SIZE};
    // One 4-page miss, crossing alone or with the 12 pages after it as a
    // prefetch-class (`Some(false)`) or demand-class (`Some(true)`) entry.
    let cross = |rider: Option<bool>| {
        let os = boot(64);
        let mut clock = os.new_clock();
        let fd = os.create_sized(&mut clock, "/f", 8 << 20).unwrap();
        let start = clock.now();
        let demand = [ReadBatchEntry::new(fd, 1 << 20, 4 * PAGE_SIZE)];
        let rider = rider.map(|demand_class| {
            let rest = RaBatchEntry::new(fd, (1 << 20) + 4 * PAGE_SIZE, 12 * PAGE_SIZE);
            if demand_class {
                rest.with_demand_class()
            } else {
                rest
            }
        });
        let (outcomes, completions) = os
            .read_batch(&mut clock, &demand, rider.as_slice())
            .unwrap();
        assert_eq!(outcomes[0].miss_pages, 4);
        (os, fd, clock, start, completions)
    };
    let (_, _, alone, alone_start, _) = cross(None);
    let (_, _, staged, staged_start, background) = cross(Some(false));
    let (os, fd, mut clock, start, ridden) = cross(Some(true));

    assert_eq!(clock.now() - start, alone.now() - alone_start);
    let submitted = start + os.config().costs.syscall_ns;
    let ready = ridden[0].ready_at_ns;
    assert_eq!(ridden[0].initiated_pages, 12);
    assert!(ready >= submitted + os.device().config().read_request_latency_ns());
    assert!(
        ready - start < background[0].ready_at_ns - staged_start,
        "in flight before the miss completes, unlike the prefetch class"
    );
    assert!(staged.now() - staged_start >= clock.now() - start);
    // The continuation absorbs: it waits the transfer out, never crosses.
    let crossings = os.stats().syscalls.get();
    let next = os
        .absorb_read(&mut clock, fd, (1 << 20) + 4 * PAGE_SIZE, 4 * PAGE_SIZE)
        .expect("published as in-flight prefetch");
    assert_eq!(next.prefetch_hit_pages, 4);
    assert!(clock.now() >= ready);
    assert_eq!(os.stats().syscalls.get(), crossings);
}

/// The engines-suite closed-loop invariant, re-run with the ring (and
/// batching) enabled on the zipfian kvprobe: every initiated page is
/// classified exactly once even when runs ride a miss, absorb, and cancel
/// along the way. Against the ring-off run of the same stream the ring at
/// least halves demand-read crossings (`read` + `read_batch` calls; seed
/// 42: 36 864 -> 2 216) while classifying the same reads with under 1 %
/// drift for cache hits and demand misses and under 2 % for prefetch hits
/// — the small class since the predictor plans a record in one request
/// (3 223 reads). The two runs part where the jump to a record finds its
/// first page cached: ring off, the record's remainder is prefetched at
/// the jump anyway; ring on, the jump has no miss to ride and hands the
/// run back to be asked for on the first continuation. At seed 42 that
/// moves a handful of reads each way (demand-miss 1 291 -> 1 295,
/// cache-hit 32 350 -> 32 374, prefetch-hit 3 223 -> 3 195), and 779
/// records ride their miss, every one absorbed. The demand misses the
/// ring may add are therefore bounded by the demand-miss row's 1 %, not
/// by `on <= off`.
#[test]
fn quality_counters_balance_under_ring_on_kvprobe() {
    let run = |ring: bool, batch: bool| {
        let mut config = RuntimeConfig::new(Mode::Predict);
        config.ring_submit = ring;
        config.batch_submit = batch;
        let runtime = Runtime::new(boot(8), config);
        let cfg = KvProbeConfig::default();
        setup_kvprobe(&runtime, &cfg, "/kv");
        let mut clock = runtime.new_clock();
        run_kvprobe(&runtime, &mut clock, &cfg, "/kv");
        runtime.flush_prefetch_batches(&mut clock);
        let os = runtime.os();
        let crossings = os.stats().reads.get() + os.stats().read_batch_calls.get();
        os.drop_caches(&mut clock);
        let report = RuntimeReport::collect(&runtime);
        let q = report.prefetch_quality;
        assert!(report.pages_initiated > 0);
        assert_eq!(
            q.timely + q.late + q.wasted,
            report.pages_initiated,
            "ring={ring} batch={batch}: quality books don't balance \
             (timely={} late={} wasted={} initiated={})",
            q.timely,
            q.late,
            q.wasted,
            report.pages_initiated
        );
        (crossings, report)
    };
    let (off_crossings, off) = run(false, false);
    let (on_crossings, on) = run(true, false);
    run(true, true);

    assert!(
        on_crossings * 2 <= off_crossings,
        "expected >=2x fewer demand-read crossings: {on_crossings} vs {off_crossings}"
    );
    assert_eq!(on.reads, off.reads, "ring must not lose reads");
    for (class, percent, off, on) in [
        ("cache-hit", 1, &off.read_cache_hit, &on.read_cache_hit),
        (
            "prefetch-hit",
            2,
            &off.read_prefetch_hit,
            &on.read_prefetch_hit,
        ),
        (
            "demand-miss",
            1,
            &off.read_demand_miss,
            &on.read_demand_miss,
        ),
    ] {
        assert!(
            off.count.abs_diff(on.count) * 100 <= off.count * percent,
            "{class} reads drifted {percent}% or more: {} -> {}",
            off.count,
            on.count
        );
    }
    assert!(on.hit_ratio >= off.hit_ratio - 0.01);
}

/// The index-then-record stream's share of the pre-issue: on the 9x-cache
/// kvprobe (4 096 keys x 9 pages against 16 MB), once two index pages have
/// each led a record, the miss at the jump to a cold record carries the
/// rest of the record across the ring. Every such run is absorbed by the
/// record's continuation, none is cancelled, so a cold record crosses
/// once; an index page and its record together cross less than once on
/// average (seed 42: 3 749 crossings over 4 096 probes, 1 632 records
/// riding their miss; 5 395 when the jump to a record was silent and its
/// first continuation crossed as well). The ledger balances and the run
/// takes at most `OsOnly`'s virtual time / 2.2 (seed 42: 318.5 ms against
/// 803.5 ms; 432.8 ms with the jump silent).
#[test]
fn a_record_after_an_index_page_rides_its_first_miss() {
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
        let crossings = demand_crossings(&runtime);
        runtime.os().drop_caches(&mut clock);
        (elapsed_ns, crossings, RuntimeReport::collect(&runtime))
    };
    let (os_only_ns, _, _) = run(RuntimeConfig::new(Mode::OsOnly));
    let mut config = RuntimeConfig::new(Mode::Predict);
    config.ring_submit = true;
    let (strided_ns, crossings, report) = run(config);

    let issued = report.ring_spec_issued;
    assert!(issued * 4 >= cfg.probes, "{issued} records rode their miss");
    assert_eq!(
        report.ring_spec_absorbed, issued,
        "every ridden record absorbs"
    );
    assert_eq!(report.ring_spec_cancelled, 0);
    assert!(
        crossings < cfg.probes,
        "{crossings} crossings over {} probes",
        cfg.probes
    );
    let q = report.prefetch_quality;
    assert_eq!(q.timely + q.late + q.wasted, report.pages_initiated);
    assert!(
        strided_ns * 22 <= os_only_ns * 10,
        "strided took {strided_ns} ns, OSonly {os_only_ns} ns"
    );
}
