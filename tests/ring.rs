//! Completion-driven ring: byte-identity without visibility, same-seed
//! determinism, demand-crossing reduction at hit parity in every
//! visibility mode, rides (one miss per burst and per cold record,
//! abandoned runs, the rider ordering), and closed-loop prefetch-quality
//! accounting with rides off and on.

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

/// A deterministic mixed workload: sequential ramp, warm re-read, seeded
/// random jumps.
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
    RuntimeReport::collect(&runtime).to_json()
}

/// The ring requires cache visibility (the absorb path reads the shared
/// bitmap, and a ride is planned from the view): turning rides on under a
/// blind mechanism changes nothing, end to end.
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
/// produces byte-identical telemetry, for every mechanism.
#[test]
fn ring_run_is_deterministic_for_every_mechanism() {
    for mode in MECHANISMS {
        let mut config = RuntimeConfig::new(mode);
        config.ring_submit = true;
        let first = run_workload(config.clone());
        let second = run_workload(config);
        assert_eq!(first, second, "{}: same-seed ring divergence", mode.label());
    }
}

/// The tentpole gate, in every visibility mode with rides off (the
/// default): a demand read the user-level view claims and the OS confirms
/// resident crosses zero times. It absorbs through the shared bitmap and
/// is booked as the plain cache hit the `read(2)` path would book; every
/// other read crosses once. On a 768-read sequential stream that cuts
/// demand crossings to under half the reads (49 in `+predict`, 45 in
/// `+predict+opt`, 48 in `+fetchall+opt`; 768 each when every read
/// crossed), and a warm re-read of the stream's head crosses nothing.
#[test]
fn ring_cuts_demand_crossings_at_hit_parity() {
    for mode in [Mode::Predict, Mode::PredictOpt, Mode::FetchAllOpt] {
        let runtime = Runtime::new(boot(64), RuntimeConfig::new(mode));
        let mut clock = runtime.new_clock();
        let file = runtime
            .create_sized(&mut clock, "/data/seq.bin", 48 << 20)
            .unwrap();
        for i in 0..768u64 {
            file.read_charge(&mut clock, i * 16_384, 16_384);
        }
        let absorbed = || runtime.os().stats().absorbed_reads.get();
        let stream = RuntimeReport::collect(&runtime);
        let (crossings, absorbed_reads) = (demand_crossings(&runtime), absorbed());
        assert_eq!(
            crossings + absorbed_reads,
            stream.reads,
            "{}: a read crosses once or absorbs",
            mode.label()
        );
        assert!(
            crossings * 2 <= stream.reads,
            "{}: {crossings} crossings over {} reads",
            mode.label(),
            stream.reads
        );
        // The stream's head, re-read: resident, ready and claimed.
        for i in 0..64u64 {
            file.read_charge(&mut clock, i * 16_384, 16_384);
        }
        let warm = RuntimeReport::collect(&runtime);
        assert_eq!(
            demand_crossings(&runtime),
            crossings,
            "{}: a claimed resident read crossed",
            mode.label()
        );
        assert_eq!(absorbed() - absorbed_reads, 64, "{}", mode.label());
        assert_eq!(
            warm.read_cache_hit.count - stream.read_cache_hit.count,
            64,
            "{}: an absorbed resident read books a cache hit",
            mode.label()
        );
    }
}

/// A rides-on runtime over 64 MB of cache with one 128 MiB file: bursts
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

/// A burst whose first read hits the cache has no miss at its jump for the
/// rest of the burst to ride. The descriptor's pacing frontier sits far
/// ahead of the burst, where an earlier burst left it. The jump's request
/// is held, and the first continuation's miss carries it: the burst crosses
/// once and its last two reads absorb. A request handed back to the
/// predictor instead was asked for on that continuation, behind the stale
/// frontier, and dropped: the burst crossed three times.
#[test]
fn a_burst_whose_first_read_hits_crosses_once_with_the_rest_riding() {
    let (runtime, mut clock, file) = burst_runtime();
    let slot = |n: u64| n * (128 << 10);
    // Descending slots: each burst lies behind the frontier of the last.
    for n in [900, 800, 700, 600] {
        for r in 0..4 {
            file.read_charge(&mut clock, slot(n) + r * 16_384, 16_384);
        }
    }
    let base = slot(100);
    let other = runtime.open(&mut clock, "/data/bursts.bin").unwrap();
    other.read_charge(&mut clock, base, 16_384);
    let before = RuntimeReport::collect(&runtime);
    let crossings_before = demand_crossings(&runtime);
    let cached = file.read_charge(&mut clock, base, 16_384);
    assert_eq!(cached.miss_pages, 0, "the burst's first read is cached");
    for r in 1..4 {
        file.read_charge(&mut clock, base + r * 16_384, 16_384);
    }
    let after = RuntimeReport::collect(&runtime);
    assert_eq!(
        demand_crossings(&runtime) - crossings_before,
        1,
        "one crossing: the first continuation's miss"
    );
    let misses = after.read_demand_miss.count - before.read_demand_miss.count;
    assert_eq!(misses, 1);
    let issued = after.ring_spec_issued - before.ring_spec_issued;
    let absorbed = after.ring_spec_absorbed - before.ring_spec_absorbed;
    assert_eq!((issued, absorbed), (1, 1), "the rest rode and was read");
    assert_eq!(
        after.ring_spec_pages_charged - before.ring_spec_pages_charged,
        8
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
        "quality books don't balance with rides on \
         (timely={} late={} wasted={} initiated={})",
        q.timely,
        q.late,
        q.wasted,
        report.pages_initiated
    );
}

/// Under a demand-class fault plan a rider can fail where the miss it
/// rode with did not: it fails alone (all-or-nothing, nothing published),
/// retries on a worker — off the reader's clock — and the ledger still
/// classifies every page exactly once.
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
/// entry is charged first and the rider on a clock of its own from the
/// submission instant, so the miss costs exactly what it costs alone,
/// while the remainder is in flight from the submission.
#[test]
fn a_demand_class_entry_never_delays_the_miss_it_rides_with() {
    use simos::{into_ok, NeverFault, RaBatchEntry, ReadBatchEntry, PAGE_SIZE};
    // One 4-page miss, crossing alone or with the 12 pages after it as a
    // rider.
    let cross = |ride: bool| {
        let os = boot(64);
        let mut clock = os.new_clock();
        let fd = os.create_sized(&mut clock, "/f", 8 << 20).unwrap();
        let start = clock.now();
        let file = os.fd_entry(fd);
        let demand = [ReadBatchEntry::new(&file, 1 << 20, 4 * PAGE_SIZE)];
        let rider = RaBatchEntry::new(&file, (1 << 20) + 4 * PAGE_SIZE, 12 * PAGE_SIZE);
        let riders = if ride { vec![rider] } else { Vec::new() };
        let (outcomes, completions) = os
            .read_batch::<NeverFault>(&mut clock, &demand, &riders)
            .unwrap();
        assert_eq!(into_ok(outcomes[0]).miss_pages, 4);
        (os, fd, clock, start, completions)
    };
    let (_, _, alone, alone_start, _) = cross(false);
    let (os, fd, mut clock, start, ridden) = cross(true);

    assert_eq!(clock.now() - start, alone.now() - alone_start);
    let submitted = start + os.config().costs.syscall_ns;
    let ready = ridden[0].ready_at_ns;
    assert_eq!(ridden[0].initiated_pages, 12);
    assert!(ready >= submitted + os.device().config().read_request_latency_ns());
    // The continuation absorbs: it waits the transfer out, never crosses.
    let crossings = os.stats().syscalls.get();
    let next = os
        .absorb_read(
            &mut clock,
            &os.fd_entry(fd),
            (1 << 20) + 4 * PAGE_SIZE,
            4 * PAGE_SIZE,
        )
        .expect("published as in-flight prefetch");
    assert_eq!(next.prefetch_hit_pages, 4);
    assert!(clock.now() >= ready);
    assert_eq!(os.stats().syscalls.get(), crossings);
}

/// The engines-suite closed-loop invariant, re-run on the zipfian kvprobe
/// with rides off and on: every initiated page is classified exactly once
/// even when reads absorb and runs ride a miss, absorb, and cancel along
/// the way. In both arms a read crosses once or absorbs, and every
/// cache-hit read absorbs: a read the view claims and the OS confirms
/// resident never crosses (seed 42: 36 864 reads, 2 200 crossings and
/// 34 664 absorbed with rides off, 1 286 and 35 578 with rides on; every
/// read crossed with no demand half). Rides convert demand misses into
/// prefetch hits: a record riding its miss is deduped by CROSS-OS, not by
/// the user-level view, so a view left stale by reclaim no longer vetoes
/// the ride and leaves the record's pages to miss one by one, as the
/// paced window of the rides-off path does. At seed 42 demand misses fall
/// 1 285 -> 947 and prefetch hits rise 3 237 -> 3 600 while cache hits
/// move 32 342 -> 32 317; hence the one-sided rows, at least 20 % fewer
/// misses and 8 % more prefetch hits (a view that vetoes rides read 1 295
/// misses and 3 195 prefetch hits).
#[test]
fn quality_counters_balance_under_ring_on_kvprobe() {
    let run = |ride: bool| {
        let mut config = RuntimeConfig::new(Mode::Predict);
        config.ring_submit = ride;
        let runtime = Runtime::new(boot(8), config);
        let cfg = KvProbeConfig::default();
        setup_kvprobe(&runtime, &cfg, "/kv");
        let mut clock = runtime.new_clock();
        run_kvprobe(&runtime, &mut clock, &cfg, "/kv");
        let os = runtime.os();
        let crossings = demand_crossings(&runtime);
        let absorbed = os.stats().absorbed_reads.get();
        os.drop_caches(&mut clock);
        let report = RuntimeReport::collect(&runtime);
        let q = report.prefetch_quality;
        assert!(report.pages_initiated > 0);
        assert_eq!(
            q.timely + q.late + q.wasted,
            report.pages_initiated,
            "rides={ride}: quality books don't balance \
             (timely={} late={} wasted={} initiated={})",
            q.timely,
            q.late,
            q.wasted,
            report.pages_initiated
        );
        assert_eq!(
            crossings + absorbed,
            report.reads,
            "rides={ride}: a read crosses once or absorbs"
        );
        let hits = report.read_cache_hit.count;
        assert!(
            absorbed >= hits,
            "rides={ride}: only {absorbed} absorbed reads for {hits} cache hits"
        );
        report
    };
    let off = run(false);
    let on = run(true);

    assert_eq!(on.reads, off.reads, "rides must not lose reads");
    let (off_hits, on_hits) = (off.read_cache_hit.count, on.read_cache_hit.count);
    assert!(
        off_hits.abs_diff(on_hits) * 100 <= off_hits,
        "cache-hit reads drifted 1% or more: {off_hits} -> {on_hits}"
    );
    let (off_misses, on_misses) = (off.read_demand_miss.count, on.read_demand_miss.count);
    assert!(
        on_misses * 100 <= off_misses * 80,
        "expected >=20% fewer demand misses with rides: {off_misses} -> {on_misses}"
    );
    let (off_pf, on_pf) = (off.read_prefetch_hit.count, on.read_prefetch_hit.count);
    assert!(
        on_pf * 100 >= off_pf * 108,
        "expected >=8% more prefetch hits with rides: {off_pf} -> {on_pf}"
    );
    assert!(on.hit_ratio >= off.hit_ratio - 0.01);
}

/// The index-then-record stream's share of the pre-issue: on the 9x-cache
/// kvprobe (4 096 keys x 9 pages against 16 MB), once two index pages have
/// each led a record, the miss at the jump to a cold record carries the
/// rest of the record across the ring. Every such run is absorbed by the
/// record's continuation, none is cancelled, so a cold record crosses
/// once; an index page and its record together cross less than once on
/// average (seed 42: 3 038 crossings over 4 096 probes, 1 536 records
/// riding their miss; 3 749 and 1 632 when the user-level view could veto
/// a ride; 5 395 when the jump to a record was silent and its first
/// continuation crossed as well). A ride is absorbed even when its miss
/// trips the view's stale resync: the account stage imports the ride after
/// the resync. The ledger balances and the run takes at most `OsOnly`'s
/// virtual time / 2.2 (seed 42: 289.8 ms against 803.5 ms; 318.5 ms with
/// the veto, 432.8 ms with the jump silent).
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
