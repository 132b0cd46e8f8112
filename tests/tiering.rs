//! Tiered-store suite: knob inertness of `RuntimeConfig::tiering`,
//! cross-tier promotion of ranges that miss again within the local tier's
//! reach (and of nothing a lone scan misses once), remote-fault
//! degradation through the retry ladder, the dirty-page ledger invariant,
//! write-back coalescing, mixed read/write same-seed determinism, and
//! readers racing tier moves.

use cp_bench::{boot, boot_tiered};
use crossprefetch::{
    Mode, Runtime, RuntimeConfig, RuntimeReport, Tier, TieredStore, TieringConfig, WritebackConfig,
    PAGE_SIZE,
};
use rand::rngs::StdRng;
use rand::SeedableRng;
use simstore::FaultPlan;
use workloads::zipf::Zipfian;

use simos::{Device, DeviceConfig, FileSystem, FsKind, Os, OsConfig};

const MECHANISMS: [Mode; 6] = [
    Mode::AppOnly,
    Mode::OsOnly,
    Mode::Predict,
    Mode::PredictOpt,
    Mode::FetchAllOpt,
    Mode::FincoreApp,
];

/// Streams `total` bytes in `chunk`-byte sequential reads.
fn stream(file: &crossprefetch::CpFile, clock: &mut simclock::ThreadClock, total: u64, chunk: u64) {
    let mut offset = 0;
    while offset < total {
        file.read_charge(clock, offset, chunk.min(total - offset));
        offset += chunk;
    }
}

/// The `tiering` JSON section of a report: exported alone (every other
/// section left out), so it runs from its key to the closing braces.
fn tiering_section(report: &RuntimeReport) -> String {
    let others: Vec<&str> = RuntimeReport::FIELDS
        .iter()
        .filter_map(|spec| spec.path.first().copied())
        .filter(|&section| section != "tiering")
        .collect();
    let json = report.to_json_without(&others);
    let start = json.find("\"tiering\":").expect("tiering section present");
    json[start..].to_string()
}

/// With `tiering: None` on an un-tiered OS (the default everywhere), the
/// additive `tiering` telemetry section is byte-identical across all six
/// Table-2 mechanisms: disabled, no promotions, nothing dirtied.
/// The knob's absence must not perturb any mechanism.
#[test]
fn tiering_section_is_inert_and_identical_across_mechanisms() {
    let mut sections: Vec<String> = Vec::new();
    for mode in MECHANISMS {
        let runtime = Runtime::with_mode(boot(64), mode);
        let mut clock = runtime.new_clock();
        let file = runtime.create_sized(&mut clock, "/t", 4 << 20).unwrap();
        stream(&file, &mut clock, 4 << 20, 64 * 1024);
        sections.push(tiering_section(&RuntimeReport::collect(&runtime)));
    }
    for section in &sections {
        assert!(section.contains("\"enabled\":false"), "planner must be off");
        assert!(
            section.contains("\"issued\":0") && section.contains("\"dirtied_pages\":0"),
            "a read-only default-config run must leave the section zeroed: {section}"
        );
        assert_eq!(
            section, &sections[0],
            "tiering section must be byte-identical across mechanisms"
        );
    }
}

/// A tiering config on an un-tiered OS builds no planner: there is
/// nowhere to promote to, so the knob stays inert and telemetry reports
/// it disabled.
#[test]
fn tiering_config_without_tiered_store_is_inert() {
    let mut config = RuntimeConfig::new(Mode::Predict);
    config.tiering = Some(TieringConfig::new());
    let runtime = Runtime::new(boot(64), config);
    let mut clock = runtime.new_clock();
    let file = runtime.create_sized(&mut clock, "/t", 4 << 20).unwrap();
    stream(&file, &mut clock, 4 << 20, 64 * 1024);
    let report = RuntimeReport::collect(&runtime);
    assert!(!report.tiering_enabled);
    assert_eq!(report.promotions_issued, 0);
}

/// Reads 256 32 KiB records at hashed offsets of a 16 MiB file: scattered,
/// so no forward stream forms, and the same records on every call.
fn scatter(file: &crossprefetch::CpFile, clock: &mut simclock::ThreadClock) {
    for i in 0..256u64 {
        let page = i.wrapping_mul(0x9E37_79B9) % 4088;
        file.read_charge(clock, page * PAGE_SIZE, 8 * PAGE_SIZE);
    }
}

/// One forward scan of a tiered file misses each range once, so the
/// planner promotes none of it: placement moves only on a re-miss, never
/// on a prediction.
#[test]
fn a_forward_scan_without_a_remiss_promotes_nothing() {
    let mut config = RuntimeConfig::new(Mode::Predict);
    config.tiering = Some(TieringConfig::new());
    let runtime = Runtime::new(boot_tiered(64, 8192), config);
    let mut clock = runtime.new_clock();
    let file = runtime.create_sized(&mut clock, "/scan", 16 << 20).unwrap();
    stream(&file, &mut clock, 16 << 20, 64 * 1024);
    let report = RuntimeReport::collect(&runtime);
    assert!(report.tiering_enabled);
    assert_eq!(
        report.promotions_issued, 0,
        "a scan with no re-miss promoted"
    );
    let tiered = runtime.os().tiered().expect("tiered store");
    assert_eq!(tiered.stats().promoted_blocks.get(), 0);
    assert_eq!(tiered.local_resident_blocks(), 0);
}

/// The heart of the subsystem: scattered records of a remote-resident file
/// are read, the cache is dropped, and they are read again. Each re-read
/// misses its range again within the local tier's reach, so the planner
/// promotes it to the local tier in the background, and promotion pages
/// are billed as prefetch so the quality ledger keeps balancing. Placement
/// then pays where it is meant to: a cold third pass over the records
/// serves its misses from the local tier and strictly beats the
/// `tiering: None` control — every block remote forever — on p99
/// demand-read latency (130.4 us vs 232.4 us) at equal read totals.
#[test]
fn remiss_promotions_move_reread_ranges_local_and_books_balance() {
    let run = |promote: bool| {
        let mut config = RuntimeConfig::new(Mode::Predict);
        if promote {
            config.tiering = Some(TieringConfig::new());
        }
        let runtime = Runtime::new(boot_tiered(64, 8192), config);
        let mut clock = runtime.new_clock();
        let file = runtime.create_sized(&mut clock, "/hot", 16 << 20).unwrap();
        scatter(&file, &mut clock);
        runtime.os().drop_caches(&mut clock);
        scatter(&file, &mut clock);

        // Ledger identity with promotions billed as prefetch.
        runtime.os().drop_caches(&mut clock);
        let warm = RuntimeReport::collect(&runtime);
        let q = warm.prefetch_quality;
        assert_eq!(
            q.timely + q.late + q.wasted,
            warm.pages_initiated,
            "promote={promote}: quality books don't balance \
             (timely={} late={} wasted={} initiated={})",
            q.timely,
            q.late,
            q.wasted,
            warm.pages_initiated
        );

        // Measured phase: the same 32 KiB records, cold — big enough that
        // a local and a remote miss land in different log2 latency
        // buckets.
        scatter(&file, &mut clock);
        let measured = RuntimeReport::collect(&runtime).delta(&warm);
        (runtime, file, warm, measured)
    };
    let (runtime, file, report, promoted) = run(true);
    let (_, _, _, control) = run(false);

    let stats = runtime.stats();
    assert!(stats.promotions_issued.get() > 0, "planner never fired");
    assert!(
        stats.promotions_completed.get() > 0,
        "no promotion finished"
    );
    let tiered = runtime.os().tiered().expect("tiered store").clone();
    assert!(
        tiered.stats().promoted_blocks.get() > 0,
        "placement never moved a block local"
    );
    assert!(tiered.local_resident_blocks() > 0);
    let promoted_somewhere = (0..4096).any(|lb| tiered.tier_of(file.ino().0, lb) == Tier::Local);
    assert!(promoted_somewhere, "no block of the file ended up local");
    assert!(report.tiering_enabled);
    assert_eq!(
        RuntimeReport::collect(&runtime).promotions_issued,
        stats.promotions_issued.get()
    );
    // Both tiers saw traffic: the remote tier fed promotions and cold
    // misses, the local tier absorbed the copies.
    assert!(report.tier_remote_read_bytes > 0);
    assert!(
        report.tier_local_write_bytes > 0,
        "promotion copies write locally"
    );

    let classified = |d: &RuntimeReport| {
        d.read_cache_hit.count + d.read_prefetch_hit.count + d.read_demand_miss.count
    };
    assert_eq!(classified(&promoted), classified(&control));
    assert!(promoted.tier_local_reads > 0, "no measured read was local");
    assert_eq!(
        control.tier_local_reads, 0,
        "control touched the local tier"
    );
    assert!(
        promoted.read_demand_miss.p99() < control.read_demand_miss.p99(),
        "promotion must beat no-promotion on miss p99: {} ns vs {} ns",
        promoted.read_demand_miss.p99(),
        control.read_demand_miss.p99()
    );
}

/// Remote-tier transient EIO during promotion: records are read, the
/// cache is dropped and they are read again, so each re-miss dispatches a
/// promotion; every attempt faults, the job retries through the doubling
/// backoff ladder, gives up, and leaves the placement map untouched —
/// demand reads (blocking class, unfaulted) keep coming off the remote
/// tier and the books still balance.
#[test]
fn remote_faults_exhaust_retry_ladder_without_corrupting_placement() {
    let os = Os::new_tiered(
        OsConfig::with_memory_mb(64),
        TieredStore::new(
            Device::new(DeviceConfig::local_nvme()),
            Device::with_fault_plan(
                DeviceConfig::remote_nvmeof(),
                FaultPlan::seeded(9).with_prefetch_eio(1.0),
            ),
            8192,
        ),
        FileSystem::new(FsKind::Ext4Like),
    );
    let mut config = RuntimeConfig::new(Mode::Predict);
    config.tiering = Some(TieringConfig::new());
    let runtime = Runtime::new(os, config);
    let mut clock = runtime.new_clock();
    let file = runtime.create_sized(&mut clock, "/flaky", 8 << 20).unwrap();
    const RECORD: u64 = RECORD_PAGES * PAGE_SIZE;
    let records = |clock: &mut simclock::ThreadClock| {
        for record in (0..256u64).step_by(16) {
            file.read_charge(clock, record * RECORD, RECORD);
        }
    };
    records(&mut clock);
    runtime.os().drop_caches(&mut clock);
    records(&mut clock);

    let stats = runtime.stats();
    assert!(stats.promotions_issued.get() > 0, "planner never fired");
    assert!(
        stats.promotion_give_ups.get() > 0,
        "certain faults must exhaust the retry budget"
    );
    assert!(
        stats.promotion_retries.get() >= stats.promotion_give_ups.get(),
        "each give-up retried through the backoff ladder first"
    );
    assert_eq!(stats.promotions_completed.get(), 0);

    // Placement map unchanged: nothing moved local, every block of the
    // file still resolves to the remote tier.
    let tiered = runtime.os().tiered().expect("tiered store").clone();
    assert_eq!(tiered.stats().promoted_blocks.get(), 0);
    assert_eq!(tiered.local_resident_blocks(), 0);
    let pages = (8u64 << 20) / PAGE_SIZE;
    assert!((0..pages).all(|lb| tiered.tier_of(file.ino().0, lb) == Tier::Remote));

    // The workload itself was never hurt: demand reads are blocking
    // class, which the fault plan leaves alone.
    assert_eq!(runtime.stats().read_errors.get(), 0);

    // Failed promotions published nothing, so they owe the ledger
    // nothing and the identity still holds.
    runtime.os().drop_caches(&mut clock);
    let report = RuntimeReport::collect(&runtime);
    let q = report.prefetch_quality;
    assert_eq!(q.timely + q.late + q.wasted, report.pages_initiated);
}

/// The dirty-page ledger invariant — `dirtied` equals `written_back +
/// dropped + still_dirty` — holds through a mid-stream `drop_caches` (which
/// flushes dirty pages rather than discarding them) and through `unlink`
/// (which honestly drops them).
#[test]
fn dirty_ledger_balances_through_drop_caches_and_unlink() {
    let mut os_config = OsConfig::with_memory_mb(64);
    os_config.writeback = Some(WritebackConfig {
        file_dirty_threshold_pages: 64,
        // High background/deadline bars so `b`'s small dirty set survives
        // until the unlink below exercises the honest-drop path.
        background_dirty_pages: 100_000,
        ..WritebackConfig::default()
    });
    let os = Os::new(
        os_config,
        Device::new(DeviceConfig::local_nvme()),
        FileSystem::new(FsKind::Ext4Like),
    );
    let runtime = Runtime::with_mode(os, Mode::Predict);
    let mut clock = runtime.new_clock();
    let a = runtime.create_sized(&mut clock, "/a", 8 << 20).unwrap();
    let b = runtime.create_sized(&mut clock, "/b", 2 << 20).unwrap();

    let check = |label: &str| {
        let os = runtime.os();
        let s = os.stats();
        assert_eq!(
            s.dirtied_pages.get(),
            s.written_back_pages.get() + s.dropped_dirty_pages.get() + os.mem().dirty(),
            "{label}: dirty ledger out of balance \
             (dirtied={} written_back={} dropped={} dirty_now={})",
            s.dirtied_pages.get(),
            s.written_back_pages.get(),
            s.dropped_dirty_pages.get(),
            os.mem().dirty()
        );
    };

    // First half of the stream: page-aligned whole-page writes.
    for i in 0..256u64 {
        a.write_charge(&mut clock, (i * 3 % 1024) * PAGE_SIZE, PAGE_SIZE);
    }
    check("mid-stream");

    // Mid-stream cache drop: dirty pages are flushed, not lost.
    runtime.os().drop_caches(&mut clock);
    assert_eq!(runtime.os().mem().dirty(), 0, "drop_caches flushes dirty");
    check("after drop_caches");

    // Second half, plus dirty pages on `b` that are dropped by unlink.
    for i in 0..256u64 {
        a.write_charge(&mut clock, (i * 7 % 1024) * PAGE_SIZE, PAGE_SIZE);
        if i % 16 == 0 {
            // 16 pages: below every flush threshold, so they stay dirty.
            b.write_charge(&mut clock, (i % 512) * PAGE_SIZE, PAGE_SIZE);
        }
    }
    check("second half");
    drop(b);
    runtime.os().unlink(&mut clock, "/b").unwrap();
    assert!(
        runtime.os().stats().dropped_dirty_pages.get() > 0,
        "unlink must honestly account discarded dirty pages"
    );
    check("after unlink");

    a.fsync(&mut clock);
    assert_eq!(runtime.os().mem().dirty(), 0, "fsync drains the file");
    check("after fsync");
    assert!(runtime.os().stats().wb_flush_threshold.get() > 0);
}

/// Deferred write-back with adjacent-run coalescing issues strictly fewer
/// device write crossings than write-through for the same dirty pages
/// (2 vs 128), and the daemon's flushes cost the interleaved cold reads
/// nothing: their miss p99 does not regress.
#[test]
fn deferred_writeback_coalesces_write_crossings() {
    let run = |write_through: bool| {
        let mut os_config = OsConfig::with_memory_mb(64);
        os_config.writeback = Some(WritebackConfig {
            write_through,
            ..WritebackConfig::default()
        });
        let os = Os::new(
            os_config,
            Device::new(DeviceConfig::local_nvme()),
            FileSystem::new(FsKind::Ext4Like),
        );
        let runtime = Runtime::with_mode(os, Mode::Predict);
        let mut clock = runtime.new_clock();
        let file = runtime.create_sized(&mut clock, "/w", 8 << 20).unwrap();
        // 4-page dirty runs separated by 4-page gaps: coalescable under
        // the 8-page gap budget, but distinct write calls. Each gap is
        // read once, cold, at a scattered position.
        for i in 0..128u64 {
            file.write_charge(&mut clock, i * 8 * PAGE_SIZE, 4 * PAGE_SIZE);
            let gap = (i * 37 % 256) * 8 + 4;
            file.read_charge(&mut clock, gap * PAGE_SIZE, 4 * PAGE_SIZE);
        }
        file.fsync(&mut clock);
        let report = RuntimeReport::collect(&runtime);
        (
            runtime.os().device().stats().write_requests.get(),
            report.wb_runs_coalesced,
            report.wb_written_back_pages,
            report.read_demand_miss.p99(),
        )
    };
    let (through_crossings, _, through_pages, through_p99) = run(true);
    let (deferred_crossings, coalesced, deferred_pages, deferred_p99) = run(false);
    assert!(coalesced > 0, "gap coalescing never merged a run");
    assert!(
        deferred_crossings < through_crossings,
        "deferred write-back must issue fewer device writes \
         ({deferred_crossings} vs {through_crossings})"
    );
    // Both paths eventually wrote every dirtied page back.
    assert_eq!(through_pages, deferred_pages);
    assert!(
        deferred_p99 <= through_p99,
        "deferral regressed read miss p99: {deferred_p99} ns vs {through_p99} ns"
    );
}

/// Mixed read/write workload on the full tiered stack (re-miss
/// promotions, write-back daemon, demotions) is deterministic: same seed, same
/// virtual timeline, byte-identical telemetry.
#[test]
fn mixed_read_write_tiered_runs_are_deterministic() {
    let run = || {
        let mut os_config = OsConfig::with_memory_mb(4);
        os_config.writeback = Some(WritebackConfig {
            file_dirty_threshold_pages: 128,
            ..WritebackConfig::default()
        });
        let os = Os::new_tiered(
            os_config,
            TieredStore::new(
                Device::new(DeviceConfig::local_nvme()),
                Device::new(DeviceConfig::remote_nvmeof()),
                2048,
            ),
            FileSystem::new(FsKind::Ext4Like),
        );
        let mut config = RuntimeConfig::new(Mode::Predict);
        config.tiering = Some(TieringConfig::new());
        let runtime = Runtime::new(os, config);
        let mut clock = runtime.new_clock();
        let file = runtime.create_sized(&mut clock, "/mix", 16 << 20).unwrap();
        // Reads cycling over 384 scattered 4-page records (1 536 pages:
        // more than the 4 MiB cache holds, less than the local tier's
        // reach), so records miss again and promotions copy them local,
        // with a seeded scatter of page-aligned writes riding along that
        // the daemon absorbs and coalesces.
        let mut state = 43u64;
        for i in 0..2048u64 {
            let record = (i % 384) * 37 % 1024;
            file.read_charge(&mut clock, record * 4 * PAGE_SIZE, 4 * PAGE_SIZE);
            if i % 8 == 0 {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                file.write_charge(&mut clock, (state % 4094) * PAGE_SIZE, 2 * PAGE_SIZE);
            }
        }
        file.fsync(&mut clock);
        runtime.os().drop_caches(&mut clock);
        (clock.now(), RuntimeReport::collect(&runtime))
    };
    let (a_ns, a) = run();
    let (b_ns, b) = run();
    assert_eq!(a_ns, b_ns, "virtual timelines diverged");
    assert_eq!(a.to_json(), b.to_json(), "telemetry diverged");
    // The run actually exercised the machinery it claims to cover.
    assert!(a.to_json().contains("\"tiering\":{\"enabled\":true"));
    assert!(a.promotions_completed > 0, "no promotion completed");
    assert!(a.wb_runs_coalesced > 0, "the daemon never coalesced a run");
}

/// The byte oracle through the ring's absorb: default-config `+predict` on
/// a tiered store with deferred write-back. Records are written (some
/// overwritten in part, off page boundaries) and then re-read while
/// resident, dirty and then written back, through `try_read`: the
/// re-reads the view claims complete through `Os::absorb_read` with no
/// crossing (121 of 128; with every read crossing, as before the demand
/// half followed visibility, none did), every byte equals the byte last
/// written, and the dirty ledger balances.
#[test]
fn absorbed_rereads_return_the_written_bytes_on_a_tiered_store() {
    const RECORD: u64 = 4 * PAGE_SIZE;
    const RECORDS: u64 = 64;
    let mut os_config = OsConfig::with_memory_mb(32);
    os_config.writeback = Some(WritebackConfig::default());
    let os = Os::new_tiered(
        os_config,
        TieredStore::new(
            Device::new(DeviceConfig::local_nvme()),
            Device::new(DeviceConfig::remote_nvmeof()),
            512,
        ),
        FileSystem::new(FsKind::Ext4Like),
    );
    let runtime = Runtime::with_mode(os, Mode::Predict);
    let mut clock = runtime.new_clock();
    let size = 2 * RECORDS * RECORD;
    let file = runtime.create_sized(&mut clock, "/records", size).unwrap();
    let mut oracle = vec![0u8; size as usize];
    let mut write = |clock: &mut simclock::ThreadClock, offset: u64, len: u64, seed: u64| {
        let data: Vec<u8> = (0..len).map(|i| (i * 31 + seed * 7 + 1) as u8).collect();
        assert_eq!(file.try_write(clock, offset, &data).unwrap(), len);
        oracle[offset as usize..(offset + len) as usize].copy_from_slice(&data);
    };
    // Every other record slot, then a partial overwrite of every fourth
    // record that straddles a page boundary.
    for r in 0..RECORDS {
        write(&mut clock, 2 * r * RECORD, RECORD, r);
    }
    for r in (0..RECORDS).step_by(4) {
        write(&mut clock, 2 * r * RECORD + PAGE_SIZE - 100, 300, r + 1_000);
    }
    let absorbed = |runtime: &Runtime| runtime.os().stats().absorbed_reads.get();
    assert_eq!(absorbed(&runtime), 0, "writes absorb nothing");
    for pass in 0..2 {
        if pass == 1 {
            // The second pass re-reads written-back, still-resident pages.
            file.fsync(&mut clock);
        }
        for r in 0..RECORDS {
            let offset = 2 * r * RECORD;
            let bytes = file.try_read(&mut clock, offset, RECORD).unwrap();
            assert_eq!(
                bytes,
                &oracle[offset as usize..(offset + RECORD) as usize],
                "pass {pass}: record {r} read back other bytes"
            );
        }
    }
    assert!(absorbed(&runtime) > 0, "no resident re-read absorbed");
    let os = runtime.os();
    let s = os.stats();
    assert_eq!(
        s.dirtied_pages.get(),
        s.written_back_pages.get() + s.dropped_dirty_pages.get() + os.mem().dirty(),
        "dirty ledger out of balance"
    );
    assert!(s.written_back_pages.get() > 0, "fsync wrote nothing back");
}

/// Records of the zipfian tests: 32 KiB each.
const RECORD_PAGES: u64 = 8;

/// The record slot of the `i`-th most popular key: hashed, so hot records
/// are scattered over the file and no forward stream forms.
fn slot(key: u64, records: u64) -> u64 {
    key.wrapping_mul(0x9E37_79B9_7F4A_7C15).rotate_left(17) % records
}

/// A zipfian random reader of 32 KiB records on a tiered store whose local
/// tier holds a third of the file and whose page cache holds a sixth: the
/// records it re-reads keep missing the page cache, and the heat path
/// promotes those that miss again within the local tier's reach. Without
/// it nothing is promoted (no forward stream forms) and every demand read
/// is remote. Demand device reads are each tier's read requests minus its
/// prefetch-class ones (promotion copies read the remote tier as
/// prefetch).
#[test]
fn a_zipfian_reader_serves_its_remisses_locally() {
    const RECORDS: u64 = 1536;
    const LOCAL_BLOCKS: u64 = 4096;
    let run = || {
        let mut config = RuntimeConfig::new(Mode::Predict);
        config.tiering = Some(TieringConfig::new());
        let runtime = Runtime::new(boot_tiered(8, LOCAL_BLOCKS), config);
        let mut clock = runtime.new_clock();
        let bytes = RECORDS * RECORD_PAGES * PAGE_SIZE;
        let file = runtime.create_sized(&mut clock, "/zipf", bytes).unwrap();
        let zipf = Zipfian::new(RECORDS, 0.99);
        let mut rng = StdRng::seed_from_u64(42);
        for _ in 0..20_000 {
            let offset = slot(zipf.sample(&mut rng), RECORDS) * RECORD_PAGES * PAGE_SIZE;
            file.read_charge(&mut clock, offset, RECORD_PAGES * PAGE_SIZE);
        }
        runtime.os().drop_caches(&mut clock);
        let report = RuntimeReport::collect(&runtime);
        (runtime, report)
    };
    let (runtime, report) = run();
    let tiered = runtime.os().tiered().expect("tiered store");
    let demand = |tier: Tier| {
        let stats = tiered.device(tier).stats();
        stats.read_requests.get() - stats.prefetch_requests.get()
    };
    let (local, remote) = (demand(Tier::Local), demand(Tier::Remote));
    let remote_share = remote as f64 / (local + remote) as f64;
    let file_remote_share = 1.0 - LOCAL_BLOCKS as f64 / (RECORDS * RECORD_PAGES) as f64;
    assert!(
        remote_share < file_remote_share,
        "remote share of demand reads {remote_share:.3} (local {local}, remote {remote}) \
         not below the file's {file_remote_share:.3}"
    );
    assert!(report.promotions_completed > 0, "the heat path never fired");
    let q = report.prefetch_quality;
    assert_eq!(
        q.timely + q.late + q.wasted,
        report.pages_initiated,
        "quality books don't balance (timely={} late={} wasted={} initiated={})",
        q.timely,
        q.late,
        q.wasted,
        report.pages_initiated
    );
    let (_, again) = run();
    assert_eq!(report.to_json(), again.to_json(), "same seed, other report");
}

/// Two readers of one written tiered file, each on its own descriptor and
/// thread, re-read zipfian records while the heat path promotes them into
/// a local tier an eighth of the file's size (twice the page cache), so
/// promotions demote records the other reader may be reading. Every read
/// returns the bytes written. A tree whose promotion flips placement bits
/// before it shares the bytes fails here in most runs.
#[test]
fn readers_racing_heat_promotions_and_demotions_read_the_written_bytes() {
    const RECORDS: u64 = 512;
    const RECORD: u64 = RECORD_PAGES * PAGE_SIZE;
    let mut config = RuntimeConfig::new(Mode::Predict);
    config.tiering = Some(TieringConfig::new());
    let runtime = Runtime::new(boot_tiered(1, 512), config);
    let mut clock = runtime.new_clock();
    let file = runtime
        .create_sized(&mut clock, "/race", RECORDS * RECORD)
        .unwrap();
    let content = |record: u64| -> Vec<u8> {
        (0..RECORD)
            .map(|i| (i.wrapping_mul(131) ^ record.wrapping_mul(7919)) as u8)
            .collect()
    };
    for record in 0..RECORDS {
        let written = file.try_write(&mut clock, record * RECORD, &content(record));
        assert_eq!(written.unwrap(), RECORD);
    }
    file.fsync(&mut clock);
    runtime.os().drop_caches(&mut clock);
    std::thread::scope(|scope| {
        for seed in [1u64, 2] {
            let (runtime, content) = (runtime.clone(), &content);
            scope.spawn(move || {
                let mut clock = runtime.new_clock();
                let file = runtime.open(&mut clock, "/race").unwrap();
                let zipf = Zipfian::new(RECORDS, 0.99);
                let mut rng = StdRng::seed_from_u64(seed);
                for n in 0..4_000 {
                    let record = slot(zipf.sample(&mut rng), RECORDS);
                    let bytes = file.try_read(&mut clock, record * RECORD, RECORD).unwrap();
                    assert!(
                        bytes == content(record),
                        "reader {seed}, read {n}: record {record} read back other bytes"
                    );
                }
            });
        }
    });
    let tiered = runtime.os().tiered().expect("tiered store");
    assert!(
        tiered.stats().promoted_blocks.get() > 0,
        "nothing was promoted"
    );
    assert!(
        tiered.stats().demoted_blocks.get() > 0,
        "nothing was demoted"
    );
}

/// A record that misses the page cache again after the heat path made it
/// local dispatches no promotion job: its blocks are local, so there is
/// nothing to copy. The mechanism predicts nothing, so no stream
/// promotion joins the count.
#[test]
fn a_remiss_of_a_local_range_dispatches_no_promotion() {
    const RECORD: u64 = RECORD_PAGES * PAGE_SIZE;
    let mut config = RuntimeConfig::new(Mode::FincoreApp);
    config.tiering = Some(TieringConfig::new());
    let runtime = Runtime::new(boot_tiered(8, 4096), config);
    let mut clock = runtime.new_clock();
    let file = runtime
        .create_sized(&mut clock, "/local", 64 * RECORD)
        .unwrap();
    let tiered = runtime.os().tiered().expect("tiered store");
    let first = 40 * RECORD_PAGES;
    let remote = || tiered.remote_runs(file.ino().0, first, RECORD_PAGES);
    let issued = || RuntimeReport::collect(&runtime).promotions_issued;
    let miss = |clock: &mut simclock::ThreadClock| {
        runtime.os().drop_caches(clock);
        file.read_charge(clock, first * PAGE_SIZE, RECORD);
    };
    miss(&mut clock);
    assert!(!remote().is_empty(), "a first miss promotes nothing");
    let before = issued();
    miss(&mut clock);
    assert_eq!(issued(), before + 1, "the remiss of a remote record");
    assert!(
        remote().is_empty(),
        "the heat promotion made the record local"
    );
    miss(&mut clock);
    assert_eq!(issued(), before + 1, "a local record needs no job");
}
