//! Tiered-store suite: knob inertness of `RuntimeConfig::tiering`,
//! cross-tier promotion of predicted-hot ranges, remote-fault degradation
//! through the retry ladder, the dirty-page ledger invariant, write-back
//! coalescing, and mixed read/write same-seed determinism.

use cp_bench::{boot, boot_tiered};
use crossprefetch::{
    Mode, Runtime, RuntimeConfig, RuntimeReport, Tier, TieredStore, TieringConfig, WritebackConfig,
    PAGE_SIZE,
};
use simstore::FaultPlan;

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

/// The `tiering` JSON section of a report (exclusive of `registries`).
fn tiering_section(json: &str) -> &str {
    let start = json.find("\"tiering\":").expect("tiering section present");
    let end = json
        .find("\"registries\":")
        .expect("registries section present");
    &json[start..end]
}

/// With `tiering: None` on an un-tiered OS (the default everywhere), the
/// additive `tiering` telemetry section is byte-identical across all six
/// Table-2 mechanisms: disabled, no promotions, no write-back daemon.
/// The knob's absence must not perturb any mechanism.
#[test]
fn tiering_section_is_inert_and_identical_across_mechanisms() {
    let mut sections: Vec<String> = Vec::new();
    for mode in MECHANISMS {
        let runtime = Runtime::with_mode(boot(64), mode);
        let mut clock = runtime.new_clock();
        let file = runtime.create_sized(&mut clock, "/t", 4 << 20).unwrap();
        stream(&file, &mut clock, 4 << 20, 64 * 1024);
        runtime.flush_prefetch_batches(&mut clock);
        let json = RuntimeReport::collect(&runtime).to_json();
        sections.push(tiering_section(&json).to_string());
    }
    for section in &sections {
        assert!(section.contains("\"enabled\":false"), "planner must be off");
        assert!(
            section.contains("\"writeback_enabled\":false"),
            "daemon must be off"
        );
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

/// The heart of the subsystem: a predictable sequential stream over a
/// remote-resident file gets its predicted-hot ranges promoted to the
/// local tier in the background, and the promotion pages are billed as
/// prefetch so the quality ledger keeps balancing. Placement then pays
/// where it is meant to: on a cold scattered re-read of the same file the
/// promote run serves its misses from the local tier and strictly beats
/// the `tiering: None` control — every block remote forever — on p99
/// demand-read latency (152.9 us vs 232.4 us) at equal read totals.
#[test]
fn promotions_move_predicted_hot_ranges_local_and_books_balance() {
    let run = |promote: bool| {
        let mut config = RuntimeConfig::new(Mode::Predict);
        if promote {
            config.tiering = Some(TieringConfig::new());
        }
        let runtime = Runtime::new(boot_tiered(64, 8192), config);
        let mut clock = runtime.new_clock();
        let file = runtime.create_sized(&mut clock, "/hot", 16 << 20).unwrap();
        stream(&file, &mut clock, 16 << 20, 64 * 1024);
        runtime.flush_prefetch_batches(&mut clock);

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

        // Measured phase: scattered 32 KiB reads — big enough that a local
        // and a remote miss land in different log2 latency buckets.
        for i in 0..256u64 {
            let page = i.wrapping_mul(0x9E37_79B9) % 4088;
            file.read_charge(&mut clock, page * PAGE_SIZE, 8 * PAGE_SIZE);
        }
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
    // The stream's head was promoted behind the reads: some early block
    // now lives on the local tier.
    let promoted_somewhere = (0..4096).any(|lb| tiered.tier_of(file.ino().0, lb) == Tier::Local);
    assert!(promoted_somewhere, "no block of the file ended up local");
    assert!(report.tiering_enabled);
    assert_eq!(
        RuntimeReport::collect(&runtime).promotions_issued,
        stats.promotions_issued.get()
    );
    // Both tiers saw traffic: the remote tier fed promotions and cold
    // misses, the local tier absorbed promoted reads or the copies.
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

/// Remote-tier transient EIO during promotion: every attempt faults, the
/// job retries through the doubling backoff ladder, gives up, and leaves
/// the placement map untouched — demand reads (blocking class, unfaulted)
/// keep streaming off the remote tier and the books still balance.
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
    stream(&file, &mut clock, 8 << 20, 64 * 1024);
    runtime.flush_prefetch_batches(&mut clock);

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

/// Mixed read/write workload on the full tiered stack (promotions,
/// write-back daemon, demotions) is deterministic: same seed, same
/// virtual timeline, byte-identical telemetry.
#[test]
fn mixed_read_write_tiered_runs_are_deterministic() {
    let run = || {
        let mut os_config = OsConfig::with_memory_mb(32);
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
        // A sequential stream (the planner's food) with a seeded scatter
        // of page-aligned writes riding along: the daemon absorbs and
        // coalesces them while promotions copy the read stream local.
        let mut state = 43u64;
        for i in 0..1024u64 {
            file.read_charge(&mut clock, (i * 4 % 4096) * PAGE_SIZE, 4 * PAGE_SIZE);
            if i % 8 == 0 {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                file.write_charge(&mut clock, (state % 4094) * PAGE_SIZE, 2 * PAGE_SIZE);
            }
        }
        file.fsync(&mut clock);
        runtime.flush_prefetch_batches(&mut clock);
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
