//! Ablations: the artifact's customization knobs (paper appendix A.6:
//! predictor counter width, `NR_WORKERS_VAR`, `PREFETCH_SIZE_VAR`) and
//! every opt-in subsystem added since, off against on: the completion
//! ring's rides, cross-tier promotion, deferred write-back;
//! and one per-tenant table of the mixed-QoS fleet (tenants are labels, so
//! there is nothing to switch off). This bench only prints; the claims its
//! tables illustrate are gated by `cargo test`
//! (`tests/{ring,tenants,tiering}.rs`).

use cp_bench::{banner, boot, boot_tiered, fmt_mbps, scale, TablePrinter};
use crossprefetch::{
    Mode, Runtime, RuntimeConfig, RuntimeReport, TenantId, TenantsConfig, TieringConfig,
    WritebackConfig, PAGE_SIZE,
};
use simclock::{ThreadClock, NS_PER_MS, NS_PER_US};
use simos::{Device, DeviceConfig, FileSystem, FsKind, Os, OsConfig};
use std::sync::Arc;
use workloads::{
    run_fleet, run_kvprobe, run_micro, setup_fleet, setup_kvprobe, setup_micro, FleetConfig,
    KvProbeConfig, MicroConfig, MicroPattern,
};

/// A [`report_sweep`] workload: creates its dataset, drives `clock`
/// through the run, and returns a note for the table's last column.
type Workload = fn(&Runtime, &mut ThreadClock) -> String;

const PATH: &str = "/bench/data.bin";

/// Eight threads of batched-random 16 KiB reads over a shared 96 MiB file.
fn micro(rt: &Runtime, clock: &mut ThreadClock) -> String {
    let cfg = MicroConfig {
        threads: 8,
        data_bytes: 96 << 20,
        io_bytes: 16 * 1024,
        ops_per_thread: 600 * scale(),
        shared: true,
        pattern: MicroPattern::BatchedRandom { batch: 8 },
        seed: 0xAB1,
    };
    setup_micro(rt, &cfg);
    let result = run_micro(rt, &cfg);
    clock.advance(result.elapsed_ns);
    format!("{} MB/s", fmt_mbps(result.mbps()))
}

/// Zipfian index-then-record probes over the default 18 MiB dataset:
/// short runs the predictor plans by their learned shape.
fn kvprobe(rt: &Runtime, clock: &mut ThreadClock) -> String {
    let mut cfg = KvProbeConfig::default();
    cfg.probes *= scale();
    setup_kvprobe(rt, &cfg, PATH);
    run_kvprobe(rt, clock, &cfg, PATH);
    String::new()
}

/// The mixed-QoS fleet, open loop at 4000 req/s: ~74 % of where it
/// saturates, so queues drain and p99s mean something.
const FLEET_GAP_NS: u64 = 250 * NS_PER_US;

/// The mixed-QoS fleet behind a 16 MB cache with its tenants configured,
/// one row per tenant: its traffic and tails, and its books (pages
/// admitted and initiated, and the quality ledger a cache drop closes).
/// Configuring tenants changes no decision (`tests/tenants.rs`,
/// `tenants_are_labels`), so there is no off column to print.
fn tenant_table() {
    let cfg = FleetConfig::mixed_qos(FLEET_GAP_NS);
    let mode = Mode::PredictOpt;
    let mut config = RuntimeConfig::new(mode);
    config.tenants = Some(TenantsConfig::new(cfg.tenant_specs()));
    let rt = Runtime::new(boot(16), config);
    setup_fleet(&rt, &cfg);
    let mut clock = rt.new_clock();
    let result = run_fleet(&rt, &mut clock, &cfg);
    rt.os().drop_caches(&mut clock);
    let books = rt.tenants().expect("tenants configured");
    println!(
        "--- tenants ({}, mixed-QoS fleet at 4000 req/s, ~320 MiB behind a 16 MB cache) ---",
        mode.label()
    );
    let columns = "tenant|qos|requests|hit %|admitted|initiated|timely|late|wasted\
                   |pf-hit %|read p99 us|resp p50/p99 us";
    let mut table = TablePrinter::new(columns.split('|'));
    for (id, (run, row)) in result.per_tenant.iter().zip(books.reports()).enumerate() {
        let q = books.tenant_quality(TenantId(id as u32));
        let pf_hit = match row.initiated_pages {
            0 => "-".to_string(),
            n => format!("{:.1}", (q.timely + q.late) as f64 * 100.0 / n as f64),
        };
        table.row([
            run.name.clone(),
            row.qos.to_string(),
            run.requests.to_string(),
            format!(
                "{:.1}",
                run.hit_pages as f64 * 100.0 / run.pages.max(1) as f64
            ),
            row.admitted_pages.to_string(),
            row.initiated_pages.to_string(),
            q.timely.to_string(),
            q.late.to_string(),
            q.wasted.to_string(),
            pf_hit,
            format!("{:.1}", run.p99_read_ns as f64 / NS_PER_US as f64),
            format!(
                "{:.1}/{:.1}",
                run.p50_response_ns as f64 / NS_PER_US as f64,
                run.p99_response_ns as f64 / NS_PER_US as f64
            ),
        ]);
    }
    table.print();
    println!();
}

/// One sequential scan of a 9 MiB file (one miss per range: the tier
/// planner promotes none of it), a cache drop, then 32 KiB reads at hashed
/// offsets (a range promotes only when its exact first page misses again
/// within the local tier's reach), a 4-page write riding along every
/// `write_every`-th read (dirty runs with 4-page gaps: distinct write
/// calls the deferred daemon can coalesce under its gap budget), then
/// `fsync`.
fn scan_then_scatter(rt: &Runtime, clock: &mut ThreadClock, write_every: u64) -> String {
    let file = rt.create_sized(clock, PATH, 9 << 20).expect("create");
    let pages = file.size() / PAGE_SIZE;
    for page in 0..pages {
        file.read_charge(clock, page * PAGE_SIZE, PAGE_SIZE);
    }
    rt.os().drop_caches(clock);
    for i in 0..4096 * scale() {
        let page = i.wrapping_mul(0x9E37_79B9) % (pages - 8);
        file.read_charge(clock, page * PAGE_SIZE, 8 * PAGE_SIZE);
        if i % write_every == 0 {
            file.write_charge(clock, (i * 2 % (pages - 4)) * PAGE_SIZE, 4 * PAGE_SIZE);
        }
    }
    file.fsync(clock);
    String::new()
}

/// The one comparison-table routine. Every `modes` x `values` row boots
/// its own OS (`os`) and runtime (`set` applies the value to the mode's
/// default config), runs `workload`, closes the prefetch-quality books
/// with a cache drop (still-speculative pages settle as wasted) and prints
/// the [`RuntimeReport`] next to the run's boundary crossings and its
/// virtual time.
fn report_sweep<T: Copy>(
    title: &str,
    workload: Workload,
    modes: &[Mode],
    values: &[(&str, T)],
    os: impl Fn(T) -> Arc<Os>,
    set: impl Fn(&mut RuntimeConfig, T),
) {
    println!("--- {title} ---");
    let columns = "run|initiated|timely|late|wasted|pf-hit %|hit %|ra/rd/wr crossings\
                   |local/remote tier rds|miss p50/p99 us|ms|note";
    let mut table = TablePrinter::new(columns.split('|'));
    for &mode in modes {
        for &(name, value) in values {
            let mut config = RuntimeConfig::new(mode);
            set(&mut config, value);
            let rt = Runtime::new(os(value), config);
            let mut clock = rt.new_clock();
            let note = workload(&rt, &mut clock);
            let ms = clock.now() as f64 / NS_PER_MS as f64;
            let calls = rt.os().stats();
            let device_writes = rt.os().device().stats().write_requests.get();
            let prefetch_calls = calls.ra_info_calls.get() + calls.ra_calls.get();
            let read_calls = calls.reads.get() + calls.read_batch_calls.get();
            rt.os().drop_caches(&mut clock);
            let r = RuntimeReport::collect(&rt);
            let (q, miss) = (r.prefetch_quality, &r.read_demand_miss);
            let hits = (r.read_cache_hit.count + r.read_prefetch_hit.count) as f64;
            let cells = [
                format!("{} {name}", mode.label()),
                r.pages_initiated.to_string(),
                q.timely.to_string(),
                q.late.to_string(),
                q.wasted.to_string(),
                // Only meaningful when the runtime (not OS readahead) initiated.
                match r.pages_initiated {
                    0 => "-".to_string(),
                    n => format!("{:.1}", (q.timely + q.late) as f64 * 100.0 / n as f64),
                },
                format!("{:.1}", hits * 100.0 / (hits + miss.count as f64).max(1.0)),
                format!("{prefetch_calls}/{read_calls}/{device_writes}"),
                format!("{}/{}", r.tier_local_reads, r.tier_remote_reads),
                format!("{}/{}", miss.p50() / NS_PER_US, miss.p99() / NS_PER_US),
                format!("{ms:.2}"),
                note,
            ];
            table.row(cells);
        }
    }
    table.print();
    println!();
}

fn main() {
    banner(
        "Ablations",
        "artifact knobs and opt-in subsystems, one knob at a time",
        "3-bit counter best (paper §4.6); other knobs plateau quickly",
    );

    let (predict, predict_opt) = ([Mode::Predict], [Mode::PredictOpt]);
    let off_on = [("off", false), ("on", true)];

    let knob_sweep = |title, values: &[(&str, u64)], set: fn(&mut RuntimeConfig, u64)| {
        report_sweep(title, micro, &predict_opt, values, |_| boot(64), set);
    };
    knob_sweep(
        "predictor counter width in bits (3 is the paper's choice)",
        &[("1", 1), ("2", 2), ("3", 3), ("4", 4), ("5", 5)],
        |c, bits| c.engine_tuning.predictor_bits = bits as u32,
    );
    knob_sweep(
        "prefetch worker threads (NR_WORKERS_VAR)",
        &[("1", 1), ("2", 2), ("4", 4), ("8", 8)],
        |c, workers| c.workers = workers as usize,
    );
    knob_sweep(
        "optimistic open-prefetch size in MiB (PREFETCH_SIZE_VAR)",
        &[("0", 0), ("1", 1), ("2", 2), ("8", 8)],
        |c, mb| c.open_prefetch_bytes = mb << 20,
    );
    report_sweep(
        "ring rides off/on (zipfian kvprobe, 8 MB cache; the demand half runs in both)",
        kvprobe,
        &predict,
        &off_on,
        |_| boot(8),
        |c, on| c.ring_submit = on,
    );
    tenant_table();
    // An 8 MiB local tier in front of NVMe-oF under the 9 MiB file: ~11 %
    // of the blocks cannot fit locally no matter what.
    report_sweep(
        "cross-tier promotion (scan, then scattered cold 32 KiB re-reads, 4 MB cache)",
        |rt, clock| scan_then_scatter(rt, clock, u64::MAX),
        &predict,
        &off_on,
        |_| boot_tiered(4, 2048),
        |c, on| c.tiering = on.then(TieringConfig::new),
    );
    report_sweep(
        "write-back (same, plus a 4-page write every 4th read, 8 MB cache)",
        |rt, clock| scan_then_scatter(rt, clock, 4),
        &predict,
        &[("deferred", false), ("write-through", true)],
        |write_through| {
            let writeback = WritebackConfig {
                write_through,
                ..WritebackConfig::default()
            };
            os_with(8, |c| c.writeback = Some(writeback))
        },
        |_, _| {},
    );
}

/// A local-NVMe, ext4-like OS with `memory_mb` of page cache and `tweak`
/// applied to its config.
fn os_with(memory_mb: u64, tweak: impl FnOnce(&mut OsConfig)) -> Arc<Os> {
    let mut config = OsConfig::with_memory_mb(memory_mb);
    tweak(&mut config);
    let device = Device::new(DeviceConfig::local_nvme());
    Os::new(config, device, FileSystem::new(FsKind::Ext4Like))
}
