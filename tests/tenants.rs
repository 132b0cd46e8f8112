//! Tenant arbiter suite: knob-inertness of `RuntimeConfig::tenants` for
//! untenanted opens, same-seed fleet determinism, the per-tenant
//! quality-ledger invariant under admission throttling, starvation
//! freedom for low-QoS tenants, and the arbitration gate (prefetch-hit
//! ratio and the gold tenant's response tail at a sustainable load).

use cp_bench::boot;
use crossprefetch::{
    Mode, QosClass, Runtime, RuntimeConfig, RuntimeReport, TenantId, TenantSpec, TenantsConfig,
};
use simclock::{ThreadClock, NS_PER_US};
use workloads::{run_fleet, setup_fleet, FleetConfig, FleetResult, FleetTenantSpec};

const MECHANISMS: [Mode; 6] = [
    Mode::AppOnly,
    Mode::OsOnly,
    Mode::Predict,
    Mode::PredictOpt,
    Mode::FetchAllOpt,
    Mode::FincoreApp,
];

/// A small cold-cache fleet over little memory: window budgets are tiny
/// and the cache sits above the pressure watermark, so the admission
/// ladder actually engages.
fn throttled_fleet() -> FleetConfig {
    FleetConfig {
        tenants: vec![
            FleetTenantSpec::new("batch-a", crossprefetch::QosClass::Bronze, true),
            FleetTenantSpec::new("batch-b", crossprefetch::QosClass::Bronze, true),
            FleetTenantSpec::new("standard", crossprefetch::QosClass::Silver, false),
            FleetTenantSpec::new("gold", crossprefetch::QosClass::Gold, false),
        ],
        files_per_tenant: 1,
        file_bytes: 16 << 20,
        requests: 2048,
        reads_per_request: 4,
        read_bytes: 16 * 1024,
        ..FleetConfig::default()
    }
}

/// One fleet run under `mode` on `memory_mb` of page cache, arbiter on or
/// off: the runtime, the clock that drove it, and the per-tenant outcome.
fn fleet_run(
    cfg: &FleetConfig,
    mode: Mode,
    memory_mb: u64,
    arbiter: bool,
) -> (Runtime, ThreadClock, FleetResult) {
    let mut config = RuntimeConfig::new(mode);
    if arbiter {
        config.tenants = Some(TenantsConfig::new(cfg.tenant_specs()));
    }
    let runtime = Runtime::new(boot(memory_mb), config);
    setup_fleet(&runtime, cfg);
    let mut clock = runtime.new_clock();
    let result = run_fleet(&runtime, &mut clock, cfg);
    (runtime, clock, result)
}

/// The deterministic mixed workload the batching/ring suites drive, with
/// plain (untenanted) opens.
fn run_untenanted(config: RuntimeConfig) -> RuntimeReport {
    let runtime = Runtime::new(boot(48), config);
    let mut clock = runtime.new_clock();
    let file = runtime
        .create_sized(&mut clock, "/data/w.bin", 48 << 20)
        .unwrap();
    let chunk = 16 * 1024u64;
    for i in 0..512u64 {
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
    RuntimeReport::collect(&runtime)
}

/// Configuring tenants without ever binding one must not change a single
/// byte outside the additive `tenants` section, for every mechanism:
/// untenanted files bypass admission entirely.
#[test]
fn tenants_config_is_inert_for_untenanted_opens() {
    for mode in MECHANISMS {
        let without = run_untenanted(RuntimeConfig::new(mode));
        let mut config = RuntimeConfig::new(mode);
        config.tenants = Some(TenantsConfig::new(throttled_fleet().tenant_specs()));
        let with = run_untenanted(config);
        assert!(
            with.to_json().contains("\"tenants\":{\"enabled\":true"),
            "{}: configured arbiter should surface in telemetry",
            mode.label()
        );
        assert!(
            without.to_json().contains("\"tenants\":{\"enabled\":false"),
            "{}: unconfigured arbiter should read disabled",
            mode.label()
        );
        assert_eq!(
            with.to_json_without(&["tenants"]),
            without.to_json_without(&["tenants"]),
            "{}: tenant config leaked into untenanted telemetry",
            mode.label()
        );
    }
}

/// Tenant names are caller-supplied strings: one holding `{`, `}` and `"`
/// must neither unbalance the export nor confuse the section filter (the
/// brace-counting string surgery this filter replaced ran off the end of
/// the buffer on such a name).
#[test]
fn hostile_tenant_name_exports_balanced_json_and_filters_cleanly() {
    let mut config = RuntimeConfig::new(Mode::PredictOpt);
    config.tenants = Some(TenantsConfig::new(vec![
        TenantSpec::new("a{\"}", QosClass::Gold),
        TenantSpec::new("}{", QosClass::Bronze),
    ]));
    let with = run_untenanted(config);
    let json = with.to_json();
    assert!(json.contains(r#""list":[{"name":"a{\"}","qos":"gold""#));
    assert!(json.contains(r#"{"name":"}{","qos":"bronze""#));

    // Structural balance, counting braces only outside string literals.
    let (mut depth, mut in_string, mut escaped) = (0i64, false, false);
    for c in json.chars() {
        match c {
            _ if escaped => escaped = false,
            '\\' if in_string => escaped = true,
            '"' => in_string = !in_string,
            '{' | '[' if !in_string => depth += 1,
            '}' | ']' if !in_string => {
                depth -= 1;
                assert!(depth >= 0, "closed more than was opened");
            }
            _ => {}
        }
    }
    assert!(!in_string && depth == 0, "unbalanced export: {json}");

    let filtered = with.to_json_without(&["tenants"]);
    assert!(!filtered.contains("\"tenants\":"));
    assert_eq!(
        filtered,
        run_untenanted(RuntimeConfig::new(Mode::PredictOpt)).to_json_without(&["tenants"]),
        "only the tenants section may differ"
    );
}

/// Same seed, same fleet, same budgets: the arbitrated run is fully
/// deterministic, down to the exported telemetry bytes — with the additive
/// `tenants` section present and the admission ladder demonstrably engaged
/// (the 8 MiB cache forces outright denials, not just degradation).
#[test]
fn same_seed_fleet_is_byte_identical() {
    let cfg = throttled_fleet();
    let [first, second] = [(); 2].map(|()| {
        let (runtime, ..) = fleet_run(&cfg, Mode::PredictOpt, 8, true);
        RuntimeReport::collect(&runtime)
    });
    assert_eq!(first.to_json(), second.to_json());
    assert!(first.to_json().contains("\"tenants\":{\"enabled\":true"));
    let denied: u64 = first.tenants.iter().map(|t| t.denied).sum();
    assert!(denied > 0, "the small cache should force admission denials");
}

/// The closed-loop quality invariant holds *per tenant* while admission
/// control rejects and degrades prefetch mid-stream: after the cache
/// drop settles the books, each tenant's timely + late + wasted equals
/// exactly the pages initiated on its files.
///
/// `Mode::Predict` silences the OS heuristic readahead and does no
/// open-time prefetch, so each tenant's runtime prefetches are the only
/// speculative pages its ledger sees.
#[test]
fn per_tenant_quality_books_balance_under_throttling() {
    let (runtime, mut clock, _) = fleet_run(&throttled_fleet(), Mode::Predict, 8, true);
    runtime.os().drop_caches(&mut clock);

    let arbiter = runtime.tenants().expect("arbiter configured");
    let reports = arbiter.reports();
    let degraded: u64 = reports
        .iter()
        .map(|t| t.degraded_coalesced + t.degraded_blind + t.denied)
        .sum();
    assert!(
        degraded > 0,
        "the 8 MiB cache should force the ladder below Full"
    );
    let initiated: u64 = reports.iter().map(|t| t.initiated_pages).sum();
    assert!(initiated > 0, "the fleet should trigger prefetching");
    for (idx, report) in reports.iter().enumerate() {
        let q = arbiter.tenant_quality(runtime.os(), TenantId(idx as u32));
        assert_eq!(
            q.timely + q.late + q.wasted,
            report.initiated_pages,
            "{}: per-tenant books don't balance (timely={} late={} wasted={} initiated={})",
            report.name,
            q.timely,
            q.late,
            q.wasted,
            report.initiated_pages
        );
    }
}

/// The efficiency floor keeps even a wasteful bronze tenant's weight
/// above zero: under sustained saturation every tenant still completes
/// reads and wins some prefetch admission.
#[test]
fn no_tenant_starves_under_saturation() {
    let (runtime, _, result) = fleet_run(&throttled_fleet(), Mode::PredictOpt, 8, true);

    let arbiter = runtime.tenants().expect("arbiter configured");
    assert!(arbiter.rebalances() > 0, "windows should have rebalanced");
    for (row, report) in result.per_tenant.iter().zip(arbiter.reports()) {
        assert!(row.reads > 0, "{}: no reads completed", row.name);
        assert!(row.hit_pages > 0, "{}: no cached pages at all", row.name);
        assert!(
            report.admitted_pages > 0,
            "{}: starved of prefetch admission despite the efficiency floor",
            report.name
        );
        assert!(
            report.budget_pages > 0,
            "{}: rebalance assigned a zero budget",
            report.name
        );
    }
}

/// Run pre-issue on time, on [`FleetConfig::mixed_qos`] behind 16 MB of
/// page cache with the arbiter on: the same predictor asks for the same
/// runs at the same jumps with the ring off, but there the remainder is a
/// prefetch-class request that queues behind the streaming tenants'
/// windows, and the burst's second read waits it out. Riding the miss's
/// crossing on the blocking horizon (or, refused, waiting for the first
/// continuation) must not cost the read tail anything. Measured, seed 42:
/// read p99.9 119 539 ns with the ring, 194 984 ns without.
#[test]
fn preissue_does_not_lengthen_the_fleet_read_tail() {
    let cfg = FleetConfig::mixed_qos(250 * NS_PER_US);
    let read_p999 = |ring: bool| {
        let mut config = RuntimeConfig::new(Mode::PredictOpt);
        config.tenants = Some(TenantsConfig::new(cfg.tenant_specs()));
        config.ring_submit = ring;
        let runtime = Runtime::new(boot(16), config);
        setup_fleet(&runtime, &cfg);
        let mut clock = runtime.new_clock();
        let result = run_fleet(&runtime, &mut clock, &cfg);
        let issued = runtime.stats().ring_spec_issued.get();
        assert_eq!(
            issued > 0,
            ring,
            "bursts pre-issue exactly when the ring is on"
        );
        result.p999_read_ns
    };
    let (with, without) = (read_p999(true), read_p999(false));
    assert!(
        with <= without,
        "read p99.9 {with} ns with pre-issue vs {without} ns without"
    );
}

/// The arbitration gate, on [`FleetConfig::mixed_qos`] behind 16 MB of page
/// cache. Three runs of one arrival stream: arbiter on, arbiter off, and
/// the gold tenant replayed alone.
///
/// Offered load: 250 us mean inter-arrival = 4000 req/s, 74 % of the
/// ~5400 req/s at which the arbitrated fleet saturates (8192 requests
/// take 1.52 s of virtual time back to back). The driver is one open-loop
/// server, so the tail that matters is *response* time (completion minus
/// arrival, queueing included), not per-read service time. Measured,
/// seed 42, with bursts asked for at their jump (ring off here, so as
/// ordinary prefetch): gold response p99 620 us arbitrated, 459 us without
/// the arbiter, 26 us alone; prefetch-hit ratio 0.958 vs 0.951.
#[test]
fn arbitration_raises_prefetch_hits_and_bounds_the_gold_response_tail() {
    const GOLD: usize = 3;
    let cfg = FleetConfig::mixed_qos(250 * NS_PER_US);
    let run = |arbiter: bool, only_tenant: Option<usize>| {
        let cfg = FleetConfig {
            only_tenant,
            ..cfg.clone()
        };
        let (runtime, mut clock, result) = fleet_run(&cfg, Mode::PredictOpt, 16, arbiter);
        // Settle still-speculative pages as wasted before reading the ledger.
        runtime.os().drop_caches(&mut clock);
        let report = RuntimeReport::collect(&runtime);
        let q = report.prefetch_quality;
        let hit_ratio = (q.timely + q.late) as f64 / report.pages_initiated as f64;
        (result.per_tenant[GOLD].p99_response_ns, hit_ratio)
    };
    let (arbitrated, arbitrated_hits) = run(true, None);
    let (unarbitrated, unarbitrated_hits) = run(false, None);
    let (alone, _) = run(true, Some(GOLD));

    assert!(
        arbitrated_hits > unarbitrated_hits,
        "arbitration must raise the aggregate prefetch-hit ratio: \
         {arbitrated_hits:.4} vs {unarbitrated_hits:.4}"
    );
    // Below saturation queueing is bounded: 23.7x the unloaded tail today.
    // (At the 50 us gap the old bench harness offered — 3.6x past
    // saturation — the backlog grows all run and this ratio is 42 000x.)
    assert!(
        arbitrated <= 100 * alone,
        "gold response p99 {arbitrated} ns exceeds 100x its unloaded {alone} ns"
    );
    // ❌, checked: the arbiter does not shield gold's response tail. Its
    // denials turn bronze prefetches into demand misses that the single
    // driver serialises, so every tenant queues longer than with no
    // arbiter at all (1.35x). Today's ordering is pinned, with a 1.6x
    // ceiling, so a fix flips this assertion visibly (ROADMAP item 9).
    assert!(
        arbitrated > unarbitrated && arbitrated * 5 <= unarbitrated * 8,
        "gold response p99 moved against the no-arbiter run: \
         {arbitrated} ns vs {unarbitrated} ns"
    );
}
