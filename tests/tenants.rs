//! Tenant arbiter suite: knob-inertness of `RuntimeConfig::tenants` for
//! untenanted opens, same-seed fleet determinism, the per-tenant
//! quality-ledger invariant under admission throttling, and starvation
//! freedom for low-QoS tenants.

use crossprefetch::{
    Mode, QosClass, Runtime, RuntimeConfig, RuntimeReport, TenantId, TenantSpec, TenantsConfig,
};
use simos::{Device, DeviceConfig, FileSystem, FsKind, Os, OsConfig};
use workloads::{run_fleet, setup_fleet, FleetConfig, FleetTenantSpec};

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

/// The deterministic mixed workload the batching/ring suites drive, with
/// plain (untenanted) opens.
fn run_untenanted(config: RuntimeConfig) -> RuntimeReport {
    let runtime = Runtime::new(os(48), config);
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
/// deterministic, down to the exported telemetry bytes.
#[test]
fn same_seed_fleet_is_byte_identical() {
    let cfg = throttled_fleet();
    let mut exports = Vec::new();
    for _ in 0..2 {
        let mut config = RuntimeConfig::new(Mode::PredictOpt);
        config.tenants = Some(TenantsConfig::new(cfg.tenant_specs()));
        let runtime = Runtime::new(os(8), config);
        setup_fleet(&runtime, &cfg);
        let mut clock = runtime.new_clock();
        run_fleet(&runtime, &mut clock, &cfg);
        exports.push(RuntimeReport::collect(&runtime).to_json());
    }
    assert_eq!(exports[0], exports[1]);
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
    let cfg = throttled_fleet();
    let mut config = RuntimeConfig::new(Mode::Predict);
    config.tenants = Some(TenantsConfig::new(cfg.tenant_specs()));
    let runtime = Runtime::new(os(8), config);
    setup_fleet(&runtime, &cfg);
    let mut clock = runtime.new_clock();
    run_fleet(&runtime, &mut clock, &cfg);
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
    let cfg = throttled_fleet();
    let mut config = RuntimeConfig::new(Mode::PredictOpt);
    config.tenants = Some(TenantsConfig::new(cfg.tenant_specs()));
    let runtime = Runtime::new(os(8), config);
    setup_fleet(&runtime, &cfg);
    let mut clock = runtime.new_clock();
    let result = run_fleet(&runtime, &mut clock, &cfg);

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
