//! Fleet: an open-loop multi-tenant arrival workload (millions-of-users
//! shape).
//!
//! Requests arrive on a seeded Poisson process (exponential gaps in
//! virtual time) and are assigned to tenants by a [`Zipfian`] popularity
//! draw over the tenant table — low indices are hot, so a fleet mix puts
//! its noisy best-effort tenants first and its latency-sensitive gold
//! tenant last. Each tenant owns a directory of preallocated files; a
//! request opens (lazily, through [`Runtime::open_for_tenant`]) one of
//! them and issues a short burst of reads, either sequentially (per-file
//! cursor, prefetch-friendly) or at hashed random offsets (wasteful — the
//! pattern the quality-weighted arbiter should throttle first).
//!
//! The driver is open-loop: arrival times come from the seeded process
//! alone, and a request that finds the driver still busy simply starts
//! late — its response time (completion minus *arrival*) then includes
//! the queueing delay, exactly what a saturating fleet does to tail
//! latency. Single-threaded and fully deterministic for a given config,
//! so same-seed runs export byte-identical telemetry.
//!
//! [`FleetConfig::only_tenant`] replays the identical arrival stream but
//! executes only one tenant's requests (every RNG draw still happens, so
//! arrivals and offsets stay aligned). That is the *unloaded baseline*
//! the arbitration gate (`tests/tenants.rs`) bounds the gold tenant's
//! response tail against.

use crossprefetch::{QosClass, Runtime, TenantId, TenantSpec};
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};
use simclock::ThreadClock;

use crate::zipf::Zipfian;

/// One tenant of the fleet.
#[derive(Debug, Clone)]
pub struct FleetTenantSpec {
    /// Tenant name (also the telemetry key).
    pub name: String,
    /// Service class fed to the arbiter.
    pub qos: QosClass,
    /// Short sequential bursts from hashed-random start offsets instead
    /// of one long stream. Each burst looks sequential, so the strided
    /// predictor ramps readahead — then the next burst jumps elsewhere
    /// and the overshoot settles as wasted prefetch. Cache-hostile and
    /// prefetch-wasteful: the traffic the arbiter throttles first.
    pub random: bool,
    /// Per-tenant file size, overriding [`FleetConfig::file_bytes`] —
    /// fleet tenants rarely share one dataset shape.
    pub file_bytes: Option<u64>,
}

impl FleetTenantSpec {
    /// Convenience constructor.
    pub fn new(name: &str, qos: QosClass, random: bool) -> Self {
        Self {
            name: name.to_string(),
            qos,
            random,
            file_bytes: None,
        }
    }

    /// Overrides the fleet-wide file size for this tenant.
    #[must_use]
    pub fn with_file_bytes(mut self, bytes: u64) -> Self {
        self.file_bytes = Some(bytes);
        self
    }
}

/// Fleet parameters.
#[derive(Debug, Clone)]
pub struct FleetConfig {
    /// Tenant table, hottest (most requests) first.
    pub tenants: Vec<FleetTenantSpec>,
    /// Files per tenant.
    pub files_per_tenant: u64,
    /// Bytes per file.
    pub file_bytes: u64,
    /// Requests to generate across the whole fleet.
    pub requests: u64,
    /// Mean of the exponential inter-arrival gap, virtual ns.
    pub mean_interarrival_ns: u64,
    /// Reads per request.
    pub reads_per_request: u64,
    /// Bytes per read.
    pub read_bytes: u64,
    /// Zipfian skew of tenant popularity (strictly in `(0, 1)`).
    pub zipf_theta: f64,
    /// Execute only this tenant's requests, keeping every RNG draw of the
    /// full stream (the unloaded-baseline replay).
    pub only_tenant: Option<usize>,
    /// RNG seed.
    pub seed: u64,
}

impl Default for FleetConfig {
    fn default() -> Self {
        Self {
            tenants: vec![
                FleetTenantSpec::new("batch-a", QosClass::Bronze, true),
                FleetTenantSpec::new("batch-b", QosClass::Bronze, true),
                FleetTenantSpec::new("standard", QosClass::Silver, false),
                FleetTenantSpec::new("gold", QosClass::Gold, false),
            ],
            files_per_tenant: 4,
            file_bytes: 8 << 20,
            requests: 4096,
            mean_interarrival_ns: 20 * simclock::NS_PER_US,
            reads_per_request: 4,
            read_bytes: 64 * 1024,
            zipf_theta: 0.9,
            only_tenant: None,
            seed: 42,
        }
    }
}

impl FleetConfig {
    /// The mixed-QoS fleet the arbitration gate and the `ablations` bench
    /// share: two hot bronze batch tenants bursting at hashed-random
    /// offsets over cold 32 MiB files, a silver and a gold tenant each
    /// streaming one long cold pass over 128 MiB (so their only structural
    /// misses are the initial readahead ramp — anything beyond that is
    /// inflicted by the fleet), 16 KiB reads, 8192 requests. ~320 MiB in
    /// all: run it behind a 16 MB cache and prefetch credit is the
    /// contended resource. Open loop at `mean_interarrival_ns`; the
    /// arbitrated fleet saturates near 185 us (~5400 req/s).
    pub fn mixed_qos(mean_interarrival_ns: u64) -> Self {
        let streaming =
            |name, qos| FleetTenantSpec::new(name, qos, false).with_file_bytes(128 << 20);
        Self {
            tenants: vec![
                FleetTenantSpec::new("batch-a", QosClass::Bronze, true),
                FleetTenantSpec::new("batch-b", QosClass::Bronze, true),
                streaming("standard", QosClass::Silver),
                streaming("gold", QosClass::Gold),
            ],
            requests: 8192,
            mean_interarrival_ns,
            files_per_tenant: 1,
            file_bytes: 32 << 20,
            read_bytes: 16 * 1024,
            ..Self::default()
        }
    }

    /// The arbiter-facing tenant table (same order as [`Self::tenants`],
    /// so [`TenantId`] indexes agree).
    pub fn tenant_specs(&self) -> Vec<TenantSpec> {
        self.tenants
            .iter()
            .map(|t| TenantSpec::new(&t.name, t.qos))
            .collect()
    }

    /// Path of tenant `t`'s file `f`.
    pub fn path(&self, tenant: usize, file: u64) -> String {
        format!("/fleet/t{tenant}/f{file}.bin")
    }

    /// File size for tenant `t` (the per-tenant override, if any).
    pub fn tenant_file_bytes(&self, tenant: usize) -> u64 {
        self.tenants[tenant].file_bytes.unwrap_or(self.file_bytes)
    }

    /// Aggregate dataset bytes across all tenants.
    pub fn dataset_bytes(&self) -> u64 {
        (0..self.tenants.len())
            .map(|t| self.files_per_tenant * self.tenant_file_bytes(t))
            .sum()
    }
}

/// Per-tenant outcome.
#[derive(Debug, Clone)]
pub struct FleetTenantResult {
    /// Tenant name.
    pub name: String,
    /// Requests executed.
    pub requests: u64,
    /// Reads issued.
    pub reads: u64,
    /// Reads that missed the cache (paid a demand fill).
    pub miss_reads: u64,
    /// Pages those reads covered.
    pub pages: u64,
    /// Pages served from cache (hits + prefetch hits).
    pub hit_pages: u64,
    /// Median request response time (completion − arrival), virtual ns.
    pub p50_response_ns: u64,
    /// p99 request response time, virtual ns.
    pub p99_response_ns: u64,
    /// Median per-read demand latency (service time only — excludes the
    /// open-loop queueing delay response time carries), virtual ns.
    pub p50_read_ns: u64,
    /// p99 per-read demand latency, virtual ns.
    pub p99_read_ns: u64,
}

/// Fleet outcome.
#[derive(Debug, Clone)]
pub struct FleetResult {
    /// Per-tenant rows, in tenant-table order.
    pub per_tenant: Vec<FleetTenantResult>,
    /// Requests executed (equals the config's `requests` unless
    /// `only_tenant` filtered the stream).
    pub requests: u64,
    /// Virtual span of the run.
    pub elapsed_ns: u64,
    /// p99.9 per-read demand latency over every tenant's reads, virtual ns.
    pub p999_read_ns: u64,
}

impl FleetResult {
    /// The row for `name`, if present.
    pub fn tenant(&self, name: &str) -> Option<&FleetTenantResult> {
        self.per_tenant.iter().find(|t| t.name == name)
    }
}

/// SplitMix64 finalizer (deterministic offset hash).
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// One exponential inter-arrival gap with the given mean.
fn exp_gap<R: Rng>(rng: &mut R, mean_ns: u64) -> u64 {
    let u: f64 = rng.gen();
    let u = (1.0 - u).max(f64::MIN_POSITIVE); // ln(0) guard
    (-(u.ln()) * mean_ns as f64) as u64
}

/// Sorted-slice percentile (nearest-rank on the inclusive scale).
fn percentile(sorted: &[u64], pct: u64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let idx = ((sorted.len() - 1) as u64 * pct).div_ceil(100) as usize;
    sorted[idx.min(sorted.len() - 1)]
}

/// Creates every tenant's dataset (preallocated, cold cache).
pub fn setup_fleet(runtime: &Runtime, cfg: &FleetConfig) {
    for t in 0..cfg.tenants.len() {
        for f in 0..cfg.files_per_tenant {
            runtime
                .os()
                .fs()
                .create_sized(&cfg.path(t, f), cfg.tenant_file_bytes(t))
                .expect("fresh namespace");
        }
    }
}

/// Runs the arrival loop. Call [`setup_fleet`] first.
pub fn run_fleet(runtime: &Runtime, clock: &mut ThreadClock, cfg: &FleetConfig) -> FleetResult {
    assert!(!cfg.tenants.is_empty(), "fleet needs at least one tenant");
    assert!(cfg.files_per_tenant > 0, "tenants need at least one file");
    assert!(cfg.read_bytes > 0 && cfg.read_bytes <= cfg.file_bytes);
    let start = clock.now();
    let zipf = Zipfian::new(cfg.tenants.len() as u64, cfg.zipf_theta);
    let mut rng = StdRng::seed_from_u64(cfg.seed);

    let tenant_count = cfg.tenants.len();
    let files = cfg.files_per_tenant as usize;
    // Lazily opened handles and per-file sequential cursors, per tenant.
    let mut handles: Vec<Vec<Option<crossprefetch::CpFile>>> = (0..tenant_count)
        .map(|_| (0..files).map(|_| None).collect())
        .collect();
    let mut cursors: Vec<Vec<u64>> = (0..tenant_count).map(|_| vec![0; files]).collect();
    let mut latencies: Vec<Vec<u64>> = vec![Vec::new(); tenant_count];
    let mut read_lats: Vec<Vec<u64>> = vec![Vec::new(); tenant_count];
    let mut rows: Vec<FleetTenantResult> = cfg
        .tenants
        .iter()
        .map(|t| FleetTenantResult {
            name: t.name.clone(),
            requests: 0,
            reads: 0,
            miss_reads: 0,
            pages: 0,
            hit_pages: 0,
            p50_response_ns: 0,
            p99_response_ns: 0,
            p50_read_ns: 0,
            p99_read_ns: 0,
        })
        .collect();

    let slots: Vec<u64> = (0..tenant_count)
        .map(|t| (cfg.tenant_file_bytes(t) / cfg.read_bytes).max(1))
        .collect();
    let mut arrival = start;
    let mut executed = 0u64;
    for _ in 0..cfg.requests {
        // Every draw happens unconditionally so an `only_tenant` replay
        // sees the identical arrival stream.
        let tenant = zipf.sample(&mut rng) as usize;
        arrival += exp_gap(&mut rng, cfg.mean_interarrival_ns);
        let file = rng.gen_range(0..cfg.files_per_tenant) as usize;
        let raw = rng.next_u64();
        if cfg.only_tenant.is_some_and(|only| only != tenant) {
            continue;
        }
        // Open loop: an arrival in the future idles the driver forward; an
        // arrival in the past starts late and eats the delay as queueing.
        if arrival > clock.now() {
            clock.advance_to(arrival);
        }
        let handle = handles[tenant][file].get_or_insert_with(|| {
            runtime
                .open_for_tenant(
                    clock,
                    &cfg.path(tenant, file as u64),
                    TenantId(tenant as u32),
                )
                .expect("setup ran")
        });
        let spec = &cfg.tenants[tenant];
        let slots = slots[tenant];
        let burst_start = splitmix64(raw) % slots;
        for r in 0..cfg.reads_per_request {
            let offset = if spec.random {
                ((burst_start + r) % slots) * cfg.read_bytes
            } else {
                let cursor = cursors[tenant][file];
                cursors[tenant][file] = (cursor + cfg.read_bytes) % (slots * cfg.read_bytes);
                cursor
            };
            let before = clock.now();
            let outcome = handle.read_charge(clock, offset, cfg.read_bytes);
            read_lats[tenant].push(clock.now() - before);
            let row = &mut rows[tenant];
            row.reads += 1;
            row.pages += outcome.pages;
            row.hit_pages += outcome.hit_pages;
            if outcome.miss_pages > 0 {
                row.miss_reads += 1;
            }
        }
        rows[tenant].requests += 1;
        latencies[tenant].push(clock.now() - arrival);
        executed += 1;
    }

    for (tenant, (row, lats)) in rows.iter_mut().zip(latencies.iter_mut()).enumerate() {
        lats.sort_unstable();
        row.p50_response_ns = percentile(lats, 50);
        row.p99_response_ns = percentile(lats, 99);
        let reads = &mut read_lats[tenant];
        reads.sort_unstable();
        row.p50_read_ns = percentile(reads, 50);
        row.p99_read_ns = percentile(reads, 99);
    }
    let mut reads = read_lats.concat();
    reads.sort_unstable();
    let p999 = (reads.len().saturating_sub(1) * 999).div_ceil(1000);
    FleetResult {
        per_tenant: rows,
        requests: executed,
        elapsed_ns: (clock.now() - start).max(1),
        p999_read_ns: reads.get(p999).copied().unwrap_or(0),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crossprefetch::{Mode, RuntimeConfig, RuntimeReport, TenantsConfig};
    use simos::{Device, DeviceConfig, FileSystem, FsKind, Os, OsConfig};

    fn runtime(memory_mb: u64, with_arbiter: bool, cfg: &FleetConfig) -> Runtime {
        let os = Os::new(
            OsConfig::with_memory_mb(memory_mb),
            Device::new(DeviceConfig::local_nvme()),
            FileSystem::new(FsKind::Ext4Like),
        );
        let mut config = RuntimeConfig::new(Mode::PredictOpt);
        if with_arbiter {
            config.tenants = Some(TenantsConfig::new(cfg.tenant_specs()));
        }
        Runtime::new(os, config)
    }

    fn small_cfg() -> FleetConfig {
        FleetConfig {
            requests: 512,
            file_bytes: 1 << 20,
            files_per_tenant: 2,
            ..FleetConfig::default()
        }
    }

    #[test]
    fn request_counts_add_up() {
        let cfg = small_cfg();
        let rt = runtime(64, true, &cfg);
        setup_fleet(&rt, &cfg);
        let mut clock = rt.new_clock();
        let result = run_fleet(&rt, &mut clock, &cfg);
        assert_eq!(result.requests, cfg.requests);
        let total: u64 = result.per_tenant.iter().map(|t| t.requests).sum();
        assert_eq!(total, cfg.requests);
        // Zipf over tenant index: the first (bronze) tenant is hottest.
        assert!(result.per_tenant[0].requests > result.per_tenant[3].requests);
        // Every tenant sees traffic (starvation sanity).
        assert!(result.per_tenant.iter().all(|t| t.requests > 0));
    }

    #[test]
    fn only_tenant_replays_the_same_arrivals() {
        let cfg = small_cfg();
        let rt = runtime(64, true, &cfg);
        setup_fleet(&rt, &cfg);
        let mut clock = rt.new_clock();
        let full = run_fleet(&rt, &mut clock, &cfg);

        let solo_cfg = FleetConfig {
            only_tenant: Some(3),
            ..cfg.clone()
        };
        let rt2 = runtime(64, true, &solo_cfg);
        setup_fleet(&rt2, &solo_cfg);
        let mut clock2 = rt2.new_clock();
        let solo = run_fleet(&rt2, &mut clock2, &solo_cfg);
        // The replay executes exactly the tenant's share of the stream.
        assert_eq!(solo.requests, full.per_tenant[3].requests);
        assert_eq!(solo.per_tenant[3].reads, full.per_tenant[3].reads);
        assert_eq!(solo.per_tenant[0].requests, 0);
    }

    #[test]
    fn same_seed_runs_are_identical() {
        let cfg = small_cfg();
        let mut exports = Vec::new();
        for _ in 0..2 {
            let rt = runtime(16, true, &cfg);
            setup_fleet(&rt, &cfg);
            let mut clock = rt.new_clock();
            run_fleet(&rt, &mut clock, &cfg);
            exports.push(RuntimeReport::collect(&rt).to_json());
        }
        assert_eq!(exports[0], exports[1]);
    }
}
