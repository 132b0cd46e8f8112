//! Tenants as labels on one shared page cache (DESIGN.md §15). The paper
//! manages one page cache per host with a global LRU and memory
//! watermarks (§4.6), and so does this runtime for every reader: a tenant
//! adds no admission decision of its own. An open may carry a
//! [`TenantId`]; the files opened under it share its books — pages
//! admitted, pages the OS initiated, and the timely/late/wasted quality
//! ledger over its files (MITHRIL's utility accounting, per tenant).
//! Without [`crate::RuntimeConfig::tenants`] (the default) no table exists;
//! with it, only telemetry's additive `tenants` section differs.

use std::fmt::Write as _;
use std::sync::Arc;

use parking_lot::Mutex;
use simclock::Counter;
use simos::cache::InodeCache;
use simos::{Os, PrefetchQuality};

use crate::telemetry::{push_json_string, Metric};

/// Identifies a tenant: an index into [`TenantsConfig::tenants`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TenantId(pub u32);

/// `LibFile::tenant` sentinel for files opened without a tenant.
pub(crate) const UNBOUND_TENANT: u32 = u32::MAX;

/// Service class of a tenant: a label for report rows and per-class tails.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum QosClass {
    /// Latency-sensitive.
    Gold,
    /// Standard service.
    Silver,
    /// Best-effort / batch.
    Bronze,
}

impl QosClass {
    /// Label used in telemetry and bench tables.
    pub fn label(self) -> &'static str {
        match self {
            QosClass::Gold => "gold",
            QosClass::Silver => "silver",
            QosClass::Bronze => "bronze",
        }
    }
}

/// One configured tenant.
#[derive(Debug, Clone)]
pub struct TenantSpec {
    /// Stable name (telemetry key).
    pub name: String,
    /// Service class.
    pub qos: QosClass,
}

impl TenantSpec {
    /// Convenience constructor.
    pub fn new(name: &str, qos: QosClass) -> Self {
        Self {
            name: name.to_string(),
            qos,
        }
    }
}

/// The tenant table handed to [`crate::RuntimeConfig::tenants`].
#[derive(Debug, Clone)]
pub struct TenantsConfig {
    /// The tenant table; [`TenantId`] indexes into it.
    pub tenants: Vec<TenantSpec>,
}

impl TenantsConfig {
    /// A table of the given tenants.
    pub fn new(tenants: Vec<TenantSpec>) -> Self {
        Self { tenants }
    }
}

/// One tenant's books.
#[derive(Debug)]
struct TenantState {
    spec: TenantSpec,
    /// Caches of the files opened under this tenant.
    files: Mutex<Vec<Arc<InodeCache>>>,
    /// Pages the OS initiated for this tenant's prefetches: the right side
    /// of its `timely + late + wasted == initiated` ledger identity.
    initiated_pages: Counter,
    /// Pages of the prefetch requests admitted for this tenant.
    admitted_pages: Counter,
}

/// Point-in-time per-tenant telemetry row.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TenantReport {
    /// Tenant name.
    pub name: String,
    /// QoS label.
    pub qos: &'static str,
    /// Pages the OS initiated for this tenant (monotone).
    pub initiated_pages: u64,
    /// Pages admitted (monotone).
    pub admitted_pages: u64,
    /// Always 0 (nothing is degraded); `benchmark/` reads it (ROADMAP 1-A).
    pub degraded_coalesced: u64,
    /// Always 0 (nothing is degraded); `benchmark/` reads it (ROADMAP 1-A).
    pub degraded_blind: u64,
    /// Always 0 (nothing is denied); `benchmark/` reads it (ROADMAP 1-A).
    pub denied_pages: u64,
}

impl TenantReport {
    /// Interval accounting: page counts minus `earlier`, saturating.
    pub fn delta(&self, earlier: &TenantReport) -> TenantReport {
        TenantReport {
            initiated_pages: self.initiated_pages.saturating_sub(earlier.initiated_pages),
            admitted_pages: self.admitted_pages.saturating_sub(earlier.admitted_pages),
            ..self.clone()
        }
    }
}

/// Tenant rows export as a JSON array and difference by tenant name.
impl Metric for Vec<TenantReport> {
    fn write_json(&self, out: &mut String) {
        out.push('[');
        for (i, row) in self.iter().enumerate() {
            out.push_str(if i > 0 { ",{\"name\":" } else { "{\"name\":" });
            push_json_string(out, &row.name);
            let _ = write!(
                out,
                ",\"qos\":\"{}\",\"initiated_pages\":{},\"admitted_pages\":{},\"degraded_coalesced\":{},\"degraded_blind\":{},\"denied_pages\":{}}}",
                row.qos,
                row.initiated_pages,
                row.admitted_pages,
                row.degraded_coalesced,
                row.degraded_blind,
                row.denied_pages
            );
        }
        out.push(']');
    }
    fn since(&self, earlier: &Self) -> Self {
        self.iter()
            .map(|row| {
                let prior = earlier.iter().find(|r| r.name == row.name);
                prior.map_or_else(|| row.clone(), |r| row.delta(r))
            })
            .collect()
    }
}

/// The tenant table and its books (one per [`crate::Runtime`] when
/// [`crate::RuntimeConfig::tenants`] is set). It decides nothing: a
/// tenant's request is planned as an untenanted one is, and billed here.
#[derive(Debug)]
pub struct TenantArbiter {
    tenants: Vec<TenantState>,
}

impl TenantArbiter {
    /// Builds the books for a tenant table.
    pub fn new(config: TenantsConfig) -> Self {
        let tenants = config
            .tenants
            .into_iter()
            .map(|spec| TenantState {
                spec,
                files: Mutex::new(Vec::new()),
                initiated_pages: Counter::new(),
                admitted_pages: Counter::new(),
            })
            .collect();
        Self { tenants }
    }

    /// Registers the file whose cache is `cache` under `tenant`; `false`
    /// (tracking nothing) for a tenant outside the table.
    pub fn bind(&self, tenant: TenantId, cache: &Arc<InodeCache>) -> bool {
        let Some(state) = self.tenants.get(tenant.0 as usize) else {
            return false;
        };
        let mut files = state.files.lock();
        if !files.iter().any(|bound| Arc::ptr_eq(bound, cache)) {
            files.push(Arc::clone(cache));
        }
        true
    }

    /// Bills `pages` admitted prefetch pages to `tenant`; `false` (billing
    /// nothing) for a tenant outside the table. The OS and time go unused;
    /// `benchmark/`'s probe passes them until ROADMAP item 1-A drops it.
    pub fn admit(&self, _os: &Os, tenant: u32, pages: u64, _now_ns: u64) -> bool {
        let Some(state) = self.tenants.get(tenant as usize) else {
            return false;
        };
        state.admitted_pages.add(pages);
        true
    }

    /// Records pages the OS initiated on behalf of `tenant`'s files.
    pub fn note_initiated(&self, tenant: u32, pages: u64) {
        if let Some(state) = self.tenants.get(tenant as usize) {
            state.initiated_pages.add(pages);
        }
    }

    /// Aggregate prefetch quality over one tenant's files.
    pub fn tenant_quality(&self, tenant: TenantId) -> PrefetchQuality {
        let mut total = PrefetchQuality::default();
        if let Some(state) = self.tenants.get(tenant.0 as usize) {
            for cache in state.files.lock().iter() {
                total.merge(cache.state.read().quality());
            }
        }
        total
    }

    /// Per-tenant telemetry rows, in table order.
    pub fn reports(&self) -> Vec<TenantReport> {
        self.tenants
            .iter()
            .map(|state| TenantReport {
                name: state.spec.name.clone(),
                qos: state.spec.qos.label(),
                initiated_pages: state.initiated_pages.get(),
                admitted_pages: state.admitted_pages.get(),
                ..TenantReport::default()
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simos::{Device, DeviceConfig, FileSystem, FsKind, OsConfig, PAGE_SIZE};
    use std::sync::Arc;

    fn small_os() -> Arc<Os> {
        // 1024-page budget (4 MiB).
        let mut config = OsConfig::with_memory_mb(4);
        config.reclaim_slack = 0.0;
        Os::new(
            config,
            Device::new(DeviceConfig::local_nvme()),
            FileSystem::new(FsKind::Ext4Like),
        )
    }

    fn two_tenants() -> TenantsConfig {
        TenantsConfig::new(vec![
            TenantSpec::new("gold", QosClass::Gold),
            TenantSpec::new("bronze", QosClass::Bronze),
        ])
    }

    /// Binds a fresh file to `tenant` and prefetches its head with
    /// `readahead(2)`, billing the initiated pages to the tenant as the
    /// runtime does; with `consume` the pages are then read, otherwise the
    /// cache is dropped. Returns the pages initiated.
    fn speculate(os: &Os, arbiter: &TenantArbiter, tenant: u32, consume: bool) -> u64 {
        let mut clock = os.new_clock();
        let bytes = 64 * PAGE_SIZE;
        let fd = os
            .create_sized(&mut clock, &format!("/t{tenant}"), bytes)
            .unwrap();
        let file = os.fd_entry(fd);
        assert!(arbiter.bind(TenantId(tenant), &file.cache));
        let initiated = os.try_readahead(&mut clock, &file, 0, bytes).unwrap();
        assert!(initiated > 0);
        arbiter.note_initiated(tenant, initiated);
        if consume {
            os.read_charge(&mut clock, fd, 0, initiated * PAGE_SIZE);
        } else {
            os.drop_caches(&mut clock);
        }
        initiated
    }

    /// `tenant`'s admitted pages so far.
    fn admitted(arbiter: &TenantArbiter, tenant: usize) -> u64 {
        arbiter.reports()[tenant].admitted_pages
    }

    #[test]
    fn no_pressure_admits_everything() {
        let os = small_os();
        let arbiter = TenantArbiter::new(two_tenants());
        assert!(arbiter.admit(&os, 0, 1 << 20, 0));
        assert!(arbiter.admit(&os, 1, 1 << 20, 0));
        assert_eq!(
            (admitted(&arbiter, 0), admitted(&arbiter, 1)),
            (1 << 20, 1 << 20)
        );
    }

    #[test]
    fn unknown_tenant_bypasses() {
        let os = small_os();
        let arbiter = TenantArbiter::new(two_tenants());
        let before = arbiter.reports();
        assert!(!arbiter.admit(&os, 99, 1 << 20, 0));
        arbiter.note_initiated(99, 1 << 20);
        assert_eq!(arbiter.reports(), before);
        let fd = os.create_sized(&mut os.new_clock(), "/u", 0).unwrap();
        assert!(!arbiter.bind(TenantId(99), &os.fd_entry(fd).cache));
    }

    /// A tenant whose every prefetched page was wasted is billed every
    /// page it asks for, however far past any share of the cache, and
    /// nothing is ever counted degraded or denied.
    #[test]
    fn waste_does_not_gate_admission() {
        let os = small_os();
        let arbiter = TenantArbiter::new(two_tenants());
        let initiated = speculate(&os, &arbiter, 1, false);
        assert_eq!(arbiter.tenant_quality(TenantId(1)).wasted, initiated);
        let burst = os.mem().budget() * 8;
        for round in 1..=4 {
            arbiter.admit(&os, 1, burst, round * 20 * simclock::NS_PER_MS);
            assert_eq!(admitted(&arbiter, 1), round * burst);
        }
        let row = &arbiter.reports()[1];
        let degraded = (row.degraded_coalesced, row.degraded_blind, row.denied_pages);
        assert_eq!(degraded, (0, 0, 0));
        assert_eq!(row.initiated_pages, initiated);
    }

    /// Known runs of wholly wasteful tenants are billed span by span: each
    /// admitted request adds exactly its width, long past the pool that
    /// once bound them, and none is counted degraded.
    #[test]
    fn known_runs_are_billed_their_span() {
        let os = small_os();
        let arbiter = TenantArbiter::new(two_tenants());
        for tenant in [0, 1] {
            let initiated = speculate(&os, &arbiter, tenant, false);
            assert_eq!(arbiter.tenant_quality(TenantId(tenant)).wasted, initiated);
        }
        let width = 12;
        let runs = os.mem().budget() / width + 1;
        for run in 1..=runs {
            arbiter.admit(&os, 1, width, 0);
            assert_eq!(admitted(&arbiter, 1), run * width);
        }
        assert!(admitted(&arbiter, 1) > os.mem().budget());
        assert_eq!(admitted(&arbiter, 0), 0);
        let row = &arbiter.reports()[1];
        assert_eq!((row.degraded_coalesced, row.denied_pages), (0, 0));
    }

    #[test]
    fn accurate_speculation_rides_full_at_full_residency() {
        let os = small_os();
        let arbiter = TenantArbiter::new(two_tenants());
        let initiated = speculate(&os, &arbiter, 0, true);
        let q = arbiter.tenant_quality(TenantId(0));
        assert_eq!((q.timely + q.late, q.wasted), (initiated, 0));
        os.mem().note_inserted(os.mem().free_pages()); // cache full
                                                       // Residency is no signal: the request is billed in full.
        let want = os.mem().budget() * 8;
        arbiter.admit(&os, 0, want, 0);
        assert_eq!(admitted(&arbiter, 0), want);
    }

    #[test]
    fn report_delta_is_monotone_and_point_in_time() {
        let os = small_os();
        let arbiter = TenantArbiter::new(two_tenants());
        arbiter.note_initiated(0, 10);
        arbiter.admit(&os, 0, 7, 0);
        let earlier = arbiter.reports();
        arbiter.note_initiated(0, 5);
        arbiter.admit(&os, 0, 3, 0);
        let later = arbiter.reports();
        let delta = later[0].delta(&earlier[0]);
        assert_eq!((delta.initiated_pages, delta.admitted_pages), (5, 3));
        assert_eq!((delta.name.as_str(), delta.qos), ("gold", "gold"));
    }
}
