//! Multi-tenant prefetch budgets and QoS-weighted admission control.
//!
//! The paper arbitrates one page cache per host with a global LRU and
//! high/low watermarks; a fleet deployment serves many tenants whose
//! working sets fight for that one cache. This module adds the missing
//! dimension (DESIGN.md §15): every open may carry a [`TenantId`], each
//! tenant holds a fair-share *prefetch window* over a fixed slice (half)
//! of the memory budget, and speculative prefetch degrades — full →
//! coalesced-only → blind → none — under [`simos::reclaim::MemoryManager`]
//! pressure *before* any demand read pays.
//!
//! Shares are weighted by the configured [`QosClass`] and scaled by each
//! tenant's own timely/late/wasted prefetch-quality ledger, so a tenant
//! whose speculation is mostly wasted is throttled first (MITHRIL's
//! utility-driven accounting, applied to admission).
//!
//! With [`crate::RuntimeConfig::tenants`] unset (the default) no arbiter
//! exists, every new code path is bypassed, and telemetry stays
//! byte-identical to the tenant-less runtime.

use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};

use parking_lot::Mutex;
use simclock::Counter;
use simos::{InodeId, Os, PrefetchQuality};

use crate::telemetry::{push_json_string, Metric};

/// Identifies a tenant: an index into [`TenantsConfig::tenants`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TenantId(pub u32);

/// `LibFile::tenant` sentinel for files opened without a tenant.
pub(crate) const UNBOUND_TENANT: u32 = u32::MAX;

/// Service class of a tenant; the static half of its fair-share weight.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum QosClass {
    /// Latency-sensitive, highest share.
    Gold,
    /// Standard service.
    Silver,
    /// Best-effort / batch.
    Bronze,
}

impl QosClass {
    /// Static fair-share weight (gold:silver:bronze = 8:4:1).
    pub fn weight(self) -> u64 {
        match self {
            QosClass::Gold => 8,
            QosClass::Silver => 4,
            QosClass::Bronze => 1,
        }
    }

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

/// The tenant table handed to [`crate::RuntimeConfig::tenants`]. The
/// arbiter's tuning is not configurable: it lives in this module's
/// constants beside the code that reads each one.
#[derive(Debug, Clone)]
pub struct TenantsConfig {
    /// The tenant table; [`TenantId`] indexes into it.
    pub tenants: Vec<TenantSpec>,
}

impl TenantsConfig {
    /// An arbiter over the given tenant table.
    pub fn new(tenants: Vec<TenantSpec>) -> Self {
        Self { tenants }
    }
}

/// Fraction of the OS memory budget the per-rebalance prefetch-window
/// pool covers. Shares of this pool — not of the whole cache — are what
/// admission strains against, so demand-filled pages are never charged
/// to a tenant.
const WINDOW_BUDGET_FRACTION: f64 = 0.5;
/// Virtual-time interval between share rebalances; each rebalance
/// re-reads every tenant's quality ledger and resets window usage.
const REBALANCE_INTERVAL_NS: u64 = 10 * simclock::NS_PER_MS;
/// Fraction of the memory budget below which admission is free: with
/// resident pages under this low watermark there is no pressure and
/// every request rides the `Full` rung.
const PRESSURE_FLOOR: f64 = 0.5;
/// Floor of the quality scaling: a tenant whose prefetch is 100% wasted
/// still keeps this fraction of its QoS weight, so it can re-earn its
/// share when its access pattern turns useful.
const EFFICIENCY_FLOOR: f64 = 0.25;

/// The admission ladder, in degradation order. Speculation gives way
/// first; demand reads are never gated.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AdmissionRung {
    /// Admit as planned (visibility, relaxed limits, batching).
    Full,
    /// Admit, but force run coalescing so the submission count shrinks.
    CoalescedOnly,
    /// Admit one blind `readahead(2)` window only: no relaxed limits, no
    /// vectored batching, request clamped to the OS window.
    Blind,
    /// Reject the speculative prefetch outright.
    Deny,
}

/// Per-tenant arbiter state.
#[derive(Debug)]
struct TenantState {
    spec: TenantSpec,
    /// Files opened under this tenant (the tenant → files registry).
    inodes: Mutex<Vec<InodeId>>,
    /// Prefetch-window share from the last rebalance, pages.
    budget_pages: AtomicU64,
    /// Pages admitted against the window since the last rebalance.
    window_used: AtomicU64,
    /// Pages the OS initiated for this tenant's prefetches (the
    /// per-tenant half of the `timely + late + wasted == initiated`
    /// ledger invariant).
    initiated_pages: Counter,
    /// Pages admitted through any non-`Deny` rung.
    admitted_pages: Counter,
    /// Requests degraded to coalesced-only submission.
    degraded_coalesced: Counter,
    /// Requests degraded to a single blind window.
    degraded_blind: Counter,
    /// Requests denied.
    denied: Counter,
    /// Pages those denials covered.
    denied_pages: Counter,
}

impl TenantState {
    /// Bills `pages` admitted pages to the current window.
    fn charge(&self, pages: u64) {
        self.window_used.fetch_add(pages, Ordering::Relaxed);
        self.admitted_pages.add(pages);
    }

    fn quality(&self, os: &Os) -> PrefetchQuality {
        let mut total = PrefetchQuality::default();
        for &ino in self.inodes.lock().iter() {
            total.merge(os.cache(ino).state.read().quality());
        }
        total
    }
}

/// Point-in-time per-tenant telemetry row.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TenantReport {
    /// Tenant name.
    pub name: String,
    /// QoS label.
    pub qos: &'static str,
    /// Static QoS weight.
    pub weight: u64,
    /// Window share at snapshot time, pages.
    pub budget_pages: u64,
    /// Window usage at snapshot time, pages.
    pub window_used_pages: u64,
    /// Pages the OS initiated for this tenant (monotone).
    pub initiated_pages: u64,
    /// Pages admitted (monotone).
    pub admitted_pages: u64,
    /// Coalesced-only degradations (monotone).
    pub degraded_coalesced: u64,
    /// Blind-window degradations (monotone).
    pub degraded_blind: u64,
    /// Denied requests (monotone).
    pub denied: u64,
    /// Pages denied (monotone).
    pub denied_pages: u64,
}

impl TenantReport {
    /// Interval accounting: monotone fields minus `earlier`, saturating;
    /// point-in-time fields (budget, window usage) from `self`.
    pub fn delta(&self, earlier: &TenantReport) -> TenantReport {
        TenantReport {
            name: self.name.clone(),
            qos: self.qos,
            weight: self.weight,
            budget_pages: self.budget_pages,
            window_used_pages: self.window_used_pages,
            initiated_pages: self.initiated_pages.saturating_sub(earlier.initiated_pages),
            admitted_pages: self.admitted_pages.saturating_sub(earlier.admitted_pages),
            degraded_coalesced: self
                .degraded_coalesced
                .saturating_sub(earlier.degraded_coalesced),
            degraded_blind: self.degraded_blind.saturating_sub(earlier.degraded_blind),
            denied: self.denied.saturating_sub(earlier.denied),
            denied_pages: self.denied_pages.saturating_sub(earlier.denied_pages),
        }
    }
}

/// Telemetry export: tenant rows render as a JSON array and difference
/// by tenant name.
impl Metric for Vec<TenantReport> {
    fn write_json(&self, out: &mut String) {
        out.push('[');
        for (i, row) in self.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("{\"name\":");
            push_json_string(out, &row.name);
            let _ = write!(
                out,
                ",\"qos\":\"{}\",\"weight\":{},\"budget_pages\":{},\"window_used_pages\":{},\"initiated_pages\":{},\"admitted_pages\":{},\"degraded_coalesced\":{},\"degraded_blind\":{},\"denied\":{},\"denied_pages\":{}}}",
                row.qos,
                row.weight,
                row.budget_pages,
                row.window_used_pages,
                row.initiated_pages,
                row.admitted_pages,
                row.degraded_coalesced,
                row.degraded_blind,
                row.denied,
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

/// `value * fraction` in integer arithmetic (permille resolution), so the
/// arbiter never inherits the float-watermark drift the reclaim path
/// just shed.
fn mul_frac(value: u64, fraction: f64) -> u64 {
    let permille = (fraction.clamp(0.0, 1.0) * 1000.0).round() as u128;
    ((value as u128 * permille) / 1000) as u64
}

/// The fair-share admission arbiter (one per [`crate::Runtime`] when
/// [`crate::RuntimeConfig::tenants`] is set).
#[derive(Debug)]
pub struct TenantArbiter {
    tenants: Vec<TenantState>,
    /// Virtual time of the next share rebalance (0 = at first admit).
    next_rebalance_ns: AtomicU64,
    /// Serializes rebalances without blocking admission.
    rebalance_gate: Mutex<()>,
    /// Rebalances run.
    rebalances: Counter,
}

impl TenantArbiter {
    /// Builds the arbiter for a tenant table.
    pub fn new(config: TenantsConfig) -> Self {
        let tenants = config
            .tenants
            .into_iter()
            .map(|spec| TenantState {
                spec,
                inodes: Mutex::new(Vec::new()),
                budget_pages: AtomicU64::new(u64::MAX),
                window_used: AtomicU64::new(0),
                initiated_pages: Counter::new(),
                admitted_pages: Counter::new(),
                degraded_coalesced: Counter::new(),
                degraded_blind: Counter::new(),
                denied: Counter::new(),
                denied_pages: Counter::new(),
            })
            .collect();
        Self {
            tenants,
            next_rebalance_ns: AtomicU64::new(0),
            rebalance_gate: Mutex::new(()),
            rebalances: Counter::new(),
        }
    }

    /// Registers `ino` under `tenant`; returns `false` (and tracks
    /// nothing) for a tenant outside the configured table.
    pub fn bind(&self, tenant: TenantId, ino: InodeId) -> bool {
        let Some(state) = self.tenants.get(tenant.0 as usize) else {
            return false;
        };
        let mut inodes = state.inodes.lock();
        if !inodes.contains(&ino) {
            inodes.push(ino);
        }
        true
    }

    /// Admission decision for a `want`-page speculative prefetch by
    /// `tenant`, charging the tenant's window for whatever rung admits.
    pub fn admit(&self, os: &Os, tenant: u32, want: u64, now_ns: u64) -> AdmissionRung {
        let Some(state) = self.tenants.get(tenant as usize) else {
            return AdmissionRung::Full;
        };
        self.maybe_rebalance(os, now_ns);
        let rung = self.rung(os, state, want);
        match rung {
            AdmissionRung::Full => state.charge(want),
            AdmissionRung::CoalescedOnly => {
                state.charge(want);
                state.degraded_coalesced.incr();
            }
            AdmissionRung::Blind => {
                // Only one blind OS window is actually issued; charge that.
                state.charge(want.min(os.config().ra_max_pages.max(1)));
                state.degraded_blind.incr();
            }
            AdmissionRung::Deny => {
                state.denied.incr();
                state.denied_pages.add(want);
            }
        }
        rung
    }

    /// Admission of a known run's remainder to the demand crossing of the
    /// miss that starts it (DESIGN §13): explicit speculation is the first
    /// thing pressure takes, so only a tenant still on the `Full` rung is
    /// admitted — and charged, like any prefetch. A refusal charges
    /// nothing: the request comes back through [`TenantArbiter::admit`]
    /// on the run's first continuation and takes its rung there.
    pub fn admit_in_full(&self, os: &Os, tenant: u32, want: u64, now_ns: u64) -> bool {
        let Some(state) = self.tenants.get(tenant as usize) else {
            return true;
        };
        self.maybe_rebalance(os, now_ns);
        let full = self.rung(os, state, want) == AdmissionRung::Full;
        if full {
            state.charge(want);
        }
        full
    }

    /// The rung `want` pages land on right now, without charging.
    fn rung(&self, os: &Os, state: &TenantState, want: u64) -> AdmissionRung {
        let mem = os.mem();
        let low = mul_frac(mem.budget(), PRESSURE_FLOOR);
        let pressure = mem.pressure_above(low);
        if pressure <= 0.0 {
            return AdmissionRung::Full;
        }
        let budget = state.budget_pages.load(Ordering::Relaxed).max(1);
        let used = state.window_used.load(Ordering::Relaxed);
        let strain = used.saturating_add(want).saturating_mul(1000) / budget;
        // Pressure scales how strictly the share binds: at full pressure a
        // tenant degrades as soon as it crosses its share; at half
        // pressure it may reach 2x before the ladder engages.
        let scaled = (strain as f64 * pressure) as u64;
        if scaled <= 1000 {
            AdmissionRung::Full
        } else if scaled <= 1500 {
            AdmissionRung::CoalescedOnly
        } else if scaled <= 2000 {
            AdmissionRung::Blind
        } else {
            AdmissionRung::Deny
        }
    }

    /// Records pages the OS initiated on behalf of `tenant`'s files.
    pub fn note_initiated(&self, tenant: u32, pages: u64) {
        if let Some(state) = self.tenants.get(tenant as usize) {
            state.initiated_pages.add(pages);
        }
    }

    /// Recomputes fair shares once [`REBALANCE_INTERVAL_NS`] has elapsed.
    fn maybe_rebalance(&self, os: &Os, now_ns: u64) {
        let next = self.next_rebalance_ns.load(Ordering::Relaxed);
        if now_ns < next {
            return;
        }
        let _gate = self.rebalance_gate.lock();
        if self.next_rebalance_ns.load(Ordering::Relaxed) != next {
            return; // someone else rebalanced while we waited
        }
        self.rebalance(os);
        self.rebalances.incr();
        self.next_rebalance_ns
            .store(now_ns + REBALANCE_INTERVAL_NS, Ordering::Relaxed);
    }

    /// One rebalance pass: weight = QoS weight × quality efficiency,
    /// where efficiency interpolates from [`EFFICIENCY_FLOOR`] (all wasted)
    /// to 1.0 (every initiated page consumed timely or late). Shares of
    /// the window pool are proportional to weight; window usage resets.
    fn rebalance(&self, os: &Os) {
        let floor_milli = mul_frac(1000, EFFICIENCY_FLOOR);
        let weights: Vec<u64> = self
            .tenants
            .iter()
            .map(|state| {
                let initiated = state.initiated_pages.get();
                let eff_milli = if initiated == 0 {
                    1000 // no evidence yet: full weight
                } else {
                    let q = state.quality(os);
                    let used = (q.timely + q.late).min(initiated);
                    floor_milli + (1000 - floor_milli) * used / initiated
                };
                (state.spec.qos.weight() * eff_milli).max(1)
            })
            .collect();
        let pool = mul_frac(os.mem().budget(), WINDOW_BUDGET_FRACTION);
        let total: u64 = weights.iter().sum::<u64>().max(1);
        for (state, &weight) in self.tenants.iter().zip(&weights) {
            let share = ((pool as u128 * weight as u128) / total as u128) as u64;
            state.budget_pages.store(share.max(1), Ordering::Relaxed);
            state.window_used.store(0, Ordering::Relaxed);
        }
    }

    /// Aggregate prefetch quality over one tenant's files.
    pub fn tenant_quality(&self, os: &Os, tenant: TenantId) -> PrefetchQuality {
        self.tenants
            .get(tenant.0 as usize)
            .map(|state| state.quality(os))
            .unwrap_or_default()
    }

    /// Rebalance passes run so far.
    pub fn rebalances(&self) -> u64 {
        self.rebalances.get()
    }

    /// Per-tenant telemetry rows, in table order.
    pub fn reports(&self) -> Vec<TenantReport> {
        self.tenants
            .iter()
            .map(|state| TenantReport {
                name: state.spec.name.clone(),
                qos: state.spec.qos.label(),
                weight: state.spec.qos.weight(),
                budget_pages: state.budget_pages.load(Ordering::Relaxed),
                window_used_pages: state.window_used.load(Ordering::Relaxed),
                initiated_pages: state.initiated_pages.get(),
                admitted_pages: state.admitted_pages.get(),
                degraded_coalesced: state.degraded_coalesced.get(),
                degraded_blind: state.degraded_blind.get(),
                denied: state.denied.get(),
                denied_pages: state.denied_pages.get(),
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simos::{Device, DeviceConfig, FileSystem, FsKind, OsConfig};
    use std::sync::Arc;

    fn small_os() -> Arc<Os> {
        // 1024-page budget (4 MiB) so pressure is easy to manufacture.
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

    #[test]
    fn tuning_constants_are_pinned() {
        assert_eq!(
            (WINDOW_BUDGET_FRACTION, PRESSURE_FLOOR, EFFICIENCY_FLOOR),
            (0.5, 0.5, 0.25)
        );
        assert_eq!(REBALANCE_INTERVAL_NS, 10 * simclock::NS_PER_MS);
    }

    #[test]
    fn no_pressure_admits_everything() {
        let os = small_os();
        let arbiter = TenantArbiter::new(two_tenants());
        // Empty cache: resident is far below the pressure floor.
        assert_eq!(arbiter.admit(&os, 0, 1 << 20, 0), AdmissionRung::Full);
        assert_eq!(arbiter.admit(&os, 1, 1 << 20, 0), AdmissionRung::Full);
    }

    #[test]
    fn unknown_tenant_bypasses() {
        let os = small_os();
        let arbiter = TenantArbiter::new(two_tenants());
        os.mem().note_inserted(os.mem().budget()); // full pressure
        assert_eq!(arbiter.admit(&os, 99, 1 << 20, 0), AdmissionRung::Full);
        assert!(arbiter.admit_in_full(&os, 99, 1 << 20, 0));
    }

    #[test]
    fn pressure_walks_the_ladder() {
        let os = small_os();
        let arbiter = TenantArbiter::new(two_tenants());
        os.mem().note_inserted(os.mem().budget()); // pressure = 1.0
        arbiter.admit(&os, 0, 1, 0); // trigger the first rebalance
        let gold_share = arbiter.reports()[0].budget_pages;
        assert!(gold_share > 0);
        // Fresh window (pass the next interval): walk strain upward.
        let t1 = 20 * simclock::NS_PER_MS;
        assert_eq!(arbiter.admit(&os, 0, gold_share, t1), AdmissionRung::Full);
        // Window now full; modest overshoot coalesces…
        assert_eq!(
            arbiter.admit(&os, 0, gold_share / 4, t1),
            AdmissionRung::CoalescedOnly
        );
        // …a further push goes blind…
        assert_eq!(
            arbiter.admit(&os, 0, gold_share / 2, t1),
            AdmissionRung::Blind
        );
        // …and a large burst is denied outright.
        assert_eq!(
            arbiter.admit(&os, 0, gold_share * 4, t1),
            AdmissionRung::Deny
        );
        let report = &arbiter.reports()[0];
        assert_eq!(report.degraded_coalesced, 1);
        assert_eq!(report.degraded_blind, 1);
        assert_eq!(report.denied, 1);
        assert_eq!(report.denied_pages, gold_share * 4);
    }

    #[test]
    fn known_runs_are_billed_until_the_tenant_leaves_the_full_rung() {
        let os = small_os();
        let arbiter = TenantArbiter::new(two_tenants());
        os.mem().note_inserted(os.mem().budget()); // pressure = 1.0
        arbiter.admit(&os, 1, 0, 0); // trigger the first rebalance
        let share = arbiter.reports()[1].budget_pages;
        let (width, mut admitted) = (12, 0);
        while arbiter.admit_in_full(&os, 1, width, 0) {
            admitted += 1;
            let report = &arbiter.reports()[1];
            assert_eq!(report.window_used_pages, admitted * width);
            assert_eq!(report.admitted_pages, admitted * width);
        }
        assert_eq!(admitted, share / width, "the share binds at full pressure");
        // The refusal charged nothing and counted nothing as degraded: the
        // request takes its rung when it comes back through `admit`.
        let report = &arbiter.reports()[1];
        assert_eq!(report.window_used_pages, admitted * width);
        assert_eq!((report.degraded_coalesced, report.denied), (0, 0));
        assert_eq!(
            arbiter.admit(&os, 1, width, 0),
            AdmissionRung::CoalescedOnly
        );
    }

    #[test]
    fn qos_weights_split_the_pool() {
        let os = small_os();
        let arbiter = TenantArbiter::new(two_tenants());
        os.mem().note_inserted(os.mem().budget());
        arbiter.admit(&os, 0, 1, 0);
        let reports = arbiter.reports();
        // gold:bronze = 8:1 with no quality evidence yet (floor division
        // of the pool, so pin the exact integer shares).
        let pool = mul_frac(os.mem().budget(), WINDOW_BUDGET_FRACTION);
        assert_eq!(reports[0].budget_pages, pool * 8 / 9);
        assert_eq!(reports[1].budget_pages, pool / 9);
        assert!(reports[0].budget_pages + reports[1].budget_pages <= pool);
    }

    #[test]
    fn deny_charges_nothing_to_the_window() {
        let os = small_os();
        let arbiter = TenantArbiter::new(two_tenants());
        os.mem().note_inserted(os.mem().budget());
        arbiter.admit(&os, 0, 1, 0);
        let before = arbiter.reports()[1].window_used_pages;
        assert_eq!(
            arbiter.admit(&os, 1, os.mem().budget() * 8, 0),
            AdmissionRung::Deny
        );
        assert_eq!(arbiter.reports()[1].window_used_pages, before);
    }

    #[test]
    fn report_delta_is_monotone_and_point_in_time() {
        let os = small_os();
        let arbiter = TenantArbiter::new(two_tenants());
        arbiter.note_initiated(0, 10);
        let earlier = arbiter.reports();
        arbiter.note_initiated(0, 5);
        let later = arbiter.reports();
        let delta = later[0].delta(&earlier[0]);
        assert_eq!(delta.initiated_pages, 5);
        assert_eq!(delta.budget_pages, later[0].budget_pages);
        let _ = os;
    }
}
