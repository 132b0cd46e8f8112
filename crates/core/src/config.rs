//! Runtime modes, feature staging, and tunables.

use predict::{EngineConfig, EngineKind};
use simos::CROSSOS_MAX_PREFETCH_PAGES;

/// The comparison mechanisms of the paper's Table 2 (plus the Figure 2
/// fincore strawman).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Mode {
    /// Application-tailored prefetching via `readahead`/`fadvise`; the
    /// runtime is a pass-through and the workload drives policy.
    AppOnly,
    /// Prefetching fully delegated to the OS heuristic readahead.
    OsOnly,
    /// Cross-layered prediction through `readahead_info`, still subject to
    /// the OS prefetch limits (`CrossP[+predict]`).
    Predict,
    /// `CrossP[+predict+opt]`: prediction plus relaxed OS limits and
    /// memory-budget-aware aggressive prefetching and eviction.
    PredictOpt,
    /// `CrossP[+fetchall+opt]`: cache-state-aware whole-file prefetch at
    /// open; memory-insensitive (no adaptive eviction).
    FetchAllOpt,
    /// `APPonly[fincore]` (Figure 2): a background poller builds cache
    /// awareness with `fincore` and issues `readahead` calls.
    FincoreApp,
}

/// Individual capabilities, for the Table 5 incremental breakdown.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Features {
    /// Intercept I/O and run the access-pattern predictor.
    pub predict: bool,
    /// Use `readahead_info` + exported bitmaps (cache visibility).
    pub visibility: bool,
    /// Per-node range-tree locking (off = one whole-file bitmap lock).
    pub range_tree: bool,
    /// Relax the OS prefetch limit via the `readahead_info` override.
    pub relax_limits: bool,
    /// Memory-budget aggressive prefetching and eviction.
    pub aggressive: bool,
    /// Prefetch entire files at open.
    pub fetchall: bool,
    /// Background fincore polling (the Figure 2 strawman).
    pub fincore_poll: bool,
}

impl Features {
    /// No runtime involvement at all.
    pub const fn passthrough() -> Self {
        Self {
            predict: false,
            visibility: false,
            range_tree: false,
            relax_limits: false,
            aggressive: false,
            fetchall: false,
            fincore_poll: false,
        }
    }

    /// Whether the runtime intercepts I/O (any CROSS-LIB machinery on).
    pub fn intercepting(&self) -> bool {
        self.predict || self.visibility || self.fetchall || self.fincore_poll
    }
}

impl Mode {
    /// The feature bundle this mode enables (the Table-2 row, defined in
    /// [`crate::policy`] next to the rest of the mechanism-dispatch
    /// table).
    pub fn features(self) -> Features {
        crate::policy::features_for(self)
    }

    /// Short label used in bench output tables.
    pub fn label(self) -> &'static str {
        match self {
            Mode::AppOnly => "APPonly",
            Mode::OsOnly => "OSonly",
            Mode::Predict => "CrossP[+predict]",
            Mode::PredictOpt => "CrossP[+predict+opt]",
            Mode::FetchAllOpt => "CrossP[+fetchall+opt]",
            Mode::FincoreApp => "APPonly[fincore]",
        }
    }

    /// All Table 2 mechanisms, in the paper's presentation order.
    pub fn table2() -> [Mode; 5] {
        [
            Mode::AppOnly,
            Mode::OsOnly,
            Mode::Predict,
            Mode::PredictOpt,
            Mode::FetchAllOpt,
        ]
    }
}

/// CROSS-LIB tunables (the artifact's `compiler.sh` knobs).
#[derive(Debug, Clone)]
pub struct RuntimeConfig {
    /// Mechanism to run.
    pub mode: Mode,
    /// Explicit feature overrides (None = derive from `mode`). Used by the
    /// Table 5 breakdown.
    pub features: Option<Features>,
    /// Inert: every descriptor runs the one strided predictor, whatever
    /// the value. Held by `benchmark/src/workload.rs:87`, which sets it
    /// for `kv_probe` (ROADMAP 1-B(h)).
    pub engine: EngineKind,
    /// The predictor's tuning: the strided counter's width.
    pub engine_tuning: EngineConfig,
    /// Optimistic prefetch at open, bytes (§4.6 default 2 MiB).
    pub open_prefetch_bytes: u64,
    /// Ceiling for one relaxed prefetch request, pages (§4.7: 64 MiB,
    /// [`CROSSOS_MAX_PREFETCH_PAGES`]). The OS initiates no more than that
    /// per call, so [`crate::Runtime::new`] clamps larger values to it.
    pub max_prefetch_pages: u64,
    /// Background prefetcher threads (`NR_WORKERS_VAR`).
    pub workers: usize,
    /// Minimum idle time (virtual ns) before the memory watcher may evict
    /// a file — protects files other threads are actively streaming.
    pub evict_min_idle_ns: u64,
    /// Minimum interval (virtual ns) between memory-watcher eviction
    /// scans; reads arriving inside the window skip the scan entirely.
    pub evict_scan_interval_ns: u64,
    /// Rides on the completion-driven I/O ring: a known run
    /// ([`predict::Prediction::known_run`]) rides the demand miss that
    /// starts it on that miss's vectored `read_batch` crossing. The
    /// ring's demand half needs no knob: every mode with cache
    /// visibility absorbs fully-cached demand reads through the exported
    /// bitmap without a crossing and crosses its misses via
    /// `read_batch`. Ignored on modes without visibility. Default off:
    /// riders book the device's blocking horizon, which the prefetch
    /// class otherwise over-commits, so on multi-threaded random reads
    /// rides cost more than they save (DESIGN §6, §13).
    pub ring_submit: bool,
    /// Tenants as labels ([`crate::tenant`]): a tenant table with QoS
    /// classes; files opened for a tenant bill its admitted and initiated
    /// pages and its timely/late/wasted quality ledger. A tenant changes
    /// no prefetch decision: every reader shares one page cache under the
    /// same memory clamps (§4.6). Default `None`: no table is built, files
    /// carry no tenant, and telemetry is byte-identical to the tenant-less
    /// runtime; set, only the additive `tenants` section differs.
    pub tenants: Option<crate::tenant::TenantsConfig>,
    /// Cross-tier promotion planning ([`crate::tiering`]): when the OS
    /// runs on a [`simos::TieredStore`], a range that demand-misses again
    /// within the local tier's reach is copied remote→local in the
    /// background so its later reads land on the fast tier. Default
    /// `None`: no planner is built, no promotion job is ever dispatched,
    /// and telemetry is byte-identical to the tiering-less runtime.
    pub tiering: Option<crate::tiering::TieringConfig>,
}

impl RuntimeConfig {
    /// Paper-default configuration for a mechanism.
    pub fn new(mode: Mode) -> Self {
        Self {
            mode,
            features: None,
            engine: EngineKind::Strided,
            engine_tuning: EngineConfig::default(),
            open_prefetch_bytes: 2 << 20,
            max_prefetch_pages: CROSSOS_MAX_PREFETCH_PAGES,
            workers: 2,
            evict_min_idle_ns: 100 * simclock::NS_PER_MS,
            evict_scan_interval_ns: simclock::NS_PER_MS,
            ring_submit: false,
            tenants: None,
            tiering: None,
        }
    }

    /// Effective feature set.
    pub fn effective_features(&self) -> Features {
        self.features.unwrap_or_else(|| self.mode.features())
    }

    /// The predictor tuning, as `benchmark/src/layers.rs:58` hands it to
    /// [`predict::Engine::for_kind`] (ROADMAP 1-B(h)).
    pub fn engine_config(&self) -> EngineConfig {
        self.engine_tuning.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn passthrough_modes_do_not_intercept() {
        assert!(!Mode::AppOnly.features().intercepting());
        assert!(!Mode::OsOnly.features().intercepting());
        assert!(Mode::Predict.features().intercepting());
        assert!(Mode::FetchAllOpt.features().intercepting());
        assert!(Mode::FincoreApp.features().intercepting());
    }

    #[test]
    fn predict_opt_is_predict_plus_opt() {
        let p = Mode::Predict.features();
        let po = Mode::PredictOpt.features();
        assert!(!p.relax_limits && !p.aggressive);
        assert!(po.relax_limits && po.aggressive);
        assert!(p.predict && po.predict && p.range_tree && po.range_tree);
    }

    #[test]
    fn fetchall_has_no_range_tree() {
        let f = Mode::FetchAllOpt.features();
        assert!(f.fetchall && f.visibility && !f.range_tree && !f.predict);
    }

    #[test]
    fn feature_override_wins() {
        let mut config = RuntimeConfig::new(Mode::PredictOpt);
        config.features = Some(Features::passthrough());
        assert!(!config.effective_features().intercepting());
    }

    #[test]
    fn labels_are_distinct() {
        let labels: std::collections::HashSet<_> =
            Mode::table2().iter().map(|m| m.label()).collect();
        assert_eq!(labels.len(), 5);
    }

    #[test]
    fn default_limits_match_paper() {
        use crate::admit::{
            AGGRESSIVE_FLOOR, PREFETCH_FLOOR, PREFETCH_RETRY_ATTEMPTS, PREFETCH_RETRY_BACKOFF_NS,
        };
        use crate::watcher::{EVICT_TARGET, EVICT_TRIGGER};
        let config = RuntimeConfig::new(Mode::PredictOpt);
        assert_eq!(config.open_prefetch_bytes, 2 << 20);
        assert_eq!(config.max_prefetch_pages, CROSSOS_MAX_PREFETCH_PAGES);
        assert_eq!(CROSSOS_MAX_PREFETCH_PAGES * simos::PAGE_SIZE, 64 << 20);
        assert_eq!(config.engine, EngineKind::Strided);
        assert_eq!(config.engine_tuning, EngineConfig::default());
        assert_eq!(config.engine_tuning.predictor_bits, 3);
        // The predictor's batch window and the OS readahead's are twins.
        assert_eq!(predict::SEQ_BATCH_PAGES, simos::readahead::SEQ_BATCH_PAGES);
        assert_eq!(
            (
                AGGRESSIVE_FLOOR,
                PREFETCH_FLOOR,
                EVICT_TRIGGER,
                EVICT_TARGET
            ),
            (0.15, 0.05, 0.10, 0.25)
        );
        assert_eq!(PREFETCH_RETRY_ATTEMPTS, 4);
        assert_eq!(PREFETCH_RETRY_BACKOFF_NS, 100 * simclock::NS_PER_US);
    }
}
