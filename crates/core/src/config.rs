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
    /// Which prediction engine new descriptors use. `Strided` (the
    /// default) is the §4.6 counter planned by learned run shape;
    /// `Correlation` mines recurring block associations; `Adaptive`
    /// set-duels the two per file. Only modes with the `predict` feature
    /// consult it.
    pub engine: EngineKind,
    /// Tuning for whichever engine `engine` selects: the strided
    /// counter's width.
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
    /// Shards for the per-file state registry (0 = auto: 2× `workers`).
    /// Shard count never affects simulated timing or telemetry counters —
    /// only real-lock contention between host threads.
    pub registry_shards: usize,
    /// Batched prefetch submission (the SQ/CQ path): planned prefetch
    /// runs accumulate in a bounded per-worker submission queue and are
    /// handed to the OS as one vectored `readahead_info`-style call that
    /// charges a *single* syscall crossing per batch and merges adjacent
    /// runs per inode. Requires cache visibility (blind `readahead(2)`
    /// has no vectored form); ignored on modes without it. Default off:
    /// batching changes syscall counts, crossing costs, and therefore the
    /// virtual timeline — with it off, every new code path is bypassed
    /// and telemetry is byte-identical to the unbatched runtime.
    pub batch_submit: bool,
    /// Entries per submission batch before a size flush
    /// ([`crate::ring::FlushReason::Full`]).
    pub batch_max_runs: usize,
    /// Virtual-time deadline after which an open batch flushes even when
    /// not full ([`crate::ring::FlushReason::Deadline`]) — bounds the
    /// staging latency a run can add to a prefetch.
    pub batch_deadline_ns: u64,
    /// Completion-driven I/O ring: demand reads join prefetch on the
    /// shared submission ring. Fully-cached reads are absorbed through the
    /// exported bitmap without a syscall crossing; demand misses cross via
    /// one vectored `read_batch` call that piggybacks any staged prefetch
    /// runs; and a known run ([`predict::Prediction::known_run`]) crosses
    /// with the miss that starts it. Prefetch runs are only *staged* while
    /// [`Self::batch_submit`] is also on — with the ring alone every
    /// crossing carries just its demand entry — and only `tests/ring.rs`
    /// and the telemetry feature-on golden turn both on (no benchmark
    /// workload, bench gate or example does). Requires cache visibility
    /// (the absorb path reads the shared bitmap); ignored on modes without
    /// it. Default off: the ring changes syscall counts, crossing costs,
    /// and therefore the virtual timeline — with it off, every new code
    /// path is bypassed and telemetry is byte-identical to the ring-less
    /// runtime.
    pub ring_submit: bool,
    /// Exemplar reservoir depth per latency class for causal span tracing
    /// ([`crate::span::SpanCollector`]): the slowest K reads of each class
    /// keep their complete span tree. Sizing only — span *collection*
    /// stays off until [`crate::span::SpanCollector::set_enabled`] flips
    /// it on, and while off the read path pays one relaxed atomic load.
    pub span_exemplars: usize,
    /// Multi-tenant prefetch arbitration ([`crate::tenant`]): a tenant
    /// table with QoS classes, per-tenant fair-share prefetch windows
    /// rebalanced from the timely/late/wasted quality ledgers, and an
    /// admission ladder (full → coalesced-only → blind → deny) that
    /// degrades speculative prefetch under memory pressure before demand
    /// reads ever pay. Default `None`: no arbiter is built, files carry
    /// no tenant, every new code path is bypassed, and telemetry is
    /// byte-identical to the tenant-less runtime.
    pub tenants: Option<crate::tenant::TenantsConfig>,
    /// Cross-tier promotion planning ([`crate::tiering`]): when the OS
    /// runs on a [`simos::TieredStore`], high-confidence predictions are
    /// additionally turned into background remote→local promotion copies
    /// so the stream's demand reads land on the fast tier. Default
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
            registry_shards: 0,
            batch_submit: false,
            batch_max_runs: 8,
            batch_deadline_ns: 50 * simclock::NS_PER_US,
            ring_submit: false,
            span_exemplars: 8,
            tenants: None,
            tiering: None,
        }
    }

    /// Effective feature set.
    pub fn effective_features(&self) -> Features {
        self.features.unwrap_or_else(|| self.mode.features())
    }

    /// Effective registry shard count (0 resolves to 2× the worker count).
    pub fn effective_registry_shards(&self) -> usize {
        if self.registry_shards == 0 {
            self.workers.max(1) * 2
        } else {
            self.registry_shards
        }
    }

    /// The engine tuning handed to [`predict::Engine::for_kind`].
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
        use crate::runtime::{
            AGGRESSIVE_FLOOR, EVICT_TARGET, EVICT_TRIGGER, PREFETCH_FLOOR, PREFETCH_RETRY_ATTEMPTS,
            PREFETCH_RETRY_BACKOFF_NS,
        };
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
