//! Latency histograms for the user-level runtime.
//!
//! All distributions use the fixed-bucket log2 histogram from
//! [`simclock::Histogram`]: recording is three relaxed atomic adds, and
//! quantiles are answered from bucket boundaries with bounded (≤2×)
//! relative error — good enough to separate a cache hit from a demand
//! miss by orders of magnitude, cheap enough to leave always-on.

use std::sync::Arc;

use simclock::Histogram;
use simos::ReadOutcome;

/// Outcome class of one shim read, for latency accounting.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReadClass {
    /// Every page was already resident and ready.
    CacheHit,
    /// No demand misses, but at least one page was placed by a prefetch
    /// path and first touched by this read.
    PrefetchHit,
    /// At least one page required synchronous device I/O.
    DemandMiss,
}

impl ReadClass {
    /// Classifies a completed read.
    pub fn of(outcome: &ReadOutcome) -> Self {
        if outcome.miss_pages > 0 {
            ReadClass::DemandMiss
        } else if outcome.prefetch_hit_pages > 0 {
            ReadClass::PrefetchHit
        } else {
            ReadClass::CacheHit
        }
    }

    /// Stable label used in traces and telemetry.
    pub fn name(self) -> &'static str {
        match self {
            ReadClass::CacheHit => "cache-hit",
            ReadClass::PrefetchHit => "prefetch-hit",
            ReadClass::DemandMiss => "demand-miss",
        }
    }
}

/// The named stages of the staged read pipeline (the `read_path`
/// module), in execution order. Stage boundaries are the
/// latency-histogram and trace attach points of the hot path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PipelineStage {
    /// Entry bookkeeping: counters, page math, intercept routing.
    Classify,
    /// Predictor step (pattern classification, window sizing).
    Predict,
    /// Prefetch planning and worker dispatch (consumption pacing).
    PrefetchPlan,
    /// User-level cache-view probe (the visibility lookup).
    CacheProbe,
    /// The demand I/O itself (OS read/write charge).
    DemandFill,
    /// Post-I/O accounting: staleness, view update, policy hooks, exit
    /// histograms.
    Account,
}

impl PipelineStage {
    /// Stable label used in telemetry.
    pub fn name(self) -> &'static str {
        match self {
            PipelineStage::Classify => "classify",
            PipelineStage::Predict => "predict",
            PipelineStage::PrefetchPlan => "prefetch_plan",
            PipelineStage::CacheProbe => "cache_probe",
            PipelineStage::DemandFill => "demand_fill",
            PipelineStage::Account => "account",
        }
    }

    /// All stages in execution order.
    pub fn all() -> [PipelineStage; 6] {
        [
            PipelineStage::Classify,
            PipelineStage::Predict,
            PipelineStage::PrefetchPlan,
            PipelineStage::CacheProbe,
            PipelineStage::DemandFill,
            PipelineStage::Account,
        ]
    }
}

/// Always-on latency distributions maintained by the runtime.
#[derive(Debug, Default)]
pub struct RuntimeMetrics {
    /// Read latency for reads fully served from ready cache.
    pub read_cache_hit_ns: Histogram,
    /// Read latency for reads served by prefetched pages.
    pub read_prefetch_hit_ns: Histogram,
    /// Read latency for reads that hit the device synchronously.
    pub read_demand_miss_ns: Histogram,
    /// Write latency.
    pub write_ns: Histogram,
    /// Prefetch enqueue-to-completion latency.
    pub prefetch_ns: Histogram,
    /// Time prefetch jobs waited in the worker queue before starting.
    pub worker_queue_ns: Histogram,
    /// Per-read wait on the user-level range-tree lock (lib-side lock
    /// wait). Shared (`Arc`) so each file's tree can record into it
    /// directly.
    pub lib_lock_wait_ns: Arc<Histogram>,
    /// Eviction scan duration (the `maybe_evict` pass).
    pub evict_scan_ns: Histogram,
    /// Virtual time spent in the classify stage, per intercepted access.
    pub stage_classify_ns: Histogram,
    /// Virtual time spent in the predict stage.
    pub stage_predict_ns: Histogram,
    /// Virtual time spent in the prefetch-plan stage.
    pub stage_prefetch_plan_ns: Histogram,
    /// Virtual time spent in the cache-probe stage.
    pub stage_cache_probe_ns: Histogram,
    /// Virtual time spent in the demand-fill stage.
    pub stage_demand_fill_ns: Histogram,
    /// Virtual time spent in the account stage.
    pub stage_account_ns: Histogram,
    /// Entries per flushed submission batch (batched prefetch only): how
    /// full the SQ was when a flush fired, whatever the reason.
    pub batch_occupancy: Histogram,
}

impl RuntimeMetrics {
    /// The read-latency histogram for `class`.
    pub fn read_hist(&self, class: ReadClass) -> &Histogram {
        match class {
            ReadClass::CacheHit => &self.read_cache_hit_ns,
            ReadClass::PrefetchHit => &self.read_prefetch_hit_ns,
            ReadClass::DemandMiss => &self.read_demand_miss_ns,
        }
    }

    /// The per-stage latency histogram for `stage`.
    pub fn stage_hist(&self, stage: PipelineStage) -> &Histogram {
        match stage {
            PipelineStage::Classify => &self.stage_classify_ns,
            PipelineStage::Predict => &self.stage_predict_ns,
            PipelineStage::PrefetchPlan => &self.stage_prefetch_plan_ns,
            PipelineStage::CacheProbe => &self.stage_cache_probe_ns,
            PipelineStage::DemandFill => &self.stage_demand_fill_ns,
            PipelineStage::Account => &self.stage_account_ns,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn outcome(miss: u64, prefetch_hit: u64) -> ReadOutcome {
        ReadOutcome {
            pages: 4,
            hit_pages: 4 - miss,
            miss_pages: miss,
            prefetch_hit_pages: prefetch_hit,
            bytes: 4 * crate::PAGE_SIZE,
        }
    }

    #[test]
    fn classes_are_mutually_exclusive_by_priority() {
        assert_eq!(ReadClass::of(&outcome(1, 3)), ReadClass::DemandMiss);
        assert_eq!(ReadClass::of(&outcome(0, 3)), ReadClass::PrefetchHit);
        assert_eq!(ReadClass::of(&outcome(0, 0)), ReadClass::CacheHit);
    }

    #[test]
    fn read_hist_routes_by_class() {
        let metrics = RuntimeMetrics::default();
        metrics.read_hist(ReadClass::PrefetchHit).record(100);
        assert_eq!(metrics.read_prefetch_hit_ns.count(), 1);
        assert_eq!(metrics.read_cache_hit_ns.count(), 0);
        assert_eq!(metrics.read_demand_miss_ns.count(), 0);
    }
}
