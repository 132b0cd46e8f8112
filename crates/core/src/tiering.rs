//! Cross-tier placement planning — the CROSS-LIB half of the tiering
//! subsystem.
//!
//! When the OS sits on a [`simos::TieredStore`] (local NVMe in front of a
//! slower remote store), demand misses on remote-resident blocks pay the
//! remote device's latency and congestion. The runtime already *predicts*
//! which ranges the application will touch next; the [`TierPlanner`]
//! turns those same high-confidence predictions into **promotion jobs**:
//! background remote→local copies of predicted-hot ranges, issued through
//! the worker pool ahead of the stream, so the demand reads that follow
//! land on the fast tier.
//!
//! Promotions are billed as prefetch: a completed promotion publishes the
//! copied pages into the page cache as prefetched pages, so the quality
//! ledger's `timely + late + wasted == pages_initiated` identity carries
//! over unchanged — a promotion the stream never catches up to surfaces
//! as `wasted`, exactly like an over-eager prefetch.
//!
//! Demotion is the OS's job (cold clean blocks are returned to the remote
//! tier under local-capacity pressure, inside
//! [`simos::Os::try_promote_range`]'s room-making pass); the planner only
//! decides *what to promote and when*.

use std::collections::HashMap;

use parking_lot::Mutex;

/// Minimum engine confidence (same 0.0–1.0 scale as the ring's
/// speculation bar) before a predicted range is worth a promotion copy.
/// Promotion moves data, not just cache state, so the bar sits above the
/// speculation bar: only well-established streams promote.
const PROMOTE_CONFIDENCE: f64 = 0.75;
/// Smallest promotion worth dispatching, in pages — sub-threshold tails
/// stay remote rather than paying a worker dispatch and two device
/// crossings for a handful of blocks.
const PROMOTE_MIN_PAGES: u64 = 8;
/// Largest single promotion job, in pages (4 MiB); larger predicted
/// ranges are clamped (the stream's continued progress re-arms the
/// planner for the rest).
const MAX_PROMOTION_PAGES: u64 = 1024;

/// Turns the cross-tier promotion planner on
/// ([`crate::RuntimeConfig::tiering`]; `None` — the default — disables
/// the planner entirely and leaves every mechanism byte-identical). It
/// carries no tunables: the planner's thresholds are constants of this
/// module and promotion retries share the prefetch ladder.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TieringConfig {}

impl TieringConfig {
    /// The planner, on.
    pub fn new() -> Self {
        Self {}
    }
}

/// The promotion planner: dedups and clamps candidate ranges so the
/// worker pool sees at most one promotion stream per file, advancing
/// monotonically with the reads.
///
/// State is one frontier per inode — the page up to which promotion has
/// already been requested. Ranges at or below the frontier are dropped
/// (the OS-side placement map makes re-promotion harmless but the
/// dispatch and device probing are not free); ranges straddling it are
/// trimmed to the new part.
#[derive(Debug, Default)]
pub struct TierPlanner {
    /// ino → one past the last page already handed to a promotion job.
    frontiers: Mutex<HashMap<u64, u64>>,
}

impl TierPlanner {
    /// Builds a planner with no frontier yet.
    pub fn new() -> Self {
        Self::default()
    }

    /// Considers promoting `[start, start + pages)` of inode `ino` on a
    /// prediction with the given confidence. Returns the clamped,
    /// frontier-trimmed range to dispatch, or `None` when the candidate
    /// is not worth a job (low confidence, already requested, or below
    /// the minimum size).
    pub fn plan(&self, ino: u64, start: u64, pages: u64, confidence: f64) -> Option<(u64, u64)> {
        if confidence < PROMOTE_CONFIDENCE || pages == 0 {
            return None;
        }
        let end = start.saturating_add(pages);
        let mut frontiers = self.frontiers.lock();
        let frontier = frontiers.entry(ino).or_insert(0);
        let from = start.max(*frontier);
        if from >= end {
            return None; // fully behind the frontier: already requested
        }
        let want = (end - from).min(MAX_PROMOTION_PAGES);
        if want < PROMOTE_MIN_PAGES {
            return None;
        }
        *frontier = from + want;
        Some((from, want))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn low_confidence_never_plans() {
        let planner = TierPlanner::new();
        assert_eq!(planner.plan(1, 0, 256, 0.5), None);
        // The rejected candidate must not have advanced the frontier.
        assert_eq!(planner.plan(1, 0, 256, 0.9), Some((0, 256)));
    }

    #[test]
    fn frontier_trims_and_dedups() {
        let planner = TierPlanner::new();
        assert_eq!(planner.plan(7, 0, 128, 1.0), Some((0, 128)));
        // Same range again: fully behind the frontier.
        assert_eq!(planner.plan(7, 0, 128, 1.0), None);
        // Straddling range: trimmed to the new part.
        assert_eq!(planner.plan(7, 64, 128, 1.0), Some((128, 64)));
        // Another file plans independently.
        assert_eq!(planner.plan(8, 0, 64, 1.0), Some((0, 64)));
    }

    #[test]
    fn clamps_to_max_and_rejects_tiny() {
        assert_eq!(
            (PROMOTE_CONFIDENCE, PROMOTE_MIN_PAGES, MAX_PROMOTION_PAGES),
            (0.75, 8, 1024)
        );
        let planner = TierPlanner::new();
        assert_eq!(planner.plan(1, 0, 5000, 1.0), Some((0, 1024)));
        // Leftover above the clamp is re-plannable later.
        assert_eq!(planner.plan(1, 1024, 50, 1.0), Some((1024, 50)));
        // Below the minimum: dropped without moving the frontier.
        assert_eq!(planner.plan(1, 1074, 5, 1.0), None);
        assert_eq!(planner.plan(1, 1074, 20, 1.0), Some((1074, 20)));
    }
}
