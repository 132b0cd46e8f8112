//! Cross-tier placement planning — the CROSS-LIB half of the tiering
//! subsystem.
//!
//! When the OS sits on a [`simos::TieredStore`] (local NVMe in front of a
//! slower remote store), demand misses on remote-resident blocks pay the
//! remote device's latency and congestion. The [`TierPlanner`] decides
//! which ranges to copy remote→local in the background, through the
//! worker pool, so the demand reads that follow land on the fast tier. It
//! has two admission paths:
//!
//! - **Stream** ([`TierPlanner::plan`]): the runtime already *predicts*
//!   which ranges the application will touch next, and a high-confidence
//!   forward stream's predicted window is promoted ahead of the reads,
//!   through one monotone frontier per file.
//! - **Heat** ([`TierPlanner::remissed`]): Linux's refault distance
//!   (`mm/workingset.c`) with the local tier as a cache of the remote
//!   one. The planner counts the pages reads demand-miss (its miss clock)
//!   and stamps each missed range with the clock. A range that misses
//!   again no more than the local tier's capacity in missed pages later
//!   would still be resident in a local tier that had cached every miss,
//!   so it is promoted. A first miss, a write, or a re-miss beyond that
//!   reach promotes nothing, so one-off random misses never move
//!   placement.
//!
//! Promotions are billed as prefetch: a completed promotion publishes the
//! copied pages not yet cached into the page cache as prefetched pages,
//! so the quality ledger's `timely + late + wasted == pages_initiated`
//! identity carries over unchanged — a promotion the stream never catches
//! up to surfaces as `wasted`, exactly like an over-eager prefetch. A heat
//! promotion copies a range its read just cached, so it publishes nothing
//! and only moves placement.
//!
//! Demotion is the OS's job (cold clean blocks are returned to the remote
//! tier under local-capacity pressure, inside
//! [`simos::Os::try_promote_range`]'s room-making pass); the planner only
//! decides *what to promote and when*.

use std::collections::HashMap;
use std::hash::BuildHasherDefault;

use parking_lot::Mutex;
use simstore::{BlockHasher, BlockMap};

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

/// The promotion planner: the stream path dedups and clamps candidate
/// ranges so the worker pool sees at most one promotion stream per file,
/// advancing monotonically with the reads; the heat path promotes ranges
/// that miss again within the local tier's reach.
///
/// Stream state is one frontier per inode — the page up to which
/// promotion has already been requested. Ranges at or below the frontier
/// are dropped (the OS-side placement map makes re-promotion harmless but
/// the dispatch and device probing are not free); ranges straddling it
/// are trimmed to the new part. Heat state is one miss clock over every
/// tiered file and a stamp per missed range.
#[derive(Debug, Default)]
pub struct TierPlanner {
    /// ino → one past the last page already handed to a promotion job.
    frontiers: Mutex<BlockMap<u64>>,
    /// The local tier's capacity in blocks: how many missed pages ago a
    /// range's last miss may be for its re-miss to promote it. Zero (a
    /// tier that holds nothing) turns the heat path off.
    reach: u64,
    /// The heat path's history.
    misses: Mutex<MissClock>,
}

/// The heat path's history: a clock of demand-missed pages and, per
/// missed range, the clock just after its last miss.
#[derive(Debug, Default)]
struct MissClock {
    /// Pages demand-missed by reads so far.
    now: u64,
    /// `(ino, first page)` of a missed read → `now` just after its miss.
    /// Stamps more than the reach behind `now` can never promote again
    /// and are pruned once the map holds twice the reach, so it never
    /// holds more than `2 * reach` stamps. Hashed as a [`BlockMap`] is,
    /// both words of the key folded in.
    stamps: HashMap<(u64, u64), u64, BuildHasherDefault<BlockHasher>>,
}

impl TierPlanner {
    /// Builds a planner with no frontier yet and no heat path.
    pub fn new() -> Self {
        Self::default()
    }

    /// Builds a planner whose heat path reaches back `reach` missed pages:
    /// the capacity of the local tier it promotes into.
    pub fn with_reach(reach: u64) -> Self {
        Self {
            reach,
            ..Self::default()
        }
    }

    /// Heat path: ticks the miss clock by the `pages` a read starting at
    /// page `first` of inode `ino` demand-missed and restamps the range.
    /// Returns whether the range last missed no more than the reach in
    /// missed pages ago, counting the pages other reads missed in
    /// between: then a local tier holding every miss would still hold it,
    /// and promoting it pays. A first miss, a re-miss beyond the reach or
    /// a read that missed nothing returns `false`.
    pub fn remissed(&self, ino: u64, first: u64, pages: u64) -> bool {
        if self.reach == 0 || pages == 0 {
            return false;
        }
        let mut misses = self.misses.lock();
        let since = misses.now;
        misses.now += pages;
        let now = misses.now;
        let last = misses.stamps.insert((ino, first), now);
        if misses.stamps.len() as u64 > 2 * self.reach {
            let reach = self.reach;
            misses.stamps.retain(|_, &mut stamp| now - stamp <= reach);
        }
        last.is_some_and(|last| since - last <= self.reach)
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

    /// Stamps held by the heat path.
    fn stamps(planner: &TierPlanner) -> usize {
        planner.misses.lock().stamps.len()
    }

    #[test]
    fn a_first_miss_never_promotes() {
        let planner = TierPlanner::with_reach(1024);
        assert!(!planner.remissed(1, 0, 8));
        // Another range, and the same first page of another file, are
        // first misses too.
        assert!(!planner.remissed(1, 8, 8));
        assert!(!planner.remissed(2, 0, 8));
        // A read that missed nothing neither ticks nor stamps.
        assert!(!planner.remissed(1, 64, 0));
        assert_eq!(stamps(&planner), 3);
        assert!(planner.remissed(1, 0, 8), "re-missed 16 pages later");
    }

    #[test]
    fn a_remiss_at_exactly_the_reach_promotes_and_one_page_past_does_not() {
        let planner = TierPlanner::with_reach(100);
        assert!(!planner.remissed(1, 0, 8));
        assert!(!planner.remissed(1, 64, 60));
        assert!(!planner.remissed(2, 0, 40));
        // 100 pages missed in between: exactly the reach.
        assert!(planner.remissed(1, 0, 8));
        assert!(!planner.remissed(1, 128, 60));
        assert!(!planner.remissed(2, 64, 41));
        // 101 pages in between: one past it. The re-miss restamps, so
        // the next one is judged from here.
        assert!(!planner.remissed(1, 0, 8));
        assert!(planner.remissed(1, 0, 8), "back to back: distance 0");
    }

    #[test]
    fn writes_never_promote() {
        // A write's outcome carries no missed pages, and a planner without
        // a reach (no local capacity) has no heat path at all.
        let planner = TierPlanner::with_reach(64);
        for _ in 0..4 {
            assert!(!planner.remissed(1, 0, 0));
        }
        assert_eq!(stamps(&planner), 0);
        let no_reach = TierPlanner::new();
        for _ in 0..4 {
            assert!(!no_reach.remissed(1, 0, 8));
        }
        assert_eq!(stamps(&no_reach), 0);
    }

    #[test]
    fn stamps_stay_bounded() {
        let reach = 16;
        let planner = TierPlanner::with_reach(reach);
        for first in 0..10_000 {
            assert!(!planner.remissed(3, first * 8, 1));
            assert!(stamps(&planner) as u64 <= 2 * reach);
        }
        // Pruning kept every stamp still within the reach.
        assert!(planner.remissed(3, 9_999 * 8 - 8 * (reach - 1), 1));
    }
}
