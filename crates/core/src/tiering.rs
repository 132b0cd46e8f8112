//! Cross-tier placement planning — the CROSS-LIB half of the tiering
//! subsystem.
//!
//! When the OS sits on a [`simos::TieredStore`] (local NVMe in front of a
//! slower remote store), demand misses on remote-resident blocks pay the
//! remote device's latency and congestion. The [`TierPlanner`] decides
//! which ranges to copy remote→local in the background, through the
//! worker pool, so the reads that come back to them land on the fast
//! tier. It acts on what the layer below delivered, not on a prediction:
//! Linux's refault distance (`mm/workingset.c`) with the local tier as a
//! cache of the remote one. The planner counts the pages reads
//! demand-miss (its miss clock) and stamps each missed range with the
//! clock. A range that misses again no more than the local tier's
//! capacity in missed pages later would still be resident in a local
//! tier that had cached every miss, so it is promoted
//! ([`TierPlanner::remissed`]). A first miss, a write, or a re-miss
//! beyond that reach promotes nothing, so one-off misses — a forward
//! scan's included — never move placement.
//!
//! Promotions are billed as prefetch: a completed promotion publishes the
//! copied pages not yet cached into the page cache as prefetched pages,
//! so the quality ledger's `timely + late + wasted == pages_initiated`
//! identity carries over unchanged. A promotion copies a range its read
//! just cached, so it usually publishes nothing and only moves placement.
//!
//! Demotion is the OS's job (cold clean blocks are returned to the remote
//! tier under local-capacity pressure, inside
//! [`simos::Os::try_promote_range`]'s room-making pass); the planner only
//! decides *what to promote and when*.

use std::collections::HashMap;
use std::hash::BuildHasherDefault;

use parking_lot::Mutex;
use simstore::BlockHasher;

/// Turns the cross-tier promotion planner on
/// ([`crate::RuntimeConfig::tiering`]; `None` — the default — disables
/// the planner entirely and leaves every mechanism byte-identical). It
/// carries no tunables: the planner's reach is the local tier's capacity
/// and promotion retries share the prefetch ladder.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TieringConfig {}

impl TieringConfig {
    /// The planner, on.
    pub fn new() -> Self {
        Self {}
    }
}

/// The promotion planner: promotes ranges that miss again within the
/// local tier's reach. Its state is one miss clock over every tiered file
/// and a stamp per missed range.
#[derive(Debug, Default)]
pub struct TierPlanner {
    /// The local tier's capacity in blocks: how many missed pages ago a
    /// range's last miss may be for its re-miss to promote it. Zero (a
    /// tier that holds nothing) turns promotion off.
    reach: u64,
    /// The miss history.
    misses: Mutex<MissClock>,
}

/// The planner's history: a clock of demand-missed pages and, per
/// missed range, the clock just after its last miss.
#[derive(Debug, Default)]
struct MissClock {
    /// Pages demand-missed by reads so far.
    now: u64,
    /// `(ino, first page)` of a missed read → `now` just after its miss.
    /// Stamps more than the reach behind `now` can never promote again
    /// and are pruned once the map holds twice the reach, so it never
    /// holds more than `2 * reach` stamps. Hashed as a `BlockMap` is,
    /// both words of the key folded in.
    stamps: HashMap<(u64, u64), u64, BuildHasherDefault<BlockHasher>>,
}

impl TierPlanner {
    /// Builds a planner that reaches back `reach` missed pages:
    /// the capacity of the local tier it promotes into.
    pub fn with_reach(reach: u64) -> Self {
        Self {
            reach,
            ..Self::default()
        }
    }

    /// Ticks the miss clock by the `pages` a read starting at
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
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Stamps held by the planner.
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
        // a reach (no local capacity) never promotes at all.
        let planner = TierPlanner::with_reach(64);
        for _ in 0..4 {
            assert!(!planner.remissed(1, 0, 0));
        }
        assert_eq!(stamps(&planner), 0);
        let no_reach = TierPlanner::with_reach(0);
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
