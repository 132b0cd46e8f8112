//! Memory accounting and LRU reclaim.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use simclock::Counter;

use crate::cache::{InodeCache, PAGES_PER_WORD};

/// Global page-cache memory accounting.
///
/// `resident` tracks live cached pages across all files; inserting beyond
/// the budget triggers reclaim, which evicts the least-recently-touched
/// 64-page words across all files (an approximation of Linux's global
/// active/inactive page LRU at the same granularity the CROSS-OS bitmap
/// uses).
#[derive(Debug)]
pub struct MemoryManager {
    budget_pages: u64,
    resident_pages: AtomicU64,
    dirty_pages: AtomicU64,
    /// Pages evicted by reclaim since start.
    pub evicted: Counter,
    /// Reclaim passes run.
    pub reclaim_runs: Counter,
}

impl MemoryManager {
    /// Creates a manager with the given capacity.
    pub fn new(budget_pages: u64) -> Self {
        Self {
            budget_pages,
            resident_pages: AtomicU64::new(0),
            dirty_pages: AtomicU64::new(0),
            evicted: Counter::new(),
            reclaim_runs: Counter::new(),
        }
    }

    /// Total capacity in pages.
    pub fn budget(&self) -> u64 {
        self.budget_pages
    }

    /// Live cached pages.
    pub fn resident(&self) -> u64 {
        self.resident_pages.load(Ordering::Relaxed)
    }

    /// Free pages (zero when over budget).
    pub fn free_pages(&self) -> u64 {
        self.budget().saturating_sub(self.resident())
    }

    /// Dirty pages awaiting writeback.
    pub fn dirty(&self) -> u64 {
        self.dirty_pages.load(Ordering::Relaxed)
    }

    /// Records `n` pages inserted; returns `true` if reclaim is now needed.
    pub fn note_inserted(&self, n: u64) -> bool {
        let now = self.resident_pages.fetch_add(n, Ordering::Relaxed) + n;
        now > self.budget()
    }

    /// Records `n` pages removed.
    pub fn note_removed(&self, n: u64) {
        self.resident_pages.fetch_sub(n, Ordering::Relaxed);
    }

    /// Records dirty-page delta.
    pub(crate) fn note_dirtied(&self, n: u64) {
        self.dirty_pages.fetch_add(n, Ordering::Relaxed);
    }

    /// Records cleaned pages.
    pub(crate) fn note_cleaned(&self, n: u64) {
        self.dirty_pages.fetch_sub(n, Ordering::Relaxed);
    }

    /// How many pages reclaim should free right now (down to the slack
    /// watermark), or zero.
    pub fn reclaim_target(&self, slack: f64) -> u64 {
        let budget = self.budget();
        let resident = self.resident();
        if resident <= budget {
            return 0;
        }
        // Watermark in pure integer arithmetic: budget minus the ceiling
        // of the slack share at ppm resolution. Routing the budget through
        // f64 loses low bits above 2^53 pages and drifts the target; the
        // ceiling matches the old float floor at every representable
        // budget, so existing timelines are unchanged.
        let slack_ppm = (slack.clamp(0.0, 1.0) * 1_000_000.0).round() as u128;
        let share = (budget as u128 * slack_ppm).div_ceil(1_000_000) as u64;
        resident - budget.saturating_sub(share)
    }

    /// Fractional pressure above a low watermark: `0.0` at or below `low`,
    /// climbing linearly to `1.0` as resident reaches the budget and
    /// saturating beyond it. The tenant arbiter scales its admission
    /// ladder by this signal.
    pub fn pressure_above(&self, low: u64) -> f64 {
        let resident = self.resident();
        if resident <= low {
            return 0.0;
        }
        let budget = self.budget();
        if budget <= low {
            return 1.0;
        }
        (((resident - low) as f64) / ((budget - low) as f64)).min(1.0)
    }
}

/// One reclaim candidate: `(touch, inode index, word index, pages)`.
pub type Victim = (u64, usize, usize, u64);

/// Selects the least-recently-touched words across `caches` totalling at
/// least `target` pages. Pure selection — the caller evicts.
pub fn select_victims(caches: &[Arc<InodeCache>], target: u64) -> Vec<Victim> {
    let mut candidates: Vec<Victim> = Vec::new();
    for (idx, cache) in caches.iter().enumerate() {
        let state = cache.state.read();
        for (widx, touch, pages) in state.word_summaries() {
            candidates.push((touch, idx, widx, pages));
        }
    }
    candidates.sort_unstable();
    let mut victims = Vec::new();
    let mut freed = 0;
    for victim in candidates {
        if freed >= target {
            break;
        }
        freed += victim.3;
        victims.push(victim);
    }
    victims
}

/// Pages covered by one reclaim word.
pub const RECLAIM_UNIT_PAGES: u64 = PAGES_PER_WORD;

#[cfg(test)]
mod tests {
    use super::*;
    use simfs::InodeId;

    #[test]
    fn accounting_round_trip() {
        let mem = MemoryManager::new(100);
        assert!(!mem.note_inserted(60));
        assert_eq!(mem.free_pages(), 40);
        assert!(mem.note_inserted(50)); // 110 > 100
        mem.note_removed(30);
        assert_eq!(mem.resident(), 80);
    }

    #[test]
    fn reclaim_target_reaches_watermark() {
        let mem = MemoryManager::new(100);
        mem.note_inserted(120);
        let target = mem.reclaim_target(0.05);
        assert_eq!(target, 120 - 95);
        assert_eq!(mem.reclaim_target(0.0), 20);
    }

    #[test]
    fn no_reclaim_under_budget() {
        let mem = MemoryManager::new(100);
        mem.note_inserted(100);
        assert_eq!(mem.reclaim_target(0.05), 0);
    }

    #[test]
    fn dirty_accounting() {
        let mem = MemoryManager::new(100);
        mem.note_dirtied(10);
        mem.note_cleaned(4);
        assert_eq!(mem.dirty(), 6);
    }

    #[test]
    fn reclaim_target_exact_at_large_counts() {
        // Above 2^53 pages an f64 cannot hold the budget exactly; the old
        // float watermark rounded it away and drifted the target. Pin the
        // exact integer answers.
        let budget = 10_000_000_000_000_001u64; // 1e16 + 1, not representable
        let mem = MemoryManager::new(budget);
        mem.note_inserted(budget + 7);
        assert_eq!(mem.reclaim_target(0.0), 7);

        let budget = 1u64 << 54;
        let mem = MemoryManager::new(budget);
        mem.note_inserted(budget + 5);
        // share = budget/4 exactly; no float round-off at any magnitude.
        assert_eq!(mem.reclaim_target(0.25), 5 + (budget / 4));

        // Small budgets keep the historical (float-floor) watermarks.
        let mem = MemoryManager::new(16384);
        mem.note_inserted(16384 + 100);
        assert_eq!(mem.reclaim_target(0.05), 100 + 820); // watermark 15564
    }

    #[test]
    fn pressure_above_low_watermark() {
        let mem = MemoryManager::new(100);
        assert_eq!(mem.pressure_above(50), 0.0);
        mem.note_inserted(75);
        assert_eq!(mem.pressure_above(50), 0.5);
        mem.note_inserted(50); // resident 125, over budget
        assert_eq!(mem.pressure_above(50), 1.0);
        assert_eq!(mem.pressure_above(120), 1.0); // low >= budget saturates
        assert_eq!(mem.pressure_above(200), 0.0); // resident below low: idle
    }

    #[test]
    fn select_victims_prefers_oldest() {
        let a = Arc::new(InodeCache::new(InodeId(0)));
        let b = Arc::new(InodeCache::new(InodeId(1)));
        a.state.write().insert_range(0, 64, 100, 0); // old
        b.state.write().insert_range(0, 64, 900, 0); // fresh
        a.state.write().insert_range(64, 128, 500, 0); // middle
        let caches = vec![Arc::clone(&a), Arc::clone(&b)];

        let victims = select_victims(&caches, 64);
        assert_eq!(victims.len(), 1);
        assert_eq!((victims[0].1, victims[0].2), (0, 0)); // oldest word of a

        let victims = select_victims(&caches, 100);
        assert_eq!(victims.len(), 2);
        assert_eq!((victims[1].1, victims[1].2), (0, 1)); // then middle
    }

    #[test]
    fn select_victims_empty_cache_is_empty() {
        let caches: Vec<Arc<InodeCache>> = vec![Arc::new(InodeCache::new(InodeId(0)))];
        assert!(select_victims(&caches, 10).is_empty());
    }

    #[test]
    fn evicting_a_just_cleared_word_is_an_accounting_noop() {
        // A clear that lands between victim selection and eviction must
        // not be double-counted: the selected word now removes zero pages,
        // so the caller credits nothing to `evicted`.
        let a = Arc::new(InodeCache::new(InodeId(0)));
        a.state.write().insert_range(0, 128, 100, 0);
        let caches = vec![Arc::clone(&a)];
        let victims = select_victims(&caches, 64);
        assert!(!victims.is_empty());

        a.state.write().remove_range(0, 128); // concurrent clear
        let mut removed_total = 0;
        for &(_, idx, widx, _) in &victims {
            let (removed, _dirty) = caches[idx].state.write().evict_word(widx);
            removed_total += removed;
        }
        assert_eq!(removed_total, 0);
        // And a re-selection sees the cleared file not at all.
        assert!(select_victims(&caches, 64).is_empty());
    }
}
