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
}

/// One reclaim candidate: `(touch, inode index, word index, pages)`.
pub type Victim = (u64, usize, usize, u64);

/// Selects the least-recently-touched words across `caches` totalling at
/// least `target` pages, oldest first. Pure selection — the caller evicts.
pub fn select_victims(caches: &[Arc<InodeCache>], target: u64) -> Vec<Victim> {
    let mut candidates: Vec<Victim> = Vec::new();
    for (idx, cache) in caches.iter().enumerate() {
        let state = cache.state.read();
        for (widx, touch, pages) in state.word_summaries() {
            candidates.push((touch, idx, widx, pages));
        }
    }
    // Partition off only the oldest words that cover `target`. A word
    // holds at most `RECLAIM_UNIT_PAGES` pages, so fewer than
    // `shortfall.div_ceil(RECLAIM_UNIT_PAGES)` further words cannot cover
    // the shortfall: each step takes exactly that many and every word it
    // takes is one a full sort's walk would take too. The key has no ties,
    // so the sorted prefix is that walk's victim list.
    let (mut chosen, mut covered) = (0, 0);
    while covered < target && chosen < candidates.len() {
        let rest = &mut candidates[chosen..];
        let take = ((target - covered).div_ceil(RECLAIM_UNIT_PAGES) as usize).min(rest.len());
        if take < rest.len() {
            rest.select_nth_unstable(take - 1);
        }
        covered += rest[..take].iter().map(|victim| victim.3).sum::<u64>();
        chosen += take;
    }
    candidates.truncate(chosen);
    candidates.sort_unstable();
    candidates
}

/// Pages covered by one reclaim word.
pub const RECLAIM_UNIT_PAGES: u64 = PAGES_PER_WORD;

#[cfg(test)]
mod tests {
    use super::*;

    /// `n` empty caches over fresh inodes 0..n of a scratch filesystem.
    fn fresh_caches(n: u64) -> Vec<Arc<InodeCache>> {
        let fs = simfs::FileSystem::new(simfs::FsKind::Ext4Like);
        (0..n)
            .map(|i| {
                let ino = fs.create(&format!("/{i}")).unwrap();
                Arc::new(InodeCache::new(fs.inode(ino)))
            })
            .collect()
    }

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
    fn select_victims_prefers_oldest() {
        let [a, b]: [Arc<InodeCache>; 2] = fresh_caches(2).try_into().unwrap();
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
    fn select_victims_matches_the_full_sort_walk() {
        // Partly filled words of mixed age over three files: the partial
        // selection must return exactly what sorting every candidate and
        // walking to the target returns, short targets and long ones.
        let caches = fresh_caches(3);
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        for i in 0..300u64 {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            let start = i * 64 + (state >> 58);
            let len = 1 + (state >> 20) % (64 - (state >> 58));
            let touch = (state >> 32) % 1000; // repeats: ties broken by inode and word
            caches[(state % 3) as usize]
                .state
                .write()
                .insert_range(start, start + len, touch, 0);
        }
        let mut all: Vec<Victim> = Vec::new();
        for (idx, cache) in caches.iter().enumerate() {
            for (widx, touch, pages) in cache.state.read().word_summaries() {
                all.push((touch, idx, widx, pages));
            }
        }
        all.sort_unstable();
        let total: u64 = all.iter().map(|v| v.3).sum();
        for target in [1, 63, 64, 65, 500, 2_000, total - 1, total, total + 1] {
            let mut expected = Vec::new();
            let mut freed = 0;
            for &victim in &all {
                if freed >= target {
                    break;
                }
                freed += victim.3;
                expected.push(victim);
            }
            assert_eq!(select_victims(&caches, target), expected, "target {target}");
        }
    }

    #[test]
    fn select_victims_empty_cache_is_empty() {
        let caches = fresh_caches(1);
        assert!(select_victims(&caches, 10).is_empty());
    }

    #[test]
    fn evicting_a_just_cleared_word_is_an_accounting_noop() {
        // A clear that lands between victim selection and eviction must
        // not be double-counted: the selected word now removes zero pages,
        // so the caller credits nothing to `evicted`.
        let a = fresh_caches(1).remove(0);
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
