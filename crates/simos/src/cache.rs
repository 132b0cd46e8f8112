//! Per-inode page-cache state: presence bitmap, recency, readiness, dirt.
//!
//! One [`InodeCache`] plays the role of Linux's per-file Xarray *and* of the
//! CROSS-OS per-inode cache-state bitmap: page presence is tracked as one
//! bit per page, while recency (`touch`), in-flight-I/O completion time
//! (`ready`), and dirtiness are tracked at 64-page *word* granularity
//! (256 KiB), which is also the granularity the OS LRU reclaims at.
//!
//! Virtual-time contention is charged on two separate resources, mirroring
//! the paper's delineated paths: `tree_lock` models the per-file cache-tree
//! lock taken by regular I/O and by baseline prefetching; `bitmap_lock`
//! models the CROSS-OS bitmap rw-lock taken by `readahead_info`.

use std::sync::Arc;

use parking_lot::{Mutex, MutexGuard, RwLock};
use simclock::{Counter, RwContention};
use simfs::Inode;
use simstore::wordwalk::{bit_is_set, set_runs, word_spans, WORD_BITS};

/// Pages per bitmap word (and per recency/eviction unit).
pub const PAGES_PER_WORD: u64 = WORD_BITS;

/// A contiguous page range `[start, end)` within a file.
pub type PageRange = (u64, u64);

/// Lifetime classification of prefetched pages (the paper's accuracy story
/// made measurable): a prefetched page is *timely* if it was resident and
/// ready before its first access, *late* if it was still in flight when the
/// access arrived, and *wasted* if it was evicted without ever being read.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PrefetchQuality {
    /// Prefetched pages that were ready before first access.
    pub timely: u64,
    /// Prefetched pages still in flight at first access.
    pub late: u64,
    /// Prefetched pages evicted untouched.
    pub wasted: u64,
}

impl PrefetchQuality {
    /// Component-wise sum.
    pub fn merge(&mut self, other: PrefetchQuality) {
        self.timely += other.timely;
        self.late += other.late;
        self.wasted += other.wasted;
    }

    /// Component-wise difference against an earlier snapshot (saturating).
    pub fn delta(self, earlier: PrefetchQuality) -> PrefetchQuality {
        PrefetchQuality {
            timely: self.timely.saturating_sub(earlier.timely),
            late: self.late.saturating_sub(earlier.late),
            wasted: self.wasted.saturating_sub(earlier.wasted),
        }
    }
}

/// Mutable cache state, guarded by the inode's real lock.
#[derive(Debug, Default)]
pub struct CacheState {
    /// Presence bitmap, one bit per page.
    words: Vec<u64>,
    /// Last-access virtual time per word.
    touch: Vec<u64>,
    /// Completion time of in-flight fills per word (0 = ready).
    ready: Vec<u64>,
    /// Dirty bitmap, one bit per page.
    dirty: Vec<u64>,
    /// Prefetched-but-not-yet-accessed bitmap, one bit per page.
    speculative: Vec<u64>,
    /// Total present pages.
    resident: u64,
    /// Total dirty pages.
    dirty_pages: u64,
    /// Virtual time the oldest still-dirty page was dirtied (0 = clean) —
    /// the write-back daemon's deadline anchor.
    dirty_since_ns: u64,
    /// Prefetch-quality tallies for this file.
    quality: PrefetchQuality,
}

impl CacheState {
    fn ensure_pages(&mut self, pages: u64) {
        let need = (pages.div_ceil(PAGES_PER_WORD)) as usize;
        if need > self.words.len() {
            self.words.resize(need, 0);
            self.touch.resize(need, 0);
            self.ready.resize(need, 0);
            self.dirty.resize(need, 0);
            self.speculative.resize(need, 0);
        }
    }

    /// The word walk over `[start, end)` clamped to the allocated words:
    /// every yielded index is in bounds, and an open-ended range
    /// (`u64::MAX / 2` for "to end of file") costs only the words that
    /// exist.
    fn spans(&self, start: u64, end: u64) -> impl Iterator<Item = (usize, u64)> {
        word_spans(start, end.min(self.allocated_pages()))
    }

    /// Pages the allocated words cover.
    fn allocated_pages(&self) -> u64 {
        self.words.len() as u64 * PAGES_PER_WORD
    }

    /// Whether `page` is present.
    pub fn is_present(&self, page: u64) -> bool {
        bit_is_set(&self.words, page)
    }

    /// Number of present pages in `[start, end)`.
    pub fn present_in(&self, start: u64, end: u64) -> u64 {
        self.spans(start, end)
            .map(|(w, mask)| u64::from((self.words[w] & mask).count_ones()))
            .sum()
    }

    /// Maximal missing runs within `[start, end)`.
    pub fn missing_runs(&self, start: u64, end: u64) -> Vec<PageRange> {
        let mut runs = Vec::new();
        for (w, mask) in self.spans(start, end) {
            push_set_runs(&mut runs, w, !self.words[w] & mask);
        }
        // Everything past the allocated words is missing.
        let tail = start.max(self.allocated_pages());
        if tail < end {
            push_run(&mut runs, tail, end);
        }
        runs
    }

    /// Inserts `[start, end)`, recording recency `now` and fill completion
    /// `ready_at`. Returns the number of pages newly inserted.
    pub fn insert_range(&mut self, start: u64, end: u64, now: u64, ready_at: u64) -> u64 {
        self.insert(start, end, now, ready_at, false)
    }

    /// Inserts `[start, end)` on behalf of a prefetch path: identical to
    /// [`CacheState::insert_range`] but newly inserted pages are flagged
    /// *speculative* so their first access (or eviction) can be classified
    /// for prefetch-quality accounting.
    pub fn insert_range_prefetched(
        &mut self,
        start: u64,
        end: u64,
        now: u64,
        ready_at: u64,
    ) -> u64 {
        self.insert(start, end, now, ready_at, true)
    }

    fn insert(&mut self, start: u64, end: u64, now: u64, ready_at: u64, speculative: bool) -> u64 {
        if end <= start {
            return 0;
        }
        self.ensure_pages(end);
        let mut inserted = 0;
        for (w, mask) in word_spans(start, end) {
            let fresh = mask & !self.words[w];
            self.words[w] |= fresh;
            if speculative {
                self.speculative[w] |= fresh;
            }
            inserted += u64::from(fresh.count_ones());
            self.touch[w] = self.touch[w].max(now);
            self.ready[w] = self.ready[w].max(ready_at);
        }
        self.resident += inserted;
        inserted
    }

    /// Classifies the first access to any speculative pages in
    /// `[start, end)` at virtual time `now`: a speculative page whose fill
    /// completed by `now` counts as *timely*, one still in flight as
    /// *late*. Consumed pages lose their speculative flag. Returns
    /// `(timely, late)` for this access.
    pub fn classify_access(&mut self, start: u64, end: u64, now: u64) -> (u64, u64) {
        let (mut timely, mut late) = (0u64, 0u64);
        for (w, mask) in self.spans(start, end) {
            let hit = self.speculative[w] & mask;
            self.speculative[w] &= !hit;
            let n = u64::from(hit.count_ones());
            if self.ready[w] <= now {
                timely += n;
            } else {
                late += n;
            }
        }
        self.quality.timely += timely;
        self.quality.late += late;
        (timely, late)
    }

    /// Prefetch-quality tallies accumulated so far.
    pub fn quality(&self) -> PrefetchQuality {
        self.quality
    }

    /// Speculative (prefetched, never accessed) pages currently resident.
    pub fn speculative_pages(&self) -> u64 {
        self.speculative
            .iter()
            .map(|w| u64::from(w.count_ones()))
            .sum()
    }

    /// Marks `[start, end)` recently used without changing presence.
    pub fn touch_range(&mut self, start: u64, end: u64, now: u64) {
        if end <= start {
            return;
        }
        self.ensure_pages(end);
        for (w, _) in word_spans(start, end) {
            self.touch[w] = self.touch[w].max(now);
        }
    }

    /// Latest in-flight fill completion affecting `[start, end)`.
    pub fn ready_max(&self, start: u64, end: u64) -> u64 {
        self.spans(start, end)
            .map(|(w, _)| self.ready[w])
            .max()
            .unwrap_or(0)
    }

    /// Lowers the in-flight readiness of `[start, end)` to at most `ns` —
    /// used when a demand read overtakes a queued prefetch stream.
    pub fn lower_ready(&mut self, start: u64, end: u64, ns: u64) {
        for (w, _) in self.spans(start, end) {
            self.ready[w] = self.ready[w].min(ns);
        }
    }

    /// Marks pages dirty (they must be present) at virtual time `now`.
    /// Returns newly dirty count.
    pub fn mark_dirty(&mut self, start: u64, end: u64, now: u64) -> u64 {
        self.ensure_pages(end);
        let mut newly = 0;
        for (w, mask) in word_spans(start, end) {
            debug_assert!(self.words[w] & mask == mask, "dirtying absent page");
            let fresh = mask & !self.dirty[w];
            self.dirty[w] |= fresh;
            newly += u64::from(fresh.count_ones());
        }
        if newly > 0 && self.dirty_pages == 0 {
            self.dirty_since_ns = now.max(1);
        }
        self.dirty_pages += newly;
        newly
    }

    /// Clears all dirty bits, returning how many pages were dirty.
    pub fn clear_dirty(&mut self) -> u64 {
        self.dirty.fill(0);
        self.dirty_since_ns = 0;
        std::mem::take(&mut self.dirty_pages)
    }

    /// Clears dirty bits in `[start, end)`, returning how many were dirty.
    pub fn clear_dirty_range(&mut self, start: u64, end: u64) -> u64 {
        let mut cleaned = 0;
        for (w, mask) in self.spans(start, end) {
            cleaned += u64::from((self.dirty[w] & mask).count_ones());
            self.dirty[w] &= !mask;
        }
        self.settle_dirty(cleaned);
        cleaned
    }

    /// Takes `cleaned` pages off the dirty count; the deadline anchor
    /// resets once the file is clean.
    fn settle_dirty(&mut self, cleaned: u64) {
        self.dirty_pages -= cleaned;
        if self.dirty_pages == 0 {
            self.dirty_since_ns = 0;
        }
    }

    /// Maximal runs of dirty pages — the write-back daemon's flush list.
    pub fn dirty_runs(&self) -> Vec<PageRange> {
        let mut runs = Vec::new();
        for (w, &word) in self.dirty.iter().enumerate() {
            push_set_runs(&mut runs, w, word);
        }
        runs
    }

    /// Virtual time the oldest still-dirty page was dirtied, or 0 when the
    /// file is clean.
    pub fn dirty_since_ns(&self) -> u64 {
        self.dirty_since_ns
    }

    /// Removes `[start, end)` from the cache. Returns the pages removed
    /// and the maximal runs of dirty pages among them, which the caller
    /// must write back (or discard).
    pub fn remove_range(&mut self, start: u64, end: u64) -> (u64, Vec<PageRange>) {
        let (mut removed, mut dirty) = (0, 0);
        let mut dirty_runs = Vec::new();
        for (w, mask) in self.spans(start, end) {
            let gone = self.words[w] & mask;
            self.words[w] &= !gone;
            removed += u64::from(gone.count_ones());
            let gone_dirty = self.dirty[w] & gone;
            dirty += u64::from(gone_dirty.count_ones());
            push_set_runs(&mut dirty_runs, w, gone_dirty);
            self.dirty[w] &= !gone;
            self.quality.wasted += u64::from((self.speculative[w] & gone).count_ones());
            self.speculative[w] &= !gone;
        }
        self.resident -= removed;
        self.settle_dirty(dirty);
        (removed, dirty_runs)
    }

    /// Evicts one whole word by index. Returns what
    /// [`CacheState::remove_range`] returns.
    pub fn evict_word(&mut self, widx: usize) -> (u64, Vec<PageRange>) {
        let start = widx as u64 * PAGES_PER_WORD;
        self.remove_range(start, start + PAGES_PER_WORD)
    }

    /// Pages currently present.
    pub fn resident(&self) -> u64 {
        self.resident
    }

    /// Pages currently dirty.
    pub fn dirty_pages(&self) -> u64 {
        self.dirty_pages
    }

    /// `(word index, last touch, resident pages)` for every non-empty word
    /// — the reclaim scan input.
    pub fn word_summaries(&self) -> Vec<(usize, u64, u64)> {
        self.words
            .iter()
            .enumerate()
            .filter(|(_, &w)| w != 0)
            .map(|(i, &w)| (i, self.touch[i], w.count_ones() as u64))
            .collect()
    }

    /// Copies the presence bitmap covering pages `[start, end)` into words
    /// (LSB of word 0 = page `start` rounded down to a word boundary).
    pub fn snapshot_words(&self, start: u64, end: u64) -> Vec<u64> {
        let first = (start / PAGES_PER_WORD) as usize;
        let mut out = vec![0; word_spans(start, end).count()];
        for (w, _) in self.spans(start, end) {
            out[w - first] = self.words[w];
        }
        out
    }
}

/// Appends the runs of set bits of `bits` to `runs`, as absolute pages of
/// word index `w`.
fn push_set_runs(runs: &mut Vec<PageRange>, w: usize, bits: u64) {
    let base = w as u64 * PAGES_PER_WORD;
    for (b0, b1) in set_runs(bits) {
        push_run(runs, base + b0, base + b1);
    }
}

/// Appends `[start, end)`, extending the last run when it is adjacent so
/// runs stay maximal across word boundaries.
fn push_run(runs: &mut Vec<PageRange>, start: u64, end: u64) {
    match runs.last_mut() {
        Some(last) if last.1 == start => last.1 = end,
        _ => runs.push((start, end)),
    }
}

/// The per-inode cache object: real state plus contention models and
/// counters.
#[derive(Debug)]
pub struct InodeCache {
    /// The file this cache belongs to: its size and block map, reached
    /// without a filesystem lookup.
    pub inode: Arc<Inode>,
    /// Real state (presence/recency/readiness/dirt).
    pub state: RwLock<CacheState>,
    /// Virtual-time model of the per-file cache-tree lock (regular I/O and
    /// baseline prefetch path).
    pub tree_lock: RwContention,
    /// Virtual-time model of the CROSS-OS bitmap rw-lock (delineated
    /// prefetch path).
    pub bitmap_lock: RwContention,
    /// Page-cache hits observed for this file.
    pub hits: Counter,
    /// Page-cache misses observed for this file.
    pub misses: Counter,
    /// Serializes prefetch fills of this inode in real time, scan through
    /// publish, so two prefetchers never both fetch a page each saw
    /// missing. Not a modelled lock: it charges no virtual time.
    pub(crate) fill_guard: Mutex<()>,
}

impl InodeCache {
    /// Creates an empty cache for `inode`.
    pub fn new(inode: Arc<Inode>) -> Self {
        Self {
            inode,
            state: RwLock::new(CacheState::default()),
            tree_lock: RwContention::new("cache-tree"),
            bitmap_lock: RwContention::new("cross-bitmap"),
            hits: Counter::new(),
            misses: Counter::new(),
            fill_guard: Mutex::new(()),
        }
    }

    /// Opens a prefetch fill of `[start, end)`: takes the fill guard and
    /// scans for the missing runs under it. The guard travels with the
    /// fill until its pages are published (or it is abandoned), so a
    /// concurrent prefetcher's scan sees them present.
    pub(crate) fn scan_missing(
        &self,
        start: u64,
        end: u64,
    ) -> (MutexGuard<'_, ()>, Vec<PageRange>) {
        let fill = self.fill_guard.lock();
        let missing = self.state.read().missing_runs(start, end);
        (fill, missing)
    }

    /// Hit ratio in `[0, 1]`, or 1.0 when no accesses were recorded.
    pub fn hit_ratio(&self) -> f64 {
        let hits = self.hits.get() as f64;
        let misses = self.misses.get() as f64;
        if hits + misses == 0.0 {
            return 1.0;
        }
        hits / (hits + misses)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_and_presence() {
        let mut cache = CacheState::default();
        assert!(!cache.is_present(5));
        assert_eq!(cache.insert_range(4, 8, 10, 20), 4);
        assert!(cache.is_present(5));
        assert_eq!(cache.resident(), 4);
        // Reinsert is idempotent.
        assert_eq!(cache.insert_range(4, 8, 11, 21), 0);
        assert_eq!(cache.resident(), 4);
    }

    #[test]
    fn missing_runs_splits_correctly() {
        let mut cache = CacheState::default();
        cache.insert_range(2, 4, 0, 0);
        cache.insert_range(6, 7, 0, 0);
        assert_eq!(cache.missing_runs(0, 10), vec![(0, 2), (4, 6), (7, 10)]);
        assert_eq!(cache.missing_runs(2, 4), vec![]);
    }

    #[test]
    fn present_in_counts() {
        let mut cache = CacheState::default();
        cache.insert_range(0, 5, 0, 0);
        assert_eq!(cache.present_in(0, 10), 5);
        assert_eq!(cache.present_in(3, 4), 1);
    }

    #[test]
    fn ready_tracks_in_flight_fills() {
        let mut cache = CacheState::default();
        cache.insert_range(0, 64, 0, 5_000);
        cache.insert_range(64, 128, 0, 9_000);
        assert_eq!(cache.ready_max(0, 64), 5_000);
        assert_eq!(cache.ready_max(0, 128), 9_000);
        assert_eq!(cache.ready_max(200, 300), 0);
    }

    #[test]
    fn dirty_lifecycle() {
        let mut cache = CacheState::default();
        cache.insert_range(0, 10, 0, 0);
        assert_eq!(cache.mark_dirty(0, 4, 100), 4);
        assert_eq!(cache.mark_dirty(2, 6, 200), 2);
        assert_eq!(cache.dirty_pages(), 6);
        // The deadline anchor is the *oldest* dirtying time.
        assert_eq!(cache.dirty_since_ns(), 100);
        assert_eq!(cache.clear_dirty(), 6);
        assert_eq!(cache.dirty_pages(), 0);
        assert_eq!(cache.dirty_since_ns(), 0);
    }

    #[test]
    fn dirty_runs_and_range_clear() {
        let mut cache = CacheState::default();
        cache.insert_range(0, 200, 0, 0);
        cache.mark_dirty(3, 10, 50);
        cache.mark_dirty(10, 12, 60); // adjacent: one run
        cache.mark_dirty(70, 130, 70); // crosses word boundaries
        assert_eq!(cache.dirty_runs(), vec![(3, 12), (70, 130)]);
        assert_eq!(cache.clear_dirty_range(3, 12), 9);
        assert_eq!(cache.dirty_runs(), vec![(70, 130)]);
        assert_eq!(cache.dirty_since_ns(), 50); // anchor persists until clean
        assert_eq!(cache.clear_dirty_range(0, 1_000), 60);
        assert_eq!(cache.dirty_since_ns(), 0);
        assert_eq!(cache.dirty_runs(), vec![]);
    }

    #[test]
    fn remove_range_returns_dirty_count() {
        let mut cache = CacheState::default();
        cache.insert_range(0, 10, 0, 0);
        cache.mark_dirty(0, 3, 10);
        let (removed, dirty) = cache.remove_range(0, 5);
        assert_eq!((removed, dirty), (5, vec![(0, 3)]));
        assert_eq!(cache.resident(), 5);
        assert_eq!(cache.dirty_pages(), 0);
    }

    #[test]
    fn removed_dirty_runs_stay_maximal_across_words() {
        let mut cache = CacheState::default();
        cache.insert_range(0, 200, 0, 0);
        cache.mark_dirty(60, 70, 10);
        cache.mark_dirty(72, 130, 10);
        let (removed, dirty) = cache.remove_range(62, 190);
        assert_eq!(removed, 128);
        assert_eq!(dirty, vec![(62, 70), (72, 130)]);
        assert_eq!(cache.dirty_runs(), vec![(60, 62)]);
    }

    #[test]
    fn remove_beyond_bitmap_is_safe() {
        let mut cache = CacheState::default();
        cache.insert_range(0, 4, 0, 0);
        let (removed, dirty) = cache.remove_range(0, 1_000_000);
        assert_eq!((removed, dirty), (4, vec![]));
    }

    #[test]
    fn evict_word_clears_whole_word() {
        let mut cache = CacheState::default();
        cache.insert_range(0, 100, 7, 0);
        let (removed, _) = cache.evict_word(0);
        assert_eq!(removed, 64);
        assert_eq!(cache.resident(), 36);
        assert!(!cache.is_present(0));
        assert!(cache.is_present(64));
    }

    #[test]
    fn word_summaries_report_touch_and_count() {
        let mut cache = CacheState::default();
        cache.insert_range(0, 10, 100, 0);
        cache.insert_range(64, 70, 200, 0);
        let summaries = cache.word_summaries();
        assert_eq!(summaries, vec![(0, 100, 10), (1, 200, 6)]);
    }

    #[test]
    fn touch_updates_recency_without_presence() {
        let mut cache = CacheState::default();
        cache.insert_range(0, 10, 100, 0);
        cache.touch_range(0, 10, 500);
        assert_eq!(cache.word_summaries()[0].1, 500);
        assert_eq!(cache.resident(), 10);
    }

    #[test]
    fn snapshot_words_window() {
        let mut cache = CacheState::default();
        cache.insert_range(0, 2, 0, 0); // word 0: bits 0,1
        cache.insert_range(65, 66, 0, 0); // word 1: bit 1
        let snap = cache.snapshot_words(0, 128);
        assert_eq!(snap, vec![0b11, 0b10]);
        // Window beyond coverage yields zeros.
        assert_eq!(cache.snapshot_words(640, 704), vec![0]);
    }

    #[test]
    fn quality_classifies_timely_late_wasted() {
        let mut cache = CacheState::default();
        // Prefetch [0, 64) ready at t=100 and [64, 128) ready at t=900.
        cache.insert_range_prefetched(0, 64, 10, 100);
        cache.insert_range_prefetched(64, 128, 10, 900);
        assert_eq!(cache.speculative_pages(), 128);

        // Access the first word after its fill landed: timely.
        assert_eq!(cache.classify_access(0, 32, 500), (32, 0));
        // Access the second word while still in flight: late.
        assert_eq!(cache.classify_access(64, 80, 500), (0, 16));
        // The rest of both fills has landed by t=1000: timely. Already
        // consumed pages are not re-classified.
        assert_eq!(cache.classify_access(0, 128, 1_000), (80, 0));
        assert_eq!(cache.classify_access(0, 128, 2_000), (0, 0));
        assert_eq!(cache.speculative_pages(), 0);

        let q = cache.quality();
        assert_eq!((q.timely, q.late, q.wasted), (112, 16, 0));
    }

    #[test]
    fn quality_counts_wasted_on_eviction() {
        let mut cache = CacheState::default();
        cache.insert_range_prefetched(0, 64, 10, 0);
        cache.insert_range_prefetched(64, 100, 10, 0);
        cache.classify_access(0, 10, 50); // 10 timely
        cache.evict_word(0); // 54 untouched speculative pages
        let (removed, _) = cache.remove_range(64, 100);
        assert_eq!(removed, 36);
        let q = cache.quality();
        assert_eq!((q.timely, q.late, q.wasted), (10, 0, 54 + 36));
        assert_eq!(cache.speculative_pages(), 0);
    }

    #[test]
    fn demand_insert_is_not_speculative() {
        let mut cache = CacheState::default();
        cache.insert_range(0, 64, 10, 0);
        assert_eq!(cache.speculative_pages(), 0);
        assert_eq!(cache.classify_access(0, 64, 50), (0, 0));
        cache.evict_word(0);
        assert_eq!(cache.quality(), PrefetchQuality::default());
    }

    #[test]
    fn prefetch_reinsert_of_present_page_stays_nonspeculative() {
        let mut cache = CacheState::default();
        cache.insert_range(0, 32, 10, 0); // demand-resident
        cache.insert_range_prefetched(0, 64, 20, 0); // overlaps
        assert_eq!(cache.speculative_pages(), 32); // only the new half
    }

    #[test]
    fn hit_ratio_defaults_to_one() {
        let fs = simfs::FileSystem::new(simfs::FsKind::Ext4Like);
        let cache = InodeCache::new(fs.inode(fs.create("/f").unwrap()));
        assert_eq!(cache.hit_ratio(), 1.0);
        cache.hits.add(3);
        cache.misses.add(1);
        assert!((cache.hit_ratio() - 0.75).abs() < 1e-12);
    }
}
