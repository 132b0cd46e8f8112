//! Property tests pitting the OS components against simple reference
//! models: the cache state against a per-page model, the readahead window
//! against its documented envelope, and `fadvise` range semantics.

use proptest::prelude::*;
use simos::cache::{CacheState, PrefetchQuality, PAGES_PER_WORD};
use simos::readahead::{RaMode, RaState};
use simos::{Advice, Device, DeviceConfig, FileSystem, FsKind, Os, OsConfig, PAGE_SIZE};
use std::collections::HashSet;

/// Pages the cache-state model covers (16 words); no op inserts past it.
const MODEL_PAGES: u64 = 1024;
/// The "to end of file" upper bound `drop_caches` and whole-file
/// `DONTNEED` pass.
const TO_END: u64 = u64::MAX / 2;

/// Per-page reference model of [`CacheState`]: the loops the word walk
/// replaced, kept as the oracle. Recency and readiness stay word-granular
/// because that is their specified granularity, not an optimisation.
#[derive(Default)]
struct PageModel {
    present: Vec<bool>,
    dirty: Vec<bool>,
    speculative: Vec<bool>,
    touch: Vec<u64>,
    ready: Vec<u64>,
    dirty_since: u64,
    quality: PrefetchQuality,
}

impl PageModel {
    fn new() -> Self {
        let (pages, words) = (
            MODEL_PAGES as usize,
            (MODEL_PAGES / PAGES_PER_WORD) as usize,
        );
        Self {
            present: vec![false; pages],
            dirty: vec![false; pages],
            speculative: vec![false; pages],
            touch: vec![0; words],
            ready: vec![0; words],
            ..Self::default()
        }
    }

    /// The pages of `[start, end)` that can exist.
    fn pages(start: u64, end: u64) -> std::ops::Range<usize> {
        start.min(MODEL_PAGES) as usize..end.min(MODEL_PAGES) as usize
    }

    fn count(bits: &[bool]) -> u64 {
        bits.iter().filter(|&&b| b).count() as u64
    }

    /// Maximal runs of pages in `[start, end)` whose `bits` equal `want`;
    /// pages past the model are clear.
    fn runs(bits: &[bool], want: bool, start: u64, end: u64) -> Vec<(u64, u64)> {
        let mut runs: Vec<(u64, u64)> = Vec::new();
        for p in Self::pages(start, end) {
            if bits[p] == want {
                match runs.last_mut() {
                    Some(last) if last.1 == p as u64 => last.1 += 1,
                    _ => runs.push((p as u64, p as u64 + 1)),
                }
            }
        }
        if !want && end > MODEL_PAGES.max(start) {
            match runs.last_mut() {
                Some(last) if last.1 == MODEL_PAGES => last.1 = end,
                _ => runs.push((MODEL_PAGES.max(start), end)),
            }
        }
        runs
    }

    fn insert(&mut self, start: u64, end: u64, now: u64, ready_at: u64, prefetched: bool) -> u64 {
        let mut inserted = 0;
        for p in Self::pages(start, end) {
            if !self.present[p] {
                self.present[p] = true;
                self.speculative[p] = prefetched;
                inserted += 1;
            }
            let w = p / PAGES_PER_WORD as usize;
            self.touch[w] = self.touch[w].max(now);
            self.ready[w] = self.ready[w].max(ready_at);
        }
        inserted
    }

    fn classify_access(&mut self, start: u64, end: u64, now: u64) -> (u64, u64) {
        let (mut timely, mut late) = (0, 0);
        for p in Self::pages(start, end) {
            if std::mem::take(&mut self.speculative[p]) {
                if self.ready[p / PAGES_PER_WORD as usize] <= now {
                    timely += 1;
                } else {
                    late += 1;
                }
            }
        }
        self.quality.timely += timely;
        self.quality.late += late;
        (timely, late)
    }

    fn mark_dirty(&mut self, start: u64, end: u64, now: u64) -> u64 {
        let was_clean = Self::count(&self.dirty) == 0;
        let mut newly = 0;
        for p in Self::pages(start, end) {
            if !std::mem::replace(&mut self.dirty[p], true) {
                newly += 1;
            }
        }
        if newly > 0 && was_clean {
            self.dirty_since = now.max(1);
        }
        newly
    }

    fn clear_dirty_range(&mut self, start: u64, end: u64) -> u64 {
        let mut cleaned = 0;
        for p in Self::pages(start, end) {
            cleaned += u64::from(std::mem::take(&mut self.dirty[p]));
        }
        if Self::count(&self.dirty) == 0 {
            self.dirty_since = 0;
        }
        cleaned
    }

    /// Pages removed and the removed dirty pages as maximal runs, built
    /// page by page.
    fn remove_range(&mut self, start: u64, end: u64) -> (u64, Vec<(u64, u64)>) {
        let mut removed = 0;
        let mut dirty: Vec<(u64, u64)> = Vec::new();
        for p in Self::pages(start, end) {
            if std::mem::take(&mut self.present[p]) {
                removed += 1;
                if std::mem::take(&mut self.dirty[p]) {
                    let page = p as u64;
                    match dirty.last_mut() {
                        Some(run) if run.1 == page => run.1 += 1,
                        _ => dirty.push((page, page + 1)),
                    }
                }
                self.quality.wasted += u64::from(std::mem::take(&mut self.speculative[p]));
            }
        }
        if Self::count(&self.dirty) == 0 {
            self.dirty_since = 0;
        }
        (removed, dirty)
    }

    /// Presence bits of word `w`, assembled page by page.
    fn present_word(&self, w: u64) -> u64 {
        (0..PAGES_PER_WORD)
            .filter(|b| self.present.get((w * PAGES_PER_WORD + b) as usize) == Some(&true))
            .map(|b| 1 << b)
            .sum()
    }

    fn word_summaries(&self) -> Vec<(usize, u64, u64)> {
        self.present
            .chunks(PAGES_PER_WORD as usize)
            .enumerate()
            .map(|(w, chunk)| (w, self.touch[w], Self::count(chunk)))
            .filter(|summary| summary.2 > 0)
            .collect()
    }
}

/// One range op: `(kind, start, length, time step)`. Lengths stay inside a
/// word, straddle one boundary, cross several, or are the open-ended
/// "to end" form; starts past the inserted pages exercise ranges beyond
/// the allocated words.
fn cache_op() -> impl Strategy<Value = (u8, u64, u64, u64)> {
    let len = prop_oneof![1u64..8, 56u64..72, 120u64..400, Just(TO_END)];
    (0u8..11, 0u64..MODEL_PAGES + 200, len, 0u64..40)
}

proptest! {
    #[test]
    fn cache_state_matches_reference_set(ops in prop::collection::vec(cache_op(), 1..120)) {
        let mut cache = CacheState::default();
        let mut model = PageModel::new();
        let mut now = 0u64;
        for (kind, start, len, step) in ops {
            now += step;
            // Ops that allocate stay inside the model; the rest may run
            // past it, up to the open-ended form.
            let end = if len == TO_END { TO_END } else { start + len };
            let (istart, iend) = (start.min(MODEL_PAGES), end.min(MODEL_PAGES));
            match kind {
                0 => prop_assert_eq!(
                    cache.insert_range(istart, iend, now, now + step),
                    model.insert(istart, iend, now, now + step, false)
                ),
                1 => prop_assert_eq!(
                    cache.insert_range_prefetched(istart, iend, now, now + 10 * step),
                    model.insert(istart, iend, now, now + 10 * step, true)
                ),
                2 => prop_assert_eq!(
                    cache.classify_access(start, end, now),
                    model.classify_access(start, end, now)
                ),
                3 => {
                    // The write path: pages are inserted, then dirtied.
                    cache.insert_range(istart, iend, now, 0);
                    model.insert(istart, iend, now, 0, false);
                    prop_assert_eq!(
                        cache.mark_dirty(istart, iend, now),
                        model.mark_dirty(istart, iend, now)
                    );
                }
                4 => prop_assert_eq!(
                    cache.clear_dirty_range(start, end),
                    model.clear_dirty_range(start, end)
                ),
                5 => prop_assert_eq!(
                    cache.remove_range(start, end),
                    model.remove_range(start, end)
                ),
                6 => {
                    let w = start / PAGES_PER_WORD;
                    prop_assert_eq!(
                        cache.evict_word(w as usize),
                        model.remove_range(w * PAGES_PER_WORD, (w + 1) * PAGES_PER_WORD)
                    );
                }
                7 => {
                    cache.touch_range(istart, iend, now);
                    for p in PageModel::pages(istart, iend) {
                        let w = p / PAGES_PER_WORD as usize;
                        model.touch[w] = model.touch[w].max(now);
                    }
                }
                8 => {
                    cache.lower_ready(start, end, now);
                    for p in PageModel::pages(start, end) {
                        let w = p / PAGES_PER_WORD as usize;
                        model.ready[w] = model.ready[w].min(now);
                    }
                }
                9 => prop_assert_eq!(
                    cache.clear_dirty(),
                    model.clear_dirty_range(0, MODEL_PAGES)
                ),
                _ => {} // query-only step
            }

            prop_assert_eq!(cache.resident(), PageModel::count(&model.present));
            prop_assert_eq!(cache.dirty_pages(), PageModel::count(&model.dirty));
            prop_assert_eq!(cache.speculative_pages(), PageModel::count(&model.speculative));
            prop_assert_eq!(cache.dirty_since_ns(), model.dirty_since);
            prop_assert_eq!(cache.quality(), model.quality);
            prop_assert_eq!(cache.word_summaries(), model.word_summaries());
            prop_assert_eq!(
                cache.dirty_runs(),
                PageModel::runs(&model.dirty, true, 0, MODEL_PAGES)
            );
            // Range queries over the op's own range and over everything.
            for (qs, qe) in [(start, end.min(MODEL_PAGES + 300)), (0, MODEL_PAGES + 300)] {
                prop_assert_eq!(
                    cache.missing_runs(qs, qe),
                    PageModel::runs(&model.present, false, qs, qe)
                );
                prop_assert_eq!(
                    cache.present_in(qs, qe),
                    PageModel::count(&model.present[PageModel::pages(qs, qe)])
                );
                let ready = PageModel::pages(qs, qe)
                    .map(|p| model.ready[p / PAGES_PER_WORD as usize])
                    .max();
                prop_assert_eq!(cache.ready_max(qs, qe), ready.unwrap_or(0));
                let words = if qs < qe {
                    qs / PAGES_PER_WORD..qe.div_ceil(PAGES_PER_WORD)
                } else {
                    0..0
                };
                prop_assert_eq!(
                    cache.snapshot_words(qs, qe),
                    words.map(|w| model.present_word(w)).collect::<Vec<_>>()
                );
            }
        }
        for page in 0..MODEL_PAGES + 100 {
            let expect = model.present.get(page as usize).copied().unwrap_or(false);
            prop_assert_eq!(cache.is_present(page), expect);
        }
    }

    #[test]
    fn readahead_requests_stay_in_envelope(
        accesses in prop::collection::vec((0u64..100_000, 1u64..64), 1..200),
        cap in 1u64..512,
    ) {
        let mut ra = RaState::new(cap);
        for (page, count) in accesses {
            if let Some(req) = ra.on_read(page, count) {
                // Requests never exceed the cap and always look forward.
                prop_assert!(req.count <= ra.effective_max());
                prop_assert!(req.count >= 1);
                prop_assert!(req.start >= page);
            }
        }
    }

    #[test]
    fn readahead_random_mode_is_silent(
        accesses in prop::collection::vec((0u64..100_000, 1u64..64), 1..100)
    ) {
        let mut ra = RaState::new(32);
        ra.set_mode(RaMode::Random);
        for (page, count) in accesses {
            prop_assert_eq!(ra.on_read(page, count), None);
        }
    }

    #[test]
    fn dontneed_drops_exactly_the_range(
        cached in prop::collection::vec((0u64..512, 1u64..64), 1..20),
        drop_start in 0u64..512,
        drop_len in 1u64..256,
    ) {
        let os = Os::new(
            OsConfig::with_memory_mb(64),
            Device::new(DeviceConfig::local_nvme()),
            FileSystem::new(FsKind::Ext4Like),
        );
        let mut clock = os.new_clock();
        let fd = os.create_sized(&mut clock, "/adv", 4 << 20).unwrap();
        os.fadvise(&mut clock, &os.fd_entry(fd), Advice::Random, 0, 0); // exact residency
        let mut reference: HashSet<u64> = HashSet::new();
        let file_pages = (4u64 << 20) / PAGE_SIZE;
        for (page, len) in cached {
            let end = (page + len).min(file_pages);
            if page >= end {
                continue;
            }
            os.read_charge(&mut clock, fd, page * PAGE_SIZE, (end - page) * PAGE_SIZE);
            reference.extend(page..end);
        }
        let drop_end = (drop_start + drop_len).min(file_pages);
        os.fadvise(
            &mut clock,
            &os.fd_entry(fd),
            Advice::DontNeed,
            drop_start * PAGE_SIZE,
            drop_len * PAGE_SIZE,
        );
        reference.retain(|&p| p < drop_start || p >= drop_end);

        let cache = os.cache(os.fd_inode(fd));
        let state = cache.state.read();
        for page in 0..file_pages {
            prop_assert_eq!(
                state.is_present(page),
                reference.contains(&page),
                "page {}", page
            );
        }
        prop_assert_eq!(os.mem().resident(), reference.len() as u64);
    }
}

#[test]
fn dontneed_byte_rounding_matches_linux() {
    // Linux `POSIX_FADV_DONTNEED` drops only pages wholly inside the byte
    // range: the start rounds up to a page boundary, the end rounds down.
    // A page the range merely grazes survives.
    let os = Os::new(
        OsConfig::with_memory_mb(64),
        Device::new(DeviceConfig::local_nvme()),
        FileSystem::new(FsKind::Ext4Like),
    );
    let mut clock = os.new_clock();
    let fd = os.create_sized(&mut clock, "/pp", 1 << 20).unwrap();
    os.fadvise(&mut clock, &os.fd_entry(fd), Advice::Random, 0, 0);
    os.read_charge(&mut clock, fd, 0, 64 * 1024); // pages 0..16
                                                  // Drop bytes [4196, 16484): pages 2..4 are wholly inside.
    os.fadvise(
        &mut clock,
        &os.fd_entry(fd),
        Advice::DontNeed,
        4096 + 100,
        3 * 4096,
    );
    let cache = os.cache(os.fd_inode(fd));
    let state = cache.state.read();
    assert!(state.is_present(0));
    assert!(state.is_present(1), "grazed start page survives");
    assert!(!state.is_present(2));
    assert!(!state.is_present(3));
    assert!(state.is_present(4), "grazed end page survives");
}
