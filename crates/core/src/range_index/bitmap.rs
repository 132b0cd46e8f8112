//! Word-at-a-time page presence bitmap for the reference range tree.
//!
//! One bit per page, packed 64 pages to a `u64`. All range operations run
//! on the word walk in [`simstore::wordwalk`] (shared with the OS cache
//! state and the tier placement map) rather than bit-by-bit loops, so
//! probing or marking a 4 MiB stripe touches 16 words instead of 1024
//! bits. Only the flat [`RangeTree`] embeds a `PageBitmap`, one per fixed
//! stride node; the B+ index keeps its bits as atomic words per region and
//! shares this module's run collector with it.
//!
//! [`RangeTree`]: crate::range_tree::RangeTree

use simstore::wordwalk::{bit_is_set, bit_runs, word_spans, WORD_BITS};

/// A growable page-presence bitmap with word-masked bulk operations.
///
/// Page numbers are local to the bitmap (bit 0 = the owner's first page).
/// Storage grows lazily to the highest word ever touched and is retained
/// across [`clear_all`](PageBitmap::clear_all), mirroring a kernel bitmap
/// that stays allocated once the range has been populated.
#[derive(Debug, Default)]
pub struct PageBitmap {
    words: Vec<u64>,
    resident: u64,
}

impl PageBitmap {
    /// Creates an empty bitmap with no storage allocated.
    pub fn new() -> Self {
        Self::default()
    }

    /// Whether any storage was ever allocated (some page was ever set).
    pub fn is_allocated(&self) -> bool {
        !self.words.is_empty()
    }

    /// Pages currently set.
    pub fn resident(&self) -> u64 {
        self.resident
    }

    /// Whether local page `page` is set.
    pub fn is_set(&self, page: u64) -> bool {
        bit_is_set(&self.words, page)
    }

    fn word(&self, w: usize) -> u64 {
        self.words.get(w).copied().unwrap_or(0)
    }

    /// Sets every page in `[start, end)`; returns how many were newly set.
    pub fn set_range(&mut self, start: u64, end: u64) -> u64 {
        if start >= end {
            return 0;
        }
        let need = end.div_ceil(WORD_BITS) as usize;
        if self.words.len() < need {
            self.words.resize(need, 0);
        }
        let mut newly = 0u64;
        for (w, mask) in word_spans(start, end) {
            newly += u64::from((mask & !self.words[w]).count_ones());
            self.words[w] |= mask;
        }
        self.resident += newly;
        newly
    }

    /// Whether every page in `[start, end)` is set.
    pub fn contains_all(&self, start: u64, end: u64) -> bool {
        word_spans(start, end).all(|(w, mask)| self.word(w) & mask == mask)
    }

    /// Zeroes every bit, keeping the allocation. Returns pages cleared.
    pub fn clear_all(&mut self) -> u64 {
        self.words.fill(0);
        std::mem::take(&mut self.resident)
    }

    /// Extends `out` with the unset runs of local range `[start, end)`,
    /// reported in absolute pages (`base` + local page), carrying `open`
    /// across calls like the free `collect_missing`.
    pub fn collect_missing(
        &self,
        start: u64,
        end: u64,
        base: u64,
        open: &mut Option<u64>,
        out: &mut Vec<(u64, u64)>,
    ) {
        collect_missing(|w| self.word(w), start, end, base, open, out);
    }
}

/// Extends `out` with the unset runs of bits `[start, end)` of the bitmap
/// whose word `w` reads `word(w)`, reported in absolute pages (`base` +
/// bit).
///
/// `open` carries an absolute run start across calls so a missing run
/// spanning two bitmaps (adjacent nodes or regions) is reported once.
/// Words are split into runs of equal bits; no bit is visited alone.
pub(crate) fn collect_missing(
    word: impl Fn(usize) -> u64,
    start: u64,
    end: u64,
    base: u64,
    open: &mut Option<u64>,
    out: &mut Vec<(u64, u64)>,
) {
    for (w, mask) in word_spans(start, end) {
        for (b0, _, set) in bit_runs(word(w), mask) {
            let at = base + w as u64 * WORD_BITS + b0;
            if !set {
                // A missing run opens here unless one is already open.
                open.get_or_insert(at);
            } else if let Some(s) = open.take() {
                out.push((s, at));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simstore::wordwalk::word_mask;

    #[test]
    fn word_mask_edges() {
        assert_eq!(word_mask(0, 64), u64::MAX);
        assert_eq!(word_mask(0, 1), 1);
        assert_eq!(word_mask(63, 64), 1 << 63);
        assert_eq!(word_mask(4, 4), 0);
        assert_eq!(word_mask(8, 16), 0xFF00);
    }

    #[test]
    fn set_range_within_one_word() {
        let mut bm = PageBitmap::new();
        assert_eq!(bm.set_range(3, 9), 6);
        assert!(bm.contains_all(3, 9));
        assert!(!bm.contains_all(2, 9));
        assert!(!bm.contains_all(3, 10));
        assert_eq!(bm.resident(), 6);
    }

    #[test]
    fn set_range_exactly_one_word() {
        let mut bm = PageBitmap::new();
        assert_eq!(bm.set_range(0, 64), 64);
        assert!(bm.contains_all(0, 64));
        assert!(!bm.is_set(64));
        assert_eq!(bm.words.len(), 1);
    }

    #[test]
    fn set_range_straddles_word_boundary() {
        let mut bm = PageBitmap::new();
        assert_eq!(bm.set_range(60, 70), 10);
        assert!(bm.contains_all(60, 70));
        assert!(bm.is_set(63));
        assert!(bm.is_set(64));
        assert!(!bm.is_set(59));
        assert!(!bm.is_set(70));
        // Overlapping re-set counts only the fresh pages.
        assert_eq!(bm.set_range(58, 72), 4);
        assert_eq!(bm.resident(), 14);
    }

    #[test]
    fn set_range_spans_multiple_full_words() {
        let mut bm = PageBitmap::new();
        assert_eq!(bm.set_range(63, 257), 194);
        assert!(bm.contains_all(63, 257));
        assert!(!bm.contains_all(62, 257));
        assert!(!bm.contains_all(63, 258));
        assert_eq!(bm.words[1], u64::MAX);
        assert_eq!(bm.words[2], u64::MAX);
    }

    #[test]
    fn empty_range_is_a_no_op() {
        let mut bm = PageBitmap::new();
        assert_eq!(bm.set_range(5, 5), 0);
        assert!(bm.contains_all(5, 5));
        assert!(!bm.is_allocated());
    }

    #[test]
    fn contains_all_beyond_allocation_is_false() {
        let mut bm = PageBitmap::new();
        bm.set_range(0, 10);
        assert!(!bm.contains_all(0, 65));
        assert!(!bm.is_set(1_000));
    }

    #[test]
    fn clear_all_keeps_allocation() {
        let mut bm = PageBitmap::new();
        bm.set_range(0, 100);
        assert_eq!(bm.clear_all(), 100);
        assert_eq!(bm.resident(), 0);
        assert!(bm.is_allocated());
        assert!(!bm.contains_all(0, 1));
    }

    #[test]
    fn collect_missing_skips_full_and_empty_words() {
        let mut bm = PageBitmap::new();
        bm.set_range(0, 64); // word 0 full
        bm.set_range(130, 140); // word 2 partial; word 1 empty
        let mut open = None;
        let mut out = Vec::new();
        bm.collect_missing(0, 192, 1_000, &mut open, &mut out);
        assert_eq!(out, vec![(1_064, 1_130)]);
        assert_eq!(open, Some(1_140));
    }

    #[test]
    fn collect_missing_carries_open_run_across_bitmaps() {
        let a = PageBitmap::new();
        let mut b = PageBitmap::new();
        b.set_range(5, 10);
        let mut open = None;
        let mut out = Vec::new();
        // Two adjacent 64-page owners: pages 0..64 then 64..128 absolute.
        a.collect_missing(0, 64, 0, &mut open, &mut out);
        b.collect_missing(0, 64, 64, &mut open, &mut out);
        assert_eq!(out, vec![(0, 69)]);
        assert_eq!(open, Some(74));
    }

    #[test]
    fn matches_naive_reference_on_random_ops() {
        // Deterministic LCG-driven cross-check against a bool-vec model.
        let mut bm = PageBitmap::new();
        let mut model = vec![false; 512];
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            state >> 33
        };
        for _ in 0..400 {
            let a = next() % 512;
            let b = (a + 1 + next() % 96).min(512);
            let newly = bm.set_range(a, b);
            let mut expect = 0;
            for p in a..b {
                if !model[p as usize] {
                    expect += 1;
                    model[p as usize] = true;
                }
            }
            assert_eq!(newly, expect);
            let qa = next() % 512;
            let qb = (qa + next() % 128).min(512);
            assert_eq!(
                bm.contains_all(qa, qb),
                model[qa as usize..qb as usize].iter().all(|&x| x),
            );
            // Missing runs, page by page: maximal, offset by `base`.
            let (mut open, mut got) = (None, Vec::new());
            bm.collect_missing(qa, qb, 1_000, &mut open, &mut got);
            got.extend(open.map(|s| (s, 1_000 + qb)));
            let mut expect: Vec<(u64, u64)> = Vec::new();
            for p in (qa..qb).filter(|&p| !model[p as usize]) {
                match expect.last_mut() {
                    Some(last) if last.1 == 1_000 + p => last.1 += 1,
                    _ => expect.push((1_000 + p, 1_001 + p)),
                }
            }
            assert_eq!(got, expect);
        }
        assert_eq!(bm.resident(), model.iter().filter(|&&x| x).count() as u64);
    }
}
