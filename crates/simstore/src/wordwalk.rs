//! The word walk every page/block bitmap in the stack shares.
//!
//! A bitmap here is a sequence of `u64` words, bit `i` of word `w`
//! standing for page (or block) `w * 64 + i`. The OS cache state
//! (`simos::cache`), CROSS-LIB's range-index nodes and the tier placement
//! map all answer range questions the same way: visit each word the range
//! overlaps with the mask of the bits it covers ([`word_spans`]), combine
//! masked words with popcounts, and — where the answer is a list of runs —
//! split one masked word into its maximal runs of equal bits
//! ([`bit_runs`], [`set_runs`]). Nothing visits single bits.

/// Bits per bitmap word.
pub const WORD_BITS: u64 = 64;

/// Mask selecting bits `[b0, b1)` of one word (`b0 <= b1 <= 64`).
pub fn word_mask(b0: u64, b1: u64) -> u64 {
    debug_assert!(b0 <= b1 && b1 <= WORD_BITS);
    if b0 == b1 {
        0
    } else {
        (u64::MAX >> (WORD_BITS - (b1 - b0))) << b0
    }
}

/// `(word index, mask)` for every word the bit range `[start, end)`
/// overlaps, in ascending order; nothing when the range is empty.
pub fn word_spans(start: u64, end: u64) -> impl Iterator<Item = (usize, u64)> {
    let words = if start < end {
        start / WORD_BITS..end.div_ceil(WORD_BITS)
    } else {
        0..0
    };
    words.map(move |w| {
        let base = w * WORD_BITS;
        let mask = word_mask(start.saturating_sub(base), (end - base).min(WORD_BITS));
        (w as usize, mask)
    })
}

/// Splits the bits of `word` selected by `mask` (one contiguous span, as
/// [`word_spans`] yields) into maximal runs `(b0, b1, set)` of equal bits,
/// in ascending order.
pub fn bit_runs(word: u64, mask: u64) -> impl Iterator<Item = (u64, u64, bool)> {
    let mut at = u64::from(mask.trailing_zeros());
    let end = WORD_BITS - u64::from(mask.leading_zeros());
    std::iter::from_fn(move || {
        if at >= end {
            return None;
        }
        let rest = word >> at;
        let set = rest & 1 != 0;
        let same = if set { !rest } else { rest }.trailing_zeros();
        let b0 = at;
        at = (at + u64::from(same)).min(end);
        Some((b0, at, set))
    })
}

/// The maximal runs `[b0, b1)` of set bits of `bits`, in ascending order.
pub fn set_runs(bits: u64) -> impl Iterator<Item = (u64, u64)> {
    bit_runs(bits, u64::MAX)
        .filter(|run| run.2)
        .map(|(b0, b1, _)| (b0, b1))
}

/// Whether `bit` is set in `words`; bits past the end are clear.
pub fn bit_is_set(words: &[u64], bit: u64) -> bool {
    words
        .get((bit / WORD_BITS) as usize)
        .is_some_and(|word| word & (1 << (bit % WORD_BITS)) != 0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn word_spans_cover_the_range_exactly() {
        assert_eq!(word_spans(5, 5).count(), 0);
        assert_eq!(word_spans(9, 3).count(), 0);
        assert_eq!(
            word_spans(3, 9).collect::<Vec<_>>(),
            vec![(0, 0b1_1111_1000)]
        );
        assert_eq!(word_spans(64, 128).collect::<Vec<_>>(), vec![(1, u64::MAX)]);
        assert_eq!(
            word_spans(60, 194).collect::<Vec<_>>(),
            vec![(0, 0xF << 60), (1, u64::MAX), (2, u64::MAX), (3, 0b11)]
        );
        // The last word of the address space does not overflow.
        assert_eq!(
            word_spans(u64::MAX - 1, u64::MAX).collect::<Vec<_>>(),
            vec![((u64::MAX / 64) as usize, 1 << 62)]
        );
    }

    #[test]
    fn bit_runs_alternate_and_stay_inside_the_mask() {
        assert_eq!(bit_runs(0, 0).count(), 0);
        assert_eq!(
            bit_runs(u64::MAX, u64::MAX).collect::<Vec<_>>(),
            vec![(0, 64, true)]
        );
        assert_eq!(
            bit_runs(0, u64::MAX).collect::<Vec<_>>(),
            vec![(0, 64, false)]
        );
        assert_eq!(
            bit_runs(0b0110_0111, word_mask(1, 8)).collect::<Vec<_>>(),
            vec![(1, 3, true), (3, 5, false), (5, 7, true), (7, 8, false)]
        );
        assert_eq!(
            bit_runs(1 << 63, word_mask(60, 64)).collect::<Vec<_>>(),
            vec![(60, 63, false), (63, 64, true)]
        );
        assert_eq!(
            set_runs(0b0110_0111 | 1 << 63).collect::<Vec<_>>(),
            vec![(0, 3), (5, 7), (63, 64)]
        );
    }

    #[test]
    fn walk_matches_a_per_bit_scan() {
        // Deterministic LCG; the per-bit loop is the reference model.
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            state >> 11
        };
        for _ in 0..2_000 {
            let word = (next() & next()) | (next() << 40);
            let (b0, b1) = (next() % 65, next() % 65);
            let (b0, b1) = (b0.min(b1), b0.max(b1));
            let mask = word_mask(b0, b1);
            let mut expect: Vec<(u64, u64, bool)> = Vec::new();
            for b in b0..b1 {
                assert_ne!(mask & (1 << b), 0);
                let set = bit_is_set(&[word], b);
                match expect.last_mut() {
                    Some(run) if run.2 == set => run.1 = b + 1,
                    _ => expect.push((b, b + 1, set)),
                }
            }
            assert_eq!(mask.count_ones() as u64, b1 - b0);
            assert_eq!(bit_runs(word, mask).collect::<Vec<_>>(), expect);
        }
    }

    #[test]
    fn bit_is_set_past_the_end_is_false() {
        assert!(bit_is_set(&[0, 0b100], 66));
        assert!(!bit_is_set(&[0, 0b100], 65));
        assert!(!bit_is_set(&[u64::MAX], 64));
    }
}
