//! The CROSS-LIB strided access-pattern predictor (§4.6).
//!
//! A per-file-descriptor n-bit saturating counter (3 bits by default)
//! classifies the stream into the paper's seven sequentiality states. On
//! every intercepted I/O the counter moves up (sequential-ish access —
//! within the 32-block batch window) or down (random jump), and its value
//! sets the number of blocks to prefetch, growing exponentially (`2^c`
//! blocks). Once a steady state is reached (fully random or fully
//! sequential), predictions are *delayed* for the next `n` accesses to keep
//! interception overhead low.

use crate::{AccessObservation, EngineKind, PredictionEngine, PrefetchDecision};

/// Sequentiality classes reported by the predictor (paper §4.6 naming).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AccessPattern {
    /// Jumps beyond the maximum prefetch distance; prefetching off.
    HighlyRandom,
    /// Random but within the 128 KiB distance.
    Random,
    /// A mix of sequential and random access.
    PartiallyRandom,
    /// Frequent sequential runs interspersed with random access.
    LikelySequential,
    /// Sequential with strides.
    Sequential,
    /// Steady sequential stream.
    DefinitelySequential,
}

impl AccessPattern {
    /// Stable label used in traces and telemetry.
    pub fn name(self) -> &'static str {
        match self {
            AccessPattern::HighlyRandom => "highly-random",
            AccessPattern::Random => "random",
            AccessPattern::PartiallyRandom => "partially-random",
            AccessPattern::LikelySequential => "likely-sequential",
            AccessPattern::Sequential => "sequential",
            AccessPattern::DefinitelySequential => "definitely-sequential",
        }
    }

    /// Dense ordinal (0 = most random), used to store the last-seen
    /// pattern in an atomic for flip detection.
    pub fn index(self) -> u8 {
        match self {
            AccessPattern::HighlyRandom => 0,
            AccessPattern::Random => 1,
            AccessPattern::PartiallyRandom => 2,
            AccessPattern::LikelySequential => 3,
            AccessPattern::Sequential => 4,
            AccessPattern::DefinitelySequential => 5,
        }
    }

    /// Inverse of [`AccessPattern::index`]; `None` for out-of-range values
    /// (the "no pattern seen yet" sentinel).
    pub fn from_index(index: u8) -> Option<Self> {
        Some(match index {
            0 => AccessPattern::HighlyRandom,
            1 => AccessPattern::Random,
            2 => AccessPattern::PartiallyRandom,
            3 => AccessPattern::LikelySequential,
            4 => AccessPattern::Sequential,
            5 => AccessPattern::DefinitelySequential,
            _ => return None,
        })
    }
}

/// Pages within which a jump still counts as sequential-ish (Linux's
/// 32-block batch, §3.1). This is the *default* batch window; it is
/// configurable per predictor via [`Predictor::with_batch_window`] and
/// surfaced as `RuntimeConfig::seq_batch_pages` in the runtime.
pub const SEQ_BATCH_PAGES: u64 = 32;

/// Detected stream direction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Direction {
    /// Offsets increasing.
    Forward,
    /// Offsets decreasing (reverse scans; §4.6 "backward strides").
    Backward,
}

/// One prediction: how much to prefetch after the current access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Prediction {
    /// Classified pattern.
    pub pattern: AccessPattern,
    /// Pages to prefetch beyond the access (0 = none).
    pub prefetch_pages: u64,
    /// First page to prefetch — past the access end for forward streams,
    /// before the access start for backward streams.
    pub from_page: u64,
    /// Stream direction the prefetch follows.
    pub direction: Direction,
    /// Whether the predictor endorses aggressive window growth: the
    /// stream must be definitely sequential *and* its runs long enough
    /// that speculation past the base window will be consumed.
    pub aggressive: bool,
    /// Whether this access broke the previous run (a random jump) — the
    /// runtime resets its pacing frontier when this is set.
    pub jumped: bool,
}

/// Per-descriptor n-bit saturating counter predictor.
///
/// # Example
///
/// ```
/// use predict::{AccessPattern, Predictor};
///
/// let mut predictor = Predictor::new(3);
/// // A sequential stream ramps the counter and the prefetch window.
/// let mut last = None;
/// for i in 0..20u64 {
///     last = Some(predictor.on_access(i * 4, 4, false, 16_384));
/// }
/// let prediction = last.unwrap();
/// assert_eq!(prediction.pattern, AccessPattern::DefinitelySequential);
/// assert!(prediction.prefetch_pages >= 64);
/// ```
#[derive(Debug, Clone)]
pub struct Predictor {
    bits: u32,
    counter: u32,
    /// Pages within which a jump still counts as sequential-ish.
    batch_window: u64,
    prev_end: Option<u64>,
    /// Start page of the previous access — direction voting compares
    /// against where the previous access *began*, because near page 0 a
    /// clamp on `prev_end - count` misreads a backward run as a reversal.
    prev_start: Option<u64>,
    /// Steady-state damping: skip this many updates.
    skip: u32,
    /// Aggressive-mode growth window (pages), doubling while saturated.
    aggressive_window: u64,
    /// Direction score: positive = forward, negative = backward.
    dir_score: i32,
    /// Pages consumed in the current sequential run.
    run_pages: u64,
    /// Exponential moving average of completed run lengths — used to cap
    /// speculation for batched-but-random streams so the window covers
    /// the rest of the batch without overshooting into the jump.
    avg_run_pages: u64,
}

impl Predictor {
    /// Creates a predictor with an `bits`-bit counter (the paper finds 3
    /// bits best; 1..=5 are supported) and the default
    /// [`SEQ_BATCH_PAGES`] sequential-batch window.
    ///
    /// # Panics
    ///
    /// Panics if `bits` is 0 or greater than 5.
    pub fn new(bits: u32) -> Self {
        Self::with_batch_window(bits, SEQ_BATCH_PAGES)
    }

    /// Creates a predictor with an explicit sequential-batch window:
    /// jumps within `batch_window` pages of the previous access still
    /// count as sequential-ish. The default is [`SEQ_BATCH_PAGES`].
    ///
    /// # Panics
    ///
    /// Panics if `bits` is 0 or greater than 5, or if `batch_window`
    /// is 0.
    pub fn with_batch_window(bits: u32, batch_window: u64) -> Self {
        assert!((1..=5).contains(&bits), "counter width {bits} out of 1..=5");
        assert!(batch_window > 0, "batch window must be at least one page");
        Self {
            bits,
            counter: 0,
            batch_window,
            prev_end: None,
            prev_start: None,
            skip: 0,
            aggressive_window: 0,
            dir_score: 0,
            run_pages: 0,
            avg_run_pages: 0,
        }
    }

    /// Counter ceiling (`2^bits - 1`).
    pub fn max_count(&self) -> u32 {
        (1 << self.bits) - 1
    }

    /// Current raw counter value.
    pub fn counter(&self) -> u32 {
        self.counter
    }

    /// Maps the counter to the paper's pattern classes (scaled to the
    /// configured width; shown for the default 3-bit encoding 000..110).
    pub fn pattern(&self) -> AccessPattern {
        // Scale counter to 0..=7 for classification.
        let scaled = if self.bits == 3 {
            self.counter
        } else {
            self.counter * 7 / self.max_count()
        };
        match scaled {
            0 => AccessPattern::HighlyRandom,
            1 => AccessPattern::Random,
            2 => AccessPattern::PartiallyRandom,
            3 => AccessPattern::LikelySequential,
            4 | 5 => AccessPattern::Sequential,
            _ => AccessPattern::DefinitelySequential,
        }
    }

    /// Feeds an access of `count` pages at `page`; returns the prediction.
    ///
    /// The returned `prefetch_pages` is the exponential base window
    /// (`2^c` blocks, §4.6), capped at `max_pages`. Aggressive growth
    /// beyond the base is paced by *consumption* in the runtime's
    /// frontier logic, not here — a saturated counter alone must not keep
    /// doubling the window while the reader has not caught up.
    pub fn on_access(
        &mut self,
        page: u64,
        count: u64,
        aggressive: bool,
        max_pages: u64,
    ) -> Prediction {
        let end = page + count;
        let before_end = self.prev_end;
        let before_start = self.prev_start;
        let sequentialish = match before_end {
            None => true, // optimistic-at-open (§4.6)
            Some(prev) => page + self.batch_window >= prev && page <= prev + self.batch_window,
        };
        if let (Some(pend), Some(pstart)) = (before_end, before_start) {
            // Direction voting: a backward-adjacent access (this access
            // ends where the previous one started, give or take the batch
            // window) pushes the score negative. The comparison anchors on
            // the previous access's *start*: subtracting `count` from the
            // previous end clamps at page 0 and misclassified a backward
            // run that reaches the front of the file as a reversal.
            if end <= pstart.saturating_add(self.batch_window) && page < pstart {
                self.dir_score = (self.dir_score - 1).max(-8);
            } else if page >= pend.saturating_sub(self.batch_window) {
                self.dir_score = (self.dir_score + 1).min(8);
            }
        }
        self.prev_end = Some(end);
        self.prev_start = Some(page);

        // Run-length tracking for fine-grained speculation capping.
        if sequentialish {
            self.run_pages += count;
        } else {
            if self.run_pages > 0 {
                self.avg_run_pages = if self.avg_run_pages == 0 {
                    self.run_pages
                } else {
                    (3 * self.avg_run_pages + self.run_pages) / 4
                };
            }
            self.run_pages = count;
        }

        if self.skip > 0 {
            self.skip -= 1;
        } else {
            let max = self.max_count();
            if sequentialish {
                if self.counter < max {
                    // A large sequential access is itself strong evidence:
                    // weight the bump by its size so streams issuing few,
                    // big reads (e.g. whole-file loads) ramp immediately.
                    let bump = 1 + (64 - count.max(1).leading_zeros()).saturating_sub(3);
                    self.counter = (self.counter + bump).min(max);
                } else {
                    self.skip = self.bits; // steady sequential: damp updates
                }
            } else {
                // Far jumps fall harder than near ones. Measured from the
                // *previous* access's end (captured before it was
                // overwritten above — the stale read made every jump look
                // `count` pages long, so far jumps never fell faster).
                let distance = before_end.map_or(0, |prev| page.abs_diff(prev));
                let drop = if distance > 8 * self.batch_window {
                    2
                } else {
                    1
                };
                if self.counter == 0 {
                    self.skip = self.bits; // steady random: damp updates
                } else {
                    self.counter = self.counter.saturating_sub(drop);
                }
            }
        }

        let prefetch = self.prefetch_amount(aggressive, max_pages);
        let direction = if self.dir_score < -1 {
            Direction::Backward
        } else {
            Direction::Forward
        };
        let from_page = match direction {
            Direction::Forward => end,
            Direction::Backward => page.saturating_sub(prefetch),
        };
        Prediction {
            pattern: self.pattern(),
            prefetch_pages: prefetch,
            from_page,
            direction,
            aggressive: self.aggressive_window > 0,
            jumped: !sequentialish,
        }
    }

    fn prefetch_amount(&mut self, aggressive: bool, max_pages: u64) -> u64 {
        if self.counter < 2 {
            self.aggressive_window = 0;
            return 0;
        }
        let base = 1u64 << self.counter; // 2^c blocks (§4.6)
                                         // Aggressive growth requires a definitely-sequential counter AND
                                         // runs observed to be long — either the historical average or the
                                         // current unbroken run. A batched-random stream saturates the
                                         // counter but keeps short runs; a fresh descriptor has no history
                                         // and must earn its window.
        let long_runs = self.avg_run_pages >= 256 || self.run_pages >= 256;
        if aggressive && self.counter == self.max_count() && long_runs {
            // Offer a larger base (4x) as the seed for the runtime's
            // consumption-paced window doubling.
            self.aggressive_window = (base * 4).min(max_pages);
            return self.aggressive_window;
        }
        self.aggressive_window = 0;
        let mut amount = base.min(max_pages);
        // Fine-grained speculation capping: with run history, cap at the
        // expected remainder of the current run, so a batch is covered
        // without overshooting into the jump. A fresh descriptor has no
        // history; its ramp is already bounded by the counter itself
        // (2^c grows one doubling per access).
        if self.avg_run_pages > 0 {
            let remaining = self.avg_run_pages.saturating_sub(self.run_pages).max(4);
            amount = amount.min(remaining);
        }
        amount
    }
}

impl Default for Predictor {
    fn default() -> Self {
        Self::new(3)
    }
}

impl PredictionEngine for Predictor {
    fn kind(&self) -> EngineKind {
        EngineKind::Strided
    }

    fn observe(&mut self, obs: &AccessObservation) -> PrefetchDecision {
        let prediction = self.on_access(
            obs.page,
            obs.pages,
            obs.aggressive_ok,
            obs.max_prefetch_pages,
        );
        let confidence = f64::from(self.counter()) / f64::from(self.max_count());
        PrefetchDecision {
            prediction: Some(prediction),
            confidence,
            ..PrefetchDecision::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MAX: u64 = 16384;

    fn drive_sequential(p: &mut Predictor, start: u64, accesses: u64, count: u64) -> Prediction {
        let mut last = None;
        for i in 0..accesses {
            last = Some(p.on_access(start + i * count, count, false, MAX));
        }
        last.unwrap()
    }

    #[test]
    fn sequential_stream_saturates_to_definitely_sequential() {
        let mut p = Predictor::new(3);
        let pred = drive_sequential(&mut p, 0, 10, 4);
        assert_eq!(pred.pattern, AccessPattern::DefinitelySequential);
        assert_eq!(pred.prefetch_pages, 128); // 2^7
    }

    #[test]
    fn short_run_descriptor_ramps_with_the_counter() {
        // A fresh descriptor's speculation grows one doubling per access —
        // the counter itself bounds the ramp.
        let mut p = Predictor::new(3);
        let first = p.on_access(0, 1, true, MAX).prefetch_pages;
        let second = p.on_access(1, 1, true, MAX).prefetch_pages;
        let third = p.on_access(2, 1, true, MAX).prefetch_pages;
        assert_eq!(first, 0); // counter 1: no speculation yet
        assert_eq!(second, 4); // counter 2: 2^2
        assert_eq!(third, 8); // counter 3: 2^3
    }

    #[test]
    fn random_stream_drops_to_no_prefetch() {
        let mut p = Predictor::new(3);
        drive_sequential(&mut p, 0, 10, 4);
        // Far random jumps.
        let mut pred = None;
        for i in 0..10u64 {
            pred = Some(p.on_access(i * 100_000, 4, false, MAX));
        }
        let pred = pred.unwrap();
        assert_eq!(pred.prefetch_pages, 0);
        assert!(matches!(
            pred.pattern,
            AccessPattern::HighlyRandom | AccessPattern::Random
        ));
    }

    #[test]
    fn prefetch_grows_exponentially_with_counter() {
        let mut p = Predictor::new(3);
        let mut amounts = Vec::new();
        for i in 0..8u64 {
            amounts.push(p.on_access(i * 4, 4, false, MAX).prefetch_pages);
        }
        // 2^c once c >= 2, strictly growing until saturation.
        assert_eq!(amounts[..4], [0, 4, 8, 16]);
        assert!(amounts.windows(2).all(|w| w[1] >= w[0]));
    }

    #[test]
    fn near_jumps_fall_slower_than_far_jumps() {
        let mut near = Predictor::new(3);
        let mut far = Predictor::new(3);
        drive_sequential(&mut near, 0, 10, 4);
        drive_sequential(&mut far, 0, 10, 4);
        near.on_access(40 + 40, 4, false, MAX); // just outside batch window
        far.on_access(1_000_000, 4, false, MAX);
        assert!(near.counter() >= far.counter());
    }

    #[test]
    fn aggressive_mode_offers_larger_base_after_long_runs() {
        let mut p = Predictor::new(3);
        // Aggressive growth requires ≥256 consumed pages of unbroken run.
        let mut amount = 0;
        for i in 0..80u64 {
            amount = p.on_access(i * 4, 4, true, MAX).prefetch_pages;
        }
        assert!(
            amount > 128,
            "aggressive base must exceed the 2^c base after a long run, got {amount}"
        );
        // And it is capped.
        for i in 80..120u64 {
            let pred = p.on_access(i * 4, 4, true, MAX);
            assert!(pred.prefetch_pages <= MAX);
        }
        // A small cap is honored.
        let mut q = Predictor::new(3);
        for i in 0..100u64 {
            assert!(q.on_access(i * 4, 4, true, 64).prefetch_pages <= 64);
        }
    }

    #[test]
    fn short_run_descriptor_earns_speculation_slowly() {
        // A fresh descriptor with 2 consumed pages may not speculate big.
        let mut p = Predictor::new(3);
        p.on_access(0, 1, true, MAX);
        let pred = p.on_access(1, 1, true, MAX);
        assert!(pred.prefetch_pages <= 4, "got {}", pred.prefetch_pages);
    }

    #[test]
    fn batched_stream_caps_at_expected_run_remainder() {
        let mut p = Predictor::new(3);
        // Several 16-page batches separated by far jumps.
        let mut base = 0u64;
        for _ in 0..6 {
            for i in 0..16u64 {
                p.on_access(base + i, 1, true, MAX);
            }
            base += 1_000_000;
        }
        // First access of a new batch: speculation ≤ the learned run size.
        let pred = p.on_access(base, 1, true, MAX);
        assert!(
            pred.prefetch_pages <= 16,
            "batch-capped window, got {}",
            pred.prefetch_pages
        );
        assert!(pred.jumped);
    }

    #[test]
    fn steady_state_damps_updates() {
        let mut p = Predictor::new(3);
        drive_sequential(&mut p, 0, 20, 4);
        assert_eq!(p.counter(), p.max_count());
        // One random jump during the damped phase leaves the counter alone.
        p.on_access(10_000_000, 4, false, MAX);
        assert_eq!(p.counter(), p.max_count());
    }

    #[test]
    fn first_access_is_optimistic() {
        let mut p = Predictor::new(3);
        let pred = p.on_access(500, 4, false, MAX);
        assert_eq!(p.counter(), 1);
        assert_eq!(pred.from_page, 504);
    }

    #[test]
    fn configurable_widths_classify_consistently() {
        for bits in 1..=5u32 {
            let mut p = Predictor::new(bits);
            for i in 0..40u64 {
                p.on_access(i * 4, 4, false, MAX);
            }
            assert_eq!(
                p.pattern(),
                AccessPattern::DefinitelySequential,
                "width {bits}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "out of 1..=5")]
    fn zero_width_rejected() {
        Predictor::new(0);
    }

    #[test]
    #[should_panic(expected = "at least one page")]
    fn zero_batch_window_rejected() {
        Predictor::with_batch_window(3, 0);
    }

    #[test]
    fn default_batch_window_matches_the_constant() {
        // Lifting SEQ_BATCH_PAGES into configuration must not change the
        // default behaviour: a predictor built via `new` and one built via
        // `with_batch_window(bits, SEQ_BATCH_PAGES)` stay in lockstep over
        // a mixed stream.
        let mut a = Predictor::new(3);
        let mut b = Predictor::with_batch_window(3, SEQ_BATCH_PAGES);
        let mut state = 0x9E3779B97F4A7C15u64;
        for i in 0..256u64 {
            let page = if i % 3 == 0 {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                state % 1_000_000
            } else {
                i * 4
            };
            assert_eq!(
                a.on_access(page, 4, i % 2 == 0, MAX),
                b.on_access(page, 4, i % 2 == 0, MAX),
            );
            assert_eq!(a.counter(), b.counter());
        }
    }

    #[test]
    fn narrow_batch_window_classifies_strides_as_random() {
        // With a 1-page window, a 4-page stride stream is a run of jumps.
        let mut p = Predictor::with_batch_window(3, 1);
        let mut pred = None;
        for i in 1..20u64 {
            pred = Some(p.on_access(i * 8, 4, false, MAX));
        }
        let pred = pred.unwrap();
        assert_eq!(pred.prefetch_pages, 0);
        assert!(matches!(
            pred.pattern,
            AccessPattern::HighlyRandom | AccessPattern::Random
        ));
    }

    #[test]
    fn backward_stream_detected_and_prefetches_backward() {
        let mut p = Predictor::new(3);
        // Reverse scan: each access 4 pages immediately before the last.
        let mut pred = None;
        for i in (0..40u64).rev() {
            pred = Some(p.on_access(i * 4, 4, false, MAX));
        }
        let pred = pred.unwrap();
        assert_eq!(pred.direction, Direction::Backward);
        assert!(pred.prefetch_pages > 0, "backward stream is sequential-ish");
        // The prefetch window sits before the access, not after it.
        assert!(pred.from_page < 4);
    }

    #[test]
    fn forward_stream_reports_forward() {
        let mut p = Predictor::new(3);
        let pred = drive_sequential(&mut p, 0, 10, 4);
        assert_eq!(pred.direction, Direction::Forward);
        assert_eq!(pred.from_page, 40);
    }
}
