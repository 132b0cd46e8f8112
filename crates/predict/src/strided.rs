//! The CROSS-LIB strided access-pattern predictor (§4.6).
//!
//! A per-file-descriptor n-bit saturating counter (3 bits by default)
//! classifies the stream into the paper's seven sequentiality states. On
//! every intercepted I/O the counter moves up (sequential-ish access —
//! within the 32-block batch window) or down (random jump), and its value
//! sets the number of blocks to prefetch, growing exponentially (`2^c`
//! blocks). Once a steady state is reached (fully random or fully
//! sequential), counter updates are *delayed* for the next `n`
//! sequential-ish accesses to keep interception overhead low; a jump is
//! never damped, so a stream that turns random stops prefetching at once.
//!
//! The counter re-earns its window inside every run, so on a file read as
//! short runs (an index page then an 8-page record, a burst of four
//! 16 KiB reads at a random offset) every other page is late and the
//! window overshoots the run's end. The predictor therefore also learns
//! the **run shape**: the page length of the last two completed forward
//! runs of at least two accesses, planning for the shorter of them (one
//! long scan between records must not inflate a burst).
//!
//! | Where in the run | Prediction |
//! |---|---|
//! | at a jump, runs always continue | one request for the expected remainder, never past the learned run end ([`Prediction::known_run`]) |
//! | at a jump after a lone access that always leads a run | the same request — the index page announces its record |
//! | at a jump otherwise | nothing — the access may stay lone |
//! | first continuation | that one request, unless the jump already made it |
//! | the access after a held known run | what is left of that request, again as a known run |
//! | inside what that request covered | nothing |
//! | past it (the run outgrew its shape) | the counter's ramp, untouched |
//! | no shape known | the counter's ramp, untouched |
//!
//! No shape is known before two runs have completed, in a backward or
//! overlapping run, and when runs are at least as long as the counter's
//! own ceiling of `2^max_count` pages — those the ramp covers by itself.
//! Which count licenses the ask at a jump depends on the run before it.
//! After a run, runs *always continue* once the last two completed runs
//! (`CONTINUING_RUNS`) were both forward runs of at least two accesses;
//! a lone access or a backward run resets that count. After a lone access
//! (an index page before a record), the lone access *always leads a run*
//! once the last two lone accesses were each followed by such a run; a
//! lone access followed by another lone access or by a backward run resets
//! that count. Below its count the request waits for the first
//! continuation again — as it does for one run when the runtime refuses a
//! jump's request a ride ([`PredictionEngine::defer_known_run`]), which
//! moves back whichever count licensed the ask. A known run whose access
//! crossed nothing (its pages were cached, so there was no miss to ride) is
//! *held* instead ([`PredictionEngine::hold_known_run`]): the run's next
//! forward access asks for what is left of it, `[end, covered)`, again as a
//! known run, so the next miss in the run carries it. A hold lasts one
//! access; a jump, or a run that has read past what it covered, drops it.

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
/// 32-block batch, §3.1; the OS model's `simos::readahead::SEQ_BATCH_PAGES`
/// is the same number).
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
    /// Whether this is the learned remainder of the run this access
    /// starts, asked for at the jump because this descriptor's runs always
    /// continue (or, after a lone access, its lone accesses always lead a
    /// run): a known future demand read rather than a guess, which the
    /// runtime may submit together with the miss that starts the run.
    pub known_run: bool,
}

/// Consecutive completed multi-access forward runs (or, after a lone
/// access, consecutive lone accesses each followed by one) after which the
/// remainder of the next run is asked for at its jump.
const CONTINUING_RUNS: u32 = 2;

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
    prev_end: Option<u64>,
    /// Start page of the previous access — direction voting compares
    /// against where the previous access *began*, because near page 0 a
    /// clamp on `prev_end - count` misreads a backward run as a reversal.
    prev_start: Option<u64>,
    /// Steady-state damping: skip this many sequential-ish updates.
    skip: u32,
    /// Direction score: positive = forward, negative = backward.
    dir_score: i32,
    /// Pages consumed in the current sequential run.
    run_pages: u64,
    /// How long this descriptor's forward runs are.
    shape: RunShape,
}

/// What the predictor has learned about how long this descriptor's forward
/// runs are, and where in the current run the reader is. See the module
/// docs for the protocol.
#[derive(Debug, Clone, Default)]
struct RunShape {
    /// First page of the current run.
    start: u64,
    /// One past the furthest page the current run has read.
    end: u64,
    /// Accesses in the current run (0 only before the first access).
    accesses: u64,
    /// Every continuation so far moved forward past `end`.
    forward: bool,
    /// One past the last page the current run's one request asked for
    /// (`end` of the run's first access until it is issued).
    covered: u64,
    /// Page lengths of the last two completed multi-access forward runs,
    /// newest first; 0 = not seen yet.
    recent: [u64; 2],
    /// Completed runs since the last lone or non-forward one, saturating
    /// at [`CONTINUING_RUNS`].
    continuing: u32,
    /// Lone accesses in a row, newest first, each followed by a completed
    /// forward run of at least two accesses, saturating at
    /// [`CONTINUING_RUNS`]; a lone access followed by another lone access
    /// or a non-forward run resets it.
    led_by_lone: u32,
    /// The run before this one was a lone access.
    after_lone: bool,
    /// The runtime held the known run the last access asked for: the next
    /// forward access asks for what is left of it again. Lasts one access.
    held: bool,
}

impl RunShape {
    /// The run length to plan for: the shorter of the last two completed
    /// runs, so one long scan between records cannot inflate a request.
    /// 0 until two runs have completed.
    fn expected(&self) -> u64 {
        self.recent[0].min(self.recent[1])
    }

    /// The count that licenses an ask at this run's jump: lone accesses
    /// that led runs when the previous run was lone, continuing runs
    /// otherwise.
    fn licence(&mut self) -> &mut u32 {
        if self.after_lone {
            &mut self.led_by_lone
        } else {
            &mut self.continuing
        }
    }

    /// Tracks the access `page..end` and turns the counter's `ramp`
    /// prediction into the predictor's: one request per run for the
    /// expected remainder — at the jump when its [`RunShape::licence`] is
    /// at the ceiling, on the first continuation otherwise, and what is
    /// left of it again on the access after a hold — silent while the
    /// reader is inside what that request covered, and the ramp untouched
    /// otherwise (no shape, or runs of `ramp_ceiling` pages and more —
    /// those the ramp covers by itself).
    fn plan(
        &mut self,
        page: u64,
        end: u64,
        max_pages: u64,
        ramp_ceiling: u64,
        ramp: Prediction,
    ) -> Prediction {
        let held = std::mem::take(&mut self.held);
        if ramp.jumped || self.accesses == 0 {
            let completed = self.forward && self.accesses >= 2;
            if completed {
                self.recent = [self.end - self.start, self.recent[0]];
            }
            let led_by_lone = match (self.after_lone, completed) {
                (false, _) => self.led_by_lone,
                (true, true) => (self.led_by_lone + 1).min(CONTINUING_RUNS),
                (true, false) => 0,
            };
            *self = RunShape {
                start: page,
                end,
                accesses: 1,
                forward: true,
                covered: end,
                recent: self.recent,
                continuing: if completed {
                    (self.continuing + 1).min(CONTINUING_RUNS)
                } else {
                    0
                },
                led_by_lone,
                after_lone: self.accesses == 1,
                held: false,
            };
        } else {
            self.forward &= page >= self.end;
            self.end = self.end.max(end);
            self.accesses += 1;
        }
        let expected = self.expected();
        if !self.forward || expected == 0 || expected >= ramp_ceiling {
            return ramp;
        }
        let at_jump = *self.licence() == CONTINUING_RUNS;
        let asks_on = if at_jump { 1 } else { 2 };
        let request = if self.accesses == asks_on {
            expected
                .saturating_sub(self.end - self.start)
                .min(max_pages)
        } else if held {
            self.covered.saturating_sub(self.end)
        } else {
            0
        };
        if request > 0 {
            self.covered = self.end + request;
        } else if self.end > self.covered {
            return ramp; // the run outgrew its shape: back to the ramp
        }
        Prediction {
            prefetch_pages: request,
            from_page: self.end,
            direction: Direction::Forward,
            aggressive: false,
            known_run: at_jump && request > 0,
            ..ramp
        }
    }
}

impl Predictor {
    /// Creates a predictor with an `bits`-bit counter (the paper finds 3
    /// bits best; 1..=5 are supported). Jumps within [`SEQ_BATCH_PAGES`]
    /// of the previous access still count as sequential-ish.
    ///
    /// # Panics
    ///
    /// Panics if `bits` is 0 or greater than 5.
    pub fn new(bits: u32) -> Self {
        assert!((1..=5).contains(&bits), "counter width {bits} out of 1..=5");
        Self {
            bits,
            counter: 0,
            prev_end: None,
            prev_start: None,
            skip: 0,
            dir_score: 0,
            run_pages: 0,
            shape: RunShape::default(),
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
    /// (`2^c` blocks, §4.6), capped at `max_pages`, unless the learned run
    /// shape plans the run instead (module docs). Aggressive growth
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
            Some(prev) => page + SEQ_BATCH_PAGES >= prev && page <= prev + SEQ_BATCH_PAGES,
        };
        if let (Some(pend), Some(pstart)) = (before_end, before_start) {
            // Direction voting: a backward-adjacent access (this access
            // ends where the previous one started, give or take the batch
            // window) pushes the score negative. The comparison anchors on
            // the previous access's *start*: subtracting `count` from the
            // previous end clamps at page 0 and misclassified a backward
            // run that reaches the front of the file as a reversal.
            if end <= pstart.saturating_add(SEQ_BATCH_PAGES) && page < pstart {
                self.dir_score = (self.dir_score - 1).max(-8);
            } else if page >= pend.saturating_sub(SEQ_BATCH_PAGES) {
                self.dir_score = (self.dir_score + 1).min(8);
            }
        }
        self.prev_end = Some(end);
        self.prev_start = Some(page);

        self.run_pages = if sequentialish {
            self.run_pages + count
        } else {
            count
        };

        // Steady-state damping skips sequential-ish updates only: a jump
        // always moves the counter.
        if self.skip > 0 && sequentialish {
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
                let drop = if distance > 8 * SEQ_BATCH_PAGES { 2 } else { 1 };
                if self.counter == 0 {
                    self.skip = self.bits; // steady random: damp updates
                } else {
                    self.counter = self.counter.saturating_sub(drop);
                }
            }
        }

        let (prefetch, aggressive) = self.ramp_window(aggressive, max_pages);
        let direction = if self.dir_score < -1 {
            Direction::Backward
        } else {
            Direction::Forward
        };
        let from_page = match direction {
            Direction::Forward => end,
            Direction::Backward => page.saturating_sub(prefetch),
        };
        let ramp = Prediction {
            pattern: self.pattern(),
            prefetch_pages: prefetch,
            from_page,
            direction,
            aggressive,
            jumped: !sequentialish,
            known_run: false,
        };
        let ramp_ceiling = 1 << self.max_count();
        self.shape.plan(page, end, max_pages, ramp_ceiling, ramp)
    }

    /// The counter's window, and whether it is the aggressive seed.
    fn ramp_window(&self, aggressive: bool, max_pages: u64) -> (u64, bool) {
        if self.counter < 2 {
            return (0, false);
        }
        let base = 1u64 << self.counter; // 2^c blocks (§4.6)

        // Aggressive growth requires a definitely-sequential counter AND
        // runs observed to be long — the current unbroken run or the
        // learned shape. A batched-random stream saturates the counter
        // but keeps short runs; a fresh descriptor has no history and
        // must earn its window.
        let long_runs = self.run_pages >= 256 || self.shape.expected() >= 256;
        if aggressive && self.counter == self.max_count() && long_runs {
            // Offer a larger base (4x) as the seed for the runtime's
            // consumption-paced window doubling.
            let window = (base * 4).min(max_pages);
            return (window, window > 0);
        }
        (base.min(max_pages), false)
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

    /// One run short of the count that licensed the ask: this run asks on
    /// its first continuation, and completing it restores the count.
    fn defer_known_run(&mut self) {
        *self.shape.licence() = CONTINUING_RUNS - 1;
    }

    /// The run's next forward access asks for `[end, covered)` again.
    fn hold_known_run(&mut self) {
        self.shape.held = true;
    }
}

#[cfg(test)]
pub(crate) mod tests {
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

    /// Feeds `accesses` reads of `count` pages from `start`; returns what
    /// was asked for after each as `(from_page, pages)`.
    fn run(p: &mut Predictor, start: u64, accesses: u64, count: u64) -> Vec<(u64, u64)> {
        (0..accesses)
            .map(|i| {
                let pred = p.on_access(start + i * count, count, true, MAX);
                (pred.from_page, pred.prefetch_pages)
            })
            .collect()
    }

    #[test]
    fn batched_stream_caps_at_expected_run_remainder() {
        let mut p = Predictor::new(3);
        // Several 16-page batches separated by far jumps.
        let mut base = 0u64;
        for _ in 0..6 {
            run(&mut p, base, 16, 1);
            base += 1_000_000;
        }
        let pred = p.on_access(base, 1, true, MAX);
        assert!(pred.jumped && pred.known_run);
        assert_eq!(
            (pred.from_page, pred.prefetch_pages),
            (base + 1, 15),
            "every batch continued: one request at the jump, ending at the learned run end"
        );
        let asked = run(&mut p, base + 1, 15, 1);
        assert!(
            asked.iter().all(|&(_, pages)| pages == 0),
            "silent to the end of the batch: {asked:?}"
        );
    }

    #[test]
    fn a_run_that_outlives_its_predecessors_keeps_its_window() {
        let mut p = Predictor::new(3);
        let mut base = 0u64;
        for pages in [8_192u64, 3_000, 8_192] {
            for i in 0..pages / 4 {
                let pred = p.on_access(base + i * 4, 4, false, MAX);
                // Past the ramp the window is the counter's, to the end
                // of the run.
                if i >= 8 {
                    assert_eq!(pred.prefetch_pages, 128, "run of {pages}, read {i}");
                }
            }
            base += 10_000_000;
        }
    }

    #[test]
    fn a_stream_then_bursts_never_asks_past_a_burst() {
        let mut p = Predictor::new(3);
        // A run at least as long as the counter's ceiling is planned by
        // the ramp alone, whatever the shape says.
        let asked = run(&mut p, 0, 2_500, 4);
        assert!(asked[8..].iter().all(|&(_, pages)| pages >= 128));
        let mut base = 50_000_000u64;
        for n in 0..32 {
            let asked = run(&mut p, base, 4, 4);
            // Once the first burst has completed, it and the 10 000-page
            // run are the two recent runs, the shorter one rules, and both
            // continued: the remainder is asked for at the jump, once.
            if n >= 1 {
                assert_eq!(
                    asked,
                    [
                        (base + 4, 12),
                        (base + 8, 0),
                        (base + 12, 0),
                        (base + 16, 0)
                    ]
                );
            }
            base += 1_000_000;
        }
        // And a long run after the bursts gets its ramp back.
        let asked = run(&mut p, base, 64, 4);
        assert_eq!(asked[0], (base + 4, 12));
        assert!(asked[4..].iter().all(|&(_, pages)| pages > 0), "{asked:?}");
    }

    #[test]
    fn one_lone_access_between_bursts_silences_the_next_two_jumps() {
        let mut p = Predictor::new(3);
        let mut base = 0u64;
        let mut burst = |p: &mut Predictor| {
            base += 1_000_000;
            run(p, base, 4, 4)
        };
        for _ in 0..3 {
            burst(&mut p);
        }
        assert_eq!(burst(&mut p)[0].1, 12, "bursts that always continue");
        // The lone access's own jump still follows two completed bursts.
        assert!(p.on_access(900_000_000, 4, true, MAX).known_run);
        for jump in 0..2 {
            let asked = burst(&mut p);
            assert_eq!(asked[0].1, 0, "jump {jump} after the lone access");
            assert_eq!(asked[1].1, 8, "asks on the first continuation again");
        }
        assert_eq!(burst(&mut p)[0].1, 12, "two bursts completed since");
    }

    #[test]
    fn steady_state_damps_updates() {
        let mut p = Predictor::new(3);
        drive_sequential(&mut p, 0, 8, 4);
        assert_eq!(p.counter(), p.max_count());
        assert_eq!(p.skip, 3, "a saturated stream skips `bits` updates");
        drive_sequential(&mut p, 32, 3, 4);
        assert_eq!(p.skip, 0);
        drive_sequential(&mut p, 44, 2, 4);
        // A far jump inside the damped window still lowers the counter.
        assert!(p.skip > 0);
        let pred = p.on_access(10_000_000, 4, false, MAX);
        assert!(pred.jumped);
        assert_eq!(p.counter(), p.max_count() - 2);
    }

    pub(crate) const RECORD_PAGES: u64 = 8;

    /// An index-then-record stream: per probe, one index page and the
    /// first page of the key's record, which is then read one page at a
    /// time. Keys come from a seeded LCG over a space far larger than the
    /// probe count, so chains do not recur.
    pub(crate) fn probes(seed: u64, count: u64) -> Vec<(u64, u64)> {
        let mut state = seed;
        (0..count)
            .map(|_| {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                let key = (state >> 33) % 1_000_000;
                (key, 2_000_000 + key * RECORD_PAGES)
            })
            .collect()
    }

    /// Feeds one probe; returns the prefetch asked for after each of the
    /// nine accesses as `(from_page, pages)`.
    fn probe(p: &mut Predictor, index: u64, record: u64) -> Vec<(u64, u64)> {
        let mut asked = run(p, index, 1, 1);
        asked.extend(run(p, record, RECORD_PAGES, 1));
        asked
    }

    #[test]
    fn a_known_shape_is_silent_at_jumps_and_bursts_once_per_run() {
        let mut p = Predictor::new(3);
        let stream = probes(7, 64);
        // Two records must complete (the second closes at the third
        // probe's index jump) before the predictor plans by shape, and
        // both were led by an index page.
        for &(index, record) in &stream[..3] {
            probe(&mut p, index, record);
        }
        for &(index, record) in &stream[3..] {
            let at_index = p.on_access(index, 1, true, MAX);
            assert_eq!(
                at_index.prefetch_pages, 0,
                "silent at the jump to the index page"
            );
            let at_record = p.on_access(record, 1, true, MAX);
            assert!(at_record.known_run);
            assert_eq!(
                (at_record.from_page, at_record.prefetch_pages),
                (record + 1, RECORD_PAGES - 1),
                "one request for the remainder at the jump to the record"
            );
            let asked = run(&mut p, record + 1, RECORD_PAGES - 1, 1);
            assert!(
                asked.iter().all(|&(_, pages)| pages == 0),
                "silent for the rest of the expected run: {asked:?}"
            );
        }
    }

    #[test]
    fn a_run_that_outgrows_its_shape_gets_the_strided_prediction_untouched() {
        let mut p = Predictor::new(3);
        for &(index, record) in &probes(11, 3) {
            probe(&mut p, index, record);
        }
        // A 40-page run against a learned 8-page shape.
        let base = 900_000_000;
        for i in 0..40u64 {
            let got = p.on_access(base + i, 1, false, MAX);
            if i < RECORD_PAGES {
                assert!(got.from_page + got.prefetch_pages <= base + RECORD_PAGES);
            } else {
                let ramp = if p.counter() < 2 { 0 } else { 1 << p.counter() };
                assert_eq!(
                    (got.from_page, got.prefetch_pages),
                    (base + i + 1, ramp),
                    "page {i}: past the shape, back to the ramp"
                );
            }
        }
    }

    #[test]
    fn a_stream_then_records_never_bursts_past_the_shorter_run() {
        let mut p = Predictor::new(3);
        run(&mut p, 0, 2_500, 4);
        for (n, &(index, record)) in probes(13, 32).iter().enumerate() {
            let asked = probe(&mut p, index, record);
            // Once the first record has completed, it and the 10 000-page
            // run are the two recent runs, and the shorter one rules: on
            // the first continuation while one index page has led a
            // record, at the jump to the record once two have.
            if n >= 1 {
                let total: u64 = asked.iter().map(|&(_, pages)| pages).sum();
                let asked_for = if n == 1 {
                    RECORD_PAGES - 2
                } else {
                    RECORD_PAGES - 1
                };
                assert_eq!(total, asked_for, "probe {n}: {asked:?}");
                assert!(asked.iter().all(|&(from, pages)| pages == 0
                    || (from >= record && from + pages <= record + RECORD_PAGES)));
            }
        }
    }

    #[test]
    fn a_known_run_handed_back_is_asked_for_on_the_first_continuation() {
        let mut p = Predictor::new(3);
        for n in 0..3 {
            run(&mut p, n * 1_000_000, 4, 4);
        }
        let base = 5_000_000;
        assert!(p.on_access(base, 4, true, MAX).known_run);
        p.defer_known_run();
        let asked = run(&mut p, base + 4, 3, 4);
        assert_eq!(asked, [(base + 8, 8), (base + 12, 0), (base + 16, 0)]);
        // Completing the run restores the count: the next jump asks.
        assert!(p.on_access(base + 1_000_000, 4, true, MAX).known_run);
    }

    #[test]
    fn a_held_known_run_is_asked_for_again_until_an_access_can_carry_it() {
        let mut p = Predictor::new(3);
        for n in 0..3 {
            run(&mut p, n * 1_000_000, 4, 4);
        }
        let base = 5_000_000;
        let at_jump = p.on_access(base, 4, true, MAX);
        assert!(at_jump.known_run);
        assert_eq!((at_jump.from_page, at_jump.prefetch_pages), (base + 4, 12));
        p.hold_known_run();
        let again = p.on_access(base + 4, 4, true, MAX);
        assert!(again.known_run);
        assert_eq!((again.from_page, again.prefetch_pages), (base + 8, 8));
        p.hold_known_run();
        let again = p.on_access(base + 8, 4, true, MAX);
        assert!(again.known_run);
        assert_eq!((again.from_page, again.prefetch_pages), (base + 12, 4));
        // Carried: nothing more is asked for inside the run, and the count
        // that licensed the ask is untouched, so the next jump asks.
        assert_eq!(run(&mut p, base + 12, 1, 4), [(base + 16, 0)]);
        assert!(p.on_access(base + 1_000_000, 4, true, MAX).known_run);
        // A hold the next access jumps away from is dropped: no access of
        // the new run asks for the old one.
        p.hold_known_run();
        let far = base + 2_000_000;
        assert!(!p.on_access(far, 4, true, MAX).known_run);
        let next = p.on_access(far + 4, 4, true, MAX);
        assert!(!next.known_run);
        assert_eq!(next.from_page, far + 8);
    }

    #[test]
    fn index_then_record_asks_at_the_record_jump_only() {
        let mut p = Predictor::new(3);
        for (n, &(index, record)) in probes(5, 256).iter().enumerate() {
            let pred = p.on_access(index, 1, true, MAX);
            assert!(
                !pred.known_run,
                "a record, not a lone access, precedes every index page"
            );
            // Once the shape is known (as in the test above).
            assert!(n < 3 || pred.prefetch_pages == 0);
            for page in record..record + RECORD_PAGES {
                let pred = p.on_access(page, 1, true, MAX);
                // The third record is the first after two records that
                // were each led by an index page.
                assert_eq!(
                    pred.known_run,
                    n >= 2 && page == record,
                    "probe {n}, page {page}"
                );
            }
        }
    }

    #[test]
    fn all_lone_streams_never_ask() {
        let mut fresh = Predictor::new(3);
        for n in 0..256u64 {
            let pred = fresh.on_access(n * 1_000_000, 1, true, MAX);
            assert_eq!(
                (pred.known_run, pred.prefetch_pages),
                (false, 0),
                "access {n}"
            );
        }
        // After bursts that taught a shape, only the first lone access's
        // jump asks: it follows two completed bursts.
        let mut p = Predictor::new(3);
        for n in 0..4 {
            run(&mut p, n * 1_000_000, 4, 4);
        }
        let base = 900_000_000;
        assert!(p.on_access(base, 4, true, MAX).known_run);
        for n in 1..256u64 {
            let pred = p.on_access(base + n * 1_000_000, 4, true, MAX);
            assert_eq!(
                (pred.known_run, pred.prefetch_pages),
                (false, 0),
                "lone access {n}"
            );
        }
    }

    #[test]
    fn one_lone_pair_silences_the_next_two_record_jumps() {
        let mut p = Predictor::new(3);
        let stream = probes(17, 8);
        for &(index, record) in &stream[..4] {
            probe(&mut p, index, record);
        }
        // A second index page before the next one. The count is still at
        // its ceiling for the jump to the next index page — it is taken
        // for a record — and that lone→lone pair resets it.
        p.on_access(1_500_000, 1, true, MAX);
        let (index, record) = stream[4];
        assert!(p.on_access(index, 1, true, MAX).known_run);
        let asked = run(&mut p, record, RECORD_PAGES, 1);
        assert_eq!(
            asked[..2],
            [(record + 1, 0), (record + 2, RECORD_PAGES - 2)]
        );
        let asked = probe(&mut p, stream[5].0, stream[5].1);
        assert_eq!(asked[1].1, 0, "the second record jump is silent too");
        assert_eq!(
            asked[2].1,
            RECORD_PAGES - 2,
            "and asks on the first continuation"
        );
        let asked = probe(&mut p, stream[6].0, stream[6].1);
        assert_eq!(
            asked[1],
            (stream[6].1 + 1, RECORD_PAGES - 1),
            "two records led since"
        );
    }

    #[test]
    fn a_deferred_lone_licensed_ask_is_restored_when_its_run_completes() {
        let mut p = Predictor::new(3);
        let stream = probes(19, 8);
        for &(index, record) in &stream[..3] {
            probe(&mut p, index, record);
        }
        let (index, record) = stream[3];
        p.on_access(index, 1, true, MAX);
        assert!(p.on_access(record, 1, true, MAX).known_run);
        p.defer_known_run();
        let asked = run(&mut p, record + 1, RECORD_PAGES - 1, 1);
        assert_eq!(
            asked[0],
            (record + 2, RECORD_PAGES - 2),
            "asks on the first continuation"
        );
        assert!(asked[1..].iter().all(|&(_, pages)| pages == 0), "{asked:?}");
        // Completing the record restores the count: the next record jump
        // asks.
        let (index, record) = stream[4];
        p.on_access(index, 1, true, MAX);
        assert!(p.on_access(record, 1, true, MAX).known_run);
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(512))]

        /// Over random run-length sequences (far jumps between runs, every
        /// run shorter than the ramp ceiling), against a model of the two
        /// recent lengths and both counts: the jump asks exactly when the
        /// last two runs both continued forward or, after a lone access,
        /// when the last two lone accesses were each followed by such a
        /// run; and a reader strictly inside the learned shape sees at most
        /// one request, never past the learned run end.
        #[test]
        fn one_request_per_run_and_jumps_ask_only_after_continuing_runs(
            runs in proptest::collection::vec((1u64..=6, 1u64..=4, proptest::bool::ANY), 1..48),
        ) {
            let mut p = Predictor::new(3);
            let (mut recent, mut continuing) = ([0u64; 2], 0u32);
            let (mut led_by_lone, mut after_lone) = (0u32, false);
            let mut base = 0u64;
            for (accesses, count, backward) in runs {
                base += 1_000_000;
                let expected = recent[0].min(recent[1]);
                let licence = if after_lone { led_by_lone } else { continuing };
                let mut requests = 0;
                for i in 0..accesses {
                    let page = if backward { base - i * count } else { base + i * count };
                    let pred = p.on_access(page, count, true, MAX);
                    let asks_at_jump = i == 0 && licence == 2 && expected > count;
                    proptest::prop_assert_eq!(pred.known_run, asks_at_jump);
                    if !backward && page + count < base + expected {
                        requests += u64::from(pred.prefetch_pages > 0);
                        proptest::prop_assert!(requests <= 1);
                        proptest::prop_assert!(pred.from_page + pred.prefetch_pages <= base + expected);
                    }
                }
                let completed = accesses >= 2 && !backward;
                if completed {
                    recent = [accesses * count, recent[0]];
                    continuing = (continuing + 1).min(2);
                } else {
                    continuing = 0;
                }
                if after_lone {
                    led_by_lone = if completed { (led_by_lone + 1).min(2) } else { 0 };
                }
                after_lone = accesses == 1;
            }
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(512))]

        /// Over random run sequences where the runtime rides, holds or
        /// defers each known run at random, against a twin that is never
        /// told of a hold: a held ask is made again on the next access, and
        /// only there, exactly for `[end, covered)` as a known run, when that
        /// access continues the run forward short of `covered`; a jump or a
        /// run that has reached `covered` drops it, and every other
        /// prediction is the twin's. No known run reaches past `covered`.
        #[test]
        fn a_hold_asks_again_once_and_never_past_covered(
            runs in proptest::collection::vec(
                (1u64..=8, 1u64..=4, 0u8..8, proptest::collection::vec(0u8..3, 8)),
                1..48,
            ),
        ) {
            let (mut p, mut twin) = (Predictor::new(3), Predictor::new(3));
            let mut base = 0u64;
            let mut held = false;
            for (accesses, count, shape, actions) in runs {
                base += 1_000_000;
                let backward = shape == 0;
                let mut covered = 0u64;
                for i in 0..accesses {
                    let page = if backward { base - i * count } else { base + i * count };
                    let end = page + count;
                    let pred = p.on_access(page, count, true, MAX);
                    let twin_pred = twin.on_access(page, count, true, MAX);
                    if i == 0 && pred.known_run {
                        covered = pred.from_page + pred.prefetch_pages;
                    }
                    let asks_again = held && i > 0 && !backward && end < covered;
                    if asks_again {
                        proptest::prop_assert_eq!(twin_pred.prefetch_pages, 0);
                        proptest::prop_assert_eq!(
                            pred,
                            Prediction { prefetch_pages: covered - end, known_run: true, ..twin_pred }
                        );
                    } else {
                        proptest::prop_assert_eq!(pred, twin_pred);
                    }
                    if pred.known_run {
                        proptest::prop_assert!(pred.from_page + pred.prefetch_pages <= covered);
                    }
                    held = false;
                    if pred.known_run {
                        match actions[i as usize] {
                            0 => {}
                            1 => {
                                p.hold_known_run();
                                held = true;
                            }
                            _ => {
                                p.defer_known_run();
                                twin.defer_known_run();
                            }
                        }
                    }
                }
            }
        }
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
    fn batch_window_is_the_linux_batch() {
        assert_eq!(SEQ_BATCH_PAGES, 32);
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
