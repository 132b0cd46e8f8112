//! One record of a descriptor's outstanding speculation and the predictor
//! whose predictions it paces (§4.6 keeps prefetch state per file
//! descriptor). Each transition is one method, and its caller acts on
//! what it returns instead of doing arithmetic on the fields. `CpFile`
//! keeps the record behind one mutex that an access locks once. No worker
//! job touches it: jobs run inline on the caller's stack, and one that
//! locked it would deadlock.

use predict::{Prediction, Predictor};
use simstore::wordwalk::WORD_BITS;

/// A descriptor's outstanding speculation ([module docs](self)).
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct Outstanding {
    /// The descriptor's predictor: fed every access, told when the runtime
    /// defers or holds the known run it asked for.
    predictor: Predictor,
    /// How far paced prefetch reaches ahead of a forward stream and
    /// behind a backward one: the async-marker analogue that paces window
    /// growth by consumption.
    fwd: u64,
    back: u64,
    /// The paced window, in pages.
    window: u64,
    /// Whether a run the ring pre-issued with the miss that started it is
    /// still unread.
    ride: bool,
    /// The memory watcher's steady forward run: its first page not yet
    /// returned, word-aligned; `None` before the first access.
    run_start: Option<u64>,
}

impl Outstanding {
    /// A freshly opened descriptor whose accesses `predictor` predicts.
    pub(crate) fn open(predictor: Predictor) -> Self {
        Self {
            predictor,
            fwd: 0,
            back: u64::MAX,
            window: 0,
            ride: false,
            run_start: None,
        }
    }

    /// The descriptor's predictor.
    pub(crate) fn predictor(&mut self) -> &mut Predictor {
        &mut self.predictor
    }

    /// A jump to `[p0, p1)`, whatever carries its request: both frontiers
    /// move to the access, the watcher's run restarts past it, the window
    /// stays. Returns whether it cancelled a pending ride.
    pub(crate) fn jump(&mut self, p0: u64, p1: u64) -> bool {
        (self.fwd, self.back) = (p1, p0);
        self.restart_run(p1);
        std::mem::take(&mut self.ride)
    }

    /// A random-classified access `[p0, p1)`: the window collapses and
    /// both frontiers move to the access; a pending ride stays.
    pub(crate) fn collapse(&mut self, p0: u64, p1: u64) {
        (self.fwd, self.back, self.window) = (p1, p0, 0);
    }

    /// A paced forward window for an access ending at `p1`, asked once the
    /// access reaches the trailing half of the window before the frontier:
    /// `issue(from, pages)` schedules it and returns the page it reached.
    pub(crate) fn pace_forward(
        &mut self,
        pred: &Prediction,
        p1: u64,
        max_pages: u64,
        issue: impl FnOnce(u64, u64) -> u64,
    ) {
        let start = self.fwd.max(p1);
        if p1 < start.saturating_sub(self.window / 2) {
            return; // plenty prefetched ahead already
        }
        let next_window = self.next_window(pred, max_pages);
        if p1 + next_window > start {
            self.fwd = issue(start, p1 + next_window - start).max(p1);
            self.window = next_window;
        }
    }

    /// The backward mirror of [`Outstanding::pace_forward`] for an access
    /// at `p0`. A span the `headroom` clamps keeps the pages next to the
    /// cursor, and the frontier moves only if `issue` reached its end.
    pub(crate) fn pace_backward(
        &mut self,
        pred: &Prediction,
        p0: u64,
        max_pages: u64,
        headroom: Option<u64>,
        issue: impl FnOnce(u64, u64) -> u64,
    ) {
        let end = self.back.min(p0);
        if p0 > end + self.window / 2 {
            return;
        }
        let next_window = self.next_window(pred, max_pages);
        let target = p0.saturating_sub(next_window);
        if end > target {
            let span = headroom.map_or(end - target, |headroom| (end - target).min(headroom));
            let from = end - span;
            self.back = if issue(from, span) == end { from } else { end };
            self.window = next_window;
        }
    }

    /// Doubled while aggressive, never past `max_pages`.
    fn next_window(&self, pred: &Prediction, max_pages: u64) -> u64 {
        if pred.aggressive {
            (self.window * 2).clamp(pred.prefetch_pages, max_pages)
        } else {
            pred.prefetch_pages.min(max_pages)
        }
    }

    /// The ring pre-issued a run with the miss that starts it.
    pub(crate) fn ride_preissued(&mut self) {
        self.ride = true;
    }

    /// A read absorbed with no crossing consumes a pending ride; whether
    /// there was one.
    pub(crate) fn absorbed(&mut self) -> bool {
        std::mem::take(&mut self.ride)
    }

    /// Whether a pre-issued run is still unread.
    pub(crate) fn ride_pending(&self) -> bool {
        self.ride
    }

    /// A miss inside `[p0, p1)`: a frontier past it claimed what was not
    /// there, so both are pulled back to the access.
    pub(crate) fn missed(&mut self, p0: u64, p1: u64) {
        (self.fwd, self.back) = (self.fwd.min(p1), self.back.max(p0));
    }

    /// The watcher's step for an access ending at `p1`: a `steady` read
    /// continues the run; the first access and any other restart it.
    pub(crate) fn step_run(&mut self, p1: u64, steady: bool) {
        if !steady || self.run_start.is_none() {
            self.restart_run(p1);
        }
    }

    fn restart_run(&mut self, p1: u64) {
        self.run_start = Some(p1.next_multiple_of(WORD_BITS));
    }

    /// The run's oldest whole word, if it ends at or below the word of a
    /// reader at `p0`; taking it advances the run past it.
    pub(crate) fn take_word_behind(&mut self, p0: u64) -> Option<(u64, u64)> {
        let start = self.run_start?;
        let end = start + WORD_BITS;
        if end > p0 / WORD_BITS * WORD_BITS {
            return None;
        }
        self.run_start = Some(end);
        Some((start, end))
    }
}

#[cfg(test)]
pub(crate) use tests::{back_frontier, run_start};

#[cfg(test)]
mod tests {
    use predict::{AccessPattern, Direction, Prediction};

    use super::*;

    /// The watcher's run start, for the watcher's tests.
    pub(crate) fn run_start(record: &Outstanding) -> Option<u64> {
        record.run_start
    }

    /// The backward frontier, for the read path's tests.
    pub(crate) fn back_frontier(record: &Outstanding) -> u64 {
        record.back
    }

    /// A paced prediction of `pages` pages in `direction`.
    fn paced(pages: u64, direction: Direction, aggressive: bool) -> Prediction {
        Prediction {
            pattern: AccessPattern::DefinitelySequential,
            prefetch_pages: pages,
            from_page: 0,
            direction,
            aggressive,
            jumped: false,
            known_run: false,
        }
    }

    /// A record with a ride pending and a 32-page forward window paced to
    /// page 40.
    fn riding() -> Outstanding {
        let mut record = Outstanding::open(Predictor::default());
        let pred = paced(32, Direction::Forward, false);
        record.pace_forward(&pred, 8, 1024, |from, pages| from + pages);
        record.ride_preissued();
        assert_eq!((record.fwd, record.window, record.ride), (40, 32, true));
        record
    }

    #[test]
    fn an_open_record_holds_nothing() {
        let record = Outstanding::open(Predictor::new(4));
        assert_eq!(
            record,
            Outstanding {
                predictor: Predictor::new(4),
                fwd: 0,
                back: u64::MAX,
                window: 0,
                ride: false,
                run_start: None,
            }
        );
        assert!(!record.ride_pending());
    }

    #[test]
    fn a_jump_cancels_a_pending_ride_once_and_resets_both_frontiers() {
        let mut record = riding();
        assert!(record.jump(500, 504));
        assert_eq!((record.fwd, record.back), (504, 500));
        assert!(!record.jump(600, 604), "a second jump cancels nothing");
        assert_eq!((record.fwd, record.back), (604, 600));
    }

    #[test]
    fn a_jump_keeps_the_window_and_restarts_the_run_past_itself() {
        let mut record = riding();
        record.step_run(8, true);
        assert_eq!(record.run_start, Some(64));
        record.jump(1000, 1010);
        assert_eq!(record.window, 32);
        assert_eq!(record.run_start, Some(1024));
    }

    #[test]
    fn a_random_collapse_keeps_the_pending_ride() {
        let mut record = riding();
        record.collapse(300, 301);
        assert_eq!((record.fwd, record.back, record.window), (301, 300, 0));
        assert!(record.ride_pending());
    }

    #[test]
    fn an_absorbed_read_consumes_the_pending_ride_once() {
        let mut record = riding();
        assert!(record.absorbed());
        assert!(!record.absorbed());
        assert!(!record.ride_pending());
    }

    #[test]
    fn a_miss_pulls_both_frontiers_back_to_the_access() {
        let mut record = riding();
        record.jump(100, 104);
        record.missed(90, 94);
        assert_eq!((record.fwd, record.back), (94, 100));
        record.missed(200, 204);
        assert_eq!((record.fwd, record.back), (94, 200));
    }

    /// The watcher's prefix advances one word per take, and only while
    /// the word ends at or below `floor64(p0)`; a read that is not steady
    /// restarts it at `p1.next_multiple_of(64)`.
    #[test]
    fn the_steady_run_advances_a_word_only_behind_the_readers_word() {
        let mut record = Outstanding::open(Predictor::default());
        assert_eq!(record.take_word_behind(1000), None, "no run yet");
        record.step_run(10, true);
        assert_eq!(record.run_start, Some(64), "the first access starts it");
        record.step_run(190, true);
        assert_eq!(record.run_start, Some(64), "a steady read continues it");
        assert_eq!(record.take_word_behind(127), None, "floor64(127) = 64");
        assert_eq!(record.take_word_behind(128), Some((64, 128)));
        assert_eq!(record.take_word_behind(191), None, "floor64(191) = 128");
        assert_eq!(record.run_start, Some(128));
        record.step_run(200, false);
        assert_eq!(record.run_start, Some(256));
        record.step_run(256, false);
        assert_eq!(record.run_start, Some(256), "a boundary stays put");
    }

    /// The forward window is asked only from the trailing half of the
    /// window before the frontier, and grows by doubling while aggressive.
    #[test]
    fn a_forward_window_asks_from_its_marker_and_doubles_while_aggressive() {
        let mut record = Outstanding::open(Predictor::default());
        let pred = paced(16, Direction::Forward, true);
        let mut asked = Vec::new();
        let mut pace = |record: &mut Outstanding, p1| {
            record.pace_forward(&pred, p1, 64, |from, pages| {
                asked.push((from, pages));
                from + pages
            })
        };
        pace(&mut record, 4);
        assert_eq!((record.fwd, record.window), (20, 16));
        pace(&mut record, 8); // 8 < 20 - 16 / 2
        pace(&mut record, 12);
        assert_eq!((record.fwd, record.window), (44, 32));
        pace(&mut record, 40);
        assert_eq!((record.fwd, record.window), (104, 64), "capped at 64");
        assert_eq!(asked, vec![(4, 16), (20, 24), (44, 60)]);
    }

    /// A backward window the headroom clamps keeps its near end, and the
    /// frontier moves only as far as the schedule reached.
    #[test]
    fn a_clamped_backward_span_keeps_the_pages_next_to_the_cursor() {
        let mut record = Outstanding::open(Predictor::default());
        let pred = paced(256, Direction::Backward, false);
        let mut asked = None;
        record.pace_backward(&pred, 1024, 1024, Some(64), |from, pages| {
            asked = Some((from, pages));
            from + pages
        });
        assert_eq!(asked, Some((960, 64)));
        assert_eq!((record.back, record.window), (960, 256));
        // A schedule refused at its start leaves the frontier at the end.
        record.jump(960, 964);
        record.pace_backward(&pred, 960, 1024, None, |from, _| from);
        assert_eq!(record.back, 960);
    }
}
