//! Adaptive per-file engine selection by set-dueling.
//!
//! Neither the strided counter nor the correlation miner dominates: the
//! first wins on streaming scans, the second on recurring random chains
//! that outlive the cache, and real files flip between the two (an LSM
//! compaction followed by point lookups). This engine runs *both* models
//! on every access, keeps their predictions in bounded **shadow books** on
//! sampled accesses, and lets the winner by quality-weighted utility own
//! the file's real prefetch decisions. A prediction earns credit only for
//! I/O it would have saved, so an arm that is always right about pages
//! that are still in memory wins nothing.
//!
//! Dueling protocol:
//!
//! 1. Both sub-engines observe every access, so the loser's model stays
//!    warm. Only the owner's decision reaches the prefetch planner.
//! 2. Every [`AdaptiveConfig::sample_interval`]-th access, each arm's
//!    would-be prefetch is recorded in its shadow book (capacity
//!    [`AdaptiveConfig::shadow_capacity`] entries; overflow and aged-out
//!    entries count as shadow waste, so over-speculation is penalised).
//! 3. An access is settled against both books once its outcome is known:
//!    when the runtime reports it ([`PredictionEngine::outcome`]) or,
//!    unreported, when the next access arrives. Every entry it overlaps
//!    is consumed whole. The overlap is a shadow hit only if the access
//!    needed the device (a demand miss or a first touch of a prefetched
//!    page); an entry that predicted resident pages is dropped as
//!    neither a hit nor waste. An engine that is never told counts every
//!    touched prediction as a hit.
//! 4. Duel windows run back to back: after every
//!    [`AdaptiveConfig::duel_window`] sampled accesses the utilities are
//!    compared and the tallies reset. A *regime flip* — the strided
//!    classifier crossing the random/streaming boundary (the coarse form
//!    of the trace subsystem's `predictor-flip` signal) — restarts the
//!    window early with fresh tallies, so a phase change is re-dueled on
//!    clean data instead of stale credit. Oscillation between
//!    neighbouring classes on the same side of the boundary is noise,
//!    not a phase change, and must not starve the duel clock.
//!    Utility = `hits * hit_weight − wasted * waste_weight`, with
//!    `hit_weight` scaled by the timely fraction from the runtime's
//!    prefetch-quality feedback. Ties keep the incumbent; a change of
//!    winner transfers ownership (surfaced to telemetry and traces).
//!
//! The sequential arm is the strided [`Predictor`], planned by **run
//! shape**. The counter re-earns its window inside every run, so on a
//! file read as short runs (an index page, then an 8-page record) every
//! other page is late and the window overshoots the record's end. The arm
//! remembers the page length of the last two completed forward runs of at
//! least two accesses and plans for the shorter of them (one long scan
//! between records must not inflate a burst):
//!
//! * **at a jump** it asks for nothing — a lone access (the index page)
//!   has no continuation worth a request;
//! * **on the first continuation** it asks once, for the expected
//!   remainder of the run, never past the learned run end;
//! * **inside what that request covered** it stays silent;
//! * **past it** — the run outgrew its shape — and whenever no shape is
//!   known (fewer than two completed runs, a backward or overlapping run,
//!   runs as long as the counter's own ceiling of `2^max_count` pages),
//!   the predictor's prediction passes through untouched, so a stream is
//!   planned exactly as `Strided` plans it.
//!
//! Everything is integer arithmetic over the observed stream and the
//! reported outcomes — same-seed runs duel identically.

use std::collections::VecDeque;

use crate::correlation::{CorrelationConfig, CorrelationEngine};
use crate::strided::{Direction, Prediction, Predictor};
use crate::{AccessObservation, EngineKind, PredictionEngine, PrefetchDecision, QualityFeedback};

/// Tuning for the adaptive selector.
#[derive(Debug, Clone, PartialEq)]
pub struct AdaptiveConfig {
    /// Every n-th access is sampled into the shadow books (1 = all).
    pub sample_interval: u64,
    /// Sampled accesses per duel window before utilities are compared.
    pub duel_window: u64,
    /// Shadow-book capacity (predicted ranges) per engine.
    pub shadow_capacity: usize,
    /// Accesses before an unconsumed shadow range counts as waste.
    pub shadow_age: u64,
}

impl Default for AdaptiveConfig {
    fn default() -> Self {
        Self {
            sample_interval: 4,
            duel_window: 16,
            shadow_capacity: 64,
            shadow_age: 256,
        }
    }
}

#[derive(Debug, Clone, Copy)]
struct ShadowEntry {
    start: u64,
    end: u64,
    born: u64,
}

/// One engine's shadow ledger: predicted-but-not-yet-consumed ranges plus
/// hit/waste tallies for the open duel window.
#[derive(Debug, Clone, Default)]
struct ShadowBook {
    entries: VecDeque<ShadowEntry>,
    hits: u64,
    wasted: u64,
}

impl ShadowBook {
    /// Settles an access against the ranges predicted before access
    /// number `at` (a prediction recorded on the access itself cannot
    /// credit itself). An overlapped entry is consumed whole; the overlap
    /// is booked as a hit only if the access needed the device. A
    /// prediction of pages that were already resident saved no I/O: its
    /// entry leaves the book as neither a hit nor waste.
    fn settle(&mut self, p0: u64, p1: u64, at: u64, needed_io: bool) {
        let mut i = 0;
        while i < self.entries.len() {
            let e = self.entries[i];
            let overlap = e.end.min(p1).saturating_sub(e.start.max(p0));
            if overlap > 0 && e.born < at {
                if needed_io {
                    self.hits += overlap;
                }
                self.entries.remove(i);
            } else {
                i += 1;
            }
        }
    }

    /// Ages out stale entries as shadow waste.
    fn expire(&mut self, now: u64, max_age: u64) {
        while let Some(front) = self.entries.front() {
            if now.saturating_sub(front.born) <= max_age {
                break;
            }
            self.wasted += front.end - front.start;
            self.entries.pop_front();
        }
    }

    /// Records a predicted range, evicting the oldest as waste at cap.
    fn predict(&mut self, start: u64, end: u64, now: u64, capacity: usize) {
        if end <= start {
            return;
        }
        while self.entries.len() >= capacity.max(1) {
            if let Some(old) = self.entries.pop_front() {
                self.wasted += old.end - old.start;
            }
        }
        self.entries.push_back(ShadowEntry {
            start,
            end,
            born: now,
        });
    }

    fn open_window(&mut self) {
        self.hits = 0;
        self.wasted = 0;
    }
}

/// What the sequential arm has learned about how long this file's forward
/// runs are. A strided counter re-earns its window inside every run; on a
/// file read as many short runs (an index page, then an 8-page record)
/// that ramp is the whole run, and every other page arrives late. Once
/// two multi-access forward runs have completed, the arm plans a run in
/// one request instead. See the module docs for the protocol.
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
    /// One past the last page the current run's burst asked for
    /// (`end` of the run's first access until a burst is issued).
    covered: u64,
    /// Page lengths of the last two completed multi-access forward runs,
    /// newest first; 0 = not seen yet.
    recent: [u64; 2],
}

impl RunShape {
    /// The run length to plan for: the shorter of the last two completed
    /// runs, so one long scan between records cannot inflate a burst.
    /// `None` until two runs have completed, and for runs at least as
    /// long as `ramp_ceiling` — those the strided ramp covers by itself.
    fn expected(&self, ramp_ceiling: u64) -> Option<u64> {
        let shorter = self.recent[0].min(self.recent[1]);
        (shorter > 0 && shorter < ramp_ceiling).then_some(shorter)
    }

    /// Tracks the access and turns the strided prediction into the arm's:
    /// silent at a jump, one request for the expected remainder on the
    /// first continuation, silent while the reader is inside what that
    /// request covered, and the strided prediction untouched otherwise.
    fn plan(&mut self, obs: &AccessObservation, pred: Prediction, ramp_ceiling: u64) -> Prediction {
        let end = obs.page + obs.pages;
        if pred.jumped || self.accesses == 0 {
            if self.forward && self.accesses >= 2 {
                self.recent = [self.end - self.start, self.recent[0]];
            }
            *self = RunShape {
                start: obs.page,
                end,
                accesses: 1,
                forward: true,
                covered: end,
                recent: self.recent,
            };
        } else {
            self.forward &= obs.page >= self.end;
            self.end = self.end.max(end);
            self.accesses += 1;
        }
        let expected = match self.expected(ramp_ceiling) {
            Some(expected) if self.forward => expected,
            _ => return pred,
        };
        let burst = if self.accesses == 2 {
            expected
                .saturating_sub(self.end - self.start)
                .min(obs.max_prefetch_pages)
        } else {
            0
        };
        if burst > 0 {
            self.covered = self.end + burst;
        } else if self.end > self.covered {
            return pred; // the run outgrew its shape: back to the ramp
        }
        Prediction {
            prefetch_pages: burst,
            from_page: self.end,
            direction: Direction::Forward,
            aggressive: false,
            ..pred
        }
    }
}

/// The adaptive engine. See the module docs for the dueling protocol.
#[derive(Debug, Clone)]
pub struct AdaptiveEngine {
    config: AdaptiveConfig,
    strided: Predictor,
    run_shape: RunShape,
    correlation: CorrelationEngine,
    owner: EngineKind,
    observations: u64,
    /// Page range of the latest access while its outcome is unknown.
    unsettled: Option<(u64, u64)>,
    shadow_strided: ShadowBook,
    shadow_correlation: ShadowBook,
    sampled_in_duel: u64,
    duels: u64,
    ownership_flips: u64,
    /// Whether the strided classifier last sat on the streaming side of
    /// the random/streaming boundary (`None` until the first access).
    last_streaming: Option<bool>,
    /// Timely-fraction hit weight in per-mille, updated by feedback.
    hit_weight_permille: u64,
    feedback_timely: u64,
    feedback_total: u64,
}

/// Waste penalty in per-mille of a hit's weight — waste costs slightly
/// more than a hit earns, so a spray-and-pray engine cannot win on volume.
const WASTE_WEIGHT_PERMILLE: u64 = 1500;

impl AdaptiveEngine {
    /// Creates an adaptive selector over a fresh strided predictor
    /// (`bits`-wide counter, `seq_batch_pages` batch window) and a fresh
    /// correlation miner.
    pub fn new(
        config: AdaptiveConfig,
        bits: u32,
        seq_batch_pages: u64,
        correlation: CorrelationConfig,
    ) -> Self {
        assert!(config.sample_interval >= 1, "sample interval must be >= 1");
        assert!(config.duel_window >= 1, "duel window must be >= 1");
        Self {
            config,
            strided: Predictor::with_batch_window(bits, seq_batch_pages),
            run_shape: RunShape::default(),
            correlation: CorrelationEngine::new(correlation),
            owner: EngineKind::Strided,
            observations: 0,
            unsettled: None,
            shadow_strided: ShadowBook::default(),
            shadow_correlation: ShadowBook::default(),
            sampled_in_duel: 0,
            duels: 0,
            ownership_flips: 0,
            last_streaming: None,
            hit_weight_permille: 1000,
            feedback_timely: 0,
            feedback_total: 0,
        }
    }

    /// Which sub-engine currently owns the real prefetch decisions.
    pub fn owner(&self) -> EngineKind {
        self.owner
    }

    /// Duels resolved so far.
    pub fn duels(&self) -> u64 {
        self.duels
    }

    /// Ownership transfers so far.
    pub fn ownership_flips(&self) -> u64 {
        self.ownership_flips
    }

    fn utility(&self, book: &ShadowBook) -> i128 {
        let hits = i128::from(book.hits) * i128::from(self.hit_weight_permille);
        let waste = i128::from(book.wasted) * i128::from(WASTE_WEIGHT_PERMILLE);
        hits - waste
    }

    /// The sequential arm's step: the strided counter's prediction,
    /// planned by run shape once one is known.
    fn sequential_arm(&mut self, obs: &AccessObservation) -> Prediction {
        let pred = self.strided.on_access(
            obs.page,
            obs.pages,
            obs.aggressive_ok,
            obs.max_prefetch_pages,
        );
        self.run_shape
            .plan(obs, pred, 1 << self.strided.max_count())
    }

    /// Settles the latest access against both shadow books, once.
    fn settle(&mut self, needed_io: bool) {
        if let Some((p0, p1)) = self.unsettled.take() {
            let at = self.observations;
            self.shadow_strided.settle(p0, p1, at, needed_io);
            self.shadow_correlation.settle(p0, p1, at, needed_io);
        }
    }

    fn open_window(&mut self) {
        self.sampled_in_duel = 0;
        self.shadow_strided.open_window();
        self.shadow_correlation.open_window();
    }

    fn close_duel(&mut self, decision: &mut PrefetchDecision) {
        self.duels += 1;
        decision.duel_completed = true;
        let strided_utility = self.utility(&self.shadow_strided);
        let correlation_utility = self.utility(&self.shadow_correlation);
        self.open_window();
        let winner = if correlation_utility > strided_utility {
            EngineKind::Correlation
        } else if strided_utility > correlation_utility {
            EngineKind::Strided
        } else {
            self.owner // tie keeps the incumbent
        };
        if winner != self.owner {
            self.owner = winner;
            self.ownership_flips += 1;
            decision.new_owner = Some(winner);
        }
    }
}

impl PredictionEngine for AdaptiveEngine {
    fn kind(&self) -> EngineKind {
        EngineKind::Adaptive
    }

    fn observe(&mut self, obs: &AccessObservation) -> PrefetchDecision {
        // Nobody reported what the previous access cost: count it as I/O
        // the prediction saved.
        self.settle(true);
        self.observations += 1;
        let now = self.observations;
        self.unsettled = Some((obs.page, obs.page + obs.pages));
        self.shadow_strided.expire(now, self.config.shadow_age);
        self.shadow_correlation.expire(now, self.config.shadow_age);

        // Both models observe every access so the loser stays warm.
        let strided_pred = self.sequential_arm(obs);
        let correlation_decision = self.correlation.observe(obs);

        // A regime flip — crossing the random/streaming boundary —
        // restarts the duel window with fresh tallies so the phase change
        // is re-dueled on clean data. Finer-grained class oscillation
        // (the per-class `predictor-flip` signal) stays inside one
        // window: restarting on every wobble would starve the duel clock
        // on noisy streams and no duel would ever close.
        let streaming = self.strided.pattern().index() >= 2;
        if self.last_streaming != Some(streaming) {
            self.last_streaming = Some(streaming);
            self.open_window();
        }

        let mut decision = PrefetchDecision {
            mine_due: correlation_decision.mine_due,
            ..PrefetchDecision::default()
        };

        // Sampled shadow scoring.
        if now.is_multiple_of(self.config.sample_interval) {
            if strided_pred.prefetch_pages > 0 {
                let start = strided_pred.from_page;
                let end = start.saturating_add(strided_pred.prefetch_pages);
                self.shadow_strided
                    .predict(start, end, now, self.config.shadow_capacity);
            }
            for run in &correlation_decision.runs {
                self.shadow_correlation.predict(
                    run.start,
                    run.start.saturating_add(run.pages),
                    now,
                    self.config.shadow_capacity,
                );
            }
            self.sampled_in_duel += 1;
            if self.sampled_in_duel >= self.config.duel_window {
                self.close_duel(&mut decision);
            }
        }

        // Only the owner's decision reaches the prefetch planner.
        match self.owner {
            EngineKind::Correlation => {
                decision.confidence = correlation_decision.confidence;
                decision.runs = correlation_decision.runs;
            }
            _ => {
                decision.confidence =
                    f64::from(self.strided.counter()) / f64::from(self.strided.max_count());
                decision.prediction = Some(strided_pred);
            }
        }
        decision
    }

    fn feedback(&mut self, fb: &QualityFeedback) {
        self.feedback_timely += fb.timely;
        self.feedback_total += fb.timely + fb.late + fb.wasted;
        // Quality-weighted hit utility: a hit is worth up to 2x when the
        // runtime reports its prefetches landing timely.
        if let Some(timely_permille) =
            (1000 * self.feedback_timely).checked_div(self.feedback_total)
        {
            self.hit_weight_permille = 1000 + timely_permille;
        }
        self.correlation.feedback(fb);
    }

    fn wants_feedback(&self) -> bool {
        true
    }

    fn outcome(&mut self, needed_io: bool) {
        self.settle(needed_io);
    }

    fn mine(&mut self) -> u64 {
        self.correlation.mine()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn engine() -> AdaptiveEngine {
        AdaptiveEngine::new(
            AdaptiveConfig {
                sample_interval: 1,
                duel_window: 8,
                ..AdaptiveConfig::default()
            },
            3,
            crate::SEQ_BATCH_PAGES,
            CorrelationConfig::default(),
        )
    }

    fn obs(page: u64, pages: u64) -> AccessObservation {
        AccessObservation {
            page,
            pages,
            aggressive_ok: false,
            max_prefetch_pages: 16_384,
        }
    }

    #[test]
    fn starts_owned_by_strided_and_keeps_it_on_sequential() {
        let mut e = engine();
        for i in 0..200u64 {
            let d = e.observe(&obs(i * 4, 4));
            assert!(d.prediction.is_some(), "strided owner emits predictions");
            assert!(d.runs.is_empty(), "non-owner runs must not leak");
        }
        assert_eq!(e.owner(), EngineKind::Strided);
        assert!(e.duels() > 0, "sequential stream still resolves duels");
    }

    #[test]
    fn recurring_chains_transfer_ownership_to_correlation() {
        let mut e = engine();
        // A recurring 3-hop chain with far jumps: strided predicts nothing,
        // correlation learns the hops.
        let mut flipped = false;
        for round in 0..64u64 {
            for &page in &[1_000u64, 50_000, 200_000] {
                let d = e.observe(&obs(page, 2));
                if d.mine_due {
                    e.mine();
                }
                if d.new_owner == Some(EngineKind::Correlation) {
                    flipped = true;
                }
                let _ = round;
            }
        }
        assert!(flipped, "correlation must win the duel on recurring chains");
        assert_eq!(e.owner(), EngineKind::Correlation);
        let d = e.observe(&obs(1_000, 2));
        assert!(
            !d.runs.is_empty(),
            "correlation owner emits its learned runs"
        );
        assert!(d.prediction.is_none(), "non-owner prediction must not leak");
    }

    #[test]
    fn ownership_returns_to_strided_when_the_stream_turns_sequential() {
        let mut e = engine();
        for _ in 0..64u64 {
            for &page in &[1_000u64, 50_000, 200_000] {
                let d = e.observe(&obs(page, 2));
                if d.mine_due {
                    e.mine();
                }
            }
        }
        assert_eq!(e.owner(), EngineKind::Correlation);
        let flips_before = e.ownership_flips();
        for i in 0..400u64 {
            let d = e.observe(&obs(500_000 + i * 4, 4));
            if d.mine_due {
                e.mine();
            }
        }
        assert_eq!(e.owner(), EngineKind::Strided);
        assert!(e.ownership_flips() > flips_before);
    }

    #[test]
    fn feedback_scales_hit_weight() {
        let mut e = engine();
        e.feedback(&QualityFeedback {
            timely: 90,
            late: 10,
            wasted: 0,
        });
        assert_eq!(e.hit_weight_permille, 1900);
        e.feedback(&QualityFeedback {
            timely: 0,
            late: 0,
            wasted: 900,
        });
        assert!(e.hit_weight_permille < 1200);
    }

    #[test]
    fn shadow_books_stay_bounded() {
        let mut e = AdaptiveEngine::new(
            AdaptiveConfig {
                sample_interval: 1,
                shadow_capacity: 8,
                ..AdaptiveConfig::default()
            },
            3,
            crate::SEQ_BATCH_PAGES,
            CorrelationConfig::default(),
        );
        for i in 0..1000u64 {
            e.observe(&obs(i * 4, 4));
        }
        assert!(e.shadow_strided.entries.len() <= 8);
        assert!(e.shadow_correlation.entries.len() <= 8);
    }

    const RECORD_PAGES: u64 = 8;

    /// The tests' own index-then-record stream: per probe, one index page
    /// and the first page of the key's record, which is then read one
    /// page at a time. Keys come from a seeded LCG over a space far
    /// larger than the probe count, so chains do not recur.
    fn probes(seed: u64, count: u64) -> Vec<(u64, u64)> {
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

    /// Feeds one probe to the sequential arm; returns the prefetch it asked
    /// for after each of the nine accesses as `(from_page, pages)`.
    fn probe(e: &mut AdaptiveEngine, index: u64, record: u64) -> Vec<(u64, u64)> {
        std::iter::once(index)
            .chain(record..record + RECORD_PAGES)
            .map(|page| {
                let pred = e.sequential_arm(&obs(page, 1));
                (pred.from_page, pred.prefetch_pages)
            })
            .collect()
    }

    #[test]
    fn a_known_shape_is_silent_at_jumps_and_bursts_once_per_run() {
        let mut e = engine();
        let stream = probes(7, 64);
        // Two records must complete (the second closes at the third
        // probe's index jump) before the arm plans by shape.
        for &(index, record) in &stream[..3] {
            probe(&mut e, index, record);
        }
        for &(index, record) in &stream[3..] {
            let asked = probe(&mut e, index, record);
            assert_eq!(asked[0].1, 0, "silent at the jump to the index page");
            assert_eq!(asked[1].1, 0, "silent at the jump to the record");
            assert_eq!(
                asked[2],
                (record + 2, RECORD_PAGES - 2),
                "one request for the remainder on the first continuation"
            );
            assert!(
                asked[3..].iter().all(|&(_, pages)| pages == 0),
                "silent for the rest of the expected run: {asked:?}"
            );
        }
    }

    #[test]
    fn a_run_that_outgrows_its_shape_gets_the_strided_prediction_untouched() {
        let mut e = engine();
        let mut twin = Predictor::new(3);
        let mut step = |e: &mut AdaptiveEngine, page: u64| {
            let expected = twin.on_access(page, 1, false, 16_384);
            (e.sequential_arm(&obs(page, 1)), expected)
        };
        // Before two runs have completed the arm is the predictor.
        for &(index, record) in &probes(11, 2) {
            for page in std::iter::once(index).chain(record..record + RECORD_PAGES) {
                let (got, expected) = step(&mut e, page);
                assert_eq!(got, expected, "no shape known yet");
            }
        }
        // A 40-page run against a learned 8-page shape.
        let base = 900_000_000;
        for i in 0..40u64 {
            let (got, expected) = step(&mut e, base + i);
            if i < RECORD_PAGES {
                assert!(got.from_page + got.prefetch_pages <= base + RECORD_PAGES);
            } else {
                assert_eq!(got, expected, "page {i}: past the shape, back to the ramp");
            }
        }
    }

    #[test]
    fn a_stream_then_records_never_bursts_past_the_shorter_run() {
        let mut e = engine();
        for i in 0..2_500u64 {
            e.sequential_arm(&obs(i * 4, 4));
        }
        for (n, &(index, record)) in probes(13, 32).iter().enumerate() {
            let asked = probe(&mut e, index, record);
            // Once the first record has completed, it and the 10 000-page
            // run are the two recent runs, and the shorter one rules.
            if n >= 1 {
                let total: u64 = asked.iter().map(|&(_, pages)| pages).sum();
                assert_eq!(total, RECORD_PAGES - 2, "probe {n}: {asked:?}");
                assert!(asked.iter().all(|&(from, pages)| pages == 0
                    || (from >= record && from + pages <= record + RECORD_PAGES)));
            }
        }
    }

    #[test]
    fn predictions_of_resident_pages_earn_no_credit() {
        let mut book = ShadowBook::default();
        book.predict(100, 104, 1, 64);
        book.predict(200, 204, 1, 64);
        book.settle(100, 101, 2, false);
        assert_eq!((book.hits, book.wasted), (0, 0), "neither hit nor waste");
        book.settle(200, 201, 2, true);
        assert_eq!((book.hits, book.wasted), (1, 0));
        assert!(book.entries.is_empty(), "both entries were consumed whole");

        // The recurring chain that hands correlation the file when nothing
        // is reported keeps the incumbent when every hop was resident.
        let mut e = engine();
        for _ in 0..64u64 {
            for &page in &[1_000u64, 50_000, 200_000] {
                if e.observe(&obs(page, 2)).mine_due {
                    e.mine();
                }
                e.outcome(false);
            }
        }
        assert_eq!(e.owner(), EngineKind::Strided);
        assert_eq!(e.ownership_flips(), 0);
        assert!(e.duels() > 0);
    }

    #[test]
    fn the_same_stream_and_outcomes_give_identical_decisions() {
        let run = || {
            let mut e = engine();
            let mut log = Vec::new();
            for (n, &(index, record)) in probes(17, 200).iter().enumerate() {
                for page in std::iter::once(index).chain(record..record + RECORD_PAGES) {
                    let d = e.observe(&obs(page, 1));
                    if d.mine_due {
                        e.mine();
                    }
                    e.outcome(n % 3 != 0);
                    log.push(format!("{d:?}"));
                }
            }
            (log, e.duels(), e.ownership_flips())
        };
        assert_eq!(run(), run());
    }
}
