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
//! 2. Every 4th access, each arm's would-be prefetch is recorded in its
//!    shadow book (capacity 64 entries; overflow and entries older than
//!    256 accesses count as shadow waste, so over-speculation is
//!    penalised).
//! 3. An access is settled against both books once its outcome is known:
//!    when the runtime reports it ([`PredictionEngine::outcome`]) or,
//!    unreported, when the next access arrives. Every entry it overlaps
//!    is consumed whole. The overlap is a shadow hit only if the access
//!    needed the device (a demand miss or a first touch of a prefetched
//!    page); an entry that predicted resident pages is dropped as
//!    neither a hit nor waste. An engine that is never told counts every
//!    touched prediction as a hit.
//! 4. Duel windows run back to back: after every 16 sampled accesses the
//!    utilities are compared and the tallies reset. A *regime flip* — the
//!    strided classifier crossing the random/streaming boundary (the
//!    coarse form of the trace subsystem's `predictor-flip` signal) —
//!    restarts the window early with fresh tallies, so a phase change is
//!    re-dueled on clean data instead of stale credit. Oscillation between
//!    neighbouring classes on the same side of the boundary is noise,
//!    not a phase change, and must not starve the duel clock.
//!    Utility = `hits * hit_weight − wasted * waste_weight`, with
//!    `hit_weight` scaled by the timely fraction from the runtime's
//!    prefetch-quality feedback. Ties keep the incumbent; a change of
//!    winner transfers ownership (surfaced to telemetry and traces).
//!
//! The sequential arm *is* the strided [`Predictor`], run shape and all
//! (see [`crate::strided`]): on a file the duel never hands over, this
//! engine plans exactly as `Strided` does.
//!
//! Everything is integer arithmetic over the observed stream and the
//! reported outcomes — same-seed runs duel identically.

use std::collections::VecDeque;

use crate::correlation::CorrelationEngine;
use crate::strided::Predictor;
use crate::{AccessObservation, EngineKind, PredictionEngine, PrefetchDecision, QualityFeedback};

/// The duel's sampling. The defaults are the only values the runtime ever
/// runs; tests substitute denser sampling and smaller books through
/// [`AdaptiveEngine::with_config`].
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct AdaptiveConfig {
    /// Every n-th access is sampled into the shadow books (1 = all).
    pub(crate) sample_interval: u64,
    /// Sampled accesses per duel window before utilities are compared.
    pub(crate) duel_window: u64,
    /// Shadow-book capacity (predicted ranges) per engine.
    pub(crate) shadow_capacity: usize,
    /// Accesses before an unconsumed shadow range counts as waste.
    pub(crate) shadow_age: u64,
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

/// The adaptive engine. See the module docs for the dueling protocol.
#[derive(Debug, Clone)]
pub struct AdaptiveEngine {
    config: AdaptiveConfig,
    strided: Predictor,
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
    /// (`bits`-wide counter) and a fresh correlation miner.
    pub fn new(bits: u32) -> Self {
        Self::with_config(AdaptiveConfig::default(), bits)
    }

    /// The construction seam: a selector dueling on the given sampling.
    pub(crate) fn with_config(config: AdaptiveConfig, bits: u32) -> Self {
        assert!(config.sample_interval >= 1, "sample interval must be >= 1");
        assert!(config.duel_window >= 1, "duel window must be >= 1");
        Self {
            config,
            strided: Predictor::new(bits),
            correlation: CorrelationEngine::new(),
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
        let strided_pred = self.strided.on_access(
            obs.page,
            obs.pages,
            obs.aggressive_ok,
            obs.max_prefetch_pages,
        );
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

    fn defer_known_run(&mut self) {
        self.strided.defer_known_run();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::strided::tests::{probes, RECORD_PAGES};

    fn engine() -> AdaptiveEngine {
        AdaptiveEngine::with_config(
            AdaptiveConfig {
                sample_interval: 1,
                duel_window: 8,
                ..AdaptiveConfig::default()
            },
            3,
        )
    }

    #[test]
    fn default_sampling_is_pinned() {
        assert_eq!(
            AdaptiveConfig::default(),
            AdaptiveConfig {
                sample_interval: 4,
                duel_window: 16,
                shadow_capacity: 64,
                shadow_age: 256,
            }
        );
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
        let mut e = AdaptiveEngine::with_config(
            AdaptiveConfig {
                sample_interval: 1,
                shadow_capacity: 8,
                ..AdaptiveConfig::default()
            },
            3,
        );
        for i in 0..1000u64 {
            e.observe(&obs(i * 4, 4));
        }
        assert!(e.shadow_strided.entries.len() <= 8);
        assert!(e.shadow_correlation.entries.len() <= 8);
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
