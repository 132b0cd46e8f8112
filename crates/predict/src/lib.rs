//! Pluggable prefetch prediction engines for the CrossPrefetch runtime.
//!
//! CROSS-LIB's original predictor (§4.6) is a single hard-wired strided
//! counter. This crate turns prediction into a subsystem: the
//! [`PredictionEngine`] trait observes accesses and emits a
//! [`PrefetchDecision`], and three engines implement it —
//!
//! | Engine | Model | Wins on |
//! |---|---|---|
//! | [`Predictor`] (*strided*, default) | n-bit saturating counter, planned by learned run length | streaming / strided scans, short forward runs (index-then-record lookups, bursts) |
//! | [`CorrelationEngine`] | MITHRIL-style block-association mining | recurring random chains that outlive the cache |
//! | [`AdaptiveEngine`] | per-file set-dueling over both, scored on I/O saved | mixed / phase-changing files |
//!
//! The runtime holds one [`Engine`] per file descriptor and calls
//! [`PredictionEngine::observe`] from its predict pipeline stage; the
//! decision's [`Prediction`] (if any) feeds the existing paced-frontier
//! planner, while explicit [`PrefetchRun`]s are issued directly. Engines
//! that return `true` from [`PredictionEngine::wants_feedback`] are told
//! whether each read needed the device ([`PredictionEngine::outcome`]) and
//! receive the timely/late/wasted tallies from the OS prefetch-quality
//! accounting via [`PredictionEngine::feedback`], and `mine_due` decisions schedule
//! [`PredictionEngine::mine`] on the worker pool, keeping table
//! maintenance off the read path.
//!
//! The crate is deliberately free of clock, OS, and I/O types: engines
//! are pure deterministic state machines over page numbers, which keeps
//! them unit-testable and the simulation byte-reproducible.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod adaptive;
pub mod correlation;
pub mod strided;

pub use adaptive::AdaptiveEngine;
pub use correlation::CorrelationEngine;
pub use strided::{AccessPattern, Direction, Prediction, Predictor, SEQ_BATCH_PAGES};

/// Which prediction engine a file descriptor uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum EngineKind {
    /// The §4.6 n-bit saturating-counter strided predictor.
    #[default]
    Strided,
    /// MITHRIL-style correlation mining over a bounded history ring.
    Correlation,
    /// Per-file set-dueling between the other two.
    Adaptive,
}

impl EngineKind {
    /// Stable lower-case label used in telemetry, traces, and bench
    /// sidecar names.
    pub fn name(self) -> &'static str {
        match self {
            EngineKind::Strided => "strided",
            EngineKind::Correlation => "correlation",
            EngineKind::Adaptive => "adaptive",
        }
    }

    /// All selectable engines, in telemetry order.
    pub fn all() -> [EngineKind; 3] {
        [
            EngineKind::Strided,
            EngineKind::Correlation,
            EngineKind::Adaptive,
        ]
    }
}

/// One observed access, in pages, as seen by the predict stage.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AccessObservation {
    /// First page of the access.
    pub page: u64,
    /// Access length in pages (at least 1).
    pub pages: u64,
    /// Whether the runtime currently permits aggressive window growth.
    pub aggressive_ok: bool,
    /// Upper bound on any single prefetch window, in pages.
    pub max_prefetch_pages: u64,
}

/// An explicit prefetch request emitted by an engine: `pages` pages
/// starting at `start`, independent of the paced sequential frontier.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PrefetchRun {
    /// First page to prefetch.
    pub start: u64,
    /// Run length in pages.
    pub pages: u64,
}

/// A decision's explicit runs, held inline: the correlation miner emits
/// at most one per successor slot of the block it looked up, so a
/// decision never allocates. Reads as a slice of [`PrefetchRun`]s.
#[derive(Clone, Default)]
pub struct PrefetchRuns {
    slots: [PrefetchRun; correlation::SUCCESSOR_SLOTS],
    len: u8,
}

impl PrefetchRuns {
    /// Appends a run.
    ///
    /// # Panics
    ///
    /// When the decision already holds one run per successor slot.
    pub fn push(&mut self, run: PrefetchRun) {
        let len = usize::from(self.len);
        assert!(
            len < self.slots.len(),
            "a decision holds at most one run per successor slot"
        );
        self.slots[len] = run;
        self.len += 1;
    }
}

impl std::ops::Deref for PrefetchRuns {
    type Target = [PrefetchRun];

    fn deref(&self) -> &[PrefetchRun] {
        &self.slots[..usize::from(self.len)]
    }
}

impl<'a> IntoIterator for &'a PrefetchRuns {
    type Item = &'a PrefetchRun;
    type IntoIter = std::slice::Iter<'a, PrefetchRun>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

impl PartialEq for PrefetchRuns {
    fn eq(&self, other: &Self) -> bool {
        **self == **other
    }
}

impl Eq for PrefetchRuns {}

impl std::fmt::Debug for PrefetchRuns {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

/// What an engine wants done after observing one access.
#[derive(Debug, Clone, Default)]
pub struct PrefetchDecision {
    /// A strided-style prediction for the paced-frontier planner (window
    /// sizing, direction, jump detection). `None` when the deciding
    /// engine does not reason in frontiers.
    pub prediction: Option<Prediction>,
    /// Explicit runs to prefetch as-is (correlation-learned successors).
    pub runs: PrefetchRuns,
    /// The engine's confidence in this decision, in `[0, 1]`.
    pub confidence: f64,
    /// The engine's background mining pass is due; the runtime should
    /// schedule [`PredictionEngine::mine`] on a worker.
    pub mine_due: bool,
    /// An adaptive duel window closed on this access.
    pub duel_completed: bool,
    /// Ownership of real prefetch decisions transferred to this engine
    /// kind on this access (set only when it actually changed).
    pub new_owner: Option<EngineKind>,
}

/// Timely/late/wasted deltas from the OS prefetch-quality accounting,
/// fed back to engines that ask for it.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct QualityFeedback {
    /// Prefetched pages that were resident before first use.
    pub timely: u64,
    /// Prefetched pages still in flight at first use.
    pub late: u64,
    /// Prefetched pages evicted or dropped before any use.
    pub wasted: u64,
}

/// A prefetch prediction engine: a deterministic state machine from
/// access streams to prefetch decisions.
pub trait PredictionEngine {
    /// Which engine this is.
    fn kind(&self) -> EngineKind;

    /// Feeds one access; returns the engine's decision.
    fn observe(&mut self, obs: &AccessObservation) -> PrefetchDecision;

    /// Receives timely/late/wasted deltas from the runtime's quality
    /// accounting. Only called when [`PredictionEngine::wants_feedback`]
    /// returns `true`.
    fn feedback(&mut self, _fb: &QualityFeedback) {}

    /// Whether the runtime should sample quality deltas for this engine.
    /// The strided default returns `false`, keeping its read path free of
    /// the extra accounting.
    fn wants_feedback(&self) -> bool {
        false
    }

    /// Reports what the access just observed cost: `needed_io` is true when
    /// any of its pages came off the device, on demand or through a
    /// prefetch. Engines that score their own predictions use it to credit
    /// only I/O actually saved; an engine that is never told assumes every
    /// access needed the device. Called under the same gate as
    /// [`PredictionEngine::feedback`].
    fn outcome(&mut self, _needed_io: bool) {}

    /// Runs one background maintenance pass (association mining); returns
    /// the units of work done, which the caller converts into a
    /// virtual-time charge on the worker that runs it.
    fn mine(&mut self) -> u64 {
        0
    }

    /// Hands back the [`Prediction::known_run`] request the last
    /// observation made: the runtime's admission plan refused it a ride on
    /// the miss that starts the run, so the engine asks again on the run's
    /// first continuation, as it does for runs it is less sure of.
    fn defer_known_run(&mut self) {}

    /// Holds the [`Prediction::known_run`] request the last observation
    /// made: the access that made it crossed nothing (its pages were
    /// cached), so there was no miss to ride. The engine asks for the same
    /// remainder again, as a known run, on the run's next forward access,
    /// whose miss can carry it.
    fn hold_known_run(&mut self) {}
}

/// Construction-time tuning shared by all engines; the runtime builds one
/// from its `RuntimeConfig`. Everything else an engine is sized by (the
/// batch window, the miner's tables, the duel's sampling) is a constant of
/// the module that uses it.
#[derive(Debug, Clone, PartialEq)]
pub struct EngineConfig {
    /// Strided counter width in bits (1..=5; the paper finds 3 best).
    pub predictor_bits: u32,
}

impl Default for EngineConfig {
    fn default() -> Self {
        Self { predictor_bits: 3 }
    }
}

/// A concrete engine, statically dispatched (the per-read hot path stays
/// free of vtable indirection).
#[derive(Debug, Clone)]
pub enum Engine {
    /// The strided counter (default).
    Strided(Predictor),
    /// The correlation miner.
    Correlation(CorrelationEngine),
    /// The adaptive selector (boxed: it embeds both sub-engines plus two
    /// shadow books, and the common case is the slim strided variant).
    Adaptive(Box<AdaptiveEngine>),
}

impl Engine {
    /// Builds the engine selected by `kind` from shared tuning.
    pub fn for_kind(kind: EngineKind, config: &EngineConfig) -> Engine {
        match kind {
            EngineKind::Strided => Engine::Strided(Predictor::new(config.predictor_bits)),
            EngineKind::Correlation => Engine::Correlation(CorrelationEngine::new()),
            EngineKind::Adaptive => {
                Engine::Adaptive(Box::new(AdaptiveEngine::new(config.predictor_bits)))
            }
        }
    }

    /// The sub-engine currently making real prefetch decisions — differs
    /// from [`PredictionEngine::kind`] only for the adaptive selector.
    pub fn owner(&self) -> EngineKind {
        match self {
            Engine::Strided(_) => EngineKind::Strided,
            Engine::Correlation(_) => EngineKind::Correlation,
            Engine::Adaptive(a) => a.owner(),
        }
    }
}

impl PredictionEngine for Engine {
    fn kind(&self) -> EngineKind {
        match self {
            Engine::Strided(_) => EngineKind::Strided,
            Engine::Correlation(_) => EngineKind::Correlation,
            Engine::Adaptive(_) => EngineKind::Adaptive,
        }
    }

    fn observe(&mut self, obs: &AccessObservation) -> PrefetchDecision {
        match self {
            Engine::Strided(e) => e.observe(obs),
            Engine::Correlation(e) => e.observe(obs),
            Engine::Adaptive(e) => e.observe(obs),
        }
    }

    fn feedback(&mut self, fb: &QualityFeedback) {
        match self {
            Engine::Strided(e) => e.feedback(fb),
            Engine::Correlation(e) => e.feedback(fb),
            Engine::Adaptive(e) => e.feedback(fb),
        }
    }

    fn wants_feedback(&self) -> bool {
        match self {
            Engine::Strided(e) => e.wants_feedback(),
            Engine::Correlation(e) => e.wants_feedback(),
            Engine::Adaptive(e) => e.wants_feedback(),
        }
    }

    fn outcome(&mut self, needed_io: bool) {
        match self {
            Engine::Strided(e) => e.outcome(needed_io),
            Engine::Correlation(e) => e.outcome(needed_io),
            Engine::Adaptive(e) => e.outcome(needed_io),
        }
    }

    fn mine(&mut self) -> u64 {
        match self {
            Engine::Strided(e) => e.mine(),
            Engine::Correlation(e) => e.mine(),
            Engine::Adaptive(e) => e.mine(),
        }
    }

    fn defer_known_run(&mut self) {
        match self {
            Engine::Strided(e) => e.defer_known_run(),
            Engine::Correlation(e) => e.defer_known_run(),
            Engine::Adaptive(e) => e.defer_known_run(),
        }
    }

    fn hold_known_run(&mut self) {
        match self {
            Engine::Strided(e) => e.hold_known_run(),
            Engine::Correlation(e) => e.hold_known_run(),
            Engine::Adaptive(e) => e.hold_known_run(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn engine_kinds_round_trip_names() {
        for kind in EngineKind::all() {
            assert!(!kind.name().is_empty());
        }
        assert_eq!(EngineKind::default(), EngineKind::Strided);
    }

    #[test]
    fn for_kind_builds_matching_variants() {
        let config = EngineConfig::default();
        for kind in EngineKind::all() {
            let engine = Engine::for_kind(kind, &config);
            assert_eq!(engine.kind(), kind);
        }
    }

    #[test]
    fn strided_engine_mirrors_the_raw_predictor() {
        let config = EngineConfig::default();
        let mut engine = Engine::for_kind(EngineKind::Strided, &config);
        let mut raw = Predictor::new(3);
        for i in 0..64u64 {
            let decision = engine.observe(&AccessObservation {
                page: i * 4,
                pages: 4,
                aggressive_ok: false,
                max_prefetch_pages: 16_384,
            });
            let expected = raw.on_access(i * 4, 4, false, 16_384);
            assert_eq!(decision.prediction, Some(expected));
            assert!(decision.runs.is_empty());
            assert!(!decision.mine_due);
        }
        assert!(!engine.wants_feedback());
        assert_eq!(engine.mine(), 0);
    }

    #[test]
    fn owner_tracks_the_adaptive_winner() {
        let config = EngineConfig::default();
        let mut engine = Engine::for_kind(EngineKind::Adaptive, &config);
        assert_eq!(engine.owner(), EngineKind::Strided);
        for _ in 0..128u64 {
            for &page in &[1_000u64, 50_000, 200_000] {
                let d = engine.observe(&AccessObservation {
                    page,
                    pages: 2,
                    aggressive_ok: false,
                    max_prefetch_pages: 16_384,
                });
                if d.mine_due {
                    engine.mine();
                }
            }
        }
        assert_eq!(engine.owner(), EngineKind::Correlation);
    }
}
