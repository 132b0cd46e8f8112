//! The CROSS-LIB access-pattern predictor (§4.6) for the CrossPrefetch
//! runtime.
//!
//! One predictor, [`Predictor`]: an n-bit saturating counter per file
//! descriptor, planned by the learned run length (module [`strided`]).
//! The runtime keeps one in each descriptor's record of outstanding
//! speculation and feeds it every intercepted access through
//! [`Predictor::on_access`]; the [`Prediction`] goes to the paced-frontier
//! planner, or rides the miss that starts a known run.
//!
//! | Item | Role |
//! |---|---|
//! | [`Predictor`] | the counter, the run shape, and the held or deferred known run |
//! | [`Prediction`] | what to prefetch after one access: pattern, window, direction, jump, known run |
//! | [`EngineConfig`] | construction-time tuning: the counter width |
//! | [`Engine`], [`EngineKind`], [`PredictionEngine`], [`AccessObservation`], [`PrefetchDecision`] | inert names `benchmark/` compiles against (ROADMAP 1-B(h)) |
//!
//! The crate is deliberately free of clock, OS, and I/O types: the
//! predictor is a pure deterministic state machine over page numbers,
//! which keeps it unit-testable and the simulation byte-reproducible.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod strided;

pub use strided::{AccessPattern, Direction, Prediction, Predictor, SEQ_BATCH_PAGES};

/// Construction-time tuning of the predictor; the runtime builds one from
/// its `RuntimeConfig`. Everything else the predictor is sized by (the
/// batch window, the run-shape counts) is a constant of [`strided`].
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

// Inert names `benchmark/` compiles against. Each builds or returns what
// the one predictor does; ROADMAP 1-B(h) deletes them together with the
// benchmark lines that hold them.

/// Inert: there is one predictor, whatever the value. Held by
/// `benchmark/src/workload.rs:87`, which sets `Adaptive` for `kv_probe`
/// (ROADMAP 1-B(h)).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum EngineKind {
    /// The §4.6 strided predictor.
    #[default]
    Strided,
    /// Builds the strided predictor too.
    Adaptive,
}

/// The predictor under the name `benchmark/src/layers.rs:57-58` builds it
/// by (ROADMAP 1-B(h)).
pub type Engine = Predictor;

impl Predictor {
    /// Inert: the predictor `config` sizes, whatever `kind`. Called by
    /// `benchmark/src/layers.rs:58` (ROADMAP 1-B(h)).
    pub fn for_kind(_kind: EngineKind, config: &EngineConfig) -> Predictor {
        Predictor::new(config.predictor_bits)
    }
}

/// One observed access, in pages: [`PredictionEngine::observe`]'s input,
/// built by `benchmark/src/layers.rs:65` (ROADMAP 1-B(h)).
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

/// [`PredictionEngine::observe`]'s output (ROADMAP 1-B(h)).
#[derive(Debug, Clone)]
pub struct PrefetchDecision {
    /// The predictor's prediction for the access.
    pub prediction: Option<Prediction>,
    /// Inert: always `false`. Read by `benchmark/src/layers.rs:71`
    /// (ROADMAP 1-B(h)).
    pub mine_due: bool,
}

/// [`Predictor::on_access`] under the trait `benchmark/src/layers.rs:10`
/// imports and calls (ROADMAP 1-B(h)).
pub trait PredictionEngine {
    /// Feeds one access; returns the prediction.
    fn observe(&mut self, obs: &AccessObservation) -> PrefetchDecision;

    /// Inert: always 0. Called by `benchmark/src/layers.rs:73`
    /// (ROADMAP 1-B(h)).
    fn mine(&mut self) -> u64 {
        0
    }
}

impl PredictionEngine for Predictor {
    fn observe(&mut self, obs: &AccessObservation) -> PrefetchDecision {
        let prediction = self.on_access(
            obs.page,
            obs.pages,
            obs.aggressive_ok,
            obs.max_prefetch_pages,
        );
        PrefetchDecision {
            prediction: Some(prediction),
            mine_due: false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn for_kind_builds_the_configured_predictor_for_every_kind() {
        let config = EngineConfig { predictor_bits: 4 };
        for kind in [EngineKind::Strided, EngineKind::Adaptive] {
            assert_eq!(Engine::for_kind(kind, &config), Predictor::new(4));
        }
        assert_eq!(EngineKind::default(), EngineKind::Strided);
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
            assert!(!decision.mine_due);
        }
        assert_eq!(engine.mine(), 0);
    }
}
