//! Mechanism policy: the per-mode dispatch table.
//!
//! Every Table-2 mechanism differs from the others in a handful of
//! decisions — what happens at `open`, which pipeline stages run, which
//! bookkeeping hooks fire after a read, how the user-level view is
//! locked. Those decisions used to live as `Features`-gated branches
//! scattered through `runtime.rs`; this module collects them into one
//! [`Policy`] value built once at [`crate::Runtime::new`], so adding a
//! Table-2 variant means adding a row here (plus its [`Mode`] arm) and
//! touching nothing else.

use predict::EngineKind;

use crate::config::{Features, Mode, RuntimeConfig};
use crate::range_index::LockScope;

/// What the shim does when a file is opened.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpenAction {
    /// No open-time prefetch.
    Nothing,
    /// Schedule the entire file at the first open (`[+fetchall+opt]`).
    ScheduleWholeFile,
    /// Optimistic fixed-size window at open (§4.6's 2 MiB), floors
    /// respected.
    OptimisticWindow,
}

/// Deferred bookkeeping the account stage runs after each intercepted
/// access, in table order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PostReadHook {
    /// Periodic whole-file refetch rounds (`[+fetchall+opt]` monitoring);
    /// reads only.
    FetchAllMonitor,
    /// Background fincore poll + blind readahead (the Figure 2 strawman).
    FincorePoll,
    /// The §4.6 memory watcher (aggressive eviction).
    MemoryWatcher,
}

/// The mechanism-dispatch table: every per-mode decision the hot path
/// consults, resolved once at runtime construction.
#[derive(Debug, Clone)]
pub struct Policy {
    /// The effective feature bundle (kept for stage-level gating).
    pub features: Features,
    /// Whether the shim intercepts I/O at all; `false` routes reads
    /// through the passthrough pipeline.
    pub intercept: bool,
    /// Silence the OS heuristic readahead at open so the two layers do
    /// not double-prefetch (every intercepting mode except the fincore
    /// strawman, which *relies* on the heuristic).
    pub silence_heuristic_ra: bool,
    /// Open-time prefetch behaviour.
    pub open_action: OpenAction,
    /// Locking granularity of the user-level cache view.
    pub scope: LockScope,
    /// Post-read hooks, in execution order.
    pub post_read: Vec<PostReadHook>,
    /// Batched prefetch submission: accumulate planned runs and submit
    /// them as one vectored crossing. Requires cache visibility — the
    /// vectored call is a `readahead_info` extension — so the flag is the
    /// config knob ANDed with the visibility feature.
    pub batch_submit: bool,
    /// Completion-driven ring: absorb fully-cached demand reads through
    /// the exported bitmap, cross demand misses via the vectored
    /// `read_batch` crossing (piggybacking staged prefetch runs), and
    /// carry a known run on the miss that starts it. The absorb path reads
    /// the shared cache-state bitmap, so the flag is the config knob
    /// ANDed with the visibility feature.
    pub ring: bool,
    /// The prediction engine new descriptors are built with. Only
    /// predicting modes consult an engine at all, so non-predict modes
    /// resolve to the (stateless-by-disuse) strided default regardless of
    /// the config knob.
    pub engine: EngineKind,
}

impl Policy {
    /// Builds the dispatch table for `config`'s effective features.
    pub fn for_config(config: &RuntimeConfig) -> Self {
        let features = config.effective_features();
        let open_action = if features.fetchall {
            OpenAction::ScheduleWholeFile
        } else if features.aggressive {
            OpenAction::OptimisticWindow
        } else {
            OpenAction::Nothing
        };
        let scope = if features.range_tree {
            LockScope::PerNode
        } else {
            LockScope::WholeFile
        };
        let mut post_read = Vec::new();
        if features.fetchall {
            post_read.push(PostReadHook::FetchAllMonitor);
        }
        if features.fincore_poll {
            post_read.push(PostReadHook::FincorePoll);
        }
        if features.aggressive {
            post_read.push(PostReadHook::MemoryWatcher);
        }
        Self {
            features,
            intercept: features.intercepting(),
            silence_heuristic_ra: features.intercepting() && !features.fincore_poll,
            open_action,
            scope,
            post_read,
            batch_submit: features.visibility && config.batch_submit,
            ring: features.visibility && config.ring_submit,
            engine: if features.predict {
                config.engine
            } else {
                EngineKind::Strided
            },
        }
    }
}

/// The per-mode feature rows (Table 2 plus the Figure 2 strawman) — the
/// single place a new mechanism variant declares its capabilities.
pub(crate) fn features_for(mode: Mode) -> Features {
    match mode {
        Mode::AppOnly | Mode::OsOnly => Features::passthrough(),
        Mode::Predict => Features {
            predict: true,
            visibility: true,
            range_tree: true,
            ..Features::passthrough()
        },
        Mode::PredictOpt => Features {
            predict: true,
            visibility: true,
            range_tree: true,
            relax_limits: true,
            aggressive: true,
            ..Features::passthrough()
        },
        Mode::FetchAllOpt => Features {
            visibility: true,
            relax_limits: true,
            fetchall: true,
            ..Features::passthrough()
        },
        Mode::FincoreApp => Features {
            fincore_poll: true,
            ..Features::passthrough()
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn passthrough_policy_does_nothing() {
        for mode in [Mode::AppOnly, Mode::OsOnly] {
            let policy = Policy::for_config(&RuntimeConfig::new(mode));
            assert!(!policy.intercept);
            assert!(!policy.silence_heuristic_ra);
            assert_eq!(policy.open_action, OpenAction::Nothing);
            assert!(policy.post_read.is_empty());
        }
    }

    #[test]
    fn predict_opt_policy_rows() {
        let policy = Policy::for_config(&RuntimeConfig::new(Mode::PredictOpt));
        assert!(policy.intercept && policy.silence_heuristic_ra);
        assert_eq!(policy.open_action, OpenAction::OptimisticWindow);
        assert_eq!(policy.scope, LockScope::PerNode);
        assert_eq!(policy.post_read, vec![PostReadHook::MemoryWatcher]);
    }

    #[test]
    fn fetchall_policy_rows() {
        let policy = Policy::for_config(&RuntimeConfig::new(Mode::FetchAllOpt));
        assert_eq!(policy.open_action, OpenAction::ScheduleWholeFile);
        assert_eq!(policy.scope, LockScope::WholeFile);
        assert_eq!(policy.post_read, vec![PostReadHook::FetchAllMonitor]);
    }

    #[test]
    fn fincore_policy_keeps_heuristic_ra() {
        let policy = Policy::for_config(&RuntimeConfig::new(Mode::FincoreApp));
        assert!(policy.intercept);
        assert!(!policy.silence_heuristic_ra);
        assert_eq!(policy.post_read, vec![PostReadHook::FincorePoll]);
    }

    #[test]
    fn batch_submit_requires_visibility() {
        // Off by default everywhere.
        for mode in Mode::table2() {
            assert!(!Policy::for_config(&RuntimeConfig::new(mode)).batch_submit);
        }
        // On + visibility: enabled.
        let mut config = RuntimeConfig::new(Mode::PredictOpt);
        config.batch_submit = true;
        assert!(Policy::for_config(&config).batch_submit);
        // On without visibility (no vectored form for blind readahead):
        // stays off.
        let mut blind = RuntimeConfig::new(Mode::OsOnly);
        blind.batch_submit = true;
        assert!(!Policy::for_config(&blind).batch_submit);
    }

    #[test]
    fn ring_requires_visibility() {
        // Off by default everywhere.
        for mode in Mode::table2() {
            assert!(!Policy::for_config(&RuntimeConfig::new(mode)).ring);
        }
        // On + visibility: enabled.
        let mut config = RuntimeConfig::new(Mode::PredictOpt);
        config.ring_submit = true;
        assert!(Policy::for_config(&config).ring);
        // On without visibility (absorb needs the exported bitmap):
        // stays off.
        let mut blind = RuntimeConfig::new(Mode::OsOnly);
        blind.ring_submit = true;
        assert!(!Policy::for_config(&blind).ring);
    }

    #[test]
    fn engine_resolves_to_strided_without_predict() {
        // The knob only matters where a predictor runs at all.
        let mut passthrough = RuntimeConfig::new(Mode::OsOnly);
        passthrough.engine = EngineKind::Correlation;
        assert_eq!(Policy::for_config(&passthrough).engine, EngineKind::Strided);

        let mut fetchall = RuntimeConfig::new(Mode::FetchAllOpt);
        fetchall.engine = EngineKind::Adaptive;
        assert_eq!(Policy::for_config(&fetchall).engine, EngineKind::Strided);

        let mut predict = RuntimeConfig::new(Mode::Predict);
        predict.engine = EngineKind::Correlation;
        assert_eq!(Policy::for_config(&predict).engine, EngineKind::Correlation);
        assert_eq!(
            Policy::for_config(&RuntimeConfig::new(Mode::PredictOpt)).engine,
            EngineKind::Strided
        );
    }

    #[test]
    fn feature_override_drives_policy() {
        let mut config = RuntimeConfig::new(Mode::PredictOpt);
        config.features = Some(Features::passthrough());
        let policy = Policy::for_config(&config);
        assert!(!policy.intercept);
    }
}
