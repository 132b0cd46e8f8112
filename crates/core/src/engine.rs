//! Prediction-engine plumbing: one engine step per access, the routing
//! of its decision (paced windows, known runs, mined correlation runs),
//! the background mining pass and the prefetch-quality feedback.

use std::sync::atomic::Ordering;

use predict::{AccessObservation, Prediction, PredictionEngine, PrefetchDecision, QualityFeedback};
use simclock::ThreadClock;
use simos::PrefetchQuality;

use crate::outstanding::Outstanding;
use crate::runtime::CpFile;
use crate::trace::TraceEventKind;

/// Reads between per-file quality-feedback samples: engines that learn
/// from timely/late/wasted accounting see a fresh delta this often, cheap
/// enough to hide in the accounting stage, frequent enough to steer the
/// correlation support bar and the adaptive hit weighting within a run.
const FEEDBACK_INTERVAL_READS: u64 = 64;

impl CpFile {
    /// One engine step for an access of `pages` pages at `page`, after
    /// telling the engine the last read's outcome, if any
    /// ([`Outstanding::take_outcome`]).
    pub(crate) fn observe(
        &self,
        clock: &ThreadClock,
        outstanding: &mut Outstanding,
        page: u64,
        pages: u64,
    ) -> PrefetchDecision {
        let runtime = &self.runtime;
        let features = &runtime.inner.policy.features;
        let mut engine = self.engine.lock();
        if let Some(needed_io) = outstanding.take_outcome() {
            engine.outcome(needed_io);
        }
        engine.observe(&AccessObservation {
            page,
            pages,
            aggressive_ok: features.aggressive && runtime.aggressive_allowed(clock.now()),
            max_prefetch_pages: runtime.inner.config.max_prefetch_pages,
        })
    }

    /// Applies an engine decision for the access `[p0, p1)` — the one
    /// place a prediction is routed, for the read and the mapped path
    /// alike. A jump is the record's ([`Outstanding::jump`]), whatever
    /// carries its request; a ride it cancels is counted here. The
    /// prediction goes to the paced-frontier planner, unless it is a known
    /// run and the caller `crosses` the ring next: that one is returned,
    /// to ride the crossing ([`CpFile::ring_fill`]) or go back to the
    /// engine. Then the non-strided parts, which a strided decision never
    /// carries: mined runs issued, duels counted, mining dispatched.
    pub(crate) fn apply_decision(
        &self,
        clock: &mut ThreadClock,
        outstanding: &mut Outstanding,
        decision: PrefetchDecision,
        p0: u64,
        p1: u64,
        crosses: bool,
    ) -> Option<Prediction> {
        let inner = &self.runtime.inner;
        let stats = &inner.stats;
        let mut known_run = None;
        if let Some(pred) = decision.prediction {
            if pred.jumped && outstanding.jump(p0, p1) {
                inner.stats.ring_spec_cancelled.incr();
            }
            if crosses && pred.known_run {
                known_run = Some(pred);
            } else {
                self.paced_prefetch(clock, outstanding, pred, p0, p1, None);
            }
        }
        for run in &decision.runs {
            if run.pages == 0 {
                continue;
            }
            inner.stats.engine_assoc_runs.incr();
            // `prefetch_pages` also returns the run's end when the
            // visibility check skips it whole, so count what it requested
            // (a concurrent reader's request inside the call is counted
            // too: the counter is the runtime's, not the file's).
            let requested = stats.pages_requested.get();
            let runtime = &self.runtime;
            runtime.prefetch_pages(clock, &self.file, run.start, run.pages, None);
            let assoc = stats.pages_requested.get() - requested;
            stats.engine_assoc_pages.add(assoc);
        }
        if decision.duel_completed {
            inner.stats.engine_duels.incr();
        }
        if let Some(winner) = decision.new_owner {
            inner.stats.engine_ownership_flips.incr();
            inner.trace.emit(
                clock.now(),
                TraceEventKind::EngineOwner {
                    ino: self.file.ino,
                    engine: winner.name(),
                },
            );
        }
        if decision.mine_due {
            self.dispatch_mining(clock);
        }
        known_run
    }

    /// Runs the engine's deferred mining pass on the worker pool, charging
    /// the association-table maintenance to worker virtual time — the
    /// miner never runs on the application thread (§4.6 keeps heavy work
    /// off the I/O path; MITHRIL mines asynchronously for the same
    /// reason).
    fn dispatch_mining(&self, clock: &mut ThreadClock) {
        let inner = &self.runtime.inner;
        inner.stats.engine_mining_passes.incr();
        let step_ns = inner.os.config().costs.predictor_step_ns.max(1);
        let dispatch = inner.workers.dispatch(clock.now(), step_ns, |wclock| {
            let pairs = self.engine.lock().mine();
            wclock.advance(step_ns.saturating_mul(pairs.max(1)));
        });
        self.runtime.note_queue_wait(&dispatch);
    }

    /// Feeds the per-file timely/late/wasted delta to engines that learn
    /// from it (correlation support tuning, adaptive hit weighting), every
    /// [`FEEDBACK_INTERVAL_READS`] accesses; callers skip it for the
    /// strided engine (`engine_feedback`). Charges no virtual time, so
    /// feedback never perturbs the simulated timeline by itself.
    pub(crate) fn maybe_feed_quality(&self) {
        if self.reads_since_feedback.fetch_add(1, Ordering::Relaxed) + 1 < FEEDBACK_INTERVAL_READS {
            return;
        }
        self.reads_since_feedback.store(0, Ordering::Relaxed);
        let quality = self.os_file.cache.state.read().quality();
        let delta = quality.delta(std::mem::replace(&mut *self.fed_quality.lock(), quality));
        if delta == PrefetchQuality::default() {
            return;
        }
        self.engine.lock().feedback(&QualityFeedback {
            timely: delta.timely,
            late: delta.late,
            wasted: delta.wasted,
        });
    }
}
