//! Predictor plumbing: one predictor step per access, on the predictor
//! the descriptor's record holds, and the routing of its prediction
//! (paced windows, known runs).

use predict::Prediction;
use simclock::ThreadClock;

use crate::outstanding::Outstanding;
use crate::runtime::CpFile;

impl CpFile {
    /// One predictor step for an access of `pages` pages at `page`.
    pub(crate) fn observe(
        &self,
        clock: &ThreadClock,
        outstanding: &mut Outstanding,
        page: u64,
        pages: u64,
    ) -> Prediction {
        let runtime = &self.runtime;
        let features = &runtime.inner.policy.features;
        let aggressive_ok = features.aggressive && runtime.aggressive_allowed(clock.now());
        let max_pages = runtime.inner.config.max_prefetch_pages;
        outstanding
            .predictor()
            .on_access(page, pages, aggressive_ok, max_pages)
    }

    /// Applies a prediction for the access `[p0, p1)` — the one place a
    /// prediction is routed, for the read and the mapped path alike. A
    /// jump is the record's ([`Outstanding::jump`]), whatever carries its
    /// request; a ride it cancels is counted here. The prediction goes to
    /// the paced-frontier planner, unless it is a known run and the caller
    /// `crosses` the ring next: that one is returned, to ride the crossing
    /// ([`CpFile::ring_fill`]) or go back to the predictor.
    pub(crate) fn apply_prediction(
        &self,
        clock: &mut ThreadClock,
        outstanding: &mut Outstanding,
        pred: Prediction,
        p0: u64,
        p1: u64,
        crosses: bool,
    ) -> Option<Prediction> {
        if pred.jumped && outstanding.jump(p0, p1) {
            self.runtime.inner.stats.ring_spec_cancelled.incr();
        }
        if crosses && pred.known_run {
            return Some(pred);
        }
        self.paced_prefetch(clock, outstanding, pred, p0, p1, None);
        None
    }
}
