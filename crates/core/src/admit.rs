//! Prefetch admission and issue. Every speculation — the §4.6 open-time
//! window, paced windows, mined runs, FetchAll rounds, a known run riding
//! its first miss's ring crossing — is decided once by `Runtime::plan` and
//! carried out at one point by `Runtime::apply`; then issued by a worker
//! (with its retry ladder) or ridden by the crossing.

use std::sync::atomic::Ordering;
use std::sync::Arc;

use predict::{Prediction, PredictionEngine};
use simclock::ThreadClock;
use simos::{
    FaultMode, InodeId, IoError, RaBatchCompletion, RaBatchEntry, RaInfoRequest, ReadBatchEntry,
    ReadOutcome, PAGE_SIZE,
};

use crate::outstanding::Outstanding;
use crate::runtime::{CpFile, LibFile, Runtime};
use crate::span::SpanKind;
use crate::tenant::UNBOUND_TENANT;
use crate::trace::{LookupOutcome, TraceEventKind};
use crate::worker::Dispatch;

/// Stop *aggressive* window growth when available memory drops to this
/// fraction of the budget (§4.6's high watermark).
pub(crate) const AGGRESSIVE_FLOOR: f64 = 0.15;
/// Stop *all* prefetch but FetchAll's below this available fraction.
pub(crate) const PREFETCH_FLOOR: f64 = 0.05;
/// Attempts a worker makes on a transiently failing prefetch, ring
/// speculation or promotion copy before giving the range up (first try +
/// retries).
pub(crate) const PREFETCH_RETRY_ATTEMPTS: u32 = 4;
/// Initial retry backoff in virtual ns; doubles per attempt.
pub(crate) const PREFETCH_RETRY_BACKOFF_NS: u64 = 100 * simclock::NS_PER_US;

/// One limit-sized run of a known run riding the ring crossing of the
/// miss that starts it: everything its [`RaBatchEntry`] is built from, and
/// what a retry re-issues if it faults.
#[derive(Debug)]
pub(crate) struct Rider {
    file: Arc<LibFile>,
    start: u64,
    end: u64,
}

/// The riders of a successful ring crossing and their completions,
/// imported into the view by the account stage after its staleness resync
/// ([`CpFile::ring_fill`]).
pub(crate) type Ridden = (Vec<Rider>, Vec<RaBatchCompletion>);

/// What one speculative request becomes, decided before anything is
/// charged, counted or sent.
#[derive(Debug, Default)]
struct Plan {
    /// The admitted span `[from, end)`.
    from: u64,
    end: u64,
    /// The tenant to bill: `None` without a tenant table or a tenant, and
    /// for a refused request.
    bill: Option<u32>,
    /// The span's uncached runs.
    missing: Vec<(u64, u64)>,
    submit: Submit,
}

impl Plan {
    /// Nothing scheduled: the schedule reaches `from`.
    fn refused(from: u64) -> Self {
        Plan {
            from,
            end: from,
            ..Plan::default()
        }
    }
}

/// How a plan leaves the calling thread.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
enum Submit {
    /// Nothing is sent; the schedule reaches `from`.
    #[default]
    Refuse,
    /// The view claims every admitted page of a worker submission: no
    /// syscall (§4.2). A ride is never skipped.
    Skip,
    /// The runs ride the demand crossing of the miss that starts them.
    Ride,
    /// The runs go to the worker pool.
    Worker,
}

impl Runtime {
    /// Credits pages the OS initiated for a prefetch on `file` to the
    /// global counter and the owning tenant's ledger, keeping the
    /// per-tenant `timely + late + wasted == initiated` invariant whole.
    pub(crate) fn note_pages_initiated(&self, file: &LibFile, pages: u64) {
        self.inner.stats.pages_initiated.add(pages);
        if let Some(tenants) = &self.inner.tenants {
            // A file without a tenant is outside the table: a no-op.
            tenants.note_initiated(file.tenant.load(Ordering::Relaxed), pages);
        }
    }

    /// Dispatches a cross-tier promotion job: a background remote→local
    /// copy of a planner-approved range (one that missed again within
    /// the local tier's reach), on the worker pool.
    /// Transient faults walk the prefetch retry ladder; giving up leaves
    /// the placement map unchanged. Pages a completed copy newly inserts
    /// into the cache are billed as prefetch-initiated, keeping the
    /// quality ledger whole.
    pub(crate) fn dispatch_promotion(
        &self,
        clock: &mut ThreadClock,
        file: &Arc<LibFile>,
        start: u64,
        pages: u64,
    ) {
        let inner = &self.inner;
        if inner.planner.is_none() {
            return;
        }
        inner.stats.promotions_issued.incr();
        let (runtime, file) = (self.clone(), Arc::clone(file));
        let est_ns = inner.os.config().costs.syscall_ns.max(1);
        let dispatch = inner.workers.dispatch(clock.now(), est_ns, move |wclock| {
            let (os, stats) = (&runtime.inner.os, &runtime.inner.stats);
            let copy = |wclock: &mut ThreadClock| {
                os.try_promote_range(wclock, file.ino, start, pages).ok()
            };
            let range = (file.ino, start, pages);
            match runtime.retry_ladder(wclock, range, 0, &stats.promotion_retries, copy) {
                Some(newly) => {
                    stats.promotions_completed.incr();
                    stats.promotion_pages.add(newly);
                    runtime.note_pages_initiated(&file, newly);
                }
                None => stats.promotion_give_ups.incr(),
            }
        });
        self.note_queue_wait(&dispatch);
    }

    /// The one retry ladder for background I/O that hit a transient
    /// fault: runs `attempt` until it yields a value, counting each `None`
    /// in `retries`, tracing it `PrefetchRetry` and backing off a doubling
    /// [`PREFETCH_RETRY_BACKOFF_NS`]. After [`PREFETCH_RETRY_ATTEMPTS`]
    /// (`spent` of them made by the caller) the range is traced
    /// `PrefetchAbandoned` and `None` returned, for the caller to count.
    fn retry_ladder<T>(
        &self,
        clock: &mut ThreadClock,
        (ino, start_page, pages): (InodeId, u64, u64),
        spent: u32,
        retries: &simclock::Counter,
        mut attempt: impl FnMut(&mut ThreadClock) -> Option<T>,
    ) -> Option<T> {
        let trace = &self.inner.trace;
        let mut failed = spent;
        let mut backoff = PREFETCH_RETRY_BACKOFF_NS;
        loop {
            if failed >= PREFETCH_RETRY_ATTEMPTS {
                let abandoned = TraceEventKind::PrefetchAbandoned {
                    ino,
                    start_page,
                    pages,
                };
                trace.emit(clock.now(), abandoned);
                return None;
            }
            if failed > 0 {
                retries.incr();
                let retry = TraceEventKind::PrefetchRetry {
                    ino,
                    start_page,
                    pages,
                    attempt: failed,
                };
                trace.emit(clock.now(), retry);
                clock.advance(backoff);
                crate::span::record_leaf(SpanKind::RetryBackoff, backoff, clock.now());
                backoff = backoff.saturating_mul(2);
            }
            if let Some(done) = attempt(clock) {
                return Some(done);
            }
            failed += 1;
        }
    }

    /// Flips the one-way degradation latch (the kernel rejected
    /// `readahead_info`), tracing the downgrade the first time only.
    fn latch_degraded(&self, now_ns: u64, ino: InodeId) {
        if !self.inner.degraded.swap(true, Ordering::Relaxed) {
            let downgraded = TraceEventKind::VisibilityDowngraded { ino };
            self.inner.trace.emit(now_ns, downgraded);
        }
    }

    /// Books how long a job just handed to the worker pool sat queued.
    pub(crate) fn note_queue_wait(&self, dispatch: &Dispatch) {
        let waited = dispatch.queue_wait_ns();
        self.inner.metrics.worker_queue_ns.record(waited);
    }

    /// Fraction of the budget that is free *or reclaimable* (clean cached
    /// pages). A steady-state page cache is always "full" of clean pages;
    /// those are available to prefetching — only dirty data is not.
    fn available_fraction(&self) -> f64 {
        let mem = self.inner.os.mem();
        1.0 - (mem.dirty() as f64 / mem.budget().max(1) as f64)
    }

    /// Whether aggressive window growth is currently allowed: requires
    /// clean-memory headroom *and* no recent reclaim activity (memory
    /// pressure pauses aggressiveness for a grace interval — §4.6's
    /// high-watermark behaviour under a steady-state-full cache). Pages
    /// the memory watcher returned count as reclaim as much as the OS's
    /// own evictions: they were freed because memory ran short.
    pub(crate) fn aggressive_allowed(&self, now: u64) -> bool {
        let inner = &self.inner;
        if self.available_fraction() <= AGGRESSIVE_FLOOR {
            return false;
        }
        let evicted = inner.os.mem().evicted.get() + inner.stats.pages_evicted.get();
        let last = inner.last_evicted_pages.swap(evicted, Ordering::Relaxed);
        if evicted > last && last > 0 {
            inner
                .aggressive_pause_until
                .fetch_max(now + 50 * simclock::NS_PER_MS, Ordering::Relaxed);
        }
        now >= inner.aggressive_pause_until.load(Ordering::Relaxed)
    }

    /// Schedules a prefetch of `[from, from + want)` pages of `file`, or,
    /// with `riders` (DESIGN §13), leaves its runs there to ride the
    /// demand crossing of the miss that starts a known run. Returns the
    /// page the schedule reached (`from` when nothing was scheduled), so
    /// pacing frontiers reflect the memory-clamped reality.
    pub(crate) fn prefetch_pages(
        &self,
        clock: &mut ThreadClock,
        file: &Arc<LibFile>,
        from: u64,
        want: u64,
        riders: Option<&mut Vec<Rider>>,
    ) -> u64 {
        let plan = self.plan(clock, file, from, want, riders.is_some());
        self.apply(clock, file, plan, riders)
    }

    /// The memory-budget clamp on one request's span: at most half the
    /// truly-free headroom, but never less than budget/32 — a full cache
    /// of *clean* pages is reclaimable, so modest windows stay productive
    /// while no single call can blow the budget. `None` under FetchAll,
    /// which is exempt (see [`Runtime::plan`]).
    pub(crate) fn headroom_pages(&self) -> Option<u64> {
        if self.inner.policy.features.fetchall {
            return None;
        }
        let mem = self.inner.os.mem();
        Some((mem.free_pages() / 2).max(mem.budget() / 32).max(1))
    }

    /// Every decision about one request, each made once: the memory floor
    /// and headroom clamp, the visibility dedupe (worker submissions only)
    /// and the submission; a tenant decides nothing, it is only billed.
    /// Charges, counts and sends nothing; the caller pays a worker
    /// submission's range-index lookup only.
    fn plan(
        &self,
        clock: &mut ThreadClock,
        file: &LibFile,
        from: u64,
        want: u64,
        ride: bool,
    ) -> Plan {
        let inner = &self.inner;
        let features = &inner.policy.features;
        let mut end = (from + want).min(file.pages());
        // FetchAll is exempt from both memory bounds: Table 2's policy
        // assumes the data fits and paces its own rounds.
        if from >= end || (!features.fetchall && self.available_fraction() < PREFETCH_FLOOR) {
            return Plan::refused(from);
        }
        if let Some(headroom) = self.headroom_pages() {
            end = from + (end - from).min(headroom);
        }
        let tenant = file.tenant.load(Ordering::Relaxed);
        let bill = (inner.tenants.is_some() && tenant != UNBOUND_TENANT).then_some(tenant);

        // User-level visibility check: skip entirely-cached requests. This
        // is the system-call reduction at the heart of §4.2, so it applies
        // to worker submissions only. A ride crosses with its miss anyway
        // and CROSS-OS dedupes it against the authoritative bitmap, so it
        // carries its whole span: a view left stale by reclaim can neither
        // veto it nor cost the reader a range-index lookup. A degraded
        // kernel rides nothing: blind `readahead(2)` has no vectored form.
        let rides = ride && !inner.degraded.load(Ordering::Relaxed);
        let missing = if features.visibility && !rides {
            let costs = &inner.os.config().costs;
            file.tree.missing_in(clock, costs, self.scope(), from, end)
        } else {
            vec![(from, end)]
        };
        let submit = if rides {
            Submit::Ride
        } else if missing.is_empty() {
            Submit::Skip
        } else {
            Submit::Worker
        };
        Plan {
            from,
            end,
            bill,
            missing,
            submit,
        }
    }

    /// Carries out `plan` at one point: the tenant bill for exactly the
    /// span it admitted, the counters and trace, and the submission. The
    /// calling thread pays an enqueue; a worker issues on its own clock.
    fn apply(
        &self,
        clock: &mut ThreadClock,
        file: &Arc<LibFile>,
        plan: Plan,
        riders: Option<&mut Vec<Rider>>,
    ) -> u64 {
        let inner = &self.inner;
        let (from, end) = (plan.from, plan.end);
        if let (Some(tenants), Some(tenant)) = (&inner.tenants, plan.bill) {
            tenants.admit(&inner.os, tenant, end - from, clock.now());
        }
        if plan.submit == Submit::Refuse {
            return from;
        }
        if plan.submit == Submit::Skip {
            inner.stats.prefetches_skipped.incr();
            let skipped = TraceEventKind::TreeLookup {
                ino: file.ino,
                start_page: from,
                pages: end - from,
                outcome: LookupOutcome::SkippedByVisibility,
            };
            inner.trace.emit(clock.now(), skipped);
            return end;
        }
        let missing = plan.missing;
        inner.stats.prefetches_enqueued.incr();
        let total: u64 = missing.iter().map(|&(s, e)| e - s).sum();
        inner.stats.pages_requested.add(total);
        let costs = &inner.os.config().costs;
        clock.advance(costs.lock_op_ns); // enqueue
        let (ino, start_page) = (file.ino, missing[0].0);

        if let (Submit::Ride, Some(riders)) = (plan.submit, riders) {
            inner.stats.ring_spec_issued.incr();
            let issued = TraceEventKind::RingSpecIssued {
                ino,
                start_page,
                pages: total,
            };
            inner.trace.emit(clock.now(), issued);
            self.limit_sized_runs(file, &missing, riders);
            return end;
        }

        // Reserve worker occupancy proportional to the syscalls the job
        // will issue.
        let relax = inner.policy.features.relax_limits;
        let cap = self.chunk_cap(relax);
        let call_estimate: u64 = if relax {
            // One syscall per chunk of each missing run — a run longer
            // than the relaxed ceiling still takes several calls.
            missing.iter().map(|&(s, e)| (e - s).div_ceil(cap)).sum()
        } else {
            total.div_ceil(cap)
        };
        let est_ns = call_estimate * costs.syscall_ns;
        let (runtime, file) = (self.clone(), Arc::clone(file));
        let visibility = inner.policy.features.visibility;
        let dispatch = inner.workers.dispatch(clock.now(), est_ns, move |wclock| {
            runtime.issue_prefetch(wclock, &file, &missing, visibility, 0);
        });
        self.note_queue_wait(&dispatch);
        inner.metrics.prefetch_ns.record(dispatch.latency_ns());
        if inner.trace.is_enabled() {
            inner.trace.emit(
                dispatch.enqueue_ns,
                TraceEventKind::PrefetchEnqueued {
                    ino,
                    start_page,
                    pages: total,
                    worker: dispatch.worker,
                },
            );
            inner.trace.emit(
                dispatch.end_ns,
                TraceEventKind::PrefetchCompleted {
                    ino,
                    queue_wait_ns: dispatch.queue_wait_ns(),
                    latency_ns: dispatch.latency_ns(),
                },
            );
        }
        end
    }

    /// Pages one prefetch call may carry: the relaxed ceiling (§4.7's
    /// `max_prefetch_pages`) or the OS readahead window.
    fn chunk_cap(&self, relax: bool) -> u64 {
        if relax {
            self.inner.config.max_prefetch_pages.max(1)
        } else {
            self.inner.os.config().ra_max_pages.max(1)
        }
    }

    /// Splits the missing runs into limit-sized riders — so a ride and the
    /// worker path initiate identical page counts, only the crossing count
    /// differs — appending each to `riders`.
    fn limit_sized_runs(
        &self,
        file: &Arc<LibFile>,
        missing: &[(u64, u64)],
        riders: &mut Vec<Rider>,
    ) {
        let cap = self.chunk_cap(self.inner.policy.features.relax_limits);
        for &(start, end) in missing {
            let mut cursor = start;
            while cursor < end {
                let upto = (cursor + cap).min(end);
                riders.push(Rider {
                    file: Arc::clone(file),
                    start: cursor,
                    end: upto,
                });
                cursor = upto;
            }
        }
    }

    /// A no-op: no planned prefetch is ever staged — a run is issued by a
    /// worker or rides the miss that starts it — so there is nothing to
    /// flush. Kept because the benchmark harness calls it at measurement
    /// boundaries; ROADMAP item 1(e) removes it with that call.
    pub fn flush_prefetch_batches(&self, _clock: &mut ThreadClock) {}

    /// The vectored OS entries of a ring crossing's riders.
    fn rider_entries<'a>(&self, riders: &'a [Rider]) -> Vec<RaBatchEntry<'a>> {
        let cap = self.chunk_cap(self.inner.policy.features.relax_limits);
        riders
            .iter()
            .map(|run| {
                let (offset, len) = (run.start * PAGE_SIZE, (run.end - run.start) * PAGE_SIZE);
                RaBatchEntry::new(&run.file.os_file, offset, len).with_limit_pages(cap)
            })
            .collect()
    }

    /// Per-rider completion handling: initiated-page accounting, the
    /// user-view import, and the transient-failure retry ladder, entered
    /// with one attempt spent — the crossing was each rider's first.
    pub(crate) fn apply_rider_completions(
        &self,
        clock: &mut ThreadClock,
        riders: &[Rider],
        completions: &[RaBatchCompletion],
    ) {
        let costs = &self.inner.os.config().costs;
        for (run, done) in riders.iter().zip(completions) {
            if done.error.is_some() {
                self.reissue_run(clock, run, 1);
                continue;
            }
            self.note_pages_initiated(&run.file, done.initiated_pages);
            run.file
                .tree
                .mark_cached(clock, costs, self.scope(), run.start, run.end);
        }
    }

    /// The tail of a ring crossing on which a rider faulted: the
    /// completions are applied on a worker, off the reader's clock, and
    /// each faulted rider re-issued through `readahead_info`. The job
    /// reserves the worker for one syscall per faulted rider, as the
    /// worker path does per call.
    fn retry_faulted_riders(
        &self,
        clock: &mut ThreadClock,
        riders: Vec<Rider>,
        completions: Vec<RaBatchCompletion>,
    ) {
        let inner = &self.inner;
        let faulted = completions.iter().filter(|d| d.error.is_some()).count() as u64;
        let est_ns = faulted * inner.os.config().costs.syscall_ns;
        let runtime = self.clone();
        let dispatch = inner.workers.dispatch(clock.now(), est_ns, move |wclock| {
            runtime.apply_rider_completions(wclock, &riders, &completions);
        });
        self.note_queue_wait(&dispatch);
        // Measured on the detached worker timeline: attach as an async
        // child, never on the demand read's critical path.
        let (latency_ns, end_ns) = (dispatch.latency_ns(), dispatch.end_ns);
        crate::span::suspended(|| {
            crate::span::record_leaf(SpanKind::RingComplete, latency_ns, end_ns)
        });
    }

    /// Degradation exit for a rejected ring crossing (`Unsupported`
    /// kernel): latch the one-way downgrade and re-issue the riders
    /// through the worker path — now blind — so no planned prefetch is
    /// lost.
    fn ring_degrade(&self, clock: &mut ThreadClock, riders: Vec<Rider>, ino: InodeId) {
        let inner = &self.inner;
        self.latch_degraded(clock.now(), ino);
        // A ride re-issued blind leaves the ring: booked cancelled.
        if !riders.is_empty() {
            inner.stats.ring_spec_cancelled.incr();
        }
        let est_ns = inner.os.config().costs.syscall_ns;
        for run in riders {
            let runtime = self.clone();
            inner.workers.dispatch(clock.now(), est_ns, move |wclock| {
                runtime.reissue_run(wclock, &run, 0);
            });
        }
    }

    /// Sends one rider down the worker path instead, with `spent` attempts
    /// already made on it by its crossing.
    fn reissue_run(&self, clock: &mut ThreadClock, run: &Rider, spent: u32) {
        let range = [(run.start, run.end)];
        self.issue_prefetch(clock, &run.file, &range, true, spent);
    }

    /// Worker half: issues the prefetch syscalls through the fallible OS
    /// surface. A transient device error walks [`Runtime::retry_ladder`]
    /// (`spent` tries already made by the caller); exhaustion abandons the
    /// chunk *unmarked* in the user-level view, so later reads
    /// demand-fetch it. `Unsupported` from `readahead_info` (a stock
    /// kernel) flips the one-way `degraded` latch and re-issues the same
    /// chunk as blind `readahead(2)`.
    fn issue_prefetch(
        &self,
        clock: &mut ThreadClock,
        file: &Arc<LibFile>,
        missing: &[(u64, u64)],
        visibility: bool,
        spent: u32,
    ) {
        let inner = &self.inner;
        let (costs, relax) = (&inner.os.config().costs, inner.policy.features.relax_limits);
        for &(start, end) in missing {
            let mut cursor = start;
            while cursor < end {
                let use_info = visibility && !inner.degraded.load(Ordering::Relaxed);
                // Blind readahead(2) initiates at most one OS window per
                // call, so blind chunks are capped at the window size;
                // only the readahead_info path may carry relaxed chunks.
                let cap = self.chunk_cap(relax && use_info);
                let chunk = (end - cursor).min(cap);
                let (os, offset, len) = (&inner.os, cursor * PAGE_SIZE, chunk * PAGE_SIZE);
                let attempt = |clock: &mut ThreadClock| {
                    let outcome = if use_info {
                        // Import the OS's view: mark both already-cached
                        // and newly initiated pages in the user-level tree.
                        let req = RaInfoRequest::prefetch(offset, len).with_limit_pages(cap);
                        os.try_readahead_info(clock, &file.os_file, req)
                            .map(|info| {
                                self.note_pages_initiated(file, info.initiated_pages);
                                let (scope, upto) = (self.scope(), cursor + chunk);
                                file.tree.mark_cached(clock, costs, scope, cursor, upto);
                            })
                    } else {
                        // Blind prefetching without cache visibility:
                        // plain readahead(2) through the contended tree
                        // path. Counts only pages the OS actually
                        // initiated (cached pages are deduplicated).
                        os.try_readahead(clock, &file.os_file, offset, len)
                            .map(|initiated| self.note_pages_initiated(file, initiated))
                    };
                    match outcome {
                        Ok(()) => Some(true),
                        Err(IoError::Unsupported) if use_info => {
                            self.latch_degraded(clock.now(), file.ino);
                            Some(false)
                        }
                        Err(_) => None,
                    }
                };
                let range = (file.ino, cursor, chunk);
                let retries = &inner.stats.prefetch_retries;
                match self.retry_ladder(clock, range, spent, retries, attempt) {
                    Some(true) => {}
                    // Downgraded: same cursor, recomputed as a blind chunk.
                    Some(false) => continue,
                    None => {
                        inner.stats.prefetch_give_ups.incr();
                        inner.stats.pages_abandoned.add(chunk);
                    }
                }
                cursor += chunk;
            }
        }
    }
}

impl CpFile {
    /// Demand ring crossing: the miss crosses as one vectored `read_batch`
    /// call, under `F`'s fault discipline. A `known_run` predicted at this
    /// miss is planned first; admitted, it rides the crossing and its
    /// completions are returned, for this access's account stage to apply
    /// on the reader's clock after its staleness resync — a resync this
    /// miss triggers must not drop the run CROSS-OS just confirmed — so
    /// the view claims the run before the next access asks. Refused, it
    /// goes back to the engine. A faulted rider retries on a worker; an
    /// `Unsupported` kernel latches degradation, re-issues the riders
    /// blind and falls back to the plain read.
    pub(crate) fn ring_fill<F: FaultMode>(
        &self,
        clock: &mut ThreadClock,
        outstanding: &mut Outstanding,
        offset: u64,
        len: u64,
        known_run: Option<Prediction>,
    ) -> Result<(ReadOutcome, Option<Ridden>), F::Error> {
        let runtime = &self.runtime;
        let mut riders = Vec::new();
        if let Some(pred) = known_run {
            let p0 = offset / PAGE_SIZE;
            let p1 = (offset + len.max(1)).div_ceil(PAGE_SIZE);
            self.paced_prefetch(clock, outstanding, pred, p0, p1, Some(&mut riders));
            if riders.is_empty() {
                self.engine.lock().defer_known_run();
            }
        }
        let entries = runtime.rider_entries(&riders);
        let demand = [ReadBatchEntry::new(&self.os_file, offset, len)];
        let os = &runtime.inner.os;
        match os.read_batch::<F>(clock, &demand, &entries) {
            Ok((mut outcomes, completions)) => {
                let demand = outcomes.pop().unwrap_or(Ok(ReadOutcome::default()));
                if completions.iter().any(|done| done.error.is_some()) {
                    // The ride leaves the ring for a worker and never
                    // becomes pending: the ledger books it cancelled.
                    runtime.inner.stats.ring_spec_cancelled.incr();
                    runtime.retry_faulted_riders(clock, riders, completions);
                    return demand.map(|outcome| (outcome, None));
                }
                let charged = completions.iter().map(|done| done.initiated_pages).sum();
                runtime.inner.stats.ring_spec_pages_charged.add(charged);
                if !riders.is_empty() {
                    outstanding.ride_preissued();
                }
                match demand {
                    Ok(outcome) => Ok((outcome, Some((riders, completions)))),
                    Err(err) => {
                        // No account stage follows a failed demand read.
                        runtime.apply_rider_completions(clock, &riders, &completions);
                        Err(err)
                    }
                }
            }
            Err(_) => {
                runtime.ring_degrade(clock, riders, self.file.ino);
                let plain = os.read_charge_as::<F>(clock, &self.os_file, offset, len);
                plain.map(|outcome| (outcome, None))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tenant::{QosClass, TenantSpec, TenantsConfig};
    use crate::{Mode, RuntimeConfig};
    use simos::{Device, DeviceConfig, FileSystem, FsKind, Os, OsConfig};

    /// A `mode` runtime with `workers` workers on a booted OS with `mb`
    /// MiB of page cache, with a gold and a bronze tenant when `tenants`.
    fn boot(mb: u64, mode: Mode, workers: usize, tenants: bool) -> Runtime {
        let os = Os::new(
            OsConfig::with_memory_mb(mb),
            Device::new(DeviceConfig::local_nvme()),
            FileSystem::new(FsKind::Ext4Like),
        );
        let mut config = RuntimeConfig::new(mode);
        config.workers = workers;
        config.tenants = tenants.then(|| {
            TenantsConfig::new(vec![
                TenantSpec::new("gold", QosClass::Gold),
                TenantSpec::new("bronze", QosClass::Bronze),
            ])
        });
        Runtime::new(os, config)
    }

    /// The retry of a faulted rider re-issues it through `readahead_info`,
    /// so its job holds the worker for that syscall as the worker path
    /// does: with one worker, a job dispatched at the same instant queues
    /// behind it for at least `syscall_ns`.
    #[test]
    fn a_faulted_rider_retry_reserves_its_syscall_on_the_worker() {
        let runtime = boot(64, Mode::Predict, 1, false);
        let mut clock = runtime.new_clock();
        let file = runtime.create_sized(&mut clock, "/f", 1 << 20).unwrap();
        let rider = Rider {
            file: Arc::clone(&file.file),
            start: 0,
            end: 12,
        };
        let faulted = RaBatchCompletion {
            error: Some(IoError::Io),
            ..RaBatchCompletion::default()
        };
        let now = clock.now();
        runtime.retry_faulted_riders(&mut clock, vec![rider], vec![faulted]);
        let next = runtime.workers().dispatch(now, 0, |_| {});
        let syscall_ns = runtime.os().config().costs.syscall_ns;
        assert!(
            next.queue_wait_ns() >= syscall_ns,
            "queued {} ns behind the retry",
            next.queue_wait_ns()
        );
        assert_eq!(runtime.stats().prefetch_retries.get(), 1);
    }

    /// With dirty data holding more than 95 % of the budget, every request
    /// is refused, billing nothing; FetchAll is exempt.
    #[test]
    fn plan_refuses_under_the_prefetch_floor_except_fetchall() {
        for (mode, refused) in [(Mode::Predict, true), (Mode::FetchAllOpt, false)] {
            let runtime = boot(4, mode, 1, false);
            let mut clock = runtime.new_clock();
            let file = runtime
                .create_sized(&mut clock, "/f", 16 * PAGE_SIZE)
                .unwrap();
            let os = runtime.os();
            let dirty = os.create_sized(&mut clock, "/dirty", 0).unwrap();
            os.write_charge(&mut clock, dirty, 0, 1000 * PAGE_SIZE);
            assert!(runtime.available_fraction() < PREFETCH_FLOOR, "{mode:?}");
            let plan = runtime.plan(&mut clock, &file.file, 0, 8, false);
            assert_eq!(plan.submit == Submit::Refuse, refused, "{mode:?}");
            assert_eq!(plan.end, if refused { 0 } else { 8 }, "{mode:?}");
            assert!(plan.bill.is_none());
        }
    }

    /// One request claims at most half the free pages, but never less
    /// than a 32nd of the budget (a cache full of clean pages is
    /// reclaimable); FetchAll is exempt.
    #[test]
    fn plan_clamps_to_the_memory_headroom_except_fetchall() {
        let runtime = boot(4, Mode::Predict, 1, false);
        let mut clock = runtime.new_clock();
        let mem = runtime.os().mem();
        let budget = mem.budget();
        let file = runtime
            .create_sized(&mut clock, "/f", 4 * budget * PAGE_SIZE)
            .unwrap();
        let half_free = mem.free_pages() / 2;
        let plan = runtime.plan(&mut clock, &file.file, 0, budget, false);
        assert_eq!((plan.end, plan.submit), (half_free, Submit::Worker));
        assert_eq!(plan.missing, vec![(0, half_free)]);
        mem.note_inserted(mem.free_pages()); // a cache full of clean pages
        let plan = runtime.plan(&mut clock, &file.file, 100, budget, false);
        assert_eq!(plan.end - plan.from, budget / 32);

        let runtime = boot(4, Mode::FetchAllOpt, 1, false);
        let mem = runtime.os().mem();
        let file = runtime
            .create_sized(&mut clock, "/f", 4 * budget * PAGE_SIZE)
            .unwrap();
        mem.note_inserted(mem.free_pages());
        let plan = runtime.plan(&mut clock, &file.file, 100, budget, false);
        assert_eq!(plan.end - plan.from, budget);
    }

    /// A bronze file on a 64 MiB cache whose tenant wasted every page it
    /// ever prefetched, and a clock.
    fn wasteful_tenant() -> (Runtime, ThreadClock, crate::CpFile) {
        let runtime = boot(64, Mode::Predict, 1, true);
        let mut clock = runtime.new_clock();
        let bronze = crate::TenantId(1);
        let file = runtime
            .create_sized_for_tenant(&mut clock, "/b", 64 << 20, bronze)
            .unwrap();
        let os = runtime.os();
        let head = 64 * PAGE_SIZE;
        let initiated = os
            .try_readahead(&mut clock, &file.os_file, 0, head)
            .unwrap();
        runtime.note_pages_initiated(&file.file, initiated);
        os.drop_caches(&mut clock);
        let wasted = runtime.tenants().unwrap().tenant_quality(bronze).wasted;
        assert_eq!(wasted, initiated);
        (runtime, clock, file)
    }

    /// Plans and applies `want` pages at `from` for the bronze tenant,
    /// checking that the plan alone bills nothing and the apply bills
    /// exactly the span the plan admitted. Returns the span and the
    /// submission.
    fn plan_and_apply(
        runtime: &Runtime,
        clock: &mut ThreadClock,
        file: &Arc<LibFile>,
        (from, want): (u64, u64),
        riders: Option<&mut Vec<Rider>>,
    ) -> (u64, Submit) {
        let admitted = || runtime.tenants().unwrap().reports()[1].admitted_pages;
        let before = admitted();
        let plan = runtime.plan(clock, file, from, want, riders.is_some());
        assert_eq!(admitted(), before, "a plan alone bills nothing");
        assert_eq!(plan.bill, Some(1));
        let (span, submit) = (plan.end - plan.from, plan.submit);
        runtime.apply(clock, file, plan, riders);
        assert_eq!(admitted() - before, span);
        (span, submit)
    }

    /// A tenant, however wasteful, is billed exactly the span each plan
    /// admitted: a whole request, a request the memory headroom clamps,
    /// and a span the view already holds (skipped, but admitted). Nothing
    /// is ever counted degraded or denied.
    #[test]
    fn the_charge_bills_the_admitted_span() {
        let (runtime, mut clock, file) = wasteful_tenant();
        let file = &file.file;
        let whole = plan_and_apply(&runtime, &mut clock, file, (0, 256), None);
        assert_eq!(whole, (256, Submit::Worker));
        let headroom = runtime.headroom_pages().unwrap();
        let clamped = plan_and_apply(&runtime, &mut clock, file, (1024, 1 << 20), None);
        assert_eq!(clamped, (headroom, Submit::Worker));
        let skipped = plan_and_apply(&runtime, &mut clock, file, (0, 256), None);
        assert_eq!(skipped, (256, Submit::Skip));
        let row = &runtime.tenants().unwrap().reports()[1];
        let degraded = (row.degraded_coalesced, row.degraded_blind, row.denied_pages);
        assert_eq!(degraded, (0, 0, 0));
    }

    /// A known run rides however wasteful its tenant, billed its span like
    /// any prefetch.
    #[test]
    fn a_ride_is_billed_its_span_like_any_prefetch() {
        let (runtime, mut clock, file) = wasteful_tenant();
        let file = &file.file;
        for from in [0, 4096] {
            let mut riders = Vec::new();
            let ride = plan_and_apply(&runtime, &mut clock, file, (from, 256), Some(&mut riders));
            assert_eq!(ride, (256, Submit::Ride));
            assert_eq!(riders.iter().map(|r| r.end - r.start).sum::<u64>(), 256);
        }
    }

    /// Reclaim can evict a run behind the user-level view, which keeps
    /// claiming it until the account stage resyncs. A ride is deduped by
    /// CROSS-OS, not by that view: the stale claim does not veto it, and
    /// the crossing initiates every dropped page.
    #[test]
    fn a_stale_view_does_not_veto_a_ride() {
        let runtime = boot(64, Mode::Predict, 1, false);
        let mut clock = runtime.new_clock();
        let file = runtime.create_sized(&mut clock, "/f", 1 << 20).unwrap();
        let (os, costs) = (runtime.os(), &runtime.os().config().costs);
        let (from, want) = (128, 32);
        let (offset, len) = (from * PAGE_SIZE, want * PAGE_SIZE);
        let fetched = os
            .try_readahead(&mut clock, &file.os_file, offset, len)
            .unwrap();
        assert_eq!(fetched, want);
        let (scope, end) = (runtime.scope(), from + want);
        file.file
            .tree
            .mark_cached(&mut clock, costs, scope, from, end);
        let dropped = os.fadvise(
            &mut clock,
            &file.os_file,
            simos::Advice::DontNeed,
            offset,
            len,
        );
        assert_eq!(dropped, want);
        assert_eq!(os.fincore(&mut clock, &file.os_file), 0);
        let claimed = file
            .file
            .tree
            .cached_in(&mut clock, costs, scope, from, end);
        assert_eq!(claimed, want, "the view still claims the run");

        let plan = runtime.plan(&mut clock, &file.file, from, want, true);
        assert_eq!(plan.submit, Submit::Ride);
        assert_eq!(plan.missing, vec![(from, end)]);
        let mut riders = Vec::new();
        runtime.apply(&mut clock, &file.file, plan, Some(&mut riders));
        let entries = runtime.rider_entries(&riders);
        let demand = [ReadBatchEntry::new(&file.os_file, 0, PAGE_SIZE)];
        let (_, completions) = os
            .read_batch::<simos::NeverFault>(&mut clock, &demand, &entries)
            .unwrap();
        runtime.apply_rider_completions(&mut clock, &riders, &completions);
        let initiated: u64 = completions.iter().map(|done| done.initiated_pages).sum();
        assert_eq!(initiated, want);
        assert_eq!(runtime.stats().pages_initiated.get(), want);
    }

    /// ❌, checked (ROADMAP item 33): without relaxed limits a worker
    /// window reserves `total.div_ceil(ra_max_pages)` syscalls, the ceiling
    /// of the sum, while `issue_prefetch` makes one `readahead_info` call
    /// per OS window of *each* missing run. Ten 3-page runs left by the
    /// visibility lookup reserve one `syscall_ns` on the worker and issue
    /// ten calls. Pinned as it stands, so the fix (the sum of the
    /// ceilings, as the relaxed branch reserves) flips it visibly.
    #[test]
    fn a_worker_window_reserves_one_syscall_for_ten_runs() {
        let runtime = boot(64, Mode::Predict, 1, false);
        let mut clock = runtime.new_clock();
        let file = runtime.create_sized(&mut clock, "/f", 1 << 20).unwrap();
        let (os, costs) = (runtime.os(), &runtime.os().config().costs);
        for run in 0..10 {
            let gap = 6 * run + 3;
            file.file
                .tree
                .mark_cached(&mut clock, costs, runtime.scope(), gap, gap + 3);
        }
        let plan = runtime.plan(&mut clock, &file.file, 0, 60, false);
        assert_eq!(plan.submit, Submit::Worker);
        assert_eq!(plan.missing.len(), 10);
        assert!(plan.missing.iter().all(|&(s, e)| e - s == 3));
        let calls = os.stats().ra_info_calls.get();
        runtime.apply(&mut clock, &file.file, plan, None);
        assert_eq!(os.stats().ra_info_calls.get() - calls, 10);
        let next = runtime.workers().dispatch(clock.now(), 0, |_| {});
        let syscall_ns = costs.syscall_ns;
        let waited = next.queue_wait_ns();
        assert!(
            (syscall_ns..2 * syscall_ns).contains(&waited),
            "queued {waited} ns behind ten calls: one syscall reserved"
        );
    }
}
