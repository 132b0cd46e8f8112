//! The staged read pipeline — CROSS-LIB's hot path, decomposed.
//!
//! Every intercepted access runs the same fixed sequence of named
//! stages, threaded through one [`ReadCtx`]:
//!
//! ```text
//! classify ─▶ predict ─▶ prefetch-plan ─▶ cache-probe ─▶ demand-fill ─▶ account
//!     │                                                      │
//!     └────────────── (passthrough route) ────────────▶ demand-fill ─▶ account
//! ```
//!
//! Stage order is semantic, not incidental: prediction and prefetch
//! planning run *before* the demand fill so the prefetch stream overlaps
//! the blocking I/O instead of trailing it, and the cache probe runs
//! before the fill so staleness (view said cached, OS missed) is
//! observable afterwards in the account stage.
//!
//! Each stage boundary records its virtual-time cost into the per-stage
//! histograms ([`crate::metrics::PipelineStage`]) — the attach points for
//! latency accounting and tracing.
//!
//! Fallibility is a type parameter, not a runtime flag: the demand fill
//! is generic over [`FillMode`], whose infallible instantiation has an
//! uninhabited error type. Both public entry points share one pipeline
//! implementation, and the infallible one discharges the `Result`
//! statically (`match err {}`) — there is no dynamic "this cannot fail"
//! assertion anywhere on the path.

use std::sync::atomic::Ordering;

use predict::{AccessPattern, Direction, Prediction, PredictionEngine, PrefetchDecision};
use simclock::ThreadClock;
use simos::{IoError, Os, RaBatchCompletion, RaBatchEntry, ReadBatchEntry, ReadOutcome, PAGE_SIZE};

use crate::metrics::{PipelineStage, ReadClass};
use crate::policy::PostReadHook;
use crate::runtime::{BatchedRun, CpFile};
use crate::trace::{LookupOutcome, TraceEventKind};

/// Reads between whole-file refetch rounds in FetchAll mode.
const FETCHALL_REFRESH_READS: u64 = 256;

/// Unexpected-miss pages tolerated before the user-level cache view is
/// discarded and re-imported from the OS.
const STALE_RESYNC_PAGES: u64 = 128;

/// Reads between fincore polls in FincoreApp mode.
const FINCORE_POLL_INTERVAL: u64 = 32;

/// One ring crossing's result: the demand read's own outcome and the
/// completions of the prefetch entries that rode along.
pub(crate) type RingCrossing<E> = (Result<ReadOutcome, E>, Vec<RaBatchCompletion>);

/// How the demand-fill stage performs its OS read.
///
/// The fallible instantiation consults the device fault plan and can
/// surface `EIO`; the infallible one uses the non-faulting OS surface
/// and its error type is uninhabited, so `Result<_, Self::Error>`
/// collapses at compile time.
pub(crate) trait FillMode {
    /// Error the fill can produce ([`std::convert::Infallible`] for the
    /// non-faulting surface).
    type Error;

    /// Charges the demand read against the OS.
    fn fill(
        file: &CpFile,
        clock: &mut ThreadClock,
        offset: u64,
        len: u64,
    ) -> Result<ReadOutcome, Self::Error>;

    /// Submits one demand read plus staged prefetch entries as a single
    /// vectored ring crossing ([`CpFile::ring_fill`] drives it). The outer
    /// error is the kernel rejecting the crossing outright.
    fn ring_cross(
        os: &Os,
        clock: &mut ThreadClock,
        demand: ReadBatchEntry,
        staged: &[RaBatchEntry],
    ) -> Result<RingCrossing<Self::Error>, IoError>;

    /// Charges a write; the read-modify-write head/tail demand reads use
    /// the same fault surface as `fill`.
    fn write_fill(
        file: &CpFile,
        clock: &mut ThreadClock,
        offset: u64,
        len: u64,
    ) -> Result<u64, Self::Error>;
}

/// Fill through the non-faulting OS surface; cannot fail.
pub(crate) struct NeverFails;

impl FillMode for NeverFails {
    type Error = std::convert::Infallible;

    fn fill(
        file: &CpFile,
        clock: &mut ThreadClock,
        offset: u64,
        len: u64,
    ) -> Result<ReadOutcome, Self::Error> {
        Ok(file
            .runtime
            .inner
            .os
            .read_charge(clock, file.fd, offset, len))
    }

    fn ring_cross(
        os: &Os,
        clock: &mut ThreadClock,
        demand: ReadBatchEntry,
        staged: &[RaBatchEntry],
    ) -> Result<RingCrossing<Self::Error>, IoError> {
        let (mut outcomes, completions) = os.read_batch(clock, &[demand], staged)?;
        Ok((Ok(outcomes.pop().unwrap_or_default()), completions))
    }

    fn write_fill(
        file: &CpFile,
        clock: &mut ThreadClock,
        offset: u64,
        len: u64,
    ) -> Result<u64, Self::Error> {
        Ok(file
            .runtime
            .inner
            .os
            .write_charge(clock, file.fd, offset, len))
    }
}

/// Fill through the fallible OS surface; injected faults surface.
pub(crate) struct MayFail;

impl FillMode for MayFail {
    type Error = IoError;

    fn fill(
        file: &CpFile,
        clock: &mut ThreadClock,
        offset: u64,
        len: u64,
    ) -> Result<ReadOutcome, Self::Error> {
        file.runtime
            .inner
            .os
            .try_read_charge(clock, file.fd, offset, len)
    }

    fn ring_cross(
        os: &Os,
        clock: &mut ThreadClock,
        demand: ReadBatchEntry,
        staged: &[RaBatchEntry],
    ) -> Result<RingCrossing<Self::Error>, IoError> {
        let (mut outcomes, completions) = os.try_read_batch(clock, &[demand], staged)?;
        Ok((
            outcomes.pop().unwrap_or(Ok(ReadOutcome::default())),
            completions,
        ))
    }

    fn write_fill(
        file: &CpFile,
        clock: &mut ThreadClock,
        offset: u64,
        len: u64,
    ) -> Result<u64, Self::Error> {
        file.runtime
            .inner
            .os
            .try_write_charge(clock, file.fd, offset, len)
    }
}

/// Per-access pipeline state, built by the classify stage and threaded
/// through every later stage.
pub(crate) struct ReadCtx {
    /// Byte offset of the access.
    offset: u64,
    /// Byte length of the access.
    len: u64,
    /// Whether this is a write (writes skip read-only stages' bodies but
    /// still traverse the pipeline for uniform accounting).
    is_write: bool,
    /// First page of the access.
    p0: u64,
    /// One past the last page of the access.
    p1: u64,
    /// Pages spanned (`p1 - p0`).
    pages: u64,
    /// Virtual time at pipeline entry (end-to-end latency base).
    entry_ns: u64,
    /// Snapshot of `TraceLog::is_enabled` — one relaxed load per access;
    /// every emit site downstream is gated on this bool.
    tracing: bool,
    /// Whether this access carries an open span frame — set when the
    /// span collector is enabled (one relaxed load, the whole cost while
    /// disabled) and this thread opened a frame for a non-write access.
    spans: bool,
    /// Pages of the span the user-level view claimed cached (set by the
    /// cache-probe stage, consumed by the account stage's staleness
    /// check).
    claimed: u64,
    /// Engine output (set by the predict stage, consumed by the
    /// prefetch-plan stage): the strided prediction, any mined
    /// correlation runs, and mining/duel bookkeeping.
    decision: PrefetchDecision,
    /// The known run this access starts (set by the prefetch-plan stage
    /// when the ring is on), waiting for the demand-fill stage: it rides
    /// the miss's ring crossing, or is handed back to the engine when the
    /// access turns out to need no crossing.
    known_run: Option<Prediction>,
    /// Virtual time the current stage started (stage-latency base).
    stage_start_ns: u64,
}

impl ReadCtx {
    /// Closes the current stage: records its virtual-time cost and starts
    /// timing the next one.
    fn close_stage(&mut self, file: &CpFile, stage: PipelineStage, now: u64) {
        let metrics = &file.runtime.inner.metrics;
        metrics
            .stage_hist(stage)
            .record(now.saturating_sub(self.stage_start_ns));
        self.stage_start_ns = now;
        if self.spans {
            crate::span::close_stage(stage, now);
        }
    }
}

impl CpFile {
    /// Infallible pipeline entry point: reads (or writes, when `is_write`)
    /// through the non-faulting OS surface. Returns the outcome and the
    /// pages spanned (0 on the passthrough route, matching the historic
    /// contract).
    pub(crate) fn pipeline_read(
        &self,
        clock: &mut ThreadClock,
        offset: u64,
        len: u64,
        is_write: bool,
    ) -> (ReadOutcome, u64) {
        match self.run_pipeline::<NeverFails>(clock, offset, len, is_write) {
            Ok(result) => result,
            // Uninhabited: NeverFails::Error is Infallible, so this arm
            // is dead code the compiler can prove — no runtime assertion.
            Err(err) => match err {},
        }
    }

    /// Fallible pipeline entry point (reads only): the demand fill goes
    /// through the fallible OS surface, so an injected transient device
    /// error surfaces to the workload instead of being absorbed.
    ///
    /// # Errors
    ///
    /// Returns [`IoError::Io`] when the device fault plan injects an EIO
    /// into a demand-class read.
    pub(crate) fn pipeline_try_read(
        &self,
        clock: &mut ThreadClock,
        offset: u64,
        len: u64,
    ) -> Result<(ReadOutcome, u64), IoError> {
        self.run_pipeline::<MayFail>(clock, offset, len, false)
    }

    /// Fallible pipeline entry point for writes: the read-modify-write
    /// head/tail demand reads go through the fallible OS surface. On a
    /// surfaced fault nothing is dirtied; a retry redoes the whole write.
    ///
    /// # Errors
    ///
    /// Returns [`IoError::Io`] when the device fault plan injects an EIO
    /// into the RMW demand reads.
    pub(crate) fn pipeline_try_write(
        &self,
        clock: &mut ThreadClock,
        offset: u64,
        len: u64,
    ) -> Result<(ReadOutcome, u64), IoError> {
        self.run_pipeline::<MayFail>(clock, offset, len, true)
    }

    /// The shared pipeline body. Exactly one of the two routes runs:
    /// passthrough (no CROSS-LIB machinery) or the full staged sequence.
    fn run_pipeline<F: FillMode>(
        &self,
        clock: &mut ThreadClock,
        offset: u64,
        len: u64,
        is_write: bool,
    ) -> Result<(ReadOutcome, u64), F::Error> {
        let mut ctx = self.stage_classify(clock, offset, len, is_write);

        if !self.runtime.inner.policy.intercept {
            let outcome = self.stage_demand_fill::<F>(clock, &mut ctx)?;
            self.stage_account_passthrough(clock, &mut ctx, &outcome);
            return Ok((outcome, 0));
        }

        self.stage_predict(clock, &mut ctx);
        self.stage_prefetch_plan(clock, &mut ctx);
        self.stage_cache_probe(clock, &mut ctx);
        let outcome = self.stage_demand_fill::<F>(clock, &mut ctx)?;
        self.stage_account(clock, &mut ctx, &outcome);
        let pages = ctx.pages;
        Ok((outcome, pages))
    }

    /// Stage 1 — classify: entry bookkeeping. Counts the access, does the
    /// page math, snapshots the tracing flag. Routing (passthrough vs
    /// intercepted) is decided by the caller from the policy table.
    fn stage_classify(
        &self,
        clock: &mut ThreadClock,
        offset: u64,
        len: u64,
        is_write: bool,
    ) -> ReadCtx {
        let inner = &self.runtime.inner;
        let entry_ns = clock.now();
        // One relaxed load; every emit site below is gated on this bool,
        // so disabled tracing costs exactly this on the read path.
        let tracing = inner.trace.is_enabled();
        if is_write {
            inner.stats.writes.incr();
        } else {
            inner.stats.reads.incr();
        }
        let p0 = offset / PAGE_SIZE;
        let p1 = (offset + len.max(1)).div_ceil(PAGE_SIZE);
        // Same contract as tracing: one relaxed load while disabled. A
        // frame only opens for reads (writes traverse untraced), and only
        // if this thread has no frame in flight already.
        let spans = !is_write
            && inner.spans.is_enabled()
            && crate::span::begin(
                inner.spans.next_req_id(),
                self.file.ino.0,
                p0,
                p1 - p0,
                entry_ns,
                self.runtime.registry_wait_now(),
            );
        let mut ctx = ReadCtx {
            offset,
            len,
            is_write,
            p0,
            p1,
            pages: p1 - p0,
            entry_ns,
            tracing,
            spans,
            claimed: 0,
            decision: PrefetchDecision::default(),
            known_run: None,
            stage_start_ns: entry_ns,
        };
        ctx.close_stage(self, PipelineStage::Classify, clock.now());
        ctx
    }

    /// Stage 2 — predict: one engine step per intercepted access (cheap,
    /// §4.6's per-descriptor pattern classification, generalised to the
    /// pluggable engines), plus the pattern-flip trace event. The strided
    /// engine's step is one clock advance and one `on_access`, nothing
    /// else.
    fn stage_predict(&self, clock: &mut ThreadClock, ctx: &mut ReadCtx) {
        let runtime = &self.runtime;
        let inner = &runtime.inner;
        if inner.policy.features.predict {
            clock.advance(inner.os.config().costs.predictor_step_ns);
            ctx.decision = self.observe(clock, ctx.p0, ctx.pages);
        }
        if ctx.tracing {
            if let Some(pred) = &ctx.decision.prediction {
                let index = pred.pattern.index();
                let prev = self.last_pattern.swap(index, Ordering::Relaxed);
                if prev != index {
                    inner.trace.emit(
                        clock.now(),
                        TraceEventKind::PredictorFlip {
                            ino: self.file.ino,
                            from: AccessPattern::from_index(prev),
                            to: pred.pattern,
                        },
                    );
                }
            }
        }
        ctx.close_stage(self, PipelineStage::Predict, clock.now());
    }

    /// Stage 3 — prefetch-plan: issue the consumption-paced prefetch for
    /// the prediction *before* performing the I/O — the shim intercepts
    /// at syscall entry, so the prefetch stream overlaps the demand fill
    /// instead of trailing it.
    fn stage_prefetch_plan(&self, clock: &mut ThreadClock, ctx: &mut ReadCtx) {
        let inner = &self.runtime.inner;
        // Cross-tier promotion: a high-confidence forward stream's
        // predicted window doubles as a placement hint — copy it
        // remote→local in the background (planner-deduped, worker-pool
        // issued) so the demand reads that follow land on the fast tier.
        if inner.planner.is_some() && !ctx.is_write {
            self.maybe_promote(clock, ctx);
        }
        let decision = std::mem::take(&mut ctx.decision);
        let crosses = inner.policy.ring && !ctx.is_write && !inner.degraded.load(Ordering::Relaxed);
        ctx.known_run = self.apply_decision(clock, decision, ctx.p0, ctx.p1, crosses);
        // Batched submission: expired batches ride the next intercepted
        // read. One relaxed load when nothing is due (or batching is off).
        self.runtime.flush_due_batches(clock);
        ctx.close_stage(self, PipelineStage::PrefetchPlan, clock.now());
    }

    /// Promotion candidate selection (tiering on only): the access plus
    /// the engine's predicted window, handed to the planner for
    /// confidence gating, frontier dedup, and clamping. Only forward
    /// streams promote — the planner's frontier is monotone, matching
    /// the placement map's word-granular advance.
    fn maybe_promote(&self, clock: &mut ThreadClock, ctx: &ReadCtx) {
        let inner = &self.runtime.inner;
        let Some(planner) = &inner.planner else {
            return;
        };
        let Some(pred) = &ctx.decision.prediction else {
            return;
        };
        if pred.prefetch_pages == 0 || !matches!(pred.direction, Direction::Forward) {
            return;
        }
        let file_pages = inner.os.fs().size(self.file.ino).div_ceil(PAGE_SIZE);
        let end = (ctx.p1 + pred.prefetch_pages).min(file_pages);
        if end <= ctx.p0 {
            return;
        }
        // The accessed pages themselves are the hottest evidence, so the
        // candidate starts at the access, not past it; the frontier trims
        // anything already requested.
        if let Some((from, want)) = planner.plan(
            self.file.ino.0,
            ctx.p0,
            end - ctx.p0,
            ctx.decision.confidence,
        ) {
            self.runtime
                .dispatch_promotion(clock, &self.file, from, want);
        }
    }

    /// Stage 4 — cache-probe: how much of this range the user-level view
    /// believes is cached — read before the I/O so staleness is
    /// observable afterwards (account stage).
    fn stage_cache_probe(&self, clock: &mut ThreadClock, ctx: &mut ReadCtx) {
        let runtime = &self.runtime;
        let inner = &runtime.inner;
        let probes = inner.policy.features.visibility && !ctx.is_write;
        if probes {
            let costs = &inner.os.config().costs;
            ctx.claimed = self
                .file
                .tree
                .cached_in(clock, costs, runtime.scope(), ctx.p0, ctx.p1);
        }
        if ctx.tracing && probes {
            let outcome = if ctx.claimed == ctx.pages {
                LookupOutcome::Hit
            } else if ctx.claimed == 0 {
                LookupOutcome::Miss
            } else {
                LookupOutcome::Partial
            };
            inner.trace.emit(
                clock.now(),
                TraceEventKind::TreeLookup {
                    ino: self.file.ino,
                    start_page: ctx.p0,
                    pages: ctx.pages,
                    outcome,
                },
            );
        }
        ctx.close_stage(self, PipelineStage::CacheProbe, clock.now());
    }

    /// Stage 5 — demand-fill: the access itself. Writes charge the write
    /// path; reads go through `F`'s OS surface. On a surfaced fault the
    /// pipeline stops here: pages the fill completed stay cached OS-side
    /// and the user-level view is left unmarked, so a retry re-checks
    /// honestly and reads only what is still missing.
    fn stage_demand_fill<F: FillMode>(
        &self,
        clock: &mut ThreadClock,
        ctx: &mut ReadCtx,
    ) -> Result<ReadOutcome, F::Error> {
        let inner = &self.runtime.inner;
        let filled = if ctx.is_write {
            F::write_fill(self, clock, ctx.offset, ctx.len).map(|written| ReadOutcome {
                bytes: written,
                ..ReadOutcome::default()
            })
        } else {
            let ring = inner.policy.ring && !inner.degraded.load(Ordering::Relaxed);
            let mut absorbed = None;
            // Fully-claimed ranges absorb through the shared bitmap — the
            // ring's zero-crossing completion for cache hits and for the
            // continuations of a pre-issued run. The OS declines (and we
            // fall through to the crossing) when its authoritative view
            // disagrees with the claim or a demand fetch would beat
            // waiting on in-flight prefetch.
            if ring && ctx.pages > 0 && ctx.claimed == ctx.pages {
                absorbed = inner.os.absorb_read(clock, self.fd, ctx.offset, ctx.len);
                if absorbed.is_some() && self.take_preissued() {
                    inner.stats.ring_spec_absorbed.incr();
                }
            }
            let known_run = ctx.known_run.take();
            match absorbed {
                // Everything else crosses — as a vectored ring submission
                // that carries a known run and piggybacks staged prefetch
                // runs when the ring is on, or the plain read syscall when
                // it is off.
                None if ring => self.ring_fill::<F>(clock, ctx.offset, ctx.len, known_run),
                no_crossing => {
                    // A jump that hit the cache: waiting out the whole
                    // remainder as background prefetch would cost the next
                    // read more than its own miss does.
                    if known_run.is_some() {
                        self.engine.lock().defer_known_run();
                    }
                    no_crossing.map_or_else(|| F::fill(self, clock, ctx.offset, ctx.len), Ok)
                }
            }
        };
        let outcome = match filled {
            Ok(outcome) => outcome,
            Err(err) => {
                if inner.policy.intercept {
                    self.file
                        .last_access_ns
                        .store(clock.now(), Ordering::Relaxed);
                }
                return Err(self.note_read_error(clock, err, ctx));
            }
        };
        ctx.close_stage(self, PipelineStage::DemandFill, clock.now());
        Ok(outcome)
    }

    /// Stage 6 (passthrough route) — account: exit latency histogram and
    /// trace only; no CROSS-LIB state to maintain.
    fn stage_account_passthrough(
        &self,
        clock: &mut ThreadClock,
        ctx: &mut ReadCtx,
        outcome: &ReadOutcome,
    ) {
        self.finish_io(clock, outcome, ctx);
        ctx.close_stage(self, PipelineStage::Account, clock.now());
    }

    /// Stage 6 — account: post-I/O state maintenance — staleness
    /// evidence, pacing-frontier reset, user-level view update — then the
    /// policy's post-read hooks in table order, then the exit histogram
    /// and trace.
    fn stage_account(&self, clock: &mut ThreadClock, ctx: &mut ReadCtx, outcome: &ReadOutcome) {
        let runtime = &self.runtime;
        let inner = &runtime.inner;
        let costs = &inner.os.config().costs;

        // Staleness detection: more misses than the view predicted means
        // the OS evicted pages behind our back. Accumulate evidence and
        // resynchronize by dropping the view — subsequent prefetch checks
        // fall through to the cheap `readahead_info` fast path, which
        // re-imports the authoritative bitmap.
        if inner.policy.features.visibility && !ctx.is_write {
            let expected_miss = ctx.pages - ctx.claimed;
            if outcome.miss_pages > expected_miss {
                let unexpected = outcome.miss_pages - expected_miss;
                inner.stats.stale_pages_observed.add(unexpected);
                let total = self
                    .file
                    .stale_pages
                    .fetch_add(unexpected, Ordering::Relaxed)
                    + unexpected;
                if total >= STALE_RESYNC_PAGES {
                    inner.stats.stale_resyncs.incr();
                    self.file.stale_pages.store(0, Ordering::Relaxed);
                    self.file.tree.clear(clock, costs, runtime.scope());
                }
            }
        }

        // A miss inside the frontier-claimed region means the claim is
        // stale (evicted or never actually covered): reset the pacing
        // frontier so prefetching re-engages from here.
        if outcome.miss_pages > 0 {
            if ctx.p1 <= self.fwd_frontier.load(Ordering::Relaxed) {
                self.fwd_frontier.store(ctx.p1, Ordering::Relaxed);
            }
            if ctx.p0 >= self.back_frontier.load(Ordering::Relaxed) {
                self.back_frontier.store(ctx.p0, Ordering::Relaxed);
            }
        }

        // Update the user-level view: the pages this access covered are
        // now cached. A read covers what the OS delivered after clamping
        // to the file (nothing for an empty or past-EOF read); a write's
        // outcome carries bytes only, so it covers its whole span.
        let covered = if ctx.is_write {
            ctx.pages
        } else {
            outcome.pages
        };
        if inner.policy.features.visibility && covered > 0 {
            self.file
                .tree
                .mark_cached(clock, costs, runtime.scope(), ctx.p0, ctx.p0 + covered);
        }
        self.file
            .last_access_ns
            .store(clock.now(), Ordering::Relaxed);

        for hook in &inner.policy.post_read {
            match hook {
                PostReadHook::FetchAllMonitor => self.hook_fetchall_monitor(clock, ctx),
                PostReadHook::FincorePoll => self.hook_fincore_poll(clock, ctx),
                PostReadHook::MemoryWatcher => runtime.maybe_evict(clock, self.file.ino),
            }
        }

        // Engines that learn from what their predictions were worth see
        // whether this read needed the device, and the per-file
        // timely/late/wasted delta (gated off for the strided engine, no
        // virtual time charged either way).
        if self.engine_feedback && !ctx.is_write {
            let needed_io = outcome.miss_pages + outcome.prefetch_hit_pages > 0;
            self.engine.lock().outcome(needed_io);
            self.maybe_feed_quality();
        }

        self.finish_io(clock, outcome, ctx);
        ctx.close_stage(self, PipelineStage::Account, clock.now());
    }

    /// FetchAll monitoring hook: periodically re-prefetch missing blocks,
    /// walking the file circularly. The policy assumes data fits in
    /// memory (Table 2); when it does not, rounds are capped and backed
    /// off so the refetch churn degrades toward the baselines rather
    /// than collapsing below them (Figure 7c's low-memory shape).
    fn hook_fetchall_monitor(&self, clock: &mut ThreadClock, ctx: &ReadCtx) {
        if ctx.is_write {
            return;
        }
        let runtime = &self.runtime;
        let inner = &runtime.inner;
        let n = self
            .file
            .reads_since_refetch
            .fetch_add(1, Ordering::Relaxed)
            + 1;
        let file_pages = inner.os.fs().size(self.file.ino).div_ceil(PAGE_SIZE);
        let budget = inner.os.mem().budget();
        let over_memory = file_pages > budget;
        let interval = if over_memory {
            FETCHALL_REFRESH_READS * 16
        } else {
            FETCHALL_REFRESH_READS
        };
        if n.is_multiple_of(interval) && file_pages > 0 {
            let round = if over_memory {
                (budget / 4).max(1)
            } else {
                file_pages
            };
            let start = self.file.refetch_cursor.load(Ordering::Relaxed) % file_pages;
            let reached = runtime.prefetch_pages(
                clock,
                &self.file,
                start,
                round.min(file_pages - start),
                false,
                None,
            );
            self.file.refetch_cursor.store(
                if reached >= file_pages { 0 } else { reached },
                Ordering::Relaxed,
            );
        }
    }

    /// FincoreApp strawman hook: periodic fincore poll + blind readahead.
    fn hook_fincore_poll(&self, clock: &mut ThreadClock, ctx: &ReadCtx) {
        let inner = &self.runtime.inner;
        let n = self.file.reads_since_poll.fetch_add(1, Ordering::Relaxed) + 1;
        if n.is_multiple_of(FINCORE_POLL_INTERVAL) {
            inner.stats.fincore_polls.incr();
            let runtime2 = self.runtime.clone();
            let fd = self.file.prefetch_fd;
            let next = ctx.p1 * PAGE_SIZE;
            let syscall_ns = inner.os.config().costs.syscall_ns;
            inner
                .workers
                .dispatch(clock.now(), syscall_ns, move |wclock| {
                    let os = runtime2.os();
                    os.fincore(wclock, fd);
                    os.readahead(wclock, fd, next, 1 << 20);
                });
        }
    }

    /// Error exit hook for the fallible fill: counts the surfaced error
    /// and emits the `read-error` trace event. Generic over the error so
    /// the infallible instantiation compiles it away.
    fn note_read_error<E>(&self, clock: &mut ThreadClock, err: E, ctx: &ReadCtx) -> E {
        let inner = &self.runtime.inner;
        inner.stats.read_errors.incr();
        if ctx.spans {
            crate::span::abort();
        }
        if ctx.tracing {
            inner.trace.emit(
                clock.now(),
                TraceEventKind::ReadError {
                    ino: self.file.ino,
                    start_page: ctx.p0,
                    pages: ctx.pages,
                },
            );
        }
        err
    }

    /// Shared exit hook: records the end-to-end latency into the
    /// outcome-classed histogram and emits the read/write-exit trace
    /// event.
    fn finish_io(&self, clock: &mut ThreadClock, outcome: &ReadOutcome, ctx: &ReadCtx) {
        let inner = &self.runtime.inner;
        let latency_ns = clock.now().saturating_sub(ctx.entry_ns);
        if ctx.is_write {
            inner.metrics.write_ns.record(latency_ns);
            if ctx.tracing {
                inner.trace.emit(
                    clock.now(),
                    TraceEventKind::WriteExit {
                        ino: self.file.ino,
                        start_page: ctx.p0,
                        pages: ctx.pages,
                        latency_ns,
                    },
                );
            }
        } else {
            let class = ReadClass::of(outcome);
            inner.metrics.read_hist(class).record(latency_ns);
            if ctx.spans {
                // Close the frame here, where the class is known; the
                // caller's Account close_stage then no-ops on the spent
                // frame. The clock does not advance between the two, so
                // the critical-path buckets still sum to `latency_ns`.
                if let Some(exemplar) = crate::span::finish(
                    clock.now(),
                    PipelineStage::Account,
                    self.runtime.registry_wait_now(),
                    class,
                ) {
                    inner.spans.complete(exemplar);
                }
            }
            if ctx.tracing {
                inner.trace.emit(
                    clock.now(),
                    TraceEventKind::ReadExit {
                        ino: self.file.ino,
                        start_page: ctx.p0,
                        pages: ctx.pages,
                        class,
                        latency_ns,
                    },
                );
            }
        }
    }

    /// Consumption-paced prefetch issuing (the user-space async marker).
    ///
    /// The descriptor keeps a *frontier* (how far prefetch has reached in
    /// the stream's direction) and a *window*. A new request is issued
    /// when the read position crosses into the trailing half of the
    /// window before the frontier; each issue may double the window, up
    /// to the configured and memory-budget limits. A random-classified
    /// stream collapses the window and frontier. A forward request takes
    /// `rider` with it ([`crate::Runtime::prefetch_pages`]).
    pub(crate) fn paced_prefetch(
        &self,
        clock: &mut ThreadClock,
        pred: Prediction,
        p0: u64,
        p1: u64,
        rider: Option<&mut Vec<BatchedRun>>,
    ) {
        let runtime = &self.runtime;
        let inner = &runtime.inner;

        if pred.prefetch_pages == 0 {
            // Random stream: collapse pacing state.
            self.window_pages.store(0, Ordering::Relaxed);
            self.fwd_frontier.store(p1, Ordering::Relaxed);
            self.back_frontier.store(p0, Ordering::Relaxed);
            return;
        }

        let max_pages = inner.config.max_prefetch_pages;
        let window = self.window_pages.load(Ordering::Relaxed);
        let next_window = if pred.aggressive {
            (window * 2).clamp(pred.prefetch_pages, max_pages)
        } else {
            pred.prefetch_pages.min(max_pages)
        };
        match pred.direction {
            Direction::Forward => {
                let frontier = self.fwd_frontier.load(Ordering::Relaxed);
                // Any run break invalidates the frontier: speculation from
                // the previous position says nothing about the new one.
                let frontier = if pred.jumped || frontier < p1 {
                    p1
                } else {
                    frontier
                };
                let marker = frontier.saturating_sub(window / 2);
                if p1 < marker {
                    return; // plenty prefetched ahead already
                }
                let target = p1 + next_window;
                let start = frontier.max(p1);
                if target > start {
                    let want = target - start;
                    let reached =
                        runtime.prefetch_pages(clock, &self.file, start, want, true, rider);
                    self.fwd_frontier.store(reached.max(p1), Ordering::Relaxed);
                    self.window_pages.store(next_window, Ordering::Relaxed);
                }
            }
            Direction::Backward => {
                let frontier = self.back_frontier.load(Ordering::Relaxed);
                let frontier = if pred.jumped || frontier > p0 {
                    p0
                } else {
                    frontier
                };
                let marker = frontier + window / 2;
                if p0 > marker {
                    return;
                }
                let target = p0.saturating_sub(next_window);
                let end = frontier.min(p0);
                if end > target {
                    // Backward prefetch is clamped from the front; treat a
                    // partial schedule as full coverage of the tail.
                    runtime.prefetch_pages(clock, &self.file, target, end - target, true, None);
                    self.back_frontier.store(target, Ordering::Relaxed);
                    self.window_pages.store(next_window, Ordering::Relaxed);
                }
            }
        }
    }
}
