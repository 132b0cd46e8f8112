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
//! Fallibility is a type parameter, not a runtime flag: the pipeline is
//! generic over the OS's own fault discipline, [`simos::FaultMode`], and
//! hands it straight to the syscalls it makes (`read_charge_as`,
//! `write_charge_as`, `read_batch`). Under `NeverFault` the error type is
//! uninhabited, so the infallible `CpFile` methods discharge the `Result`
//! statically ([`simos::into_ok`]) — there is no dynamic "this cannot
//! fail" assertion anywhere on the path.
//!
//! Those syscalls take the handle's own [`simos::FdEntry`] (`CpFile`'s
//! `os_file`, resolved once at open, holding the inode's cache), never a
//! descriptor number, so a read makes no descriptor or inode lookup.

use std::sync::atomic::Ordering;
use std::sync::Arc;

use parking_lot::MutexGuard;
use predict::{AccessPattern, Direction, Prediction, PredictionEngine, PrefetchDecision};
use simclock::ThreadClock;
use simos::{FaultMode, ReadOutcome, PAGE_SIZE};

use crate::admit::{Ridden, Rider};
use crate::metrics::{PipelineStage, ReadClass};
use crate::outstanding::Outstanding;
use crate::policy::PostReadHook;
use crate::runtime::CpFile;
use crate::trace::{LookupOutcome, TraceEventKind};

/// Reads between whole-file refetch rounds in FetchAll mode.
const FETCHALL_REFRESH_READS: u64 = 256;

/// Unexpected-miss pages tolerated before the user-level cache view is
/// discarded and re-imported from the OS.
const STALE_RESYNC_PAGES: u64 = 128;

/// Reads between fincore polls in FincoreApp mode.
const FINCORE_POLL_INTERVAL: u64 = 32;

/// Per-access pipeline state, built by the classify stage and threaded
/// through every later stage.
pub(crate) struct ReadCtx<'a> {
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
    /// Whether the tracer's decision-event view is on; every emit site
    /// downstream is gated on this bool.
    tracing: bool,
    /// Whether this access carries an open span frame — set when the
    /// tracer's span view is on and this thread opened a frame for a
    /// non-write access.
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
    /// when rides are on), waiting for the demand-fill stage: it rides
    /// the miss's ring crossing, or is handed back to the engine when the
    /// access turns out to need no crossing.
    known_run: Option<Prediction>,
    /// The riders a ring crossing carried and their completions (set by
    /// the demand-fill stage), imported by the account stage after its
    /// staleness resync.
    ridden: Option<Ridden>,
    /// Whether this read continued a steady forward run (set by the
    /// predict stage): the memory watcher returns only such a run's
    /// consumed words.
    forward_run: bool,
    /// The descriptor's outstanding speculation, locked by the predict
    /// stage and held through account: one lock per intercepted access.
    outstanding: Option<MutexGuard<'a, Outstanding>>,
    /// Virtual time the current stage started (stage-latency base).
    stage_start_ns: u64,
}

impl ReadCtx<'_> {
    /// The record the predict stage locked; every stage after it runs on
    /// the intercepted route only.
    fn outstanding(&mut self) -> &mut Outstanding {
        self.outstanding
            .as_deref_mut()
            .expect("the predict stage locks the record")
    }

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
    /// The pipeline, under fault discipline `F` (the four `CpFile` charge
    /// methods pick it). Exactly one of the two routes runs: passthrough
    /// (no CROSS-LIB machinery) or the full staged sequence. Under
    /// [`MayFault`](simos::MayFault) an injected EIO in a demand-class
    /// read (a read's fill, a write's RMW head/tail) surfaces; a write
    /// that faulted dirtied nothing.
    pub(crate) fn run_pipeline<F: FaultMode>(
        &self,
        clock: &mut ThreadClock,
        offset: u64,
        len: u64,
        is_write: bool,
    ) -> Result<ReadOutcome, F::Error> {
        let mut ctx = self.stage_classify(clock, offset, len, is_write);

        if !self.runtime.inner.policy.intercept {
            let outcome = self.stage_demand_fill::<F>(clock, &mut ctx)?;
            self.stage_account_passthrough(clock, &mut ctx, &outcome);
            return Ok(outcome);
        }

        self.stage_predict(clock, &mut ctx);
        self.stage_prefetch_plan(clock, &mut ctx);
        self.stage_cache_probe(clock, &mut ctx);
        let outcome = self.stage_demand_fill::<F>(clock, &mut ctx)?;
        self.stage_account(clock, &mut ctx, &outcome);
        Ok(outcome)
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
    ) -> ReadCtx<'_> {
        let inner = &self.runtime.inner;
        let entry_ns = clock.now();
        // One relaxed load for both views; every emit site below is gated
        // on its result, so disabled tracing costs exactly this on the read
        // path.
        let (tracing, span_view) = inner.trace.views();
        if is_write {
            inner.stats.writes.incr();
        } else {
            inner.stats.reads.incr();
        }
        let p0 = offset / PAGE_SIZE;
        let p1 = (offset + len.max(1)).div_ceil(PAGE_SIZE);
        // A frame only opens for reads (writes traverse untraced), and only
        // if this thread has no frame in flight already.
        let spans = !is_write
            && span_view
            && crate::span::begin(
                inner.trace.collector.next_req_id(),
                self.file.ino.0,
                p0,
                p1 - p0,
                entry_ns,
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
            ridden: None,
            forward_run: false,
            outstanding: None,
            stage_start_ns: entry_ns,
        };
        ctx.close_stage(self, PipelineStage::Classify, clock.now());
        ctx
    }

    /// Stage 2 — predict: one engine step per intercepted access (cheap,
    /// §4.6's per-descriptor pattern classification, generalised to the
    /// pluggable engines), plus the pattern-flip trace event. The strided
    /// engine's step is one clock advance and one `on_access`, nothing
    /// else. The descriptor's record is locked here, for the rest of the
    /// access.
    fn stage_predict<'a>(&'a self, clock: &mut ThreadClock, ctx: &mut ReadCtx<'a>) {
        let runtime = &self.runtime;
        let inner = &runtime.inner;
        ctx.outstanding = Some(self.outstanding.lock());
        if inner.policy.features.predict {
            clock.advance(inner.os.config().costs.predictor_step_ns);
            let (p0, pages) = (ctx.p0, ctx.pages);
            ctx.decision = self.observe(clock, ctx.outstanding(), p0, pages);
            // A jump restarts the watcher's run itself (`Outstanding::jump`).
            ctx.forward_run = !ctx.is_write
                && ctx.decision.prediction.as_ref().is_some_and(|pred| {
                    pred.pattern == AccessPattern::DefinitelySequential
                        && pred.direction == Direction::Forward
                });
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
        let decision = std::mem::take(&mut ctx.decision);
        let crosses = inner.policy.ride && !ctx.is_write && !inner.degraded.load(Ordering::Relaxed);
        let (p0, p1) = (ctx.p0, ctx.p1);
        ctx.known_run = self.apply_decision(clock, ctx.outstanding(), decision, p0, p1, crosses);
        ctx.close_stage(self, PipelineStage::PrefetchPlan, clock.now());
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
    fn stage_demand_fill<F: FaultMode>(
        &self,
        clock: &mut ThreadClock,
        ctx: &mut ReadCtx,
    ) -> Result<ReadOutcome, F::Error> {
        let inner = &self.runtime.inner;
        let os = &inner.os;
        let filled = if ctx.is_write {
            os.write_charge_as::<F>(clock, &self.os_file, ctx.offset, ctx.len)
                .map(|written| ReadOutcome {
                    bytes: written,
                    ..ReadOutcome::default()
                })
        } else {
            let ring = inner.policy.features.visibility && !inner.degraded.load(Ordering::Relaxed);
            let mut absorbed = None;
            // Fully-claimed ranges absorb through the shared bitmap — the
            // ring's zero-crossing completion for cache hits and for the
            // continuations of a pre-issued run. The OS declines (and we
            // fall through to the crossing) when its authoritative view
            // disagrees with the claim or a demand fetch would beat
            // waiting on in-flight prefetch.
            if ring && ctx.pages > 0 && ctx.claimed == ctx.pages {
                absorbed = os.absorb_read(clock, &self.os_file, ctx.offset, ctx.len);
                if absorbed.is_some() && ctx.outstanding().absorbed() {
                    inner.stats.ring_spec_absorbed.incr();
                }
            }
            let known_run = ctx.known_run.take();
            match absorbed {
                // Everything else crosses: with visibility, as a vectored
                // ring submission (carrying a known run when rides are
                // on); without it, or once `Unsupported` latched the
                // degradation, as the plain read syscall.
                None if ring => {
                    let (offset, len) = (ctx.offset, ctx.len);
                    let outstanding = ctx.outstanding();
                    let filled = self.ring_fill::<F>(clock, outstanding, offset, len, known_run);
                    filled.map(|(outcome, ridden)| {
                        ctx.ridden = ridden;
                        outcome
                    })
                }
                no_crossing => {
                    // A known run whose read hit the cache has no miss to
                    // ride: the engine holds it for the run's next miss.
                    // Waiting out the whole remainder as background
                    // prefetch would cost the next read more than its own
                    // miss does.
                    if known_run.is_some() {
                        self.engine.lock().hold_known_run();
                    }
                    match no_crossing {
                        Some(outcome) => Ok(outcome),
                        None => os.read_charge_as::<F>(clock, &self.os_file, ctx.offset, ctx.len),
                    }
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

        // A crossing's riders are imported only now, after any resync
        // above, like the demand pages below: CROSS-OS just confirmed them.
        if let Some((riders, completions)) = ctx.ridden.take() {
            runtime.apply_rider_completions(clock, &riders, &completions);
        }

        // A miss inside the frontier-claimed region means the claim is
        // stale: the record pulls both frontiers back to the access.
        let (p0, p1) = (ctx.p0, ctx.p1);
        if outcome.miss_pages > 0 {
            ctx.outstanding().missed(p0, p1);
        }

        // Promotion (tiering on only): a read whose range missed again
        // within the local tier's reach is copied local. A range already
        // local has nothing to copy and takes no job.
        if let Some(planner) = &inner.planner {
            let ino = self.file.ino.0;
            if !ctx.is_write
                && planner.remissed(ino, p0, outcome.miss_pages)
                && inner
                    .os
                    .tiered()
                    .is_some_and(|tiered| !tiered.remote_runs(ino, p0, outcome.pages).is_empty())
            {
                runtime.dispatch_promotion(clock, &self.file, p0, outcome.pages);
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
                // A read that delivered nothing (past EOF) is no step of
                // the run.
                PostReadHook::MemoryWatcher => {
                    let steady = ctx.forward_run && outcome.pages > 0;
                    self.watch_memory(clock, ctx.outstanding(), p0, p1, steady)
                }
            }
        }

        // Engines that learn from what their predictions were worth see
        // whether this read needed the device (at their next observation)
        // and the per-file timely/late/wasted delta (gated off for the
        // strided engine, no virtual time charged either way).
        if self.engine_feedback && !ctx.is_write {
            let needed_io = outcome.miss_pages + outcome.prefetch_hit_pages > 0;
            let outstanding = ctx.outstanding();
            outstanding.read_outcome(needed_io);
            self.maybe_feed_quality(outstanding);
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
            .fetch_add(1, Ordering::Relaxed);
        let file_pages = self.file.pages();
        let budget = inner.os.mem().budget();
        let (interval, round) = if file_pages > budget {
            (FETCHALL_REFRESH_READS * 16, (budget / 4).max(1))
        } else {
            (FETCHALL_REFRESH_READS, file_pages)
        };
        if (n + 1).is_multiple_of(interval) && file_pages > 0 {
            let start = self.file.refetch_cursor.load(Ordering::Relaxed) % file_pages;
            let want = round.min(file_pages - start);
            let reached = runtime.prefetch_pages(clock, &self.file, start, want, None);
            let cursor = if reached >= file_pages { 0 } else { reached };
            self.file.refetch_cursor.store(cursor, Ordering::Relaxed);
        }
    }

    /// FincoreApp strawman hook: periodic fincore poll + blind readahead.
    fn hook_fincore_poll(&self, clock: &mut ThreadClock, ctx: &ReadCtx) {
        let inner = &self.runtime.inner;
        let n = self.file.reads_since_poll.fetch_add(1, Ordering::Relaxed) + 1;
        if n.is_multiple_of(FINCORE_POLL_INTERVAL) {
            inner.stats.fincore_polls.incr();
            let runtime2 = self.runtime.clone();
            let os_file = Arc::clone(&self.file.os_file);
            let next = ctx.p1 * PAGE_SIZE;
            let syscall_ns = inner.os.config().costs.syscall_ns;
            inner
                .workers
                .dispatch(clock.now(), syscall_ns, move |wclock| {
                    let os = runtime2.os();
                    os.fincore(wclock, &os_file);
                    os.readahead(wclock, &os_file, next, 1 << 20);
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
                if let Some(exemplar) =
                    crate::span::finish(clock.now(), PipelineStage::Account, class)
                {
                    inner.trace.collector.complete(exemplar);
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

    /// Consumption-paced prefetch issuing (the user-space async marker):
    /// the record decides whether and what a prediction asks for
    /// ([`Outstanding::pace_forward`], [`Outstanding::pace_backward`]);
    /// a random-classified stream collapses it ([`Outstanding::collapse`]).
    /// A forward request takes `rider` with it
    /// ([`crate::Runtime::prefetch_pages`]). `plan` clamps a span from its
    /// start, so a backward window is clamped to the headroom first.
    pub(crate) fn paced_prefetch(
        &self,
        clock: &mut ThreadClock,
        outstanding: &mut Outstanding,
        pred: Prediction,
        p0: u64,
        p1: u64,
        rider: Option<&mut Vec<Rider>>,
    ) {
        let runtime = &self.runtime;
        if pred.prefetch_pages == 0 {
            outstanding.collapse(p0, p1);
            return;
        }
        let (file, max_pages) = (&self.file, runtime.inner.config.max_prefetch_pages);
        match pred.direction {
            Direction::Forward => outstanding.pace_forward(&pred, p1, max_pages, |from, want| {
                runtime.prefetch_pages(clock, file, from, want, rider)
            }),
            Direction::Backward => {
                let headroom = runtime.headroom_pages();
                outstanding.pace_backward(&pred, p0, max_pages, headroom, |from, span| {
                    runtime.prefetch_pages(clock, file, from, span, None)
                });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use predict::{AccessPattern, Direction, Prediction};
    use simos::{Device, DeviceConfig, FileSystem, FsKind, Os, OsConfig, PAGE_SIZE};

    use crate::outstanding::back_frontier;
    use crate::{Mode, Runtime};

    /// A backward window the memory headroom clamps keeps the pages next
    /// to the reader's cursor, `[p0 - headroom, p0)`: the reader reaches
    /// them first. The frontier moves only as far as that request.
    #[test]
    fn a_clamped_backward_window_keeps_its_near_end() {
        let os = Os::new(
            OsConfig::with_memory_mb(4),
            Device::new(DeviceConfig::local_nvme()),
            FileSystem::new(FsKind::Ext4Like),
        );
        let runtime = Runtime::with_mode(os, Mode::Predict);
        let mut clock = runtime.new_clock();
        let file = runtime
            .create_sized(&mut clock, "/f", 2048 * PAGE_SIZE)
            .unwrap();
        let mem = runtime.os().mem();
        mem.note_inserted(mem.free_pages()); // a cache full of clean pages
        let headroom = mem.budget() / 32;
        let (p0, window) = (1024, 256);
        let pred = Prediction {
            pattern: AccessPattern::DefinitelySequential,
            prefetch_pages: window,
            from_page: p0 - 1,
            direction: Direction::Backward,
            aggressive: false,
            jumped: true,
            known_run: false,
        };
        let mut outstanding = file.outstanding.lock();
        file.paced_prefetch(&mut clock, &mut outstanding, pred, p0, p0 + 4, None);
        let target = p0 - window;
        let costs = &runtime.os().config().costs;
        let mut requested = |from, to| {
            file.file
                .tree
                .cached_in(&mut clock, costs, runtime.scope(), from, to)
        };
        assert_eq!(runtime.stats().pages_requested.get(), headroom);
        assert_eq!(requested(p0 - headroom, p0), headroom);
        assert_eq!(requested(target, p0 - headroom), 0);
        assert_eq!(back_frontier(&outstanding), p0 - headroom);
    }
}
