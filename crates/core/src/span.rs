//! Request-scoped causal span tracing with tail-latency critical-path
//! attribution.
//!
//! Every demand read entering the staged pipeline gets a [`ReqId`]; the
//! pipeline stages and every wait or service window the read encounters —
//! in either layer, the OS side arriving as windows on the one trace
//! stream ([`crate::trace::Tracer`]) — record *virtual-time* spans
//! parented under it. At read exit the tree collapses into a
//! [`CriticalPath`]: self-time buckets that partition the read's
//! end-to-end latency exactly.
//!
//! Design rules, inherited from the trace subsystem's contract:
//!
//! * **Disabled by default, pay-nothing-off.** While off, the read path
//!   pays one relaxed atomic load, shared with the decision-event view
//!   ([`crate::trace::SpanView::is_enabled`]); every other hook is gated
//!   behind a thread-local flag that is only set while a traced read is
//!   in flight.
//! * **Bounded.** Only the slowest K reads per latency class keep their
//!   complete span tree ([`SpanCollector`]'s tail-exemplar reservoirs);
//!   admission is an O(1) threshold probe in the common case, and leaf
//!   lists inside one exemplar are capped.
//! * **Exact attribution.** Buckets partition `[entry, exit]` on the
//!   read's own clock by construction: each stage contributes its
//!   duration minus the synchronous leaves recorded inside it, each
//!   synchronous leaf contributes its duration to its kind's bucket, so
//!   the bucket sum equals the measured latency to the nanosecond.
//! * **Async work is attached, not billed.** Spans recorded on detached
//!   clocks (worker jobs, prefetch-class device windows) appear as
//!   *async children* for tree display and folded stacks but
//!   never enter the buckets — they are off the read's critical path.

use std::cell::{Cell, RefCell};
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};

use parking_lot::Mutex;
use simclock::Counter;
use simos::OsSpanKind;

use crate::metrics::{PipelineStage, ReadClass};
use crate::telemetry::Metric;

/// Request identifier: unique per traced read within one runtime.
pub type ReqId = u64;

/// Reservoir depth per latency class: the slowest this many reads of each
/// class keep their complete span tree.
pub const SPAN_EXEMPLARS: usize = 8;

/// Synchronous leaves kept per exemplar; overflow is still bucketed (the
/// critical path stays exact) but drops off the displayed tree.
const MAX_SYNC_LEAVES: usize = 64;

/// Async children kept per exemplar; overflow is counted, not listed.
const MAX_ASYNC_LEAVES: usize = 32;

/// Kinds of leaf spans a traced read can record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpanKind {
    /// An OS-side window ([`simos::OsTraceEvent::Window`]).
    Os(OsSpanKind),
    /// Blocked acquiring a user-level range-tree node lock.
    LibTreeLockWait,
    /// A dispatched worker job's wait in the worker queue (detached
    /// worker timeline — always an async child).
    WorkerQueueWait,
    /// A dispatched worker job's issuing window (detached worker
    /// timeline — always an async child).
    WorkerRun,
    /// Virtual-time backoff before a prefetch retry attempt.
    RetryBackoff,
    /// Ring completion handling: the detached retry of a crossing's
    /// faulted riders (which records under a suspended frame and attaches
    /// async).
    RingComplete,
}

impl SpanKind {
    /// Stable label used in folded stacks and exemplar dumps.
    pub fn name(self) -> &'static str {
        match self {
            SpanKind::Os(kind) => kind.name(),
            SpanKind::LibTreeLockWait => "lib-tree-lock-wait",
            SpanKind::WorkerQueueWait => "worker-queue-wait",
            SpanKind::WorkerRun => "worker-run",
            SpanKind::RetryBackoff => "retry-backoff",
            SpanKind::RingComplete => "ring-complete",
        }
    }

    /// Whether this kind is measured on a detached clock regardless of
    /// where it is emitted — such spans never enter the latency buckets.
    fn forced_async(self) -> bool {
        matches!(
            self,
            SpanKind::Os(OsSpanKind::DevicePrefetch)
                | SpanKind::Os(OsSpanKind::TierPromote)
                | SpanKind::WorkerQueueWait
                | SpanKind::WorkerRun
        )
    }
}

/// Self-time buckets that partition one read's end-to-end latency.
///
/// Invariant (verified by the `span_tracing` integration test): for every
/// exemplar, [`CriticalPath::total_ns`] equals the read's measured
/// `latency_ns` exactly.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CriticalPath {
    /// Stage residuals: pipeline compute not attributed to any leaf
    /// (includes OS reclaim passes charged to the read's clock).
    pub stage_compute_ns: u64,
    /// Blocked on tree / bitmap / range-tree locks.
    pub lock_wait_ns: u64,
    /// Queue waits charged to the read's own clock (the model keeps
    /// worker queues off the demand path, so this is normally zero for
    /// exemplars; async worker queue waits appear as children instead).
    pub queue_wait_ns: u64,
    /// Synchronous device service and in-flight-prefetch waits.
    pub device_service_ns: u64,
    /// Retry backoff charged to the read's own clock.
    pub retry_backoff_ns: u64,
}

impl CriticalPath {
    /// Sum of every bucket — equals the exemplar's latency exactly.
    pub fn total_ns(&self) -> u64 {
        self.stage_compute_ns
            + self.lock_wait_ns
            + self.queue_wait_ns
            + self.device_service_ns
            + self.retry_backoff_ns
    }

    /// Adds one synchronous leaf of `kind` to its bucket.
    fn add_leaf(&mut self, kind: SpanKind, dur_ns: u64) {
        match kind {
            SpanKind::Os(OsSpanKind::TreeLockWait)
            | SpanKind::Os(OsSpanKind::BitmapLockWait)
            | SpanKind::LibTreeLockWait => self.lock_wait_ns += dur_ns,
            SpanKind::Os(OsSpanKind::ReadyWait)
            | SpanKind::Os(OsSpanKind::DeviceRead)
            | SpanKind::Os(OsSpanKind::WritebackFlush)
            | SpanKind::RingComplete => self.device_service_ns += dur_ns,
            SpanKind::Os(OsSpanKind::ReclaimPass) => self.stage_compute_ns += dur_ns,
            SpanKind::RetryBackoff => self.retry_backoff_ns += dur_ns,
            SpanKind::WorkerQueueWait => self.queue_wait_ns += dur_ns,
            // Forced-async kinds never reach here; routed defensively.
            SpanKind::Os(OsSpanKind::DevicePrefetch)
            | SpanKind::Os(OsSpanKind::TierPromote)
            | SpanKind::WorkerRun => self.stage_compute_ns += dur_ns,
        }
    }
}

/// One pipeline stage's contribution to an exemplar.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StageSelf {
    /// Stage label ([`PipelineStage::name`]).
    pub stage: &'static str,
    /// Wall-to-wall stage duration on the read's clock.
    pub dur_ns: u64,
    /// Duration minus the synchronous leaves inside the stage — the
    /// stage's own compute contribution to the critical path.
    pub self_ns: u64,
}

/// One leaf span of an exemplar's tree.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanLeaf {
    /// What the window was.
    pub kind: SpanKind,
    /// Window length in virtual nanoseconds.
    pub dur_ns: u64,
    /// Virtual time the window ended (on whichever clock measured it).
    pub end_ns: u64,
    /// The pipeline stage the leaf was recorded under.
    pub stage: &'static str,
}

/// The complete span tree of one traced read, kept for the slowest reads
/// of each latency class.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanExemplar {
    /// The read's request id.
    pub req_id: ReqId,
    /// Latency class at exit.
    pub class: ReadClass,
    /// Inode read.
    pub ino: u64,
    /// First page of the access.
    pub start_page: u64,
    /// Pages covered.
    pub pages: u64,
    /// Virtual time at pipeline entry.
    pub entry_ns: u64,
    /// End-to-end latency on the read's clock.
    pub latency_ns: u64,
    /// Per-stage durations and residuals, in pipeline order.
    pub stages: Vec<StageSelf>,
    /// Synchronous leaves, in record order (capped; overflow is still
    /// bucketed in `path`).
    pub leaves: Vec<SpanLeaf>,
    /// Async children: spans measured on detached clocks while this read
    /// was in flight (worker jobs it dispatched, prefetch device windows).
    /// Attached for display, never bucketed.
    pub async_children: Vec<SpanLeaf>,
    /// The collapsed critical path; `path.total_ns() == latency_ns`.
    pub path: CriticalPath,
    /// Leaves dropped from the two lists above by the per-exemplar caps.
    pub leaves_truncated: u64,
}

impl SpanExemplar {
    /// Folded-stack lines (Brendan Gregg collapsed format): one
    /// `frame;frame;...frame value` pair per line, rooted at
    /// `read-<class>`. Stage residuals fold under the stage frame, leaves
    /// under their stage, async children under an `async` frame.
    pub fn folded_lines(&self) -> Vec<(String, u64)> {
        let root = format!("read-{}", self.class.name());
        let mut lines =
            Vec::with_capacity(self.stages.len() + self.leaves.len() + self.async_children.len());
        for stage in &self.stages {
            if stage.self_ns > 0 {
                lines.push((format!("{root};stage:{}", stage.stage), stage.self_ns));
            }
        }
        for leaf in &self.leaves {
            lines.push((
                format!("{root};stage:{};{}", leaf.stage, leaf.kind.name()),
                leaf.dur_ns,
            ));
        }
        for leaf in &self.async_children {
            lines.push((
                format!("{root};stage:{};async;{}", leaf.stage, leaf.kind.name()),
                leaf.dur_ns,
            ));
        }
        lines
    }
}

/// Aggregate critical-path totals for one latency class — always
/// maintained while spans are enabled, even for reads that never make an
/// exemplar reservoir.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SpanClassTotals {
    /// Reads traced in this class.
    pub reads: u64,
    /// Summed critical-path buckets over those reads.
    pub path: CriticalPath,
}

impl SpanClassTotals {
    /// Interval accounting: `self - earlier`, saturating.
    pub fn delta(&self, earlier: &SpanClassTotals) -> SpanClassTotals {
        SpanClassTotals {
            reads: self.reads.saturating_sub(earlier.reads),
            path: CriticalPath {
                stage_compute_ns: self
                    .path
                    .stage_compute_ns
                    .saturating_sub(earlier.path.stage_compute_ns),
                lock_wait_ns: self
                    .path
                    .lock_wait_ns
                    .saturating_sub(earlier.path.lock_wait_ns),
                queue_wait_ns: self
                    .path
                    .queue_wait_ns
                    .saturating_sub(earlier.path.queue_wait_ns),
                device_service_ns: self
                    .path
                    .device_service_ns
                    .saturating_sub(earlier.path.device_service_ns),
                retry_backoff_ns: self
                    .path
                    .retry_backoff_ns
                    .saturating_sub(earlier.path.retry_backoff_ns),
            },
        }
    }
}

/// Telemetry export: one `spans.classes` entry.
impl Metric for SpanClassTotals {
    fn write_json(&self, out: &mut String) {
        let _ = write!(
            out,
            "{{\"reads\":{},\"stage_compute_ns\":{},\"lock_wait_ns\":{},\"queue_wait_ns\":{},\"device_service_ns\":{},\"retry_backoff_ns\":{}}}",
            self.reads,
            self.path.stage_compute_ns,
            self.path.lock_wait_ns,
            self.path.queue_wait_ns,
            self.path.device_service_ns,
            self.path.retry_backoff_ns
        );
    }
    fn since(&self, earlier: &Self) -> Self {
        self.delta(earlier)
    }
}

/// Per-class collector state: atomic totals plus the tail reservoir.
#[derive(Debug, Default)]
struct ClassState {
    reads: AtomicU64,
    stage_compute_ns: AtomicU64,
    lock_wait_ns: AtomicU64,
    queue_wait_ns: AtomicU64,
    device_service_ns: AtomicU64,
    retry_backoff_ns: AtomicU64,
    /// Smallest latency currently held by a *full* reservoir (0 until
    /// full). The O(1) admission probe: a read faster than this cannot
    /// displace anything, so it never takes the reservoir lock.
    threshold_ns: AtomicU64,
    reservoir: Mutex<Vec<SpanExemplar>>,
}

fn class_index(class: ReadClass) -> usize {
    match class {
        ReadClass::CacheHit => 0,
        ReadClass::PrefetchHit => 1,
        ReadClass::DemandMiss => 2,
    }
}

/// The classes in reservoir-index order.
const CLASSES: [ReadClass; 3] = [
    ReadClass::CacheHit,
    ReadClass::PrefetchHit,
    ReadClass::DemandMiss,
];

/// The shared span collector: request-id allocator, per-class totals and
/// tail-exemplar reservoirs. Its switch is the span view of the
/// [`crate::trace::Tracer`] that owns it.
#[derive(Debug)]
pub struct SpanCollector {
    next_req_id: AtomicU64,
    /// Reservoir depth per class (K slowest reads keep their tree).
    capacity: usize,
    classes: [ClassState; 3],
    reads_traced: Counter,
    exemplars_admitted: Counter,
    exemplars_evicted: Counter,
}

impl SpanCollector {
    /// A collector keeping the slowest `capacity` reads per class.
    pub fn new(capacity: usize) -> Self {
        Self {
            next_req_id: AtomicU64::new(0),
            capacity,
            classes: Default::default(),
            reads_traced: Counter::new(),
            exemplars_admitted: Counter::new(),
            exemplars_evicted: Counter::new(),
        }
    }

    /// Reservoir depth per latency class.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Allocates the next request id.
    pub(crate) fn next_req_id(&self) -> ReqId {
        self.next_req_id.fetch_add(1, Ordering::Relaxed)
    }

    /// Reads traced since construction.
    pub fn reads_traced(&self) -> u64 {
        self.reads_traced.get()
    }

    /// Exemplars admitted into a reservoir.
    pub fn exemplars_admitted(&self) -> u64 {
        self.exemplars_admitted.get()
    }

    /// Exemplars displaced from a full reservoir by slower reads.
    pub fn exemplars_evicted(&self) -> u64 {
        self.exemplars_evicted.get()
    }

    /// Aggregate critical-path totals for `class`.
    pub fn class_totals(&self, class: ReadClass) -> SpanClassTotals {
        let state = &self.classes[class_index(class)];
        SpanClassTotals {
            reads: state.reads.load(Ordering::Relaxed),
            path: CriticalPath {
                stage_compute_ns: state.stage_compute_ns.load(Ordering::Relaxed),
                lock_wait_ns: state.lock_wait_ns.load(Ordering::Relaxed),
                queue_wait_ns: state.queue_wait_ns.load(Ordering::Relaxed),
                device_service_ns: state.device_service_ns.load(Ordering::Relaxed),
                retry_backoff_ns: state.retry_backoff_ns.load(Ordering::Relaxed),
            },
        }
    }

    /// The kept exemplars of `class`, slowest first.
    pub fn exemplars_for(&self, class: ReadClass) -> Vec<SpanExemplar> {
        let mut out = self.classes[class_index(class)].reservoir.lock().clone();
        out.sort_by_key(|e| std::cmp::Reverse(e.latency_ns));
        out
    }

    /// Every kept exemplar across all classes, slowest first.
    pub fn exemplars(&self) -> Vec<SpanExemplar> {
        let mut out: Vec<SpanExemplar> = CLASSES
            .iter()
            .flat_map(|&class| self.exemplars_for(class))
            .collect();
        out.sort_by_key(|e| std::cmp::Reverse(e.latency_ns));
        out
    }

    /// Records one completed read: class totals always, reservoir
    /// admission only when the read is slow enough to matter.
    pub(crate) fn complete(&self, exemplar: SpanExemplar) {
        let state = &self.classes[class_index(exemplar.class)];
        state.reads.fetch_add(1, Ordering::Relaxed);
        state
            .stage_compute_ns
            .fetch_add(exemplar.path.stage_compute_ns, Ordering::Relaxed);
        state
            .lock_wait_ns
            .fetch_add(exemplar.path.lock_wait_ns, Ordering::Relaxed);
        state
            .queue_wait_ns
            .fetch_add(exemplar.path.queue_wait_ns, Ordering::Relaxed);
        state
            .device_service_ns
            .fetch_add(exemplar.path.device_service_ns, Ordering::Relaxed);
        state
            .retry_backoff_ns
            .fetch_add(exemplar.path.retry_backoff_ns, Ordering::Relaxed);
        self.reads_traced.incr();

        if self.capacity == 0 {
            return;
        }
        // O(1) tail probe: a full reservoir's floor is `threshold_ns`;
        // anything faster cannot displace and skips the lock entirely.
        if exemplar.latency_ns < state.threshold_ns.load(Ordering::Relaxed) {
            return;
        }
        let mut reservoir = state.reservoir.lock();
        if reservoir.len() >= self.capacity {
            let (min_idx, min_latency) = reservoir
                .iter()
                .enumerate()
                .min_by_key(|(_, e)| e.latency_ns)
                .map(|(i, e)| (i, e.latency_ns))
                .expect("non-empty full reservoir");
            if exemplar.latency_ns <= min_latency {
                return;
            }
            reservoir.swap_remove(min_idx);
            self.exemplars_evicted.incr();
        }
        reservoir.push(exemplar);
        if reservoir.len() >= self.capacity {
            let floor = reservoir.iter().map(|e| e.latency_ns).min().unwrap_or(0);
            state.threshold_ns.store(floor, Ordering::Relaxed);
        }
        self.exemplars_admitted.incr();
    }
}

/// One leaf pending stage-name resolution (the stage a leaf belongs to is
/// only named when the stage closes).
#[derive(Debug, Clone, Copy)]
struct PendingLeaf {
    kind: SpanKind,
    dur_ns: u64,
    end_ns: u64,
    /// `stages.len()` at record time — the index its stage will occupy.
    slot: usize,
}

/// The in-flight frame of the thread's current traced read.
#[derive(Debug)]
struct Frame {
    req_id: ReqId,
    ino: u64,
    start_page: u64,
    pages: u64,
    entry_ns: u64,
    stage_start_ns: u64,
    /// Synchronous leaf time inside the open stage, subtracted from the
    /// stage duration to get its residual.
    leaf_in_stage_ns: u64,
    stages: Vec<StageSelf>,
    leaves: Vec<PendingLeaf>,
    async_children: Vec<PendingLeaf>,
    leaves_truncated: u64,
    path: CriticalPath,
}

thread_local! {
    /// Whether this thread has a traced read in flight — the gate every
    /// leaf record checks first (no atomics involved).
    static ACTIVE: Cell<bool> = const { Cell::new(false) };
    /// Depth of detached-clock execution (worker jobs run on the caller's
    /// stack): while nonzero, leaves route to async children.
    static SUSPENDED: Cell<u32> = const { Cell::new(0) };
    static FRAME: RefCell<Option<Frame>> = const { RefCell::new(None) };
}

/// Opens a frame for a traced read. Returns false (and records nothing)
/// if this thread already has one in flight — nested reads stay untraced
/// rather than corrupting the outer frame.
pub(crate) fn begin(req_id: ReqId, ino: u64, start_page: u64, pages: u64, entry_ns: u64) -> bool {
    if ACTIVE.with(|a| a.get()) {
        return false;
    }
    FRAME.with(|frame| {
        *frame.borrow_mut() = Some(Frame {
            req_id,
            ino,
            start_page,
            pages,
            entry_ns,
            stage_start_ns: entry_ns,
            leaf_in_stage_ns: 0,
            stages: Vec::with_capacity(6),
            leaves: Vec::new(),
            async_children: Vec::new(),
            leaves_truncated: 0,
            path: CriticalPath::default(),
        });
    });
    ACTIVE.with(|a| a.set(true));
    true
}

/// Records one leaf span against the thread's open frame, if any.
/// Zero-duration leaves are skipped; leaves recorded under a detached
/// clock (or of an inherently detached kind) attach as async children.
pub(crate) fn record_leaf(kind: SpanKind, dur_ns: u64, end_ns: u64) {
    if dur_ns == 0 || !ACTIVE.with(|a| a.get()) {
        return;
    }
    let asynchronous = kind.forced_async() || SUSPENDED.with(|s| s.get()) > 0;
    FRAME.with(|frame| {
        let mut frame = frame.borrow_mut();
        let Some(frame) = frame.as_mut() else { return };
        let pending = PendingLeaf {
            kind,
            dur_ns,
            end_ns,
            slot: frame.stages.len(),
        };
        if asynchronous {
            if frame.async_children.len() < MAX_ASYNC_LEAVES {
                frame.async_children.push(pending);
            } else {
                frame.leaves_truncated += 1;
            }
            return;
        }
        frame.path.add_leaf(kind, dur_ns);
        frame.leaf_in_stage_ns += dur_ns;
        if frame.leaves.len() < MAX_SYNC_LEAVES {
            frame.leaves.push(pending);
        } else {
            frame.leaves_truncated += 1;
        }
    });
}

/// Closes the open pipeline stage at `now`: its duration minus the
/// synchronous leaf time inside it becomes the stage's residual
/// (critical-path stage compute).
pub(crate) fn close_stage(stage: PipelineStage, now: u64) {
    if !ACTIVE.with(|a| a.get()) {
        return;
    }
    FRAME.with(|frame| {
        let mut frame = frame.borrow_mut();
        let Some(frame) = frame.as_mut() else { return };
        let dur_ns = now.saturating_sub(frame.stage_start_ns);
        let self_ns = dur_ns.saturating_sub(frame.leaf_in_stage_ns);
        frame.stages.push(StageSelf {
            stage: stage.name(),
            dur_ns,
            self_ns,
        });
        frame.path.stage_compute_ns += self_ns;
        frame.stage_start_ns = now;
        frame.leaf_in_stage_ns = 0;
    });
}

/// Abandons the thread's open frame (read error exit).
pub(crate) fn abort() {
    if !ACTIVE.with(|a| a.get()) {
        return;
    }
    FRAME.with(|frame| *frame.borrow_mut() = None);
    ACTIVE.with(|a| a.set(false));
}

/// Closes the frame at `now` (closing the final stage as `final_stage`)
/// and returns the finished exemplar.
pub(crate) fn finish(
    now: u64,
    final_stage: PipelineStage,
    class: ReadClass,
) -> Option<SpanExemplar> {
    if !ACTIVE.with(|a| a.get()) {
        return None;
    }
    close_stage(final_stage, now);
    let frame = FRAME.with(|frame| frame.borrow_mut().take());
    ACTIVE.with(|a| a.set(false));
    let frame = frame?;
    let resolve = |pending: &PendingLeaf| SpanLeaf {
        kind: pending.kind,
        dur_ns: pending.dur_ns,
        end_ns: pending.end_ns,
        stage: frame
            .stages
            .get(pending.slot.min(frame.stages.len().saturating_sub(1)))
            .map_or("?", |s| s.stage),
    };
    Some(SpanExemplar {
        req_id: frame.req_id,
        class,
        ino: frame.ino,
        start_page: frame.start_page,
        pages: frame.pages,
        entry_ns: frame.entry_ns,
        latency_ns: now.saturating_sub(frame.entry_ns),
        leaves: frame.leaves.iter().map(resolve).collect(),
        async_children: frame.async_children.iter().map(resolve).collect(),
        stages: frame.stages,
        path: frame.path,
        leaves_truncated: frame.leaves_truncated,
    })
}

/// Runs `f` with leaf recording routed to async children: worker jobs
/// execute on the caller's stack but on detached clocks, so their spans
/// are off the read's critical path.
pub(crate) fn suspended<R>(f: impl FnOnce() -> R) -> R {
    struct Guard;
    impl Drop for Guard {
        fn drop(&mut self) {
            SUSPENDED.with(|s| s.set(s.get() - 1));
        }
    }
    SUSPENDED.with(|s| s.set(s.get() + 1));
    let _guard = Guard;
    f()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_frame(leaves: &[(SpanKind, u64)], suspend: bool) -> SpanExemplar {
        assert!(begin(7, 42, 8, 4, 1_000));
        close_stage(PipelineStage::Classify, 1_100);
        let mut now = 1_100;
        for &(kind, dur) in leaves {
            now += dur;
            if suspend {
                suspended(|| record_leaf(kind, dur, now));
            } else {
                record_leaf(kind, dur, now);
            }
        }
        close_stage(PipelineStage::DemandFill, now + 50);
        finish(now + 80, PipelineStage::Account, ReadClass::DemandMiss)
            .expect("open frame finishes")
    }

    #[test]
    fn buckets_partition_latency_exactly() {
        let ex = run_frame(
            &[
                (SpanKind::Os(OsSpanKind::TreeLockWait), 30),
                (SpanKind::Os(OsSpanKind::DeviceRead), 400),
                (SpanKind::RetryBackoff, 20),
            ],
            false,
        );
        assert_eq!(ex.latency_ns, ex.path.total_ns());
        assert_eq!(ex.path.lock_wait_ns, 30);
        assert_eq!(ex.path.device_service_ns, 400);
        assert_eq!(ex.path.retry_backoff_ns, 20);
        // Residual = 100 (classify) + 50 (demand-fill tail) + 30 (account).
        assert_eq!(ex.path.stage_compute_ns, 180);
        assert_eq!(ex.stages.len(), 3);
    }

    #[test]
    fn suspended_leaves_attach_async_and_stay_unbucketed() {
        let ex = run_frame(&[(SpanKind::Os(OsSpanKind::DeviceRead), 500)], true);
        assert_eq!(ex.leaves.len(), 0);
        assert_eq!(ex.async_children.len(), 1);
        assert_eq!(ex.path.device_service_ns, 0);
        assert_eq!(ex.latency_ns, ex.path.total_ns());
    }

    #[test]
    fn forced_async_kinds_never_bucket() {
        let ex = run_frame(
            &[
                (SpanKind::WorkerQueueWait, 100),
                (SpanKind::WorkerRun, 200),
                (SpanKind::Os(OsSpanKind::TierPromote), 300),
                (SpanKind::Os(OsSpanKind::DevicePrefetch), 400),
            ],
            false,
        );
        assert_eq!(ex.async_children.len(), 4);
        assert_eq!(ex.leaves.len(), 0);
        // All four advance `now` in the harness but none are sync leaves,
        // so they land in the demand-fill residual — the identity holds.
        assert_eq!(ex.latency_ns, ex.path.total_ns());
    }

    #[test]
    fn reservoir_keeps_slowest_k() {
        let collector = SpanCollector::new(2);
        for latency in [10u64, 50, 30, 40, 20] {
            let ex = SpanExemplar {
                req_id: latency,
                class: ReadClass::CacheHit,
                ino: 1,
                start_page: 0,
                pages: 1,
                entry_ns: 0,
                latency_ns: latency,
                stages: Vec::new(),
                leaves: Vec::new(),
                async_children: Vec::new(),
                path: CriticalPath {
                    stage_compute_ns: latency,
                    ..CriticalPath::default()
                },
                leaves_truncated: 0,
            };
            collector.complete(ex);
        }
        let kept = collector.exemplars_for(ReadClass::CacheHit);
        let latencies: Vec<u64> = kept.iter().map(|e| e.latency_ns).collect();
        assert_eq!(latencies, vec![50, 40]);
        assert_eq!(collector.reads_traced(), 5);
        let totals = collector.class_totals(ReadClass::CacheHit);
        assert_eq!(totals.reads, 5);
        assert_eq!(totals.path.stage_compute_ns, 150);
        assert!(collector.exemplars_evicted() >= 1);
    }

    #[test]
    fn folded_lines_are_parseable() {
        let ex = run_frame(&[(SpanKind::Os(OsSpanKind::DeviceRead), 400)], false);
        let lines = ex.folded_lines();
        assert!(lines.iter().all(|(_, n)| *n > 0));
        assert!(lines
            .iter()
            .any(|(stack, _)| stack == "read-demand-miss;stage:demand_fill;os-device-read"));
        assert!(lines
            .iter()
            .any(|(stack, _)| stack.starts_with("read-demand-miss;stage:classify")));
    }

    #[test]
    fn abort_discards_the_frame() {
        assert!(begin(1, 1, 0, 1, 0));
        record_leaf(SpanKind::LibTreeLockWait, 10, 10);
        abort();
        assert!(finish(100, PipelineStage::Account, ReadClass::CacheHit).is_none());
    }
}
