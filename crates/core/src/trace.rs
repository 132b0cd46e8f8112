//! Decision-event tracing and the one bridge both layers trace through.
//!
//! A [`Tracer`] is one event stream with two views: *decision events*
//! from both layers land in a bounded ring, and *wait/service windows*
//! land in the calling read's span frame ([`crate::span`]). The OS reaches
//! it through the two-method [`OsTraceSink`] it implements.
//!
//! Design:
//!
//! * **Disabled by default.** Both views are off until switched on, each
//!   independently. Both flags live in one word, so the read path learns
//!   which views are on with one relaxed atomic load, hoisted and passed
//!   down as plain `bool`s.
//! * **One ring, one lock.** Events go straight into a shared ring under
//!   its mutex, which also assigns the global sequence number: emission
//!   order and ring order are the same order, on every thread.
//! * **Bounded with drop-oldest.** The ring holds at most `capacity`
//!   events; overflow evicts the oldest and bumps a dropped-events
//!   counter, so a run can never OOM on its own telemetry. An event for a
//!   view that is off is discarded, not counted as a drop.
//! * **Deterministic timestamps.** Every event carries the emitting
//!   thread's *virtual* clock value plus its sequence number, so traces
//!   are diff-able across runs of a deterministic workload.

use std::collections::VecDeque;
use std::fmt;
use std::ops::Deref;
use std::sync::atomic::{AtomicU8, Ordering};

use parking_lot::Mutex;
use simos::{InodeId, OsTraceEvent, OsTraceSink};

use crate::metrics::ReadClass;
use crate::span::{SpanCollector, SpanKind};
use predict::AccessPattern;

/// Default ring capacity (events).
pub const DEFAULT_TRACE_CAPACITY: usize = 64 * 1024;

/// The decision-event view's bit in a [`Tracer`]'s views word.
const EVENTS: u8 = 1;
/// The span view's bit in a [`Tracer`]'s views word.
const SPANS: u8 = 2;

/// Outcome of a user-level range-tree lookup.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LookupOutcome {
    /// Every page of the range was claimed cached.
    Hit,
    /// Some pages claimed cached.
    Partial,
    /// Nothing claimed cached.
    Miss,
    /// The lookup let the runtime skip a prefetch entirely (the §4.2
    /// syscall reduction).
    SkippedByVisibility,
}

impl LookupOutcome {
    /// Stable label.
    pub fn name(self) -> &'static str {
        match self {
            LookupOutcome::Hit => "hit",
            LookupOutcome::Partial => "partial",
            LookupOutcome::Miss => "miss",
            LookupOutcome::SkippedByVisibility => "skipped-by-visibility",
        }
    }
}

/// One structured decision event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceEventKind {
    /// A shim read completed.
    ReadExit {
        /// File read.
        ino: InodeId,
        /// First page of the access.
        start_page: u64,
        /// Pages covered.
        pages: u64,
        /// Outcome class (cache-hit / prefetch-hit / demand-miss).
        class: ReadClass,
        /// End-to-end virtual latency of the read.
        latency_ns: u64,
    },
    /// A shim write completed.
    WriteExit {
        /// File written.
        ino: InodeId,
        /// First page of the access.
        start_page: u64,
        /// Pages covered.
        pages: u64,
        /// End-to-end virtual latency of the write.
        latency_ns: u64,
    },
    /// The per-descriptor predictor changed pattern classification.
    PredictorFlip {
        /// File the descriptor reads.
        ino: InodeId,
        /// Previous pattern (`None` on the first classification).
        from: Option<AccessPattern>,
        /// New pattern.
        to: AccessPattern,
    },
    /// A user-level range-tree lookup resolved.
    TreeLookup {
        /// File queried.
        ino: InodeId,
        /// First page queried.
        start_page: u64,
        /// Pages queried.
        pages: u64,
        /// What the view claimed.
        outcome: LookupOutcome,
    },
    /// A prefetch request was handed to the worker pool.
    PrefetchEnqueued {
        /// Target file.
        ino: InodeId,
        /// First page requested.
        start_page: u64,
        /// Pages requested.
        pages: u64,
        /// Worker index it was assigned to.
        worker: usize,
    },
    /// A worker finished issuing a prefetch request.
    PrefetchCompleted {
        /// Target file.
        ino: InodeId,
        /// Queue wait before the worker started, ns.
        queue_wait_ns: u64,
        /// Enqueue-to-completion latency, ns.
        latency_ns: u64,
    },
    /// The runtime memory watcher evicted a file, or a consumed word
    /// behind its reader.
    LibEvict {
        /// Evicted file.
        ino: InodeId,
        /// Resident pages dropped.
        pages: u64,
    },
    /// A worker's prefetch attempt hit a transient device error and will
    /// be retried after backoff.
    PrefetchRetry {
        /// Target file.
        ino: InodeId,
        /// First page of the failed attempt.
        start_page: u64,
        /// Pages the attempt covered.
        pages: u64,
        /// Attempt number that failed (1-based).
        attempt: u32,
    },
    /// A prefetch request exhausted its retry budget; the range stays
    /// unmarked and later reads demand-fetch it.
    PrefetchAbandoned {
        /// Target file.
        ino: InodeId,
        /// First page of the abandoned range.
        start_page: u64,
        /// Pages abandoned.
        pages: u64,
    },
    /// The kernel rejected `readahead_info`; the runtime permanently
    /// downgraded visibility prefetch to blind `readahead(2)`.
    VisibilityDowngraded {
        /// File whose prefetch triggered the downgrade.
        ino: InodeId,
    },
    /// A demand read surfaced a transient device error to the workload.
    ReadError {
        /// File read.
        ino: InodeId,
        /// First page of the access.
        start_page: u64,
        /// Pages covered.
        pages: u64,
    },
    /// A known run crossed the ring with the miss that starts it.
    RingSpecIssued {
        /// Target file.
        ino: InodeId,
        /// First missing page of the run's remainder.
        start_page: u64,
        /// Missing pages pre-issued.
        pages: u64,
    },
    /// A decision the OS layer made (`readahead_info` call, heuristic
    /// window growth, reclaim pass, ring crossing), bridged as is.
    Os(OsTraceEvent),
}

impl TraceEventKind {
    /// Stable event-kind label (the trace schema's discriminator).
    pub fn name(&self) -> &'static str {
        match self {
            TraceEventKind::ReadExit { .. } => "read-exit",
            TraceEventKind::WriteExit { .. } => "write-exit",
            TraceEventKind::PredictorFlip { .. } => "predictor-flip",
            TraceEventKind::TreeLookup { .. } => "tree-lookup",
            TraceEventKind::PrefetchEnqueued { .. } => "prefetch-enqueued",
            TraceEventKind::PrefetchCompleted { .. } => "prefetch-completed",
            TraceEventKind::LibEvict { .. } => "lib-evict",
            TraceEventKind::PrefetchRetry { .. } => "prefetch-retry",
            TraceEventKind::PrefetchAbandoned { .. } => "prefetch-abandoned",
            TraceEventKind::VisibilityDowngraded { .. } => "visibility-downgraded",
            TraceEventKind::ReadError { .. } => "read-error",
            TraceEventKind::RingSpecIssued { .. } => "ring-spec-issued",
            TraceEventKind::Os(event) => event.name(),
        }
    }
}

/// One trace record: virtual timestamp + global sequence + payload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEvent {
    /// Virtual time at which the decision happened.
    pub ts_ns: u64,
    /// Global emission order (tie-breaker for identical timestamps).
    pub seq: u64,
    /// The decision payload.
    pub kind: TraceEventKind,
}

impl fmt::Display for TraceEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{:>12} ns] {:<18}", self.ts_ns, self.kind.name())?;
        match self.kind {
            TraceEventKind::ReadExit {
                ino,
                start_page,
                pages,
                class,
                latency_ns,
            } => write!(
                f,
                "ino={} pages={}+{} class={} latency={}ns",
                ino.0,
                start_page,
                pages,
                class.name(),
                latency_ns
            ),
            TraceEventKind::WriteExit {
                ino,
                start_page,
                pages,
                latency_ns,
            } => write!(
                f,
                "ino={} pages={}+{} latency={}ns",
                ino.0, start_page, pages, latency_ns
            ),
            TraceEventKind::PredictorFlip { ino, from, to } => write!(
                f,
                "ino={} {} -> {}",
                ino.0,
                from.map_or("(none)", |p| p.name()),
                to.name()
            ),
            TraceEventKind::TreeLookup {
                ino,
                start_page,
                pages,
                outcome,
            } => write!(
                f,
                "ino={} pages={}+{} outcome={}",
                ino.0,
                start_page,
                pages,
                outcome.name()
            ),
            TraceEventKind::PrefetchEnqueued {
                ino,
                start_page,
                pages,
                worker,
            } => write!(
                f,
                "ino={} pages={}+{} worker={}",
                ino.0, start_page, pages, worker
            ),
            TraceEventKind::PrefetchCompleted {
                ino,
                queue_wait_ns,
                latency_ns,
            } => write!(
                f,
                "ino={} queue_wait={}ns latency={}ns",
                ino.0, queue_wait_ns, latency_ns
            ),
            TraceEventKind::LibEvict { ino, pages } => {
                write!(f, "ino={} pages={}", ino.0, pages)
            }
            TraceEventKind::PrefetchRetry {
                ino,
                start_page,
                pages,
                attempt,
            } => write!(
                f,
                "ino={} pages={}+{} attempt={}",
                ino.0, start_page, pages, attempt
            ),
            TraceEventKind::PrefetchAbandoned {
                ino,
                start_page,
                pages,
            } => write!(f, "ino={} pages={}+{}", ino.0, start_page, pages),
            TraceEventKind::VisibilityDowngraded { ino } => write!(f, "ino={}", ino.0),
            TraceEventKind::ReadError {
                ino,
                start_page,
                pages,
            } => write!(f, "ino={} pages={}+{}", ino.0, start_page, pages),
            TraceEventKind::RingSpecIssued {
                ino,
                start_page,
                pages,
            } => write!(f, "ino={} pages={}+{}", ino.0, start_page, pages),
            TraceEventKind::Os(event) => write!(f, "{event}"),
        }
    }
}

/// The decision-event ring. `seq` is assigned under its lock, so ring
/// order is emission order.
#[derive(Debug, Default)]
struct Ring {
    events: VecDeque<TraceEvent>,
    /// Events ever accepted: the next event's `seq`.
    next_seq: u64,
}

/// One event stream with two views (module docs): the bounded decision
/// ring and the span collector, switched by one views word. Installed
/// into the OS as its [`OsTraceSink`].
#[derive(Debug)]
pub struct Tracer {
    /// Which views are on ([`EVENTS`], [`SPANS`]).
    views: AtomicU8,
    capacity: usize,
    ring: Mutex<Ring>,
    /// What the span view fills: per-class totals and tail exemplars.
    pub(crate) collector: SpanCollector,
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new(DEFAULT_TRACE_CAPACITY)
    }
}

impl Tracer {
    /// A tracer with both views off, its ring bounded at `capacity`
    /// events and its reservoirs [`crate::span::SPAN_EXEMPLARS`] deep.
    pub fn new(capacity: usize) -> Self {
        Self {
            views: AtomicU8::new(0),
            capacity: capacity.max(1),
            ring: Mutex::default(),
            collector: SpanCollector::new(crate::span::SPAN_EXEMPLARS),
        }
    }

    fn set_view(&self, view: u8, on: bool) {
        if on {
            self.views.fetch_or(view, Ordering::Relaxed);
        } else {
            self.views.fetch_and(!view, Ordering::Relaxed);
        }
    }

    /// Whether the decision-event and the span view are on, in that
    /// order — the one relaxed load the read path pays for both.
    pub(crate) fn views(&self) -> (bool, bool) {
        let views = self.views.load(Ordering::Relaxed);
        (views & EVENTS != 0, views & SPANS != 0)
    }

    /// Turns decision-event tracing on or off. Off is the default; while
    /// off, emit sites cost one relaxed load.
    pub fn set_enabled(&self, on: bool) {
        self.set_view(EVENTS, on);
    }

    /// Whether decision-event tracing is on.
    pub fn is_enabled(&self) -> bool {
        self.views().0
    }

    /// The span view: its switch and its collector.
    pub(crate) fn spans(&self) -> SpanView<'_> {
        SpanView(self)
    }

    /// Events evicted from the ring because it was full: every accepted
    /// event took a `seq` and is either still in the ring or was evicted.
    pub fn dropped(&self) -> u64 {
        let ring = self.ring.lock();
        ring.next_seq - ring.events.len() as u64
    }

    /// Records one event at virtual time `ts_ns`. No-op while the
    /// decision-event view is off.
    pub fn emit(&self, ts_ns: u64, kind: TraceEventKind) {
        if !self.is_enabled() {
            return;
        }
        let mut ring = self.ring.lock();
        if ring.events.len() == self.capacity {
            ring.events.pop_front();
        }
        let seq = ring.next_seq;
        ring.next_seq += 1;
        ring.events.push_back(TraceEvent { ts_ns, seq, kind });
    }

    /// The surviving events ordered by `(ts_ns, seq)`.
    pub fn snapshot(&self) -> Vec<TraceEvent> {
        let mut events: Vec<TraceEvent> = self.ring.lock().events.iter().copied().collect();
        events.sort_by_key(|e| (e.ts_ns, e.seq));
        events
    }
}

/// The OS bridge: decisions go to the ring, windows to the calling
/// thread's open span frame, each only while its view is on.
impl OsTraceSink for Tracer {
    fn enabled(&self) -> bool {
        self.views.load(Ordering::Relaxed) != 0
    }

    fn emit(&self, ts_ns: u64, event: OsTraceEvent) {
        match event {
            OsTraceEvent::Window { kind, dur_ns } => {
                if self.views().1 {
                    crate::span::record_leaf(SpanKind::Os(kind), dur_ns, ts_ns);
                }
            }
            decision => Tracer::emit(self, ts_ns, TraceEventKind::Os(decision)),
        }
    }
}

/// The span view of a [`Tracer`] ([`crate::Runtime::spans`]): its switch,
/// and the [`SpanCollector`] it fills.
#[derive(Debug, Clone, Copy)]
pub struct SpanView<'a>(&'a Tracer);

impl SpanView<'_> {
    /// Turns span tracing on or off. Off is the default; while off, a
    /// read pays only the tracer's one relaxed load.
    pub fn set_enabled(&self, on: bool) {
        self.0.set_view(SPANS, on);
    }

    /// Whether span tracing is on.
    pub fn is_enabled(&self) -> bool {
        self.0.views().1
    }
}

impl Deref for SpanView<'_> {
    type Target = SpanCollector;

    fn deref(&self) -> &SpanCollector {
        &self.0.collector
    }
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use super::*;

    fn evict_event(pages: u64) -> TraceEventKind {
        TraceEventKind::LibEvict {
            ino: InodeId(0),
            pages,
        }
    }

    fn enabled(capacity: usize) -> Tracer {
        let tracer = Tracer::new(capacity);
        tracer.set_enabled(true);
        tracer
    }

    #[test]
    fn disabled_log_records_nothing() {
        let tracer = Tracer::new(16);
        tracer.emit(1, evict_event(1));
        OsTraceSink::emit(
            &tracer,
            2,
            OsTraceEvent::OsReclaim {
                target_pages: 1,
                freed_pages: 1,
            },
        );
        assert!(tracer.snapshot().is_empty());
        assert_eq!(tracer.dropped(), 0);
    }

    #[test]
    fn events_survive_in_timestamp_order() {
        let tracer = enabled(1024);
        tracer.emit(30, evict_event(3));
        tracer.emit(10, evict_event(1));
        tracer.emit(20, evict_event(2));
        let events = tracer.snapshot();
        assert_eq!(events.len(), 3);
        let ts: Vec<u64> = events.iter().map(|e| e.ts_ns).collect();
        assert_eq!(ts, vec![10, 20, 30]);
    }

    #[test]
    fn overflow_drops_oldest_and_counts() {
        let tracer = enabled(100);
        for i in 0..500u64 {
            tracer.emit(i, evict_event(i));
        }
        let events = tracer.snapshot();
        assert_eq!(events.len(), 100);
        assert_eq!(tracer.dropped(), 400);
        let ts: Vec<u64> = events.iter().map(|e| e.ts_ns).collect();
        assert_eq!(ts, (400..500).collect::<Vec<u64>>());
    }

    #[test]
    fn snapshot_collects_other_threads_buffers() {
        let tracer = Arc::new(enabled(1024));
        let other = Arc::clone(&tracer);
        std::thread::spawn(move || {
            for i in 0..10u64 {
                other.emit(i, evict_event(i));
            }
        })
        .join()
        .unwrap();
        assert_eq!(tracer.snapshot().len(), 10);
    }

    #[test]
    fn overflow_drops_oldest_first_across_threads() {
        // Another thread's ten events are the oldest of the run: a full
        // ring must evict them before anything newer.
        let tracer = Arc::new(enabled(100));
        let other = Arc::clone(&tracer);
        std::thread::spawn(move || {
            for i in 0..10u64 {
                other.emit(i, evict_event(i));
            }
        })
        .join()
        .unwrap();
        for i in 10..210u64 {
            tracer.emit(i, evict_event(i));
        }
        let kept: Vec<u64> = tracer.snapshot().iter().map(|e| e.ts_ns).collect();
        assert_eq!(kept, (110..210).collect::<Vec<u64>>(), "kept {kept:?}");
        assert_eq!(tracer.dropped(), 110);
    }

    #[test]
    fn os_sink_bridges_events() {
        let tracer = enabled(64);
        OsTraceSink::emit(
            &tracer,
            5,
            OsTraceEvent::OsReclaim {
                target_pages: 10,
                freed_pages: 8,
            },
        );
        // A window belongs to the span view: it never takes a seq.
        OsTraceSink::emit(
            &tracer,
            6,
            OsTraceEvent::Window {
                kind: simos::OsSpanKind::DeviceRead,
                dur_ns: 4,
            },
        );
        let events = tracer.snapshot();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].kind.name(), "os-reclaim");
        assert_eq!(tracer.dropped(), 0);
    }

    #[test]
    fn views_switch_independently() {
        let tracer = Tracer::new(16);
        assert!(!OsTraceSink::enabled(&tracer));
        tracer.spans().set_enabled(true);
        assert_eq!(tracer.views(), (false, true));
        assert!(OsTraceSink::enabled(&tracer));
        tracer.set_enabled(true);
        tracer.spans().set_enabled(false);
        assert_eq!(tracer.views(), (true, false));
        assert!(tracer.is_enabled() && !tracer.spans().is_enabled());
    }

    #[test]
    fn display_lines_are_stable() {
        let event = TraceEvent {
            ts_ns: 1234,
            seq: 0,
            kind: evict_event(42),
        };
        let line = event.to_string();
        assert!(line.contains("lib-evict"), "{line}");
        assert!(line.contains("pages=42"), "{line}");
        let crossing = TraceEvent {
            ts_ns: 1234,
            seq: 1,
            kind: TraceEventKind::Os(OsTraceEvent::RingCrossing {
                demand_entries: 1,
                ra_entries: 2,
            }),
        };
        assert_eq!(
            crossing.to_string(),
            "[        1234 ns] ring-crossing     demand=1 ra=2"
        );
    }
}
