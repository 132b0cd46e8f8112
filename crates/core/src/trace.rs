//! Decision-event tracing: a bounded, lock-cheap ring buffer of structured
//! events from both layers of the stack.
//!
//! Design:
//!
//! * **Disabled by default.** When tracing is off, an emit site costs one
//!   relaxed atomic load. Hot paths hoist that single load and pass the
//!   resulting `bool` down, so a read performs at most one atomic check.
//! * **Per-thread buffers.** When enabled, events land in a thread-local
//!   buffer (registered with the log at first use) and are flushed to the
//!   shared ring in batches, so emitting threads almost never contend.
//! * **Bounded with drop-oldest.** The shared ring holds at most
//!   `capacity` events; overflow evicts the oldest and bumps a
//!   dropped-events counter, so a run can never OOM on its own telemetry.
//! * **Deterministic timestamps.** Every event carries the emitting
//!   thread's *virtual* clock value plus a global sequence number, so
//!   traces are diff-able across runs of a deterministic workload.

use std::cell::RefCell;
use std::collections::{HashMap, VecDeque};
use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;
use simclock::Counter;
use simos::{InodeId, OsTraceEvent, OsTraceSink};

use crate::metrics::ReadClass;
use crate::ring::FlushReason;
use predict::AccessPattern;

/// Default ring capacity (events).
pub const DEFAULT_TRACE_CAPACITY: usize = 64 * 1024;

/// Events a thread buffers locally before flushing to the shared ring.
const FLUSH_BATCH: usize = 64;

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
    /// The runtime memory watcher evicted a file.
    LibEvict {
        /// Evicted file.
        ino: InodeId,
        /// Resident pages dropped.
        pages: u64,
    },
    /// CROSS-OS `readahead_info` call (bridged from the OS layer).
    RaInfoCall {
        /// File targeted.
        ino: InodeId,
        /// First page of the range.
        start_page: u64,
        /// Pages in the range.
        pages: u64,
        /// Pages already cached.
        cached_pages: u64,
        /// Pages newly initiated.
        initiated_pages: u64,
    },
    /// OS heuristic readahead issued/grew a window (bridged).
    RaWindowGrow {
        /// File the window belongs to.
        ino: InodeId,
        /// First page of the window.
        start_page: u64,
        /// Window size, pages.
        window_pages: u64,
    },
    /// OS reclaim pass (bridged).
    OsReclaim {
        /// Pages reclaim wanted to free.
        target_pages: u64,
        /// Pages it freed.
        freed_pages: u64,
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
    /// A submission batch was flushed to the vectored OS path.
    BatchFlushed {
        /// Entries the batch carried.
        runs: u64,
        /// Pages the entries covered.
        pages: u64,
        /// What triggered the flush.
        reason: FlushReason,
    },
    /// One combined ring crossing (bridged): demand reads and staged
    /// prefetch entries submitted as a single vectored syscall.
    RingCrossing {
        /// Demand-read entries the crossing carried.
        demand_entries: u64,
        /// Staged prefetch entries piggybacked on the crossing.
        ra_entries: u64,
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
    /// The adaptive engine's duel crowned a new owner for a descriptor's
    /// prefetch decisions (the per-file engine-selection timeline).
    EngineOwner {
        /// File whose descriptor changed owners.
        ino: InodeId,
        /// Stable name of the engine now owning decisions
        /// ([`predict::EngineKind::name`]).
        engine: &'static str,
    },
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
            TraceEventKind::RaInfoCall { .. } => "ra-info-call",
            TraceEventKind::RaWindowGrow { .. } => "ra-window-grow",
            TraceEventKind::OsReclaim { .. } => "os-reclaim",
            TraceEventKind::PrefetchRetry { .. } => "prefetch-retry",
            TraceEventKind::PrefetchAbandoned { .. } => "prefetch-abandoned",
            TraceEventKind::VisibilityDowngraded { .. } => "visibility-downgraded",
            TraceEventKind::ReadError { .. } => "read-error",
            TraceEventKind::BatchFlushed { .. } => "batch-flushed",
            TraceEventKind::RingCrossing { .. } => "ring-crossing",
            TraceEventKind::RingSpecIssued { .. } => "ring-spec-issued",
            TraceEventKind::EngineOwner { .. } => "engine-owner",
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
            TraceEventKind::RaInfoCall {
                ino,
                start_page,
                pages,
                cached_pages,
                initiated_pages,
            } => write!(
                f,
                "ino={} pages={}+{} cached={} initiated={}",
                ino.0, start_page, pages, cached_pages, initiated_pages
            ),
            TraceEventKind::RaWindowGrow {
                ino,
                start_page,
                window_pages,
            } => write!(f, "ino={} window={}+{}", ino.0, start_page, window_pages),
            TraceEventKind::OsReclaim {
                target_pages,
                freed_pages,
            } => write!(f, "target={target_pages} freed={freed_pages}"),
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
            TraceEventKind::BatchFlushed {
                runs,
                pages,
                reason,
            } => {
                write!(f, "runs={} pages={} reason={}", runs, pages, reason.name())
            }
            TraceEventKind::RingCrossing {
                demand_entries,
                ra_entries,
            } => write!(f, "demand={demand_entries} ra={ra_entries}"),
            TraceEventKind::RingSpecIssued {
                ino,
                start_page,
                pages,
            } => write!(f, "ino={} pages={}+{}", ino.0, start_page, pages),
            TraceEventKind::EngineOwner { ino, engine } => {
                write!(f, "ino={} engine={engine}", ino.0)
            }
        }
    }
}

type LocalBuffer = Arc<Mutex<Vec<TraceEvent>>>;

thread_local! {
    /// This thread's buffer per trace log (keyed by log id). Buffers are
    /// *also* registered with the owning log, so `snapshot()` can collect
    /// events from threads that never flushed. Entries of dropped logs are
    /// pruned when the thread registers with a new log (see `emit`).
    static LOCAL_BUFFERS: RefCell<HashMap<u64, LocalBuffer>> = RefCell::new(HashMap::new());
}

static NEXT_LOG_ID: AtomicU64 = AtomicU64::new(0);

/// The shared, bounded trace sink.
#[derive(Debug)]
pub struct TraceLog {
    id: u64,
    enabled: AtomicBool,
    capacity: usize,
    seq: AtomicU64,
    ring: Mutex<VecDeque<TraceEvent>>,
    buffers: Mutex<Vec<LocalBuffer>>,
    dropped: Counter,
}

impl Default for TraceLog {
    fn default() -> Self {
        Self::new(DEFAULT_TRACE_CAPACITY)
    }
}

impl TraceLog {
    /// A disabled log bounded at `capacity` events.
    pub fn new(capacity: usize) -> Self {
        Self {
            id: NEXT_LOG_ID.fetch_add(1, Ordering::Relaxed),
            enabled: AtomicBool::new(false),
            capacity: capacity.max(1),
            seq: AtomicU64::new(0),
            ring: Mutex::new(VecDeque::new()),
            buffers: Mutex::new(Vec::new()),
            dropped: Counter::new(),
        }
    }

    /// Turns tracing on or off. Off is the default; while off, emit sites
    /// cost one relaxed load.
    pub fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Ordering::Relaxed);
    }

    /// Whether tracing is currently on — the one atomic op hot paths pay.
    pub fn is_enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Events evicted from the ring because it was full.
    pub fn dropped(&self) -> u64 {
        self.dropped.get()
    }

    /// Ring capacity in events.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Records one event at virtual time `ts_ns`. No-op while disabled.
    pub fn emit(&self, ts_ns: u64, kind: TraceEventKind) {
        if !self.is_enabled() {
            return;
        }
        let event = TraceEvent {
            ts_ns,
            seq: self.seq.fetch_add(1, Ordering::Relaxed),
            kind,
        };
        let buffer = LOCAL_BUFFERS.with(|map| {
            let mut map = map.borrow_mut();
            if let Some(buffer) = map.get(&self.id) {
                return Arc::clone(buffer);
            }
            // This thread's first event into this log. A live log holds a
            // second reference to each of its buffers, so a buffer only
            // this map still references belongs to a dropped log: release
            // those here instead of keeping one per log ever emitted into.
            map.retain(|_, buffer| Arc::strong_count(buffer) > 1);
            let buffer: LocalBuffer = Arc::new(Mutex::new(Vec::new()));
            self.buffers.lock().push(Arc::clone(&buffer));
            map.insert(self.id, Arc::clone(&buffer));
            buffer
        });
        let mut local = buffer.lock();
        local.push(event);
        if local.len() >= FLUSH_BATCH {
            let batch: Vec<TraceEvent> = local.drain(..).collect();
            drop(local);
            self.push_batch(batch);
        }
    }

    fn push_batch(&self, batch: Vec<TraceEvent>) {
        let mut ring = self.ring.lock();
        for event in batch {
            if ring.len() == self.capacity {
                ring.pop_front();
                self.dropped.incr();
            }
            ring.push_back(event);
        }
    }

    /// Flushes every thread's buffer into the ring and returns the
    /// surviving events ordered by `(ts_ns, seq)`.
    pub fn snapshot(&self) -> Vec<TraceEvent> {
        let buffers: Vec<LocalBuffer> = self.buffers.lock().clone();
        for buffer in buffers {
            let batch: Vec<TraceEvent> = buffer.lock().drain(..).collect();
            if !batch.is_empty() {
                self.push_batch(batch);
            }
        }
        let mut events: Vec<TraceEvent> = self.ring.lock().iter().copied().collect();
        events.sort_by_key(|e| (e.ts_ns, e.seq));
        events
    }

    /// Drops all buffered events (the dropped counter is kept).
    pub fn clear(&self) {
        let buffers: Vec<LocalBuffer> = self.buffers.lock().clone();
        for buffer in buffers {
            buffer.lock().clear();
        }
        self.ring.lock().clear();
    }
}

impl OsTraceSink for TraceLog {
    fn enabled(&self) -> bool {
        self.is_enabled()
    }

    fn emit_os_event(&self, ts_ns: u64, event: OsTraceEvent) {
        let kind = match event {
            OsTraceEvent::RaInfoCall {
                ino,
                start_page,
                pages,
                cached_pages,
                initiated_pages,
            } => TraceEventKind::RaInfoCall {
                ino,
                start_page,
                pages,
                cached_pages,
                initiated_pages,
            },
            OsTraceEvent::RaWindowGrow {
                ino,
                start_page,
                window_pages,
            } => TraceEventKind::RaWindowGrow {
                ino,
                start_page,
                window_pages,
            },
            OsTraceEvent::OsReclaim {
                target_pages,
                freed_pages,
            } => TraceEventKind::OsReclaim {
                target_pages,
                freed_pages,
            },
            OsTraceEvent::ReadBatch {
                demand_entries,
                ra_entries,
            } => TraceEventKind::RingCrossing {
                demand_entries,
                ra_entries,
            },
        };
        self.emit(ts_ns, kind);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn evict_event(pages: u64) -> TraceEventKind {
        TraceEventKind::LibEvict {
            ino: InodeId(0),
            pages,
        }
    }

    #[test]
    fn disabled_log_records_nothing() {
        let log = TraceLog::new(16);
        log.emit(1, evict_event(1));
        assert!(log.snapshot().is_empty());
        assert_eq!(log.dropped(), 0);
    }

    #[test]
    fn events_survive_in_timestamp_order() {
        let log = TraceLog::new(1024);
        log.set_enabled(true);
        log.emit(30, evict_event(3));
        log.emit(10, evict_event(1));
        log.emit(20, evict_event(2));
        let events = log.snapshot();
        assert_eq!(events.len(), 3);
        let ts: Vec<u64> = events.iter().map(|e| e.ts_ns).collect();
        assert_eq!(ts, vec![10, 20, 30]);
    }

    #[test]
    fn overflow_drops_oldest_and_counts() {
        let log = TraceLog::new(100);
        log.set_enabled(true);
        for i in 0..500u64 {
            log.emit(i, evict_event(i));
        }
        let events = log.snapshot();
        assert_eq!(events.len(), 100);
        assert!(log.dropped() >= 500 - 100 - FLUSH_BATCH as u64);
        // The newest events survive.
        let last = events.last().unwrap();
        assert_eq!(last.ts_ns, 499);
        // And every survivor is newer than every dropped event's window.
        assert!(events.iter().all(|e| e.ts_ns >= 500 - 100 - 64));
    }

    #[test]
    fn snapshot_collects_other_threads_buffers() {
        let log = Arc::new(TraceLog::new(1024));
        log.set_enabled(true);
        let log2 = Arc::clone(&log);
        std::thread::spawn(move || {
            // Fewer than FLUSH_BATCH events: they stay in the thread-local
            // buffer until snapshot() collects them.
            for i in 0..10u64 {
                log2.emit(i, evict_event(i));
            }
        })
        .join()
        .unwrap();
        assert_eq!(log.snapshot().len(), 10);
    }

    #[test]
    fn dropped_logs_release_their_thread_local_buffers() {
        // A dedicated thread, so the map starts empty whatever ran before.
        std::thread::spawn(|| {
            for i in 0..100u64 {
                let log = TraceLog::new(16);
                log.set_enabled(true);
                log.emit(i, evict_event(i));
            }
            // Only the last log's buffer may linger (until the next
            // registration prunes it).
            let live = LOCAL_BUFFERS.with(|map| map.borrow().len());
            assert!(live <= 1, "{live} buffers outlived their logs");
        })
        .join()
        .unwrap();
    }

    #[test]
    fn os_sink_bridges_events() {
        let log = TraceLog::new(64);
        log.set_enabled(true);
        log.emit_os_event(
            5,
            OsTraceEvent::OsReclaim {
                target_pages: 10,
                freed_pages: 8,
            },
        );
        let events = log.snapshot();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].kind.name(), "os-reclaim");
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
    }
}
