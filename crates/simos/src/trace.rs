//! OS-side trace export.
//!
//! The simulated OS does not know about CROSS-LIB's tracer (that would
//! invert the layering), so it emits structured events through an injected
//! [`OsTraceSink`]: decision events and the wait/service windows a traced
//! read spends inside the OS travel as one stream, and the receiver keeps
//! each in the view it belongs to. CROSS-LIB installs its `Tracer` as the
//! sink when a runtime boots; while no sink is installed or every view is
//! off, an emit site costs one `OnceLock` load and at most one relaxed
//! flag load.
//!
//! Decision events sit off the per-page hot path: `readahead_info` calls,
//! heuristic readahead window growth, reclaim passes and ring crossings.

use std::fmt;

use simfs::InodeId;

/// A structured OS-layer event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OsTraceEvent {
    /// One `readahead_info` call (CROSS-OS §4.4): what the caller asked
    /// about and what the fast path found/started.
    RaInfoCall {
        /// File the call targeted.
        ino: InodeId,
        /// First page of the requested range.
        start_page: u64,
        /// Pages in the requested range.
        pages: u64,
        /// Pages already cached.
        cached_pages: u64,
        /// Pages newly scheduled for prefetch.
        initiated_pages: u64,
    },
    /// The heuristic readahead state machine issued (or grew) a window.
    RaWindowGrow {
        /// File the window belongs to.
        ino: InodeId,
        /// First page of the new window.
        start_page: u64,
        /// Window size in pages.
        window_pages: u64,
    },
    /// One OS reclaim pass.
    OsReclaim {
        /// Pages reclaim wanted to free.
        target_pages: u64,
        /// Pages actually freed.
        freed_pages: u64,
    },
    /// One ring crossing ([`crate::Os::read_batch`]): demand reads and
    /// the known runs riding them submitted as a single vectored syscall.
    RingCrossing {
        /// Demand-read entries the crossing carried.
        demand_entries: u64,
        /// Rider entries the crossing carried.
        ra_entries: u64,
    },
    /// A wait or service window of `dur_ns` virtual nanoseconds, ending at
    /// the event's timestamp on the emitting thread's clock. Not a
    /// decision: the receiver attributes it to the read in flight.
    Window {
        /// What the window was.
        kind: OsSpanKind,
        /// Window length in virtual nanoseconds.
        dur_ns: u64,
    },
}

impl OsTraceEvent {
    /// Stable event-kind label (the trace schema's discriminator).
    pub fn name(&self) -> &'static str {
        match self {
            OsTraceEvent::RaInfoCall { .. } => "ra-info-call",
            OsTraceEvent::RaWindowGrow { .. } => "ra-window-grow",
            OsTraceEvent::OsReclaim { .. } => "os-reclaim",
            OsTraceEvent::RingCrossing { .. } => "ring-crossing",
            OsTraceEvent::Window { kind, .. } => kind.name(),
        }
    }
}

/// The payload half of a trace line (the label is [`OsTraceEvent::name`]).
impl fmt::Display for OsTraceEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            OsTraceEvent::RaInfoCall {
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
            OsTraceEvent::RaWindowGrow {
                ino,
                start_page,
                window_pages,
            } => write!(f, "ino={} window={}+{}", ino.0, start_page, window_pages),
            OsTraceEvent::OsReclaim {
                target_pages,
                freed_pages,
            } => write!(f, "target={target_pages} freed={freed_pages}"),
            OsTraceEvent::RingCrossing {
                demand_entries,
                ra_entries,
            } => write!(f, "demand={demand_entries} ra={ra_entries}"),
            OsTraceEvent::Window { dur_ns, .. } => write!(f, "dur={dur_ns}ns"),
        }
    }
}

/// Kinds of OS-side [`OsTraceEvent::Window`]s. Each names one wait or
/// service window measured on a thread's virtual clock; the receiving
/// layer decides how to attribute it (the CROSS-LIB critical-path analyzer
/// buckets lock waits, device service, and reclaim separately).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OsSpanKind {
    /// Blocked acquiring a per-inode cache-tree lock.
    TreeLockWait,
    /// Blocked acquiring a per-inode bitmap lock (CROSS-OS fast path).
    BitmapLockWait,
    /// Waited for in-flight prefetch I/O to cover the requested range.
    ReadyWait,
    /// Demand-fill (or ready-bypass re-read) device service window on the
    /// calling thread's clock.
    DeviceRead,
    /// Prefetch-class device service window. Always measured on a
    /// *detached* I/O clock — off the caller's critical path.
    DevicePrefetch,
    /// One whole reclaim pass on the calling thread's clock.
    ReclaimPass,
    /// A write-back flush's device window: synchronous (`fsync`, hard
    /// dirty limit) flushes land on the caller's clock, daemon flushes on
    /// a detached one.
    WritebackFlush,
    /// A cross-tier promotion copy (remote read + local write). Always
    /// measured off the demand path, on a worker or detached clock.
    TierPromote,
}

impl OsSpanKind {
    /// Stable label used in folded stacks and exemplar dumps.
    pub fn name(self) -> &'static str {
        match self {
            OsSpanKind::TreeLockWait => "os-tree-lock-wait",
            OsSpanKind::BitmapLockWait => "os-bitmap-lock-wait",
            OsSpanKind::ReadyWait => "os-ready-wait",
            OsSpanKind::DeviceRead => "os-device-read",
            OsSpanKind::DevicePrefetch => "os-device-prefetch",
            OsSpanKind::ReclaimPass => "os-reclaim-pass",
            OsSpanKind::WritebackFlush => "os-writeback-flush",
            OsSpanKind::TierPromote => "os-tier-promote",
        }
    }
}

/// Receiver for OS-layer trace events, installed via
/// [`crate::Os::set_trace_sink`].
pub trait OsTraceSink: Send + Sync + std::fmt::Debug {
    /// Cheap pre-check: emit sites skip event construction when false.
    fn enabled(&self) -> bool;

    /// Delivers one event stamped with the emitting thread's virtual time.
    fn emit(&self, ts_ns: u64, event: OsTraceEvent);
}
