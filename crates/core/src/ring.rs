//! Completion-driven submission/completion ring shared by prefetch and
//! demand reads (io_uring-style).
//!
//! PR 4 introduced per-worker submission queues as a prefetch-only
//! sidecar of [`crate::worker::WorkerPool`]; this module promotes them
//! into a first-class ring:
//!
//! * the [`SubmissionQueue`] is the SQ half — bounded per-worker slots
//!   accumulating planned runs that flush as whole batches on size,
//!   virtual-time deadline, or explicit drain;
//! * deadline flushes are driven by a *timer*, not read-path polling: a
//!   flush carries the batch's `opened_ns`, so the reactor dispatches it
//!   at `opened_ns + deadline_ns` in virtual time even when the
//!   application stream has gone idle (the PR 4 polled-deadline
//!   starvation fix);
//! * demand misses submit through the same ring — the read path drains
//!   staged prefetch entries and crosses them *with* the demand read in
//!   one vectored `Os::try_read_batch` call;
//! * a *known run* — the predictor asking, at the miss that starts a run,
//!   for the remainder it has learned always follows — crosses with that
//!   miss as demand-class entries (Foreactor's explicit speculation), and
//!   the run's later reads absorb with no crossing of their own.

use std::sync::atomic::{AtomicU64, Ordering};

use parking_lot::Mutex;

/// Why a submission batch left its queue slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlushReason {
    /// The batch reached its entry capacity.
    Full,
    /// The batch sat open past its virtual-time deadline.
    Deadline,
    /// An explicit drain (end of run, cache-view drop, bench boundary).
    Explicit,
}

impl FlushReason {
    /// Stable label used in traces and telemetry.
    pub fn name(self) -> &'static str {
        match self {
            FlushReason::Full => "full",
            FlushReason::Deadline => "deadline",
            FlushReason::Explicit => "explicit",
        }
    }
}

/// A batch leaving the queue: its entries, why it flushed, and the
/// virtual time the batch was *opened* — the deadline base the caller
/// must bill against (occupancy, flush-reason counters, and the timer
/// dispatch time all key off the flushed batch's own age, never the
/// event that triggered the flush).
#[derive(Debug)]
pub struct Flush<T> {
    /// The drained batch entries.
    pub entries: Vec<T>,
    /// Why the batch flushed.
    pub reason: FlushReason,
    /// Virtual time the flushed batch was opened.
    pub opened_ns: u64,
}

impl<T> Flush<T> {
    /// The virtual time this batch's deadline expires (its due time).
    pub fn due_ns(&self, deadline_ns: u64) -> u64 {
        self.opened_ns.saturating_add(deadline_ns)
    }
}

/// One open batch: accumulated entries plus the virtual time the batch was
/// opened (its deadline base).
#[derive(Debug)]
struct Slot<T> {
    entries: Vec<T>,
    opened_ns: u64,
}

/// A bounded per-worker submission queue: entries accumulate per slot and
/// flush as whole batches when a slot fills ([`FlushReason::Full`]), when
/// the batch ages past the deadline ([`FlushReason::Deadline`]), or on
/// explicit drain ([`FlushReason::Explicit`]).
///
/// The queue itself is timing-free bookkeeping — callers decide *when* to
/// consult it (the reactor timer checks [`SubmissionQueue::next_deadline_ns`],
/// one relaxed load, before paying any locking).
#[derive(Debug)]
pub struct SubmissionQueue<T> {
    slots: Vec<Mutex<Slot<T>>>,
    max_entries: usize,
    deadline_ns: u64,
    /// Earliest deadline over all open batches; `u64::MAX` when every slot
    /// is empty. A monotone hint (maintained with `fetch_min` on push and
    /// recomputed on drain), so the hot path can skip the slot locks.
    earliest_due_ns: AtomicU64,
}

impl<T> SubmissionQueue<T> {
    /// A queue with one slot per worker, flushing at `max_entries` entries
    /// or `deadline_ns` virtual nanoseconds after a batch opens.
    pub fn new(slots: usize, max_entries: usize, deadline_ns: u64) -> Self {
        Self {
            slots: (0..slots.max(1))
                .map(|_| {
                    Mutex::new(Slot {
                        entries: Vec::new(),
                        opened_ns: 0,
                    })
                })
                .collect(),
            max_entries: max_entries.max(1),
            deadline_ns,
            earliest_due_ns: AtomicU64::new(u64::MAX),
        }
    }

    /// Number of slots (one per worker).
    pub fn slots(&self) -> usize {
        self.slots.len()
    }

    /// Entry capacity per batch.
    pub fn max_entries(&self) -> usize {
        self.max_entries
    }

    /// The configured deadline window.
    pub fn deadline_ns(&self) -> u64 {
        self.deadline_ns
    }

    /// The earliest virtual time at which any open batch becomes due, or
    /// `u64::MAX` when no batch is open. One relaxed load.
    pub fn next_deadline_ns(&self) -> u64 {
        self.earliest_due_ns.load(Ordering::Relaxed)
    }

    /// Appends `item` to `slot`'s open batch (opening one at `now` if the
    /// slot was empty). Returns a whole batch when there is one to submit;
    /// the caller owns submitting it.
    ///
    /// If the slot's *existing* batch is already past its deadline, that
    /// batch flushes alone — billed [`FlushReason::Deadline`] against its
    /// own `opened_ns` — and `item` opens a fresh batch at `now`. (The
    /// pre-ring code appended the late item first and billed the flush
    /// against the new entry's timestamp, so the occupancy histogram and
    /// flush-reason counters charged the wrong batch.)
    pub fn push(&self, slot: usize, now: u64, item: T) -> Option<Flush<T>> {
        let mut guard = self.slots[slot % self.slots.len()].lock();
        if !guard.entries.is_empty() && now >= guard.opened_ns.saturating_add(self.deadline_ns) {
            let expired = Flush {
                entries: std::mem::take(&mut guard.entries),
                reason: FlushReason::Deadline,
                opened_ns: guard.opened_ns,
            };
            guard.entries.push(item);
            guard.opened_ns = now;
            drop(guard);
            self.recompute_due();
            return Some(expired);
        }
        if guard.entries.is_empty() {
            guard.opened_ns = now;
        }
        guard.entries.push(item);
        if guard.entries.len() >= self.max_entries {
            let full = Flush {
                entries: std::mem::take(&mut guard.entries),
                reason: FlushReason::Full,
                opened_ns: guard.opened_ns,
            };
            drop(guard);
            self.recompute_due();
            return Some(full);
        }
        let due = guard.opened_ns.saturating_add(self.deadline_ns);
        drop(guard);
        self.earliest_due_ns.fetch_min(due, Ordering::Relaxed);
        None
    }

    /// Drains every batch whose deadline has passed at `now`, returning
    /// `(slot, flush)` pairs in slot order (reason
    /// [`FlushReason::Deadline`], each carrying its own `opened_ns` so the
    /// reactor can fire the flush at the batch's due time).
    pub fn drain_due(&self, now: u64) -> Vec<(usize, Flush<T>)> {
        let mut due = Vec::new();
        for (idx, slot) in self.slots.iter().enumerate() {
            let mut guard = slot.lock();
            if !guard.entries.is_empty() && now >= guard.opened_ns.saturating_add(self.deadline_ns)
            {
                due.push((
                    idx,
                    Flush {
                        entries: std::mem::take(&mut guard.entries),
                        reason: FlushReason::Deadline,
                        opened_ns: guard.opened_ns,
                    },
                ));
            }
        }
        if !due.is_empty() {
            self.recompute_due();
        }
        due
    }

    /// Drains every open batch regardless of age, returning `(slot, flush)`
    /// pairs in slot order (the [`FlushReason::Explicit`] path).
    pub fn drain_all(&self) -> Vec<(usize, Flush<T>)> {
        let mut all = Vec::new();
        for (idx, slot) in self.slots.iter().enumerate() {
            let mut guard = slot.lock();
            if !guard.entries.is_empty() {
                all.push((
                    idx,
                    Flush {
                        entries: std::mem::take(&mut guard.entries),
                        reason: FlushReason::Explicit,
                        opened_ns: guard.opened_ns,
                    },
                ));
            }
        }
        self.earliest_due_ns.store(u64::MAX, Ordering::Relaxed);
        all
    }

    /// Recomputes the earliest-deadline hint from the open batches.
    fn recompute_due(&self) {
        let mut earliest = u64::MAX;
        for slot in &self.slots {
            let guard = slot.lock();
            if !guard.entries.is_empty() {
                earliest = earliest.min(guard.opened_ns.saturating_add(self.deadline_ns));
            }
        }
        self.earliest_due_ns.store(earliest, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn queue_flushes_when_full() {
        let queue: SubmissionQueue<u64> = SubmissionQueue::new(2, 3, 1_000_000);
        assert!(queue.push(0, 0, 1).is_none());
        assert!(queue.push(0, 10, 2).is_none());
        let flush = queue.push(0, 20, 3).expect("third push fills the batch");
        assert_eq!(flush.entries, vec![1, 2, 3]);
        assert_eq!(flush.reason, FlushReason::Full);
        assert_eq!(flush.opened_ns, 0, "full batch billed from its open time");
        // The slot restarts empty.
        assert!(queue.push(0, 30, 4).is_none());
    }

    #[test]
    fn queue_flushes_on_deadline() {
        let queue: SubmissionQueue<u64> = SubmissionQueue::new(1, 16, 1_000);
        assert!(queue.push(0, 0, 1).is_none());
        assert_eq!(queue.next_deadline_ns(), 1_000);
        // Nothing due yet.
        assert!(queue.drain_due(999).is_empty());
        let due = queue.drain_due(1_000);
        assert_eq!(due.len(), 1);
        assert_eq!(due[0].1.entries, vec![1]);
        assert_eq!(due[0].1.reason, FlushReason::Deadline);
        assert_eq!(due[0].1.opened_ns, 0);
        assert_eq!(queue.next_deadline_ns(), u64::MAX);
    }

    #[test]
    fn late_push_flushes_expired_batch_alone() {
        // A push arriving past the open batch's deadline must flush the
        // *old* batch by itself (billed against its own opened_ns) and
        // stage the new item in a fresh batch opened at the push time —
        // the pre-ring code lumped the late item into the expired batch
        // and aged the flush from the new entry's timestamp.
        let queue: SubmissionQueue<u64> = SubmissionQueue::new(1, 16, 1_000);
        assert!(queue.push(0, 0, 1).is_none());
        let flush = queue.push(0, 5_000, 2).expect("past-deadline push flushes");
        assert_eq!(
            flush.entries,
            vec![1],
            "late item must not join the expired batch"
        );
        assert_eq!(flush.reason, FlushReason::Deadline);
        assert_eq!(
            flush.opened_ns, 0,
            "billed against the expired batch's open time"
        );
        // Item 2 sits in a fresh batch opened at 5_000.
        assert_eq!(queue.next_deadline_ns(), 6_000);
        let rest = queue.drain_all();
        assert_eq!(rest.len(), 1);
        assert_eq!(rest[0].1.entries, vec![2]);
        assert_eq!(rest[0].1.opened_ns, 5_000);
    }

    #[test]
    fn drain_all_empties_every_slot() {
        let queue: SubmissionQueue<u64> = SubmissionQueue::new(3, 16, 1_000_000);
        queue.push(0, 0, 1);
        queue.push(2, 0, 2);
        queue.push(2, 0, 3);
        let drained = queue.drain_all();
        assert_eq!(drained.len(), 2);
        assert_eq!(drained[0].0, 0);
        assert_eq!(drained[0].1.entries, vec![1]);
        assert_eq!(drained[0].1.reason, FlushReason::Explicit);
        assert_eq!(drained[1].0, 2);
        assert_eq!(drained[1].1.entries, vec![2, 3]);
        assert!(queue.drain_all().is_empty());
        assert_eq!(queue.next_deadline_ns(), u64::MAX);
    }
}
