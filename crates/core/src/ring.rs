//! A bounded per-slot submission queue (io_uring's SQ half): entries
//! accumulate per slot and leave as whole batches on size or virtual-time
//! deadline.
//!
//! No runtime path stages into it. A planned run is either issued by a
//! worker through `readahead_info` or rides the miss that starts it on the
//! ring crossing (`Os::read_batch`, DESIGN §13). Its one user is the
//! benchmark's host-cost probe (`benchmark/src/layers.rs::probe_ring`),
//! which times `push` and `drain_due`.

use parking_lot::Mutex;

/// Why a submission batch left its queue slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlushReason {
    /// The batch reached its entry capacity.
    Full,
    /// The batch sat open past its virtual-time deadline.
    Deadline,
}

/// A batch leaving the queue: its entries, why it flushed, and the
/// virtual time the batch was *opened* (its deadline base).
#[derive(Debug)]
pub struct Flush<T> {
    /// The drained batch entries.
    pub entries: Vec<T>,
    /// Why the batch flushed.
    pub reason: FlushReason,
    /// Virtual time the flushed batch was opened.
    pub opened_ns: u64,
}

/// One open batch: accumulated entries plus the virtual time the batch was
/// opened (its deadline base).
#[derive(Debug)]
struct Slot<T> {
    entries: Vec<T>,
    opened_ns: u64,
}

/// A bounded per-slot submission queue: entries accumulate per slot and
/// flush as whole batches when a slot fills ([`FlushReason::Full`]) or when
/// the batch ages past the deadline ([`FlushReason::Deadline`]). Timing-free
/// bookkeeping: callers decide when to consult it.
#[derive(Debug)]
pub struct SubmissionQueue<T> {
    slots: Vec<Mutex<Slot<T>>>,
    max_entries: usize,
    deadline_ns: u64,
}

impl<T> SubmissionQueue<T> {
    /// A queue with `slots` slots, flushing at `max_entries` entries or
    /// `deadline_ns` virtual nanoseconds after a batch opens.
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
        }
    }

    /// Appends `item` to `slot`'s open batch (opening one at `now` if the
    /// slot was empty). Returns a whole batch when there is one to submit;
    /// the caller owns submitting it.
    ///
    /// If the slot's *existing* batch is already past its deadline, that
    /// batch flushes alone — billed [`FlushReason::Deadline`] against its
    /// own `opened_ns` — and `item` opens a fresh batch at `now`.
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
            return Some(expired);
        }
        if guard.entries.is_empty() {
            guard.opened_ns = now;
        }
        guard.entries.push(item);
        if guard.entries.len() < self.max_entries {
            return None;
        }
        Some(Flush {
            entries: std::mem::take(&mut guard.entries),
            reason: FlushReason::Full,
            opened_ns: guard.opened_ns,
        })
    }

    /// Drains every batch whose deadline has passed at `now`, returning
    /// `(slot, flush)` pairs in slot order (reason
    /// [`FlushReason::Deadline`], each carrying its own `opened_ns`).
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
        due
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
        // Nothing due yet.
        assert!(queue.drain_due(999).is_empty());
        let due = queue.drain_due(1_000);
        assert_eq!(due.len(), 1);
        assert_eq!(due[0].1.entries, vec![1]);
        assert_eq!(due[0].1.reason, FlushReason::Deadline);
        assert_eq!(due[0].1.opened_ns, 0);
        assert!(queue.drain_due(u64::MAX).is_empty());
    }

    #[test]
    fn late_push_flushes_expired_batch_alone() {
        // A push arriving past the open batch's deadline must flush the
        // *old* batch by itself (billed against its own opened_ns) and
        // stage the new item in a fresh batch opened at the push time.
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
        // Item 2 sits in a fresh batch opened at 5_000, due at 6_000.
        assert!(queue.drain_due(5_999).is_empty());
        let rest = queue.drain_due(6_000);
        assert_eq!(rest.len(), 1);
        assert_eq!(rest[0].1.entries, vec![2]);
        assert_eq!(rest[0].1.opened_ns, 5_000);
    }

    #[test]
    fn drain_due_empties_every_expired_slot() {
        let queue: SubmissionQueue<u64> = SubmissionQueue::new(3, 16, 1_000);
        queue.push(0, 0, 1);
        queue.push(2, 0, 2);
        queue.push(2, 0, 3);
        queue.push(1, 500, 4);
        let drained = queue.drain_due(1_000);
        assert_eq!(drained.len(), 2);
        assert_eq!(drained[0].0, 0);
        assert_eq!(drained[0].1.entries, vec![1]);
        assert_eq!(drained[1].0, 2);
        assert_eq!(drained[1].1.entries, vec![2, 3]);
        // The younger slot drains at its own deadline.
        let rest = queue.drain_due(1_500);
        assert_eq!((rest.len(), rest[0].0), (1, 1));
        assert!(queue.drain_due(u64::MAX).is_empty());
    }
}
