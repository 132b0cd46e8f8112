//! The owner lane: one thread's statistics updates are plain stores.
//!
//! Every statistic in this crate ([`Counter`], [`Histogram`],
//! [`GlobalClock`]) is a set of [`LaneWord`]s, each two atomic words: the
//! *owner* word and the *shared* word. At most one thread in the process
//! holds the owner lane at a time. It updates owner words with a relaxed
//! load and a store — no bus-locked read-modify-write, because nobody
//! else writes them. Every other thread uses `fetch_add` / `fetch_max` on
//! the shared word. Readers combine the two words (their sum, or their
//! max), so there is one writer per owner word and no update is lost.
//!
//! The first thread that updates a statistic claims the lane with an
//! Acquire CAS on a process-wide flag; a thread that finds it taken
//! stays on the shared lane for its lifetime. The owner gives the lane
//! up when it exits: its thread-local guard demotes the thread first,
//! then clears the flag with Release, so the next claimant's Acquire
//! sees every owner word the old owner stored.
//!
//! A run with one application thread makes that thread the owner, and it
//! pays plain `mov`s; multi-threaded runs pay what they paid before.
//!
//! [`Counter`]: crate::Counter
//! [`Histogram`]: crate::Histogram
//! [`GlobalClock`]: crate::GlobalClock

use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

/// Whether some live thread holds the owner lane.
static CLAIMED: AtomicBool = AtomicBool::new(false);

/// This thread's lane: not yet decided, owner, or shared.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Role {
    Undecided,
    Owner,
    Shared,
}

/// Thread-local guard that hands the lane back when its thread exits.
struct Lane(Cell<Role>);

impl Drop for Lane {
    fn drop(&mut self) {
        if self.0.get() == Role::Owner {
            self.0.set(Role::Shared);
            CLAIMED.store(false, Ordering::Release);
        }
    }
}

thread_local! {
    static LANE: Lane = const { Lane(Cell::new(Role::Undecided)) };
}

/// Whether the calling thread holds the owner lane, claiming it on the
/// thread's first call if no live thread does. A thread whose guard is
/// already gone (late in its exit) is on the shared lane.
#[inline]
pub(crate) fn owned() -> bool {
    LANE.try_with(|lane| match lane.0.get() {
        Role::Owner => true,
        Role::Shared => false,
        Role::Undecided => {
            let won = CLAIMED
                .compare_exchange(false, true, Ordering::Acquire, Ordering::Relaxed)
                .is_ok();
            lane.0.set(if won { Role::Owner } else { Role::Shared });
            won
        }
    })
    .unwrap_or(false)
}

/// One statistic word split by lane: the owner thread's word and the
/// word every other thread shares.
#[derive(Debug, Default)]
pub(crate) struct LaneWord {
    owner: AtomicU64,
    shared: AtomicU64,
}

impl LaneWord {
    /// Both words at zero.
    pub(crate) const fn new() -> Self {
        Self {
            owner: AtomicU64::new(0),
            shared: AtomicU64::new(0),
        }
    }

    /// Adds `n` on the lane `owner` names (the caller's [`owned`]).
    #[inline]
    pub(crate) fn add(&self, owner: bool, n: u64) {
        if owner {
            let word = self.owner.load(Ordering::Relaxed);
            self.owner.store(word.wrapping_add(n), Ordering::Relaxed);
        } else {
            self.shared.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Raises the lane's word to at least `n`. Release here pairs with
    /// the Acquire loads in [`LaneWord::max`], as the single-word mark's
    /// `fetch_max` / `load` did.
    #[inline]
    pub(crate) fn raise(&self, owner: bool, n: u64) {
        if owner {
            if n > self.owner.load(Ordering::Relaxed) {
                self.owner.store(n, Ordering::Release);
            }
        } else {
            self.shared.fetch_max(n, Ordering::AcqRel);
        }
    }

    /// The sum of both words (wrapping, as `fetch_add` wraps).
    pub(crate) fn sum(&self) -> u64 {
        self.owner
            .load(Ordering::Relaxed)
            .wrapping_add(self.shared.load(Ordering::Relaxed))
    }

    /// The larger of both words.
    pub(crate) fn max(&self) -> u64 {
        self.owner
            .load(Ordering::Acquire)
            .max(self.shared.load(Ordering::Acquire))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn both_lanes_sum_and_max() {
        let word = LaneWord::new();
        word.add(true, 3);
        word.add(false, 4);
        assert_eq!(word.sum(), 7);
        let high = LaneWord::new();
        high.raise(true, 10);
        high.raise(true, 5);
        high.raise(false, 7);
        assert_eq!(high.max(), 10);
        high.raise(false, 12);
        assert_eq!(high.max(), 12);
    }

    #[test]
    fn a_thread_keeps_its_lane() {
        let first = owned();
        for _ in 0..3 {
            assert_eq!(owned(), first);
        }
    }
}
