//! Per-file range index for CROSS-LIB's cache-state view (§4.5).
//!
//! The paper's range tree — per-range locks with embedded presence bitmaps
//! so non-conflicting readers of one shared file never serialize — is
//! [`BPlusRangeIndex`]: dynamically split/merged leaves, each with its own
//! bitmap and lock, routed by std's ordered map under a short topology
//! latch, with optimistic lock coupling. The read path and the runtime
//! call its inherent methods directly.
//!
//! [`RangeTree`](crate::range_tree::RangeTree), a flat fixed-stride node
//! array, is the reference model the property and stress suites compare
//! it against; nothing on the read path constructs one. Both charge virtual time in identical
//! per-[`NODE_PAGES`]-region quanta, so a single-threaded run ticks
//! byte-identically on either; they differ only in real-machine data
//! layout and in how *contended* (multi-threaded) acquisitions are
//! modeled — the B+ index's optimistic readers pay a bounded retry
//! penalty instead of queueing behind in-service writers.

pub mod bitmap;
mod bplus;

pub use bplus::BPlusRangeIndex;

/// Pages per charging region: 1024 pages = 4 MiB.
pub const NODE_PAGES: u64 = 1024;

/// Contention regime for a range-index operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LockScope {
    /// Charge per-node locks (scalable path).
    PerNode,
    /// Charge the single whole-file lock (baseline path).
    WholeFile,
}

/// Structural statistics of one file's range index.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IndexStats {
    /// The index's own levels: 0 = empty, 1 = a lone leaf, 2 = routing
    /// map over leaves. The map's internal height is std's business: it
    /// is not exposed and nothing charges for it.
    pub depth: u64,
    /// Live leaves.
    pub leaves: u64,
    /// Leaf splits performed: new leaves that continue a contiguous run
    /// because the span cap chopped it.
    pub splits: u64,
    /// Leaf absorptions performed.
    pub merges: u64,
    /// Optimistic reads that failed validation and retried.
    pub optimistic_retries: u64,
}

impl IndexStats {
    /// Folds another file's stats into a fleet-wide aggregate: depth takes
    /// the maximum, everything else sums.
    pub fn absorb(&mut self, other: &IndexStats) {
        self.depth = self.depth.max(other.depth);
        self.leaves += other.leaves;
        self.splits += other.splits;
        self.merges += other.merges;
        self.optimistic_retries += other.optimistic_retries;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stats_absorb_sums_and_maxes() {
        let mut total = IndexStats {
            depth: 2,
            leaves: 3,
            splits: 1,
            merges: 0,
            optimistic_retries: 5,
        };
        total.absorb(&IndexStats {
            depth: 4,
            leaves: 7,
            splits: 2,
            merges: 3,
            optimistic_retries: 1,
        });
        assert_eq!(
            total,
            IndexStats {
                depth: 4,
                leaves: 10,
                splits: 3,
                merges: 3,
                optimistic_retries: 6,
            }
        );
    }
}
