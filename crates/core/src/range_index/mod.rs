//! Per-file range index for CROSS-LIB's cache-state view (§4.5).
//!
//! The paper's range tree — nodes with embedded presence bitmaps and
//! per-node locks, so non-conflicting readers of one shared file never
//! serialize — is [`BPlusRangeIndex`]: one node per [`NODE_PAGES`]-region,
//! holding the region's presence bits and its own lock, routed by a hash
//! directory under one latch whose shared side covers lookups, charges and
//! bit writes. The read path and the runtime call its inherent methods
//! directly.
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
    /// The index's own levels: 0 = empty, 1 = a lone node, 2 = the
    /// region directory over nodes. A hash directory has no height, and
    /// nothing charges for routing.
    pub depth: u64,
    /// Region nodes allocated.
    pub leaves: u64,
    /// Optimistic reads that failed validation and retried.
    pub optimistic_retries: u64,
}

impl IndexStats {
    /// Folds another file's stats into a fleet-wide aggregate: depth takes
    /// the maximum, everything else sums.
    pub fn absorb(&mut self, other: &IndexStats) {
        self.depth = self.depth.max(other.depth);
        self.leaves += other.leaves;
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
            optimistic_retries: 5,
        };
        total.absorb(&IndexStats {
            depth: 4,
            leaves: 7,
            optimistic_retries: 1,
        });
        assert_eq!(
            total,
            IndexStats {
                depth: 4,
                leaves: 10,
                optimistic_retries: 6,
            }
        );
    }
}
