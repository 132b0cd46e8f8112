//! Flat per-file range tree with embedded bitmaps: the reference model
//! for tests.
//!
//! The runtime's per-file cache view is the index in
//! [`range_index`](crate::range_index); nothing outside test code
//! constructs a [`RangeTree`]. It stays because it is small enough to be
//! obviously right: the property suite replays every op stream through
//! both and requires identical answers *and* identical virtual-time
//! charges, and the stress suite uses it as the blocking-reader baseline
//! the B+ index's optimistic lock coupling must beat.
//!
//! Each node covers a fixed [`NODE_PAGES`] (4 MiB) page range, embeds a
//! presence bitmap and carries its own lock. Two contention regimes are
//! modeled, selected per call:
//!
//! * **per-node**: virtual-time lock charges go to the touched nodes'
//!   [`RwContention`] resources — non-overlapping ranges scale;
//! * **whole-file**: all charges go to one per-file resource, the
//!   single-bitmap-lock bottleneck of Figure 6.

use std::collections::BTreeMap;
use std::sync::{Arc, OnceLock};

use parking_lot::RwLock;
use simclock::{CostModel, Histogram, RwContention, ThreadClock};

use crate::range_index::bitmap::PageBitmap;
use crate::range_index::{LockScope, NODE_PAGES};

/// One range node: word-at-a-time presence bits plus its contention model.
#[derive(Debug)]
struct Node {
    state: RwLock<PageBitmap>,
    lock_model: RwContention,
}

impl Node {
    fn new() -> Self {
        Self {
            state: RwLock::new(PageBitmap::new()),
            lock_model: RwContention::new("range-node"),
        }
    }
}

/// The concurrent per-file range tree.
///
/// # Example
///
/// ```
/// use crossprefetch::{LockScope, RangeTree};
/// use simclock::{CostModel, GlobalClock, ThreadClock};
/// use std::sync::Arc;
///
/// let tree = RangeTree::new();
/// let costs = CostModel::default();
/// let mut clock = ThreadClock::new(Arc::new(GlobalClock::new()));
///
/// tree.mark_cached(&mut clock, &costs, LockScope::PerNode, 10, 20);
/// assert_eq!(
///     tree.missing_in(&mut clock, &costs, LockScope::PerNode, 0, 30),
///     vec![(0, 10), (20, 30)],
/// );
/// ```
#[derive(Debug)]
pub struct RangeTree {
    /// Sparse map of stride index → node: only touched strides allocate,
    /// so a mark at a huge offset is O(1) rather than materializing every
    /// intermediate node.
    nodes: RwLock<BTreeMap<u64, std::sync::Arc<Node>>>,
    whole_file_lock: RwContention,
    wait_hist: OnceLock<Arc<Histogram>>,
}

impl RangeTree {
    /// Creates an empty tree.
    pub fn new() -> Self {
        Self {
            nodes: RwLock::new(BTreeMap::new()),
            whole_file_lock: RwContention::new("lib-file-bitmap"),
            wait_hist: OnceLock::new(),
        }
    }

    /// Installs a shared histogram that every lock acquisition records its
    /// wait into. First call wins; later calls are ignored.
    pub fn set_wait_histogram(&self, hist: Arc<Histogram>) {
        let _ = self.wait_hist.set(hist);
    }

    fn node(&self, index: u64) -> std::sync::Arc<Node> {
        {
            let nodes = self.nodes.read();
            if let Some(node) = nodes.get(&index) {
                return std::sync::Arc::clone(node);
            }
        }
        let mut nodes = self.nodes.write();
        std::sync::Arc::clone(
            nodes
                .entry(index)
                .or_insert_with(|| std::sync::Arc::new(Node::new())),
        )
    }

    /// Stride nodes allocated so far (the sparse-file regression guard).
    pub fn node_count(&self) -> u64 {
        self.nodes.read().len() as u64
    }

    fn charge(
        &self,
        clock: &mut ThreadClock,
        costs: &CostModel,
        scope: LockScope,
        node: &Node,
        write: bool,
        pages: u64,
    ) {
        let hold = costs.range_tree_op_ns + costs.bitmap_scan_ns(pages);
        let access = match (scope, write) {
            (LockScope::PerNode, false) => node.lock_model.read(clock.now(), hold),
            (LockScope::PerNode, true) => node.lock_model.write(clock.now(), hold),
            (LockScope::WholeFile, false) => self.whole_file_lock.read(clock.now(), hold),
            (LockScope::WholeFile, true) => self.whole_file_lock.write(clock.now(), hold),
        };
        if let Some(hist) = self.wait_hist.get() {
            hist.record(access.wait_ns);
        }
        clock.advance_to(access.end_ns);
        if access.wait_ns > 0 {
            crate::span::record_leaf(
                crate::span::SpanKind::LibTreeLockWait,
                access.wait_ns,
                access.end_ns,
            );
        }
    }

    /// Marks `[start, end)` as cached in the user-level view. Returns pages
    /// newly marked.
    ///
    /// The hot path — re-marking pages that are already marked, which
    /// happens on every cached read — takes only the *shared* side of the
    /// node lock; the exclusive side is paid just when bits actually
    /// change. Without this, threads hammering one hot node (zipfian
    /// scans) would serialize on redundant writes.
    pub fn mark_cached(
        &self,
        clock: &mut ThreadClock,
        costs: &CostModel,
        scope: LockScope,
        start: u64,
        end: u64,
    ) -> u64 {
        let mut newly = 0;
        let mut page = start;
        while page < end {
            let idx = page / NODE_PAGES;
            let upto = end.min((idx + 1) * NODE_PAGES);
            let node = self.node(idx);
            let (local_start, local_end) = (page % NODE_PAGES, (upto - 1) % NODE_PAGES + 1);
            let already = node.state.read().contains_all(local_start, local_end);
            self.charge(clock, costs, scope, &node, !already, upto - page);
            if !already {
                newly += node.state.write().set_range(local_start, local_end);
            }
            page = upto;
        }
        newly
    }

    /// Returns the sub-ranges of `[start, end)` *not* marked cached.
    pub fn missing_in(
        &self,
        clock: &mut ThreadClock,
        costs: &CostModel,
        scope: LockScope,
        start: u64,
        end: u64,
    ) -> Vec<(u64, u64)> {
        let mut missing = Vec::new();
        let mut open: Option<u64> = None;
        let mut page = start;
        while page < end {
            let idx = page / NODE_PAGES;
            let upto = end.min((idx + 1) * NODE_PAGES);
            let node = self.node(idx);
            self.charge(clock, costs, scope, &node, false, upto - page);
            let base = idx * NODE_PAGES;
            node.state.read().collect_missing(
                page - base,
                upto - base,
                base,
                &mut open,
                &mut missing,
            );
            page = upto;
        }
        if let Some(s) = open {
            missing.push((s, end));
        }
        missing
    }

    /// Pages marked cached within `[start, end)`.
    pub fn cached_in(
        &self,
        clock: &mut ThreadClock,
        costs: &CostModel,
        scope: LockScope,
        start: u64,
        end: u64,
    ) -> u64 {
        let total = end.saturating_sub(start);
        let missing: u64 = self
            .missing_in(clock, costs, scope, start, end)
            .iter()
            .map(|&(s, e)| e - s)
            .sum();
        total - missing
    }

    /// Clears the whole user-level view (after CROSS-LIB evicts the file).
    /// Returns pages cleared.
    ///
    /// Nodes whose bitmap was never populated carry no state worth
    /// scanning: a cheap shared peek skips the exclusive-lock charge for
    /// them, so clearing a sparse view is not billed as a full-file scan.
    pub fn clear(&self, clock: &mut ThreadClock, costs: &CostModel, scope: LockScope) -> u64 {
        let nodes: Vec<_> = self.nodes.read().values().cloned().collect();
        let mut cleared = 0;
        for node in &nodes {
            if !node.state.read().is_allocated() {
                continue;
            }
            self.charge(clock, costs, scope, node, true, NODE_PAGES);
            cleared += node.state.write().clear_all();
        }
        cleared
    }

    /// Total pages marked cached.
    pub fn resident(&self) -> u64 {
        self.nodes
            .read()
            .values()
            .map(|n| n.state.read().resident())
            .sum()
    }

    /// Aggregate wait time across per-node locks plus the whole-file lock.
    pub fn lock_wait_ns(&self) -> u64 {
        let node_wait: u64 = self
            .nodes
            .read()
            .values()
            .map(|n| n.lock_model.total_wait_ns())
            .sum();
        node_wait + self.whole_file_lock.total_wait_ns()
    }

    /// Wait time on the whole-file lock only.
    pub fn whole_file_wait_ns(&self) -> u64 {
        self.whole_file_lock.total_wait_ns()
    }
}

impl Default for RangeTree {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simclock::GlobalClock;
    use std::sync::Arc;

    fn clock() -> ThreadClock {
        ThreadClock::new(Arc::new(GlobalClock::new()))
    }

    fn costs() -> CostModel {
        CostModel::default()
    }

    #[test]
    fn mark_and_query_round_trip() {
        let tree = RangeTree::new();
        let mut c = clock();
        let newly = tree.mark_cached(&mut c, &costs(), LockScope::PerNode, 10, 20);
        assert_eq!(newly, 10);
        assert_eq!(
            tree.missing_in(&mut c, &costs(), LockScope::PerNode, 0, 30),
            vec![(0, 10), (20, 30)]
        );
        assert_eq!(
            tree.cached_in(&mut c, &costs(), LockScope::PerNode, 0, 30),
            10
        );
    }

    #[test]
    fn remark_is_idempotent() {
        let tree = RangeTree::new();
        let mut c = clock();
        tree.mark_cached(&mut c, &costs(), LockScope::PerNode, 0, 100);
        let again = tree.mark_cached(&mut c, &costs(), LockScope::PerNode, 0, 100);
        assert_eq!(again, 0);
        assert_eq!(tree.resident(), 100);
    }

    #[test]
    fn ranges_spanning_nodes_work() {
        let tree = RangeTree::new();
        let mut c = clock();
        let start = NODE_PAGES - 5;
        let end = NODE_PAGES + 5;
        tree.mark_cached(&mut c, &costs(), LockScope::PerNode, start, end);
        assert_eq!(tree.resident(), 10);
        assert!(tree
            .missing_in(&mut c, &costs(), LockScope::PerNode, start, end)
            .is_empty());
    }

    #[test]
    fn clear_resets_everything() {
        let tree = RangeTree::new();
        let mut c = clock();
        tree.mark_cached(&mut c, &costs(), LockScope::PerNode, 0, 2 * NODE_PAGES);
        assert_eq!(
            tree.clear(&mut c, &costs(), LockScope::PerNode),
            2 * NODE_PAGES
        );
        assert_eq!(tree.resident(), 0);
    }

    #[test]
    fn per_node_scope_scales_whole_file_scope_serializes() {
        // Two "threads" (clocks) writing to disjoint nodes: under the
        // whole-file scope the second queues behind the first; under the
        // per-node scope they proceed in parallel.
        let tree_scalable = RangeTree::new();
        let tree_serial = RangeTree::new();
        let costs = costs();

        let mut t1 = clock();
        let mut t2 = clock();
        tree_scalable.mark_cached(&mut t1, &costs, LockScope::PerNode, 0, NODE_PAGES);
        tree_scalable.mark_cached(
            &mut t2,
            &costs,
            LockScope::PerNode,
            NODE_PAGES,
            2 * NODE_PAGES,
        );
        assert_eq!(tree_scalable.lock_wait_ns(), 0, "disjoint nodes: no waits");

        let mut s1 = clock();
        let mut s2 = clock();
        tree_serial.mark_cached(&mut s1, &costs, LockScope::WholeFile, 0, NODE_PAGES);
        tree_serial.mark_cached(
            &mut s2,
            &costs,
            LockScope::WholeFile,
            NODE_PAGES,
            2 * NODE_PAGES,
        );
        assert!(
            tree_serial.whole_file_wait_ns() > 0,
            "whole-file lock must serialize disjoint writers"
        );
    }

    #[test]
    fn concurrent_real_threads_account_exactly() {
        let tree = Arc::new(RangeTree::new());
        let costs = Arc::new(costs());
        crossbeam::scope(|scope| {
            for t in 0..8u64 {
                let tree = Arc::clone(&tree);
                let costs = Arc::clone(&costs);
                scope.spawn(move |_| {
                    let mut c = clock();
                    let base = t * NODE_PAGES;
                    tree.mark_cached(&mut c, &costs, LockScope::PerNode, base, base + 512);
                });
            }
        })
        .unwrap();
        assert_eq!(tree.resident(), 8 * 512);
    }

    #[test]
    fn sparse_mark_at_huge_offset_allocates_one_node() {
        // Regression: the old Vec-backed arena padded every intermediate
        // stride up to the touched index, so one mark 128 GiB in
        // materialized ~33M nodes. The sparse map allocates exactly the
        // strides touched.
        let tree = RangeTree::new();
        let mut c = clock();
        let huge = 1u64 << 35;
        tree.mark_cached(&mut c, &costs(), LockScope::PerNode, huge, huge + 3);
        assert_eq!(tree.node_count(), 1);
        assert_eq!(tree.resident(), 3);
        assert_eq!(
            tree.missing_in(&mut c, &costs(), LockScope::PerNode, huge, huge + 4),
            vec![(huge + 3, huge + 4)]
        );
    }

    #[test]
    fn missing_in_empty_tree_is_whole_range() {
        let tree = RangeTree::new();
        let mut c = clock();
        assert_eq!(
            tree.missing_in(&mut c, &costs(), LockScope::PerNode, 5, 10),
            vec![(5, 10)]
        );
    }
}
