//! Range index: per-node locks over a directory of 4 MiB region nodes.
//!
//! The paper's §4.5 structure: nodes that carry embedded presence bitmaps
//! and per-node locks, so non-conflicting accessors of one file never
//! serialize. A node covers one [`NODE_PAGES`]-aligned region and holds its
//! pages' presence bits, as 16 atomic words, beside the virtual-time model
//! of its lock. How a page number finds its node is not part of that
//! contribution, so routing is a hash directory keyed by region: a lookup
//! is one hash probe. A region no mark has touched has no node; the first
//! mark inserts it.
//!
//! # Concurrency (real machine)
//!
//! One `RwLock` latch over the directory. Lookups, virtual-time charges
//! and bit writes run under its shared side; a bit write is a `fetch_or`
//! (a mark) or a `fetch_and` (a clear), and the pages it changed are the
//! popcount of the bits it changed. Only inserting a node — a mark's first
//! touch of its region — runs under the exclusive side. Nodes are never
//! removed, so a bit write never meets a structural change.
//!
//! # Contention model (virtual time)
//!
//! Every mark, query and clear charges per region chunk against the
//! chunk's node lock, exactly like the flat reference tree — same count,
//! same hold times — so single-threaded timelines are byte-identical
//! between the two. The difference is contended reads under
//! [`LockScope::PerNode`]: instead of queueing behind an in-service writer
//! (`RwContention::read`), an optimistic lookup validates, fails, and
//! retries, paying `min(range_index_retry_ns, blocking wait)`. A query of
//! a region with no node has no writer to meet and never waits. Routing
//! and node insertion are not charged: `range_tree_op_ns` already prices
//! the lookup.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

use parking_lot::{RwLock, RwLockWriteGuard};
use simclock::{CostModel, Counter, Histogram, RwContention, ThreadClock};
use simstore::wordwalk::{word_spans, WORD_BITS};
use simstore::BlockMap;

use super::bitmap::collect_missing;
use super::{IndexStats, LockScope, NODE_PAGES};

/// Presence words per region.
const REGION_WORDS: usize = (NODE_PAGES / WORD_BITS) as usize;

/// One [`NODE_PAGES`]-region node: its pages' presence bits and the
/// virtual-time model of its lock.
#[derive(Debug)]
struct Region {
    /// Presence bits: bit `i` of word `w` is the region's page `64w + i`.
    /// Set by Release `fetch_or`, read by Acquire loads: a reader that sees
    /// a page marked also sees what its marker wrote before marking it.
    bits: [AtomicU64; REGION_WORDS],
    lock_model: RwContention,
}

impl Default for Region {
    fn default() -> Self {
        Self {
            bits: Default::default(),
            lock_model: RwContention::new("range-node"),
        }
    }
}

impl Region {
    /// `(word, mask)` over the region-local pages `[start, end)`.
    fn spans(start: u64, end: u64) -> impl Iterator<Item = (usize, u64)> {
        word_spans(start % NODE_PAGES, end - start / NODE_PAGES * NODE_PAGES)
    }

    /// Whether every page of `[start, end)` (in this region) is marked.
    fn all_marked(&self, start: u64, end: u64) -> bool {
        Self::spans(start, end).all(|(w, mask)| self.bits[w].load(Ordering::Acquire) & mask == mask)
    }

    /// Pages of `[start, end)` (in this region) marked.
    fn marked(&self, start: u64, end: u64) -> u64 {
        Self::spans(start, end)
            .map(|(w, mask)| u64::from((self.bits[w].load(Ordering::Acquire) & mask).count_ones()))
            .sum()
    }

    /// Marks `[start, end)` (in this region); returns the pages newly marked.
    fn mark(&self, start: u64, end: u64) -> u64 {
        Self::spans(start, end)
            .map(|(w, mask)| {
                let old = self.bits[w].fetch_or(mask, Ordering::AcqRel);
                u64::from((mask & !old).count_ones())
            })
            .sum()
    }

    /// Clears `[start, end)` (in this region); returns the pages cleared.
    fn clear(&self, start: u64, end: u64) -> u64 {
        Self::spans(start, end)
            .map(|(w, mask)| {
                let old = self.bits[w].fetch_and(!mask, Ordering::AcqRel);
                u64::from((old & mask).count_ones())
            })
            .sum()
    }
}

/// One past the last page of the region chunk starting at `page`.
fn chunk_end(page: u64, end: u64) -> u64 {
    end.min((page / NODE_PAGES + 1) * NODE_PAGES)
}

/// The per-file range index. See the module docs for the locking protocol
/// and virtual-time contention model.
#[derive(Debug)]
pub struct BPlusRangeIndex {
    /// The latch over the directory: region number → node.
    dir: RwLock<BlockMap<Region>>,
    /// Figure-6 baseline: one lock for the whole file.
    whole_file_lock: RwContention,
    wait_hist: OnceLock<Arc<Histogram>>,
    retries: Counter,
}

impl BPlusRangeIndex {
    /// Creates an empty index.
    pub fn new() -> Self {
        Self {
            dir: RwLock::new(BlockMap::default()),
            whole_file_lock: RwContention::new("lib-file-bitmap"),
            wait_hist: OnceLock::new(),
            retries: Counter::default(),
        }
    }

    /// Installs a shared histogram every lock acquisition records its wait
    /// into. First call wins; later calls are ignored.
    pub fn set_wait_histogram(&self, hist: Arc<Histogram>) {
        let _ = self.wait_hist.set(hist);
    }

    /// Books one acquisition's wait ending at `end_ns`: into the shared
    /// histogram, and as a lock-wait leaf of the read in flight.
    fn record_wait(&self, wait_ns: u64, end_ns: u64) {
        if let Some(hist) = self.wait_hist.get() {
            hist.record(wait_ns);
        }
        crate::span::record_leaf(crate::span::SpanKind::LibTreeLockWait, wait_ns, end_ns);
    }

    /// Exclusive acquisition: writers charge the node's write side, exactly
    /// as the flat tree charges its node.
    fn charge_write(
        &self,
        clock: &mut ThreadClock,
        costs: &CostModel,
        scope: LockScope,
        model: &RwContention,
        pages: u64,
    ) {
        let hold = costs.range_tree_op_ns + costs.bitmap_scan_ns(pages);
        let access = match scope {
            LockScope::PerNode => model.write(clock.now(), hold),
            LockScope::WholeFile => self.whole_file_lock.write(clock.now(), hold),
        };
        self.record_wait(access.wait_ns, access.end_ns);
        clock.advance_to(access.end_ns);
    }

    /// Shared acquisition of `model`, the node's lock (`None` for a region
    /// with no node). Under [`LockScope::PerNode`] this is the optimistic
    /// path: a writer in service at our timestamp would fail version
    /// validation, so instead of queueing until it drains we pay a bounded
    /// retry penalty (capped at the blocking wait it replaces) and count a
    /// retry.
    fn charge_read(
        &self,
        clock: &mut ThreadClock,
        costs: &CostModel,
        scope: LockScope,
        model: Option<&RwContention>,
        pages: u64,
    ) {
        let hold = costs.range_tree_op_ns + costs.bitmap_scan_ns(pages);
        match scope {
            LockScope::WholeFile => {
                let access = self.whole_file_lock.read(clock.now(), hold);
                self.record_wait(access.wait_ns, access.end_ns);
                clock.advance_to(access.end_ns);
            }
            LockScope::PerNode => {
                let now = clock.now();
                let blocked_until = model.map_or(now, |model| model.write_busy_until(now));
                let wait = if blocked_until > now {
                    self.retries.incr();
                    costs.range_index_retry_ns.min(blocked_until - now)
                } else {
                    0
                };
                if let Some(model) = model {
                    model.record_read(wait, hold);
                }
                clock.advance(wait + hold);
                self.record_wait(wait, clock.now());
            }
        }
    }

    /// Walks the region chunks of `[start, end)` under one shared latch,
    /// charging each as a query against its node, and handing `visit` the
    /// chunk's node (if it has one) and bounds.
    fn query(
        &self,
        clock: &mut ThreadClock,
        costs: &CostModel,
        scope: LockScope,
        (start, end): (u64, u64),
        mut visit: impl FnMut(Option<&Region>, u64, u64),
    ) {
        let dir = self.dir.read();
        let mut page = start;
        while page < end {
            let upto = chunk_end(page, end);
            let region = dir.get(&(page / NODE_PAGES));
            let model = region.map(|region| &region.lock_model);
            self.charge_read(clock, costs, scope, model, upto - page);
            visit(region, page, upto);
            page = upto;
        }
    }

    /// Marks `[start, end)` as cached. Returns pages newly marked.
    ///
    /// Mirrors the flat tree's hot path: a fully-marked region chunk takes
    /// only the shared (optimistic) side; the exclusive side is paid just
    /// when bits actually change. Only a chunk whose region has no node
    /// takes the exclusive latch, to insert it; everything else, bit writes
    /// included, runs under the shared one.
    pub fn mark_cached(
        &self,
        clock: &mut ThreadClock,
        costs: &CostModel,
        scope: LockScope,
        start: u64,
        end: u64,
    ) -> u64 {
        let mut newly = 0;
        let mut dir = self.dir.read();
        let mut page = start;
        while page < end {
            let upto = chunk_end(page, end);
            let r = page / NODE_PAGES;
            if !dir.contains_key(&r) {
                drop(dir);
                let mut exclusive = self.dir.write();
                exclusive.entry(r).or_default();
                dir = RwLockWriteGuard::downgrade(exclusive);
            }
            let region = &dir[&r];
            let model = &region.lock_model;
            if region.all_marked(page, upto) {
                self.charge_read(clock, costs, scope, Some(model), upto - page);
            } else {
                self.charge_write(clock, costs, scope, model, upto - page);
                newly += region.mark(page, upto);
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
        let mut open = None;
        self.query(clock, costs, scope, (start, end), |region, page, upto| {
            let Some(region) = region else {
                open.get_or_insert(page);
                return;
            };
            let base = page / NODE_PAGES * NODE_PAGES;
            let word = |w: usize| region.bits[w].load(Ordering::Acquire);
            let (lo, hi) = (page - base, upto - base);
            collect_missing(word, lo, hi, base, &mut open, &mut missing);
        });
        missing.extend(open.map(|s| (s, end)));
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
        let mut cached = 0;
        self.query(clock, costs, scope, (start, end), |region, page, upto| {
            cached += region.map_or(0, |region| region.marked(page, upto));
        });
        cached
    }

    /// Clears the whole view. Returns pages cleared.
    pub fn clear(&self, clock: &mut ThreadClock, costs: &CostModel, scope: LockScope) -> u64 {
        self.clear_range(clock, costs, scope, 0, u64::MAX)
    }

    /// Clears `[start, end)` from the view. Returns pages cleared.
    ///
    /// Nodes are kept (zeroed, like a kernel bitmap that stays allocated).
    /// One exclusive charge is paid per region chunk that has a node,
    /// ascending, against that node — the flat tree's clear billing; a
    /// chunk with no node holds no bits and costs nothing. Bits are cleared
    /// by `fetch_and` under the shared latch, like marks set them.
    pub fn clear_range(
        &self,
        clock: &mut ThreadClock,
        costs: &CostModel,
        scope: LockScope,
        start: u64,
        end: u64,
    ) -> u64 {
        if start >= end {
            return 0;
        }
        let dir = self.dir.read();
        let (first, last) = (start / NODE_PAGES, (end - 1) / NODE_PAGES);
        // Probe each region of a short range; walk the directory otherwise.
        let mut regions: Vec<(u64, &Region)> = if last - first < dir.len() as u64 {
            (first..=last)
                .filter_map(|r| dir.get(&r).map(|region| (r, region)))
                .collect()
        } else {
            let within = |r: &u64| (first..=last).contains(r);
            dir.iter()
                .filter(|(r, _)| within(r))
                .map(|(&r, region)| (r, region))
                .collect()
        };
        regions.sort_unstable_by_key(|&(r, _)| r);
        let mut cleared = 0;
        for (r, region) in regions {
            let lo = start.max(r * NODE_PAGES);
            let hi = chunk_end(lo, end);
            self.charge_write(clock, costs, scope, &region.lock_model, hi - lo);
            cleared += region.clear(lo, hi);
        }
        cleared
    }

    /// Total pages marked cached.
    pub fn resident(&self) -> u64 {
        let dir = self.dir.read();
        dir.values()
            .flat_map(|region| &region.bits)
            .map(|word| u64::from(word.load(Ordering::Acquire).count_ones()))
            .sum()
    }

    /// Aggregate wait across node locks and the whole-file lock.
    pub fn lock_wait_ns(&self) -> u64 {
        let dir = self.dir.read();
        let nodes: u64 = dir
            .values()
            .map(|region| region.lock_model.total_wait_ns())
            .sum();
        nodes + self.whole_file_lock.total_wait_ns()
    }

    /// Wait time on the whole-file lock only.
    pub fn whole_file_wait_ns(&self) -> u64 {
        self.whole_file_lock.total_wait_ns()
    }

    /// Structural statistics.
    pub fn stats(&self) -> IndexStats {
        let leaves = self.dir.read().len() as u64;
        IndexStats {
            depth: leaves.min(2),
            leaves,
            optimistic_retries: self.retries.get(),
        }
    }
}

impl Default for BPlusRangeIndex {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::range_tree::RangeTree;
    use simclock::GlobalClock;

    fn clock() -> ThreadClock {
        ThreadClock::new(Arc::new(GlobalClock::new()))
    }

    fn costs() -> CostModel {
        CostModel::default()
    }

    #[test]
    fn mark_and_query_round_trip() {
        let tree = BPlusRangeIndex::new();
        let mut c = clock();
        assert_eq!(
            tree.mark_cached(&mut c, &costs(), LockScope::PerNode, 10, 20),
            10
        );
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
        let tree = BPlusRangeIndex::new();
        let mut c = clock();
        tree.mark_cached(&mut c, &costs(), LockScope::PerNode, 0, 100);
        assert_eq!(
            tree.mark_cached(&mut c, &costs(), LockScope::PerNode, 0, 100),
            0
        );
        assert_eq!(tree.resident(), 100);
    }

    #[test]
    fn huge_offset_allocates_one_node() {
        // The sparse-file guard: a mark 128 GiB in must not materialize
        // structure for the untouched space below it.
        let tree = BPlusRangeIndex::new();
        let mut c = clock();
        let huge = 1u64 << 35;
        tree.mark_cached(&mut c, &costs(), LockScope::PerNode, huge, huge + 3);
        let stats = tree.stats();
        assert_eq!(stats.leaves, 1);
        assert_eq!(stats.depth, 1);
        assert_eq!(tree.resident(), 3);
    }

    /// A mark abutting an earlier one in the same region lands in that
    /// region's node: no second node is allocated.
    #[test]
    fn adjacent_marks_extend_in_place() {
        let tree = BPlusRangeIndex::new();
        let mut c = clock();
        assert_eq!(
            tree.mark_cached(&mut c, &costs(), LockScope::PerNode, 0, 10),
            10
        );
        assert_eq!(
            tree.mark_cached(&mut c, &costs(), LockScope::PerNode, 10, 20),
            10
        );
        let stats = tree.stats();
        assert_eq!((stats.leaves, stats.depth), (1, 1));
        assert_eq!(tree.resident(), 20);
    }

    /// Filling the gap between two marks of one region keeps the single
    /// node they already share and leaves nothing missing.
    #[test]
    fn gap_fill_absorbs_both_neighbours() {
        let tree = BPlusRangeIndex::new();
        let mut c = clock();
        tree.mark_cached(&mut c, &costs(), LockScope::PerNode, 0, 100);
        tree.mark_cached(&mut c, &costs(), LockScope::PerNode, 900, 1000);
        assert_eq!(tree.stats().leaves, 1, "one region, one node");
        assert_eq!(
            tree.mark_cached(&mut c, &costs(), LockScope::PerNode, 100, 900),
            800
        );
        let stats = tree.stats();
        assert_eq!((stats.leaves, stats.depth), (1, 1));
        assert_eq!(tree.resident(), 1000);
        assert!(tree
            .missing_in(&mut c, &costs(), LockScope::PerNode, 0, 1000)
            .is_empty());
    }

    /// A range over several regions takes one node per region it touches,
    /// which puts the region directory over them (depth 2).
    #[test]
    fn oversized_range_chops_into_capped_leaves() {
        let tree = BPlusRangeIndex::new();
        let mut c = clock();
        assert_eq!(
            tree.mark_cached(&mut c, &costs(), LockScope::PerNode, 0, 5000),
            5000
        );
        let stats = tree.stats();
        assert_eq!(stats.leaves, 5000u64.div_ceil(NODE_PAGES));
        assert_eq!(stats.depth, 2);
        assert_eq!(tree.resident(), 5000);
        // Starting mid-region still counts every region touched.
        let tree = BPlusRangeIndex::new();
        tree.mark_cached(&mut c, &costs(), LockScope::PerNode, 20, NODE_PAGES + 20);
        assert_eq!(tree.stats().leaves, 2);
    }

    #[test]
    fn many_disjoint_leaves_route_exactly() {
        let tree = BPlusRangeIndex::new();
        let mut c = clock();
        for i in 0..100u64 {
            tree.mark_cached(&mut c, &costs(), LockScope::PerNode, i * 2048, i * 2048 + 1);
        }
        let stats = tree.stats();
        assert_eq!(stats.leaves, 100);
        assert_eq!(tree.resident(), 100);
        assert_eq!(
            tree.missing_in(&mut c, &costs(), LockScope::PerNode, 0, 3 * 2048),
            vec![(1, 2048), (2049, 4096), (4097, 6144)]
        );
    }

    /// Marking everything over 100 separated marks fills the untouched
    /// region between each pair with its own node and leaves no page
    /// missing.
    #[test]
    fn marking_over_separated_leaves_chops_and_coalesces() {
        let tree = BPlusRangeIndex::new();
        let mut c = clock();
        for i in 0..100u64 {
            tree.mark_cached(&mut c, &costs(), LockScope::PerNode, i * 2048, i * 2048 + 1);
        }
        assert_eq!(
            tree.mark_cached(&mut c, &costs(), LockScope::PerNode, 0, 100 * 2048),
            100 * 2048 - 100
        );
        assert_eq!(tree.resident(), 100 * 2048);
        assert!(tree
            .missing_in(&mut c, &costs(), LockScope::PerNode, 0, 100 * 2048)
            .is_empty());
        assert_eq!(
            tree.stats().leaves,
            200,
            "each 2048 stride ends as two region nodes"
        );
    }

    #[test]
    fn descending_inserts_keep_invariants() {
        let tree = BPlusRangeIndex::new();
        let mut c = clock();
        for i in (0..80u64).rev() {
            tree.mark_cached(&mut c, &costs(), LockScope::PerNode, i * 4096, i * 4096 + 2);
        }
        assert_eq!(tree.stats().leaves, 80);
        assert_eq!(tree.resident(), 160);
    }

    #[test]
    fn clear_keeps_leaves_and_zeroes_bits() {
        let tree = BPlusRangeIndex::new();
        let mut c = clock();
        tree.mark_cached(&mut c, &costs(), LockScope::PerNode, 0, 2 * NODE_PAGES);
        assert_eq!(
            tree.clear(&mut c, &costs(), LockScope::PerNode),
            2 * NODE_PAGES
        );
        assert_eq!(tree.resident(), 0);
        assert_eq!(tree.stats().leaves, 2, "clear keeps the allocated nodes");
        assert_eq!(
            tree.missing_in(&mut c, &costs(), LockScope::PerNode, 0, 10),
            vec![(0, 10)]
        );
    }

    /// A range clear that crosses two region edges clears exactly its
    /// pages, partial words at both ends included, charges one write per
    /// region chunk, and keeps every node.
    #[test]
    fn clear_range_crosses_chunk_edges() {
        let (tree, costs, mut c) = (BPlusRangeIndex::new(), costs(), clock());
        let scope = LockScope::PerNode;
        let span = 3 * NODE_PAGES;
        tree.mark_cached(&mut c, &costs, scope, 0, span);
        let nodes = tree.stats().leaves;
        let (start, end) = (NODE_PAGES - 10, 2 * NODE_PAGES + 10);
        let before = c.now();
        assert_eq!(
            tree.clear_range(&mut c, &costs, scope, start, end),
            end - start
        );
        let chunks = [start, NODE_PAGES, 2 * NODE_PAGES, end];
        let charged: u64 = chunks
            .windows(2)
            .map(|w| costs.range_tree_op_ns + costs.bitmap_scan_ns(w[1] - w[0]))
            .sum();
        assert_eq!(c.now() - before, charged);
        assert_eq!(tree.resident(), span - (end - start));
        let missing = tree.missing_in(&mut c, &costs, scope, 0, span);
        assert_eq!(missing, vec![(start, end)]);
        assert_eq!(tree.stats().leaves, nodes, "a range clear keeps nodes");
        // Clearing again finds nothing; re-marking restores the range.
        assert_eq!(tree.clear_range(&mut c, &costs, scope, start, end), 0);
        assert_eq!(
            tree.mark_cached(&mut c, &costs, scope, start, end),
            end - start
        );
        assert_eq!(tree.resident(), span);
    }

    /// A range clear charges every region chunk that has a node, marked
    /// pages or not, and nothing for a region without one or an empty
    /// range.
    #[test]
    fn clear_range_charges_the_chunks_with_nodes() {
        let (tree, costs, mut c) = (BPlusRangeIndex::new(), costs(), clock());
        let scope = LockScope::PerNode;
        let (lo, hi) = (NODE_PAGES - 4, NODE_PAGES + 8);
        tree.mark_cached(&mut c, &costs, scope, lo, hi);
        assert_eq!(tree.stats().leaves, 2);
        let charge = |pages| costs.range_tree_op_ns + costs.bitmap_scan_ns(pages);
        let before = c.now();
        let cleared = tree.clear_range(&mut c, &costs, scope, NODE_PAGES, NODE_PAGES + 4);
        assert_eq!(cleared, 4);
        assert_eq!(c.now() - before, charge(4));
        let missing = tree.missing_in(&mut c, &costs, scope, lo, hi);
        assert_eq!(missing, vec![(NODE_PAGES, NODE_PAGES + 4)]);

        // Below the marks of region 0: charged, nothing cleared.
        let before = c.now();
        assert_eq!(tree.clear_range(&mut c, &costs, scope, 0, 100), 0);
        assert_eq!(c.now() - before, charge(100));
        // A region never touched, and an empty range: nothing to charge.
        let before = c.now();
        let far = 10 * NODE_PAGES;
        assert_eq!(tree.clear_range(&mut c, &costs, scope, far, far + 64), 0);
        assert_eq!(tree.clear_range(&mut c, &costs, scope, 5, 5), 0);
        assert_eq!(c.now(), before);
    }

    /// `clear` is the whole-file range clear: same count, same clock.
    #[test]
    fn clear_is_the_whole_range_clear() {
        let costs = costs();
        let build = || {
            let tree = BPlusRangeIndex::new();
            let mut c = clock();
            for i in 0..6u64 {
                let lo = i * 1500 + 7;
                tree.mark_cached(&mut c, &costs, LockScope::PerNode, lo, lo + 900);
            }
            (tree, c)
        };
        let (whole, mut cw) = build();
        let (ranged, mut cr) = build();
        let cleared = whole.clear(&mut cw, &costs, LockScope::PerNode);
        assert_eq!(cleared, 6 * 900);
        assert_eq!(
            ranged.clear_range(&mut cr, &costs, LockScope::PerNode, 0, u64::MAX),
            cleared
        );
        assert_eq!(cw.now(), cr.now());
        assert_eq!((whole.resident(), ranged.resident()), (0, 0));
    }

    #[test]
    fn single_threaded_timeline_matches_flat_tree_exactly() {
        // The determinism gate in miniature: a deterministic op mix must
        // leave both indexes with identical results, identical clocks, and
        // zero lock waits.
        let flat = RangeTree::new();
        let bplus = BPlusRangeIndex::new();
        let costs = costs();
        let mut cf = clock();
        let mut cb = clock();
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            state >> 33
        };
        for round in 0..300 {
            let a = next() % 9_000;
            let b = (a + 1 + next() % 2_500).min(9_000);
            let scope = if next() % 8 == 0 {
                LockScope::WholeFile
            } else {
                LockScope::PerNode
            };
            match next() % 4 {
                0 | 1 => {
                    let nf = flat.mark_cached(&mut cf, &costs, scope, a, b);
                    let nb = bplus.mark_cached(&mut cb, &costs, scope, a, b);
                    assert_eq!(nf, nb, "round {round}: newly-marked must match");
                }
                2 => {
                    let mf = flat.missing_in(&mut cf, &costs, scope, a, b);
                    let mb = bplus.missing_in(&mut cb, &costs, scope, a, b);
                    assert_eq!(mf, mb, "round {round}: missing runs must match");
                }
                _ => {
                    let df = flat.clear(&mut cf, &costs, scope);
                    let db = bplus.clear(&mut cb, &costs, scope);
                    assert_eq!(df, db, "round {round}: cleared count must match");
                }
            }
            assert_eq!(cf.now(), cb.now(), "round {round}: clocks must stay equal");
        }
        assert_eq!(flat.resident(), bplus.resident());
        assert_eq!(flat.lock_wait_ns(), 0);
        assert_eq!(bplus.lock_wait_ns(), 0);
        assert_eq!(bplus.stats().optimistic_retries, 0);
    }

    #[test]
    fn optimistic_reader_pays_retry_penalty_not_blocking_wait() {
        let bplus = BPlusRangeIndex::new();
        let flat = RangeTree::new();
        let costs = costs();
        // Writer marks the range; its exclusive hold spans virtual time
        // [0, hold). A second thread (fresh clock at 0) re-marks: the
        // already-marked probe takes the shared side against the busy
        // writer.
        let mut w = clock();
        bplus.mark_cached(&mut w, &costs, LockScope::PerNode, 0, 512);
        let mut r = clock();
        bplus.mark_cached(&mut r, &costs, LockScope::PerNode, 0, 512);
        let stats = bplus.stats();
        assert_eq!(stats.optimistic_retries, 1);
        assert_eq!(bplus.lock_wait_ns(), costs.range_index_retry_ns);

        // The flat (pessimistic) reader blocks until the writer drains.
        let mut fw = clock();
        flat.mark_cached(&mut fw, &costs, LockScope::PerNode, 0, 512);
        let mut fr = clock();
        flat.mark_cached(&mut fr, &costs, LockScope::PerNode, 0, 512);
        assert!(
            flat.lock_wait_ns() > bplus.lock_wait_ns(),
            "optimistic retry must undercut the blocking wait"
        );
        assert!(r.now() < fr.now(), "optimistic reader finishes earlier");
    }

    #[test]
    fn whole_file_scope_still_serializes() {
        let tree = BPlusRangeIndex::new();
        let costs = costs();
        let mut t1 = clock();
        let mut t2 = clock();
        tree.mark_cached(&mut t1, &costs, LockScope::WholeFile, 0, NODE_PAGES);
        tree.mark_cached(
            &mut t2,
            &costs,
            LockScope::WholeFile,
            NODE_PAGES,
            2 * NODE_PAGES,
        );
        assert!(
            tree.whole_file_wait_ns() > 0,
            "whole-file lock must serialize disjoint writers"
        );
    }

    #[test]
    fn per_leaf_scope_scales_disjoint_writers() {
        let tree = BPlusRangeIndex::new();
        let costs = costs();
        let mut t1 = clock();
        let mut t2 = clock();
        tree.mark_cached(&mut t1, &costs, LockScope::PerNode, 0, NODE_PAGES);
        tree.mark_cached(
            &mut t2,
            &costs,
            LockScope::PerNode,
            NODE_PAGES,
            2 * NODE_PAGES,
        );
        assert_eq!(tree.lock_wait_ns(), 0, "disjoint nodes: no waits");
    }

    /// The lock is the region's: two clocks at one virtual instant marking
    /// disjoint fresh ranges of one region queue on its node, while the
    /// same marks in two regions do not.
    #[test]
    fn disjoint_marks_in_one_region_queue_on_its_node() {
        let costs = costs();
        let hold = costs.range_tree_op_ns + costs.bitmap_scan_ns(10);
        let race = |second: u64| {
            let tree = BPlusRangeIndex::new();
            let (mut t1, mut t2) = (clock(), clock());
            tree.mark_cached(&mut t1, &costs, LockScope::PerNode, 0, 10);
            tree.mark_cached(&mut t2, &costs, LockScope::PerNode, second, second + 10);
            (tree.lock_wait_ns(), t2.now())
        };
        assert_eq!(race(500), (hold, 2 * hold), "one region: one node lock");
        assert_eq!(race(NODE_PAGES + 500), (0, hold), "two regions: two locks");
    }

    #[test]
    fn concurrent_real_threads_account_exactly() {
        let tree = Arc::new(BPlusRangeIndex::new());
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
    fn missing_in_empty_tree_is_whole_range() {
        let tree = BPlusRangeIndex::new();
        let mut c = clock();
        assert_eq!(
            tree.missing_in(&mut c, &costs(), LockScope::PerNode, 5, 10),
            vec![(5, 10)]
        );
    }
}
