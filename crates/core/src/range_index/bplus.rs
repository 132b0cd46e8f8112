//! Range index: per-leaf bitmaps and locks behind an ordered routing map.
//!
//! The paper's §4.5 structure: leaves cover dynamically split/merged page
//! ranges (not fixed strides) and each embeds a [`PageBitmap`] behind its
//! own lock. How a page number finds its leaf is not part of that
//! contribution, so routing is std's `BTreeMap`, keyed by each leaf's
//! first page.
//!
//! # Concurrency (real machine)
//!
//! Structure and content are locked separately:
//!
//! * a short topology latch (`RwLock<BTreeMap>`) covers lookups and
//!   split/merge restructuring;
//! * each leaf's bitmap has its own lock; a writer takes it *after*
//!   dropping the latch, so concurrent marks of different ranges never
//!   serialize. Where both are held (probes, merges, the exclusive
//!   fallback) the order is latch → bitmap lock, and nothing acquires
//!   the latch while holding a bitmap lock;
//! * a leaf absorbed by a merge is flagged `detached` under its bitmap
//!   lock — a writer that locked a stale leaf observes the flag, abandons
//!   the write, and looks the range up again (the per-leaf version
//!   validation of optimistic lock coupling). A bounded number of retries
//!   falls back to the exclusive latch, which no merge can overlap.
//!
//! # Contention model (virtual time)
//!
//! Charges are quantised per [`NODE_PAGES`]-aligned region exactly like the
//! flat reference tree — same count, same hold times — so single-threaded
//! timelines are byte-identical between the two. The difference is
//! contended reads under [`LockScope::PerNode`]: instead of queueing behind
//! an in-service writer (`RwContention::read`), an optimistic lookup
//! validates, fails, and retries, paying
//! `min(range_index_retry_ns, blocking wait)`. Routing and restructuring
//! are not charged: `range_tree_op_ns` already prices the lookup.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, OnceLock};

use parking_lot::RwLock;
use simclock::{CostModel, Counter, Histogram, RwContention, ThreadClock};

use super::bitmap::PageBitmap;
use super::{IndexStats, LockScope, NODE_PAGES};

/// Maximum pages one leaf may span — the flat tree's stride, so the
/// per-region charge quanta line up across implementations.
pub const LEAF_SPAN_PAGES: u64 = NODE_PAGES;

/// Content-write plan retries before falling back to the exclusive latch.
const PLAN_RETRIES: usize = 4;

/// A leaf's lock-protected content, shared out via `Arc` so charges and
/// bit operations run with the topology latch dropped.
#[derive(Debug)]
struct LeafGuts {
    /// Presence bits, local to `word_base`.
    bits: RwLock<PageBitmap>,
    /// 64-aligned base page of the local bitmap (fixed at creation; a
    /// leaf's first page never moves, only `hi` grows).
    word_base: u64,
    /// Virtual-time contention model for this leaf's lock.
    lock_model: RwContention,
    /// Set under `bits` when a merge detaches this leaf; stale writers
    /// observe it and look the range up again.
    detached: AtomicBool,
}

impl LeafGuts {
    fn new(lo: u64) -> Self {
        Self {
            bits: RwLock::new(PageBitmap::new()),
            word_base: lo & !63,
            lock_model: RwContention::new("range-leaf"),
            detached: AtomicBool::new(false),
        }
    }
}

/// One leaf, stored under its first page (which never changes).
#[derive(Debug)]
struct Leaf {
    /// One past the last page covered (grows up to the first page plus
    /// [`LEAF_SPAN_PAGES`]).
    hi: u64,
    guts: Arc<LeafGuts>,
}

/// The topology: leaves by first page, disjoint and ascending.
type LeafMap = BTreeMap<u64, Leaf>;

/// The candidate leaf for `page`: the one with the greatest first page at
/// or below it, with that first page. Coverage is *not* implied — callers
/// check `page < hi`.
fn locate(map: &LeafMap, page: u64) -> Option<(u64, &Leaf)> {
    map.range(..=page).next_back().map(|(&lo, leaf)| (lo, leaf))
}

/// Where the next leaf starts at or after `pos` (`pos` itself if one
/// starts there), or `end` when none starts before it.
fn next_start(map: &LeafMap, pos: u64, end: u64) -> u64 {
    map.range(pos..end).next().map_or(end, |(&lo, _)| lo)
}

/// Visits the segments of `[start, end)` that consecutive leaves cover,
/// ascending from `start` — one `(seg_start, seg_end, guts)` per leaf —
/// and returns the first page no leaf covers (`end` when the range is
/// fully covered). A leaf that holds `start` and reaches `end` (the
/// settled-stream case) costs one map descent; only a shorter one opens
/// the forward scan.
fn covering<'a>(
    map: &'a LeafMap,
    start: u64,
    end: u64,
    mut visit: impl FnMut(u64, u64, &'a Arc<LeafGuts>),
) -> u64 {
    let mut pos = start;
    if let Some((_, first)) = locate(map, start).filter(|&(_, leaf)| leaf.hi > start) {
        pos = first.hi.min(end);
        visit(start, pos, &first.guts);
        if pos < end {
            for (&lo, leaf) in map.range(pos..end) {
                if lo != pos {
                    break;
                }
                let seg_end = leaf.hi.min(end);
                visit(pos, seg_end, &leaf.guts);
                pos = seg_end;
            }
        }
    }
    pos
}

/// The per-file range index. See the module docs for the locking protocol
/// and virtual-time contention model.
#[derive(Debug)]
pub struct BPlusRangeIndex {
    /// Topology latch over the routing map.
    leaves: RwLock<LeafMap>,
    /// Figure-6 baseline: one lock for the whole file.
    whole_file_lock: RwContention,
    /// Charged for probes of regions no leaf covers yet (the flat tree
    /// charges an auto-allocated empty node there; probes never contend).
    probe_lock: RwContention,
    wait_hist: OnceLock<Arc<Histogram>>,
    splits: Counter,
    merges: Counter,
    retries: Counter,
    /// Lock wait accumulated by leaves later absorbed into a neighbour,
    /// folded in so `lock_wait_ns` stays monotonic across merges.
    retired_wait_ns: Counter,
}

impl BPlusRangeIndex {
    /// Creates an empty index.
    pub fn new() -> Self {
        Self {
            leaves: RwLock::new(LeafMap::new()),
            whole_file_lock: RwContention::new("lib-file-bitmap"),
            probe_lock: RwContention::new("range-probe"),
            wait_hist: OnceLock::new(),
            splits: Counter::default(),
            merges: Counter::default(),
            retries: Counter::default(),
            retired_wait_ns: Counter::default(),
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

    /// Exclusive acquisition: writers lock-couple down to the leaf and
    /// charge its write side, exactly as the flat tree charges its node.
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

    /// Shared acquisition. Under [`LockScope::PerNode`] this is the
    /// optimistic path: a writer in service at our timestamp would fail
    /// version validation, so instead of queueing until it drains we pay a
    /// bounded retry penalty (capped at the blocking wait it replaces) and
    /// count a retry.
    fn charge_read(
        &self,
        clock: &mut ThreadClock,
        costs: &CostModel,
        scope: LockScope,
        model: &RwContention,
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
                let blocked_until = model.write_busy_until(now);
                let wait = if blocked_until > now {
                    self.retries.incr();
                    costs.range_index_retry_ns.min(blocked_until - now)
                } else {
                    0
                };
                model.record_read(wait, hold);
                clock.advance(wait + hold);
                self.record_wait(wait, clock.now());
            }
        }
    }

    /// One walk of `[start, end)` under the shared latch: when consecutive
    /// leaves cover all of it, the first covering leaf's guts (the lock to
    /// charge against) and whether every page is also marked; otherwise
    /// `None`.
    fn probe(&self, start: u64, end: u64) -> Option<(Arc<LeafGuts>, bool)> {
        let map = self.leaves.read();
        let mut owner = None;
        let mut marked = true;
        let reached = covering(&map, start, end, |s, e, guts| {
            let wb = guts.word_base;
            marked = marked && guts.bits.read().contains_all(s - wb, e - wb);
            owner.get_or_insert(guts);
        });
        owner
            .filter(|_| reached == end)
            .map(|guts| (Arc::clone(guts), marked))
    }

    /// The guts of the leaf covering `page`, if one does.
    fn owner_model(&self, page: u64) -> Option<Arc<LeafGuts>> {
        let map = self.leaves.read();
        locate(&map, page)
            .filter(|&(_, leaf)| page < leaf.hi)
            .map(|(_, leaf)| Arc::clone(&leaf.guts))
    }

    /// Grows coverage so every page of `[start, end)` lies in some leaf:
    /// the leaf ending at a gap extends in place up to [`LEAF_SPAN_PAGES`],
    /// the remainder is chopped into span-capped leaves, and touched
    /// boundaries whose union still fits one leaf are re-absorbed.
    /// Returns the first covering leaf's guts.
    fn ensure_covered(&self, start: u64, end: u64) -> Arc<LeafGuts> {
        let mut splits = 0u64;
        let mut merges = 0u64;
        let owner = {
            let mut map = self.leaves.write();
            let mut pos = start;
            while pos < end {
                // The end of the gap at `pos`, if there is one.
                let gap_end = next_start(&map, pos, end);
                // Whether the leaf before `pos` ends exactly there.
                let mut abuts = false;
                if let Some((&lo, leaf)) = map.range_mut(..=pos).next_back() {
                    if leaf.hi > pos {
                        pos = leaf.hi;
                        continue;
                    }
                    if leaf.hi == pos {
                        // Extend in place, as far as the gap and the span
                        // cap allow (not at all for a leaf at the cap).
                        abuts = true;
                        leaf.hi = gap_end.min(lo + LEAF_SPAN_PAGES);
                        pos = leaf.hi;
                    }
                }
                // Chop the rest of the gap into span-capped leaves. One
                // that continues a contiguous run is a leaf split: the run
                // would be one oversized leaf if the cap allowed it.
                while pos < gap_end {
                    let hi = gap_end.min(pos + LEAF_SPAN_PAGES);
                    let guts = Arc::new(LeafGuts::new(pos));
                    map.insert(pos, Leaf { hi, guts });
                    splits += u64::from(abuts);
                    abuts = true;
                    pos = hi;
                }
            }
            // Coalesce across the touched span: adjacent leaves whose
            // union fits one span absorb rightward. The leaf holding
            // `start` only ever survives, so its guts are the owner's.
            let (mut t_lo, owner) = locate(&map, start)
                .map(|(lo, leaf)| (lo, Arc::clone(&leaf.guts)))
                .expect("the gap fill covered `start`");
            loop {
                let mut pair = map.range(t_lo..);
                let t_hi = pair.next().expect("`t_lo` keys a live leaf").1.hi;
                let Some((&r_lo, r)) = pair.next() else { break };
                if r_lo == t_hi && r.hi - t_lo <= LEAF_SPAN_PAGES {
                    self.absorb_next(&mut map, t_lo, r_lo);
                    merges += 1;
                } else if r_lo >= end {
                    break;
                } else {
                    t_lo = r_lo;
                }
            }
            owner
        };
        if splits > 0 {
            self.splits.add(splits);
        }
        if merges > 0 {
            self.merges.add(merges);
        }
        owner
    }

    /// Absorbs the leaf at `r_lo` into its left neighbour at `t_lo` (the
    /// caller checked they are adjacent and the union fits one leaf
    /// span). The victim's bits are word-OR'd into the survivor under both
    /// bitmap locks — victim first — then it is flagged `detached` so
    /// stale writers look the range up again.
    fn absorb_next(&self, map: &mut LeafMap, t_lo: u64, r_lo: u64) {
        let victim = map.remove(&r_lo).expect("`r_lo` keys a live leaf");
        let survivor = map.get_mut(&t_lo).expect("`t_lo` keys a live leaf");
        let (t_guts, r_guts) = (&survivor.guts, &victim.guts);
        {
            let rb = r_guts.bits.write();
            let mut tb = t_guts.bits.write();
            let off = ((r_guts.word_base - t_guts.word_base) / 64) as usize;
            tb.or_from(&rb, off);
            // Flag while still holding the victim's lock: any writer that
            // acquires it afterwards observes the flag before touching bits.
            r_guts.detached.store(true, Ordering::Release);
        }
        self.retired_wait_ns.add(r_guts.lock_model.total_wait_ns());
        survivor.hi = victim.hi;
    }

    /// Sets `[start, end)` through the per-leaf locks: plan the covering
    /// segments under the shared latch, drop it, then write each leaf's
    /// bits, validating the `detached` flag. Bounded retries fall back to
    /// the exclusive latch, which no merge can overlap. Coverage never
    /// shrinks (a merge hands the victim's pages to the survivor), so the
    /// range the caller saw covered still is and the segments span it.
    fn set_bits(&self, start: u64, end: u64) -> u64 {
        for _ in 0..PLAN_RETRIES {
            let mut segs = Vec::new();
            covering(&self.leaves.read(), start, end, |s, e, guts| {
                segs.push((s, e, Arc::clone(guts)));
            });
            let mut newly = 0;
            let mut stale = false;
            for (s, e, guts) in &segs {
                let mut bits = guts.bits.write();
                if guts.detached.load(Ordering::Acquire) {
                    stale = true;
                    break;
                }
                newly += bits.set_range(s - guts.word_base, e - guts.word_base);
            }
            if !stale {
                return newly;
            }
        }
        // Slow path: exclusive latch excludes all structural change.
        let map = self.leaves.write();
        let mut newly = 0;
        covering(&map, start, end, |s, e, guts| {
            let wb = guts.word_base;
            newly += guts.bits.write().set_range(s - wb, e - wb);
        });
        newly
    }

    /// Marks `[start, end)` as cached. Returns pages newly marked.
    ///
    /// Mirrors the flat tree's hot path: a fully-marked region chunk takes
    /// only the shared (optimistic) side; the exclusive side is paid just
    /// when bits actually change.
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
            let upto = end.min((page / NODE_PAGES + 1) * NODE_PAGES);
            let probed = self.probe(page, upto);
            if let Some((guts, true)) = &probed {
                self.charge_read(clock, costs, scope, &guts.lock_model, upto - page);
            } else {
                let owner =
                    probed.map_or_else(|| self.ensure_covered(page, upto), |(guts, _)| guts);
                self.charge_write(clock, costs, scope, &owner.lock_model, upto - page);
                newly += self.set_bits(page, upto);
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
            let upto = end.min((page / NODE_PAGES + 1) * NODE_PAGES);
            match self.owner_model(page) {
                Some(guts) => {
                    self.charge_read(clock, costs, scope, &guts.lock_model, upto - page);
                }
                None => {
                    self.charge_read(clock, costs, scope, &self.probe_lock, upto - page);
                }
            }
            self.collect_chunk(page, upto, &mut open, &mut missing);
            page = upto;
        }
        if let Some(s) = open {
            missing.push((s, end));
        }
        missing
    }

    /// Appends the missing runs of one region chunk, carrying an open run:
    /// whatever lies between covered segments is missing.
    fn collect_chunk(
        &self,
        start: u64,
        end: u64,
        open: &mut Option<u64>,
        out: &mut Vec<(u64, u64)>,
    ) {
        let map = self.leaves.read();
        let mut pos = start;
        while pos < end {
            pos = covering(&map, pos, end, |s, e, guts| {
                let wb = guts.word_base;
                guts.bits
                    .read()
                    .collect_missing(s - wb, e - wb, wb, open, out);
            });
            if pos < end {
                open.get_or_insert(pos);
                pos = next_start(&map, pos, end);
            }
        }
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

    /// Clears the whole view. Returns pages cleared.
    ///
    /// Leaves are kept (zeroed, like a kernel bitmap that stays allocated)
    /// and one exclusive charge is paid per ever-populated
    /// [`NODE_PAGES`]-region, matching the flat tree's clear billing.
    pub fn clear(&self, clock: &mut ThreadClock, costs: &CostModel, scope: LockScope) -> u64 {
        let (regions, leaves): (Vec<Arc<LeafGuts>>, Vec<Arc<LeafGuts>>) = {
            let map = self.leaves.read();
            let mut by_region = BTreeMap::new();
            let mut all = Vec::new();
            for (&lo, leaf) in map.iter() {
                for region in (lo / NODE_PAGES)..=((leaf.hi - 1) / NODE_PAGES) {
                    by_region
                        .entry(region)
                        .or_insert_with(|| Arc::clone(&leaf.guts));
                }
                all.push(Arc::clone(&leaf.guts));
            }
            (by_region.into_values().collect(), all)
        };
        for guts in &regions {
            self.charge_write(clock, costs, scope, &guts.lock_model, NODE_PAGES);
        }
        let mut cleared = 0;
        for guts in &leaves {
            cleared += guts.bits.write().clear_all();
        }
        cleared
    }

    /// Total pages marked cached.
    pub fn resident(&self) -> u64 {
        let map = self.leaves.read();
        map.values()
            .map(|leaf| leaf.guts.bits.read().resident())
            .sum()
    }

    /// Aggregate wait across leaf locks (including absorbed leaves), the
    /// probe lock, and the whole-file lock.
    pub fn lock_wait_ns(&self) -> u64 {
        let map = self.leaves.read();
        let live: u64 = map
            .values()
            .map(|leaf| leaf.guts.lock_model.total_wait_ns())
            .sum();
        self.retired_wait_ns.get()
            + live
            + self.probe_lock.total_wait_ns()
            + self.whole_file_lock.total_wait_ns()
    }

    /// Wait time on the whole-file lock only.
    pub fn whole_file_wait_ns(&self) -> u64 {
        self.whole_file_lock.total_wait_ns()
    }

    /// Structural statistics.
    pub fn stats(&self) -> IndexStats {
        let leaves = self.leaves.read().len() as u64;
        IndexStats {
            // The index's own levels: none, a lone leaf, or routing map
            // over leaves (std exposes no height and nothing charges one).
            depth: leaves.min(2),
            leaves,
            splits: self.splits.get(),
            merges: self.merges.get(),
            optimistic_retries: self.retries.get(),
        }
    }

    /// Asserts every invariant the index itself maintains: leaves are
    /// non-empty, span-capped, disjoint and ascending, each bitmap is
    /// based at its leaf's word-aligned first page, and no leaf in the
    /// map is detached. Test-support; panics on violation.
    pub fn check_invariants(&self) {
        let map = self.leaves.read();
        let mut prev_hi = 0;
        for (&lo, leaf) in map.iter() {
            assert!(lo < leaf.hi, "leaf range must be non-empty");
            assert!(
                leaf.hi - lo <= LEAF_SPAN_PAGES,
                "leaf span must respect the cap"
            );
            assert!(prev_hi <= lo, "leaves must be disjoint and ascending");
            assert_eq!(
                leaf.guts.word_base,
                lo & !63,
                "bitmap must be based at the leaf's word-aligned first page"
            );
            assert!(
                !leaf.guts.detached.load(Ordering::Acquire),
                "no leaf in the map may be detached"
            );
            prev_hi = leaf.hi;
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
        tree.check_invariants();
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
    fn huge_offset_allocates_one_leaf() {
        // The sparse-file guard: a mark 128 GiB in must not materialize
        // intermediate structure for the untouched space below it.
        let tree = BPlusRangeIndex::new();
        let mut c = clock();
        let huge = 1u64 << 35;
        tree.mark_cached(&mut c, &costs(), LockScope::PerNode, huge, huge + 3);
        let stats = tree.stats();
        assert_eq!(stats.leaves, 1);
        assert_eq!(stats.depth, 1);
        assert_eq!(tree.resident(), 3);
        tree.check_invariants();
    }

    #[test]
    fn adjacent_marks_extend_in_place() {
        let tree = BPlusRangeIndex::new();
        let mut c = clock();
        tree.mark_cached(&mut c, &costs(), LockScope::PerNode, 0, 10);
        tree.mark_cached(&mut c, &costs(), LockScope::PerNode, 10, 20);
        let stats = tree.stats();
        assert_eq!(stats.leaves, 1);
        assert_eq!(stats.splits, 0);
        assert_eq!(tree.resident(), 20);
        tree.check_invariants();
    }

    #[test]
    fn gap_fill_absorbs_both_neighbours() {
        let tree = BPlusRangeIndex::new();
        let mut c = clock();
        tree.mark_cached(&mut c, &costs(), LockScope::PerNode, 0, 100);
        tree.mark_cached(&mut c, &costs(), LockScope::PerNode, 900, 1000);
        assert_eq!(tree.stats().leaves, 2);
        tree.mark_cached(&mut c, &costs(), LockScope::PerNode, 100, 900);
        let stats = tree.stats();
        assert_eq!(stats.leaves, 1, "union fits one span: must coalesce");
        assert!(stats.merges >= 1);
        assert_eq!(stats.depth, 1);
        assert_eq!(tree.resident(), 1000);
        assert!(tree
            .missing_in(&mut c, &costs(), LockScope::PerNode, 0, 1000)
            .is_empty());
        tree.check_invariants();
    }

    #[test]
    fn oversized_range_chops_into_capped_leaves() {
        let tree = BPlusRangeIndex::new();
        let mut c = clock();
        tree.mark_cached(&mut c, &costs(), LockScope::PerNode, 0, 5000);
        let stats = tree.stats();
        assert_eq!(stats.leaves, 5000u64.div_ceil(LEAF_SPAN_PAGES));
        assert!(stats.splits >= stats.leaves - 1);
        assert_eq!(stats.depth, 2);
        assert_eq!(tree.resident(), 5000);
        tree.check_invariants();
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
        tree.check_invariants();
        assert_eq!(tree.resident(), 100);
        assert_eq!(
            tree.missing_in(&mut c, &costs(), LockScope::PerNode, 0, 3 * 2048),
            vec![(1, 2048), (2049, 4096), (4097, 6144)]
        );
    }

    #[test]
    fn descending_inserts_keep_invariants() {
        let tree = BPlusRangeIndex::new();
        let mut c = clock();
        for i in (0..80u64).rev() {
            tree.mark_cached(&mut c, &costs(), LockScope::PerNode, i * 4096, i * 4096 + 2);
            tree.check_invariants();
        }
        assert_eq!(tree.stats().leaves, 80);
        assert_eq!(tree.resident(), 160);
    }

    #[test]
    fn marking_over_separated_leaves_chops_and_coalesces() {
        // Build 100 separated leaves, then mark everything: extensions,
        // chops, and absorbs must leave a valid tree covering the span.
        let tree = BPlusRangeIndex::new();
        let mut c = clock();
        for i in 0..100u64 {
            tree.mark_cached(&mut c, &costs(), LockScope::PerNode, i * 2048, i * 2048 + 1);
        }
        tree.mark_cached(&mut c, &costs(), LockScope::PerNode, 0, 100 * 2048);
        tree.check_invariants();
        assert_eq!(tree.resident(), 100 * 2048);
        assert!(tree
            .missing_in(&mut c, &costs(), LockScope::PerNode, 0, 100 * 2048)
            .is_empty());
        let stats = tree.stats();
        assert_eq!(
            stats.leaves, 200,
            "each 2048 stride ends as two capped leaves"
        );
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
        assert_eq!(tree.stats().leaves, 2, "clear keeps the allocated leaves");
        assert_eq!(
            tree.missing_in(&mut c, &costs(), LockScope::PerNode, 0, 10),
            vec![(0, 10)]
        );
        tree.check_invariants();
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
        bplus.check_invariants();
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
        assert_eq!(tree.lock_wait_ns(), 0, "disjoint leaves: no waits");
    }

    #[test]
    fn detached_leaf_wait_is_retained() {
        let tree = BPlusRangeIndex::new();
        let costs = costs();
        // Contend on one leaf so its lock model accrues wait, then force
        // that leaf to be absorbed; the wait must survive in the total.
        let mut t1 = clock();
        let mut t2 = clock();
        tree.mark_cached(&mut t1, &costs, LockScope::PerNode, 100, 200);
        tree.mark_cached(&mut t2, &costs, LockScope::PerNode, 100, 150);
        let before = tree.lock_wait_ns();
        assert!(before > 0);
        let mut c = clock();
        tree.mark_cached(&mut c, &costs, LockScope::PerNode, 0, 100);
        assert!(
            tree.stats().merges >= 1,
            "extension must absorb the old leaf"
        );
        assert!(tree.lock_wait_ns() >= before);
        tree.check_invariants();
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
        tree.check_invariants();
    }

    #[test]
    fn covering_matches_a_linear_scan_of_the_leaves() {
        // Two abutting leaves and a separated one; every `(start, end)` of
        // the universe then meets a page before the first leaf, inside a
        // gap, exactly at a leaf's `hi`, past the last leaf, and ranges
        // ending inside, at and beyond a leaf.
        let bounds = [(3u64, 6u64), (6, 8), (11, 14)];
        let mut map = LeafMap::new();
        for &(lo, hi) in &bounds {
            let guts = Arc::new(LeafGuts::new(lo));
            map.insert(lo, Leaf { hi, guts });
        }
        for map in [&LeafMap::new(), &map] {
            for start in 0..17u64 {
                for end in start + 1..=17 {
                    // The oracle: scan every leaf in order, keeping those
                    // that continue coverage from `start` without a gap.
                    let mut pos = start;
                    let mut scan = Vec::new();
                    for (&lo, leaf) in map.iter() {
                        if lo <= pos && pos < leaf.hi && pos < end {
                            scan.push((pos, leaf.hi.min(end), &leaf.guts));
                            pos = leaf.hi.min(end);
                        }
                    }
                    let mut walked = Vec::new();
                    let reached = covering(map, start, end, |s, e, guts| walked.push((s, e, guts)));
                    assert_eq!(reached, pos, "[{start}, {end}): first uncovered page");
                    assert_eq!(walked.len(), scan.len(), "[{start}, {end})");
                    for (w, s) in walked.iter().zip(&scan) {
                        assert_eq!((w.0, w.1), (s.0, s.1), "[{start}, {end})");
                        assert!(Arc::ptr_eq(w.2, s.2), "[{start}, {end}): wrong leaf");
                    }
                }
            }
        }
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
