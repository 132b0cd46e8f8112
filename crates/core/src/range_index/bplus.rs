//! Range index: per-leaf locks over a directory of 4 MiB regions.
//!
//! The paper's §4.5 structure: leaves cover dynamically split/merged page
//! ranges (not fixed strides), each behind its own lock. How a page number
//! finds its leaf is not part of that contribution, so routing is a hash
//! directory keyed by [`NODE_PAGES`]-region. A region holds its pages'
//! presence bits, as 16 atomic words, and the leaves whose first page lies
//! in it, sorted. A leaf spans at most [`LEAF_SPAN_PAGES`] = `NODE_PAGES`,
//! so only the previous region's last leaf can reach into a region from
//! outside: a lookup is one hash probe plus a search of a short vector.
//!
//! # Concurrency (real machine)
//!
//! One `RwLock` latch over the directory. Lookups, virtual-time charges
//! and bit writes run under its shared side; a bit write is a `fetch_or`
//! (a mark) or a `fetch_and` (a clear), and the pages it changed are the
//! popcount of the bits it changed.
//! Creating, extending, chopping and absorbing leaves — only a first touch
//! of uncovered pages does — run under its exclusive side, so a bit write
//! never meets a restructure. Bits are only ever set inside leaves: a fully
//! marked chunk proves it is covered, and a range's missing pages are
//! exactly its unset bits.
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

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

use parking_lot::{RwLock, RwLockWriteGuard};
use simclock::{CostModel, Counter, Histogram, RwContention, ThreadClock};
use simstore::wordwalk::{set_runs, word_spans, WORD_BITS};
use simstore::BlockMap;

use super::bitmap::collect_missing;
use super::{IndexStats, LockScope, NODE_PAGES};

/// Maximum pages one leaf may span — the flat tree's stride, so the
/// per-region charge quanta line up across implementations.
pub const LEAF_SPAN_PAGES: u64 = NODE_PAGES;

/// Presence words per region.
const REGION_WORDS: usize = (NODE_PAGES / WORD_BITS) as usize;

/// One leaf: the pages it covers and the virtual-time model of its lock.
#[derive(Debug)]
struct Leaf {
    /// First page covered; never moves.
    lo: u64,
    /// One past the last page covered; grows up to `lo + LEAF_SPAN_PAGES`.
    hi: u64,
    lock_model: RwContention,
}

/// One [`NODE_PAGES`]-region of the directory.
#[derive(Debug, Default)]
struct Region {
    /// Presence bits: bit `i` of word `w` is the region's page `64w + i`.
    /// Set by Release `fetch_or`, read by Acquire loads: a reader that sees
    /// a page marked also sees what its marker wrote before marking it.
    bits: [AtomicU64; REGION_WORDS],
    /// The leaves whose first page lies in this region, ascending.
    leaves: Vec<Leaf>,
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

    /// The leaf of this region starting at `lo`, by index.
    fn index_of(&self, lo: u64) -> Option<usize> {
        self.leaves.binary_search_by_key(&lo, |leaf| leaf.lo).ok()
    }
}

/// Region number → region: the routing directory.
type Directory = BlockMap<Region>;

/// The leaf that may hold `page`, given `page`'s region as probed from
/// `dir`: the region's last leaf starting at or below `page`, else the
/// previous region's last leaf. Coverage is *not* implied.
fn candidate<'a>(dir: &'a Directory, region: Option<&'a Region>, page: u64) -> Option<&'a Leaf> {
    let own = region.map_or(&[][..], |region| &region.leaves[..]);
    match own.partition_point(|leaf| leaf.lo <= page) {
        0 => {
            let prev = (page / NODE_PAGES).checked_sub(1)?;
            dir.get(&prev)?.leaves.last()
        }
        i => Some(&own[i - 1]),
    }
}

/// The leaf covering `page`, if one does.
fn owner<'a>(dir: &'a Directory, region: Option<&'a Region>, page: u64) -> Option<&'a Leaf> {
    candidate(dir, region, page).filter(|leaf| page < leaf.hi)
}

/// The leaf starting exactly at `lo`, if one does.
fn leaf_at(dir: &Directory, lo: u64) -> Option<&Leaf> {
    let region = dir.get(&(lo / NODE_PAGES))?;
    region.index_of(lo).map(|i| &region.leaves[i])
}

/// The vector holding the leaf that starts at `lo`, which must exist, and
/// the leaf's index in it.
fn slot(dir: &mut Directory, lo: u64) -> (&mut Vec<Leaf>, usize) {
    let region = dir.get_mut(&(lo / NODE_PAGES));
    let region = region.expect("`lo` keys a live leaf");
    let i = region.index_of(lo).expect("`lo` keys a live leaf");
    (&mut region.leaves, i)
}

/// The first page of `[start, end)` no leaf covers (`end` when consecutive
/// leaves cover it all), with `start`'s region as probed from `dir`. One
/// leaf holding all of it costs no probe beyond the owner lookup.
fn covered_until(dir: &Directory, region: Option<&Region>, start: u64, end: u64) -> u64 {
    let Some(first) = owner(dir, region, start) else {
        return start;
    };
    let mut pos = first.hi;
    while pos < end {
        match leaf_at(dir, pos) {
            Some(leaf) => pos = leaf.hi,
            None => return pos,
        }
    }
    end
}

/// The leaf after the one starting at `lo`, as `(lo, hi)`: the next leaf
/// of its region, else the first of the next region. A leaf further on
/// lies beyond anything the leaf at `lo` can abut or a first touch reach.
fn successor(dir: &Directory, lo: u64) -> Option<(u64, u64)> {
    let region = &dir[&(lo / NODE_PAGES)];
    let i = region.index_of(lo).expect("`lo` keys a live leaf");
    let next = region.leaves.get(i + 1);
    let leaf = next.or_else(|| dir.get(&(lo / NODE_PAGES + 1))?.leaves.first())?;
    Some((leaf.lo, leaf.hi))
}

/// One past the last page of the region chunk starting at `page`.
fn chunk_end(page: u64, end: u64) -> u64 {
    end.min((page / NODE_PAGES + 1) * NODE_PAGES)
}

/// The per-file range index. See the module docs for the locking protocol
/// and virtual-time contention model.
#[derive(Debug)]
pub struct BPlusRangeIndex {
    /// The latch over the region directory.
    dir: RwLock<Directory>,
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
            dir: RwLock::new(Directory::default()),
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

    /// Walks the region chunks of `[start, end)` under one shared latch,
    /// charging each as a query — against the leaf covering its first
    /// page, or the probe lock where none does — and handing `visit` the
    /// chunk's region (if it has one) and bounds.
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
            let leaf = owner(&dir, region, page);
            let model = leaf.map_or(&self.probe_lock, |leaf| &leaf.lock_model);
            self.charge_read(clock, costs, scope, model, upto - page);
            visit(region, page, upto);
            page = upto;
        }
    }

    /// Grows coverage so every page of `[start, end)`, which lies in one
    /// region, is in some leaf: the leaf ending at a gap extends in place
    /// up to [`LEAF_SPAN_PAGES`], the remainder is chopped into span-capped
    /// leaves, and touched boundaries whose union still fits one leaf are
    /// re-absorbed. The region's entry is created first, so bits are only
    /// ever set in regions that exist.
    fn ensure_covered(&self, dir: &mut Directory, start: u64, end: u64) {
        let r = start / NODE_PAGES;
        dir.entry(r).or_default();
        let mut splits = 0u64;
        let mut merges = 0u64;
        let mut pos = start;
        while pos < end {
            let region = &dir[&r];
            // The end of the gap at `pos`, if there is one.
            let next = region.leaves.partition_point(|leaf| leaf.lo < pos);
            let gap_end = region.leaves.get(next).map_or(end, |leaf| leaf.lo.min(end));
            // Whether the leaf before `pos` ends exactly there.
            let mut abuts = false;
            if let Some(&Leaf { lo, hi, .. }) = candidate(dir, Some(region), pos) {
                if hi > pos {
                    pos = hi;
                    continue;
                }
                if hi == pos {
                    // Extend in place, as far as the gap and the span cap
                    // allow (not at all for a leaf at the cap).
                    abuts = true;
                    pos = gap_end.min(lo + LEAF_SPAN_PAGES);
                    let (leaves, i) = slot(dir, lo);
                    leaves[i].hi = pos;
                }
            }
            // Chop the rest of the gap into span-capped leaves. One that
            // continues a contiguous run is a leaf split: the run would be
            // one oversized leaf if the cap allowed it.
            let leaves = &mut dir.get_mut(&r).expect("created above").leaves;
            let mut at = next;
            while pos < gap_end {
                let hi = gap_end.min(pos + LEAF_SPAN_PAGES);
                leaves.insert(
                    at,
                    Leaf {
                        lo: pos,
                        hi,
                        lock_model: RwContention::new("range-leaf"),
                    },
                );
                at += 1;
                splits += u64::from(abuts);
                abuts = true;
                pos = hi;
            }
        }
        // Coalesce across the touched span: adjacent leaves whose union
        // fits one span absorb rightward. The leaf holding `start` only
        // ever survives.
        let region = dir.get(&r);
        let first = owner(dir, region, start).expect("the gap fill covered `start`");
        let (mut t_lo, mut t_hi) = (first.lo, first.hi);
        while let Some((r_lo, r_hi)) = successor(dir, t_lo) {
            if r_lo == t_hi && r_hi - t_lo <= LEAF_SPAN_PAGES {
                let (leaves, i) = slot(dir, r_lo);
                let victim = leaves.remove(i);
                self.retired_wait_ns.add(victim.lock_model.total_wait_ns());
                let (leaves, i) = slot(dir, t_lo);
                leaves[i].hi = r_hi;
                t_hi = r_hi;
                merges += 1;
            } else if r_lo >= end {
                break;
            } else {
                (t_lo, t_hi) = (r_lo, r_hi);
            }
        }
        if splits > 0 {
            self.splits.add(splits);
        }
        if merges > 0 {
            self.merges.add(merges);
        }
    }

    /// Marks `[start, end)` as cached. Returns pages newly marked.
    ///
    /// Mirrors the flat tree's hot path: a fully-marked region chunk takes
    /// only the shared (optimistic) side; the exclusive side is paid just
    /// when bits actually change. Only a chunk with uncovered pages takes
    /// the exclusive latch, to restructure; everything else, bit writes
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
            let region = dir.get(&r);
            if region.is_some_and(|region| region.all_marked(page, upto)) {
                // Bits are only set inside leaves: marked proves covered.
                let leaf = owner(&dir, region, page).expect("a marked page lies in a leaf");
                self.charge_read(clock, costs, scope, &leaf.lock_model, upto - page);
            } else {
                if covered_until(&dir, region, page, upto) < upto {
                    drop(dir);
                    let mut exclusive = self.dir.write();
                    self.ensure_covered(&mut exclusive, page, upto);
                    dir = RwLockWriteGuard::downgrade(exclusive);
                }
                let region = &dir[&r];
                let leaf = owner(&dir, Some(region), page).expect("the chunk is covered");
                self.charge_write(clock, costs, scope, &leaf.lock_model, upto - page);
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
            // Bits are only set inside leaves: the unset ones are missing.
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
    /// Leaves are kept (zeroed, like a kernel bitmap that stays allocated),
    /// so every set bit still lies inside a leaf. One exclusive charge is
    /// paid per region chunk some leaf intersects, ascending, against the
    /// first such leaf — the flat tree's clear billing; a chunk no leaf
    /// reaches holds no bits and costs nothing. Bits are cleared by
    /// `fetch_and` under the shared latch, like marks set them.
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
            let first_leaf = owner(&dir, Some(region), lo)
                .or_else(|| region.leaves.iter().find(|leaf| leaf.lo < hi));
            let Some(leaf) = first_leaf else {
                continue;
            };
            self.charge_write(clock, costs, scope, &leaf.lock_model, hi - lo);
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

    /// Aggregate wait across leaf locks (including absorbed leaves), the
    /// probe lock, and the whole-file lock.
    pub fn lock_wait_ns(&self) -> u64 {
        let dir = self.dir.read();
        let live: u64 = dir
            .values()
            .flat_map(|region| &region.leaves)
            .map(|leaf| leaf.lock_model.total_wait_ns())
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
        let leaves: u64 = self
            .dir
            .read()
            .values()
            .map(|region| region.leaves.len() as u64)
            .sum();
        IndexStats {
            depth: leaves.min(2),
            leaves,
            splits: self.splits.get(),
            merges: self.merges.get(),
            optimistic_retries: self.retries.get(),
        }
    }

    /// Asserts every invariant the index itself maintains. Test-support;
    /// panics on violation.
    ///
    /// * Per region: leaves are non-empty, span-capped, sorted and
    ///   disjoint, and stored in the region of their first page.
    /// * Across regions: leaves stay disjoint, every region a leaf reaches
    ///   has an entry (its bits live there), and every region is reached
    ///   by some leaf.
    /// * Every set bit lies inside some leaf: the settled fast path of
    ///   [`mark_cached`](Self::mark_cached) rests on this.
    pub fn check_invariants(&self) {
        let dir = self.dir.read();
        let mut regions: Vec<(u64, &Region)> = dir.iter().map(|(&r, region)| (r, region)).collect();
        regions.sort_unstable_by_key(|&(r, _)| r);
        let mut prev_hi = 0;
        for (r, region) in regions {
            let base = r * NODE_PAGES;
            for leaf in &region.leaves {
                let span = leaf.hi.saturating_sub(leaf.lo);
                assert!(
                    (1..=LEAF_SPAN_PAGES).contains(&span),
                    "leaf span in 1..=cap"
                );
                assert_eq!(leaf.lo / NODE_PAGES, r, "stored in its first page's region");
                assert!(prev_hi <= leaf.lo, "leaves must be disjoint and ascending");
                assert!(
                    dir.contains_key(&((leaf.hi - 1) / NODE_PAGES)),
                    "every region a leaf reaches must have an entry"
                );
                prev_hi = leaf.hi;
            }
            assert!(
                !region.leaves.is_empty() || owner(&dir, Some(region), base).is_some(),
                "every region must be reached by some leaf"
            );
            for (w, word) in region.bits.iter().enumerate() {
                let word_base = base + w as u64 * WORD_BITS;
                for (b0, b1) in set_runs(word.load(Ordering::Acquire)) {
                    let (s, e) = (word_base + b0, word_base + b1);
                    assert_eq!(
                        covered_until(&dir, Some(region), s, e),
                        e,
                        "marked pages [{s}, {e}) must lie inside leaves"
                    );
                }
            }
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

    /// A range clear that crosses two region edges clears exactly its
    /// pages, partial words at both ends included, charges one write per
    /// region chunk, and keeps every leaf.
    #[test]
    fn clear_range_crosses_chunk_edges() {
        let (tree, costs, mut c) = (BPlusRangeIndex::new(), costs(), clock());
        let scope = LockScope::PerNode;
        let span = 3 * NODE_PAGES;
        tree.mark_cached(&mut c, &costs, scope, 0, span);
        let leaves = tree.stats().leaves;
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
        assert_eq!(tree.stats().leaves, leaves, "a range clear keeps leaves");
        tree.check_invariants();
        // Clearing again finds nothing; re-marking restores the range.
        assert_eq!(tree.clear_range(&mut c, &costs, scope, start, end), 0);
        assert_eq!(
            tree.mark_cached(&mut c, &costs, scope, start, end),
            end - start
        );
        assert_eq!(tree.resident(), span);
        tree.check_invariants();
    }

    /// A leaf that starts in one region and reaches into the next is
    /// found from the second region's chunk; a chunk no leaf reaches is
    /// neither charged nor cleared.
    #[test]
    fn clear_range_follows_leaf_spans() {
        let (tree, costs, mut c) = (BPlusRangeIndex::new(), costs(), clock());
        let scope = LockScope::PerNode;
        let (lo, hi) = (NODE_PAGES - 4, NODE_PAGES + 8);
        tree.mark_cached(&mut c, &costs, scope, lo, hi);
        assert_eq!(tree.stats().leaves, 1);
        let before = c.now();
        let cleared = tree.clear_range(&mut c, &costs, scope, NODE_PAGES, NODE_PAGES + 4);
        assert_eq!(cleared, 4);
        let charged = costs.range_tree_op_ns + costs.bitmap_scan_ns(4);
        assert_eq!(c.now() - before, charged);
        let missing = tree.missing_in(&mut c, &costs, scope, lo, hi);
        assert_eq!(missing, vec![(NODE_PAGES, NODE_PAGES + 4)]);
        tree.check_invariants();

        // Inside region 0 but below its only leaf, a region never touched,
        // and an empty range: nothing to charge.
        let before = c.now();
        let far = 10 * NODE_PAGES;
        assert_eq!(tree.clear_range(&mut c, &costs, scope, 0, 100), 0);
        assert_eq!(tree.clear_range(&mut c, &costs, scope, far, far + 64), 0);
        assert_eq!(tree.clear_range(&mut c, &costs, scope, 5, 5), 0);
        assert_eq!(c.now(), before);
        tree.check_invariants();
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
        whole.check_invariants();
        ranged.check_invariants();
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
        // ending inside, at and beyond a leaf. At the second offset the
        // first leaf starts in region 0 and reaches into region 1.
        let bounds = [(3u64, 6u64), (6, 8), (11, 14)];
        for base in [0, NODE_PAGES - 4] {
            let leaves: Vec<(u64, u64)> = bounds
                .iter()
                .map(|&(lo, hi)| (base + lo, base + hi))
                .collect();
            let mut dir = Directory::default();
            for &(lo, hi) in &leaves {
                dir.entry((hi - 1) / NODE_PAGES).or_default();
                dir.entry(lo / NODE_PAGES).or_default().leaves.push(Leaf {
                    lo,
                    hi,
                    lock_model: RwContention::new("range-leaf"),
                });
            }
            for (dir, leaves) in [(&Directory::default(), &[][..]), (&dir, &leaves[..])] {
                for start in base..base + 17 {
                    let region = dir.get(&(start / NODE_PAGES));
                    let scan_owner = leaves.iter().find(|&&(lo, hi)| lo <= start && start < hi);
                    let owned = owner(dir, region, start).map(|leaf| (leaf.lo, leaf.hi));
                    assert_eq!(owned, scan_owner.copied(), "owner of {start}");
                    for end in start + 1..=base + 17 {
                        // The oracle: scan every leaf in order, keeping
                        // those that continue coverage from `start`
                        // without a gap.
                        let mut pos = start;
                        for &(lo, hi) in leaves {
                            if lo <= pos && pos < hi && pos < end {
                                pos = hi.min(end);
                            }
                        }
                        assert_eq!(
                            covered_until(dir, region, start, end),
                            pos,
                            "[{start}, {end}): first uncovered page"
                        );
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
