//! Arena-allocated B+ tree range index with optimistic lock coupling.
//!
//! The paper's §4.5 structure done properly: leaves cover dynamically
//! split/merged page ranges (not fixed strides) and embed a [`PageBitmap`];
//! inner nodes hold routing separators. All nodes live in one slot arena
//! (`Vec<Slot>` + free list), so a descent touches index-dense memory
//! rather than pointer-chased heap nodes.
//!
//! # Concurrency (real machine)
//!
//! Structure and content are locked separately:
//!
//! * a short topology latch (`RwLock<TreeCore>`) covers descents and
//!   split/merge restructuring;
//! * each leaf's bitmap has its own lock, taken *after* the latch is
//!   dropped, so concurrent marks of different ranges never serialize;
//! * a leaf absorbed by a merge is flagged `detached` under its bitmap
//!   lock — a writer that locked a stale leaf observes the flag, abandons
//!   the write, and re-descends (the per-leaf version validation of
//!   optimistic lock coupling). A bounded number of retries falls back to
//!   the exclusive latch, which no merge can overlap.
//!
//! # Contention model (virtual time)
//!
//! Charges are quantised per [`NODE_PAGES`]-aligned region exactly like the
//! flat reference tree — same count, same hold times — so single-threaded
//! timelines are byte-identical between the two. The difference is
//! contended reads under [`LockScope::PerNode`]: instead of queueing behind
//! an in-service writer (`RwContention::read`), an optimistic descent
//! validates, fails, and re-descends, paying
//! `min(range_index_retry_ns, blocking wait)`. Structural work charges
//! `range_index_{descent,split,merge}_ns` (default 0 — see the cost model).

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

use parking_lot::RwLock;
use simclock::{CostModel, Counter, Histogram, RwContention, ThreadClock};

use super::bitmap::PageBitmap;
use super::{IndexStats, LockScope, NODE_PAGES};

/// Maximum pages one leaf may span — the flat tree's stride, so the
/// per-region charge quanta line up across implementations.
pub const LEAF_SPAN_PAGES: u64 = NODE_PAGES;

/// Maximum routing separators per inner node (fanout 9; small enough that
/// unit tests reach depth 3 within ~100 leaves).
const MAX_KEYS: usize = 8;
/// Minimum separators per non-root inner node.
const MIN_KEYS: usize = MAX_KEYS / 2;

/// Null slot id.
const NIL: u32 = u32::MAX;

/// Content-write plan retries before falling back to the exclusive latch.
const PLAN_RETRIES: usize = 4;

/// A leaf's lock-protected content, shared out via `Arc` so charges and
/// bit operations run with the topology latch dropped.
#[derive(Debug)]
struct LeafGuts {
    /// Presence bits, local to `word_base`.
    bits: RwLock<PageBitmap>,
    /// 64-aligned base page of the local bitmap (fixed at creation; a
    /// leaf's `lo` never moves, only `hi` grows).
    word_base: u64,
    /// Virtual-time contention model for this leaf's lock.
    lock_model: RwContention,
    /// Set under `bits` when a merge detaches this leaf; stale writers
    /// observe it and re-descend.
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

#[derive(Debug)]
struct LeafNode {
    /// First page covered (immutable once created).
    lo: u64,
    /// One past the last page covered (grows up to `lo + LEAF_SPAN_PAGES`).
    hi: u64,
    guts: Arc<LeafGuts>,
    /// Next leaf in ascending-`lo` chain, or `NIL`.
    next: u32,
}

#[derive(Debug)]
struct InnerNode {
    /// Routing separators, strictly increasing; pages `>= keys[i]` route
    /// to `children[i + 1]`.
    keys: Vec<u64>,
    children: Vec<u32>,
}

#[derive(Debug)]
enum Slot {
    Free,
    Inner(InnerNode),
    Leaf(LeafNode),
}

/// The tree's structure: arena, root, leaf chain, bookkeeping.
#[derive(Debug)]
struct TreeCore {
    slots: Vec<Slot>,
    free: Vec<u32>,
    root: u32,
    /// Levels root→leaf; 0 when empty, 1 when the root is a lone leaf.
    depth: u32,
    first_leaf: u32,
    leaves: u64,
}

/// Outcome of removing a leaf entry from a subtree.
struct Removed {
    /// Set when the removed leaf was the subtree's leftmost: the new
    /// leftmost leaf's `lo`, so the ancestor separator equal to the
    /// removed key can be rewritten and routing stays exact.
    new_first_lo: Option<u64>,
}

impl TreeCore {
    fn new() -> Self {
        Self {
            slots: Vec::new(),
            free: Vec::new(),
            root: NIL,
            depth: 0,
            first_leaf: NIL,
            leaves: 0,
        }
    }

    fn alloc(&mut self, slot: Slot) -> u32 {
        if let Some(id) = self.free.pop() {
            self.slots[id as usize] = slot;
            id
        } else {
            self.slots.push(slot);
            (self.slots.len() - 1) as u32
        }
    }

    fn dealloc(&mut self, id: u32) {
        self.slots[id as usize] = Slot::Free;
        self.free.push(id);
    }

    fn is_leaf(&self, id: u32) -> bool {
        matches!(self.slots[id as usize], Slot::Leaf(_))
    }

    fn leaf(&self, id: u32) -> &LeafNode {
        match &self.slots[id as usize] {
            Slot::Leaf(leaf) => leaf,
            _ => panic!("slot {id} is not a leaf"),
        }
    }

    fn leaf_mut(&mut self, id: u32) -> &mut LeafNode {
        match &mut self.slots[id as usize] {
            Slot::Leaf(leaf) => leaf,
            _ => panic!("slot {id} is not a leaf"),
        }
    }

    fn inner(&self, id: u32) -> &InnerNode {
        match &self.slots[id as usize] {
            Slot::Inner(inner) => inner,
            _ => panic!("slot {id} is not an inner node"),
        }
    }

    fn inner_mut(&mut self, id: u32) -> &mut InnerNode {
        match &mut self.slots[id as usize] {
            Slot::Inner(inner) => inner,
            _ => panic!("slot {id} is not an inner node"),
        }
    }

    /// The candidate leaf for `page`: the leaf with the greatest `lo`
    /// routing at or below `page` (the leftmost leaf when `page` precedes
    /// every separator), or `NIL` on an empty tree. Coverage is *not*
    /// implied — callers check `lo <= page < hi`.
    fn locate(&self, page: u64) -> u32 {
        let mut node = self.root;
        if node == NIL {
            return NIL;
        }
        while !self.is_leaf(node) {
            let inner = self.inner(node);
            let idx = inner.keys.partition_point(|&k| k <= page);
            node = inner.children[idx];
        }
        node
    }

    /// The first leaf whose range could intersect `[page, ..)`.
    fn leaf_at_or_after(&self, page: u64) -> u32 {
        let id = self.locate(page);
        if id == NIL {
            return NIL;
        }
        let leaf = self.leaf(id);
        if leaf.hi <= page {
            leaf.next
        } else {
            id
        }
    }

    /// Links `id` into the leaf chain directly after `prev` (`NIL` =
    /// becomes the new first leaf).
    fn link_after(&mut self, prev: u32, id: u32) {
        if prev == NIL {
            let old = self.first_leaf;
            self.leaf_mut(id).next = old;
            self.first_leaf = id;
        } else {
            let nxt = self.leaf(prev).next;
            self.leaf_mut(id).next = nxt;
            self.leaf_mut(prev).next = id;
        }
    }

    /// Inserts leaf `leaf` with routing key `key` (its `lo`), splitting
    /// inner nodes on the way back up. `splits` counts inner splits.
    fn insert_leaf_key(&mut self, key: u64, leaf: u32, splits: &mut u64) {
        if self.root == NIL {
            self.root = leaf;
            self.depth = 1;
            return;
        }
        if self.is_leaf(self.root) {
            let old = self.root;
            let old_lo = self.leaf(old).lo;
            let (left, right, sep) = if key < old_lo {
                (leaf, old, old_lo)
            } else {
                (old, leaf, key)
            };
            let id = self.alloc(Slot::Inner(InnerNode {
                keys: vec![sep],
                children: vec![left, right],
            }));
            self.root = id;
            self.depth += 1;
            return;
        }
        if let Some((sep, right)) = self.insert_rec(self.root, key, leaf, splits) {
            let id = self.alloc(Slot::Inner(InnerNode {
                keys: vec![sep],
                children: vec![self.root, right],
            }));
            self.root = id;
            self.depth += 1;
        }
    }

    fn insert_rec(
        &mut self,
        node: u32,
        key: u64,
        leaf: u32,
        splits: &mut u64,
    ) -> Option<(u64, u32)> {
        let idx = self.inner(node).keys.partition_point(|&k| k <= key);
        let child = self.inner(node).children[idx];
        if self.is_leaf(child) {
            let child_lo = self.leaf(child).lo;
            let inner = self.inner_mut(node);
            if key < child_lo {
                // The new leaf precedes the located child (it becomes the
                // subtree's leftmost): it takes the child's position and
                // the child's own `lo` becomes the separator, keeping
                // routing exact.
                inner.keys.insert(idx, child_lo);
                inner.children.insert(idx, leaf);
            } else {
                inner.keys.insert(idx, key);
                inner.children.insert(idx + 1, leaf);
            }
        } else if let Some((sep, right)) = self.insert_rec(child, key, leaf, splits) {
            let inner = self.inner_mut(node);
            let at = inner.keys.partition_point(|&k| k <= sep);
            inner.keys.insert(at, sep);
            inner.children.insert(at + 1, right);
        }
        if self.inner(node).keys.len() > MAX_KEYS {
            Some(self.split_inner(node, splits))
        } else {
            None
        }
    }

    /// Splits an overflowed inner node, promoting the middle separator.
    fn split_inner(&mut self, node: u32, splits: &mut u64) -> (u64, u32) {
        let (sep, right_keys, right_children) = {
            let inner = self.inner_mut(node);
            let mid = inner.keys.len() / 2;
            let sep = inner.keys[mid];
            let right_keys = inner.keys.split_off(mid + 1);
            inner.keys.pop();
            let right_children = inner.children.split_off(mid + 1);
            (sep, right_keys, right_children)
        };
        let right = self.alloc(Slot::Inner(InnerNode {
            keys: right_keys,
            children: right_children,
        }));
        *splits += 1;
        (sep, right)
    }

    /// Removes the entry routing to the leaf whose `lo` is `key` (the leaf
    /// slot itself is deallocated by the caller). Requires an inner root —
    /// merges only fire with at least two leaves present.
    fn remove_leaf_key(&mut self, key: u64) {
        self.remove_rec(self.root, key);
        while self.root != NIL && !self.is_leaf(self.root) && self.inner(self.root).keys.is_empty()
        {
            let old = self.root;
            self.root = self.inner(old).children[0];
            self.dealloc(old);
            self.depth -= 1;
        }
    }

    fn remove_rec(&mut self, node: u32, key: u64) -> Removed {
        let idx = self.inner(node).keys.partition_point(|&k| k <= key);
        let child = self.inner(node).children[idx];
        if self.is_leaf(child) {
            let inner = self.inner_mut(node);
            if idx > 0 {
                inner.keys.remove(idx - 1);
                inner.children.remove(idx);
                Removed { new_first_lo: None }
            } else {
                // Leftmost child of this node: the routing key equal to
                // `key` (if any) lives at an ancestor; report the new
                // leftmost leaf so that ancestor can be rewritten.
                inner.children.remove(0);
                inner.keys.remove(0);
                let new_lo = self.leaf(self.inner(node).children[0]).lo;
                Removed {
                    new_first_lo: Some(new_lo),
                }
            }
        } else {
            let mut removed = self.remove_rec(child, key);
            if let Some(new_lo) = removed.new_first_lo {
                if idx > 0 {
                    self.inner_mut(node).keys[idx - 1] = new_lo;
                    removed.new_first_lo = None;
                }
            }
            if self.inner(child).keys.len() < MIN_KEYS {
                self.rebalance(node, idx);
            }
            removed
        }
    }

    /// Restores occupancy of `children[idx]` by borrowing from a sibling
    /// or merging with one (parent underflow propagates via the caller).
    fn rebalance(&mut self, parent: u32, idx: usize) {
        if idx > 0 {
            let left = self.inner(parent).children[idx - 1];
            if self.inner(left).keys.len() > MIN_KEYS {
                let sep = self.inner(parent).keys[idx - 1];
                let (lk, lc) = {
                    let l = self.inner_mut(left);
                    (l.keys.pop().unwrap(), l.children.pop().unwrap())
                };
                let child = self.inner(parent).children[idx];
                {
                    let c = self.inner_mut(child);
                    c.keys.insert(0, sep);
                    c.children.insert(0, lc);
                }
                self.inner_mut(parent).keys[idx - 1] = lk;
                return;
            }
        }
        if idx + 1 < self.inner(parent).children.len() {
            let right = self.inner(parent).children[idx + 1];
            if self.inner(right).keys.len() > MIN_KEYS {
                let sep = self.inner(parent).keys[idx];
                let (rk, rc) = {
                    let r = self.inner_mut(right);
                    (r.keys.remove(0), r.children.remove(0))
                };
                let child = self.inner(parent).children[idx];
                {
                    let c = self.inner_mut(child);
                    c.keys.push(sep);
                    c.children.push(rc);
                }
                self.inner_mut(parent).keys[idx] = rk;
                return;
            }
        }
        let (li, ri) = if idx > 0 {
            (idx - 1, idx)
        } else {
            (idx, idx + 1)
        };
        let sep = self.inner(parent).keys[li];
        let left = self.inner(parent).children[li];
        let right = self.inner(parent).children[ri];
        let (mut rkeys, mut rchildren) = {
            let r = self.inner_mut(right);
            (std::mem::take(&mut r.keys), std::mem::take(&mut r.children))
        };
        {
            let l = self.inner_mut(left);
            l.keys.push(sep);
            l.keys.append(&mut rkeys);
            l.children.append(&mut rchildren);
        }
        self.dealloc(right);
        let p = self.inner_mut(parent);
        p.keys.remove(li);
        p.children.remove(ri);
    }
}

/// The arena-allocated B+ tree range index. See the module docs for the
/// locking protocol and virtual-time contention model.
#[derive(Debug)]
pub struct BPlusRangeIndex {
    core: RwLock<TreeCore>,
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
    retired_wait_ns: AtomicU64,
}

impl BPlusRangeIndex {
    /// Creates an empty index.
    pub fn new() -> Self {
        Self {
            core: RwLock::new(TreeCore::new()),
            whole_file_lock: RwContention::new("lib-file-bitmap"),
            probe_lock: RwContention::new("range-probe"),
            wait_hist: OnceLock::new(),
            splits: Counter::default(),
            merges: Counter::default(),
            retries: Counter::default(),
            retired_wait_ns: AtomicU64::new(0),
        }
    }

    /// Installs a shared histogram every lock acquisition records its wait
    /// into. First call wins; later calls are ignored.
    pub fn set_wait_histogram(&self, hist: Arc<Histogram>) {
        let _ = self.wait_hist.set(hist);
    }

    fn record_wait(&self, wait_ns: u64) {
        if let Some(hist) = self.wait_hist.get() {
            hist.record(wait_ns);
        }
    }

    /// Charges the per-level descent cost (a no-op at the default of 0,
    /// which keeps timelines identical to the flat reference model).
    fn charge_descent(&self, clock: &mut ThreadClock, costs: &CostModel) {
        if costs.range_index_descent_ns == 0 {
            return;
        }
        let depth = u64::from(self.core.read().depth);
        if depth > 0 {
            clock.advance(depth * costs.range_index_descent_ns);
        }
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
        self.record_wait(access.wait_ns);
        clock.advance_to(access.end_ns);
        if access.wait_ns > 0 {
            crate::span::record_leaf(
                crate::span::SpanKind::LibTreeLockWait,
                access.wait_ns,
                access.end_ns,
            );
        }
    }

    /// Shared acquisition. Under [`LockScope::PerNode`] this is the
    /// optimistic path: a writer in service at our timestamp would fail
    /// version validation, so instead of queueing until it drains we pay a
    /// bounded re-descent penalty (capped at the blocking wait it
    /// replaces) and count a retry.
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
                self.record_wait(access.wait_ns);
                clock.advance_to(access.end_ns);
                if access.wait_ns > 0 {
                    crate::span::record_leaf(
                        crate::span::SpanKind::LibTreeLockWait,
                        access.wait_ns,
                        access.end_ns,
                    );
                }
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
                self.record_wait(wait);
                clock.advance(wait + hold);
                if wait > 0 {
                    crate::span::record_leaf(
                        crate::span::SpanKind::LibTreeLockWait,
                        wait,
                        clock.now(),
                    );
                }
            }
        }
    }

    /// When `[start, end)` is fully covered *and* fully marked, returns
    /// the first covering leaf's guts (the lock to charge the read
    /// against); otherwise `None`.
    fn probe_marked(&self, start: u64, end: u64) -> Option<Arc<LeafGuts>> {
        let core = self.core.read();
        let mut first = None;
        let mut pos = start;
        let mut id = core.leaf_at_or_after(start);
        while pos < end {
            if id == NIL {
                return None;
            }
            let leaf = core.leaf(id);
            if leaf.lo > pos || leaf.hi <= pos {
                return None;
            }
            let seg_end = end.min(leaf.hi);
            let wb = leaf.guts.word_base;
            if !leaf.guts.bits.read().contains_all(pos - wb, seg_end - wb) {
                return None;
            }
            if first.is_none() {
                first = Some(Arc::clone(&leaf.guts));
            }
            pos = seg_end;
            id = leaf.next;
        }
        first
    }

    /// The guts of the leaf covering `page`, if one does.
    fn owner_model(&self, page: u64) -> Option<Arc<LeafGuts>> {
        let core = self.core.read();
        let id = core.locate(page);
        if id == NIL {
            return None;
        }
        let leaf = core.leaf(id);
        (leaf.lo <= page && page < leaf.hi).then(|| Arc::clone(&leaf.guts))
    }

    /// When `[start, end)` is already fully covered by leaves, returns the
    /// first covering leaf's guts without taking the exclusive latch.
    fn covered_owner(&self, start: u64, end: u64) -> Option<Arc<LeafGuts>> {
        let core = self.core.read();
        let mut first = None;
        let mut pos = start;
        let mut id = core.leaf_at_or_after(start);
        while pos < end {
            if id == NIL {
                return None;
            }
            let leaf = core.leaf(id);
            if leaf.lo > pos || leaf.hi <= pos {
                return None;
            }
            if first.is_none() {
                first = Some(Arc::clone(&leaf.guts));
            }
            pos = leaf.hi;
            id = leaf.next;
        }
        first
    }

    /// Grows coverage so every page of `[start, end)` lies in some leaf:
    /// the leaf ending at a gap extends in place up to [`LEAF_SPAN_PAGES`],
    /// the remainder is chopped into span-capped leaves, and touched
    /// boundaries whose union still fits one leaf are re-absorbed.
    /// Returns the first covering leaf's guts.
    fn ensure_covered(
        &self,
        clock: &mut ThreadClock,
        costs: &CostModel,
        start: u64,
        end: u64,
    ) -> Arc<LeafGuts> {
        if let Some(owner) = self.covered_owner(start, end) {
            return owner;
        }
        let mut splits = 0u64;
        let mut merges = 0u64;
        let owner = {
            let mut core = self.core.write();
            let mut pos = start;
            while pos < end {
                let next = core.leaf_at_or_after(pos);
                if next != NIL && core.leaf(next).lo <= pos {
                    pos = core.leaf(next).hi;
                    continue;
                }
                let gap_end = if next == NIL {
                    end
                } else {
                    core.leaf(next).lo.min(end)
                };
                Self::fill_gap(&mut core, pos, gap_end, &mut splits);
                pos = gap_end;
            }
            // Coalesce across the touched span: adjacent leaves whose
            // union fits one span absorb rightward.
            let mut t = core.locate(start);
            loop {
                if !self.absorb_next(&mut core, t, &mut merges) {
                    let nxt = core.leaf(t).next;
                    if nxt == NIL || core.leaf(nxt).lo >= end {
                        break;
                    }
                    t = nxt;
                }
            }
            let id = core.locate(start);
            Arc::clone(&core.leaf(id).guts)
        };
        if splits > 0 {
            self.splits.add(splits);
        }
        if merges > 0 {
            self.merges.add(merges);
        }
        let structural = splits * costs.range_index_split_ns + merges * costs.range_index_merge_ns;
        if structural > 0 {
            clock.advance(structural);
        }
        owner
    }

    /// Fills the uncovered gap `[gs, ge)` (no leaf intersects it).
    fn fill_gap(core: &mut TreeCore, gs: u64, ge: u64, splits: &mut u64) {
        let mut pos = gs;
        let mut prev = if gs == 0 {
            NIL
        } else {
            let id = core.locate(gs - 1);
            if id != NIL && core.leaf(id).lo < gs {
                id
            } else {
                NIL
            }
        };
        if prev != NIL && core.leaf(prev).hi == gs {
            let lo = core.leaf(prev).lo;
            let ext = ge.min(lo + LEAF_SPAN_PAGES);
            if ext > gs {
                core.leaf_mut(prev).hi = ext;
                pos = ext;
            }
        }
        while pos < ge {
            let nend = ge.min(pos + LEAF_SPAN_PAGES);
            // A new leaf continuing a contiguous run is a leaf split: the
            // run would be one oversized leaf if the span cap allowed it.
            if prev != NIL && core.leaf(prev).hi == pos {
                *splits += 1;
            }
            let guts = Arc::new(LeafGuts::new(pos));
            let id = core.alloc(Slot::Leaf(LeafNode {
                lo: pos,
                hi: nend,
                guts,
                next: NIL,
            }));
            core.link_after(prev, id);
            core.insert_leaf_key(pos, id, splits);
            core.leaves += 1;
            prev = id;
            pos = nend;
        }
    }

    /// Absorbs leaf `t`'s right neighbour into `t` when they are adjacent
    /// and the union fits one leaf span. The victim's bits are word-OR'd
    /// into `t` under both bitmap locks, then it is flagged `detached` so
    /// stale writers re-descend. Returns whether a merge happened.
    fn absorb_next(&self, core: &mut TreeCore, t: u32, merges: &mut u64) -> bool {
        let (t_lo, t_hi, nxt) = {
            let leaf = core.leaf(t);
            (leaf.lo, leaf.hi, leaf.next)
        };
        if nxt == NIL {
            return false;
        }
        let (r_lo, r_hi) = {
            let r = core.leaf(nxt);
            (r.lo, r.hi)
        };
        if r_lo != t_hi || r_hi - t_lo > LEAF_SPAN_PAGES {
            return false;
        }
        let t_guts = Arc::clone(&core.leaf(t).guts);
        let r_guts = Arc::clone(&core.leaf(nxt).guts);
        let r_next = core.leaf(nxt).next;
        {
            let rb = r_guts.bits.write();
            let mut tb = t_guts.bits.write();
            let off = ((r_guts.word_base - t_guts.word_base) / 64) as usize;
            tb.or_from(&rb, off);
            // Flag while still holding the victim's lock: any writer that
            // acquires it afterwards observes the flag before touching bits.
            r_guts.detached.store(true, Ordering::Release);
        }
        self.retired_wait_ns
            .fetch_add(r_guts.lock_model.total_wait_ns(), Ordering::Relaxed);
        core.leaf_mut(t).hi = r_hi;
        core.leaf_mut(t).next = r_next;
        core.remove_leaf_key(r_lo);
        core.dealloc(nxt);
        core.leaves -= 1;
        *merges += 1;
        true
    }

    /// Sets `[start, end)` through the per-leaf locks: plan the covering
    /// segments under the shared latch, drop it, then write each leaf's
    /// bits, validating the `detached` flag. Bounded retries fall back to
    /// the exclusive latch, which no merge can overlap.
    fn set_bits(&self, start: u64, end: u64) -> u64 {
        for _ in 0..PLAN_RETRIES {
            let segs: Vec<(Arc<LeafGuts>, u64, u64)> = {
                let core = self.core.read();
                let mut segs = Vec::new();
                let mut pos = start;
                let mut id = core.leaf_at_or_after(start);
                while pos < end && id != NIL {
                    let leaf = core.leaf(id);
                    if leaf.lo > pos || leaf.hi <= pos {
                        break;
                    }
                    let seg_end = end.min(leaf.hi);
                    segs.push((Arc::clone(&leaf.guts), pos, seg_end));
                    pos = seg_end;
                    id = leaf.next;
                }
                if pos < end {
                    continue;
                }
                segs
            };
            let mut newly = 0;
            let mut stale = false;
            for (guts, s, e) in &segs {
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
        let core = self.core.write();
        let mut newly = 0;
        let mut pos = start;
        let mut id = core.leaf_at_or_after(start);
        while pos < end && id != NIL {
            let leaf = core.leaf(id);
            if leaf.lo > pos || leaf.hi <= pos {
                break;
            }
            let seg_end = end.min(leaf.hi);
            let wb = leaf.guts.word_base;
            newly += leaf.guts.bits.write().set_range(pos - wb, seg_end - wb);
            pos = seg_end;
            id = leaf.next;
        }
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
        if start >= end {
            return 0;
        }
        self.charge_descent(clock, costs);
        let mut newly = 0;
        let mut page = start;
        while page < end {
            let upto = end.min((page / NODE_PAGES + 1) * NODE_PAGES);
            match self.probe_marked(page, upto) {
                Some(guts) => {
                    self.charge_read(clock, costs, scope, &guts.lock_model, upto - page);
                }
                None => {
                    let owner = self.ensure_covered(clock, costs, page, upto);
                    self.charge_write(clock, costs, scope, &owner.lock_model, upto - page);
                    newly += self.set_bits(page, upto);
                }
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
        if start >= end {
            return missing;
        }
        self.charge_descent(clock, costs);
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

    /// Appends the missing runs of one region chunk, carrying an open run.
    fn collect_chunk(
        &self,
        start: u64,
        end: u64,
        open: &mut Option<u64>,
        out: &mut Vec<(u64, u64)>,
    ) {
        let core = self.core.read();
        let mut pos = start;
        let mut id = core.leaf_at_or_after(start);
        while pos < end {
            if id == NIL || core.leaf(id).lo >= end {
                if open.is_none() {
                    *open = Some(pos);
                }
                return;
            }
            let leaf = core.leaf(id);
            if leaf.lo > pos {
                if open.is_none() {
                    *open = Some(pos);
                }
                pos = leaf.lo;
            }
            let seg_end = end.min(leaf.hi);
            let wb = leaf.guts.word_base;
            leaf.guts
                .bits
                .read()
                .collect_missing(pos - wb, seg_end - wb, wb, open, out);
            pos = seg_end;
            id = leaf.next;
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
        self.charge_descent(clock, costs);
        let (regions, leaves): (Vec<Arc<LeafGuts>>, Vec<Arc<LeafGuts>>) = {
            let core = self.core.read();
            let mut by_region = std::collections::BTreeMap::new();
            let mut all = Vec::new();
            let mut id = core.first_leaf;
            while id != NIL {
                let leaf = core.leaf(id);
                for region in (leaf.lo / NODE_PAGES)..=((leaf.hi - 1) / NODE_PAGES) {
                    by_region
                        .entry(region)
                        .or_insert_with(|| Arc::clone(&leaf.guts));
                }
                all.push(Arc::clone(&leaf.guts));
                id = leaf.next;
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
        let core = self.core.read();
        let mut total = 0;
        let mut id = core.first_leaf;
        while id != NIL {
            let leaf = core.leaf(id);
            total += leaf.guts.bits.read().resident();
            id = leaf.next;
        }
        total
    }

    /// Aggregate wait across leaf locks (including absorbed leaves), the
    /// probe lock, and the whole-file lock.
    pub fn lock_wait_ns(&self) -> u64 {
        let core = self.core.read();
        let mut total = self.retired_wait_ns.load(Ordering::Relaxed);
        let mut id = core.first_leaf;
        while id != NIL {
            let leaf = core.leaf(id);
            total += leaf.guts.lock_model.total_wait_ns();
            id = leaf.next;
        }
        total + self.probe_lock.total_wait_ns() + self.whole_file_lock.total_wait_ns()
    }

    /// Wait time on the whole-file lock only.
    pub fn whole_file_wait_ns(&self) -> u64 {
        self.whole_file_lock.total_wait_ns()
    }

    /// Structural statistics.
    pub fn stats(&self) -> IndexStats {
        let core = self.core.read();
        IndexStats {
            depth: u64::from(core.depth),
            leaves: core.leaves,
            splits: self.splits.get(),
            merges: self.merges.get(),
            optimistic_retries: self.retries.get(),
        }
    }

    /// Asserts every structural invariant: sorted separators, occupancy
    /// bounds, parent/child key bounds, uniform depth, leaf chain order
    /// and span caps, exact routing, and no detached leaf in the tree.
    /// Test-support; panics on violation.
    pub fn check_invariants(&self) {
        let core = self.core.read();
        if core.root == NIL {
            assert_eq!(core.depth, 0, "empty tree must have depth 0");
            assert_eq!(core.first_leaf, NIL, "empty tree must have no chain");
            assert_eq!(core.leaves, 0, "empty tree must count no leaves");
            return;
        }
        let mut in_order = Vec::new();
        Self::check_node(&core, core.root, 1, None, None, &mut in_order);
        assert_eq!(
            in_order.len() as u64,
            core.leaves,
            "leaf count must match tree traversal"
        );
        let mut chain = Vec::new();
        let mut id = core.first_leaf;
        while id != NIL {
            chain.push(id);
            id = core.leaf(id).next;
        }
        assert_eq!(chain, in_order, "leaf chain must equal in-order traversal");
        for pair in chain.windows(2) {
            let (a, b) = (core.leaf(pair[0]), core.leaf(pair[1]));
            assert!(a.hi <= b.lo, "leaves must be disjoint and ascending");
        }
        for &leaf_id in &chain {
            let leaf = core.leaf(leaf_id);
            assert_eq!(core.locate(leaf.lo), leaf_id, "lo must route to its leaf");
            assert_eq!(
                core.locate(leaf.hi - 1),
                leaf_id,
                "hi-1 must route to its leaf"
            );
        }
    }

    fn check_node(
        core: &TreeCore,
        id: u32,
        level: u32,
        low: Option<u64>,
        high: Option<u64>,
        out: &mut Vec<u32>,
    ) {
        if core.is_leaf(id) {
            let leaf = core.leaf(id);
            assert_eq!(level, core.depth, "all leaves must sit at tree depth");
            assert!(leaf.lo < leaf.hi, "leaf range must be non-empty");
            assert!(
                leaf.hi - leaf.lo <= LEAF_SPAN_PAGES,
                "leaf span must respect the cap"
            );
            if let Some(low) = low {
                assert!(leaf.lo >= low, "leaf must sit above its lower bound");
            }
            if let Some(high) = high {
                assert!(leaf.hi <= high, "leaf must sit below its upper bound");
            }
            assert!(
                !leaf.guts.detached.load(Ordering::Acquire),
                "no leaf in the tree may be detached"
            );
            out.push(id);
            return;
        }
        let inner = core.inner(id);
        assert!(!inner.keys.is_empty(), "inner node must hold keys");
        assert!(
            inner.keys.len() <= MAX_KEYS,
            "inner node must respect max occupancy"
        );
        if id != core.root {
            assert!(
                inner.keys.len() >= MIN_KEYS,
                "non-root inner node must respect min occupancy"
            );
        }
        assert_eq!(
            inner.children.len(),
            inner.keys.len() + 1,
            "inner node must have one more child than keys"
        );
        for pair in inner.keys.windows(2) {
            assert!(pair[0] < pair[1], "separators must strictly increase");
        }
        for (i, &key) in inner.keys.iter().enumerate() {
            if let Some(low) = low {
                assert!(key > low, "separator {i} must exceed the lower bound");
            }
            if let Some(high) = high {
                assert!(key < high, "separator {i} must undercut the upper bound");
            }
        }
        for (i, &child) in inner.children.iter().enumerate() {
            let child_low = if i == 0 { low } else { Some(inner.keys[i - 1]) };
            let child_high = if i == inner.keys.len() {
                high
            } else {
                Some(inner.keys[i])
            };
            Self::check_node(core, child, level + 1, child_low, child_high, out);
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
    fn many_disjoint_leaves_split_inner_nodes() {
        let tree = BPlusRangeIndex::new();
        let mut c = clock();
        for i in 0..100u64 {
            tree.mark_cached(&mut c, &costs(), LockScope::PerNode, i * 2048, i * 2048 + 1);
        }
        let stats = tree.stats();
        assert_eq!(stats.leaves, 100);
        assert!(stats.depth >= 3, "100 leaves at fanout 9 need depth 3");
        tree.check_invariants();
        assert_eq!(tree.resident(), 100);
        assert_eq!(
            tree.missing_in(&mut c, &costs(), LockScope::PerNode, 0, 3 * 2048),
            vec![(1, 2048), (2049, 4096), (4097, 6144)]
        );
    }

    #[test]
    fn interleaved_inserts_descending_exercise_left_splits() {
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
    fn merges_rebalance_back_down() {
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
    fn missing_in_empty_tree_is_whole_range() {
        let tree = BPlusRangeIndex::new();
        let mut c = clock();
        assert_eq!(
            tree.missing_in(&mut c, &costs(), LockScope::PerNode, 5, 10),
            vec![(5, 10)]
        );
    }
}
