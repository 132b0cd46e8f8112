//! Two-tier device composition with a per-file block placement map.
//!
//! A [`TieredStore`] pairs a fast local device (NVMe) with a slower remote
//! one (NVMe-oF: higher fixed latency, its own bandwidth cap and congestion
//! window) behind the same block-charge interface the OS layer already
//! speaks. Every file's blocks start *remote*; a placement map records, per
//! file and logical block, which tier currently holds it. Promotion copies
//! predicted-hot ranges remote→local (a prefetch-class remote read plus a
//! background local write); demotion under local-tier pressure returns the
//! coldest words to the remote tier, writing locally-modified blocks back
//! first and dropping clean ones for free.
//!
//! Host memory holds one copy of each block's bytes across both tiers.
//! Promotion shares the remote bytes with the local store
//! ([`SparseStore::copy_block`](crate::SparseStore::copy_block)); the first
//! write to a local block drops the remote reference, so the local copy is
//! the only one and is written in place; demotion hands a modified block's
//! reference back and drops a clean one. The invariant, kept by
//! [`TieredStore::with_written_runs`] under the placement lock: *a block
//! whose placement word reads local and modified has no bytes in the
//! remote store.* Only the virtual model moves data; the host moves
//! references.
//!
//! One rule keeps the bytes where the bits say they are: *the file's
//! placement guard is held from routing a run to touching its bytes, and a
//! tier move changes bits and bytes under one guard.* The byte path routes
//! and copies inside [`TieredStore::with_runs`] /
//! [`TieredStore::with_written_runs`]; promotion and demotion share or
//! hand back references and flip bits under the guard, and charge their
//! devices outside it. Lock order is placement guard → file-system block
//! map → store shard: no path takes a placement guard while it holds a
//! block-map or shard lock.
//!
//! Placement bookkeeping is word-granular (64 blocks per word, matching the
//! page-cache reclaim LRU) with three bits per block — placed-local,
//! locally-modified, promoted-but-unread — plus a per-word touch stamp in
//! virtual time driving cold-first demotion. Promotion only flips placement
//! bits *after* both device charges succeed, so an injected remote EIO
//! leaves the map exactly as it was.
//!
//! The store deliberately knows nothing about filesystems: callers resolve
//! logical→physical block numbers (promotion passes physical runs in;
//! demotion takes a resolver closure), keeping this crate at the bottom of
//! the stack.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::convert::Infallible;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::{Mutex, RwLock};
use simclock::{Counter, ThreadClock};

use crate::store::BlockMap;
use crate::wordwalk::{bit_runs, set_runs, word_spans, WORD_BITS};
use crate::{Device, DeviceError, IoPriority};

/// Blocks tracked per placement word (matches the reclaim LRU's
/// pages-per-word granularity).
pub const PLACEMENT_WORD_BLOCKS: u64 = WORD_BITS;

/// Which tier currently holds a block.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Tier {
    /// The fast local device.
    Local,
    /// The slow remote device (default placement for every block).
    Remote,
}

/// One word of per-block placement state.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
struct TierWord {
    /// Bit set ⇒ the block is placed on the local tier.
    local: u64,
    /// Bit set ⇒ the local copy diverges from the remote one (a write
    /// landed while the block was local); demotion must copy it back.
    modified: u64,
    /// Bit set ⇒ promoted and not read since — demoting such a block counts
    /// as a wasted promotion.
    unread: u64,
    /// Virtual time of the last read touching this word's local blocks.
    touch_ns: u64,
}

#[derive(Debug, Default)]
struct FilePlacement {
    words: BlockMap<TierWord>,
}

/// Aggregate tier-movement counters.
#[derive(Debug, Default)]
pub struct TierStats {
    /// Promotion copies that completed (placement flipped).
    pub promotions: Counter,
    /// Blocks newly moved to the local tier by promotion.
    pub promoted_blocks: Counter,
    /// Promotion copies rejected by an injected remote fault.
    pub promotion_faults: Counter,
    /// Promoted blocks demoted or dropped without ever being read locally.
    pub promoted_wasted_blocks: Counter,
    /// Demotion passes (words returned to the remote tier).
    pub demotions: Counter,
    /// Blocks returned to the remote tier.
    pub demoted_blocks: Counter,
    /// Demoted blocks that were locally modified and had to be written back
    /// to the remote device first.
    pub demoted_dirty_blocks: Counter,
}

/// The logical blocks of placement word `word` whose bit is set in `bits`,
/// ascending — walked run by run, never bit by bit.
fn set_blocks(word: u64, bits: u64) -> impl Iterator<Item = u64> {
    let base = word * PLACEMENT_WORD_BLOCKS;
    set_runs(bits).flat_map(move |(b0, b1)| base + b0..base + b1)
}

/// A write's note for [`TieredStore::with_written_runs`]: its virtual
/// time and the `(file, lblock)` → physical block resolver.
pub type WriteNote<'a> = (u64, &'a dyn Fn(u64, u64) -> u64);

/// A local+remote device pair behind one block interface.
#[derive(Debug)]
pub struct TieredStore {
    local: Arc<Device>,
    remote: Arc<Device>,
    /// Local-tier capacity in blocks; promotion respects it via
    /// [`TieredStore::ensure_room`].
    local_capacity_blocks: u64,
    /// Blocks currently placed local.
    resident: AtomicU64,
    files: RwLock<BlockMap<Arc<Mutex<FilePlacement>>>>,
    stats: TierStats,
}

impl TieredStore {
    /// Composes two devices. Install per-tier fault plans by constructing
    /// each [`Device`] with [`Device::with_fault_plan`] — the tiers draw
    /// from fully independent seeds and probabilities.
    pub fn new(local: Device, remote: Device, local_capacity_blocks: u64) -> Self {
        Self {
            local: Arc::new(local),
            remote: Arc::new(remote),
            local_capacity_blocks,
            resident: AtomicU64::new(0),
            files: RwLock::new(BlockMap::default()),
            stats: TierStats::default(),
        }
    }

    /// The fast tier.
    pub fn local(&self) -> &Arc<Device> {
        &self.local
    }

    /// The slow tier.
    pub fn remote(&self) -> &Arc<Device> {
        &self.remote
    }

    /// The device holding blocks of the given tier.
    pub fn device(&self, tier: Tier) -> &Arc<Device> {
        match tier {
            Tier::Local => &self.local,
            Tier::Remote => &self.remote,
        }
    }

    /// Tier-movement counters.
    pub fn stats(&self) -> &TierStats {
        &self.stats
    }

    /// Local-tier capacity in blocks.
    pub fn local_capacity_blocks(&self) -> u64 {
        self.local_capacity_blocks
    }

    /// Blocks currently placed on the local tier.
    pub fn local_resident_blocks(&self) -> u64 {
        self.resident.load(Ordering::Relaxed)
    }

    fn placement(&self, file: u64) -> Arc<Mutex<FilePlacement>> {
        if let Some(p) = self.files.read().get(&file) {
            return Arc::clone(p);
        }
        let mut files = self.files.write();
        Arc::clone(files.entry(file).or_default())
    }

    /// The tier holding one logical block of `file`.
    pub fn tier_of(&self, file: u64, lblock: u64) -> Tier {
        let placement = self.placement(file);
        let words = &placement.lock().words;
        let word = lblock / PLACEMENT_WORD_BLOCKS;
        let bit = lblock % PLACEMENT_WORD_BLOCKS;
        match words.get(&word) {
            Some(w) if w.local & (1 << bit) != 0 => Tier::Local,
            _ => Tier::Remote,
        }
    }

    /// Visits `[lstart, lstart+count)` as maximal same-tier runs
    /// `visit(start, count, tier)` in logical order, stopping at the first
    /// error, with the file's placement guard held across every visit: a
    /// visit that touches a run's bytes finds them on the tier it was
    /// routed to.
    pub fn with_runs<E>(
        &self,
        file: u64,
        lstart: u64,
        count: u64,
        visit: impl FnMut(u64, u64, Tier) -> Result<(), E>,
    ) -> Result<(), E> {
        self.with_written_runs(file, lstart, count, None, visit)
    }

    /// [`TieredStore::with_runs`] for a write: with `written` set, each
    /// word is first marked as [`TieredStore::note_range_written`]
    /// describes, in the same guard and the same word walk, so the bytes
    /// a visit stores land where the marks say they are.
    pub fn with_written_runs<E>(
        &self,
        file: u64,
        lstart: u64,
        count: u64,
        written: Option<WriteNote<'_>>,
        mut visit: impl FnMut(u64, u64, Tier) -> Result<(), E>,
    ) -> Result<(), E> {
        if count == 0 {
            return Ok(());
        }
        let placement = self.placement(file);
        let mut guard = placement.lock();
        let mut open: Option<(u64, u64, Tier)> = None;
        for (word, mask) in word_spans(lstart, lstart + count) {
            let word = word as u64;
            let local = match guard.words.get_mut(&word) {
                Some(w) => {
                    let hit = w.local & mask;
                    if let Some((now, map_block)) = written.filter(|_| hit != 0) {
                        for lblock in set_blocks(word, hit & !w.modified) {
                            self.remote.store().discard(map_block(file, lblock));
                        }
                        w.modified |= hit;
                        w.unread &= !hit;
                        w.touch_ns = w.touch_ns.max(now);
                    }
                    w.local
                }
                None => 0,
            };
            for (b0, b1, is_local) in bit_runs(local, mask) {
                let start = word * PLACEMENT_WORD_BLOCKS + b0;
                let tier = if is_local { Tier::Local } else { Tier::Remote };
                match &mut open {
                    Some((s, c, t)) if *t == tier && *s + *c == start => *c += b1 - b0,
                    _ => {
                        if let Some((s, c, t)) = open.replace((start, b1 - b0, tier)) {
                            visit(s, c, t)?;
                        }
                    }
                }
            }
        }
        open.map_or(Ok(()), |(s, c, t)| visit(s, c, t))
    }

    /// Splits `[lstart, lstart+count)` into maximal same-tier runs of
    /// `(start, count, tier)`: [`TieredStore::with_runs`], collected. The
    /// runs can go stale once the guard is released, so a caller that
    /// touches bytes routes inside `with_runs` instead.
    pub fn split_runs(&self, file: u64, lstart: u64, count: u64) -> Vec<(u64, u64, Tier)> {
        let mut runs = Vec::new();
        let Ok(()) = self.with_runs(file, lstart, count, |s, c, t| {
            runs.push((s, c, t));
            Ok::<_, Infallible>(())
        });
        runs
    }

    /// Sub-ranges of `[lstart, lstart+count)` still placed remote — the
    /// promotion work list.
    pub fn remote_runs(&self, file: u64, lstart: u64, count: u64) -> Vec<(u64, u64)> {
        self.split_runs(file, lstart, count)
            .into_iter()
            .filter(|&(_, _, t)| t == Tier::Remote)
            .map(|(s, c, _)| (s, c))
            .collect()
    }

    /// Records a read of the range: stamps the touch clock on words with
    /// local blocks and clears their promoted-unread bits (the promotion
    /// paid off).
    pub fn note_read(&self, file: u64, lstart: u64, count: u64, now: u64) {
        if count == 0 {
            return;
        }
        let placement = self.placement(file);
        let mut guard = placement.lock();
        for (word, mask) in word_spans(lstart, lstart + count) {
            if let Some(w) = guard.words.get_mut(&(word as u64)) {
                if w.local & mask != 0 {
                    w.touch_ns = w.touch_ns.max(now);
                    w.unread &= !mask;
                }
            }
        }
    }

    /// Records a write to `[lstart, lstart+count)` under one placement
    /// lock — the marking step of [`TieredStore::with_written_runs`]
    /// alone: every local-placed block in it is marked locally-modified
    /// (demotion must copy it back), stops counting as promoted-unread, and
    /// stamps its word's touch clock. A block that turns modified here also
    /// drops its remote bytes (physical block `map_block(file, lblock)`),
    /// so the write finds the local copy unshared and the invariant in the
    /// module docs holds. Remote-placed blocks need no bookkeeping — their
    /// bytes land on the remote tier directly.
    pub fn note_range_written(
        &self,
        file: u64,
        lstart: u64,
        count: u64,
        now: u64,
        map_block: &dyn Fn(u64, u64) -> u64,
    ) {
        let written = Some((now, map_block));
        let Ok(()) = self.with_written_runs(file, lstart, count, written, |_, _, _| {
            Ok::<_, Infallible>(())
        });
    }

    /// The `(local, modified)` bits of placement word `word` of `file` —
    /// exposed for tests.
    #[doc(hidden)]
    pub fn placement_bits(&self, file: u64, word: u64) -> (u64, u64) {
        let placement = self.placement(file);
        let guard = placement.lock();
        guard
            .words
            .get(&word)
            .map_or((0, 0), |w| (w.local, w.modified))
    }

    /// Promotes one wholly-remote logical run (from
    /// [`TieredStore::remote_runs`]) to the local tier: charges a
    /// prefetch-class read on the remote device (fallible — the remote
    /// tier's fault plan draws here) and a background local write, then,
    /// under one placement guard, shares any explicitly-written remote
    /// content with the local store and flips the placement bits. A write
    /// to the run lands either before the share (and is shared) or after
    /// the flip (and lands local). On `Err` the placement map is untouched.
    ///
    /// `phys_runs` are the physical `(pstart, blocks)` extents covering the
    /// run, in order; their lengths must sum to `count`.
    pub fn try_promote(
        &self,
        clock: &mut ThreadClock,
        file: u64,
        lstart: u64,
        count: u64,
        phys_runs: &[(u64, u64)],
    ) -> Result<u64, DeviceError> {
        if count == 0 {
            return Ok(0);
        }
        debug_assert_eq!(phys_runs.iter().map(|r| r.1).sum::<u64>(), count);
        let lens: Vec<u64> = phys_runs.iter().map(|r| r.1).collect();
        if let Err(err) = self
            .remote
            .try_charge_read_vectored(clock, &lens, IoPriority::Prefetch)
        {
            self.stats.promotion_faults.incr();
            return Err(err);
        }
        self.local.charge_write(clock, count, IoPriority::Prefetch);

        let now = clock.now();
        let placement = self.placement(file);
        let mut guard = placement.lock();
        // Share real bytes: synthetic blocks read identically on both
        // devices, so only explicitly-written content moves, and it moves
        // as a reference.
        for &(pstart, blocks) in phys_runs {
            for pblock in pstart..pstart + blocks {
                self.remote.store().copy_block(pblock, self.local.store());
            }
        }
        let mut newly = 0u64;
        for (word, mask) in word_spans(lstart, lstart + count) {
            let w = guard.words.entry(word as u64).or_default();
            let fresh = mask & !w.local;
            newly += fresh.count_ones() as u64;
            w.local |= mask;
            w.unread |= fresh;
            w.modified &= !fresh;
            w.touch_ns = w.touch_ns.max(now);
        }
        drop(guard);
        self.resident.fetch_add(newly, Ordering::Relaxed);
        self.stats.promotions.incr();
        self.stats.promoted_blocks.add(newly);
        Ok(newly)
    }

    /// Makes room for `want` more local blocks, demoting the coldest words
    /// if needed. Returns `false` when the local tier cannot fit `want`
    /// blocks even after demotion. Demotion charges (remote write-back of
    /// modified blocks) land on `clock` at background priority; callers use
    /// a detached clock.
    pub fn ensure_room(
        &self,
        clock: &mut ThreadClock,
        want: u64,
        map_block: &dyn Fn(u64, u64) -> u64,
    ) -> bool {
        if want > self.local_capacity_blocks {
            return false;
        }
        let resident = self.resident.load(Ordering::Relaxed);
        let need = (resident + want).saturating_sub(self.local_capacity_blocks);
        if need == 0 {
            return true;
        }
        self.demote_cold(clock, need, map_block) >= need
    }

    /// Demotes the coldest local words until at least `target` blocks have
    /// returned to the remote tier (or no local blocks remain). Returns the
    /// number of blocks demoted.
    pub fn demote_cold(
        &self,
        clock: &mut ThreadClock,
        target: u64,
        map_block: &dyn Fn(u64, u64) -> u64,
    ) -> u64 {
        let snapshot: Vec<(u64, Arc<Mutex<FilePlacement>>)> = self
            .files
            .read()
            .iter()
            .map(|(&file, p)| (file, Arc::clone(p)))
            .collect();
        let mut victims: Vec<Reverse<(u64, u64, u64)>> = Vec::new(); // (touch, file, word)
        for (file, placement) in &snapshot {
            let guard = placement.lock();
            for (&word, w) in &guard.words {
                if w.local != 0 {
                    victims.push(Reverse((w.touch_ns, *file, word)));
                }
            }
        }
        // Coldest first, in the order a full sort gives (the keys are
        // unique), but ordering only the words that are demoted: a
        // promotion usually needs one.
        let mut victims = BinaryHeap::from(victims);
        let mut freed = 0u64;
        while freed < target {
            let Some(Reverse((_, file, word))) = victims.pop() else {
                break;
            };
            let placement = self.placement(file);
            freed += self.demote_word(clock, file, &placement, word, map_block);
        }
        freed
    }

    /// Demotes every local block of one word under one placement guard:
    /// clears its bits, hands modified blocks' bytes back to the remote
    /// store and drops the local copies, so a reader or writer routed
    /// before the move finds the bytes where it was routed and one routed
    /// after finds them remote. Clean blocks drop for free (the remote
    /// store still holds their bytes); modified ones are charged as one
    /// background remote write after the guard is released. Returns blocks
    /// demoted.
    fn demote_word(
        &self,
        clock: &mut ThreadClock,
        file: u64,
        placement: &Arc<Mutex<FilePlacement>>,
        word: u64,
        map_block: &dyn Fn(u64, u64) -> u64,
    ) -> u64 {
        let (local, modified, unread) = {
            let mut guard = placement.lock();
            let Some(w) = guard.words.get_mut(&word) else {
                return 0;
            };
            let (local, modified) = (w.local, w.modified & w.local);
            let unread = w.unread & local;
            w.local = 0;
            w.modified = 0;
            w.unread = 0;
            for lblock in set_blocks(word, modified) {
                self.local
                    .store()
                    .copy_block(map_block(file, lblock), self.remote.store());
            }
            for lblock in set_blocks(word, local) {
                self.local.store().discard(map_block(file, lblock));
            }
            (local, modified, unread)
        };
        let demoted = local.count_ones() as u64;
        if demoted == 0 {
            return 0;
        }
        let dirty = modified.count_ones() as u64;
        if dirty > 0 {
            self.remote.charge_write(clock, dirty, IoPriority::Prefetch);
        }
        self.resident.fetch_sub(demoted, Ordering::Relaxed);
        self.stats.demotions.incr();
        self.stats.demoted_blocks.add(demoted);
        self.stats.demoted_dirty_blocks.add(dirty);
        self.stats
            .promoted_wasted_blocks
            .add(unread.count_ones() as u64);
        demoted
    }

    /// Forgets a file's placement (unlink): local blocks come off the
    /// resident count, promoted-but-unread blocks settle as wasted, and
    /// local content is discarded. No device time is charged — freeing
    /// blocks writes nothing.
    pub fn forget_file(&self, file: u64, map_block: &dyn Fn(u64, u64) -> u64) {
        let Some(placement) = self.files.write().remove(&file) else {
            return;
        };
        let guard = placement.lock();
        let mut resident = 0u64;
        let mut wasted = 0u64;
        for (&word, w) in &guard.words {
            resident += w.local.count_ones() as u64;
            wasted += (w.unread & w.local).count_ones() as u64;
            for lblock in set_blocks(word, w.local) {
                self.local.store().discard(map_block(file, lblock));
            }
        }
        self.resident.fetch_sub(resident, Ordering::Relaxed);
        self.stats.promoted_wasted_blocks.add(wasted);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{DeviceConfig, FaultPlan, BLOCK_SIZE};
    use simclock::GlobalClock;

    fn clock() -> ThreadClock {
        ThreadClock::new(Arc::new(GlobalClock::new()))
    }

    fn tiered(capacity: u64) -> TieredStore {
        TieredStore::new(
            Device::new(DeviceConfig::local_nvme()),
            Device::new(DeviceConfig::remote_nvmeof()),
            capacity,
        )
    }

    fn identity_map(_file: u64, lblock: u64) -> u64 {
        lblock
    }

    #[test]
    fn placement_defaults_to_remote() {
        let t = tiered(1024);
        assert_eq!(t.tier_of(1, 0), Tier::Remote);
        assert_eq!(t.split_runs(1, 0, 10), vec![(0, 10, Tier::Remote)]);
        assert_eq!(t.local_resident_blocks(), 0);
    }

    #[test]
    fn promotion_flips_placement_and_splits_runs() {
        let t = tiered(1024);
        let mut c = clock();
        let n = t.try_promote(&mut c, 1, 8, 8, &[(100, 8)]).unwrap();
        assert_eq!(n, 8);
        assert_eq!(t.local_resident_blocks(), 8);
        assert_eq!(
            t.split_runs(1, 0, 24),
            vec![
                (0, 8, Tier::Remote),
                (8, 8, Tier::Local),
                (16, 8, Tier::Remote)
            ]
        );
        assert_eq!(t.remote_runs(1, 0, 24), vec![(0, 8), (16, 8)]);
        // Both devices were charged: a remote read and a local write.
        assert_eq!(t.remote().stats().read_bytes.get(), 8 * BLOCK_SIZE as u64);
        assert_eq!(t.local().stats().write_bytes.get(), 8 * BLOCK_SIZE as u64);
    }

    #[test]
    fn promotion_copies_written_content() {
        let t = tiered(1024);
        let mut c = clock();
        let payload = vec![0xCDu8; BLOCK_SIZE];
        t.remote().store().write_block(5, &payload);
        t.try_promote(&mut c, 1, 5, 1, &[(5, 1)]).unwrap();
        assert_eq!(t.local().store().read_block_vec(5), payload);
        assert!(t.local().store().shares_block(5, t.remote().store()));
    }

    #[test]
    fn remote_eio_leaves_placement_untouched() {
        let t = TieredStore::new(
            Device::new(DeviceConfig::local_nvme()),
            Device::with_fault_plan(
                DeviceConfig::remote_nvmeof(),
                FaultPlan::seeded(0).with_prefetch_eio(1.0),
            ),
            1024,
        );
        let mut c = clock();
        let err = t.try_promote(&mut c, 1, 0, 16, &[(0, 16)]).unwrap_err();
        assert_eq!(err, DeviceError::TransientIo);
        assert_eq!(t.local_resident_blocks(), 0);
        assert_eq!(t.split_runs(1, 0, 16), vec![(0, 16, Tier::Remote)]);
        assert_eq!(t.stats().promotion_faults.get(), 1);
        assert_eq!(t.local().stats().write_bytes.get(), 0);
    }

    #[test]
    fn demotion_prefers_cold_words_and_counts_unread_as_wasted() {
        let t = tiered(1024);
        let mut c = clock();
        t.try_promote(&mut c, 1, 0, 64, &[(0, 64)]).unwrap();
        t.try_promote(&mut c, 1, 64, 64, &[(64, 64)]).unwrap();
        // Touch the second word much later: the first word is colder.
        t.note_read(1, 64, 64, 1_000_000_000);
        let freed = t.demote_cold(&mut c, 64, &identity_map);
        assert_eq!(freed, 64);
        assert_eq!(t.tier_of(1, 0), Tier::Remote);
        assert_eq!(t.tier_of(1, 64), Tier::Local);
        // Word 0 was never read after promotion: all 64 wasted. Word 1's
        // unread bits were cleared by the read.
        assert_eq!(t.stats().promoted_wasted_blocks.get(), 64);
    }

    #[test]
    fn dirty_demotion_writes_back_to_remote() {
        let t = tiered(1024);
        let mut c = clock();
        t.try_promote(&mut c, 1, 0, 4, &[(0, 4)]).unwrap();
        t.note_range_written(1, 2, 1, 10, &identity_map);
        let payload = vec![0x77u8; BLOCK_SIZE];
        t.local().store().write_block(2, &payload);
        let before = t.remote().stats().write_bytes.get();
        let freed = t.demote_cold(&mut c, 4, &identity_map);
        assert_eq!(freed, 4);
        assert_eq!(t.stats().demoted_dirty_blocks.get(), 1);
        assert_eq!(
            t.remote().stats().write_bytes.get() - before,
            BLOCK_SIZE as u64
        );
        // The modified content survived the round trip to the remote tier.
        assert_eq!(t.remote().store().read_block_vec(2), payload);
        assert_eq!(t.local().store().resident_blocks(), 0);
    }

    /// The ownership invariant end to end: promotion shares the remote
    /// bytes, the first write through the tier takes them over (the remote
    /// store drops its reference, the local one is written in place), and
    /// demotion hands the new bytes back, leaving the local store empty.
    #[test]
    fn first_local_write_takes_the_block_over_and_demotion_hands_it_back() {
        let t = tiered(1024);
        let mut c = clock();
        let (local, remote) = (t.local().store(), t.remote().store());
        remote.write_block(6, &vec![0x31u8; BLOCK_SIZE]);
        t.try_promote(&mut c, 1, 6, 1, &[(6, 1)]).unwrap();
        assert!(remote.shares_block(6, local), "promotion shares the bytes");

        t.note_range_written(1, 6, 1, 20, &identity_map);
        local.write_partial(6, 8, b"taken over");
        assert!(!remote.holds(6), "the remote store holds no bytes for it");
        assert_eq!(local.holders(6), 1, "the local block is unshared");
        assert_eq!(t.placement_bits(1, 0), (1 << 6, 1 << 6));
        let written = local.read_block_vec(6);
        assert_eq!(&written[8..18], b"taken over");

        // A second write keeps the invariant without touching the remote.
        t.note_range_written(1, 6, 1, 30, &identity_map);
        local.write_partial(6, 0, b"again");
        let written = local.read_block_vec(6);

        assert_eq!(t.demote_cold(&mut c, 1, &identity_map), 1);
        assert_eq!(t.stats().demoted_dirty_blocks.get(), 1);
        assert_eq!(remote.read_block_vec(6), written);
        assert_eq!(remote.holders(6), 1, "the reference moved back");
        assert_eq!(local.resident_blocks(), 0);
        assert_eq!(t.placement_bits(1, 0), (0, 0));
    }

    #[test]
    fn clean_demotion_drops_only_the_local_reference() {
        let t = tiered(1024);
        let mut c = clock();
        let payload = vec![0x42u8; BLOCK_SIZE];
        t.remote().store().write_block(9, &payload);
        t.try_promote(&mut c, 1, 9, 1, &[(9, 1)]).unwrap();
        t.note_read(1, 9, 1, 5);
        assert_eq!(t.demote_cold(&mut c, 1, &identity_map), 1);
        assert_eq!(t.stats().demoted_dirty_blocks.get(), 0);
        assert_eq!(t.local().store().resident_blocks(), 0);
        assert_eq!(t.remote().store().read_block_vec(9), payload);
        assert_eq!(t.remote().store().holders(9), 1);
    }

    #[test]
    fn ensure_room_demotes_until_capacity() {
        let t = tiered(96);
        let mut c = clock();
        t.try_promote(&mut c, 1, 0, 64, &[(0, 64)]).unwrap();
        assert!(t.ensure_room(&mut c, 64, &identity_map));
        assert!(t.local_resident_blocks() + 64 <= 96);
        // Asking for more than the whole tier can never fit.
        assert!(!t.ensure_room(&mut c, 97, &identity_map));
    }

    #[test]
    fn writes_to_remote_blocks_stay_remote() {
        let t = tiered(1024);
        t.note_range_written(7, 0, 200, 5, &identity_map);
        assert_eq!(t.tier_of(7, 3), Tier::Remote);
        assert!(placement_words(&t, 7).is_empty(), "no word was created");
    }

    #[test]
    fn forget_file_releases_residency_and_counts_waste() {
        let t = tiered(1024);
        let mut c = clock();
        t.try_promote(&mut c, 9, 0, 32, &[(0, 32)]).unwrap();
        t.note_read(9, 0, 16, 50);
        t.forget_file(9, &identity_map);
        assert_eq!(t.local_resident_blocks(), 0);
        assert_eq!(t.stats().promoted_wasted_blocks.get(), 16);
        assert_eq!(t.tier_of(9, 0), Tier::Remote);
    }

    /// Every placement word of `file`, by word number.
    fn placement_words(t: &TieredStore, file: u64) -> Vec<(u64, TierWord)> {
        let mut words: Vec<_> = t
            .placement(file)
            .lock()
            .words
            .iter()
            .map(|(&word, &w)| (word, w))
            .collect();
        words.sort_unstable_by_key(|&(word, _)| word);
        words
    }

    /// The per-block write note [`TieredStore::note_range_written`]
    /// replaced, kept here as its oracle.
    fn note_block_written(t: &TieredStore, file: u64, lblock: u64, now: u64) {
        let placement = t.placement(file);
        let mut guard = placement.lock();
        let bit = 1 << (lblock % PLACEMENT_WORD_BLOCKS);
        if let Some(w) = guard.words.get_mut(&(lblock / PLACEMENT_WORD_BLOCKS)) {
            if w.local & bit != 0 {
                w.modified |= bit;
                w.unread &= !bit;
                w.touch_ns = w.touch_ns.max(now);
            }
        }
    }

    proptest::proptest! {
        /// Over random promotions, reads and writes, one range note leaves
        /// exactly the modified / unread / touch bits that a per-block note
        /// of every block in the range leaves.
        #[test]
        fn range_write_note_equals_per_block_notes(
            ops in proptest::collection::vec((0u8..3, 0u64..640, 1u64..200), 1..40)
        ) {
            let (ranged, blockwise) = (tiered(1 << 20), tiered(1 << 20));
            let (mut ca, mut cb) = (clock(), clock());
            for (step, (kind, lstart, count)) in ops.into_iter().enumerate() {
                let now = step as u64 * 1_000;
                match kind {
                    0 => {
                        for (s, n) in ranged.remote_runs(3, lstart, count) {
                            ranged.try_promote(&mut ca, 3, s, n, &[(s, n)]).unwrap();
                            blockwise.try_promote(&mut cb, 3, s, n, &[(s, n)]).unwrap();
                        }
                    }
                    1 => {
                        ranged.note_read(3, lstart, count, now);
                        blockwise.note_read(3, lstart, count, now);
                    }
                    _ => {
                        ranged.note_range_written(3, lstart, count, now, &identity_map);
                        for lblock in lstart..lstart + count {
                            note_block_written(&blockwise, 3, lblock, now);
                        }
                    }
                }
                proptest::prop_assert_eq!(
                    placement_words(&ranged, 3),
                    placement_words(&blockwise, 3)
                );
            }
        }
    }
}
