//! Inodes: the in-memory file object, its size and its extent map.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

use crate::{Allocator, Run};

/// Identifier of a file in the simulated filesystem.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct InodeId(pub u64);

impl std::fmt::Display for InodeId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "inode#{}", self.0)
    }
}

/// One logically- and physically-contiguous mapping.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Extent {
    /// First logical block covered.
    pub lstart: u64,
    /// First physical block backing it.
    pub pstart: u64,
    /// Number of blocks.
    pub blocks: u64,
}

impl Extent {
    /// Whether this extent covers logical block `lblock`.
    pub fn contains(&self, lblock: u64) -> bool {
        (self.lstart..self.lstart + self.blocks).contains(&lblock)
    }
}

/// Maps one logical block to the physical run starting there, bounded
/// by the containing extent of the sorted, non-overlapping `extents`.
/// Returns `None` for holes.
fn map_one(extents: &[Extent], lblock: u64) -> Option<Run> {
    let idx = extents.partition_point(|e| e.lstart + e.blocks <= lblock);
    let extent = extents.get(idx)?;
    if !extent.contains(lblock) {
        return None;
    }
    let offset = lblock - extent.lstart;
    Some(Run {
        pstart: extent.pstart + offset,
        blocks: extent.blocks - offset,
    })
}

/// Inserts an extent into sorted `extents`, merging with a physically-
/// and logically-adjacent predecessor when possible.
///
/// # Panics
///
/// Panics (debug) if the extent overlaps an existing mapping; the
/// allocator only fills holes.
fn insert_extent(extents: &mut Vec<Extent>, extent: Extent) {
    debug_assert!(
        (extent.lstart..extent.lstart + extent.blocks).all(|l| map_one(extents, l).is_none()),
        "extent overlaps existing mapping"
    );
    let idx = extents.partition_point(|e| e.lstart < extent.lstart);
    // Try merging with the previous extent.
    if idx > 0 {
        let prev = &mut extents[idx - 1];
        if prev.lstart + prev.blocks == extent.lstart && prev.pstart + prev.blocks == extent.pstart
        {
            prev.blocks += extent.blocks;
            // Try merging the grown prev with the next extent.
            if idx < extents.len() {
                let next = extents[idx];
                let prev = extents[idx - 1];
                if prev.lstart + prev.blocks == next.lstart
                    && prev.pstart + prev.blocks == next.pstart
                {
                    extents[idx - 1].blocks += next.blocks;
                    extents.remove(idx);
                }
            }
            return;
        }
    }
    extents.insert(idx, extent);
}

/// The in-memory inode an open file points to: its size, readable
/// without a lock, and its extent map under the inode's own mutex. Every
/// size and block operation lives here; the filesystem's table only
/// resolves an [`InodeId`] to its `Arc<Inode>`.
#[derive(Debug)]
pub struct Inode {
    ino: InodeId,
    /// Logical size in bytes.
    pub(crate) size: AtomicU64,
    /// Sorted, non-overlapping extents.
    map: Mutex<Vec<Extent>>,
    /// The filesystem's block allocator, shared by every inode.
    allocator: Arc<Mutex<Allocator>>,
}

impl Inode {
    pub(crate) fn new(ino: InodeId, allocator: Arc<Mutex<Allocator>>) -> Self {
        Self {
            ino,
            size: AtomicU64::new(0),
            map: Mutex::new(Vec::new()),
            allocator,
        }
    }

    /// The inode's number.
    pub fn ino(&self) -> InodeId {
        self.ino
    }

    /// Current file size in bytes.
    pub fn size(&self) -> u64 {
        self.size.load(Ordering::Relaxed)
    }

    /// Updates the file size (grow only; shrink is done via unlink+create in
    /// this model, matching how the LSM store replaces files).
    pub fn set_size(&self, bytes: u64) {
        self.size.fetch_max(bytes, Ordering::Relaxed);
    }

    /// Ensures blocks `[lstart, lstart + count)` are allocated, extending
    /// the extent list as needed. Returns the number of newly allocated
    /// blocks.
    pub fn allocate(&self, lstart: u64, count: u64) -> u64 {
        self.allocate_holes(lstart, count, u64::MAX)
    }

    /// [`Inode::allocate`] one block per allocator call, in logical
    /// order: the layout a page-at-a-time writer produces. It differs from
    /// one call per hole only where a hole straddles the end of an
    /// ext4-like reservation, which one call replaces by a fresh region.
    pub fn allocate_each(&self, lstart: u64, count: u64) -> u64 {
        self.allocate_holes(lstart, count, 1)
    }

    /// Allocates the holes of `[lstart, lstart + count)` in pieces of at
    /// most `max_piece` blocks.
    fn allocate_holes(&self, lstart: u64, count: u64, max_piece: u64) -> u64 {
        if count == 0 {
            return 0;
        }
        let mut map = self.map.lock();
        let mut newly = 0;
        let mut lblock = lstart;
        let lend = lstart + count;
        while lblock < lend {
            if let Some(run) = map_one(&map, lblock) {
                // Already mapped; skip to the end of this mapped run.
                lblock += run.blocks.min(lend - lblock);
                continue;
            }
            // Find how many consecutive blocks from here are unmapped.
            let mut hole = 1;
            while hole < max_piece && lblock + hole < lend && map_one(&map, lblock + hole).is_none()
            {
                hole += 1;
            }
            let pstart = self.allocator.lock().allocate(self.ino, hole);
            insert_extent(
                &mut map,
                Extent {
                    lstart: lblock,
                    pstart,
                    blocks: hole,
                },
            );
            newly += hole;
            lblock += hole;
        }
        newly
    }

    /// Maps logical blocks `[lstart, lstart + count)` to physically
    /// contiguous runs. Unallocated regions are allocated on the fly (the
    /// write path); use this for both reads and writes — files in the
    /// simulation are created with [`crate::FileSystem::create_sized`] or
    /// written before being read, so read-path allocation only occurs for
    /// holes. A fully mapped range costs one inode lock.
    pub fn map_blocks(&self, lstart: u64, count: u64) -> Vec<Run> {
        if count == 0 {
            return Vec::new();
        }
        if let Some(runs) = self.mapped_runs(lstart, count) {
            return runs;
        }
        self.allocate(lstart, count);
        self.mapped_runs(lstart, count)
            .expect("blocks allocated above must map")
    }

    /// The physical runs of `[lstart, lstart + count)`, adjacent runs
    /// merged; `None` if the range has a hole.
    fn mapped_runs(&self, lstart: u64, count: u64) -> Option<Vec<Run>> {
        let map = self.map.lock();
        let mut runs: Vec<Run> = Vec::new();
        let mut lblock = lstart;
        let lend = lstart + count;
        while lblock < lend {
            let run = map_one(&map, lblock)?;
            let take = run.blocks.min(lend - lblock);
            match runs.last_mut() {
                Some(prev) if prev.pstart + prev.blocks == run.pstart => {
                    prev.blocks += take;
                }
                _ => runs.push(Run {
                    pstart: run.pstart,
                    blocks: take,
                }),
            }
            lblock += take;
        }
        Some(runs)
    }

    /// Maps a single logical block to its physical block: one inode lock
    /// when it is mapped, an allocation only for a hole.
    pub fn map_block(&self, lblock: u64) -> u64 {
        let mapped = || map_one(&self.map.lock(), lblock);
        if let Some(run) = mapped() {
            return run.pstart;
        }
        self.allocate(lblock, 1);
        mapped().expect("block allocated above must map").pstart
    }

    /// Number of extents backing the file — a fragmentation measure.
    pub fn extent_count(&self) -> usize {
        self.map.lock().len()
    }

    /// Unlink: frees every extent and zeroes the size. A handle still
    /// holding the inode reads an empty file.
    pub(crate) fn release(&self) {
        let mut map = self.map.lock();
        let freed: u64 = map.iter().map(|e| e.blocks).sum();
        map.clear();
        self.size.store(0, Ordering::Relaxed);
        self.allocator.lock().free(freed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn meta_with(extents: &[(u64, u64, u64)]) -> Vec<Extent> {
        let mut meta = Vec::new();
        for &(l, p, n) in extents {
            insert_extent(
                &mut meta,
                Extent {
                    lstart: l,
                    pstart: p,
                    blocks: n,
                },
            );
        }
        meta
    }

    #[test]
    fn map_one_within_extent() {
        let meta = meta_with(&[(0, 100, 10)]);
        let run = map_one(&meta, 3).unwrap();
        assert_eq!((run.pstart, run.blocks), (103, 7));
    }

    #[test]
    fn map_one_hole_is_none() {
        let meta = meta_with(&[(0, 100, 10), (20, 200, 5)]);
        assert!(map_one(&meta, 15).is_none());
        assert!(map_one(&meta, 25).is_none());
        assert_eq!(map_one(&meta, 20).unwrap().pstart, 200);
    }

    #[test]
    fn adjacent_extents_merge() {
        let meta = meta_with(&[(0, 100, 10), (10, 110, 5)]);
        assert_eq!(meta.len(), 1);
        assert_eq!(meta[0].blocks, 15);
    }

    #[test]
    fn logically_adjacent_but_physically_distant_do_not_merge() {
        let meta = meta_with(&[(0, 100, 10), (10, 500, 5)]);
        assert_eq!(meta.len(), 2);
    }

    #[test]
    fn fill_between_merges_three_ways() {
        // [0,10) and [20,30) exist; filling [10,20) contiguously merges all.
        let meta = meta_with(&[(0, 100, 10), (20, 120, 10), (10, 110, 10)]);
        assert_eq!(meta.len(), 1);
        assert_eq!(meta[0].blocks, 30);
    }

    #[test]
    fn out_of_order_insert_keeps_sorted() {
        let meta = meta_with(&[(20, 500, 5), (0, 100, 5)]);
        assert!(meta.windows(2).all(|w| w[0].lstart < w[1].lstart));
    }

    #[test]
    fn display_inode() {
        assert_eq!(InodeId(7).to_string(), "inode#7");
    }
}
