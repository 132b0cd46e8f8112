//! Simulated filesystem layouts for the CrossPrefetch reproduction.
//!
//! The paper evaluates CrossPrefetch on ext4 (default) and on F2FS
//! (Figure 7d), plus ext4 over remote NVMe-oF (Figure 8a). What differs
//! between filesystems, for prefetching purposes, is the **logical-to-
//! physical block mapping**: ext4's extent allocator keeps each file
//! physically contiguous, while F2FS's log-structured allocator appends all
//! writes to a shared log, so files written concurrently interleave on
//! media. A prefetcher that issues large logically-sequential reads gets
//! large physically-sequential device requests on ext4, but more fragmented
//! runs on F2FS.
//!
//! This crate provides the inode table, a flat hierarchical namespace, and
//! both allocation policies. It is purely a mapping layer: virtual-time
//! charges live in `simos`, and device access lives in `simstore`.
//!
//! # Example
//!
//! ```
//! use simfs::{FileSystem, FsKind};
//!
//! let fs = FileSystem::new(FsKind::Ext4Like);
//! let ino = fs.create("/db/000001.sst")?;
//! fs.allocate(ino, 0, 256); // 1 MiB
//! let runs = fs.map_blocks(ino, 0, 256);
//! assert_eq!(runs.len(), 1, "ext4-like files are contiguous");
//! # Ok::<(), simfs::FsError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod alloc;
mod inode;
mod namespace;

pub use alloc::{Allocator, Run};
pub use inode::{Extent, InodeId, InodeMeta};
pub use namespace::Namespace;

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};

use parking_lot::{Mutex, RwLock};

/// Which on-media layout policy the filesystem uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FsKind {
    /// Extent-based allocation: per-file contiguous preallocation, like ext4.
    Ext4Like,
    /// Log-structured allocation: all writes append to one device-wide log,
    /// like F2FS. Concurrent writers interleave on media.
    F2fsLike,
}

/// Errors returned by namespace operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FsError {
    /// The path already names a file.
    AlreadyExists(String),
    /// The path names nothing.
    NotFound(String),
}

impl fmt::Display for FsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FsError::AlreadyExists(p) => write!(f, "file already exists: {p}"),
            FsError::NotFound(p) => write!(f, "no such file: {p}"),
        }
    }
}

impl std::error::Error for FsError {}

/// A simulated filesystem: namespace + inode table + block allocator.
///
/// All methods take `&self`; internal state is protected by fine-grained
/// locks so OS worker threads can operate concurrently.
#[derive(Debug)]
pub struct FileSystem {
    kind: FsKind,
    namespace: RwLock<Namespace>,
    inodes: RwLock<Vec<Mutex<InodeMeta>>>,
    allocator: Mutex<Allocator>,
    next_inode: AtomicU64,
}

impl FileSystem {
    /// Creates an empty filesystem with the given layout policy.
    pub fn new(kind: FsKind) -> Self {
        Self {
            kind,
            namespace: RwLock::new(Namespace::new()),
            inodes: RwLock::new(Vec::new()),
            allocator: Mutex::new(Allocator::new(kind)),
            next_inode: AtomicU64::new(0),
        }
    }

    /// The layout policy in effect.
    pub fn kind(&self) -> FsKind {
        self.kind
    }

    /// Creates a new empty file.
    ///
    /// # Errors
    ///
    /// Returns [`FsError::AlreadyExists`] if `path` is taken.
    pub fn create(&self, path: &str) -> Result<InodeId, FsError> {
        let mut ns = self.namespace.write();
        if ns.lookup(path).is_some() {
            return Err(FsError::AlreadyExists(path.to_string()));
        }
        let ino = InodeId(self.next_inode.fetch_add(1, Ordering::Relaxed));
        self.inodes.write().push(Mutex::new(InodeMeta::new(ino)));
        ns.insert(path, ino);
        Ok(ino)
    }

    /// Creates a file and preallocates `bytes` of space (like `fallocate`),
    /// so reads of never-written regions map to real device blocks.
    ///
    /// # Errors
    ///
    /// Returns [`FsError::AlreadyExists`] if `path` is taken.
    pub fn create_sized(&self, path: &str, bytes: u64) -> Result<InodeId, FsError> {
        let ino = self.create(path)?;
        let blocks = simstore::blocks_for_bytes(bytes);
        if blocks > 0 {
            self.allocate(ino, 0, blocks);
        }
        self.set_size(ino, bytes);
        Ok(ino)
    }

    /// Resolves a path to its inode.
    pub fn lookup(&self, path: &str) -> Option<InodeId> {
        self.namespace.read().lookup(path)
    }

    /// Removes a path and frees the inode's blocks.
    ///
    /// # Errors
    ///
    /// Returns [`FsError::NotFound`] if `path` names nothing.
    pub fn unlink(&self, path: &str) -> Result<InodeId, FsError> {
        let ino = {
            let mut ns = self.namespace.write();
            ns.remove(path)
                .ok_or_else(|| FsError::NotFound(path.to_string()))?
        };
        let inodes = self.inodes.read();
        let mut meta = inodes[ino.0 as usize].lock();
        let freed: u64 = meta.extents.iter().map(|e| e.blocks).sum();
        meta.extents.clear();
        meta.size_bytes = 0;
        self.allocator.lock().free(freed);
        Ok(ino)
    }

    /// Lists all paths under a prefix (e.g. `"/db/"`).
    pub fn list_prefix(&self, prefix: &str) -> Vec<String> {
        self.namespace.read().list_prefix(prefix)
    }

    /// Number of live files.
    pub fn file_count(&self) -> usize {
        self.namespace.read().len()
    }

    /// Current file size in bytes.
    ///
    /// # Panics
    ///
    /// Panics if `ino` was never created by this filesystem.
    pub fn size(&self, ino: InodeId) -> u64 {
        self.inodes.read()[ino.0 as usize].lock().size_bytes
    }

    /// Updates the file size (grow only; shrink is done via unlink+create in
    /// this model, matching how the LSM store replaces files).
    pub fn set_size(&self, ino: InodeId, bytes: u64) {
        let inodes = self.inodes.read();
        let mut meta = inodes[ino.0 as usize].lock();
        meta.size_bytes = meta.size_bytes.max(bytes);
    }

    /// Ensures blocks `[lstart, lstart + count)` are allocated, extending
    /// the extent list as needed. Returns the number of newly allocated
    /// blocks.
    pub fn allocate(&self, ino: InodeId, lstart: u64, count: u64) -> u64 {
        self.allocate_holes(ino, lstart, count, u64::MAX)
    }

    /// [`FileSystem::allocate`] one block per allocator call, in logical
    /// order: the layout a page-at-a-time writer produces. It differs from
    /// one call per hole only where a hole straddles the end of an
    /// ext4-like reservation, which one call replaces by a fresh region.
    pub fn allocate_each(&self, ino: InodeId, lstart: u64, count: u64) -> u64 {
        self.allocate_holes(ino, lstart, count, 1)
    }

    /// Allocates the holes of `[lstart, lstart + count)` in pieces of at
    /// most `max_piece` blocks.
    fn allocate_holes(&self, ino: InodeId, lstart: u64, count: u64, max_piece: u64) -> u64 {
        if count == 0 {
            return 0;
        }
        let inodes = self.inodes.read();
        let mut meta = inodes[ino.0 as usize].lock();
        let mut newly = 0;
        let mut lblock = lstart;
        let lend = lstart + count;
        while lblock < lend {
            if let Some(run) = meta.map_one(lblock) {
                // Already mapped; skip to the end of this mapped run.
                lblock += run.blocks.min(lend - lblock);
                continue;
            }
            // Find how many consecutive blocks from here are unmapped.
            let mut hole = 1;
            while hole < max_piece && lblock + hole < lend && meta.map_one(lblock + hole).is_none()
            {
                hole += 1;
            }
            let pstart = self.allocator.lock().allocate(ino, hole);
            meta.insert_extent(Extent {
                lstart: lblock,
                pstart,
                blocks: hole,
            });
            newly += hole;
            lblock += hole;
        }
        newly
    }

    /// Maps logical blocks `[lstart, lstart + count)` to physically
    /// contiguous runs. Unallocated regions are allocated on the fly (the
    /// write path); use this for both reads and writes — files in the
    /// simulation are created with [`FileSystem::create_sized`] or written
    /// before being read, so read-path allocation only occurs for holes.
    /// A fully mapped range costs one inode lock.
    pub fn map_blocks(&self, ino: InodeId, lstart: u64, count: u64) -> Vec<Run> {
        if count == 0 {
            return Vec::new();
        }
        if let Some(runs) = self.mapped_runs(ino, lstart, count) {
            return runs;
        }
        self.allocate(ino, lstart, count);
        self.mapped_runs(ino, lstart, count)
            .expect("blocks allocated above must map")
    }

    /// The physical runs of `[lstart, lstart + count)`, adjacent runs
    /// merged; `None` if the range has a hole.
    fn mapped_runs(&self, ino: InodeId, lstart: u64, count: u64) -> Option<Vec<Run>> {
        let inodes = self.inodes.read();
        let meta = inodes[ino.0 as usize].lock();
        let mut runs: Vec<Run> = Vec::new();
        let mut lblock = lstart;
        let lend = lstart + count;
        while lblock < lend {
            let run = meta.map_one(lblock)?;
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
    pub fn map_block(&self, ino: InodeId, lblock: u64) -> u64 {
        let mapped = |fs: &Self| fs.inodes.read()[ino.0 as usize].lock().map_one(lblock);
        if let Some(run) = mapped(self) {
            return run.pstart;
        }
        self.allocate(ino, lblock, 1);
        mapped(self).expect("block allocated above must map").pstart
    }

    /// Total physical blocks currently allocated across all files.
    pub fn allocated_blocks(&self) -> u64 {
        self.allocator.lock().allocated()
    }

    /// Number of extents backing a file — a fragmentation measure.
    pub fn extent_count(&self, ino: InodeId) -> usize {
        self.inodes.read()[ino.0 as usize].lock().extents.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn create_lookup_unlink_cycle() {
        let fs = FileSystem::new(FsKind::Ext4Like);
        let ino = fs.create("/a").unwrap();
        assert_eq!(fs.lookup("/a"), Some(ino));
        assert_eq!(fs.unlink("/a").unwrap(), ino);
        assert_eq!(fs.lookup("/a"), None);
        assert_eq!(fs.unlink("/a"), Err(FsError::NotFound("/a".into())));
    }

    #[test]
    fn duplicate_create_fails() {
        let fs = FileSystem::new(FsKind::Ext4Like);
        fs.create("/a").unwrap();
        assert_eq!(fs.create("/a"), Err(FsError::AlreadyExists("/a".into())));
    }

    #[test]
    fn ext4_like_file_is_one_extent() {
        let fs = FileSystem::new(FsKind::Ext4Like);
        let ino = fs.create_sized("/big", 64 << 20).unwrap();
        assert_eq!(fs.extent_count(ino), 1);
        let runs = fs.map_blocks(ino, 0, simstore::blocks_for_bytes(64 << 20));
        assert_eq!(runs.len(), 1);
    }

    #[test]
    fn f2fs_like_interleaved_writers_fragment() {
        let fs = FileSystem::new(FsKind::F2fsLike);
        let a = fs.create("/a").unwrap();
        let b = fs.create("/b").unwrap();
        // Interleave small appends from two files.
        for i in 0..16 {
            fs.allocate(a, i, 1);
            fs.allocate(b, i, 1);
        }
        assert!(fs.extent_count(a) > 1, "log interleaving must fragment");
        // Same pattern on ext4-like stays contiguous per file.
        let fs2 = FileSystem::new(FsKind::Ext4Like);
        let c = fs2.create("/c").unwrap();
        let d = fs2.create("/d").unwrap();
        for i in 0..16 {
            fs2.allocate(c, i, 1);
            fs2.allocate(d, i, 1);
        }
        assert_eq!(fs2.extent_count(c), 1);
        let _ = d;
    }

    #[test]
    fn map_blocks_merges_adjacent_runs() {
        let fs = FileSystem::new(FsKind::Ext4Like);
        let ino = fs.create_sized("/x", 1 << 20).unwrap();
        let runs = fs.map_blocks(ino, 10, 50);
        assert_eq!(runs.len(), 1);
        assert_eq!(runs[0].blocks, 50);
    }

    #[test]
    fn size_grows_monotonically() {
        let fs = FileSystem::new(FsKind::Ext4Like);
        let ino = fs.create("/f").unwrap();
        fs.set_size(ino, 100);
        fs.set_size(ino, 50);
        assert_eq!(fs.size(ino), 100);
    }

    #[test]
    fn unlink_frees_space() {
        let fs = FileSystem::new(FsKind::Ext4Like);
        fs.create_sized("/f", 1 << 20).unwrap();
        let before = fs.allocated_blocks();
        assert!(before > 0);
        fs.unlink("/f").unwrap();
        assert_eq!(fs.allocated_blocks(), 0);
    }

    #[test]
    fn list_prefix_filters() {
        let fs = FileSystem::new(FsKind::Ext4Like);
        fs.create("/db/1.sst").unwrap();
        fs.create("/db/2.sst").unwrap();
        fs.create("/log/wal").unwrap();
        let mut db = fs.list_prefix("/db/");
        db.sort();
        assert_eq!(db, vec!["/db/1.sst".to_string(), "/db/2.sst".to_string()]);
        assert_eq!(fs.file_count(), 3);
    }

    #[test]
    fn distinct_files_get_distinct_physical_blocks() {
        let fs = FileSystem::new(FsKind::Ext4Like);
        let a = fs.create_sized("/a", 1 << 20).unwrap();
        let b = fs.create_sized("/b", 1 << 20).unwrap();
        let ra = fs.map_blocks(a, 0, 256);
        let rb = fs.map_blocks(b, 0, 256);
        let a_range = ra[0].pstart..ra[0].pstart + ra[0].blocks;
        assert!(!a_range.contains(&rb[0].pstart));
    }

    #[test]
    fn map_block_allocates_only_holes() {
        let fs = FileSystem::new(FsKind::F2fsLike);
        let ino = fs.create("/f").unwrap();
        let first = fs.map_block(ino, 5);
        assert_eq!(fs.allocated_blocks(), 1);
        assert_eq!(fs.map_block(ino, 5), first);
        assert_eq!(fs.allocated_blocks(), 1, "a mapped block allocates nothing");
        assert_eq!(
            fs.map_blocks(ino, 5, 1),
            vec![Run {
                pstart: first,
                blocks: 1
            }]
        );
    }

    #[test]
    fn allocate_each_is_a_page_at_a_time_writer() {
        // Two files share the ext4-like frontier; the second write to `a`
        // straddles the end of its first reservation.
        let blockwise = FileSystem::new(FsKind::Ext4Like);
        let a = blockwise.create("/a").unwrap();
        let b = blockwise.create("/b").unwrap();
        let each = FileSystem::new(FsKind::Ext4Like);
        let (ea, eb) = (each.create("/a").unwrap(), each.create("/b").unwrap());
        for (fs, a, b, per_call) in [(&blockwise, a, b, true), (&each, ea, eb, false)] {
            for (ino, lstart, count) in [(a, 0, 8000), (b, 0, 10), (a, 8000, 400)] {
                if per_call {
                    for l in lstart..lstart + count {
                        fs.map_block(ino, l);
                    }
                } else {
                    assert_eq!(fs.allocate_each(ino, lstart, count), count);
                }
            }
        }
        assert_eq!(
            blockwise.map_blocks(a, 0, 8400),
            each.map_blocks(ea, 0, 8400)
        );
        assert_eq!(
            each.map_blocks(ea, 0, 8400).len(),
            2,
            "split at the reservation end"
        );
        // One call per hole carves a fresh region instead.
        let whole = FileSystem::new(FsKind::Ext4Like);
        let (wa, wb) = (whole.create("/a").unwrap(), whole.create("/b").unwrap());
        whole.allocate(wa, 0, 8000);
        whole.allocate(wb, 0, 10);
        whole.allocate(wa, 8000, 400);
        assert_ne!(whole.map_blocks(wa, 0, 8400), each.map_blocks(ea, 0, 8400));
    }

    #[test]
    fn hole_allocation_counts_new_blocks_once() {
        let fs = FileSystem::new(FsKind::Ext4Like);
        let ino = fs.create("/f").unwrap();
        assert_eq!(fs.allocate(ino, 0, 10), 10);
        assert_eq!(fs.allocate(ino, 0, 10), 0);
        assert_eq!(fs.allocate(ino, 5, 10), 5);
    }
}
