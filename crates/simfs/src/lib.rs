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
//! both allocation policies. The table resolves an [`InodeId`] to its
//! shared [`Inode`], which owns the file's size and block map: an open
//! file keeps its `Arc<Inode>` and never searches the table again. It is
//! purely a mapping layer: virtual-time charges live in `simos`, and
//! device access lives in `simstore`.
//!
//! # Example
//!
//! ```
//! use simfs::{FileSystem, FsKind};
//!
//! let fs = FileSystem::new(FsKind::Ext4Like);
//! let inode = fs.inode(fs.create("/db/000001.sst")?);
//! inode.allocate(0, 256); // 1 MiB
//! let runs = inode.map_blocks(0, 256);
//! assert_eq!(runs.len(), 1, "ext4-like files are contiguous");
//! # Ok::<(), simfs::FsError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod alloc;
mod inode;
mod namespace;

pub use alloc::{Allocator, Run};
pub use inode::{Extent, Inode, InodeId};
pub use namespace::Namespace;

use std::fmt;
use std::sync::atomic::Ordering;
use std::sync::Arc;

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
    namespace: RwLock<Namespace>,
    /// Inodes indexed by number: handed out densely from 0, never reused.
    inodes: RwLock<Vec<Arc<Inode>>>,
    allocator: Arc<Mutex<Allocator>>,
}

impl FileSystem {
    /// Creates an empty filesystem with the given layout policy.
    pub fn new(kind: FsKind) -> Self {
        Self {
            namespace: RwLock::new(Namespace::new()),
            inodes: RwLock::new(Vec::new()),
            allocator: Arc::new(Mutex::new(Allocator::new(kind))),
        }
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
        let mut inodes = self.inodes.write();
        let ino = InodeId(inodes.len() as u64);
        inodes.push(Arc::new(Inode::new(ino, Arc::clone(&self.allocator))));
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
        let inode = self.inode(ino);
        let blocks = simstore::blocks_for_bytes(bytes);
        if blocks > 0 {
            inode.allocate(0, blocks);
        }
        inode.size.store(bytes, Ordering::Relaxed);
        Ok(ino)
    }

    /// The inode numbered `ino`: the object an open file holds.
    ///
    /// # Panics
    ///
    /// Panics if `ino` was never created by this filesystem.
    pub fn inode(&self, ino: InodeId) -> Arc<Inode> {
        Arc::clone(&self.inodes.read()[ino.0 as usize])
    }

    /// Resolves a path to its inode.
    pub fn lookup(&self, path: &str) -> Option<InodeId> {
        self.namespace.read().lookup(path)
    }

    /// Removes a path and frees the inode's blocks, running `before_free`
    /// on the inode once the path is gone but while the inode still maps
    /// its blocks.
    ///
    /// # Errors
    ///
    /// Returns [`FsError::NotFound`] if `path` names nothing.
    pub fn unlink(&self, path: &str, before_free: impl FnOnce(&Inode)) -> Result<InodeId, FsError> {
        let ino = {
            let mut ns = self.namespace.write();
            ns.remove(path)
                .ok_or_else(|| FsError::NotFound(path.to_string()))?
        };
        let inode = self.inode(ino);
        before_free(&inode);
        inode.release();
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

    /// Total physical blocks currently allocated across all files.
    pub fn allocated_blocks(&self) -> u64 {
        self.allocator.lock().allocated()
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
        assert_eq!(fs.unlink("/a", |_| {}).unwrap(), ino);
        assert_eq!(fs.lookup("/a"), None);
        assert_eq!(fs.unlink("/a", |_| {}), Err(FsError::NotFound("/a".into())));
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
        assert_eq!(fs.inode(ino).extent_count(), 1);
        let runs = fs
            .inode(ino)
            .map_blocks(0, simstore::blocks_for_bytes(64 << 20));
        assert_eq!(runs.len(), 1);
    }

    #[test]
    fn f2fs_like_interleaved_writers_fragment() {
        let fs = FileSystem::new(FsKind::F2fsLike);
        let a = fs.create("/a").unwrap();
        let b = fs.create("/b").unwrap();
        // Interleave small appends from two files.
        for i in 0..16 {
            fs.inode(a).allocate(i, 1);
            fs.inode(b).allocate(i, 1);
        }
        assert!(
            fs.inode(a).extent_count() > 1,
            "log interleaving must fragment"
        );
        // Same pattern on ext4-like stays contiguous per file.
        let fs2 = FileSystem::new(FsKind::Ext4Like);
        let c = fs2.create("/c").unwrap();
        let d = fs2.create("/d").unwrap();
        for i in 0..16 {
            fs2.inode(c).allocate(i, 1);
            fs2.inode(d).allocate(i, 1);
        }
        assert_eq!(fs2.inode(c).extent_count(), 1);
        let _ = d;
    }

    #[test]
    fn map_blocks_merges_adjacent_runs() {
        let fs = FileSystem::new(FsKind::Ext4Like);
        let ino = fs.create_sized("/x", 1 << 20).unwrap();
        let runs = fs.inode(ino).map_blocks(10, 50);
        assert_eq!(runs.len(), 1);
        assert_eq!(runs[0].blocks, 50);
    }

    #[test]
    fn size_grows_monotonically() {
        let fs = FileSystem::new(FsKind::Ext4Like);
        let ino = fs.create("/f").unwrap();
        fs.inode(ino).set_size(100);
        fs.inode(ino).set_size(50);
        assert_eq!(fs.inode(ino).size(), 100);
    }

    #[test]
    fn unlink_frees_space() {
        let fs = FileSystem::new(FsKind::Ext4Like);
        fs.create_sized("/f", 1 << 20).unwrap();
        let before = fs.allocated_blocks();
        assert!(before > 0);
        fs.unlink("/f", |_| {}).unwrap();
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
        let ra = fs.inode(a).map_blocks(0, 256);
        let rb = fs.inode(b).map_blocks(0, 256);
        let a_range = ra[0].pstart..ra[0].pstart + ra[0].blocks;
        assert!(!a_range.contains(&rb[0].pstart));
    }

    #[test]
    fn map_block_allocates_only_holes() {
        let fs = FileSystem::new(FsKind::F2fsLike);
        let ino = fs.create("/f").unwrap();
        let first = fs.inode(ino).map_block(5);
        assert_eq!(fs.allocated_blocks(), 1);
        assert_eq!(fs.inode(ino).map_block(5), first);
        assert_eq!(fs.allocated_blocks(), 1, "a mapped block allocates nothing");
        assert_eq!(
            fs.inode(ino).map_blocks(5, 1),
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
                        fs.inode(ino).map_block(l);
                    }
                } else {
                    assert_eq!(fs.inode(ino).allocate_each(lstart, count), count);
                }
            }
        }
        assert_eq!(
            blockwise.inode(a).map_blocks(0, 8400),
            each.inode(ea).map_blocks(0, 8400)
        );
        assert_eq!(
            each.inode(ea).map_blocks(0, 8400).len(),
            2,
            "split at the reservation end"
        );
        // One call per hole carves a fresh region instead.
        let whole = FileSystem::new(FsKind::Ext4Like);
        let (wa, wb) = (whole.create("/a").unwrap(), whole.create("/b").unwrap());
        whole.inode(wa).allocate(0, 8000);
        whole.inode(wb).allocate(0, 10);
        whole.inode(wa).allocate(8000, 400);
        assert_ne!(
            whole.inode(wa).map_blocks(0, 8400),
            each.inode(ea).map_blocks(0, 8400)
        );
    }

    #[test]
    fn hole_allocation_counts_new_blocks_once() {
        let fs = FileSystem::new(FsKind::Ext4Like);
        let ino = fs.create("/f").unwrap();
        assert_eq!(fs.inode(ino).allocate(0, 10), 10);
        assert_eq!(fs.inode(ino).allocate(0, 10), 0);
        assert_eq!(fs.inode(ino).allocate(5, 10), 5);
    }
}
