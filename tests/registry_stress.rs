//! Registry stress tests (both layers).
//!
//! The per-inode tables at CROSS-LIB (`Runtime`'s inode → state table) and
//! CROSS-OS (inode → cache, fd → entry) are plain `RwLock`ed vectors, the
//! inode tables dense because the filesystem never reuses an inode. Many
//! threads opening, reading, closing, unlinking and recreating must never
//! lose or share a file's state, and closed descriptor slots are reused.

use std::sync::Arc;
use std::thread;

use crossprefetch::{Mode, Runtime, RuntimeConfig, PAGE_SIZE};
use simos::{Device, DeviceConfig, FileSystem, FsKind, InodeId, Os, OsConfig};

const THREADS: usize = 8;

fn boot() -> Arc<Os> {
    Os::new(
        OsConfig::with_memory_mb(256),
        Device::new(DeviceConfig::local_nvme()),
        FileSystem::new(FsKind::Ext4Like),
    )
}

fn runtime(os: Arc<Os>) -> Runtime {
    Runtime::new(os, RuntimeConfig::new(Mode::Predict))
}

#[test]
fn concurrent_open_read_close_stress() {
    const FILES: usize = 24;
    let os = boot();
    let rt = runtime(Arc::clone(&os));

    thread::scope(|s| {
        for t in 0..THREADS {
            let rt = rt.clone();
            let os = Arc::clone(&os);
            s.spawn(move || {
                let mut clock = rt.new_clock();
                for i in 0..FILES {
                    let path = format!("/t{t}/f{i}");
                    let file = rt.create_sized(&mut clock, &path, 256 * 1024).unwrap();
                    let outcome = file.read_charge(&mut clock, 0, 64 * 1024);
                    assert_eq!(outcome.pages, 16, "short read on {path}");
                    // Descriptor churn through the OS fd table: a second
                    // descriptor per file, closed immediately.
                    let extra = os.open(&mut clock, &path).unwrap();
                    os.close(&mut clock, extra);
                }
            });
        }
    });

    // No state lost: every file reopens and reads back.
    let mut clock = rt.new_clock();
    for t in 0..THREADS {
        for i in 0..FILES {
            let path = format!("/t{t}/f{i}");
            let file = rt.open(&mut clock, &path).unwrap();
            assert_eq!(file.size(), 256 * 1024, "lost size for {path}");
        }
    }

    // Closed descriptors were reclaimed via the free list: a dropped
    // runtime handle closes its descriptor too, so with every handle gone
    // nothing is live, and the slot high-water mark stayed at peak
    // concurrency (each thread held at most its handle and one extra
    // descriptor at any moment; the verification reopens held one).
    let (high_water, live) = os.fd_slot_stats();
    assert_eq!(live, 0, "closed fds not reclaimed");
    assert!(
        high_water <= 2 * THREADS,
        "free-list reuse failed: high-water {high_water} for {THREADS} threads"
    );
}

/// Unlink + recreate churn: a recreated path gets a new inode with its
/// own cache, the size it was created with, and the bytes written to it;
/// the unlinked inode keeps no pages. The inode-cache table ends one slot
/// per inode, in inode order.
#[test]
fn unlink_and_recreate_churn_gets_fresh_state() {
    const ROUNDS: u64 = 16;
    let os = boot();
    let rt = runtime(Arc::clone(&os));

    thread::scope(|s| {
        for t in 0..THREADS {
            let rt = rt.clone();
            let os = Arc::clone(&os);
            s.spawn(move || {
                let mut clock = rt.new_clock();
                let path = format!("/churn/t{t}");
                let mut previous: Option<InodeId> = None;
                for round in 0..ROUNDS {
                    let bytes = (round + 1) * 64 * 1024;
                    let file = rt.create_sized(&mut clock, &path, bytes).unwrap();
                    let ino = file.ino();
                    if let Some(old) = previous {
                        assert!(ino.0 > old.0, "{path} reused inode {}", old.0);
                        assert_eq!(os.cache(old).state.read().resident(), 0);
                    }
                    assert_eq!(os.cache(ino).inode.ino(), ino);
                    assert_eq!(file.size(), bytes, "wrong size for {path} round {round}");
                    let tag = vec![(t as u8).wrapping_mul(17) ^ round as u8; PAGE_SIZE as usize];
                    file.write(&mut clock, 0, &tag);
                    assert_eq!(file.read(&mut clock, 0, PAGE_SIZE), tag);
                    let outcome = file.read_charge(&mut clock, 0, bytes);
                    assert_eq!(outcome.pages, bytes / PAGE_SIZE);
                    os.unlink(&mut clock, &path).unwrap();
                    previous = Some(ino);
                }
            });
        }
    });

    let inos: Vec<u64> = os
        .all_caches()
        .iter()
        .map(|cache| cache.inode.ino().0)
        .collect();
    assert_eq!(inos, (0..THREADS as u64 * ROUNDS).collect::<Vec<u64>>());
}

/// A handle held across `unlink` and recreate of its path keeps reading
/// its own, unlinked inode: only the old inode's hit/miss counters move,
/// the recreated file's cache stays empty, and closing a second OS
/// descriptor on the old file (whose slot the recreate then reuses) does
/// not disturb the handle.
#[test]
fn handle_held_across_unlink_and_recreate_reads_its_old_inode() {
    const BYTES: u64 = 4 * PAGE_SIZE;
    let os = boot();
    let rt = runtime(Arc::clone(&os));
    let mut clock = rt.new_clock();
    let path = "/held";
    let file = rt.create_sized(&mut clock, path, 1 << 20).unwrap();
    let old = file.ino();
    let second = os.open(&mut clock, path).unwrap();
    assert_eq!(file.read_charge(&mut clock, 0, 64 * 1024).pages, 16);

    os.unlink(&mut clock, path).unwrap();
    os.close(&mut clock, second);
    let recreated = os.create_sized(&mut clock, path, 1 << 20).unwrap();
    let new = os.fd_inode(recreated);
    assert!(new.0 > old.0, "recreate reused inode {}", old.0);

    // Unlink truncated the old inode; a write through the handle gives it
    // pages again, and the reads after it land on them.
    let (old_cache, new_cache) = (os.cache(old), os.cache(new));
    let before = old_cache.hits.get() + old_cache.misses.get();
    let tag = vec![0xA5; BYTES as usize];
    file.write(&mut clock, 0, &tag);
    for _ in 0..4 {
        assert_eq!(file.read_charge(&mut clock, 0, BYTES).pages, 4);
    }
    assert_eq!(file.read(&mut clock, 0, BYTES), tag);
    assert_eq!(file.size(), BYTES);
    assert!(old_cache.hits.get() + old_cache.misses.get() >= before + 5 * 4);
    assert_eq!(new_cache.hits.get(), 0, "a read reached the new inode");
    assert_eq!(new_cache.misses.get(), 0, "a read reached the new inode");
    assert_eq!(new_cache.state.read().resident(), 0);
    assert_eq!(os.fd_entry(recreated).cache.inode.size(), 1 << 20);
}
