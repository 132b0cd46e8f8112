//! The LSM database: memtable + WAL + leveled SSTables.

use std::cell::RefCell;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use crossprefetch::{Advice, CpFile, Mode, Runtime};
use parking_lot::{Mutex, RwLock};
use simclock::ThreadClock;

use crate::memtable::MemTable;
use crate::sstable::{SsTableBuilder, SsTableReader};
use crate::wal::Wal;

thread_local! {
    /// Per-thread table handles for point lookups, keyed by (database
    /// instance id, table file id). RocksDB opens per-thread descriptors
    /// on shared database files (§4.5, Figure 4); sharing one descriptor
    /// across reader threads would interleave their streams through one
    /// access-pattern predictor and destroy its signal.
    ///
    /// The key uses a globally-unique instance id — never the `Db`
    /// address, which the allocator may reuse for a later database and
    /// silently serve stale handles.
    static TABLE_HANDLES: RefCell<HashMap<(u64, u64), Arc<CpFile>>> =
        RefCell::new(HashMap::new());
}

/// Monotonic database instance ids for the per-thread handle cache.
static DB_INSTANCE_SEQ: AtomicU64 = AtomicU64::new(0);

/// Database tuning options.
#[derive(Debug, Clone)]
pub struct DbOptions {
    /// Directory prefix for database files.
    pub dir: String,
    /// Memtable flush threshold in bytes.
    pub memtable_bytes: usize,
    /// L0 table count that triggers compaction into L1.
    pub l0_compaction_trigger: usize,
    /// Target size of one output SSTable during compaction.
    pub sst_target_bytes: usize,
    /// WAL group-commit size.
    pub wal_group_commit: u32,
}

impl Default for DbOptions {
    fn default() -> Self {
        Self {
            dir: "/db".to_string(),
            memtable_bytes: 4 << 20,
            l0_compaction_trigger: 4,
            sst_target_bytes: 8 << 20,
            wal_group_commit: 32,
        }
    }
}

/// A table file plus its path (iterators open private descriptors so each
/// scanning thread gets its own access-pattern predictor, mirroring
/// RocksDB's per-thread file descriptors — §4.5).
#[derive(Debug)]
pub struct Table {
    /// The reader with pinned index/bloom and the shared fallback handle.
    pub reader: SsTableReader,
    /// Filesystem path of the table.
    pub path: String,
    /// Stable id for per-thread handle caching.
    pub file_id: u64,
}

/// The LSM key-value store, a deliberately faithful miniature of RocksDB's
/// read and write paths: point gets touch bloom + index + one data block
/// per candidate table; scans merge block streams across levels; writes go
/// through a group-committed WAL and a memtable that flushes into
/// overlapping L0 tables, compacted into a sorted L1 run.
#[derive(Debug)]
pub struct Db {
    runtime: Runtime,
    opts: DbOptions,
    mem: RwLock<MemTable>,
    wal: Mutex<Wal>,
    /// `levels[0]` = L0, newest first (overlapping); `levels[1]` = L1,
    /// sorted by first key (non-overlapping).
    levels: RwLock<Vec<Vec<Arc<Table>>>>,
    next_file: AtomicU64,
    /// Globally-unique id for the per-thread handle cache.
    instance_id: u64,
    /// The MANIFEST file recording level membership (RocksDB-style),
    /// rewritten on every level change so the database can reopen.
    manifest: Mutex<CpFile>,
    /// Serializes writers, flushes, and compactions.
    write_mutex: Mutex<()>,
    /// Compactions run.
    pub compactions: AtomicU64,
}

impl Db {
    /// Creates an empty database under `opts.dir`.
    pub fn create(runtime: Runtime, clock: &mut ThreadClock, opts: DbOptions) -> Arc<Self> {
        let wal_file = runtime
            .create(clock, &format!("{}/wal", opts.dir))
            .expect("fresh database directory");
        let manifest = runtime
            .create(clock, &format!("{}/MANIFEST", opts.dir))
            .expect("fresh database directory");
        let group = opts.wal_group_commit;
        Arc::new(Self {
            runtime,
            opts,
            mem: RwLock::new(MemTable::new()),
            wal: Mutex::new(Wal::new(wal_file, group)),
            levels: RwLock::new(vec![Vec::new(), Vec::new()]),
            next_file: AtomicU64::new(1),
            instance_id: DB_INSTANCE_SEQ.fetch_add(1, Ordering::Relaxed),
            manifest: Mutex::new(manifest),
            write_mutex: Mutex::new(()),
            compactions: AtomicU64::new(0),
        })
    }

    /// Reopens a database previously created under `opts.dir`: parses the
    /// MANIFEST, opens every live table from its on-disk meta, and replays
    /// the WAL's valid prefix into a fresh memtable.
    ///
    /// Returns `None` when no well-formed database exists there.
    pub fn reopen(runtime: Runtime, clock: &mut ThreadClock, opts: DbOptions) -> Option<Arc<Self>> {
        let manifest_file = runtime
            .open(clock, &format!("{}/MANIFEST", opts.dir))
            .ok()?;
        let manifest_text = {
            let size = manifest_file.size();
            if size < 8 {
                String::new()
            } else {
                let header = manifest_file.read(clock, 0, 8);
                let len = u64::from_le_bytes(header[..8].try_into().ok()?);
                if 8 + len > size {
                    return None;
                }
                String::from_utf8(manifest_file.read(clock, 8, len)).ok()?
            }
        };

        let mut levels = vec![Vec::new(), Vec::new()];
        let mut max_file_id = 0u64;
        for line in manifest_text.lines() {
            let mut parts = line.splitn(3, ' ');
            let level: usize = parts.next()?.parse().ok()?;
            let file_id: u64 = parts.next()?.parse().ok()?;
            let path = parts.next()?.to_string();
            if level >= levels.len() {
                return None;
            }
            let file = runtime.open(clock, &path).ok()?;
            let reader = SsTableReader::open(clock, file)?;
            max_file_id = max_file_id.max(file_id);
            levels[level].push(Arc::new(Table {
                reader,
                path,
                file_id,
            }));
        }
        // L1 must stay sorted by first key; L0 order is preserved by the
        // manifest (written newest-first).
        levels[1].sort_by(|a: &Arc<Table>, b: &Arc<Table>| {
            a.reader.meta.first_key.cmp(&b.reader.meta.first_key)
        });

        // Replay the WAL into a fresh memtable.
        let wal_path = format!("{}/wal", opts.dir);
        let wal_file = runtime.open(clock, &wal_path).ok()?;
        let mut mem = MemTable::new();
        for (key, value) in Wal::replay(clock, &wal_file) {
            match value {
                Some(v) => mem.put(&key, &v),
                None => mem.delete(&key),
            }
        }
        let mut wal = Wal::new(wal_file, opts.wal_group_commit);
        // Re-log the recovered entries so the WAL offset is consistent.
        wal.reset(clock);
        for (key, value) in mem.iter() {
            wal.append(clock, key, value);
        }

        let db = Arc::new(Self {
            runtime: runtime.clone(),
            opts,
            mem: RwLock::new(mem),
            wal: Mutex::new(wal),
            levels: RwLock::new(levels),
            next_file: AtomicU64::new(max_file_id + 1),
            instance_id: DB_INSTANCE_SEQ.fetch_add(1, Ordering::Relaxed),
            manifest: Mutex::new(manifest_file),
            write_mutex: Mutex::new(()),
            compactions: AtomicU64::new(0),
        });
        Some(db)
    }

    /// Rewrites the MANIFEST to reflect the current levels. Called under
    /// the write mutex after every level change.
    fn persist_manifest(&self, clock: &mut ThreadClock) {
        let text = {
            let levels = self.levels.read();
            let mut out = String::new();
            for (level, tables) in levels.iter().enumerate() {
                for table in tables {
                    out.push_str(&format!("{level} {} {}\n", table.file_id, table.path));
                }
            }
            out
        };
        let manifest = self.manifest.lock();
        manifest.write(clock, 0, &(text.len() as u64).to_le_bytes());
        manifest.write(clock, 8, text.as_bytes());
        manifest.fsync(clock);
    }

    /// The runtime this database runs on.
    pub fn runtime(&self) -> &Runtime {
        &self.runtime
    }

    /// The options in effect.
    pub fn options(&self) -> &DbOptions {
        &self.opts
    }

    /// Applies RocksDB's `APPonly` posture to a newly opened table handle:
    /// production RocksDB distrusts OS pattern detection and disables
    /// prefetching on database files (§3.1).
    fn apply_open_advice(&self, clock: &mut ThreadClock, file: &crossprefetch::CpFile) {
        if self.runtime.config().mode == Mode::AppOnly {
            file.advise(clock, Advice::Random, 0, 0);
        }
    }

    // ----- write path ---------------------------------------------------------

    /// Inserts or overwrites `key`.
    pub fn put(&self, clock: &mut ThreadClock, key: &[u8], value: &[u8]) {
        let _guard = self.write_mutex.lock();
        self.wal.lock().append(clock, key, Some(value));
        let needs_flush = {
            let mut mem = self.mem.write();
            mem.put(key, value);
            mem.bytes() >= self.opts.memtable_bytes
        };
        if needs_flush {
            self.flush_locked(clock);
        }
    }

    /// Deletes `key` (tombstone).
    pub fn delete(&self, clock: &mut ThreadClock, key: &[u8]) {
        let _guard = self.write_mutex.lock();
        self.wal.lock().append(clock, key, None);
        let needs_flush = {
            let mut mem = self.mem.write();
            mem.delete(key);
            mem.bytes() >= self.opts.memtable_bytes
        };
        if needs_flush {
            self.flush_locked(clock);
        }
    }

    /// Forces a memtable flush (used to finish a fill phase).
    pub fn flush(&self, clock: &mut ThreadClock) {
        let _guard = self.write_mutex.lock();
        self.flush_locked(clock);
    }

    fn flush_locked(&self, clock: &mut ThreadClock) {
        let entries = {
            let mut mem = self.mem.write();
            if mem.is_empty() {
                return;
            }
            std::mem::take(&mut *mem).into_sorted()
        };
        let table = self.build_table(
            clock,
            entries.iter().map(|(k, v)| (k.as_slice(), v.as_deref())),
        );
        self.levels.write()[0].insert(0, Arc::new(table));
        self.wal.lock().reset(clock);
        self.persist_manifest(clock);
        if self.levels.read()[0].len() >= self.opts.l0_compaction_trigger {
            self.compact_l0(clock);
        }
    }

    fn build_table<'a, I>(&self, clock: &mut ThreadClock, entries: I) -> Table
    where
        I: Iterator<Item = (&'a [u8], Option<&'a [u8]>)>,
    {
        let id = self.next_file.fetch_add(1, Ordering::Relaxed);
        let path = format!("{}/{:06}.sst", self.opts.dir, id);
        let file = self
            .runtime
            .create(clock, &path)
            .expect("unique table file name");
        self.apply_open_advice(clock, &file);
        let mut builder = SsTableBuilder::new();
        for (key, value) in entries {
            builder.add(key, value);
        }
        let meta = builder.finish(clock, &file);
        Table {
            reader: SsTableReader { meta, file },
            path,
            file_id: id,
        }
    }

    /// Merges all of L0 with the overlapping span of L1 into fresh L1
    /// tables. Inputs are read sequentially (RocksDB compaction readahead),
    /// outputs are written sequentially.
    fn compact_l0(&self, clock: &mut ThreadClock) {
        self.compactions.fetch_add(1, Ordering::Relaxed);
        let (l0, l1) = {
            let levels = self.levels.read();
            (levels[0].clone(), levels[1].clone())
        };
        if l0.is_empty() {
            return;
        }

        // Determine the key span of L0 and split L1 into overlapping /
        // untouched.
        let lo = l0
            .iter()
            .map(|t| t.reader.meta.first_key.clone())
            .min()
            .unwrap();
        let hi = l0
            .iter()
            .map(|t| t.reader.meta.last_key.clone())
            .max()
            .unwrap();
        let (overlap, keep): (Vec<_>, Vec<_>) = l1
            .into_iter()
            .partition(|t| t.reader.meta.first_key <= hi && t.reader.meta.last_key >= lo);

        // K-way merge all inputs; newer sources shadow older ones.
        // Source priority: L0 index order (newest first), then L1.
        let mut sources: Vec<crate::iter::TableIter> = Vec::new();
        for table in l0.iter().chain(overlap.iter()) {
            sources.push(crate::iter::TableIter::forward_shared(
                clock,
                self,
                Arc::clone(table),
            ));
        }
        let mut merged = crate::iter::MergeIter::new(sources);

        let mut outputs: Vec<Arc<Table>> = Vec::new();
        let mut builder = SsTableBuilder::new();
        let mut pending: Vec<(Vec<u8>, Option<Vec<u8>>)> = Vec::new();
        let target = self.opts.sst_target_bytes;
        let mut pending_bytes = 0usize;
        while let Some(entry) = merged.next(clock) {
            // Compaction to the bottom level drops tombstones.
            if entry.value.is_none() {
                continue;
            }
            pending_bytes += entry.key.len() + entry.value.as_ref().map_or(0, |v| v.len()) + 6;
            pending.push((entry.key, entry.value));
            if pending_bytes >= target {
                for (k, v) in pending.drain(..) {
                    builder.add(&k, v.as_deref());
                }
                outputs.push(Arc::new(
                    self.finish_builder(clock, std::mem::take(&mut builder)),
                ));
                pending_bytes = 0;
            }
        }
        for (k, v) in pending.drain(..) {
            builder.add(&k, v.as_deref());
        }
        if !builder.is_empty() {
            outputs.push(Arc::new(self.finish_builder(clock, builder)));
        }

        // Install the new L1 and drop the inputs.
        {
            let mut levels = self.levels.write();
            levels[0].clear();
            let mut new_l1 = keep;
            new_l1.extend(outputs);
            new_l1.sort_by(|a, b| a.reader.meta.first_key.cmp(&b.reader.meta.first_key));
            levels[1] = new_l1;
        }
        self.persist_manifest(clock);
        for table in l0.iter().chain(overlap.iter()) {
            let _ = self.runtime.os().unlink(clock, &table.path);
        }
    }

    fn finish_builder(&self, clock: &mut ThreadClock, builder: SsTableBuilder) -> Table {
        let id = self.next_file.fetch_add(1, Ordering::Relaxed);
        let path = format!("{}/{:06}.sst", self.opts.dir, id);
        let file = self
            .runtime
            .create(clock, &path)
            .expect("unique table file name");
        self.apply_open_advice(clock, &file);
        let meta = builder.finish(clock, &file);
        Table {
            reader: SsTableReader { meta, file },
            path,
            file_id: id,
        }
    }

    /// A per-thread handle on `table` for point lookups, opened lazily.
    fn thread_handle(&self, clock: &mut ThreadClock, table: &Arc<Table>) -> Arc<CpFile> {
        self.thread_handle_in(clock, table, 0)
    }

    /// A per-thread handle for scans — pooled separately from the
    /// point-get handles so a scan's sequential stream and a get's random
    /// stream never share one predictor (RocksDB pools iterator
    /// descriptors the same way).
    pub(crate) fn thread_scan_handle(
        &self,
        clock: &mut ThreadClock,
        table: &Arc<Table>,
    ) -> Arc<CpFile> {
        self.thread_handle_in(clock, table, 1)
    }

    fn thread_handle_in(
        &self,
        clock: &mut ThreadClock,
        table: &Arc<Table>,
        class: u64,
    ) -> Arc<CpFile> {
        let key = (self.instance_id * 2 + class, table.file_id);
        TABLE_HANDLES.with(|handles| {
            if let Some(handle) = handles.borrow().get(&key) {
                return Arc::clone(handle);
            }
            let file = self
                .runtime
                .open(clock, &table.path)
                .expect("live table path");
            self.apply_open_advice(clock, &file);
            let handle = Arc::new(file);
            handles.borrow_mut().insert(key, Arc::clone(&handle));
            handle
        })
    }

    // ----- read path -----------------------------------------------------------

    /// Point lookup.
    pub fn get(&self, clock: &mut ThreadClock, key: &[u8]) -> Option<Vec<u8>> {
        if let Some(hit) = self.mem.read().get(key) {
            return hit.map(|v| v.to_vec());
        }
        let levels = { self.levels.read().clone() };
        // L0: newest first, overlapping — check each.
        for table in &levels[0] {
            let handle = self.thread_handle(clock, table);
            if let Some(result) = table.reader.get_with(clock, key, &handle) {
                return result;
            }
        }
        // L1: non-overlapping — at most one candidate.
        let l1 = &levels[1];
        let idx = l1.partition_point(|t| t.reader.meta.first_key.as_slice() <= key);
        if idx > 0 {
            let table = &l1[idx - 1];
            let handle = self.thread_handle(clock, table);
            if let Some(result) = table.reader.get_with(clock, key, &handle) {
                return result;
            }
        }
        None
    }

    /// Batched lookup (db_bench `multireadrandom` / RocksDB `MultiGet`):
    /// keys are sorted first so adjacent keys share data blocks.
    pub fn multi_get(&self, clock: &mut ThreadClock, keys: &mut [Vec<u8>]) -> Vec<Option<Vec<u8>>> {
        keys.sort();
        keys.iter().map(|k| self.get(clock, k)).collect()
    }

    /// A snapshot of the current levels for iterators.
    pub(crate) fn level_snapshot(&self) -> Vec<Vec<Arc<Table>>> {
        self.levels.read().clone()
    }

    /// A snapshot of the memtable for iterators.
    pub(crate) fn mem_snapshot(&self) -> Vec<(Vec<u8>, Option<Vec<u8>>)> {
        self.mem
            .read()
            .iter()
            .map(|(k, v)| (k.to_vec(), v.map(|v| v.to_vec())))
            .collect()
    }
}
