//! The simulated OS I/O stack for the CrossPrefetch reproduction.
//!
//! This crate stands in for the Linux 5.14 kernel the paper modifies. It
//! provides:
//!
//! * a per-inode page cache ([`cache::InodeCache`]) whose presence bitmap
//!   doubles as the CROSS-OS cache-state bitmap;
//! * Linux-style incremental readahead ([`readahead::RaState`]) with the
//!   128 KiB cap, window doubling, async markers, and `fadvise` overrides;
//! * global-LRU reclaim under a configurable memory budget
//!   ([`reclaim::MemoryManager`]);
//! * the syscall surface ([`Os`]): `open`, `read`, `write`, `readahead`,
//!   `fadvise`, `fincore`, `fsync`, `unlink`, plus an `mmap` access path;
//! * the CROSS-OS extension ([`Os::readahead_info`]): bitmap-fast-path
//!   prefetch with cache-state and telemetry export, and relaxed prefetch
//!   limits (§4.4–§4.7 of the paper).
//!
//! Timing: every operation charges virtual nanoseconds to the calling
//! thread's [`simclock::ThreadClock`]; lock contention is modeled by
//! per-inode [`simclock::RwContention`] resources, with the regular-I/O
//! path charging the *cache-tree* lock and the `readahead_info` path
//! charging the *bitmap* lock — the delineation at the heart of the paper.
//!
//! # Example
//!
//! ```
//! use simos::{Os, OsConfig};
//! use simfs::{FileSystem, FsKind};
//! use simstore::{Device, DeviceConfig};
//!
//! let os = Os::new(
//!     OsConfig::with_memory_mb(64),
//!     Device::new(DeviceConfig::local_nvme()),
//!     FileSystem::new(FsKind::Ext4Like),
//! );
//! let mut clock = os.new_clock();
//! let fd = os.create_sized(&mut clock, "/data", 1 << 20)?;
//! let outcome = os.read_charge(&mut clock, fd, 0, 16 * 1024);
//! assert_eq!(outcome.miss_pages, 4); // cold cache
//! # Ok::<(), simfs::FsError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
mod config;
pub mod crossos;
mod error;
mod mmap;
mod os;
pub mod readahead;
pub mod reclaim;
mod stats;
pub mod trace;
mod writeback;

pub use cache::PrefetchQuality;
pub use config::{OsConfig, WritebackConfig};
pub use crossos::{
    bitmap_has_page, RaBatchCompletion, RaBatchEntry, RaInfo, RaInfoRequest, ReadBatchEntry,
    ReadBatchResult, CROSSOS_MAX_PREFETCH_PAGES,
};
pub use error::IoError;
pub use mmap::MmapOutcome;
pub use os::{
    into_ok, Advice, FaultMode, Fd, FdEntry, MayFault, NeverFault, Os, ReadOutcome, PAGE_SIZE,
};
pub use stats::OsStats;
pub use trace::{OsSpanKind, OsTraceEvent, OsTraceSink};

// Re-exports so downstream crates name one coherent surface.
pub use simfs::{FileSystem, FsError, FsKind, InodeId};
pub use simstore::{
    Device, DeviceConfig, DeviceError, FaultPlan, IoPriority, Tier, TierStats, TieredStore,
};
