//! # crossprefetch — CROSS-LIB, the user-level half of CrossPrefetch
//!
//! A Rust reproduction of the runtime contributed by *CrossPrefetch:
//! Accelerating I/O Prefetching for Modern Storage* (ASPLOS 2024). The
//! runtime sits between applications and the (simulated) OS and implements
//! the paper's cross-layered prefetching design:
//!
//! * a **shim** ([`CpFile`]) that transparently intercepts POSIX-style I/O;
//! * a per-descriptor n-bit **access-pattern predictor** ([`Predictor`],
//!   §4.6) driving exponential prefetch-window growth;
//! * a concurrent **range index** of per-node locks, one node per 4 MiB
//!   region holding its pages' presence bits and its own lock
//!   ([`BPlusRangeIndex`], §4.5), as the user-level mirror of the
//!   kernel's per-inode cache-state bitmap ([`RangeTree`] is the flat
//!   reference model the test suites check it against);
//! * **background prefetch workers** ([`worker::WorkerPool`]) that issue
//!   `readahead_info` calls off the application's critical path;
//! * **memory-budget-aware aggressive prefetching and eviction**
//!   (§4.6): optimistic 2 MiB prefetch at open, window doubling while
//!   memory is free, and LRU-of-files reclamation via `fadvise(DONTNEED)`.
//!
//! The runtime runs in one of the paper's comparison modes ([`Mode`],
//! Table 2), from `AppOnly` pass-through to the full
//! `CrossP[+predict+opt]`, plus the `APPonly[fincore]` strawman of
//! Figure 2 and per-feature staging ([`Features`]) for the Table 5
//! breakdown.
//!
//! # Example
//!
//! ```
//! use crossprefetch::{Mode, Runtime};
//! use simos::{Device, DeviceConfig, FileSystem, FsKind, Os, OsConfig};
//!
//! let os = Os::new(
//!     OsConfig::with_memory_mb(64),
//!     Device::new(DeviceConfig::local_nvme()),
//!     FileSystem::new(FsKind::Ext4Like),
//! );
//! let runtime = Runtime::with_mode(os, Mode::PredictOpt);
//! let mut clock = runtime.new_clock();
//!
//! let file = runtime.create_sized(&mut clock, "/data.bin", 8 << 20)?;
//! // Sequential reads: the predictor ramps up and prefetches ahead.
//! for i in 0..64u64 {
//!     file.read_charge(&mut clock, i * 16_384, 16_384);
//! }
//! assert!(runtime.stats().pages_initiated.get() > 0);
//! # Ok::<(), simos::FsError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod admit;
mod config;
mod engine;
pub mod metrics;
mod outstanding;
pub mod policy;
pub mod range_index;
pub mod range_tree;
mod read_path;
pub mod ring;
mod runtime;
pub mod span;
mod stats;
pub mod telemetry;
pub mod tenant;
pub mod tiering;
pub mod trace;
mod watcher;
pub mod worker;

pub use config::{Features, Mode, RuntimeConfig};
pub use metrics::{PipelineStage, ReadClass, RuntimeMetrics};
pub use policy::{OpenAction, Policy, PostReadHook};
pub use predict::{
    AccessPattern, Direction, EngineConfig, EngineKind, Prediction, Predictor, SEQ_BATCH_PAGES,
};
pub use range_index::{BPlusRangeIndex, IndexStats, LockScope};
pub use range_tree::RangeTree;
pub use ring::{FlushReason, SubmissionQueue};
pub use runtime::{CpFile, LibFile, Runtime};
pub use span::{
    CriticalPath, ReqId, SpanClassTotals, SpanCollector, SpanExemplar, SpanKind, SpanLeaf,
    StageSelf,
};
pub use stats::LibStats;
pub use telemetry::{FieldKind, FieldSpec, RuntimeReport, TELEMETRY_SCHEMA_VERSION};
pub use tenant::{QosClass, TenantArbiter, TenantId, TenantReport, TenantSpec, TenantsConfig};
pub use tiering::{TierPlanner, TieringConfig};
pub use trace::{LookupOutcome, SpanView, TraceEvent, TraceEventKind, Tracer};

// One coherent import surface for workloads and benches.
pub use simos::{
    Advice, Device, DeviceConfig, DeviceError, FaultPlan, Fd, FileSystem, FsError, FsKind, InodeId,
    IoError, MmapOutcome, Os, OsConfig, RaBatchCompletion, RaBatchEntry, RaInfo, RaInfoRequest,
    ReadOutcome, Tier, TierStats, TieredStore, WritebackConfig, PAGE_SIZE,
};
