//! # workloads — the CrossPrefetch evaluation workload suite
//!
//! Everything §5 of the paper runs, built from scratch over the simulated
//! stack:
//!
//! * [`micro`] — the custom multi-threaded microbenchmark (private/shared
//!   files × sequential/batched-random, plus the Figure 6 reader/writer
//!   mix);
//! * [`ycsb`] — YCSB workloads A–F with Zipfian and latest-biased request
//!   distributions ([`zipf`]), run against the `minilsm` store;
//! * [`filebench`] — multi-instance Filebench personalities (seqread,
//!   randread, metadata-heavy "mongodb", videoserver);
//! * [`snappy`] — a real Snappy block-format codec and the parallel
//!   file-compression workload;
//! * [`kvprobe`] — a zipfian index-then-data probe stream (short runs
//!   behind far jumps, which the strided predictor plans by their
//!   learned length), driving the `kv_probe` gates and `ablations`;
//! * [`fleet`] — an open-loop multi-tenant arrival stream (seeded Poisson
//!   arrivals over zipfian tenant popularity) driving the tenant suite
//!   and the per-tenant `ablations` table.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod filebench;
pub mod fleet;
pub mod kvprobe;
pub mod micro;
pub mod snappy;
pub mod ycsb;
pub mod zipf;

pub use filebench::{run_filebench, FilebenchConfig, FilebenchResult, Personality};
pub use fleet::{
    run_fleet, setup_fleet, FleetConfig, FleetResult, FleetTenantResult, FleetTenantSpec,
};
pub use kvprobe::{run_kvprobe, setup_kvprobe, KvProbeConfig, KvProbeResult};
pub use micro::{run_micro, run_shared_rw, setup_micro, MicroConfig, MicroPattern, MicroResult};
pub use snappy::{compress, decompress, run_snappy, SnappyConfig, SnappyError, SnappyResult};
pub use ycsb::{run_ycsb, YcsbConfig, YcsbWorkload};
pub use zipf::{Latest, Zipfian};
