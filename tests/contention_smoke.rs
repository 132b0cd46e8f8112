//! Registry-contention smoke: sharding must beat the single lock.
//!
//! Eight host threads churning opens, reads, and closes all cross three
//! key→object registries (CROSS-LIB per-file state, CROSS-OS inode
//! caches, CROSS-OS fd table). With one shard that traffic serializes on
//! a single lock; with many shards it spreads. The accounting records
//! *wall-clock* wait on *contended* acquisitions only, so:
//!
//! * one thread must observe exactly zero wait (timing neutrality), and
//! * at eight threads, the worst per-shard wait of a sharded registry
//!   must stay strictly below the single-lock baseline's wait.
//!
//! Span tracing runs throughout: registry waits are wall-clock and live
//! outside an exemplar's virtual-time bucket sum, but each exemplar
//! snapshots the wait delta over its in-flight window, so a contended
//! run must crown a most-contended exemplar (and a single-threaded run
//! must not).
//!
//! Wall-clock measurements are noisy; the test scales the workload up
//! until the single-lock baseline shows unambiguous contention before
//! asserting.

use std::sync::Arc;
use std::thread;

use crossprefetch::{Mode, Runtime, RuntimeConfig, RuntimeReport};
use simos::{Device, DeviceConfig, FileSystem, FsKind, Os, OsConfig};

fn boot(shards: usize) -> Arc<Os> {
    let mut config = OsConfig::with_memory_mb(256);
    config.registry_shards = shards;
    Os::new(
        config,
        Device::new(DeviceConfig::local_nvme()),
        FileSystem::new(FsKind::Ext4Like),
    )
}

/// Open/read/close churn from `threads` host threads against a registry
/// with `shards` shards (both layers). Every iteration inserts into the
/// CROSS-LIB file registry and the OS cache registry, and cycles one
/// extra descriptor through the fd table.
fn churn(threads: usize, shards: usize, iters: usize, tag: &str) -> (Runtime, Arc<Os>) {
    let os = boot(shards);
    let mut config = RuntimeConfig::new(Mode::Predict);
    config.registry_shards = shards;
    let rt = Runtime::new(Arc::clone(&os), config);
    // Span tracing rides along: each exemplar snapshots the wall-clock
    // registry-wait delta over its in-flight window, so the contention
    // this test provokes must show up attributed to individual reads.
    rt.spans().set_enabled(true);
    thread::scope(|s| {
        for t in 0..threads {
            let rt = rt.clone();
            let os = Arc::clone(&os);
            let tag = tag.to_string();
            s.spawn(move || {
                let mut clock = rt.new_clock();
                for i in 0..iters {
                    let path = format!("/{tag}/t{t}/f{i}");
                    let file = rt.create_sized(&mut clock, &path, 64 * 1024).unwrap();
                    file.read_charge(&mut clock, 0, 16 * 1024);
                    let extra = os.open(&mut clock, &path).unwrap();
                    os.close(&mut clock, extra);
                }
            });
        }
    });
    (rt, os)
}

/// Total contended wall-clock wait across all three registries.
fn total_wait_ns(rt: &Runtime, os: &Os) -> u64 {
    rt.file_registry_stats().total_wait_ns()
        + os.cache_registry_stats().total_wait_ns()
        + os.fd_registry_stats().total_wait_ns()
}

/// Worst single-shard wall-clock wait across all three registries.
fn max_shard_wait_ns(rt: &Runtime, os: &Os) -> u64 {
    [
        rt.file_registry_stats(),
        os.cache_registry_stats(),
        os.fd_registry_stats(),
    ]
    .iter()
    .flat_map(|stats| stats.per_shard_wait_ns.iter().copied())
    .max()
    .unwrap_or(0)
}

#[test]
fn contention_smoke_1_and_8_threads() {
    // 1 thread: no contention exists, so no wait may be recorded — this
    // is the invariant that keeps shard accounting out of the simulated
    // timeline.
    let (rt1, os1) = churn(1, 1, 192, "single");
    assert_eq!(
        total_wait_ns(&rt1, &os1),
        0,
        "single-threaded run recorded registry lock wait"
    );
    // The same invariant through the span lens: no exemplar's in-flight
    // window may carry registry wait, and no read may be crowned most
    // contended.
    for exemplar in rt1.spans().exemplars() {
        assert_eq!(
            exemplar.registry_wait_ns, 0,
            "single-threaded exemplar carries registry wait"
        );
    }
    assert!(
        rt1.spans().most_contended().is_none(),
        "single-threaded run produced a most-contended exemplar"
    );

    // 8 threads, single lock vs sharded. Scale until the baseline shows
    // real blocking (≥50 µs of wall-clock wait) so the comparison is not
    // a coin flip on scheduler noise.
    let mut iters = 192;
    let mut last = (0u64, 0u64);
    for _attempt in 0..6 {
        let (rt_base, os_base) = churn(8, 1, iters, "base");
        let base_total = total_wait_ns(&rt_base, &os_base);
        let (rt_shard, os_shard) = churn(8, 16, iters, "shard");
        let shard_max = max_shard_wait_ns(&rt_shard, &os_shard);
        last = (base_total, shard_max);
        // Contended runs must also surface the blocking through the span
        // subsystem: some read's in-flight window overlapped the waits.
        let attributed = rt_base.spans().most_contended();
        if let (true, Some(hot)) = (base_total >= 50_000 && shard_max < base_total, attributed) {
            assert!(
                hot.registry_wait_ns > 0,
                "most-contended exemplar must carry nonzero registry wait"
            );
            // The telemetry export carries the per-shard accounting.
            let json = RuntimeReport::collect(&rt_shard).to_json();
            assert!(json.contains("\"registries\""));
            assert!(json.contains("\"per_shard_wait_ns\""));
            return;
        }
        iters *= 2;
    }
    panic!(
        "sharded registries never separated from the single-lock baseline \
         (or spans never attributed the wait to a read): \
         baseline wait {} ns, worst sharded shard {} ns",
        last.0, last.1
    );
}
