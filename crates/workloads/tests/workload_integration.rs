//! Workload-suite integration tests: every generator must drive the stack
//! correctly and reproduce its qualitative shape at test scale.

use crossprefetch::{Mode, Runtime};
use simos::{Device, DeviceConfig, FileSystem, FsKind, Os, OsConfig};
use std::sync::Arc;
use workloads::{
    run_filebench, run_micro, run_shared_rw, run_snappy, setup_micro, FilebenchConfig, MicroConfig,
    MicroPattern, Personality, SnappyConfig,
};

fn os(memory_mb: u64) -> Arc<Os> {
    Os::new(
        OsConfig::with_memory_mb(memory_mb),
        Device::new(DeviceConfig::local_nvme()),
        FileSystem::new(FsKind::Ext4Like),
    )
}

/// The dirty ledger: every page the write path dirtied was written back,
/// dropped by `unlink`, or is still dirty.
fn assert_dirty_ledger(os: &Os) {
    let s = os.stats();
    assert_eq!(
        s.dirtied_pages.get(),
        s.written_back_pages.get() + s.dropped_dirty_pages.get() + os.mem().dirty(),
        "dirty ledger out of balance"
    );
}

#[test]
fn micro_results_account_exactly() {
    let rt = Runtime::with_mode(os(64), Mode::OsOnly);
    let cfg = MicroConfig {
        threads: 4,
        data_bytes: 64 << 20,
        io_bytes: 16 * 1024,
        ops_per_thread: 200,
        shared: true,
        pattern: MicroPattern::Sequential,
        seed: 1,
    };
    setup_micro(&rt, &cfg);
    let result = run_micro(&rt, &cfg);
    assert_eq!(result.ops, 4 * 200);
    assert_eq!(result.bytes, 4 * 200 * 16 * 1024);
    assert!(result.elapsed_ns > 0);
    assert!((0.0..=100.0).contains(&result.miss_pct));
}

#[test]
fn shared_rw_write_side_reflects_writer_count() {
    let rt = Runtime::with_mode(os(64), Mode::OsOnly);
    let (writes, reads) = run_shared_rw(&rt, 6, 2, 64 << 20, 160, 9);
    assert_eq!(writes.ops, 2 * 160);
    assert_eq!(reads.ops, 6 * 160);
    assert!(writes.mbps() > 0.0 && reads.mbps() > 0.0);
    assert_dirty_ledger(rt.os());
}

#[test]
fn filebench_videoserver_appends_content() {
    let machine = os(128);
    let cfg = FilebenchConfig {
        personality: Personality::VideoServer,
        instances: 2,
        bytes_per_instance: 16 << 20,
        ops_per_instance: 80,
        mode: Mode::OsOnly,
        seed: 3,
    };
    run_filebench(&machine, &cfg);
    // Appends may have grown some video past its initial size.
    let grown = machine
        .fs()
        .list_prefix("/fb/video0/")
        .iter()
        .any(|p| machine.fs().inode(machine.fs().lookup(p).unwrap()).size() > (16 << 20) / 8);
    let exists = !machine.fs().list_prefix("/fb/video0/").is_empty();
    assert!(exists);
    let _ = grown; // growth is probabilistic; existence is the invariant
}

#[test]
fn snappy_outputs_decompress_to_original_content() {
    let machine = os(64);
    let cfg = SnappyConfig {
        threads: 2,
        files_per_thread: 1,
        file_bytes: 1 << 20,
        mode: Mode::PredictOpt,
        compress_bytes_per_sec: 300e6,
    };
    let result = run_snappy(&machine, &cfg);
    assert!(result.ratio() > 3.0, "log-like input compresses well");

    // Decompress an actual output file and compare with its input.
    let rt = Runtime::with_mode(Arc::clone(&machine), Mode::OsOnly);
    let mut clock = rt.new_clock();
    let input = rt.open(&mut clock, "/snappy/in-0-0").unwrap();
    let output = rt.open(&mut clock, "/snappy/out-0-0.sz").unwrap();
    let original = input.read(&mut clock, 0, 1 << 20);
    let packed = output.read(&mut clock, 0, output.size());
    assert_eq!(workloads::decompress(&packed).unwrap(), original);
    assert_dirty_ledger(&machine);
}

#[test]
fn micro_shapes_hold_at_test_scale() {
    // The Figure 5 core claim, as a cheap smoke assertion.
    let run = |mode: Mode| {
        let rt = Runtime::with_mode(os(48), mode);
        let cfg = MicroConfig {
            threads: 4,
            data_bytes: 96 << 20,
            io_bytes: 16 * 1024,
            ops_per_thread: 800,
            shared: true,
            pattern: MicroPattern::BatchedRandom { batch: 8 },
            seed: 0x5A,
        };
        setup_micro(&rt, &cfg);
        run_micro(&rt, &cfg)
    };
    let app = run(Mode::AppOnly);
    let crossp = run(Mode::PredictOpt);
    assert!(crossp.mbps() > app.mbps(), "CrossP must beat APPonly");
    assert!(crossp.miss_pct < app.miss_pct);
}

#[test]
fn filebench_all_modes_complete_without_panic() {
    for mode in [
        Mode::AppOnly,
        Mode::OsOnly,
        Mode::Predict,
        Mode::FetchAllOpt,
    ] {
        let machine = os(64);
        let cfg = FilebenchConfig {
            personality: Personality::RandRead,
            instances: 2,
            bytes_per_instance: 8 << 20,
            ops_per_instance: 40,
            mode,
            seed: 4,
        };
        let result = run_filebench(&machine, &cfg);
        assert!(result.bytes > 0, "{mode:?}");
        assert_dirty_ledger(&machine);
    }
}
