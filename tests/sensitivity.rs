//! Sensitivity analysis: the paper-shape conclusions must be robust to
//! the calibration constants in [`simclock::CostModel`]. Each test
//! perturbs the software-cost constants substantially and re-checks a
//! headline ordering — if a conclusion held only for one magic set of
//! numbers, it would not be a reproduction.

use crossprefetch::{Mode, Runtime};
use simclock::CostModel;
use simos::{Device, DeviceConfig, FileSystem, FsKind, Os, OsConfig};
use std::sync::Arc;
use workloads::{run_micro, setup_micro, MicroConfig, MicroPattern};

fn scaled_costs(factor: f64) -> CostModel {
    let base = CostModel::default();
    let scale = |ns: u64| ((ns as f64) * factor).max(1.0) as u64;
    CostModel {
        syscall_ns: scale(base.syscall_ns),
        page_copy_ns: scale(base.page_copy_ns),
        tree_walk_per_page_ns: scale(base.tree_walk_per_page_ns),
        tree_insert_per_page_ns: scale(base.tree_insert_per_page_ns),
        bitmap_word_ns: scale(base.bitmap_word_ns),
        bitmap_lock_hold_ns: scale(base.bitmap_lock_hold_ns),
        lock_op_ns: scale(base.lock_op_ns),
        fincore_scan_per_page_ns: scale(base.fincore_scan_per_page_ns),
        fincore_mmap_lock_ns: scale(base.fincore_mmap_lock_ns),
        bitmap_copy_word_ns: scale(base.bitmap_copy_word_ns),
        lru_per_page_ns: scale(base.lru_per_page_ns),
        page_alloc_ns: scale(base.page_alloc_ns),
        predictor_step_ns: scale(base.predictor_step_ns),
        range_tree_op_ns: scale(base.range_tree_op_ns),
        range_index_retry_ns: scale(base.range_index_retry_ns),
        fault_ns: scale(base.fault_ns),
        mmap_minor_ns: scale(base.mmap_minor_ns),
    }
}

fn micro_mbps(mode: Mode, costs: CostModel) -> (f64, f64) {
    let mut config = OsConfig::with_memory_mb(48);
    config.costs = costs;
    let os = Os::new(
        config,
        Device::new(DeviceConfig::local_nvme()),
        FileSystem::new(FsKind::Ext4Like),
    );
    let rt = Runtime::with_mode(Arc::clone(&os), mode);
    let cfg = MicroConfig {
        threads: 4,
        data_bytes: 96 << 20,
        io_bytes: 16 * 1024,
        ops_per_thread: 1000,
        shared: true,
        pattern: MicroPattern::BatchedRandom { batch: 8 },
        seed: 0x5E75,
    };
    setup_micro(&rt, &cfg);
    let result = run_micro(&rt, &cfg);
    (result.mbps(), result.miss_pct)
}

#[test]
fn headline_ordering_survives_halved_software_costs() {
    let costs = scaled_costs(0.5);
    let (app, app_miss) = micro_mbps(Mode::AppOnly, costs.clone());
    let (crossp, crossp_miss) = micro_mbps(Mode::PredictOpt, costs);
    assert!(
        crossp > app * 1.2,
        "0.5x costs: CrossP {crossp:.0} vs APPonly {app:.0} MB/s"
    );
    assert!(crossp_miss < app_miss / 2.0);
}

#[test]
fn headline_ordering_survives_doubled_software_costs() {
    let costs = scaled_costs(2.0);
    let (app, app_miss) = micro_mbps(Mode::AppOnly, costs.clone());
    let (crossp, crossp_miss) = micro_mbps(Mode::PredictOpt, costs);
    assert!(
        crossp > app * 1.2,
        "2x costs: CrossP {crossp:.0} vs APPonly {app:.0} MB/s"
    );
    assert!(crossp_miss < app_miss / 2.0);
}

#[test]
fn headline_ordering_survives_quadrupled_software_costs() {
    // Even with software 4x more expensive (approaching CPU-bound),
    // prefetching's miss-rate advantage must dominate.
    let costs = scaled_costs(4.0);
    let (app, _) = micro_mbps(Mode::AppOnly, costs.clone());
    let (crossp, _) = micro_mbps(Mode::PredictOpt, costs);
    assert!(
        crossp > app,
        "4x costs: CrossP {crossp:.0} vs APPonly {app:.0} MB/s"
    );
}

#[test]
fn fincore_stays_costlier_than_bitmap_under_perturbation() {
    // The core CROSS-OS claim must hold across the calibration range:
    // a fincore-style scan dwarfs the exported-bitmap query.
    for factor in [0.5, 1.0, 3.0] {
        let mut config = OsConfig::with_memory_mb(256);
        config.costs = scaled_costs(factor);
        let os = Os::new(
            config,
            Device::new(DeviceConfig::local_nvme()),
            FileSystem::new(FsKind::Ext4Like),
        );
        let mut clock = os.new_clock();
        let fd = os.create_sized(&mut clock, "/big", 128 << 20).unwrap();
        let t0 = clock.now();
        os.fincore(&mut clock, fd);
        let fincore_cost = clock.now() - t0;
        let t1 = clock.now();
        os.readahead_info(&mut clock, fd, simos::RaInfoRequest::query(0, 128 << 20));
        let query_cost = clock.now() - t1;
        assert!(
            fincore_cost > 5 * query_cost,
            "factor {factor}: fincore {fincore_cost}ns vs query {query_cost}ns"
        );
    }
}

#[test]
fn reverse_scan_advantage_survives_perturbation() {
    use minilsm::{Db, DbBench, DbOptions};
    for factor in [0.5, 2.0] {
        let run = |mode: Mode| {
            let mut config = OsConfig::with_memory_mb(128);
            config.costs = scaled_costs(factor);
            let os = Os::new(
                config,
                Device::new(DeviceConfig::local_nvme()),
                FileSystem::new(FsKind::Ext4Like),
            );
            let rt = Runtime::with_mode(Arc::clone(&os), mode);
            let mut clock = rt.new_clock();
            let db = Db::create(rt.clone(), &mut clock, DbOptions::default());
            let bench = DbBench::new(db, 40_000, 400);
            bench.fill_seq();
            let mut c = os.new_clock();
            os.drop_caches(&mut c);
            rt.drop_cache_view(&mut c);
            bench.read_reverse(4).mbps()
        };
        let osonly = run(Mode::OsOnly);
        let crossp = run(Mode::PredictOpt);
        assert!(
            crossp > osonly * 1.5,
            "factor {factor}: reverse CrossP {crossp:.0} vs OSonly {osonly:.0} MB/s"
        );
    }
}
