//! The configuration surface, field by field.
//!
//! A value is a field only where a benchmark workload, a paper bench, an
//! ablation row or a behaviour test needs more than one setting (DESIGN
//! §9.5); everything else is a named constant beside its single point of
//! use. Each public config type is destructured here exhaustively — no
//! `..` — so adding a field is a compile error in the one file that asks
//! "who varies it?". Answer on the new binding's line, or make it a
//! constant.

use crossprefetch::{EngineConfig, Mode, RuntimeConfig, TenantsConfig, TieringConfig};
use simclock::CostModel;
use simos::{DeviceConfig, OsConfig, WritebackConfig};

#[test]
fn every_config_field_names_who_varies_it() {
    let RuntimeConfig {
        mode: _,                   // varied by: every harness
        features: _,               // varied by: tab05_breakdown
        engine: _,                 // varied by: ablations, tests/engines.rs, kv_probe
        engine_tuning: _,          // varied by: ablations (predictor_bits)
        open_prefetch_bytes: _,    // varied by: ablations
        max_prefetch_pages: _,     // varied by: runtime_behavior; read by kv_probe
        workers: _,                // varied by: ablations, policy_behavior
        evict_min_idle_ns: _,      // varied by: degradation, {policy,runtime}_behavior
        evict_scan_interval_ns: _, // varied by: degradation
        ring_submit: _,            // rides: ablations, tests/ring.rs, kv_probe, fleet_open
        tenants: _,                // varied by: ablations, tests/tenants.rs, fleet_open
        tiering: _,                // varied by: ablations, tests/tiering.rs, tier_rw
    } = RuntimeConfig::new(Mode::PredictOpt);

    let OsConfig {
        memory_budget_pages: _,      // varied by: every harness
        ra_max_pages: _,             // varied by: fig10_limit
        reclaim_slack: _,            // varied by: tenant.rs unit tests; ROADMAP item 10 sweep
        fault_around_pages: _,       // varied by: ROADMAP item 10 sweep (kept on purpose)
        inactive_after_ns: _,        // varied by: ROADMAP item 10 sweep (kept on purpose)
        readahead_info_supported: _, // varied by: degradation
        writeback: _,                // varied by: ablations, tests/tiering.rs (`None` = defaults)
        costs: _,                    // varied by: tests/sensitivity.rs
    } = OsConfig::default();

    let WritebackConfig {
        file_dirty_threshold_pages: _, // varied by: tests/tiering.rs
        background_dirty_pages: _,     // varied by: tests/tiering.rs
        write_through: _,              // varied by: ablations, tests/tiering.rs
    } = WritebackConfig::default();

    let TenantsConfig {
        tenants: _, // varied by: fleet_open, workloads::fleet, tests/tenants.rs
    } = TenantsConfig::new(Vec::new());

    // A marker: `Some(TieringConfig::new())` turns the planner on.
    let TieringConfig {} = TieringConfig::default();

    let EngineConfig {
        predictor_bits: _, // varied by: ablations
    } = EngineConfig::default();

    // The device presets differ in bandwidth and round trip; the rest are
    // ROADMAP item 10's sweep subjects.
    let DeviceConfig {
        read_bw: _,                // varied by: local_nvme vs remote_nvmeof (tier_rw, fig08)
        write_bw: _,               // varied by: the presets; device_properties
        read_latency_ns: _,        // varied by: ROADMAP item 10 sweep
        write_latency_ns: _,       // varied by: device_properties
        network_rtt_ns: _,         // varied by: local_nvme vs remote_nvmeof
        max_request_bytes: _,      // varied by: ROADMAP item 10 sweep
        prefetch_congestion_ns: _, // varied by: ROADMAP item 10 sweep
    } = DeviceConfig::local_nvme();

    // All seventeen scale together in tests/sensitivity.rs; one at a time
    // is ROADMAP item 10's sweep.
    let CostModel {
        syscall_ns: _,               // varied by: tests/sensitivity.rs
        page_copy_ns: _,             // varied by: tests/sensitivity.rs
        tree_walk_per_page_ns: _,    // varied by: tests/sensitivity.rs
        tree_insert_per_page_ns: _,  // varied by: tests/sensitivity.rs
        bitmap_word_ns: _,           // varied by: tests/sensitivity.rs
        bitmap_lock_hold_ns: _,      // varied by: tests/sensitivity.rs
        lock_op_ns: _,               // varied by: tests/sensitivity.rs
        fincore_scan_per_page_ns: _, // varied by: tests/sensitivity.rs
        fincore_mmap_lock_ns: _,     // varied by: tests/sensitivity.rs
        bitmap_copy_word_ns: _,      // varied by: tests/sensitivity.rs
        lru_per_page_ns: _,          // varied by: tests/sensitivity.rs
        page_alloc_ns: _,            // varied by: tests/sensitivity.rs
        predictor_step_ns: _,        // varied by: tests/sensitivity.rs
        range_tree_op_ns: _,         // varied by: tests/sensitivity.rs
        fault_ns: _,                 // varied by: tests/sensitivity.rs
        mmap_minor_ns: _,            // varied by: tests/sensitivity.rs
        range_index_retry_ns: _,     // varied by: tests/sensitivity.rs
    } = CostModel::default();
}
