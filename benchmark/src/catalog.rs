//! Every metric the benchmark reports, by name: unit, clock, direction,
//! bound, and which end-to-end metric a layer metric is expected to move.
//! `BENCHMARK.json` is generated from these tables (`--emit-benchmark-json`)
//! and a test keeps the checked-in file equal to them.

use std::fmt::Write as _;

use crate::workload::Kind;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Clock {
    /// Simulated time: the model's answer, bit-repeatable for a seed.
    Virtual,
    /// Host time or memory: what the simulator costs.
    Host,
    /// A count made by the program; repeats exactly for a seed.
    Count,
}

impl Clock {
    pub fn label(self) -> &'static str {
        match self {
            Clock::Virtual => "virtual",
            Clock::Host => "host",
            Clock::Count => "count",
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn label(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub clock: Clock,
    pub better: Better,
    /// Share of the parent's median by which the metric may get worse.
    pub bound: f64,
}

#[derive(Debug, Clone, Copy)]
pub struct Layer {
    pub name: &'static str,
    pub unit: &'static str,
    pub clock: Clock,
    pub better: Better,
}

/// How long one run measures, and the figure `BENCHMARK.json` carries.
pub const RUN_SECONDS: u64 = 18;

use Better::{Higher, Lower};
use Clock::{Count, Host, Virtual};

const fn e(name: &'static str, unit: &'static str, clock: Clock, better: Better, bound: f64) -> EndToEnd {
    EndToEnd { name, unit, clock, better, bound }
}

/// Bounds on virtual metrics are set by how far the metric moves between
/// seeds (the driver's acceptance runs vary the seed), not by run-to-run
/// noise: for one seed every virtual metric repeats exactly.
pub const END_TO_END: [EndToEnd; 11] = [
    e("wall_kops_per_s", "kops/s", Host, Higher, 0.25),
    e("virt_mbps", "MB/s", Virtual, Higher, 0.06),
    e("virt_read_mean_us", "us", Virtual, Lower, 0.06),
    e("virt_read_tail1pct_us", "us", Virtual, Lower, 0.10),
    e("virt_read_tail01pct_us", "us", Virtual, Lower, 0.06),
    e("virt_resp_mean_us", "us", Virtual, Lower, 0.06),
    e("virt_resp_tail1pct_us", "us", Virtual, Lower, 0.16),
    e("virt_sustained_rps", "1/s", Virtual, Higher, 0.06),
    e("virt_speedup_vs_osonly", "ratio", Virtual, Higher, 0.05),
    e("setup_s", "s", Host, Lower, 0.25),
    e("host_peak_rss_mb", "MB", Host, Lower, 0.10),
];

const fn l(name: &'static str, unit: &'static str, clock: Clock, better: Better) -> Layer {
    Layer { name, unit, clock, better }
}

pub const PER_LAYER: [Layer; 117] = [
    // read_path: the shim and the staged pipeline.
    l("read_path.ops", "count", Count, Higher),
    l("read_path.host_ns_p50", "ns", Host, Lower),
    l("read_path.host_ns_p99", "ns", Host, Lower),
    l("read_path.host_over_os_ns_per_op", "ns", Host, Lower),
    l("read_path.open_host_ns", "ns", Host, Lower),
    l("read_path.virt_classify_ns_per_op", "virt_ns", Virtual, Lower),
    l("read_path.virt_predict_ns_per_op", "virt_ns", Virtual, Lower),
    l("read_path.virt_prefetch_plan_ns_per_op", "virt_ns", Virtual, Lower),
    l("read_path.virt_cache_probe_ns_per_op", "virt_ns", Virtual, Lower),
    l("read_path.virt_demand_fill_ns_per_op", "virt_ns", Virtual, Lower),
    l("read_path.virt_account_ns_per_op", "virt_ns", Virtual, Lower),
    l("read_path.cache_hit_pct", "%", Count, Higher),
    l("read_path.prefetch_hit_pct", "%", Count, Higher),
    l("read_path.demand_miss_pct", "%", Count, Lower),
    l("read_path.errors", "count", Count, Lower),
    l("read_path.virt_read_p50_ns", "virt_ns", Virtual, Lower),
    l("read_path.virt_read_p99_ns", "virt_ns", Virtual, Lower),
    l("read_path.virt_read_p999_ns", "virt_ns", Virtual, Lower),
    l("read_path.virt_write_p99_ns", "virt_ns", Virtual, Lower),
    // predict: the engines, replayed on the recorded observation stream.
    l("predict.observe_host_ns", "ns", Host, Lower),
    l("predict.mine_host_ns", "ns", Host, Lower),
    l("predict.observes", "count", Count, Higher),
    l("predict.mining_passes", "count", Count, Lower),
    l("predict.assoc_runs", "count", Count, Higher),
    l("predict.duels", "count", Count, Lower),
    l("predict.ownership_flips", "count", Count, Lower),
    // prefetch: the useful-versus-attempted ledger.
    l("prefetch.pages_requested", "count", Count, Lower),
    l("prefetch.pages_initiated", "count", Count, Lower),
    l("prefetch.timely_pct", "%", Count, Higher),
    l("prefetch.late_pct", "%", Count, Lower),
    l("prefetch.wasted_pct", "%", Count, Lower),
    l("prefetch.skipped", "count", Count, Higher),
    l("prefetch.retries", "count", Count, Lower),
    l("prefetch.give_ups", "count", Count, Lower),
    // range_index: the B+ tree, replayed on the recorded ranges.
    l("range_index.mark_host_ns", "ns", Host, Lower),
    l("range_index.query_host_ns", "ns", Host, Lower),
    l("range_index.mt2_mark_host_ns", "ns", Host, Lower),
    l("range_index.lock_wait_virt_ns", "virt_ns", Virtual, Lower),
    l("range_index.depth", "count", Count, Lower),
    l("range_index.leaves", "count", Count, Lower),
    l("range_index.splits", "count", Count, Lower),
    l("range_index.merges", "count", Count, Lower),
    l("range_index.olc_retries", "count", Count, Lower),
    // worker pool and submission ring.
    l("worker.jobs", "count", Count, Lower),
    l("worker.queue_wait_virt_ns_p99", "virt_ns", Virtual, Lower),
    l("worker.total_wait_virt_ns", "virt_ns", Virtual, Lower),
    l("ring.push_drain_host_ns", "ns", Host, Lower),
    l("ring.flushes", "count", Count, Lower),
    l("ring.flush_full", "count", Count, Higher),
    l("ring.flush_deadline", "count", Count, Lower),
    l("ring.runs_piggybacked", "count", Count, Higher),
    l("ring.absorbed_reads", "count", Count, Higher),
    l("ring.demand_batch_calls", "count", Count, Lower),
    l("ring.spec_issued", "count", Count, Higher),
    l("ring.spec_useful_pct", "%", Count, Higher),
    l("ring.spec_cancelled", "count", Count, Lower),
    l("ring.timer_fires", "count", Count, Lower),
    // tenant arbiter.
    l("tenant.admit_host_ns", "ns", Host, Lower),
    l("tenant.rebalances", "count", Count, Lower),
    l("tenant.admitted_pages", "count", Count, Higher),
    l("tenant.coalesced", "count", Count, Lower),
    l("tenant.blind", "count", Count, Lower),
    l("tenant.denied_pages", "count", Count, Lower),
    l("tenant.gold_read_p99_us", "virt_us", Virtual, Lower),
    l("tenant.gold_resp_p99_us", "virt_us", Virtual, Lower),
    l("tenant.bronze_resp_p99_us", "virt_us", Virtual, Lower),
    // tier planner and tiered store.
    l("tiering.promotions_issued", "count", Count, Higher),
    l("tiering.promotion_pages", "count", Count, Higher),
    l("tiering.promotion_retries", "count", Count, Lower),
    l("tiering.promotion_give_ups", "count", Count, Lower),
    l("tiering.promoted_wasted_pct", "%", Count, Lower),
    l("simstore.tiered.local_reads", "count", Count, Higher),
    l("simstore.tiered.remote_reads", "count", Count, Lower),
    l("simstore.tiered.promoted_blocks", "count", Count, Higher),
    l("simstore.tiered.demoted_blocks", "count", Count, Lower),
    l("simstore.tiered.demoted_dirty_blocks", "count", Count, Lower),
    l("simstore.tiered.try_promote_host_ns", "ns", Host, Lower),
    // simos: syscall surface, page cache, CROSS-OS, readahead, reclaim, write-back.
    l("simos.read_host_ns_per_op", "ns", Host, Lower),
    l("simos.syscalls_per_op", "count", Count, Lower),
    l("simos.cache.hit_pct", "%", Count, Higher),
    l("simos.cache.miss_pages", "count", Count, Lower),
    l("simos.cache.lock_wait_virt_ns_p99", "virt_ns", Virtual, Lower),
    l("simos.crossos.ra_info_calls", "count", Count, Lower),
    l("simos.crossos.ra_info_host_ns", "ns", Host, Lower),
    l("simos.crossos.ra_batch_calls", "count", Count, Lower),
    l("simos.crossos.read_batch_calls", "count", Count, Lower),
    l("simos.readahead.ra_calls", "count", Count, Lower),
    l("simos.readahead.prefetched_pages", "count", Count, Lower),
    l("simos.reclaim.scan_virt_ns_p99", "virt_ns", Virtual, Lower),
    l("simos.reclaim.evicted_by_lib_pages", "count", Count, Lower),
    l("simos.reclaim.evicted_by_os_pages", "count", Count, Lower),
    l("simos.writeback.dirtied_pages", "count", Count, Lower),
    l("simos.writeback.written_back_pages", "count", Count, Lower),
    l("simos.writeback.runs_flushed", "count", Count, Lower),
    l("simos.writeback.runs_coalesced", "count", Count, Higher),
    l("simos.writeback.flush_threshold", "count", Count, Lower),
    l("simos.writeback.flush_deadline", "count", Count, Lower),
    l("simos.writeback.flush_sync", "count", Count, Lower),
    l("simos.writeback.write_amp", "ratio", Count, Lower),
    // simstore device model.
    l("simstore.device.read_requests", "count", Count, Lower),
    l("simstore.device.read_bytes", "count", Count, Lower),
    l("simstore.device.prefetch_requests", "count", Count, Lower),
    l("simstore.device.prefetch_throttled", "count", Count, Lower),
    l("simstore.device.write_requests", "count", Count, Lower),
    l("simstore.device.write_bytes", "count", Count, Lower),
    l("simstore.device.writeback_throttled", "count", Count, Lower),
    l("simstore.device.busy_virt_pct", "%", Virtual, Lower),
    l("simstore.device.charge_read_host_ns", "ns", Host, Lower),
    // substrate, telemetry, and the generator itself.
    l("simclock.fcfs_access_host_ns", "ns", Host, Lower),
    l("simclock.hist_record_host_ns", "ns", Host, Lower),
    l("telemetry.collect_json_host_us", "us", Host, Lower),
    l("telemetry.json_bytes", "count", Count, Lower),
    l("telemetry.trace_overhead_pct", "%", Host, Lower),
    l("gen.ops", "count", Count, Higher),
    l("gen.sched_lag_virt_p99_us", "virt_us", Virtual, Lower),
    l("gen.virt_resp_p50_ns", "virt_ns", Virtual, Lower),
    l("gen.virt_resp_p99_ns", "virt_ns", Virtual, Lower),
];

/// The file the driver reads, generated from the tables above.
pub fn benchmark_json() -> String {
    let mut out = String::from("{\n");
    out.push_str(
        "  \"command\": [\"cargo\", \"run\", \"--release\", \"--quiet\", \"--manifest-path\", \
         \"benchmark/Cargo.toml\", \"--\"],\n",
    );
    out.push_str("  \"paths\": [\"benchmark\"],\n");
    let _ = writeln!(out, "  \"run_seconds\": {RUN_SECONDS},");
    out.push_str("  \"workloads\": [\n");
    let kinds = Kind::all();
    for (i, k) in kinds.iter().enumerate() {
        let _ = writeln!(
            out,
            "    {{\"name\": \"{}\", \"why\": \"{}\"}}{}",
            k.name(),
            k.why(),
            if i + 1 < kinds.len() { "," } else { "" }
        );
    }
    out.push_str("  ],\n  \"end_to_end\": [\n");
    for (i, m) in END_TO_END.iter().enumerate() {
        let _ = writeln!(
            out,
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}{}",
            m.name,
            m.unit,
            m.better.label(),
            m.bound,
            if i + 1 < END_TO_END.len() { "," } else { "" }
        );
    }
    out.push_str("  ],\n  \"per_layer\": [\n");
    for (i, m) in PER_LAYER.iter().enumerate() {
        let _ = writeln!(
            out,
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}{}",
            m.name,
            m.unit,
            m.better.label(),
            if i + 1 < PER_LAYER.len() { "," } else { "" }
        );
    }
    out.push_str("  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_within_the_contract_limits() {
        let mut names: Vec<&str> = END_TO_END
            .iter()
            .map(|m| m.name)
            .chain(PER_LAYER.iter().map(|m| m.name))
            .chain(Kind::all().iter().map(|k| k.name()))
            .collect();
        for n in &names {
            assert!(n.len() <= 64 && n.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
        }
        let before = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(before, names.len());
        assert!(END_TO_END.iter().all(|m| m.bound > 0.0 && m.bound <= 0.25));
        assert!(END_TO_END.iter().any(|m| m.name == "setup_s" && m.unit == "s" && m.better == Lower));
        assert!(PER_LAYER.len() <= 128 && Kind::all().iter().all(|k| k.why().len() <= 200));
        let units = END_TO_END.iter().map(|m| m.unit).chain(PER_LAYER.iter().map(|m| m.unit));
        for u in units {
            assert!(u.len() <= 16 && u.chars().all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        }
    }

    #[test]
    fn checked_in_benchmark_json_matches_the_catalog() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let on_disk = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert_eq!(on_disk, benchmark_json(), "regenerate with --emit-benchmark-json");
    }
}
