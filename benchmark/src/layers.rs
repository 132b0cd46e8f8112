//! The traced run and the layer probes: one pass with the span recorder
//! and the runtime's own span collector on, then host-timed replays of the
//! recorded op stream into each layer's public functions.

use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use crossprefetch::{BPlusRangeIndex, LockScope, RuntimeReport, SubmissionQueue, TenantArbiter};
use predict::{AccessObservation, Engine, PredictionEngine};
use simclock::{CostModel, FcfsResource, GlobalClock, Histogram, ThreadClock};
use simos::{Fd, RaInfoRequest};
use simstore::{Device, DeviceConfig, IoPriority, TieredStore};

use crate::catalog::PER_LAYER;
use crate::gen::{Op, Stream};
use crate::measure::{sorted, Outcome};
use crate::spans::Recorder;
use crate::stats::{mean, percentile_or_lower};
use crate::workload::{fleet_tenants, run_pass, set_up, Env, Kind, Pass, TIER_LOCAL_BLOCKS};
use crate::PAGE;

/// Spans written to the trace file; totals always cover every span.
const TRACE_FILE_SPANS: usize = 50_000;
/// Ops a replay probe walks at most, so that a probe stays under a second.
const REPLAY_OPS: usize = 1_000_000;

fn ns_per(started: Instant, calls: usize) -> f64 {
    started.elapsed().as_nanos() as f64 / calls.max(1) as f64
}

fn pct(part: u64, whole: u64) -> f64 {
    if whole == 0 {
        0.0
    } else {
        part as f64 * 100.0 / whole as f64
    }
}

fn pages_of(op: &Op) -> (u64, u64) {
    let first = op.offset / PAGE;
    (first, (op.offset + op.len as u64).div_ceil(PAGE))
}

fn detached_clock() -> ThreadClock {
    ThreadClock::new(Arc::new(GlobalClock::new()))
}

// ----- probes -------------------------------------------------------------------

/// Replays the observation stream into the workload's engine kind, one
/// engine per file as the runtime keeps them. Returns host ns per
/// `observe` and per `mine` pass.
fn probe_engine(kind: Kind, stream: &Stream) -> (f64, f64) {
    let config = kind.runtime_config();
    let aggressive_ok = config.effective_features().aggressive;
    let mut engines: Vec<Engine> =
        stream.files.iter().map(|_| Engine::for_kind(config.engine, &config.engine_config())).collect();
    let ops = &stream.ops[..stream.ops.len().min(REPLAY_OPS)];
    let (mut mine_ns, mut mines) = (0u64, 0usize);
    let started = Instant::now();
    for (i, op) in ops.iter().enumerate() {
        let (first, end) = pages_of(op);
        let engine = &mut engines[op.file as usize];
        let decision = engine.observe(&AccessObservation {
            page: first,
            pages: end - first,
            aggressive_ok,
            max_prefetch_pages: config.max_prefetch_pages,
        });
        if decision.mine_due {
            let t = Instant::now();
            black_box(engine.mine());
            mine_ns += t.elapsed().as_nanos() as u64;
            mines += 1;
        }
        black_box(&decision);
        // Mining is three orders of magnitude dearer than observing: stop
        // once the probe has a second of it.
        if i % 1024 == 0 && started.elapsed().as_secs_f64() > 1.0 {
            let total = started.elapsed().as_nanos() as u64;
            return ((total - mine_ns) as f64 / (i + 1) as f64, mine_ns as f64 / mines.max(1) as f64);
        }
    }
    let total = started.elapsed().as_nanos() as u64;
    ((total - mine_ns) as f64 / ops.len().max(1) as f64, mine_ns as f64 / mines.max(1) as f64)
}

/// Replays the recorded ranges into fresh B+ indexes (one per file):
/// host ns per `mark_cached`, per `missing_in`, and per `mark_cached`
/// with the stream split over two threads.
fn probe_range_index(stream: &Stream) -> (f64, f64, f64) {
    let costs = CostModel::default();
    let ops = &stream.ops[..stream.ops.len().min(REPLAY_OPS)];
    let fresh = || -> Vec<BPlusRangeIndex> { stream.files.iter().map(|_| BPlusRangeIndex::new()).collect() };

    let trees = fresh();
    let mut clock = detached_clock();
    let started = Instant::now();
    for op in ops {
        let (first, end) = pages_of(op);
        black_box(trees[op.file as usize].mark_cached(&mut clock, &costs, LockScope::PerNode, first, end));
    }
    let mark = ns_per(started, ops.len());
    let started = Instant::now();
    for op in ops {
        let (first, end) = pages_of(op);
        black_box(trees[op.file as usize].missing_in(&mut clock, &costs, LockScope::PerNode, first, end));
    }
    let query = ns_per(started, ops.len());

    let trees = fresh();
    let global = Arc::new(GlobalClock::new());
    let started = Instant::now();
    std::thread::scope(|scope| {
        for half in 0..2 {
            let (trees, costs, global) = (&trees, &costs, Arc::clone(&global));
            scope.spawn(move || {
                let mut clock = ThreadClock::new(global);
                for op in ops.iter().skip(half).step_by(2) {
                    let (first, end) = pages_of(op);
                    black_box(trees[op.file as usize].mark_cached(
                        &mut clock,
                        costs,
                        LockScope::PerNode,
                        first,
                        end,
                    ));
                }
            });
        }
    });
    (mark, query, ns_per(started, ops.len()))
}

/// `SubmissionQueue::push` with a `drain_due` every 16 pushes, on the
/// runtime's default geometry (2 slots, 8 entries, 50 us deadline).
fn probe_ring(stream: &Stream) -> f64 {
    let queue: SubmissionQueue<(u64, u64)> = SubmissionQueue::new(2, 8, 50_000);
    let ops = &stream.ops[..stream.ops.len().min(REPLAY_OPS)];
    let started = Instant::now();
    for (i, op) in ops.iter().enumerate() {
        let now = i as u64 * 4_000;
        black_box(queue.push(i % 2, now, pages_of(op)));
        if i % 16 == 15 {
            black_box(queue.drain_due(now));
        }
    }
    ns_per(started, ops.len())
}

/// `TenantArbiter::admit` for the stream's tenants against a booted OS.
fn probe_admit(kind: Kind, stream: &Stream) -> f64 {
    let os = kind.boot();
    let arbiter = TenantArbiter::new(fleet_tenants());
    let requests = &stream.requests[..stream.requests.len().min(200_000)];
    let started = Instant::now();
    for (i, req) in requests.iter().enumerate() {
        black_box(arbiter.admit(&os, req.tenant, 8, i as u64 * 250_000));
    }
    ns_per(started, requests.len())
}

/// `TieredStore::try_promote` of 64-block runs into an empty local tier.
fn probe_promote() -> f64 {
    let store = TieredStore::new(
        Device::new(DeviceConfig::local_nvme()),
        Device::new(DeviceConfig::remote_nvmeof()),
        TIER_LOCAL_BLOCKS,
    );
    let mut clock = detached_clock();
    let calls = (TIER_LOCAL_BLOCKS / 64 / 2) as usize;
    let started = Instant::now();
    for i in 0..calls as u64 {
        black_box(store.try_promote(&mut clock, 1, i * 64, 64, &[(i * 64, 64)]).is_ok());
    }
    ns_per(started, calls)
}

/// The same op stream straight into `Os::try_read_charge` /
/// `try_write_charge`, no CROSS-LIB, then `readahead_info` queries on the
/// warmed cache. Returns host ns per op and per `readahead_info`.
fn probe_os(kind: Kind, stream: &Stream) -> (f64, f64) {
    let os = kind.boot();
    let mut clock = os.new_clock();
    let fds: Vec<Fd> = stream
        .files
        .iter()
        .map(|f| os.create_sized(&mut clock, &f.path, f.bytes).expect("fresh namespace"))
        .collect();
    let started = Instant::now();
    for op in &stream.ops {
        let fd = fds[op.file as usize];
        if op.write {
            black_box(os.try_write_charge(&mut clock, fd, op.offset, op.len as u64).is_ok());
        } else {
            black_box(os.try_read_charge(&mut clock, fd, op.offset, op.len as u64).is_ok());
        }
    }
    let per_op = ns_per(started, stream.ops.len());
    let queries = &stream.ops[..stream.ops.len().min(20_000)];
    let started = Instant::now();
    for op in queries {
        black_box(os.readahead_info(
            &mut clock,
            fds[op.file as usize],
            RaInfoRequest::query(op.offset, 2 << 20),
        ));
    }
    (per_op, ns_per(started, queries.len()))
}

fn probe_device() -> f64 {
    let device = Device::new(DeviceConfig::local_nvme());
    let mut clock = detached_clock();
    let started = Instant::now();
    for _ in 0..200_000 {
        device.charge_read(&mut clock, 4, IoPriority::Blocking);
    }
    ns_per(started, 200_000)
}

/// `FcfsResource::access` from two interleaved timelines a millisecond
/// apart, so the calendar holds gaps to fill, grown to `requests` calls.
fn probe_fcfs(requests: u64) -> f64 {
    let resource = FcfsResource::new("probe");
    let calls = requests.clamp(10_000, REPLAY_OPS as u64);
    let started = Instant::now();
    for i in 0..calls {
        black_box(resource.access((i / 2) * 4_000 + (i % 2) * 1_000_000, 1_500));
    }
    ns_per(started, calls as usize)
}

fn probe_hist(samples: &[u64]) -> f64 {
    let hist = Histogram::new();
    let started = Instant::now();
    for &v in samples {
        hist.record(v);
    }
    black_box(hist.count());
    ns_per(started, samples.len())
}

// ----- the traced run -------------------------------------------------------------

fn critical_path_json(report: &RuntimeReport) -> String {
    let rows: Vec<String> = report
        .spans_classes
        .iter()
        .map(|(class, t)| {
            format!(
                "{{\"class\":\"{class}\",\"reads\":{},\"stage_compute_ns\":{},\"lock_wait_ns\":{},\
                 \"queue_wait_ns\":{},\"device_service_ns\":{},\"retry_backoff_ns\":{}}}",
                t.reads,
                t.path.stage_compute_ns,
                t.path.lock_wait_ns,
                t.path.queue_wait_ns,
                t.path.device_service_ns,
                t.path.retry_backoff_ns
            )
        })
        .collect();
    format!("[{}]", rows.join(","))
}

/// p99 of the fleet tenants in `want`, in virtual us: of their requests'
/// response times, or (`per_op`) of their reads. 0 off the fleet.
fn tenant_p99_us(stream: &Stream, lat: &[u64], per_op: bool, want: &[u32]) -> f64 {
    if !stream.open_loop {
        return 0.0;
    }
    let mut v = Vec::new();
    for (i, r) in stream.requests.iter().enumerate().filter(|(_, r)| want.contains(&r.tenant)) {
        if per_op {
            v.extend_from_slice(&lat[r.first_op as usize..(r.first_op + r.ops) as usize]);
        } else {
            v.push(lat[i]);
        }
    }
    v.sort_unstable();
    percentile_or_lower(&v, 990).0 as f64 / 1e3
}

/// `--trace 1`: every per-layer metric of `kind`.
pub fn per_layer(kind: Kind, seed: u64, divisor: u64, out_dir: &std::path::Path) -> Outcome {
    let mut out = Outcome::default();
    let generate = move || kind.stream(seed, divisor);

    // Traced pass.
    let mut env = set_up(kind, &generate, None);
    env.rt.spans().set_enabled(true);
    let mut rec = Recorder::with_capacity(env.stream.ops.len() + env.stream.requests.len() + 16);
    let (traced, telemetry) = run_pass(&mut env, Some(&mut rec));
    out.count(&traced);
    // Promotion is fed by the warm scan, which is set-up: the placement
    // counters are read since boot, everything else over the timed phase.
    let (report, life, c) = (&telemetry.phase, &telemetry.lifetime, telemetry.counters);

    let started = Instant::now();
    let mut json_bytes = 0;
    for _ in 0..20 {
        json_bytes = black_box(RuntimeReport::collect(&env.rt).to_json()).len();
    }
    let collect_json_us = started.elapsed().as_secs_f64() * 1e6 / 20.0;

    // Close the books: pages still speculative settle as wasted.
    let before_settle = RuntimeReport::collect(&env.rt);
    env.rt.os().drop_caches(&mut env.clock);
    let settled = RuntimeReport::collect(&env.rt);
    let q = settled.prefetch_quality;
    if q.timely + q.late + q.wasted != settled.pages_initiated {
        out.findings.push(format!(
            "prefetch ledger: timely {} + late {} + wasted {} != initiated {}",
            q.timely, q.late, q.wasted, settled.pages_initiated
        ));
    }
    let wb = &settled;
    if wb.wb_dirtied_pages != wb.wb_written_back_pages + wb.wb_dropped_dirty_pages + wb.wb_dirty_pages_now {
        out.findings.push(format!(
            "dirty ledger: dirtied {} != written back {} + dropped {} + still dirty {}",
            wb.wb_dirtied_pages, wb.wb_written_back_pages, wb.wb_dropped_dirty_pages, wb.wb_dirty_pages_now
        ));
    }
    // The phase's ledger: what it classified, plus what the settle wrote off.
    let settle = settled.prefetch_quality.delta(before_settle.prefetch_quality);
    let phase_q = report.prefetch_quality;
    let classified = phase_q.timely + phase_q.late + phase_q.wasted + settle.wasted;
    let Env { stream, .. } = env;

    std::fs::create_dir_all(out_dir).expect("create the trace directory");
    let trace_path = out_dir.join(format!("trace_{}.json", kind.name()));
    std::fs::write(&trace_path, rec.to_json(kind.name(), &critical_path_json(report), TRACE_FILE_SPANS))
        .expect("write the trace file");
    let mut op_host: Vec<u64> = rec.spans().iter().filter(|s| s.name == "op").map(|s| s.host_ns()).collect();
    op_host.sort_unstable();
    for t in rec.totals() {
        out.notes.push(format!(
            "span {:<9} x{:<8} host {:>9.3} ms (self {:>9.3})  virt {:>12.3} ms (self {:>12.3})",
            t.name,
            t.count,
            t.host_ns as f64 / 1e6,
            t.host_self_ns as f64 / 1e6,
            t.virt_ns as f64 / 1e6,
            t.virt_self_ns as f64 / 1e6
        ));
    }
    out.notes.push(format!(
        "{} spans recorded, first {} written to {}; {} reads checked against seeded bytes",
        rec.spans().len(),
        rec.spans().len().min(TRACE_FILE_SPANS),
        trace_path.display(),
        traced.checked_reads
    ));
    drop(rec);

    // The same pass untraced: the overhead base, and a determinism check.
    let mut env = set_up(kind, &generate, None);
    let (plain, _) = run_pass(&mut env, None);
    drop(env);
    out.count(&plain);
    if plain.virt_ns != traced.virt_ns || plain.read_lat != traced.read_lat || plain.resp != traced.resp {
        out.findings.push("the traced pass differs from the untraced pass in virtual time".into());
    }
    let kops = |p: &Pass| p.ops as f64 / (p.host_ns as f64 / 1e9) / 1e3;
    let plain_ns_per_op = plain.host_ns as f64 / plain.ops as f64;

    // Layer probes on the recorded stream.
    let (observe_ns, mine_ns) = probe_engine(kind, &stream);
    let (mark_ns, query_ns, mt2_mark_ns) = probe_range_index(&stream);
    let (os_ns_per_op, ra_info_ns) = probe_os(kind, &stream);
    let ring_ns = probe_ring(&stream);
    let admit_ns = probe_admit(kind, &stream);
    let promote_ns = probe_promote();
    let device_ns = probe_device();
    let fcfs_ns = probe_fcfs(c.dev_read_requests);
    let hist_ns = probe_hist(&traced.read_lat);
    let observe_share = (observe_ns * report.reads as f64 + mine_ns * report.engine_mining_passes as f64)
        / plain.host_ns as f64;
    out.notes.push(format!(
        "predict host share of the untraced pass: {:.1} % ({:.0} ns x {} observes + {:.0} ns x {} mining passes)",
        observe_share * 100.0,
        observe_ns,
        report.reads,
        mine_ns,
        report.engine_mining_passes
    ));

    let reads = sorted(&traced.read_lat);
    let writes = sorted(&traced.write_lat);
    let resp = sorted(&traced.resp);
    let lag = sorted(&traced.lag);
    let classes =
        report.read_cache_hit.count + report.read_prefetch_hit.count + report.read_demand_miss.count;
    let stage =
        |name: &str| report.stage_latency.iter().find(|(n, _)| *n == name).map_or(0.0, |(_, h)| h.mean());
    let tenants =
        |f: fn(&crossprefetch::TenantReport) -> u64| report.tenants.iter().map(f).sum::<u64>() as f64;

    let f = |v: u64| v as f64;
    out.values = vec![
        ("read_path.ops", f(report.reads + report.writes)),
        ("read_path.host_ns_p50", f(percentile_or_lower(&op_host, 500).0)),
        ("read_path.host_ns_p99", f(percentile_or_lower(&op_host, 990).0)),
        ("read_path.host_over_os_ns_per_op", plain_ns_per_op - os_ns_per_op),
        ("read_path.open_host_ns", mean(&traced.open_host_ns)),
        ("read_path.virt_classify_ns_per_op", stage("classify")),
        ("read_path.virt_predict_ns_per_op", stage("predict")),
        ("read_path.virt_prefetch_plan_ns_per_op", stage("prefetch_plan")),
        ("read_path.virt_cache_probe_ns_per_op", stage("cache_probe")),
        ("read_path.virt_demand_fill_ns_per_op", stage("demand_fill")),
        ("read_path.virt_account_ns_per_op", stage("account")),
        ("read_path.cache_hit_pct", pct(report.read_cache_hit.count, classes)),
        ("read_path.prefetch_hit_pct", pct(report.read_prefetch_hit.count, classes)),
        ("read_path.demand_miss_pct", pct(report.read_demand_miss.count, classes)),
        ("read_path.errors", f(report.read_errors)),
        ("read_path.virt_read_p50_ns", f(percentile_or_lower(&reads, 500).0)),
        ("read_path.virt_read_p99_ns", f(percentile_or_lower(&reads, 990).0)),
        ("read_path.virt_read_p999_ns", f(percentile_or_lower(&reads, 999).0)),
        ("read_path.virt_write_p99_ns", f(percentile_or_lower(&writes, 990).0)),
        ("predict.observe_host_ns", observe_ns),
        ("predict.mine_host_ns", mine_ns),
        ("predict.observes", f(report.reads)),
        ("predict.mining_passes", f(report.engine_mining_passes)),
        ("predict.assoc_runs", f(report.engine_assoc_runs)),
        ("predict.duels", f(report.engine_duels)),
        ("predict.ownership_flips", f(report.engine_ownership_flips)),
        ("prefetch.pages_requested", f(c.lib_pages_requested)),
        ("prefetch.pages_initiated", f(report.pages_initiated)),
        ("prefetch.timely_pct", pct(phase_q.timely, classified)),
        ("prefetch.late_pct", pct(phase_q.late, classified)),
        ("prefetch.wasted_pct", pct(phase_q.wasted + settle.wasted, classified)),
        ("prefetch.skipped", f(report.prefetches_skipped)),
        ("prefetch.retries", f(report.prefetch_retries)),
        ("prefetch.give_ups", f(report.prefetch_give_ups)),
        ("range_index.mark_host_ns", mark_ns),
        ("range_index.query_host_ns", query_ns),
        ("range_index.mt2_mark_host_ns", mt2_mark_ns),
        ("range_index.lock_wait_virt_ns", f(report.lib_lock_wait_ns)),
        ("range_index.depth", f(report.range_index_depth)),
        ("range_index.leaves", f(report.range_index_leaves)),
        ("range_index.splits", f(report.range_index_splits)),
        ("range_index.merges", f(report.range_index_merges)),
        ("range_index.olc_retries", f(report.range_index_retries)),
        ("worker.jobs", f(c.worker_jobs)),
        ("worker.queue_wait_virt_ns_p99", f(report.worker_queue.p99())),
        ("worker.total_wait_virt_ns", f(c.worker_wait_ns)),
        ("ring.push_drain_host_ns", ring_ns),
        ("ring.flushes", f(report.batches_flushed)),
        ("ring.flush_full", f(report.batch_flush_full)),
        ("ring.flush_deadline", f(report.batch_flush_deadline)),
        ("ring.runs_piggybacked", f(report.ring_staged_runs_piggybacked)),
        ("ring.absorbed_reads", f(report.ring_absorbed_reads)),
        ("ring.demand_batch_calls", f(report.ring_demand_batch_calls)),
        ("ring.spec_issued", f(report.ring_spec_issued)),
        ("ring.spec_useful_pct", pct(report.ring_spec_absorbed, report.ring_spec_issued)),
        ("ring.spec_cancelled", f(report.ring_spec_cancelled)),
        ("ring.timer_fires", f(report.ring_timer_fires)),
        ("tenant.admit_host_ns", admit_ns),
        ("tenant.rebalances", f(report.tenant_rebalances)),
        ("tenant.admitted_pages", tenants(|t| t.admitted_pages)),
        ("tenant.coalesced", tenants(|t| t.degraded_coalesced)),
        ("tenant.blind", tenants(|t| t.degraded_blind)),
        ("tenant.denied_pages", tenants(|t| t.denied_pages)),
        ("tenant.gold_read_p99_us", tenant_p99_us(&stream, &traced.read_lat, true, &[3])),
        ("tenant.gold_resp_p99_us", tenant_p99_us(&stream, &traced.resp, false, &[3])),
        ("tenant.bronze_resp_p99_us", tenant_p99_us(&stream, &traced.resp, false, &[0, 1])),
        ("tiering.promotions_issued", f(life.promotions_issued)),
        ("tiering.promotion_pages", f(life.promotion_pages)),
        ("tiering.promotion_retries", f(life.promotion_retries)),
        ("tiering.promotion_give_ups", f(life.promotion_give_ups)),
        ("tiering.promoted_wasted_pct", pct(life.tier_promoted_wasted_blocks, life.tier_promoted_blocks)),
        ("simstore.tiered.local_reads", f(report.tier_local_reads)),
        ("simstore.tiered.remote_reads", f(report.tier_remote_reads)),
        ("simstore.tiered.promoted_blocks", f(life.tier_promoted_blocks)),
        ("simstore.tiered.demoted_blocks", f(life.tier_demoted_blocks)),
        ("simstore.tiered.demoted_dirty_blocks", f(life.tier_demoted_dirty_blocks)),
        ("simstore.tiered.try_promote_host_ns", promote_ns),
        ("simos.read_host_ns_per_op", os_ns_per_op),
        ("simos.syscalls_per_op", c.os_syscalls as f64 / traced.ops as f64),
        ("simos.cache.hit_pct", pct(c.os_hit_pages, c.os_hit_pages + c.os_miss_pages)),
        ("simos.cache.miss_pages", f(c.os_miss_pages)),
        ("simos.cache.lock_wait_virt_ns_p99", f(report.os_lock_wait.p99())),
        ("simos.crossos.ra_info_calls", f(report.ra_info_calls)),
        ("simos.crossos.ra_info_host_ns", ra_info_ns),
        ("simos.crossos.ra_batch_calls", f(report.ra_batch_calls)),
        ("simos.crossos.read_batch_calls", f(report.ring_demand_batch_calls)),
        ("simos.readahead.ra_calls", f(c.os_ra_calls)),
        ("simos.readahead.prefetched_pages", f(c.os_prefetched_pages)),
        ("simos.reclaim.scan_virt_ns_p99", f(report.os_reclaim_scan.p99())),
        ("simos.reclaim.evicted_by_lib_pages", f(report.pages_evicted_by_lib)),
        ("simos.reclaim.evicted_by_os_pages", f(report.pages_evicted_by_os)),
        ("simos.writeback.dirtied_pages", f(report.wb_dirtied_pages)),
        ("simos.writeback.written_back_pages", f(report.wb_written_back_pages)),
        ("simos.writeback.runs_flushed", f(report.wb_runs_flushed)),
        ("simos.writeback.runs_coalesced", f(report.wb_runs_coalesced)),
        ("simos.writeback.flush_threshold", f(report.wb_flush_threshold)),
        ("simos.writeback.flush_deadline", f(report.wb_flush_deadline)),
        ("simos.writeback.flush_sync", f(report.wb_flush_sync)),
        (
            "simos.writeback.write_amp",
            if c.os_bytes_written == 0 { 0.0 } else { c.dev_write_bytes as f64 / c.os_bytes_written as f64 },
        ),
        ("simstore.device.read_requests", f(c.dev_read_requests)),
        ("simstore.device.read_bytes", f(c.dev_read_bytes)),
        ("simstore.device.prefetch_requests", f(c.dev_prefetch_requests)),
        ("simstore.device.prefetch_throttled", f(c.dev_prefetch_throttled)),
        ("simstore.device.write_requests", f(c.dev_write_requests)),
        ("simstore.device.write_bytes", f(c.dev_write_bytes)),
        ("simstore.device.writeback_throttled", f(c.dev_writeback_throttled)),
        ("simstore.device.busy_virt_pct", pct(c.dev_read_busy_ns, traced.virt_ns)),
        ("simstore.device.charge_read_host_ns", device_ns),
        ("simclock.fcfs_access_host_ns", fcfs_ns),
        ("simclock.hist_record_host_ns", hist_ns),
        ("telemetry.collect_json_host_us", collect_json_us),
        ("telemetry.json_bytes", json_bytes as f64),
        ("telemetry.trace_overhead_pct", (kops(&plain) - kops(&traced)) / kops(&plain) * 100.0),
        ("gen.ops", f(traced.ops)),
        ("gen.sched_lag_virt_p99_us", percentile_or_lower(&lag, 990).0 as f64 / 1e3),
        ("gen.virt_resp_p50_ns", f(percentile_or_lower(&resp, 500).0)),
        ("gen.virt_resp_p99_ns", f(percentile_or_lower(&resp, 990).0)),
    ];
    assert!(
        out.values.iter().map(|v| v.0).eq(PER_LAYER.iter().map(|m| m.name)),
        "per-layer values must follow the catalog order"
    );
    if out.failed > 0 {
        out.findings.push(format!("{} of {} ops failed or returned wrong bytes", out.failed, out.attempted));
    }
    out
}
