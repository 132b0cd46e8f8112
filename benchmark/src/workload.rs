//! The four workloads: how each boots the stack, what set-up does, and the
//! one loop that executes a generated stream against `CpFile`.

use std::collections::HashSet;
use std::sync::Arc;
use std::time::Instant;

use crossprefetch::{
    CpFile, EngineKind, Mode, QosClass, Runtime, RuntimeConfig, RuntimeReport, TenantId, TenantSpec,
    TenantsConfig, TieringConfig,
};
use simclock::ThreadClock;
use simos::{FileSystem, FsKind, Os, OsConfig, WritebackConfig};
use simstore::{Device, DeviceConfig, TieredStore};

use crate::gen::{self, mix, Op, Stream};
use crate::spans::Recorder;
use crate::PAGE;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    SeqStream,
    KvProbe,
    FleetOpen,
    TierRw,
}

impl Kind {
    pub fn all() -> [Kind; 4] {
        [Kind::SeqStream, Kind::KvProbe, Kind::FleetOpen, Kind::TierRw]
    }

    pub fn name(self) -> &'static str {
        match self {
            Kind::SeqStream => "seq_stream",
            Kind::KvProbe => "kv_probe",
            Kind::FleetOpen => "fleet_open",
            Kind::TierRw => "tier_rw",
        }
    }

    pub fn parse(name: &str) -> Option<Kind> {
        Kind::all().into_iter().find(|k| k.name() == name)
    }

    /// One line for `BENCHMARK.json`: what the workload stresses and what
    /// it bypasses.
    pub fn why(self) -> &'static str {
        match self {
            Kind::SeqStream => {
                "closed loop, 16 KiB sequential reads, data 2x cache: over 99 % prefetch hits, so \
                 read fast path, range index, readahead_info and device bandwidth work; engine, \
                 ring, arbiter, tiering idle"
            }
            Kind::KvProbe => {
                "closed loop, zipfian index+record probes, data 9x cache, adaptive engine and ring \
                 on: mining and dueling dominate host time and decide misses; sequential \
                 readahead idle"
            }
            Kind::FleetOpen => {
                "open loop at 4000 req/s, four tenants, data 20x cache, arbiter and ring on: the \
                 only workload with queueing, admission and reclaim pressure; tail moves before \
                 throughput"
            }
            Kind::TierRw => {
                "closed loop, 75 % 32 KiB reads and 25 % 16 KiB writes with real bytes on a tiered \
                 store with deferred write-back: dirty tracking, promotion, demotion; every read \
                 checked against an oracle"
            }
        }
    }

    pub fn memory_mb(self) -> u64 {
        match self {
            Kind::SeqStream => 256,
            Kind::KvProbe | Kind::TierRw => 64,
            Kind::FleetOpen => 16,
        }
    }

    /// The mechanism configuration of the workload.
    pub fn runtime_config(self) -> RuntimeConfig {
        match self {
            Kind::SeqStream => RuntimeConfig::new(Mode::PredictOpt),
            Kind::KvProbe => {
                let mut c = RuntimeConfig::new(Mode::Predict);
                c.engine = EngineKind::Adaptive;
                c.ring_submit = true;
                c
            }
            Kind::FleetOpen => {
                let mut c = RuntimeConfig::new(Mode::PredictOpt);
                c.tenants = Some(fleet_tenants());
                c.ring_submit = true;
                c
            }
            Kind::TierRw => {
                let mut c = RuntimeConfig::new(Mode::Predict);
                c.tiering = Some(TieringConfig::new());
                c
            }
        }
    }

    /// A fresh simulated machine for the workload.
    pub fn boot(self) -> Arc<Os> {
        let mut config = OsConfig::with_memory_mb(self.memory_mb());
        let fs = FileSystem::new(FsKind::Ext4Like);
        match self {
            Kind::TierRw => {
                config.writeback = Some(WritebackConfig::default());
                let store = TieredStore::new(
                    Device::new(DeviceConfig::local_nvme()),
                    Device::new(DeviceConfig::remote_nvmeof()),
                    TIER_LOCAL_BLOCKS,
                );
                Os::new_tiered(config, store, fs)
            }
            _ => Os::new(config, Device::new(DeviceConfig::local_nvme()), fs),
        }
    }

    /// The primary op stream (`divisor` 10 under `--quick`).
    pub fn stream(self, seed: u64, divisor: u64) -> Stream {
        match self {
            Kind::SeqStream => gen::seq_stream(seed, gen::SEQ_READS / divisor),
            Kind::KvProbe => gen::kv_probe(seed, gen::KV_PROBES / divisor),
            Kind::FleetOpen => gen::fleet_open(seed, gen::FLEET_REQUESTS / divisor, gen::FLEET_RATE),
            Kind::TierRw => gen::tier_rw(seed, gen::TIER_OPS / divisor),
        }
    }
}

/// Local tier of `tier_rw`: 128 MiB against the 288 MiB dataset.
pub const TIER_LOCAL_BLOCKS: u64 = 32_768;

pub fn fleet_tenants() -> TenantsConfig {
    let qos = [QosClass::Bronze, QosClass::Bronze, QosClass::Silver, QosClass::Gold];
    TenantsConfig::new(
        gen::FLEET_TENANTS.iter().zip(qos).map(|(&(name, _, _), q)| TenantSpec::new(name, q)).collect(),
    )
}

// ----- content and the byte oracle ---------------------------------------------

/// Expected bytes of `page` of `file` after `version` writes.
pub fn fill_page(out: &mut [u8], file: u32, page: u64, version: u32) {
    let base = mix(((file as u64) << 56) ^ (page << 24) ^ version as u64);
    for (i, word) in out.chunks_exact_mut(8).enumerate() {
        word.copy_from_slice(&base.wrapping_add(i as u64 * 0x9E37_79B9_7F4A_7C15).to_le_bytes());
    }
}

fn fill_range(out: &mut [u8], file: u32, first_page: u64, version_of: impl Fn(u64) -> u32) {
    for (i, chunk) in out.chunks_exact_mut(PAGE as usize).enumerate() {
        let page = first_page + i as u64;
        fill_page(chunk, file, page, version_of(page));
    }
}

/// Read-only workloads check a hashed 1-in-64 sample of read positions in
/// the traced pass; set-up seeds exactly those positions.
pub fn sampled(op: &Op) -> bool {
    !op.write && mix(((op.file as u64) << 56) ^ (op.offset / op.len as u64)).is_multiple_of(64)
}

// ----- set-up -------------------------------------------------------------------

/// A booted stack with the dataset in place, ready for the timed phase.
pub struct Env {
    pub kind: Kind,
    pub stream: Stream,
    pub rt: Runtime,
    pub clock: ThreadClock,
    /// `tier_rw`: writes applied so far to each page of the file.
    versions: Vec<u32>,
    /// Host seconds the whole of set-up took, stream generation included.
    pub setup_s: f64,
}

/// Op-stream generation, boot, dataset, content seeding and warm scan.
/// `mode` overrides the workload's mechanism (the `OsOnly` baseline) on
/// the same OS config.
pub fn set_up(kind: Kind, generate: &dyn Fn() -> Stream, mode: Option<Mode>) -> Env {
    let started = Instant::now();
    let stream = generate();
    let os = kind.boot();
    let mut config = kind.runtime_config();
    if let Some(mode) = mode {
        config.mode = mode;
    }
    let rt = Runtime::new(Arc::clone(&os), config);
    let mut clock = rt.new_clock();
    let inos: Vec<_> = stream
        .files
        .iter()
        .map(|f| os.fs().create_sized(&f.path, f.bytes).expect("fresh namespace"))
        .collect();

    let mut versions = Vec::new();
    let mut page_buf = vec![0u8; PAGE as usize];
    if kind == Kind::TierRw {
        let pages = stream.files[0].bytes / PAGE;
        for page in 0..pages {
            fill_page(&mut page_buf, 0, page, 0);
            os.store_content(inos[0], page * PAGE, &page_buf);
        }
        versions = vec![0u32; pages as usize];
        // One sequential scan: the stream the tier planner promotes from.
        let file = rt.open(&mut clock, &stream.files[0].path).expect("created above");
        for rec in 0..gen::TIER_RECORDS {
            file.read_charge(&mut clock, rec * gen::TIER_RECORD_BYTES, gen::TIER_RECORD_BYTES);
        }
        rt.flush_prefetch_batches(&mut clock);
    } else {
        let mut seeded = HashSet::new();
        for op in stream.ops.iter().filter(|op| sampled(op)) {
            if seeded.insert((op.file, op.offset)) {
                for page in op.offset / PAGE..(op.offset + op.len as u64) / PAGE {
                    fill_page(&mut page_buf, op.file, page, 0);
                    os.store_content(inos[op.file as usize], page * PAGE, &page_buf);
                }
            }
        }
    }
    Env { kind, stream, rt, clock, versions, setup_s: started.elapsed().as_secs_f64() }
}

// ----- the timed phase ----------------------------------------------------------

/// What one pass over a stream measured. Latencies are virtual ns from
/// driver clock deltas, in issue order.
#[derive(Debug, Default)]
pub struct Pass {
    pub host_ns: u64,
    pub virt_ns: u64,
    pub ops: u64,
    pub bytes: u64,
    pub failed: u64,
    pub checked_reads: u64,
    pub read_lat: Vec<u64>,
    pub write_lat: Vec<u64>,
    /// Completion minus scheduled arrival (closed loop: minus start).
    pub resp: Vec<u64>,
    /// Start minus scheduled arrival (open loop only).
    pub lag: Vec<u64>,
    /// Host ns of the `Runtime::open*` calls the pass made.
    pub open_host_ns: Vec<u64>,
}

/// What the stack's own counters say about one pass.
pub struct Telemetry {
    /// `RuntimeReport` over the timed phase (end minus start).
    pub phase: RuntimeReport,
    /// `RuntimeReport` since boot, set-up included.
    pub lifetime: RuntimeReport,
    /// Over the timed phase.
    pub counters: Counters,
}

/// Counters the stack exposes but `RuntimeReport` does not carry. Device
/// counters are summed over both tiers of a tiered store;
/// `dev_read_busy_ns` is the virtual time the busiest tier's read
/// bandwidth server was occupied.
macro_rules! counters {
    ($($field:ident),* $(,)?) => {
        #[derive(Debug, Clone, Copy, Default)]
        pub struct Counters { $(pub $field: u64,)* }

        impl Counters {
            fn minus(&self, earlier: &Counters) -> Counters {
                Counters { $($field: self.$field - earlier.$field,)* }
            }
        }
    };
}

counters!(
    os_syscalls,
    os_hit_pages,
    os_miss_pages,
    os_prefetched_pages,
    os_ra_calls,
    os_bytes_written,
    lib_pages_requested,
    worker_jobs,
    worker_wait_ns,
    dev_read_requests,
    dev_read_bytes,
    dev_prefetch_requests,
    dev_prefetch_throttled,
    dev_write_requests,
    dev_write_bytes,
    dev_writeback_throttled,
    dev_read_busy_ns,
);

impl Counters {
    fn collect(rt: &Runtime) -> Self {
        let os = rt.os();
        let (o, l, w) = (os.stats(), rt.stats(), rt.workers());
        let mut c = Counters {
            os_syscalls: o.syscalls.get(),
            os_hit_pages: o.hit_pages.get(),
            os_miss_pages: o.miss_pages.get(),
            os_prefetched_pages: o.prefetched_pages.get(),
            os_ra_calls: o.ra_calls.get(),
            os_bytes_written: o.bytes_written.get(),
            lib_pages_requested: l.pages_requested.get(),
            worker_jobs: w.jobs(),
            worker_wait_ns: w.total_wait_ns(),
            ..Counters::default()
        };
        let devices = match os.tiered() {
            Some(t) => vec![Arc::clone(t.local()), Arc::clone(t.remote())],
            None => vec![Arc::clone(os.device())],
        };
        for d in devices {
            let s = d.stats();
            c.dev_read_requests += s.read_requests.get();
            c.dev_read_bytes += s.read_bytes.get();
            c.dev_prefetch_requests += s.prefetch_requests.get();
            c.dev_prefetch_throttled += s.prefetch_throttled.get();
            c.dev_write_requests += s.write_requests.get();
            c.dev_write_bytes += s.write_bytes.get();
            c.dev_writeback_throttled += s.writeback_throttled.get();
            let busy = simclock::transfer_ns(s.read_bytes.get(), d.config().read_bw);
            c.dev_read_busy_ns = c.dev_read_busy_ns.max(busy);
        }
        c
    }
}

/// Executes `stream` from one driver thread. With a recorder the pass is
/// the traced one: spans around every request and `CpFile` call, and the
/// sampled reads fetch bytes and are compared with the seeded content.
pub fn run_pass(env: &mut Env, mut rec: Option<&mut Recorder>) -> (Pass, Telemetry) {
    let Env { kind, stream, rt, clock, versions, .. } = env;
    let stream = &*stream;
    let full_oracle = *kind == Kind::TierRw;
    let mut pass = Pass {
        read_lat: Vec::with_capacity(stream.ops.len()),
        resp: Vec::with_capacity(stream.requests.len()),
        lag: Vec::with_capacity(if stream.open_loop { stream.requests.len() } else { 0 }),
        ..Pass::default()
    };
    let (report_before, counters_before) = (RuntimeReport::collect(rt), Counters::collect(rt));
    let mut handles: Vec<Option<CpFile>> = stream.files.iter().map(|_| None).collect();
    let mut buf = vec![0u8; gen::TIER_RECORD_BYTES as usize];

    let host_start = Instant::now();
    let base = clock.now();
    let root = rec.as_deref_mut().map(|r| r.begin("workload", base));
    for req in &stream.requests {
        let arrival = if stream.open_loop {
            let arrival = base + req.arrival_ns;
            if arrival > clock.now() {
                clock.advance_to(arrival);
            }
            pass.lag.push(clock.now() - arrival);
            arrival
        } else {
            clock.now()
        };
        let req_span = rec.as_deref_mut().map(|r| r.begin("request", clock.now()));
        let first = req.first_op as usize;
        for op in &stream.ops[first..first + req.ops as usize] {
            let slot = &mut handles[op.file as usize];
            if slot.is_none() {
                let spec = &stream.files[op.file as usize];
                let span = rec.as_deref_mut().map(|r| r.begin("open", clock.now()));
                let t = Instant::now();
                let file = match spec.tenant {
                    Some(t) => rt.open_for_tenant(clock, &spec.path, TenantId(t)),
                    None => rt.open(clock, &spec.path),
                };
                pass.open_host_ns.push(t.elapsed().as_nanos() as u64);
                if let (Some(r), Some(id)) = (rec.as_deref_mut(), span) {
                    r.end(id, clock.now());
                }
                *slot = Some(file.expect("set-up created the file"));
            }
            let file = slot.as_ref().expect("opened above");
            let len = op.len as u64;
            let first_page = op.offset / PAGE;
            let span = rec.as_deref_mut().map(|r| r.begin("op", clock.now()));
            let before = clock.now();
            let ok = if op.write {
                let data = &mut buf[..op.len as usize];
                fill_range(data, op.file, first_page, |p| versions[p as usize] + 1);
                let ok = file.try_write(clock, op.offset, data) == Ok(len);
                if ok {
                    for p in first_page..first_page + len / PAGE {
                        versions[p as usize] += 1;
                    }
                }
                pass.write_lat.push(clock.now() - before);
                ok
            } else {
                let ok = if full_oracle || (rec.is_some() && sampled(op)) {
                    pass.checked_reads += 1;
                    let got = file.try_read(clock, op.offset, len);
                    let want = &mut buf[..op.len as usize];
                    fill_range(want, op.file, first_page, |p| versions.get(p as usize).copied().unwrap_or(0));
                    got.is_ok_and(|bytes| bytes == *want)
                } else {
                    file.read_charge(clock, op.offset, len).bytes == len
                };
                pass.read_lat.push(clock.now() - before);
                ok
            };
            if let (Some(r), Some(id)) = (rec.as_deref_mut(), span) {
                r.end(id, clock.now());
            }
            pass.failed += !ok as u64;
            pass.bytes += len;
        }
        if let (Some(r), Some(id)) = (rec.as_deref_mut(), req_span) {
            r.end(id, clock.now());
        }
        pass.resp.push(clock.now() - arrival);
    }
    if full_oracle {
        for file in handles.iter().flatten() {
            file.fsync(clock);
        }
    }
    rt.flush_prefetch_batches(clock);
    if let (Some(r), Some(id)) = (rec, root) {
        r.end(id, clock.now());
    }
    pass.virt_ns = (clock.now() - base).max(1);
    pass.host_ns = host_start.elapsed().as_nanos() as u64;
    pass.ops = stream.ops.len() as u64;
    let lifetime = RuntimeReport::collect(rt);
    let telemetry = Telemetry {
        phase: lifetime.delta(&report_before),
        lifetime,
        counters: Counters::collect(rt).minus(&counters_before),
    };
    (pass, telemetry)
}
