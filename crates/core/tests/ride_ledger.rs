//! The ring's ride ledger, read after every access: each run the ring
//! pre-issued with a miss is absorbed by a continuation read with no
//! crossing, cancelled by a jump away, or still pending on its descriptor,
//! so `ring_spec_issued == ring_spec_absorbed + ring_spec_cancelled +
//! pending`. A pre-issue that replaced a pending run without counting it
//! would break the balance at the access that made it. Under faults a
//! ride whose crossing faulted leaves the ring for a worker's retry
//! without becoming pending, and is booked cancelled there.

use crossprefetch::{
    CpFile, Device, DeviceConfig, FaultPlan, FileSystem, FsKind, Mode, Os, OsConfig, Runtime,
    RuntimeConfig, PAGE_SIZE,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const KEYS: u64 = 2048;
const RECORD_PAGES: u64 = 8;
const PROBES: u64 = 3000;

/// Asserts the ledger balances with `file`'s pending run as the last term,
/// after the read of `page` in probe `n`.
fn assert_balanced(runtime: &Runtime, file: &CpFile, (n, page): (u64, u64)) {
    let stats = runtime.stats();
    let issued = stats.ring_spec_issued.get();
    let (absorbed, cancelled) = (
        stats.ring_spec_absorbed.get(),
        stats.ring_spec_cancelled.get(),
    );
    let pending = file.rides_pending();
    assert_eq!(
        issued,
        absorbed + cancelled + pending,
        "probe {n}, page {page}: issued {issued}, absorbed {absorbed}, \
         cancelled {cancelled}, pending {pending}"
    );
}

/// A kv_probe-shaped stream on a 9x-cache file with rides on: a skewed
/// key's index page, then its record page by page; one probe in eight
/// leaves its record after the first page, so a jump cancels what the
/// ring pre-issued. Returns the ledger's (issued, absorbed, cancelled).
fn probe() -> (u64, u64, u64) {
    let os = Os::new(
        OsConfig::with_memory_mb(8),
        Device::new(DeviceConfig::local_nvme()),
        FileSystem::new(FsKind::Ext4Like),
    );
    let mut config = RuntimeConfig::new(Mode::Predict);
    config.ring_submit = true;
    let runtime = Runtime::new(os, config);
    let mut clock = runtime.new_clock();
    let bytes = (KEYS + KEYS * RECORD_PAGES) * PAGE_SIZE;
    let file = runtime.create_sized(&mut clock, "/kv", bytes).unwrap();
    let mut rng = StdRng::seed_from_u64(42);
    for n in 0..PROBES {
        let u: f64 = rng.gen();
        let key = ((u * u * u) * KEYS as f64) as u64;
        file.read_charge(&mut clock, key * PAGE_SIZE, PAGE_SIZE);
        assert_balanced(&runtime, &file, (n, key));
        let record = KEYS + (key * 7919 % KEYS) * RECORD_PAGES;
        let pages = if rng.gen_range(0..8u64) == 0 {
            1
        } else {
            RECORD_PAGES
        };
        for page in record..record + pages {
            file.read_charge(&mut clock, page * PAGE_SIZE, PAGE_SIZE);
            assert_balanced(&runtime, &file, (n, page));
        }
    }
    let stats = runtime.stats();
    (
        stats.ring_spec_issued.get(),
        stats.ring_spec_absorbed.get(),
        stats.ring_spec_cancelled.get(),
    )
}

#[test]
fn every_preissued_run_is_absorbed_cancelled_or_pending() {
    let (issued, absorbed, cancelled) = probe();
    assert!(issued > 0, "no run rode a miss");
    assert!(absorbed > 0, "no ride was absorbed");
    assert!(cancelled > 0, "no ride was cancelled");
}

/// The faulted burst stream: bursts of four 16 KiB reads at scattered
/// 128 KiB-aligned bases of a 128 MiB file, with a demand-class EIO drawn
/// at 0.3, so some riders fault where the miss they rode with did not.
/// Every surfaced EIO is retried by the application. The ledger balances
/// after every read, faulted ones included, and faulted rides are booked.
#[test]
fn a_faulted_ride_is_booked_cancelled_where_it_leaves_the_ring() {
    let plan = FaultPlan::seeded(11).with_demand_eio(0.3);
    let os = Os::new(
        OsConfig::with_memory_mb(64),
        Device::with_fault_plan(DeviceConfig::local_nvme(), plan),
        FileSystem::new(FsKind::Ext4Like),
    );
    let mut config = RuntimeConfig::new(Mode::Predict);
    config.ring_submit = true;
    let runtime = Runtime::new(os, config);
    let mut clock = runtime.new_clock();
    let file = runtime
        .create_sized(&mut clock, "/data/bursts.bin", 128 << 20)
        .unwrap();
    for n in 0..200u64 {
        let base = (n * 7919 % 1000) * (128 << 10);
        for r in 0..4 {
            let offset = base + r * 16_384;
            while file.try_read_charge(&mut clock, offset, 16_384).is_err() {
                assert_balanced(&runtime, &file, (n, offset / PAGE_SIZE));
            }
            assert_balanced(&runtime, &file, (n, offset / PAGE_SIZE));
        }
    }
    let stats = runtime.stats();
    assert!(stats.prefetch_retries.get() > 0, "no rider faulted");
    assert!(
        stats.ring_spec_cancelled.get() > 0,
        "no faulted ride was booked"
    );
    assert!(stats.ring_spec_absorbed.get() > 0, "no ride was absorbed");
}
