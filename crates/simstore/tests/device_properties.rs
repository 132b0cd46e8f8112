//! Property tests for the device model: capacity conservation, priority
//! semantics, and content integrity under arbitrary interleavings.

use proptest::prelude::*;
use simclock::{GlobalClock, ThreadClock};
use simstore::{Device, DeviceConfig, IoPriority, Tier, TieredStore, BLOCK_SIZE};
use std::sync::Arc;

fn clock() -> ThreadClock {
    ThreadClock::new(Arc::new(GlobalClock::new()))
}

proptest! {
    #[test]
    fn tier_runs_match_a_per_block_placement_scan(
        ops in prop::collection::vec((0u8..4, 0u64..640, 1u64..200), 1..40)
    ) {
        // Random promote / read / write / demote sequences over ten
        // placement words; after each, `split_runs` must equal a
        // block-by-block `tier_of` scan merged into maximal runs, and the
        // resident count must equal the blocks that scan finds local.
        let store = TieredStore::new(
            Device::new(DeviceConfig::local_nvme()),
            Device::new(DeviceConfig::remote_nvmeof()),
            512,
        );
        let mut c = clock();
        let identity = |_file: u64, lblock: u64| lblock;
        for (kind, lstart, count) in ops {
            match kind {
                0 => {
                    for (s, n) in store.remote_runs(7, lstart, count) {
                        if store.ensure_room(&mut c, n, &identity) {
                            store.try_promote(&mut c, 7, s, n, &[(s, n)]).unwrap();
                        }
                    }
                }
                1 => store.note_read(7, lstart, count, c.now()),
                2 => store.note_range_written(7, lstart, count, c.now(), &identity),
                _ => {
                    store.demote_cold(&mut c, count, &identity);
                }
            }
            for (qs, qn) in [(lstart, count), (0, 900)] {
                let mut expect: Vec<(u64, u64, Tier)> = Vec::new();
                for lblock in qs..qs + qn {
                    let tier = store.tier_of(7, lblock);
                    match expect.last_mut() {
                        Some((_, n, t)) if *t == tier => *n += 1,
                        _ => expect.push((lblock, 1, tier)),
                    }
                }
                prop_assert_eq!(store.split_runs(7, qs, qn), expect);
            }
            let local = (0..900).filter(|&b| store.tier_of(7, b) == Tier::Local).count();
            prop_assert_eq!(store.local_resident_blocks(), local as u64);
            prop_assert!(store.local_resident_blocks() <= store.local_capacity_blocks());
        }
    }

    #[test]
    fn read_time_never_beats_bandwidth(counts in prop::collection::vec(1u64..512, 1..20)) {
        let device = Device::new(DeviceConfig::local_nvme());
        let mut c = clock();
        let total_blocks: u64 = counts.iter().sum();
        for count in counts {
            device.charge_read(&mut c, count, IoPriority::Blocking);
        }
        let floor = simclock::transfer_ns(total_blocks * BLOCK_SIZE as u64, 1.4e9);
        prop_assert!(
            c.now() >= floor,
            "elapsed {} cannot beat the bandwidth floor {}",
            c.now(),
            floor
        );
    }

    #[test]
    fn mixed_priority_accounting_holds(ops in prop::collection::vec((1u64..256, prop::bool::ANY), 1..30)) {
        // Priority queuing intentionally lets demand I/O overlap a queued
        // prefetch stream in time (NVMe-style), so the *sum* of both
        // classes is not serialized on one horizon from the demand side.
        // What must hold: per-class bandwidth floors and exact byte
        // accounting.
        let device = Device::new(DeviceConfig::local_nvme());
        let global = Arc::new(GlobalClock::new());
        let mut blocking_clock = ThreadClock::new(Arc::clone(&global));
        let mut prefetch_clock = ThreadClock::new(global);
        let mut total = 0u64;
        let mut blocking_blocks = 0u64;
        let mut prefetch_blocks = 0u64;
        for (count, is_prefetch) in ops {
            total += count;
            if is_prefetch {
                prefetch_blocks += count;
                device.charge_read(&mut prefetch_clock, count, IoPriority::Prefetch);
            } else {
                blocking_blocks += count;
                device.charge_read(&mut blocking_clock, count, IoPriority::Blocking);
            }
        }
        let floor = |blocks: u64| simclock::transfer_ns(blocks * BLOCK_SIZE as u64, 1.4e9);
        prop_assert!(blocking_clock.now() >= floor(blocking_blocks));
        prop_assert!(prefetch_clock.now() >= floor(prefetch_blocks));
        prop_assert_eq!(device.stats().read_bytes.get(), total * BLOCK_SIZE as u64);
    }

    #[test]
    fn content_round_trip_arbitrary_blocks(writes in prop::collection::vec((0u64..64, any::<u8>()), 1..40)) {
        let device = Device::new(DeviceConfig::local_nvme());
        let mut c = clock();
        let mut expected = std::collections::HashMap::new();
        for (block, fill) in writes {
            device.write_blocks(&mut c, block, &[vec![fill; BLOCK_SIZE]], IoPriority::Blocking);
            expected.insert(block, fill);
        }
        for (block, fill) in expected {
            let data = device.read_blocks(&mut c, block, 1, IoPriority::Blocking);
            prop_assert!(data[0].iter().all(|&b| b == fill));
        }
    }

    #[test]
    fn partial_writes_compose(parts in prop::collection::vec((0usize..4000, prop::collection::vec(any::<u8>(), 1..96)), 1..24)) {
        let device = Device::new(DeviceConfig::local_nvme());
        let mut shadow = simstore::synthetic_block(7);
        for (offset, data) in &parts {
            let offset = (*offset).min(BLOCK_SIZE - data.len());
            device.store_partial(7, offset, data);
            shadow[offset..offset + data.len()].copy_from_slice(data);
        }
        prop_assert_eq!(device.store().read_block_vec(7), shadow);
    }
}

/// Every `DeviceStats` counter, in declaration order.
fn stat_values(device: &Device) -> [u64; 11] {
    let s = device.stats();
    [
        s.read_requests.get(),
        s.write_requests.get(),
        s.read_bytes.get(),
        s.write_bytes.get(),
        s.prefetch_requests.get(),
        s.prefetch_throttled.get(),
        s.injected_read_faults.get(),
        s.vectored_submissions.get(),
        s.latency_spike_requests.get(),
        s.writeback_requests.get(),
        s.writeback_throttled.get(),
    ]
}

fn priority(is_prefetch: bool) -> IoPriority {
    if is_prefetch {
        IoPriority::Prefetch
    } else {
        IoPriority::Blocking
    }
}

proptest! {
    /// `charge_read(n)` is the one-run case of the vectored submission:
    /// twin devices end on identical clocks with identical counters,
    /// except that only the vectored twin counts `vectored_submissions`.
    /// Counts above 512 blocks cross the 2 MiB request split; enough
    /// prefetch traffic crosses the congestion window.
    #[test]
    fn single_run_read_equals_one_run_vector(ops in prop::collection::vec((1u64..1500, prop::bool::ANY, 0u64..300_000), 1..40)) {
        let plain = Device::new(DeviceConfig::local_nvme());
        let vectored = Device::new(DeviceConfig::local_nvme());
        let mut a = clock();
        let mut b = clock();
        let submissions = ops.len() as u64;
        for (count, is_prefetch, think_ns) in ops {
            plain.charge_read(&mut a, count, priority(is_prefetch));
            vectored.try_charge_read_vectored(&mut b, &[count], priority(is_prefetch)).unwrap();
            prop_assert_eq!(a.now(), b.now());
            a.advance(think_ns);
            b.advance(think_ns);
        }
        let mut expected = stat_values(&plain);
        prop_assert_eq!(expected[7], 0);
        expected[7] = submissions;
        prop_assert_eq!(stat_values(&vectored), expected);
    }

    /// A write is a read on its own channel: with the write channel given
    /// the read channel's bandwidth and fixed latency, a write stream
    /// leaves the clock and the write-side counters exactly where the
    /// same read stream leaves the read-side ones, and neither touches
    /// the other channel.
    #[test]
    fn write_mirrors_read_on_its_own_channel(ops in prop::collection::vec((1u64..1500, prop::bool::ANY, 0u64..300_000), 1..40)) {
        let mut config = DeviceConfig::local_nvme();
        config.write_bw = config.read_bw;
        config.write_latency_ns = config.read_latency_ns;
        let reader = Device::new(config.clone());
        let writer = Device::new(config);
        let mut a = clock();
        let mut b = clock();
        for (count, is_prefetch, think_ns) in ops {
            reader.charge_read(&mut a, count, priority(is_prefetch));
            writer.charge_write(&mut b, count, priority(is_prefetch));
            prop_assert_eq!(a.now(), b.now());
            a.advance(think_ns);
            b.advance(think_ns);
        }
        let r = stat_values(&reader);
        let w = stat_values(&writer);
        // (requests, bytes, background requests, background stalls)
        prop_assert_eq!([w[1], w[3], w[9], w[10]], [r[0], r[2], r[4], r[5]]);
        prop_assert_eq!([w[0], w[2], w[4], w[5]], [0, 0, 0, 0]);
        prop_assert_eq!([r[1], r[3], r[9], r[10]], [0, 0, 0, 0]);
    }
}

/// The zero-count edge cases differ per entry point and the benchmark
/// compares these counters, so they are pinned: a zero-block prefetch read
/// still counts as a prefetch request (and nothing else); a zero-block
/// write and an all-zero or empty vector touch nothing at all.
#[test]
fn zero_count_edge_cases_are_pinned() {
    let device = Device::new(DeviceConfig::local_nvme());
    let mut c = clock();
    device.charge_read(&mut c, 0, IoPriority::Prefetch);
    let mut expected = [0u64; 11];
    expected[4] = 1; // prefetch_requests
    assert_eq!(stat_values(&device), expected);
    device.charge_read(&mut c, 0, IoPriority::Blocking);
    device.charge_write(&mut c, 0, IoPriority::Prefetch);
    device.charge_write(&mut c, 0, IoPriority::Blocking);
    for runs in [&[][..], &[0, 0][..]] {
        for pri in [IoPriority::Prefetch, IoPriority::Blocking] {
            device.try_charge_read_vectored(&mut c, runs, pri).unwrap();
        }
    }
    assert_eq!(stat_values(&device), expected);
    assert_eq!(c.now(), 0);
}

#[test]
fn blocking_latency_unaffected_by_prefetch_backlog() {
    let device = Device::new(DeviceConfig::local_nvme());
    let global = Arc::new(GlobalClock::new());
    // Queue a large prefetch stream.
    let mut stream = ThreadClock::detached_at(0);
    device.charge_read(&mut stream, 100_000, IoPriority::Prefetch); // 400 MB

    // A demand read right after still completes at demand latency.
    let mut reader = ThreadClock::new(global);
    device.charge_read(&mut reader, 4, IoPriority::Blocking);
    let latency = reader.now();
    assert!(
        latency < 200_000,
        "demand read must not queue behind the stream, took {latency}ns"
    );
}
