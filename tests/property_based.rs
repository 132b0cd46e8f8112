//! Property-based tests over the core data structures and invariants.

use crossprefetch::{BPlusRangeIndex, Direction, LockScope, Mode, Predictor, RangeTree, Runtime};
use proptest::prelude::*;
use simclock::{CostModel, FcfsResource, GlobalClock, ThreadClock};
use simos::{Device, DeviceConfig, FileSystem, FsKind, Os, OsConfig};
use std::collections::HashSet;
use std::sync::Arc;

fn clock() -> ThreadClock {
    ThreadClock::new(Arc::new(GlobalClock::new()))
}

proptest! {
    // ---- virtual-time resources ------------------------------------------

    #[test]
    fn fcfs_never_overlaps_service(requests in prop::collection::vec((0u64..10_000, 1u64..500), 1..64)) {
        let server = FcfsResource::new("prop");
        let mut intervals: Vec<(u64, u64)> = Vec::new();
        for (now, service) in requests {
            let access = server.access(now, service);
            prop_assert!(access.start_ns >= now);
            prop_assert_eq!(access.end_ns - access.start_ns, service);
            intervals.push((access.start_ns, access.end_ns));
        }
        intervals.sort();
        for pair in intervals.windows(2) {
            prop_assert!(pair[0].1 <= pair[1].0, "service intervals overlap");
        }
    }

    #[test]
    fn fcfs_busy_equals_total_service(requests in prop::collection::vec((0u64..10_000, 1u64..500), 1..64)) {
        let server = FcfsResource::new("prop");
        let total: u64 = requests.iter().map(|r| r.1).sum();
        for (now, service) in requests {
            server.access(now, service);
        }
        prop_assert_eq!(server.busy_ns(), total);
    }

    // ---- predictor ---------------------------------------------------------

    #[test]
    fn predictor_counter_stays_in_range(accesses in prop::collection::vec((0u64..100_000, 1u64..32), 1..200), bits in 1u32..=5) {
        let mut p = Predictor::new(bits);
        for (page, count) in accesses {
            let pred = p.on_access(page, count, true, 16384);
            prop_assert!(p.counter() <= p.max_count());
            prop_assert!(pred.prefetch_pages <= 16384);
        }
    }

    #[test]
    fn predictor_prefetch_respects_cap(accesses in prop::collection::vec(0u64..1_000, 1..100), cap in 1u64..64) {
        let mut p = Predictor::new(3);
        for page in accesses {
            let pred = p.on_access(page, 4, true, cap);
            prop_assert!(pred.prefetch_pages <= cap);
        }
    }

    #[test]
    fn backward_run_reaching_page_zero_stays_backward(stride in 4u64..32, steps in 2u64..8, extra in 1u64..=32) {
        // A descending scan whose final access lands on page 0. The old
        // direction vote subtracted `count` from the previous *end* and
        // clamped at zero, so the head-of-file access looked like a
        // reversal and flipped the stream to Forward.
        let mut p = Predictor::new(3);
        for i in (1..=steps).rev() {
            p.on_access(i * stride, stride, false, 16_384);
        }
        let pred = p.on_access(0, stride + extra, false, 16_384);
        prop_assert_eq!(pred.direction, Direction::Backward);
    }

    #[test]
    fn rereads_at_file_head_stay_forward(count in 1u64..=32, reps in 2u64..16) {
        // Re-reading the same head-of-file range is not a backward scan.
        let mut p = Predictor::new(3);
        let mut pred = p.on_access(0, count, false, 16_384);
        for _ in 0..reps {
            pred = p.on_access(0, count, false, 16_384);
        }
        prop_assert_eq!(pred.direction, Direction::Forward);
    }

    // ---- range tree ----------------------------------------------------------

    #[test]
    fn range_tree_matches_reference_set(ops in prop::collection::vec((0u64..4096, 1u64..128, prop::bool::ANY), 1..60)) {
        let tree = RangeTree::new();
        let costs = CostModel::default();
        let mut clk = clock();
        let mut reference: HashSet<u64> = HashSet::new();
        for (start, len, is_clear) in ops {
            if is_clear {
                tree.clear(&mut clk, &costs, LockScope::PerNode);
                reference.clear();
            } else {
                tree.mark_cached(&mut clk, &costs, LockScope::PerNode, start, start + len);
                reference.extend(start..start + len);
            }
        }
        prop_assert_eq!(tree.resident(), reference.len() as u64);
        // Missing ranges must be exactly the complement.
        let missing = tree.missing_in(&mut clk, &costs, LockScope::PerNode, 0, 5000);
        let missing_pages: u64 = missing.iter().map(|&(s, e)| e - s).sum();
        let reference_in_range = reference.iter().filter(|&&p| p < 5000).count() as u64;
        prop_assert_eq!(missing_pages, 5000 - reference_in_range);
        for (s, e) in missing {
            for p in s..e {
                prop_assert!(!reference.contains(&p), "page {p} wrongly missing");
            }
        }
    }

    // ---- B+ range index -------------------------------------------------------

    #[test]
    fn bplus_matches_reference_set(ops in prop::collection::vec((0u64..4096, 1u64..128, 0u8..4), 1..60)) {
        let tree = BPlusRangeIndex::new();
        let costs = CostModel::default();
        let mut clk = clock();
        let mut reference: HashSet<u64> = HashSet::new();
        for (start, len, op) in ops {
            let end = start + len;
            match op {
                0 => {
                    tree.clear(&mut clk, &costs, LockScope::PerNode);
                    reference.clear();
                }
                1 => {
                    // A range clear reports exactly the reference pages it drops.
                    let cleared = tree.clear_range(&mut clk, &costs, LockScope::PerNode, start, end);
                    let before = reference.len();
                    reference.retain(|p| !(start..end).contains(p));
                    prop_assert_eq!(cleared, (before - reference.len()) as u64);
                }
                _ => {
                    tree.mark_cached(&mut clk, &costs, LockScope::PerNode, start, end);
                    reference.extend(start..end);
                }
            }
        }
        prop_assert_eq!(tree.resident(), reference.len() as u64);
        let missing = tree.missing_in(&mut clk, &costs, LockScope::PerNode, 0, 5000);
        let missing_pages: u64 = missing.iter().map(|&(s, e)| e - s).sum();
        let reference_in_range = reference.iter().filter(|&&p| p < 5000).count() as u64;
        prop_assert_eq!(missing_pages, 5000 - reference_in_range);
        for (s, e) in missing {
            for p in s..e {
                prop_assert!(!reference.contains(&p), "page {p} wrongly missing");
            }
        }
    }

    #[test]
    fn flat_and_bplus_agree_and_tick_identically(ops in prop::collection::vec((0u64..6000, 1u64..600, 0u8..4, prop::bool::ANY), 1..50)) {
        // The charging-parity contract as a property: any single-threaded
        // op mix leaves both indexes with the same answers AND the same
        // virtual clock, under either lock scope.
        let flat = RangeTree::new();
        let bplus = BPlusRangeIndex::new();
        let costs = CostModel::default();
        let mut cf = clock();
        let mut cb = clock();
        for (start, len, op, whole_file) in ops {
            let scope = if whole_file { LockScope::WholeFile } else { LockScope::PerNode };
            let (a, b) = (start, start + len);
            match op {
                0 | 1 => {
                    let nf = flat.mark_cached(&mut cf, &costs, scope, a, b);
                    let nb = bplus.mark_cached(&mut cb, &costs, scope, a, b);
                    prop_assert_eq!(nf, nb);
                }
                2 => {
                    let mf = flat.missing_in(&mut cf, &costs, scope, a, b);
                    let mb = bplus.missing_in(&mut cb, &costs, scope, a, b);
                    prop_assert_eq!(mf, mb);
                }
                _ => {
                    let df = flat.clear(&mut cf, &costs, scope);
                    let db = bplus.clear(&mut cb, &costs, scope);
                    prop_assert_eq!(df, db);
                }
            }
            prop_assert_eq!(cf.now(), cb.now(), "virtual clocks diverged");
        }
        prop_assert_eq!(flat.resident(), bplus.resident());
        prop_assert_eq!(flat.lock_wait_ns(), 0);
        prop_assert_eq!(bplus.lock_wait_ns(), 0);
    }

    // ---- OS cache accounting ---------------------------------------------------

    #[test]
    fn os_resident_never_exceeds_budget(reads in prop::collection::vec((0u64..256, 1u64..64), 1..80)) {
        let os = Os::new(
            OsConfig::with_memory_mb(4),
            Device::new(DeviceConfig::local_nvme()),
            FileSystem::new(FsKind::Ext4Like),
        );
        let mut clk = os.new_clock();
        let fd = os.create_sized(&mut clk, "/p", 64 << 20).unwrap();
        for (page, count) in reads {
            os.read_charge(&mut clk, fd, page * 4096 * 16, count * 4096);
        }
        prop_assert!(os.mem().resident() <= os.mem().budget());
        // Per-inode residency must agree with global accounting.
        let cache = os.cache(os.fd_inode(fd));
        prop_assert_eq!(cache.state.read().resident(), os.mem().resident());
    }

    #[test]
    fn os_read_outcome_accounts_every_page(offset in 0u64..(8 << 20), len in 1u64..(1 << 20)) {
        let os = Os::new(
            OsConfig::with_memory_mb(64),
            Device::new(DeviceConfig::local_nvme()),
            FileSystem::new(FsKind::Ext4Like),
        );
        let mut clk = os.new_clock();
        let fd = os.create_sized(&mut clk, "/p", 16 << 20).unwrap();
        let outcome = os.read_charge(&mut clk, fd, offset, len);
        prop_assert_eq!(outcome.hit_pages + outcome.miss_pages, outcome.pages);
        prop_assert!(outcome.bytes <= len);
    }

    // ---- runtime content integrity ---------------------------------------------

    #[test]
    fn shim_write_read_round_trip(offset in 0u64..100_000, data in prop::collection::vec(any::<u8>(), 1..4096)) {
        let os = Os::new(
            OsConfig::with_memory_mb(32),
            Device::new(DeviceConfig::local_nvme()),
            FileSystem::new(FsKind::Ext4Like),
        );
        let rt = Runtime::with_mode(os, Mode::PredictOpt);
        let mut clk = rt.new_clock();
        let file = rt.create(&mut clk, "/p").unwrap();
        file.write(&mut clk, offset, &data);
        prop_assert_eq!(file.read(&mut clk, offset, data.len() as u64), data);
    }

    // ---- snappy codec -------------------------------------------------------------

    #[test]
    fn snappy_round_trips_arbitrary_bytes(data in prop::collection::vec(any::<u8>(), 0..20_000)) {
        let packed = workloads::compress(&data);
        prop_assert_eq!(workloads::decompress(&packed).unwrap(), data);
    }

    #[test]
    fn snappy_round_trips_repetitive_bytes(unit in prop::collection::vec(any::<u8>(), 1..40), reps in 1usize..500) {
        let data: Vec<u8> = unit.iter().cycle().take(unit.len() * reps).copied().collect();
        let packed = workloads::compress(&data);
        prop_assert_eq!(workloads::decompress(&packed).unwrap(), data);
    }

    // ---- zipfian ---------------------------------------------------------------------

    #[test]
    fn zipfian_stays_in_range(n in 1u64..1_000_000, seed in any::<u64>()) {
        use rand::SeedableRng;
        let zipf = workloads::Zipfian::new(n, 0.99);
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        for _ in 0..50 {
            prop_assert!(zipf.sample(&mut rng) < n);
        }
    }
}
