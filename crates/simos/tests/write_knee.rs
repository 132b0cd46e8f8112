//! The write-throughput knee CAWL predicts for a sustained writer: memory-
//! copy speed while the dirty set stays below the background threshold,
//! device speed once the writer outruns write-back past the hard limit.
//! This model has no knee yet (ROADMAP item 22); the test pins that.

use simclock::NS_PER_SEC;
use simos::{Device, DeviceConfig, FileSystem, FsKind, Os, OsConfig, WritebackConfig};

const CHUNK: u64 = 64 * 1024;
const MIB: u64 = 1 << 20;

/// Virtual MB/s of one writer laying `volume` bytes down in 64 KiB
/// chunks, round-robin over `files` files, behind 256 MiB of page cache.
/// Checks the dirty ledger at the end.
fn sustained_write_mbps(volume: u64, files: u64) -> f64 {
    let os = Os::new(
        OsConfig::with_memory_mb(256),
        Device::new(DeviceConfig::local_nvme()),
        FileSystem::new(FsKind::Ext4Like),
    );
    let mut clock = os.new_clock();
    let fds: Vec<_> = (0..files)
        .map(|i| os.create_sized(&mut clock, &format!("/w{i}"), 0).unwrap())
        .collect();
    let t0 = clock.now();
    for chunk in 0..volume / CHUNK {
        let fd = fds[(chunk % files) as usize];
        os.write_charge(&mut clock, fd, chunk / files * CHUNK, CHUNK);
    }
    let elapsed_ns = clock.now() - t0;
    let s = os.stats();
    assert_eq!(
        s.dirtied_pages.get(),
        s.written_back_pages.get() + s.dropped_dirty_pages.get() + os.mem().dirty(),
        "dirty ledger out of balance"
    );
    volume as f64 / elapsed_ns as f64 * NS_PER_SEC as f64 / 1e6
}

#[test]
fn sustained_writer_has_no_knee_at_the_dirty_limits() {
    let defaults = WritebackConfig::default();
    // Below every flush threshold (the per-file 1024 pages = 4 MiB) and
    // far past the hard limit (4096 pages = 16 MiB).
    let below = 2 * MIB;
    let past = 128 * MIB;
    assert!(below / 4096 < defaults.file_dirty_threshold_pages);
    let device_mbps = DeviceConfig::local_nvme().write_bw / 1e6;
    for files in [1, 8] {
        let fast = sustained_write_mbps(below, files);
        let sustained = sustained_write_mbps(past, files);
        println!("{files} file(s): {fast:.0} MB/s below, {sustained:.0} MB/s past");
        assert!(
            fast > 4.0 * device_mbps,
            "below the threshold a writer runs at copy speed: {fast:.0} MB/s"
        );
        // ❌, checked: CAWL says a writer past the hard limit falls to the
        // device's speed. Here a flush clears the dirty bits when it is
        // issued and the background flush runs on a detached clock, so
        // the writer never waits and keeps its copy speed at every volume
        // (5 749 MB/s at 2 and at 128 MiB, against a 900 MB/s device).
        // Pinned with a ceiling on the knee's depth, so a fix flips this
        // assertion visibly (ROADMAP item 22).
        assert!(
            sustained > 4.0 * device_mbps && sustained * 1.1 >= fast,
            "the sustained writer slowed: {sustained:.0} MB/s past the hard \
             limit vs {fast:.0} MB/s below the threshold ({device_mbps:.0} MB/s device)"
        );
    }
}
