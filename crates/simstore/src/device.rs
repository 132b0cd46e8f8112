//! The device model: bandwidth/latency servers plus content.

use std::sync::atomic::{AtomicU64, Ordering};

use simclock::{transfer_ns, Counter, FcfsResource, ThreadClock};

use crate::{DeviceConfig, DeviceError, FaultPlan, SparseStore, BLOCK_SIZE};

/// Scheduling class of a device request (§4.7 of the paper).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum IoPriority {
    /// Application-visible I/O: demand read misses and writeback the app
    /// is waiting on. Never throttled.
    Blocking,
    /// Readahead / `readahead_info` traffic. Subject to the congestion
    /// window so it cannot pile unbounded backlog in front of blocking I/O.
    Prefetch,
}

/// Aggregate device counters.
#[derive(Debug, Default)]
pub struct DeviceStats {
    /// Read requests issued, by count.
    pub read_requests: Counter,
    /// Write requests issued, by count.
    pub write_requests: Counter,
    /// Bytes read from media.
    pub read_bytes: Counter,
    /// Bytes written to media.
    pub write_bytes: Counter,
    /// Read requests carrying prefetch priority.
    pub prefetch_requests: Counter,
    /// Prefetch requests that stalled on the congestion window.
    pub prefetch_throttled: Counter,
    /// Read requests failed with a transient EIO by the fault plan.
    pub injected_read_faults: Counter,
    /// Vectored read submissions (batched prefetch), by count.
    pub vectored_submissions: Counter,
    /// Read requests that landed inside a latency-spike window.
    pub latency_spike_requests: Counter,
    /// Write requests carrying background (write-back / demotion) priority.
    pub writeback_requests: Counter,
    /// Background writes that stalled on the write congestion window.
    pub writeback_throttled: Counter,
}

/// A simulated block device.
///
/// Reads and writes occupy separate bandwidth servers (NVMe read and write
/// paths are largely independent), pay a fixed per-request latency that does
/// *not* occupy the server (deep queues overlap flash access latency across
/// threads), and move real bytes through the [`SparseStore`].
///
/// Large transfers are split at [`DeviceConfig::max_request_bytes`] — the
/// 2 MiB cap Linux's block layer applies — and the splits pipeline on the
/// bandwidth server, so a big sequential prefetch pays the fixed latency
/// roughly once while random 4 KiB reads pay it on every request. That
/// asymmetry is exactly why prefetching wins on this hardware.
#[derive(Debug)]
pub struct Device {
    config: DeviceConfig,
    /// Total read-bandwidth horizon: every read request (both classes)
    /// occupies it, conserving device capacity.
    read_server: FcfsResource,
    /// Blocking-only horizon: demand reads queue only behind other demand
    /// reads — prefetch backlog cannot delay them (NVMe queues serve
    /// demand I/O with priority alongside background streams).
    read_blocking: FcfsResource,
    /// Total write-bandwidth horizon: every write request (both classes)
    /// occupies it, conserving device capacity.
    write_server: FcfsResource,
    /// Blocking-only write horizon: demand writes queue only behind other
    /// demand writes — background write-back / demotion backlog cannot
    /// delay them (mirror of the read-side dual horizon).
    write_blocking: FcfsResource,
    store: SparseStore,
    stats: DeviceStats,
    /// Optional deterministic misbehaviour schedule; `None` and an all-zero
    /// plan are behaviourally identical (pay-nothing when disabled).
    faults: Option<FaultPlan>,
    /// Operation counter feeding the fault plan's per-op draws. Only
    /// advanced for requests whose traffic class has a nonzero EIO
    /// probability, so fault-free runs never touch it.
    fault_ops: AtomicU64,
}

/// One direction of the device as the queueing routine sees it: the
/// blocking/total horizon pair, its bandwidth, and the counters it bills.
struct Channel<'a> {
    total: &'a FcfsResource,
    blocking: &'a FcfsResource,
    bw: f64,
    requests: &'a Counter,
    bytes: &'a Counter,
    /// Background-class (prefetch / write-back) submissions, by count.
    background_requests: &'a Counter,
    /// Background submissions stalled by the congestion window.
    throttled: &'a Counter,
}

impl Device {
    /// Creates a device with the given performance model.
    ///
    /// # Panics
    ///
    /// Panics if `config` fails [`DeviceConfig::validate`].
    pub fn new(config: DeviceConfig) -> Self {
        config.validate();
        Self {
            config,
            read_server: FcfsResource::new("device-read"),
            read_blocking: FcfsResource::new("device-read-blocking"),
            write_server: FcfsResource::new("device-write"),
            write_blocking: FcfsResource::new("device-write-blocking"),
            store: SparseStore::new(),
            stats: DeviceStats::default(),
            faults: None,
            fault_ops: AtomicU64::new(0),
        }
    }

    /// Creates a device with the given performance model and fault plan.
    pub fn with_fault_plan(config: DeviceConfig, plan: FaultPlan) -> Self {
        let mut device = Self::new(config);
        device.faults = Some(plan);
        device
    }

    /// Installs (or replaces) the fault plan on an existing device.
    pub fn set_fault_plan(&mut self, plan: FaultPlan) {
        self.faults = Some(plan);
    }

    /// The fault plan in effect, if any.
    pub fn fault_plan(&self) -> Option<&FaultPlan> {
        self.faults.as_ref()
    }

    /// The performance model in effect.
    pub fn config(&self) -> &DeviceConfig {
        &self.config
    }

    /// Direct access to stored content (used by filesystem formatting).
    pub fn store(&self) -> &SparseStore {
        &self.store
    }

    /// Accumulated counters.
    pub fn stats(&self) -> &DeviceStats {
        &self.stats
    }

    /// Reads `count` physically-contiguous blocks starting at `pblock`,
    /// charging virtual time to `clock` and returning the block contents.
    pub fn read_blocks(
        &self,
        clock: &mut ThreadClock,
        pblock: u64,
        count: u64,
        priority: IoPriority,
    ) -> Vec<Vec<u8>> {
        if count == 0 {
            return Vec::new();
        }
        self.charge_read(clock, count, priority);
        (pblock..pblock + count)
            .map(|b| self.store.read_block_vec(b))
            .collect()
    }

    /// Fallible variant of [`Device::charge_read`]: consults the fault plan
    /// before charging. On an injected fault the request pays its fixed
    /// round-trip latency (the error still travels the wire) but no
    /// bandwidth, and nothing is transferred. Retrying draws a fresh
    /// per-op fault decision. Without a fault plan this is exactly
    /// `charge_read`.
    pub fn try_charge_read(
        &self,
        clock: &mut ThreadClock,
        count: u64,
        priority: IoPriority,
    ) -> Result<(), DeviceError> {
        if count > 0 {
            self.draw_read_fault(clock, priority)?;
        }
        self.charge_read(clock, count, priority);
        Ok(())
    }

    /// Vectored variant of [`Device::try_charge_read`]: charges a batch of
    /// physically-discontiguous runs (each `runs[i]` contiguous blocks) as
    /// one submission. The fixed per-request latency is paid once across
    /// the whole vector — the runs pipeline through the device's deep
    /// queue exactly like the splits of one large transfer — the prefetch
    /// congestion window is consulted once, and the fault plan draws a
    /// single per-submission decision: an injected fault rejects the whole
    /// vector before any bandwidth is charged. Bandwidth and
    /// `read_requests` are still charged per split, so a vectored
    /// submission moves the same bytes as the equivalent sequence of
    /// [`Device::try_charge_read`] calls and saves only the repeated fixed
    /// latencies and congestion checks.
    pub fn try_charge_read_vectored(
        &self,
        clock: &mut ThreadClock,
        runs: &[u64],
        priority: IoPriority,
    ) -> Result<(), DeviceError> {
        if runs.iter().sum::<u64>() == 0 {
            return Ok(());
        }
        self.draw_read_fault(clock, priority)?;
        self.stats.vectored_submissions.incr();
        let latency = self.config.read_request_latency_ns() + self.spike_extra(clock.now());
        self.submit(clock, &self.read_channel(), runs, latency, priority);
        Ok(())
    }

    /// One per-submission draw against the fault plan's EIO schedule for
    /// `priority`'s traffic class. A hit pays the fixed round-trip latency
    /// only and counts as an injected fault.
    fn draw_read_fault(
        &self,
        clock: &mut ThreadClock,
        priority: IoPriority,
    ) -> Result<(), DeviceError> {
        let Some(plan) = &self.faults else {
            return Ok(());
        };
        let p = plan.eio_probability(priority);
        if p > 0.0 && plan.draw_eio(self.fault_ops.fetch_add(1, Ordering::Relaxed), p) {
            clock.advance(self.config.read_request_latency_ns());
            self.stats.injected_read_faults.incr();
            return Err(DeviceError::TransientIo);
        }
        Ok(())
    }

    /// Extra fixed latency from the fault plan's spike windows at `now`.
    fn spike_extra(&self, now: u64) -> u64 {
        let extra = self
            .faults
            .as_ref()
            .map_or(0, |plan| plan.spike_extra_at(now));
        if extra > 0 {
            self.stats.latency_spike_requests.incr();
        }
        extra
    }

    /// Charges the virtual-time cost of reading `count` contiguous blocks
    /// without materializing content (callers that track presence only):
    /// the one-run case of the queueing routine.
    pub fn charge_read(&self, clock: &mut ThreadClock, count: u64, priority: IoPriority) {
        let spike = if count > 0 {
            self.spike_extra(clock.now())
        } else {
            0
        };
        let latency = self.config.read_request_latency_ns() + spike;
        self.submit(clock, &self.read_channel(), &[count], latency, priority);
    }

    fn read_channel(&self) -> Channel<'_> {
        Channel {
            total: &self.read_server,
            blocking: &self.read_blocking,
            bw: self.config.read_bw,
            requests: &self.stats.read_requests,
            bytes: &self.stats.read_bytes,
            background_requests: &self.stats.prefetch_requests,
            throttled: &self.stats.prefetch_throttled,
        }
    }

    fn write_channel(&self) -> Channel<'_> {
        Channel {
            total: &self.write_server,
            blocking: &self.write_blocking,
            bw: self.config.write_bw,
            requests: &self.stats.write_requests,
            bytes: &self.stats.write_bytes,
            background_requests: &self.stats.writeback_requests,
            throttled: &self.stats.writeback_throttled,
        }
    }

    /// The device's queueing model, stated once: charges `runs` (each a
    /// count of contiguous blocks) on `channel` as one submission. A
    /// read, a write and a vectored read are this routine with a different
    /// channel and run slice.
    fn submit(
        &self,
        clock: &mut ThreadClock,
        channel: &Channel<'_>,
        runs: &[u64],
        latency: u64,
        priority: IoPriority,
    ) {
        if priority == IoPriority::Prefetch {
            channel.background_requests.incr();
            // Congestion control: stall the background stream while the
            // contiguous busy stretch ahead of it exceeds the window.
            let clear = channel.total.clear_time(clock.now());
            if clear.saturating_sub(clock.now()) > self.config.prefetch_congestion_ns {
                channel.throttled.incr();
                clock.advance_to(clear.saturating_sub(self.config.prefetch_congestion_ns));
            }
        }
        let mut completion = clock.now();
        // Fixed latency applies per request but overlaps across the
        // pipelined splits of one submission: charge it once.
        let mut latency = latency;
        let mut blocks = 0;
        for &count in runs {
            blocks += count;
            let mut remaining = count * BLOCK_SIZE as u64;
            while remaining > 0 {
                let chunk = remaining.min(self.config.max_request_bytes);
                let service = transfer_ns(chunk, channel.bw);
                let access = match priority {
                    IoPriority::Blocking => {
                        // Queue only behind other demand traffic, then
                        // reserve the capacity on the total horizon so
                        // background traffic sees the bandwidth as consumed.
                        let access = channel.blocking.access(clock.now(), service);
                        channel.total.access(access.start_ns, service);
                        access
                    }
                    // Share the total horizon fairly with demand traffic —
                    // NVMe does not deprioritize readahead I/O; the
                    // asymmetry is only that demand requests never queue
                    // behind background *backlog* (their own horizon above).
                    IoPriority::Prefetch => channel.total.access(clock.now(), service),
                };
                completion = completion.max(access.end_ns + latency);
                latency = 0;
                channel.requests.incr();
                remaining -= chunk;
            }
        }
        channel.bytes.add(blocks * BLOCK_SIZE as u64);
        clock.advance_to(completion);
    }

    /// Writes whole blocks starting at `pblock`, charging virtual time.
    ///
    /// # Panics
    ///
    /// Panics if any buffer is not exactly one block.
    pub fn write_blocks(
        &self,
        clock: &mut ThreadClock,
        pblock: u64,
        blocks: &[Vec<u8>],
        priority: IoPriority,
    ) {
        if blocks.is_empty() {
            return;
        }
        self.charge_write(clock, blocks.len() as u64, priority);
        for (i, data) in blocks.iter().enumerate() {
            self.store.write_block(pblock + i as u64, data);
        }
    }

    /// Charges the virtual-time cost of writing `count` contiguous blocks.
    ///
    /// Priority mirrors the read side: blocking (demand) writes queue only
    /// behind other blocking writes, then reserve the capacity on the total
    /// horizon; background write-back / demotion shares the total horizon
    /// and stalls on the congestion window when its backlog would otherwise
    /// pile up in front of demand traffic.
    pub fn charge_write(&self, clock: &mut ThreadClock, count: u64, priority: IoPriority) {
        if count == 0 {
            return;
        }
        let latency = self.config.write_request_latency_ns();
        self.submit(clock, &self.write_channel(), &[count], latency, priority);
    }

    /// Writes bytes at an arbitrary offset within one block, with content
    /// persistence but no time charge (callers charge via
    /// [`Device::charge_write`] at writeback granularity).
    pub fn store_partial(&self, pblock: u64, offset: usize, data: &[u8]) {
        self.store.write_partial(pblock, offset, data);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simclock::{GlobalClock, NS_PER_US};
    use std::sync::Arc;

    fn clock() -> ThreadClock {
        ThreadClock::new(Arc::new(GlobalClock::new()))
    }

    #[test]
    fn single_block_read_costs_latency_plus_transfer() {
        let device = Device::new(DeviceConfig::local_nvme());
        let mut c = clock();
        device.read_blocks(&mut c, 0, 1, IoPriority::Blocking);
        let expected_min = device.config().read_request_latency_ns();
        assert!(c.now() >= expected_min);
        assert!(c.now() < expected_min + 10 * NS_PER_US);
    }

    #[test]
    fn sequential_batch_amortizes_latency() {
        // 256 blocks in one request vs 256 single-block requests.
        let device_a = Device::new(DeviceConfig::local_nvme());
        let mut batch = clock();
        device_a.read_blocks(&mut batch, 0, 256, IoPriority::Blocking);

        let device_b = Device::new(DeviceConfig::local_nvme());
        let mut singles = clock();
        for block in 0..256 {
            device_b.read_blocks(&mut singles, block, 1, IoPriority::Blocking);
        }
        assert!(
            batch.now() * 10 < singles.now(),
            "batched read {} should be >=10x faster than singles {}",
            batch.now(),
            singles.now()
        );
    }

    #[test]
    fn reads_and_writes_use_independent_bandwidth() {
        let device = Device::new(DeviceConfig::local_nvme());
        let mut reader = clock();
        let mut writer = clock();
        device.read_blocks(&mut reader, 0, 512, IoPriority::Blocking);
        let read_done = reader.now();
        device.write_blocks(
            &mut writer,
            1024,
            &vec![vec![0u8; BLOCK_SIZE]; 4],
            IoPriority::Blocking,
        );
        // The write did not queue behind the big read.
        assert!(writer.now() < read_done);
    }

    #[test]
    fn prefetch_is_throttled_when_backlog_exceeds_window() {
        let config = DeviceConfig::local_nvme();
        let window = config.prefetch_congestion_ns;
        let device = Device::new(config);
        // Build a large backlog with blocking traffic from a stalled clock.
        let mut heavy = clock();
        device.charge_read(&mut heavy, 20_000, IoPriority::Blocking); // ~80MB

        let mut prefetcher = clock();
        device.charge_read(&mut prefetcher, 1, IoPriority::Prefetch);
        assert_eq!(device.stats().prefetch_throttled.get(), 1);
        // The prefetcher was pushed forward to within `window` of the drain.
        assert!(prefetcher.now() + 2 * window >= heavy.now());
    }

    #[test]
    fn blocking_is_never_throttled() {
        let device = Device::new(DeviceConfig::local_nvme());
        let mut heavy = clock();
        device.charge_read(&mut heavy, 20_000, IoPriority::Blocking);
        let mut reader = clock();
        device.charge_read(&mut reader, 1, IoPriority::Blocking);
        assert_eq!(device.stats().prefetch_throttled.get(), 0);
    }

    #[test]
    fn demand_write_p99_shielded_from_writeback_flood() {
        // A saturating background write-back flood (issued from a detached
        // stalled clock, like the reclaim/write-back daemons do) must not
        // queue demand writes: they ride the blocking-only write horizon.
        let device = Device::new(DeviceConfig::local_nvme());
        let mut flood = clock();
        device.charge_write(&mut flood, 200_000, IoPriority::Prefetch); // ~800 MiB
        let backlog_clear = flood.now();

        let mut demand = clock();
        let mut worst_ns = 0u64;
        for i in 0..100u64 {
            let start = demand.now();
            device.charge_write(&mut demand, 8, IoPriority::Blocking);
            worst_ns = worst_ns.max(demand.now() - start);
            // Space the ops out so each is an independent latency sample.
            demand.advance(i % 7 * NS_PER_US);
        }
        // p99 (== worst op, deterministic single stream) stays at the
        // unloaded cost: fixed latency + transfer, nowhere near the flood's
        // drain time.
        let unloaded = device.config().write_request_latency_ns()
            + transfer_ns(8 * BLOCK_SIZE as u64, device.config().write_bw);
        assert!(
            worst_ns <= unloaded + NS_PER_US,
            "demand write p99 {worst_ns}ns regressed above unloaded cost {unloaded}ns"
        );
        assert!(worst_ns * 100 < backlog_clear);
    }

    #[test]
    fn background_write_queues_behind_writeback_backlog() {
        // Background write-back shares the total horizon: once the backlog
        // exceeds the congestion window it is stalled, exactly like
        // prefetch reads.
        let config = DeviceConfig::local_nvme();
        let window = config.prefetch_congestion_ns;
        let device = Device::new(config);
        let mut heavy = clock();
        device.charge_write(&mut heavy, 200_000, IoPriority::Prefetch);

        let mut background = clock();
        device.charge_write(&mut background, 1, IoPriority::Prefetch);
        assert_eq!(device.stats().writeback_throttled.get(), 1);
        assert!(background.now() + 2 * window >= heavy.now());
        // Demand writes were never throttled by any of this.
        let mut demand = clock();
        device.charge_write(&mut demand, 1, IoPriority::Blocking);
        assert_eq!(device.stats().writeback_throttled.get(), 1);
        assert!(demand.now() < heavy.now() / 2);
    }

    #[test]
    fn write_read_round_trip_through_device() {
        let device = Device::new(DeviceConfig::local_nvme());
        let mut c = clock();
        let payload = vec![vec![0x5Au8; BLOCK_SIZE], vec![0xA5u8; BLOCK_SIZE]];
        device.write_blocks(&mut c, 100, &payload, IoPriority::Blocking);
        let back = device.read_blocks(&mut c, 100, 2, IoPriority::Blocking);
        assert_eq!(back, payload);
    }

    #[test]
    fn stats_account_bytes() {
        let device = Device::new(DeviceConfig::local_nvme());
        let mut c = clock();
        device.charge_read(&mut c, 3, IoPriority::Blocking);
        device.charge_write(&mut c, 2, IoPriority::Blocking);
        assert_eq!(device.stats().read_bytes.get(), 3 * BLOCK_SIZE as u64);
        assert_eq!(device.stats().write_bytes.get(), 2 * BLOCK_SIZE as u64);
    }

    #[test]
    fn remote_device_is_slower_for_small_reads() {
        let local = Device::new(DeviceConfig::local_nvme());
        let remote = Device::new(DeviceConfig::remote_nvmeof());
        let mut lc = clock();
        let mut rc = clock();
        local.charge_read(&mut lc, 1, IoPriority::Blocking);
        remote.charge_read(&mut rc, 1, IoPriority::Blocking);
        assert!(rc.now() > lc.now());
    }

    #[test]
    fn try_charge_read_without_plan_matches_charge_read() {
        let plain = Device::new(DeviceConfig::local_nvme());
        let fallible = Device::new(DeviceConfig::local_nvme());
        let mut a = clock();
        let mut b = clock();
        plain.charge_read(&mut a, 64, IoPriority::Blocking);
        fallible
            .try_charge_read(&mut b, 64, IoPriority::Blocking)
            .unwrap();
        assert_eq!(a.now(), b.now());
        assert_eq!(fallible.stats().injected_read_faults.get(), 0);
    }

    #[test]
    fn all_zero_plan_is_bit_identical_to_no_plan() {
        let plain = Device::new(DeviceConfig::local_nvme());
        let planned = Device::with_fault_plan(DeviceConfig::local_nvme(), FaultPlan::seeded(42));
        let mut a = clock();
        let mut b = clock();
        for i in 0..32 {
            let pri = if i % 3 == 0 {
                IoPriority::Prefetch
            } else {
                IoPriority::Blocking
            };
            plain.charge_read(&mut a, 1 + i, pri);
            planned.try_charge_read(&mut b, 1 + i, pri).unwrap();
        }
        assert_eq!(a.now(), b.now());
        assert_eq!(
            plain.stats().read_requests.get(),
            planned.stats().read_requests.get()
        );
        assert_eq!(planned.stats().latency_spike_requests.get(), 0);
    }

    #[test]
    fn certain_eio_fails_every_request_and_charges_latency_only() {
        let device = Device::with_fault_plan(
            DeviceConfig::local_nvme(),
            FaultPlan::seeded(0).with_read_eio(1.0),
        );
        let mut c = clock();
        let err = device
            .try_charge_read(&mut c, 100, IoPriority::Blocking)
            .unwrap_err();
        assert_eq!(err, DeviceError::TransientIo);
        assert_eq!(c.now(), device.config().read_request_latency_ns());
        assert_eq!(device.stats().injected_read_faults.get(), 1);
        assert_eq!(device.stats().read_bytes.get(), 0);
    }

    #[test]
    fn prefetch_only_eio_leaves_demand_reads_untouched() {
        let device = Device::with_fault_plan(
            DeviceConfig::local_nvme(),
            FaultPlan::seeded(0).with_prefetch_eio(1.0),
        );
        let mut c = clock();
        device
            .try_charge_read(&mut c, 8, IoPriority::Blocking)
            .unwrap();
        device
            .try_charge_read(&mut c, 8, IoPriority::Prefetch)
            .unwrap_err();
        assert_eq!(device.stats().injected_read_faults.get(), 1);
    }

    #[test]
    fn latency_spikes_slow_reads_inside_the_window() {
        use simclock::NS_PER_MS;
        // Window covers the whole first millisecond; the clock starts at 0,
        // so the first read pays the spike and a later one does not.
        let plan =
            FaultPlan::seeded(0).with_latency_spikes(100 * NS_PER_MS, NS_PER_MS, 10 * NS_PER_MS);
        let spiky = Device::with_fault_plan(DeviceConfig::local_nvme(), plan);
        let calm = Device::new(DeviceConfig::local_nvme());
        let mut a = clock();
        let mut b = clock();
        spiky.charge_read(&mut a, 1, IoPriority::Blocking);
        calm.charge_read(&mut b, 1, IoPriority::Blocking);
        assert_eq!(a.now(), b.now() + 10 * NS_PER_MS);
        assert_eq!(spiky.stats().latency_spike_requests.get(), 1);
        // Past the window: no extra charge.
        let before = a.now();
        spiky.charge_read(&mut a, 1, IoPriority::Blocking);
        let calm_cost = {
            let mut c = clock();
            calm.charge_read(&mut c, 1, IoPriority::Blocking);
            c.now()
        };
        assert!(a.now() - before <= calm_cost + 1);
        assert_eq!(spiky.stats().latency_spike_requests.get(), 1);
    }

    #[test]
    fn fault_sequence_is_reproducible_across_devices() {
        let mk = || {
            Device::with_fault_plan(
                DeviceConfig::local_nvme(),
                FaultPlan::seeded(1234).with_read_eio(0.4),
            )
        };
        let d1 = mk();
        let d2 = mk();
        let mut c1 = clock();
        let mut c2 = clock();
        let outcomes1: Vec<bool> = (0..64)
            .map(|_| d1.try_charge_read(&mut c1, 1, IoPriority::Blocking).is_ok())
            .collect();
        let outcomes2: Vec<bool> = (0..64)
            .map(|_| d2.try_charge_read(&mut c2, 1, IoPriority::Blocking).is_ok())
            .collect();
        assert_eq!(outcomes1, outcomes2);
        assert_eq!(c1.now(), c2.now());
        assert!(outcomes1.iter().any(|&ok| !ok));
        assert!(outcomes1.iter().any(|&ok| ok));
    }

    #[test]
    fn vectored_read_saves_only_fixed_latency() {
        let runs = [4u64, 4, 4, 4];
        let batched = Device::new(DeviceConfig::local_nvme());
        let mut b = clock();
        batched
            .try_charge_read_vectored(&mut b, &runs, IoPriority::Prefetch)
            .unwrap();

        let singles = Device::new(DeviceConfig::local_nvme());
        let mut s = clock();
        for &count in &runs {
            singles
                .try_charge_read(&mut s, count, IoPriority::Prefetch)
                .unwrap();
        }
        // The vector pays the fixed latency once and pipelines the runs on
        // the bandwidth server, so it saves at least the repeated fixed
        // latencies of the single-run calls.
        let saved = (runs.len() as u64 - 1) * batched.config().read_request_latency_ns();
        assert!(b.now() + saved <= s.now());
        // Same bytes and splits either way; one vectored submission.
        assert_eq!(
            batched.stats().read_bytes.get(),
            singles.stats().read_bytes.get()
        );
        assert_eq!(
            batched.stats().read_requests.get(),
            singles.stats().read_requests.get()
        );
        assert_eq!(batched.stats().vectored_submissions.get(), 1);
    }

    #[test]
    fn vectored_fault_rejects_whole_submission_before_bandwidth() {
        let device = Device::with_fault_plan(
            DeviceConfig::local_nvme(),
            FaultPlan::seeded(0).with_prefetch_eio(1.0),
        );
        let mut c = clock();
        let err = device
            .try_charge_read_vectored(&mut c, &[8, 8, 8], IoPriority::Prefetch)
            .unwrap_err();
        assert_eq!(err, DeviceError::TransientIo);
        assert_eq!(c.now(), device.config().read_request_latency_ns());
        assert_eq!(device.stats().read_bytes.get(), 0);
        assert_eq!(device.stats().vectored_submissions.get(), 0);
        assert_eq!(device.stats().injected_read_faults.get(), 1);
    }

    #[test]
    fn empty_vector_is_free() {
        let device = Device::new(DeviceConfig::local_nvme());
        let mut c = clock();
        device
            .try_charge_read_vectored(&mut c, &[], IoPriority::Prefetch)
            .unwrap();
        device
            .try_charge_read_vectored(&mut c, &[0, 0], IoPriority::Prefetch)
            .unwrap();
        assert_eq!(c.now(), 0);
        assert_eq!(device.stats().vectored_submissions.get(), 0);
    }

    #[test]
    fn zero_count_operations_are_free() {
        let device = Device::new(DeviceConfig::local_nvme());
        let mut c = clock();
        assert!(device
            .read_blocks(&mut c, 0, 0, IoPriority::Blocking)
            .is_empty());
        device.write_blocks(&mut c, 0, &[], IoPriority::Blocking);
        assert_eq!(c.now(), 0);
    }
}
