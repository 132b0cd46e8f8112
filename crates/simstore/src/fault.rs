//! Deterministic fault injection for the device model.
//!
//! Real prefetching stacks live with devices that fail transiently and
//! kernels that throttle unpredictably; CROSS-LIB (§4.4) is explicitly
//! designed to stay correct when the layers beneath it misbehave. A
//! [`FaultPlan`] gives the simulation the same adversary, deterministically:
//! a seeded per-request transient-EIO schedule (separately tunable for
//! demand and prefetch traffic) and periodic latency-spike windows in
//! virtual time.
//!
//! Determinism: every fault decision is a pure function of the plan's seed
//! and a per-device operation counter, drawn through the offline `rand`
//! stand-in — two single-threaded runs with the same seed and workload see
//! the same faults at the same operations. An all-zero plan draws nothing
//! and charges nothing, so it is bit-identical to running with no plan.

use rand::{rngs::StdRng, Rng, SeedableRng};

use crate::IoPriority;

/// Error returned by fallible device operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeviceError {
    /// Transient I/O failure injected by the fault plan; a retry draws a
    /// fresh fault decision and may succeed.
    TransientIo,
}

impl std::fmt::Display for DeviceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DeviceError::TransientIo => write!(f, "transient device I/O error (injected)"),
        }
    }
}

impl std::error::Error for DeviceError {}

/// A seeded, deterministic schedule of device misbehaviour.
///
/// # Example
///
/// ```
/// use simstore::{Device, DeviceConfig, FaultPlan, IoPriority};
/// use simclock::{GlobalClock, ThreadClock, NS_PER_MS, NS_PER_US};
/// use std::sync::Arc;
///
/// let mut device = Device::new(DeviceConfig::local_nvme());
/// device.set_fault_plan(
///     FaultPlan::seeded(7)
///         .with_read_eio(0.5)
///         .with_latency_spikes(10 * NS_PER_MS, NS_PER_MS, 500 * NS_PER_US),
/// );
/// let mut clock = ThreadClock::new(Arc::new(GlobalClock::new()));
/// let mut failures = 0;
/// for _ in 0..100 {
///     if device.try_charge_read(&mut clock, 1, IoPriority::Blocking).is_err() {
///         failures += 1;
///     }
/// }
/// assert!(failures > 20 && failures < 80);
/// assert_eq!(device.stats().injected_read_faults.get(), failures);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    seed: u64,
    /// Probability that one blocking (demand) read request fails with EIO.
    demand_eio: f64,
    /// Probability that one prefetch-class read request fails with EIO.
    prefetch_eio: f64,
    /// Latency spikes repeat every `spike_period_ns` of virtual time...
    spike_period_ns: u64,
    /// ...lasting `spike_duration_ns` from the start of each period...
    spike_duration_ns: u64,
    /// ...adding this much fixed latency to every read request inside the
    /// window.
    spike_extra_ns: u64,
}

impl FaultPlan {
    /// An all-zero plan (no faults, no spikes) with the given seed.
    pub fn seeded(seed: u64) -> Self {
        Self {
            seed,
            demand_eio: 0.0,
            prefetch_eio: 0.0,
            spike_period_ns: 0,
            spike_duration_ns: 0,
            spike_extra_ns: 0,
        }
    }

    /// Sets the transient-EIO probability for *both* traffic classes.
    pub fn with_read_eio(self, probability: f64) -> Self {
        self.with_demand_eio(probability)
            .with_prefetch_eio(probability)
    }

    /// Sets the transient-EIO probability for blocking (demand) reads only.
    pub fn with_demand_eio(mut self, probability: f64) -> Self {
        self.demand_eio = probability.clamp(0.0, 1.0);
        self
    }

    /// Sets the transient-EIO probability for prefetch-class reads only.
    pub fn with_prefetch_eio(mut self, probability: f64) -> Self {
        self.prefetch_eio = probability.clamp(0.0, 1.0);
        self
    }

    /// Installs periodic latency-spike windows: every `period_ns` of
    /// virtual time, read requests issued during the first `duration_ns`
    /// pay `extra_ns` of additional fixed latency (a garbage-collecting
    /// SSD, a congested fabric, a noisy neighbour).
    pub fn with_latency_spikes(mut self, period_ns: u64, duration_ns: u64, extra_ns: u64) -> Self {
        self.spike_period_ns = period_ns;
        self.spike_duration_ns = duration_ns.min(period_ns);
        self.spike_extra_ns = extra_ns;
        self
    }

    /// The plan's seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// EIO probability for a request of the given priority.
    pub(crate) fn eio_probability(&self, priority: IoPriority) -> f64 {
        match priority {
            IoPriority::Blocking => self.demand_eio,
            IoPriority::Prefetch => self.prefetch_eio,
        }
    }

    /// Draws the fault decision for operation number `op` at probability
    /// `p` — a pure function of `(seed, op)`, so runs replay identically.
    pub(crate) fn draw_eio(&self, op: u64, p: f64) -> bool {
        if p <= 0.0 {
            return false;
        }
        if p >= 1.0 {
            return true;
        }
        let mut rng = StdRng::seed_from_u64(self.seed ^ op.wrapping_mul(0xD6E8_FEB8_6659_FD93));
        rng.gen_bool(p)
    }

    /// Extra read latency imposed at virtual time `now` (0 outside spike
    /// windows or when spikes are not configured).
    pub(crate) fn spike_extra_at(&self, now: u64) -> u64 {
        if self.spike_extra_ns == 0 || self.spike_period_ns == 0 {
            return 0;
        }
        if now % self.spike_period_ns < self.spike_duration_ns {
            self.spike_extra_ns
        } else {
            0
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_plan_draws_nothing() {
        let plan = FaultPlan::seeded(1);
        for op in 0..1000 {
            assert!(!plan.draw_eio(op, plan.eio_probability(IoPriority::Blocking)));
        }
        assert_eq!(plan.spike_extra_at(12345), 0);
    }

    #[test]
    fn draws_are_deterministic_per_seed_and_op() {
        let a = FaultPlan::seeded(9).with_read_eio(0.3);
        let b = FaultPlan::seeded(9).with_read_eio(0.3);
        let decisions_a: Vec<bool> = (0..256).map(|op| a.draw_eio(op, 0.3)).collect();
        let decisions_b: Vec<bool> = (0..256).map(|op| b.draw_eio(op, 0.3)).collect();
        assert_eq!(decisions_a, decisions_b);
        let hits = decisions_a.iter().filter(|&&d| d).count();
        assert!(hits > 30 && hits < 130, "0.3 of 256 draws was {hits}");
    }

    #[test]
    fn different_seeds_diverge() {
        let a = FaultPlan::seeded(1).with_read_eio(0.5);
        let b = FaultPlan::seeded(2).with_read_eio(0.5);
        let va: Vec<bool> = (0..128).map(|op| a.draw_eio(op, 0.5)).collect();
        let vb: Vec<bool> = (0..128).map(|op| b.draw_eio(op, 0.5)).collect();
        assert_ne!(va, vb);
    }

    #[test]
    fn certain_probabilities_short_circuit() {
        let plan = FaultPlan::seeded(0).with_read_eio(1.0);
        assert!(plan.draw_eio(0, 1.0));
        assert!(!plan.draw_eio(0, 0.0));
    }

    #[test]
    fn spike_windows_are_periodic() {
        let plan = FaultPlan::seeded(0).with_latency_spikes(1000, 100, 50);
        assert_eq!(plan.spike_extra_at(0), 50);
        assert_eq!(plan.spike_extra_at(99), 50);
        assert_eq!(plan.spike_extra_at(100), 0);
        assert_eq!(plan.spike_extra_at(999), 0);
        assert_eq!(plan.spike_extra_at(1000), 50);
        assert_eq!(plan.spike_extra_at(2050), 50);
    }

    #[test]
    fn per_class_probabilities_are_independent() {
        let plan = FaultPlan::seeded(0).with_prefetch_eio(1.0);
        assert_eq!(plan.eio_probability(IoPriority::Blocking), 0.0);
        assert_eq!(plan.eio_probability(IoPriority::Prefetch), 1.0);
    }
}
