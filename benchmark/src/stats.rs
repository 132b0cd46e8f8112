//! Order statistics and host-process facts.

/// Nearest-rank percentile of an ascending slice, `per_mille` in 1..=999.
///
/// Refuses (returns `None`) unless at least ten samples lie beyond the
/// chosen rank: a p99.9 of 2 000 samples is two samples' worth of noise.
pub fn percentile(sorted: &[u64], per_mille: u64) -> Option<u64> {
    assert!((1..1000).contains(&per_mille));
    let n = sorted.len() as u64;
    if n == 0 {
        return None;
    }
    let rank = (n * per_mille).div_ceil(1000).max(1); // 1-based
    (n - rank >= 10).then(|| sorted[(rank - 1) as usize])
}

/// The highest of `per_mille` and the usual lower percentiles the sample
/// supports, with the percentile actually used.
pub fn percentile_or_lower(sorted: &[u64], per_mille: u64) -> (u64, u64) {
    for p in [per_mille, 990, 900, 500] {
        if p <= per_mille {
            if let Some(v) = percentile(sorted, p) {
                return (v, p);
            }
        }
    }
    (sorted.get(sorted.len() / 2).copied().unwrap_or(0), 500)
}

/// Mean of the slowest `per_mille` thousandths of an ascending slice.
///
/// Simulated latencies are sums of a few fixed costs, so a nearest-rank
/// percentile is a step function: it ignores any change smaller than one
/// step and jumps a whole step on a change of one sample. The tail mean
/// moves with every sample in the tail. Refuses, like [`percentile`],
/// unless the tail holds at least ten samples.
pub fn tail_mean(sorted: &[u64], per_mille: u64) -> Option<f64> {
    assert!((1..1000).contains(&per_mille));
    let n = (sorted.len() as u64 * per_mille).div_ceil(1000) as usize;
    (n >= 10).then(|| mean(&sorted[sorted.len() - n..]))
}

/// The narrowest of `per_mille` and the wider tails the sample supports.
pub fn tail_mean_or_wider(sorted: &[u64], per_mille: u64) -> f64 {
    [per_mille, 10, 100, 500]
        .into_iter()
        .filter(|&p| p >= per_mille)
        .find_map(|p| tail_mean(sorted, p))
        .unwrap_or_else(|| mean(sorted))
}

pub fn mean(values: &[u64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.iter().map(|&v| v as f64).sum::<f64>() / values.len() as f64
}

/// Median of a float sample (mean of the two middle values when even).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// First and third quartile (linear interpolation between closest ranks).
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let at = |q: f64| {
        if v.is_empty() {
            return 0.0;
        }
        let pos = q * (v.len() - 1) as f64;
        let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
        v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
    };
    (at(0.25), at(0.75))
}

/// Peak resident set of this process (`VmHWM`), MiB. 0 where `/proc` has
/// no such line.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|l| l.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_refuses_fewer_than_ten_samples_beyond_it() {
        let v: Vec<u64> = (1..=1000).collect();
        assert_eq!(percentile(&v, 990), Some(990)); // exactly ten beyond
        assert_eq!(percentile(&v, 991), None); // nine beyond
        assert_eq!(percentile(&v, 999), None);
        assert_eq!(percentile(&v, 500), Some(500));
        assert_eq!(percentile(&v[..15], 500), None); // only 7 beyond the median
        assert_eq!(percentile(&[], 500), None);
    }

    #[test]
    fn percentile_or_lower_steps_down_to_what_the_sample_supports() {
        let v: Vec<u64> = (1..=2000).collect();
        assert_eq!(percentile_or_lower(&v, 999), (1980, 990));
        let big: Vec<u64> = (1..=20_000).collect();
        assert_eq!(percentile_or_lower(&big, 999), (19_980, 999));
    }

    #[test]
    fn tail_mean_averages_the_slowest_share_and_refuses_thin_tails() {
        let v: Vec<u64> = (1..=1000).collect();
        assert_eq!(tail_mean(&v, 10), Some(995.5)); // slowest ten: 991..=1000
        assert_eq!(tail_mean(&v, 1), None); // one sample is not a tail
        assert_eq!(tail_mean_or_wider(&v, 1), 995.5);
    }

    #[test]
    fn median_and_quartiles() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(quartiles(&[1.0, 2.0, 3.0, 4.0, 5.0]), (2.0, 4.0));
    }

    #[test]
    fn peak_rss_is_read_on_linux() {
        assert!(peak_rss_mb() > 0.0);
    }
}
