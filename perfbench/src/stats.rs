//! Order statistics over timing samples.

/// Returns the samples sorted ascending (NaNs last).
fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median (mean of the two middle samples for an even count); NaN when
/// there are no samples.
pub fn median(xs: &[f64]) -> f64 {
    let v = sorted(xs);
    let n = v.len();
    match n {
        0 => f64::NAN,
        _ if n % 2 == 1 => v[n / 2],
        _ => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Nearest-rank percentile, `p` in `(0, 1]`: the smallest sample with at
/// least `p * n` samples at or below it. NaN when there are no samples.
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    let v = sorted(xs);
    if v.is_empty() {
        return f64::NAN;
    }
    let rank = (p * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// Samples strictly beyond the `p` nearest-rank percentile position.
pub fn samples_beyond(n: usize, p: f64) -> usize {
    n.saturating_sub((p * n as f64).ceil() as usize)
}

/// A latency record of fixed size: 10 ns buckets up to 1 ms, exact values
/// beyond. Memory does not grow with the request count or the latency
/// spread, so the benchmark's own footprint stays constant in
/// `peak_rss_mb`.
pub struct LatencyLog {
    buckets: Vec<u64>,
    overflow: Vec<u64>,
    count: u64,
    sum_ns: u64,
}

/// Bucket width of [`LatencyLog`] (ns).
pub const BUCKET_NS: u64 = 10;
const BUCKETS: usize = 100_000;

impl Default for LatencyLog {
    fn default() -> Self {
        let mut buckets = vec![0; BUCKETS];
        // Zeroed allocations are mapped lazily: touch every page now, so a
        // run with a wider latency spread does not fault in more of them.
        for b in buckets.iter_mut().step_by(512) {
            *std::hint::black_box(b) = 0;
        }
        LatencyLog {
            buckets,
            overflow: Vec::new(),
            count: 0,
            sum_ns: 0,
        }
    }
}

impl LatencyLog {
    /// Records one latency.
    pub fn record(&mut self, ns: u64) {
        match self.buckets.get_mut((ns / BUCKET_NS) as usize) {
            Some(b) => *b += 1,
            None => self.overflow.push(ns),
        }
        self.count += 1;
        self.sum_ns += ns;
    }

    /// Samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all samples (ns).
    pub fn sum_ns(&self) -> u64 {
        self.sum_ns
    }

    /// Nearest-rank percentile (ns): a bucket's midpoint, or the exact
    /// value past the last bucket. NaN when empty.
    pub fn percentile_ns(&self, p: f64) -> f64 {
        if self.count == 0 {
            return f64::NAN;
        }
        let rank = ((p * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0;
        for (i, &b) in self.buckets.iter().enumerate() {
            seen += b;
            if seen >= rank {
                return (i as u64 * BUCKET_NS) as f64 + BUCKET_NS as f64 / 2.0;
            }
        }
        let mut rest = self.overflow.clone();
        rest.sort_unstable();
        rest[(rank - seen - 1) as usize] as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn nearest_rank_percentiles() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&xs, 0.50), 50.0);
        assert_eq!(percentile(&xs, 0.99), 99.0);
        assert_eq!(percentile(&xs, 1.0), 100.0);
        assert_eq!(percentile(&[7.0], 0.99), 7.0);
        assert!(percentile(&[], 0.5).is_nan());
    }

    #[test]
    fn beyond_counts_samples_past_the_rank() {
        assert_eq!(samples_beyond(1000, 0.99), 10);
        assert_eq!(samples_beyond(100, 0.5), 50);
        assert_eq!(samples_beyond(1, 0.99), 0);
        assert_eq!(samples_beyond(0, 0.99), 0);
    }

    #[test]
    fn latency_log_percentiles_resolve_to_ten_ns() {
        let mut log = LatencyLog::default();
        for ns in 1..=1000u64 {
            log.record(ns * 100);
        }
        assert_eq!(log.count(), 1000);
        // p50 is the 500th sample, 50_000 ns, reported as its bucket's midpoint.
        assert_eq!(log.percentile_ns(0.50), 50_005.0);
        assert_eq!(log.percentile_ns(0.99), 99_005.0);
        let mut big = LatencyLog::default();
        big.record(5_000_000); // past the last bucket
        big.record(10);
        assert_eq!(big.percentile_ns(1.0), 5_000_000.0);
        assert_eq!(big.count(), 2);
        assert_eq!(big.sum_ns(), 5_000_010);
        assert!(LatencyLog::default().percentile_ns(0.5).is_nan());
    }
}
