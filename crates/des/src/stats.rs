//! Streaming statistics.
//!
//! Experiments aggregate thousands of per-operation latencies; these
//! helpers provide numerically stable online moments (Welford), a
//! log-bucketed histogram for latency distributions, and exact
//! percentiles for the (small) per-figure summaries.

/// Numerically stable online mean/variance/min/max (Welford's method).
#[derive(Clone, Debug, Default)]
pub struct OnlineStats {
    n: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl OnlineStats {
    /// Empty accumulator.
    pub fn new() -> Self {
        OnlineStats {
            n: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Add a sample.
    pub fn push(&mut self, x: f64) {
        self.n += 1;
        let d = x - self.mean;
        self.mean += d / self.n as f64;
        self.m2 += d * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Number of samples.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Sample mean; zero when empty.
    pub fn mean(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Population variance; zero for fewer than two samples.
    pub fn variance(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            self.m2 / self.n as f64
        }
    }

    /// Smallest sample; `None` when empty.
    pub fn min(&self) -> Option<f64> {
        (self.n > 0).then_some(self.min)
    }

    /// Largest sample; `None` when empty.
    pub fn max(&self) -> Option<f64> {
        (self.n > 0).then_some(self.max)
    }

    /// Sum of all samples.
    pub fn sum(&self) -> f64 {
        self.mean() * self.n as f64
    }

    /// Merge another accumulator into this one (parallel reduction).
    pub fn merge(&mut self, other: &OnlineStats) {
        if other.n == 0 {
            return;
        }
        if self.n == 0 {
            *self = other.clone();
            return;
        }
        let n1 = self.n as f64;
        let n2 = other.n as f64;
        let d = other.mean - self.mean;
        let n = n1 + n2;
        self.mean += d * n2 / n;
        self.m2 += other.m2 + d * d * n1 * n2 / n;
        self.n += other.n;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

/// Log₂-bucketed histogram for positive values (latency distributions).
///
/// Bucket `i` covers `[2^i, 2^(i+1))`; values below 1 land in bucket 0.
#[derive(Clone, Debug)]
pub struct Histogram {
    buckets: Vec<u64>,
    total: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// Empty histogram covering `[0, 2^64)`.
    pub fn new() -> Self {
        Histogram {
            buckets: vec![0; 65],
            total: 0,
        }
    }

    /// Record one value.
    pub fn record(&mut self, v: u64) {
        let b = if v == 0 {
            0
        } else {
            64 - v.leading_zeros() as usize
        };
        self.buckets[b] += 1;
        self.total += 1;
    }

    /// Total number of recorded values.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// Approximate quantile `q ∈ [0, 1]`: upper edge of the bucket that
    /// contains the q-th value. `None` when empty.
    pub fn quantile(&self, q: f64) -> Option<u64> {
        if self.total == 0 {
            return None;
        }
        let q = q.clamp(0.0, 1.0);
        let rank = ((self.total as f64) * q).ceil().max(1.0) as u64;
        let mut seen = 0;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return Some(if i >= 63 {
                    u64::MAX
                } else {
                    (1u64 << (i + 1)) - 1
                });
            }
        }
        Some(u64::MAX)
    }
}

/// Exact percentile of a data set (sorts a copy; fine for report-sized
/// inputs). `q` is in `[0,1]`, interpolation is nearest-rank.
pub fn percentile(data: &[f64], q: f64) -> Option<f64> {
    if data.is_empty() {
        return None;
    }
    let mut v: Vec<f64> = data.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("NaN in percentile input"));
    let q = q.clamp(0.0, 1.0);
    let idx = ((v.len() as f64 - 1.0) * q).round() as usize;
    Some(v[idx])
}

/// Geometric mean; ignores non-positive inputs (returns `None` if none
/// remain). Used to summarize speedup ratios across workload pairs.
pub fn geomean(data: &[f64]) -> Option<f64> {
    let logs: Vec<f64> = data.iter().filter(|&&x| x > 0.0).map(|x| x.ln()).collect();
    if logs.is_empty() {
        return None;
    }
    Some((logs.iter().sum::<f64>() / logs.len() as f64).exp())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn online_stats_basics() {
        let mut s = OnlineStats::new();
        for x in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
            s.push(x);
        }
        assert_eq!(s.count(), 8);
        assert!((s.mean() - 5.0).abs() < 1e-12);
        assert!((s.variance() - 4.0).abs() < 1e-12);
        assert!((s.variance().sqrt() - 2.0).abs() < 1e-12);
        assert_eq!(s.min(), Some(2.0));
        assert_eq!(s.max(), Some(9.0));
        assert!((s.sum() - 40.0).abs() < 1e-9);
    }

    #[test]
    fn empty_stats_are_safe() {
        let s = OnlineStats::new();
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.variance(), 0.0);
        assert_eq!(s.min(), None);
        assert_eq!(s.max(), None);
    }

    #[test]
    fn merge_matches_sequential() {
        let data: Vec<f64> = (0..1000).map(|i| (i as f64).sin() * 10.0).collect();
        let mut whole = OnlineStats::new();
        data.iter().for_each(|&x| whole.push(x));
        let mut a = OnlineStats::new();
        let mut b = OnlineStats::new();
        data[..300].iter().for_each(|&x| a.push(x));
        data[300..].iter().for_each(|&x| b.push(x));
        a.merge(&b);
        assert_eq!(a.count(), whole.count());
        assert!((a.mean() - whole.mean()).abs() < 1e-9);
        assert!((a.variance() - whole.variance()).abs() < 1e-9);
    }

    #[test]
    fn merge_with_empty_sides() {
        let mut a = OnlineStats::new();
        let mut b = OnlineStats::new();
        b.push(3.0);
        a.merge(&b); // empty ← nonempty
        assert_eq!(a.count(), 1);
        let empty = OnlineStats::new();
        a.merge(&empty); // nonempty ← empty
        assert_eq!(a.count(), 1);
    }

    #[test]
    fn histogram_buckets_and_quantiles() {
        let mut h = Histogram::new();
        for v in [0, 1, 2, 3, 4, 100, 1000, 1_000_000] {
            h.record(v);
        }
        assert_eq!(h.count(), 8);
        let q50 = h.quantile(0.5).unwrap();
        assert!((3..8).contains(&q50), "median bucket edge, got {q50}");
        assert!(h.quantile(1.0).unwrap() >= 1_000_000);
        assert_eq!(Histogram::new().quantile(0.5), None);
    }

    #[test]
    fn percentile_nearest_rank() {
        let data = [1.0, 2.0, 3.0, 4.0, 5.0];
        assert_eq!(percentile(&data, 0.0), Some(1.0));
        assert_eq!(percentile(&data, 0.5), Some(3.0));
        assert_eq!(percentile(&data, 1.0), Some(5.0));
        assert_eq!(percentile(&[], 0.5), None);
    }

    #[test]
    fn geomean_ignores_nonpositive() {
        assert!((geomean(&[2.0, 8.0]).unwrap() - 4.0).abs() < 1e-12);
        assert!((geomean(&[2.0, 8.0, 0.0, -1.0]).unwrap() - 4.0).abs() < 1e-12);
        assert_eq!(geomean(&[0.0]), None);
    }
}
