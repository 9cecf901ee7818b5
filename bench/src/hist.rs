//! Fixed-size latency histogram and the small order statistics the reports
//! need. Nothing here allocates after construction, so the timed loop can
//! record without touching the allocator it is counting.

/// Sub-buckets per power of two: a bucket spans at most 1/64 of its value,
/// and [`Histogram::quantile`] interpolates inside it.
const SUB_BITS: u32 = 6;
const SUB: usize = 1 << SUB_BITS;
/// Powers of two kept apart above the exact range `0..SUB`: the last bucket
/// starts just below 2^32 ns = 4.3 s, past any operation a run could count.
/// One histogram is 6.5 KB, small enough to keep one per measured window.
const OCTAVES: u32 = 26;
const BUCKETS: usize = (OCTAVES as usize + 1) * SUB;

/// Log-bucketed histogram of nanosecond values.
pub struct Histogram {
    counts: Box<[u32]>,
    total: u64,
}

fn bucket_of(ns: u64) -> usize {
    if ns < SUB as u64 {
        return ns as usize;
    }
    let exp = 63 - ns.leading_zeros();
    if exp >= OCTAVES + SUB_BITS {
        return BUCKETS - 1;
    }
    let mantissa = (ns >> (exp - SUB_BITS)) as usize & (SUB - 1);
    (exp - SUB_BITS + 1) as usize * SUB + mantissa
}

/// The `[low, high)` range of nanosecond values that land in `bucket`.
fn bounds_of(bucket: usize) -> (u64, u64) {
    if bucket < SUB {
        return (bucket as u64, bucket as u64 + 1);
    }
    let shift = (bucket / SUB - 1) as u32;
    let low = ((SUB + bucket % SUB) as u64) << shift;
    (low, low + (1u64 << shift))
}

impl Histogram {
    pub fn new() -> Self {
        // Written twice on purpose: zeroed memory straight from the
        // allocator is not resident until touched, and which buckets a run
        // touches would then show in the peak-memory metric as noise.
        let mut counts = vec![1u32; BUCKETS].into_boxed_slice();
        std::hint::black_box(&mut counts).fill(0);
        Histogram { counts, total: 0 }
    }

    #[inline]
    pub fn record(&mut self, ns: u64) {
        self.counts[bucket_of(ns)] += 1;
        self.total += 1;
    }

    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.counts.iter_mut().zip(other.counts.iter()) {
            *a += b;
        }
        self.total += other.total;
    }

    pub fn count(&self) -> u64 {
        self.total
    }

    /// The `q`-quantile in nanoseconds (`q` in `[0, 1]`), interpolated
    /// linearly inside the bucket that holds it; 0 when empty.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        // rank of the wanted sample, 1-based, as the sorted-vector oracle
        // in the tests defines it
        let rank = ((q * self.total as f64).ceil() as u64).clamp(1, self.total);
        let mut seen = 0u64;
        for (bucket, &n) in self.counts.iter().enumerate() {
            let n = u64::from(n);
            if n > 0 && seen + n >= rank {
                let (low, high) = bounds_of(bucket);
                let inside = (rank - seen) as f64 - 0.5;
                return low as f64 + (high - low) as f64 * inside / n as f64;
            }
            seen += n;
        }
        unreachable!("rank {rank} is within total {}", self.total)
    }
}

/// Median of `values` (mean of the middle pair for an even count); 0 when
/// empty.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// First and third quartile by the "exclusive" method — what Python's
/// `statistics.quantiles(values, n=4)` returns, so spreads printed here
/// match the ones the acceptance procedure computes. Needs two values.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    assert!(values.len() >= 2, "quartiles need at least two values");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let at = |k: usize| {
        // position k*(n+1)/4 in 1-based ranks; like Python, extrapolate
        // from the outermost pair when that falls outside the data
        let j = (k * (n + 1) / 4).clamp(1, n - 1);
        let delta = (k * (n + 1)) as f64 / 4.0 - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    (at(1), at(3))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::seq::SplitMix64;

    fn oracle(sorted: &[u64], q: f64) -> u64 {
        let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
        sorted[rank - 1]
    }

    #[test]
    fn buckets_tile_the_value_range() {
        let mut expected_low = 0u64;
        for bucket in 0..BUCKETS {
            let (low, high) = bounds_of(bucket);
            assert_eq!(
                low, expected_low,
                "bucket {bucket} starts where the last ended"
            );
            assert_eq!(bucket_of(low), bucket);
            assert_eq!(bucket_of(high - 1), bucket);
            expected_low = high;
        }
        assert_eq!(bucket_of(u64::MAX), BUCKETS - 1);
    }

    #[test]
    fn percentiles_match_a_sorted_vector_within_one_bucket() {
        let mut rng = SplitMix64::new(7);
        // three decades, skewed: the shape of a latency distribution
        let mut values: Vec<u64> = (0..200_000)
            .map(|_| {
                let base = 3_000 + rng.next() % 9_000;
                if rng.next().is_multiple_of(100) {
                    base * 40
                } else {
                    base
                }
            })
            .collect();
        let mut h = Histogram::new();
        for &v in &values {
            h.record(v);
        }
        values.sort_unstable();
        assert_eq!(h.count(), values.len() as u64);
        for q in [0.01, 0.25, 0.5, 0.9, 0.99, 0.999, 1.0] {
            let want = oracle(&values, q) as f64;
            let got = h.quantile(q);
            assert!(
                (got - want).abs() <= want / SUB as f64 + 1.0,
                "q={q}: histogram {got} vs oracle {want}"
            );
        }
    }

    #[test]
    fn merge_adds_counts() {
        let (mut a, mut b) = (Histogram::new(), Histogram::new());
        for v in 1..=1000u64 {
            a.record(v);
            b.record(v + 1000);
        }
        a.merge(&b);
        assert_eq!(a.count(), 2000);
        assert!((a.quantile(0.5) - 1000.0).abs() <= 5.0);
    }

    #[test]
    fn median_of_windows() {
        assert_eq!(median(&[]), 0.0);
        assert_eq!(median(&[5.0]), 5.0);
        assert_eq!(median(&[9.0, 1.0, 5.0]), 5.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        // one stalled window does not move it
        assert_eq!(median(&[100.0, 101.0, 3.0, 99.0, 102.0]), 100.0);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q3) = quartiles(&v);
        assert!((q1 - 2.75).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12);
        // statistics.quantiles([10, 20], n=4) == [7.5, 15.0, 22.5]
        let (q1, q3) = quartiles(&[10.0, 20.0]);
        assert!((q1 - 7.5).abs() < 1e-12 && (q3 - 22.5).abs() < 1e-12);
    }
}
