//! Online statistics and the paper's confidence-interval stopping rule.
//!
//! The paper (§4.1) runs every simulation "as long as a confidence interval
//! of 1 % was reached with probability p = 0.99". Raw per-call samples from a
//! steady-state simulation are autocorrelated, so the classical normal-theory
//! interval is computed over **batch means** ([`BatchMeans`]): consecutive
//! samples are grouped into fixed-size batches whose means are approximately
//! independent and normal.

use serde::{Deserialize, Serialize};

/// Numerically stable running mean/variance (Welford's algorithm).
///
/// # Example
///
/// ```
/// use oml_des::stats::OnlineStats;
///
/// let mut s = OnlineStats::new();
/// for x in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
///     s.push(x);
/// }
/// assert_eq!(s.count(), 8);
/// assert!((s.mean() - 5.0).abs() < 1e-12);
/// assert!((s.variance() - 32.0 / 7.0).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct OnlineStats {
    count: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl OnlineStats {
    /// Creates an empty accumulator.
    #[must_use]
    pub fn new() -> Self {
        OnlineStats {
            count: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Adds one sample.
    ///
    /// # Panics
    ///
    /// Panics if `x` is NaN (a NaN would silently poison every later
    /// statistic).
    pub fn push(&mut self, x: f64) {
        assert!(!x.is_nan(), "cannot accumulate NaN");
        self.count += 1;
        let delta = x - self.mean;
        self.mean += delta / self.count as f64;
        let delta2 = x - self.mean;
        self.m2 += delta * delta2;
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Merges another accumulator into this one (Chan's parallel update).
    pub fn merge(&mut self, other: &OnlineStats) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = *other;
            return;
        }
        let n1 = self.count as f64;
        let n2 = other.count as f64;
        let delta = other.mean - self.mean;
        let total = n1 + n2;
        self.mean += delta * n2 / total;
        self.m2 += other.m2 + delta * delta * n1 * n2 / total;
        self.count += other.count;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Number of samples seen.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sample mean (0 if empty).
    #[must_use]
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// Unbiased sample variance (0 if fewer than two samples).
    #[must_use]
    pub fn variance(&self) -> f64 {
        if self.count < 2 {
            0.0
        } else {
            self.m2 / (self.count - 1) as f64
        }
    }

    /// Sample standard deviation.
    #[must_use]
    pub(crate) fn std_dev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Standard error of the mean.
    #[must_use]
    pub(crate) fn std_err(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.std_dev() / (self.count as f64).sqrt()
        }
    }

    /// Smallest sample seen, or `None` if empty.
    #[must_use]
    pub fn min(&self) -> Option<f64> {
        (self.count > 0).then_some(self.min)
    }

    /// Largest sample seen, or `None` if empty.
    #[must_use]
    pub fn max(&self) -> Option<f64> {
        (self.count > 0).then_some(self.max)
    }

    /// Normal-approximation confidence interval for the mean at the given
    /// confidence level (e.g. `0.99`).
    ///
    /// Returns `None` with fewer than two samples.
    #[must_use]
    pub fn confidence_interval(&self, confidence: f64) -> Option<ConfidenceInterval> {
        if self.count < 2 {
            return None;
        }
        let z = normal_quantile(0.5 + confidence / 2.0);
        let half = z * self.std_err();
        Some(ConfidenceInterval {
            mean: self.mean,
            half_width: half,
            confidence,
            samples: self.count,
        })
    }
}

/// A symmetric confidence interval around a sample mean.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ConfidenceInterval {
    /// Point estimate.
    pub mean: f64,
    /// Half-width of the interval (`mean ± half_width`).
    pub half_width: f64,
    /// Confidence level used (e.g. 0.99).
    pub confidence: f64,
    /// Number of (batch) samples the interval is based on.
    pub samples: u64,
}

impl ConfidenceInterval {
    /// Half-width relative to the mean; `f64::INFINITY` when the mean is 0
    /// but the half-width is not.
    #[must_use]
    pub fn relative_half_width(&self) -> f64 {
        if self.half_width == 0.0 {
            0.0
        } else if self.mean == 0.0 {
            f64::INFINITY
        } else {
            (self.half_width / self.mean).abs()
        }
    }

    /// Whether the interval satisfies the paper's "1 % at p = 0.99" style
    /// criterion for the given relative precision.
    #[must_use]
    pub fn is_within(&self, relative: f64) -> bool {
        self.relative_half_width() <= relative
    }
}

/// Inverse CDF of the standard normal distribution.
///
/// Uses the Acklam rational approximation (relative error below 1.15e-9 over
/// the whole domain), which is far more precision than a stopping rule needs.
///
/// # Panics
///
/// Panics unless `0 < p < 1`.
#[must_use]
pub fn normal_quantile(p: f64) -> f64 {
    assert!(p > 0.0 && p < 1.0, "quantile probability out of range: {p}");

    const A: [f64; 6] = [
        -3.969683028665376e+01,
        2.209460984245205e+02,
        -2.759285104469687e+02,
        1.38357751867269e+02,
        -3.066479806614716e+01,
        2.506628277459239e+00,
    ];
    const B: [f64; 5] = [
        -5.447609879822406e+01,
        1.615858368580409e+02,
        -1.556989798598866e+02,
        6.680131188771972e+01,
        -1.328068155288572e+01,
    ];
    const C: [f64; 6] = [
        -7.784894002430293e-03,
        -3.223964580411365e-01,
        -2.400758277161838e+00,
        -2.549732539343734e+00,
        4.374664141464968e+00,
        2.938163982698783e+00,
    ];
    const D: [f64; 4] = [
        7.784695709041462e-03,
        3.224671290700398e-01,
        2.445134137142996e+00,
        3.754408661907416e+00,
    ];
    const P_LOW: f64 = 0.02425;

    if p < P_LOW {
        let q = (-2.0 * p.ln()).sqrt();
        (((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
    } else if p <= 1.0 - P_LOW {
        let q = p - 0.5;
        let r = q * q;
        (((((A[0] * r + A[1]) * r + A[2]) * r + A[3]) * r + A[4]) * r + A[5]) * q
            / (((((B[0] * r + B[1]) * r + B[2]) * r + B[3]) * r + B[4]) * r + 1.0)
    } else {
        -normal_quantile(1.0 - p)
    }
}

/// Batch-means estimator for steady-state simulation output.
///
/// Consecutive raw samples are grouped into batches of `batch_size`; the
/// confidence interval is computed over the batch means, which are much
/// closer to independent than the raw samples.
///
/// # Example
///
/// ```
/// use oml_des::stats::BatchMeans;
///
/// let mut bm = BatchMeans::new(100);
/// for i in 0..10_000 {
///     bm.push((i % 7) as f64);
/// }
/// let ci = bm.confidence_interval(0.99).unwrap();
/// assert!((ci.mean - 3.0).abs() < 0.1);
/// ```
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct BatchMeans {
    batch_size: u64,
    current_sum: f64,
    current_count: u64,
    batches: OnlineStats,
    raw: OnlineStats,
}

impl BatchMeans {
    /// Creates an estimator with the given batch size.
    ///
    /// # Panics
    ///
    /// Panics if `batch_size == 0`.
    #[must_use]
    pub fn new(batch_size: u64) -> Self {
        assert!(batch_size > 0, "batch size must be positive");
        BatchMeans {
            batch_size,
            current_sum: 0.0,
            current_count: 0,
            batches: OnlineStats::new(),
            raw: OnlineStats::new(),
        }
    }

    /// Adds one raw sample.
    pub fn push(&mut self, x: f64) {
        self.raw.push(x);
        self.current_sum += x;
        self.current_count += 1;
        if self.current_count == self.batch_size {
            self.batches.push(self.current_sum / self.batch_size as f64);
            self.current_sum = 0.0;
            self.current_count = 0;
        }
    }

    /// The configured batch size.
    #[must_use]
    pub fn batch_size(&self) -> u64 {
        self.batch_size
    }

    /// Number of completed batches.
    #[must_use]
    pub fn batch_count(&self) -> u64 {
        self.batches.count()
    }

    /// Total raw samples pushed.
    #[must_use]
    pub fn sample_count(&self) -> u64 {
        self.raw.count()
    }

    /// Confidence interval over the batch means, or `None` with fewer than
    /// two completed batches.
    #[must_use]
    pub fn confidence_interval(&self, confidence: f64) -> Option<ConfidenceInterval> {
        self.batches.confidence_interval(confidence)
    }

    /// Folds another estimator of the **same batch size** into this one.
    ///
    /// Completed batches and raw samples merge exactly (via
    /// [`OnlineStats::merge`], which is order-dependent in the last float
    /// bits — callers wanting reproducibility must merge in a fixed order,
    /// e.g. replication index order). `other`'s *partial* batch, if any,
    /// contributes to the raw statistics but never becomes a batch mean:
    /// two partial batches from independent streams have no well-defined
    /// concatenation. The parallel replication runner sidesteps this by
    /// sizing each replication to a whole number of batches.
    ///
    /// # Panics
    ///
    /// Panics if the batch sizes differ.
    pub fn merge(&mut self, other: &BatchMeans) {
        assert_eq!(
            self.batch_size, other.batch_size,
            "cannot merge batch-means estimators with different batch sizes"
        );
        self.batches.merge(&other.batches);
        self.raw.merge(&other.raw);
    }
}

/// The paper's stopping rule: run until the confidence interval (over batch
/// means) has relative half-width ≤ `relative_precision` at the given
/// `confidence`, subject to a minimum number of batches and an overall
/// sample cap (so experiments always terminate).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct StoppingRule {
    /// Target relative half-width, e.g. `0.01` for the paper's 1 %.
    pub relative_precision: f64,
    /// Confidence level, e.g. `0.99` for the paper's p = 0.99.
    pub confidence: f64,
    /// Never stop (on precision grounds) before this many batches.
    pub min_batches: u64,
    /// Hard cap on raw samples; reaching it stops the run regardless.
    pub max_samples: u64,
}

impl StoppingRule {
    /// The rule used throughout the paper: 1 % at p = 0.99.
    #[must_use]
    pub fn paper() -> Self {
        StoppingRule {
            relative_precision: 0.01,
            confidence: 0.99,
            min_batches: 20,
            max_samples: 2_000_000,
        }
    }

    /// A loose variant for quick smoke tests and benches (5 % at p = 0.95,
    /// small sample cap).
    #[must_use]
    pub fn quick() -> Self {
        StoppingRule {
            relative_precision: 0.05,
            confidence: 0.95,
            min_batches: 10,
            max_samples: 60_000,
        }
    }

    /// Whether a run described by `batches` may stop now.
    #[must_use]
    pub fn should_stop(&self, batches: &BatchMeans) -> bool {
        if batches.sample_count() >= self.max_samples {
            return true;
        }
        if batches.batch_count() < self.min_batches {
            return false;
        }
        batches
            .confidence_interval(self.confidence)
            .is_some_and(|ci| ci.is_within(self.relative_precision))
    }
}

impl Default for StoppingRule {
    fn default() -> Self {
        StoppingRule::paper()
    }
}

/// Lag-`k` sample autocorrelation of a series.
///
/// Steady-state simulation output is autocorrelated, which is why the
/// stopping rule works on batch means: this estimator lets you *check* that
/// a chosen batch size is large enough (the lag-1 autocorrelation of the
/// batch means should be near zero).
///
/// Returns `None` if the series is too short (`len <= lag`) or has zero
/// variance.
///
/// # Example
///
/// ```
/// use oml_des::stats::autocorrelation;
///
/// let alternating: Vec<f64> = (0..100).map(|i| (i % 2) as f64).collect();
/// let r1 = autocorrelation(&alternating, 1).unwrap();
/// assert!(r1 < -0.9); // strongly anti-correlated at lag 1
/// let r2 = autocorrelation(&alternating, 2).unwrap();
/// assert!(r2 > 0.9);
/// ```
#[must_use]
pub fn autocorrelation(xs: &[f64], lag: usize) -> Option<f64> {
    let n = xs.len();
    if lag == 0 {
        return (n > 0).then_some(1.0);
    }
    if n <= lag {
        return None;
    }
    let mean = xs.iter().sum::<f64>() / n as f64;
    let denom: f64 = xs.iter().map(|x| (x - mean).powi(2)).sum();
    if denom == 0.0 {
        return None;
    }
    let num: f64 = xs
        .windows(lag + 1)
        .map(|w| (w[0] - mean) * (w[lag] - mean))
        .sum();
    Some(num / denom)
}

/// Runs `n` independent replications of a stochastic experiment and
/// aggregates their results.
///
/// Replications are the textbook alternative to batch means: each
/// replication runs with its own derived seed, and the per-replication
/// outputs are i.i.d., so the normal-theory confidence interval over them is
/// exact in distribution. Used by the test-suite to cross-validate the
/// batch-means intervals.
///
/// # Example
///
/// ```
/// use oml_des::stats::replicate;
/// use oml_des::SimRng;
///
/// let stats = replicate(20, 42, |seed| {
///     let mut rng = SimRng::seed_from(seed);
///     (0..1000).map(|_| rng.exp(2.0)).sum::<f64>() / 1000.0
/// });
/// assert_eq!(stats.count(), 20);
/// assert!((stats.mean() - 2.0).abs() < 0.1);
/// ```
pub fn replicate<F: FnMut(u64) -> f64>(n: u64, base_seed: u64, mut experiment: F) -> OnlineStats {
    let mut stats = OnlineStats::new();
    for i in 0..n {
        stats.push(experiment(replication_seed(base_seed, i)));
    }
    stats
}

/// Seed for replication `i` of an experiment with the given base seed.
///
/// SplitMix64-style derivation keeps replication seeds decorrelated; the
/// mapping is pure, so replication `i` gets the same seed whether the
/// replications run sequentially or on any number of worker threads — the
/// cornerstone of the parallel replication runner's bit-reproducibility.
#[must_use]
pub fn replication_seed(base_seed: u64, i: u64) -> u64 {
    (base_seed ^ (i.wrapping_mul(0x9e37_79b9_7f4a_7c15))).wrapping_add(0x2545_f491_4f6c_dd1d)
}

/// Online quantile estimation with the P² algorithm (Jain & Chlamtac 1985).
///
/// Tracks one quantile in O(1) memory — no sample storage — which is what a
/// long simulation needs to report tail latencies (e.g. the p95 call time
/// inflated by blocking on in-transit objects).
///
/// # Example
///
/// ```
/// use oml_des::stats::P2Quantile;
///
/// let mut p95 = P2Quantile::new(0.95);
/// for i in 1..=10_000 {
///     p95.push(f64::from(i));
/// }
/// let v = p95.value().unwrap();
/// assert!((v - 9_500.0).abs() < 100.0);
/// ```
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct P2Quantile {
    p: f64,
    /// marker heights
    q: [f64; 5],
    /// marker positions (1-based)
    n: [f64; 5],
    /// desired marker positions
    np: [f64; 5],
    /// desired position increments
    dn: [f64; 5],
    count: u64,
    /// initial buffer until five samples arrived
    init: Vec<f64>,
}

impl P2Quantile {
    /// Creates an estimator for the `p`-quantile (`0 < p < 1`).
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside `(0, 1)`.
    #[must_use]
    pub fn new(p: f64) -> Self {
        assert!(p > 0.0 && p < 1.0, "quantile must be in (0, 1): {p}");
        P2Quantile {
            p,
            q: [0.0; 5],
            n: [1.0, 2.0, 3.0, 4.0, 5.0],
            np: [1.0, 1.0 + 2.0 * p, 1.0 + 4.0 * p, 3.0 + 2.0 * p, 5.0],
            dn: [0.0, p / 2.0, p, (1.0 + p) / 2.0, 1.0],
            count: 0,
            init: Vec::with_capacity(5),
        }
    }

    /// Adds one observation.
    ///
    /// # Panics
    ///
    /// Panics on NaN.
    pub fn push(&mut self, x: f64) {
        assert!(!x.is_nan(), "cannot accumulate NaN");
        self.count += 1;
        if self.init.len() < 5 {
            self.init.push(x);
            if self.init.len() == 5 {
                let mut sorted = self.init.clone();
                sorted.sort_by(|a, b| a.partial_cmp(b).expect("no NaN"));
                for (i, &v) in sorted.iter().enumerate() {
                    self.q[i] = v;
                }
            }
            return;
        }

        // locate the cell and clamp the extremes
        let k = if x < self.q[0] {
            self.q[0] = x;
            0
        } else if x >= self.q[4] {
            self.q[4] = x;
            3
        } else {
            (0..4)
                .find(|&i| x < self.q[i + 1])
                .expect("x is within [q0, q4)")
        };

        for i in (k + 1)..5 {
            self.n[i] += 1.0;
        }
        for i in 0..5 {
            self.np[i] += self.dn[i];
        }

        // adjust the three middle markers with parabolic interpolation
        for i in 1..4 {
            let d = self.np[i] - self.n[i];
            if (d >= 1.0 && self.n[i + 1] - self.n[i] > 1.0)
                || (d <= -1.0 && self.n[i - 1] - self.n[i] < -1.0)
            {
                let d = d.signum();
                let qp = self.parabolic(i, d);
                self.q[i] = if self.q[i - 1] < qp && qp < self.q[i + 1] {
                    qp
                } else {
                    self.linear(i, d)
                };
                self.n[i] += d;
            }
        }
    }

    fn parabolic(&self, i: usize, d: f64) -> f64 {
        let q = &self.q;
        let n = &self.n;
        q[i] + d / (n[i + 1] - n[i - 1])
            * ((n[i] - n[i - 1] + d) * (q[i + 1] - q[i]) / (n[i + 1] - n[i])
                + (n[i + 1] - n[i] - d) * (q[i] - q[i - 1]) / (n[i] - n[i - 1]))
    }

    fn linear(&self, i: usize, d: f64) -> f64 {
        let j = if d > 0.0 { i + 1 } else { i - 1 };
        self.q[i] + d * (self.q[j] - self.q[i]) / (self.n[j] - self.n[i])
    }

    /// The current quantile estimate; `None` before the first observation.
    /// With fewer than five observations an exact small-sample quantile is
    /// returned.
    #[must_use]
    pub fn value(&self) -> Option<f64> {
        if self.count == 0 {
            return None;
        }
        if self.init.len() < 5 {
            let mut sorted = self.init.clone();
            sorted.sort_by(|a, b| a.partial_cmp(b).expect("no NaN"));
            let idx = ((sorted.len() as f64 - 1.0) * self.p).round() as usize;
            return Some(sorted[idx]);
        }
        Some(self.q[2])
    }

    /// Observations seen.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn welford_matches_textbook() {
        let mut s = OnlineStats::new();
        for x in [1.0, 2.0, 3.0, 4.0, 5.0] {
            s.push(x);
        }
        assert!((s.mean() - 3.0).abs() < 1e-12);
        assert!((s.variance() - 2.5).abs() < 1e-12);
        assert_eq!(s.min(), Some(1.0));
        assert_eq!(s.max(), Some(5.0));
    }

    #[test]
    fn empty_stats_are_benign() {
        let s = OnlineStats::new();
        assert_eq!(s.count(), 0);
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.variance(), 0.0);
        assert_eq!(s.min(), None);
        assert!(s.confidence_interval(0.99).is_none());
    }

    #[test]
    fn merge_equals_sequential() {
        let xs: Vec<f64> = (0..100).map(|i| (i as f64).sin() * 10.0).collect();
        let mut all = OnlineStats::new();
        for &x in &xs {
            all.push(x);
        }
        let mut left = OnlineStats::new();
        let mut right = OnlineStats::new();
        for &x in &xs[..37] {
            left.push(x);
        }
        for &x in &xs[37..] {
            right.push(x);
        }
        left.merge(&right);
        assert!((left.mean() - all.mean()).abs() < 1e-9);
        assert!((left.variance() - all.variance()).abs() < 1e-9);
        assert_eq!(left.count(), all.count());
    }

    #[test]
    fn merge_with_empty_is_identity() {
        let mut s = OnlineStats::new();
        s.push(4.0);
        s.push(6.0);
        let snapshot = s;
        s.merge(&OnlineStats::new());
        assert_eq!(s, snapshot);
        let mut empty = OnlineStats::new();
        empty.merge(&snapshot);
        assert_eq!(empty, snapshot);
    }

    #[test]
    fn normal_quantile_known_values() {
        assert!((normal_quantile(0.5)).abs() < 1e-9);
        assert!((normal_quantile(0.975) - 1.959_963_985).abs() < 1e-6);
        assert!((normal_quantile(0.995) - 2.575_829_304).abs() < 1e-6);
        assert!((normal_quantile(0.025) + 1.959_963_985).abs() < 1e-6);
        // tail region exercises the other branch
        assert!((normal_quantile(0.001) + 3.090_232_306).abs() < 1e-5);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn quantile_rejects_zero() {
        let _ = normal_quantile(0.0);
    }

    #[test]
    fn confidence_interval_shrinks_with_samples() {
        let mut small = OnlineStats::new();
        let mut large = OnlineStats::new();
        let mut x = 0.37_f64;
        for i in 0..10_000 {
            x = (x * 997.0 + 1.0) % 13.0; // deterministic pseudo-noise
            if i < 100 {
                small.push(x);
            }
            large.push(x);
        }
        let ci_small = small.confidence_interval(0.99).unwrap();
        let ci_large = large.confidence_interval(0.99).unwrap();
        assert!(ci_large.half_width < ci_small.half_width);
    }

    #[test]
    fn relative_half_width_edge_cases() {
        let zero_mean = ConfidenceInterval {
            mean: 0.0,
            half_width: 1.0,
            confidence: 0.99,
            samples: 10,
        };
        assert!(zero_mean.relative_half_width().is_infinite());
        let degenerate = ConfidenceInterval {
            mean: 0.0,
            half_width: 0.0,
            confidence: 0.99,
            samples: 10,
        };
        assert_eq!(degenerate.relative_half_width(), 0.0);
        assert!(degenerate.is_within(0.01));
    }

    #[test]
    fn batch_means_mean_is_exact_over_full_batches() {
        let mut bm = BatchMeans::new(10);
        for i in 0..100 {
            bm.push(i as f64);
        }
        assert_eq!(bm.batch_count(), 10);
        let ci = bm.confidence_interval(0.99).unwrap();
        assert!((ci.mean - 49.5).abs() < 1e-9);
        assert_eq!(bm.sample_count(), 100);
    }

    #[test]
    fn partial_batch_not_counted() {
        let mut bm = BatchMeans::new(10);
        for i in 0..15 {
            bm.push(i as f64);
        }
        assert_eq!(bm.batch_count(), 1);
        assert_eq!(bm.sample_count(), 15);
    }

    #[test]
    fn stopping_rule_respects_min_batches() {
        let rule = StoppingRule {
            relative_precision: 0.5,
            confidence: 0.95,
            min_batches: 5,
            max_samples: 1_000_000,
        };
        let mut bm = BatchMeans::new(10);
        for _ in 0..40 {
            bm.push(1.0);
        }
        assert_eq!(bm.batch_count(), 4);
        assert!(!rule.should_stop(&bm));
        for _ in 0..10 {
            bm.push(1.0);
        }
        assert!(rule.should_stop(&bm));
    }

    #[test]
    fn stopping_rule_caps_samples() {
        let rule = StoppingRule {
            relative_precision: 1e-9,
            confidence: 0.99,
            min_batches: 10,
            max_samples: 50,
        };
        let mut bm = BatchMeans::new(10);
        let mut x = 0.1;
        for _ in 0..50 {
            x = (x * 31.0 + 7.0) % 5.0;
            bm.push(x);
        }
        assert!(rule.should_stop(&bm));
    }

    #[test]
    fn stopping_rule_constant_stream_stops_quickly() {
        let rule = StoppingRule::paper();
        let mut bm = BatchMeans::new(10);
        while !rule.should_stop(&bm) {
            bm.push(3.0);
        }
        assert!(bm.sample_count() <= 10 * rule.min_batches);
    }

    #[test]
    #[should_panic(expected = "cannot accumulate NaN")]
    fn nan_sample_panics() {
        OnlineStats::new().push(f64::NAN);
    }

    #[test]
    fn autocorrelation_of_iid_noise_is_small() {
        let mut rng = crate::SimRng::seed_from(99);
        let xs: Vec<f64> = (0..5_000).map(|_| rng.unit()).collect();
        let r1 = autocorrelation(&xs, 1).unwrap();
        assert!(r1.abs() < 0.05, "lag-1 {r1}");
    }

    #[test]
    fn autocorrelation_edge_cases() {
        assert_eq!(autocorrelation(&[], 0), None);
        assert_eq!(autocorrelation(&[1.0], 0), Some(1.0));
        assert_eq!(autocorrelation(&[1.0, 2.0], 5), None);
        // constant series: zero variance
        assert_eq!(autocorrelation(&[3.0; 10], 1), None);
    }

    #[test]
    fn autocorrelation_detects_positive_dependence() {
        // a slow ramp has high lag-1 autocorrelation
        let xs: Vec<f64> = (0..200).map(f64::from).collect();
        assert!(autocorrelation(&xs, 1).unwrap() > 0.9);
    }

    #[test]
    fn replicate_aggregates_independent_runs() {
        let stats = replicate(50, 7, |seed| (seed % 100) as f64);
        assert_eq!(stats.count(), 50);
        assert!(
            stats.variance() > 0.0,
            "seeds must differ across replications"
        );
    }

    #[test]
    fn p2_estimates_known_quantiles_of_uniform_noise() {
        let mut rng = crate::SimRng::seed_from(17);
        let mut median = P2Quantile::new(0.5);
        let mut p95 = P2Quantile::new(0.95);
        for _ in 0..100_000 {
            let x = rng.unit();
            median.push(x);
            p95.push(x);
        }
        assert!((median.value().unwrap() - 0.5).abs() < 0.02);
        assert!((p95.value().unwrap() - 0.95).abs() < 0.02);
        assert_eq!(median.count(), 100_000);
    }

    #[test]
    fn p2_exponential_median_matches_ln2() {
        let mut rng = crate::SimRng::seed_from(23);
        let mut median = P2Quantile::new(0.5);
        for _ in 0..100_000 {
            median.push(rng.exp(1.0));
        }
        assert!((median.value().unwrap() - std::f64::consts::LN_2).abs() < 0.02);
    }

    #[test]
    fn p2_small_samples_are_exact() {
        let mut q = P2Quantile::new(0.5);
        assert_eq!(q.value(), None);
        q.push(3.0);
        assert_eq!(q.value(), Some(3.0));
        q.push(1.0);
        q.push(2.0);
        // median of {1,2,3}
        assert_eq!(q.value(), Some(2.0));
    }

    #[test]
    fn p2_handles_constant_streams() {
        let mut q = P2Quantile::new(0.9);
        for _ in 0..1_000 {
            q.push(7.0);
        }
        assert_eq!(q.value(), Some(7.0));
    }

    #[test]
    #[should_panic(expected = "quantile must be in")]
    fn p2_rejects_invalid_p() {
        let _ = P2Quantile::new(1.0);
    }

    #[test]
    fn replicate_is_deterministic_in_base_seed() {
        let experiment = |seed: u64| (seed % 10_000) as f64;
        let a = replicate(10, 3, experiment);
        let b = replicate(10, 3, experiment);
        assert_eq!(a, b);
        let c = replicate(10, 4, experiment);
        assert_ne!(a.mean(), c.mean());
    }
}
