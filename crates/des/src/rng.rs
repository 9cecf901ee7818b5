//! Seeded randomness and the distributions used by the paper's model.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A deterministic random source for simulations.
///
/// All stochastic quantities in the paper's model (message durations, call
/// counts, think times, block gaps) are exponentially distributed; this type
/// provides [`SimRng::exp`] for those plus a few helpers for placing objects.
/// Seeding makes every run reproducible, which the test-suite and the
/// confidence-interval comparisons rely on.
///
/// # Example
///
/// ```
/// use oml_des::SimRng;
///
/// let mut a = SimRng::seed_from(42);
/// let mut b = SimRng::seed_from(42);
/// assert_eq!(a.exp(1.0), b.exp(1.0));
/// assert!(a.exp(6.0) >= 0.0);
/// ```
#[derive(Debug, Clone)]
pub struct SimRng {
    inner: StdRng,
}

impl SimRng {
    /// Creates a generator from a 64-bit seed.
    #[must_use]
    pub fn seed_from(seed: u64) -> Self {
        SimRng {
            inner: StdRng::seed_from_u64(seed),
        }
    }

    /// Draws from the exponential distribution with the given `mean`.
    ///
    /// A mean of zero is allowed and always yields zero, which models the
    /// degenerate "deterministic, instantaneous" case used in tests.
    ///
    /// # Panics
    ///
    /// Panics if `mean` is negative or not finite.
    pub fn exp(&mut self, mean: f64) -> f64 {
        assert!(
            mean.is_finite() && mean >= 0.0,
            "invalid exponential mean: {mean}"
        );
        if mean == 0.0 {
            return 0.0;
        }
        // Inverse-CDF sampling; gen::<f64>() ∈ [0, 1), so 1 − u ∈ (0, 1] and
        // the logarithm is finite.
        let u: f64 = self.inner.gen();
        -mean * (1.0 - u).ln()
    }

    /// Draws a positive integer from the geometric-like discretization of an
    /// exponential with the given mean: `max(1, round(exp(mean)))`.
    ///
    /// The paper draws the number of calls in a move-block (`N`) from an
    /// exponential distribution; a block always contains at least one call.
    pub fn exp_count(&mut self, mean: f64) -> u64 {
        let x = self.exp(mean);
        (x.round() as u64).max(1)
    }

    /// Draws uniformly from `[0, n)`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn below(&mut self, n: usize) -> usize {
        assert!(n > 0, "cannot sample from an empty range");
        self.inner.gen_range(0..n)
    }

    /// Picks a uniformly random element of `slice`.
    ///
    /// # Panics
    ///
    /// Panics if `slice` is empty.
    pub fn pick<'a, T>(&mut self, slice: &'a [T]) -> &'a T {
        &slice[self.below(slice.len())]
    }

    /// Draws a uniform `f64` in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        self.inner.gen()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = SimRng::seed_from(7);
        let mut b = SimRng::seed_from(7);
        for _ in 0..100 {
            assert_eq!(a.exp(2.0), b.exp(2.0));
            assert_eq!(a.below(10), b.below(10));
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = SimRng::seed_from(1);
        let mut b = SimRng::seed_from(2);
        let same = (0..32).filter(|_| a.exp(1.0) == b.exp(1.0)).count();
        assert!(same < 32);
    }

    #[test]
    fn exp_mean_is_roughly_right() {
        let mut rng = SimRng::seed_from(123);
        let n = 200_000;
        let sum: f64 = (0..n).map(|_| rng.exp(6.0)).sum();
        let mean = sum / n as f64;
        assert!((mean - 6.0).abs() < 0.1, "sample mean {mean}");
    }

    #[test]
    fn exp_zero_mean_is_zero() {
        let mut rng = SimRng::seed_from(5);
        assert_eq!(rng.exp(0.0), 0.0);
    }

    #[test]
    fn exp_count_is_at_least_one() {
        let mut rng = SimRng::seed_from(9);
        for _ in 0..1_000 {
            assert!(rng.exp_count(0.3) >= 1);
        }
    }

    #[test]
    fn exp_count_mean_tracks_parameter() {
        let mut rng = SimRng::seed_from(11);
        let n = 100_000;
        let sum: u64 = (0..n).map(|_| rng.exp_count(8.0)).sum();
        let mean = sum as f64 / n as f64;
        assert!((mean - 8.0).abs() < 0.25, "sample mean {mean}");
    }

    #[test]
    fn below_stays_in_range() {
        let mut rng = SimRng::seed_from(3);
        for _ in 0..1_000 {
            assert!(rng.below(7) < 7);
        }
    }

    #[test]
    #[should_panic(expected = "invalid exponential mean")]
    fn negative_mean_panics() {
        SimRng::seed_from(0).exp(-1.0);
    }

    #[test]
    #[should_panic(expected = "empty range")]
    fn below_zero_panics() {
        SimRng::seed_from(0).below(0);
    }
}
