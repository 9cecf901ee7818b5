//! Zipf-distributed object popularity.
//!
//! The mega scenario needs a popularity law over millions of objects:
//! `P(rank = k) ∝ k^{-s}`. A CDF table at that scale costs memory and cache
//! misses, so this sampler uses **rejection inversion** (Hörmann &
//! Derflinger, "Rejection-inversion to generate variates from monotone
//! discrete distributions", 1996): invert the integral of the continuous
//! envelope `h(x) = x^{-s}`, round to the nearest integer rank, and accept
//! with a test that is exact for the discrete target. Setup is O(1), each
//! sample is O(1) expected with a handful of float ops, and the only input
//! is the simulation's own seeded [`SimRng`] — so the sample stream is a
//! pure function of the seed.

use oml_des::SimRng;

/// A sampler for `P(rank = k) ∝ k^{-s}` over ranks `1..=n`.
///
/// # Example
///
/// ```
/// use oml_des::SimRng;
/// use oml_workload::zipf::Zipf;
///
/// let zipf = Zipf::new(1_000, 1.0);
/// let mut rng = SimRng::seed_from(7);
/// let rank = zipf.sample(&mut rng);
/// assert!((1..=1_000).contains(&rank));
/// ```
#[derive(Debug, Clone, Copy)]
pub struct Zipf {
    n: u64,
    exponent: f64,
    /// `H(1.5) - h(1)`: the left edge of the inversion interval.
    h_x1: f64,
    /// `H(n + 0.5)`: the right edge of the inversion interval.
    h_n: f64,
    /// Shortcut acceptance threshold `2 - H⁻¹(H(2.5) - h(2))`.
    shortcut: f64,
}

impl Zipf {
    /// Creates a sampler over ranks `1..=n` with the given exponent.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` or the exponent is not a positive, finite number.
    #[must_use]
    pub fn new(n: u64, exponent: f64) -> Self {
        assert!(n > 0, "a Zipf law needs at least one rank");
        assert!(
            exponent.is_finite() && exponent > 0.0,
            "Zipf exponent must be positive and finite, got {exponent}"
        );
        let mut z = Zipf {
            n,
            exponent,
            h_x1: 0.0,
            h_n: 0.0,
            shortcut: 0.0,
        };
        z.h_x1 = z.h_integral(1.5) - z.h(1.0);
        z.h_n = z.h_integral(n as f64 + 0.5);
        z.shortcut = 2.0 - z.h_integral_inverse(z.h_integral(2.5) - z.h(2.0));
        z
    }

    /// Number of ranks.
    #[must_use]
    pub fn ranks(&self) -> u64 {
        self.n
    }

    /// The envelope density `h(x) = x^{-s}`.
    fn h(&self, x: f64) -> f64 {
        x.powf(-self.exponent)
    }

    /// `H(x) = ∫ h`, continuous and strictly increasing.
    fn h_integral(&self, x: f64) -> f64 {
        if self.exponent == 1.0 {
            x.ln()
        } else {
            (x.powf(1.0 - self.exponent) - 1.0) / (1.0 - self.exponent)
        }
    }

    /// `H⁻¹(u)`, the inverse of [`Zipf::h_integral`].
    fn h_integral_inverse(&self, u: f64) -> f64 {
        if self.exponent == 1.0 {
            u.exp()
        } else {
            // clamp guards the tail against rounding below the domain edge
            let t = (u * (1.0 - self.exponent)).max(-1.0);
            (1.0 + t).powf(1.0 / (1.0 - self.exponent))
        }
    }

    /// Draws one rank in `1..=n`.
    pub fn sample(&self, rng: &mut SimRng) -> u64 {
        loop {
            // u uniform on (h_x1, h_n]; H⁻¹ maps it back onto the envelope
            let u = self.h_n + rng.unit() * (self.h_x1 - self.h_n);
            let x = self.h_integral_inverse(u);
            let k = (x + 0.5).floor().clamp(1.0, self.n as f64);
            // the shortcut accepts the bulk; the exact test handles the rest
            if k - x <= self.shortcut || u >= self.h_integral(k + 0.5) - self.h(k) {
                return k as u64;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn frequencies(n: u64, exponent: f64, samples: u64, seed: u64) -> Vec<u64> {
        let zipf = Zipf::new(n, exponent);
        let mut rng = SimRng::seed_from(seed);
        let mut counts = vec![0u64; n as usize];
        for _ in 0..samples {
            counts[(zipf.sample(&mut rng) - 1) as usize] += 1;
        }
        counts
    }

    #[test]
    fn rank_frequency_follows_the_power_law() {
        // with s = 1, rank 1 should be ~2x rank 2 and ~4x rank 4
        let counts = frequencies(1_000, 1.0, 200_000, 0x5eed);
        let ratio21 = counts[0] as f64 / counts[1] as f64;
        let ratio41 = counts[0] as f64 / counts[3] as f64;
        assert!((ratio21 - 2.0).abs() < 0.2, "f(1)/f(2) = {ratio21}");
        assert!((ratio41 - 4.0).abs() < 0.4, "f(1)/f(4) = {ratio41}");
    }

    #[test]
    fn steeper_exponent_concentrates_mass() {
        let flat = frequencies(100, 0.5, 50_000, 1);
        let steep = frequencies(100, 2.0, 50_000, 1);
        assert!(steep[0] > flat[0], "steeper law must favor rank 1 more");
        // s = 2 puts ~61% of all mass on rank 1 (1/ζ(2) ≈ 0.608)
        assert!(steep[0] as f64 / 50_000.0 > 0.55);
    }

    #[test]
    fn single_rank_is_degenerate() {
        let zipf = Zipf::new(1, 1.0);
        let mut rng = SimRng::seed_from(3);
        for _ in 0..100 {
            assert_eq!(zipf.sample(&mut rng), 1);
        }
    }

    #[test]
    fn million_rank_sampling_is_cheap_and_in_range() {
        let zipf = Zipf::new(1_000_000, 1.0);
        let mut rng = SimRng::seed_from(9);
        let mut max_seen = 0;
        for _ in 0..10_000 {
            let k = zipf.sample(&mut rng);
            assert!((1..=1_000_000).contains(&k));
            max_seen = max_seen.max(k);
        }
        // the tail is thin but not dead: some sample lands past rank 10⁴
        assert!(max_seen > 10_000, "max rank seen: {max_seen}");
    }

    proptest! {
        #[test]
        fn samples_stay_in_range_and_replay_exactly(
            n in 1u64..50_000,
            exponent in 0.2f64..3.0,
            seed in any::<u64>(),
        ) {
            let zipf = Zipf::new(n, exponent);
            let mut a = SimRng::seed_from(seed);
            let mut b = SimRng::seed_from(seed);
            for _ in 0..64 {
                let ka = zipf.sample(&mut a);
                let kb = zipf.sample(&mut b);
                // deterministic: the same seed yields the same rank stream
                prop_assert_eq!(ka, kb);
                prop_assert!((1..=n).contains(&ka));
            }
        }

        #[test]
        fn head_outweighs_tail(seed in any::<u64>()) {
            // rank-frequency sanity under any seed: the first decile of
            // ranks collects most samples at s = 1.2
            let counts = frequencies(100, 1.2, 2_000, seed);
            let head: u64 = counts[..10].iter().sum();
            let tail: u64 = counts[10..].iter().sum();
            prop_assert!(head > tail, "head {} vs tail {}", head, tail);
        }
    }
}
