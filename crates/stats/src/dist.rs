//! Probability distributions: the standard normal special functions plus
//! the parameterised normal model with fitting and sampling.
//!
//! The player simulator models past bandwidth as `N(mu, sigma^2)` (paper
//! Eq. 3) and the pre-playback pruning rule tests `mu - 3*sigma > Q_max`
//! (paper §4); both rely on this module.

use rand::Rng;

use crate::{Result, StatsError};

/// Error function `erf(x)` via the Abramowitz & Stegun 7.1.26 rational
/// approximation (max absolute error ~1.5e-7, plenty for CDF work here).
fn erf(x: f64) -> f64 {
    let sign = if x < 0.0 { -1.0 } else { 1.0 };
    let x = x.abs();
    const A1: f64 = 0.254829592;
    const A2: f64 = -0.284496736;
    const A3: f64 = 1.421413741;
    const A4: f64 = -1.453152027;
    const A5: f64 = 1.061405429;
    const P: f64 = 0.3275911;
    let t = 1.0 / (1.0 + P * x);
    let y = 1.0 - (((((A5 * t + A4) * t) + A3) * t + A2) * t + A1) * t * (-x * x).exp();
    sign * y
}

/// Standard normal probability density function.
pub fn norm_pdf(x: f64) -> f64 {
    (-(x * x) / 2.0).exp() / (2.0 * std::f64::consts::PI).sqrt()
}

/// Standard normal cumulative distribution function `Phi(x)`.
pub fn norm_cdf(x: f64) -> f64 {
    0.5 * (1.0 + erf(x / std::f64::consts::SQRT_2))
}

/// A normal distribution `N(mu, sigma^2)` with sampling and CDF access.
///
/// `sigma` may be zero, in which case the distribution is a point mass
/// (useful for deterministic bandwidth in tests).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NormalDist {
    /// Mean.
    pub mu: f64,
    /// Standard deviation (non-negative).
    pub sigma: f64,
}

impl NormalDist {
    /// Create a normal distribution; `sigma` must be non-negative and both
    /// parameters finite.
    pub fn new(mu: f64, sigma: f64) -> Result<Self> {
        if !mu.is_finite() || !sigma.is_finite() || sigma < 0.0 {
            return Err(StatsError::InvalidParameter);
        }
        Ok(Self { mu, sigma })
    }

    /// Maximum-likelihood fit from samples (population sigma).
    pub fn fit(samples: &[f64]) -> Result<Self> {
        Self::fit_slices(samples, &[])
    }

    /// [`NormalDist::fit`] over a ring buffer's two contiguous halves,
    /// visiting `front` then `back` — the deque's iteration order, so the
    /// fit is bit-identical to `fit` over the concatenation, whatever the
    /// split. A player fits its history window this way without copying it.
    pub fn fit_slices(front: &[f64], back: &[f64]) -> Result<Self> {
        Self::fit_iter(front.iter().chain(back).copied())
    }

    /// [`NormalDist::fit`] over the values `samples` yields, in order: the
    /// same sums in the same order, so bit-identical to `fit` over them
    /// collected. Iterated twice (the mean, then the spread).
    pub fn fit_iter<I>(samples: I) -> Result<Self>
    where
        I: Iterator<Item = f64> + Clone,
    {
        // `for_each` folds a chain half by half, as two plain loops would.
        let (mut n, mut sum) = (0usize, 0.0);
        samples.clone().for_each(|x| {
            n += 1;
            sum += x;
        });
        if n == 0 {
            return Err(StatsError::Empty);
        }
        let mu = sum / n as f64;
        let mut sq = 0.0;
        samples.for_each(|x| sq += (x - mu) * (x - mu));
        let var = sq / n as f64;
        Self::new(mu, var.sqrt())
    }

    /// Draw one sample using the Box-Muller transform.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        if self.sigma == 0.0 {
            return self.mu;
        }
        let u1: f64 = rng.gen_range(f64::EPSILON..1.0);
        let u2: f64 = rng.gen::<f64>();
        let z = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
        self.mu + self.sigma * z
    }

    /// Draw one sample truncated below at `lo` (simple rejection with a
    /// clamp fallback after 64 tries; adequate for the mild truncations used
    /// by the bandwidth model).
    pub fn sample_truncated_low<R: Rng + ?Sized>(&self, rng: &mut R, lo: f64) -> f64 {
        for _ in 0..64 {
            let x = self.sample(rng);
            if x >= lo {
                return x;
            }
        }
        lo
    }

    /// CDF at `x`.
    pub fn cdf(&self, x: f64) -> f64 {
        if self.sigma == 0.0 {
            return if x >= self.mu { 1.0 } else { 0.0 };
        }
        norm_cdf((x - self.mu) / self.sigma)
    }

    /// The `mu - k*sigma` lower envelope used by LingXi's pre-playback
    /// pruning test (paper §4 uses `k = 3`).
    pub fn lower_envelope(&self, k: f64) -> f64 {
        self.mu - k * self.sigma
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn fit_slices_is_split_invariant_and_equals_fit() {
        // Any front/back split of the same sequence must reproduce `fit`
        // over the whole sequence exactly — the ring-buffer contract.
        let samples = [
            3121.75,
            980.0625,
            4471.21875,
            2250.5,
            1823.109375,
            5004.0,
            777.3125,
            3999.875,
        ];
        let whole = NormalDist::fit(&samples).unwrap();
        for split in 0..=samples.len() {
            let (front, back) = samples.split_at(split);
            let fast = NormalDist::fit_slices(front, back).unwrap();
            assert_eq!(whole.mu.to_bits(), fast.mu.to_bits(), "split {split}");
            assert_eq!(whole.sigma.to_bits(), fast.sigma.to_bits(), "split {split}");
        }
        assert!(NormalDist::fit_slices(&[], &[]).is_err());
        let iterated = NormalDist::fit_iter(samples.iter().copied()).unwrap();
        assert_eq!(whole.mu.to_bits(), iterated.mu.to_bits());
        assert_eq!(whole.sigma.to_bits(), iterated.sigma.to_bits());
    }

    #[test]
    fn erf_known_values() {
        assert!((erf(0.0)).abs() < 1e-7);
        assert!((erf(1.0) - 0.8427007929).abs() < 1e-6);
        assert!((erf(-1.0) + 0.8427007929).abs() < 1e-6);
        assert!((erf(3.0) - 0.9999779095).abs() < 1e-6);
    }

    #[test]
    fn cdf_symmetry_and_known_points() {
        assert!((norm_cdf(0.0) - 0.5).abs() < 1e-9);
        assert!((norm_cdf(1.959964) - 0.975).abs() < 1e-5);
        for x in [-2.5, -1.0, -0.3, 0.7, 2.2] {
            assert!((norm_cdf(x) + norm_cdf(-x) - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn normal_sampling_moments() {
        let d = NormalDist::new(5.0, 2.0).unwrap();
        let mut rng = StdRng::seed_from_u64(7);
        let xs: Vec<f64> = (0..50_000).map(|_| d.sample(&mut rng)).collect();
        let m = crate::describe::mean(&xs).unwrap();
        let s = crate::describe::std_dev(&xs).unwrap();
        assert!((m - 5.0).abs() < 0.05, "mean {m}");
        assert!((s - 2.0).abs() < 0.05, "std {s}");
    }

    #[test]
    fn normal_fit_recovers_parameters() {
        let d = NormalDist::new(-1.5, 0.7).unwrap();
        let mut rng = StdRng::seed_from_u64(11);
        let xs: Vec<f64> = (0..40_000).map(|_| d.sample(&mut rng)).collect();
        let f = NormalDist::fit(&xs).unwrap();
        assert!((f.mu + 1.5).abs() < 0.02);
        assert!((f.sigma - 0.7).abs() < 0.02);
    }

    #[test]
    fn degenerate_normal_is_point_mass() {
        let d = NormalDist::new(3.0, 0.0).unwrap();
        let mut rng = StdRng::seed_from_u64(1);
        assert_eq!(d.sample(&mut rng), 3.0);
        assert_eq!(d.cdf(2.999), 0.0);
        assert_eq!(d.cdf(3.0), 1.0);
    }

    #[test]
    fn truncated_sampling_respects_bound() {
        let d = NormalDist::new(0.0, 1.0).unwrap();
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..1000 {
            assert!(d.sample_truncated_low(&mut rng, 0.5) >= 0.5);
        }
    }

    #[test]
    fn normal_rejects_bad_params() {
        assert!(NormalDist::new(f64::NAN, 1.0).is_err());
        assert!(NormalDist::new(0.0, -1.0).is_err());
        assert!(NormalDist::new(0.0, f64::INFINITY).is_err());
    }

    #[test]
    fn lower_envelope_matches_paper_prune_rule() {
        let d = NormalDist::new(10_000.0, 1000.0).unwrap();
        assert!((d.lower_envelope(3.0) - 7000.0).abs() < 1e-9);
    }
}
