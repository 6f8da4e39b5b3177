//! Round-trip-time model.
//!
//! Eq. 3 adds an RTT term to the inter-segment waiting time; production
//! links see a base propagation delay plus jitter.

use rand::Rng;

use crate::{NetError, Result};

/// RTT = `base + Exp(jitter_mean)` seconds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RttModel {
    /// Base (propagation) RTT in seconds.
    pub base_seconds: f64,
    /// Mean of the exponential jitter component, seconds (0 disables).
    pub jitter_mean: f64,
}

impl RttModel {
    /// Typical mobile CDN path: 40 ms base, 10 ms mean jitter.
    pub fn default_mobile() -> Self {
        Self {
            base_seconds: 0.040,
            jitter_mean: 0.010,
        }
    }

    /// Deterministic RTT (no jitter) for tests.
    pub fn constant(seconds: f64) -> Self {
        Self {
            base_seconds: seconds,
            jitter_mean: 0.0,
        }
    }

    /// Validate parameters.
    pub fn validate(&self) -> Result<()> {
        if !(self.base_seconds >= 0.0) || !(self.jitter_mean >= 0.0) {
            return Err(NetError::InvalidConfig(
                "RTT components must be non-negative".into(),
            ));
        }
        Ok(())
    }

    /// Draw one RTT sample (seconds).
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        let jitter = if self.jitter_mean == 0.0 {
            0.0
        } else {
            let u: f64 = rng.gen_range(f64::EPSILON..1.0);
            -self.jitter_mean * u.ln()
        };
        self.base_seconds + jitter
    }

    /// Expected RTT (seconds).
    pub fn mean(&self) -> f64 {
        self.base_seconds + self.jitter_mean
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn constant_rtt() {
        let r = RttModel::constant(0.05);
        let mut rng = StdRng::seed_from_u64(1);
        assert_eq!(r.sample(&mut rng), 0.05);
        assert_eq!(r.mean(), 0.05);
    }

    #[test]
    fn jitter_mean_converges() {
        let r = RttModel::default_mobile();
        let mut rng = StdRng::seed_from_u64(2);
        let n = 50_000;
        let m: f64 = (0..n).map(|_| r.sample(&mut rng)).sum::<f64>() / n as f64;
        assert!((m - r.mean()).abs() < 0.001, "mean {m}");
    }

    #[test]
    fn samples_never_below_base() {
        let r = RttModel::default_mobile();
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..1000 {
            assert!(r.sample(&mut rng) >= r.base_seconds);
        }
    }

    #[test]
    fn validation() {
        assert!(RttModel::constant(-0.1).validate().is_err());
        assert!(RttModel::default_mobile().validate().is_ok());
    }
}
