//! Throughput estimators for the ABRs that predict bandwidth:
//! - [`HarmonicMeanEstimator`]: RobustMPC's conservative predictor;
//! - [`EwmaEstimator`]: the smoothed estimate HYB-style production rules use.
//!
//! (Eq. 3's `N(mu_Cpast, sigma^2_Cpast)` is not an estimator here: the
//! player fits it over its own throughput history.)

use crate::{NetError, Result};

/// Common estimator interface over per-segment throughput observations.
pub trait BandwidthEstimator {
    /// Record one observed download throughput (kbps).
    fn observe(&mut self, kbps: f64);
    /// Current point estimate (kbps); `None` until at least one observation.
    fn estimate(&self) -> Option<f64>;
    /// Number of observations absorbed.
    fn count(&self) -> usize;
    /// Count `n` observations as absorbed without seeing them (they left
    /// the player's history window before the estimator was synced).
    fn skip(&mut self, n: usize);
}

/// Harmonic mean over a sliding window, optionally discounted by the
/// maximum recent relative prediction error (the RobustMPC trick).
#[derive(Debug, Clone, PartialEq)]
pub struct HarmonicMeanEstimator {
    window: usize,
    samples: Vec<f64>,
    errors: Vec<f64>,
    last_prediction: Option<f64>,
    total_seen: usize,
}

impl HarmonicMeanEstimator {
    /// Create with the given window length.
    pub fn new(window: usize) -> Result<Self> {
        if window == 0 {
            return Err(NetError::InvalidConfig("window must be positive".into()));
        }
        Ok(Self {
            window,
            samples: Vec::new(),
            errors: Vec::new(),
            last_prediction: None,
            total_seen: 0,
        })
    }

    /// Robust (error-discounted) estimate:
    /// the harmonic mean divided by `1 + max recent relative error`.
    pub fn robust_estimate(&self) -> Option<f64> {
        let hm = self.estimate()?;
        let max_err = self.errors.iter().cloned().fold(0.0, f64::max);
        Some(hm / (1.0 + max_err))
    }
}

impl BandwidthEstimator for HarmonicMeanEstimator {
    fn observe(&mut self, kbps: f64) {
        if !(kbps > 0.0) || !kbps.is_finite() {
            return;
        }
        if let Some(pred) = self.last_prediction {
            let err = ((pred - kbps) / kbps).abs();
            if self.errors.len() == self.window {
                self.errors.remove(0);
            }
            self.errors.push(err);
        }
        if self.samples.len() == self.window {
            self.samples.remove(0);
        }
        self.samples.push(kbps);
        self.total_seen += 1;
        self.last_prediction = self.estimate();
    }

    fn estimate(&self) -> Option<f64> {
        if self.samples.is_empty() {
            return None;
        }
        let inv_sum: f64 = self.samples.iter().map(|s| 1.0 / s).sum();
        Some(self.samples.len() as f64 / inv_sum)
    }

    fn count(&self) -> usize {
        self.total_seen
    }

    fn skip(&mut self, n: usize) {
        self.total_seen += n;
    }
}

/// Exponentially weighted moving average.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EwmaEstimator {
    alpha: f64,
    value: Option<f64>,
    total_seen: usize,
}

impl EwmaEstimator {
    /// Create with smoothing factor `alpha` in `(0, 1]` (weight of the new
    /// sample).
    pub fn new(alpha: f64) -> Result<Self> {
        if !(alpha > 0.0 && alpha <= 1.0) {
            return Err(NetError::InvalidConfig("alpha must be in (0,1]".into()));
        }
        Ok(Self {
            alpha,
            value: None,
            total_seen: 0,
        })
    }
}

impl BandwidthEstimator for EwmaEstimator {
    fn observe(&mut self, kbps: f64) {
        if !(kbps > 0.0) || !kbps.is_finite() {
            return;
        }
        self.value = Some(match self.value {
            None => kbps,
            Some(v) => self.alpha * kbps + (1.0 - self.alpha) * v,
        });
        self.total_seen += 1;
    }

    fn estimate(&self) -> Option<f64> {
        self.value
    }

    fn count(&self) -> usize {
        self.total_seen
    }

    fn skip(&mut self, n: usize) {
        self.total_seen += n;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn harmonic_mean_below_arithmetic() {
        let mut e = HarmonicMeanEstimator::new(5).unwrap();
        for v in [1000.0, 4000.0] {
            e.observe(v);
        }
        let hm = e.estimate().unwrap();
        assert!((hm - 1600.0).abs() < 1e-9); // 2/(1/1000+1/4000)
        assert!(hm < 2500.0);
    }

    #[test]
    fn robust_estimate_discounts_on_errors() {
        let mut e = HarmonicMeanEstimator::new(5).unwrap();
        // Stable then a crash: prediction error inflates the discount.
        for v in [5000.0, 5000.0, 5000.0, 1000.0] {
            e.observe(v);
        }
        let plain = e.estimate().unwrap();
        let robust = e.robust_estimate().unwrap();
        assert!(robust < plain);
    }

    #[test]
    fn ewma_converges() {
        let mut e = EwmaEstimator::new(0.5).unwrap();
        for _ in 0..20 {
            e.observe(2000.0);
        }
        assert!((e.estimate().unwrap() - 2000.0).abs() < 1.0);
        // Responds to change.
        e.observe(4000.0);
        let v = e.estimate().unwrap();
        assert!(v > 2500.0 && v < 3500.0);
    }

    #[test]
    fn constructor_validation() {
        assert!(HarmonicMeanEstimator::new(0).is_err());
        assert!(EwmaEstimator::new(0.0).is_err());
        assert!(EwmaEstimator::new(1.5).is_err());
    }
}
