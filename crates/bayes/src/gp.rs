//! Gaussian-process regression — the OBO surrogate model.

use crate::kernel::Kernel;
use crate::linalg::Cholesky;
use crate::{BayesError, Result};

/// GP configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GpConfig {
    /// Covariance kernel.
    pub kernel: Kernel,
    /// Observation noise variance (also numerical jitter).
    pub noise: f64,
}

impl GpConfig {
    /// Fails unless the noise, the kernel variance and the length scale
    /// are all positive and finite: any other value fails every fit.
    pub(crate) fn validate(&self) -> Result<()> {
        let k = self.kernel;
        if [self.noise, k.variance, k.length_scale]
            .iter()
            .all(|&v| v > 0.0 && v.is_finite())
        {
            return Ok(());
        }
        Err(BayesError::InvalidConfig(
            "noise, kernel variance and length scale must be positive and finite".into(),
        ))
    }
}

impl Default for GpConfig {
    fn default() -> Self {
        Self {
            kernel: Kernel::default_bo(),
            noise: 1e-4,
        }
    }
}

/// A fitted GP posterior over observations `(X, y)`.
///
/// Internally standardizes `y` (zero mean, unit variance) so kernel
/// hyper-parameters stay meaningful whatever the objective's scale.
#[derive(Debug, Clone)]
pub struct GpModel {
    config: GpConfig,
    x: Vec<Vec<f64>>,
    /// Standardisation constants.
    y_mean: f64,
    y_std: f64,
    /// `K⁻¹ (y − mean)` in standardized space.
    alpha: Vec<f64>,
    chol: Cholesky,
}

impl GpModel {
    /// Fit a GP to observations. Requires at least one point; all points
    /// must share a dimension.
    pub fn fit(config: GpConfig, x: &[Vec<f64>], y: &[f64]) -> Result<Self> {
        if x.is_empty() || x.len() != y.len() {
            return Err(BayesError::InvalidConfig(
                "need equal, non-zero numbers of points and targets".into(),
            ));
        }
        let dim = x[0].len();
        if dim == 0 || x.iter().any(|p| p.len() != dim) {
            return Err(BayesError::InvalidConfig("inconsistent dimensions".into()));
        }
        config.validate()?;
        let n = x.len();
        let y_mean = y.iter().sum::<f64>() / n as f64;
        let var = y.iter().map(|v| (v - y_mean) * (v - y_mean)).sum::<f64>() / n as f64;
        let y_std = var.sqrt().max(1e-9);
        let y_st: Vec<f64> = y.iter().map(|v| (v - y_mean) / y_std).collect();

        let mut k = vec![0.0; n * n];
        for i in 0..n {
            for j in 0..=i {
                let v = config.kernel.eval(&x[i], &x[j]);
                k[i * n + j] = v;
                k[j * n + i] = v;
            }
            k[i * n + i] += config.noise;
        }
        // Jitter escalation on PD failure.
        let mut jitter = 0.0;
        let chol = loop {
            let mut kj = k.clone();
            if jitter > 0.0 {
                for i in 0..n {
                    kj[i * n + i] += jitter;
                }
            }
            match Cholesky::factor(&kj, n) {
                Ok(c) => break c,
                Err(BayesError::NotPositiveDefinite) if jitter < 1e-2 => {
                    jitter = if jitter == 0.0 { 1e-8 } else { jitter * 100.0 };
                }
                Err(e) => return Err(e),
            }
        };
        let alpha = chol.solve(&y_st)?;
        Ok(Self {
            config,
            x: x.to_vec(),
            y_mean,
            y_std,
            alpha,
            chol,
        })
    }

    /// Posterior mean and variance at `q` (in the original `y` scale).
    pub fn predict(&self, q: &[f64]) -> Result<(f64, f64)> {
        if q.len() != self.x[0].len() {
            return Err(BayesError::InvalidConfig("query dimension mismatch".into()));
        }
        Ok(self.predict_into(q, &mut Vec::new()))
    }

    /// [`GpModel::predict`] into a caller-owned solve buffer `v`, for
    /// scoring many queries against one fit without allocating.
    ///
    /// `q` must have the fitted dimension (the caller's contract; `fit`
    /// checked every observation). One pass over the observations builds
    /// the kernel vector `k_q` a row at a time, accumulates the mean
    /// `k_qᵀα` and forward-solves `v = L⁻¹ k_q` in place, in the operation
    /// order of the separate kernel-vector / dot-product / `solve_lower`
    /// steps — so the result is bit-identical to them.
    pub fn predict_into(&self, q: &[f64], v: &mut Vec<f64>) -> (f64, f64) {
        debug_assert_eq!(q.len(), self.x[0].len(), "query dimension mismatch");
        v.clear();
        // `Iterator::sum` over f64 folds from -0.0; the fused
        // accumulators start there too.
        let mut mean_st = -0.0;
        let mut v_norm2 = -0.0;
        for (i, (p, a)) in self.x.iter().zip(&self.alpha).enumerate() {
            let kq = self.config.kernel.eval(p, q);
            mean_st += kq * a;
            // var = k(q,q) − kqᵀ K⁻¹ kq via v = L⁻¹ kq.
            let row = &self.chol.factor_row(i)[..=i];
            let mut sum = kq;
            for (l, &vk) in row[..i].iter().zip(v.iter()) {
                sum -= l * vk;
            }
            let vi = sum / row[i];
            v.push(vi);
            v_norm2 += vi * vi;
        }
        let var_st = (self.config.kernel.variance - v_norm2).max(1e-12);
        (
            mean_st * self.y_std + self.y_mean,
            var_st * self.y_std * self.y_std,
        )
    }

    /// Number of observations.
    pub fn n_observations(&self) -> usize {
        self.x.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fit_sine(n: usize) -> (GpModel, Vec<Vec<f64>>, Vec<f64>) {
        let x: Vec<Vec<f64>> = (0..n).map(|i| vec![i as f64 / (n - 1) as f64]).collect();
        let y: Vec<f64> = x
            .iter()
            .map(|p| (2.0 * std::f64::consts::PI * p[0]).sin())
            .collect();
        let gp = GpModel::fit(GpConfig::default(), &x, &y).unwrap();
        (gp, x, y)
    }

    #[test]
    fn interpolates_training_points() {
        let (gp, x, y) = fit_sine(9);
        for (p, target) in x.iter().zip(&y) {
            let (mean, var) = gp.predict(p).unwrap();
            assert!((mean - target).abs() < 0.05, "mean {mean} vs {target}");
            assert!(var < 0.05, "var {var}");
        }
    }

    #[test]
    fn uncertainty_grows_away_from_data() {
        let x = vec![vec![0.2], vec![0.3]];
        let y = vec![1.0, 1.2];
        let gp = GpModel::fit(GpConfig::default(), &x, &y).unwrap();
        let (_, var_near) = gp.predict(&[0.25]).unwrap();
        let (_, var_far) = gp.predict(&[0.95]).unwrap();
        assert!(var_far > var_near * 3.0, "near {var_near} far {var_far}");
    }

    #[test]
    fn predictions_reasonable_between_points() {
        let (gp, _, _) = fit_sine(15);
        let (mean, _) = gp.predict(&[0.25]).unwrap();
        assert!((mean - 1.0).abs() < 0.1, "sin peak ~1, got {mean}");
    }

    #[test]
    fn constant_targets_handled() {
        // Zero variance targets: standardization must not blow up.
        let x = vec![vec![0.1], vec![0.5], vec![0.9]];
        let y = vec![3.0, 3.0, 3.0];
        let gp = GpModel::fit(GpConfig::default(), &x, &y).unwrap();
        let (mean, var) = gp.predict(&[0.3]).unwrap();
        assert!((mean - 3.0).abs() < 1e-6);
        assert!(var.is_finite());
    }

    #[test]
    fn validation_errors() {
        assert!(GpModel::fit(GpConfig::default(), &[], &[]).is_err());
        assert!(GpModel::fit(GpConfig::default(), &[vec![0.1]], &[1.0, 2.0]).is_err());
        assert!(GpModel::fit(
            GpConfig::default(),
            &[vec![0.1], vec![0.1, 0.2]],
            &[1.0, 2.0]
        )
        .is_err());
        let bad = GpConfig {
            noise: 0.0,
            ..GpConfig::default()
        };
        assert!(GpModel::fit(bad, &[vec![0.1]], &[1.0]).is_err());
        let infinite_noise = GpConfig {
            noise: f64::INFINITY,
            ..GpConfig::default()
        };
        assert!(matches!(
            GpModel::fit(infinite_noise, &[vec![0.1]], &[1.0]),
            Err(BayesError::InvalidConfig(_))
        ));
        let gp = GpModel::fit(GpConfig::default(), &[vec![0.1]], &[1.0]).unwrap();
        assert!(gp.predict(&[0.1, 0.2]).is_err());
    }

    /// The fused posterior is bit-identical to the separate kernel-vector,
    /// dot-product and `solve_lower` steps it replaces, through a reused
    /// buffer.
    #[test]
    fn predict_into_matches_the_unfused_steps() {
        let x: Vec<Vec<f64>> = (0..7)
            .map(|i| vec![(i as f64 * 0.37) % 1.0, (i as f64 * 0.61) % 1.0])
            .collect();
        let y: Vec<f64> = x.iter().map(|p| (p[0] - 0.3).powi(2) - p[1]).collect();
        let gp = GpModel::fit(GpConfig::default(), &x, &y).unwrap();
        let mut v = Vec::new();
        for j in 0..50 {
            let q = [(j as f64 * 0.173) % 1.0, (j as f64 * 0.291) % 1.0];
            let kq: Vec<f64> = gp.x.iter().map(|p| gp.config.kernel.eval(p, &q)).collect();
            let mean_st: f64 = kq.iter().zip(&gp.alpha).map(|(a, b)| a * b).sum();
            let solved = gp.chol.solve_lower(&kq).unwrap();
            let var_st =
                (gp.config.kernel.variance - solved.iter().map(|x| x * x).sum::<f64>()).max(1e-12);
            let (mean, var) = gp.predict_into(&q, &mut v);
            assert_eq!(mean.to_bits(), (mean_st * gp.y_std + gp.y_mean).to_bits());
            assert_eq!(var.to_bits(), (var_st * gp.y_std * gp.y_std).to_bits());
            assert_eq!(v, solved);
        }
    }

    #[test]
    fn duplicate_points_fit_with_jitter() {
        let x = vec![vec![0.5], vec![0.5], vec![0.5]];
        let y = vec![1.0, 1.1, 0.9];
        let gp = GpModel::fit(GpConfig::default(), &x, &y).unwrap();
        let (mean, _) = gp.predict(&[0.5]).unwrap();
        assert!((mean - 1.0).abs() < 0.1);
    }
}
