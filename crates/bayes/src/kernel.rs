//! Covariance kernels for the GP surrogate.

/// Stationary kernels over unit-cube points.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Kernel {
    /// Squared-exponential `σ² exp(−r²/(2ℓ²))`.
    Rbf {
        /// Output variance σ².
        variance: f64,
        /// Length scale ℓ.
        length_scale: f64,
    },
    /// Matérn 5/2 — the standard BO kernel (less smooth than RBF).
    Matern52 {
        /// Output variance σ².
        variance: f64,
        /// Length scale ℓ.
        length_scale: f64,
    },
}

impl Kernel {
    /// A sensible default for unit-cube BO.
    pub fn default_bo() -> Self {
        Kernel::Matern52 {
            variance: 1.0,
            length_scale: 0.35,
        }
    }

    /// Covariance between two points.
    pub fn eval(&self, a: &[f64], b: &[f64]) -> f64 {
        let r2: f64 = a.iter().zip(b).map(|(x, y)| (x - y) * (x - y)).sum();
        match *self {
            Kernel::Rbf {
                variance,
                length_scale,
            } => variance * (-r2 / (2.0 * length_scale * length_scale)).exp(),
            Kernel::Matern52 {
                variance,
                length_scale,
            } => {
                let r = r2.sqrt() / length_scale;
                let s5 = 5.0f64.sqrt();
                variance * (1.0 + s5 * r + 5.0 * r * r / 3.0) * (-s5 * r).exp()
            }
        }
    }

    /// Variance at zero distance.
    pub fn variance(&self) -> f64 {
        match *self {
            Kernel::Rbf { variance, .. } | Kernel::Matern52 { variance, .. } => variance,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_covariance_is_variance() {
        let x = [0.3, 0.7];
        for k in [
            Kernel::Rbf {
                variance: 2.0,
                length_scale: 0.5,
            },
            Kernel::Matern52 {
                variance: 2.0,
                length_scale: 0.5,
            },
        ] {
            assert!((k.eval(&x, &x) - 2.0).abs() < 1e-12);
            assert_eq!(k.variance(), 2.0);
        }
    }

    #[test]
    fn covariance_decays_with_distance() {
        let k = Kernel::default_bo();
        let a = [0.0, 0.0];
        let near = [0.1, 0.0];
        let far = [0.9, 0.9];
        assert!(k.eval(&a, &near) > k.eval(&a, &far));
        assert!(k.eval(&a, &far) > 0.0);
    }

    #[test]
    fn symmetric() {
        let k = Kernel::Rbf {
            variance: 1.0,
            length_scale: 0.3,
        };
        let a = [0.1, 0.9, 0.4];
        let b = [0.7, 0.2, 0.5];
        assert!((k.eval(&a, &b) - k.eval(&b, &a)).abs() < 1e-15);
    }

    #[test]
    fn matern_less_smooth_than_rbf_mid_range() {
        // At moderate distance the Matérn kernel retains more covariance
        // tail than an RBF of the same scale.
        let rbf = Kernel::Rbf {
            variance: 1.0,
            length_scale: 0.3,
        };
        let mat = Kernel::Matern52 {
            variance: 1.0,
            length_scale: 0.3,
        };
        let a = [0.0];
        let b = [0.9];
        assert!(mat.eval(&a, &b) > rbf.eval(&a, &b));
    }
}
