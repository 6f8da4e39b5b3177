//! The covariance kernel of the GP surrogate.

/// Matérn 5/2 — the standard BO kernel — over unit-cube points.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Kernel {
    /// Output variance σ².
    pub variance: f64,
    /// Length scale ℓ.
    pub length_scale: f64,
}

impl Kernel {
    /// A sensible default for unit-cube BO.
    pub fn default_bo() -> Self {
        Kernel {
            variance: 1.0,
            length_scale: 0.35,
        }
    }

    /// Covariance between two points.
    pub fn eval(&self, a: &[f64], b: &[f64]) -> f64 {
        let r2: f64 = a.iter().zip(b).map(|(x, y)| (x - y) * (x - y)).sum();
        let r = r2.sqrt() / self.length_scale;
        let s5 = 5.0f64.sqrt();
        self.variance * (1.0 + s5 * r + 5.0 * r * r / 3.0) * (-s5 * r).exp()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_covariance_is_variance() {
        let x = [0.3, 0.7];
        let k = Kernel {
            variance: 2.0,
            length_scale: 0.5,
        };
        assert!((k.eval(&x, &x) - 2.0).abs() < 1e-12);
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
        let k = Kernel {
            variance: 1.0,
            length_scale: 0.3,
        };
        let a = [0.1, 0.9, 0.4];
        let b = [0.7, 0.2, 0.5];
        assert!((k.eval(&a, &b) - k.eval(&b, &a)).abs() < 1e-15);
    }
}
