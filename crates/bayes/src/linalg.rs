//! Minimal dense linear algebra: Cholesky factorization and triangular
//! solves — all a Gaussian process needs.

use crate::{BayesError, Result};

/// Lower-triangular Cholesky factor `L` of a symmetric positive-definite
/// matrix `A = L Lᵀ`, stored row-major.
#[derive(Debug, Clone, PartialEq)]
pub struct Cholesky {
    n: usize,
    l: Vec<f64>,
}

impl Cholesky {
    /// Factor a symmetric matrix given row-major (only the lower triangle
    /// is read). Fails if a pivot is non-positive.
    pub fn factor(a: &[f64], n: usize) -> Result<Self> {
        if a.len() != n * n || n == 0 {
            return Err(BayesError::InvalidConfig(format!("matrix must be {n}x{n}")));
        }
        let mut l = vec![0.0; n * n];
        for i in 0..n {
            for j in 0..=i {
                let mut sum = a[i * n + j];
                for k in 0..j {
                    sum -= l[i * n + k] * l[j * n + k];
                }
                if i == j {
                    if sum <= 0.0 || !sum.is_finite() {
                        return Err(BayesError::NotPositiveDefinite);
                    }
                    l[i * n + j] = sum.sqrt();
                } else {
                    l[i * n + j] = sum / l[j * n + j];
                }
            }
        }
        Ok(Self { n, l })
    }

    /// Row `i` of `L` (zero above the diagonal).
    pub(crate) fn factor_row(&self, i: usize) -> &[f64] {
        &self.l[i * self.n..(i + 1) * self.n]
    }

    /// Solve `L y = b` (forward substitution).
    pub fn solve_lower(&self, b: &[f64]) -> Result<Vec<f64>> {
        if b.len() != self.n {
            return Err(BayesError::InvalidConfig("rhs length mismatch".into()));
        }
        let mut y = vec![0.0; self.n];
        for i in 0..self.n {
            let mut sum = b[i];
            for (k, &yk) in y.iter().enumerate().take(i) {
                sum -= self.l[i * self.n + k] * yk;
            }
            y[i] = sum / self.l[i * self.n + i];
        }
        Ok(y)
    }

    /// Solve `Lᵀ x = y` (back substitution).
    fn solve_upper(&self, y: &[f64]) -> Result<Vec<f64>> {
        if y.len() != self.n {
            return Err(BayesError::InvalidConfig("rhs length mismatch".into()));
        }
        let mut x = vec![0.0; self.n];
        for i in (0..self.n).rev() {
            let mut sum = y[i];
            for (k, &xk) in x.iter().enumerate().skip(i + 1) {
                sum -= self.l[k * self.n + i] * xk;
            }
            x[i] = sum / self.l[i * self.n + i];
        }
        Ok(x)
    }

    /// Solve `A x = b` via the two triangular solves.
    pub fn solve(&self, b: &[f64]) -> Result<Vec<f64>> {
        self.solve_upper(&self.solve_lower(b)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn factor_known_matrix() {
        // A = [[4,2],[2,3]] → L = [[2,0],[1,sqrt(2)]].
        let a = vec![4.0, 2.0, 2.0, 3.0];
        let ch = Cholesky::factor(&a, 2).unwrap();
        assert!((ch.l[0] - 2.0).abs() < 1e-12);
        assert!((ch.l[2] - 1.0).abs() < 1e-12);
        assert!((ch.l[3] - 2.0f64.sqrt()).abs() < 1e-12);
    }

    #[test]
    fn solve_recovers_solution() {
        // A x = b with known x.
        let a = vec![4.0, 2.0, 2.0, 3.0];
        let x_true = [1.0, -2.0];
        let b = [4.0 * 1.0 + 2.0 * -2.0, 2.0 * 1.0 + 3.0 * -2.0];
        let ch = Cholesky::factor(&a, 2).unwrap();
        let x = ch.solve(&b).unwrap();
        assert!((x[0] - x_true[0]).abs() < 1e-12);
        assert!((x[1] - x_true[1]).abs() < 1e-12);
    }

    #[test]
    fn non_pd_detected() {
        let a = vec![1.0, 2.0, 2.0, 1.0]; // eigenvalues 3, -1
        assert_eq!(
            Cholesky::factor(&a, 2).unwrap_err(),
            BayesError::NotPositiveDefinite
        );
    }

    #[test]
    fn dimension_validation() {
        assert!(Cholesky::factor(&[1.0], 2).is_err());
        assert!(Cholesky::factor(&[], 0).is_err());
        let ch = Cholesky::factor(&[4.0], 1).unwrap();
        assert!(ch.solve(&[1.0, 2.0]).is_err());
    }

    #[test]
    fn larger_system_random_spd() {
        // Build SPD as B Bᵀ + I.
        let n = 6;
        let mut b_mat = vec![0.0; n * n];
        let mut seed = 42u64;
        let mut next = || {
            seed = seed
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((seed >> 33) as f64 / (1u64 << 31) as f64) - 1.0
        };
        for v in b_mat.iter_mut() {
            *v = next();
        }
        let mut a = vec![0.0; n * n];
        for i in 0..n {
            for j in 0..n {
                let mut s = if i == j { 1.0 } else { 0.0 };
                for k in 0..n {
                    s += b_mat[i * n + k] * b_mat[j * n + k];
                }
                a[i * n + j] = s;
            }
        }
        let x_true: Vec<f64> = (0..n).map(|i| i as f64 - 2.5).collect();
        let mut b = vec![0.0; n];
        for i in 0..n {
            for j in 0..n {
                b[i] += a[i * n + j] * x_true[j];
            }
        }
        let ch = Cholesky::factor(&a, n).unwrap();
        let x = ch.solve(&b).unwrap();
        for (xi, ti) in x.iter().zip(&x_true) {
            assert!((xi - ti).abs() < 1e-9);
        }
    }
}
