//! Ordinary least-squares simple linear regression.
//!
//! Fig. 14's per-day trend lines between stall-exit rate and the β parameter
//! are "fitted using least squares linear regression" (paper §5.5.1).

use crate::{Result, StatsError};

/// Result of fitting `y = slope * x + intercept`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinearFit {
    /// Slope coefficient.
    pub slope: f64,
    /// Intercept coefficient.
    pub intercept: f64,
    /// Coefficient of determination in `[0, 1]`.
    pub r_squared: f64,
    /// Number of points fitted.
    pub n: usize,
}

impl LinearFit {
    /// Predicted value at `x`.
    pub fn predict(&self, x: f64) -> f64 {
        self.slope * x + self.intercept
    }
}

/// Fit a simple OLS line. Requires at least two points and non-degenerate x.
pub fn linear_fit(xs: &[f64], ys: &[f64]) -> Result<LinearFit> {
    if xs.len() != ys.len() {
        return Err(StatsError::LengthMismatch);
    }
    if xs.len() < 2 {
        return Err(StatsError::InsufficientData);
    }
    let n = xs.len() as f64;
    let mx = xs.iter().sum::<f64>() / n;
    let my = ys.iter().sum::<f64>() / n;
    let mut sxx = 0.0;
    let mut sxy = 0.0;
    let mut syy = 0.0;
    for (&x, &y) in xs.iter().zip(ys) {
        sxx += (x - mx) * (x - mx);
        sxy += (x - mx) * (y - my);
        syy += (y - my) * (y - my);
    }
    if sxx == 0.0 {
        return Err(StatsError::InsufficientData);
    }
    let slope = sxy / sxx;
    let intercept = my - slope * mx;
    let r_squared = if syy == 0.0 {
        1.0 // all y identical: the flat line explains everything
    } else {
        (sxy * sxy) / (sxx * syy)
    };
    Ok(LinearFit {
        slope,
        intercept,
        r_squared,
        n: xs.len(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_line_recovered() {
        let xs = [0.0, 1.0, 2.0, 3.0];
        let ys: Vec<f64> = xs.iter().map(|x| 3.0 * x - 1.0).collect();
        let f = linear_fit(&xs, &ys).unwrap();
        assert!((f.slope - 3.0).abs() < 1e-12);
        assert!((f.intercept + 1.0).abs() < 1e-12);
        assert!((f.r_squared - 1.0).abs() < 1e-12);
        assert!((f.predict(10.0) - 29.0).abs() < 1e-12);
    }

    #[test]
    fn noisy_line_r2_below_one() {
        let xs = [0.0, 1.0, 2.0, 3.0, 4.0];
        let ys = [0.1, 0.9, 2.2, 2.8, 4.1];
        let f = linear_fit(&xs, &ys).unwrap();
        assert!(f.slope > 0.9 && f.slope < 1.1);
        assert!(f.r_squared > 0.95 && f.r_squared < 1.0);
    }

    #[test]
    fn flat_y_has_zero_slope() {
        let xs = [1.0, 2.0, 3.0];
        let ys = [5.0, 5.0, 5.0];
        let f = linear_fit(&xs, &ys).unwrap();
        assert_eq!(f.slope, 0.0);
        assert_eq!(f.intercept, 5.0);
        assert_eq!(f.r_squared, 1.0);
    }

    #[test]
    fn degenerate_inputs_error() {
        assert!(linear_fit(&[1.0], &[1.0]).is_err());
        assert!(linear_fit(&[1.0, 1.0], &[1.0, 2.0]).is_err());
        assert!(linear_fit(&[1.0, 2.0], &[1.0]).is_err());
    }
}
