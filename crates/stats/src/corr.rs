//! The Pearson correlation coefficient.
//!
//! §5.5.1 of the paper reports Pearson correlations between users' daily
//! stall-exit rates and the β parameter LingXi assigns them (range −0.23 to
//! −0.52 across days); Fig. 14 is regenerated with [`pearson`].

use crate::{Result, StatsError};

/// Pearson product-moment correlation coefficient.
///
/// Errors if the slices differ in length, have fewer than two points, or
/// either side has zero variance.
pub fn pearson(xs: &[f64], ys: &[f64]) -> Result<f64> {
    if xs.len() != ys.len() {
        return Err(StatsError::LengthMismatch);
    }
    if xs.len() < 2 {
        return Err(StatsError::InsufficientData);
    }
    let n = xs.len() as f64;
    let mx = xs.iter().sum::<f64>() / n;
    let my = ys.iter().sum::<f64>() / n;
    let mut sxy = 0.0;
    let mut sxx = 0.0;
    let mut syy = 0.0;
    for (&x, &y) in xs.iter().zip(ys) {
        let dx = x - mx;
        let dy = y - my;
        sxy += dx * dy;
        sxx += dx * dx;
        syy += dy * dy;
    }
    if sxx == 0.0 || syy == 0.0 {
        return Err(StatsError::InsufficientData);
    }
    Ok(sxy / (sxx * syy).sqrt())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pearson_perfect_linear() {
        let xs = [1.0, 2.0, 3.0, 4.0];
        let ys = [2.0, 4.0, 6.0, 8.0];
        assert!((pearson(&xs, &ys).unwrap() - 1.0).abs() < 1e-12);
        let neg: Vec<f64> = ys.iter().map(|y| -y).collect();
        assert!((pearson(&xs, &neg).unwrap() + 1.0).abs() < 1e-12);
    }

    #[test]
    fn pearson_independent_is_small() {
        // Deterministic "uncorrelated" pattern: periods 10 and 17 are
        // coprime, so over one full cycle (170 points) the rank sequences
        // are independent.
        let xs: Vec<f64> = (0..170).map(|i| (i % 10) as f64).collect();
        let ys: Vec<f64> = (0..170).map(|i| ((i * 5 + 3) % 17) as f64).collect();
        let r = pearson(&xs, &ys).unwrap();
        assert!(r.abs() < 0.1, "r={r}");
    }

    #[test]
    fn pearson_errors() {
        assert!(pearson(&[1.0], &[1.0]).is_err());
        assert!(pearson(&[1.0, 2.0], &[1.0]).is_err());
        assert!(pearson(&[1.0, 1.0], &[1.0, 2.0]).is_err()); // zero variance
    }
}
