//! Descriptive statistics over `f64` slices: mean, variance, percentiles
//! and the [`Summary`] the figures report with error bars.

use crate::{Result, StatsError};

/// Arithmetic mean. Errors on empty input.
pub fn mean(xs: &[f64]) -> Result<f64> {
    if xs.is_empty() {
        return Err(StatsError::Empty);
    }
    Ok(xs.iter().sum::<f64>() / xs.len() as f64)
}

/// Unbiased sample variance (n-1 denominator). Needs at least two samples.
pub fn variance(xs: &[f64]) -> Result<f64> {
    if xs.len() < 2 {
        return Err(StatsError::InsufficientData);
    }
    let m = mean(xs)?;
    Ok(xs.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / (xs.len() - 1) as f64)
}

/// Unbiased sample standard deviation.
pub fn std_dev(xs: &[f64]) -> Result<f64> {
    Ok(variance(xs)?.sqrt())
}

/// Median (linear-interpolated for even lengths).
pub fn median(xs: &[f64]) -> Result<f64> {
    percentile(xs, 50.0)
}

/// Percentile in `[0, 100]` using linear interpolation between order
/// statistics (the "linear" / type-7 method, matching numpy's default).
pub fn percentile(xs: &[f64], p: f64) -> Result<f64> {
    if xs.is_empty() {
        return Err(StatsError::Empty);
    }
    if !(0.0..=100.0).contains(&p) || p.is_nan() {
        return Err(StatsError::InvalidParameter);
    }
    let mut sorted: Vec<f64> = xs.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
    let rank = p / 100.0 * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    if lo == hi {
        Ok(sorted[lo])
    } else {
        let w = rank - lo as f64;
        Ok(sorted[lo] * (1.0 - w) + sorted[hi] * w)
    }
}

/// Five-number-plus summary of a sample.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Number of observations.
    pub n: usize,
    /// Arithmetic mean.
    pub mean: f64,
    /// Unbiased standard deviation (0 when `n < 2`).
    pub std: f64,
    /// Minimum.
    pub min: f64,
    /// 25th percentile.
    pub p25: f64,
    /// Median.
    pub p50: f64,
    /// 75th percentile.
    pub p75: f64,
    /// Maximum.
    pub max: f64,
}

impl Summary {
    /// Compute a summary; errors on empty input.
    pub fn of(xs: &[f64]) -> Result<Self> {
        if xs.is_empty() {
            return Err(StatsError::Empty);
        }
        let mean_v = mean(xs)?;
        let std = if xs.len() > 1 { std_dev(xs)? } else { 0.0 };
        let min = xs.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = xs.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        Ok(Summary {
            n: xs.len(),
            mean: mean_v,
            std,
            min,
            p25: percentile(xs, 25.0)?,
            p50: percentile(xs, 50.0)?,
            p75: percentile(xs, 75.0)?,
            max,
        })
    }

    /// Standard error of the mean (`std / sqrt(n)`), the error-bar length
    /// used throughout the paper's figures.
    pub fn std_err(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.std / (self.n as f64).sqrt()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_basic() {
        assert_eq!(mean(&[1.0, 2.0, 3.0]).unwrap(), 2.0);
        assert!(mean(&[]).is_err());
    }

    #[test]
    fn variance_and_std() {
        let xs = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        // Population variance is 4.0; sample variance is 32/7.
        assert!((variance(&xs).unwrap() - 32.0 / 7.0).abs() < 1e-12);
        assert!(variance(&[1.0]).is_err());
        assert!((std_dev(&xs).unwrap() - (32.0f64 / 7.0).sqrt()).abs() < 1e-12);
    }

    #[test]
    fn percentile_interpolation() {
        let xs = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(percentile(&xs, 0.0).unwrap(), 1.0);
        assert_eq!(percentile(&xs, 100.0).unwrap(), 4.0);
        assert!((percentile(&xs, 50.0).unwrap() - 2.5).abs() < 1e-12);
        assert!((percentile(&xs, 25.0).unwrap() - 1.75).abs() < 1e-12);
        assert!(percentile(&xs, 101.0).is_err());
        assert!(percentile(&xs, -1.0).is_err());
    }

    #[test]
    fn percentile_handles_unsorted() {
        let xs = [9.0, 1.0, 5.0];
        assert_eq!(median(&xs).unwrap(), 5.0);
    }

    #[test]
    fn summary_fields() {
        let xs = [3.0, 1.0, 2.0, 4.0];
        let s = Summary::of(&xs).unwrap();
        assert_eq!(s.n, 4);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 4.0);
        assert!((s.mean - 2.5).abs() < 1e-12);
        assert!(s.std_err() > 0.0);
        assert!(Summary::of(&[]).is_err());
    }

    #[test]
    fn summary_single_element() {
        let s = Summary::of(&[7.0]).unwrap();
        assert_eq!(s.std, 0.0);
        assert_eq!(s.p50, 7.0);
    }
}
