//! Empirical CDFs.
//!
//! Nearly half the paper's figures are CDFs (Fig. 2, 5a, 8a); the experiment
//! harness evaluates them on fixed grids so the series can be printed and
//! compared against the published curves.

use crate::{Result, StatsError};

/// An empirical cumulative distribution function built from a sample.
#[derive(Debug, Clone, PartialEq)]
pub struct Ecdf {
    sorted: Vec<f64>,
}

impl Ecdf {
    /// Build from a sample (NaNs are rejected).
    pub fn new(xs: &[f64]) -> Result<Self> {
        if xs.is_empty() {
            return Err(StatsError::Empty);
        }
        if xs.iter().any(|x| x.is_nan()) {
            return Err(StatsError::InvalidParameter);
        }
        let mut sorted = xs.to_vec();
        sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
        Ok(Self { sorted })
    }

    /// Number of underlying observations.
    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// True when built from zero observations (never, by construction).
    pub fn is_empty(&self) -> bool {
        self.sorted.is_empty()
    }

    /// `P(X <= x)`.
    pub fn eval(&self, x: f64) -> f64 {
        // partition_point returns the count of elements <= x when we test
        // `v <= x` (all "true" elements precede the partition point).
        let cnt = self.sorted.partition_point(|&v| v <= x);
        cnt as f64 / self.sorted.len() as f64
    }

    /// Empirical quantile for `q` in `[0,1]` (nearest-rank).
    pub fn quantile(&self, q: f64) -> Result<f64> {
        if !(0.0..=1.0).contains(&q) || q.is_nan() {
            return Err(StatsError::InvalidParameter);
        }
        let idx = ((q * self.sorted.len() as f64).ceil() as usize)
            .saturating_sub(1)
            .min(self.sorted.len() - 1);
        Ok(self.sorted[idx])
    }

    /// Evaluate the CDF on an evenly spaced grid of `n` points spanning
    /// `[lo, hi]`, yielding `(x, F(x))` pairs — the series form every CDF
    /// figure is printed in.
    pub fn on_grid(&self, lo: f64, hi: f64, n: usize) -> Result<Vec<(f64, f64)>> {
        if n < 2 || !(hi > lo) {
            return Err(StatsError::InvalidParameter);
        }
        Ok((0..n)
            .map(|i| {
                let x = lo + (hi - lo) * i as f64 / (n - 1) as f64;
                (x, self.eval(x))
            })
            .collect())
    }

    /// Minimum observation.
    pub fn min(&self) -> f64 {
        self.sorted[0]
    }

    /// Maximum observation.
    pub fn max(&self) -> f64 {
        *self.sorted.last().unwrap()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ecdf_eval_step() {
        let e = Ecdf::new(&[1.0, 2.0, 3.0, 4.0]).unwrap();
        assert_eq!(e.eval(0.5), 0.0);
        assert_eq!(e.eval(1.0), 0.25);
        assert_eq!(e.eval(2.5), 0.5);
        assert_eq!(e.eval(4.0), 1.0);
        assert_eq!(e.eval(9.0), 1.0);
    }

    #[test]
    fn ecdf_quantile_nearest_rank() {
        let e = Ecdf::new(&[10.0, 20.0, 30.0, 40.0, 50.0]).unwrap();
        assert_eq!(e.quantile(0.0).unwrap(), 10.0);
        assert_eq!(e.quantile(0.2).unwrap(), 10.0);
        assert_eq!(e.quantile(0.21).unwrap(), 20.0);
        assert_eq!(e.quantile(1.0).unwrap(), 50.0);
        assert!(e.quantile(1.5).is_err());
    }

    #[test]
    fn ecdf_rejects_bad_input() {
        assert!(Ecdf::new(&[]).is_err());
        assert!(Ecdf::new(&[1.0, f64::NAN]).is_err());
    }

    #[test]
    fn ecdf_grid_monotone() {
        let e = Ecdf::new(&[5.0, 1.0, 3.0, 3.0, 2.0]).unwrap();
        let grid = e.on_grid(0.0, 6.0, 13).unwrap();
        assert_eq!(grid.len(), 13);
        for w in grid.windows(2) {
            assert!(w[1].1 >= w[0].1);
        }
        assert_eq!(grid.last().unwrap().1, 1.0);
    }
}
