//! The acquisition function: expected improvement (minimization
//! convention: the objective is the predicted exit rate, lower is better).

use lingxi_stats::{norm_cdf, norm_pdf};

/// Exploration bonus ξ added to the improvement threshold.
pub const XI: f64 = 0.01;

/// Expected improvement of a candidate with posterior `(mean, var)` below
/// the incumbent `best` (current minimum), less [`XI`]. Larger scores are
/// more attractive.
pub fn expected_improvement(mean: f64, var: f64, best: f64) -> f64 {
    let sigma = var.max(1e-18).sqrt();
    let improvement = best - mean - XI;
    let z = improvement / sigma;
    improvement * norm_cdf(z) + sigma * norm_pdf(z)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ei_prefers_lower_mean_same_variance() {
        let best = 0.5;
        assert!(expected_improvement(0.3, 0.01, best) > expected_improvement(0.45, 0.01, best));
    }

    #[test]
    fn ei_prefers_higher_variance_same_mean() {
        let best = 0.5;
        assert!(expected_improvement(0.5, 0.04, best) > expected_improvement(0.5, 0.0001, best));
    }

    #[test]
    fn ei_nonnegative() {
        for mean in [0.0, 0.5, 1.0, 2.0] {
            for var in [1e-6, 0.01, 0.25] {
                assert!(expected_improvement(mean, var, 0.5) >= -1e-12);
            }
        }
    }
}
