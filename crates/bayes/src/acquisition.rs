//! Acquisition functions (minimization convention: the objective is the
//! predicted exit rate, lower is better).

use lingxi_stats::{norm_cdf, norm_pdf};

/// Acquisition functions for minimization.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Acquisition {
    /// Expected improvement below the incumbent best.
    ExpectedImprovement {
        /// Exploration bonus ξ added to the improvement threshold.
        xi: f64,
    },
    /// Probability of improvement below the incumbent best.
    ProbabilityOfImprovement {
        /// Exploration bonus ξ.
        xi: f64,
    },
    /// Lower confidence bound `mean − κ·σ` (scored negated so that larger
    /// is better, consistent with the other variants).
    LowerConfidenceBound {
        /// Exploration weight κ.
        kappa: f64,
    },
}

impl Acquisition {
    /// Default: EI with a small exploration bonus.
    pub fn default_ei() -> Self {
        Acquisition::ExpectedImprovement { xi: 0.01 }
    }

    /// Score a candidate with posterior `(mean, var)` against the incumbent
    /// `best` (current minimum). Larger scores are more attractive.
    pub fn score(&self, mean: f64, var: f64, best: f64) -> f64 {
        let sigma = var.max(1e-18).sqrt();
        match *self {
            Acquisition::ExpectedImprovement { xi } => {
                let improvement = best - mean - xi;
                let z = improvement / sigma;
                improvement * norm_cdf(z) + sigma * norm_pdf(z)
            }
            Acquisition::ProbabilityOfImprovement { xi } => norm_cdf((best - mean - xi) / sigma),
            Acquisition::LowerConfidenceBound { kappa } => -(mean - kappa * sigma),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ei_prefers_lower_mean_same_variance() {
        let a = Acquisition::default_ei();
        let best = 0.5;
        assert!(a.score(0.3, 0.01, best) > a.score(0.45, 0.01, best));
    }

    #[test]
    fn ei_prefers_higher_variance_same_mean() {
        let a = Acquisition::default_ei();
        let best = 0.5;
        assert!(a.score(0.5, 0.04, best) > a.score(0.5, 0.0001, best));
    }

    #[test]
    fn ei_nonnegative() {
        let a = Acquisition::default_ei();
        for mean in [0.0, 0.5, 1.0, 2.0] {
            for var in [1e-6, 0.01, 0.25] {
                assert!(a.score(mean, var, 0.5) >= -1e-12);
            }
        }
    }

    #[test]
    fn pi_bounded_and_monotone() {
        let a = Acquisition::ProbabilityOfImprovement { xi: 0.0 };
        let s_better = a.score(0.2, 0.01, 0.5);
        let s_worse = a.score(0.8, 0.01, 0.5);
        assert!(s_better > 0.99);
        assert!(s_worse < 0.01);
        assert!((0.0..=1.0).contains(&s_better));
    }

    #[test]
    fn lcb_trades_exploration() {
        let explore = Acquisition::LowerConfidenceBound { kappa: 3.0 };
        let exploit = Acquisition::LowerConfidenceBound { kappa: 0.1 };
        // High-variance candidate vs low-mean candidate.
        let hv = (0.5, 0.09);
        let lm = (0.4, 0.0001);
        let pick = |a: &Acquisition| {
            if a.score(hv.0, hv.1, 0.5) > a.score(lm.0, lm.1, 0.5) {
                "hv"
            } else {
                "lm"
            }
        };
        assert_eq!(pick(&explore), "hv");
        assert_eq!(pick(&exploit), "lm");
    }
}
