//! The online Bayesian optimizer: ask/tell loop with warm starts
//! (Algorithm 1's `OBO.init`, `OBO.next_candidate`, `OBO.update`).

use rand::Rng;

use crate::acquisition::expected_improvement;
use crate::gp::{GpConfig, GpModel};
use crate::{BayesError, Result};

/// Optimizer configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ObserverConfig {
    /// Search-space dimension (unit cube).
    pub dim: usize,
    /// GP surrogate settings.
    pub gp: GpConfig,
    /// Random candidates scored per `next_candidate` call.
    pub n_candidates: usize,
    /// Pure-random warmup proposals before the surrogate kicks in.
    pub warmup: usize,
    /// Local-perturbation radius around the warm start for the first
    /// proposals (exploit the previous optimum, §3.1).
    pub warm_radius: f64,
}

impl ObserverConfig {
    /// Standard settings for `dim`-dimensional tuning.
    pub fn for_dim(dim: usize) -> Self {
        Self {
            dim,
            gp: GpConfig::default(),
            n_candidates: 256,
            warmup: 3,
            warm_radius: 0.15,
        }
    }
}

/// Online Bayesian optimizer over the unit cube (minimization).
#[derive(Debug, Clone)]
pub struct ObOptimizer {
    config: ObserverConfig,
    /// Evaluated points, parallel to `ys`: the GP refit reads both as
    /// they are stored.
    xs: Vec<Vec<f64>>,
    ys: Vec<f64>,
    warm_start: Option<Vec<f64>>,
}

impl ObOptimizer {
    /// Fresh optimizer. Fails on a GP config no fit accepts (a noise,
    /// kernel variance or length scale that is not positive and finite)
    /// and on a `warm_radius` that is negative or not finite.
    pub fn new(config: ObserverConfig) -> Result<Self> {
        if config.dim == 0 {
            return Err(BayesError::InvalidConfig("dim must be positive".into()));
        }
        if config.n_candidates == 0 {
            return Err(BayesError::InvalidConfig(
                "need at least one candidate".into(),
            ));
        }
        config.gp.validate()?;
        if !(config.warm_radius >= 0.0 && config.warm_radius.is_finite()) {
            return Err(BayesError::InvalidConfig(
                "warm radius must be finite and non-negative".into(),
            ));
        }
        Ok(Self {
            config,
            xs: Vec::new(),
            ys: Vec::new(),
            warm_start: None,
        })
    }

    /// Warm-start at a previously optimal point (`OBO.init(x*, ...)`),
    /// clamped to the unit cube. Fails on a NaN coordinate.
    pub fn init_with(&mut self, x0: &[f64]) -> Result<()> {
        if x0.len() != self.config.dim {
            return Err(BayesError::InvalidConfig("warm start dim mismatch".into()));
        }
        if x0.iter().any(|v| v.is_nan()) {
            return Err(BayesError::InvalidConfig("warm start is NaN".into()));
        }
        self.warm_start = Some(x0.iter().map(|v| v.clamp(0.0, 1.0)).collect());
        Ok(())
    }

    /// Record an evaluated trial (`OBO.update(x, R_exit)`).
    pub fn update(&mut self, x: Vec<f64>, y: f64) -> Result<()> {
        if x.len() != self.config.dim {
            return Err(BayesError::InvalidConfig("observation dim mismatch".into()));
        }
        if !y.is_finite() {
            return Err(BayesError::InvalidConfig("objective must be finite".into()));
        }
        self.xs.push(x);
        self.ys.push(y);
        Ok(())
    }

    /// Best observation so far.
    pub fn best(&self) -> Option<(&[f64], f64)> {
        self.xs
            .iter()
            .zip(&self.ys)
            .min_by(|a, b| a.1.partial_cmp(b.1).unwrap_or(std::cmp::Ordering::Equal))
            .map(|(x, &y)| (x.as_slice(), y))
    }

    /// Number of recorded trials.
    pub fn n_observations(&self) -> usize {
        self.ys.len()
    }

    /// Propose the next candidate (`OBO.next_candidate()`).
    ///
    /// Strategy: during warmup, perturb the warm start (or sample
    /// uniformly); afterwards, fit the GP surrogate and return the best of
    /// `n_candidates` random points by expected improvement.
    pub fn next_candidate<R: Rng + ?Sized>(&self, rng: &mut R) -> Vec<f64> {
        let d = self.config.dim;
        if self.ys.len() < self.config.warmup {
            return match &self.warm_start {
                Some(x0) => x0
                    .iter()
                    .map(|&v| {
                        (v + (rng.gen::<f64>() * 2.0 - 1.0) * self.config.warm_radius)
                            .clamp(0.0, 1.0)
                    })
                    .collect(),
                None => (0..d).map(|_| rng.gen()).collect(),
            };
        }
        let gp = match GpModel::fit(self.config.gp, &self.xs, &self.ys) {
            Ok(g) => g,
            // Surrogate failure: degrade gracefully to random search.
            Err(_) => return (0..d).map(|_| rng.gen()).collect(),
        };
        // A successful fit saw at least one observation, so there is an
        // incumbent; it is fixed for the whole call.
        let incumbent = self.best();
        let best = incumbent.map(|(_, y)| y).unwrap_or(0.0);
        let mut best_x: Vec<f64> = (0..d).map(|_| rng.gen()).collect();
        let mut best_score = f64::NEG_INFINITY;
        // One candidate buffer and one posterior solve buffer serve every
        // candidate of the call.
        let mut cand = vec![0.0; d];
        let mut solve = Vec::with_capacity(self.ys.len());
        for i in 0..self.config.n_candidates {
            // Mix global uniform candidates with local ones near the
            // incumbent (classic BO candidate pool).
            match incumbent.filter(|_| i % 4 == 0) {
                Some((bx, _)) => {
                    for (c, &v) in cand.iter_mut().zip(bx) {
                        *c = (v + (rng.gen::<f64>() * 2.0 - 1.0) * 0.1).clamp(0.0, 1.0);
                    }
                }
                None => cand.iter_mut().for_each(|c| *c = rng.gen()),
            }
            // Every observation and `cand` have dimension `d`, so the
            // posterior cannot fail.
            let (mean, var) = gp.predict_into(&cand, &mut solve);
            let score = expected_improvement(mean, var, best);
            if score > best_score {
                best_score = score;
                best_x.copy_from_slice(&cand);
            }
        }
        best_x
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Quadratic bowl with minimum at (0.7, 0.3).
    fn objective(x: &[f64]) -> f64 {
        (x[0] - 0.7).powi(2) + (x[1] - 0.3).powi(2)
    }

    #[test]
    fn optimizer_finds_bowl_minimum() {
        let mut opt = ObOptimizer::new(ObserverConfig::for_dim(2)).unwrap();
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..30 {
            let x = opt.next_candidate(&mut rng);
            let y = objective(&x);
            opt.update(x, y).unwrap();
        }
        let (bx, by) = opt.best().unwrap();
        assert!(by < 0.02, "best objective {by}");
        assert!((bx[0] - 0.7).abs() < 0.2, "x0 {}", bx[0]);
        assert!((bx[1] - 0.3).abs() < 0.2, "x1 {}", bx[1]);
    }

    #[test]
    fn beats_pure_random_on_budget() {
        // With the same evaluation budget, BO should do at least as well
        // as uniform random search (averaged over seeds).
        let mut bo_total = 0.0;
        let mut rand_total = 0.0;
        for seed in 0..5 {
            let mut opt = ObOptimizer::new(ObserverConfig::for_dim(2)).unwrap();
            let mut rng = StdRng::seed_from_u64(seed);
            for _ in 0..20 {
                let x = opt.next_candidate(&mut rng);
                let y = objective(&x);
                opt.update(x, y).unwrap();
            }
            bo_total += opt.best().unwrap().1;

            let mut rng2 = StdRng::seed_from_u64(seed + 100);
            let mut best = f64::INFINITY;
            for _ in 0..20 {
                let x: Vec<f64> = (0..2).map(|_| rng2.gen()).collect();
                best = best.min(objective(&x));
            }
            rand_total += best;
        }
        assert!(
            bo_total <= rand_total * 1.2,
            "BO {bo_total} vs random {rand_total}"
        );
    }

    #[test]
    fn warm_start_biases_first_proposals() {
        let mut opt = ObOptimizer::new(ObserverConfig::for_dim(3)).unwrap();
        opt.init_with(&[0.5, 0.5, 0.5]).unwrap();
        let mut rng = StdRng::seed_from_u64(2);
        for _ in 0..10 {
            let x = opt.next_candidate(&mut rng);
            for v in &x {
                assert!((v - 0.5).abs() <= 0.15 + 1e-12, "warmup strays: {v}");
            }
        }
    }

    #[test]
    fn validation() {
        assert!(ObOptimizer::new(ObserverConfig::for_dim(0)).is_err());
        let mut opt = ObOptimizer::new(ObserverConfig::for_dim(2)).unwrap();
        assert!(opt.init_with(&[0.5]).is_err());
        assert!(opt.update(vec![0.5], 1.0).is_err());
        assert!(opt.update(vec![0.5, 0.5], f64::NAN).is_err());
        assert!(opt.best().is_none());
        assert_eq!(opt.n_observations(), 0);
        // Inputs that would break every proposal: a GP config no fit
        // accepts (random search after warm-up), a non-finite or negative
        // warm radius and a NaN warm start (NaN proposals: `f64::clamp`
        // passes NaN through).
        let with = |f: &dyn Fn(&mut ObserverConfig)| {
            let mut c = ObserverConfig::for_dim(2);
            f(&mut c);
            ObOptimizer::new(c)
        };
        for v in [0.0, -1.0, f64::NAN, f64::INFINITY] {
            assert!(with(&|c| c.gp.noise = v).is_err(), "noise {v}");
            assert!(with(&|c| c.gp.kernel.variance = v).is_err(), "variance {v}");
            assert!(with(&|c| c.gp.kernel.length_scale = v).is_err(), "ell {v}");
        }
        for v in [-0.1, f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            assert!(with(&|c| c.warm_radius = v).is_err(), "warm radius {v}");
        }
        assert!(with(&|c| c.warm_radius = 0.0).is_ok());
        assert!(opt.init_with(&[0.5, f64::NAN]).is_err());
        // Infinite and out-of-cube coordinates clamp onto the cube.
        opt.init_with(&[f64::INFINITY, -3.0]).unwrap();
        let x = opt.next_candidate(&mut StdRng::seed_from_u64(4));
        assert!(x.iter().all(|v| (0.0..=1.0).contains(v)), "{x:?}");
    }

    #[test]
    fn candidates_stay_in_unit_cube() {
        let mut opt = ObOptimizer::new(ObserverConfig::for_dim(2)).unwrap();
        let mut rng = StdRng::seed_from_u64(3);
        for i in 0..25 {
            let x = opt.next_candidate(&mut rng);
            assert!(x.iter().all(|v| (0.0..=1.0).contains(v)), "iter {i}: {x:?}");
            let y = objective(&x);
            opt.update(x, y).unwrap();
        }
    }
}
