//! Synthetic bandwidth-trace generators.
//!
//! Three regimes cover the behaviours that matter to an ABR: stationary
//! noise (stable WiFi), two-state Markov bursts (cellular handover /
//! congestion) and log-normal fading (wireless). The production mixture
//! (`mixture` module) composes them.
//!
//! Every generator is one per-tick step, a [`TickSampler`], that draws a
//! fixed number of words from the stream per tick
//! ([`TickSampler::words_per_tick`]). The eager [`TraceGenerator::generate`]
//! runs it `n` times; a [`crate::LazyTrace`] runs it on demand and skips
//! the caller's stream past the words it would have drawn.

use rand::Rng;

use crate::trace::BandwidthTrace;
use crate::{NetError, Result};

/// Common interface for trace generators.
pub trait TraceGenerator {
    /// Validate the parameters and draw the generator's up-front words
    /// (Markov's initial state); the result samples one tick per call.
    fn ticks<R: Rng + ?Sized>(&self, rng: &mut R) -> Result<TickSampler>;

    /// Generate `n` samples at `tick_seconds` spacing.
    fn generate<R: Rng + ?Sized>(
        &self,
        n: usize,
        tick_seconds: f64,
        rng: &mut R,
    ) -> Result<BandwidthTrace> {
        self.ticks(rng)?.trace(n, tick_seconds, rng)
    }

    /// The long-run mean bandwidth this generator targets (kbps).
    fn target_mean(&self) -> f64;
}

const MIN_KBPS: f64 = 10.0;

/// Two words: `u1` in `[EPSILON, 1)`, then `u2` in `[0, 1)`.
fn box_muller<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    let u1: f64 = rng.gen_range(f64::EPSILON..1.0);
    let u2: f64 = rng.gen::<f64>();
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

/// One generator's per-tick step and the state it carries between ticks.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TickSampler(Step);

#[derive(Debug, Clone, Copy, PartialEq)]
enum Step {
    Gauss { mean: f64, sigma: f64 },
    Markov { gen: MarkovGen, good: bool },
    LogNormal { mu: f64, sigma: f64 },
}

impl TickSampler {
    /// The stream words one [`Self::next_tick`] draws, whatever it
    /// returns: 2 for Gauss and log-normal (one Box–Muller draw), 3 for
    /// Markov (Box–Muller plus the transition uniform).
    pub const fn words_per_tick(&self) -> usize {
        match self.0 {
            Step::Gauss { .. } | Step::LogNormal { .. } => 2,
            Step::Markov { .. } => 3,
        }
    }

    /// Sample the next tick (kbps).
    pub fn next_tick<R: Rng + ?Sized>(&mut self, rng: &mut R) -> f64 {
        match &mut self.0 {
            Step::Gauss { mean, sigma } => (*mean + *sigma * box_muller(rng)).max(MIN_KBPS),
            Step::Markov { gen, good } => {
                let mean = if *good { gen.good_kbps } else { gen.bad_kbps };
                let sample = (mean * (1.0 + gen.cv * box_muller(rng))).max(MIN_KBPS);
                let flip = if *good { gen.p_gb } else { gen.p_bg };
                if rng.gen::<f64>() < flip {
                    *good = !*good;
                }
                sample
            }
            Step::LogNormal { mu, sigma } => (*mu + *sigma * box_muller(rng)).exp().max(MIN_KBPS),
        }
    }

    /// Sample `n` ticks (at least one) into an eager trace.
    pub(crate) fn trace<R: Rng + ?Sized>(
        mut self,
        n: usize,
        tick_seconds: f64,
        rng: &mut R,
    ) -> Result<BandwidthTrace> {
        let samples = (0..n.max(1)).map(|_| self.next_tick(rng)).collect();
        BandwidthTrace::new(tick_seconds, samples)
    }
}

/// IID Gaussian samples clamped positive: `N(mean, (cv*mean)^2)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StationaryGaussGen {
    /// Mean bandwidth (kbps).
    pub mean_kbps: f64,
    /// Coefficient of variation (sigma / mean), >= 0.
    pub cv: f64,
}

impl TraceGenerator for StationaryGaussGen {
    fn ticks<R: Rng + ?Sized>(&self, _rng: &mut R) -> Result<TickSampler> {
        if !(self.mean_kbps > 0.0) || !(self.cv >= 0.0) {
            return Err(NetError::InvalidConfig(
                "mean > 0 and cv >= 0 required".into(),
            ));
        }
        Ok(TickSampler(Step::Gauss {
            mean: self.mean_kbps,
            sigma: self.cv * self.mean_kbps,
        }))
    }

    fn target_mean(&self) -> f64 {
        self.mean_kbps
    }
}

/// Two-state (good/bad) Markov-modulated bandwidth with Gaussian noise in
/// each state — the classic cellular burst model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MarkovGen {
    /// Good-state mean (kbps).
    pub good_kbps: f64,
    /// Bad-state mean (kbps).
    pub bad_kbps: f64,
    /// P(good -> bad) per tick.
    pub p_gb: f64,
    /// P(bad -> good) per tick.
    pub p_bg: f64,
    /// Relative in-state noise.
    pub cv: f64,
}

impl MarkovGen {
    fn stationary_good_prob(&self) -> f64 {
        // pi_good = p_bg / (p_gb + p_bg)
        if self.p_gb + self.p_bg == 0.0 {
            1.0
        } else {
            self.p_bg / (self.p_gb + self.p_bg)
        }
    }
}

impl TraceGenerator for MarkovGen {
    /// Draws one up-front word: the initial state, from the stationary
    /// distribution.
    fn ticks<R: Rng + ?Sized>(&self, rng: &mut R) -> Result<TickSampler> {
        if !(self.good_kbps > 0.0 && self.bad_kbps > 0.0) {
            return Err(NetError::InvalidConfig(
                "state means must be positive".into(),
            ));
        }
        if !(0.0..=1.0).contains(&self.p_gb) || !(0.0..=1.0).contains(&self.p_bg) {
            return Err(NetError::InvalidConfig(
                "transition probabilities must be in [0,1]".into(),
            ));
        }
        if !(self.cv >= 0.0) {
            return Err(NetError::InvalidConfig("cv must be >= 0".into()));
        }
        let good = rng.gen::<f64>() < self.stationary_good_prob();
        Ok(TickSampler(Step::Markov { gen: *self, good }))
    }

    fn target_mean(&self) -> f64 {
        let pg = self.stationary_good_prob();
        pg * self.good_kbps + (1.0 - pg) * self.bad_kbps
    }
}

/// IID log-normal fading with the requested linear-space mean.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LogNormalFadeGen {
    /// Linear-space mean (kbps).
    pub mean_kbps: f64,
    /// Linear-space coefficient of variation.
    pub cv: f64,
}

impl TraceGenerator for LogNormalFadeGen {
    fn ticks<R: Rng + ?Sized>(&self, _rng: &mut R) -> Result<TickSampler> {
        if !(self.mean_kbps > 0.0) || !(self.cv >= 0.0) {
            return Err(NetError::InvalidConfig(
                "mean > 0 and cv >= 0 required".into(),
            ));
        }
        let sigma = (self.cv * self.cv + 1.0).ln().sqrt();
        let mu = self.mean_kbps.ln() - sigma * sigma / 2.0;
        Ok(TickSampler(Step::LogNormal { mu, sigma }))
    }

    fn target_mean(&self) -> f64 {
        self.mean_kbps
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn check_mean<G: TraceGenerator>(g: &G, tolerance: f64) {
        let mut rng = StdRng::seed_from_u64(1);
        let t = g.generate(20_000, 1.0, &mut rng).unwrap();
        let m = t.mean();
        let target = g.target_mean();
        assert!(
            (m - target).abs() / target < tolerance,
            "mean {m} vs target {target}"
        );
        assert!(t.samples().iter().all(|&s| s > 0.0));
    }

    #[test]
    fn gauss_mean_and_positivity() {
        check_mean(
            &StationaryGaussGen {
                mean_kbps: 8000.0,
                cv: 0.3,
            },
            0.02,
        );
    }

    #[test]
    fn markov_stationary_mean() {
        check_mean(
            &MarkovGen {
                good_kbps: 10_000.0,
                bad_kbps: 1000.0,
                p_gb: 0.05,
                p_bg: 0.2,
                cv: 0.1,
            },
            0.06,
        );
    }

    #[test]
    fn markov_visits_both_states() {
        let g = MarkovGen {
            good_kbps: 10_000.0,
            bad_kbps: 500.0,
            p_gb: 0.1,
            p_bg: 0.1,
            cv: 0.0,
        };
        let mut rng = StdRng::seed_from_u64(2);
        let t = g.generate(5000, 1.0, &mut rng).unwrap();
        let lows = t.samples().iter().filter(|&&s| s < 2000.0).count();
        let highs = t.samples().iter().filter(|&&s| s > 8000.0).count();
        assert!(lows > 500, "lows {lows}");
        assert!(highs > 500, "highs {highs}");
    }

    #[test]
    fn lognormal_mean() {
        check_mean(
            &LogNormalFadeGen {
                mean_kbps: 4000.0,
                cv: 0.8,
            },
            0.05,
        );
    }

    #[test]
    fn invalid_configs_rejected() {
        let mut rng = StdRng::seed_from_u64(4);
        assert!(StationaryGaussGen {
            mean_kbps: 0.0,
            cv: 0.1
        }
        .generate(10, 1.0, &mut rng)
        .is_err());
        assert!(MarkovGen {
            good_kbps: 1.0,
            bad_kbps: 1.0,
            p_gb: 1.5,
            p_bg: 0.1,
            cv: 0.0
        }
        .generate(10, 1.0, &mut rng)
        .is_err());
    }

    #[test]
    fn deterministic_generation() {
        let g = LogNormalFadeGen {
            mean_kbps: 3000.0,
            cv: 0.5,
        };
        let a = g.generate(100, 1.0, &mut StdRng::seed_from_u64(7)).unwrap();
        let b = g.generate(100, 1.0, &mut StdRng::seed_from_u64(7)).unwrap();
        assert_eq!(a, b);
    }
}
