//! A production-like bandwidth population.
//!
//! Fig. 2(a) of the paper shows the bandwidth CDF of Kuaishou users against
//! the maximum video bitrate: roughly 10% of users average *below* the top
//! rung, the median sits near 10–15 Mbps, and the tail stretches past
//! 50 Mbps. [`ProductionMixture`] reproduces that marginal with a four-class
//! mixture; each class also picks a burstiness regime so low-bandwidth users
//! are burstier (cellular-like) than high-bandwidth ones (fixed-line-like),
//! matching the stall-count-per-bandwidth-bucket CDFs of Fig. 8(a).

use rand::{Rng, RngCore};

use crate::gen::{LogNormalFadeGen, MarkovGen, StationaryGaussGen, TickSampler, TraceGenerator};
use crate::trace::{BandwidthTrace, LazyTrace};
use crate::{NetError, Result};

/// Coarse network class of one user.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum NetClass {
    /// Congested / cellular edge; mean below ~2 Mbps, very bursty.
    Constrained,
    /// Mid cellular; 2–6 Mbps, bursty.
    Cellular,
    /// Good WiFi; 6–20 Mbps, mildly noisy.
    Wifi,
    /// Fixed broadband; 20–50 Mbps, stable.
    Broadband,
}

impl NetClass {
    /// All classes, worst to best.
    pub const ALL: [NetClass; 4] = [
        NetClass::Constrained,
        NetClass::Cellular,
        NetClass::Wifi,
        NetClass::Broadband,
    ];
}

/// One user's network profile: a class, a long-run mean and a generator.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct UserNetProfile {
    /// Coarse class.
    pub class: NetClass,
    /// Long-run mean bandwidth (kbps).
    pub mean_kbps: f64,
    /// Burstiness (coefficient of variation) of the user's link.
    pub cv: f64,
}

impl UserNetProfile {
    /// Generate a bandwidth trace consistent with this profile.
    pub fn trace<R: Rng + ?Sized>(
        &self,
        n: usize,
        tick_seconds: f64,
        rng: &mut R,
    ) -> Result<BandwidthTrace> {
        self.ticks(rng)?.trace(n, tick_seconds, rng)
    }

    /// The same trace as [`Self::trace`], generated on demand: `rng` ends
    /// exactly where [`Self::trace`] leaves it, and every tick read equals
    /// that trace's. `samples` is a buffer to fill (its contents are
    /// dropped); [`LazyTrace::into_samples`] hands it back.
    pub fn lazy_trace<R: RngCore + Clone>(
        &self,
        n: usize,
        tick_seconds: f64,
        rng: &mut R,
        samples: Vec<f64>,
    ) -> Result<LazyTrace<R>> {
        let sampler = self.ticks(rng)?;
        LazyTrace::new(sampler, n, tick_seconds, rng, samples)
    }

    /// This profile's generator, validated, with its up-front words drawn.
    fn ticks<R: Rng + ?Sized>(&self, rng: &mut R) -> Result<TickSampler> {
        match self.class {
            NetClass::Constrained => MarkovGen {
                good_kbps: self.mean_kbps * 1.6,
                bad_kbps: self.mean_kbps * 0.35,
                p_gb: 0.08,
                p_bg: 0.10,
                cv: self.cv * 0.5,
            }
            .ticks(rng),
            NetClass::Cellular => MarkovGen {
                good_kbps: self.mean_kbps * 1.4,
                bad_kbps: self.mean_kbps * 0.5,
                p_gb: 0.05,
                p_bg: 0.12,
                cv: self.cv * 0.5,
            }
            .ticks(rng),
            NetClass::Wifi => LogNormalFadeGen {
                mean_kbps: self.mean_kbps,
                cv: self.cv,
            }
            .ticks(rng),
            NetClass::Broadband => StationaryGaussGen {
                mean_kbps: self.mean_kbps,
                cv: self.cv,
            }
            .ticks(rng),
        }
    }
}

/// Population mixture calibrated to Fig. 2(a).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ProductionMixture {
    /// Fraction of users in [`NetClass::Constrained`] (paper: ~10% below
    /// the max bitrate).
    pub p_constrained: f64,
    /// Fraction in [`NetClass::Cellular`].
    pub p_cellular: f64,
    /// Fraction in [`NetClass::Wifi`].
    pub p_wifi: f64,
    // Broadband takes the remainder.
}

impl Default for ProductionMixture {
    fn default() -> Self {
        Self {
            p_constrained: 0.10,
            p_cellular: 0.22,
            p_wifi: 0.40,
        }
    }
}

impl ProductionMixture {
    /// Validate that the class fractions form a sub-distribution.
    pub fn validate(&self) -> Result<()> {
        let ps = [self.p_constrained, self.p_cellular, self.p_wifi];
        if ps.iter().any(|&p| !(0.0..=1.0).contains(&p)) {
            return Err(NetError::InvalidConfig("fractions must be in [0,1]".into()));
        }
        if ps.iter().sum::<f64>() > 1.0 + 1e-12 {
            return Err(NetError::InvalidConfig("class fractions exceed 1.0".into()));
        }
        Ok(())
    }

    /// Sample one user profile.
    pub fn sample_profile<R: Rng + ?Sized>(&self, rng: &mut R) -> UserNetProfile {
        let u: f64 = rng.gen();
        let (class, lo, hi, cv_lo, cv_hi): (NetClass, f64, f64, f64, f64) =
            if u < self.p_constrained {
                (NetClass::Constrained, 400.0, 2000.0, 0.5, 0.9)
            } else if u < self.p_constrained + self.p_cellular {
                (NetClass::Cellular, 2000.0, 6000.0, 0.35, 0.6)
            } else if u < self.p_constrained + self.p_cellular + self.p_wifi {
                (NetClass::Wifi, 6000.0, 20_000.0, 0.2, 0.45)
            } else {
                (NetClass::Broadband, 20_000.0, 50_000.0, 0.08, 0.2)
            };
        // Log-uniform within the class band: smooths the CDF between bands.
        let mean_kbps = (lo.ln() + rng.gen::<f64>() * (hi.ln() - lo.ln())).exp();
        let cv = cv_lo + rng.gen::<f64>() * (cv_hi - cv_lo);
        UserNetProfile {
            class,
            mean_kbps,
            cv,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn default_mixture_matches_paper_fractions() {
        let m = ProductionMixture::default();
        m.validate().unwrap();
        let mut rng = StdRng::seed_from_u64(1);
        let pop: Vec<_> = (0..20_000).map(|_| m.sample_profile(&mut rng)).collect();
        // Fraction below the default top bitrate (4300 kbps) should be
        // roughly the paper's ~10% (constrained class + low cellular tail).
        let below = pop.iter().filter(|p| p.mean_kbps < 4300.0).count() as f64 / pop.len() as f64;
        assert!(below > 0.12 && below < 0.30, "below-max fraction {below}");
        // Specifically the sub-2Mbps share is close to p_constrained.
        let constrained = pop
            .iter()
            .filter(|p| p.class == NetClass::Constrained)
            .count() as f64
            / pop.len() as f64;
        assert!(
            (constrained - 0.10).abs() < 0.02,
            "constrained {constrained}"
        );
    }

    #[test]
    fn class_bands_respected() {
        let m = ProductionMixture::default();
        let mut rng = StdRng::seed_from_u64(2);
        for _ in 0..2000 {
            let p = m.sample_profile(&mut rng);
            match p.class {
                NetClass::Constrained => assert!(p.mean_kbps >= 400.0 && p.mean_kbps <= 2000.0),
                NetClass::Cellular => assert!(p.mean_kbps >= 2000.0 && p.mean_kbps <= 6000.0),
                NetClass::Wifi => assert!(p.mean_kbps >= 6000.0 && p.mean_kbps <= 20_000.0),
                NetClass::Broadband => {
                    assert!(p.mean_kbps >= 20_000.0 && p.mean_kbps <= 50_000.0)
                }
            }
            assert!(p.cv > 0.0 && p.cv < 1.0);
        }
    }

    #[test]
    fn lower_classes_are_burstier() {
        let m = ProductionMixture::default();
        let mut rng = StdRng::seed_from_u64(3);
        let pop: Vec<_> = (0..10_000).map(|_| m.sample_profile(&mut rng)).collect();
        let avg_cv = |class: NetClass| {
            let xs: Vec<f64> = pop
                .iter()
                .filter(|p| p.class == class)
                .map(|p| p.cv)
                .collect();
            xs.iter().sum::<f64>() / xs.len() as f64
        };
        assert!(avg_cv(NetClass::Constrained) > avg_cv(NetClass::Wifi));
        assert!(avg_cv(NetClass::Wifi) > avg_cv(NetClass::Broadband));
    }

    #[test]
    fn profile_traces_track_mean() {
        let m = ProductionMixture::default();
        let mut rng = StdRng::seed_from_u64(4);
        for _ in 0..10 {
            let p = m.sample_profile(&mut rng);
            let t = p.trace(4000, 1.0, &mut rng).unwrap();
            let err = (t.mean() - p.mean_kbps).abs() / p.mean_kbps;
            assert!(err < 0.25, "class {:?} mean err {err}", p.class);
        }
    }

    #[test]
    fn invalid_mixture_rejected() {
        let m = ProductionMixture {
            p_constrained: 0.6,
            p_cellular: 0.5,
            p_wifi: 0.2,
        };
        assert!(m.validate().is_err());
        let m2 = ProductionMixture {
            p_constrained: -0.1,
            ..ProductionMixture::default()
        };
        assert!(m2.validate().is_err());
    }
}
