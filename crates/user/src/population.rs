//! Population generation: users with network profiles, stall sensitivities
//! and engagement behaviour.

use lingxi_net::{LazyTrace, ProductionMixture, UserNetProfile};
use rand::{Rng, RngCore};

use crate::profile::{sample_profile, StallProfile, ToleranceDrift};
use crate::qos_model::QosExitModel;
use crate::{Result, UserError};

/// One synthetic user.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct UserRecord {
    /// Stable identifier.
    pub id: u64,
    /// Network profile (class, mean bandwidth, burstiness).
    pub net: UserNetProfile,
    /// Stall-sensitivity profile.
    pub stall: StallProfile,
    /// Daily engagement intensity: expected sessions per day.
    pub sessions_per_day: f64,
}

impl UserRecord {
    /// Build the generative exit model of this user for day `day`,
    /// applying tolerance drift deterministically per (user, day).
    pub fn exit_model_for_day<R: Rng + ?Sized>(
        &self,
        drift: &ToleranceDrift,
        rng: &mut R,
    ) -> QosExitModel {
        let delta = drift.sample_delta(rng);
        QosExitModel::calibrated(self.stall.drifted(delta))
    }

    /// The user's baseline exit model (no drift).
    pub fn exit_model(&self) -> QosExitModel {
        QosExitModel::calibrated(self.stall)
    }

    /// Sessions this user plays on one day: the engagement level jittered
    /// by `0.5 + U(0, 1)`, rounded and clamped to `1..=60` (one draw).
    pub fn sessions_today<R: Rng + ?Sized>(&self, rng: &mut R) -> usize {
        let jitter = 0.5 + rng.gen::<f64>();
        ((self.sessions_per_day * jitter).round() as usize).clamp(1, 60)
    }

    /// The private bandwidth trace of one session over a video of
    /// `video_duration` seconds: three times the video (stalls stretch a
    /// session past its content), at least a minute, at 1 s resolution.
    /// It is generated on demand into `samples` (a buffer to reuse, see
    /// [`LazyTrace::into_samples`]); `rng` advances as if it were drawn
    /// whole.
    pub fn private_trace<R: RngCore + Clone>(
        &self,
        video_duration: f64,
        rng: &mut R,
        samples: Vec<f64>,
    ) -> lingxi_net::Result<LazyTrace<R>> {
        let seconds = ((video_duration * 3.0) as usize).max(60);
        self.net.lazy_trace(seconds, 1.0, rng, samples)
    }
}

/// Population generation parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PopulationConfig {
    /// Number of users.
    pub n_users: usize,
    /// Bandwidth mixture.
    pub mixture: ProductionMixture,
    /// Mean sessions per user per day (engagement scale).
    pub mean_sessions_per_day: f64,
}

impl Default for PopulationConfig {
    fn default() -> Self {
        Self {
            n_users: 1000,
            mixture: ProductionMixture::default(),
            mean_sessions_per_day: 30.0,
        }
    }
}

/// A generated user population.
#[derive(Debug, Clone, PartialEq)]
pub struct UserPopulation {
    users: Vec<UserRecord>,
}

impl UserPopulation {
    /// Generate a population.
    pub fn generate<R: Rng + ?Sized>(config: &PopulationConfig, rng: &mut R) -> Result<Self> {
        if config.n_users == 0 {
            return Err(UserError::InvalidConfig("need at least one user".into()));
        }
        if !(config.mean_sessions_per_day > 0.0) {
            return Err(UserError::InvalidConfig(
                "mean sessions per day must be positive".into(),
            ));
        }
        config
            .mixture
            .validate()
            .map_err(|e| UserError::InvalidConfig(e.to_string()))?;
        let users = (0..config.n_users)
            .map(|id| {
                let net = config.mixture.sample_profile(rng);
                let stall = sample_profile(rng);
                // Engagement: log-normal around the configured mean.
                let sigma: f64 = 0.5;
                let mu = config.mean_sessions_per_day.ln() - sigma * sigma / 2.0;
                let u1: f64 = rng.gen_range(f64::EPSILON..1.0);
                let u2: f64 = rng.gen::<f64>();
                let z = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
                let sessions_per_day = (mu + sigma * z).exp().max(1.0);
                UserRecord {
                    id: id as u64,
                    net,
                    stall,
                    sessions_per_day,
                }
            })
            .collect();
        Ok(Self { users })
    }

    /// All users.
    pub fn users(&self) -> &[UserRecord] {
        &self.users
    }

    /// Number of users.
    pub fn len(&self) -> usize {
        self.users.len()
    }

    /// Populations are never empty by construction.
    pub fn is_empty(&self) -> bool {
        self.users.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn generation_respects_config() {
        let mut rng = StdRng::seed_from_u64(1);
        let pop = UserPopulation::generate(
            &PopulationConfig {
                n_users: 500,
                ..PopulationConfig::default()
            },
            &mut rng,
        )
        .unwrap();
        assert_eq!(pop.len(), 500);
        assert!(pop.users().iter().all(|u| u.sessions_per_day >= 1.0));
        // Ids unique and sequential.
        for (i, u) in pop.users().iter().enumerate() {
            assert_eq!(u.id, i as u64);
        }
        // The user-day rules: 1..=60 sessions; a private trace is three
        // times its video and never shorter than a minute.
        let u = &pop.users()[0];
        assert!((1..=60).contains(&u.sessions_today(&mut rng)));
        let trace = u.private_trace(5.0, &mut rng, Vec::new()).unwrap();
        assert_eq!(trace.duration(), 60.0);
        let samples = trace.into_samples().unwrap();
        assert_eq!(
            u.private_trace(40.5, &mut rng, samples).unwrap().duration(),
            121.0
        );
    }

    #[test]
    fn low_bandwidth_cohort_near_mixture_share() {
        let mut rng = StdRng::seed_from_u64(2);
        let pop = UserPopulation::generate(
            &PopulationConfig {
                n_users: 10_000,
                ..PopulationConfig::default()
            },
            &mut rng,
        )
        .unwrap();
        // The long-tail cohort of §5.4: mean bandwidth below 2 Mbps.
        let low = pop.users().iter().filter(|u| u.net.mean_kbps < 2000.0);
        let share = low.count() as f64 / pop.len() as f64;
        assert!((share - 0.10).abs() < 0.03, "share {share}");
    }

    #[test]
    fn drifted_model_differs_but_base_stable() {
        let mut rng = StdRng::seed_from_u64(4);
        let pop = UserPopulation::generate(
            &PopulationConfig {
                n_users: 5,
                ..PopulationConfig::default()
            },
            &mut rng,
        )
        .unwrap();
        let u = &pop.users()[0];
        let base1 = u.exit_model();
        let base2 = u.exit_model();
        assert_eq!(base1, base2);
        let drift = ToleranceDrift::default();
        let mut any_diff = false;
        for _ in 0..20 {
            let d = u.exit_model_for_day(&drift, &mut rng);
            if (d.stall.tolerance - u.stall.tolerance).abs() > 1.0 {
                any_diff = true;
            }
        }
        assert!(any_diff, "drift should sometimes move tolerance");
    }

    #[test]
    fn invalid_configs_rejected() {
        let mut rng = StdRng::seed_from_u64(5);
        assert!(UserPopulation::generate(
            &PopulationConfig {
                n_users: 0,
                ..PopulationConfig::default()
            },
            &mut rng
        )
        .is_err());
        assert!(UserPopulation::generate(
            &PopulationConfig {
                mean_sessions_per_day: 0.0,
                ..PopulationConfig::default()
            },
            &mut rng
        )
        .is_err());
    }
}
