//! Shared simulation world: catalog + population.
//!
//! The per-figure experiments all draw from one synthetic "production
//! environment": a short-video catalog ([`lingxi_media`]), a bandwidth
//! population matched to Fig. 2(a) ([`lingxi_net`]) and a user population
//! with heterogeneous stall sensitivity ([`lingxi_user`]). The A/B figure
//! (fig12) does not play sessions here: it hands this world's population
//! shape to the fleet engine, which builds and runs its own.

use lingxi_abr::{drive, Abr};
use lingxi_media::{BitrateLadder, Catalog, CatalogConfig, VbrModel};
use lingxi_net::BandwidthTrace;
use lingxi_player::{run_session, PlayerConfig, SessionSetup};
use lingxi_user::{
    consult, ExitModel, PopulationConfig, QosExitModel, ToleranceDrift, UserPopulation, UserRecord,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::{sub, Result};

/// World construction parameters.
#[derive(Debug, Clone, Copy)]
pub struct WorldConfig {
    /// Users in the population.
    pub n_users: usize,
    /// Videos in the catalog.
    pub n_videos: usize,
    /// Mean sessions per user-day before scaling.
    pub mean_sessions_per_day: f64,
    /// Bandwidth mixture. Defaults to the production-like Fig. 2(a) shape;
    /// stall-conditioned analyses (the predictor datasets) override it with
    /// a constrained-heavy mixture, which is importance sampling of the
    /// same conditional distribution.
    pub mixture: lingxi_net::ProductionMixture,
}

impl Default for WorldConfig {
    fn default() -> Self {
        Self {
            n_users: 400,
            n_videos: 60,
            mean_sessions_per_day: 12.0,
            mixture: lingxi_net::ProductionMixture::default(),
        }
    }
}

/// A constrained-heavy mixture for stall-conditioned dataset harvesting.
pub fn stall_heavy_mixture() -> lingxi_net::ProductionMixture {
    lingxi_net::ProductionMixture {
        p_constrained: 0.45,
        p_cellular: 0.35,
        p_wifi: 0.15,
    }
}

impl WorldConfig {
    /// Scale population/session counts by `scale` (for tests and benches).
    pub fn scaled(mut self, scale: f64) -> Self {
        let s = scale.clamp(0.01, 10.0);
        self.n_users = ((self.n_users as f64 * s).round() as usize).max(8);
        self.n_videos = ((self.n_videos as f64 * s.sqrt()).round() as usize).max(8);
        self.mean_sessions_per_day = (self.mean_sessions_per_day * s.sqrt()).max(2.0);
        self
    }
}

/// The shared simulation world.
pub struct World {
    /// Video catalog (shared ladder).
    pub catalog: Catalog,
    /// User population.
    pub population: UserPopulation,
    /// Tolerance drift model for day-to-day dynamics.
    pub drift: ToleranceDrift,
}

impl World {
    /// Build a world deterministically from a seed.
    pub fn build(config: &WorldConfig, seed: u64) -> Result<Self> {
        let mut rng = StdRng::seed_from_u64(seed);
        let catalog = Catalog::generate(
            BitrateLadder::default_short_video(),
            &CatalogConfig {
                n_videos: config.n_videos,
                vbr: VbrModel::default_vbr(),
                ..CatalogConfig::default()
            },
            &mut rng,
        )
        .map_err(sub)?;
        let population = UserPopulation::generate(
            &PopulationConfig {
                n_users: config.n_users,
                mean_sessions_per_day: config.mean_sessions_per_day,
                mixture: config.mixture,
            },
            &mut rng,
        )
        .map_err(sub)?;
        Ok(Self {
            catalog,
            population,
            drift: ToleranceDrift::default(),
        })
    }

    /// The ladder.
    pub fn ladder(&self) -> &BitrateLadder {
        self.catalog.ladder()
    }

    /// Number of sessions a user plays on one day (Poisson-ish rounding of
    /// the user's engagement level, deterministic under `rng`).
    pub fn sessions_today<R: Rng>(&self, user: &UserRecord, rng: &mut R) -> usize {
        let lambda = user.sessions_per_day;
        let jitter = 0.5 + rng.gen::<f64>();
        ((lambda * jitter).round() as usize).clamp(1, 60)
    }

    /// Generate a bandwidth trace for one user session.
    pub fn session_trace<R: Rng>(
        &self,
        user: &UserRecord,
        seconds: usize,
        rng: &mut R,
    ) -> Result<BandwidthTrace> {
        user.net.trace(seconds.max(60), 1.0, rng).map_err(sub)
    }

    /// Run one plain (un-managed) session of `user` with `abr`.
    pub fn run_plain_session<R: Rng>(
        &self,
        user: &UserRecord,
        abr: &mut dyn Abr,
        exit_model: &mut QosExitModel,
        player: PlayerConfig,
        rng: &mut R,
    ) -> Result<lingxi_player::SessionLog> {
        let video = self.catalog.sample(rng);
        let trace = self.session_trace(user, (video.duration() * 3.0) as usize, rng)?;
        let ladder = self.ladder();
        let setup = SessionSetup {
            user_id: user.id,
            video,
            ladder,
            process: &trace,
            config: player,
        };
        exit_model.reset_session();
        run_session(
            &setup,
            drive(abr, ladder, &video.sizes),
            consult(exit_model, ladder),
            rng,
        )
        .map_err(sub)
    }
}

/// Default player configuration used across the experiments.
pub fn default_player() -> PlayerConfig {
    PlayerConfig::default()
}

#[cfg(test)]
mod tests {
    use super::*;
    use lingxi_abr::Hyb;

    #[test]
    fn world_builds_deterministically() {
        let cfg = WorldConfig::default().scaled(0.05);
        let a = World::build(&cfg, 1).unwrap();
        let b = World::build(&cfg, 1).unwrap();
        assert_eq!(a.population.users().len(), b.population.users().len());
        assert_eq!(a.catalog.len(), b.catalog.len());
        assert!(a.population.len() >= 8);
    }

    #[test]
    fn scaled_config_shrinks() {
        let cfg = WorldConfig::default().scaled(0.05);
        assert!(cfg.n_users < WorldConfig::default().n_users);
        assert!(cfg.n_users >= 8);
    }

    #[test]
    fn plain_session_produces_log() {
        let world = World::build(&WorldConfig::default().scaled(0.05), 2).unwrap();
        let user = world.population.users()[0];
        let mut abr = Hyb::default_rule();
        let mut exit_model = user.exit_model();
        let mut rng = StdRng::seed_from_u64(3);
        let log = world
            .run_plain_session(&user, &mut abr, &mut exit_model, default_player(), &mut rng)
            .unwrap();
        assert!(!log.segments.is_empty());
        assert!(log.watch_time >= 0.0);
    }
}
