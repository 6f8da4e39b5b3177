//! Shared simulation world: catalog + population, and the one way a figure
//! plays a session in it.
//!
//! The per-figure experiments all draw from one synthetic "production
//! environment": a short-video catalog ([`lingxi_media`]), a bandwidth
//! population matched to Fig. 2(a) ([`lingxi_net`]) and a user population
//! with heterogeneous stall sensitivity ([`lingxi_user`]). A figure plays a
//! session with [`World::play`] — LingXi present or absent is the `lingxi`
//! field of the hooks it passes, so "the same session with and without
//! LingXi" is one call written once — on the user's [`user_stream`]. The
//! A/B figure (fig12) does not play sessions here: it hands this world's
//! population shape to the fleet engine, which builds and runs its own.

use lingxi_core::ManagedHooks;
use lingxi_media::{BitrateLadder, Catalog, CatalogConfig, VbrModel};
use lingxi_player::{PlayerConfig, SessionSetup};
use lingxi_user::{PopulationConfig, ToleranceDrift, UserPopulation, UserRecord};
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
        let s = scale.clamp(*crate::SCALE_RANGE.start(), *crate::SCALE_RANGE.end());
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

    /// Play one session of `user`: sample a video, draw the user's private
    /// trace for it, then [`lingxi_core::play`] it under the default player
    /// — in that order, all from `hooks.rng`. LingXi manages the session
    /// when `hooks.lingxi` is `Some`; the log (and LingXi's deployments)
    /// land in `hooks.buffers`.
    pub fn play<R: Rng + Clone>(
        &self,
        user: &UserRecord,
        hooks: &mut ManagedHooks<'_, R>,
    ) -> Result<()> {
        let video = self.catalog.sample(hooks.rng);
        let trace = user
            .private_trace(video.duration(), hooks.rng, Vec::new())
            .map_err(sub)?;
        let setup = SessionSetup {
            user_id: user.id,
            video,
            ladder: self.ladder(),
            process: &trace,
            config: default_player(),
        };
        lingxi_core::play(&setup, hooks).map_err(sub)?;
        trace.into_samples().map_err(sub)?;
        Ok(())
    }
}

/// The RNG stream of `user_id` under `seed`: `seed ^ id·φ ^ salt`, φ the
/// 64-bit golden ratio. The `salt` keeps one figure's streams — and one
/// figure's arms, days or grid cells — apart from another's.
pub fn user_stream(seed: u64, user_id: u64, salt: u64) -> StdRng {
    StdRng::seed_from_u64(seed ^ user_id.wrapping_mul(0x9E3779B97F4A7C15) ^ salt)
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

    /// Both arms of a figure are this one call: without LingXi it is a
    /// plain session, with it the controller is fed; either way the video
    /// and the trace are the first two things drawn from the stream.
    #[test]
    fn play_runs_a_session_with_and_without_lingxi() {
        use lingxi_core::{LingXiConfig, LingXiController, LingXiHooks, SessionBuffers};
        let world = World::build(&WorldConfig::default().scaled(0.05), 2).unwrap();
        let user = world.population.users()[0];
        let mut controller = LingXiController::new(LingXiConfig::for_hyb()).unwrap();
        let mut predictor = lingxi_core::ProfilePredictor {
            profile: user.stall,
            base: 0.015,
        };
        let mut buffers = SessionBuffers::new();
        let mut first_video = None;
        for managed in [false, true] {
            let lingxi = managed.then_some(LingXiHooks {
                controller: &mut controller,
                predictor: &mut predictor,
            });
            let mut hooks = ManagedHooks {
                abr: &mut Hyb::default_rule(),
                lingxi,
                user: &mut user.exit_model(),
                buffers: &mut buffers,
                rng: &mut user_stream(3, user.id, 0),
            };
            world.play(&user, &mut hooks).unwrap();
            let log = buffers.log();
            assert!(log.user_id == user.id && !log.segments.is_empty());
            // Same stream, same first draw: both arms play the same video.
            assert_eq!(*first_video.get_or_insert(log.video_id), log.video_id);
        }
        // LingXi observed its arm.
        assert_ne!(controller.tracker(), &lingxi_exit::UserStateTracker::new());
    }
}
