//! The LingXi controller — Algorithm 1.
//!
//! Tracks stall events during live playback; when the trigger threshold η
//! is crossed (and the pre-playback prune does not fire), runs the OBO ×
//! Monte-Carlo loop to find the parameters minimising the predicted exit
//! rate, and hands them to the ABR.

use lingxi_abr::{Abr, QoeParams};
use lingxi_bayes::{ObOptimizer, ObserverConfig};
use lingxi_exit::UserStateTracker;
use lingxi_media::BitrateLadder;
use lingxi_player::{PlayerEnv, SegmentRecord};
use rand::Rng;

use crate::montecarlo::{evaluate_in_pass, McConfig, McScratch};
use crate::predictor::RolloutPredictor;
use crate::{CoreError, Result};

/// Which QoE parameters the optimizer searches over. HYB deployments tune
/// β only; explicit-objective ABRs tune stall/switch weights (§5.2–5.3).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ParamDim {
    /// Stall penalty weight μ.
    Stall,
    /// Switch penalty weight.
    Switch,
    /// HYB aggressiveness β.
    Beta,
}

impl ParamDim {
    fn get_unit(&self, p: &QoeParams) -> f64 {
        let u = p.to_unit();
        match self {
            ParamDim::Stall => u[0],
            ParamDim::Switch => u[1],
            ParamDim::Beta => u[2],
        }
    }

    fn set_unit(&self, p: &mut QoeParams, v: f64) {
        let mut u = p.to_unit();
        match self {
            ParamDim::Stall => u[0] = v,
            ParamDim::Switch => u[1] = v,
            ParamDim::Beta => u[2] = v,
        }
        *p = QoeParams::from_unit(u);
    }
}

/// How candidate parameters are proposed — §5.2 compares LingXi with a
/// fixed candidate set (`L(F)`) against full Bayesian optimization
/// (`L(B)`).
#[derive(Debug, Clone, PartialEq, Default)]
pub enum SearchStrategy {
    /// Online Bayesian optimization over the active dimensions.
    #[default]
    Bayesian,
    /// Evaluate a fixed candidate list and pick the best.
    FixedCandidates(Vec<QoeParams>),
}

/// Controller configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct LingXiConfig {
    /// Trigger threshold η: optimize once this many stalls accumulate
    /// since the last optimization (paper picks 2 — Fig. 8b).
    pub trigger_stalls: usize,
    /// Maximum OBO iterations per optimization (`T_s`).
    pub max_trials: usize,
    /// Monte-Carlo settings.
    pub mc: McConfig,
    /// Pre-playback prune: skip optimization when
    /// `μ − 3σ > Q_max` (§4).
    pub prune_sigma: f64,
    /// A challenger must beat the incumbent's evaluated exit rate by this
    /// absolute margin to be adopted. Guards against Monte-Carlo noise
    /// walking the parameters away from a perfectly good incumbent when
    /// the objective is flat (e.g. stall-tolerant users).
    pub adoption_margin: f64,
    /// Dimensions to search.
    pub dims: [Option<ParamDim>; 3],
    /// Candidate proposal strategy.
    pub strategy: SearchStrategy,
}

impl LingXiConfig {
    /// HYB deployment: tune β only (the §5.3 configuration).
    pub fn for_hyb() -> Self {
        Self {
            trigger_stalls: 2,
            max_trials: 8,
            mc: McConfig::default(),
            prune_sigma: 3.0,
            adoption_margin: 0.004,
            dims: [Some(ParamDim::Beta), None, None],
            strategy: SearchStrategy::Bayesian,
        }
    }

    /// Explicit-objective ABRs (RobustMPC / Pensieve): tune stall + switch
    /// weights (the §5.2 configuration).
    pub fn for_qoe_abr() -> Self {
        Self {
            trigger_stalls: 2,
            max_trials: 8,
            mc: McConfig::default(),
            prune_sigma: 3.0,
            adoption_margin: 0.004,
            dims: [Some(ParamDim::Stall), Some(ParamDim::Switch), None],
            strategy: SearchStrategy::Bayesian,
        }
    }

    /// Active search dimensions.
    fn dims(&self) -> impl Iterator<Item = ParamDim> + Clone + '_ {
        self.dims.iter().flatten().copied()
    }

    /// Validate configuration.
    pub fn validate(&self) -> Result<()> {
        if self.trigger_stalls == 0 {
            return Err(CoreError::InvalidConfig(
                "trigger threshold must be positive".into(),
            ));
        }
        if self.max_trials == 0 {
            return Err(CoreError::InvalidConfig("need at least one trial".into()));
        }
        match &self.strategy {
            SearchStrategy::Bayesian => {
                if self.dims().next().is_none() {
                    return Err(CoreError::InvalidConfig(
                        "need at least one search dimension".into(),
                    ));
                }
            }
            SearchStrategy::FixedCandidates(cands) => {
                if cands.is_empty() {
                    return Err(CoreError::InvalidConfig(
                        "fixed candidate list must not be empty".into(),
                    ));
                }
            }
        }
        self.mc.validate()?;
        Ok(())
    }
}

/// Result of one optimization pass.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OptimizeOutcome {
    /// The parameters deployed.
    pub params: QoeParams,
    /// Predicted exit rate at those parameters.
    pub predicted_exit_rate: f64,
    /// Trials actually evaluated.
    pub trials: usize,
    /// Trials cut short by the early-termination prune.
    pub pruned_trials: usize,
}

/// The per-user LingXi controller.
pub struct LingXiController {
    config: LingXiConfig,
    /// Long-term user state (persisted across sessions).
    tracker: UserStateTracker,
    /// Best known parameters (warm start for the next trigger).
    best_params: QoeParams,
    /// Stalls since the last optimization.
    stalls_since_opt: usize,
    /// Total optimizations run (diagnostics).
    optimizations: usize,
    /// Total optimizations skipped by the pre-playback prune.
    prunes: usize,
}

impl LingXiController {
    /// New controller starting from default parameters.
    pub fn new(config: LingXiConfig) -> Result<Self> {
        config.validate()?;
        Ok(Self {
            config,
            tracker: UserStateTracker::new(),
            best_params: QoeParams::default(),
            stalls_since_opt: 0,
            optimizations: 0,
            prunes: 0,
        })
    }

    /// Restore a controller from persisted long-term state.
    pub fn with_state(
        config: LingXiConfig,
        tracker: UserStateTracker,
        params: QoeParams,
    ) -> Result<Self> {
        config.validate()?;
        Ok(Self {
            config,
            tracker,
            best_params: params,
            stalls_since_opt: 0,
            optimizations: 0,
            prunes: 0,
        })
    }

    /// Current best parameters.
    pub fn params(&self) -> QoeParams {
        self.best_params
    }

    /// The long-term user-state tracker (for persistence).
    pub fn tracker(&self) -> &UserStateTracker {
        &self.tracker
    }

    /// The controller's tracker, moved out for persistence.
    pub fn into_tracker(self) -> UserStateTracker {
        self.tracker
    }

    /// Count of optimizations run so far.
    pub fn optimizations(&self) -> usize {
        self.optimizations
    }

    /// Count of pre-playback prunes.
    pub fn prunes(&self) -> usize {
        self.prunes
    }

    /// Feed one live segment (Algorithm 1 line 5: state updates).
    pub fn observe_segment(&mut self, record: &SegmentRecord, segment_duration: f64) {
        self.tracker.push_segment(
            record.bitrate_kbps,
            record.throughput_kbps,
            segment_duration,
        );
        if record.stall_time > 0.0 {
            self.tracker.push_stall(record.stall_time);
            self.stalls_since_opt += 1;
        }
    }

    /// Feed a user exit (updates the stall→exit engagement dimension).
    pub fn observe_exit(&mut self, after_stall: bool) {
        if after_stall {
            self.tracker.push_stall_exit();
        }
    }

    /// Whether the trigger condition holds (`stall_count > η`).
    pub fn triggered(&self) -> bool {
        self.stalls_since_opt >= self.config.trigger_stalls
    }

    /// The pre-playback prune (§4): skip optimization when the bandwidth
    /// lower envelope clears the top bitrate — stalls are then negligible
    /// and personalization has nothing to gain.
    pub fn prunable(&self, env: &PlayerEnv, ladder: &BitrateLadder) -> bool {
        match env.bandwidth_model() {
            Some(model) => model.lower_envelope(self.config.prune_sigma) > ladder.max_bitrate(),
            None => false,
        }
    }

    /// Run one full optimization pass (Algorithm 1 lines 7–20) and deploy
    /// the winner to `abr` — `set_params` is the only change the pass
    /// makes to it, since rollouts play on forks. Returns `None` when the trigger hasn't fired
    /// or the pre-playback prune removed the work. A pass that runs draws
    /// one pass seed from `rng`, and its candidates are compared on the
    /// common random numbers it seeds (see [`crate::montecarlo`]); the
    /// optimizer's proposals draw from `rng` after it. Rollouts work in
    /// the caller's `scratch`; a fresh one and a reused one give identical
    /// results.
    pub fn maybe_optimize_in<R: Rng + ?Sized>(
        &mut self,
        abr: &mut dyn Abr,
        env: &PlayerEnv,
        ladder: &BitrateLadder,
        predictor: &mut dyn RolloutPredictor,
        scratch: &mut McScratch,
        rng: &mut R,
    ) -> Result<Option<OptimizeOutcome>> {
        if !self.triggered() {
            return Ok(None);
        }
        if self.prunable(env, ladder) {
            self.prunes += 1;
            self.stalls_since_opt = 0;
            return Ok(None);
        }
        let bandwidth = match env.bandwidth_model() {
            Some(b) if b.mu > 0.0 => b,
            // No observations yet: nothing to simulate against.
            _ => return Ok(None),
        };

        // The incumbent and every challenger go through this one call, as
        // candidates of one pass: rollout m of each replays the same draws.
        scratch.begin_pass(rng.gen());
        let mut evaluate = |params, prune_threshold| {
            evaluate_in_pass(
                abr,
                params,
                bandwidth,
                &self.tracker,
                env,
                ladder,
                predictor,
                &self.config.mc,
                prune_threshold,
                scratch,
            )
        };
        // Evaluate the incumbent first: challengers must beat it by the
        // adoption margin, so flat objectives keep the current parameters.
        let mut best_rate = evaluate(self.best_params, None)?.exit_rate;
        let mut best_params = self.best_params;
        let mut pruned_trials = 0usize;
        let mut trials = 1usize;
        let margin = self.config.adoption_margin;
        // L(B) asks the observer for each candidate; L(F) walks its fixed
        // list, stopping early when the list runs out.
        let dims = self.config.dims();
        let (mut optimizer, fixed) = match &self.config.strategy {
            SearchStrategy::Bayesian => {
                let mut optimizer = ObOptimizer::new(ObserverConfig::for_dim(dims.clone().count()))
                    .map_err(|e| CoreError::Subsystem(e.to_string()))?;
                // Warm start from the current best (OBO.init(x*, ...)).
                let warm: Vec<f64> = dims
                    .clone()
                    .map(|d| d.get_unit(&self.best_params))
                    .collect();
                optimizer
                    .init_with(&warm)
                    .map_err(|e| CoreError::Subsystem(e.to_string()))?;
                (Some(optimizer), &[][..])
            }
            SearchStrategy::FixedCandidates(list) => (None, list.as_slice()),
        };
        for trial in 0..self.config.max_trials {
            let (candidate, xu) = match &optimizer {
                Some(optimizer) => {
                    let xu = optimizer.next_candidate(rng);
                    let mut candidate = self.best_params;
                    for (d, &v) in dims.clone().zip(&xu) {
                        d.set_unit(&mut candidate, v);
                    }
                    (candidate, Some(xu))
                }
                None => match fixed.get(trial) {
                    Some(&candidate) => (candidate, None),
                    None => break,
                },
            };
            let prune = best_rate.is_finite().then_some(best_rate);
            let eval = evaluate(candidate, prune)?;
            trials += 1;
            if eval.pruned {
                pruned_trials += 1;
            } else if let (Some(optimizer), Some(xu)) = (optimizer.as_mut(), xu) {
                optimizer
                    .update(xu, eval.exit_rate)
                    .map_err(|e| CoreError::Subsystem(e.to_string()))?;
            }
            if eval.exit_rate < best_rate - margin {
                best_rate = eval.exit_rate;
                best_params = candidate;
            }
        }

        // Deploy (ABR.update(x*)) and reset the trigger accumulator.
        self.best_params = best_params;
        abr.set_params(best_params);
        self.stalls_since_opt = 0;
        self.optimizations += 1;
        Ok(Some(OptimizeOutcome {
            params: best_params,
            predicted_exit_rate: best_rate,
            trials,
            pruned_trials,
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::predictor::{ConstantPredictor, ProfilePredictor};
    use lingxi_abr::Hyb;
    use lingxi_player::PlayerConfig;
    use lingxi_user::{SensitivityKind, StallProfile};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn stalled_record(stall: f64) -> SegmentRecord {
        SegmentRecord {
            index: 0,
            level: 1,
            bitrate_kbps: 800.0,
            size_kbits: 1600.0,
            throughput_kbps: 700.0,
            download_time: 2.3,
            stall_time: stall,
            buffer_after: 2.0,
            switched_from: Some(1),
        }
    }

    fn env_with_bandwidth(kbps: f64, n: usize) -> PlayerEnv {
        let mut env = PlayerEnv::new(PlayerConfig::deterministic(10.0, 0.0)).unwrap();
        let mut rng = StdRng::seed_from_u64(42);
        for _ in 0..n {
            env.step(kbps * 0.1, 0, kbps, 2.0, &mut rng).unwrap();
        }
        env
    }

    /// A failing optimization pass must fail the session it fires in: a
    /// managed session that swallowed it would report an ordinary user
    /// exit. (The broken rollout config is planted past the constructor's
    /// validation, which only this module can do.)
    #[test]
    fn failed_pass_fails_the_managed_session() {
        use lingxi_media::{Catalog, CatalogConfig};
        let mut rng = StdRng::seed_from_u64(1);
        let cat = Catalog::generate(
            BitrateLadder::default_short_video(),
            &CatalogConfig {
                n_videos: 1,
                mean_duration: 60.0,
                ..CatalogConfig::default()
            },
            &mut rng,
        )
        .unwrap();
        // Below the ladder floor: every segment stalls, so the trigger fires.
        let trace = lingxi_net::BandwidthTrace::constant(300.0, 2000, 1.0).unwrap();
        let profile = StallProfile::new(SensitivityKind::Insensitive, 10.0, 0.05).unwrap();
        let mut user = lingxi_user::QosExitModel::calibrated(profile);
        user.base_exit = 0.0;
        let mut controller = LingXiController::new(LingXiConfig::for_hyb()).unwrap();
        controller.config.mc.samples = 0;
        let video = cat.video_cyclic(0);
        let setup = lingxi_player::SessionSetup {
            user_id: 2,
            video,
            ladder: cat.ladder(),
            process: &trace,
            config: PlayerConfig::deterministic(10.0, 0.0),
        };
        let out = crate::play(
            &setup,
            &mut crate::ManagedHooks {
                abr: &mut Hyb::default_rule(),
                lingxi: Some(crate::LingXiHooks {
                    controller: &mut controller,
                    predictor: &mut ProfilePredictor {
                        profile,
                        base: 0.002,
                    },
                }),
                user: &mut user,
                buffers: &mut crate::SessionBuffers::new(),
                rng: &mut rng,
            },
        );
        assert!(matches!(out, Err(CoreError::InvalidConfig(_))), "{out:?}");
    }

    #[test]
    fn trigger_counts_stalls() {
        let mut c = LingXiController::new(LingXiConfig::for_hyb()).unwrap();
        assert!(!c.triggered());
        c.observe_segment(&stalled_record(1.0), 2.0);
        assert!(!c.triggered());
        c.observe_segment(&stalled_record(0.5), 2.0);
        assert!(c.triggered());
        assert_eq!(c.stalls_since_opt, 2);
        // Stall-free segments don't move the trigger.
        let mut c2 = LingXiController::new(LingXiConfig::for_hyb()).unwrap();
        c2.observe_segment(&stalled_record(0.0), 2.0);
        assert_eq!(c2.stalls_since_opt, 0);
    }

    /// One pass of `c` over `abr` on the default ladder, with a fresh
    /// Monte-Carlo scratch.
    fn pass(
        c: &mut LingXiController,
        abr: &mut dyn Abr,
        env: &PlayerEnv,
        predictor: &mut dyn RolloutPredictor,
        seed: u64,
    ) -> Option<OptimizeOutcome> {
        let ladder = BitrateLadder::default_short_video();
        let mut rng = StdRng::seed_from_u64(seed);
        let scratch = &mut McScratch::new();
        c.maybe_optimize_in(abr, env, &ladder, predictor, scratch, &mut rng)
            .unwrap()
    }

    #[test]
    fn no_optimization_without_trigger() {
        let mut c = LingXiController::new(LingXiConfig::for_hyb()).unwrap();
        let env = env_with_bandwidth(3000.0, 8);
        let mut pred = ConstantPredictor { p: 0.05 };
        let out = pass(&mut c, &mut Hyb::default_rule(), &env, &mut pred, 1);
        assert!(out.is_none());
    }

    #[test]
    fn optimization_runs_and_deploys() {
        let mut c = LingXiController::new(LingXiConfig::for_hyb()).unwrap();
        let mut abr = Hyb::default_rule();
        let env = env_with_bandwidth(1200.0, 8);
        let profile = StallProfile::new(SensitivityKind::Sensitive, 2.0, 0.35).unwrap();
        let mut pred = ProfilePredictor {
            profile,
            base: 0.01,
        };
        c.observe_segment(&stalled_record(1.5), 2.0);
        c.observe_segment(&stalled_record(2.0), 2.0);
        let out = pass(&mut c, &mut abr, &env, &mut pred, 2).expect("trigger fired");
        assert!(out.trials > 0);
        assert!(out.predicted_exit_rate.is_finite());
        assert_eq!(c.params(), out.params);
        assert_eq!(lingxi_abr::Abr::params(&abr), out.params);
        assert_eq!(c.stalls_since_opt, 0);
        assert_eq!(c.optimizations(), 1);
    }

    /// Play segments `range` of a CBR video with `abr` over a bandwidth
    /// that swings between weak and strong, returning the levels chosen.
    fn play_live(
        abr: &mut dyn Abr,
        env: &mut PlayerEnv,
        range: std::ops::Range<usize>,
    ) -> Vec<usize> {
        use lingxi_abr::AbrContext;
        use lingxi_media::{SegmentSizes, VbrModel};
        let ladder = BitrateLadder::default_short_video();
        let cbr = &mut StdRng::seed_from_u64(0);
        let sizes = SegmentSizes::generate(&ladder, 16, 2.0, &VbrModel::cbr(), cbr).unwrap();
        let mut levels = Vec::new();
        for k in range {
            let ctx = AbrContext {
                ladder: &ladder,
                sizes: &sizes,
                next_segment: k,
                segment_duration: 2.0,
            };
            let level = abr.select(env, &ctx);
            let kbps = [700.0, 2600.0, 5200.0, 1100.0][k % 4];
            let size = sizes.size_kbits(k, level).unwrap();
            env.step_with_rtt(size, level, kbps, 2.0, 0.0).unwrap();
            levels.push(level);
        }
        levels
    }

    /// The live ABR is never lent to a rollout: after a pass it decides
    /// exactly as an untouched twin that was only handed the pass's
    /// winner. (A live estimator that ran the rollouts would be left on
    /// their virtual bandwidth, with its sample count ahead of the live
    /// segment index.)
    #[test]
    fn a_pass_changes_the_live_abr_only_by_its_params() {
        fn check<A: Abr + Clone>(mut live: A, mut config: LingXiConfig) {
            config.adoption_margin = 0.0;
            let mut env = PlayerEnv::new(PlayerConfig::deterministic(10.0, 0.0)).unwrap();
            play_live(&mut live, &mut env, 0..8);
            let mut twin = live.clone();
            let mut c = LingXiController::new(config).unwrap();
            c.observe_segment(&stalled_record(1.5), 2.0);
            c.observe_segment(&stalled_record(2.0), 2.0);
            let mut pred = ConstantPredictor { p: 0.0 };
            let out = pass(&mut c, &mut live, &env, &mut pred, 7).expect("trigger fired");
            twin.set_params(out.params);
            let mut twin_env = env.clone();
            let after = play_live(&mut live, &mut env, 8..16);
            let twin_after = play_live(&mut twin, &mut twin_env, 8..16);
            assert_eq!(after, twin_after, "{}", live.name());
        }
        check(Hyb::default_rule(), LingXiConfig::for_hyb());
        check(
            lingxi_abr::RobustMpc::default_rule(),
            LingXiConfig::for_qoe_abr(),
        );
    }

    #[test]
    fn sensitive_user_on_weak_link_gets_lower_beta() {
        // A stall-sensitive user on a weak link should end with a β no
        // higher than an insensitive user's on the same link (Fig. 14's
        // negative correlation, in expectation).
        let env = env_with_bandwidth(900.0, 8);
        let run = |profile: StallProfile, seed: u64| {
            let mut c = LingXiController::new(LingXiConfig::for_hyb()).unwrap();
            let mut pred = ProfilePredictor {
                profile,
                base: 0.01,
            };
            c.observe_segment(&stalled_record(2.0), 2.0);
            c.observe_segment(&stalled_record(2.0), 2.0);
            let out = pass(&mut c, &mut Hyb::default_rule(), &env, &mut pred, seed);
            out.expect("trigger fired").params.beta
        };
        let sensitive = StallProfile::new(SensitivityKind::Sensitive, 1.0, 0.4).unwrap();
        let tolerant = StallProfile::new(SensitivityKind::Insensitive, 8.0, 0.1).unwrap();
        let mut sens_total = 0.0;
        let mut tol_total = 0.0;
        for seed in 0..6 {
            sens_total += run(sensitive, seed);
            tol_total += run(tolerant, seed + 50);
        }
        assert!(
            sens_total <= tol_total + 0.3,
            "sensitive {sens_total} vs tolerant {tol_total}"
        );
    }

    #[test]
    fn preplayback_prune_skips_rich_links() {
        let mut c = LingXiController::new(LingXiConfig::for_hyb()).unwrap();
        let ladder = BitrateLadder::default_short_video();
        // 40 Mbps stable: μ − 3σ ≫ 4300 kbps.
        let env = env_with_bandwidth(40_000.0, 8);
        assert!(c.prunable(&env, &ladder));
        let mut pred = ConstantPredictor { p: 0.05 };
        c.observe_segment(&stalled_record(1.0), 2.0);
        c.observe_segment(&stalled_record(1.0), 2.0);
        let out = pass(&mut c, &mut Hyb::default_rule(), &env, &mut pred, 3);
        assert!(out.is_none());
        assert_eq!(c.prunes(), 1);
        assert_eq!(c.stalls_since_opt, 0, "prune still clears the trigger");
    }

    #[test]
    fn weak_links_not_prunable() {
        let c = LingXiController::new(LingXiConfig::for_hyb()).unwrap();
        let ladder = BitrateLadder::default_short_video();
        let env = env_with_bandwidth(1500.0, 8);
        assert!(!c.prunable(&env, &ladder));
        // Cold start (no bandwidth model) is never prunable.
        let cold = PlayerEnv::new(PlayerConfig::deterministic(10.0, 0.0)).unwrap();
        assert!(!c.prunable(&cold, &ladder));
    }

    #[test]
    fn config_validation() {
        let mut cfg = LingXiConfig::for_hyb();
        cfg.trigger_stalls = 0;
        assert!(LingXiController::new(cfg).is_err());
        let mut cfg2 = LingXiConfig::for_hyb();
        cfg2.dims = [None, None, None];
        assert!(LingXiController::new(cfg2).is_err());
        assert_eq!(LingXiConfig::for_qoe_abr().dims().count(), 2);
    }

    #[test]
    fn state_restoration_preserves_params() {
        let cfg = LingXiConfig::for_hyb();
        let mut tracker = UserStateTracker::new();
        tracker.push_segment(800.0, 1000.0, 2.0);
        let params = QoeParams {
            beta: 0.5,
            ..QoeParams::default()
        };
        let c = LingXiController::with_state(cfg, tracker, params).unwrap();
        assert_eq!(c.params().beta, 0.5);
        assert_eq!(c.tracker().recent_stall_count(), 0);
    }
}
