//! Figure 10 — "The Simulation Experiment of LingXi" (§5.2).
//!
//! Pre-deployment evaluation: {rule-based, data-driven} user models ×
//! {RobustMPC, Pensieve} baselines. For each combination we measure the
//! *video completion rate* under (i) fixed `QoE_lin` parameters swept over
//! the paper's grid (stall 1–20, switch 0–4), (ii) LingXi with a fixed
//! candidate set `L(F)`, (iii) LingXi with Bayesian optimization `L(B)`.
//! The shape to reproduce: fixed parameters barely move the needle; `L(F)`
//! beats the best fixed setting; `L(B)` beats `L(F)`.
//!
//! §5.2's data-driven user is a per-user exit predictor fitted to two
//! weeks of production logs; with no logs here, the generative
//! `QosExitModel` (`UserRecord::exit_model`) plays that role directly.
//!
//! Every cell is one function, `Bench::completion`: the fixed-parameter
//! cells pass no LingXi arm, the `L(F)`/`L(B)` cells pass theirs, and the
//! sessions go through the same [`World::play`] either way.

use lingxi_abr::{Abr, Pensieve, PensieveConfig, PensieveTrainer, QoeParams, RobustMpc};
use lingxi_core::{
    LingXiConfig, LingXiController, LingXiHooks, ManagedHooks, RolloutPredictor, SearchStrategy,
    SessionBuffers,
};
use lingxi_exit::StateMatrix;
use lingxi_user::{ExitModel, RuleBasedExit, UserRecord};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::report::{ExperimentResult, Series};
use crate::world::{user_stream, World, WorldConfig};
use crate::{sub, Result};

/// The stall-parameter sweep of the paper's x-axis.
pub const STALL_SWEEP: [f64; 5] = [1.0, 5.0, 10.0, 15.0, 20.0];
/// The switch-parameter sweep (series in the paper's panels).
pub const SWITCH_SWEEP: [f64; 5] = [0.0, 1.0, 2.0, 3.0, 4.0];

/// A rollout predictor matching a *rule-based* user: near-certain exit
/// once the session's stall exposure crosses the rule thresholds (the
/// simulation counterpart of fitting a predictor to a known user model).
#[derive(Debug, Clone, Copy)]
pub struct RuleRolloutPredictor {
    /// Stall-time threshold (seconds).
    pub max_stall_time: f64,
    /// Stall-count threshold.
    pub max_stall_count: usize,
}

impl RolloutPredictor for RuleRolloutPredictor {
    fn predict(&mut self, _state: &StateMatrix, ctx: &lingxi_core::RolloutContext) -> f64 {
        if ctx.session_stall >= self.max_stall_time
            || ctx.session_stall_events >= self.max_stall_count
        {
            0.95
        } else if ctx.stalled {
            0.02
        } else {
            0.005
        }
    }

    /// The rule reads only the rollout context, so rollouts hand it a zero
    /// matrix instead of building the state matrix per virtual segment.
    fn wants_state(&self) -> bool {
        false
    }
}

/// Which baseline ABR the run uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Baseline {
    RobustMpc,
    Pensieve,
}

/// Builds the exit model that drives one user's exits (rule-based or the
/// generative "data-driven" stand-in).
type MakeUser<'a> = &'a dyn Fn(&UserRecord) -> Box<dyn ExitModel>;

/// LingXi's side of a completion-rate cell: how it searches, and the
/// rollout predictor matched to each user's exit model.
type LingXiArm<'a> = (
    SearchStrategy,
    &'a dyn Fn(&UserRecord) -> Box<dyn RolloutPredictor>,
);

struct Bench<'w> {
    world: &'w World,
    users: Vec<&'w UserRecord>,
    sessions_per_user: usize,
    pensieve: Pensieve,
}

impl<'w> Bench<'w> {
    fn make_abr(&self, baseline: Baseline) -> Box<dyn Abr> {
        match baseline {
            Baseline::RobustMpc => Box::new(RobustMpc::default_rule()),
            Baseline::Pensieve => Box::new(self.pensieve.clone()),
        }
    }

    /// Completion rate of `baseline` over the cohort, every session
    /// starting from `params`. Without a LingXi arm they stay fixed; with
    /// one, each user's controller takes the parameters over at session
    /// start and re-tunes them from there.
    fn completion(
        &self,
        baseline: Baseline,
        params: QoeParams,
        lingxi: Option<LingXiArm<'_>>,
        mk_user: MakeUser<'_>,
        seed: u64,
    ) -> Result<f64> {
        let mut completed = 0usize;
        let mut total = 0usize;
        let mut buffers = SessionBuffers::new();
        // The two arms draw from per-user streams a fixed salt apart.
        let salt = if lingxi.is_some() { 0xA11 } else { 0 };
        for user in &self.users {
            let mut rng = user_stream(seed, user.id, salt);
            let mut managed = match &lingxi {
                Some((strategy, mk_pred)) => {
                    let mut config = LingXiConfig::for_qoe_abr();
                    config.strategy = strategy.clone();
                    let controller = LingXiController::new(config).map_err(sub)?;
                    Some((controller, mk_pred(user)))
                }
                None => None,
            };
            let mut model = mk_user(user);
            for _ in 0..self.sessions_per_user {
                let mut abr = self.make_abr(baseline);
                abr.set_params(params);
                let mut hooks = ManagedHooks {
                    abr: abr.as_mut(),
                    lingxi: managed.as_mut().map(|(controller, predictor)| LingXiHooks {
                        controller,
                        predictor: predictor.as_mut(),
                    }),
                    user: model.as_mut(),
                    buffers: &mut buffers,
                    rng: &mut rng,
                };
                self.world.play(user, &mut hooks)?;
                completed += usize::from(buffers.log().completed());
                total += 1;
            }
        }
        Ok(completed as f64 / total.max(1) as f64)
    }
}

/// The L(F) candidate list: a coarse grid over (stall, switch).
fn fixed_candidates() -> Vec<QoeParams> {
    let mut v = Vec::new();
    for &stall in &[2.0, 8.0, 14.0, 20.0] {
        for &switch in &[0.0, 2.0] {
            v.push(QoeParams {
                stall_weight: stall,
                switch_weight: switch,
                ..QoeParams::default()
            });
        }
    }
    v
}

/// Run the experiment.
pub fn run(seed: u64, scale: f64) -> Result<ExperimentResult> {
    // Completion-rate differences need stall pressure: bias the population
    // toward constrained/cellular links.
    let world = World::build(
        &WorldConfig {
            n_users: 60,
            n_videos: 30,
            mean_sessions_per_day: 6.0,
            mixture: crate::world::stall_heavy_mixture(),
        }
        .scaled(scale),
        seed,
    )?;
    // Keep only sub-6Mbps users: the cohort where ABR choices matter.
    let users: Vec<&UserRecord> = world
        .population
        .users()
        .iter()
        .filter(|u| u.net.mean_kbps < 6000.0)
        .collect();
    let users = if users.is_empty() {
        world.population.users().iter().take(4).collect()
    } else {
        users
    };

    // Train the Pensieve policy once (small in-simulator REINFORCE run).
    let mut rng = StdRng::seed_from_u64(seed ^ 0xF10);
    let mut pensieve = Pensieve::new(
        PensieveConfig {
            hidden: (32, 16),
            ..PensieveConfig::default()
        },
        &mut rng,
    )
    .map_err(sub)?;
    let trainer = PensieveTrainer {
        episodes_per_epoch: 8,
        epochs: (8.0 * scale.max(0.2)).round() as usize,
        episode_segments: 24,
        ..PensieveTrainer::default()
    };
    trainer
        .train(&mut pensieve, world.ladder(), &mut rng)
        .map_err(sub)?;

    let sessions_per_user = ((6.0 * scale).round() as usize).clamp(2, 10);
    let bench = Bench {
        world: &world,
        users,
        sessions_per_user,
        pensieve,
    };

    // One representative rule and the generative ("data-driven" stand-in)
    // model; the full 64-rule grid runs in fig11.
    let rule_user = |u: &UserRecord| -> Box<dyn ExitModel> {
        // Deterministic per-user rule in the paper's 2..=9 grid.
        let t = 2.0 + (u.id % 8) as f64;
        let c = 2 + (u.id / 8 % 8) as usize;
        Box::new(RuleBasedExit::new(t, c).expect("grid thresholds valid"))
    };
    let data_user = |u: &UserRecord| -> Box<dyn ExitModel> { Box::new(u.exit_model()) };

    let rule_pred = |u: &UserRecord| -> Box<dyn RolloutPredictor> {
        let t = 2.0 + (u.id % 8) as f64;
        let c = 2 + (u.id / 8 % 8) as usize;
        Box::new(RuleRolloutPredictor {
            max_stall_time: t,
            max_stall_count: c,
        })
    };
    let data_pred = |u: &UserRecord| -> Box<dyn RolloutPredictor> {
        Box::new(lingxi_core::ProfilePredictor {
            profile: u.stall,
            base: 0.015,
        })
    };

    let mut result = ExperimentResult::new(
        "fig10",
        "Completion rate: fixed params vs L(F) vs L(B), rule/data × MPC/Pensieve",
    );

    for (panel, baseline, mk_user, mk_pred) in [
        (
            "rule_mpc",
            Baseline::RobustMpc,
            &rule_user as MakeUser<'_>,
            &rule_pred as &dyn Fn(&UserRecord) -> Box<dyn RolloutPredictor>,
        ),
        ("rule_pensieve", Baseline::Pensieve, &rule_user, &rule_pred),
        ("data_mpc", Baseline::RobustMpc, &data_user, &data_pred),
        ("data_pensieve", Baseline::Pensieve, &data_user, &data_pred),
    ] {
        // Fixed-parameter sweep (one switch weight per series to bound cost:
        // the paper's full sweep is SWITCH_SWEEP; scale decides coverage).
        let switch_set: &[f64] = if scale >= 0.5 { &SWITCH_SWEEP } else { &[1.0] };
        let mut best_fixed = 0.0f64;
        for &switch in switch_set {
            let pts = STALL_SWEEP
                .iter()
                .map(|&stall| {
                    let params = QoeParams {
                        stall_weight: stall,
                        switch_weight: switch,
                        ..QoeParams::default()
                    };
                    let c = bench.completion(baseline, params, None, mk_user, seed ^ 0x10)?;
                    Ok((stall, c))
                })
                .collect::<Result<Vec<(f64, f64)>>>()?;
            for &(_, c) in &pts {
                best_fixed = best_fixed.max(c);
            }
            result.push_series(Series::from_xy(&format!("{panel}/fixed_sw{switch}"), &pts));
        }
        let lingxi = |strategy, arm_seed| {
            let arm = Some((strategy, mk_pred));
            bench.completion(baseline, QoeParams::default(), arm, mk_user, arm_seed)
        };
        let lf = lingxi(
            SearchStrategy::FixedCandidates(fixed_candidates()),
            seed ^ 0x1F,
        )?;
        let lb = lingxi(SearchStrategy::Bayesian, seed ^ 0x1B)?;
        result.push_series(Series::from_labelled(
            &format!("{panel}/lingxi"),
            &[("L(F)", lf), ("L(B)", lb)],
        ));
        result.headline_value(&format!("{panel}/best_fixed"), best_fixed);
        result.headline_value(&format!("{panel}/L(F)"), lf);
        result.headline_value(&format!("{panel}/L(B)"), lb);
    }
    Ok(result)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig10_lingxi_competitive_with_fixed() {
        let r = run(23, 0.25).unwrap();
        // Re-pinned when optimization passes moved to common random
        // numbers (one pass seed; rollout m of every candidate replays one
        // stream), which changed every pass's draws.
        assert_eq!(r.fingerprint(), 0xb964_6fac_34ca_768a);
        let get = |k: &str| r.headline_named(k);
        // For each panel, L(B) should be at least near the best fixed
        // parameters (the paper shows it beating them; at tiny scale we
        // accept parity within noise).
        for panel in ["rule_mpc", "data_mpc"] {
            let best_fixed = get(&format!("{panel}/best_fixed")).unwrap();
            let lb = get(&format!("{panel}/L(B)")).unwrap();
            assert!(
                lb >= best_fixed * 0.5 - 0.05,
                "{panel}: L(B) {lb} vs best fixed {best_fixed}"
            );
        }
        assert!(!r.series.is_empty());
    }
}
