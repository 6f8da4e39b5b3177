//! Figure 13 — "LingXi Performance under Different BW" (§5.4).
//!
//! Per-bandwidth-bucket analysis of the detailed logs: (a) mean ± SD of
//! the deployed β parameter vs bandwidth — β rises with bandwidth and is
//! most volatile on weak links; (b) relative stall-time change vs the
//! static baseline — largest reduction (paper: ~−15%) below 2 Mbps,
//! convergence toward zero at high bandwidth.
//!
//! This figure and fig15 keep their own per-user session loops over the
//! shared [`World`] rather than running as fleet cells like fig12: they
//! plot per-user β trajectories, which `FleetReport` — population
//! aggregates and sketches only — deliberately does not retain.
//!
//! The design is paired: each `(video, trace)` is drawn once and played
//! twice, with LingXi and without. That is why this figure builds its own
//! `SessionSetup` and calls [`lingxi_core::play`] for both arms instead of
//! going through [`World::play`], which draws a fresh pair per call.

use lingxi_abr::Hyb;
use lingxi_core::{
    play, LingXiConfig, LingXiController, LingXiHooks, ManagedHooks, ProfilePredictor,
    SessionBuffers,
};
use lingxi_player::SessionSetup;
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};

use crate::report::{ExperimentResult, Series};
use crate::world::{default_player, user_stream, World, WorldConfig};
use crate::{sub, Result};

struct UserOutcome {
    mean_kbps: f64,
    betas: Vec<f64>,
    stall_lingxi: f64,
    stall_static: f64,
}

/// Run the experiment.
pub fn run(seed: u64, scale: f64) -> Result<ExperimentResult> {
    let world = World::build(
        &WorldConfig {
            n_users: 400,
            mean_sessions_per_day: 8.0,
            ..WorldConfig::default()
        }
        .scaled(scale),
        seed,
    )?;

    let mut outcomes: Vec<UserOutcome> = Vec::new();
    let mut buffers = SessionBuffers::new();
    let mut samples = Vec::new();
    for user in world.population.users() {
        let mut rng = user_stream(seed, user.id, 0xF13);
        let sessions = user.sessions_today(&mut rng);
        let mut controller = LingXiController::new(LingXiConfig::for_hyb()).map_err(sub)?;
        let mut predictor = ProfilePredictor {
            profile: user.stall,
            base: 0.015,
        };
        let mut betas = Vec::new();
        let mut stall_lingxi = 0.0;
        let mut stall_static = 0.0;
        for s in 0..sessions {
            let mut pair_rng =
                StdRng::seed_from_u64(seed ^ user.id.wrapping_mul(31) ^ ((s as u64) << 20));
            let video = world.catalog.sample(&mut pair_rng);
            let trace = user
                .private_trace(video.duration(), &mut pair_rng, samples)
                .map_err(sub)?;
            let setup = SessionSetup {
                user_id: user.id,
                video,
                ladder: world.ladder(),
                process: &trace,
                config: default_player(),
            };
            // The LingXi arm, then the static arm on the identical setup:
            // the same call, each arm on a stream seeded off the one before.
            let mut arm_seed = pair_rng.next_u64();
            for managed in [true, false] {
                let mut arm_rng = StdRng::seed_from_u64(arm_seed);
                let lingxi = managed.then_some(LingXiHooks {
                    controller: &mut controller,
                    predictor: &mut predictor,
                });
                let mut hooks = ManagedHooks {
                    abr: &mut Hyb::default_rule(),
                    lingxi,
                    user: &mut user.exit_model(),
                    buffers: &mut buffers,
                    rng: &mut arm_rng,
                };
                play(&setup, &mut hooks).map_err(sub)?;
                arm_seed = arm_rng.next_u64();
                if managed {
                    stall_lingxi += buffers.log().total_stall();
                    betas.push(controller.params().beta);
                } else {
                    stall_static += buffers.log().total_stall();
                }
            }
            samples = trace.into_samples().map_err(sub)?;
        }
        outcomes.push(UserOutcome {
            mean_kbps: user.net.mean_kbps,
            betas,
            stall_lingxi,
            stall_static,
        });
    }

    // Bucket by bandwidth (kbps).
    let edges = [1000.0, 2000.0, 3000.0, 4000.0, 5000.0, 6000.0, 7000.0];
    let mut result = ExperimentResult::new(
        "fig13",
        "Deployed β vs bandwidth; relative stall change vs bandwidth",
    );
    let mut beta_mean_pts = Vec::new();
    let mut beta_sd_pts = Vec::new();
    let mut stall_diff_pts = Vec::new();
    let mut low_bw_diff = None;
    for (i, &edge) in edges.iter().enumerate() {
        let lo = if i == 0 { 0.0 } else { edges[i - 1] };
        let bucket: Vec<&UserOutcome> = outcomes
            .iter()
            .filter(|o| o.mean_kbps >= lo && o.mean_kbps < edge)
            .collect();
        if bucket.is_empty() {
            continue;
        }
        let betas: Vec<f64> = bucket
            .iter()
            .flat_map(|o| o.betas.iter().cloned())
            .collect();
        if betas.is_empty() {
            continue;
        }
        let mean = betas.iter().sum::<f64>() / betas.len() as f64;
        let sd = (betas.iter().map(|b| (b - mean) * (b - mean)).sum::<f64>() / betas.len() as f64)
            .sqrt();
        beta_mean_pts.push((edge, mean));
        beta_sd_pts.push((edge, sd));
        let s_l: f64 = bucket.iter().map(|o| o.stall_lingxi).sum();
        let s_s: f64 = bucket.iter().map(|o| o.stall_static).sum();
        let diff = if s_s > 0.0 {
            100.0 * (s_l - s_s) / s_s
        } else {
            0.0
        };
        stall_diff_pts.push((edge, diff));
        if edge <= 2000.0 && s_s > 1.0 {
            low_bw_diff = Some(diff);
        }
    }
    result.push_series(Series::from_xy("beta_mean", &beta_mean_pts));
    result.push_series(Series::from_xy("beta_sd", &beta_sd_pts));
    result.push_series(Series::from_xy("stall_time_diff_pct", &stall_diff_pts));
    if let Some(d) = low_bw_diff {
        result.headline_value("stall_diff_below_2mbps_pct", d);
    }
    if beta_mean_pts.len() >= 2 {
        result.headline_value(
            "beta_slope_sign",
            (beta_mean_pts.last().unwrap().1 - beta_mean_pts[0].1).signum(),
        );
    }
    Ok(result)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig13_beta_rises_with_bandwidth() {
        let r = run(37, 0.15).unwrap();
        // Re-pinned when optimization passes moved to common random
        // numbers (one pass seed; rollout m of every candidate replays one
        // stream), which changed every pass's draws.
        // Re-pinned when rollouts moved onto a private fork of the ABR (the
        // live one used to keep the last rollout's estimator, so it ignored
        // live throughput for up to a rollout's horizon after each pass)
        // and when a mid-session estimator sync stopped re-absorbing the
        // samples of its first sync.
        assert_eq!(r.fingerprint(), 0xb8f0_f245_903b_fc6a);
        let means = r.series_named("beta_mean").unwrap().ys();
        assert!(!means.is_empty());
        // All betas within the valid range.
        assert!(means.iter().all(|&b| (0.3..=0.95).contains(&b)));
        if means.len() >= 2 {
            // Weak-link β should not exceed strong-link β by much.
            assert!(
                means[0] <= means.last().unwrap() + 0.15,
                "beta not rising: {means:?}"
            );
        }
    }
}
