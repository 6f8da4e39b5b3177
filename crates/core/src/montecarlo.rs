//! Monte-Carlo parameter evaluation — Algorithm 2 (`EvaluateParameters`).
//!
//! Each of `M` rollouts forks the live player environment and user state,
//! applies the candidate parameters to the ABR, draws each virtual
//! segment's bandwidth from the client's normal model
//! `N(μ_Cpast, σ²_Cpast)` (one draw per segment, from the caller's RNG) and
//! asks the exit-rate predictor for a per-segment exit probability; a
//! random draw against it ends the rollout. The estimate is
//! `R_exit = exited_count / watched_count` over all samples.
//!
//! The first pruning stage of §4 lives here: when a `prune_threshold`
//! (the minimum exit rate observed across sibling candidates) is given,
//! evaluation terminates early as soon as even the most optimistic
//! completion (every remaining segment watched without exit) could not
//! beat it.

use lingxi_abr::{Abr, AbrContext, QoeParams};
use lingxi_exit::{StateMatrix, UserStateTracker};
use lingxi_media::{BitrateLadder, SegmentSizes, VbrModel};
use lingxi_player::PlayerEnv;
use lingxi_stats::NormalDist;
use rand::Rng;
use serde::{Deserialize, Serialize};

use crate::predictor::{RolloutContext, RolloutPredictor};
use crate::{CoreError, Result};

/// Floor (kbps) for rollout bandwidth draws: the truncation keeps the
/// normal model's left tail from producing zero or negative rates.
const MIN_ROLLOUT_KBPS: f64 = 50.0;

/// Monte-Carlo configuration.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct McConfig {
    /// Number of rollouts `M`.
    pub samples: usize,
    /// Per-rollout horizon `T_sample` in seconds (§3.2 sets it to the mean
    /// online video length).
    pub t_sample: f64,
    /// Segment duration `L` of the virtual video.
    pub segment_duration: f64,
}

impl Default for McConfig {
    fn default() -> Self {
        Self {
            samples: 8,
            t_sample: 48.0,
            segment_duration: 2.0,
        }
    }
}

impl McConfig {
    /// Validate parameters.
    pub fn validate(&self) -> Result<()> {
        if self.samples == 0 {
            return Err(CoreError::InvalidConfig("samples must be positive".into()));
        }
        if !(self.t_sample > 0.0) || !(self.segment_duration > 0.0) {
            return Err(CoreError::InvalidConfig(
                "durations must be positive".into(),
            ));
        }
        if self.segment_duration > self.t_sample {
            return Err(CoreError::InvalidConfig(
                "segment duration exceeds rollout horizon".into(),
            ));
        }
        Ok(())
    }

    /// Segments per rollout.
    pub fn segments_per_sample(&self) -> usize {
        (self.t_sample / self.segment_duration).ceil() as usize
    }
}

/// Outcome of one evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct McEvaluation {
    /// Estimated exit rate `exited / watched`.
    pub exit_rate: f64,
    /// Segments watched across all rollouts.
    pub watched: usize,
    /// Exits observed.
    pub exited: usize,
    /// Whether early termination fired.
    pub pruned: bool,
    /// Mean stall seconds per rollout (diagnostic).
    pub mean_stall: f64,
}

/// Reusable scratch space for Monte-Carlo evaluations.
///
/// Each evaluation builds a virtual video (a [`SegmentSizes`] table); a
/// scratch owned by the caller amortizes that allocation across the many
/// evaluations of an optimization pass — and, in the fleet engine, across
/// every session a user agent runs. A fresh scratch and a reused one give
/// identical results, so nothing depends on scratch reuse.
#[derive(Debug, Default)]
pub struct McScratch {
    sizes: Option<SegmentSizes>,
}

impl McScratch {
    /// An empty scratch; buffers are created on first use.
    pub fn new() -> Self {
        Self::default()
    }
}

/// Evaluate candidate `params` by virtual playback (Algorithm 2), building
/// the virtual video in the caller's `scratch`.
#[allow(clippy::too_many_arguments)]
pub fn evaluate_parameters_in<R: Rng + ?Sized>(
    abr: &mut dyn Abr,
    params: QoeParams,
    bandwidth: NormalDist,
    user_state: &UserStateTracker,
    env: &PlayerEnv,
    ladder: &BitrateLadder,
    predictor: &mut dyn RolloutPredictor,
    config: &McConfig,
    prune_threshold: Option<f64>,
    scratch: &mut McScratch,
    rng: &mut R,
) -> Result<McEvaluation> {
    config.validate()?;
    if !(bandwidth.mu > 0.0) {
        return Err(CoreError::InvalidConfig(
            "bandwidth model mean must be positive".into(),
        ));
    }
    let n_segments = config.segments_per_sample();
    // Virtual video: CBR segments at the ladder's nominal rates. CBR draws
    // nothing from `rng`, so refilling a reused table and generating a
    // fresh one are indistinguishable.
    let sizes: &SegmentSizes = match &mut scratch.sizes {
        Some(sizes) => {
            sizes
                .refill(
                    ladder,
                    n_segments,
                    config.segment_duration,
                    &VbrModel::cbr(),
                    rng,
                )
                .map_err(|e| CoreError::Subsystem(e.to_string()))?;
            sizes
        }
        slot @ None => slot.insert(
            SegmentSizes::generate(
                ladder,
                n_segments,
                config.segment_duration,
                &VbrModel::cbr(),
                rng,
            )
            .map_err(|e| CoreError::Subsystem(e.to_string()))?,
        ),
    };

    abr.set_params(params);
    let mut watched = 0usize;
    let mut exited = 0usize;
    let mut total_stall = 0.0;
    let mut pruned = false;

    // Predictors that only read the short-term context get a zero matrix;
    // building the real one is a per-segment copy of the tracker rows. The
    // tracker fork itself is dead weight in that case too — it is only
    // ever read back through `matrix()` and is dropped when the rollout
    // ends — so the fork and its per-segment pushes are skipped as well.
    let wants_state = predictor.wants_state();
    let zero_matrix = StateMatrix::zeros();

    // One scratch fork, re-seeded per rollout (`clone_from` keeps the
    // history buffers' allocations alive across rollouts).
    let mut env_sim = env.clone();
    'samples: for m in 0..config.samples {
        // Fork the live state (S_sim ← S, E_sim ← E_player).
        if m > 0 {
            env_sim.clone_from(env);
        }
        let mut tracker = wants_state.then(|| user_state.clone());
        abr.reset();
        let mut t_sim = 0.0;
        let mut k = 0usize;
        let mut session_stall = 0.0;
        let mut session_events = 0usize;
        while t_sim < config.t_sample {
            let ctx = AbrContext {
                ladder,
                sizes,
                next_segment: k.min(n_segments - 1),
                segment_duration: config.segment_duration,
            };
            let level = abr.select(&env_sim, &ctx).min(ladder.top_level());
            let size = sizes
                .size_kbits(k.min(n_segments - 1), level)
                .map_err(|e| CoreError::Subsystem(e.to_string()))?;
            // Every draw (bandwidth, RTT, exit) comes from this one stream.
            let c_k = bandwidth.sample_truncated_low(rng, MIN_ROLLOUT_KBPS);
            let prev = env_sim.last_level();
            let outcome = env_sim
                .step(size, level, c_k, config.segment_duration, rng)
                .map_err(|e| CoreError::Subsystem(e.to_string()))?;
            total_stall += outcome.stall_time;

            let stalled = outcome.stall_time > 0.0;
            if stalled {
                session_stall += outcome.stall_time;
                session_events += 1;
            }
            // Update the user-state matrix (skipped entirely when the
            // predictor never reads it).
            if let Some(tracker) = tracker.as_mut() {
                let bitrate = ladder
                    .bitrate(level)
                    .map_err(|e| CoreError::Subsystem(e.to_string()))?;
                tracker.push_segment(bitrate, outcome.throughput_kbps, config.segment_duration);
                if stalled {
                    tracker.push_stall(outcome.stall_time);
                }
            }
            let tier = ladder
                .tier(level)
                .map_err(|e| CoreError::Subsystem(e.to_string()))?;
            let gran = match prev {
                Some(p) => level as i64 - p as i64,
                None => 0,
            };
            let rollout_ctx = RolloutContext {
                stalled,
                tier,
                switch_granularity: gran,
                session_stall,
                session_stall_events: session_events,
                playback_time: t_sim,
            };
            let matrix = match tracker.as_ref() {
                Some(tracker) => tracker.matrix(),
                None => zero_matrix,
            };
            let p_exit = predictor.predict(&matrix, &rollout_ctx).clamp(0.0, 1.0);
            watched += 1;
            t_sim += config.segment_duration;
            k += 1;
            if rng.gen::<f64>() < p_exit {
                exited += 1;
                if let Some(tracker) = tracker.as_mut().filter(|_| stalled) {
                    tracker.push_stall_exit();
                }
                break;
            }
        }

        // Early-termination pruning (§4): optimistic bound on the final
        // exit rate assuming every remaining rollout watches its full
        // horizon without a single exit.
        if let Some(threshold) = prune_threshold {
            let remaining = (config.samples - m - 1) * n_segments;
            let optimistic = exited as f64 / (watched + remaining).max(1) as f64;
            if optimistic >= threshold {
                pruned = true;
                break 'samples;
            }
        }
    }

    Ok(McEvaluation {
        exit_rate: if watched == 0 {
            1.0
        } else {
            exited as f64 / watched as f64
        },
        watched,
        exited,
        pruned,
        mean_stall: total_stall / config.samples as f64,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::predictor::ConstantPredictor;
    use lingxi_abr::Hyb;
    use lingxi_player::PlayerConfig;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// One evaluation of HYB's default parameters from a fresh player and
    /// an empty history into `scratch`: a constant-`p` predictor under
    /// `N(mu, sigma²)`.
    fn evaluate(
        p: f64,
        (mu, sigma): (f64, f64),
        cfg: &McConfig,
        prune_threshold: Option<f64>,
        scratch: &mut McScratch,
        seed: u64,
    ) -> McEvaluation {
        evaluate_parameters_in(
            &mut Hyb::default_rule(),
            QoeParams::default(),
            NormalDist::new(mu, sigma).unwrap(),
            &UserStateTracker::new(),
            &PlayerEnv::new(PlayerConfig::deterministic(10.0, 0.0)).unwrap(),
            &BitrateLadder::default_short_video(),
            &mut ConstantPredictor { p },
            cfg,
            prune_threshold,
            scratch,
            &mut StdRng::seed_from_u64(seed),
        )
        .unwrap()
    }

    const RICH_LINK: (f64, f64) = (8000.0, 1000.0);

    #[test]
    fn zero_exit_predictor_watches_everything() {
        let cfg = McConfig::default();
        let eval = evaluate(0.0, RICH_LINK, &cfg, None, &mut McScratch::new(), 1);
        assert_eq!(eval.exit_rate, 0.0);
        assert_eq!(eval.exited, 0);
        assert_eq!(eval.watched, cfg.samples * cfg.segments_per_sample());
        assert!(!eval.pruned);
    }

    #[test]
    fn certain_exit_predictor_exits_immediately() {
        let cfg = McConfig::default();
        let eval = evaluate(1.0, RICH_LINK, &cfg, None, &mut McScratch::new(), 2);
        assert_eq!(eval.exit_rate, 1.0);
        assert_eq!(eval.watched, cfg.samples); // one segment per rollout
    }

    #[test]
    fn estimate_tracks_constant_probability() {
        let p = 0.08;
        let cfg = McConfig {
            samples: 200,
            ..McConfig::default()
        };
        let eval = evaluate(p, RICH_LINK, &cfg, None, &mut McScratch::new(), 3);
        // Per-segment exit probability p → exit rate ≈ p.
        assert!((eval.exit_rate - p).abs() < 0.03, "rate {}", eval.exit_rate);
    }

    #[test]
    fn pruning_short_circuits_hopeless_candidates() {
        let cfg = McConfig {
            samples: 64,
            ..McConfig::default()
        };
        // Sibling candidate achieved 0.01: this one can't win.
        let eval = evaluate(0.5, RICH_LINK, &cfg, Some(0.01), &mut McScratch::new(), 4);
        assert!(eval.pruned);
        assert!(eval.watched < cfg.samples * cfg.segments_per_sample() / 2);
    }

    #[test]
    fn low_bandwidth_rollouts_stall() {
        let cfg = McConfig::default();
        let eval = evaluate(0.0, (300.0, 50.0), &cfg, None, &mut McScratch::new(), 5);
        assert!(
            eval.mean_stall > 0.0,
            "300 kbps below the ladder floor must stall"
        );
    }

    #[test]
    fn config_validation() {
        let bad = McConfig {
            samples: 0,
            ..McConfig::default()
        };
        assert!(bad.validate().is_err());
        let bad2 = McConfig {
            segment_duration: 100.0,
            t_sample: 10.0,
            samples: 4,
        };
        assert!(bad2.validate().is_err());
        assert_eq!(McConfig::default().segments_per_sample(), 24);
    }

    #[test]
    fn scratch_reuse_is_transparent() {
        let cfg = McConfig::default();
        let mut scratch = McScratch::new();
        let first = evaluate(0.05, (4000.0, 1500.0), &cfg, None, &mut scratch, 11);
        // Reusing the warm scratch must not change anything.
        let second = evaluate(0.05, (4000.0, 1500.0), &cfg, None, &mut scratch, 11);
        assert_eq!(first, second);
    }

    #[test]
    fn deterministic_given_seed() {
        let cfg = McConfig::default();
        let run = |seed| {
            evaluate(
                0.05,
                (5000.0, 2000.0),
                &cfg,
                None,
                &mut McScratch::new(),
                seed,
            )
        };
        assert_eq!(run(9), run(9));
    }
}
