//! RobustMPC — model-predictive control over `QoE_lin` (Yin et al.,
//! SIGCOMM'15), the explicit-objective baseline of §5.2.
//!
//! Plans `H` segments ahead by exhaustive search over level sequences,
//! simulating the buffer recursion with a *robust* (error-discounted
//! harmonic-mean) throughput forecast, and scoring candidate futures with
//! `QoE_lin` under the current [`QoeParams`]. LingXi retunes those weights
//! (stall weight μ, switch weight) online.

use lingxi_net::HarmonicMeanEstimator;
use lingxi_player::PlayerEnv;

use crate::abr::{Abr, AbrContext};
use crate::params::QoeParams;
use crate::qoe::QoeLin;
use crate::{AbrError, Result};

/// RobustMPC ABR.
#[derive(Debug, Clone)]
pub struct RobustMpc {
    horizon: usize,
    estimator: HarmonicMeanEstimator,
    window: usize,
    params: QoeParams,
}

impl RobustMpc {
    /// Create with lookahead `horizon` (the paper's MPC uses 5).
    pub fn new(horizon: usize, window: usize) -> Result<Self> {
        if horizon == 0 || horizon > 8 {
            return Err(AbrError::InvalidConfig(
                "horizon must be in 1..=8 (exhaustive search)".into(),
            ));
        }
        let estimator = HarmonicMeanEstimator::new(window.max(1))
            .map_err(|e| AbrError::InvalidConfig(e.to_string()))?;
        Ok(Self {
            horizon,
            estimator,
            window: window.max(1),
            params: QoeParams::default(),
        })
    }

    /// The canonical 5-segment horizon over an 8-sample window.
    pub fn default_rule() -> Self {
        Self::new(5, 8).expect("static config valid")
    }

    /// Score one candidate plan starting from `buffer0`/`prev_level`.
    #[allow(clippy::too_many_arguments)]
    fn plan_score(
        &self,
        ctx: &AbrContext<'_>,
        plan: &[usize],
        start_segment: usize,
        buffer0: f64,
        prev_level: Option<usize>,
        throughput: f64,
        bmax: f64,
    ) -> f64 {
        let qoe = QoeLin::from_params(&self.params);
        let mut buffer = buffer0;
        let mut prev = prev_level;
        let mut score = 0.0;
        for (i, &level) in plan.iter().enumerate() {
            let k = start_segment + i;
            let size = match ctx
                .sizes
                .size_kbits(k.min(ctx.sizes.n_segments() - 1), level)
            {
                Ok(s) => s,
                Err(_) => break,
            };
            let dl = size / throughput;
            let stall = (dl - buffer).max(0.0);
            buffer = ((buffer - dl).max(0.0) + ctx.segment_duration).min(bmax);
            score += qoe.segment_score(ctx.ladder, level, prev, stall);
            prev = Some(level);
        }
        score
    }
}

impl Abr for RobustMpc {
    fn select(&mut self, env: &PlayerEnv, ctx: &AbrContext<'_>) -> usize {
        crate::abr::sync_estimator(&mut self.estimator, env);
        let throughput = match self.estimator.robust_estimate() {
            None => return 0,
            Some(t) => t.max(1.0),
        };
        let n_levels = ctx.ladder.top_level() + 1;
        let remaining = ctx.sizes.n_segments().saturating_sub(ctx.next_segment);
        let depth = self.horizon.min(remaining.max(1));
        // Exhaustive search over level sequences of length `depth`.
        let total: usize = n_levels.pow(depth as u32);
        let mut best_first = 0usize;
        let mut best_score = f64::NEG_INFINITY;
        let mut plan = vec![0usize; depth];
        for code in 0..total {
            let mut c = code;
            for slot in plan.iter_mut() {
                *slot = c % n_levels;
                c /= n_levels;
            }
            let score = self.plan_score(
                ctx,
                &plan,
                ctx.next_segment,
                env.buffer(),
                env.last_level(),
                throughput,
                env.bmax(),
            );
            if score > best_score {
                best_score = score;
                best_first = plan[0];
            }
        }
        best_first
    }

    fn set_params(&mut self, params: QoeParams) {
        self.params = params;
    }

    fn params(&self) -> QoeParams {
        self.params
    }

    fn reset(&mut self) {
        self.estimator = HarmonicMeanEstimator::new(self.window).expect("window validated");
    }

    fn fork(&self) -> Box<dyn Abr> {
        Box::new(self.clone())
    }

    fn name(&self) -> &'static str {
        "robust_mpc"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lingxi_media::{BitrateLadder, SegmentSizes, VbrModel};
    use lingxi_player::PlayerConfig;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn fixture() -> (BitrateLadder, SegmentSizes) {
        let ladder = BitrateLadder::default_short_video();
        let mut rng = StdRng::seed_from_u64(1);
        let sizes = SegmentSizes::generate(&ladder, 30, 2.0, &VbrModel::cbr(), &mut rng).unwrap();
        (ladder, sizes)
    }

    fn env_with(buffer_target: f64, bandwidth: f64, steps: usize) -> PlayerEnv {
        let mut env = PlayerEnv::new(PlayerConfig::deterministic(20.0, 0.0)).unwrap();
        let mut rng = StdRng::seed_from_u64(2);
        for _ in 0..steps {
            env.step(bandwidth * 0.01, 0, bandwidth, 2.0, &mut rng)
                .unwrap();
            if env.buffer() >= buffer_target {
                break;
            }
        }
        env
    }

    #[test]
    fn cold_start_lowest() {
        let (ladder, sizes) = fixture();
        let mut abr = RobustMpc::default_rule();
        let env = PlayerEnv::new(PlayerConfig::deterministic(20.0, 0.0)).unwrap();
        let ctx = AbrContext {
            ladder: &ladder,
            sizes: &sizes,
            next_segment: 0,
            segment_duration: 2.0,
        };
        assert_eq!(abr.select(&env, &ctx), 0);
    }

    #[test]
    fn rich_link_plans_high() {
        let (ladder, sizes) = fixture();
        let mut abr = RobustMpc::default_rule();
        let env = env_with(10.0, 30_000.0, 50);
        let ctx = AbrContext {
            ladder: &ladder,
            sizes: &sizes,
            next_segment: 5,
            segment_duration: 2.0,
        };
        assert_eq!(abr.select(&env, &ctx), 3);
    }

    #[test]
    fn poor_link_plans_low() {
        let (ladder, sizes) = fixture();
        let mut abr = RobustMpc::default_rule();
        let env = env_with(2.0, 500.0, 10);
        let ctx = AbrContext {
            ladder: &ladder,
            sizes: &sizes,
            next_segment: 5,
            segment_duration: 2.0,
        };
        assert!(abr.select(&env, &ctx) <= 1);
    }

    #[test]
    fn high_stall_weight_is_more_conservative() {
        let (ladder, sizes) = fixture();
        // Mid link where the trade-off bites.
        let env = env_with(4.0, 2500.0, 20);
        let ctx = AbrContext {
            ladder: &ladder,
            sizes: &sizes,
            next_segment: 5,
            segment_duration: 2.0,
        };
        let mut gentle = RobustMpc::default_rule();
        gentle.set_params(QoeParams {
            stall_weight: 1.0,
            ..QoeParams::default()
        });
        let mut harsh = RobustMpc::default_rule();
        harsh.set_params(QoeParams {
            stall_weight: 20.0,
            ..QoeParams::default()
        });
        let lg = gentle.select(&env, &ctx);
        let lh = harsh.select(&env, &ctx);
        assert!(lh <= lg, "harsh {lh} should be <= gentle {lg}");
    }

    #[test]
    fn switch_weight_discourages_oscillation() {
        let (ladder, sizes) = fixture();
        let env = env_with(6.0, 2200.0, 20);
        let ctx = AbrContext {
            ladder: &ladder,
            sizes: &sizes,
            next_segment: 5,
            segment_duration: 2.0,
        };
        // With an enormous switch weight, MPC should stick near the last
        // level (0, from the warmup steps).
        let mut sticky = RobustMpc::default_rule();
        sticky.set_params(QoeParams {
            switch_weight: 4.0,
            stall_weight: 4.3,
            beta: 0.8,
        });
        let lvl = sticky.select(&env, &ctx);
        let mut loose = RobustMpc::default_rule();
        loose.set_params(QoeParams {
            switch_weight: 0.0,
            stall_weight: 4.3,
            beta: 0.8,
        });
        let lvl_loose = loose.select(&env, &ctx);
        assert!(lvl <= lvl_loose);
    }

    #[test]
    fn constructor_validation() {
        assert!(RobustMpc::new(0, 8).is_err());
        assert!(RobustMpc::new(9, 8).is_err());
        assert!(RobustMpc::new(5, 0).is_ok());
    }

    #[test]
    fn horizon_respects_video_end() {
        let ladder = BitrateLadder::default_short_video();
        let mut rng = StdRng::seed_from_u64(3);
        let sizes = SegmentSizes::generate(&ladder, 3, 2.0, &VbrModel::cbr(), &mut rng).unwrap();
        let mut abr = RobustMpc::default_rule();
        let env = env_with(6.0, 5000.0, 10);
        let ctx = AbrContext {
            ladder: &ladder,
            sizes: &sizes,
            next_segment: 2,
            segment_duration: 2.0,
        };
        // Only 1 segment remains; must not panic.
        let lvl = abr.select(&env, &ctx);
        assert!(lvl <= 3);
    }
}
