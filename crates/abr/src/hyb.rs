//! HYB — the production throughput+buffer hybrid the paper deploys LingXi
//! over (§5.3).
//!
//! "The HYB algorithm ... select\[s\] maximum bitrates while maintaining
//! `d_k(Q_k)/C_k < β·B` to prevent stalls. Rather than explicit QoE
//! optimization, HYB employs the β parameter to tune algorithmic
//! aggressiveness": a big β trusts the bandwidth estimate (downloads may
//! take most of the buffer), a small β is conservative. LingXi tunes β
//! per user online (Fig. 13–15).

use lingxi_net::{BandwidthEstimator, EwmaEstimator};
use lingxi_player::PlayerEnv;

use crate::abr::{Abr, AbrContext};
use crate::params::QoeParams;
use crate::{AbrError, Result};

/// HYB ABR with the β aggressiveness knob.
#[derive(Debug, Clone)]
pub struct Hyb {
    estimator: EwmaEstimator,
    alpha: f64,
    params: QoeParams,
}

impl Hyb {
    /// Create with an EWMA smoothing factor for the bandwidth estimate.
    pub fn new(alpha: f64) -> Result<Self> {
        let estimator =
            EwmaEstimator::new(alpha).map_err(|e| AbrError::InvalidConfig(e.to_string()))?;
        Ok(Self {
            estimator,
            alpha,
            params: QoeParams::default(),
        })
    }

    /// Production-style configuration (α = 0.3, β from params).
    pub fn default_rule() -> Self {
        Self::new(0.3).expect("static config valid")
    }

    /// Current β.
    pub fn beta(&self) -> f64 {
        self.params.beta
    }

    /// HYB's decision at aggressiveness `beta` on a bandwidth `estimate`
    /// (`None` before the first observation: lowest level), a `buffer` of
    /// seconds and the previous segment's level.
    pub fn decide(
        beta: f64,
        estimate: Option<f64>,
        buffer: f64,
        last_level: Option<usize>,
        ctx: &AbrContext<'_>,
    ) -> usize {
        let est = match estimate {
            None => return 0,
            Some(e) => e,
        };
        let buffer = buffer.max(ctx.segment_duration * 0.25); // grace at startup
        let k = ctx
            .next_segment
            .min(ctx.sizes.n_segments().saturating_sub(1));
        // Highest level whose expected download time fits within β·B.
        let limit = beta * buffer;
        let mut choice = 0;
        for level in 0..=ctx.ladder.top_level() {
            let size = match ctx.sizes.size_kbits(k, level) {
                Ok(s) => s,
                Err(_) => break,
            };
            if size / est < limit {
                choice = level;
            }
        }
        // Upward hysteresis (production rules damp oscillation): only climb
        // above the previous level if the target also fits with a 20%
        // margin; otherwise hold. Downward moves are never delayed.
        if let Some(last) = last_level {
            if choice > last {
                let size_up = ctx.sizes.size_kbits(k, choice).unwrap_or(f64::INFINITY);
                if size_up / est >= 0.8 * beta * buffer {
                    choice = last; // hold: not enough margin to climb yet
                }
            }
        }
        choice
    }
}

impl Abr for Hyb {
    fn select(&mut self, env: &PlayerEnv, ctx: &AbrContext<'_>) -> usize {
        crate::abr::sync_estimator(&mut self.estimator, env);
        Self::decide(
            self.params.beta,
            self.estimator.estimate(),
            env.buffer(),
            env.last_level(),
            ctx,
        )
    }

    fn set_params(&mut self, params: QoeParams) {
        self.params = params;
    }

    fn params(&self) -> QoeParams {
        self.params
    }

    fn reset(&mut self) {
        self.estimator = EwmaEstimator::new(self.alpha).expect("alpha validated");
    }

    fn fork(&self) -> Box<dyn Abr> {
        Box::new(self.clone())
    }

    fn hyb_alpha(&self) -> Option<f64> {
        Some(self.alpha)
    }

    fn name(&self) -> &'static str {
        "hyb"
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
        let sizes = SegmentSizes::generate(&ladder, 20, 2.0, &VbrModel::cbr(), &mut rng).unwrap();
        (ladder, sizes)
    }

    fn env_with(buffer_target: f64, bandwidth: f64) -> PlayerEnv {
        let mut env = PlayerEnv::new(PlayerConfig::deterministic(20.0, 0.0)).unwrap();
        let mut rng = StdRng::seed_from_u64(2);
        while env.buffer() < buffer_target {
            env.step(bandwidth * 0.01, 0, bandwidth, 2.0, &mut rng)
                .unwrap();
        }
        env
    }

    #[test]
    fn cold_start_lowest() {
        let (ladder, sizes) = fixture();
        let mut abr = Hyb::default_rule();
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
    fn beta_controls_aggressiveness() {
        let (ladder, sizes) = fixture();
        let ctx = AbrContext {
            ladder: &ladder,
            sizes: &sizes,
            next_segment: 5,
            segment_duration: 2.0,
        };
        // Buffer 5 s, bandwidth 2000 kbps. Segment sizes: level3=8600 kbits
        // → 4.3 s download. β=0.95: 4.3 < 0.95*5=4.75 → level 3 allowed.
        // β=0.4: limit 2 s → only sizes < 4000 kbits (level 2 is 3700).
        let env = env_with(5.0, 2000.0);
        let mut bold = Hyb::default_rule();
        bold.set_params(QoeParams {
            beta: 0.95,
            ..QoeParams::default()
        });
        let mut shy = Hyb::default_rule();
        shy.set_params(QoeParams {
            beta: 0.4,
            ..QoeParams::default()
        });
        let lb = bold.select(&env, &ctx);
        let ls = shy.select(&env, &ctx);
        assert!(lb > ls, "bold {lb} vs shy {ls}");
    }

    #[test]
    fn weak_bandwidth_stays_low() {
        let (ladder, sizes) = fixture();
        let ctx = AbrContext {
            ladder: &ladder,
            sizes: &sizes,
            next_segment: 3,
            segment_duration: 2.0,
        };
        let env = env_with(3.0, 400.0);
        let mut abr = Hyb::default_rule();
        assert_eq!(abr.select(&env, &ctx), 0);
    }

    #[test]
    fn strong_bandwidth_reaches_top() {
        let (ladder, sizes) = fixture();
        let ctx = AbrContext {
            ladder: &ladder,
            sizes: &sizes,
            next_segment: 3,
            segment_duration: 2.0,
        };
        let env = env_with(8.0, 30_000.0);
        let mut abr = Hyb::default_rule();
        assert_eq!(abr.select(&env, &ctx), 3);
    }

    #[test]
    fn reset_forgets_estimate() {
        let (ladder, sizes) = fixture();
        let ctx = AbrContext {
            ladder: &ladder,
            sizes: &sizes,
            next_segment: 0,
            segment_duration: 2.0,
        };
        let mut abr = Hyb::default_rule();
        let env = env_with(8.0, 30_000.0);
        assert!(abr.select(&env, &ctx) > 0);
        abr.reset();
        let fresh = PlayerEnv::new(PlayerConfig::deterministic(20.0, 0.0)).unwrap();
        assert_eq!(abr.select(&fresh, &ctx), 0);
    }
}
