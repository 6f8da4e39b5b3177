//! Rate-based ABR (FESTIVE/PANDA family): pick the highest level whose
//! bitrate fits under a safety-discounted harmonic-mean throughput estimate.

use lingxi_net::{BandwidthEstimator, HarmonicMeanEstimator};
use lingxi_player::PlayerEnv;

use crate::abr::{Abr, AbrContext};
use crate::params::QoeParams;
use crate::{AbrError, Result};

/// Throughput-rule ABR.
#[derive(Debug, Clone)]
pub struct ThroughputRule {
    safety: f64,
    window: usize,
    estimator: HarmonicMeanEstimator,
    params: QoeParams,
}

impl ThroughputRule {
    /// `safety` in `(0, 1]` discounts the estimate (0.9 is customary).
    pub fn new(safety: f64, window: usize) -> Result<Self> {
        if !(safety > 0.0 && safety <= 1.0) {
            return Err(AbrError::InvalidConfig("safety must be in (0,1]".into()));
        }
        let estimator = HarmonicMeanEstimator::new(window.max(1))
            .map_err(|e| AbrError::InvalidConfig(e.to_string()))?;
        Ok(Self {
            safety,
            window: window.max(1),
            estimator,
            params: QoeParams::default(),
        })
    }

    /// Customary configuration (0.9 safety over an 8-sample window).
    pub fn default_rule() -> Self {
        Self::new(0.9, 8).expect("static config valid")
    }
}

impl Abr for ThroughputRule {
    fn select(&mut self, env: &PlayerEnv, ctx: &AbrContext<'_>) -> usize {
        // Sync estimator with the player's observed history (idempotent:
        // feed only new samples).
        crate::abr::sync_estimator(&mut self.estimator, env);
        match self.estimator.estimate() {
            None => 0, // cold start: lowest level
            Some(est) => ctx.ladder.highest_level_at_most(self.safety * est),
        }
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
        "throughput"
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
        let sizes = SegmentSizes::generate(&ladder, 50, 2.0, &VbrModel::cbr(), &mut rng).unwrap();
        (ladder, sizes)
    }

    #[test]
    fn cold_start_picks_lowest() {
        let (ladder, sizes) = fixture();
        let mut abr = ThroughputRule::default_rule();
        let env = PlayerEnv::new(PlayerConfig::deterministic(10.0, 0.0)).unwrap();
        let ctx = AbrContext {
            ladder: &ladder,
            sizes: &sizes,
            next_segment: 0,
            segment_duration: 2.0,
        };
        assert_eq!(abr.select(&env, &ctx), 0);
    }

    #[test]
    fn high_throughput_picks_high_level() {
        let (ladder, sizes) = fixture();
        let mut abr = ThroughputRule::default_rule();
        let mut env = PlayerEnv::new(PlayerConfig::deterministic(10.0, 0.0)).unwrap();
        let mut rng = StdRng::seed_from_u64(2);
        for _ in 0..6 {
            env.step(1000.0, 0, 20_000.0, 2.0, &mut rng).unwrap();
        }
        let ctx = AbrContext {
            ladder: &ladder,
            sizes: &sizes,
            next_segment: 6,
            segment_duration: 2.0,
        };
        assert_eq!(abr.select(&env, &ctx), 3);
    }

    #[test]
    fn low_throughput_picks_low_level() {
        let (ladder, sizes) = fixture();
        let mut abr = ThroughputRule::default_rule();
        let mut env = PlayerEnv::new(PlayerConfig::deterministic(10.0, 0.0)).unwrap();
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..6 {
            env.step(1000.0, 0, 600.0, 2.0, &mut rng).unwrap();
        }
        let ctx = AbrContext {
            ladder: &ladder,
            sizes: &sizes,
            next_segment: 6,
            segment_duration: 2.0,
        };
        // 0.9 * 600 = 540 < 800 → LD.
        assert_eq!(abr.select(&env, &ctx), 0);
    }

    #[test]
    fn reset_clears_estimator() {
        let (ladder, sizes) = fixture();
        let mut abr = ThroughputRule::default_rule();
        let mut env = PlayerEnv::new(PlayerConfig::deterministic(10.0, 0.0)).unwrap();
        let mut rng = StdRng::seed_from_u64(4);
        for _ in 0..4 {
            env.step(1000.0, 0, 20_000.0, 2.0, &mut rng).unwrap();
        }
        let ctx = AbrContext {
            ladder: &ladder,
            sizes: &sizes,
            next_segment: 4,
            segment_duration: 2.0,
        };
        assert!(abr.select(&env, &ctx) > 0);
        abr.reset();
        let fresh = PlayerEnv::new(PlayerConfig::deterministic(10.0, 0.0)).unwrap();
        assert_eq!(abr.select(&fresh, &ctx), 0);
    }

    #[test]
    fn constructor_validation() {
        assert!(ThroughputRule::new(0.0, 8).is_err());
        assert!(ThroughputRule::new(1.5, 8).is_err());
        assert!(ThroughputRule::new(0.9, 0).is_ok()); // window clamped to 1
    }
}
