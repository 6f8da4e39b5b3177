//! BBA — the buffer-based approach of Huang et al. (SIGCOMM'14).
//!
//! Maps the current buffer level linearly from a *reservoir* (below which
//! the lowest rate is used) through a *cushion* (above which the highest
//! rate is used) onto the rate ladder. No throughput estimate at all.

use lingxi_player::PlayerEnv;

use crate::abr::{Abr, AbrContext};
use crate::params::QoeParams;
use crate::{AbrError, Result};

/// Buffer-based ABR.
#[derive(Debug, Clone)]
pub struct Bba {
    /// Buffer level (s) below which the lowest level is always chosen.
    reservoir: f64,
    /// Buffer span (s) over which levels ramp to the top.
    cushion: f64,
    params: QoeParams,
}

impl Bba {
    /// Create with explicit reservoir/cushion (seconds).
    pub fn new(reservoir: f64, cushion: f64) -> Result<Self> {
        if !(reservoir >= 0.0) || !(cushion > 0.0) {
            return Err(AbrError::InvalidConfig(
                "reservoir >= 0 and cushion > 0 required".into(),
            ));
        }
        Ok(Self {
            reservoir,
            cushion,
            params: QoeParams::default(),
        })
    }

    /// The original paper's shape scaled to short-video buffers:
    /// 2 s reservoir, 6 s cushion.
    pub fn default_rule() -> Self {
        Self::new(2.0, 6.0).expect("static config valid")
    }
}

impl Abr for Bba {
    fn select(&mut self, env: &PlayerEnv, ctx: &AbrContext<'_>) -> usize {
        let top = ctx.ladder.top_level();
        let b = env.buffer();
        if b <= self.reservoir {
            0
        } else if b >= self.reservoir + self.cushion {
            top
        } else {
            let t = (b - self.reservoir) / self.cushion;
            ((t * top as f64).floor() as usize).min(top)
        }
    }

    fn set_params(&mut self, params: QoeParams) {
        self.params = params;
    }

    fn params(&self) -> QoeParams {
        self.params
    }

    fn reset(&mut self) {}

    fn fork(&self) -> Box<dyn Abr> {
        Box::new(self.clone())
    }

    fn name(&self) -> &'static str {
        "bba"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lingxi_media::{BitrateLadder, SegmentSizes, VbrModel};
    use lingxi_player::PlayerConfig;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn ctx_fixture() -> (BitrateLadder, SegmentSizes) {
        let ladder = BitrateLadder::default_short_video();
        let mut rng = StdRng::seed_from_u64(1);
        let sizes = SegmentSizes::generate(&ladder, 10, 2.0, &VbrModel::cbr(), &mut rng).unwrap();
        (ladder, sizes)
    }

    fn env_with_buffer(buffer: f64) -> PlayerEnv {
        let mut env = PlayerEnv::new(PlayerConfig::deterministic(20.0, 0.0)).unwrap();
        let mut rng = StdRng::seed_from_u64(2);
        // Build up buffer by stepping tiny segments over a fat pipe.
        while env.buffer() < buffer {
            env.step(10.0, 0, 1_000_000.0, 2.0, &mut rng).unwrap();
        }
        env
    }

    #[test]
    fn reservoir_forces_lowest() {
        let (ladder, sizes) = ctx_fixture();
        let mut abr = Bba::default_rule();
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
    fn full_cushion_forces_top() {
        let (ladder, sizes) = ctx_fixture();
        let mut abr = Bba::default_rule();
        let env = env_with_buffer(9.0);
        let ctx = AbrContext {
            ladder: &ladder,
            sizes: &sizes,
            next_segment: 0,
            segment_duration: 2.0,
        };
        assert_eq!(abr.select(&env, &ctx), 3);
    }

    #[test]
    fn levels_monotone_in_buffer() {
        let (ladder, sizes) = ctx_fixture();
        let mut abr = Bba::default_rule();
        let ctx = AbrContext {
            ladder: &ladder,
            sizes: &sizes,
            next_segment: 0,
            segment_duration: 2.0,
        };
        let mut prev = 0;
        for b in [0.0, 2.5, 4.0, 5.5, 7.0, 8.5] {
            let env = env_with_buffer(b);
            let lvl = abr.select(&env, &ctx);
            assert!(lvl >= prev, "buffer {b} gave level {lvl} < {prev}");
            prev = lvl;
        }
    }

    #[test]
    fn constructor_validation() {
        assert!(Bba::new(-1.0, 5.0).is_err());
        assert!(Bba::new(2.0, 0.0).is_err());
        assert!(Bba::new(0.0, 1.0).is_ok());
    }
}
