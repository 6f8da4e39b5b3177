//! BOLA — Lyapunov-optimization buffer control (Spiteri et al., ToN'20).
//!
//! BOLA-basic: for buffer level `Q` (in segments) choose the level `m`
//! maximising `(V·(v_m + γp) − Q) / s_m`, where `v_m = ln(S_m / S_min)` is
//! the utility of level `m`, `s_m` its relative size, `V` the
//! buffer-vs-utility trade-off and `γp` the rebuffer-avoidance utility
//! offset. Downloads only levels with positive numerator; otherwise the
//! lowest level (BOLA would idle; a live player must keep requesting).

use lingxi_player::PlayerEnv;

use crate::abr::{Abr, AbrContext};
use crate::params::QoeParams;
use crate::{AbrError, Result};

/// BOLA ABR.
#[derive(Debug, Clone)]
pub struct Bola {
    /// Lyapunov trade-off parameter `V` (bigger = more quality-seeking).
    v: f64,
    /// Rebuffer-penalty utility offset `γp`.
    gamma_p: f64,
    params: QoeParams,
}

impl Bola {
    /// Create with explicit control parameters.
    pub fn new(v: f64, gamma_p: f64) -> Result<Self> {
        if !(v > 0.0) || !(gamma_p >= 0.0) {
            return Err(AbrError::InvalidConfig("V > 0 and gamma_p >= 0".into()));
        }
        Ok(Self {
            v,
            gamma_p,
            params: QoeParams::default(),
        })
    }

    /// A configuration tuned for ~10 s buffers and 4-level ladders.
    pub fn default_rule() -> Self {
        Self::new(0.93, 5.0).expect("static config valid")
    }

    /// Utility of `level`: `ln(S_level / S_0)`.
    fn utility(ctx: &AbrContext<'_>, level: usize) -> f64 {
        let ladder = ctx.ladder;
        let b = ladder.bitrate(level).unwrap_or(1.0);
        (b / ladder.min_bitrate()).ln()
    }
}

impl Abr for Bola {
    fn select(&mut self, env: &PlayerEnv, ctx: &AbrContext<'_>) -> usize {
        let buffer_segments = env.buffer() / ctx.segment_duration;
        let mut best = 0usize;
        let mut best_score = f64::NEG_INFINITY;
        let mut any_positive = false;
        for level in 0..=ctx.ladder.top_level() {
            let v_m = Self::utility(ctx, level);
            // Relative size: proportional to bitrate for a fixed duration.
            let s_m = ctx.ladder.bitrate(level).unwrap_or(1.0) / ctx.ladder.min_bitrate();
            let numerator = self.v * (v_m + self.gamma_p) - buffer_segments;
            let score = numerator / s_m;
            if numerator > 0.0 {
                any_positive = true;
            }
            if score > best_score {
                best_score = score;
                best = level;
            }
        }
        if any_positive {
            best
        } else {
            // Buffer above BOLA's pause threshold: hold the top level
            // rather than pausing (live players keep requesting).
            ctx.ladder.top_level()
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
        "bola"
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
        let sizes = SegmentSizes::generate(&ladder, 10, 2.0, &VbrModel::cbr(), &mut rng).unwrap();
        (ladder, sizes)
    }

    fn env_with_buffer(buffer: f64) -> PlayerEnv {
        let mut env = PlayerEnv::new(PlayerConfig::deterministic(30.0, 0.0)).unwrap();
        let mut rng = StdRng::seed_from_u64(2);
        while env.buffer() < buffer {
            env.step(10.0, 0, 1_000_000.0, 2.0, &mut rng).unwrap();
        }
        env
    }

    #[test]
    fn empty_buffer_picks_lowest() {
        let (ladder, sizes) = fixture();
        let mut abr = Bola::default_rule();
        let env = PlayerEnv::new(PlayerConfig::deterministic(30.0, 0.0)).unwrap();
        let ctx = AbrContext {
            ladder: &ladder,
            sizes: &sizes,
            next_segment: 0,
            segment_duration: 2.0,
        };
        assert_eq!(abr.select(&env, &ctx), 0);
    }

    #[test]
    fn deeper_buffer_never_lowers_level() {
        let (ladder, sizes) = fixture();
        let mut abr = Bola::default_rule();
        let ctx = AbrContext {
            ladder: &ladder,
            sizes: &sizes,
            next_segment: 0,
            segment_duration: 2.0,
        };
        let mut prev = 0;
        for b in [0.0, 2.0, 4.0, 6.0, 8.0, 10.0, 14.0] {
            let env = env_with_buffer(b);
            let lvl = abr.select(&env, &ctx);
            assert!(lvl >= prev, "buffer {b}: {lvl} < {prev}");
            prev = lvl;
        }
        assert_eq!(prev, 3, "deep buffer should reach the top level");
    }

    #[test]
    fn smaller_gamma_p_is_more_aggressive() {
        // gamma_p is the rebuffer-avoidance utility offset: it inflates the
        // value of *any* download, which favours cheap (low) levels. A
        // smaller gamma_p therefore lets utility dominate → higher levels.
        let (ladder, sizes) = fixture();
        let ctx = AbrContext {
            ladder: &ladder,
            sizes: &sizes,
            next_segment: 0,
            segment_duration: 2.0,
        };
        let env = env_with_buffer(4.0);
        let mut protective = Bola::new(0.93, 5.0).unwrap();
        let mut eager = Bola::new(0.93, 1.0).unwrap();
        assert!(eager.select(&env, &ctx) > protective.select(&env, &ctx));
    }

    #[test]
    fn constructor_validation() {
        assert!(Bola::new(0.0, 5.0).is_err());
        assert!(Bola::new(1.0, -1.0).is_err());
    }
}
