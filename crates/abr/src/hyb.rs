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

    /// HYB's decision at aggressiveness `beta`: the next segment's level
    /// from each of `levels` levels' ratio `size / estimate` (`None`
    /// before the first observation), the `buffer`, the last level and
    /// the segment duration, reporting each comparison to `witness`.
    #[inline]
    pub fn decide<W: BetaWitness>(
        beta: f64,
        levels: usize,
        ratios: Option<impl Fn(usize) -> f64>,
        buffer: f64,
        last_level: Option<usize>,
        segment_duration: f64,
        witness: &mut W,
    ) -> usize {
        let Some(ratio) = ratios else {
            return 0; // no estimate: the lowest level, whatever β
        };
        // A quarter segment of grace at startup.
        let buffer = buffer.max(segment_duration * 0.25);
        // The highest level whose expected download time fits within β·B,
        // else level 0; `above` is the least ratio of the levels above it.
        let limit = beta * buffer;
        let mut choice = 0;
        let mut above = f64::INFINITY;
        for level in (1..levels).rev() {
            let r = ratio(level);
            if r < limit {
                choice = level;
                break;
            }
            above = above.min(r);
        }
        if choice + 1 < levels {
            witness.bound_above(above, buffer);
        }
        if choice > 0 {
            let r = ratio(choice);
            witness.bound_below(r, buffer);
            // Upward hysteresis (production rules damp oscillation): climb
            // above the last level only with a 20% margin, else hold.
            if let Some(last) = last_level.filter(|&last| choice > last) {
                if r >= 0.8 * beta * buffer {
                    witness.bound_above(r, 0.8 * buffer);
                    choice = last; // hold: not enough margin to climb yet
                } else {
                    witness.bound_below(r, 0.8 * buffer);
                }
            }
        }
        choice
    }
}

/// The comparisons [`Hyb::decide`] makes, each of a level's `ratio` with β
/// times a `scale` (`0.8·B` for the hysteresis test's `fl(0.8·β)·B`).
pub trait BetaWitness {
    /// `ratio ≥ β·scale` held.
    fn bound_above(&mut self, ratio: f64, scale: f64);
    /// `ratio < β·scale` held.
    fn bound_below(&mut self, ratio: f64, scale: f64);
}

/// No witness: the live player's.
impl BetaWitness for () {
    fn bound_above(&mut self, _: f64, _: f64) {}
    fn bound_below(&mut self, _: f64, _: f64) {}
}

impl Abr for Hyb {
    fn select(&mut self, env: &PlayerEnv, ctx: &AbrContext<'_>) -> usize {
        crate::abr::sync_estimator(&mut self.estimator, env);
        let k = ctx
            .next_segment
            .min(ctx.sizes.n_segments().saturating_sub(1));
        // A level the video lacks never fits.
        let ratios = self.estimator.estimate().map(|est| {
            move |level| {
                ctx.sizes
                    .size_kbits(k, level)
                    .map_or(f64::INFINITY, |size| size / est)
            }
        });
        Self::decide(
            self.params.beta,
            ctx.ladder.len(),
            ratios,
            env.buffer(),
            env.last_level(),
            ctx.segment_duration,
            &mut (),
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

    /// [`Hyb::decide`] on a row of ratios at L = 2 s, unwitnessed.
    fn decide(beta: f64, ratios: &[f64], buffer: f64, last: Option<usize>) -> usize {
        let row = Some(|level: usize| ratios[level]);
        Hyb::decide(beta, ratios.len(), row, buffer, last, 2.0, &mut ())
    }

    #[test]
    fn level_zero_is_chosen_even_when_its_own_ratio_fails() {
        // β·B = 1: no level fits, level 0 included.
        assert_eq!(decide(0.5, &[3.0, 4.0, 5.0], 2.0, None), 0);
        assert_eq!(decide(0.5, &[f64::INFINITY; 3], 2.0, Some(2)), 0);
    }

    #[test]
    fn a_ratio_equal_to_beta_times_buffer_does_not_fit() {
        // β·B = 0.5 · 4 = 2 exactly.
        assert_eq!(decide(0.5, &[0.1, 2.0, 3.0], 4.0, None), 0);
        assert_eq!(decide(0.5, &[0.1, 2.0f64.next_down(), 3.0], 4.0, None), 1);
    }

    #[test]
    fn the_hysteresis_holds_at_exactly_its_margin() {
        let (beta, buffer) = (0.5, 4.0);
        let margin = 0.8 * beta * buffer; // fits: below β·B = 2
        assert_eq!(decide(beta, &[0.1, margin, 3.0], buffer, Some(0)), 0);
        assert_eq!(
            decide(beta, &[0.1, margin.next_down(), 3.0], buffer, Some(0)),
            1
        );
        // Only a climb waits.
        assert_eq!(decide(beta, &[0.1, margin, 3.0], buffer, None), 1);
        assert_eq!(decide(beta, &[0.1, margin, 3.0], buffer, Some(2)), 1);
    }

    #[test]
    fn a_buffer_below_a_quarter_segment_counts_as_a_quarter() {
        // L/4 = 0.5 s: at β = 1 the threshold is 0.5 for any smaller buffer.
        for buffer in [0.0, 0.1, 0.5] {
            assert_eq!(decide(1.0, &[0.1, 0.45, 0.55], buffer, None), 1);
        }
        assert_eq!(decide(1.0, &[0.1, 0.45, 0.55], 0.6, None), 2);
    }

    #[test]
    fn no_estimate_decides_level_zero() {
        let none = None::<fn(usize) -> f64>;
        assert_eq!(Hyb::decide(1e9, 4, none, 30.0, Some(3), 2.0, &mut ()), 0);
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
