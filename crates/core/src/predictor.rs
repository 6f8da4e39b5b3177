//! The rollout-predictor interface consumed by Monte-Carlo evaluation, and
//! two lightweight implementations besides the neural hybrid.

use lingxi_exit::{HybridPredictor, StateMatrix};
use lingxi_media::QualityTier;
use lingxi_user::StallProfile;

/// Short-term rollout state passed alongside the long-term state matrix —
/// Algorithm 2's `S_sim` combines "both short-term and long-term state",
/// and the per-candidate differential lives in the short-term part: a
/// candidate that avoids stalls keeps `session_stall` at zero.
#[derive(Debug, Clone, Copy)]
pub struct RolloutContext {
    /// Did the segment just played stall?
    pub stalled: bool,
    /// Quality tier of the segment.
    pub tier: QualityTier,
    /// Signed switch granularity vs the previous segment.
    pub switch_granularity: i64,
    /// Cumulative stall seconds in this rollout/session.
    pub session_stall: f64,
    /// Stall events in this rollout/session.
    pub session_stall_events: usize,
    /// Seconds of content played in this rollout/session.
    pub playback_time: f64,
}

/// Predicts the instantaneous (per-segment) exit probability during
/// virtual playback — `ExitPredictor.predict(S_sim)` of Algorithm 2.
pub trait RolloutPredictor: Send {
    /// Exit probability given long-term state (`state`) and the rollout's
    /// short-term context.
    fn predict(&mut self, state: &StateMatrix, ctx: &RolloutContext) -> f64;

    /// Whether [`RolloutPredictor::predict`] reads `state` at all.
    ///
    /// Building the state matrix costs a per-virtual-segment copy of the
    /// tracker's history rows; predictors that only consume the
    /// [`RolloutContext`] (the profile and constant baselines) override
    /// this to `false` and the Monte-Carlo loop hands them a zero matrix
    /// instead. Purely an implementation shortcut — results are identical
    /// either way.
    fn wants_state(&self) -> bool {
        true
    }
}

impl RolloutPredictor for HybridPredictor {
    fn predict(&mut self, state: &StateMatrix, ctx: &RolloutContext) -> f64 {
        HybridPredictor::predict(
            self,
            state,
            ctx.stalled || ctx.session_stall > 0.0,
            ctx.tier,
            ctx.switch_granularity,
        )
    }
}

/// A fixed-rate predictor (baseline / tests).
#[derive(Debug, Clone, Copy)]
pub struct ConstantPredictor {
    /// The constant exit probability.
    pub p: f64,
}

impl RolloutPredictor for ConstantPredictor {
    fn predict(&mut self, _: &StateMatrix, _: &RolloutContext) -> f64 {
        self.p.clamp(0.0, 1.0)
    }

    fn wants_state(&self) -> bool {
        false
    }
}

/// A predictor wrapping a ground-truth [`StallProfile`] — used in the
/// §5.2 simulation experiments where the "predictor" is the fitted user
/// model itself. Follows the generative `QosExitModel`: the response is
/// driven by the rollout's *session* stall exposure with the same compound
/// modifiers (engagement, Full-HD, repeated stalls), except that its HD
/// quality term is `0.7e-3` (the model's `6e-3 × 0.12 = 0.72e-3`), its
/// stall response has no `min(0.95)` cap, and its engagement test reads
/// the playback time before the segment (the model's, after its step).
#[derive(Debug, Clone, Copy)]
pub struct ProfilePredictor {
    /// The user's profile.
    pub profile: StallProfile,
    /// Content-driven base exit probability.
    pub base: f64,
}

impl RolloutPredictor for ProfilePredictor {
    fn predict(&mut self, _state: &StateMatrix, ctx: &RolloutContext) -> f64 {
        let mut p = self.base;
        // OS terms of Eq. 4 (population-level quality & smoothness rates,
        // same calibration as the generative QosExitModel): without them
        // the optimizer would see no benefit in raising quality for
        // stall-tolerant users.
        p += match ctx.tier {
            QualityTier::Ld => 6.0e-3,
            QualityTier::Sd => 2.7e-3,
            QualityTier::Hd => 0.7e-3,
            QualityTier::FullHd => 0.0,
        };
        if ctx.switch_granularity != 0 {
            let magnitude = ctx.switch_granularity.unsigned_abs() as f64;
            let direction = if ctx.switch_granularity < 0 {
                1.15
            } else {
                1.0
            };
            p += 1.2e-2 * direction * (0.8 + 0.2 * magnitude);
        }
        if ctx.session_stall > 0.0 {
            let mut r = self.profile.response(ctx.session_stall);
            if ctx.playback_time > 20.0 {
                r *= 0.55;
            }
            if ctx.tier == QualityTier::FullHd {
                r *= 1.4;
            }
            if ctx.session_stall_events >= 2 {
                r *= 1.5;
            }
            p += r;
        }
        p.clamp(0.0, 1.0)
    }

    fn wants_state(&self) -> bool {
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lingxi_user::SensitivityKind;

    fn ctx(stalled: bool, session_stall: f64, events: usize) -> RolloutContext {
        RolloutContext {
            stalled,
            tier: QualityTier::Hd,
            switch_granularity: 0,
            session_stall,
            session_stall_events: events,
            playback_time: 10.0,
        }
    }

    #[test]
    fn constant_predictor_clamps() {
        let s = StateMatrix::zeros();
        let mut p = ConstantPredictor { p: 7.0 };
        assert_eq!(p.predict(&s, &ctx(true, 1.0, 1)), 1.0);
        let mut n = ConstantPredictor { p: -1.0 };
        assert_eq!(n.predict(&s, &ctx(false, 0.0, 0)), 0.0);
    }

    #[test]
    fn profile_predictor_uses_session_stall() {
        let profile = StallProfile::new(SensitivityKind::Sensitive, 4.0, 0.4).unwrap();
        let mut p = ProfilePredictor {
            profile,
            base: 0.01,
        };
        let s = StateMatrix::zeros();
        // Quiet segment: base + the HD OS quality term only.
        let quiet = p.predict(&s, &ctx(false, 0.0, 0));
        assert!((quiet - (0.01 + 0.7e-3)).abs() < 1e-9, "{quiet}");
        let stalled = p.predict(&s, &ctx(true, 2.0, 1));
        assert!(
            (stalled - (0.01 + 0.7e-3 + 0.4 * 2.0 / 4.0)).abs() < 1e-9,
            "{stalled}"
        );
    }

    #[test]
    fn profile_predictor_monotone_in_stall() {
        let profile = StallProfile::new(SensitivityKind::Sensitive, 4.0, 0.4).unwrap();
        let mut p = ProfilePredictor {
            profile,
            base: 0.01,
        };
        let s = StateMatrix::zeros();
        let mut prev = 0.0;
        for i in 0..10 {
            let v = p.predict(&s, &ctx(i > 0, i as f64 * 0.7, i.min(1)));
            assert!(v >= prev);
            prev = v;
        }
    }

    #[test]
    fn compound_modifiers_applied() {
        let profile = StallProfile::new(SensitivityKind::Sensitive, 4.0, 0.4).unwrap();
        let mut p = ProfilePredictor { profile, base: 0.0 };
        let s = StateMatrix::zeros();
        let base = p.predict(&s, &ctx(true, 2.0, 1));
        // Repeated stalls compound.
        let repeated = p.predict(&s, &ctx(true, 2.0, 3));
        assert!(repeated > base);
        // Long engagement reduces the response.
        let mut engaged = ctx(true, 2.0, 1);
        engaged.playback_time = 40.0;
        assert!(p.predict(&s, &engaged) < base);
        // Full HD raises it.
        let mut fhd = ctx(true, 2.0, 1);
        fhd.tier = QualityTier::FullHd;
        assert!(p.predict(&s, &fhd) > base);
    }
}
