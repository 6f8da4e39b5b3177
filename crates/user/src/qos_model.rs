//! The probabilistic QoS→exit model: the synthetic stand-in for real user
//! behaviour, calibrated to Fig. 4's effect magnitudes.

use lingxi_media::{BitrateLadder, QualityTier};
use lingxi_player::{ExitDecision, PlayerEnv, SegmentRecord};
use rand::Rng;

use crate::profile::StallProfile;

/// What an exit model gets to see after each segment.
#[derive(Debug, Clone, Copy)]
pub struct SegmentView<'a> {
    /// The player environment after the segment's update.
    pub env: &'a PlayerEnv,
    /// The segment just played.
    pub record: &'a SegmentRecord,
    /// The ladder (for tier lookups).
    pub ladder: &'a BitrateLadder,
}

/// A segment-level exit model: yields the probability that the user leaves
/// after this segment.
pub trait ExitModel: Send {
    /// Exit probability in `[0, 1]` for the segment just observed.
    fn exit_prob(&mut self, view: &SegmentView<'_>) -> f64;

    /// Reset per-session state.
    fn reset_session(&mut self);

    /// Bernoulli draw against [`ExitModel::exit_prob`].
    ///
    /// Takes `dyn RngCore` (not a generic) so the trait stays
    /// object-safe — managed sessions hold users as `&mut dyn ExitModel`.
    fn decide(&mut self, view: &SegmentView<'_>, rng: &mut dyn rand::RngCore) -> bool {
        let p = self.exit_prob(view).clamp(0.0, 1.0);
        (*rng).gen::<f64>() < p
    }
}

/// Wrap an [`ExitModel`] into the closure shape expected by
/// [`lingxi_player::run_session`] and `SessionStream::complete`, binding
/// the ladder — the exit-side twin of `lingxi_abr::drive`.
pub fn consult<'a, R: rand::RngCore>(
    user: &'a mut dyn ExitModel,
    ladder: &'a BitrateLadder,
) -> impl FnMut(&PlayerEnv, &SegmentRecord, &mut R) -> ExitDecision + 'a {
    move |env, record, rng| {
        let view = SegmentView {
            env,
            record,
            ladder,
        };
        if user.decide(&view, rng) {
            ExitDecision::Exit
        } else {
            ExitDecision::Continue
        }
    }
}

/// The calibrated generative model:
///
/// `p_exit = base + quality(level) + smoothness(switch) + stall(profile) ×
/// compound(modifiers)`
///
/// with per-term magnitudes matching Takeaway 1 (1e-3 / 1e-2 / 1e-1) and the
/// compound effects of Fig. 4(d):
/// - engagement beyond 20 s of watch time halves the stall response;
/// - watching Full HD *increases* stall response by 1.4×;
/// - a repeated stall (2nd+ event in a session) scales it by 1.5×.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QosExitModel {
    /// Per-segment content-driven (QoS-unrelated) exit probability. This is
    /// the noise floor that makes ALL-dataset predictors unlearnable
    /// (Fig. 9a).
    pub base_exit: f64,
    /// Quality-term span across the ladder (~1e-3).
    pub quality_span: f64,
    /// Smoothness penalty per switch event (~1e-2); degradations weigh
    /// slightly more than upgrades.
    pub switch_penalty: f64,
    /// The user's stall profile (the 1e-1 term).
    pub stall: StallProfile,
    /// Session stall accumulated so far (model state).
    session_stall: f64,
    /// Stall events seen this session (model state).
    session_stall_events: usize,
}

impl QosExitModel {
    /// Calibrated defaults around a given stall profile.
    pub fn calibrated(stall: StallProfile) -> Self {
        Self {
            base_exit: 0.015,
            quality_span: 6e-3,
            switch_penalty: 1.2e-2,
            stall,
            session_stall: 0.0,
            session_stall_events: 0,
        }
    }

    /// Quality term: exit probability *decreases* with tier, spanning
    /// `quality_span` from LD to Full HD with diminishing marginal effect
    /// (Fig. 4a: the HD→FullHD gap is the smallest).
    fn quality_term(&self, tier: QualityTier) -> f64 {
        let frac = match tier {
            QualityTier::Ld => 1.0,
            QualityTier::Sd => 0.45,
            QualityTier::Hd => 0.12,
            QualityTier::FullHd => 0.0,
        };
        self.quality_span * frac
    }

    /// Smoothness term (Fig. 4b): any switch raises the exit rate; downward
    /// switches slightly more; magnitude grows weakly with granularity.
    fn smoothness_term(&self, granularity: i64) -> f64 {
        if granularity == 0 {
            return 0.0;
        }
        let magnitude = granularity.unsigned_abs() as f64;
        let direction = if granularity < 0 { 1.15 } else { 1.0 };
        self.switch_penalty * direction * (0.8 + 0.2 * magnitude)
    }

    /// Stall term with compound modifiers (Fig. 4c/d).
    fn stall_term(&self, view: &SegmentView<'_>, tier: QualityTier) -> f64 {
        if view.record.stall_time <= 0.0 && self.session_stall <= 0.0 {
            return 0.0;
        }
        let mut r = self.stall.response(self.session_stall);
        // Engagement: beyond 20 s watched, tolerance grows.
        if view.env.playback_time() > 20.0 {
            r *= 0.55;
        }
        // Full-HD watchers are less stall-tolerant.
        if tier == QualityTier::FullHd {
            r *= 1.4;
        }
        // Repeated stalls compound.
        if self.session_stall_events >= 2 {
            r *= 1.5;
        }
        r.min(0.95)
    }
}

impl ExitModel for QosExitModel {
    fn exit_prob(&mut self, view: &SegmentView<'_>) -> f64 {
        // Update session stall state first: the decision is made *after*
        // experiencing this segment.
        if view.record.stall_time > 0.0 {
            self.session_stall += view.record.stall_time;
            self.session_stall_events += 1;
        }
        let tier = view
            .ladder
            .tier(view.record.level)
            .unwrap_or(QualityTier::Ld);
        let p = self.base_exit
            + self.quality_term(tier)
            + self.smoothness_term(view.record.switch_granularity())
            + self.stall_term(view, tier);
        p.clamp(0.0, 1.0)
    }

    fn reset_session(&mut self) {
        self.session_stall = 0.0;
        self.session_stall_events = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::{SensitivityKind, StallProfile};
    use lingxi_player::PlayerConfig;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn fixture() -> (BitrateLadder, PlayerEnv) {
        (
            BitrateLadder::default_short_video(),
            PlayerEnv::new(PlayerConfig::deterministic(10.0, 0.0)).unwrap(),
        )
    }

    fn record(level: usize, stall: f64, from: Option<usize>) -> SegmentRecord {
        SegmentRecord {
            index: 0,
            level,
            bitrate_kbps: [350.0, 800.0, 1850.0, 4300.0][level],
            size_kbits: 1000.0,
            throughput_kbps: 1000.0,
            download_time: 1.0,
            stall_time: stall,
            buffer_after: 5.0,
            switched_from: from,
        }
    }

    fn model() -> QosExitModel {
        QosExitModel::calibrated(StallProfile::new(SensitivityKind::Sensitive, 3.0, 0.3).unwrap())
    }

    #[test]
    fn magnitude_hierarchy_matches_takeaway1() {
        let (ladder, env) = fixture();
        let mut m = model();
        // Quality effect: LD vs FullHD, no stall, no switch.
        let r_ld = record(0, 0.0, Some(0));
        let r_hd = record(3, 0.0, Some(3));
        let p_ld = m.exit_prob(&SegmentView {
            env: &env,
            record: &r_ld,
            ladder: &ladder,
        });
        m.reset_session();
        let p_fhd = m.exit_prob(&SegmentView {
            env: &env,
            record: &r_hd,
            ladder: &ladder,
        });
        m.reset_session();
        let quality_effect = p_ld - p_fhd;
        assert!(
            quality_effect > 1e-3 && quality_effect < 2e-2,
            "quality {quality_effect}"
        );

        // Switch effect.
        let r_sw = record(1, 0.0, Some(3));
        let p_sw = m.exit_prob(&SegmentView {
            env: &env,
            record: &r_sw,
            ladder: &ladder,
        });
        m.reset_session();
        let r_nosw = record(1, 0.0, Some(1));
        let p_nosw = m.exit_prob(&SegmentView {
            env: &env,
            record: &r_nosw,
            ladder: &ladder,
        });
        m.reset_session();
        let switch_effect = p_sw - p_nosw;
        assert!(
            switch_effect > 5e-3 && switch_effect < 5e-2,
            "switch {switch_effect}"
        );

        // Stall effect dominates.
        let r_stall = record(1, 6.0, Some(1));
        let p_stall = m.exit_prob(&SegmentView {
            env: &env,
            record: &r_stall,
            ladder: &ladder,
        });
        m.reset_session();
        let stall_effect = p_stall - p_nosw;
        assert!(
            stall_effect > 5e-2 && stall_effect < 0.45,
            "stall {stall_effect}"
        );

        assert!(stall_effect > switch_effect && switch_effect > quality_effect);
    }

    #[test]
    fn downward_switch_worse_than_upward() {
        let (ladder, env) = fixture();
        let mut m = model();
        let down = record(0, 0.0, Some(2));
        let p_down = m.exit_prob(&SegmentView {
            env: &env,
            record: &down,
            ladder: &ladder,
        });
        m.reset_session();
        let up = record(2, 0.0, Some(0));
        let p_up = m.exit_prob(&SegmentView {
            env: &env,
            record: &up,
            ladder: &ladder,
        });
        m.reset_session();
        // Compare pure smoothness terms (quality terms differ too, so use
        // the model's internals).
        assert!(m.smoothness_term(-2) > m.smoothness_term(2));
        // End-to-end the downward path should not be milder once quality is
        // equalised by the stronger direction factor.
        assert!(p_down > 0.0 && p_up > 0.0);
    }

    #[test]
    fn stall_accumulates_across_segments() {
        let (ladder, env) = fixture();
        let mut m = model();
        let r1 = record(1, 1.0, Some(1));
        let p1 = m.exit_prob(&SegmentView {
            env: &env,
            record: &r1,
            ladder: &ladder,
        });
        let r2 = record(1, 1.5, Some(1));
        let p2 = m.exit_prob(&SegmentView {
            env: &env,
            record: &r2,
            ladder: &ladder,
        });
        assert!(p2 > p1, "repeat stall must compound: {p1} -> {p2}");
        m.reset_session();
        let p3 = m.exit_prob(&SegmentView {
            env: &env,
            record: &r1,
            ladder: &ladder,
        });
        assert!((p3 - p1).abs() < 1e-12, "reset must clear session state");
    }

    #[test]
    fn engagement_reduces_stall_response() {
        let ladder = BitrateLadder::default_short_video();
        let mut env_long = PlayerEnv::new(PlayerConfig::deterministic(10.0, 0.0)).unwrap();
        // Simulate 30 s of playback.
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..16 {
            env_long.step(500.0, 1, 50_000.0, 2.0, &mut rng).unwrap();
        }
        assert!(env_long.playback_time() > 20.0);
        let env_new = PlayerEnv::new(PlayerConfig::deterministic(10.0, 0.0)).unwrap();
        let r = record(1, 4.0, Some(1));
        let mut m1 = model();
        let p_new = m1.exit_prob(&SegmentView {
            env: &env_new,
            record: &r,
            ladder: &ladder,
        });
        let mut m2 = model();
        let p_long = m2.exit_prob(&SegmentView {
            env: &env_long,
            record: &r,
            ladder: &ladder,
        });
        assert!(
            p_long < p_new,
            "engaged users more tolerant: {p_long} vs {p_new}"
        );
    }

    #[test]
    fn decide_is_bernoulli() {
        let (ladder, env) = fixture();
        let mut m = model();
        // Heavy stall: probability should be well above base.
        let r = record(1, 10.0, Some(1));
        let mut rng = StdRng::seed_from_u64(2);
        let mut exits = 0;
        for _ in 0..2000 {
            m.reset_session();
            let view = SegmentView {
                env: &env,
                record: &r,
                ladder: &ladder,
            };
            if m.decide(&view, &mut rng) {
                exits += 1;
            }
        }
        let rate = exits as f64 / 2000.0;
        assert!(rate > 0.2 && rate < 0.5, "rate {rate}");
    }
}
