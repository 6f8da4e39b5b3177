//! Deterministic rule-based exit models — §5.2's "Rule-Based Modeling".
//!
//! "The rule-based modeling implements deterministic exit rules based on
//! stall event characteristics ... cumulative stall time and stall counts.
//! Exit thresholds for both metrics are systematically varied between 2 and
//! 9, generating a comprehensive set of 64 distinct engagement rules."

use crate::qos_model::{ExitModel, SegmentView};
use crate::{Result, UserError};

/// Exit deterministically once cumulative stall time (seconds) or stall
/// count crosses its threshold.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RuleBasedExit {
    /// Cumulative stall-time threshold (seconds).
    pub max_stall_time: f64,
    /// Stall-count threshold.
    pub max_stall_count: usize,
    session_stall: f64,
    session_events: usize,
}

impl RuleBasedExit {
    /// Create a rule; thresholds must be positive.
    pub fn new(max_stall_time: f64, max_stall_count: usize) -> Result<Self> {
        if !(max_stall_time > 0.0) || max_stall_count == 0 {
            return Err(UserError::InvalidConfig(
                "thresholds must be positive".into(),
            ));
        }
        Ok(Self {
            max_stall_time,
            max_stall_count,
            session_stall: 0.0,
            session_events: 0,
        })
    }

    /// The paper's full 8×8 grid: thresholds 2..=9 on both axes.
    pub fn grid() -> Vec<RuleBasedExit> {
        let mut rules = Vec::with_capacity(64);
        for count in 2..=9usize {
            for time in 2..=9usize {
                rules.push(RuleBasedExit::new(time as f64, count).expect("grid thresholds valid"));
            }
        }
        rules
    }
}

impl ExitModel for RuleBasedExit {
    fn exit_prob(&mut self, view: &SegmentView<'_>) -> f64 {
        if view.record.stall_time > 0.0 {
            self.session_stall += view.record.stall_time;
            self.session_events += 1;
        }
        if self.session_stall >= self.max_stall_time || self.session_events >= self.max_stall_count
        {
            1.0
        } else {
            0.0
        }
    }

    fn reset_session(&mut self) {
        self.session_stall = 0.0;
        self.session_events = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lingxi_media::BitrateLadder;
    use lingxi_player::{PlayerConfig, PlayerEnv, SegmentRecord};

    fn view_fixture<'a>(
        env: &'a PlayerEnv,
        ladder: &'a BitrateLadder,
        record: &'a SegmentRecord,
    ) -> SegmentView<'a> {
        SegmentView {
            env,
            record,
            ladder,
        }
    }

    fn record(stall: f64) -> SegmentRecord {
        SegmentRecord {
            index: 0,
            level: 1,
            bitrate_kbps: 800.0,
            size_kbits: 1000.0,
            throughput_kbps: 1000.0,
            download_time: 1.0,
            stall_time: stall,
            buffer_after: 5.0,
            switched_from: Some(1),
        }
    }

    #[test]
    fn exits_on_cumulative_time() {
        let ladder = BitrateLadder::default_short_video();
        let env = PlayerEnv::new(PlayerConfig::deterministic(10.0, 0.0)).unwrap();
        let mut rule = RuleBasedExit::new(3.0, 99).unwrap();
        let r1 = record(1.5);
        assert_eq!(rule.exit_prob(&view_fixture(&env, &ladder, &r1)), 0.0);
        let r2 = record(1.5);
        assert_eq!(rule.exit_prob(&view_fixture(&env, &ladder, &r2)), 1.0);
    }

    #[test]
    fn exits_on_count() {
        let ladder = BitrateLadder::default_short_video();
        let env = PlayerEnv::new(PlayerConfig::deterministic(10.0, 0.0)).unwrap();
        let mut rule = RuleBasedExit::new(100.0, 2).unwrap();
        let r = record(0.1);
        assert_eq!(rule.exit_prob(&view_fixture(&env, &ladder, &r)), 0.0);
        assert_eq!(rule.exit_prob(&view_fixture(&env, &ladder, &r)), 1.0);
    }

    #[test]
    fn stall_free_segments_never_exit() {
        let ladder = BitrateLadder::default_short_video();
        let env = PlayerEnv::new(PlayerConfig::deterministic(10.0, 0.0)).unwrap();
        let mut rule = RuleBasedExit::new(2.0, 2).unwrap();
        let r = record(0.0);
        for _ in 0..100 {
            assert_eq!(rule.exit_prob(&view_fixture(&env, &ladder, &r)), 0.0);
        }
    }

    #[test]
    fn reset_clears_accumulation() {
        let ladder = BitrateLadder::default_short_video();
        let env = PlayerEnv::new(PlayerConfig::deterministic(10.0, 0.0)).unwrap();
        let mut rule = RuleBasedExit::new(2.0, 9).unwrap();
        let r = record(1.5);
        rule.exit_prob(&view_fixture(&env, &ladder, &r));
        rule.reset_session();
        assert_eq!(rule.exit_prob(&view_fixture(&env, &ladder, &r)), 0.0);
    }

    #[test]
    fn grid_is_8x8() {
        let grid = RuleBasedExit::grid();
        assert_eq!(grid.len(), 64);
        assert!(grid.iter().all(
            |r| (2.0..=9.0).contains(&r.max_stall_time) && (2..=9).contains(&r.max_stall_count)
        ));
        // All distinct.
        for (i, a) in grid.iter().enumerate() {
            for b in &grid[i + 1..] {
                assert!(
                    a.max_stall_time != b.max_stall_time || a.max_stall_count != b.max_stall_count
                );
            }
        }
    }

    #[test]
    fn invalid_thresholds_rejected() {
        assert!(RuleBasedExit::new(0.0, 2).is_err());
        assert!(RuleBasedExit::new(2.0, 0).is_err());
    }
}
