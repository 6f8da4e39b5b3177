//! The linear QoE objective `QoE_lin` (paper Eq. 1).
//!
//! `QoE_lin = Σ_k q(Q_k) − μ Σ_k T_k − Σ_k |q(Q_{k+1}) − q(Q_k)|` with
//! `q(b) = b / 1000` (Mbps-scaled linear quality) — the switch term
//! additionally weighted when a switch weight is configured (the paper's
//! §5.2 sweeps "switching parameters from 0 to 4"). The stall weight μ
//! defaults to the maximum video quality, exactly as §2.1 sets it.

use lingxi_media::BitrateLadder;
use lingxi_player::SessionLog;

use crate::params::QoeParams;
use crate::quality::{quality, switch_penalty};

/// A `QoE_lin` evaluator.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QoeLin {
    /// Stall weight μ.
    pub stall_weight: f64,
    /// Switch weight.
    pub switch_weight: f64,
}

impl QoeLin {
    /// Paper-default objective: μ = maximum video quality, switch weight 1.
    pub fn paper_default(ladder: &BitrateLadder) -> Self {
        Self {
            stall_weight: ladder.max_bitrate() / 1000.0,
            switch_weight: 1.0,
        }
    }

    /// Build from tunable parameters.
    pub fn from_params(params: &QoeParams) -> Self {
        Self {
            stall_weight: params.stall_weight,
            switch_weight: params.switch_weight,
        }
    }

    /// Score one segment transition.
    ///
    /// `prev_level` is `None` for the first segment (no switch term). A
    /// level off the ladder scores quality 0, and a switch to or from one
    /// scores 0.
    pub fn segment_score(
        &self,
        ladder: &BitrateLadder,
        level: usize,
        prev_level: Option<usize>,
        stall_time: f64,
    ) -> f64 {
        let q = quality(ladder, level).unwrap_or(0.0);
        let switch = match prev_level {
            Some(p) => switch_penalty(ladder, p, level).unwrap_or(0.0),
            None => 0.0,
        };
        q - self.stall_weight * stall_time - self.switch_weight * switch
    }
}

/// Total `QoE_lin` of a finished session.
pub fn qoe_lin_of_log(qoe: &QoeLin, ladder: &BitrateLadder, log: &SessionLog) -> f64 {
    let mut total = 0.0;
    let mut prev: Option<usize> = None;
    for seg in &log.segments {
        total += qoe.segment_score(ladder, seg.level, prev, seg.stall_time);
        prev = Some(seg.level);
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;
    use lingxi_player::{SegmentRecord, SessionLog};

    fn ladder() -> BitrateLadder {
        BitrateLadder::default_short_video()
    }

    fn seg(level: usize, stall: f64, from: Option<usize>) -> SegmentRecord {
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

    #[test]
    fn paper_default_uses_qmax_as_mu() {
        let l = ladder();
        let q = QoeLin::paper_default(&l);
        assert!((q.stall_weight - 4.3).abs() < 1e-12);
    }

    #[test]
    fn segment_score_components() {
        let l = ladder();
        let q = QoeLin {
            stall_weight: 4.3,
            switch_weight: 1.0,
        };
        // No stall, no switch: pure quality.
        assert!((q.segment_score(&l, 3, Some(3), 0.0) - 4.3).abs() < 1e-12);
        // Stall penalty.
        let s = q.segment_score(&l, 3, Some(3), 1.0);
        assert!((s - (4.3 - 4.3)).abs() < 1e-12);
        // Switch penalty: 3 -> 0 is |0.35 - 4.3| = 3.95.
        let s = q.segment_score(&l, 0, Some(3), 0.0);
        assert!((s - (0.35 - 3.95)).abs() < 1e-12);
        // First segment has no switch term.
        let s = q.segment_score(&l, 0, None, 0.0);
        assert!((s - 0.35).abs() < 1e-12);
    }

    #[test]
    fn log_total_matches_hand_computation() {
        let l = ladder();
        let q = QoeLin {
            stall_weight: 2.0,
            switch_weight: 1.0,
        };
        let log = SessionLog {
            user_id: 0,
            video_id: 0,
            video_duration: 6.0,
            segments: vec![
                seg(1, 0.5, None),
                seg(2, 0.0, Some(1)),
                seg(2, 0.0, Some(2)),
            ],
            watch_time: 6.0,
            end: lingxi_player::log::SessionEnd::Completed,
            exit_segment: None,
        };
        // seg0: 0.8 - 2*0.5 = -0.2 (prev=None in our calculator)
        // seg1: 1.85 - |1.85-0.8| = 0.8
        // seg2: 1.85
        let total = qoe_lin_of_log(&q, &l, &log);
        assert!((total - (-0.2 + 0.8 + 1.85)).abs() < 1e-9, "total {total}");
    }

    #[test]
    fn higher_stall_weight_lowers_score() {
        let l = ladder();
        let log = SessionLog {
            user_id: 0,
            video_id: 0,
            video_duration: 4.0,
            segments: vec![seg(2, 1.0, None), seg(2, 1.0, Some(2))],
            watch_time: 4.0,
            end: lingxi_player::log::SessionEnd::Completed,
            exit_segment: None,
        };
        let gentle = QoeLin {
            stall_weight: 1.0,
            switch_weight: 1.0,
        };
        let harsh = QoeLin {
            stall_weight: 10.0,
            switch_weight: 1.0,
        };
        assert!(qoe_lin_of_log(&harsh, &l, &log) < qoe_lin_of_log(&gentle, &l, &log));
    }

    /// The paper-default score of every level pair of the default ladder
    /// at a quarter-second stall, bit for bit, with level 4 off the
    /// ladder: as `level` it scores quality 0 and switch 0 (the stall term
    /// alone), as `prev_level` it scores switch 0.
    #[test]
    fn segment_score_bits_on_and_off_the_ladder() {
        let l = ladder();
        let q = QoeLin::paper_default(&l);
        // Rows: level 0..=4; columns: prev None, then Some(0..=4).
        let want: [[f64; 6]; 5] = [
            [-0.725, -0.725, -1.175, -2.225, -4.675, -0.725],
            [
                -0.2749999999999999,
                -0.725,
                -0.2749999999999999,
                -1.325,
                -3.775,
                -0.2749999999999999,
            ],
            [
                0.7750000000000001,
                -0.7249999999999999,
                -0.2749999999999999,
                0.7750000000000001,
                -1.6749999999999996,
                0.7750000000000001,
            ],
            [
                3.2249999999999996,
                -0.7250000000000001,
                -0.27500000000000036,
                0.7749999999999999,
                3.2249999999999996,
                3.2249999999999996,
            ],
            [-1.075; 6],
        ];
        let prevs = [None, Some(0), Some(1), Some(2), Some(3), Some(4)];
        for (level, row) in want.iter().enumerate() {
            for (&prev, w) in prevs.iter().zip(row) {
                let got = q.segment_score(&l, level, prev, 0.25);
                assert_eq!(got.to_bits(), w.to_bits(), "level {level} prev {prev:?}");
            }
        }
    }

    #[test]
    fn from_params_copies_weights() {
        let p = QoeParams {
            stall_weight: 7.0,
            switch_weight: 2.0,
            beta: 0.8,
        };
        let q = QoeLin::from_params(&p);
        assert_eq!(q.stall_weight, 7.0);
        assert_eq!(q.switch_weight, 2.0);
    }
}
