//! The linear quality function `q(b) = b / 1000` of `QoE_lin` (paper
//! Eq. 1) and its switch term `|q(to) − q(from)|`.
//!
//! Both return `None` for a level off the ladder; [`crate::QoeLin`]
//! scores that as 0.

use lingxi_media::BitrateLadder;

/// `q(level) = bitrate / 1000`; `None` off the ladder.
pub(crate) fn quality(ladder: &BitrateLadder, level: usize) -> Option<f64> {
    ladder.bitrates().get(level).map(|b| b / 1000.0)
}

/// `|q(to) − q(from)|`; `None` if either level is off the ladder.
pub(crate) fn switch_penalty(ladder: &BitrateLadder, from: usize, to: usize) -> Option<f64> {
    Some((quality(ladder, to)? - quality(ladder, from)?).abs())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn linear_map_values() {
        let l = BitrateLadder::default_short_video();
        assert!((quality(&l, 0).unwrap() - 0.35).abs() < 1e-12);
        assert!((quality(&l, 3).unwrap() - 4.3).abs() < 1e-12);
        assert!((quality(&l, l.top_level()).unwrap() - l.max_bitrate() / 1000.0).abs() < 1e-12);
        assert_eq!(quality(&l, 4), None);
    }

    #[test]
    fn switch_penalty_symmetric() {
        let l = BitrateLadder::default_short_video();
        let up = switch_penalty(&l, 0, 3).unwrap();
        let down = switch_penalty(&l, 3, 0).unwrap();
        assert_eq!(up, down);
        assert_eq!(switch_penalty(&l, 2, 2).unwrap(), 0.0);
        assert_eq!(switch_penalty(&l, 0, 9), None);
        assert_eq!(switch_penalty(&l, 9, 0), None);
    }
}
