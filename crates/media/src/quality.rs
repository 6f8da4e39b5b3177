//! Quality mappings `q(·)` for the `QoE_lin` objective (paper Eq. 1).
//!
//! `QoE_lin = Σ q(Q_k) − μ Σ T_k − Σ |q(Q_{k+1}) − q(Q_k)|`
//!
//! The literature uses linear (`q = bitrate`), logarithmic (diminishing
//! returns, as in BOLA) and normalized-level mappings; RobustMPC sweeps all
//! three. The stall weight μ defaults to the maximum video quality value,
//! exactly as §2.1 sets it.

use crate::ladder::BitrateLadder;
use crate::Result;

/// The quality function family.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum QualityMap {
    /// `q(b) = b / 1000` (Mbps-scaled linear quality).
    LinearMbps,
    /// `q(b) = ln(b / b_min)` — diminishing returns at high bitrates.
    LogRelative {
        /// The reference (lowest) bitrate in kbps.
        min_bitrate_kbps: f64,
    },
    /// `q(level) = level + 1` — the normalized-level mapping.
    LevelIndex,
}

impl QualityMap {
    /// Log mapping anchored at the ladder's lowest rung.
    pub fn log_for(ladder: &BitrateLadder) -> Self {
        QualityMap::LogRelative {
            min_bitrate_kbps: ladder.min_bitrate(),
        }
    }

    /// Quality value of `level` in `ladder`.
    pub fn q(&self, ladder: &BitrateLadder, level: usize) -> Result<f64> {
        let b = ladder.bitrate(level)?;
        Ok(match self {
            QualityMap::LinearMbps => b / 1000.0,
            QualityMap::LogRelative { min_bitrate_kbps } => (b / min_bitrate_kbps).ln(),
            QualityMap::LevelIndex => level as f64 + 1.0,
        })
    }

    /// Quality of the top rung — the paper's default stall-penalty weight μ.
    pub fn q_max(&self, ladder: &BitrateLadder) -> f64 {
        self.q(ladder, ladder.top_level())
            .expect("top level is always valid")
    }

    /// Absolute quality switch magnitude between consecutive segments.
    pub fn switch_penalty(&self, ladder: &BitrateLadder, from: usize, to: usize) -> Result<f64> {
        Ok((self.q(ladder, to)? - self.q(ladder, from)?).abs())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ladder::BitrateLadder;

    #[test]
    fn linear_map_values() {
        let l = BitrateLadder::default_short_video();
        let q = QualityMap::LinearMbps;
        assert!((q.q(&l, 0).unwrap() - 0.35).abs() < 1e-12);
        assert!((q.q(&l, 3).unwrap() - 4.3).abs() < 1e-12);
        assert!((q.q_max(&l) - 4.3).abs() < 1e-12);
    }

    #[test]
    fn log_map_monotone_concave() {
        let l = BitrateLadder::default_short_video();
        let q = QualityMap::log_for(&l);
        let v: Vec<f64> = (0..4).map(|i| q.q(&l, i).unwrap()).collect();
        assert_eq!(v[0], 0.0);
        assert!(v.windows(2).all(|w| w[1] > w[0]));
        // Concavity in bitrate: the per-kbps slope decreases up the ladder.
        let slope_low = (v[1] - v[0]) / (800.0 - 350.0);
        let slope_high = (v[3] - v[2]) / (4300.0 - 1850.0);
        assert!(slope_low > slope_high);
    }

    #[test]
    fn level_index_map() {
        let l = BitrateLadder::default_short_video();
        let q = QualityMap::LevelIndex;
        assert_eq!(q.q(&l, 0).unwrap(), 1.0);
        assert_eq!(q.q_max(&l), 4.0);
    }

    #[test]
    fn switch_penalty_symmetric() {
        let l = BitrateLadder::default_short_video();
        let q = QualityMap::LinearMbps;
        let up = q.switch_penalty(&l, 0, 3).unwrap();
        let down = q.switch_penalty(&l, 3, 0).unwrap();
        assert_eq!(up, down);
        assert_eq!(q.switch_penalty(&l, 2, 2).unwrap(), 0.0);
        assert!(q.switch_penalty(&l, 0, 9).is_err());
    }
}
