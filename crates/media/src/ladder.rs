//! Bitrate ladders and the four quality tiers of the paper's analyses.

use crate::{MediaError, Result};

/// The four user-facing quality tiers used throughout §2 of the paper
/// (Fig. 3a, Fig. 4a): Low / Standard / High / Full-High definition.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum QualityTier {
    /// Low definition.
    Ld,
    /// Standard definition.
    Sd,
    /// High definition.
    Hd,
    /// Full HD.
    FullHd,
}

impl QualityTier {
    /// All tiers, ascending.
    pub const ALL: [QualityTier; 4] = [
        QualityTier::Ld,
        QualityTier::Sd,
        QualityTier::Hd,
        QualityTier::FullHd,
    ];

    /// Display label matching the paper's figures.
    pub fn label(&self) -> &'static str {
        match self {
            QualityTier::Ld => "LD",
            QualityTier::Sd => "SD",
            QualityTier::Hd => "HD",
            QualityTier::FullHd => "Full HD",
        }
    }
}

/// An ascending ladder of bitrate levels (kbps) with tier assignments.
///
/// The default ladder mirrors a short-video production ladder with one
/// level per tier: 350 / 800 / 1850 / 4300 kbps. `Q_max` (the top bitrate)
/// doubles as the stall-penalty weight μ in `QoE_lin` ("we set \[μ\] to the
/// maximum video quality value", §2.1).
#[derive(Debug, Clone, PartialEq)]
pub struct BitrateLadder {
    levels_kbps: Vec<f64>,
    tiers: Vec<QualityTier>,
}

impl BitrateLadder {
    /// Build a ladder from ascending strictly-positive bitrates and a tier
    /// per level.
    pub fn new(levels_kbps: Vec<f64>, tiers: Vec<QualityTier>) -> Result<Self> {
        if levels_kbps.is_empty() {
            return Err(MediaError::InvalidLadder("empty ladder".into()));
        }
        if levels_kbps.len() != tiers.len() {
            return Err(MediaError::InvalidLadder(
                "tier count must match level count".into(),
            ));
        }
        if levels_kbps.iter().any(|&b| !(b > 0.0) || !b.is_finite()) {
            return Err(MediaError::InvalidLadder(
                "bitrates must be positive and finite".into(),
            ));
        }
        if levels_kbps.windows(2).any(|w| w[1] <= w[0]) {
            return Err(MediaError::InvalidLadder(
                "bitrates must be strictly ascending".into(),
            ));
        }
        Ok(Self { levels_kbps, tiers })
    }

    /// The default 4-level production-style ladder (kbps).
    pub fn default_short_video() -> Self {
        Self::new(
            vec![350.0, 800.0, 1850.0, 4300.0],
            vec![
                QualityTier::Ld,
                QualityTier::Sd,
                QualityTier::Hd,
                QualityTier::FullHd,
            ],
        )
        .expect("static ladder is valid")
    }

    /// Number of levels.
    pub fn len(&self) -> usize {
        self.levels_kbps.len()
    }

    /// Ladders are never empty by construction.
    pub fn is_empty(&self) -> bool {
        self.levels_kbps.is_empty()
    }

    /// Bitrate of `level` in kbps.
    pub fn bitrate(&self, level: usize) -> Result<f64> {
        self.levels_kbps
            .get(level)
            .copied()
            .ok_or_else(|| MediaError::OutOfRange(format!("level {level}")))
    }

    /// All bitrates, ascending (kbps).
    pub fn bitrates(&self) -> &[f64] {
        &self.levels_kbps
    }

    /// Quality tier of `level`.
    pub fn tier(&self, level: usize) -> Result<QualityTier> {
        self.tiers
            .get(level)
            .copied()
            .ok_or_else(|| MediaError::OutOfRange(format!("level {level}")))
    }

    /// Highest bitrate (kbps) — the `Q_max` of the pruning rule (§4).
    pub fn max_bitrate(&self) -> f64 {
        *self.levels_kbps.last().expect("non-empty")
    }

    /// Lowest bitrate (kbps).
    pub fn min_bitrate(&self) -> f64 {
        self.levels_kbps[0]
    }

    /// Highest level index.
    pub fn top_level(&self) -> usize {
        self.levels_kbps.len() - 1
    }

    /// Highest level whose bitrate does not exceed `kbps` (level 0 if all
    /// exceed it).
    pub fn highest_level_at_most(&self, kbps: f64) -> usize {
        let mut best = 0;
        for (i, &b) in self.levels_kbps.iter().enumerate() {
            if b <= kbps {
                best = i;
            }
        }
        best
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_ladder_sane() {
        let l = BitrateLadder::default_short_video();
        assert_eq!(l.len(), 4);
        assert_eq!(l.max_bitrate(), 4300.0);
        assert_eq!(l.min_bitrate(), 350.0);
        assert_eq!(l.tier(0).unwrap(), QualityTier::Ld);
        assert_eq!(l.tier(3).unwrap(), QualityTier::FullHd);
        assert_eq!(l.top_level(), 3);
    }

    #[test]
    fn rejects_bad_ladders() {
        assert!(BitrateLadder::new(vec![], vec![]).is_err());
        assert!(BitrateLadder::new(vec![100.0, 100.0], vec![QualityTier::Ld; 2]).is_err());
        assert!(BitrateLadder::new(vec![200.0, 100.0], vec![QualityTier::Ld; 2]).is_err());
        assert!(BitrateLadder::new(vec![-5.0], vec![QualityTier::Ld]).is_err());
        assert!(BitrateLadder::new(vec![100.0], vec![]).is_err());
    }

    #[test]
    fn level_lookup() {
        let l = BitrateLadder::default_short_video();
        assert_eq!(l.highest_level_at_most(100.0), 0);
        assert_eq!(l.highest_level_at_most(800.0), 1);
        assert_eq!(l.highest_level_at_most(2000.0), 2);
        assert_eq!(l.highest_level_at_most(99_999.0), 3);
        assert!(l.bitrate(9).is_err());
        assert!(l.tier(9).is_err());
    }

    #[test]
    fn tier_labels() {
        assert_eq!(QualityTier::Ld.label(), "LD");
        assert_eq!(QualityTier::FullHd.label(), "Full HD");
        assert_eq!(QualityTier::ALL.len(), 4);
    }
}
