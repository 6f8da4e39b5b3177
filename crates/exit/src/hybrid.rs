//! The hybrid predictor of Eq. 4: personalized NN for stalls + overall
//! statistics (OS) for quality and smoothness.

use lingxi_media::QualityTier;

use crate::features::StateMatrix;
use crate::model::ExitPredictor;
use crate::{ExitError, Result};

/// Overall-statistics table: empirical exit rates by quality tier and
/// switch bucket, fitted by counting over the whole population (the effects
/// too small for per-user modelling — Takeaway 1).
#[derive(Debug, Clone, PartialEq)]
pub struct OsTable {
    /// Base exit rate per segment with no switch, per tier (LD..FullHD).
    tier_rates: [f64; 4],
    /// Additional rate per switch granularity bucket: index 0 holds
    /// granularity −2 (or lower), then −1, +1, +2 (or higher). No-switch
    /// contributes nothing.
    switch_rates: [f64; 4],
    /// Observations absorbed.
    n: u64,
}

impl OsTable {
    fn tier_idx(tier: QualityTier) -> usize {
        match tier {
            QualityTier::Ld => 0,
            QualityTier::Sd => 1,
            QualityTier::Hd => 2,
            QualityTier::FullHd => 3,
        }
    }

    fn switch_idx(granularity: i64) -> Option<usize> {
        match granularity {
            g if g <= -2 => Some(0),
            -1 => Some(1),
            1 => Some(2),
            g if g >= 2 => Some(3),
            _ => None,
        }
    }

    /// Fit from observations: `(tier, switch granularity, exited)`.
    pub fn fit(observations: &[(QualityTier, i64, bool)]) -> Result<Self> {
        if observations.is_empty() {
            return Err(ExitError::BadDataset("no OS observations".into()));
        }
        let mut tier_counts = [[0u64; 2]; 4]; // [tier][exited]
        let mut switch_counts = [[0u64; 2]; 4];
        for &(tier, gran, exited) in observations {
            match Self::switch_idx(gran) {
                // Switch observations feed the switch buckets; tier base
                // rates come from switch-free segments only, so the two
                // effects stay separable.
                Some(s) => switch_counts[s][usize::from(exited)] += 1,
                None => tier_counts[Self::tier_idx(tier)][usize::from(exited)] += 1,
            }
        }
        let mut tier_rates = [0.0; 4];
        let mut total_rate = 0.0;
        let mut tiers_seen = 0.0;
        for (t, counts) in tier_counts.iter().enumerate() {
            let n = counts[0] + counts[1];
            if n > 0 {
                tier_rates[t] = counts[1] as f64 / n as f64;
                total_rate += tier_rates[t];
                tiers_seen += 1.0;
            }
        }
        // Unseen tiers fall back to the mean observed rate.
        let fallback = if tiers_seen > 0.0 {
            total_rate / tiers_seen
        } else {
            0.0
        };
        for r in tier_rates.iter_mut() {
            if *r == 0.0 && fallback > 0.0 {
                *r = fallback;
            }
        }
        // Switch rates are *excess* over the tier baseline; clamp at 0.
        let mut switch_rates = [0.0; 4];
        for (s, counts) in switch_counts.iter().enumerate() {
            let n = counts[0] + counts[1];
            if n > 0 {
                let rate = counts[1] as f64 / n as f64;
                switch_rates[s] = (rate - fallback).max(0.0);
            }
        }
        Ok(Self {
            tier_rates,
            switch_rates,
            n: observations.len() as u64,
        })
    }

    /// Expected exit rate from quality/smoothness alone.
    pub fn rate(&self, tier: QualityTier, switch_granularity: i64) -> f64 {
        let base = self.tier_rates[Self::tier_idx(tier)];
        let extra = Self::switch_idx(switch_granularity)
            .map(|s| self.switch_rates[s])
            .unwrap_or(0.0);
        (base + extra).clamp(0.0, 1.0)
    }

    /// Observations used for the fit.
    pub fn observations(&self) -> u64 {
        self.n
    }
}

/// The Eq. 4 hybrid: `NN(stall) + OS(quality, smoothness)` when the segment
/// stalled, `OS(...)` otherwise.
#[derive(Debug, Clone)]
pub struct HybridPredictor {
    /// The stall-specialist network.
    pub nn: ExitPredictor,
    /// The population statistics table.
    pub os: OsTable,
    /// Weight of the NN term (1.0 = paper's plain sum; kept explicit so the
    /// ablation bench can sweep it).
    pub nn_weight: f64,
}

impl HybridPredictor {
    /// Standard hybrid (weight 1).
    pub fn new(nn: ExitPredictor, os: OsTable) -> Self {
        Self {
            nn,
            os,
            nn_weight: 1.0,
        }
    }

    /// Predict the segment-level exit rate.
    ///
    /// `stalled` says whether the *current* segment carried a stall; `tier`
    /// and `switch_granularity` describe its quality context; `state` is
    /// the user-state matrix for the NN.
    pub fn predict(
        &mut self,
        state: &StateMatrix,
        stalled: bool,
        tier: QualityTier,
        switch_granularity: i64,
    ) -> f64 {
        let os = self.os.rate(tier, switch_granularity);
        if stalled {
            (self.nn_weight * self.nn.predict(state) + os).clamp(0.0, 1.0)
        } else {
            os
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::PredictorConfig;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn observations() -> Vec<(QualityTier, i64, bool)> {
        let mut v = Vec::new();
        // LD: 3% exit; SD 2.5%; HD 2.2%; FullHD 2.1% (Fig. 4a shape).
        let spec = [
            (QualityTier::Ld, 30),
            (QualityTier::Sd, 25),
            (QualityTier::Hd, 22),
            (QualityTier::FullHd, 21),
        ];
        for (tier, exits_per_k) in spec {
            for i in 0..1000 {
                v.push((tier, 0, i < exits_per_k));
            }
        }
        // Switches: downward worse.
        for i in 0..500 {
            v.push((QualityTier::Hd, -1, i < 20)); // 4%
            v.push((QualityTier::Hd, 1, i < 17)); // 3.4%
        }
        v
    }

    #[test]
    fn os_table_recovers_rates() {
        let os = OsTable::fit(&observations()).unwrap();
        assert!((os.rate(QualityTier::Ld, 0) - 0.030).abs() < 1e-9);
        assert!((os.rate(QualityTier::FullHd, 0) - 0.021).abs() < 1e-9);
        // Monotone decreasing with tier.
        assert!(os.rate(QualityTier::Ld, 0) > os.rate(QualityTier::Sd, 0));
        assert!(os.rate(QualityTier::Sd, 0) > os.rate(QualityTier::Hd, 0));
        // Switches add on top; downward more.
        assert!(os.rate(QualityTier::Hd, -1) > os.rate(QualityTier::Hd, 0));
        assert!(os.rate(QualityTier::Hd, -1) > os.rate(QualityTier::Hd, 1));
        assert!(os.observations() > 0);
    }

    #[test]
    fn os_table_empty_errors() {
        assert!(OsTable::fit(&[]).is_err());
    }

    #[test]
    fn os_unseen_bucket_falls_back() {
        // Only LD data; other tiers should fall back to the mean, not 0.
        let obs: Vec<(QualityTier, i64, bool)> =
            (0..100).map(|i| (QualityTier::Ld, 0, i < 5)).collect();
        let os = OsTable::fit(&obs).unwrap();
        assert!(os.rate(QualityTier::FullHd, 0) > 0.0);
    }

    #[test]
    fn hybrid_adds_nn_only_on_stall() {
        let mut rng = StdRng::seed_from_u64(1);
        let nn = ExitPredictor::new(PredictorConfig::small(), &mut rng).unwrap();
        let os = OsTable::fit(&observations()).unwrap();
        let mut h = HybridPredictor::new(nn, os);
        let state = StateMatrix::zeros();
        let p_quiet = h.predict(&state, false, QualityTier::Hd, 0);
        let p_stall = h.predict(&state, true, QualityTier::Hd, 0);
        assert!((p_quiet - h.os.rate(QualityTier::Hd, 0)).abs() < 1e-12);
        assert!(p_stall > p_quiet, "stall path must add the NN term");
        assert!(p_stall <= 1.0);
    }

    #[test]
    fn nn_weight_zero_disables_nn_term() {
        let mut rng = StdRng::seed_from_u64(2);
        let nn = ExitPredictor::new(PredictorConfig::small(), &mut rng).unwrap();
        let os = OsTable::fit(&observations()).unwrap();
        let mut h = HybridPredictor::new(nn, os);
        h.nn_weight = 0.0;
        let state = StateMatrix::zeros();
        let p_stall = h.predict(&state, true, QualityTier::Hd, 0);
        assert!((p_stall - h.os.rate(QualityTier::Hd, 0)).abs() < 1e-12);
    }
}
