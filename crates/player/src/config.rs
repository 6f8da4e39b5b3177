//! Player configuration: buffer cap policy and RTT.

use lingxi_net::RttModel;
use lingxi_stats::NormalDist;

use crate::{PlayerError, Result};

/// How the buffer cap `B_max` adapts to the bandwidth model.
///
/// Eq. 3 writes `B_max = f(N(mu_Cpast, sigma^2_Cpast))`: production players
/// grow the prefetch window when the link is weak or bursty (insure against
/// stalls) and shrink it on strong stable links (avoid wasted downloads when
/// the user swipes away). [`BmaxPolicy::BandwidthAdaptive`] implements that
/// shape; [`BmaxPolicy::Fixed`] pins it for controlled experiments.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum BmaxPolicy {
    /// Constant cap in seconds.
    Fixed(f64),
    /// Interpolate between `cap_weak` (at/below `weak_kbps` of lower
    /// envelope μ−σ) and `cap_strong` (at/above `strong_kbps`).
    BandwidthAdaptive {
        /// Cap when the link's lower envelope is at or below `weak_kbps`.
        cap_weak: f64,
        /// Cap when the lower envelope is at or above `strong_kbps`.
        cap_strong: f64,
        /// Lower pivot (kbps).
        weak_kbps: f64,
        /// Upper pivot (kbps).
        strong_kbps: f64,
    },
}

impl BmaxPolicy {
    /// Production-like default: 14 s on weak links shrinking to 8 s on
    /// strong ones.
    pub fn default_adaptive() -> Self {
        BmaxPolicy::BandwidthAdaptive {
            cap_weak: 14.0,
            cap_strong: 8.0,
            weak_kbps: 2000.0,
            strong_kbps: 20_000.0,
        }
    }

    /// Validate parameters.
    pub fn validate(&self) -> Result<()> {
        match *self {
            BmaxPolicy::Fixed(cap) => {
                if !(cap > 0.0) || !cap.is_finite() {
                    return Err(PlayerError::InvalidConfig(
                        "fixed B_max must be positive".into(),
                    ));
                }
            }
            BmaxPolicy::BandwidthAdaptive {
                cap_weak,
                cap_strong,
                weak_kbps,
                strong_kbps,
            } => {
                // A non-finite cap would turn the interpolation into NaN,
                // which `f64::min`/`max` drop: the buffer would go uncapped.
                let valid = |cap: f64| cap > 0.0 && cap.is_finite();
                if !(valid(cap_weak) && valid(cap_strong)) {
                    return Err(PlayerError::InvalidConfig(
                        "caps must be positive and finite".into(),
                    ));
                }
                // An infinite upper pivot makes `cap()`'s interpolation
                // weight 0 for every finite envelope: the policy would act
                // as `Fixed(cap_weak)` without saying so.
                if !(strong_kbps > weak_kbps && weak_kbps > 0.0 && strong_kbps.is_finite()) {
                    return Err(PlayerError::InvalidConfig(
                        "need 0 < weak_kbps < strong_kbps, both finite".into(),
                    ));
                }
            }
        }
        Ok(())
    }

    /// The cap of a player that has observed nothing yet: the fixed cap,
    /// or the weak-link cap of an adaptive policy.
    pub fn initial(&self) -> f64 {
        match *self {
            BmaxPolicy::Fixed(cap) => cap,
            BmaxPolicy::BandwidthAdaptive { cap_weak, .. } => cap_weak,
        }
    }

    /// A lower bound on every cap [`BmaxPolicy::cap`] (so
    /// [`BmaxPolicy::refreshed`]) can return for a valid policy. Fixed:
    /// the cap. Adaptive: the least of the two caps and the interpolation's
    /// float value at `t = 1`, `fl(cap_weak + fl(cap_strong − cap_weak))`.
    /// Each rounding in `cap_weak + t·(cap_strong − cap_weak)` is monotone,
    /// so for `t` in `[0, 1]` its float value lies between those at the two
    /// ends; the end at `t = 1` can round below `cap_strong` when
    /// `cap_weak ≫ cap_strong`.
    pub fn floor(&self) -> f64 {
        match *self {
            BmaxPolicy::Fixed(cap) => cap,
            BmaxPolicy::BandwidthAdaptive {
                cap_weak,
                cap_strong,
                ..
            } => cap_weak
                .min(cap_strong)
                .min(cap_weak + (cap_strong - cap_weak)),
        }
    }

    /// The cap once the player's throughput window is `window` (its rates,
    /// oldest first; iterated twice, for the fit's mean and spread): a
    /// fixed cap keeps `current` (fitting the window just to discard the
    /// fit would be pure overhead); an adaptive one is evaluated on the
    /// window's normal fit, keeping `current` while the window is empty
    /// (or its fit is not finite, which takes rates beyond 1e150 kbps).
    pub fn refreshed<I>(&self, current: f64, window: I) -> f64
    where
        I: Iterator<Item = f64> + Clone,
    {
        if matches!(self, BmaxPolicy::Fixed(_)) {
            return current;
        }
        NormalDist::fit_iter(window).map_or(current, |model| self.cap(&model))
    }

    /// Evaluate the cap (seconds) for the given bandwidth model.
    pub fn cap(&self, bandwidth: &NormalDist) -> f64 {
        match *self {
            BmaxPolicy::Fixed(cap) => cap,
            BmaxPolicy::BandwidthAdaptive {
                cap_weak,
                cap_strong,
                weak_kbps,
                strong_kbps,
            } => {
                // Use the μ−σ lower envelope: burstier links behave weaker.
                let lower = bandwidth.lower_envelope(1.0).max(0.0);
                if lower <= weak_kbps {
                    cap_weak
                } else if lower >= strong_kbps {
                    cap_strong
                } else {
                    let t = (lower - weak_kbps) / (strong_kbps - weak_kbps);
                    cap_weak + t * (cap_strong - cap_weak)
                }
            }
        }
    }
}

/// Full player configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PlayerConfig {
    /// Buffer-cap policy.
    pub bmax: BmaxPolicy,
    /// Round-trip-time model (the RTT term of δt in Eq. 3).
    pub rtt: RttModel,
    /// Throughput-history window the player exposes to ABRs (segments).
    pub history_window: usize,
}

impl Default for PlayerConfig {
    fn default() -> Self {
        Self {
            bmax: BmaxPolicy::default_adaptive(),
            rtt: RttModel::default_mobile(),
            history_window: 8,
        }
    }
}

impl PlayerConfig {
    /// Deterministic config for tests: fixed cap, constant RTT.
    pub fn deterministic(bmax_seconds: f64, rtt_seconds: f64) -> Self {
        Self {
            bmax: BmaxPolicy::Fixed(bmax_seconds),
            rtt: RttModel::constant(rtt_seconds),
            history_window: 8,
        }
    }

    /// Validate all components.
    pub fn validate(&self) -> Result<()> {
        self.bmax.validate()?;
        self.rtt
            .validate()
            .map_err(|e| PlayerError::InvalidConfig(e.to_string()))?;
        if self.history_window == 0 {
            return Err(PlayerError::InvalidConfig(
                "history window must be positive".into(),
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixed_policy() {
        let p = BmaxPolicy::Fixed(10.0);
        p.validate().unwrap();
        let bw = NormalDist::new(5000.0, 1000.0).unwrap();
        assert_eq!(p.cap(&bw), 10.0);
        assert!(BmaxPolicy::Fixed(0.0).validate().is_err());
    }

    #[test]
    fn adaptive_policy_interpolates() {
        let p = BmaxPolicy::default_adaptive();
        p.validate().unwrap();
        let weak = NormalDist::new(1500.0, 500.0).unwrap(); // envelope 1000
        let strong = NormalDist::new(40_000.0, 2000.0).unwrap(); // 38k
        let mid = NormalDist::new(12_000.0, 1000.0).unwrap(); // 11k
        assert_eq!(p.cap(&weak), 14.0);
        assert_eq!(p.cap(&strong), 8.0);
        let c = p.cap(&mid);
        assert!(c < 14.0 && c > 8.0);
    }

    #[test]
    fn burstier_links_get_bigger_buffers() {
        let p = BmaxPolicy::default_adaptive();
        let stable = NormalDist::new(10_000.0, 500.0).unwrap();
        let bursty = NormalDist::new(10_000.0, 6000.0).unwrap();
        assert!(p.cap(&bursty) >= p.cap(&stable));
    }

    #[test]
    fn adaptive_validation() {
        let bad = BmaxPolicy::BandwidthAdaptive {
            cap_weak: 14.0,
            cap_strong: 8.0,
            weak_kbps: 5000.0,
            strong_kbps: 2000.0,
        };
        assert!(bad.validate().is_err());
    }

    #[test]
    fn infinite_thresholds_are_rejected() {
        for (weak_kbps, strong_kbps) in [(2000.0, f64::INFINITY), (f64::INFINITY, f64::INFINITY)] {
            let p = BmaxPolicy::BandwidthAdaptive {
                cap_weak: 14.0,
                cap_strong: 8.0,
                weak_kbps,
                strong_kbps,
            };
            assert!(p.validate().is_err(), "{weak_kbps} {strong_kbps}");
        }
    }

    #[test]
    fn config_validation() {
        assert!(PlayerConfig::default().validate().is_ok());
        let c = PlayerConfig {
            history_window: 0,
            ..PlayerConfig::default()
        };
        assert!(c.validate().is_err());
    }
}
