//! Per-user stall-sensitivity profiles and their temporal drift.

use rand::Rng;

use crate::{Result, UserError};

/// The three response archetypes of Fig. 5(b).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SensitivityKind {
    /// Exit probability ramps quickly with stall time.
    Sensitive,
    /// Low response below a personal threshold, sharp jump above it.
    ThresholdSensitive,
    /// Mild, slowly growing response.
    Insensitive,
}

/// Day-to-day tolerance drift (Fig. 5a, right curve): most users are
/// stable; ~20% fluctuate by 2–4 s; the rest follow a long tail.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ToleranceDrift {
    /// Fraction of users with (near-)zero drift.
    pub p_stable: f64,
    /// Fraction with moderate 2–4 s drift.
    pub p_moderate: f64,
    // Remainder: long-tail drift.
}

impl Default for ToleranceDrift {
    fn default() -> Self {
        Self {
            p_stable: 0.6,
            p_moderate: 0.2,
        }
    }
}

impl ToleranceDrift {
    /// Draw a signed tolerance delta (seconds) for one user-day.
    pub fn sample_delta<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        let u: f64 = rng.gen();
        let sign = if rng.gen::<bool>() { 1.0 } else { -1.0 };
        if u < self.p_stable {
            sign * rng.gen::<f64>() * 0.5
        } else if u < self.p_stable + self.p_moderate {
            sign * (2.0 + rng.gen::<f64>() * 2.0)
        } else {
            // Long tail: exponential with mean 3 s, occasionally large.
            let e: f64 = rng.gen_range(f64::EPSILON..1.0);
            sign * (-3.0 * e.ln()).min(15.0)
        }
    }
}

/// One user's stall-response profile.
///
/// `response(stall_seconds)` maps a *session's cumulative* stall exposure to
/// an additional per-segment exit probability, shaped by the archetype and
/// the personal tolerance τ. The magnitudes keep the overall stall effect in
/// the 1e-1 band with a ~0.3 maximum differential (Fig. 4c).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StallProfile {
    /// Archetype.
    pub kind: SensitivityKind,
    /// Personal tolerance τ (seconds) — the pivot of the response.
    pub tolerance: f64,
    /// Response ceiling (max additional exit probability per segment).
    pub ceiling: f64,
}

impl StallProfile {
    /// Create a profile; tolerance must be positive.
    pub fn new(kind: SensitivityKind, tolerance: f64, ceiling: f64) -> Result<Self> {
        if !(tolerance > 0.0) || !tolerance.is_finite() {
            return Err(UserError::InvalidConfig(
                "tolerance must be positive".into(),
            ));
        }
        if !(0.0..=1.0).contains(&ceiling) {
            return Err(UserError::InvalidConfig("ceiling must be in [0,1]".into()));
        }
        Ok(Self {
            kind,
            tolerance,
            ceiling,
        })
    }

    /// Additional exit probability contributed by `stall_seconds` of
    /// accumulated stall.
    pub fn response(&self, stall_seconds: f64) -> f64 {
        if stall_seconds <= 0.0 {
            return 0.0;
        }
        let r = match self.kind {
            SensitivityKind::Sensitive => {
                // Fast ramp: reaches the ceiling around τ.
                self.ceiling * (stall_seconds / self.tolerance).min(1.0)
            }
            SensitivityKind::ThresholdSensitive => {
                if stall_seconds < self.tolerance {
                    0.05 * self.ceiling
                } else {
                    self.ceiling
                }
            }
            SensitivityKind::Insensitive => {
                // Slow saturating growth; ~40% of ceiling at 2τ.
                self.ceiling * (1.0 - (-stall_seconds / (4.0 * self.tolerance)).exp())
            }
        };
        r.min(self.ceiling)
    }

    /// A copy with tolerance shifted by `delta` (clamped to 0.25 s floor) —
    /// the day-to-day drift application.
    pub fn drifted(&self, delta: f64) -> Self {
        Self {
            tolerance: (self.tolerance + delta).max(0.25),
            ..*self
        }
    }

    /// The smallest stall (seconds) whose response exceeds half the
    /// ceiling — a scalar "average tolerable stall time" used to draw the
    /// Fig. 5(a) CDF.
    pub fn tolerable_stall(&self) -> f64 {
        // Binary search on the monotone response curve.
        let target = self.ceiling / 2.0;
        let (mut lo, mut hi) = (0.0f64, 40.0f64);
        if self.response(hi) < target {
            return hi;
        }
        for _ in 0..64 {
            let mid = (lo + hi) / 2.0;
            if self.response(mid) >= target {
                hi = mid;
            } else {
                lo = mid;
            }
        }
        hi
    }
}

/// Draw a random profile matching the population shares of Fig. 5(a):
/// ~20% minimal tolerance, ~20% above 5 s, ~10% above 10 s.
pub fn sample_profile<R: Rng + ?Sized>(rng: &mut R) -> StallProfile {
    // Ceilings are high (0.5–0.9): once a user's tolerance is exceeded the
    // exit is close to deterministic, matching the near-step per-user
    // curves of Fig. 5(b). Population-average effects stay in Fig. 4's
    // 1e-1 band because most users are far from their threshold most of
    // the time.
    let u: f64 = rng.gen();
    if u < 0.20 {
        // Highly sensitive: tolerance under ~1.5 s.
        StallProfile {
            kind: SensitivityKind::Sensitive,
            tolerance: 0.4 + rng.gen::<f64>() * 1.1,
            ceiling: 0.65 + rng.gen::<f64>() * 0.25,
        }
    } else if u < 0.70 {
        // Threshold users with mid tolerances 1.5–5 s.
        StallProfile {
            kind: SensitivityKind::ThresholdSensitive,
            tolerance: 1.5 + rng.gen::<f64>() * 3.5,
            ceiling: 0.55 + rng.gen::<f64>() * 0.30,
        }
    } else if u < 0.90 {
        // Tolerant threshold users: 5–10 s.
        StallProfile {
            kind: SensitivityKind::ThresholdSensitive,
            tolerance: 5.0 + rng.gen::<f64>() * 5.0,
            ceiling: 0.45 + rng.gen::<f64>() * 0.30,
        }
    } else {
        // Insensitive: effective tolerance beyond 10 s.
        StallProfile {
            kind: SensitivityKind::Insensitive,
            tolerance: 4.0 + rng.gen::<f64>() * 4.0,
            ceiling: 0.15 + rng.gen::<f64>() * 0.10,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn responses_monotone_and_capped() {
        for kind in [
            SensitivityKind::Sensitive,
            SensitivityKind::ThresholdSensitive,
            SensitivityKind::Insensitive,
        ] {
            let p = StallProfile::new(kind, 3.0, 0.3).unwrap();
            let mut prev = 0.0;
            for i in 0..100 {
                let r = p.response(i as f64 * 0.5);
                assert!(r >= prev - 1e-12, "{kind:?} not monotone");
                assert!(r <= 0.3 + 1e-12);
                prev = r;
            }
            assert_eq!(p.response(0.0), 0.0);
            assert_eq!(p.response(-1.0), 0.0);
        }
    }

    #[test]
    fn threshold_profile_jumps_at_tolerance() {
        let p = StallProfile::new(SensitivityKind::ThresholdSensitive, 4.0, 0.3).unwrap();
        assert!(p.response(3.9) < 0.02);
        assert!((p.response(4.0) - 0.3).abs() < 1e-12);
    }

    #[test]
    fn sensitive_reaches_ceiling_at_tolerance() {
        let p = StallProfile::new(SensitivityKind::Sensitive, 2.0, 0.4).unwrap();
        assert!((p.response(2.0) - 0.4).abs() < 1e-12);
        assert!((p.response(1.0) - 0.2).abs() < 1e-12);
    }

    #[test]
    fn tolerable_stall_orders_archetypes() {
        let sens = StallProfile::new(SensitivityKind::Sensitive, 1.0, 0.3).unwrap();
        let thresh = StallProfile::new(SensitivityKind::ThresholdSensitive, 5.0, 0.3).unwrap();
        let insens = StallProfile::new(SensitivityKind::Insensitive, 6.0, 0.2).unwrap();
        assert!(sens.tolerable_stall() < thresh.tolerable_stall());
        assert!(thresh.tolerable_stall() < insens.tolerable_stall());
    }

    #[test]
    fn population_tolerance_cdf_matches_fig5a() {
        let mut rng = StdRng::seed_from_u64(1);
        let tolerances: Vec<f64> = (0..20_000)
            .map(|_| sample_profile(&mut rng).tolerable_stall())
            .collect();
        let frac = |pred: &dyn Fn(f64) -> bool| {
            tolerances.iter().filter(|&&t| pred(t)).count() as f64 / tolerances.len() as f64
        };
        // ~20% minimal tolerance (< 2 s).
        let low = frac(&|t| t < 2.0);
        assert!(low > 0.12 && low < 0.32, "low-tolerance share {low}");
        // ~20% beyond 5 s (within modelling slack).
        let high = frac(&|t| t > 5.0);
        assert!(high > 0.18 && high < 0.45, "high-tolerance share {high}");
        // ~10% beyond 10 s.
        let vhigh = frac(&|t| t > 10.0);
        assert!(vhigh > 0.04 && vhigh < 0.25, "very-high share {vhigh}");
    }

    #[test]
    fn drift_distribution_shape() {
        let d = ToleranceDrift::default();
        let mut rng = StdRng::seed_from_u64(2);
        let deltas: Vec<f64> = (0..20_000)
            .map(|_| d.sample_delta(&mut rng).abs())
            .collect();
        let stable = deltas.iter().filter(|&&x| x < 1.0).count() as f64 / deltas.len() as f64;
        let moderate = deltas.iter().filter(|&&x| (2.0..=4.0).contains(&x)).count() as f64
            / deltas.len() as f64;
        assert!(stable > 0.5, "stable share {stable}");
        assert!(moderate > 0.15, "moderate share {moderate}");
        assert!(
            deltas.iter().cloned().fold(0.0, f64::max) > 6.0,
            "long tail missing"
        );
    }

    #[test]
    fn drifted_clamps_at_floor() {
        let p = StallProfile::new(SensitivityKind::Sensitive, 1.0, 0.3).unwrap();
        let d = p.drifted(-5.0);
        assert_eq!(d.tolerance, 0.25);
        assert_eq!(d.kind, p.kind);
    }

    #[test]
    fn invalid_profiles_rejected() {
        assert!(StallProfile::new(SensitivityKind::Sensitive, 0.0, 0.3).is_err());
        assert!(StallProfile::new(SensitivityKind::Sensitive, 1.0, 1.5).is_err());
    }
}
