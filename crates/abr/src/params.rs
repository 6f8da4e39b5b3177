//! The tunable QoE parameter vector — LingXi's search space.
//!
//! §5.2 sweeps "stall parameters ranging from 1 to 20 and switching
//! parameters from 0 to 4" for the explicit-objective ABRs, and §5.3 tunes
//! HYB's β in lieu of an explicit objective. One struct carries all three so
//! the optimizer is agnostic to which ABR consumes it.

use crate::{AbrError, Result};

/// Tunable QoE/behaviour parameters of an ABR algorithm.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QoeParams {
    /// Stall penalty weight μ of `QoE_lin` (paper sweep: 1–20).
    pub stall_weight: f64,
    /// Quality-switch penalty weight (paper sweep: 0–4).
    pub switch_weight: f64,
    /// HYB aggressiveness β (paper Fig. 13–15 operating range ~0.4–0.95).
    pub beta: f64,
}

impl Default for QoeParams {
    fn default() -> Self {
        Self {
            stall_weight: 4.3, // q_max of the default ladder, §2.1's default μ
            switch_weight: 1.0,
            beta: 0.8,
        }
    }
}

impl QoeParams {
    /// The paper's search bounds: stall 1–20, switch 0–4, β 0.3–0.95.
    pub const STALL_RANGE: (f64, f64) = (1.0, 20.0);
    /// Switch-weight bounds.
    pub const SWITCH_RANGE: (f64, f64) = (0.0, 4.0);
    /// β bounds.
    pub const BETA_RANGE: (f64, f64) = (0.3, 0.95);

    /// Validate that every component lies inside its search range
    /// (used at optimizer boundaries; defaults always pass).
    pub fn validate(&self) -> Result<()> {
        if !(Self::STALL_RANGE.0..=Self::STALL_RANGE.1).contains(&self.stall_weight) {
            return Err(AbrError::InvalidConfig(format!(
                "stall_weight {} outside {:?}",
                self.stall_weight,
                Self::STALL_RANGE
            )));
        }
        if !(Self::SWITCH_RANGE.0..=Self::SWITCH_RANGE.1).contains(&self.switch_weight) {
            return Err(AbrError::InvalidConfig(format!(
                "switch_weight {} outside {:?}",
                self.switch_weight,
                Self::SWITCH_RANGE
            )));
        }
        if !(Self::BETA_RANGE.0..=Self::BETA_RANGE.1).contains(&self.beta) {
            return Err(AbrError::InvalidConfig(format!(
                "beta {} outside {:?}",
                self.beta,
                Self::BETA_RANGE
            )));
        }
        Ok(())
    }

    /// Clamp every component into its range.
    pub fn clamped(&self) -> Self {
        Self {
            stall_weight: self
                .stall_weight
                .clamp(Self::STALL_RANGE.0, Self::STALL_RANGE.1),
            switch_weight: self
                .switch_weight
                .clamp(Self::SWITCH_RANGE.0, Self::SWITCH_RANGE.1),
            beta: self.beta.clamp(Self::BETA_RANGE.0, Self::BETA_RANGE.1),
        }
    }

    /// Map to the unit cube (for the Gaussian-process optimizer).
    pub fn to_unit(&self) -> [f64; 3] {
        let norm = |v: f64, (lo, hi): (f64, f64)| (v - lo) / (hi - lo);
        [
            norm(self.stall_weight, Self::STALL_RANGE),
            norm(self.switch_weight, Self::SWITCH_RANGE),
            norm(self.beta, Self::BETA_RANGE),
        ]
    }

    /// Inverse of [`QoeParams::to_unit`] (inputs are clamped into `[0,1]`).
    pub fn from_unit(u: [f64; 3]) -> Self {
        let denorm = |t: f64, (lo, hi): (f64, f64)| lo + t.clamp(0.0, 1.0) * (hi - lo);
        Self {
            stall_weight: denorm(u[0], Self::STALL_RANGE),
            switch_weight: denorm(u[1], Self::SWITCH_RANGE),
            beta: denorm(u[2], Self::BETA_RANGE),
        }
    }

    /// A conservative (stall-averse) preset — `Alg1` of Fig. 1.
    pub fn stall_averse() -> Self {
        Self {
            stall_weight: 16.0,
            switch_weight: 1.0,
            beta: 0.55,
        }
    }

    /// A quality-seeking preset — `Alg3` of Fig. 1.
    pub fn quality_seeking() -> Self {
        Self {
            stall_weight: 2.0,
            switch_weight: 0.5,
            beta: 0.92,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_valid() {
        QoeParams::default().validate().unwrap();
        QoeParams::stall_averse().validate().unwrap();
        QoeParams::quality_seeking().validate().unwrap();
    }

    #[test]
    fn validation_catches_out_of_range() {
        let p = QoeParams {
            stall_weight: 25.0,
            ..QoeParams::default()
        };
        assert!(p.validate().is_err());
        let p = QoeParams {
            switch_weight: -1.0,
            ..QoeParams::default()
        };
        assert!(p.validate().is_err());
        let p = QoeParams {
            beta: 1.5,
            ..QoeParams::default()
        };
        assert!(p.validate().is_err());
    }

    #[test]
    fn clamp_brings_into_range() {
        let p = QoeParams {
            stall_weight: 100.0,
            switch_weight: -3.0,
            beta: 0.0,
        }
        .clamped();
        p.validate().unwrap();
        assert_eq!(p.stall_weight, 20.0);
        assert_eq!(p.switch_weight, 0.0);
        assert_eq!(p.beta, 0.3);
    }

    #[test]
    fn unit_cube_roundtrip() {
        let p = QoeParams {
            stall_weight: 7.5,
            switch_weight: 2.0,
            beta: 0.6,
        };
        let q = QoeParams::from_unit(p.to_unit());
        assert!((p.stall_weight - q.stall_weight).abs() < 1e-12);
        assert!((p.switch_weight - q.switch_weight).abs() < 1e-12);
        assert!((p.beta - q.beta).abs() < 1e-12);
        // Corners map to range edges.
        let lo = QoeParams::from_unit([0.0, 0.0, 0.0]);
        assert_eq!(lo.stall_weight, 1.0);
        assert_eq!(lo.beta, 0.3);
        let hi = QoeParams::from_unit([1.0, 1.0, 1.0]);
        assert_eq!(hi.stall_weight, 20.0);
    }

    #[test]
    fn presets_differ_in_the_right_direction() {
        let averse = QoeParams::stall_averse();
        let seeking = QoeParams::quality_seeking();
        assert!(averse.stall_weight > seeking.stall_weight);
        assert!(averse.beta < seeking.beta);
    }
}
