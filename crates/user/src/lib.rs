//! User-behaviour substrate: exit models, stall-sensitivity profiles and
//! population generation.
//!
//! The paper's private asset is 1.5M production watch trajectories; every
//! analysis in §2 (and the user models of §5.2) is a function of how users
//! exit in response to QoS. This crate generates that behaviour
//! synthetically, calibrated to the published curves:
//!
//! - QoS → exit-rate magnitudes: video quality ~1e-3, smoothness ~1e-2,
//!   stall ~1e-1 with a ~0.3 maximum differential (Fig. 4, Takeaway 1);
//! - compound effects: longer engagement raises stall tolerance, Full-HD
//!   watchers are *less* stall-tolerant, repeated stalls compound (Fig. 4d);
//! - population heterogeneity: ~20% of users barely tolerate stalls, ~20%
//!   tolerate > 5 s, ~10% > 10 s; day-to-day tolerance drift is mostly
//!   stable with a 2–4 s band for ~20% of users and a long tail (Fig. 5a);
//! - archetypes: ramp-sensitive, threshold-sensitive, insensitive (Fig. 5b);
//! - plus *random* (content-driven) exits unrelated to QoS, which are what
//!   makes the ALL-dataset predictor of Fig. 9(a) unlearnable.
//!
//! ```
//! use lingxi_user::{PopulationConfig, UserPopulation};
//! use rand::{rngs::StdRng, SeedableRng};
//!
//! // Populations generate deterministically from a seed (§2's cohorts).
//! let mut rng = StdRng::seed_from_u64(1);
//! let config = PopulationConfig { n_users: 10, ..PopulationConfig::default() };
//! let pop = UserPopulation::generate(&config, &mut rng).unwrap();
//! assert_eq!(pop.len(), 10);
//! assert!(pop.users().iter().all(|u| u.sessions_per_day >= 1.0));
//! ```

#![forbid(unsafe_code)]

pub mod population;
pub mod profile;
pub mod qos_model;
pub mod rules;

pub use population::{PopulationConfig, UserPopulation, UserRecord};
pub use profile::{SensitivityKind, StallProfile, ToleranceDrift};
pub use qos_model::{consult, ExitModel, QosExitModel, SegmentView};
pub use rules::RuleBasedExit;

/// Errors from user-model construction.
#[derive(Debug, Clone, PartialEq)]
pub enum UserError {
    /// Invalid configuration parameter.
    InvalidConfig(String),
    /// Not enough data to fit a model.
    InsufficientData(String),
}

impl std::fmt::Display for UserError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            UserError::InvalidConfig(m) => write!(f, "invalid config: {m}"),
            UserError::InsufficientData(m) => write!(f, "insufficient data: {m}"),
        }
    }
}

impl std::error::Error for UserError {}

/// Result alias for this crate.
pub type Result<T> = std::result::Result<T, UserError>;
