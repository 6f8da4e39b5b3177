//! Adaptive-bitrate algorithms and the tunable QoE objective.
//!
//! LingXi is a *plugin over* ABR algorithms: it never chooses bitrates
//! itself, it re-tunes the objective parameters of an underlying ABR
//! (paper §3, §6). This crate supplies those ABRs:
//!
//! | Algorithm | Objective | Tunable parameters |
//! |---|---|---|
//! | [`ThroughputRule`] | implicit | safety margin |
//! | [`Bba`] | implicit (buffer) | reservoir/cushion |
//! | [`Bola`] | explicit utility | `V`, `gamma_p` |
//! | [`Hyb`] | implicit | **β** (aggressiveness, §5.3) |
//! | [`RobustMpc`] | explicit `QoE_lin` | **stall weight μ, switch weight** |
//! | [`Pensieve`] | explicit `QoE_lin` reward | params injected into state (§5.2) |
//!
//! Every algorithm implements [`Abr`], whose `set_params` accepts a
//! [`QoeParams`] — the vector LingXi's Bayesian optimizer searches over.
//!
//! ```
//! use lingxi_abr::{Abr, Hyb, QoeParams};
//!
//! // LingXi's knob on HYB is β (§5.3): parameters round-trip through the
//! // uniform `Abr` interface every algorithm implements.
//! let mut abr = Hyb::default_rule();
//! abr.set_params(QoeParams { beta: 0.5, ..QoeParams::default() });
//! assert_eq!(Abr::params(&abr).beta, 0.5);
//! ```

#![forbid(unsafe_code)]

pub mod abr;
pub mod bba;
pub mod bola;
pub mod hyb;
pub mod mpc;
pub mod params;
pub mod pensieve;
pub mod qoe;
mod quality;
pub mod throughput;

pub use abr::{drive, sync_estimator, sync_window, Abr, AbrContext};
pub use bba::Bba;
pub use bola::Bola;
pub use hyb::{BetaWitness, Hyb};
pub use mpc::RobustMpc;
pub use params::QoeParams;
pub use pensieve::{Pensieve, PensieveConfig, PensieveTrainer, TrainStats};
pub use qoe::{qoe_lin_of_log, QoeLin};
pub use throughput::ThroughputRule;

/// Errors from ABR construction.
#[derive(Debug, Clone, PartialEq)]
pub enum AbrError {
    /// Invalid configuration parameter.
    InvalidConfig(String),
}

impl std::fmt::Display for AbrError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AbrError::InvalidConfig(m) => write!(f, "invalid config: {m}"),
        }
    }
}

impl std::error::Error for AbrError {}

/// Result alias for this crate.
pub type Result<T> = std::result::Result<T, AbrError>;
