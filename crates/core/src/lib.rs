//! LingXi — the paper's primary contribution: user-level personalized QoE
//! optimization layered over any ABR algorithm.
//!
//! The control loop (paper Fig. 6):
//!
//! 1. the live player streams segments; LingXi tracks user state (stall
//!    history, engagement, bitrate/throughput windows);
//! 2. when accumulated stalls cross the trigger threshold η (§4 chooses
//!    η = 2), the **online Bayesian optimizer** (§3.1, [`lingxi_bayes`])
//!    proposes candidate QoE parameters;
//! 3. each candidate is evaluated by **Monte-Carlo virtual playback**
//!    (§3.2, [`montecarlo`]): rollouts from the current player state under
//!    bandwidth `~ N(μ_Cpast, σ²_Cpast)`, with the **exit-rate predictor**
//!    (§3.3, [`lingxi_exit`]) deciding random exits;
//! 4. the parameters with the lowest simulated exit rate are deployed to
//!    the underlying ABR (`ABR.update(x*)`).
//!
//! Deployment machinery (§4) is here too: dual-layer state management
//! persisted through the sharded append-only [`BinaryStateLog`] (HDF5
//! substitution documented in DESIGN.md), the trigger, and both pruning
//! stages (virtual-playback early termination and the pre-playback
//! `μ − 3σ > Q_max` skip). For fleet-scale workloads the [`cache`] module
//! layers a sharded, write-behind [`ShardedStateCache`] over that durable
//! [`StateBackend`] (see ARCHITECTURE.md, "Persistence layer").
//!
//! ```
//! use lingxi_core::{LingXiConfig, LingXiController};
//!
//! // The §5.3 deployment configuration: trigger after η = 2 stalls,
//! // searching HYB's β only.
//! let controller = LingXiController::new(LingXiConfig::for_hyb()).unwrap();
//! assert_eq!(controller.optimizations(), 0);
//! assert!(!controller.triggered());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod binlog;
pub mod cache;
pub mod controller;
pub mod montecarlo;
pub mod predictor;
pub mod session;
pub mod state;

pub use binlog::{BinLogConfig, BinaryStateLog, BINLOG_FORMAT_VERSION};
pub use cache::{CacheConfig, CacheStats, ShardedStateCache};
pub use controller::{LingXiConfig, LingXiController, OptimizeOutcome, ParamDim, SearchStrategy};
pub use montecarlo::{evaluate_parameters_in, McConfig, McEvaluation, McScratch};
pub use predictor::{ConstantPredictor, ProfilePredictor, RolloutContext, RolloutPredictor};
pub use session::{
    play, run_managed_session_in, LingXiHooks, ManagedHooks, ManagedSession, SessionBuffers,
};
pub use state::{LongTermState, StateBackend, StateScan};

/// Errors from the LingXi control loop.
#[derive(Debug, Clone, PartialEq)]
pub enum CoreError {
    /// Invalid configuration.
    InvalidConfig(String),
    /// An underlying subsystem failed.
    Subsystem(String),
    /// State persistence failed.
    Persistence(String),
}

impl std::fmt::Display for CoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CoreError::InvalidConfig(m) => write!(f, "invalid config: {m}"),
            CoreError::Subsystem(m) => write!(f, "subsystem failure: {m}"),
            CoreError::Persistence(m) => write!(f, "persistence failure: {m}"),
        }
    }
}

impl std::error::Error for CoreError {}

/// Result alias for this crate.
pub type Result<T> = std::result::Result<T, CoreError>;
