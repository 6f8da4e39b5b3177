//! Online Bayesian optimization (paper §3.1).
//!
//! LingXi treats per-user QoE-parameter tuning as online black-box
//! minimization of the predicted exit rate: a Gaussian-process surrogate is
//! fit over past `(parameters, exit rate)` trials, expected improvement
//! proposes the next candidate, and the loop warm-starts from the
//! previously optimal parameters whenever the QoE-adjustment trigger fires
//! ("leverages previously optimized configurations as initialization points
//! for subsequent iterations").
//!
//! Everything works on the unit cube; callers map physical parameters
//! through `QoeParams::to_unit`/`from_unit`.
//!
//! ```
//! use lingxi_bayes::{ObOptimizer, ObserverConfig};
//! use rand::{rngs::StdRng, SeedableRng};
//!
//! // Warm-start from the previous optimum (§3.1), then propose on [0,1].
//! let mut opt = ObOptimizer::new(ObserverConfig::for_dim(1)).unwrap();
//! opt.init_with(&[0.5]).unwrap();
//! let mut rng = StdRng::seed_from_u64(1);
//! let x = opt.next_candidate(&mut rng);
//! assert_eq!(x.len(), 1);
//! assert!((0.0..=1.0).contains(&x[0]));
//! opt.update(x, 0.12).unwrap();
//! ```

#![forbid(unsafe_code)]

pub mod acquisition;
pub mod gp;
pub mod kernel;
pub mod linalg;
pub mod optimizer;

pub use acquisition::expected_improvement;
pub use gp::{GpConfig, GpModel};
pub use kernel::Kernel;
pub use linalg::Cholesky;
pub use optimizer::{ObOptimizer, ObserverConfig};

/// Errors from surrogate fitting or optimization.
#[derive(Debug, Clone, PartialEq)]
pub enum BayesError {
    /// Invalid configuration or input.
    InvalidConfig(String),
    /// The kernel matrix was not positive definite even with jitter.
    NotPositiveDefinite,
    /// Operation requires observations that are not there yet.
    NoObservations,
}

impl std::fmt::Display for BayesError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BayesError::InvalidConfig(m) => write!(f, "invalid config: {m}"),
            BayesError::NotPositiveDefinite => write!(f, "kernel matrix not PD"),
            BayesError::NoObservations => write!(f, "no observations"),
        }
    }
}

impl std::error::Error for BayesError {}

/// Result alias for this crate.
pub type Result<T> = std::result::Result<T, BayesError>;
