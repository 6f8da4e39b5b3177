//! Statistical substrate for the LingXi reproduction.
//!
//! The paper's analyses (§2) and evaluation (§5) are built on a small set of
//! statistical primitives: normal models of past bandwidth, empirical CDFs of
//! user behaviour, Pearson correlations between the tuned parameter and
//! stall-exit rates, least-squares trend lines, Welch t-tests and a
//! difference-in-differences estimator for the A/B test, and classification
//! metrics (accuracy / precision / recall / F1) for the exit-rate predictor.
//! All of those live here so every other crate shares one implementation.
//!
//! Everything is deterministic given an `rng`; no global state.
//!
//! ```
//! use lingxi_stats::did_estimate;
//!
//! // Pre-phase differences hover near zero; post-phase near +5:
//! // the difference-in-differences estimate recovers the step.
//! let did = did_estimate(&[0.1, -0.2, 0.0], &[5.0, 4.8, 5.2]).unwrap();
//! assert!((did.effect - 5.0).abs() < 0.3);
//! assert!(did.p_two_sided < 0.05);
//! ```

#![forbid(unsafe_code)]

pub mod confusion;
pub mod corr;
pub mod describe;
pub mod dist;
pub mod ecdf;
pub mod hypothesis;
pub mod regress;
pub mod sampling;
pub mod streaming;

pub use confusion::{BinaryConfusion, ClassMetrics};
pub use corr::pearson;
pub use describe::{mean, median, percentile, std_dev, variance, Summary};
pub use dist::{norm_cdf, norm_pdf, NormalDist};
pub use ecdf::Ecdf;
pub use hypothesis::{did_estimate, welch_t_test, DidResult, TTestResult};
pub use regress::{linear_fit, LinearFit};
pub use sampling::{balanced_undersample, stratified_split};
pub use streaming::{QuantileSketch, StreamingMoments};

/// Errors produced by statistical routines.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StatsError {
    /// The input slice was empty where at least one element is required.
    Empty,
    /// The two inputs must have the same, non-zero length.
    LengthMismatch,
    /// Not enough samples to estimate the requested quantity.
    InsufficientData,
    /// A parameter was outside its valid domain (e.g. `p` not in `(0,1)`).
    InvalidParameter,
}

impl std::fmt::Display for StatsError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StatsError::Empty => write!(f, "empty input"),
            StatsError::LengthMismatch => write!(f, "input length mismatch"),
            StatsError::InsufficientData => write!(f, "insufficient data"),
            StatsError::InvalidParameter => write!(f, "parameter out of domain"),
        }
    }
}

impl std::error::Error for StatsError {}

/// Convenience alias used across the crate.
pub type Result<T> = std::result::Result<T, StatsError>;
