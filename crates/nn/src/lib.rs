//! A minimal, dependency-free neural-network library.
//!
//! The exit-rate predictor of the paper (Fig. 7) is a small network —
//! per-dimension 1-D convolutions (kernel 1×4, 64 channels) over a 5×8 state
//! matrix, a merge, a 64-unit fully-connected layer and a 2-unit softmax
//! head trained with cross-entropy. The Pensieve baseline (§5.2) uses the
//! same building blocks for its policy network. The Rust ML ecosystem is
//! thin, so this crate reimplements exactly the forward/backward math those
//! two models need: dense and 1-D convolution layers, ReLU, softmax +
//! cross-entropy, and Adam. Each model runs its own training loop
//! (`lingxi-exit`'s predictor, `lingxi-abr`'s Pensieve trainer).
//!
//! Design notes:
//! - Activations flow through [`Matrix`] values shaped `(batch, features)`;
//!   convolution layers interpret the feature axis as `channels × length`.
//! - Layers are a closed [`Layer`] enum rather than trait objects, so a
//!   model is a plain `Clone` value and a layer call is a `match`.
//! - Models live in-process: each is trained (or freshly initialized) by
//!   the run that uses it, and nothing persists them. The only state the
//!   deployment persists is per-user long-term state (`lingxi-core`).
//! - All randomness is injected; training is reproducible given a seed.
//!
//! ```
//! use lingxi_nn::Matrix;
//!
//! // (batch, features) activations flow through plain matrices.
//! let x = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]).unwrap();
//! let y = x.matmul(&x.transpose()).unwrap();
//! assert_eq!(y.get(0, 0), 5.0); // 1·1 + 2·2
//! assert_eq!(y.get(1, 1), 25.0); // 3·3 + 4·4
//! ```

#![forbid(unsafe_code)]

pub mod init;
pub mod layer;
pub mod loss;
pub mod matrix;
pub mod optim;
pub mod seq;

pub use layer::{Conv1d, Dense, Layer, Relu};
pub use loss::{cross_entropy_loss, softmax, softmax_cross_entropy};
pub use matrix::Matrix;
pub use optim::Adam;
pub use seq::Sequential;

/// Errors from network construction or shape checking.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NnError {
    /// Matrix dimensions incompatible with the requested operation.
    ShapeMismatch {
        /// What was expected, human-readable.
        expected: String,
        /// What was received.
        got: String,
    },
    /// A hyper-parameter was out of range.
    InvalidConfig(String),
}

impl std::fmt::Display for NnError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NnError::ShapeMismatch { expected, got } => {
                write!(f, "shape mismatch: expected {expected}, got {got}")
            }
            NnError::InvalidConfig(msg) => write!(f, "invalid config: {msg}"),
        }
    }
}

impl std::error::Error for NnError {}

/// Result alias for this crate.
pub type Result<T> = std::result::Result<T, NnError>;
