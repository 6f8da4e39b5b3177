//! Playback-engine substrate: the paper's player model (Eq. 3) as a
//! discrete-event, per-segment simulator.
//!
//! The same buffer recursion drives both the "online" player (sessions over
//! bandwidth traces) and LingXi's Monte-Carlo *virtual* player (rollouts
//! over sampled bandwidth), exactly as in the paper where §3.2 states the
//! virtual environment "references previous classic works \[34\] and
//! production environment settings".
//!
//! Buffer recursion (paper Eq. 3), all in seconds of playback:
//!
//! ```text
//! T_k      = [ d_k(Q_k)/C_k − B_k ]_+                (stall time)
//! B'       = [ B_k − d_k(Q_k)/C_k ]_+ + L            (post-download buffer)
//! δt_k     = max(B' − B_max, 0) + RTT                (waiting time)
//! B_{k+1}  = [ B' − δt_k ]_+   clamped to [0, B_max]
//! ```
//!
//! `B_max` itself adapts to the bandwidth model (`B_max = f(N(μ, σ²))`).
//! A step reads it only when `B'` exceeds the policy's lowest possible cap
//! ([`BmaxPolicy::floor`]), so only then is the window fitted
//! ([`bmax_for_step`]).
//!
//! ```
//! use lingxi_player::{PlayerConfig, PlayerEnv};
//! use rand::{rngs::StdRng, SeedableRng};
//!
//! // One segment through the Eq. 3 buffer recursion: 1600 kbit at
//! // 3200 kbps downloads in 0.5 s, leaving buffer for the 2 s of content.
//! let mut env = PlayerEnv::new(PlayerConfig::deterministic(10.0, 0.0)).unwrap();
//! let mut rng = StdRng::seed_from_u64(1);
//! let outcome = env.step(1600.0, 1, 3200.0, 2.0, &mut rng).unwrap();
//! assert_eq!(outcome.stall_time, 0.0);
//! assert!(env.buffer() > 0.0);
//! ```

#![forbid(unsafe_code)]

pub mod config;
pub mod env;
pub mod log;
pub mod session;

pub use config::{BmaxPolicy, PlayerConfig};
pub use env::{
    bmax_for_step, buffer_step_timed, slide_window, validate_draw, validate_size, validate_step,
    PlayerEnv, SegmentOutcome,
};
pub use log::{switch_granularity, SegmentRecord, SessionEnd, SessionLog, SessionSummary};
pub use session::{
    content_watch_time, run_session, ExitDecision, SegmentRequest, SessionSetup, SessionStream,
};

/// Errors from player construction or stepping.
#[derive(Debug, Clone, PartialEq)]
pub enum PlayerError {
    /// Invalid configuration parameter.
    InvalidConfig(String),
    /// A step was attempted with invalid inputs (e.g. non-positive
    /// bandwidth).
    InvalidStep(String),
}

impl std::fmt::Display for PlayerError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PlayerError::InvalidConfig(m) => write!(f, "invalid config: {m}"),
            PlayerError::InvalidStep(m) => write!(f, "invalid step: {m}"),
        }
    }
}

impl std::error::Error for PlayerError {}

/// Result alias for this crate.
pub type Result<T> = std::result::Result<T, PlayerError>;
