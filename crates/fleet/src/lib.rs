//! Sharded, multi-threaded fleet-simulation engine (ROADMAP north star;
//! the "large-scale practice" of the paper's title).
//!
//! The paper deploys LingXi across a production fleet serving millions of
//! users; this crate reproduces that *shape* in simulation: each epoch's
//! users form one deterministic work list of units (link groups, or
//! chunks of users), N `std::thread` workers pull units off it, every
//! user has its own deterministic RNG streams, long-term user state lives
//! in a sharded in-memory cache with write-behind batch persistence into
//! the durable [`lingxi_core::BinaryStateLog`], and per-worker metric
//! accumulators are merged at epoch barriers in user-id order — so the
//! merged metrics are bit-identical for *any* shard count under the same
//! seed. Every epoch runs the same six stages — populate → dispatch →
//! plan units → run workers → merge → flush/checkpoint (see [`engine`]);
//! the optional modes
//! of [`FleetConfig`] choose what a stage does, never which stages run.
//! [`harness`] runs a cell under the determinism contract — 1/4/8
//! shards, killed and resumed at every inner barrier. See
//! ARCHITECTURE.md for the data-flow diagram.
//!
//! ```
//! use lingxi_fleet::{FleetConfig, FleetEngine, FleetScenario};
//!
//! let dir = std::env::temp_dir().join(format!("lingxi_fleet_doc_{}", std::process::id()));
//! let config = FleetConfig { shards: 2, epochs: 1, state_dir: dir.clone(), ..FleetConfig::default() };
//! let scenario = FleetScenario { n_users: 16, n_videos: 8, ..FleetScenario::default() };
//! let report = FleetEngine::new(config).unwrap().run(&scenario).unwrap();
//! assert!(report.sessions >= 16); // every user plays at least one session
//! assert_eq!(report.epochs.len(), 1);
//! std::fs::remove_dir_all(&dir).ok();
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod checkpoint;
pub mod config;
pub(crate) mod contention;
pub mod dispatch;
pub mod engine;
pub mod harness;
pub mod report;

pub use checkpoint::{FleetCheckpoint, CHECKPOINT_FILE, CHECKPOINT_SCHEMA};
pub use config::{
    AbSplit, AbrMix, AbrPolicy, ContentionConfig, FairnessConfig, FleetConfig, FleetScenario,
    PersistenceConfig, PopulationDynamics,
};
pub use dispatch::{
    static_link_of, DispatchConfig, DispatchEpoch, DispatchPolicy, Dispatcher, Lsq, StaticHash,
    DISPATCH_STREAMS,
};
pub use engine::{FleetEngine, RunControl, RunOutcome};
pub use report::{EpochMetrics, EpochSketches, FleetReport};

/// Errors from fleet orchestration.
#[derive(Debug, Clone, PartialEq)]
pub enum FleetError {
    /// Invalid configuration or scenario.
    InvalidConfig(String),
    /// A subsystem (core, player, abtest, ...) failed.
    Subsystem(String),
    /// A shard worker panicked.
    WorkerPanic(String),
    /// Two runs the determinism contract says are bit-identical were not
    /// (see [`harness::Cell::contract`]).
    Divergence(String),
}

impl std::fmt::Display for FleetError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FleetError::InvalidConfig(m) => write!(f, "invalid config: {m}"),
            FleetError::Subsystem(m) => write!(f, "subsystem failure: {m}"),
            FleetError::WorkerPanic(m) => write!(f, "worker panic: {m}"),
            FleetError::Divergence(m) => write!(f, "determinism contract broken: {m}"),
        }
    }
}

impl std::error::Error for FleetError {}

/// Result alias for this crate.
pub type Result<T> = std::result::Result<T, FleetError>;

/// Map any displayable error into [`FleetError::Subsystem`].
pub(crate) fn sub<E: std::fmt::Display>(e: E) -> FleetError {
    FleetError::Subsystem(e.to_string())
}

/// SplitMix64 finalizer: the mixing step behind every derived RNG stream
/// and the shard/policy hash assignments.
pub(crate) fn mix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}
