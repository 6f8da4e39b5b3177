//! Network substrate: bandwidth traces, synthetic trace generators, a
//! production-like bandwidth population, throughput estimators and an RTT
//! model.
//!
//! The paper's client observes per-segment download throughput, models past
//! bandwidth as `N(mu, sigma^2)` (Eq. 3), and draws future bandwidth from
//! that model during Monte-Carlo rollouts. Production traces are
//! proprietary, so [`mixture::ProductionMixture`] generates a synthetic
//! population matching the published bandwidth CDF (Fig. 2a: only ~10% of
//! users average below the top bitrate; the distribution stretches to
//! ~50 Mbps).
//!
//! ```
//! use lingxi_net::BandwidthTrace;
//!
//! // 5 Mbps flat for 60 s: downloading 5000 kbit takes exactly 1 s.
//! let trace = BandwidthTrace::constant(5000.0, 60, 1.0).unwrap();
//! assert_eq!(trace.at(10.0), 5000.0);
//! assert!((trace.download_time(0.0, 5000.0) - 1.0).abs() < 1e-9);
//! ```

#![forbid(unsafe_code)]

pub mod estimator;
pub mod events;
pub mod fairness;
pub mod gen;
pub mod mixture;
pub mod process;
pub mod rtt;
pub mod topology;
pub mod trace;

pub use estimator::{BandwidthEstimator, EwmaEstimator, HarmonicMeanEstimator};
pub use events::{BinaryHeapQueue, EventQueue, TimerWheel};
pub use fairness::{
    allocate, Allocation, FairnessObjective, FlowDemand, SolverStats, MAX_SWEEPS, SOLVER_TOL,
};
pub use gen::{LogNormalFadeGen, MarkovGen, StationaryGaussGen, TraceGenerator};
pub use mixture::{NetClass, ProductionMixture, UserNetProfile};
pub use process::{BandwidthProcess, Download, FlowEnd, SharedBottleneck};
pub use rtt::RttModel;
pub use topology::{TopoLink, Topology};
pub use trace::{BandwidthTrace, LazyTrace};

/// Errors from network-model construction.
#[derive(Debug, Clone, PartialEq)]
pub enum NetError {
    /// A parameter was out of its valid domain.
    InvalidConfig(String),
    /// The trace or sample set was empty.
    Empty,
}

impl std::fmt::Display for NetError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NetError::InvalidConfig(m) => write!(f, "invalid config: {m}"),
            NetError::Empty => write!(f, "empty input"),
        }
    }
}

impl std::error::Error for NetError {}

/// Result alias for this crate.
pub type Result<T> = std::result::Result<T, NetError>;
