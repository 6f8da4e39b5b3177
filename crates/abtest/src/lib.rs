//! Difference-in-differences statistics and streaming day metrics for
//! AA/AB experiments.
//!
//! §5.3 of the paper runs a 10-day difference-in-differences test on 8% of
//! production traffic: days 1–5 are an AA phase (both groups run the
//! baseline, measuring cohort bias), the intervention lands on day 6, and
//! the effect is `mean(post differences) − mean(pre differences)` tested
//! across days. This crate holds what every consumer of that design
//! shares — the schedule ([`AbSchedule`]), the per-cohort-day metrics and
//! their streaming accumulator ([`DayMetrics`], [`DayAccum`]) and the DiD
//! report ([`did_report`]). It runs nothing itself: the fleet engine
//! (`lingxi-fleet`, `FleetConfig.ab`) splits a population into cohorts,
//! plays the epochs and feeds its per-epoch cohort metrics through here.
//!
//! ```
//! use lingxi_abtest::{did_report, AbSchedule, DayMetrics};
//!
//! // A +10% watch-time lift landing on the intervention day is recovered
//! // by the DiD estimate over per-day cohort metrics.
//! let day = |w: f64| DayMetrics { watch_time: w, sessions: 10, ..DayMetrics::default() };
//! let control: Vec<_> = (0..10).map(|d| day(100.0 + (d % 3) as f64)).collect();
//! let treatment: Vec<_> = (0..10)
//!     .map(|d| day(if d >= 5 { 110.0 } else { 100.0 } + (d % 3) as f64))
//!     .collect();
//! let report = did_report(AbSchedule::paper_default(), control, treatment).unwrap();
//! assert!(report.watch_time.did.effect > 5.0);
//! ```

#![forbid(unsafe_code)]

pub mod experiment;
pub mod metrics;

pub use experiment::{did_report, AbReport, AbSchedule, MetricSeries};
pub use metrics::{relative_diff_pct, DayAccum, DayMetrics};

/// Errors from schedule validation and the DiD report.
#[derive(Debug, Clone, PartialEq)]
pub enum AbError {
    /// Invalid configuration.
    InvalidConfig(String),
    /// A statistical routine failed (too few days, etc.).
    Stats(String),
}

impl std::fmt::Display for AbError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AbError::InvalidConfig(m) => write!(f, "invalid config: {m}"),
            AbError::Stats(m) => write!(f, "stats failure: {m}"),
        }
    }
}

impl std::error::Error for AbError {}

/// Result alias for this crate.
pub type Result<T> = std::result::Result<T, AbError>;
