//! Experiment harness: one module per figure/table of the paper's
//! evaluation, each regenerating the corresponding series.
//!
//! Every figure of the [`FIGURES`] table — and every systems scenario of
//! the [`SYSTEMS`] table — exposes `run(seed, scale) -> ExperimentResult`;
//! `scale` shrinks population/session counts so the same code drives
//! unit tests (scale ≈ 0.05) and the full CLI runs (scale = 1.0). The
//! `experiments` binary prints the series and writes CSVs under
//! `results/`.
//!
//! Absolute values are simulator-scale, not production-scale; what must
//! match the paper is the *shape* of each series (see README.md,
//! "Regenerating the paper's figures").
//!
//! ```
//! use lingxi_exp::{ExperimentResult, Series};
//!
//! // Every experiment returns this renderable/CSV-dumpable container.
//! let mut r = ExperimentResult::new("fig00", "doc example");
//! r.headline_value("effect", 0.146);
//! r.push_series(Series::from_xy("curve", &[(0.0, 1.0), (1.0, 0.5)]));
//! assert!(r.render().contains("fig00"));
//! assert_eq!(r.series_named("curve").unwrap().ys(), vec![1.0, 0.5]);
//! ```

#![forbid(unsafe_code)]

pub mod datasets;
pub mod dispatch;
pub mod fairness;
pub mod fig01_qos_saturation;
pub mod fig02_opportunities;
pub mod fig03_watchtime;
pub mod fig04_exit_vs_qos;
pub mod fig05_personalization;
pub mod fig08_trigger;
pub mod fig09_predictor;
pub mod fig10_simulation;
pub mod fig11_heatmap;
pub mod fig12_abtest;
pub mod fig13_longtail;
pub mod fig14_correlation;
pub mod fig15_trajectories;
pub mod flashcrowd;
pub mod fleet;
pub mod population;
pub mod report;
pub mod world;

pub use report::{ExperimentResult, Series};
pub use world::{World, WorldConfig};

/// Errors from experiment execution.
#[derive(Debug)]
pub enum ExpError {
    /// A subsystem failed.
    Subsystem(String),
    /// I/O failure writing results.
    Io(std::io::Error),
}

impl std::fmt::Display for ExpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExpError::Subsystem(m) => write!(f, "subsystem failure: {m}"),
            ExpError::Io(e) => write!(f, "io: {e}"),
        }
    }
}

impl std::error::Error for ExpError {}

impl From<std::io::Error> for ExpError {
    fn from(e: std::io::Error) -> Self {
        ExpError::Io(e)
    }
}

impl From<lingxi_fleet::FleetError> for ExpError {
    fn from(e: lingxi_fleet::FleetError) -> Self {
        sub(e)
    }
}

/// The `scale` range every run honours: the `experiments` CLI refuses a
/// `--scale` outside it, and [`WorldConfig::scaled`] clamps into it.
pub const SCALE_RANGE: std::ops::RangeInclusive<f64> = 0.01..=10.0;

/// Result alias for this crate.
pub type Result<T> = std::result::Result<T, ExpError>;

/// Map any displayable error into [`ExpError::Subsystem`].
pub fn sub<E: std::fmt::Display>(e: E) -> ExpError {
    ExpError::Subsystem(e.to_string())
}

/// Which paper figures exist, in paper order: the one table `all`, the
/// CLI usage text and [`run_experiment`] read. Each entry is the figure
/// at `(seed, scale)`. The systems scenarios are the [`SYSTEMS`] table.
#[allow(clippy::type_complexity)] // an (id, run) pair; a named type would say no more
pub const FIGURES: [(&str, fn(u64, f64) -> Result<ExperimentResult>); 13] = [
    ("fig01", fig01_qos_saturation::run),
    ("fig02", fig02_opportunities::run),
    ("fig03", fig03_watchtime::run),
    ("fig04", fig04_exit_vs_qos::run),
    ("fig05", fig05_personalization::run),
    ("fig08", fig08_trigger::run),
    ("fig09", fig09_predictor::run),
    ("fig10", fig10_simulation::run),
    ("fig11", fig11_heatmap::run),
    ("fig12", fig12_abtest::run),
    ("fig13", fig13_longtail::run),
    ("fig14", fig14_correlation::run),
    ("fig15", fig15_trajectories::run),
];

/// One systems scenario: a fleet experiment that gates itself (the run
/// errors unless its QoE predicates hold), not a paper figure. Like a
/// figure, its output is a pure function of `(seed, scale)`.
pub struct SystemsScenario {
    /// Experiment id, as `run_experiment` and the CLI take it.
    pub id: &'static str,
    /// The scenario at `(seed, scale)`.
    pub run: fn(u64, f64) -> Result<ExperimentResult>,
    /// The scale `experiments smoke` (and with it CI and the module's own
    /// test) runs the scenario at: small enough for seconds, large
    /// enough that every gate binds.
    pub smoke_scale: f64,
}

/// Which systems scenarios exist: the one table [`run_experiment`], the
/// CLI usage text, `experiments smoke` and the module tests read.
pub const SYSTEMS: [SystemsScenario; 5] = [
    SystemsScenario {
        id: "fleet",
        run: fleet::run,
        smoke_scale: 0.01,
    },
    SystemsScenario {
        id: "flashcrowd",
        run: flashcrowd::run,
        smoke_scale: 0.01,
    },
    SystemsScenario {
        id: "population",
        run: population::run,
        smoke_scale: 0.01,
    },
    SystemsScenario {
        id: "fairness",
        run: fairness::run,
        smoke_scale: 0.01,
    },
    SystemsScenario {
        id: "dispatch",
        run: dispatch::run,
        smoke_scale: 0.02,
    },
];

/// Run one experiment by id: a [`FIGURES`] figure or a [`SYSTEMS`] scenario.
pub fn run_experiment(id: &str, seed: u64, scale: f64) -> Result<ExperimentResult> {
    let figure = FIGURES
        .iter()
        .find(|(fig, _)| *fig == id)
        .map(|(_, run)| *run);
    let scenario = SYSTEMS.iter().find(|s| s.id == id).map(|s| s.run);
    match figure.or(scenario) {
        Some(run) => run(seed, scale),
        None => Err(ExpError::Subsystem(format!("unknown experiment {id}"))),
    }
}

/// The named systems scenario at its smoke scale, run twice: the two
/// results must carry the same [`ExperimentResult::fingerprint`], so every
/// scenario test also checks that the output is a pure function of
/// `(seed, scale)`.
#[cfg(test)]
pub(crate) fn smoke(id: &str, seed: u64) -> ExperimentResult {
    let scenario = SYSTEMS.iter().find(|s| s.id == id).expect("a SYSTEMS id");
    let run = || (scenario.run)(seed, scenario.smoke_scale).expect("the scenario's gates hold");
    let (first, second) = (run(), run());
    assert_eq!(
        first.fingerprint(),
        second.fingerprint(),
        "{id}: two runs at seed {seed} differ"
    );
    first
}
