//! Experiment harness: one module per figure/table of the paper's
//! evaluation, each regenerating the corresponding series.
//!
//! Every module exposes `run(seed, scale) -> ExperimentResult`; `scale`
//! shrinks population/session counts so the same code drives unit tests
//! (scale ≈ 0.05), criterion benches (scale ≈ 0.1) and the full CLI runs
//! (scale = 1.0). The `experiments` binary prints the series and writes
//! CSVs under `results/`.
//!
//! Absolute values are simulator-scale, not production-scale; what must
//! match the paper is the *shape* of each series (see EXPERIMENTS.md).
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

pub mod checkpoint;
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

use std::path::{Path, PathBuf};

use lingxi_fleet::{FleetConfig, FleetEngine, FleetReport, FleetScenario, RunControl, RunOutcome};

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

/// Result alias for this crate.
pub type Result<T> = std::result::Result<T, ExpError>;

/// Map any displayable error into [`ExpError::Subsystem`].
pub fn sub<E: std::fmt::Display>(e: E) -> ExpError {
    ExpError::Subsystem(e.to_string())
}

/// The state directory of one fleet cell. A scratch one is removed when
/// the value drops — on every exit path, errors included.
pub(crate) struct CellDir {
    path: PathBuf,
    scratch: bool,
}

impl CellDir {
    /// Claim an empty scratch directory, unique per (process, `tag`).
    /// Tags carry their module name and, where one process may run the
    /// same cell under several seeds at once (parallel tests), the seed.
    pub(crate) fn scratch(tag: &str) -> Self {
        let path = std::env::temp_dir().join(format!("lingxi_exp_{}_{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&path);
        Self {
            path,
            scratch: true,
        }
    }

    /// A directory the caller owns: used as found, never removed.
    pub(crate) fn kept(path: PathBuf) -> Self {
        Self {
            path,
            scratch: false,
        }
    }

    pub(crate) fn path(&self) -> &Path {
        &self.path
    }

    /// One engine invocation of the `(config, scenario)` cell over this
    /// directory (`config.state_dir` is overwritten with it).
    pub(crate) fn run_resumable(
        &self,
        config: FleetConfig,
        scenario: &FleetScenario,
        control: RunControl,
    ) -> Result<RunOutcome> {
        let config = FleetConfig {
            state_dir: self.path.clone(),
            ..config
        };
        FleetEngine::new(config)
            .map_err(sub)?
            .run_resumable(scenario, control)
            .map_err(sub)
    }
}

impl Drop for CellDir {
    fn drop(&mut self) {
        if self.scratch {
            let _ = std::fs::remove_dir_all(&self.path);
        }
    }
}

/// Run one `(config, scenario)` fleet cell to completion in a scratch
/// state directory of its own.
pub(crate) fn run_fleet_cell(
    tag: &str,
    config: FleetConfig,
    scenario: &FleetScenario,
) -> Result<FleetReport> {
    match CellDir::scratch(tag).run_resumable(config, scenario, RunControl::default())? {
        RunOutcome::Complete(report) => Ok(*report),
        RunOutcome::Suspended(_) => Err(ExpError::Subsystem(format!(
            "{tag}: a run without a stop control suspended"
        ))),
    }
}

/// All paper-figure experiment ids in paper order. The `fleet` scale
/// experiment (see [`fleet`]), the `flashcrowd` contention scenario
/// (see [`flashcrowd`]), the `population` dynamics scenario (see
/// [`population`]), the `fairness` objective scenario (see
/// [`fairness`]), the `dispatch` load-aware placement scenario (see
/// [`dispatch`]) and the `checkpoint` kill/resume scenario (see
/// [`checkpoint`]) are run explicitly by id — they are systems
/// benchmarks, not figures, so `all` does not include them.
pub const ALL_EXPERIMENTS: [&str; 13] = [
    "fig01", "fig02", "fig03", "fig04", "fig05", "fig08", "fig09", "fig10", "fig11", "fig12",
    "fig13", "fig14", "fig15",
];

/// Run one experiment by id.
///
/// `population` runs with its default horizon of 2 simulated days here;
/// call [`population::run`] directly to choose the day count (the
/// `experiments` CLI threads its `--days` flag through that path).
pub fn run_experiment(id: &str, seed: u64, scale: f64) -> Result<ExperimentResult> {
    match id {
        "fig01" => fig01_qos_saturation::run(seed, scale),
        "fig02" => fig02_opportunities::run(seed, scale),
        "fig03" => fig03_watchtime::run(seed, scale),
        "fig04" => fig04_exit_vs_qos::run(seed, scale),
        "fig05" => fig05_personalization::run(seed, scale),
        "fig08" => fig08_trigger::run(seed, scale),
        "fig09" => fig09_predictor::run(seed, scale),
        "fig10" => fig10_simulation::run(seed, scale),
        "fig11" => fig11_heatmap::run(seed, scale),
        "fig12" => fig12_abtest::run(seed, scale),
        "fig13" => fig13_longtail::run(seed, scale),
        "fig14" => fig14_correlation::run(seed, scale),
        "fig15" => fig15_trajectories::run(seed, scale),
        "checkpoint" => checkpoint::run(seed, scale),
        "dispatch" => dispatch::run(seed, scale),
        "fairness" => fairness::run(seed, scale),
        "flashcrowd" => flashcrowd::run(seed, scale),
        "fleet" => fleet::run(seed, scale),
        "population" => population::run(seed, scale, 2),
        other => Err(ExpError::Subsystem(format!("unknown experiment {other}"))),
    }
}
