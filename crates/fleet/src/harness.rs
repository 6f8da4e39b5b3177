//! The one fleet-cell harness. A [`Cell`] is an engine configuration
//! and a scenario; [`Cell::contract`] checks the determinism contract on
//! it, comparing runs with [`FleetReport::first_divergence`] at every
//! [`SHARD_COUNTS`] entry; every run gets a [`ScratchDir`] of its own.
//! `tests/contract.rs` calls it once per engine regime, and every
//! systems scenario of `lingxi-exp` runs its cells through [`Cell::run`].
//!
//! ```
//! use lingxi_fleet::harness::Cell;
//! use lingxi_fleet::{FleetConfig, FleetScenario};
//!
//! let cell = Cell {
//!     config: FleetConfig { epochs: 2, ..FleetConfig::default() },
//!     scenario: FleetScenario { n_users: 8, n_videos: 4, ..FleetScenario::default() },
//! };
//! // Straight at 1/4/8 shards, and killed after epoch 1 + resumed at each.
//! let runs = cell.contract().unwrap();
//! assert_eq!(runs.len(), 3);
//! ```

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};

use crate::config::{FleetConfig, FleetScenario};
use crate::engine::{FleetEngine, RunControl, RunOutcome};
use crate::report::FleetReport;
use crate::{FleetError, Result};

/// The shard counts every invariance check runs.
pub const SHARD_COUNTS: [usize; 3] = [1, 4, 8];

/// An empty state directory of one run's own, removed on drop — on every
/// exit path, panics included. Unique per (process, claim), so parallel
/// tests running the same cell never share one.
#[derive(Debug)]
pub struct ScratchDir(PathBuf);

impl ScratchDir {
    /// Claim a fresh directory under the system temp dir. It does not
    /// exist yet; the state log creates it.
    pub fn claim() -> Self {
        // Relaxed: the counter only hands out distinct numbers.
        static NEXT: AtomicUsize = AtomicUsize::new(0);
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        let path = std::env::temp_dir().join(format!("lingxi_cell_{}_{n}", std::process::id()));
        let _ = std::fs::remove_dir_all(&path);
        Self(path)
    }

    /// The directory's path.
    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// One fleet cell: an engine configuration and the scenario it runs.
/// `config.shards` and `config.state_dir` are placeholders — every run
/// names its shard count and gets a state directory.
#[derive(Debug, Clone)]
pub struct Cell {
    /// The engine configuration.
    pub config: FleetConfig,
    /// The scenario the engine runs.
    pub scenario: FleetScenario,
}

impl Cell {
    /// One engine invocation at `shards` over `state_dir`.
    pub fn run_in(
        &self,
        state_dir: &Path,
        shards: usize,
        control: RunControl,
    ) -> Result<RunOutcome> {
        let config = FleetConfig {
            shards,
            state_dir: state_dir.to_path_buf(),
            ..self.config.clone()
        };
        FleetEngine::new(config)?.run_resumable(&self.scenario, control)
    }

    /// Run to completion at `shards` in a scratch state directory.
    pub fn run(&self, shards: usize) -> Result<FleetReport> {
        let dir = ScratchDir::claim();
        self.complete_in(dir.path(), shards)
    }

    /// Run to completion at `shards` over `state_dir`, for a caller that
    /// inspects or reuses the directory afterwards.
    pub fn complete_in(&self, state_dir: &Path, shards: usize) -> Result<FleetReport> {
        self.complete(self.run_in(state_dir, shards, RunControl::default())?)
    }

    fn complete(&self, outcome: RunOutcome) -> Result<FleetReport> {
        match outcome {
            RunOutcome::Complete(report) => Ok(*report),
            RunOutcome::Suspended(at) => Err(FleetError::Divergence(format!(
                "{}: suspended at epoch {} where a complete run was expected",
                self.scenario.name, at.next_epoch
            ))),
        }
    }

    /// The whole determinism contract: the straight runs at every
    /// [`SHARD_COUNTS`] entry are bit-identical to each other, and at
    /// every shard count and every inner barrier `k` (`1..epochs`) a run
    /// killed at barrier `k` and resumed by a fresh engine is
    /// bit-identical to the straight run. A one-epoch cell has no inner
    /// barrier and is refused: its kill would test nothing. Returns the
    /// straight runs, labelled by shard count.
    pub fn contract(&self) -> Result<Vec<(String, FleetReport)>> {
        if self.config.epochs < 2 {
            return Err(FleetError::InvalidConfig(format!(
                "{}: a {}-epoch cell has no inner barrier to kill at",
                self.scenario.name, self.config.epochs
            )));
        }
        let runs = SHARD_COUNTS
            .iter()
            .map(|&shards| Ok((format!("{shards} shards"), self.run(shards)?)))
            .collect::<Result<Vec<_>>>()?;
        identical(&self.scenario.name, &runs)?;
        let name = &self.scenario.name;
        for (shards, (label, straight)) in SHARD_COUNTS.into_iter().zip(&runs) {
            for kill_after in 1..self.config.epochs {
                let dir = ScratchDir::claim();
                let kill = RunControl {
                    resume: false,
                    stop_after_epochs: Some(kill_after),
                };
                let outcome = self.run_in(dir.path(), shards, kill)?;
                if !matches!(outcome, RunOutcome::Suspended(at) if at.next_epoch == kill_after) {
                    return Err(FleetError::Divergence(format!(
                        "{name} at {label}: did not suspend at the barrier after epoch {kill_after}"
                    )));
                }
                let resume = RunControl {
                    resume: true,
                    stop_after_epochs: None,
                };
                let resumed = self.complete(self.run_in(dir.path(), shards, resume)?)?;
                if let Some(at) = straight.first_divergence(&resumed) {
                    return Err(FleetError::Divergence(format!(
                        "{name}: killed after epoch {kill_after} at {label}, the resumed run \
                         diverged from the straight run at {at}"
                    )));
                }
            }
        }
        Ok(runs)
    }
}

/// Errors unless every labelled run is bit-identical to the first,
/// naming the offending label and the first divergent epoch and field.
fn identical(what: &str, runs: &[(String, FleetReport)]) -> Result<()> {
    let Some(((base_label, base), rest)) = runs.split_first() else {
        return Ok(());
    };
    for (label, run) in rest {
        if let Some(at) = base.first_divergence(run) {
            return Err(FleetError::Divergence(format!(
                "{what}: invariance violated, {label} diverged from {base_label} at {at}"
            )));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Cell {
        Cell {
            config: FleetConfig {
                epochs: 2,
                ..FleetConfig::default()
            },
            scenario: FleetScenario {
                name: "tiny".into(),
                n_users: 8,
                n_videos: 4,
                ..FleetScenario::default()
            },
        }
    }

    #[test]
    fn identical_reports_the_offending_label() {
        let base = tiny().run(1).unwrap();
        let mut odd = base.clone();
        odd.epochs[0].all.switches += 1;
        let runs = [
            ("1 shards".to_string(), base.clone()),
            ("4 shards".to_string(), base),
            ("8 shards".to_string(), odd),
        ];
        assert!(identical("tiny", &runs[..2]).is_ok());
        let err = identical("tiny", &runs).unwrap_err();
        assert!(matches!(err, FleetError::Divergence(_)), "{err:?}");
        assert!(
            err.to_string()
                .contains("8 shards diverged from 1 shards at epoch 0: all"),
            "{err}"
        );
    }

    /// A one-epoch cell has no barrier to kill at and resume from: the
    /// contract refuses it instead of passing vacuously.
    #[test]
    fn contract_refuses_a_cell_without_an_inner_barrier() {
        let mut cell = tiny();
        cell.config.epochs = 1;
        let err = cell.contract().unwrap_err();
        assert!(matches!(err, FleetError::InvalidConfig(_)), "{err:?}");
        assert!(err.to_string().contains("no inner barrier"), "{err}");
    }

    #[test]
    fn scratch_dirs_are_distinct_and_removed_on_drop() {
        let (a, b) = (ScratchDir::claim(), ScratchDir::claim());
        assert_ne!(a.path(), b.path());
        std::fs::create_dir_all(a.path().join("nested")).unwrap();
        let path = a.path().to_path_buf();
        drop(a);
        assert!(!path.exists());
    }
}
