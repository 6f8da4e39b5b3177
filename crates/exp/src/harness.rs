//! The one harness every systems scenario runs its fleet cells through:
//! what a cell is ([`Cell`]), where its state lives (a scratch directory
//! unique per run), which shard counts the invariance contract is checked
//! at ([`SHARD_COUNTS`]) and how two runs are compared
//! ([`lingxi_fleet::FleetReport::first_divergence`], through
//! [`identical`]). A scenario module is then its spec, its pass/fail
//! predicates and its report.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};

use lingxi_fleet::{FleetConfig, FleetEngine, FleetReport, FleetScenario, RunControl, RunOutcome};

use crate::{sub, ExpError, Result};

/// The shard counts every shard-invariance gate runs.
pub(crate) const SHARD_COUNTS: [usize; 3] = [1, 4, 8];

/// An empty state directory of this run's own, removed on drop — on
/// every exit path, errors included. Unique per (process, claim), so
/// parallel tests running the same cell never share one.
struct ScratchDir(PathBuf);

impl ScratchDir {
    fn claim() -> Self {
        // Relaxed: the counter only hands out distinct numbers.
        static NEXT: AtomicUsize = AtomicUsize::new(0);
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        let path = std::env::temp_dir().join(format!("lingxi_exp_{}_{n}", std::process::id()));
        let _ = std::fs::remove_dir_all(&path);
        Self(path)
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
pub(crate) struct Cell {
    pub(crate) config: FleetConfig,
    pub(crate) scenario: FleetScenario,
}

impl Cell {
    /// One engine invocation at `shards` over `state_dir`.
    pub(crate) fn run_in(
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
        FleetEngine::new(config)
            .map_err(sub)?
            .run_resumable(&self.scenario, control)
            .map_err(sub)
    }

    /// Run to completion at `shards` in a scratch state directory.
    pub(crate) fn run(&self, shards: usize) -> Result<FleetReport> {
        let dir = ScratchDir::claim();
        self.complete(self.run_in(&dir.0, shards, RunControl::default())?)
    }

    fn complete(&self, outcome: RunOutcome) -> Result<FleetReport> {
        match outcome {
            RunOutcome::Complete(report) => Ok(*report),
            RunOutcome::Suspended(at) => Err(ExpError::Subsystem(format!(
                "{}: suspended at epoch {} where a complete run was expected",
                self.scenario.name, at.next_epoch
            ))),
        }
    }

    /// One run per [`SHARD_COUNTS`] entry, labelled by shard count.
    pub(crate) fn shard_sweep(&self) -> Result<Vec<(String, FleetReport)>> {
        SHARD_COUNTS
            .iter()
            .map(|&shards| Ok((format!("{shards} shards"), self.run(shards)?)))
            .collect()
    }

    /// The shard-invariance gate: errors with the first divergence
    /// between any two shard counts, else returns the 4-shard report.
    pub(crate) fn shard_invariant(&self) -> Result<FleetReport> {
        let mut runs = self.shard_sweep()?;
        identical(&self.scenario.name, &runs)?;
        Ok(runs.swap_remove(1).1)
    }

    /// The kill/resume gate, at every shard count: a run killed at the
    /// barrier after `stop_after` epochs and resumed by a fresh engine
    /// must be bit-identical to a straight run — and the shard counts to
    /// each other. Returns the straight runs.
    pub(crate) fn kill_resume(&self, stop_after: usize) -> Result<Vec<(String, FleetReport)>> {
        let runs = self.shard_sweep()?;
        for (shards, (label, straight)) in SHARD_COUNTS.into_iter().zip(&runs) {
            let dir = ScratchDir::claim();
            let kill = RunControl {
                resume: false,
                stop_after_epochs: Some(stop_after),
            };
            match self.run_in(&dir.0, shards, kill)? {
                RunOutcome::Suspended(at) if at.next_epoch == stop_after => {}
                _ => {
                    return Err(ExpError::Subsystem(format!(
                        "{} at {label}: did not suspend at the barrier after epoch {stop_after}",
                        self.scenario.name
                    )))
                }
            }
            let resume = RunControl {
                resume: true,
                stop_after_epochs: None,
            };
            let resumed = self.complete(self.run_in(&dir.0, shards, resume)?)?;
            if let Some(at) = straight.first_divergence(&resumed) {
                return Err(ExpError::Subsystem(format!(
                    "{}: kill/resume at {label} diverged from the straight run at {at}",
                    self.scenario.name
                )));
            }
        }
        identical(&self.scenario.name, &runs)?;
        Ok(runs)
    }
}

/// Errors unless every labelled run is bit-identical to the first,
/// naming the offending label and the first divergent epoch and field.
pub(crate) fn identical(what: &str, runs: &[(String, FleetReport)]) -> Result<()> {
    let Some(((base_label, base), rest)) = runs.split_first() else {
        return Ok(());
    };
    for (label, run) in rest {
        if let Some(at) = base.first_divergence(run) {
            return Err(ExpError::Subsystem(format!(
                "{what}: invariance violated, {label} diverged from {base_label} at {at}"
            )));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identical_reports_the_offending_label() {
        let cell = Cell {
            config: FleetConfig {
                epochs: 1,
                ..FleetConfig::default()
            },
            scenario: FleetScenario {
                n_users: 8,
                n_videos: 4,
                ..FleetScenario::default()
            },
        };
        let base = cell.run(1).unwrap();
        let mut odd = base.clone();
        odd.epochs[0].all.switches += 1;
        let runs = [
            ("1 shards".to_string(), base.clone()),
            ("4 shards".to_string(), base),
            ("8 shards".to_string(), odd),
        ];
        assert!(identical("tiny", &runs[..2]).is_ok());
        let err = identical("tiny", &runs).unwrap_err().to_string();
        assert!(
            err.contains("8 shards diverged from 1 shards at epoch 0: all"),
            "{err}"
        );
    }
}
