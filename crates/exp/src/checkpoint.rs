//! `checkpoint` — the kill/resume equivalence scenario (not a paper
//! figure): a population-dynamics fleet run over the binary state log is
//! killed at an epoch barrier and resumed from its checkpoint manifest,
//! and the experiment *fails* unless the resumed run's merged metrics and
//! distribution sketches are bit-identical to an uninterrupted run — at
//! 1, 4 and 8 shards, which must also agree with each other.
//!
//! This is the CLI-visible face of the engine's checkpoint contract (see
//! `FleetEngine::run_resumable` and ARCHITECTURE.md): every (user, epoch)
//! derives its own RNG stream from the base seed, and the barrier flush
//! makes all long-term state durable, so epoch `k+1` is a pure function
//! of (config, scenario, durable state) and restarting from barrier `k`
//! cannot move a bit. CI runs this at small scale as the
//! checkpoint/resume smoke.

use lingxi_fleet::{
    AbrMix, ContentionConfig, FleetConfig, FleetReport, FleetScenario, PopulationDynamics,
    RunControl, RunOutcome,
};
use lingxi_net::ProductionMixture;
use lingxi_workload::{ArrivalKind, ClassRegistry, Poisson};

use crate::report::{ExperimentResult, Series};
use crate::{CellDir, ExpError, Result};

/// Epochs (simulated days) per run.
const EPOCHS: usize = 4;

/// The barrier the interrupted run is killed at (epochs completed before
/// the kill).
const STOP_AFTER: usize = 2;

/// Shard counts the contract is checked at.
const SHARD_COUNTS: [usize; 3] = [1, 4, 8];

fn scenario(scale: f64) -> FleetScenario {
    FleetScenario {
        name: "checkpoint".into(),
        // Dynamics mode: cohort size is driven by the arrival schedule;
        // this field only labels the run (validation needs >= 1).
        n_users: ((400.0 * scale) as usize).max(1),
        n_videos: 8,
        mean_sessions_per_epoch: 2.0,
        mixture: ProductionMixture::default(),
        abr_mix: AbrMix::default(),
    }
}

fn config(shards: usize, seed: u64, scale: f64) -> FleetConfig {
    FleetConfig {
        shards,
        epochs: EPOCHS,
        seed,
        contention: Some(ContentionConfig {
            links: ((8.0 * scale).round() as usize).max(3),
            capacity_kbps: 25_000.0,
            arrival_window: 10.0,
            access_cap_factor: 1.5,
        }),
        dynamics: Some(PopulationDynamics {
            arrivals: ArrivalKind::Poisson(Poisson {
                rate_per_sec: (0.2 * scale.clamp(0.001, 10.0)).max(0.02),
            }),
            registry: ClassRegistry::default_heterogeneous(),
            day_seconds: 600.0,
        }),
        ..FleetConfig::default()
    }
}

/// One straight run and one killed-then-resumed run at `shards`; errors
/// unless they agree bit-exactly. Returns the straight report.
fn run_pair(shards: usize, seed: u64, scale: f64) -> Result<FleetReport> {
    let scenario = scenario(scale);
    let straight = crate::run_fleet_cell(
        &format!("checkpoint_straight{shards}_s{seed}"),
        config(shards, seed, scale),
        &scenario,
    )?;

    // The "kill": run to the barrier after STOP_AFTER epochs, drop the
    // engine, and restart from the manifest with a fresh one.
    let resumed_dir = CellDir::scratch(&format!("checkpoint_resumed{shards}_s{seed}"));
    let outcome = resumed_dir.run_resumable(
        config(shards, seed, scale),
        &scenario,
        RunControl {
            resume: false,
            stop_after_epochs: Some(STOP_AFTER),
        },
    )?;
    let RunOutcome::Suspended(ckpt) = outcome else {
        return Err(ExpError::Subsystem(format!(
            "checkpoint: {shards}-shard run did not suspend at the barrier"
        )));
    };
    if ckpt.next_epoch != STOP_AFTER {
        return Err(ExpError::Subsystem(format!(
            "checkpoint: suspended at epoch {} not {STOP_AFTER}",
            ckpt.next_epoch
        )));
    }
    let resumed = match resumed_dir.run_resumable(
        config(shards, seed, scale),
        &scenario,
        RunControl {
            resume: true,
            stop_after_epochs: None,
        },
    )? {
        RunOutcome::Complete(report) => *report,
        RunOutcome::Suspended(_) => {
            return Err(ExpError::Subsystem(
                "checkpoint: resumed run suspended again".into(),
            ))
        }
    };

    if straight.merged_metrics() != resumed.merged_metrics()
        || straight.merged_sketches() != resumed.merged_sketches()
        || straight.sessions != resumed.sessions
        || straight.segments != resumed.segments
        || straight.users != resumed.users
    {
        return Err(ExpError::Subsystem(format!(
            "checkpoint: kill/resume diverged at {shards} shards: {}/{} sessions, {}/{} users",
            straight.sessions, resumed.sessions, straight.users, resumed.users
        )));
    }
    Ok(straight)
}

/// Run the checkpoint/resume equivalence scenario.
pub fn run(seed: u64, scale: f64) -> Result<ExperimentResult> {
    let mut result = ExperimentResult::new(
        "checkpoint",
        "Kill-at-barrier + resume over the binary state log: bit-identical at 1/4/8 shards",
    );
    let mut reports = Vec::new();
    let mut throughput = Vec::new();
    for shards in SHARD_COUNTS {
        let report = run_pair(shards, seed, scale)?;
        throughput.push((shards as f64, report.sessions_per_sec()));
        reports.push(report);
    }
    // The shard counts must also agree with each other — checkpointing
    // composes with the engine's standing shard-invariance contract.
    for report in &reports[1..] {
        if reports[0].merged_metrics() != report.merged_metrics()
            || reports[0].merged_sketches() != report.merged_sketches()
        {
            return Err(ExpError::Subsystem(format!(
                "checkpoint: shard invariance violated ({} vs {} shards)",
                reports[0].shards, report.shards
            )));
        }
    }
    result.headline_value("kill/resume bit-identical (1 = yes)", 1.0);
    result.headline_value("shard invariance (1 = identical)", 1.0);
    result.headline_value("epochs per run", EPOCHS as f64);
    result.headline_value("killed after epoch", STOP_AFTER as f64);
    result.headline_value("arrivals simulated", reports[0].users as f64);
    result.headline_value("sessions simulated", reports[0].sessions as f64);
    result.push_series(Series::from_xy(
        "checkpoint/straight_sessions_per_sec_by_shards",
        &throughput,
    ));
    Ok(result)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn checkpoint_scenario_passes_at_test_scale() {
        let r = run(11, 0.05).unwrap();
        let headline = |name: &str| {
            r.headline
                .iter()
                .find(|(k, _)| k == name)
                .map(|(_, v)| *v)
                .unwrap()
        };
        assert_eq!(headline("kill/resume bit-identical (1 = yes)"), 1.0);
        assert_eq!(headline("shard invariance (1 = identical)"), 1.0);
        assert!(headline("sessions simulated") > 0.0);
        let s = r
            .series_named("checkpoint/straight_sessions_per_sec_by_shards")
            .unwrap();
        assert_eq!(s.points.len(), SHARD_COUNTS.len());
    }
}
