//! `checkpoint` — the kill/resume equivalence scenario (not a paper
//! figure): a population-dynamics fleet run over the binary state log is
//! killed at each inner epoch barrier in turn and resumed from its
//! checkpoint manifest,
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

use lingxi_fleet::{ContentionConfig, FleetConfig, FleetScenario, PopulationDynamics};
use lingxi_workload::{ArrivalKind, ClassRegistry, Poisson};

use crate::report::{ExperimentResult, Series};
use crate::Result;
use lingxi_fleet::harness::Cell;

/// Epochs (simulated days) per run.
const EPOCHS: usize = 4;

fn cell(seed: u64, scale: f64) -> Cell {
    let scenario = FleetScenario {
        name: "checkpoint".into(),
        // Dynamics mode: cohort size is driven by the arrival schedule;
        // this field only labels the run (validation needs >= 1).
        n_users: ((400.0 * scale) as usize).max(1),
        n_videos: 8,
        mean_sessions_per_epoch: 2.0,
        ..FleetScenario::default()
    };
    let config = FleetConfig {
        epochs: EPOCHS,
        seed,
        contention: Some(ContentionConfig {
            links: ((8.0 * scale).round() as usize).max(3),
            arrival_window: 10.0,
            ..ContentionConfig::default()
        }),
        dynamics: Some(PopulationDynamics {
            arrivals: ArrivalKind::Poisson(Poisson {
                rate_per_sec: (0.2 * scale.clamp(0.001, 10.0)).max(0.02),
            }),
            registry: ClassRegistry::default_heterogeneous(),
            day_seconds: 600.0,
        }),
        ..FleetConfig::default()
    };
    Cell { config, scenario }
}

/// Run the checkpoint/resume equivalence scenario.
pub fn run(seed: u64, scale: f64) -> Result<ExperimentResult> {
    let mut result = ExperimentResult::new(
        "checkpoint",
        "Kill-at-barrier + resume over the binary state log: bit-identical at 1/4/8 shards",
    );
    // Both gates in one call: a kill at every inner barrier and a resume
    // equal the straight run at every shard count, and the shard counts
    // equal each other — checkpointing composes with the engine's
    // standing shard-invariance contract.
    let straight = cell(seed, scale).contract()?;
    let throughput: Vec<(f64, f64)> = straight
        .iter()
        .map(|(_, r)| (r.shards as f64, r.sessions_per_sec()))
        .collect();
    result.headline_value("kill/resume bit-identical (1 = yes)", 1.0);
    result.headline_value("shard invariance (1 = identical)", 1.0);
    result.headline_value("epochs per run", EPOCHS as f64);
    result.headline_value("kills per shard count", (EPOCHS - 1) as f64);
    result.headline_value("arrivals simulated", straight[0].1.users as f64);
    result.headline_value("sessions simulated", straight[0].1.sessions as f64);
    result.push_series(Series::from_xy(
        "checkpoint/straight_sessions_per_sec_by_shards",
        &throughput,
    ));
    Ok(result)
}

#[cfg(test)]
mod tests {
    #[test]
    fn checkpoint_scenario_passes_at_test_scale() {
        let r = crate::smoke("checkpoint", 11);
        let headline = |name: &str| r.headline_named(name).unwrap();
        assert_eq!(headline("kill/resume bit-identical (1 = yes)"), 1.0);
        assert_eq!(headline("shard invariance (1 = identical)"), 1.0);
        assert!(headline("sessions simulated") > 0.0);
        let s = r
            .series_named("checkpoint/straight_sessions_per_sec_by_shards")
            .unwrap();
        assert_eq!(s.points.len(), lingxi_fleet::harness::SHARD_COUNTS.len());
    }
}
