//! The checkpoint manifest's life cycle around the determinism contract.
//! That a run killed at an epoch barrier and resumed is bit-identical to
//! an uninterrupted one, at 1, 4 and 8 shards, is checked once per
//! engine regime by the contract table (`tests/contract.rs`); this file
//! adds a static cohort at 2 shards and checks what the manifest itself
//! promises: a suspended run leaves one,
//! a completed run removes it, and a resume refuses a manifest that is
//! missing or belongs to another run.

use lingxi_fleet::harness::{Cell, ScratchDir};
use lingxi_fleet::{FleetCheckpoint, FleetConfig, FleetScenario, RunControl, RunOutcome};

fn cell() -> Cell {
    Cell {
        config: FleetConfig {
            epochs: 4,
            seed: 17,
            ..FleetConfig::default()
        },
        scenario: FleetScenario {
            name: "ckpt".into(),
            n_users: 24,
            n_videos: 8,
            mean_sessions_per_epoch: 2.0,
            ..FleetScenario::default()
        },
    }
}

const KILL_AFTER_1: RunControl = RunControl {
    resume: false,
    stop_after_epochs: Some(1),
};

const RESUME: RunControl = RunControl {
    resume: true,
    stop_after_epochs: None,
};

#[test]
fn kill_resume_bit_identical_static_cohort() {
    // A static cohort at a shard count outside the contract table's: its
    // users are counted once, not once per invocation, and their managed
    // state warm-starts from the log across the kill.
    let cell = cell();
    let straight = cell.run(2).unwrap();
    let dir = ScratchDir::claim();
    let outcome = cell.run_in(dir.path(), 2, KILL_AFTER_1).unwrap();
    assert!(matches!(outcome, RunOutcome::Suspended(ref at) if at.next_epoch == 1));
    assert!(FleetCheckpoint::load(dir.path()).unwrap().is_some());

    // The "kill": a fresh engine resumes from the manifest, as a
    // restarted process would.
    let resumed = match cell.run_in(dir.path(), 2, RESUME).unwrap() {
        RunOutcome::Complete(report) => *report,
        RunOutcome::Suspended(_) => panic!("resumed run must complete"),
    };
    assert_eq!(straight.first_divergence(&resumed), None);
    // A completed run leaves no manifest behind.
    assert!(FleetCheckpoint::load(dir.path()).unwrap().is_none());
}

#[test]
fn periodic_checkpoints_leave_resumable_manifest() {
    let mut cell = cell();
    cell.config.checkpoint_every = 1;
    let dir = ScratchDir::claim();
    let outcome = cell.run_in(dir.path(), 2, KILL_AFTER_1).unwrap();
    assert!(matches!(outcome, RunOutcome::Suspended(ref at) if at.next_epoch == 1));
    let manifest = FleetCheckpoint::load(dir.path()).unwrap().unwrap();
    assert_eq!(manifest.next_epoch, 1);

    let outcome = cell.run_in(dir.path(), 2, RESUME).unwrap();
    assert!(matches!(outcome, RunOutcome::Complete(ref r) if r.sessions > 0));
    // Completion removed the manifest even though every barrier wrote one.
    assert!(FleetCheckpoint::load(dir.path()).unwrap().is_none());
}

#[test]
fn resume_refuses_mismatched_run() {
    let dir = ScratchDir::claim();
    let outcome = cell().run_in(dir.path(), 2, KILL_AFTER_1).unwrap();
    assert!(matches!(outcome, RunOutcome::Suspended(_)));

    // Different seed → refuse.
    let mut other = cell();
    other.config.seed = 99;
    let err = other.run_in(dir.path(), 2, RESUME).unwrap_err();
    assert!(err.to_string().contains("does not match"), "{err}");

    // No manifest at all → refuse.
    let empty = ScratchDir::claim();
    let err = cell().run_in(empty.path(), 2, RESUME).unwrap_err();
    assert!(err.to_string().contains("no checkpoint"), "{err}");
}
