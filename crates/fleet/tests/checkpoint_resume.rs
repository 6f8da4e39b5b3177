//! The checkpoint manifest's life cycle around the determinism contract.
//! That a run killed at an epoch barrier and resumed is bit-identical to
//! an uninterrupted one, at 1, 4 and 8 shards, is checked once per
//! engine regime by the contract table (`tests/contract.rs`); this file
//! adds a static cohort at 2 shards and checks what the manifest itself
//! promises: a suspended run leaves one,
//! a completed run removes it, and a resume refuses a manifest that is
//! missing, belongs to another run, or records placements on other links.

use lingxi_fleet::harness::{Cell, ScratchDir};
use lingxi_fleet::{
    ContentionConfig, DispatchConfig, FleetCheckpoint, FleetConfig, FleetError, FleetScenario,
    RunControl, RunOutcome,
};

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

#[test]
fn resume_refuses_a_dispatch_record_that_does_not_fit() {
    // A 4-link LSQ run suspended after epoch 1 records 4 placements.
    let lsq = |links: usize| {
        let mut cell = cell();
        cell.config.contention = Some(ContentionConfig {
            links,
            ..ContentionConfig::default()
        });
        cell.config.dispatch = Some(DispatchConfig::lsq(2));
        cell
    };
    let dir = ScratchDir::claim();
    let outcome = lsq(4).run_in(dir.path(), 2, KILL_AFTER_1).unwrap();
    assert!(matches!(outcome, RunOutcome::Suspended(_)));

    // Resumed with 6 links, the LSQ snapshot would be zero-padded.
    let err = lsq(6).run_in(dir.path(), 2, RESUME).unwrap_err();
    assert!(
        matches!(err, FleetError::InvalidConfig(ref m) if m.contains("4 links") && m.contains("6 links")),
        "{err}"
    );
    // Resumed in independent mode, the record has no links to refresh.
    let err = cell().run_in(dir.path(), 2, RESUME).unwrap_err();
    assert!(matches!(err, FleetError::InvalidConfig(_)), "{err}");

    // An independent-mode manifest carries no record for a contended run.
    let independent = ScratchDir::claim();
    let outcome = cell().run_in(independent.path(), 2, KILL_AFTER_1).unwrap();
    assert!(matches!(outcome, RunOutcome::Suspended(_)));
    let err = lsq(4).run_in(independent.path(), 2, RESUME).unwrap_err();
    assert!(
        matches!(err, FleetError::InvalidConfig(ref m) if m.contains("no links")),
        "{err}"
    );
}
