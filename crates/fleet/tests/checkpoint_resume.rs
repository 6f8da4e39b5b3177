//! Kill-at-epoch-barrier + resume must be bit-identical to an
//! uninterrupted run — at 1, 4, and 8 shards, for both static and
//! population-dynamics cohorts.
//!
//! This is the checkpoint half of the engine's determinism contract (see
//! `FleetEngine::run_resumable`): immediately after barrier `k` every
//! user's long-term state is durable, so epoch `k+1` is a pure function
//! of (config, scenario, durable state) and a resumed run replays the
//! remaining epochs exactly.

use std::path::{Path, PathBuf};

use lingxi_fleet::{
    ContentionConfig, FairnessConfig, FleetCheckpoint, FleetConfig, FleetEngine, FleetReport,
    FleetScenario, PopulationDynamics, RunControl, RunOutcome,
};
use lingxi_net::{FairnessObjective, TopoLink, Topology};
use lingxi_workload::{ArrivalKind, ClassRegistry, Poisson};

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("lingxi_ckpt_resume_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn scenario() -> FleetScenario {
    FleetScenario {
        name: "ckpt".into(),
        n_users: 24,
        n_videos: 8,
        mean_sessions_per_epoch: 2.0,
        ..FleetScenario::default()
    }
}

fn config(shards: usize, dir: &Path) -> FleetConfig {
    FleetConfig {
        shards,
        epochs: 4,
        seed: 17,
        state_dir: dir.to_path_buf(),
        ..FleetConfig::default()
    }
}

/// Add population dynamics (arrivals over shared links) to a config.
fn with_dynamics(mut config: FleetConfig) -> FleetConfig {
    config.contention = Some(ContentionConfig {
        links: 4,
        capacity_kbps: 25_000.0,
        arrival_window: 10.0,
        access_cap_factor: 1.5,
    });
    config.dynamics = Some(PopulationDynamics {
        arrivals: ArrivalKind::Poisson(Poisson { rate_per_sec: 0.05 }),
        registry: ClassRegistry::default_heterogeneous(),
        day_seconds: 600.0,
    });
    config
}

/// Run straight through in one directory; kill at the barrier after
/// `stop_after` epochs and resume in another. Both must agree bit-exactly.
fn assert_kill_resume_bit_identical(
    make_config: impl Fn(&Path) -> FleetConfig,
    stop_after: usize,
    tag: &str,
) -> FleetReport {
    let straight_dir = temp_dir(&format!("{tag}_straight"));
    let resumed_dir = temp_dir(&format!("{tag}_resumed"));
    let scenario = scenario();

    let straight = FleetEngine::new(make_config(&straight_dir))
        .unwrap()
        .run(&scenario)
        .unwrap();

    let engine = FleetEngine::new(make_config(&resumed_dir)).unwrap();
    let first = engine
        .run_resumable(
            &scenario,
            RunControl {
                resume: false,
                stop_after_epochs: Some(stop_after),
            },
        )
        .unwrap();
    let ckpt = match first {
        RunOutcome::Suspended(ckpt) => ckpt,
        RunOutcome::Complete(_) => panic!("run must suspend at the barrier"),
    };
    assert_eq!(ckpt.next_epoch, stop_after);
    assert!(FleetCheckpoint::load(&resumed_dir).unwrap().is_some());

    // The "kill": drop the engine and start over from the manifest. A
    // fresh engine models the restarted process.
    let resumed = match FleetEngine::new(make_config(&resumed_dir))
        .unwrap()
        .run_resumable(
            &scenario,
            RunControl {
                resume: true,
                stop_after_epochs: None,
            },
        )
        .unwrap()
    {
        RunOutcome::Complete(report) => *report,
        RunOutcome::Suspended(_) => panic!("resumed run must complete"),
    };

    assert_eq!(straight.first_divergence(&resumed), None);
    // A completed run leaves no manifest behind.
    assert!(FleetCheckpoint::load(&resumed_dir).unwrap().is_none());

    let _ = std::fs::remove_dir_all(&straight_dir);
    let _ = std::fs::remove_dir_all(&resumed_dir);
    straight
}

#[test]
fn kill_resume_bit_identical_at_1_4_8_shards_binlog() {
    let mut reports = Vec::new();
    for shards in [1usize, 4, 8] {
        let report = assert_kill_resume_bit_identical(
            |dir| with_dynamics(config(shards, dir)),
            2,
            &format!("bin{shards}"),
        );
        reports.push(report);
    }
    // And the shard counts agree with each other (the engine's standing
    // invariance contract composes with checkpointing).
    assert_eq!(reports[0].first_divergence(&reports[1]), None);
    assert_eq!(reports[0].first_divergence(&reports[2]), None);
}

#[test]
fn solver_stats_survive_kill_resume_at_1_4_8_shards() {
    // A finite-α pod whose core is shared by all three routes, tight
    // enough to bind: every epoch runs dual solves, and their counters
    // ride the manifest like the metrics do (`first_divergence` compares
    // them, so the kill/resume and cross-shard checks cover them).
    let with_fairness = |mut config: FleetConfig| {
        config.contention = Some(ContentionConfig {
            links: 3,
            capacity_kbps: 20_000.0,
            arrival_window: 10.0,
            access_cap_factor: 1.5,
        });
        config.fairness = Some(FairnessConfig {
            objective: FairnessObjective::AlphaFair(2.0),
            topology: Topology::new(
                vec![
                    TopoLink::new(6_000.0, 0.004),
                    TopoLink::new(9_000.0, 0.008),
                    TopoLink::new(12_000.0, 0.012),
                ],
                vec![vec![0, 1, 2], vec![1, 2], vec![2]],
            )
            .unwrap(),
        });
        config
    };
    let mut reports = Vec::new();
    for shards in [1usize, 4, 8] {
        let report = assert_kill_resume_bit_identical(
            |dir| with_fairness(config(shards, dir)),
            2,
            &format!("solver{shards}"),
        );
        for epoch in &report.epochs {
            let solver = epoch.solver.expect("every epoch ran dual solves");
            assert!(solver.calls > 0 && solver.sweeps >= solver.calls);
            assert_eq!(solver.non_converged, 0);
        }
        reports.push(report);
    }
    assert_eq!(reports[0].first_divergence(&reports[1]), None);
    assert_eq!(reports[0].first_divergence(&reports[2]), None);
    assert_eq!(reports[0].solver_stats(), reports[2].solver_stats());
}

#[test]
fn kill_resume_bit_identical_static_cohort() {
    // The only kill/resume of a *static* cohort: its users are counted
    // once, not once per invocation, and their managed state warm-starts
    // from the log across the kill.
    assert_kill_resume_bit_identical(|dir| config(2, dir), 1, "static2");
}

#[test]
fn periodic_checkpoints_leave_resumable_manifest() {
    let dir = temp_dir("periodic");
    let mut cfg = config(2, &dir);
    cfg.checkpoint_every = 1;
    let report = FleetEngine::new(cfg).unwrap().run(&scenario()).unwrap();
    assert!(report.sessions > 0);
    // Completion removed the manifest even though every barrier wrote one.
    assert!(FleetCheckpoint::load(&dir).unwrap().is_none());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn resume_refuses_mismatched_run() {
    let dir = temp_dir("mismatch");
    let engine = FleetEngine::new(config(2, &dir)).unwrap();
    let outcome = engine
        .run_resumable(
            &scenario(),
            RunControl {
                resume: false,
                stop_after_epochs: Some(1),
            },
        )
        .unwrap();
    assert!(matches!(outcome, RunOutcome::Suspended(_)));

    // Different seed → refuse.
    let mut other = config(2, &dir);
    other.seed = 99;
    let err = FleetEngine::new(other)
        .unwrap()
        .run_resumable(
            &scenario(),
            RunControl {
                resume: true,
                stop_after_epochs: None,
            },
        )
        .unwrap_err();
    assert!(err.to_string().contains("does not match"));

    // No manifest at all → refuse.
    let empty = temp_dir("mismatch_empty");
    let err = FleetEngine::new(config(2, &empty))
        .unwrap()
        .run_resumable(
            &scenario(),
            RunControl {
                resume: true,
                stop_after_epochs: None,
            },
        )
        .unwrap_err();
    assert!(err.to_string().contains("no checkpoint"));

    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&empty);
}
