//! `population` — the population-dynamics scenario (ROADMAP north star,
//! not a paper figure): a heterogeneous user population arriving on a
//! diurnal schedule over multiple simulated days, contending on a mixed
//! cell/fiber topology, with bounded-memory streaming metrics.
//!
//! The experiment sweeps the offered arrival rate over a ×8 range and
//! reports, *per user class* (mobile / desktop / tv), how QoE moves with
//! load — the arrival-rate-vs-QoE curves the workload layer exists to
//! produce. Tail QoE comes from the epoch quantile sketches (p50/p90/p99
//! stall), which hold O(bins) memory however many sessions run.
//!
//! Like `fleet` and `flashcrowd`, the run *fails* unless the heaviest
//! cell's merged metrics — scalars **and** distribution sketches — are
//! bit-identical across 1, 4 and 8 shards.
//!
//! Long-term state persists through the sharded append-only
//! [`lingxi_core::BinaryStateLog`]. The CLI's `--checkpoint-every`,
//! `--resume`, `--state-dir` and `--stop-after-epochs` flags thread into
//! [`run_opts`], so a killed run restarts from its epoch-barrier
//! checkpoint manifest and finishes with bit-identical series — the CI
//! smoke diffs the CSVs of a straight run against a killed-and-resumed
//! one.

use std::path::PathBuf;

use lingxi_fleet::{
    ContentionConfig, FleetCheckpoint, FleetConfig, FleetReport, FleetScenario, PopulationDynamics,
    RunControl, RunOutcome,
};
use lingxi_workload::{ArrivalKind, ClassRegistry, Diurnal};

use crate::harness::Cell;
use crate::report::{ExperimentResult, Series};
use crate::{ExpError, Result};

/// Arrival-rate multipliers swept by the experiment.
const RATE_RAMP: [f64; 4] = [0.5, 1.0, 2.0, 4.0];

/// Baseline arrivals per simulated day at `scale = 1`.
const BASE_ARRIVALS_PER_DAY: f64 = 12_000.0;

/// One simulated day (seconds).
const DAY_SECONDS: f64 = 86_400.0;

/// Simulated days per cell unless the caller picks (the CLI's `--days`).
pub const DEFAULT_DAYS: usize = 2;

/// Per-class ramp curves being accumulated: (class name, stall-per-session
/// points, watch-per-session points).
type ClassCurves = Vec<(String, Vec<(f64, f64)>, Vec<(f64, f64)>)>;

/// Checkpoint/resume knobs threaded from the `experiments` CLI into the
/// rate-ramp cells. Defaults reproduce the historical behaviour: fresh
/// ephemeral state per cell, no mid-run checkpoints.
#[derive(Debug, Clone, Default)]
pub struct CheckpointOpts {
    /// Checkpoint every N epoch barriers (0 disables periodic manifests;
    /// suspension and resume still work through the barrier manifest).
    pub checkpoint_every: usize,
    /// Resume any cell that left a checkpoint manifest under
    /// `state_root`; cells without one start fresh.
    pub resume: bool,
    /// Persistent root for per-cell state directories. `None` keeps the
    /// historical ephemeral temp dirs (removed after each cell), which
    /// also makes `resume`/`stop_after_epochs` pointless.
    pub state_root: Option<PathBuf>,
    /// Stop the whole experiment at the first cell's barrier after this
    /// many epochs, leaving a resumable manifest (the CLI's
    /// `--stop-after-epochs`, used by the CI kill/resume smoke).
    pub stop_after_epochs: Option<usize>,
}

/// One ramp cell: the diurnal heterogeneous population at
/// `arrivals_per_day × rate_multiplier` over `days` simulated days.
fn cell(rate_multiplier: f64, arrivals_per_day: f64, links: usize, days: usize, seed: u64) -> Cell {
    let daily = arrivals_per_day * rate_multiplier;
    let scenario = FleetScenario {
        name: format!("population_x{rate_multiplier}"),
        // Cohort size is driven by the arrival schedule; this field only
        // labels the run (validation needs >= 1).
        n_users: (daily as usize).max(1),
        n_videos: 16,
        mean_sessions_per_epoch: 2.0,
        ..FleetScenario::default()
    };
    let config = FleetConfig {
        epochs: days,
        seed,
        contention: Some(ContentionConfig {
            links,
            ..ContentionConfig::default()
        }),
        dynamics: Some(PopulationDynamics {
            arrivals: ArrivalKind::Diurnal(Diurnal {
                base_rate: daily / DAY_SECONDS,
                amplitude: 0.7,
                peak_s: 21.0 * 3600.0,
                period_s: DAY_SECONDS,
            }),
            registry: ClassRegistry::default_heterogeneous(),
            day_seconds: DAY_SECONDS,
        }),
        ..FleetConfig::default()
    };
    Cell { config, scenario }
}

/// Run ramp cell `i` at 4 shards: in a scratch state directory by
/// default; in a persistent `state_root/ramp<i>` (emptied unless
/// resuming) when the caller wants checkpoint/resume.
fn run_ramp_cell(cell: &Cell, i: usize, ckpt: &CheckpointOpts) -> Result<RunOutcome> {
    let dir = ckpt.state_root.as_ref().map(|r| r.join(format!("ramp{i}")));
    let mut resume = false;
    if let Some(dir) = &dir {
        if ckpt.resume {
            // Resume only where a manifest actually exists: a cell that
            // already completed removed its manifest, so a resumed
            // experiment reruns it from scratch — same bits either way.
            resume = FleetCheckpoint::load(dir).map_err(crate::sub)?.is_some();
        } else {
            let _ = std::fs::remove_dir_all(dir);
        }
    }
    let control = RunControl {
        resume,
        stop_after_epochs: ckpt.stop_after_epochs,
    };
    cell.run_in(dir.as_deref(), 4, control)
}

/// Run the population-dynamics experiment over [`DEFAULT_DAYS`].
pub fn run(seed: u64, scale: f64) -> Result<ExperimentResult> {
    run_opts(seed, scale, DEFAULT_DAYS, &CheckpointOpts::default())
}

/// [`run`] with a chosen day count and checkpoint/resume knobs (the
/// `experiments` CLI threads `--days`/`--checkpoint-every`/`--resume`/
/// `--state-dir`/`--stop-after-epochs` here). When a ramp cell suspends
/// at a barrier the experiment returns early with a `suspended`-flagged
/// headline and no series; rerunning with [`CheckpointOpts::resume`]
/// finishes it with series bit-identical to an uninterrupted run.
pub fn run_opts(
    seed: u64,
    scale: f64,
    days: usize,
    ckpt: &CheckpointOpts,
) -> Result<ExperimentResult> {
    if days == 0 {
        return Err(ExpError::Subsystem("population needs days >= 1".into()));
    }
    let mut result = ExperimentResult::new(
        "population",
        "Diurnal heterogeneous population: arrival rate vs per-class QoE",
    );
    let arrivals_per_day = (BASE_ARRIVALS_PER_DAY * scale.clamp(0.001, 10.0)).max(40.0);
    let links = ((64.0 * scale.clamp(0.001, 10.0)).round() as usize).max(3);

    // ---- the rate ramp: per-class QoE vs offered arrival rate ----
    let mut arrivals_total = 0usize;
    let mut sessions_total = 0usize;
    let mut per_class: ClassCurves = Vec::new();
    let mut peak: Option<FleetReport> = None;
    for (i, &mult) in RATE_RAMP.iter().enumerate() {
        let mut cell = cell(mult, arrivals_per_day, links, days, seed);
        cell.config.checkpoint_every = ckpt.checkpoint_every;
        let report = match run_ramp_cell(&cell, i, ckpt)? {
            RunOutcome::Complete(report) => *report,
            RunOutcome::Suspended(manifest) => {
                // Killed at a barrier: report where, leave the manifest
                // and per-cell state in place, and let --resume finish.
                result.headline_value("suspended (resume with --resume)", 1.0);
                result.headline_value("suspended at ramp cell", i as f64);
                result.headline_value("next epoch on resume", manifest.next_epoch as f64);
                return Ok(result);
            }
        };
        arrivals_total += report.users;
        sessions_total += report.sessions;
        if per_class.is_empty() {
            per_class = report
                .class_names
                .iter()
                .map(|n| (n.clone(), Vec::new(), Vec::new()))
                .collect();
        }
        for (class, entry) in per_class.iter_mut().enumerate() {
            let mut stall = 0.0;
            let mut watch = 0.0;
            let mut sessions = 0usize;
            for m in report.class_metrics(class) {
                stall += m.stall_time;
                watch += m.watch_time;
                sessions += m.sessions;
            }
            let per_session = 1.0 / (sessions as f64).max(1.0);
            entry.1.push((mult, stall * per_session));
            entry.2.push((mult, watch * per_session));
        }
        peak = Some(report);
    }
    for (name, stall, watch) in &per_class {
        result.push_series(Series::from_xy(
            &format!("population/{name}/stall_per_session"),
            stall,
        ));
        result.push_series(Series::from_xy(
            &format!("population/{name}/watch_per_session"),
            watch,
        ));
    }
    let peak = peak.expect("rate ramp is non-empty");
    result.headline_value("arrivals simulated", arrivals_total as f64);
    result.headline_value("sessions simulated", sessions_total as f64);
    result.headline_value("days per cell", days as f64);
    result.headline_value("peak-cell sessions/sec", peak.sessions_per_sec());

    // Tail QoE at the heaviest load, straight from the O(bins) sketches
    // of the last simulated day.
    let sketches = &peak.epochs.last().expect("days >= 1").sketches;
    for (q, label) in [(0.5, "p50"), (0.9, "p90"), (0.99, "p99")] {
        result.headline_value(
            &format!("peak-load stall {label} (s)"),
            sketches.stall.quantile(q).map_err(crate::sub)?,
        );
    }
    result.headline_value(
        "peak-load watch p50 (s)",
        sketches.watch.quantile(0.5).map_err(crate::sub)?,
    );

    // ---- determinism assertion: heaviest cell across shard counts ----
    let peak_mult = *RATE_RAMP.last().expect("ramp non-empty");
    // Always ephemeral: the determinism cells assert an invariant, they
    // are not resumable work.
    cell(peak_mult, arrivals_per_day, links, days, seed + 1).shard_invariant()?;
    result.headline_value("shard invariance (1 = identical)", 1.0);
    Ok(result)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn population_runs_at_test_scale() {
        let r = crate::smoke("population", 5);
        let headline = |name: &str| r.headline_named(name).unwrap();
        assert_eq!(headline("shard invariance (1 = identical)"), 1.0);
        assert!(headline("arrivals simulated") > 0.0);
        assert!(headline("sessions simulated") > 0.0);
        assert!(headline("peak-load stall p99 (s)") >= headline("peak-load stall p50 (s)"));
        // Per-class curves exist for all three default classes.
        for class in ["mobile", "desktop", "tv"] {
            let s = r
                .series_named(&format!("population/{class}/stall_per_session"))
                .unwrap();
            assert_eq!(s.points.len(), RATE_RAMP.len());
        }
    }

    #[test]
    fn rejects_zero_days() {
        assert!(run_opts(1, 0.01, 0, &CheckpointOpts::default()).is_err());
    }

    #[test]
    fn kill_at_barrier_and_resume_matches_straight_run() {
        let straight = run(6, 0.004).unwrap();
        let root =
            std::env::temp_dir().join(format!("lingxi_population_resume_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        // Kill the first ramp cell at the barrier after epoch 1.
        let stopped = run_opts(
            6,
            0.004,
            2,
            &CheckpointOpts {
                checkpoint_every: 1,
                resume: false,
                state_root: Some(root.clone()),
                stop_after_epochs: Some(1),
            },
        )
        .unwrap();
        assert!(stopped
            .headline
            .iter()
            .any(|(k, v)| k == "suspended (resume with --resume)" && *v == 1.0));
        assert!(stopped.series.is_empty());
        // Resume finishes the killed cell and runs the rest fresh; every
        // series must be bit-identical to the uninterrupted run.
        let resumed = run_opts(
            6,
            0.004,
            2,
            &CheckpointOpts {
                resume: true,
                state_root: Some(root.clone()),
                ..CheckpointOpts::default()
            },
        )
        .unwrap();
        assert_eq!(straight.series, resumed.series);
        let _ = std::fs::remove_dir_all(&root);
    }
}
