//! Figure 12 — "The A/B Experiment of LingXi" (§5.3).
//!
//! The 10-day difference-in-differences A/B test, run as one fleet cell:
//! ten epochs of an all-HYB population split by user-id parity
//! (`FleetConfig.ab`), epochs 1–5 AA (both cohorts play static HYB), from
//! epoch 6 the treatment cohort plays LingXi-managed HYB with its
//! controller state persisted across epochs. The series and headlines are
//! read off `FleetReport.did`. The shape to reproduce: watch time up,
//! bitrate slightly down, stall time down substantially (the stall effect
//! an order of magnitude larger than the bitrate effect), with AA-phase
//! differences small against the effect.
//!
//! Until PR 16 this figure ran 300 *twin* users (the same users in both
//! arms, on common random numbers) through a separate per-user arm runner.
//! That made its AA phase identically zero — it measured no cohort bias at
//! all — so the numbers changed once when it moved here: disjoint parity
//! cohorts of 8 000 users × 12 sessions a day (≈960 k sessions) at scale 1,
//! where the AA bias is real and the watch-time sign is stable across
//! seeds. Below ≈2 000 users the watch-time DiD is noise-dominated (its
//! sign flips between seeds); the stall DiD holds its sign down to a few
//! hundred.

use lingxi_abtest::MetricSeries;
use lingxi_fleet::{AbSplit, AbrMix, FleetConfig, FleetScenario};

use crate::report::{ExperimentResult, Series};
use crate::world::WorldConfig;
use crate::Result;
use lingxi_fleet::harness::Cell;

/// Epochs per run: the paper's ten days.
const EPOCHS: usize = 10;

/// First AB epoch (0-based): the paper's day 6.
const INTERVENTION_EPOCH: usize = 5;

/// The figure's one cell: the shared world's population shape at 8 000
/// users, everyone on HYB, split into parity cohorts.
fn cell(seed: u64, scale: f64) -> Cell {
    let world = WorldConfig {
        n_users: 8_000,
        ..WorldConfig::default()
    }
    .scaled(scale);
    Cell {
        config: FleetConfig {
            epochs: EPOCHS,
            seed,
            ab: Some(AbSplit {
                intervention_epoch: INTERVENTION_EPOCH,
            }),
            ..FleetConfig::default()
        },
        scenario: FleetScenario {
            name: "fig12".into(),
            n_users: world.n_users,
            n_videos: world.n_videos,
            mean_sessions_per_epoch: world.mean_sessions_per_day,
            mixture: world.mixture,
            abr_mix: AbrMix::all_hyb(),
        },
    }
}

/// Run the experiment.
pub fn run(seed: u64, scale: f64) -> Result<ExperimentResult> {
    let report = cell(seed, scale).run(4)?;
    let did = report
        .did
        .as_ref()
        .expect("A/B mode always produces a DiD report");

    let mut result =
        ExperimentResult::new("fig12", "10-day DiD A/B: watch time, bitrate, stall time");
    let mut push_series = |metric: &MetricSeries| {
        result.push_series(Series {
            name: format!("{}_rel_diff_pct", metric.name),
            points: metric
                .daily_rel_diff_pct
                .iter()
                .enumerate()
                .map(|(d, v)| (format!("Day{}", d + 1), *v))
                .collect(),
        });
    };
    push_series(&did.watch_time);
    push_series(&did.bitrate);
    push_series(&did.stall_time);

    result.headline_value("watch_time_did_pct", did.watch_time.did.effect);
    result.headline_value("watch_time_t", did.watch_time.did.t);
    result.headline_value("watch_time_p", did.watch_time.did.p_two_sided);
    result.headline_value("bitrate_did_pct", did.bitrate.did.effect);
    result.headline_value("bitrate_t", did.bitrate.did.t);
    result.headline_value("stall_time_did_pct", did.stall_time.did.effect);
    result.headline_value("stall_time_t", did.stall_time.did.t);
    result.headline_value("aa_watch_bias_pct", did.watch_time.did.pre_mean);
    Ok(result)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The claim at a population where its sign is stable: LingXi cuts
    /// stall time, by more than it moves bitrate, against a measured —
    /// not structurally zero — AA phase. The watch-time sign needs the
    /// full-scale population (module docs) and is not asserted here.
    #[test]
    fn fig12_did_shape() {
        let r = run(31, 0.125).unwrap();
        let get = |k: &str| r.headline_named(k).unwrap();
        let stall = get("stall_time_did_pct");
        assert!(stall < 0.0, "stall DiD {stall}");
        assert!(get("stall_time_t") < 0.0);
        let bitrate = get("bitrate_did_pct");
        assert!(
            stall.abs() > bitrate.abs(),
            "stall {stall} bitrate {bitrate}"
        );
        let aa = get("aa_watch_bias_pct");
        assert!(aa.is_finite() && aa != 0.0, "AA watch bias {aa}");
        for name in [
            "watch_time_rel_diff_pct",
            "bitrate_rel_diff_pct",
            "stall_time_rel_diff_pct",
        ] {
            assert_eq!(r.series_named(name).unwrap().points.len(), EPOCHS, "{name}");
        }
    }

    /// The A/B cell under the engine's determinism contract, killed at
    /// every barrier — the intervention's among them — and resumed
    /// (`Cell::contract` compares the straight 1/4/8-shard runs to each
    /// other too): per-cohort metrics are
    /// bit-identical across shard counts and across kill/resume, and the
    /// treatment cohort's controller state starts being persisted at the
    /// intervention — nothing is flushed in the AA phase, something in
    /// every AB epoch.
    #[test]
    fn fig12_cell_is_shard_invariant_and_resumes_at_the_intervention() {
        let runs = cell(7, 0.02).contract().unwrap();
        for (label, run) in &runs {
            assert!(run.did.is_some(), "{label}");
            for e in &run.epochs {
                let (c, t) = (e.control.unwrap(), e.treatment.unwrap());
                assert!(
                    c.sessions > 0 && t.sessions > 0,
                    "{label} epoch {}",
                    e.epoch
                );
                assert_eq!(
                    e.flushed > 0,
                    e.epoch >= INTERVENTION_EPOCH,
                    "{label} epoch {}: flushed {}",
                    e.epoch,
                    e.flushed
                );
            }
        }
    }
}
