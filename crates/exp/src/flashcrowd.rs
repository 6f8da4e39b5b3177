//! `flashcrowd` — the contention scenario (ROADMAP north star, not a
//! paper figure): ramp a growing crowd of users onto shared bottleneck
//! links and measure how QoE degrades with offered load.
//!
//! Each cell of the ramp drops a [`FlashRamp`] crowd of `u` users per link
//! onto fixed-capacity links (a flash crowd onto a congested cell) and
//! reports per-session stall time, watch time and mean bitrate. The cell
//! is now a thin wrapper over the workload layer: the arrival schedule
//! comes from the `FlashRamp` arrival process and a single-class registry
//! through [`PopulationDynamics`] — the ramp logic itself lives in
//! `lingxi-workload`, not here. Independent-trace simulation cannot
//! produce this curve: it is exactly the co-variance the
//! `SharedBottleneck` event kernel adds.
//!
//! Every cell runs once at 4 shards; the contention regime's 1/4/8-shard
//! and kill/resume contract is `lingxi-fleet`'s `tests/contract.rs`.

use lingxi_fleet::{ContentionConfig, FleetConfig, FleetScenario, PopulationDynamics};
use lingxi_net::ProductionMixture;
use lingxi_workload::{ArrivalKind, ClassRegistry, FlashRamp};

use crate::report::{ExperimentResult, Series};
use crate::Result;
use lingxi_fleet::harness::Cell;

/// Users-per-link ramp: offered load grows ~2x per cell.
const RAMP: [usize; 5] = [2, 4, 8, 16, 32];

/// Per-link capacity (kbps). Sized so the low end of the ramp is
/// comfortable and the high end is heavily oversubscribed for the
/// default mixture (mean demand ~10 Mbps per user).
const LINK_KBPS: f64 = 30_000.0;

/// Arrival window of the crowd (seconds): everyone shows up within this
/// span of the epoch start.
const RAMP_WINDOW_S: f64 = 20.0;

/// Mean sessions each crowd member plays.
const SESSIONS_PER_USER: f64 = 2.0;

/// The cell dropping `users_per_link` users onto each of `links` links.
fn cell(users_per_link: usize, links: usize, seed: u64) -> Cell {
    let n_users = users_per_link * links;
    let scenario = FleetScenario {
        name: format!("flashcrowd_u{users_per_link}"),
        n_users,
        n_videos: 16,
        mean_sessions_per_epoch: SESSIONS_PER_USER,
        ..FleetScenario::default()
    };
    let config = FleetConfig {
        epochs: 1,
        seed,
        contention: Some(ContentionConfig {
            links,
            capacity_kbps: LINK_KBPS,
            arrival_window: RAMP_WINDOW_S,
            ..ContentionConfig::default()
        }),
        // The crowd is an arrival schedule, not a pre-built cohort: the
        // FlashRamp process spreads exactly `n_users` arrivals across the
        // ramp window, and the single-class registry reproduces the
        // uniform population the cell used to hard-code.
        dynamics: Some(PopulationDynamics {
            arrivals: ArrivalKind::FlashRamp(FlashRamp::uniform(n_users, RAMP_WINDOW_S)),
            registry: ClassRegistry::single(
                ProductionMixture::default(),
                SESSIONS_PER_USER,
                LINK_KBPS,
            ),
            day_seconds: 3600.0,
        }),
        ..FleetConfig::default()
    };
    Cell { config, scenario }
}

/// Run the flash-crowd experiment.
pub fn run(seed: u64, scale: f64) -> Result<ExperimentResult> {
    let mut result = ExperimentResult::new(
        "flashcrowd",
        "Flash crowd on shared bottlenecks: QoE vs offered load",
    );
    // `scale` shrinks the number of links (cells stay oversubscribed to
    // the same degree, just with fewer parallel samples).
    let links = ((8.0 * scale).round() as usize).max(2);

    let mut stalls = Vec::with_capacity(RAMP.len());
    let mut watch = Vec::with_capacity(RAMP.len());
    let mut bitrate = Vec::with_capacity(RAMP.len());
    let mut completion = Vec::with_capacity(RAMP.len());
    let mut sessions = 0usize;
    for users_per_link in RAMP {
        let report = cell(users_per_link, links, seed).run(4)?;
        let m = &report.epochs[0].all;
        let load = users_per_link as f64;
        let per_session = 1.0 / (m.sessions as f64).max(1.0);
        stalls.push((load, m.stall_time * per_session));
        watch.push((load, m.watch_time * per_session));
        bitrate.push((load, m.mean_bitrate));
        completion.push((load, m.completion_rate()));
        sessions += report.sessions;
    }
    result.push_series(Series::from_xy("flashcrowd/stall_per_session", &stalls));
    result.push_series(Series::from_xy("flashcrowd/watch_per_session", &watch));
    result.push_series(Series::from_xy("flashcrowd/mean_bitrate", &bitrate));
    result.push_series(Series::from_xy("flashcrowd/completion_rate", &completion));
    result.headline_value("sessions simulated", sessions as f64);
    result.headline_value("link capacity (kbps)", LINK_KBPS);
    result.headline_value(
        "stall/session at max load (s)",
        stalls.last().map(|s| s.1).unwrap_or(0.0),
    );
    result.headline_value(
        "bitrate at max load / min load",
        bitrate.last().map(|s| s.1).unwrap_or(0.0) / bitrate[0].1.max(1e-9),
    );
    Ok(result)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flashcrowd_runs_at_test_scale() {
        let r = crate::smoke("flashcrowd", 5);
        assert!(r.series_named("flashcrowd/stall_per_session").is_some());
        assert!(r.headline_named("sessions simulated").unwrap() > 0.0);
    }

    #[test]
    fn stall_grows_with_offered_load() {
        let r = run(11, 0.02).unwrap();
        let stalls = r.series_named("flashcrowd/stall_per_session").unwrap().ys();
        // The ramp spans 16x oversubscription: the heaviest cell must
        // stall strictly more than the lightest.
        assert!(
            stalls.last().unwrap() > stalls.first().unwrap(),
            "stalls {stalls:?}"
        );
    }
}
