//! `fleet` — the scale experiment (ROADMAP north star, not a paper
//! figure): drive tens of thousands of concurrent managed sessions through
//! the sharded fleet engine and *measure* scale instead of asserting it.
//!
//! Three cells of the scenario matrix run:
//!
//! 1. **production** — the Fig. 2(a) bandwidth mixture with a mixed ABR
//!    population. The run fails unless the cell is bit-identical across
//!    1, 4 and 8 shards — the determinism contract of the engine — and
//!    reports sessions/sec at 4 and 8.
//! 2. **constrained** — a stall-heavy mixture with every user on
//!    LingXi-managed HYB, exercising the optimizer + state-cache path.
//! 3. **ab** — an A/B split (user-id parity) with the intervention landing
//!    mid-run; per-epoch cohort metrics feed the §5.3
//!    difference-in-differences pipeline at population scale.

use lingxi_fleet::{AbSplit, AbrMix, FleetConfig, FleetScenario};
use lingxi_net::ProductionMixture;

use crate::report::{ExperimentResult, Series};
use crate::Result;
use lingxi_fleet::harness::{identical, Cell};

/// Scale population counts like the rest of the harness: `scale = 1` is
/// the full fleet, tests run at ~0.01.
fn scaled(n: usize, scale: f64, floor: usize) -> usize {
    ((n as f64 * scale.clamp(0.001, 10.0)).round() as usize).max(floor)
}

/// Run the fleet experiment.
pub fn run(seed: u64, scale: f64) -> Result<ExperimentResult> {
    let mut result = ExperimentResult::new("fleet", "Sharded fleet simulation at scale");

    // ---- cell 1: production mixture, mixed ABRs, shard invariance ----
    let production = Cell {
        config: FleetConfig {
            seed,
            ..FleetConfig::default()
        },
        scenario: FleetScenario {
            name: "production".into(),
            n_users: scaled(40_000, scale, 64),
            n_videos: scaled(60, scale.sqrt(), 12),
            mean_sessions_per_epoch: 2.5,
            ..FleetScenario::default()
        },
    };
    let runs = production.shard_sweep()?;
    identical("production", &runs)?;
    let (four, eight) = (&runs[1].1, &runs[2].1);
    result.headline_value("production sessions", four.sessions as f64);
    result.headline_value("production users", four.users as f64);
    result.headline_value("sessions/sec @ 4 shards", four.sessions_per_sec());
    result.headline_value("sessions/sec @ 8 shards", eight.sessions_per_sec());
    result.headline_value("segments/sec @ 4 shards", four.segments_per_sec());
    result.headline_value("shard invariance (1 = identical)", 1.0);
    let epoch_series = |name: &str, f: &dyn Fn(&lingxi_abtest::DayMetrics) -> f64| {
        Series::from_xy(
            name,
            &four
                .epochs
                .iter()
                .map(|e| (e.epoch as f64, f(&e.all)))
                .collect::<Vec<_>>(),
        )
    };
    result.push_series(epoch_series("production/watch_time", &|m| m.watch_time));
    result.push_series(epoch_series("production/stall_time", &|m| m.stall_time));
    result.push_series(epoch_series("production/mean_bitrate", &|m| m.mean_bitrate));

    // ---- cell 2: constrained mixture, all LingXi-managed ----
    let constrained = Cell {
        config: FleetConfig {
            seed: seed + 1,
            ..FleetConfig::default()
        },
        scenario: FleetScenario {
            name: "constrained".into(),
            n_users: scaled(4_000, scale, 32),
            n_videos: scaled(40, scale.sqrt(), 10),
            mean_sessions_per_epoch: 2.0,
            mixture: ProductionMixture {
                p_constrained: 0.45,
                p_cellular: 0.35,
                p_wifi: 0.15,
            },
            abr_mix: AbrMix::all_hyb(),
        },
    };
    let managed = constrained.run(4)?;
    result.headline_value("constrained sessions", managed.sessions as f64);
    result.headline_value("constrained sessions/sec", managed.sessions_per_sec());
    let cache = managed.cache;
    let lookups = (cache.hits + cache.misses).max(1);
    result.headline_value("cache hit rate", cache.hits as f64 / lookups as f64);
    result.headline_value("cache write-behind writes", cache.writes as f64);

    // ---- cell 3: population-scale A/B with DiD ----
    let ab = Cell {
        config: FleetConfig {
            epochs: 4,
            seed: seed + 2,
            ab: Some(AbSplit {
                intervention_epoch: 2,
            }),
            ..FleetConfig::default()
        },
        scenario: FleetScenario {
            name: "ab".into(),
            n_users: scaled(4_000, scale, 48),
            n_videos: scaled(40, scale.sqrt(), 10),
            mean_sessions_per_epoch: 2.0,
            mixture: ProductionMixture {
                p_constrained: 0.35,
                p_cellular: 0.35,
                p_wifi: 0.30,
            },
            abr_mix: AbrMix::all_hyb(),
        },
    }
    .run(4)?;
    let did = ab
        .did
        .as_ref()
        .expect("A/B mode always produces a DiD report");
    result.headline_value("ab sessions", ab.sessions as f64);
    result.headline_value("DiD watch-time effect (%)", did.watch_time.did.effect);
    result.headline_value("DiD watch-time p-value", did.watch_time.did.p_two_sided);
    result.headline_value("DiD stall-time effect (%)", did.stall_time.did.effect);
    result.push_series(Series::from_xy(
        "ab/watch_time_rel_diff_pct",
        &did.watch_time
            .daily_rel_diff_pct
            .iter()
            .enumerate()
            .map(|(d, &y)| (d as f64, y))
            .collect::<Vec<_>>(),
    ));

    Ok(result)
}

#[cfg(test)]
mod tests {
    #[test]
    fn fleet_experiment_runs_at_test_scale() {
        let r = crate::smoke("fleet", 5);
        assert!(r.series_named("production/watch_time").is_some());
        assert!(r.series_named("ab/watch_time_rel_diff_pct").is_some());
        let headline = |name: &str| r.headline_named(name).unwrap();
        assert_eq!(headline("shard invariance (1 = identical)"), 1.0);
        assert!(headline("production sessions") >= 64.0);
        assert!(headline("sessions/sec @ 4 shards") > 0.0);
    }
}
