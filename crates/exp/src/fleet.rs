//! `fleet` — the scale experiment (ROADMAP north star, not a paper
//! figure): drive tens of thousands of concurrent managed sessions through
//! the sharded fleet engine.
//!
//! Two cells of the scenario matrix run, each once at 4 shards:
//!
//! 1. **production** — the Fig. 2(a) bandwidth mixture with a mixed ABR
//!    population: per-epoch watch time, stall time and bitrate.
//! 2. **constrained** — a stall-heavy mixture with every user on
//!    LingXi-managed HYB, exercising the optimizer + state-cache path.
//!
//! The output is a pure function of `(seed, scale)`: throughput is
//! `lxbench`'s to measure, the 1/4/8-shard and kill/resume contract is
//! `lingxi-fleet`'s `tests/contract.rs`, and the §5.3 A/B on the fleet
//! engine is `fig12`.

use lingxi_fleet::{AbrMix, FleetConfig, FleetScenario};
use lingxi_net::ProductionMixture;

use crate::report::{ExperimentResult, Series};
use crate::Result;
use lingxi_fleet::harness::Cell;

/// Scale population counts like the rest of the harness: `scale = 1` is
/// the full fleet, tests run at ~0.01.
fn scaled(n: usize, scale: f64, floor: usize) -> usize {
    ((n as f64 * scale).round() as usize).max(floor)
}

/// Run the fleet experiment.
pub fn run(seed: u64, scale: f64) -> Result<ExperimentResult> {
    let mut result = ExperimentResult::new("fleet", "Sharded fleet simulation at scale");

    // ---- cell 1: production mixture, mixed ABRs ----
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
    }
    .run(4)?;
    result.headline_value("production sessions", production.sessions as f64);
    result.headline_value("production users", production.users as f64);
    let epoch_series = |name: &str, f: &dyn Fn(&lingxi_abtest::DayMetrics) -> f64| {
        Series::from_xy(
            name,
            &production
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
    let cache = managed.cache;
    let lookups = (cache.hits + cache.misses).max(1);
    result.headline_value("cache hit rate", cache.hits as f64 / lookups as f64);
    result.headline_value("cache write-behind writes", cache.writes as f64);

    Ok(result)
}

#[cfg(test)]
mod tests {
    #[test]
    fn fleet_experiment_runs_at_test_scale() {
        let r = crate::smoke("fleet", 5);
        assert!(r.series_named("production/watch_time").is_some());
        let headline = |name: &str| r.headline_named(name).unwrap();
        assert!(headline("production sessions") >= 64.0);
        assert!(headline("cache hit rate") > 0.0);
    }
}
