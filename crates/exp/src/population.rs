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
//! Long-term state persists through the sharded append-only
//! [`lingxi_core::BinaryStateLog`] in each cell's scratch directory.
//! Every cell runs once at 4 shards; the 1/4/8-shard and kill/resume
//! contract for this regime (contention + arrivals over the
//! heterogeneous registry) is the `dynamics` row of `lingxi-fleet`'s
//! `tests/contract.rs`.

use lingxi_fleet::{ContentionConfig, FleetConfig, FleetReport, FleetScenario, PopulationDynamics};
use lingxi_workload::{ArrivalKind, ClassRegistry, Diurnal};

use crate::report::{ExperimentResult, Series};
use crate::Result;
use lingxi_fleet::harness::Cell;

/// Arrival-rate multipliers swept by the experiment.
const RATE_RAMP: [f64; 4] = [0.5, 1.0, 2.0, 4.0];

/// Baseline arrivals per simulated day at `scale = 1`.
const BASE_ARRIVALS_PER_DAY: f64 = 12_000.0;

/// One simulated day (seconds).
const DAY_SECONDS: f64 = 86_400.0;

/// Simulated days per cell.
const DAYS: usize = 2;

/// Per-class ramp curves being accumulated: (class name, stall-per-session
/// points, watch-per-session points).
type ClassCurves = Vec<(String, Vec<(f64, f64)>, Vec<(f64, f64)>)>;

/// One ramp cell: the diurnal heterogeneous population at
/// `arrivals_per_day × rate_multiplier` over [`DAYS`] simulated days.
fn cell(rate_multiplier: f64, arrivals_per_day: f64, links: usize, seed: u64) -> Cell {
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
        epochs: DAYS,
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

/// Run the population-dynamics experiment, two simulated days per cell.
pub fn run(seed: u64, scale: f64) -> Result<ExperimentResult> {
    let mut result = ExperimentResult::new(
        "population",
        "Diurnal heterogeneous population: arrival rate vs per-class QoE",
    );
    let arrivals_per_day = (BASE_ARRIVALS_PER_DAY * scale).max(40.0);
    let links = ((64.0 * scale).round() as usize).max(3);

    // ---- the rate ramp: per-class QoE vs offered arrival rate ----
    let mut arrivals_total = 0usize;
    let mut sessions_total = 0usize;
    let mut per_class: ClassCurves = Vec::new();
    let mut peak: Option<FleetReport> = None;
    for &mult in &RATE_RAMP {
        let report = cell(mult, arrivals_per_day, links, seed).run(4)?;
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
    result.headline_value("days per cell", DAYS as f64);

    // Tail QoE at the heaviest load, straight from the O(bins) sketches
    // of the last simulated day.
    let sketches = &peak.epochs.last().expect("DAYS >= 1").sketches;
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
    Ok(result)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn population_runs_at_test_scale() {
        let r = crate::smoke("population", 5);
        let headline = |name: &str| r.headline_named(name).unwrap();
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
}
