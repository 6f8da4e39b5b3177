//! `fairness` — the fairness-objective scenario (ROADMAP north star, not
//! a paper figure): the *same* diurnal heterogeneous population replayed
//! on a multi-hop pod topology under three bandwidth-sharing objectives —
//! max-min, proportional-fair, and α-fair with α = 2 — so the only thing
//! that differs between cells is how the links split their capacity.
//!
//! The experiment reports per-class stall/watch per session under each
//! objective and the per-class tail-stall divergence across objectives
//! (how much the sharing rule moves each class's QoE). Each objective's
//! cell runs once at 4 shards, and the run *fails* unless
//!
//! 1. per-class QoE ordering holds under every objective: stall
//!    quantiles are monotone (p50 ≤ p90 ≤ p99) and the uncapped `tv`
//!    class never ends up with a lower session-weighted mean bitrate
//!    than the capped `mobile` class, and
//! 2. the dual solver held up under every finite-α objective: at most
//!    one call in a thousand ran out of sweep budget (a call that did
//!    not is one whose KKT residual closed below
//!    `lingxi_net::SOLVER_TOL`, 1e-9). The headline reports
//!    `solver_calls`, `sweeps_per_call` and `non_converged` per
//!    objective.
//!
//! Each cell's 1/4/8-shard identity is pinned by `tests/fairness_golden.rs`,
//! and each objective's kill/resume by the `fairness_*` rows of
//! `lingxi-fleet`'s `tests/contract.rs`.

use lingxi_fleet::{
    ContentionConfig, FairnessConfig, FleetConfig, FleetReport, FleetScenario, PopulationDynamics,
};
use lingxi_net::{FairnessObjective, TopoLink, Topology};
use lingxi_workload::{ArrivalKind, ClassRegistry, Diurnal, LinkClass};

use crate::report::{ExperimentResult, Series};
use crate::{ExpError, Result};
use lingxi_fleet::harness::Cell;

/// The objectives swept by the experiment, with their cell labels.
pub const OBJECTIVES: [(&str, FairnessObjective); 3] = [
    ("maxmin", FairnessObjective::MaxMin),
    ("proportional", FairnessObjective::ProportionalFair),
    ("alpha2", FairnessObjective::AlphaFair(2.0)),
];

/// Baseline arrivals per simulated day at `scale = 1`.
const BASE_ARRIVALS_PER_DAY: f64 = 6_000.0;

/// One simulated day (seconds). A compressed hour-long "day": the same
/// diurnal arrival *count* packed into 1/24 of real time, so peak-hour
/// concurrency on the pod is high enough that the sharing objective
/// actually binds (sessions average tens of seconds; at real-day
/// spreading they almost never overlap and every objective degenerates
/// to handing each solo flow its cap).
const DAY_SECONDS: f64 = 3_600.0;

/// Simulated days per cell.
const DAYS: usize = 2;

/// Largest share of dual solves that may run out of sweep budget.
const MAX_NON_CONVERGED_SHARE: f64 = 1e-3;

/// The pod topology template every path group instantiates: two access
/// links feeding a metro link into a core link, with three routes —
/// a 3-hop access path, a 2-hop metro path, and a 1-hop core path.
/// Capacities are stated at the cell-class reference (25 Mbps) and are
/// deliberately tight against the session demand so the sharing rule
/// binds (otherwise every objective hands each flow its cap and the
/// cells cannot diverge); in population-dynamics mode each group's copy
/// is rescaled by its link class (fiber groups get ×4.8 of every hop).
pub fn pod_topology() -> Result<Topology> {
    Topology::new(
        vec![
            TopoLink {
                capacity_kbps: 8_000.0,
                prop_delay_s: 0.004,
            },
            TopoLink {
                capacity_kbps: 8_000.0,
                prop_delay_s: 0.004,
            },
            TopoLink {
                capacity_kbps: 12_000.0,
                prop_delay_s: 0.008,
            },
            TopoLink {
                capacity_kbps: 16_000.0,
                prop_delay_s: 0.012,
            },
        ],
        vec![vec![0, 2, 3], vec![1, 3], vec![3]],
    )
    .map_err(crate::sub)
}

/// One fairness cell: the diurnal heterogeneous population on the pod
/// topology under `objective`.
fn cell(objective: FairnessObjective, scale: f64, seed: u64) -> Result<Cell> {
    let daily = (BASE_ARRIVALS_PER_DAY * scale).max(40.0);
    let scenario = FleetScenario {
        name: format!("fairness_{objective:?}"),
        n_users: (daily as usize).max(1),
        n_videos: 16,
        mean_sessions_per_epoch: 2.0,
        ..FleetScenario::default()
    };
    let config = FleetConfig {
        epochs: DAYS,
        seed,
        contention: Some(ContentionConfig {
            links: ((8.0 * scale).round() as usize).max(1),
            ..ContentionConfig::default()
        }),
        fairness: Some(FairnessConfig {
            objective,
            topology: pod_topology()?,
        }),
        dynamics: Some(PopulationDynamics {
            arrivals: ArrivalKind::Diurnal(Diurnal {
                base_rate: daily / DAY_SECONDS,
                amplitude: 0.7,
                peak_s: 21.0 * 3600.0,
                period_s: DAY_SECONDS,
            }),
            // Heterogeneous users, but a single pod link class at the
            // 25 Mbps reference: every path group is the same tight pod
            // (a ×1.0 topology rescale), so the objectives are compared
            // on identical plant rather than on which groups hashed to
            // fiber.
            registry: ClassRegistry {
                links: vec![LinkClass {
                    name: "pod".into(),
                    weight: 1.0,
                    capacity_kbps: 25_000.0,
                }],
                ..ClassRegistry::default_heterogeneous()
            },
            day_seconds: DAY_SECONDS,
        }),
        ..FleetConfig::default()
    };
    Ok(Cell { config, scenario })
}

/// Run one fairness cell at `shards`. Public so the golden regression
/// test can pin its bit-exact output per shard count.
pub fn run_cell(
    objective: FairnessObjective,
    scale: f64,
    shards: usize,
    seed: u64,
) -> Result<FleetReport> {
    Ok(cell(objective, scale, seed)?.run(shards)?)
}

/// Session-weighted aggregate of one class across all epochs:
/// `(stall/session, watch/session, mean bitrate)`.
fn class_qoe(report: &FleetReport, class: usize) -> (f64, f64, f64) {
    let mut stall = 0.0;
    let mut watch = 0.0;
    let mut rate_mass = 0.0;
    let mut sessions = 0usize;
    for m in report.class_metrics(class) {
        stall += m.stall_time;
        watch += m.watch_time;
        rate_mass += m.mean_bitrate * m.sessions as f64;
        sessions += m.sessions;
    }
    let per = 1.0 / (sessions as f64).max(1.0);
    (stall * per, watch * per, rate_mass * per)
}

/// Run the fairness-objective experiment.
pub fn run(seed: u64, scale: f64) -> Result<ExperimentResult> {
    let mut result = ExperimentResult::new(
        "fairness",
        "Same diurnal population under max-min / proportional-fair / alpha=2 sharing",
    );

    let mut reports: Vec<(&str, FleetReport)> = Vec::new();
    for (name, objective) in OBJECTIVES {
        reports.push((name, run_cell(objective, scale, 4, seed)?));
    }

    // Per-class QoE under each objective, plus the ordering gates.
    let class_names = reports[0].1.class_names.clone();
    let mobile = class_names.iter().position(|n| n == "mobile");
    let tv = class_names.iter().position(|n| n == "tv");
    let mut stall_spread = vec![(f64::INFINITY, f64::NEG_INFINITY); class_names.len()];
    for (obj_idx, (name, report)) in reports.iter().enumerate() {
        // Ordering gate 1: stall tail quantiles must be monotone.
        let sketches = &report.epochs.last().expect("DAYS >= 1").sketches;
        let p50 = sketches.stall.quantile(0.5).map_err(crate::sub)?;
        let p90 = sketches.stall.quantile(0.9).map_err(crate::sub)?;
        let p99 = sketches.stall.quantile(0.99).map_err(crate::sub)?;
        if !(p50 <= p90 && p90 <= p99) {
            return Err(ExpError::Subsystem(format!(
                "QoE ordering violated under {name}: stall p50/p90/p99 = {p50}/{p90}/{p99}"
            )));
        }
        result.headline_value(&format!("{name} stall p99 (s)"), p99);

        // Solver gate: non-convergence is reported and bounded, never
        // absorbed. Max-min never iterates, so its row is all zeros.
        let solver = report.solver_stats().unwrap_or_default();
        let calls = solver.calls as f64;
        if solver.non_converged as f64 > MAX_NON_CONVERGED_SHARE * calls {
            return Err(ExpError::Subsystem(format!(
                "dual solver did not hold up under {name}: {solver:?}"
            )));
        }
        result.headline_value(&format!("{name} solver_calls"), calls);
        result.headline_value(
            &format!("{name} sweeps_per_call"),
            solver.sweeps as f64 / calls.max(1.0),
        );
        result.headline_value(
            &format!("{name} non_converged"),
            solver.non_converged as f64,
        );

        // Ordering gate 2: the uncapped tv class cannot do worse on
        // bitrate than the capped mobile class under any sharing rule.
        if let (Some(m), Some(t)) = (mobile, tv) {
            let (_, _, mobile_rate) = class_qoe(report, m);
            let (_, _, tv_rate) = class_qoe(report, t);
            if tv_rate < mobile_rate {
                return Err(ExpError::Subsystem(format!(
                    "QoE ordering violated under {name}: tv bitrate {tv_rate} < mobile {mobile_rate}"
                )));
            }
        }

        for (class, spread) in stall_spread.iter_mut().enumerate() {
            let (stall, watch, _) = class_qoe(report, class);
            spread.0 = spread.0.min(stall);
            spread.1 = spread.1.max(stall);
            result.push_series(Series::from_xy(
                &format!("fairness/{}/{name}", class_names[class]),
                &[
                    (obj_idx as f64, stall),
                    (obj_idx as f64 + 0.5, watch / 60.0),
                ],
            ));
        }
    }

    // Per-class tail-stall divergence: how far the sharing rule moves
    // each class's stall-per-session across the three objectives.
    let divergence = stall_spread
        .iter()
        .map(|&(lo, hi)| hi - lo)
        .fold(0.0, f64::max);
    result.headline_value("max per-class stall divergence (s)", divergence);
    result.headline_value(
        "sessions simulated",
        reports.iter().map(|(_, r)| r.sessions).sum::<usize>() as f64,
    );
    Ok(result)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fairness_runs_at_test_scale() {
        let r = crate::smoke("fairness", 9);
        let headline = |name: &str| r.headline_named(name).unwrap();
        assert!(headline("sessions simulated") > 0.0);
        assert!(headline("max per-class stall divergence (s)") >= 0.0);
        // Max-min never runs the dual; the finite-α cells do, and report it.
        assert_eq!(headline("maxmin solver_calls"), 0.0);
        for name in ["proportional", "alpha2"] {
            assert!(headline(&format!("{name} solver_calls")) > 0.0);
            assert!(headline(&format!("{name} sweeps_per_call")) >= 1.0);
            assert_eq!(headline(&format!("{name} non_converged")), 0.0);
        }
        for class in ["mobile", "desktop", "tv"] {
            for (name, _) in OBJECTIVES {
                assert!(r
                    .series_named(&format!("fairness/{class}/{name}"))
                    .is_some());
            }
        }
    }

    #[test]
    fn pod_topology_is_multi_hop() {
        let topo = pod_topology().unwrap();
        assert_eq!(topo.n_links(), 4);
        assert_eq!(topo.n_routes(), 3);
        assert!(!topo.is_single_link());
        // The constants on record. `benchmark/src/workloads.rs::pod_topology`
        // is a copy of them in frozen source (the `fairness_alpha2`
        // workload): a change here must fail until that copy follows.
        let links: Vec<(f64, f64)> = topo
            .links()
            .iter()
            .map(|l| (l.capacity_kbps, l.prop_delay_s))
            .collect();
        assert_eq!(
            links,
            [
                (8_000.0, 0.004),
                (8_000.0, 0.004),
                (12_000.0, 0.008),
                (16_000.0, 0.012)
            ]
        );
        let routes: Vec<&[u16]> = (0..3).map(|r| topo.route(r)).collect();
        assert_eq!(routes, [&[0, 2, 3][..], &[1, 3], &[3]]);
    }
}
