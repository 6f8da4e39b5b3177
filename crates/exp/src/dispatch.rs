//! `dispatch` — the load-aware heterogeneous shard-dispatch scenario
//! (ROADMAP systems benchmark, not a paper figure): the *same* static
//! population placed on a hot-link skew — two fat links with 4× the
//! capacity of the six thin ones — under the two dispatch policies, so
//! the only thing that differs between cells is who decides which link
//! each arriving user lands on.
//!
//! `StaticHash` spreads users uniformly regardless of capacity (the
//! thin links end up 4× as loaded per unit capacity as the fat ones);
//! `Lsq` places each user on the estimated-shortest *weighted* queue
//! using link-occupancy estimates refreshed only at epoch barriers (the
//! stale-information regime of the dispatch literature). Every cell
//! runs once at 4 shards, and the run *fails* unless LSQ strictly
//! reduces the peak weighted link occupancy versus `StaticHash` on the
//! heterogeneous 1:4 skew.
//!
//! Invariance lives elsewhere: the `lsq` and `static_hash_weighted` rows
//! of `lingxi-fleet`'s `tests/contract.rs` hold 1/4/8 shards and
//! kill/resume, and `tests/dispatch_props.rs` holds the merged metrics
//! across physical dispatcher counts.

use lingxi_fleet::{
    ContentionConfig, DispatchConfig, DispatchPolicy, FleetConfig, FleetReport, FleetScenario,
};

use crate::report::{ExperimentResult, Series};
use crate::{ExpError, Result};
use lingxi_fleet::harness::Cell;

/// Links in the dispatch pod. Two of them (indices 0 and 4) are fat.
pub const LINKS: usize = 8;

/// Epochs per cell — enough barriers that the LSQ estimates settle.
const EPOCHS: usize = 3;

/// The 1:4 heterogeneous capacity skew: fat links at indices 0 and 4.
fn hetero_weights() -> Vec<f64> {
    (0..LINKS)
        .map(|q| if q % 4 == 0 { 4.0 } else { 1.0 })
        .collect()
}

/// One dispatch cell: the static population on the 8-link pod, placed by
/// `policy` over `weights`.
fn cell(policy: DispatchPolicy, weights: &[f64], scale: f64, seed: u64) -> Cell {
    let scenario = FleetScenario {
        name: format!("dispatch_{policy:?}"),
        n_users: ((4_000.0 * scale) as usize).max(160),
        n_videos: 12,
        mean_sessions_per_epoch: 2.0,
        ..FleetScenario::default()
    };
    let config = FleetConfig {
        epochs: EPOCHS,
        seed,
        contention: Some(ContentionConfig {
            links: LINKS,
            ..ContentionConfig::default()
        }),
        dispatch: Some(DispatchConfig {
            policy,
            capacity_weights: weights.to_vec(),
        }),
        ..FleetConfig::default()
    };
    Cell { config, scenario }
}

/// Peak weighted link occupancy of a dispatched cell.
fn occupancy(report: &FleetReport) -> Result<f64> {
    report.max_weighted_occupancy().ok_or_else(|| {
        ExpError::Subsystem(format!("{}: no dispatch epochs recorded", report.scenario))
    })
}

/// Run the dispatch experiment.
pub fn run(seed: u64, scale: f64) -> Result<ExperimentResult> {
    let mut result = ExperimentResult::new(
        "dispatch",
        "StaticHash vs LSQ dispatch on a 1:4 heterogeneous hot-link skew",
    );
    let hetero = hetero_weights();
    let pod = |policy: DispatchPolicy, weights: &[f64]| cell(policy, weights, scale, seed).run(4);
    let lsq = DispatchPolicy::Lsq { dispatchers: 2 };

    // The gate: LSQ must strictly beat StaticHash on peak weighted
    // occupancy under the heterogeneous skew — the whole point of
    // load-aware dispatch.
    let lsq_hetero = pod(lsq, &hetero)?;
    let static_hetero = pod(DispatchPolicy::StaticHash, &hetero)?;
    let lsq_occ = occupancy(&lsq_hetero)?;
    let static_occ = occupancy(&static_hetero)?;
    if lsq_occ >= static_occ {
        return Err(ExpError::Subsystem(format!(
            "LSQ failed to reduce peak weighted occupancy on the 1:4 skew: \
             lsq {lsq_occ} >= static {static_occ}"
        )));
    }
    result.headline_value("lsq hetero peak weighted occupancy", lsq_occ);
    result.headline_value("static hetero peak weighted occupancy", static_occ);
    result.headline_value("occupancy reduction (static / lsq)", static_occ / lsq_occ);

    // Informational uniform comparison: with no capacity skew the hash
    // is already near-balanced in expectation, so this is a headline,
    // not a gate.
    let uniform = vec![1.0; LINKS];
    let lsq_uniform = pod(lsq, &uniform)?;
    let static_uniform = pod(DispatchPolicy::StaticHash, &uniform)?;
    result.headline_value("lsq uniform peak occupancy", occupancy(&lsq_uniform)?);
    result.headline_value("static uniform peak occupancy", occupancy(&static_uniform)?);

    // Per-epoch occupancy trajectories and per-link placements of the
    // final epoch, for both hetero cells.
    for (name, report) in [("lsq", &lsq_hetero), ("static", &static_hetero)] {
        let occ_by_epoch: Vec<(f64, f64)> = report
            .dispatch_epochs()
            .iter()
            .enumerate()
            .filter_map(|(e, d)| d.map(|d| (e as f64, d.max_weighted_occupancy)))
            .collect();
        result.push_series(Series::from_xy(
            &format!("dispatch/{name}/occupancy_by_epoch"),
            &occ_by_epoch,
        ));
        if let Some(Some(last)) = report.dispatch_epochs().last() {
            let placements: Vec<(f64, f64)> = last
                .placements
                .iter()
                .enumerate()
                .map(|(q, &n)| (q as f64, n as f64))
                .collect();
            result.push_series(Series::from_xy(
                &format!("dispatch/{name}/final_placements"),
                &placements,
            ));
        }
    }
    result.headline_value(
        "sessions simulated",
        (lsq_hetero.sessions + static_hetero.sessions) as f64,
    );
    Ok(result)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dispatch_runs_at_test_scale() {
        let r = crate::smoke("dispatch", 9);
        let headline = |name: &str| r.headline_named(name).unwrap();
        assert!(headline("sessions simulated") > 0.0);
        // The gate already enforced strict improvement; the headline
        // ratio restates it.
        assert!(headline("occupancy reduction (static / lsq)") > 1.0);
        for name in ["lsq", "static"] {
            assert!(r
                .series_named(&format!("dispatch/{name}/occupancy_by_epoch"))
                .is_some());
            assert!(r
                .series_named(&format!("dispatch/{name}/final_placements"))
                .is_some());
        }
    }

    #[test]
    fn hetero_weights_are_one_to_four() {
        let w = hetero_weights();
        assert_eq!(w.len(), LINKS);
        assert_eq!(w.iter().filter(|&&x| x == 4.0).count(), 2);
        assert_eq!(w.iter().filter(|&&x| x == 1.0).count(), LINKS - 2);
    }
}
