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
//! stale-information regime of the dispatch literature). The run
//! *fails* unless
//!
//! 1. the LSQ cell is bit-identical across 1, 4 and 8 shards **and**
//!    across 1, 2 and 4 physical dispatchers (scalars and sketches), and
//! 2. LSQ strictly reduces the peak weighted link occupancy versus
//!    `StaticHash` on the heterogeneous 1:4 skew.

use lingxi_fleet::{
    AbrMix, ContentionConfig, DispatchConfig, DispatchPolicy, FleetConfig, FleetReport,
    FleetScenario,
};
use lingxi_net::ProductionMixture;

use crate::report::{ExperimentResult, Series};
use crate::{ExpError, Result};

/// Links in the dispatch pod. Two of them (indices 0 and 4) are fat.
pub const LINKS: usize = 8;

/// Epochs per cell — enough barriers that the LSQ estimates settle.
const EPOCHS: usize = 3;

/// The 1:4 heterogeneous capacity skew: fat links at indices 0 and 4.
pub fn hetero_weights() -> Vec<f64> {
    (0..LINKS)
        .map(|q| if q % 4 == 0 { 4.0 } else { 1.0 })
        .collect()
}

/// Run one dispatch cell: the static population on the 8-link pod under
/// the given dispatch layer. Public so smoke/golden tests can pin
/// per-cell output.
pub fn run_cell(
    dispatch: DispatchConfig,
    scale: f64,
    shards: usize,
    seed: u64,
    tag: &str,
) -> Result<FleetReport> {
    let scale = scale.clamp(0.001, 10.0);
    let scenario = FleetScenario {
        name: format!("dispatch_{tag}"),
        n_users: ((4_000.0 * scale) as usize).max(160),
        n_videos: 12,
        mean_sessions_per_epoch: 2.0,
        mixture: ProductionMixture::default(),
        abr_mix: AbrMix::default(),
    };
    let config = FleetConfig {
        shards,
        epochs: EPOCHS,
        seed,
        contention: Some(ContentionConfig {
            links: LINKS,
            capacity_kbps: 25_000.0,
            arrival_window: 30.0,
            access_cap_factor: 1.5,
        }),
        dispatch: Some(dispatch),
        ..FleetConfig::default()
    };
    crate::run_fleet_cell(
        &format!("dispatch_{tag}_s{seed}_n{shards}"),
        config,
        &scenario,
    )
}

/// Bit-exact equality of two cells (merged scalars and sketches).
fn bit_equal(a: &FleetReport, b: &FleetReport) -> bool {
    a.merged_metrics() == b.merged_metrics()
        && a.merged_sketches() == b.merged_sketches()
        && a.sessions == b.sessions
        && a.segments == b.segments
}

/// Peak weighted link occupancy of a dispatched cell.
fn occupancy(report: &FleetReport, tag: &str) -> Result<f64> {
    report
        .max_weighted_occupancy()
        .ok_or_else(|| ExpError::Subsystem(format!("{tag}: no dispatch epochs recorded")))
}

/// Run the dispatch experiment.
pub fn run(seed: u64, scale: f64) -> Result<ExperimentResult> {
    let mut result = ExperimentResult::new(
        "dispatch",
        "StaticHash vs LSQ dispatch on a 1:4 heterogeneous hot-link skew",
    );
    let hetero = hetero_weights();
    let lsq = |dispatchers: usize, weights: &[f64]| DispatchConfig {
        policy: DispatchPolicy::Lsq { dispatchers },
        capacity_weights: weights.to_vec(),
    };
    let static_hash = |weights: &[f64]| DispatchConfig {
        policy: DispatchPolicy::StaticHash,
        capacity_weights: weights.to_vec(),
    };

    // Gate 1a: the LSQ cell must be bit-exact for any shard count.
    let lsq_one = run_cell(lsq(2, &hetero), scale, 1, seed, "lsq_hetero_1")?;
    let lsq_hetero = run_cell(lsq(2, &hetero), scale, 4, seed, "lsq_hetero_4")?;
    let lsq_eight = run_cell(lsq(2, &hetero), scale, 8, seed, "lsq_hetero_8")?;
    if !bit_equal(&lsq_one, &lsq_hetero) || !bit_equal(&lsq_one, &lsq_eight) {
        return Err(ExpError::Subsystem(format!(
            "dispatch shard invariance violated under LSQ: 1/4/8 shards gave {}/{}/{} sessions",
            lsq_one.sessions, lsq_hetero.sessions, lsq_eight.sessions
        )));
    }

    // Gate 1b: the physical dispatcher count must not move a placement —
    // it only regroups the pinned logical streams.
    let lsq_d1 = run_cell(lsq(1, &hetero), scale, 4, seed, "lsq_hetero_d1")?;
    let lsq_d4 = run_cell(lsq(4, &hetero), scale, 4, seed, "lsq_hetero_d4")?;
    if !bit_equal(&lsq_hetero, &lsq_d1) || !bit_equal(&lsq_hetero, &lsq_d4) {
        return Err(ExpError::Subsystem(format!(
            "dispatch dispatcher invariance violated under LSQ: 1/2/4 dispatchers gave {}/{}/{} sessions",
            lsq_d1.sessions, lsq_hetero.sessions, lsq_d4.sessions
        )));
    }
    result.headline_value("shard+dispatcher invariance (1 = identical)", 1.0);

    // Gate 2: LSQ must strictly beat StaticHash on peak weighted
    // occupancy under the heterogeneous skew — the whole point of
    // load-aware dispatch.
    let static_hetero = run_cell(static_hash(&hetero), scale, 4, seed, "static_hetero")?;
    let lsq_occ = occupancy(&lsq_hetero, "lsq_hetero")?;
    let static_occ = occupancy(&static_hetero, "static_hetero")?;
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
    let lsq_uniform = run_cell(lsq(2, &uniform), scale, 4, seed, "lsq_uniform")?;
    let static_uw = run_cell(static_hash(&uniform), scale, 4, seed, "static_uw")?;
    result.headline_value(
        "lsq uniform peak occupancy",
        occupancy(&lsq_uniform, "lsq_uniform")?,
    );
    result.headline_value(
        "static uniform peak occupancy",
        occupancy(&static_uw, "static_uw")?,
    );

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
        let r = run(9, 0.02).unwrap();
        let headline = |name: &str| {
            r.headline
                .iter()
                .find(|(k, _)| k == name)
                .map(|(_, v)| *v)
                .unwrap()
        };
        assert_eq!(headline("shard+dispatcher invariance (1 = identical)"), 1.0);
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
