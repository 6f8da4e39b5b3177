//! Figure 5 — "Personalized Perception of Stall."
//!
//! (a) CDF of users' average tolerable stall time plus the CDF of
//! day-to-day tolerance differences; (b) exit-rate-vs-stall-time curves
//! for representative users of the three archetypes (sensitive /
//! threshold-sensitive / insensitive).

use lingxi_stats::Ecdf;
use lingxi_user::{SensitivityKind, StallProfile};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::report::{ExperimentResult, Series};
use crate::world::{World, WorldConfig};
use crate::{sub, Result};

/// Run the experiment.
pub fn run(seed: u64, scale: f64) -> Result<ExperimentResult> {
    let world = World::build(
        &WorldConfig {
            n_users: 2000,
            ..WorldConfig::default()
        }
        .scaled(scale),
        seed,
    )?;

    // (a) Tolerable-stall CDF and day-to-day drift CDF.
    let tolerances: Vec<f64> = world
        .population
        .users()
        .iter()
        .map(|u| u.stall.tolerable_stall())
        .collect();
    let tol_cdf = Ecdf::new(&tolerances).map_err(sub)?;
    let mut rng = StdRng::seed_from_u64(seed ^ 0xF05);
    let drifts: Vec<f64> = world
        .population
        .users()
        .iter()
        .map(|u| {
            let day1 = u.stall.drifted(world.drift.sample_delta(&mut rng));
            let day2 = u.stall.drifted(world.drift.sample_delta(&mut rng));
            (day1.tolerable_stall() - day2.tolerable_stall()).abs()
        })
        .collect();
    let drift_cdf = Ecdf::new(&drifts).map_err(sub)?;

    let mut result = ExperimentResult::new(
        "fig05",
        "Tolerable stall time CDF, day-to-day drift, archetype curves",
    );
    result.push_series(Series::from_xy(
        "tolerable_stall_cdf",
        &tol_cdf.on_grid(0.0, 20.0, 21).map_err(sub)?,
    ));
    result.push_series(Series::from_xy(
        "day_diff_cdf",
        &drift_cdf.on_grid(0.0, 20.0, 21).map_err(sub)?,
    ));

    // (b) Archetype response curves (exit probability vs stall seconds).
    let archetypes = [
        (
            "sensitive",
            StallProfile::new(SensitivityKind::Sensitive, 1.2, 0.35).map_err(sub)?,
        ),
        (
            "sensitive_to_thres",
            StallProfile::new(SensitivityKind::ThresholdSensitive, 4.0, 0.3).map_err(sub)?,
        ),
        (
            "insensitive",
            StallProfile::new(SensitivityKind::Insensitive, 6.0, 0.18).map_err(sub)?,
        ),
    ];
    for (name, profile) in archetypes {
        let pts: Vec<(f64, f64)> = (0..=16)
            .map(|i| {
                let t = i as f64 * 0.5;
                (t, profile.response(t))
            })
            .collect();
        result.push_series(Series::from_xy(&format!("user_case/{name}"), &pts));
    }

    // Headlines: the population shares of Fig. 5(a).
    result.headline_value("frac_tolerance_below_2s", tol_cdf.eval(2.0));
    result.headline_value("frac_tolerance_above_5s", 1.0 - tol_cdf.eval(5.0));
    result.headline_value("frac_tolerance_above_10s", 1.0 - tol_cdf.eval(10.0));
    result.headline_value("frac_drift_below_1s", drift_cdf.eval(1.0));
    Ok(result)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig05_population_shares() {
        let r = run(2, 0.2).unwrap();
        assert_eq!(r.fingerprint(), 0x98c3_cbcc_aac2_a7f9);
        let get = |k: &str| r.headline_named(k).unwrap();
        // Fig. 5a: ~20% minimal tolerance; ~20% > 5 s; ~10% > 10 s.
        assert!((get("frac_tolerance_below_2s") - 0.2).abs() < 0.15);
        assert!(get("frac_tolerance_above_5s") > 0.12);
        assert!(get("frac_tolerance_above_10s") > 0.03);
        // Most users stable day to day.
        assert!(get("frac_drift_below_1s") > 0.35);
    }

    #[test]
    fn fig05_archetype_curves_differ() {
        let r = run(2, 0.1).unwrap();
        let sens = r.series_named("user_case/sensitive").unwrap().ys();
        let thres = r.series_named("user_case/sensitive_to_thres").unwrap().ys();
        let insens = r.series_named("user_case/insensitive").unwrap().ys();
        // At 2 s (index 4): sensitive reacts hard, threshold not yet.
        assert!(sens[4] > thres[4]);
        // At 8 s (index 16): threshold has jumped above insensitive.
        assert!(thres[16] > insens[16]);
        // All monotone non-decreasing.
        for ys in [&sens, &thres, &insens] {
            assert!(ys.windows(2).all(|w| w[1] >= w[0] - 1e-12));
        }
    }
}
