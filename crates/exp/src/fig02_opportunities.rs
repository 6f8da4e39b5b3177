//! Figure 2 — "Optimization Opportunities in Production System."
//!
//! (a) CDF of per-user mean bandwidth against the maximum ladder bitrate:
//! only ~10% of users average below it. (b) CDF of per-user daily stall
//! counts: >90% stall-free, >99% with at most two stalls.

use lingxi_abr::Hyb;
use lingxi_core::{ManagedHooks, SessionBuffers};
use lingxi_stats::Ecdf;
use lingxi_user::UserRecord;
use rand::rngs::StdRng;

use crate::report::{ExperimentResult, Series};
use crate::world::{user_stream, World, WorldConfig};
use crate::{sub, Result};

/// The stalls `user` meets in one simulated day of plain sessions on the
/// default production HYB configuration, drawn from `rng`. Production
/// counters exclude the unavoidable startup fill, so only mid-playback
/// stalls count. (Fig. 8(a) plots the same count per bandwidth bucket.)
pub(crate) fn daily_stall_count(
    world: &World,
    user: &UserRecord,
    mut rng: StdRng,
    buffers: &mut SessionBuffers,
) -> Result<usize> {
    let sessions = user.sessions_today(&mut rng);
    let mut exit_model = user.exit_model();
    let mut stalls = 0usize;
    for _ in 0..sessions {
        let mut hooks = ManagedHooks {
            abr: &mut Hyb::default_rule(),
            lingxi: None,
            user: &mut exit_model,
            buffers: &mut *buffers,
            rng: &mut rng,
        };
        world.play(user, &mut hooks)?;
        let played = &buffers.log().segments;
        stalls += played
            .iter()
            .skip(1)
            .filter(|s| s.stall_time > 0.05)
            .count();
    }
    Ok(stalls)
}

/// Run the experiment.
pub fn run(seed: u64, scale: f64) -> Result<ExperimentResult> {
    let world = World::build(&WorldConfig::default().scaled(scale), seed)?;
    let max_bitrate = world.ladder().max_bitrate();

    // (a) Bandwidth CDF.
    let bw: Vec<f64> = world
        .population
        .users()
        .iter()
        .map(|u| u.net.mean_kbps / 1000.0) // Mbps for the plot
        .collect();
    let bw_cdf = Ecdf::new(&bw).map_err(sub)?;
    let below_max =
        bw.iter().filter(|&&b| b * 1000.0 < max_bitrate).count() as f64 / bw.len() as f64;

    // (b) Daily stall counts per user: one simulated day on the default
    // production HYB configuration.
    let mut stall_counts: Vec<f64> = Vec::with_capacity(world.population.len());
    let mut buffers = SessionBuffers::new();
    for user in world.population.users() {
        let rng = user_stream(seed, user.id, 0xF16);
        stall_counts.push(daily_stall_count(&world, user, rng, &mut buffers)? as f64);
    }
    let stall_cdf = Ecdf::new(&stall_counts).map_err(sub)?;

    let mut result = ExperimentResult::new(
        "fig02",
        "Bandwidth CDF vs max bitrate; daily stall-count CDF",
    );
    result.push_series(Series::from_xy(
        "bandwidth_cdf_mbps",
        &bw_cdf.on_grid(0.0, 50.0, 26).map_err(sub)?,
    ));
    result.push_series(Series::from_xy(
        "stall_count_cdf",
        &stall_cdf.on_grid(0.0, 10.0, 11).map_err(sub)?,
    ));
    result.headline_value("frac_users_below_max_bitrate", below_max);
    result.headline_value("frac_stall_free_users", stall_cdf.eval(0.0));
    result.headline_value("frac_at_most_two_stalls", stall_cdf.eval(2.0));
    Ok(result)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig02_matches_paper_shape() {
        let r = run(3, 0.1).unwrap();
        assert_eq!(r.fingerprint(), 0xe703_b1ef_5788_da7c);
        let below = r.headline_named("frac_users_below_max_bitrate").unwrap();
        // Paper: ~10% below max bitrate (mixture gives 10–30% at small n).
        assert!(below > 0.02 && below < 0.40, "below-max {below}");
        // Most users stall-free; nearly all ≤ 2 stalls.
        let stall_free = r.headline_named("frac_stall_free_users").unwrap();
        let le2 = r.headline_named("frac_at_most_two_stalls").unwrap();
        assert!(stall_free > 0.5, "stall-free {stall_free}");
        assert!(le2 >= stall_free);
        assert!(le2 > 0.7, "≤2 stalls {le2}");
        // CDFs are monotone.
        for name in ["bandwidth_cdf_mbps", "stall_count_cdf"] {
            let ys = r.series_named(name).unwrap().ys();
            assert!(ys.windows(2).all(|w| w[1] >= w[0] - 1e-12));
        }
    }
}
