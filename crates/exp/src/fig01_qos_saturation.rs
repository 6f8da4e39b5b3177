//! Figure 1 — "When the garden is well-tended: QoS metrics meet their
//! limits."
//!
//! Three objective presets run side by side for five days: `Alg1`
//! (stall-averse), `Alg2` (production default) and `Alg3`
//! (quality-seeking), all on RobustMPC. The paper's observation to
//! reproduce: QoS metrics separate the variants (Alg3 wins bitrate, Alg1
//! wins stall time and `QoE_lin`) while *overall watch time shows no
//! consistent winner* — each series is normalised by the day's Alg2 value.

use lingxi_abr::{qoe_lin_of_log, Abr, QoeLin, QoeParams, RobustMpc};
use lingxi_core::{ManagedHooks, SessionBuffers};

use crate::report::{ExperimentResult, Series};
use crate::world::{user_stream, World, WorldConfig};
use crate::Result;

const DAYS: usize = 5;

struct DayTotals {
    bitrate: f64,
    stall: f64,
    qoe: f64,
    watch: f64,
}

/// Run the experiment.
pub fn run(seed: u64, scale: f64) -> Result<ExperimentResult> {
    let world = World::build(&WorldConfig::default().scaled(scale), seed)?;
    let presets = [
        ("Alg1", QoeParams::stall_averse()),
        ("Alg2", QoeParams::default()),
        ("Alg3", QoeParams::quality_seeking()),
    ];
    let qoe_eval = QoeLin::paper_default(world.ladder());

    // totals[alg][day]
    let mut totals: Vec<Vec<DayTotals>> = Vec::new();
    let mut buffers = SessionBuffers::new();
    for (alg_idx, (_, params)) in presets.iter().enumerate() {
        let mut days = Vec::with_capacity(DAYS);
        for day in 0..DAYS {
            let mut t = DayTotals {
                bitrate: 0.0,
                stall: 0.0,
                qoe: 0.0,
                watch: 0.0,
            };
            let mut sessions = 0usize;
            for user in world.population.users() {
                let salt = ((day as u64) << 24) ^ ((alg_idx as u64) << 56);
                let mut rng = user_stream(seed, user.id, salt);
                // One representative session per user-day keeps Fig. 1
                // affordable; engagement weighting happens via exit models.
                let mut exit_model = user.exit_model_for_day(&world.drift, &mut rng);
                let mut abr = RobustMpc::default_rule();
                abr.set_params(*params);
                let mut hooks = ManagedHooks {
                    abr: &mut abr,
                    lingxi: None,
                    user: &mut exit_model,
                    buffers: &mut buffers,
                    rng: &mut rng,
                };
                world.play(user, &mut hooks)?;
                let log = buffers.log();
                t.bitrate += log.mean_bitrate();
                t.stall += log.total_stall();
                t.qoe += qoe_lin_of_log(&qoe_eval, world.ladder(), log);
                t.watch += log.watch_time;
                sessions += 1;
            }
            t.bitrate /= sessions.max(1) as f64;
            days.push(t);
        }
        totals.push(days);
    }

    let mut result = ExperimentResult::new(
        "fig01",
        "QoS, QoE_lin and watch time across objective variants (5-day A/B)",
    );

    let metric = |f: &dyn Fn(&DayTotals) -> f64, name: &str, result: &mut ExperimentResult| {
        for (alg_idx, (alg, _)) in presets.iter().enumerate() {
            let points: Vec<(String, f64)> = (0..DAYS)
                .map(|d| {
                    let baseline = f(&totals[1][d]).abs().max(1e-9);
                    (format!("Day{}", d + 1), f(&totals[alg_idx][d]) / baseline)
                })
                .collect();
            result.push_series(Series {
                name: format!("{name}/{alg}"),
                points,
            });
        }
    };

    metric(&|t| t.bitrate, "norm_bitrate", &mut result);
    metric(&|t| t.stall, "norm_stall", &mut result);
    metric(&|t| t.qoe, "norm_qoe_lin", &mut result);
    metric(&|t| t.watch, "norm_watch_time", &mut result);

    // Headlines: mean relative spreads — the "0.5% to 2%" saturation claim
    // is about these being small; in the simulator they are larger but the
    // ordering is what matters.
    let mean = |alg: usize, f: &dyn Fn(&DayTotals) -> f64| {
        (0..DAYS).map(|d| f(&totals[alg][d])).sum::<f64>() / DAYS as f64
    };
    result.headline_value(
        "bitrate_ratio_alg3_over_alg1",
        mean(2, &|t| t.bitrate) / mean(0, &|t| t.bitrate).max(1e-9),
    );
    result.headline_value(
        "stall_ratio_alg1_over_alg3",
        mean(0, &|t| t.stall) / mean(2, &|t| t.stall).max(1e-9),
    );
    result.headline_value(
        "qoe_lin_alg1_minus_alg3",
        mean(0, &|t| t.qoe) - mean(2, &|t| t.qoe),
    );
    // Watch-time winner instability: count how many days each alg wins.
    let mut wins = [0usize; 3];
    for ((t0, t1), t2) in totals[0].iter().zip(&totals[1]).zip(&totals[2]) {
        let watches = [t0.watch, t1.watch, t2.watch];
        // First index wins ties, as strict `>` replacement did before.
        let mut best = 0;
        for (a, &w) in watches.iter().enumerate().skip(1) {
            if w > watches[best] {
                best = a;
            }
        }
        wins[best] += 1;
    }
    result.headline_value(
        "watch_time_max_wins_by_single_alg",
        *wins.iter().max().unwrap() as f64,
    );

    Ok(result)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig01_shape_holds_at_small_scale() {
        let r = run(11, 0.05).unwrap();
        assert_eq!(r.fingerprint(), 0xc903_4fb2_532b_d8f6);
        // 4 metrics × 3 algorithms.
        assert_eq!(r.series.len(), 12);
        // Alg3 (quality-seeking) should not lose on bitrate to Alg1.
        let ratio = r.headline_named("bitrate_ratio_alg3_over_alg1").unwrap();
        assert!(ratio >= 0.98, "bitrate ratio {ratio}");
        // Alg1 should not stall more than Alg3.
        let stall_ratio = r.headline_named("stall_ratio_alg1_over_alg3").unwrap();
        assert!(stall_ratio <= 1.1, "stall ratio {stall_ratio}");
        // Normalised series are positive.
        for s in &r.series {
            assert!(s.ys().iter().all(|&y| y >= 0.0), "series {}", s.name);
        }
    }
}
