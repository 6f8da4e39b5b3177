//! A compact version of the paper's §5.3 A/B test on the fleet engine:
//! 10 epochs ("days"), AA then AB, difference-in-differences on watch
//! time, bitrate and stall time between user-id-parity cohorts.
//!
//! Run with: `cargo run --release --example ab_experiment`

use lingxi::prelude::*;

fn main() {
    let schedule = AbSchedule::paper_default();
    let state_dir = std::env::temp_dir().join("lingxi_example_ab_state");
    // A fresh directory: leftover state would warm-start the treatment
    // cohort before its intervention.
    let _ = std::fs::remove_dir_all(&state_dir);
    let config = FleetConfig {
        epochs: schedule.days,
        seed: 77,
        state_dir: state_dir.clone(),
        ab: Some(AbSplit {
            intervention_epoch: schedule.intervention_day,
        }),
        ..FleetConfig::default()
    };
    let scenario = FleetScenario {
        name: "ab_experiment".into(),
        n_users: 2_000,
        n_videos: 30,
        abr_mix: AbrMix::all_hyb(),
        ..FleetScenario::default()
    };
    let report = FleetEngine::new(config)
        .expect("config")
        .run(&scenario)
        .expect("experiment");
    let _ = std::fs::remove_dir_all(&state_dir);
    println!(
        "cohorts: {} even-id control users, {} odd-id treatment users, {} sessions over {} days \
         (AA days 1-{})",
        report.users.div_ceil(2),
        report.users / 2,
        report.sessions,
        schedule.days,
        schedule.intervention_day
    );

    let did = report.did.expect("A/B mode reports DiD");
    for series in [&did.watch_time, &did.bitrate, &did.stall_time] {
        println!(
            "\n=== {} (relative % diff, treatment vs control) ===",
            series.name
        );
        for (d, v) in series.daily_rel_diff_pct.iter().enumerate() {
            let phase = if d < schedule.intervention_day {
                "AA"
            } else {
                "AB"
            };
            println!("  day {:>2} [{phase}]  {v:>8.3}%", d + 1);
        }
        println!(
            "  DiD effect {:+.3}% ± {:.3} (t = {:.2}, p = {:.4})",
            series.did.effect, series.did.std_err, series.did.t, series.did.p_two_sided
        );
    }
}
