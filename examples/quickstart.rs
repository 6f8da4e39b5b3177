//! Quickstart: one stall-sensitive user on a weak link, with and without
//! LingXi.
//!
//! Run with: `cargo run --release --example quickstart`
//!
//! The example plays the same videos over the same bandwidth twice — once
//! with static HYB parameters, once with LingXi re-tuning β after stalls —
//! and prints the per-session stall/watch outcomes side by side.

use lingxi::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let mut rng = StdRng::seed_from_u64(7);

    // --- World: a small catalog and a bursty 1.2 Mbps link. -------------
    let catalog = Catalog::generate(
        BitrateLadder::default_short_video(),
        &CatalogConfig {
            n_videos: 6,
            mean_duration: 40.0,
            ..CatalogConfig::default()
        },
        &mut rng,
    )
    .expect("catalog");
    let net = UserNetProfile {
        class: NetClass::Constrained,
        mean_kbps: 1200.0,
        cv: 0.6,
    };

    // --- User: exits quickly once stalls exceed ~2 s. -------------------
    let profile = StallProfile::new(SensitivityKind::Sensitive, 2.0, 0.6).expect("profile");

    // --- LingXi: HYB under management. -----------------------------------
    let mut controller = LingXiController::new(LingXiConfig::for_hyb()).expect("config");
    let mut predictor = ProfilePredictor {
        profile,
        base: 0.01,
    };

    println!("session |      arm | watch(s) | stall(s) | stalls | beta_after");
    println!("--------+----------+----------+----------+--------+-----------");
    let sessions = 10;
    let mut managed_stall = 0.0;
    let mut static_stall = 0.0;
    for s in 0..sessions {
        let video = catalog.video_cyclic(s);
        let mut trace_rng = StdRng::seed_from_u64(100 + s as u64);
        let trace = net
            .trace((video.duration() * 3.0) as usize, 1.0, &mut trace_rng)
            .expect("trace");

        // Managed arm.
        let mut abr = Hyb::default_rule();
        let mut user = QosExitModel::calibrated(profile);
        let mut arm_rng = StdRng::seed_from_u64(1000 + s as u64);
        let managed = run_managed_session(
            1,
            video,
            catalog.ladder(),
            &trace,
            PlayerConfig::default(),
            &mut abr,
            &mut controller,
            &mut predictor,
            &mut user,
            &mut arm_rng,
        )
        .expect("managed session");
        managed_stall += managed.log.total_stall();
        println!(
            "{:>7} | {:>8} | {:>8.1} | {:>8.2} | {:>6} | {:>9.2}",
            s + 1,
            "lingxi",
            managed.log.watch_time,
            managed.log.total_stall(),
            managed.log.stall_count(),
            controller.params().beta,
        );

        // Static arm on the same video/trace.
        let mut abr2 = Hyb::default_rule();
        let mut user2 = QosExitModel::calibrated(profile);
        let mut arm_rng2 = StdRng::seed_from_u64(2000 + s as u64);
        let ladder = catalog.ladder();
        let setup = SessionSetup {
            user_id: 1,
            video,
            ladder,
            process: &trace,
            config: PlayerConfig::default(),
        };
        let log = run_session(
            &setup,
            drive(&mut abr2, ladder, &video.sizes),
            consult(&mut user2, ladder),
            &mut arm_rng2,
        )
        .expect("static session");
        static_stall += log.total_stall();
        println!(
            "{:>7} | {:>8} | {:>8.1} | {:>8.2} | {:>6} | {:>9.2}",
            s + 1,
            "static",
            log.watch_time,
            log.total_stall(),
            log.stall_count(),
            0.80,
        );
    }
    println!();
    println!(
        "total stall: lingxi {managed_stall:.1} s vs static {static_stall:.1} s \
         ({} optimizations ran)",
        controller.optimizations()
    );
}
