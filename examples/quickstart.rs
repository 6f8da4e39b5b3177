//! Quickstart: one stall-sensitive user on a weak link, with and without
//! LingXi.
//!
//! Run with: `cargo run --release --example quickstart`
//!
//! The example plays the same videos over the same bandwidth twice — once
//! with LingXi re-tuning β after stalls, once with static HYB parameters —
//! and prints the per-session stall/watch outcomes side by side. Both arms
//! are the same `play` call: `lingxi` is `Some(..)` or `None`.

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
    let mut total_stall = [0.0; 2];
    let mut buffers = SessionBuffers::new();
    for s in 0..sessions {
        let video = catalog.video_cyclic(s);
        let mut trace_rng = StdRng::seed_from_u64(100 + s as u64);
        let trace = net
            .trace((video.duration() * 3.0) as usize, 1.0, &mut trace_rng)
            .expect("trace");
        let setup = SessionSetup {
            user_id: 1,
            video,
            ladder: catalog.ladder(),
            process: &trace,
            config: PlayerConfig::default(),
        };

        // The managed arm, then the static arm on the same video/trace.
        for (arm, name) in ["lingxi", "static"].into_iter().enumerate() {
            let lingxi = (arm == 0).then_some(LingXiHooks {
                controller: &mut controller,
                predictor: &mut predictor,
            });
            let mut abr = Hyb::default_rule();
            let mut hooks = ManagedHooks {
                abr: &mut abr,
                lingxi,
                user: &mut QosExitModel::calibrated(profile),
                buffers: &mut buffers,
                rng: &mut StdRng::seed_from_u64(1000 * (arm as u64 + 1) + s as u64),
            };
            play(&setup, &mut hooks).expect("session");
            let log = buffers.log();
            total_stall[arm] += log.total_stall();
            println!(
                "{:>7} | {:>8} | {:>8.1} | {:>8.2} | {:>6} | {:>9.2}",
                s + 1,
                name,
                log.watch_time,
                log.total_stall(),
                log.stall_count(),
                abr.beta(),
            );
        }
    }
    println!();
    println!(
        "total stall: lingxi {:.1} s vs static {:.1} s ({} optimizations ran)",
        total_stall[0],
        total_stall[1],
        controller.optimizations()
    );
}
