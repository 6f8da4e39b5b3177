//! Personalization in action: three users with different stall tolerance
//! share the same network, and LingXi learns a different β for each.
//!
//! Run with: `cargo run --release --example personalized_streaming`
//!
//! Also demonstrates the deployment state machinery of §4: each user's
//! long-term state is persisted to a `BinaryStateLog` and restored from a
//! fresh handle on the same directory, as the production client does
//! across app restarts.

use lingxi::core::{BinLogConfig, BinaryStateLog, StateBackend};
use lingxi::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let mut rng = StdRng::seed_from_u64(21);
    let catalog = Catalog::generate(
        BitrateLadder::default_short_video(),
        &CatalogConfig {
            n_videos: 8,
            ..CatalogConfig::default()
        },
        &mut rng,
    )
    .expect("catalog");
    let net = UserNetProfile {
        class: NetClass::Constrained,
        mean_kbps: 1000.0,
        cv: 0.6,
    };
    let users = [
        (
            "impatient",
            StallProfile::new(SensitivityKind::Sensitive, 1.0, 0.7).expect("profile"),
        ),
        (
            "threshold-4s",
            StallProfile::new(SensitivityKind::ThresholdSensitive, 4.0, 0.6).expect("profile"),
        ),
        (
            "patient",
            StallProfile::new(SensitivityKind::Insensitive, 9.0, 0.15).expect("profile"),
        ),
    ];

    // A log is created only in an absent or empty directory.
    let state_dir =
        std::env::temp_dir().join(format!("lingxi_example_state_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&state_dir);
    let log = BinaryStateLog::open(&state_dir, BinLogConfig::default()).expect("state log");
    let mut saved = Vec::new();

    println!(
        "{:<14} {:>9} {:>12} {:>14}",
        "user", "sessions", "final beta", "optimizations"
    );
    for (uid, (name, profile)) in users.iter().enumerate() {
        let mut controller = LingXiController::new(LingXiConfig::for_hyb()).expect("controller");
        let mut predictor = ProfilePredictor {
            profile: *profile,
            base: 0.01,
        };
        let sessions = 14;
        let mut user_rng = StdRng::seed_from_u64(500 + uid as u64);
        let mut buffers = SessionBuffers::new();
        for s in 0..sessions {
            let video = catalog.video_cyclic(s);
            let trace = net
                .trace((video.duration() * 3.0) as usize, 1.0, &mut user_rng)
                .expect("trace");
            let setup = SessionSetup {
                user_id: uid as u64,
                video,
                ladder: catalog.ladder(),
                process: &trace,
                config: PlayerConfig::default(),
            };
            let mut hooks = ManagedHooks {
                abr: &mut Hyb::default_rule(),
                lingxi: Some(LingXiHooks {
                    controller: &mut controller,
                    predictor: &mut predictor,
                }),
                user: &mut QosExitModel::calibrated(*profile),
                buffers: &mut buffers,
                rng: &mut user_rng,
            };
            play(&setup, &mut hooks).expect("session");
        }
        // Persist long-term state (the app-termination hook of §4).
        let state = LongTermState {
            user_id: uid as u64,
            tracker: controller.tracker().clone(),
            params: controller.params(),
            optimizations: controller.optimizations(),
        };
        log.save(&state).expect("save");
        saved.push(state);
        println!(
            "{:<14} {:>9} {:>12.3} {:>14}",
            name,
            sessions,
            controller.params().beta,
            controller.optimizations()
        );
    }
    // Appends are durable only once flushed; a dropped buffer is lost.
    log.flush().expect("flush");
    drop(log);

    // App relaunch: a fresh handle recovers every user's state, and a
    // controller restored from it carries the tuned parameters.
    let log = BinaryStateLog::open(&state_dir, BinLogConfig::default()).expect("reopen");
    let restored = saved
        .iter()
        .filter(|&state| match log.load(state.user_id).expect("load") {
            Some(back) if back == *state => {
                LingXiController::with_state(LingXiConfig::for_hyb(), back.tracker, back.params)
                    .expect("controller")
                    .params()
                    == state.params
            }
            _ => false,
        })
        .count();
    println!("\nrestored {restored}/{} users", saved.len());
    drop(log);
    let _ = std::fs::remove_dir_all(&state_dir);
}
