//! Golden regression pins for the managed-session driver and the
//! Monte-Carlo evaluator.
//!
//! These exact values were captured from the implementation that
//! integrated the `BandwidthTrace` directly in the managed-session driver
//! and sampled `NormalDist` directly in the Monte-Carlo evaluator. Live
//! sessions now stream over `&dyn BandwidthProcess` and rollouts draw one
//! truncated-normal sample per virtual segment; both must keep the same
//! RNG stream and float expressions, so every assertion here is
//! *bit-exact*.
//!
//! Re-pinned once, when optimization passes moved to common random
//! numbers: a pass (and a lone `evaluate_parameters_in`, a one-candidate
//! pass) draws one seed from the caller's stream, and rollout `m` of every
//! candidate replays the stream seeded from (pass seed, `m`) — bandwidth,
//! RTT, exit uniform per segment — instead of drawing from the caller's
//! stream. Both pins moved with the draws; the session's first pass is
//! where its stream diverges.
// The literals carry every digit of the captured doubles on purpose.
#![allow(clippy::excessive_precision)]

use lingxi_abr::{Hyb, QoeParams};
use lingxi_core::{
    evaluate_parameters_in, play, ConstantPredictor, LingXiConfig, LingXiController, LingXiHooks,
    ManagedHooks, McConfig, McScratch, ProfilePredictor, SessionBuffers,
};
use lingxi_exit::UserStateTracker;
use lingxi_media::{BitrateLadder, Catalog, CatalogConfig, VbrModel};
use lingxi_net::BandwidthTrace;
use lingxi_player::{PlayerConfig, PlayerEnv, SessionSetup};
use lingxi_stats::NormalDist;
use lingxi_user::{QosExitModel, SensitivityKind, StallProfile};
use rand::rngs::StdRng;
use rand::SeedableRng;

#[test]
fn managed_session_bit_identical_to_pre_refactor() {
    let mut rng = StdRng::seed_from_u64(1);
    let cat = Catalog::generate(
        BitrateLadder::default_short_video(),
        &CatalogConfig {
            n_videos: 4,
            mean_duration: 60.0,
            vbr: VbrModel::cbr(),
            ..CatalogConfig::default()
        },
        &mut rng,
    )
    .unwrap();
    // Sub-ladder-floor bandwidth: stalls on every segment, so the session
    // exercises the optimizer path (8 deployments) and its RNG draws.
    let trace = BandwidthTrace::new(1.0, vec![300.0, 310.0, 290.0, 305.0]).unwrap();
    let profile = StallProfile::new(SensitivityKind::Insensitive, 10.0, 0.05).unwrap();
    let mut abr = Hyb::default_rule();
    let mut controller = LingXiController::new(LingXiConfig::for_hyb()).unwrap();
    let mut predictor = ProfilePredictor {
        profile,
        base: 0.002,
    };
    let mut user = QosExitModel::calibrated(profile);
    user.base_exit = 0.0;
    let mut srng = StdRng::seed_from_u64(424242);
    let setup = SessionSetup {
        user_id: 7,
        video: cat.video_cyclic(1),
        ladder: cat.ladder(),
        process: &trace,
        config: PlayerConfig::deterministic(10.0, 0.0),
    };
    let mut buffers = SessionBuffers::new();
    let mut hooks = ManagedHooks {
        abr: &mut abr,
        lingxi: Some(LingXiHooks {
            controller: &mut controller,
            predictor: &mut predictor,
        }),
        user: &mut user,
        buffers: &mut buffers,
        rng: &mut srng,
    };
    play(&setup, &mut hooks).unwrap();
    let log = buffers.log();

    assert_eq!(log.watch_time, 36.0);
    assert_eq!(log.segments.len(), 18);
    assert_eq!(log.total_stall(), 5.49610678531701957e0);
    assert_eq!(buffers.deployments().len(), 8);
    let tp_sum: f64 = log.segments.iter().map(|s| s.throughput_kbps).sum();
    assert_eq!(tp_sum, 5.42524712157330305e3);
    let dl_sum: f64 = log.segments.iter().map(|s| s.download_time).sum();
    assert_eq!(dl_sum, 4.18064516129032242e1);
}

#[test]
fn monte_carlo_rollouts_bit_identical_to_pre_refactor() {
    let ladder = BitrateLadder::default_short_video();
    let env = PlayerEnv::new(PlayerConfig::deterministic(10.0, 0.0)).unwrap();
    let tracker = UserStateTracker::new();
    let mut abr = Hyb::default_rule();
    let mut pred = ConstantPredictor { p: 0.05 };
    let mut rng = StdRng::seed_from_u64(11);
    let eval = evaluate_parameters_in(
        &mut abr,
        QoeParams::default(),
        NormalDist::new(4000.0, 1500.0).unwrap(),
        &tracker,
        &env,
        &ladder,
        &mut pred,
        &McConfig::default(),
        None,
        &mut McScratch::new(),
        &mut rng,
    )
    .unwrap();
    assert_eq!(eval.exit_rate, 4.06504065040650397e-2);
    assert_eq!(eval.watched, 123);
    assert_eq!(eval.exited, 5);
    assert_eq!(eval.mean_stall, 2.19666592626064983e0);
}
