//! Cross-crate integration tests: the full LingXi pipeline end to end.

use lingxi::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn small_catalog(seed: u64) -> Catalog {
    let mut rng = StdRng::seed_from_u64(seed);
    Catalog::generate(
        BitrateLadder::default_short_video(),
        &CatalogConfig {
            n_videos: 6,
            mean_duration: 40.0,
            vbr: VbrModel::default_vbr(),
            ..CatalogConfig::default()
        },
        &mut rng,
    )
    .expect("catalog")
}

#[test]
fn full_managed_pipeline_reduces_stalls_for_sensitive_user() {
    let catalog = small_catalog(1);
    let profile = StallProfile::new(SensitivityKind::Sensitive, 1.5, 0.6).unwrap();
    let net = UserNetProfile {
        class: NetClass::Constrained,
        mean_kbps: 1100.0,
        cv: 0.6,
    };

    let run_arm = |managed: bool, seed: u64| -> f64 {
        let mut controller = LingXiController::new(LingXiConfig::for_hyb()).unwrap();
        let mut predictor = ProfilePredictor {
            profile,
            base: 0.01,
        };
        let mut total_stall = 0.0;
        let mut buffers = SessionBuffers::new();
        for s in 0..16 {
            let video = catalog.video_cyclic(s);
            let mut trace_rng = StdRng::seed_from_u64(9000 + s as u64);
            let trace = net
                .trace((video.duration() * 3.0) as usize, 1.0, &mut trace_rng)
                .unwrap();
            let setup = SessionSetup {
                user_id: 1,
                video,
                ladder: catalog.ladder(),
                process: &trace,
                config: PlayerConfig::default(),
            };
            // The static arm is the same call with LingXi absent.
            let lingxi = managed.then_some(LingXiHooks {
                controller: &mut controller,
                predictor: &mut predictor,
            });
            let mut hooks = ManagedHooks {
                abr: &mut Hyb::default_rule(),
                lingxi,
                user: &mut QosExitModel::calibrated(profile),
                buffers: &mut buffers,
                rng: &mut StdRng::seed_from_u64(seed + s as u64),
            };
            play(&setup, &mut hooks).unwrap();
            total_stall += buffers.log().total_stall();
        }
        total_stall
    };

    let stall_managed = run_arm(true, 100);
    let stall_static = run_arm(false, 100);
    assert!(
        stall_managed < stall_static * 1.1,
        "managed stall {stall_managed:.1} should not exceed static {stall_static:.1}"
    );
}

#[test]
fn long_term_state_roundtrips_through_store() {
    use lingxi::core::{BinLogConfig, BinaryStateLog, StateBackend};

    let catalog = small_catalog(2);
    let profile = StallProfile::new(SensitivityKind::Sensitive, 2.0, 0.5).unwrap();
    let net = UserNetProfile {
        class: NetClass::Constrained,
        mean_kbps: 900.0,
        cv: 0.5,
    };
    let mut controller = LingXiController::new(LingXiConfig::for_hyb()).unwrap();
    let mut predictor = ProfilePredictor {
        profile,
        base: 0.01,
    };
    let mut rng = StdRng::seed_from_u64(7);
    for s in 0..6 {
        let video = catalog.video_cyclic(s);
        let trace = net
            .trace((video.duration() * 3.0) as usize, 1.0, &mut rng)
            .unwrap();
        let setup = SessionSetup {
            user_id: 42,
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
            user: &mut QosExitModel::calibrated(profile),
            buffers: &mut SessionBuffers::new(),
            rng: &mut rng,
        };
        play(&setup, &mut hooks).unwrap();
    }
    let dir = std::env::temp_dir().join(format!("lingxi_it_state_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let state = LongTermState {
        user_id: 42,
        tracker: controller.tracker().clone(),
        params: controller.params(),
        optimizations: controller.optimizations(),
    };
    {
        let log = BinaryStateLog::open(&dir, BinLogConfig::default()).unwrap();
        log.save(&state).unwrap();
        // Appends are durable only once flushed; a dropped buffer is lost.
        log.flush().unwrap();
    }
    // A fresh handle stands in for the app relaunch; the codec is bit-exact.
    let log = BinaryStateLog::open(&dir, BinLogConfig::default()).unwrap();
    let restored = log.load(42).unwrap().expect("state saved");
    assert_eq!(restored, state);
    // A controller restored from the state carries the tuned parameters.
    let c2 =
        LingXiController::with_state(LingXiConfig::for_hyb(), restored.tracker, restored.params)
            .unwrap();
    assert_eq!(c2.params(), controller.params());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn predictor_training_pipeline_end_to_end() {
    // media → net → player → user → exit: build a labelled dataset from
    // simulated playback and train the Fig. 7 predictor on it.
    use lingxi::exp::datasets::harvest_entries;
    use lingxi::exp::world::{stall_heavy_mixture, World, WorldConfig};

    let world = World::build(
        &WorldConfig {
            n_users: 60,
            n_videos: 15,
            mean_sessions_per_day: 8.0,
            mixture: stall_heavy_mixture(),
        },
        3,
    )
    .unwrap();
    let harvested = harvest_entries(&world, 3, 2).unwrap();
    let raw: Vec<_> = harvested.into_iter().map(|h| h.entry).collect();
    let ds = ExitDataset::new(&raw, DatasetFlavor::Stall).unwrap();
    assert!(ds.len() > 100, "stall dataset too small: {}", ds.len());
    let mut rng = StdRng::seed_from_u64(4);
    let (train, test) = ds.split(&mut rng).unwrap();
    let balanced = ds.balance(&train, &mut rng).unwrap();
    let mut predictor = ExitPredictor::new(PredictorConfig::small(), &mut rng).unwrap();
    predictor.train(&ds, &balanced, &mut rng).unwrap();
    let report = predictor.evaluate(&ds, &test);
    assert!(report.accuracy > 0.5, "accuracy {}", report.accuracy);
    assert!(report.recall > 0.4, "recall {}", report.recall);
}

#[test]
fn ab_engine_runs_lingxi_vs_static_end_to_end() {
    use lingxi::core::{BinLogConfig, BinaryStateLog, StateBackend};
    use lingxi::fleet::harness::{Cell, ScratchDir};
    use lingxi::fleet::{RunControl, RunOutcome};

    const N_USERS: usize = 240;
    const INTERVENTION: usize = 5;
    let cell = Cell {
        config: FleetConfig {
            epochs: 10,
            seed: 6,
            ab: Some(AbSplit {
                intervention_epoch: INTERVENTION,
            }),
            ..FleetConfig::default()
        },
        scenario: FleetScenario {
            name: "ab".into(),
            n_users: N_USERS,
            n_videos: 12,
            abr_mix: AbrMix::all_hyb(),
            ..FleetScenario::default()
        },
    };
    let dir = ScratchDir::claim();
    let persisted = || {
        let log = BinaryStateLog::open(dir.path(), BinLogConfig::default()).unwrap();
        log.scan().unwrap().ids
    };

    // AA phase, killed at the intervention barrier: both cohorts played
    // static HYB, so no user has LingXi state yet.
    let aa = RunControl {
        resume: false,
        stop_after_epochs: Some(INTERVENTION),
    };
    assert!(matches!(
        cell.run_in(dir.path(), 2, aa).unwrap(),
        RunOutcome::Suspended(_)
    ));
    assert_eq!(persisted(), Vec::<u64>::new());

    // AB phase: the treatment (odd-id) cohort is managed, and every user
    // plays every epoch — exactly that cohort has persisted state.
    let ab = RunControl {
        resume: true,
        stop_after_epochs: None,
    };
    let RunOutcome::Complete(report) = cell.run_in(dir.path(), 2, ab).unwrap() else {
        panic!("the resumed run completes");
    };
    let treatment: Vec<u64> = (0..N_USERS as u64).filter(|id| id % 2 == 1).collect();
    assert_eq!(persisted(), treatment);

    let did = report.did.expect("A/B mode reports DiD");
    assert!(
        did.stall_time.did.effect < 0.0,
        "LingXi must cut stall time: DiD {}",
        did.stall_time.did.effect
    );
}

#[test]
fn pensieve_policy_tunable_at_inference() {
    // The §5.2 augmentation: changing QoeParams changes Pensieve's chosen
    // level distribution without retraining.
    let catalog = small_catalog(8);
    let mut rng = StdRng::seed_from_u64(9);
    let mut policy = Pensieve::new(PensieveConfig::default(), &mut rng).unwrap();
    let trainer = lingxi::abr::PensieveTrainer {
        episodes_per_epoch: 8,
        epochs: 6,
        episode_segments: 20,
        ..Default::default()
    };
    trainer
        .train(&mut policy, catalog.ladder(), &mut rng)
        .unwrap();
    // Same state, two parameterisations: outputs must be valid levels and
    // the probability vectors must differ.
    let env = PlayerEnv::new(PlayerConfig::default()).unwrap();
    let video = catalog.video_cyclic(0);
    let ctx = AbrContext {
        ladder: catalog.ladder(),
        sizes: &video.sizes,
        next_segment: 0,
        segment_duration: 2.0,
    };
    policy.set_params(QoeParams::stall_averse());
    let p1 = policy.action_probs(&env, &ctx);
    policy.set_params(QoeParams::quality_seeking());
    let p2 = policy.action_probs(&env, &ctx);
    assert_eq!(p1.len(), 4);
    let diff: f64 = p1.iter().zip(&p2).map(|(a, b)| (a - b).abs()).sum();
    assert!(diff > 1e-9, "params must influence the policy");
}
