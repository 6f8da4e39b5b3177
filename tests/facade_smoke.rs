//! Facade smoke test: the `lingxi::prelude` re-exports resolve and the
//! README/lib.rs quickstart path (`Catalog::generate` → `play`) runs
//! deterministically and fast.

use std::time::Instant;

use lingxi::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Every prelude name referenced by type or value position, so a future
/// re-export regression is a compile error here rather than a downstream
/// user surprise.
#[test]
fn prelude_reexports_resolve() {
    // abr
    let _: ThroughputRule = ThroughputRule::default_rule();
    let _: Bba = Bba::default_rule();
    let _: Bola = Bola::default_rule();
    let _: Hyb = Hyb::default_rule();
    let _: RobustMpc = RobustMpc::default_rule();
    let _: QoeParams = QoeParams::default();
    let _ = PensieveConfig::default();
    let mut rng = StdRng::seed_from_u64(0);
    let pensieve: Pensieve = Pensieve::new(PensieveConfig::default(), &mut rng).unwrap();
    let _: Box<dyn Abr> = Box::new(pensieve);
    let _ = QoeLin::from_params(&QoeParams::default());
    // media
    let ladder: BitrateLadder = BitrateLadder::default_short_video();
    let _: CatalogConfig = CatalogConfig::default();
    let _: VbrModel = VbrModel::default_vbr();
    let _: QualityTier = QualityTier::Sd;
    let sizes: SegmentSizes =
        SegmentSizes::generate(&ladder, 4, 2.0, &VbrModel::cbr(), &mut rng).unwrap();
    let _ = sizes.n_segments();
    // net
    let _: BandwidthTrace = BandwidthTrace::constant(1000.0, 10, 1.0).unwrap();
    let _: UserNetProfile = UserNetProfile {
        class: NetClass::Wifi,
        mean_kbps: 5000.0,
        cv: 0.3,
    };
    let _ = ProductionMixture::default();
    let _ = RttModel::default_mobile();
    let _: Box<dyn BandwidthEstimator> = Box::new(lingxi::net::EwmaEstimator::new(0.3).unwrap());
    // player
    let _: PlayerConfig = PlayerConfig::default();
    let _: BmaxPolicy = BmaxPolicy::Fixed(10.0);
    let env: PlayerEnv = PlayerEnv::new(PlayerConfig::default()).unwrap();
    let _ = env.buffer();
    let _: Option<SessionLog> = None;
    let _: Option<SessionSetup<'_>> = None;
    let _: ExitDecision = ExitDecision::Continue;
    // user
    let profile: StallProfile = StallProfile::new(SensitivityKind::Sensitive, 2.0, 0.5).unwrap();
    let _: QosExitModel = QosExitModel::calibrated(profile);
    let _: RuleBasedExit = RuleBasedExit::new(6.0, 3).unwrap();
    let _: PopulationConfig = PopulationConfig::default();
    let _: Option<UserPopulation> = None;
    let _: Option<UserRecord> = None;
    let _: Option<SegmentView<'_>> = None;
    let _: Option<Box<dyn ExitModel>> = None;
    // exit
    let _: UserStateTracker = UserStateTracker::new();
    let _: StateMatrix = StateMatrix::zeros();
    let _: PredictorConfig = PredictorConfig::small();
    let _: Option<ExitPredictor> = None;
    let _: Option<HybridPredictor> = None;
    let _: Option<ExitDataset> = None;
    let _: DatasetFlavor = DatasetFlavor::All;
    // bayes
    let _: ObserverConfig = ObserverConfig::for_dim(2);
    let _: ObOptimizer = ObOptimizer::new(ObserverConfig::for_dim(2)).unwrap();
    // core
    let _: LingXiConfig = LingXiConfig::for_hyb();
    let _: LingXiController = LingXiController::new(LingXiConfig::for_hyb()).unwrap();
    let _: McConfig = McConfig::default();
    let _: ProfilePredictor = ProfilePredictor {
        profile,
        base: 0.01,
    };
    let _: SearchStrategy = SearchStrategy::default();
    let _: LongTermState = LongTermState::new(1);
    let _: Option<RolloutContext> = None;
    let _: Option<Box<dyn RolloutPredictor>> = None;
    let _: Option<LingXiHooks<'_>> = None;
    let _: Option<ManagedHooks<'_, StdRng>> = None;
    let _: SessionBuffers = SessionBuffers::new();
    // abtest: the schedule and report types; the fleet's `AbSplit` runs it
    let paper: AbSchedule = AbSchedule::paper_default();
    let split = AbSplit {
        intervention_epoch: 5,
    };
    assert_eq!(split.schedule(10).unwrap(), paper);
    let _: Option<AbReport> = None;
}

/// The quickstart doctest path, under a fixed seed, with a wall-clock
/// budget: the facade's first-contact experience must stay fast.
#[test]
fn quickstart_path_runs_fast() {
    let start = Instant::now();

    let trace = BandwidthTrace::constant(1200.0, 600, 1.0).unwrap();
    let profile = StallProfile::new(SensitivityKind::Sensitive, 2.0, 0.5).unwrap();
    let run = || {
        let mut rng = StdRng::seed_from_u64(7);
        let catalog = Catalog::generate(
            BitrateLadder::default_short_video(),
            &CatalogConfig {
                n_videos: 3,
                ..CatalogConfig::default()
            },
            &mut rng,
        )
        .unwrap();
        let setup = SessionSetup {
            user_id: 1,
            video: catalog.video_cyclic(0),
            ladder: catalog.ladder(),
            process: &trace,
            config: PlayerConfig::default(),
        };
        let mut controller = LingXiController::new(LingXiConfig::for_hyb()).unwrap();
        let mut predictor = ProfilePredictor {
            profile,
            base: 0.01,
        };
        let mut buffers = SessionBuffers::new();
        let mut hooks = ManagedHooks {
            abr: &mut Hyb::default_rule(),
            lingxi: Some(LingXiHooks {
                controller: &mut controller,
                predictor: &mut predictor,
            }),
            user: &mut QosExitModel::calibrated(profile),
            buffers: &mut buffers,
            rng: &mut rng,
        };
        play(&setup, &mut hooks).unwrap();
        buffers.log().clone()
    };

    let log = run();
    assert!(!log.segments.is_empty());
    assert!(log.total_stall() >= 0.0);
    assert!(log.watch_time <= log.video_duration + 1e-9);
    // Determinism: the same seed reproduces the same session.
    assert_eq!(run(), log);

    let elapsed = start.elapsed();
    assert!(
        elapsed.as_secs_f64() < 5.0,
        "quickstart took {elapsed:?}, budget is 5 s"
    );
}
