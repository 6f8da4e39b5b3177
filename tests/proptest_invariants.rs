//! Property-based invariants across the workspace (proptest).

use lingxi::prelude::*;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

proptest! {
    // Whole-pipeline cases (sessions, Monte-Carlo evaluations) are the
    // most expensive properties in the workspace: keep the count low so
    // `cargo test -q` completes in CI time. Override with PROPTEST_CASES.
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The player buffer always stays within [0, B_max] whatever the
    /// segment sizes and bandwidths thrown at it (Eq. 3's clamping).
    #[test]
    fn buffer_always_within_bounds(
        seed in 0u64..1000,
        sizes in proptest::collection::vec(100.0f64..20_000.0, 1..40),
        bandwidths in proptest::collection::vec(50.0f64..60_000.0, 1..40),
    ) {
        let mut env = PlayerEnv::new(PlayerConfig::deterministic(10.0, 0.02)).unwrap();
        let mut rng = StdRng::seed_from_u64(seed);
        for (i, &size) in sizes.iter().enumerate() {
            let bw = bandwidths[i % bandwidths.len()];
            env.step(size, i % 4, bw, 2.0, &mut rng).unwrap();
            prop_assert!(env.buffer() >= 0.0, "buffer {}", env.buffer());
            prop_assert!(env.buffer() <= env.bmax() + 1e-9, "buffer {} > bmax {}", env.buffer(), env.bmax());
            prop_assert!(env.total_stall() >= 0.0);
            prop_assert!(env.wall_time() >= env.playback_time() - 1e-9);
        }
    }

    /// Every ABR returns a level inside the ladder for arbitrary player
    /// states.
    #[test]
    fn abrs_always_return_valid_levels(
        seed in 0u64..500,
        steps in 0usize..12,
        bandwidth in 100.0f64..50_000.0,
    ) {
        let ladder = BitrateLadder::default_short_video();
        let mut rng = StdRng::seed_from_u64(seed);
        let sizes = SegmentSizes::generate(&ladder, 30, 2.0, &VbrModel::default_vbr(), &mut rng).unwrap();
        let mut env = PlayerEnv::new(PlayerConfig::default()).unwrap();
        for k in 0..steps {
            let size = sizes.size_kbits(k, k % 4).unwrap();
            env.step(size, k % 4, bandwidth, 2.0, &mut rng).unwrap();
        }
        let ctx = AbrContext {
            ladder: &ladder,
            sizes: &sizes,
            next_segment: steps,
            segment_duration: 2.0,
        };
        let mut abrs: Vec<Box<dyn Abr>> = vec![
            Box::new(ThroughputRule::default_rule()),
            Box::new(Bba::default_rule()),
            Box::new(Bola::default_rule()),
            Box::new(Hyb::default_rule()),
            Box::new(RobustMpc::default_rule()),
        ];
        for abr in abrs.iter_mut() {
            let level = abr.select(&env, &ctx);
            prop_assert!(level <= ladder.top_level(), "{} gave {}", abr.name(), level);
        }
    }

    /// QoeParams unit-cube mapping is a clamped bijection.
    #[test]
    fn qoe_params_unit_roundtrip(
        stall in 1.0f64..20.0,
        switch in 0.0f64..4.0,
        beta in 0.3f64..0.95,
    ) {
        let p = QoeParams { stall_weight: stall, switch_weight: switch, beta };
        let q = QoeParams::from_unit(p.to_unit());
        prop_assert!((p.stall_weight - q.stall_weight).abs() < 1e-9);
        prop_assert!((p.switch_weight - q.switch_weight).abs() < 1e-9);
        prop_assert!((p.beta - q.beta).abs() < 1e-9);
    }

    /// Exit-model probabilities are always valid probabilities, and the
    /// stall response is monotone in cumulative session stall.
    #[test]
    fn exit_probabilities_valid_and_monotone(
        tolerance in 0.5f64..10.0,
        ceiling in 0.05f64..0.9,
        stalls in proptest::collection::vec(0.0f64..5.0, 1..12),
    ) {
        let profile = StallProfile::new(SensitivityKind::Sensitive, tolerance, ceiling).unwrap();
        let mut cumulative = 0.0;
        let mut prev = 0.0;
        for s in stalls {
            cumulative += s;
            let r = profile.response(cumulative);
            prop_assert!((0.0..=1.0).contains(&r));
            prop_assert!(r >= prev - 1e-12, "response not monotone");
            prev = r;
        }
    }

    /// Monte-Carlo evaluation returns exit rates in [0, 1] and respects
    /// the sample budget for arbitrary bandwidth models.
    #[test]
    fn mc_exit_rate_is_probability(
        mu in 200.0f64..20_000.0,
        sigma_frac in 0.0f64..0.8,
        p_exit in 0.0f64..0.5,
        seed in 0u64..200,
    ) {
        use lingxi::core::{evaluate_parameters_in, ConstantPredictor, McConfig, McScratch};
        use lingxi::stats::NormalDist;
        let ladder = BitrateLadder::default_short_video();
        let env = PlayerEnv::new(PlayerConfig::default()).unwrap();
        let tracker = UserStateTracker::new();
        let mut abr = Hyb::default_rule();
        let mut pred = ConstantPredictor { p: p_exit };
        let mut rng = StdRng::seed_from_u64(seed);
        let cfg = McConfig { samples: 4, t_sample: 24.0, segment_duration: 2.0 };
        let eval = evaluate_parameters_in(
            &mut abr,
            QoeParams::default(),
            NormalDist::new(mu, mu * sigma_frac).unwrap(),
            &tracker,
            &env,
            &ladder,
            &mut pred,
            &cfg,
            None,
            &mut McScratch::new(),
            &mut rng,
        ).unwrap();
        prop_assert!((0.0..=1.0).contains(&eval.exit_rate));
        prop_assert!(eval.watched <= cfg.samples * cfg.segments_per_sample());
        prop_assert!(eval.exited <= eval.watched);
    }

    /// GP posterior is finite with non-negative variance on arbitrary
    /// observation sets.
    #[test]
    fn gp_predictions_well_formed(
        xs in proptest::collection::vec(0.0f64..1.0, 2..12),
        noise_scale in 0.01f64..0.5,
        query in 0.0f64..1.0,
    ) {
        use lingxi::bayes::{GpConfig, GpModel};
        let points: Vec<Vec<f64>> = xs.iter().map(|&x| vec![x]).collect();
        let ys: Vec<f64> = xs.iter().map(|&x| (x * 6.0).sin() * noise_scale).collect();
        let gp = GpModel::fit(GpConfig::default(), &points, &ys).unwrap();
        let (mean, var) = gp.predict(&[query]).unwrap();
        prop_assert!(mean.is_finite());
        prop_assert!(var.is_finite());
        prop_assert!(var >= 0.0);
    }

    /// Session logs are internally consistent for arbitrary worlds.
    #[test]
    fn session_logs_consistent(seed in 0u64..300, kbps in 200.0f64..30_000.0) {
        let mut rng = StdRng::seed_from_u64(seed);
        let catalog = Catalog::generate(
            BitrateLadder::default_short_video(),
            &CatalogConfig { n_videos: 2, ..CatalogConfig::default() },
            &mut rng,
        ).unwrap();
        let trace = BandwidthTrace::constant(kbps, 600, 1.0).unwrap();
        let video = catalog.video_cyclic(0);
        let ladder = catalog.ladder();
        let setup = SessionSetup {
            user_id: 1,
            video,
            ladder,
            process: &trace,
            config: PlayerConfig::default(),
        };
        let mut abr = Hyb::default_rule();
        let log = run_session(
            &setup,
            drive(&mut abr, ladder, &video.sizes),
            |_, record, _| {
                // Deterministic pseudo-user: exits on heavy stall.
                if record.stall_time > 6.0 { ExitDecision::Exit } else { ExitDecision::Continue }
            },
            &mut rng,
        ).unwrap();
        prop_assert!(log.segments.len() <= video.n_segments());
        prop_assert!(log.watch_time <= log.video_duration + 1e-9);
        prop_assert!(log.total_stall() >= 0.0);
        prop_assert!(log.completion_ratio() >= 0.0 && log.completion_ratio() <= 1.0);
        if log.completed() {
            prop_assert_eq!(log.segments.len(), video.n_segments());
        } else {
            prop_assert!(log.exit_segment.is_some());
        }
    }
}
