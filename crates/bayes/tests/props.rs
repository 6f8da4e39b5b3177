//! Property-based invariants for the Bayesian-optimization crate.

use lingxi_bayes::*;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

proptest! {
    // GP fits per case: moderate count keeps CI time bounded while
    // staying deterministic. Override with PROPTEST_CASES.
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Cholesky solve residuals stay small on generated SPD systems.
    #[test]
    fn cholesky_solves_spd_systems(
        n in 1usize..8,
        seed in 0u64..2000,
    ) {
        // Build SPD A = B Bᵀ + I from a deterministic pseudo-random B.
        let mut state = seed.wrapping_add(1);
        let mut next = || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((state >> 33) as f64 / (1u64 << 31) as f64) - 1.0
        };
        let b: Vec<f64> = (0..n * n).map(|_| next()).collect();
        let mut a = vec![0.0; n * n];
        for i in 0..n {
            for j in 0..n {
                let mut s = if i == j { 1.0 } else { 0.0 };
                for k in 0..n {
                    s += b[i * n + k] * b[j * n + k];
                }
                a[i * n + j] = s;
            }
        }
        let rhs: Vec<f64> = (0..n).map(|_| next()).collect();
        let x = Cholesky::factor(&a, n).unwrap().solve(&rhs).unwrap();
        for i in 0..n {
            let mut acc = 0.0;
            for j in 0..n {
                acc += a[i * n + j] * x[j];
            }
            prop_assert!((acc - rhs[i]).abs() < 1e-6, "row {i} residual {}", acc - rhs[i]);
        }
    }

    /// The kernel is symmetric with covariance bounded by the variance.
    #[test]
    fn kernels_symmetric_and_bounded(
        ax in 0.0f64..1.0, ay in 0.0f64..1.0,
        bx in 0.0f64..1.0, by in 0.0f64..1.0,
        variance in 0.1f64..5.0,
        ell in 0.05f64..2.0,
    ) {
        let k = Kernel { variance, length_scale: ell };
        let a = [ax, ay];
        let b = [bx, by];
        let kab = k.eval(&a, &b);
        prop_assert!((kab - k.eval(&b, &a)).abs() < 1e-12);
        prop_assert!(kab <= variance + 1e-9);
        prop_assert!(kab >= 0.0);
    }

    /// GP interpolation error at training points is bounded by the noise.
    #[test]
    fn gp_interpolates_within_noise(
        ys in proptest::collection::vec(-5.0f64..5.0, 2..10),
    ) {
        let xs: Vec<Vec<f64>> = (0..ys.len())
            .map(|i| vec![i as f64 / ys.len() as f64])
            .collect();
        let gp = GpModel::fit(GpConfig::default(), &xs, &ys).unwrap();
        for (x, &y) in xs.iter().zip(&ys) {
            let (mean, var) = gp.predict(x).unwrap();
            prop_assert!(var >= 0.0);
            // Within a few posterior standard deviations + slack.
            let spread = ys.iter().cloned().fold(f64::NEG_INFINITY, f64::max)
                - ys.iter().cloned().fold(f64::INFINITY, f64::min);
            prop_assert!(
                (mean - y).abs() <= 0.3 * spread.max(1e-3) + 3.0 * var.sqrt() + 1e-6,
                "mean {mean} vs y {y}"
            );
        }
    }

    /// EI is non-negative.
    #[test]
    fn acquisition_properties(
        mean in -2.0f64..2.0,
        var in 1e-6f64..1.0,
        best in -2.0f64..2.0,
    ) {
        prop_assert!(expected_improvement(mean, var, best) >= -1e-12);
    }
}

/// `ObOptimizer::next_candidate` as it was written before the scorer
/// reused its buffers: a refit, then a fresh candidate `Vec` and an
/// allocating `GpModel::predict` per candidate, the incumbent looked up
/// per local candidate, and a candidate skipped when its posterior fails.
fn reference_next_candidate(
    config: &ObserverConfig,
    warm_start: Option<&[f64]>,
    observations: &[(Vec<f64>, f64)],
    rng: &mut StdRng,
) -> Vec<f64> {
    let d = config.dim;
    let best_obs = || {
        observations
            .iter()
            .min_by(|a, b| a.1.partial_cmp(&b.1).unwrap_or(std::cmp::Ordering::Equal))
            .map(|(x, y)| (x.as_slice(), *y))
    };
    if observations.len() < config.warmup {
        return match warm_start {
            Some(x0) => x0
                .iter()
                .map(|&v| {
                    (v.clamp(0.0, 1.0) + (rng.gen::<f64>() * 2.0 - 1.0) * config.warm_radius)
                        .clamp(0.0, 1.0)
                })
                .collect(),
            None => (0..d).map(|_| rng.gen()).collect(),
        };
    }
    let xs: Vec<Vec<f64>> = observations.iter().map(|(x, _)| x.clone()).collect();
    let ys: Vec<f64> = observations.iter().map(|(_, y)| *y).collect();
    let best = best_obs().map(|(_, y)| y).unwrap_or(0.0);
    let gp = match GpModel::fit(config.gp, &xs, &ys) {
        Ok(g) => g,
        Err(_) => return (0..d).map(|_| rng.gen()).collect(),
    };
    let mut best_x: Vec<f64> = (0..d).map(|_| rng.gen()).collect();
    let mut best_score = f64::NEG_INFINITY;
    for i in 0..config.n_candidates {
        let cand: Vec<f64> = if i % 4 == 0 {
            if let Some((bx, _)) = best_obs() {
                bx.iter()
                    .map(|&v| (v + (rng.gen::<f64>() * 2.0 - 1.0) * 0.1).clamp(0.0, 1.0))
                    .collect()
            } else {
                (0..d).map(|_| rng.gen()).collect()
            }
        } else {
            (0..d).map(|_| rng.gen()).collect()
        };
        if let Ok((mean, var)) = gp.predict(&cand) {
            let score = expected_improvement(mean, var, best);
            if score > best_score {
                best_score = score;
                best_x = cand;
            }
        }
    }
    best_x
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The allocation-free scorer proposes bit-identical candidates, and
    /// leaves the caller's RNG where the allocating reference does, across
    /// dimensions 1..3, warmup and surrogate phases (0..12 observations),
    /// and duplicate points that force the fit's jitter escalation (a
    /// near-zero noise floor makes the kernel matrix singular).
    #[test]
    fn next_candidate_matches_allocating_reference(
        dim in 1usize..=3,
        n_obs in 0usize..12,
        distinct in 1usize..6,
        tiny_noise in 0u8..2,
        warm in 0u8..2,
        seed in 0u64..u64::MAX,
    ) {
        let mut config = ObserverConfig::for_dim(dim);
        config.n_candidates = 64;
        if tiny_noise == 1 {
            config.gp.noise = 1e-15;
        }
        let mut gen = StdRng::seed_from_u64(seed);
        // `distinct` points, revisited round-robin: duplicates whenever
        // n_obs > distinct.
        let points: Vec<Vec<f64>> = (0..distinct)
            .map(|_| (0..dim).map(|_| gen.gen()).collect())
            .collect();
        let observations: Vec<(Vec<f64>, f64)> = (0..n_obs)
            .map(|i| (points[i % distinct].clone(), gen.gen::<f64>() * 0.2))
            .collect();
        let warm_start: Option<Vec<f64>> =
            (warm == 1).then(|| (0..dim).map(|_| gen.gen::<f64>() * 1.4 - 0.2).collect());

        let mut opt = ObOptimizer::new(config).unwrap();
        if let Some(x0) = &warm_start {
            opt.init_with(x0).unwrap();
        }
        for (x, y) in &observations {
            opt.update(x.clone(), *y).unwrap();
        }
        let mut rng = StdRng::seed_from_u64(seed ^ 0x5EED);
        let mut reference_rng = rng.clone();
        for _ in 0..3 {
            let got = opt.next_candidate(&mut rng);
            let want = reference_next_candidate(
                &config,
                warm_start.as_deref(),
                &observations,
                &mut reference_rng,
            );
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            prop_assert_eq!(bits(&got), bits(&want));
            prop_assert_eq!(rng.gen::<u64>(), reference_rng.gen::<u64>());
        }
    }
}
