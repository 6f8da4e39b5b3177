//! Property-based invariants for the statistics crate.

use lingxi_stats::*;
use proptest::prelude::*;

proptest! {
    // Cheap numeric properties: a high case count is still fast.
    // Deterministic and CI-bounded; override with PROPTEST_CASES.
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn percentile_bounded_by_extremes(
        xs in proptest::collection::vec(-1e6f64..1e6, 1..200),
        p in 0.0f64..=100.0,
    ) {
        let v = percentile(&xs, p).unwrap();
        let min = xs.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = xs.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        prop_assert!(v >= min - 1e-9 && v <= max + 1e-9);
    }

    #[test]
    fn percentile_monotone_in_p(
        xs in proptest::collection::vec(-1e3f64..1e3, 2..100),
        p1 in 0.0f64..=100.0,
        p2 in 0.0f64..=100.0,
    ) {
        let (lo, hi) = if p1 <= p2 { (p1, p2) } else { (p2, p1) };
        prop_assert!(percentile(&xs, lo).unwrap() <= percentile(&xs, hi).unwrap() + 1e-9);
    }

    #[test]
    fn ecdf_monotone_and_bounded(
        xs in proptest::collection::vec(-1e3f64..1e3, 1..150),
        queries in proptest::collection::vec(-2e3f64..2e3, 2..20),
    ) {
        let e = Ecdf::new(&xs).unwrap();
        let mut sorted = queries.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let mut prev = 0.0;
        for q in sorted {
            let v = e.eval(q);
            prop_assert!((0.0..=1.0).contains(&v));
            prop_assert!(v >= prev - 1e-12);
            prev = v;
        }
    }

    #[test]
    fn pearson_in_unit_interval(
        pairs in proptest::collection::vec((-1e3f64..1e3, -1e3f64..1e3), 3..100),
    ) {
        let xs: Vec<f64> = pairs.iter().map(|p| p.0).collect();
        let ys: Vec<f64> = pairs.iter().map(|p| p.1).collect();
        if let Ok(r) = pearson(&xs, &ys) {
            prop_assert!((-1.0 - 1e-9..=1.0 + 1e-9).contains(&r), "r={r}");
        }
    }

    #[test]
    fn welch_antisymmetric(
        a in proptest::collection::vec(-1e2f64..1e2, 3..50),
        b in proptest::collection::vec(-1e2f64..1e2, 3..50),
    ) {
        let ab = welch_t_test(&a, &b).unwrap();
        let ba = welch_t_test(&b, &a).unwrap();
        prop_assert!((ab.t + ba.t).abs() < 1e-9);
        prop_assert!((ab.p_two_sided - ba.p_two_sided).abs() < 1e-9);
    }

    #[test]
    fn linear_fit_residual_orthogonality(
        pts in proptest::collection::vec((-1e2f64..1e2, -1e2f64..1e2), 3..50),
    ) {
        let xs: Vec<f64> = pts.iter().map(|p| p.0).collect();
        let ys: Vec<f64> = pts.iter().map(|p| p.1).collect();
        if let Ok(fit) = linear_fit(&xs, &ys) {
            // OLS residuals sum to ~0.
            let resid_sum: f64 = xs.iter().zip(&ys).map(|(&x, &y)| y - fit.predict(x)).sum();
            prop_assert!(resid_sum.abs() < 1e-6 * (1.0 + ys.iter().map(|y| y.abs()).sum::<f64>()));
            prop_assert!((0.0..=1.0 + 1e-9).contains(&fit.r_squared));
        }
    }
}
