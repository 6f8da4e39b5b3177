//! Hypothesis tests and the difference-in-differences estimator.
//!
//! The paper's headline numbers come from a 10-day difference-in-differences
//! A/B test: watch time +0.146% ± 0.043% (t = 3.395, p < 0.01), bitrate
//! +0.103% ± 0.015% (t = 6.867), stall −1.287% ± 0.103% (t = −12.495).
//! [`did_estimate`] + [`welch_t_test`] regenerate that analysis shape.

use crate::describe::{mean, variance};
use crate::dist::norm_cdf;
use crate::{Result, StatsError};

/// Output of a t-test.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TTestResult {
    /// The t statistic.
    pub t: f64,
    /// Welch-Satterthwaite degrees of freedom.
    pub df: f64,
    /// Two-sided p-value (normal approximation to the t distribution for
    /// `df > 30`, Hill's approximation otherwise).
    pub p_two_sided: f64,
    /// Difference of means (a - b).
    pub estimate: f64,
    /// Standard error of the estimate.
    pub std_err: f64,
}

/// Two-sided p-value for a t statistic with `df` degrees of freedom.
///
/// Uses the incomplete-beta-free approximation: for large df the t
/// distribution converges to the normal; for small df we apply the
/// Cornish-Fisher style correction from Hill (1970), accurate to ~1e-4 —
/// more than enough for reporting experiment significance.
fn t_sf_two_sided(t: f64, df: f64) -> f64 {
    let t = t.abs();
    if !t.is_finite() {
        return 0.0;
    }
    if df <= 0.0 {
        return 1.0;
    }
    // Normal-approximation with correction term: z ~= t * (1 - 1/(4 df)) /
    // sqrt(1 + t^2/(2 df)).
    let z = t * (1.0 - 1.0 / (4.0 * df)) / (1.0 + t * t / (2.0 * df)).sqrt();
    2.0 * (1.0 - norm_cdf(z))
}

/// Welch's unequal-variance two-sample t-test.
pub fn welch_t_test(a: &[f64], b: &[f64]) -> Result<TTestResult> {
    if a.len() < 2 || b.len() < 2 {
        return Err(StatsError::InsufficientData);
    }
    let ma = mean(a)?;
    let mb = mean(b)?;
    let va = variance(a)?;
    let vb = variance(b)?;
    let na = a.len() as f64;
    let nb = b.len() as f64;
    let se2 = va / na + vb / nb;
    if se2 == 0.0 {
        // Identical constant samples: no evidence of difference.
        return Ok(TTestResult {
            t: 0.0,
            df: na + nb - 2.0,
            p_two_sided: 1.0,
            estimate: ma - mb,
            std_err: 0.0,
        });
    }
    let se = se2.sqrt();
    let t = (ma - mb) / se;
    let df = se2 * se2 / ((va / na).powi(2) / (na - 1.0) + (vb / nb).powi(2) / (nb - 1.0));
    Ok(TTestResult {
        t,
        df,
        p_two_sided: t_sf_two_sided(t, df),
        estimate: ma - mb,
        std_err: se,
    })
}

/// Difference-in-differences estimate from daily relative differences.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DidResult {
    /// Mean post-intervention difference minus mean pre-intervention
    /// difference (the DiD effect, in whatever units the inputs carry —
    /// the experiment harness feeds relative percentages).
    pub effect: f64,
    /// Standard error of the effect.
    pub std_err: f64,
    /// t statistic of the effect.
    pub t: f64,
    /// Two-sided p-value.
    pub p_two_sided: f64,
    /// Mean pre-period difference (the "AA" baseline bias).
    pub pre_mean: f64,
    /// Mean post-period difference.
    pub post_mean: f64,
}

/// Difference-in-differences over per-day treatment-vs-control differences.
///
/// `pre` holds the daily (treatment − control) differences during the AA
/// phase, `post` during the AB phase. The DiD effect is
/// `mean(post) − mean(pre)`, tested with Welch's t-test across days —
/// exactly how §5.3 reports its +0.146% ± 0.043% watch-time effect.
pub fn did_estimate(pre: &[f64], post: &[f64]) -> Result<DidResult> {
    let w = welch_t_test(post, pre)?;
    Ok(DidResult {
        effect: w.estimate,
        std_err: w.std_err,
        t: w.t,
        p_two_sided: w.p_two_sided,
        pre_mean: mean(pre)?,
        post_mean: mean(post)?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn welch_detects_shift() {
        let a: Vec<f64> = (0..40).map(|i| 10.0 + (i % 5) as f64 * 0.1).collect();
        let b: Vec<f64> = (0..40).map(|i| 9.0 + (i % 5) as f64 * 0.1).collect();
        let r = welch_t_test(&a, &b).unwrap();
        assert!(r.t > 10.0);
        assert!(r.p_two_sided < 0.001);
        assert!((r.estimate - 1.0).abs() < 1e-9);
    }

    #[test]
    fn welch_no_difference() {
        let a = [1.0, 2.0, 3.0, 4.0, 5.0];
        let r = welch_t_test(&a, &a).unwrap();
        assert_eq!(r.t, 0.0);
        assert!(r.p_two_sided > 0.99);
    }

    #[test]
    fn welch_identical_constants() {
        let a = [2.0, 2.0, 2.0];
        let r = welch_t_test(&a, &a).unwrap();
        assert_eq!(r.p_two_sided, 1.0);
    }

    #[test]
    fn welch_insufficient() {
        assert!(welch_t_test(&[1.0], &[1.0, 2.0]).is_err());
    }

    #[test]
    fn did_recovers_injected_effect() {
        // AA phase: ~0 daily difference; AB phase: ~+0.15 effect.
        let pre = [0.02, -0.03, 0.01, -0.02, 0.03];
        let post = [0.16, 0.13, 0.17, 0.14, 0.15];
        let d = did_estimate(&pre, &post).unwrap();
        assert!((d.effect - 0.148).abs() < 0.02);
        assert!(d.t > 5.0);
        assert!(d.p_two_sided < 0.01);
        assert!(d.pre_mean.abs() < 0.05);
    }

    #[test]
    fn t_sf_matches_normal_for_large_df() {
        // t=1.96, df=1e6 should give ~0.05.
        let p = t_sf_two_sided(1.959964, 1e6);
        assert!((p - 0.05).abs() < 1e-3, "p={p}");
    }

    #[test]
    fn t_sf_small_df_is_heavier_tailed() {
        let p_small = t_sf_two_sided(2.0, 4.0);
        let p_large = t_sf_two_sided(2.0, 1000.0);
        assert!(p_small > p_large);
    }
}
