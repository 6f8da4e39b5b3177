//! The AA/AB schedule and the difference-in-differences report over
//! per-day cohort metrics.

use lingxi_stats::{did_estimate, DidResult};

use crate::metrics::{relative_diff_pct, DayMetrics};
use crate::{AbError, Result};

/// Experiment schedule.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AbSchedule {
    /// Total days.
    pub days: usize,
    /// First day (0-based) on which the treatment arm is intervened —
    /// days before this form the AA phase.
    pub intervention_day: usize,
}

impl AbSchedule {
    /// The paper's 10-day design: AA on days 0–4, AB on days 5–9.
    pub fn paper_default() -> Self {
        Self {
            days: 10,
            intervention_day: 5,
        }
    }

    /// Validate.
    pub fn validate(&self) -> Result<()> {
        if self.days == 0 {
            return Err(AbError::InvalidConfig("need at least one day".into()));
        }
        if self.intervention_day >= self.days {
            return Err(AbError::InvalidConfig(
                "intervention must fall inside the schedule".into(),
            ));
        }
        if self.intervention_day < 2 || self.days - self.intervention_day < 2 {
            return Err(AbError::InvalidConfig(
                "need >= 2 days in each phase for the DiD t-test".into(),
            ));
        }
        Ok(())
    }
}

/// One metric's daily series and DiD verdict.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricSeries {
    /// Metric name.
    pub name: String,
    /// Per-day relative difference (treatment vs control), percent.
    pub daily_rel_diff_pct: Vec<f64>,
    /// Difference-in-differences estimate over the relative differences.
    pub did: DidResult,
}

/// Full experiment report.
#[derive(Debug, Clone, PartialEq)]
pub struct AbReport {
    /// Schedule used.
    pub schedule: AbSchedule,
    /// Control-arm daily metrics.
    pub control: Vec<DayMetrics>,
    /// Treatment-arm daily metrics.
    pub treatment: Vec<DayMetrics>,
    /// Watch-time series + DiD (Fig. 12a).
    pub watch_time: MetricSeries,
    /// Bitrate series + DiD (Fig. 12b).
    pub bitrate: MetricSeries,
    /// Stall-time series + DiD (Fig. 12c).
    pub stall_time: MetricSeries,
}

/// Build the full [`AbReport`] — the paper's three metric series with their
/// difference-in-differences verdicts (Fig. 12) — from per-day cohort
/// metrics.
///
/// The fleet engine calls this with per-epoch cohort metrics merged across
/// shards (`FleetConfig.ab`), one "day" per epoch.
pub fn did_report(
    schedule: AbSchedule,
    control: Vec<DayMetrics>,
    treatment: Vec<DayMetrics>,
) -> Result<AbReport> {
    schedule.validate()?;
    if control.len() != schedule.days || treatment.len() != schedule.days {
        return Err(AbError::InvalidConfig(format!(
            "need {} day metrics per cohort, got {} control / {} treatment",
            schedule.days,
            control.len(),
            treatment.len()
        )));
    }
    let series = |name: &str, f: &dyn Fn(&DayMetrics) -> f64| -> Result<MetricSeries> {
        let rel: Vec<f64> = (0..schedule.days)
            .map(|d| relative_diff_pct(f(&treatment[d]), f(&control[d])))
            .collect();
        let (pre, post) = rel.split_at(schedule.intervention_day);
        let did = did_estimate(pre, post).map_err(|e| AbError::Stats(e.to_string()))?;
        Ok(MetricSeries {
            name: name.to_string(),
            daily_rel_diff_pct: rel,
            did,
        })
    };
    Ok(AbReport {
        schedule,
        watch_time: series("watch_time", &|m| m.watch_time)?,
        bitrate: series("bitrate", &|m| m.mean_bitrate)?,
        stall_time: series("stall_time", &|m| m.stall_time)?,
        control,
        treatment,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DayAccum;
    use lingxi_player::SessionSummary;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// One cohort-day of 100 sessions watching `base + U(0, 2)` seconds.
    fn noisy_day(base: f64, rng: &mut StdRng) -> DayMetrics {
        let mut day = DayAccum::new();
        for _ in 0..100 {
            day.push(&SessionSummary {
                user_id: 0,
                watch_time: base + rng.gen::<f64>() * 2.0,
                total_stall: 1.0,
                stall_count: 1,
                mean_bitrate: 2000.0,
                switch_count: 0,
                completed: true,
                segments: 20,
            });
        }
        day.metrics()
    }

    #[test]
    fn did_recovers_injected_effect() {
        let schedule = AbSchedule::paper_default();
        let mut rng = StdRng::seed_from_u64(7);
        let control: Vec<DayMetrics> = (0..schedule.days)
            .map(|_| noisy_day(30.0, &mut rng))
            .collect();
        let treatment: Vec<DayMetrics> = (0..schedule.days)
            .map(|d| {
                let boost = if d >= schedule.intervention_day {
                    1.5
                } else {
                    0.0
                };
                noisy_day(30.0 + boost, &mut rng)
            })
            .collect();
        let report = did_report(schedule, control, treatment).unwrap();
        // ~5% injected watch-time effect.
        assert!(
            report.watch_time.did.effect > 2.0 && report.watch_time.did.effect < 8.0,
            "effect {}",
            report.watch_time.did.effect
        );
        assert!(report.watch_time.did.p_two_sided < 0.05);
        // AA phase differences stay small.
        assert!(report.watch_time.did.pre_mean.abs() < 3.0);
        // Bitrate had no injected effect.
        assert!(report.bitrate.did.effect.abs() < 1.0);
        assert_eq!(report.watch_time.daily_rel_diff_pct.len(), 10);
        assert_eq!(report.control.len(), 10);
    }

    #[test]
    fn did_report_validates_lengths() {
        let schedule = AbSchedule::paper_default();
        let ok: Vec<DayMetrics> = (0..10)
            .map(|d| DayMetrics {
                watch_time: 100.0 + d as f64,
                mean_bitrate: 2000.0,
                stall_time: 5.0,
                sessions: 10,
                ..DayMetrics::default()
            })
            .collect();
        assert!(did_report(schedule, ok.clone(), ok.clone()).is_ok());
        assert!(did_report(schedule, ok[..9].to_vec(), ok).is_err());
    }

    #[test]
    fn schedule_validation() {
        assert!(AbSchedule {
            days: 0,
            intervention_day: 0
        }
        .validate()
        .is_err());
        assert!(AbSchedule {
            days: 5,
            intervention_day: 5
        }
        .validate()
        .is_err());
        assert!(AbSchedule {
            days: 5,
            intervention_day: 1
        }
        .validate()
        .is_err());
        assert!(AbSchedule {
            days: 5,
            intervention_day: 4
        }
        .validate()
        .is_err());
        assert!(AbSchedule::paper_default().validate().is_ok());
    }
}
