//! The AA/AB difference-in-differences experiment orchestrator.

use lingxi_player::SessionSummary;
use lingxi_stats::{did_estimate, DidResult};
use lingxi_user::UserRecord;
use parking_lot::Mutex;
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};
use serde::{Deserialize, Serialize};

use crate::metrics::{aggregate_day, relative_diff_pct, DayMetrics};
use crate::{AbError, Result};

/// A stateful per-user arm runner: created once per (arm, user), invoked
/// once per experiment day. Statefulness lets LingXi's long-term state
/// persist across days, as it does in production.
pub trait ArmRunner: Send {
    /// Run all of this user's sessions for `day`; `intervened` is true on
    /// AB-phase days for the treatment arm. A session that cannot be
    /// played is an error ([`AbError::Arm`]), never a missing summary: a
    /// dropped session would shrink the day's denominator unseen.
    fn run_user_day(
        &mut self,
        user: &UserRecord,
        day: usize,
        intervened: bool,
        rng: &mut dyn RngCore,
    ) -> Result<Vec<SessionSummary>>;
}

/// Experiment schedule.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
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
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MetricSeries {
    /// Metric name.
    pub name: String,
    /// Per-day relative difference (treatment vs control), percent.
    pub daily_rel_diff_pct: Vec<f64>,
    /// Difference-in-differences estimate over the relative differences.
    pub did: DidResult,
}

/// Full experiment report.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
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

/// The experiment driver.
pub struct AbTest {
    /// Schedule.
    pub schedule: AbSchedule,
    /// Base RNG seed; every (arm, user, day) derives its own stream.
    pub seed: u64,
    /// Worker threads for the user loop.
    pub threads: usize,
    /// Common random numbers: both arms share per-(user, day) RNG streams,
    /// so paired (twin) cohorts see identical workloads until the policies
    /// diverge — a standard simulation variance-reduction technique that
    /// stands in for the statistical power of the paper's 30M-user cohort.
    pub common_random_numbers: bool,
}

impl AbTest {
    /// New driver with the paper's schedule.
    pub fn new(seed: u64) -> Self {
        Self {
            schedule: AbSchedule::paper_default(),
            seed,
            threads: 4,
            common_random_numbers: false,
        }
    }

    /// Run the experiment.
    ///
    /// `control_users` / `treatment_users` are the two cohorts;
    /// `make_control` / `make_treatment` build one stateful runner per
    /// user. Users are processed in parallel; each runs its days in order
    /// so cross-day state behaves like production.
    pub fn run<FC, FT>(
        &self,
        control_users: &[UserRecord],
        treatment_users: &[UserRecord],
        make_control: FC,
        make_treatment: FT,
    ) -> Result<AbReport>
    where
        FC: Fn(&UserRecord) -> Box<dyn ArmRunner> + Sync,
        FT: Fn(&UserRecord) -> Box<dyn ArmRunner> + Sync,
    {
        self.schedule.validate()?;
        if control_users.is_empty() || treatment_users.is_empty() {
            return Err(AbError::InvalidConfig("empty cohort".into()));
        }
        let control_daily = self.run_arm(control_users, &make_control, false)?;
        let treatment_daily = self.run_arm(treatment_users, &make_treatment, true)?;

        let control: Vec<DayMetrics> = control_daily.iter().map(|d| aggregate_day(d)).collect();
        let treatment: Vec<DayMetrics> = treatment_daily.iter().map(|d| aggregate_day(d)).collect();
        did_report(self.schedule, control, treatment)
    }

    /// Run one arm, returning per-day session summaries; fails with the
    /// first arm-runner error in cohort order.
    fn run_arm<F>(
        &self,
        users: &[UserRecord],
        make_runner: &F,
        is_treatment: bool,
    ) -> Result<Vec<Vec<SessionSummary>>>
    where
        F: Fn(&UserRecord) -> Box<dyn ArmRunner> + Sync,
    {
        let days = self.schedule.days;
        // One slot per user, written by exactly one worker. The final merge
        // walks users in cohort order, so day buckets — and therefore every
        // float reduction downstream — are byte-identical for any thread
        // count (completion-order `extend` into shared day buckets is not:
        // float sums aren't associative).
        let slots: Vec<Mutex<Vec<Vec<SessionSummary>>>> =
            users.iter().map(|_| Mutex::new(Vec::new())).collect();
        let n_threads = self.threads.max(1);
        let chunk = users.len().div_ceil(n_threads);
        let arm_tag = if self.common_random_numbers {
            0
        } else {
            u64::from(is_treatment)
        };
        let joined = std::thread::scope(|scope| {
            let mut handles = Vec::new();
            for (worker_users, worker_slots) in
                users.chunks(chunk.max(1)).zip(slots.chunks(chunk.max(1)))
            {
                handles.push(scope.spawn(move || -> Result<()> {
                    for (user, slot) in worker_users.iter().zip(worker_slots) {
                        let mut runner = make_runner(user);
                        let mut user_days = Vec::with_capacity(days);
                        for day in 0..days {
                            let intervened = is_treatment && day >= self.schedule.intervention_day;
                            // Derive a deterministic stream per (arm, user,
                            // day) so thread scheduling can't change results.
                            let mut rng = StdRng::seed_from_u64(
                                self.seed
                                    ^ (user.id.wrapping_mul(0x9E3779B97F4A7C15))
                                    ^ ((day as u64) << 32)
                                    ^ (arm_tag << 63),
                            );
                            user_days.push(runner.run_user_day(user, day, intervened, &mut rng)?);
                        }
                        *slot.lock() = user_days;
                    }
                    Ok(())
                }));
            }
            // Join every handle before judging: stopping at the first
            // failure would leave later panicked threads to re-panic out
            // of the scope instead of mapping to an error.
            handles.into_iter().map(|h| h.join()).collect::<Vec<_>>()
        });
        // Workers own contiguous runs of the cohort, so the first failure
        // in worker order is the first in cohort order.
        for worker in joined {
            worker.map_err(|_| AbError::InvalidConfig("worker thread panicked".into()))??;
        }
        let mut per_day: Vec<Vec<SessionSummary>> = (0..days).map(|_| Vec::new()).collect();
        for slot in slots {
            for (day, summaries) in slot.into_inner().into_iter().enumerate() {
                per_day[day].extend(summaries);
            }
        }
        Ok(per_day)
    }
}

/// Build the full [`AbReport`] — the paper's three metric series with their
/// difference-in-differences verdicts (Fig. 12) — from per-day cohort
/// metrics.
///
/// [`AbTest::run`] calls this with its own day aggregates; the fleet engine
/// calls it with per-epoch metrics merged across shards, which is how a
/// population-scale simulation feeds the same DiD pipeline as the
/// session-level driver.
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
    use lingxi_net::{NetClass, UserNetProfile};
    use lingxi_user::{SensitivityKind, StallProfile};
    use rand::Rng;

    fn user(id: u64) -> UserRecord {
        UserRecord {
            id,
            net: UserNetProfile {
                class: NetClass::Wifi,
                mean_kbps: 8000.0,
                cv: 0.3,
            },
            stall: StallProfile::new(SensitivityKind::Sensitive, 3.0, 0.3).unwrap(),
            sessions_per_day: 5.0,
        }
    }

    /// A synthetic arm producing watch times around `base`, plus `boost`
    /// once intervened.
    struct SyntheticArm {
        base: f64,
        boost: f64,
    }

    impl ArmRunner for SyntheticArm {
        fn run_user_day(
            &mut self,
            _user: &UserRecord,
            _day: usize,
            intervened: bool,
            rng: &mut dyn RngCore,
        ) -> Result<Vec<SessionSummary>> {
            let mut rng = StdRng::seed_from_u64(rng.next_u64());
            Ok((0..5)
                .map(|_| {
                    let noise: f64 = rng.gen::<f64>() * 2.0;
                    let watch = self.base + noise + if intervened { self.boost } else { 0.0 };
                    SessionSummary {
                        user_id: 0,
                        watch_time: watch,
                        total_stall: 1.0,
                        stall_count: 1,
                        mean_bitrate: 2000.0,
                        switch_count: 0,
                        completed: true,
                        segments: 20,
                    }
                })
                .collect())
        }
    }

    #[test]
    fn did_recovers_injected_effect() {
        let users: Vec<UserRecord> = (0..40).map(user).collect();
        let test = AbTest::new(7);
        let report = test
            .run(
                &users[..20],
                &users[20..],
                |_| {
                    Box::new(SyntheticArm {
                        base: 30.0,
                        boost: 0.0,
                    })
                },
                |_| {
                    Box::new(SyntheticArm {
                        base: 30.0,
                        boost: 1.5,
                    })
                },
            )
            .unwrap();
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
    fn deterministic_across_runs_and_thread_counts() {
        let users: Vec<UserRecord> = (0..12).map(user).collect();
        let run = |threads: usize| {
            let mut test = AbTest::new(9);
            test.threads = threads;
            test.run(
                &users[..6],
                &users[6..],
                |_| {
                    Box::new(SyntheticArm {
                        base: 30.0,
                        boost: 0.0,
                    })
                },
                |_| {
                    Box::new(SyntheticArm {
                        base: 30.0,
                        boost: 1.0,
                    })
                },
            )
            .unwrap()
        };
        let a = run(1);
        let b = run(4);
        assert_eq!(
            a.watch_time.daily_rel_diff_pct,
            b.watch_time.daily_rel_diff_pct
        );
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

    /// An arm whose sessions cannot be played for users `fail_from..`.
    struct FailingArm {
        fail_from: u64,
    }

    impl ArmRunner for FailingArm {
        fn run_user_day(
            &mut self,
            user: &UserRecord,
            day: usize,
            _intervened: bool,
            _rng: &mut dyn RngCore,
        ) -> Result<Vec<SessionSummary>> {
            if user.id >= self.fail_from {
                return Err(AbError::Arm(format!("user {} day {day}", user.id)));
            }
            Ok(Vec::new())
        }
    }

    #[test]
    fn arm_failure_fails_the_run_with_the_first_error_in_cohort_order() {
        let users: Vec<UserRecord> = (0..16).map(user).collect();
        for threads in [1, 4, 16] {
            let test = AbTest {
                threads,
                ..AbTest::new(3)
            };
            let err = test
                .run(
                    &users,
                    &users,
                    |_| Box::new(FailingArm { fail_from: 6 }) as Box<dyn ArmRunner>,
                    |_| Box::new(FailingArm { fail_from: 0 }) as Box<dyn ArmRunner>,
                )
                .unwrap_err();
            assert_eq!(
                err,
                AbError::Arm("user 6 day 0".into()),
                "{threads} threads"
            );
        }
    }

    #[test]
    fn empty_cohorts_rejected() {
        let users: Vec<UserRecord> = (0..4).map(user).collect();
        let test = AbTest::new(1);
        assert!(test
            .run(
                &[],
                &users,
                |_| Box::new(SyntheticArm {
                    base: 1.0,
                    boost: 0.0
                }) as Box<dyn ArmRunner>,
                |_| Box::new(SyntheticArm {
                    base: 1.0,
                    boost: 0.0
                }) as Box<dyn ArmRunner>,
            )
            .is_err());
    }
}
