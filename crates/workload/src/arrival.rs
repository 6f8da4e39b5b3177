//! Arrival processes: deterministic, seed-stable schedules of user
//! arrivals over a simulation horizon.
//!
//! Every impl is a pure function of `(parameters, horizon, seed)` — no
//! global state, no dependence on thread schedule — so the fleet can
//! regenerate the identical schedule on any shard layout. Time-varying
//! processes ([`Diurnal`]) are sampled by *thinning*: candidate arrivals
//! are drawn from a homogeneous Poisson process at the peak rate and each
//! is kept with probability `rate(t) / max_rate`, which realises any
//! bounded rate function exactly.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::classes::ClassRegistry;
use crate::{mix64, Result, WorkloadError};

/// One arrival: a user of class `class` (index into the registry's user
/// classes) shows up at simulation time `at` (seconds).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ArrivalEvent {
    /// Arrival time (seconds from epoch start).
    pub at: f64,
    /// Index into [`ClassRegistry::users`].
    pub class: u16,
}

/// A deterministic arrival schedule generator.
pub trait ArrivalProcess {
    /// The arrival events over `[0, horizon_s)`, sorted by time, each
    /// tagged with a user class sampled from `registry`. Pure in
    /// `(self, horizon_s, seed, registry)`.
    fn events(&self, horizon_s: f64, seed: u64, registry: &ClassRegistry) -> Vec<ArrivalEvent>;

    /// Validate the process parameters.
    fn validate(&self) -> Result<()>;
}

/// Derive the process's own RNG stream from the caller's seed; the salt
/// keeps it independent of every other stream derived from that seed.
fn arrival_rng(seed: u64) -> StdRng {
    StdRng::seed_from_u64(mix64(seed ^ 0xA221_7A15_0C3E_D155))
}

/// Homogeneous Poisson arrivals at `rate_per_sec`; also the candidate
/// generator behind every thinned (time-varying) process.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Poisson {
    /// Mean arrivals per second.
    pub rate_per_sec: f64,
}

/// Exponential inter-arrival sampling at `rate`, thinned by
/// `keep(t) ∈ [0, 1]`: the standard construction for a non-homogeneous
/// Poisson process with bounded rate `rate · keep(t)`.
fn thinned_times(
    rate: f64,
    horizon_s: f64,
    rng: &mut StdRng,
    mut keep: impl FnMut(f64) -> f64,
) -> Vec<f64> {
    let mut times = Vec::new();
    if !(rate > 0.0) {
        return times;
    }
    let mut t = 0.0f64;
    loop {
        // Exponential gap; `u` bounded away from 0 so ln() is finite.
        let u: f64 = rng.gen_range(f64::EPSILON..1.0);
        t += -u.ln() / rate;
        if t >= horizon_s {
            return times;
        }
        let p = keep(t);
        if rng.gen::<f64>() < p {
            times.push(t);
        }
    }
}

impl ArrivalProcess for Poisson {
    fn events(&self, horizon_s: f64, seed: u64, registry: &ClassRegistry) -> Vec<ArrivalEvent> {
        let mut rng = arrival_rng(seed);
        let times = thinned_times(self.rate_per_sec, horizon_s, &mut rng, |_| 1.0);
        attach_classes(times, registry, &mut rng)
    }

    fn validate(&self) -> Result<()> {
        if !(self.rate_per_sec >= 0.0) || !self.rate_per_sec.is_finite() {
            return Err(WorkloadError::InvalidConfig(
                "Poisson rate must be finite and non-negative".into(),
            ));
        }
        Ok(())
    }
}

/// Sinusoidal time-of-day arrival curve, realised by thinning:
/// `rate(t) = base_rate · (1 + amplitude · cos(2π (t − peak_s) / period_s))`.
///
/// `amplitude = 0` degenerates to [`Poisson`]; `amplitude = 1` silences
/// the trough entirely. The defaults put the peak at 21:00 of an 86 400 s
/// day — the evening prime time of a short-video service.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Diurnal {
    /// Mean arrivals per second averaged over a full period.
    pub base_rate: f64,
    /// Relative swing of the day curve, in `[0, 1]`.
    pub amplitude: f64,
    /// Time of the daily peak (seconds into the period).
    pub peak_s: f64,
    /// Period length (seconds); a simulated day.
    pub period_s: f64,
}

impl Default for Diurnal {
    fn default() -> Self {
        Self {
            base_rate: 0.1,
            amplitude: 0.7,
            peak_s: 21.0 * 3600.0,
            period_s: 86_400.0,
        }
    }
}

impl Diurnal {
    /// Instantaneous arrival rate at time `t`.
    pub fn rate_at(&self, t: f64) -> f64 {
        let phase = 2.0 * std::f64::consts::PI * (t - self.peak_s) / self.period_s;
        self.base_rate * (1.0 + self.amplitude * phase.cos())
    }
}

impl ArrivalProcess for Diurnal {
    fn events(&self, horizon_s: f64, seed: u64, registry: &ClassRegistry) -> Vec<ArrivalEvent> {
        let mut rng = arrival_rng(seed);
        let max_rate = self.base_rate * (1.0 + self.amplitude);
        let times = thinned_times(max_rate, horizon_s, &mut rng, |t| {
            if max_rate > 0.0 {
                self.rate_at(t) / max_rate
            } else {
                0.0
            }
        });
        attach_classes(times, registry, &mut rng)
    }

    fn validate(&self) -> Result<()> {
        if !(self.base_rate >= 0.0) || !self.base_rate.is_finite() {
            return Err(WorkloadError::InvalidConfig(
                "Diurnal base rate must be finite and non-negative".into(),
            ));
        }
        if !(0.0..=1.0).contains(&self.amplitude) {
            return Err(WorkloadError::InvalidConfig(
                "Diurnal amplitude must be in [0, 1]".into(),
            ));
        }
        if !(self.period_s > 0.0) || !self.period_s.is_finite() || !self.peak_s.is_finite() {
            return Err(WorkloadError::InvalidConfig(
                "Diurnal period must be positive and peak finite".into(),
            ));
        }
        Ok(())
    }
}

/// A flash crowd: exactly `users` arrivals inside
/// `[start_s, start_s + window_s)`, spread as `start + window · uᵍ` for
/// uniform `u` — `shape = 1` is the uniform ramp the `flashcrowd`
/// experiment used to hard-code, `shape > 1` front-loads the crowd,
/// `shape < 1` back-loads it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FlashRamp {
    /// Crowd size.
    pub users: usize,
    /// Ramp start (seconds).
    pub start_s: f64,
    /// Ramp width (seconds).
    pub window_s: f64,
    /// Ramp shape exponent (1 = uniform).
    pub shape: f64,
}

impl FlashRamp {
    /// A uniform ramp of `users` arrivals over the first `window_s`
    /// seconds — exactly the old hard-coded flash-crowd arrival model.
    pub fn uniform(users: usize, window_s: f64) -> Self {
        Self {
            users,
            start_s: 0.0,
            window_s,
            shape: 1.0,
        }
    }
}

impl ArrivalProcess for FlashRamp {
    fn events(&self, horizon_s: f64, seed: u64, registry: &ClassRegistry) -> Vec<ArrivalEvent> {
        let mut rng = arrival_rng(seed);
        let mut times: Vec<f64> = (0..self.users)
            .map(|_| {
                let u: f64 = rng.gen();
                self.start_s + self.window_s * u.powf(self.shape)
            })
            .filter(|&t| t < horizon_s)
            .collect();
        times.sort_by(f64::total_cmp);
        attach_classes(times, registry, &mut rng)
    }

    fn validate(&self) -> Result<()> {
        if !(self.window_s >= 0.0) || !self.window_s.is_finite() || !(self.start_s >= 0.0) {
            return Err(WorkloadError::InvalidConfig(
                "FlashRamp window and start must be finite and non-negative".into(),
            ));
        }
        if !(self.shape > 0.0) || !self.shape.is_finite() {
            return Err(WorkloadError::InvalidConfig(
                "FlashRamp shape must be positive".into(),
            ));
        }
        Ok(())
    }
}

/// Replay an explicit, pre-classed arrival schedule (e.g. recorded
/// production timestamps). Events beyond the horizon are dropped; the
/// schedule is re-sorted defensively so downstream kernels can rely on
/// time order.
#[derive(Debug, Clone, PartialEq)]
pub struct Replay {
    /// The schedule to replay.
    pub schedule: Vec<ArrivalEvent>,
}

impl ArrivalProcess for Replay {
    fn events(&self, horizon_s: f64, _seed: u64, registry: &ClassRegistry) -> Vec<ArrivalEvent> {
        let n_classes = registry.users.len().max(1) as u16;
        let mut events: Vec<ArrivalEvent> = self
            .schedule
            .iter()
            .filter(|e| e.at >= 0.0 && e.at < horizon_s)
            .map(|e| ArrivalEvent {
                at: e.at,
                class: e.class % n_classes,
            })
            .collect();
        events.sort_by(|a, b| a.at.total_cmp(&b.at).then(a.class.cmp(&b.class)));
        events
    }

    fn validate(&self) -> Result<()> {
        if self.schedule.iter().any(|e| !e.at.is_finite()) {
            return Err(WorkloadError::InvalidConfig(
                "Replay timestamps must be finite".into(),
            ));
        }
        Ok(())
    }
}

/// Tag sorted arrival times with user classes drawn from the registry's
/// categorical mixture. Classes are sampled *after* the times are final,
/// in time order, so the (time, class) pairing is deterministic.
fn attach_classes(
    times: Vec<f64>,
    registry: &ClassRegistry,
    rng: &mut StdRng,
) -> Vec<ArrivalEvent> {
    times
        .into_iter()
        .map(|at| ArrivalEvent {
            at,
            class: registry.sample_user_class(rng),
        })
        .collect()
}

/// Plain-data wrapper over the arrival processes so configs that embed a
/// workload stay `Clone + PartialEq` without trait objects.
#[derive(Debug, Clone, PartialEq)]
pub enum ArrivalKind {
    /// Homogeneous Poisson arrivals.
    Poisson(Poisson),
    /// Sinusoidal time-of-day curve.
    Diurnal(Diurnal),
    /// A flash crowd over a short window.
    FlashRamp(FlashRamp),
    /// An explicit recorded schedule.
    Replay(Replay),
}

impl ArrivalProcess for ArrivalKind {
    fn events(&self, horizon_s: f64, seed: u64, registry: &ClassRegistry) -> Vec<ArrivalEvent> {
        match self {
            ArrivalKind::Poisson(p) => p.events(horizon_s, seed, registry),
            ArrivalKind::Diurnal(d) => d.events(horizon_s, seed, registry),
            ArrivalKind::FlashRamp(f) => f.events(horizon_s, seed, registry),
            ArrivalKind::Replay(r) => r.events(horizon_s, seed, registry),
        }
    }

    fn validate(&self) -> Result<()> {
        match self {
            ArrivalKind::Poisson(p) => p.validate(),
            ArrivalKind::Diurnal(d) => d.validate(),
            ArrivalKind::FlashRamp(f) => f.validate(),
            ArrivalKind::Replay(r) => r.validate(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn registry() -> ClassRegistry {
        ClassRegistry::default_heterogeneous()
    }

    #[test]
    fn poisson_mean_count_tracks_rate() {
        let p = Poisson { rate_per_sec: 2.0 };
        p.validate().unwrap();
        let mut total = 0usize;
        let runs = 40;
        for seed in 0..runs {
            total += p.events(500.0, seed, &registry()).len();
        }
        let mean = total as f64 / runs as f64;
        // E[count] = 1000; √1000 ≈ 32, so ±10% over 40 runs is generous.
        assert!((mean - 1000.0).abs() < 100.0, "mean count {mean}");
    }

    #[test]
    fn diurnal_peak_beats_trough() {
        let d = Diurnal {
            base_rate: 1.0,
            amplitude: 0.9,
            peak_s: 0.0,
            period_s: 1000.0,
        };
        d.validate().unwrap();
        let mut peak = 0usize;
        let mut trough = 0usize;
        for seed in 0..30 {
            let events = d.events(1000.0, seed, &registry());
            // Peak quarter [0, 125) ∪ [875, 1000) vs trough [375, 625).
            peak += events
                .iter()
                .filter(|e| e.at < 125.0 || e.at >= 875.0)
                .count();
            trough += events
                .iter()
                .filter(|e| (375.0..625.0).contains(&e.at))
                .count();
        }
        assert!(
            peak as f64 > 3.0 * trough as f64,
            "peak {peak} vs trough {trough}"
        );
    }

    #[test]
    fn flash_ramp_respects_window_and_count() {
        let f = FlashRamp::uniform(200, 30.0);
        f.validate().unwrap();
        let events = f.events(1000.0, 9, &registry());
        assert_eq!(events.len(), 200);
        assert!(events.iter().all(|e| (0.0..30.0).contains(&e.at)));
        assert!(events.windows(2).all(|w| w[0].at <= w[1].at));
        // Front-loaded shape pushes the median arrival earlier.
        let median = |evs: &[ArrivalEvent]| evs[evs.len() / 2].at;
        let front = FlashRamp {
            shape: 3.0,
            ..FlashRamp::uniform(200, 30.0)
        };
        assert!(median(&front.events(1000.0, 9, &registry())) < median(&events));
    }

    #[test]
    fn replay_round_trips_sorted_in_range_schedules() {
        let schedule = vec![
            ArrivalEvent { at: 1.0, class: 0 },
            ArrivalEvent { at: 2.5, class: 2 },
            ArrivalEvent { at: 7.0, class: 1 },
        ];
        let r = Replay {
            schedule: schedule.clone(),
        };
        r.validate().unwrap();
        assert_eq!(r.events(10.0, 123, &registry()), schedule);
        // Horizon truncates; out-of-order input is sorted.
        assert_eq!(r.events(3.0, 0, &registry()).len(), 2);
        let shuffled = Replay {
            schedule: vec![schedule[2], schedule[0], schedule[1]],
        };
        assert_eq!(shuffled.events(10.0, 0, &registry()), schedule);
    }

    #[test]
    fn all_kinds_are_seed_stable() {
        let kinds = [
            ArrivalKind::Poisson(Poisson { rate_per_sec: 0.8 }),
            ArrivalKind::Diurnal(Diurnal::default()),
            ArrivalKind::FlashRamp(FlashRamp::uniform(50, 10.0)),
            ArrivalKind::Replay(Replay {
                schedule: vec![ArrivalEvent { at: 3.0, class: 0 }],
            }),
        ];
        for kind in &kinds {
            kind.validate().unwrap();
            let a = kind.events(200.0, 77, &registry());
            let b = kind.events(200.0, 77, &registry());
            assert_eq!(a, b, "{kind:?} not seed-stable");
            assert!(a.windows(2).all(|w| w[0].at <= w[1].at));
        }
        // Different seeds give different Poisson draws.
        let p = &kinds[0];
        assert_ne!(
            p.events(200.0, 1, &registry()),
            p.events(200.0, 2, &registry())
        );
    }

    #[test]
    fn invalid_parameters_rejected() {
        assert!(Poisson {
            rate_per_sec: f64::NAN
        }
        .validate()
        .is_err());
        assert!(Poisson { rate_per_sec: -1.0 }.validate().is_err());
        assert!(Diurnal {
            amplitude: 1.5,
            ..Diurnal::default()
        }
        .validate()
        .is_err());
        assert!(Diurnal {
            period_s: 0.0,
            ..Diurnal::default()
        }
        .validate()
        .is_err());
        assert!(FlashRamp {
            shape: 0.0,
            ..FlashRamp::uniform(10, 5.0)
        }
        .validate()
        .is_err());
        assert!(Replay {
            schedule: vec![ArrivalEvent {
                at: f64::INFINITY,
                class: 0
            }]
        }
        .validate()
        .is_err());
    }
}
