//! Property tests of the on-demand buffer cap (`B_max = f(N)`, Eq. 3).
//!
//! A player fits its cap over the throughput window only when a step's
//! post-download buffer exceeds the policy's lowest possible cap
//! (`BmaxPolicy::floor`, `lingxi_player::bmax_for_step`). These hold that
//! shortcut to the eager model:
//!
//! 1. `PlayerEnv::step_with_rtt` equals a reference that refreshes `B_max`
//!    after every step with `BmaxPolicy::refreshed` and steps Eq. 3 under
//!    it (`validate_step`, then `buffer_step_timed`), bit for bit — the
//!    outcome, buffer, `bmax()`, clocks and stall counters — over random
//!    step sequences under fixed and adaptive policies: startup, buffers
//!    filled to the cap, and windows whose μ−σ crosses both pivots.
//! 2. `floor()` is at most `cap(model)` for random valid policies
//!    (`cap_weak` far above and below `cap_strong`) and random models.
//!
//! Rates stay below 1e6 kbps: the window's normal fit is then always
//! finite, the only case in which the eager rule (keep the last cap) and
//! the on-demand one (the initial cap) could differ.

use std::collections::VecDeque;

use lingxi_net::RttModel;
use lingxi_player::{
    buffer_step_timed, validate_step, BmaxPolicy, PlayerConfig, PlayerEnv, SegmentOutcome,
};
use lingxi_stats::NormalDist;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Eq. 3 with the cap refreshed after every step, as the player did
/// before it fitted the cap on demand.
struct Eager {
    config: PlayerConfig,
    buffer: f64,
    wall_time: f64,
    playback_time: f64,
    segment_index: usize,
    history: VecDeque<f64>,
    bmax: f64,
    stall_count: usize,
    total_stall: f64,
    startup_delay: f64,
}

impl Eager {
    fn new(config: PlayerConfig) -> Self {
        Self {
            config,
            buffer: 0.0,
            wall_time: 0.0,
            playback_time: 0.0,
            segment_index: 0,
            history: VecDeque::new(),
            bmax: config.bmax.initial(),
            stall_count: 0,
            total_stall: 0.0,
            startup_delay: 0.0,
        }
    }

    fn step(
        &mut self,
        size: f64,
        bandwidth: f64,
        segment_duration: f64,
        rtt: f64,
    ) -> SegmentOutcome {
        validate_step(size, bandwidth, segment_duration, rtt).unwrap();
        let startup = self.segment_index == 0;
        let outcome = buffer_step_timed(
            self.buffer,
            self.bmax,
            startup,
            size / bandwidth,
            bandwidth,
            segment_duration,
            rtt,
        );
        let raw_wait = (outcome.download_time - self.buffer).max(0.0);
        if startup {
            self.startup_delay = raw_wait;
        }
        let wall_delta = outcome.download_time + outcome.wait_time;
        let played = (wall_delta - raw_wait)
            .max(0.0)
            .min(self.buffer + segment_duration);
        if outcome.stall_time > 0.0 {
            self.stall_count += 1;
            self.total_stall += outcome.stall_time;
        }
        self.wall_time += wall_delta;
        self.playback_time += played;
        self.buffer = outcome.buffer_after;
        self.segment_index += 1;
        self.history.push_back(outcome.throughput_kbps);
        if self.history.len() > self.config.history_window {
            self.history.pop_front();
        }
        self.bmax = (self.config.bmax).refreshed(self.bmax, self.history.iter().copied());
        outcome
    }
}

/// A policy of kind 0 (fixed), 1 (the production default) or 2 (random
/// adaptive, either cap the larger).
fn policy(kind: usize, rng: &mut StdRng) -> BmaxPolicy {
    match kind {
        0 => BmaxPolicy::Fixed(rng.gen_range(2.0..30.0)),
        1 => BmaxPolicy::default_adaptive(),
        _ => {
            let weak_kbps = rng.gen_range(500.0..8000.0);
            BmaxPolicy::BandwidthAdaptive {
                cap_weak: rng.gen_range(2.0..40.0),
                cap_strong: rng.gen_range(2.0..40.0),
                weak_kbps,
                strong_kbps: weak_kbps + rng.gen_range(1000.0..40_000.0),
            }
        }
    }
}

/// One step's size, bandwidth and RTT in `regime`: 0 fills the buffer to
/// the cap (small segments, fat pipe), 1 moves the window's μ−σ across
/// the pivots, 2 starves it (stalls).
fn step_inputs(regime: usize, rng: &mut StdRng) -> (f64, f64, f64) {
    let (size, bandwidth) = match regime {
        0 => (
            rng.gen_range(50.0..600.0),
            rng.gen_range(20_000.0..900_000.0),
        ),
        1 => (
            rng.gen_range(300.0..4000.0),
            rng.gen_range(1000.0..30_000.0),
        ),
        _ => (rng.gen_range(1000.0..6000.0), rng.gen_range(100.0..1500.0)),
    };
    let rtt = if rng.gen_bool(0.3) {
        0.0
    } else {
        rng.gen_range(0.0..0.3)
    };
    (size, bandwidth, rtt)
}

/// Play `steps` generated steps on a `PlayerEnv` and the eager reference;
/// `Err` names the first difference. Returns how many steps the cap bound
/// (the post-download buffer above the floor).
fn play_both(seed: u64, kind: usize, window: usize, steps: usize) -> Result<usize, String> {
    let mut rng = StdRng::seed_from_u64(seed);
    let config = PlayerConfig {
        bmax: policy(kind, &mut rng),
        rtt: RttModel::constant(0.0),
        history_window: window,
    };
    let segment_duration = [1.0, 2.0, 4.0][rng.gen_range(0..3usize)];
    let mut env = PlayerEnv::new(config).unwrap();
    let mut eager = Eager::new(config);
    let mut regime = rng.gen_range(0..3usize);
    let mut bound = 0;
    for k in 0..steps {
        if rng.gen_bool(0.15) {
            regime = rng.gen_range(0..3usize);
        }
        let (size, bandwidth, rtt) = step_inputs(regime, &mut rng);
        let after_download = (env.buffer() - size / bandwidth).max(0.0) + segment_duration;
        bound += usize::from(after_download > config.bmax.floor());
        let level = k % 4;
        let lazy = env
            .step_with_rtt(size, level, bandwidth, segment_duration, rtt)
            .unwrap();
        let reference = eager.step(size, bandwidth, segment_duration, rtt);
        let bits = |o: &SegmentOutcome| {
            [
                o.download_time,
                o.stall_time,
                o.wait_time,
                o.buffer_after,
                o.throughput_kbps,
            ]
            .map(f64::to_bits)
        };
        let state = |e: &PlayerEnv| {
            [
                e.buffer(),
                e.bmax(),
                e.wall_time(),
                e.playback_time(),
                e.startup_delay(),
                e.total_stall(),
            ]
            .map(f64::to_bits)
        };
        let expected = [
            eager.buffer,
            eager.bmax,
            eager.wall_time,
            eager.playback_time,
            eager.startup_delay,
            eager.total_stall,
        ]
        .map(f64::to_bits);
        if bits(&lazy) != bits(&reference) {
            return Err(format!("step {k}: outcome {lazy:?} vs {reference:?}"));
        }
        if state(&env) != expected || env.stall_count() != eager.stall_count {
            return Err(format!(
                "step {k}: buffer/bmax/clocks/stalls {:?} vs {:?}",
                state(&env).map(f64::from_bits),
                expected.map(f64::from_bits)
            ));
        }
        if !env.throughput_history().iter().eq(&eager.history) {
            return Err(format!("step {k}: windows differ"));
        }
    }
    Ok(bound)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn on_demand_bmax_steps_as_the_eager_model(
        seed in 0u64..u64::MAX,
        kind in 0usize..3,
        window in 1usize..10,
        steps in 1usize..80,
    ) {
        let played = play_both(seed, kind, window, steps);
        prop_assert!(played.is_ok(), "{}", played.unwrap_err());
    }

    #[test]
    fn the_floor_bounds_every_cap(
        seed in 0u64..u64::MAX,
        log_weak in -3.0f64..12.0,
        log_strong in -3.0f64..12.0,
        mu in 0.0f64..60_000.0,
        sigma in 0.0f64..30_000.0,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let weak_kbps = rng.gen_range(1.0..20_000.0);
        let adaptive = BmaxPolicy::BandwidthAdaptive {
            cap_weak: 10f64.powf(log_weak),
            cap_strong: 10f64.powf(log_strong),
            weak_kbps,
            strong_kbps: weak_kbps + rng.gen_range(1e-6..40_000.0),
        };
        let fixed = BmaxPolicy::Fixed(10f64.powf(log_weak));
        let model = NormalDist::new(mu, sigma).unwrap();
        for policy in [adaptive, fixed] {
            policy.validate().unwrap();
            let (floor, cap) = (policy.floor(), policy.cap(&model));
            prop_assert!(floor <= cap, "{policy:?}: floor {floor} > cap {cap} at {model:?}");
        }
    }
}

/// The generated sequences reach both sides of the shortcut: steps the
/// cap cannot bind (the fit skipped) and steps it can, for each policy
/// kind.
#[test]
fn the_generated_steps_cover_both_sides_of_the_floor() {
    for kind in 0..3 {
        let (mut bound, mut steps) = (0, 0);
        for seed in 0..64 {
            bound += play_both(seed, kind, 8, 60).unwrap();
            steps += 60;
        }
        assert!(
            bound > steps / 20 && bound < steps - steps / 20,
            "kind {kind}: {bound}/{steps}"
        );
    }
}
