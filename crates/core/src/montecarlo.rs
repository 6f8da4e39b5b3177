//! Monte-Carlo parameter evaluation — Algorithm 2 (`EvaluateParameters`).
//!
//! Each of `M` rollouts forks the live player environment and user state,
//! applies the candidate parameters to the ABR, draws each virtual
//! segment's bandwidth from the client's normal model
//! `N(μ_Cpast, σ²_Cpast)` and asks the exit-rate predictor for a
//! per-segment exit probability; a uniform draw against it ends the
//! rollout. The estimate is `R_exit = exited_count / watched_count` over
//! all samples.
//!
//! Candidates of one optimization pass are compared on common random
//! numbers: a pass has one seed ([`McScratch::begin_pass`]), rollout `m`
//! of *every* candidate draws from the stream [`rollout_stream`]`(seed,
//! m)`, and per virtual segment that stream yields the bandwidth, then the
//! RTT, then the exit uniform ([`SegmentDraw`]). The draws never depend on
//! the candidate, so the first candidate to reach segment `k` of rollout
//! `m` draws it into the scratch's table and later candidates read it.
//! Each evaluation is still Algorithm 2's estimate; only the comparison
//! between siblings now happens on common paths.
//!
//! The first pruning stage of §4 lives here: when a `prune_threshold`
//! (the minimum exit rate observed across sibling candidates) is given,
//! evaluation terminates early as soon as even the most optimistic
//! completion (every remaining segment watched without exit) could not
//! beat it.

use lingxi_abr::{Abr, AbrContext, QoeParams};
use lingxi_exit::{StateMatrix, UserStateTracker};
use lingxi_media::{BitrateLadder, SegmentSizes, VbrModel};
use lingxi_net::RttModel;
use lingxi_player::PlayerEnv;
use lingxi_stats::NormalDist;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::predictor::{RolloutContext, RolloutPredictor};
use crate::{CoreError, Result};

/// Floor (kbps) for rollout bandwidth draws: the truncation keeps the
/// normal model's left tail from producing zero or negative rates.
const MIN_ROLLOUT_KBPS: f64 = 50.0;

/// Monte-Carlo configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct McConfig {
    /// Number of rollouts `M`.
    pub samples: usize,
    /// Per-rollout horizon `T_sample` in seconds (§3.2 sets it to the mean
    /// online video length).
    pub t_sample: f64,
    /// Segment duration `L` of the virtual video.
    pub segment_duration: f64,
}

impl Default for McConfig {
    fn default() -> Self {
        Self {
            samples: 8,
            t_sample: 48.0,
            segment_duration: 2.0,
        }
    }
}

impl McConfig {
    /// Validate parameters.
    pub fn validate(&self) -> Result<()> {
        if self.samples == 0 {
            return Err(CoreError::InvalidConfig("samples must be positive".into()));
        }
        if !(self.t_sample > 0.0) || !(self.segment_duration > 0.0) {
            return Err(CoreError::InvalidConfig(
                "durations must be positive".into(),
            ));
        }
        if self.segment_duration > self.t_sample {
            return Err(CoreError::InvalidConfig(
                "segment duration exceeds rollout horizon".into(),
            ));
        }
        Ok(())
    }

    /// Segments per rollout.
    pub fn segments_per_sample(&self) -> usize {
        (self.t_sample / self.segment_duration).ceil() as usize
    }

    /// Virtual segments a rollout plays unless it exits: the playback
    /// clock advances by `segment_duration` while it is below `t_sample`.
    fn rollout_steps(&self) -> usize {
        let (mut t, mut steps) = (0.0, 0);
        while t < self.t_sample {
            t += self.segment_duration;
            steps += 1;
        }
        steps
    }
}

/// Outcome of one evaluation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct McEvaluation {
    /// Estimated exit rate `exited / watched`.
    pub exit_rate: f64,
    /// Segments watched across all rollouts.
    pub watched: usize,
    /// Exits observed.
    pub exited: usize,
    /// Whether early termination fired.
    pub pruned: bool,
    /// Mean stall seconds per rollout run (a pruned evaluation averages
    /// over the rollouts it ran; diagnostic).
    pub mean_stall: f64,
}

/// The random inputs of one virtual segment, drawn in field order from
/// its rollout's stream.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SegmentDraw {
    /// Bandwidth `C_k` (kbps) from `N(μ, σ²)`, truncated below at 50 kbps.
    pub bandwidth_kbps: f64,
    /// RTT (seconds) from the player's RTT model.
    pub rtt: f64,
    /// Uniform on `[0, 1)`; the rollout exits when it falls below the
    /// predicted exit probability.
    pub exit_u: f64,
}

/// The stream rollout `m` of every candidate of the pass seeded `pass_seed`
/// draws from.
pub fn rollout_stream(pass_seed: u64, m: usize) -> StdRng {
    StdRng::seed_from_u64(mix64(pass_seed ^ mix64(m as u64)))
}

/// SplitMix64 finalizer: decorrelates the per-rollout seeds (the vendored
/// `seed_from_u64` expands by SplitMix64 steps, so seeds an increment
/// apart would share most of their state).
fn mix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// One pass's common random numbers: `samples × steps` segment draws,
/// row `m` filled lazily, in segment order, from [`rollout_stream`]`(seed,
/// m)` by whichever candidate first reaches a segment.
#[derive(Debug, Default)]
struct DrawTable {
    seed: u64,
    /// What the filled draws were made under. `None` after
    /// [`McScratch::begin_pass`]; an evaluation under another model
    /// re-seeds the rows, so every entry is a pure function of
    /// (seed, model, m, k).
    model: Option<(McConfig, NormalDist, RttModel)>,
    steps: usize,
    table: Vec<SegmentDraw>,
    streams: Vec<StdRng>,
    filled: Vec<usize>,
}

impl DrawTable {
    fn prepare(&mut self, config: &McConfig, bandwidth: NormalDist, rtt: RttModel) {
        let model = Some((*config, bandwidth, rtt));
        if self.model == model {
            return;
        }
        self.model = model;
        self.steps = config.rollout_steps();
        self.table
            .resize(config.samples * self.steps, SegmentDraw::default());
        self.streams.clear();
        self.streams
            .extend((0..config.samples).map(|m| rollout_stream(self.seed, m)));
        self.filled.clear();
        self.filled.resize(config.samples, 0);
    }

    /// Segment `k` of rollout `m`; rollouts read their segments in order,
    /// so `k` is at most the row's fill count.
    fn draw(&mut self, m: usize, k: usize, bandwidth: &NormalDist, rtt: &RttModel) -> SegmentDraw {
        let slot = m * self.steps + k;
        if k == self.filled[m] {
            let stream = &mut self.streams[m];
            let bandwidth_kbps = bandwidth.sample_truncated_low(stream, MIN_ROLLOUT_KBPS);
            let rtt = rtt.sample(stream);
            let exit_u = stream.gen::<f64>();
            self.table[slot] = SegmentDraw {
                bandwidth_kbps,
                rtt,
                exit_u,
            };
            self.filled[m] += 1;
        }
        self.table[slot]
    }
}

/// Reusable scratch space for Monte-Carlo evaluations: the virtual video
/// (a [`SegmentSizes`] table) and the current pass's draw table.
///
/// A scratch owned by the caller amortizes both allocations across the
/// evaluations of a pass — and, in the fleet engine, across every session
/// a user agent runs. The draws of a pass depend only on its seed, so a
/// fresh scratch and a reused one give identical results.
#[derive(Debug, Default)]
pub struct McScratch {
    sizes: Option<SegmentSizes>,
    draws: DrawTable,
}

impl McScratch {
    /// An empty scratch; buffers are created on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// Start a pass seeded `seed`: every evaluation until the next call
    /// is a candidate of this pass, and rollout `m` of each draws from
    /// [`rollout_stream`]`(seed, m)`.
    pub fn begin_pass(&mut self, seed: u64) {
        self.draws.seed = seed;
        self.draws.model = None;
    }

    /// The segment draws rollout `m` of the current pass has made so far
    /// (empty before the pass's first evaluation, or past `M`).
    pub fn rollout_draws(&self, m: usize) -> &[SegmentDraw] {
        match (self.draws.model, self.draws.filled.get(m)) {
            (Some(_), Some(&filled)) => {
                let start = m * self.draws.steps;
                &self.draws.table[start..start + filled]
            }
            _ => &[],
        }
    }
}

/// Evaluate candidate `params` by virtual playback (Algorithm 2) as a
/// one-candidate pass: the pass seed is one draw from `rng`, then
/// [`evaluate_in_pass`].
#[allow(clippy::too_many_arguments)]
pub fn evaluate_parameters_in<R: Rng + ?Sized>(
    abr: &mut dyn Abr,
    params: QoeParams,
    bandwidth: NormalDist,
    user_state: &UserStateTracker,
    env: &PlayerEnv,
    ladder: &BitrateLadder,
    predictor: &mut dyn RolloutPredictor,
    config: &McConfig,
    prune_threshold: Option<f64>,
    scratch: &mut McScratch,
    rng: &mut R,
) -> Result<McEvaluation> {
    scratch.begin_pass(rng.gen());
    evaluate_in_pass(
        abr,
        params,
        bandwidth,
        user_state,
        env,
        ladder,
        predictor,
        config,
        prune_threshold,
        scratch,
    )
}

/// Evaluate candidate `params` by virtual playback (Algorithm 2) as one
/// candidate of the pass `scratch` is on ([`McScratch::begin_pass`]):
/// its rollouts replay the pass's common draws.
#[allow(clippy::too_many_arguments)]
pub fn evaluate_in_pass(
    abr: &mut dyn Abr,
    params: QoeParams,
    bandwidth: NormalDist,
    user_state: &UserStateTracker,
    env: &PlayerEnv,
    ladder: &BitrateLadder,
    predictor: &mut dyn RolloutPredictor,
    config: &McConfig,
    prune_threshold: Option<f64>,
    scratch: &mut McScratch,
) -> Result<McEvaluation> {
    config.validate()?;
    if !(bandwidth.mu > 0.0) {
        return Err(CoreError::InvalidConfig(
            "bandwidth model mean must be positive".into(),
        ));
    }
    let n_segments = config.segments_per_sample();
    let McScratch { sizes, draws } = scratch;
    let rtt = env.config().rtt;
    draws.prepare(config, bandwidth, rtt);
    // Virtual video: CBR segments at the ladder's nominal rates. CBR draws
    // nothing from its stream, so a constant one serves, and refilling a
    // reused table and generating a fresh one are indistinguishable.
    let cbr_stream = &mut StdRng::seed_from_u64(0);
    let sizes: &SegmentSizes = match sizes {
        Some(sizes) => {
            sizes
                .refill(
                    ladder,
                    n_segments,
                    config.segment_duration,
                    &VbrModel::cbr(),
                    cbr_stream,
                )
                .map_err(|e| CoreError::Subsystem(e.to_string()))?;
            sizes
        }
        slot @ None => slot.insert(
            SegmentSizes::generate(
                ladder,
                n_segments,
                config.segment_duration,
                &VbrModel::cbr(),
                cbr_stream,
            )
            .map_err(|e| CoreError::Subsystem(e.to_string()))?,
        ),
    };

    abr.set_params(params);
    let mut watched = 0usize;
    let mut exited = 0usize;
    let mut total_stall = 0.0;
    let mut rollouts = 0usize;
    let mut pruned = false;

    // Predictors that only read the short-term context get a zero matrix;
    // building the real one is a per-segment copy of the tracker rows. The
    // tracker fork itself is dead weight in that case too — it is only
    // ever read back through `matrix()` and is dropped when the rollout
    // ends — so the fork and its per-segment pushes are skipped as well.
    let wants_state = predictor.wants_state();
    let zero_matrix = StateMatrix::zeros();

    // One scratch fork, re-seeded per rollout (`clone_from` keeps the
    // history buffers' allocations alive across rollouts).
    let mut env_sim = env.clone();
    'samples: for m in 0..config.samples {
        // Fork the live state (S_sim ← S, E_sim ← E_player).
        if m > 0 {
            env_sim.clone_from(env);
        }
        let mut tracker = wants_state.then(|| user_state.clone());
        abr.reset();
        let mut t_sim = 0.0;
        let mut session_stall = 0.0;
        let mut session_events = 0usize;
        for k in 0..draws.steps {
            let ctx = AbrContext {
                ladder,
                sizes,
                next_segment: k.min(n_segments - 1),
                segment_duration: config.segment_duration,
            };
            let level = abr.select(&env_sim, &ctx).min(ladder.top_level());
            let size = sizes
                .size_kbits(k.min(n_segments - 1), level)
                .map_err(|e| CoreError::Subsystem(e.to_string()))?;
            // Bandwidth, RTT and exit uniform: rollout m's k-th draws,
            // common to every candidate of the pass.
            let draw = draws.draw(m, k, &bandwidth, &rtt);
            let prev = env_sim.last_level();
            let outcome = env_sim
                .step_with_rtt(
                    size,
                    level,
                    draw.bandwidth_kbps,
                    config.segment_duration,
                    draw.rtt,
                )
                .map_err(|e| CoreError::Subsystem(e.to_string()))?;
            total_stall += outcome.stall_time;

            let stalled = outcome.stall_time > 0.0;
            if stalled {
                session_stall += outcome.stall_time;
                session_events += 1;
            }
            // Update the user-state matrix (skipped entirely when the
            // predictor never reads it).
            if let Some(tracker) = tracker.as_mut() {
                let bitrate = ladder
                    .bitrate(level)
                    .map_err(|e| CoreError::Subsystem(e.to_string()))?;
                tracker.push_segment(bitrate, outcome.throughput_kbps, config.segment_duration);
                if stalled {
                    tracker.push_stall(outcome.stall_time);
                }
            }
            let tier = ladder
                .tier(level)
                .map_err(|e| CoreError::Subsystem(e.to_string()))?;
            let gran = match prev {
                Some(p) => level as i64 - p as i64,
                None => 0,
            };
            let rollout_ctx = RolloutContext {
                stalled,
                tier,
                switch_granularity: gran,
                session_stall,
                session_stall_events: session_events,
                playback_time: t_sim,
            };
            let matrix = match tracker.as_ref() {
                Some(tracker) => tracker.matrix(),
                None => zero_matrix,
            };
            let p_exit = predictor.predict(&matrix, &rollout_ctx).clamp(0.0, 1.0);
            watched += 1;
            t_sim += config.segment_duration;
            if draw.exit_u < p_exit {
                exited += 1;
                if let Some(tracker) = tracker.as_mut().filter(|_| stalled) {
                    tracker.push_stall_exit();
                }
                break;
            }
        }
        rollouts += 1;

        // Early-termination pruning (§4): optimistic bound on the final
        // exit rate assuming every remaining rollout watches its full
        // horizon without a single exit.
        if let Some(threshold) = prune_threshold {
            let remaining = (config.samples - m - 1) * n_segments;
            let optimistic = exited as f64 / (watched + remaining).max(1) as f64;
            if optimistic >= threshold {
                pruned = true;
                break 'samples;
            }
        }
    }

    Ok(McEvaluation {
        exit_rate: if watched == 0 {
            1.0
        } else {
            exited as f64 / watched as f64
        },
        watched,
        exited,
        pruned,
        mean_stall: total_stall / rollouts as f64,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::predictor::ConstantPredictor;
    use lingxi_abr::Hyb;
    use lingxi_player::PlayerConfig;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// One evaluation of HYB's default parameters from a fresh player and
    /// an empty history into `scratch`: a constant-`p` predictor under
    /// `N(mu, sigma²)`.
    fn evaluate(
        p: f64,
        (mu, sigma): (f64, f64),
        cfg: &McConfig,
        prune_threshold: Option<f64>,
        scratch: &mut McScratch,
        seed: u64,
    ) -> McEvaluation {
        evaluate_parameters_in(
            &mut Hyb::default_rule(),
            QoeParams::default(),
            NormalDist::new(mu, sigma).unwrap(),
            &UserStateTracker::new(),
            &PlayerEnv::new(PlayerConfig::deterministic(10.0, 0.0)).unwrap(),
            &BitrateLadder::default_short_video(),
            &mut ConstantPredictor { p },
            cfg,
            prune_threshold,
            scratch,
            &mut StdRng::seed_from_u64(seed),
        )
        .unwrap()
    }

    const RICH_LINK: (f64, f64) = (8000.0, 1000.0);

    #[test]
    fn zero_exit_predictor_watches_everything() {
        let cfg = McConfig::default();
        let eval = evaluate(0.0, RICH_LINK, &cfg, None, &mut McScratch::new(), 1);
        assert_eq!(eval.exit_rate, 0.0);
        assert_eq!(eval.exited, 0);
        assert_eq!(eval.watched, cfg.samples * cfg.segments_per_sample());
        assert!(!eval.pruned);
    }

    #[test]
    fn certain_exit_predictor_exits_immediately() {
        let cfg = McConfig::default();
        let eval = evaluate(1.0, RICH_LINK, &cfg, None, &mut McScratch::new(), 2);
        assert_eq!(eval.exit_rate, 1.0);
        assert_eq!(eval.watched, cfg.samples); // one segment per rollout
    }

    #[test]
    fn estimate_tracks_constant_probability() {
        let p = 0.08;
        let cfg = McConfig {
            samples: 200,
            ..McConfig::default()
        };
        let eval = evaluate(p, RICH_LINK, &cfg, None, &mut McScratch::new(), 3);
        // Per-segment exit probability p → exit rate ≈ p.
        assert!((eval.exit_rate - p).abs() < 0.03, "rate {}", eval.exit_rate);
    }

    #[test]
    fn pruning_short_circuits_hopeless_candidates() {
        let cfg = McConfig {
            samples: 64,
            ..McConfig::default()
        };
        // Sibling candidate achieved 0.01: this one can't win.
        let eval = evaluate(0.5, RICH_LINK, &cfg, Some(0.01), &mut McScratch::new(), 4);
        assert!(eval.pruned);
        assert!(eval.watched < cfg.samples * cfg.segments_per_sample() / 2);
    }

    /// A pruned evaluation averages its stall over the rollouts it ran.
    /// Rollout m's draws do not depend on M, so a threshold of 0 (prune
    /// after the first rollout) at M = 8 must report what M = 1 does.
    #[test]
    fn pruned_mean_stall_averages_the_rollouts_run() {
        let low = (300.0, 50.0);
        let cfg = McConfig::default();
        let pruned = evaluate(0.0, low, &cfg, Some(0.0), &mut McScratch::new(), 6);
        let one = McConfig { samples: 1, ..cfg };
        let single = evaluate(0.0, low, &one, None, &mut McScratch::new(), 6);
        assert!(pruned.pruned && !single.pruned);
        assert_eq!(pruned.watched, single.watched);
        assert!(single.mean_stall > 0.0);
        assert_eq!(pruned.mean_stall, single.mean_stall);
    }

    #[test]
    fn low_bandwidth_rollouts_stall() {
        let cfg = McConfig::default();
        let eval = evaluate(0.0, (300.0, 50.0), &cfg, None, &mut McScratch::new(), 5);
        assert!(
            eval.mean_stall > 0.0,
            "300 kbps below the ladder floor must stall"
        );
    }

    #[test]
    fn config_validation() {
        let bad = McConfig {
            samples: 0,
            ..McConfig::default()
        };
        assert!(bad.validate().is_err());
        let bad2 = McConfig {
            segment_duration: 100.0,
            t_sample: 10.0,
            samples: 4,
        };
        assert!(bad2.validate().is_err());
        assert_eq!(McConfig::default().segments_per_sample(), 24);
    }

    #[test]
    fn scratch_reuse_is_transparent() {
        let cfg = McConfig::default();
        let mut scratch = McScratch::new();
        let first = evaluate(0.05, (4000.0, 1500.0), &cfg, None, &mut scratch, 11);
        // Reusing the warm scratch must not change anything.
        let second = evaluate(0.05, (4000.0, 1500.0), &cfg, None, &mut scratch, 11);
        assert_eq!(first, second);
    }

    #[test]
    fn deterministic_given_seed() {
        let cfg = McConfig::default();
        let run = |seed| {
            evaluate(
                0.05,
                (5000.0, 2000.0),
                &cfg,
                None,
                &mut McScratch::new(),
                seed,
            )
        };
        assert_eq!(run(9), run(9));
    }
}
