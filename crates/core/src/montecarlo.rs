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
//! The rollouts never touch the caller's ABR. HYB, the §5.3 ABR, runs on a
//! kernel of its own: a virtual segment's observed throughput is its
//! bandwidth draw whatever level was fetched, so the throughput window,
//! the EWMA estimate HYB decides on and the `B_max` each segment steps
//! under are the same for every candidate, and the table holds them
//! beside the draws. A HYB candidate's rollout then carries only what its
//! β changes: buffer, last level, stall counters, exit — and the tracker
//! fork when the predictor reads it. Every other ABR plays a forked
//! [`PlayerEnv`] through a fork of itself ([`Abr::fork`]).
//!
//! The first pruning stage of §4 lives here: when a `prune_threshold`
//! (the minimum exit rate observed across sibling candidates) is given,
//! evaluation terminates early as soon as even the most optimistic
//! completion (every remaining segment watched without exit) could not
//! beat it.

use std::collections::VecDeque;

use lingxi_abr::{sync_window, Abr, AbrContext, Hyb, QoeParams};
use lingxi_exit::{StateMatrix, UserStateTracker};
use lingxi_media::{BitrateLadder, SegmentSizes, VbrModel};
use lingxi_net::{BandwidthEstimator, EwmaEstimator};
use lingxi_player::{buffer_step, PlayerConfig, PlayerEnv, SegmentOutcome};
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

/// What a pass's table rows are a pure function of, besides `(m, k)`.
#[derive(Debug)]
struct TableKey {
    seed: u64,
    config: McConfig,
    bandwidth: NormalDist,
    /// The virtual video's ladder.
    ladder: BitrateLadder,
    /// The forked env's player config (RTT model, `B_max` policy, history
    /// window), segment index, throughput window and `B_max`.
    player: PlayerConfig,
    segment_index: usize,
    history: Vec<f64>,
    bmax: f64,
    /// HYB's EWMA α when the ABR is HYB: the rows then carry its columns.
    alpha: Option<f64>,
}

impl TableKey {
    fn matches(
        &self,
        seed: u64,
        config: &McConfig,
        bandwidth: NormalDist,
        env: &PlayerEnv,
        ladder: &BitrateLadder,
        alpha: Option<f64>,
    ) -> bool {
        self.seed == seed
            && self.config == *config
            && self.bandwidth == bandwidth
            && self.alpha == alpha
            && self.player == *env.config()
            && self.segment_index == env.segment_index()
            && self.bmax == env.bmax()
            && self.history.iter().eq(env.throughput_history())
            && self.ladder == *ladder
    }
}

/// A forked env's throughput window and `B_max`, and HYB's estimator over
/// them, as of a row's fill count.
#[derive(Debug)]
struct Shadow {
    history: VecDeque<f64>,
    bmax: f64,
    estimator: EwmaEstimator,
}

/// One pass's common random numbers: `samples × steps` segment draws,
/// row `m` filled lazily, in segment order, from [`rollout_stream`]`(seed,
/// m)` by whichever candidate first reaches a segment — with, when the
/// ABR is HYB, the estimate and `B_max` of each segment beside its draw.
#[derive(Debug, Default)]
struct DrawTable {
    /// The seed of the pass begun last.
    seed: u64,
    /// What the rows were filled under; every entry is a pure function of
    /// (key, m, k), so rows are kept while the key holds and re-seeded
    /// when it changes.
    key: Option<TableKey>,
    steps: usize,
    table: Vec<SegmentDraw>,
    /// HYB columns, parallel to `table`: the EWMA estimate segment `k`
    /// decides on and the `B_max` it steps under.
    estimate: Vec<Option<f64>>,
    bmax: Vec<f64>,
    streams: Vec<StdRng>,
    filled: Vec<usize>,
    shadows: Vec<Shadow>,
}

impl DrawTable {
    /// Re-key the table and empty its rows.
    fn rekey(
        &mut self,
        config: &McConfig,
        bandwidth: NormalDist,
        env: &PlayerEnv,
        ladder: &BitrateLadder,
        estimator: Option<EwmaEstimator>,
        alpha: Option<f64>,
    ) {
        let mut history = self.key.take().map(|key| key.history).unwrap_or_default();
        history.clear();
        history.extend(env.throughput_history());
        self.key = Some(TableKey {
            seed: self.seed,
            config: *config,
            bandwidth,
            ladder: ladder.clone(),
            player: *env.config(),
            segment_index: env.segment_index(),
            history,
            bmax: env.bmax(),
            alpha,
        });
        let (samples, steps) = (config.samples, config.rollout_steps());
        self.steps = steps;
        self.table.resize(samples * steps, SegmentDraw::default());
        self.streams.clear();
        self.streams
            .extend((0..samples).map(|m| rollout_stream(self.seed, m)));
        self.filled.clear();
        self.filled.resize(samples, 0);
        if let Some(estimator) = estimator {
            self.estimate.resize(samples * steps, None);
            self.bmax.resize(samples * steps, 0.0);
            self.shadows.resize_with(samples, || Shadow {
                history: VecDeque::new(),
                bmax: 0.0,
                estimator,
            });
            for shadow in &mut self.shadows {
                shadow.history.clone_from(env.throughput_history());
                shadow.bmax = env.bmax();
                shadow.estimator = estimator;
            }
        }
    }

    /// The slot of segment `k` of rollout `m`, drawn first if it is the
    /// row's next: rollouts read their segments in order, so `k` is at
    /// most the row's fill count.
    fn fill(&mut self, m: usize, k: usize) -> usize {
        let slot = m * self.steps + k;
        if k == self.filled[m] {
            let key = self.key.as_ref().expect("a keyed table");
            let stream = &mut self.streams[m];
            let bandwidth_kbps = key.bandwidth.sample_truncated_low(stream, MIN_ROLLOUT_KBPS);
            let rtt = key.player.rtt.sample(stream);
            let exit_u = stream.gen::<f64>();
            self.table[slot] = SegmentDraw {
                bandwidth_kbps,
                rtt,
                exit_u,
            };
            if key.alpha.is_some() {
                // What a forked env and HYB's estimator over it hold
                // before segment k, then `step_with_rtt`'s history and
                // cap updates with the segment's throughput.
                let shadow = &mut self.shadows[m];
                sync_window(
                    &mut shadow.estimator,
                    key.segment_index + k,
                    &shadow.history,
                );
                self.estimate[slot] = shadow.estimator.estimate();
                self.bmax[slot] = shadow.bmax;
                shadow.history.push_back(bandwidth_kbps);
                if shadow.history.len() > key.player.history_window {
                    shadow.history.pop_front();
                }
                shadow.bmax = key.player.bmax.refreshed(shadow.bmax, &shadow.history);
            }
            self.filled[m] += 1;
        }
        slot
    }
}

/// Reusable scratch space for Monte-Carlo evaluations: the virtual video
/// (a [`SegmentSizes`] table) and the current pass's draw table.
///
/// A scratch owned by the caller amortizes both allocations across the
/// evaluations of a pass — and, in the fleet engine, across every session
/// a user agent runs. Everything it holds is a pure function of the pass
/// seed and the evaluation's inputs, so a fresh scratch and a reused one
/// give identical results.
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
    }

    /// The segment draws rollout `m` of the current pass has made so far
    /// (empty before the pass's first evaluation, or past `M`).
    pub fn rollout_draws(&self, m: usize) -> &[SegmentDraw] {
        let draws = &self.draws;
        match (&draws.key, draws.filled.get(m)) {
            (Some(key), Some(&filled)) if key.seed == draws.seed => {
                let start = m * draws.steps;
                &draws.table[start..start + filled]
            }
            _ => &[],
        }
    }

    /// Key the table to this evaluation and build the virtual video, both
    /// once per pass: they change only with the key.
    fn prepare(
        &mut self,
        config: &McConfig,
        bandwidth: NormalDist,
        env: &PlayerEnv,
        ladder: &BitrateLadder,
        alpha: Option<f64>,
    ) -> Result<()> {
        let seed = self.draws.seed;
        let keyed = (self.draws.key.as_ref())
            .is_some_and(|key| key.matches(seed, config, bandwidth, env, ladder, alpha));
        if !keyed {
            // Unkey first: a failure below must not leave the old video
            // behind a matching key.
            self.draws.key = None;
            let estimator = alpha
                .map(EwmaEstimator::new)
                .transpose()
                .map_err(|e| CoreError::InvalidConfig(e.to_string()))?;
            // Virtual video: CBR segments at the ladder's nominal rates.
            // CBR draws nothing from its stream, so a constant one serves,
            // and refilling a reused table and generating a fresh one are
            // indistinguishable.
            let n_segments = config.segments_per_sample();
            let cbr_stream = &mut StdRng::seed_from_u64(0);
            let cbr = &VbrModel::cbr();
            match &mut self.sizes {
                Some(sizes) => {
                    sizes.refill(ladder, n_segments, config.segment_duration, cbr, cbr_stream)
                }
                slot @ None => SegmentSizes::generate(
                    ladder,
                    n_segments,
                    config.segment_duration,
                    cbr,
                    cbr_stream,
                )
                .map(|sizes| {
                    *slot = Some(sizes);
                }),
            }
            .map_err(subsystem)?;
            self.draws
                .rekey(config, bandwidth, env, ladder, estimator, alpha);
        }
        Ok(())
    }
}

/// A lower layer's error, as this crate's.
fn subsystem(e: impl std::fmt::Display) -> CoreError {
    CoreError::Subsystem(e.to_string())
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
/// its rollouts replay the pass's common draws. `abr` is only read: a HYB
/// ([`Abr::hyb_alpha`]) runs on the HYB kernel, any other ABR's rollouts
/// play on a fork of it ([`Abr::fork`]).
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
    let alpha = abr.hyb_alpha();
    scratch.prepare(config, bandwidth, env, ladder, alpha)?;
    let McScratch { sizes, draws } = scratch;
    let rollouts = Rollouts {
        config,
        ladder,
        sizes: sizes.as_ref().expect("built with the key"),
        user_state,
        env,
        predictor,
        prune_threshold,
    };
    match alpha {
        Some(_) => rollouts.run(
            &mut HybRollout {
                beta: params.beta,
                startup: false,
                buffer: 0.0,
                last_level: None,
            },
            draws,
        ),
        None => {
            let mut abr = abr.fork();
            abr.set_params(params);
            rollouts.run(
                &mut ForkedRollout {
                    abr,
                    env: env.clone(),
                },
                draws,
            )
        }
    }
}

/// One virtual segment, played.
struct Step {
    level: usize,
    /// The level of the segment before it.
    prev: Option<usize>,
    outcome: SegmentOutcome,
    exit_u: f64,
}

/// The player side of a rollout: what it carries from one virtual segment
/// to the next, and how it picks and plays one.
trait Rollout {
    /// Fork the live state for the next rollout.
    fn start(&mut self, env: &PlayerEnv);

    /// Pick and play segment `k` of rollout `m`.
    fn step(
        &mut self,
        m: usize,
        k: usize,
        ctx: &AbrContext<'_>,
        draws: &mut DrawTable,
    ) -> Result<Step>;
}

/// Any ABR: a fork of it decides on a forked player env.
struct ForkedRollout {
    abr: Box<dyn Abr>,
    env: PlayerEnv,
}

impl Rollout for ForkedRollout {
    fn start(&mut self, env: &PlayerEnv) {
        self.env.clone_from(env);
        self.abr.reset();
    }

    fn step(
        &mut self,
        m: usize,
        k: usize,
        ctx: &AbrContext<'_>,
        draws: &mut DrawTable,
    ) -> Result<Step> {
        let level = self.abr.select(&self.env, ctx).min(ctx.ladder.top_level());
        let size = ctx
            .sizes
            .size_kbits(ctx.next_segment, level)
            .map_err(subsystem)?;
        let slot = draws.fill(m, k);
        let draw = draws.table[slot];
        let prev = self.env.last_level();
        let outcome = self
            .env
            .step_with_rtt(
                size,
                level,
                draw.bandwidth_kbps,
                ctx.segment_duration,
                draw.rtt,
            )
            .map_err(subsystem)?;
        Ok(Step {
            level,
            prev,
            outcome,
            exit_u: draw.exit_u,
        })
    }
}

/// HYB at the candidate's β: the table holds each segment's estimate and
/// `B_max`, so a rollout carries only its buffer and last level.
struct HybRollout {
    beta: f64,
    /// Whether the live session is at its first segment.
    startup: bool,
    buffer: f64,
    last_level: Option<usize>,
}

impl Rollout for HybRollout {
    fn start(&mut self, env: &PlayerEnv) {
        self.startup = env.segment_index() == 0;
        self.buffer = env.buffer();
        self.last_level = env.last_level();
    }

    fn step(
        &mut self,
        m: usize,
        k: usize,
        ctx: &AbrContext<'_>,
        draws: &mut DrawTable,
    ) -> Result<Step> {
        let slot = draws.fill(m, k);
        let draw = draws.table[slot];
        let level = Hyb::decide(
            self.beta,
            draws.estimate[slot],
            self.buffer,
            self.last_level,
            ctx,
        )
        .min(ctx.ladder.top_level());
        let size = ctx
            .sizes
            .size_kbits(ctx.next_segment, level)
            .map_err(subsystem)?;
        let outcome = buffer_step(
            self.buffer,
            draws.bmax[slot],
            self.startup && k == 0,
            size,
            draw.bandwidth_kbps,
            ctx.segment_duration,
            draw.rtt,
        )
        .map_err(subsystem)?;
        self.buffer = outcome.buffer_after;
        Ok(Step {
            level,
            prev: self.last_level.replace(level),
            outcome,
            exit_u: draw.exit_u,
        })
    }
}

/// What every rollout of one evaluation reads.
struct Rollouts<'a> {
    config: &'a McConfig,
    ladder: &'a BitrateLadder,
    sizes: &'a SegmentSizes,
    user_state: &'a UserStateTracker,
    env: &'a PlayerEnv,
    predictor: &'a mut dyn RolloutPredictor,
    prune_threshold: Option<f64>,
}

impl Rollouts<'_> {
    /// Algorithm 2's loop over `M` rollouts of `rollout`'s player side.
    fn run<S: Rollout>(self, rollout: &mut S, draws: &mut DrawTable) -> Result<McEvaluation> {
        let Rollouts {
            config,
            ladder,
            sizes,
            user_state,
            env,
            predictor,
            prune_threshold,
        } = self;
        let n_segments = config.segments_per_sample();
        let mut watched = 0usize;
        let mut exited = 0usize;
        let mut total_stall = 0.0;
        let mut rollouts = 0usize;
        let mut pruned = false;

        // Predictors that only read the short-term context get a zero
        // matrix; building the real one is a per-segment copy of the
        // tracker rows. The tracker fork itself is dead weight in that case
        // too — it is only ever read back through `matrix()` and is dropped
        // when the rollout ends — so the fork and its per-segment pushes
        // are skipped as well.
        let wants_state = predictor.wants_state();
        let zero_matrix = StateMatrix::zeros();

        'samples: for m in 0..config.samples {
            // Fork the live state (S_sim ← S, E_sim ← E_player).
            rollout.start(env);
            let mut tracker = wants_state.then(|| user_state.clone());
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
                // Bandwidth, RTT and exit uniform: rollout m's k-th draws,
                // common to every candidate of the pass.
                let Step {
                    level,
                    prev,
                    outcome,
                    exit_u,
                } = rollout.step(m, k, &ctx, draws)?;
                total_stall += outcome.stall_time;

                let stalled = outcome.stall_time > 0.0;
                if stalled {
                    session_stall += outcome.stall_time;
                    session_events += 1;
                }
                // Update the user-state matrix (skipped entirely when the
                // predictor never reads it).
                if let Some(tracker) = tracker.as_mut() {
                    let bitrate = ladder.bitrate(level).map_err(subsystem)?;
                    tracker.push_segment(bitrate, outcome.throughput_kbps, config.segment_duration);
                    if stalled {
                        tracker.push_stall(outcome.stall_time);
                    }
                }
                let tier = ladder.tier(level).map_err(subsystem)?;
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
                // Borrowed, not copied: the matrix is 320 bytes.
                let built;
                let matrix = match tracker.as_ref() {
                    Some(tracker) => {
                        built = tracker.matrix();
                        &built
                    }
                    None => &zero_matrix,
                };
                let p_exit = predictor.predict(matrix, &rollout_ctx).clamp(0.0, 1.0);
                watched += 1;
                t_sim += config.segment_duration;
                if exit_u < p_exit {
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
