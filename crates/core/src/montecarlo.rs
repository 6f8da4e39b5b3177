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
//! under are the same for every candidate. The table holds, beside each
//! draw, every ladder level's decision ratio `size / estimate`, with the
//! checks [`PlayerEnv::step_with_rtt`] makes on the draw run once (the
//! virtual video's sizes are checked once per key). A HYB candidate's
//! step calls HYB's own rule, [`Hyb::decide`], on the ratios with the
//! rollout as its [`BetaWitness`], divides the chosen level's size by the
//! bandwidth, then plays Eq. 3 past its checks: comparisons and adds on
//! what its β changes — buffer, last level, stall counters, exit — and the
//! tracker fork when the predictor reads it. A segment's `B_max` is read
//! only when the buffer can reach the policy's lowest possible cap
//! ([`bmax_for_step`]); the first step that reads it fits it over the
//! slot's window — the key's history, then the row's earlier draws — and
//! the slot keeps it. Every other ABR plays a forked [`PlayerEnv`] through
//! a fork of itself ([`Abr::fork`]).
//!
//! # Recorded rollouts
//!
//! HYB compares each level's ratio `r` with `fl(β·b)` (`b` the buffer,
//! floored at a quarter segment) and, before climbing above the last
//! level, the chosen level's ratio with `fl(fl(0.8·β)·b)`. Both products
//! are monotone in β, so the βs that make one decision form an interval,
//! and the βs that make every decision of a rollout the same form the
//! intersection of its decisions' intervals. Inside it a rollout plays
//! the same levels, so the same buffers, stalls, predictor inputs and
//! exit. While a HYB candidate steps, [`Hyb::decide`] reports each
//! comparison it makes to the rollout, which bounds β
//!
//! - above, by `r / b` of every level above the choice (no level is
//!   assumed cheaper than the one above it);
//! - below, by `r / b` of the choice when it is above level 0 (level 0 is
//!   the fallback whatever its ratio);
//! - wherever the hysteresis test runs, by `r / fl(0.8·b)` of the choice:
//!   above when it held the last level, below when it did not.
//!
//! Each bound is narrowed by a relative margin (`BETA_MARGIN`) of 1e-12, far
//! more than the few roundings (each within 2⁻⁵³) that separate the
//! computed quotient from the β at which the product crosses `r`; a bound
//! or ratio that is not a normal float leaves the rollout unrecorded.
//! The table records each rollout a candidate steps as (interval,
//! segments watched, exit, its nonzero stalls in order), and a later
//! candidate of the pass whose β lies strictly inside a recorded interval
//! adds that outcome instead of stepping it — the stalls one by one, so
//! the mean stall sums in the same order. Recorded rollouts are keyed on
//! everything a rollout reads beside the table and β: the live buffer,
//! last level and startup flag, and the tracker when the predictor reads
//! state. A change of that key, a re-key of the table and
//! [`McScratch::begin_pass`] forget them; so the predictor must be one
//! pure function across a pass.
//!
//! The first pruning stage of §4 lives here: when a `prune_threshold`
//! (the minimum exit rate observed across sibling candidates) is given,
//! evaluation terminates early as soon as even the most optimistic
//! completion (every remaining segment watched without exit) could not
//! beat it.

use std::collections::VecDeque;
use std::ops::Range;

use lingxi_abr::{sync_window, Abr, AbrContext, BetaWitness, Hyb, QoeParams};
use lingxi_exit::{StateMatrix, UserStateTracker};
use lingxi_media::{BitrateLadder, SegmentSizes, VbrModel};
use lingxi_net::{BandwidthEstimator, EwmaEstimator};
use lingxi_player::{
    bmax_for_step, buffer_step_timed, slide_window, switch_granularity, validate_draw,
    validate_size, PlayerConfig, PlayerEnv, SegmentOutcome,
};
use lingxi_stats::NormalDist;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::predictor::{RolloutContext, RolloutPredictor};
use crate::{CoreError, Result};

/// Floor (kbps) for rollout bandwidth draws: the truncation keeps the
/// normal model's left tail from producing zero or negative rates.
const MIN_ROLLOUT_KBPS: f64 = 50.0;

/// Relative margin by which each β bound of a HYB decision is narrowed
/// (see the module doc, "Recorded rollouts").
const BETA_MARGIN: f64 = 1e-12;

/// The most segments a rollout may hold (`t_sample / segment_duration`):
/// the draw table has `samples × segments` entries, and a float clock
/// stops advancing once `t_sample` dwarfs the step.
const MAX_SEGMENTS_PER_SAMPLE: f64 = 65_536.0;

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
    /// Validate parameters: at least one rollout and a horizon of one to
    /// 2¹⁶ segments of positive duration.
    pub fn validate(&self) -> Result<()> {
        if self.samples == 0 {
            return Err(CoreError::InvalidConfig("samples must be positive".into()));
        }
        if !(self.t_sample > 0.0) || !(self.segment_duration > 0.0) {
            return Err(CoreError::InvalidConfig(
                "durations must be positive".into(),
            ));
        }
        // `t_sample / segment_duration` rounds below 1 exactly when the
        // segment is longer than the horizon.
        let segments = self.t_sample / self.segment_duration;
        if !(1.0..=MAX_SEGMENTS_PER_SAMPLE).contains(&segments) {
            return Err(CoreError::InvalidConfig(format!(
                "rollout horizon must hold 1 to {MAX_SEGMENTS_PER_SAMPLE} segments, got {segments}"
            )));
        }
        Ok(())
    }

    /// Segments per rollout: what a rollout plays unless it exits, the
    /// length of the virtual video and what the §4 prune bound counts.
    /// The playback clock advances by `segment_duration` while it is below
    /// `t_sample`, so a float sum that lands just under the horizon plays
    /// one segment more than `ceil(t_sample / segment_duration)` (21, not
    /// 20, at 66 s and 3.3 s).
    pub fn segments_per_sample(&self) -> usize {
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

/// Virtual segments a scratch's evaluations have covered, by how: stepped
/// through a rollout kernel, or added from a recorded rollout; and the
/// draw-table `B_max`s the HYB kernel fitted. A pure function of the
/// evaluations run, so it counts work exactly where wall time cannot.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RolloutWork {
    /// Segments played step by step.
    pub stepped: u64,
    /// Segments added from a sibling candidate's recorded rollout.
    pub replayed: u64,
    /// Table slots whose `B_max` a HYB step read, so fitted (once each).
    pub bmax_fits: u64,
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
    /// window), segment index and throughput window — so its `B_max`.
    player: PlayerConfig,
    segment_index: usize,
    history: Vec<f64>,
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
            && self.history.iter().eq(env.throughput_history())
            && self.ladder == *ladder
    }
}

/// What a HYB rollout reads that [`TableKey`] does not: the live buffer
/// (by its bits), last level and startup flag, and the tracker when the
/// predictor reads state. Recorded rollouts hold only under the key they
/// were played from.
#[derive(Debug, Default)]
struct LiveKey {
    buffer: u64,
    last_level: Option<usize>,
    startup: bool,
    tracker: Option<UserStateTracker>,
}

impl LiveKey {
    fn matches(&self, env: &PlayerEnv, tracker: Option<&UserStateTracker>) -> bool {
        self.buffer == env.buffer().to_bits()
            && self.last_level == env.last_level()
            && self.startup == (env.segment_index() == 0)
            && self.tracker.as_ref() == tracker
    }
}

/// A HYB rollout as one candidate stepped it: every β strictly inside
/// `(lo, hi)` makes each of its decisions the same, so plays it the same.
#[derive(Debug)]
struct Recorded {
    lo: f64,
    hi: f64,
    watched: usize,
    exited: bool,
    /// Its nonzero stalls, in order, in the table's stall pool.
    stalls: Range<usize>,
}

impl Recorded {
    /// Whether `beta` plays this rollout: strictly inside finite bounds.
    fn contains(&self, beta: f64) -> bool {
        self.lo.is_finite() && self.hi.is_finite() && self.lo < beta && beta < self.hi
    }
}

/// A forked env's throughput window, and HYB's estimator over it, as of a
/// row's fill count.
#[derive(Debug)]
struct Shadow {
    history: VecDeque<f64>,
    estimator: EwmaEstimator,
}

/// One pass's common random numbers: `samples × steps` segment draws,
/// row `m` filled lazily, in segment order, from [`rollout_stream`]`(seed,
/// m)` by whichever candidate first reaches a segment — with, when the
/// ABR is HYB, the per-level ratios of each segment beside its draw, its
/// `B_max` once a step has read it, and the rollouts HYB candidates
/// recorded.
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
    /// HYB columns: per slot, whether the estimate exists and the `B_max`
    /// the segment steps under (NaN until a step reads it); per slot and
    /// level (`slot × levels + level`), `size / estimate`. `floor` is the
    /// policy's lowest possible `B_max` ([`lingxi_player::BmaxPolicy::floor`]).
    levels: usize,
    floor: f64,
    estimated: Vec<bool>,
    bmax: Vec<f64>,
    ratio: Vec<f64>,
    streams: Vec<StdRng>,
    filled: Vec<usize>,
    shadows: Vec<Shadow>,
    /// Recorded HYB rollouts, per rollout index, under `live`; their
    /// stalls live in `stalls`.
    live: Option<LiveKey>,
    recorded: Vec<Vec<Recorded>>,
    stalls: Vec<f64>,
    /// What the evaluations on this table have done, across keys.
    work: RolloutWork,
}

impl DrawTable {
    /// Re-key the table and empty its rows and recorded rollouts.
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
            alpha,
        });
        let (samples, steps) = (config.samples, config.segments_per_sample());
        self.steps = steps;
        self.table.resize(samples * steps, SegmentDraw::default());
        self.streams.clear();
        self.streams
            .extend((0..samples).map(|m| rollout_stream(self.seed, m)));
        self.filled.clear();
        self.filled.resize(samples, 0);
        self.recorded.resize_with(samples, Vec::new);
        self.forget_rollouts();
        if let Some(estimator) = estimator {
            self.levels = ladder.len();
            self.floor = env.config().bmax.floor();
            self.estimated.resize(samples * steps, false);
            self.bmax.resize(samples * steps, f64::NAN);
            self.ratio.resize(samples * steps * self.levels, 0.0);
            self.shadows.resize_with(samples, || Shadow {
                history: VecDeque::new(),
                estimator,
            });
            for shadow in &mut self.shadows {
                shadow.history.clone_from(env.throughput_history());
                shadow.estimator = estimator;
            }
        }
    }

    /// Drop every recorded rollout.
    fn forget_rollouts(&mut self) {
        self.recorded.iter_mut().for_each(Vec::clear);
        self.stalls.clear();
    }

    /// Keep the recorded rollouts only if they were played from this live
    /// state (`tracker` when the predictor reads it).
    fn key_recorded(&mut self, env: &PlayerEnv, tracker: Option<&UserStateTracker>) {
        if (self.live.as_ref()).is_some_and(|live| live.matches(env, tracker)) {
            return;
        }
        self.forget_rollouts();
        let live = self.live.get_or_insert_with(LiveKey::default);
        live.buffer = env.buffer().to_bits();
        live.last_level = env.last_level();
        live.startup = env.segment_index() == 0;
        match (&mut live.tracker, tracker) {
            (Some(kept), Some(tracker)) => kept.clone_from(tracker),
            (kept, tracker) => *kept = tracker.cloned(),
        }
    }

    /// The slot of segment `k` of rollout `m`, drawn first if it is the
    /// row's next: rollouts read their segments in order, so `k` is at
    /// most the row's fill count.
    fn fill(&mut self, m: usize, k: usize, sizes: &SegmentSizes) -> Result<usize> {
        let slot = m * self.steps + k;
        if k == self.filled[m] {
            if let Err(e) = self.draw(m, k, slot, sizes) {
                // The row's stream is past a draw the row did not keep:
                // unkey, so the next evaluation re-seeds every row.
                self.key = None;
                return Err(e);
            }
            self.filled[m] += 1;
        }
        Ok(slot)
    }

    /// Draw segment `k` of rollout `m` into `slot`, with its HYB columns
    /// when the table has them.
    fn draw(&mut self, m: usize, k: usize, slot: usize, sizes: &SegmentSizes) -> Result<()> {
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
            // Every check a live step makes on the draw; the sizes were
            // checked with the key.
            validate_draw(bandwidth_kbps, key.config.segment_duration, rtt).map_err(subsystem)?;
            // What a forked env and HYB's estimator over it hold before
            // segment k, then the player's window update with the
            // segment's throughput.
            let shadow = &mut self.shadows[m];
            sync_window(
                &mut shadow.estimator,
                key.segment_index + k,
                &shadow.history,
            );
            let estimate = shadow.estimator.estimate();
            self.estimated[slot] = estimate.is_some();
            self.bmax[slot] = f64::NAN;
            // HYB's division, once per level.
            if let Some(estimate) = estimate {
                let row = slot * self.levels..(slot + 1) * self.levels;
                for (level, ratio) in self.ratio[row].iter_mut().enumerate() {
                    *ratio = sizes.size_kbits(k, level).map_err(subsystem)? / estimate;
                }
            }
            slide_window(&key.player, &mut shadow.history, bandwidth_kbps);
        }
        Ok(())
    }

    /// The `B_max` segment `k` of rollout `m` steps under, fitted on its
    /// first read: the policy's cap over the forked env's window before
    /// the segment — the key's history, then the row's first `k`
    /// bandwidth draws, the last `history_window` of them in that order,
    /// as the player's own window would hold them.
    fn bmax(&mut self, m: usize, k: usize) -> f64 {
        let slot = m * self.steps + k;
        if self.bmax[slot].is_nan() {
            let key = self.key.as_ref().expect("a keyed table");
            let window = key.player.history_window;
            let drawn = &self.table[slot - k.min(window)..slot];
            let kept = key.history.len().min(window - drawn.len());
            let history = &key.history[key.history.len() - kept..];
            let rates = history
                .iter()
                .copied()
                .chain(drawn.iter().map(|draw| draw.bandwidth_kbps));
            let policy = &key.player.bmax;
            self.bmax[slot] = policy.refreshed(policy.initial(), rates);
            self.work.bmax_fits += 1;
        }
        self.bmax[slot]
    }
}

/// Check every size of the virtual video as a live step checks a segment's.
fn validate_sizes(sizes: &SegmentSizes, levels: usize) -> Result<()> {
    for k in 0..sizes.n_segments() {
        for level in 0..levels {
            validate_size(sizes.size_kbits(k, level).map_err(subsystem)?).map_err(subsystem)?;
        }
    }
    Ok(())
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
    ///
    /// Every candidate of a pass must roll out against one predictor that
    /// answers as a pure function of its inputs: a HYB candidate adds a
    /// sibling's recorded rollout instead of stepping it wherever its β
    /// makes the sibling's decisions, and so takes the predictor's answers
    /// to the sibling as its own. Starting a pass forgets every recorded
    /// rollout, so the next pass may use another predictor.
    pub fn begin_pass(&mut self, seed: u64) {
        self.draws.seed = seed;
        self.draws.forget_rollouts();
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

    /// The virtual segments this scratch's evaluations have stepped and
    /// replayed, and the table `B_max`s they fitted, since it was created.
    pub fn work(&self) -> RolloutWork {
        self.draws.work
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
            if estimator.is_some() {
                validate_sizes(self.sizes.as_ref().expect("built above"), ladder.len())?;
            }
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
        Some(_) => {
            let tracker = rollouts.predictor.wants_state().then_some(user_state);
            draws.key_recorded(env, tracker);
            rollouts.run(
                &mut HybRollout {
                    beta: params.beta,
                    startup: false,
                    buffer: 0.0,
                    last_level: None,
                    lo: f64::MIN,
                    hi: f64::MAX,
                    stalls_from: 0,
                },
                draws,
            )
        }
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
    outcome: SegmentOutcome,
    exit_u: f64,
}

/// The player side of a rollout: what it carries from one virtual segment
/// to the next, and how it picks and plays one.
trait Rollout {
    /// A rollout `m` the pass recorded that this one would play exactly.
    fn replay<'t>(&self, _m: usize, _draws: &'t DrawTable) -> Option<&'t Recorded> {
        None
    }

    /// Fork the live state for the next rollout.
    fn start(&mut self, env: &PlayerEnv, draws: &DrawTable);

    /// Pick and play segment `k` of rollout `m`.
    fn step(
        &mut self,
        m: usize,
        k: usize,
        ctx: &AbrContext<'_>,
        draws: &mut DrawTable,
    ) -> Result<Step>;

    /// Rollout `m` ended after `watched` segments, by an exit or not.
    fn finish(&mut self, _m: usize, _watched: usize, _exited: bool, _draws: &mut DrawTable) {}
}

/// Any ABR: a fork of it decides on a forked player env.
struct ForkedRollout {
    abr: Box<dyn Abr>,
    env: PlayerEnv,
}

impl Rollout for ForkedRollout {
    fn start(&mut self, env: &PlayerEnv, _: &DrawTable) {
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
        let slot = draws.fill(m, k, ctx.sizes)?;
        let draw = draws.table[slot];
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
            outcome,
            exit_u: draw.exit_u,
        })
    }
}

/// HYB at the candidate's β: the table holds each segment's draw, ratios
/// and (once read) `B_max`, so a rollout carries only its buffer, last
/// level and the β interval its decisions allow.
struct HybRollout {
    beta: f64,
    /// Whether the live session is at its first segment.
    startup: bool,
    buffer: f64,
    last_level: Option<usize>,
    /// The βs strictly between `lo` and `hi` make every decision of this
    /// rollout so far as `beta` did (`lo = ∞` when a bound was not a
    /// normal float).
    lo: f64,
    hi: f64,
    /// Where this rollout's stalls start in the table's stall pool.
    stalls_from: usize,
}

/// The β interval of a rollout's decisions, narrowed by each comparison
/// [`Hyb::decide`] reports.
impl BetaWitness for HybRollout {
    /// `ratio ≥ fl(β·scale)` held for `beta`: keep only the βs below
    /// `ratio / scale`, less the margin.
    fn bound_above(&mut self, ratio: f64, scale: f64) {
        match beta_bound(ratio, scale) {
            Some(bound) => self.hi = self.hi.min(bound - bound.abs() * BETA_MARGIN),
            None => self.lo = f64::INFINITY,
        }
    }

    /// `ratio < fl(β·scale)` held for `beta`: keep only the βs above
    /// `ratio / scale`, plus the margin.
    fn bound_below(&mut self, ratio: f64, scale: f64) {
        match beta_bound(ratio, scale) {
            Some(bound) => self.lo = self.lo.max(bound + bound.abs() * BETA_MARGIN),
            None => self.lo = f64::INFINITY,
        }
    }
}

/// The β at which `fl(β·scale)` crosses `ratio`, when the relative margin
/// covers its rounding: `ratio` and the quotient are normal floats.
fn beta_bound(ratio: f64, scale: f64) -> Option<f64> {
    let bound = ratio / scale;
    (ratio.is_normal() && bound.is_normal()).then_some(bound)
}

impl Rollout for HybRollout {
    fn replay<'t>(&self, m: usize, draws: &'t DrawTable) -> Option<&'t Recorded> {
        draws.recorded[m]
            .iter()
            .find(|recorded| recorded.contains(self.beta))
    }

    fn start(&mut self, env: &PlayerEnv, draws: &DrawTable) {
        self.startup = env.segment_index() == 0;
        self.buffer = env.buffer();
        self.last_level = env.last_level();
        self.lo = f64::MIN;
        self.hi = f64::MAX;
        self.stalls_from = draws.stalls.len();
    }

    fn step(
        &mut self,
        m: usize,
        k: usize,
        ctx: &AbrContext<'_>,
        draws: &mut DrawTable,
    ) -> Result<Step> {
        let slot = draws.fill(m, k, ctx.sizes)?;
        let draw = draws.table[slot];
        let ratios = &draws.ratio[slot * draws.levels..(slot + 1) * draws.levels];
        let level = Hyb::decide(
            self.beta,
            ratios.len(),
            draws.estimated[slot].then_some(|level| ratios[level]),
            self.buffer,
            self.last_level,
            ctx.segment_duration,
            self,
        );
        let size = ctx.sizes.size_kbits(k, level).map_err(subsystem)?;
        let download_time = size / draw.bandwidth_kbps;
        let bmax = bmax_for_step(
            self.buffer,
            download_time,
            ctx.segment_duration,
            draws.floor,
            || draws.bmax(m, k),
        );
        let outcome = buffer_step_timed(
            self.buffer,
            bmax,
            self.startup && k == 0,
            download_time,
            draw.bandwidth_kbps,
            ctx.segment_duration,
            draw.rtt,
        );
        self.buffer = outcome.buffer_after;
        self.last_level = Some(level);
        if outcome.stall_time > 0.0 {
            draws.stalls.push(outcome.stall_time);
        }
        Ok(Step {
            level,
            outcome,
            exit_u: draw.exit_u,
        })
    }

    fn finish(&mut self, m: usize, watched: usize, exited: bool, draws: &mut DrawTable) {
        if self.lo < self.hi {
            let stalls = self.stalls_from..draws.stalls.len();
            draws.recorded[m].push(Recorded {
                lo: self.lo,
                hi: self.hi,
                watched,
                exited,
                stalls,
            });
        } else {
            draws.stalls.truncate(self.stalls_from);
        }
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
        let n_segments = draws.steps;
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
            if let Some(recorded) = rollout.replay(m, draws) {
                // A sibling played this rollout decision for decision:
                // add its outcome, the stalls in the order they fell.
                watched += recorded.watched;
                exited += usize::from(recorded.exited);
                for &stall in &draws.stalls[recorded.stalls.clone()] {
                    total_stall += stall;
                }
                draws.work.replayed += recorded.watched as u64;
            } else {
                // Fork the live state (S_sim ← S, E_sim ← E_player).
                rollout.start(env, draws);
                let mut tracker = wants_state.then(|| user_state.clone());
                let mut prev = env.last_level();
                let mut t_sim = 0.0;
                let mut session_stall = 0.0;
                let mut session_events = 0usize;
                let mut rollout_watched = 0usize;
                let mut exit = false;
                for k in 0..n_segments {
                    let ctx = AbrContext {
                        ladder,
                        sizes,
                        next_segment: k,
                        segment_duration: config.segment_duration,
                    };
                    // Bandwidth, RTT and exit uniform: rollout m's k-th
                    // draws, common to every candidate of the pass.
                    let Step {
                        level,
                        outcome,
                        exit_u,
                    } = rollout.step(m, k, &ctx, draws)?;
                    total_stall += outcome.stall_time;

                    let stalled = outcome.stall_time > 0.0;
                    if stalled {
                        session_stall += outcome.stall_time;
                        session_events += 1;
                    }
                    // Update the user-state matrix (skipped entirely when
                    // the predictor never reads it).
                    if let Some(tracker) = tracker.as_mut() {
                        let bitrate = ladder.bitrate(level).map_err(subsystem)?;
                        tracker.push_segment(
                            bitrate,
                            outcome.throughput_kbps,
                            config.segment_duration,
                        );
                        if stalled {
                            tracker.push_stall(outcome.stall_time);
                        }
                    }
                    let tier = ladder.tier(level).map_err(subsystem)?;
                    let rollout_ctx = RolloutContext {
                        stalled,
                        tier,
                        switch_granularity: switch_granularity(level, prev.replace(level)),
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
                    rollout_watched += 1;
                    t_sim += config.segment_duration;
                    if exit_u < p_exit {
                        exit = true;
                        if let Some(tracker) = tracker.as_mut().filter(|_| stalled) {
                            tracker.push_stall_exit();
                        }
                        break;
                    }
                }
                watched += rollout_watched;
                exited += usize::from(exit);
                draws.work.stepped += rollout_watched as u64;
                rollout.finish(m, rollout_watched, exit, draws);
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
    use crate::predictor::{ConstantPredictor, ProfilePredictor};
    use lingxi_abr::Hyb;
    use lingxi_player::PlayerConfig;
    use lingxi_user::{SensitivityKind, StallProfile};
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

    /// A horizon of more than 2¹⁶ segments is refused before anything
    /// counts them: at 1e17 s the playback clock sticks at 2⁵³ (adding
    /// 1 s no longer moves it), and an infinite horizon never ends.
    #[test]
    fn validation_bounds_the_segments_per_rollout() {
        let at = |t_sample: f64| McConfig {
            samples: 1,
            t_sample,
            segment_duration: 1.0,
        };
        for t_sample in [1e17, f64::INFINITY, MAX_SEGMENTS_PER_SAMPLE + 1.0] {
            let err = at(t_sample).validate().unwrap_err();
            assert!(err.to_string().contains("65536 segments"), "{err}");
        }
        let cap = at(MAX_SEGMENTS_PER_SAMPLE);
        cap.validate().unwrap();
        assert_eq!(cap.segments_per_sample(), 1 << 16);
    }

    /// Exits at the first segment it is asked about, never after.
    struct FirstSegmentExits {
        asked: bool,
    }

    impl RolloutPredictor for FirstSegmentExits {
        fn predict(&mut self, _: &StateMatrix, _: &RolloutContext) -> f64 {
            f64::from(u8::from(!std::mem::replace(&mut self.asked, true)))
        }

        fn wants_state(&self) -> bool {
            false
        }
    }

    /// At 66 s and 3.3 s the playback clock lands just under the horizon
    /// and a rollout plays 21 segments, where `ceil(66 / 3.3)` is 20. The
    /// prune bound must count the 21: rollout 0 exits at once, so with
    /// one rollout left the optimistic rate is 1/22 — below a threshold
    /// of 1/21.5, which the candidate then beats — where counting 20
    /// segments gives 1/21 and prunes it.
    #[test]
    fn the_prune_bound_counts_the_segments_a_rollout_plays() {
        let cfg = McConfig {
            samples: 2,
            t_sample: 66.0,
            segment_duration: 3.3,
        };
        assert_eq!((cfg.t_sample / cfg.segment_duration).ceil(), 20.0);
        assert_eq!(cfg.segments_per_sample(), 21);
        let watched_all = evaluate(0.0, RICH_LINK, &cfg, None, &mut McScratch::new(), 1);
        assert_eq!(watched_all.watched, 2 * 21);

        let threshold = 1.0 / 21.5;
        let eval = evaluate_parameters_in(
            &mut Hyb::default_rule(),
            QoeParams::default(),
            NormalDist::new(RICH_LINK.0, RICH_LINK.1).unwrap(),
            &UserStateTracker::new(),
            &PlayerEnv::new(PlayerConfig::deterministic(10.0, 0.0)).unwrap(),
            &BitrateLadder::default_short_video(),
            &mut FirstSegmentExits { asked: false },
            &cfg,
            Some(threshold),
            &mut McScratch::new(),
            &mut StdRng::seed_from_u64(1),
        )
        .unwrap();
        assert!(!eval.pruned);
        assert_eq!((eval.watched, eval.exited), (22, 1));
        assert!(eval.exit_rate < threshold);
    }

    /// The live state of the recorded-rollout tests: a few segments into a
    /// session on a link near the ladder's middle, so HYB's decisions, its
    /// hysteresis and its stalls all vary with β.
    fn live_env() -> PlayerEnv {
        let mut env = PlayerEnv::new(PlayerConfig::deterministic(10.0, 0.05)).unwrap();
        for (size, level, kbps) in [(700.0, 0, 900.0), (1600.0, 1, 2400.0), (1600.0, 1, 1300.0)] {
            env.step_with_rtt(size, level, kbps, 2.0, 0.05).unwrap();
        }
        env
    }

    /// HYB at `beta` as one candidate of the pass `scratch` is on.
    fn candidate(beta: f64, scratch: &mut McScratch) -> McEvaluation {
        evaluate_in_pass(
            &mut Hyb::default_rule(),
            QoeParams {
                beta,
                ..QoeParams::default()
            },
            NormalDist::new(1800.0, 900.0).unwrap(),
            &UserStateTracker::new(),
            &live_env(),
            &BitrateLadder::default_short_video(),
            &mut ProfilePredictor {
                profile: StallProfile::new(SensitivityKind::Sensitive, 2.0, 0.35).unwrap(),
                base: 0.01,
            },
            &McConfig::default(),
            None,
            scratch,
        )
        .unwrap()
    }

    /// `beta` alone in a pass seeded `seed`, on a fresh scratch.
    fn fresh(beta: f64, seed: u64) -> McEvaluation {
        let mut scratch = McScratch::new();
        scratch.begin_pass(seed);
        candidate(beta, &mut scratch)
    }

    /// The bounds of every interval the pass has recorded, less the
    /// unbounded ends.
    fn recorded_bounds(scratch: &McScratch) -> Vec<f64> {
        let recorded = scratch.draws.recorded.iter().flatten();
        let bounds = recorded.flat_map(|r| [r.lo, r.hi]);
        bounds.filter(|b| b.abs() < f64::MAX).collect()
    }

    /// A β exactly at a recorded bound steps (the interval is open), one
    /// ulp inside replays, one ulp outside steps; each evaluates as it
    /// does alone on a fresh scratch.
    #[test]
    fn a_recorded_interval_replays_strictly_inside_and_exactly() {
        let seed = 17;
        let mut scratch = McScratch::new();
        scratch.begin_pass(seed);
        for beta in [0.5, 0.75, 1.0, 1.25] {
            assert_eq!(candidate(beta, &mut scratch), fresh(beta, seed));
        }
        let bounds = recorded_bounds(&scratch);
        assert!(bounds.len() >= 8, "{bounds:?}");
        for bound in bounds {
            for beta in [bound.next_down(), bound, bound.next_up()] {
                assert_eq!(candidate(beta, &mut scratch), fresh(beta, seed), "β {beta}");
            }
        }
        let work = scratch.work();
        assert!(work.replayed > work.stepped, "{work:?}");
    }

    /// One fixed multi-candidate pass — repeats, one-ulp neighbours and
    /// fresh βs — pins how many virtual segments it steps and replays.
    #[test]
    fn a_fixed_pass_steps_and_replays_a_pinned_number_of_segments() {
        let mut scratch = McScratch::new();
        scratch.begin_pass(5);
        let betas = [0.8, 0.8, 0.8f64.next_up(), 0.6, 1.1, 0.62, 0.8, 1.2];
        let watched: usize = betas
            .iter()
            .map(|&b| candidate(b, &mut scratch).watched)
            .sum();
        let work = scratch.work();
        assert_eq!(work.stepped + work.replayed, watched as u64);
        assert_eq!(
            work,
            RolloutWork {
                stepped: 219,
                replayed: 244,
                bmax_fits: 0,
            }
        );
    }

    /// Every slot's on-demand `B_max` is the one an eager shadow of the
    /// forked env holds before the segment: refreshed over the window
    /// after every draw, from the live env's cap. An adaptive policy on a
    /// link whose window's μ−σ moves between the pivots, over a pass long
    /// enough to slide the window past the live history.
    #[test]
    fn on_demand_table_bmax_equals_an_eager_shadows() {
        let mut env = PlayerEnv::new(PlayerConfig::default()).unwrap();
        for (size, level, kbps) in [
            (700.0, 0, 9000.0),
            (1600.0, 1, 15_000.0),
            (800.0, 0, 4000.0),
        ] {
            env.step_with_rtt(size, level, kbps, 2.0, 0.05).unwrap();
        }
        let mut scratch = McScratch::new();
        scratch.begin_pass(23);
        for beta in [0.6, 0.9, 1.3] {
            evaluate_in_pass(
                &mut Hyb::default_rule(),
                QoeParams {
                    beta,
                    ..QoeParams::default()
                },
                NormalDist::new(9000.0, 6000.0).unwrap(),
                &UserStateTracker::new(),
                &env,
                &BitrateLadder::default_short_video(),
                &mut ConstantPredictor { p: 0.0 },
                &McConfig::default(),
                None,
                &mut scratch,
            )
            .unwrap();
        }
        let policy = env.config().bmax;
        let fits = scratch.work().bmax_fits;
        let (mut fitted, mut distinct) = (0, std::collections::BTreeSet::new());
        for m in 0..McConfig::default().samples {
            let draws: Vec<SegmentDraw> = scratch.rollout_draws(m).to_vec();
            assert_eq!(draws.len(), McConfig::default().segments_per_sample());
            let mut history = env.throughput_history().clone();
            let mut eager = env.bmax();
            for (k, draw) in draws.iter().enumerate() {
                let read_by_a_step = !scratch.draws.bmax[m * scratch.draws.steps + k].is_nan();
                fitted += u64::from(read_by_a_step);
                let on_demand = scratch.draws.bmax(m, k);
                assert_eq!(
                    on_demand.to_bits(),
                    eager.to_bits(),
                    "rollout {m} segment {k}"
                );
                distinct.insert(on_demand.to_bits());
                slide_window(env.config(), &mut history, draw.bandwidth_kbps);
                eager = policy.refreshed(eager, history.iter().copied());
            }
        }
        assert!(fitted > 0, "no step read a cap");
        assert_eq!(fits, fitted, "one fit per slot a step read");
        assert!(distinct.len() > 8, "{} distinct caps", distinct.len());
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
