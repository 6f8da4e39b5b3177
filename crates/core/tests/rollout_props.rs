//! Property tests of the Monte-Carlo pass's common random numbers (see
//! `lingxi_core::montecarlo`).
//!
//! The contract: within one pass, rollout `m` of every candidate replays
//! the draws of `rollout_stream(pass_seed, m)` — per virtual segment the
//! bandwidth, then the RTT, then the exit uniform — whatever the other
//! candidates did before it. So
//!
//! - evaluations through the lazily filled, shared table equal a
//!   reference that re-seeds every rollout's stream fresh for each
//!   candidate (a fresh scratch per candidate), bit for bit, and the
//!   table holds exactly the streams' draws in that order;
//! - equal parameters in one pass give equal evaluations;
//! - a scratch reused across passes equals a fresh one, and so does one
//!   that evaluated another live state under the same pass seed: the
//!   table is keyed by the forked env as well as by the seed;
//! - HYB's kernel (the table's ratio column and on-demand `B_max`, a
//!   rollout carrying only buffer and last level, and a candidate adding a
//!   sibling's recorded rollout wherever its β lies strictly inside that
//!   rollout's β interval) equals HYB played through its own `select` on
//!   a forked env, the loop every other ABR takes;
//! - recorded rollouts hold only under the live buffer, last level and
//!   tracker they were played from, and a scratch whose next pass rolls
//!   out against another predictor forgets the rollouts it recorded under
//!   the last one;
//! - one HYB decision (`Hyb::decide`) witnessed by the kernel's β
//!   recorder decides as it does unwitnessed, and every β inside the
//!   interval it records decides the same level.
//!
//! Cases cover M 1..16, horizons whose segment count is not a whole ratio,
//! no / fixed / sibling-minimum prune thresholds, predictors that do and
//! do not read the state matrix (`wants_state`), live states from the
//! first segment (startup) past a full history window, under a fixed and
//! an adaptive `B_max`, and candidate lists that repeat βs and hold their
//! one-ulp neighbours, where a replay must tell siblings apart.

use lingxi_abr::{Abr, AbrContext, BetaWitness, Hyb, QoeParams};
use lingxi_core::montecarlo::{evaluate_in_pass, rollout_stream};
use lingxi_core::{
    ConstantPredictor, McConfig, McEvaluation, McScratch, ProfilePredictor, RolloutContext,
    RolloutPredictor,
};
use lingxi_exit::{StateMatrix, UserStateTracker};
use lingxi_media::BitrateLadder;
use lingxi_player::{BmaxPolicy, PlayerConfig, PlayerEnv};
use lingxi_stats::NormalDist;
use lingxi_user::{SensitivityKind, StallProfile};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A predictor that reads the state matrix: the exit probability rises
/// with the tracked stall row and falls with throughput.
struct StatePredictor;

impl RolloutPredictor for StatePredictor {
    fn predict(&mut self, state: &StateMatrix, ctx: &RolloutContext) -> f64 {
        let stall: f64 = state.row(2).iter().sum();
        let tput: f64 = state.row(1).iter().sum();
        let stalled = if ctx.stalled { 0.04 } else { 0.0 };
        (0.03 + 0.05 * stall - 0.002 * tput + stalled).clamp(0.0, 1.0)
    }
}

/// HYB without its kernel: every call delegates, but `hyb_alpha` keeps the
/// default `None`, so rollouts take the generic loop on a fork.
#[derive(Clone)]
struct ViaSelect(Hyb);

impl Abr for ViaSelect {
    fn select(&mut self, env: &PlayerEnv, ctx: &AbrContext<'_>) -> usize {
        self.0.select(env, ctx)
    }
    fn set_params(&mut self, params: QoeParams) {
        self.0.set_params(params);
    }
    fn params(&self) -> QoeParams {
        Abr::params(&self.0)
    }
    fn reset(&mut self) {
        self.0.reset();
    }
    fn fork(&self) -> Box<dyn Abr> {
        Box::new(self.clone())
    }
    fn name(&self) -> &'static str {
        "hyb_via_select"
    }
}

/// One generated pass: the live state it forks and the candidates it
/// evaluates.
struct Pass {
    seed: u64,
    config: McConfig,
    bandwidth: NormalDist,
    env: PlayerEnv,
    tracker: UserStateTracker,
    /// 0: constant, 1: profile (context only), 2: reads the state matrix.
    predictor: usize,
    /// `None`: controller-style, each candidate pruned against the best
    /// rate so far; `Some(t)`: every candidate against `t`.
    prune: Option<f64>,
    betas: Vec<f64>,
}

impl Pass {
    #[allow(clippy::too_many_arguments)]
    fn new(
        seed: u64,
        samples: usize,
        (t_sample, segment_duration): (f64, f64),
        (mu, sigma): (f64, f64),
        predictor: usize,
        prune: Option<f64>,
        betas: Vec<f64>,
    ) -> Self {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x11FE);
        // The mobile RTT model draws a jitter per segment, so the RTT is a
        // real column of the table.
        let mut env = PlayerEnv::new(PlayerConfig::default()).unwrap();
        let mut tracker = UserStateTracker::new();
        for _ in 0..rng.gen_range(0..6usize) {
            let kbps = rng.gen_range(200.0..4000.0);
            let outcome = env.step(1600.0, 1, kbps, 2.0, &mut rng).unwrap();
            tracker.push_segment(800.0, kbps, 2.0);
            if outcome.stall_time > 0.0 {
                tracker.push_stall(outcome.stall_time);
            }
        }
        Self {
            seed,
            config: McConfig {
                samples,
                t_sample,
                segment_duration,
            },
            bandwidth: NormalDist::new(mu, sigma).unwrap(),
            env,
            tracker,
            predictor,
            prune,
            betas,
        }
    }

    /// The same pass over another live state: `live` segments played at
    /// bandwidths drawn from `env_seed` (0 leaves the session at startup)
    /// with a throughput window of `window` segments, under a fixed or the
    /// adaptive `B_max`.
    fn with_env(mut self, live: usize, fixed_bmax: bool, env_seed: u64, window: usize) -> Self {
        let mut rng = StdRng::seed_from_u64(env_seed);
        let config = PlayerConfig {
            bmax: if fixed_bmax {
                BmaxPolicy::Fixed(12.0)
            } else {
                BmaxPolicy::default_adaptive()
            },
            history_window: window,
            ..PlayerConfig::default()
        };
        self.env = PlayerEnv::new(config).unwrap();
        self.tracker = UserStateTracker::new();
        for _ in 0..live {
            let kbps = rng.gen_range(200.0..30_000.0);
            let level = rng.gen_range(0..4usize);
            let size = [400.0, 1600.0, 3700.0, 8600.0][level];
            let outcome = self.env.step(size, level, kbps, 2.0, &mut rng).unwrap();
            self.tracker.push_segment(800.0, kbps, 2.0);
            if outcome.stall_time > 0.0 {
                self.tracker.push_stall(outcome.stall_time);
            }
        }
        self
    }

    /// The same pass over a live state that saw the bandwidths
    /// `env_seed` draws but fetched the levels `level_seed` draws, with
    /// one more stall in its tracker when `stalled`: the table key holds
    /// (same history, segment index and fixed `B_max`) while the buffer,
    /// the last level or the tracker differ.
    fn with_levels(mut self, live: usize, env_seed: u64, level_seed: u64, stalled: bool) -> Self {
        let (mut rng, mut levels) = (
            StdRng::seed_from_u64(env_seed),
            StdRng::seed_from_u64(level_seed),
        );
        let config = PlayerConfig {
            bmax: BmaxPolicy::Fixed(12.0),
            ..PlayerConfig::default()
        };
        self.env = PlayerEnv::new(config).unwrap();
        self.tracker = UserStateTracker::new();
        for _ in 0..live {
            let kbps = rng.gen_range(200.0..30_000.0);
            let level = levels.gen_range(0..4usize);
            let size = [400.0, 1600.0, 3700.0, 8600.0][level];
            self.env
                .step_with_rtt(size, level, kbps, 2.0, 0.05)
                .unwrap();
            self.tracker.push_segment(800.0, kbps, 2.0);
        }
        if stalled {
            self.tracker.push_stall(1.5);
        }
        self
    }

    fn evaluate(&self, beta: f64, prune: Option<f64>, scratch: &mut McScratch) -> McEvaluation {
        self.evaluate_on(&mut Hyb::default_rule(), beta, prune, scratch)
    }

    fn evaluate_on(
        &self,
        abr: &mut dyn Abr,
        beta: f64,
        prune: Option<f64>,
        scratch: &mut McScratch,
    ) -> McEvaluation {
        let mut constant = ConstantPredictor { p: 0.04 };
        let mut profile = ProfilePredictor {
            profile: StallProfile::new(SensitivityKind::Sensitive, 2.0, 0.35).unwrap(),
            base: 0.01,
        };
        let mut state = StatePredictor;
        let predictor: &mut dyn RolloutPredictor = match self.predictor {
            0 => &mut constant,
            1 => &mut profile,
            _ => &mut state,
        };
        evaluate_in_pass(
            abr,
            QoeParams {
                beta,
                ..QoeParams::default()
            },
            self.bandwidth,
            &self.tracker,
            &self.env,
            &BitrateLadder::default_short_video(),
            predictor,
            &self.config,
            prune,
            scratch,
        )
        .unwrap()
    }

    /// Every candidate in order, in one pass on `scratch`; with
    /// `fresh_streams`, each candidate gets a fresh scratch instead, so
    /// every rollout's stream is re-seeded for it.
    fn run(&self, scratch: &mut McScratch, fresh_streams: bool) -> Vec<McEvaluation> {
        self.run_on(&mut Hyb::default_rule(), scratch, fresh_streams)
    }

    /// [`Pass::run`] with `abr`'s rollouts.
    fn run_on(
        &self,
        abr: &mut dyn Abr,
        scratch: &mut McScratch,
        fresh_streams: bool,
    ) -> Vec<McEvaluation> {
        scratch.begin_pass(self.seed);
        let mut best = f64::INFINITY;
        let mut out = Vec::new();
        for &beta in &self.betas {
            let prune = self.prune.or(best.is_finite().then_some(best));
            let eval = if fresh_streams {
                let mut fresh = McScratch::new();
                fresh.begin_pass(self.seed);
                self.evaluate_on(abr, beta, prune, &mut fresh)
            } else {
                self.evaluate_on(abr, beta, prune, scratch)
            };
            best = best.min(eval.exit_rate);
            out.push(eval);
        }
        out
    }
}

/// An evaluation with its floats as bits: equal means bit-identical.
fn bits(e: &McEvaluation) -> (u64, usize, usize, bool, u64) {
    (
        e.exit_rate.to_bits(),
        e.watched,
        e.exited,
        e.pruned,
        e.mean_stall.to_bits(),
    )
}

fn all_bits(evals: &[McEvaluation]) -> Vec<(u64, usize, usize, bool, u64)> {
    evals.iter().map(bits).collect()
}

/// The HYB kernel's β recorder, margin (1e-12) and all: the βs strictly
/// between `lo` and `hi` make the witnessed decisions as the witnessed β
/// did; `lo = ∞` when a ratio or bound was not a normal float.
struct BetaInterval {
    lo: f64,
    hi: f64,
}

impl BetaInterval {
    const MARGIN: f64 = 1e-12;

    /// The β at which `β·scale` crosses `ratio`, if both are normal.
    fn bound(ratio: f64, scale: f64) -> Option<f64> {
        let bound = ratio / scale;
        (ratio.is_normal() && bound.is_normal()).then_some(bound)
    }
}

impl BetaWitness for BetaInterval {
    fn bound_above(&mut self, ratio: f64, scale: f64) {
        match Self::bound(ratio, scale) {
            Some(bound) => self.hi = self.hi.min(bound - bound.abs() * Self::MARGIN),
            None => self.lo = f64::INFINITY,
        }
    }

    fn bound_below(&mut self, ratio: f64, scale: f64) {
        match Self::bound(ratio, scale) {
            Some(bound) => self.lo = self.lo.max(bound + bound.abs() * Self::MARGIN),
            None => self.lo = f64::INFINITY,
        }
    }
}

/// Horizons: whole and fractional segment counts (2.0 s into 48 s; 0.7 s
/// into 5 s, where the clock's float steps decide the last segment).
fn horizon() -> impl Strategy<Value = (f64, f64)> {
    prop_oneof![
        Just((48.0, 2.0)),
        Just((5.0, 0.7)),
        (4.0f64..40.0, 1.0f64..4.0),
    ]
}

/// Candidate βs from generated `(kind, β, index)` ops, as a pass might
/// propose them: kind 0 (and the first op) a fresh β, 1 a repeat of an
/// earlier β, 2 and 3 its one-ulp neighbours below and above.
fn candidates(ops: &[(usize, f64, usize)]) -> Vec<f64> {
    let mut betas: Vec<f64> = Vec::with_capacity(ops.len());
    for &(kind, beta, index) in ops {
        let earlier = betas.get(index % betas.len().max(1)).copied();
        betas.push(match (kind, earlier) {
            (1, Some(earlier)) => earlier,
            (2, Some(earlier)) => earlier.next_down(),
            (3, Some(earlier)) => earlier.next_up(),
            _ => beta,
        });
    }
    betas
}

/// Prune thresholds: `(0, _)` none (controller-style sibling minimum in
/// [`Pass::run`]), `(1, t)` a fixed `t`, `(2, _)` 1.0, which fires only
/// when every segment watched so far ended its rollout.
fn prune_of((kind, t): (usize, f64)) -> Option<f64> {
    match kind {
        0 => None,
        1 => Some(t),
        _ => Some(1.0),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The shared, lazily filled table gives every candidate exactly what
    /// fresh per-candidate streams give it, and holds each rollout
    /// stream's draws in segment order: bandwidth, RTT, exit uniform.
    #[test]
    fn shared_table_matches_fresh_streams(
        seed in 0u64..u64::MAX,
        samples in 1usize..=16,
        horizon in horizon(),
        bandwidth in (200.0f64..6000.0, 0.0f64..3000.0),
        predictor in 0usize..3,
        prune in (0usize..3, 0.0f64..0.3),
        betas in collection::vec(0.05f64..1.0, 1..7),
    ) {
        let pass =
            Pass::new(seed, samples, horizon, bandwidth, predictor, prune_of(prune), betas);
        let mut scratch = McScratch::new();
        let shared = pass.run(&mut scratch, false);
        let reference = pass.run(&mut McScratch::new(), true);
        prop_assert_eq!(all_bits(&shared), all_bits(&reference));

        let rtt = pass.env.config().rtt;
        for m in 0..samples {
            let mut stream = rollout_stream(seed, m);
            let draws = scratch.rollout_draws(m);
            prop_assert!(m > 0 || !draws.is_empty(), "rollout 0 always runs");
            for (k, d) in draws.iter().enumerate() {
                let bandwidth = pass.bandwidth.sample_truncated_low(&mut stream, 50.0);
                let rtt = rtt.sample(&mut stream);
                let exit_u = stream.gen::<f64>();
                prop_assert_eq!(
                    (d.bandwidth_kbps.to_bits(), d.rtt.to_bits(), d.exit_u.to_bits()),
                    (bandwidth.to_bits(), rtt.to_bits(), exit_u.to_bits()),
                    "rollout {} segment {}", m, k
                );
            }
        }
    }

    /// Equal parameters in one pass give equal evaluations, whatever was
    /// evaluated between them — repeats and one-ulp neighbours included —
    /// and each equals the candidate alone on a fresh scratch.
    #[test]
    fn equal_params_in_one_pass_evaluate_equal(
        seed in 0u64..u64::MAX,
        samples in 1usize..=16,
        horizon in horizon(),
        bandwidth in (200.0f64..6000.0, 0.0f64..3000.0),
        predictor in 0usize..3,
        beta in 0.05f64..1.0,
        others in collection::vec((0usize..4, 0.05f64..1.0, 0usize..64), 1..9),
        threshold in (0usize..3, 0.0f64..0.3),
    ) {
        let pass = Pass::new(seed, samples, horizon, bandwidth, predictor, None, Vec::new());
        let mut scratch = McScratch::new();
        scratch.begin_pass(seed);
        let threshold = prune_of(threshold);
        let first = pass.evaluate(beta, threshold, &mut scratch);
        let mut ops = vec![(0, beta, 0)];
        ops.extend(others);
        for other in candidates(&ops).into_iter().skip(1) {
            let mut fresh = McScratch::new();
            fresh.begin_pass(seed);
            prop_assert_eq!(
                bits(&pass.evaluate(other, None, &mut scratch)),
                bits(&pass.evaluate(other, None, &mut fresh)),
                "β {}", other
            );
        }
        let again = pass.evaluate(beta, threshold, &mut scratch);
        prop_assert_eq!(bits(&first), bits(&again));
    }

    /// A scratch that already ran another pass evaluates the next pass
    /// exactly as a fresh one does — whether the earlier pass differed
    /// only in its seed or also in M, horizon and bandwidth model.
    #[test]
    fn reused_scratch_equals_fresh(
        seeds in (0u64..u64::MAX, 0u64..u64::MAX),
        samples in (1usize..=16, 1usize..=16),
        horizons in (horizon(), horizon()),
        bandwidth in (200.0f64..6000.0, 0.0f64..3000.0),
        predictor in 0usize..3,
        same_model in 0u8..2,
        betas in collection::vec(0.05f64..1.0, 1..5),
    ) {
        let before = if same_model == 1 {
            Pass::new(seeds.0, samples.1, horizons.1, bandwidth, 2 - predictor, None, betas.clone())
        } else {
            let other_bandwidth = (bandwidth.1 + 300.0, bandwidth.0 * 0.3);
            Pass::new(seeds.0, samples.0, horizons.0, other_bandwidth, 2 - predictor, None, betas.clone())
        };
        let pass = Pass::new(seeds.1, samples.1, horizons.1, bandwidth, predictor, None, betas);
        let mut reused = McScratch::new();
        before.run(&mut reused, false);
        let warm = pass.run(&mut reused, false);
        let cold = pass.run(&mut McScratch::new(), false);
        prop_assert_eq!(all_bits(&warm), all_bits(&cold));
    }

    /// HYB's kernel plays every candidate of a pass bit for bit as HYB's
    /// own `select` does on a forked env — whatever the live state, the
    /// cap policy, α, M, horizon, prune mode and predictor, and however
    /// the candidates repeat each other's βs or sit one ulp from them —
    /// alone or interleaved with the generic loop on one scratch.
    #[test]
    fn hyb_kernel_equals_the_generic_loop(
        seed in 0u64..u64::MAX,
        samples in 1usize..=16,
        horizon in horizon(),
        bandwidth in (200.0f64..6000.0, 0.0f64..3000.0),
        predictor in 0usize..3,
        prune in (0usize..3, 0.0f64..0.3),
        ops in collection::vec((0usize..4, 0.05f64..1.0, 0usize..64), 1..10),
        live in 0usize..14,
        fixed_bmax in 0u8..2,
        window in 1usize..=10,
        alpha in 0.05f64..=1.0,
    ) {
        let betas = candidates(&ops);
        let pass = Pass::new(seed, samples, horizon, bandwidth, predictor, prune_of(prune), betas)
            .with_env(live, fixed_bmax == 1, seed, window);
        let hyb = Hyb::new(alpha).unwrap();
        let kernel = pass.run_on(&mut hyb.clone(), &mut McScratch::new(), false);
        let generic = pass.run_on(&mut ViaSelect(hyb.clone()), &mut McScratch::new(), false);
        prop_assert_eq!(all_bits(&kernel), all_bits(&generic));

        let mut scratch = McScratch::new();
        scratch.begin_pass(seed);
        for &beta in &pass.betas {
            let k = pass.evaluate_on(&mut hyb.clone(), beta, None, &mut scratch);
            let g = pass.evaluate_on(&mut ViaSelect(hyb.clone()), beta, None, &mut scratch);
            prop_assert_eq!(bits(&k), bits(&g));
        }
    }

    /// The table is keyed by the live state it forks, not only by the pass
    /// seed: a scratch that evaluated one live state evaluates another
    /// under the same seed exactly as a fresh scratch does — in the next
    /// pass, or interleaved inside one pass.
    #[test]
    fn table_is_keyed_by_the_live_state(
        seed in 0u64..u64::MAX,
        samples in 1usize..=16,
        horizon in horizon(),
        bandwidth in (200.0f64..6000.0, 0.0f64..3000.0),
        predictor in 0usize..3,
        betas in collection::vec(0.05f64..1.0, 1..5),
        lives in (0usize..14, 0usize..14),
        fixed_bmax in (0u8..2, 0u8..2),
        env_seeds in (0u64..3, 0u64..3),
    ) {
        let pass = |live, fixed: u8, env_seed| {
            Pass::new(seed, samples, horizon, bandwidth, predictor, None, betas.clone())
                .with_env(live, fixed == 1, env_seed, 8)
        };
        let a = pass(lives.0, fixed_bmax.0, env_seeds.0);
        let b = pass(lives.1, fixed_bmax.1, env_seeds.1);
        let cold_a = a.run(&mut McScratch::new(), false);
        let cold_b = b.run(&mut McScratch::new(), false);

        let mut reused = McScratch::new();
        prop_assert_eq!(all_bits(&a.run(&mut reused, false)), all_bits(&cold_a));
        prop_assert_eq!(all_bits(&b.run(&mut reused, false)), all_bits(&cold_b));

        let fresh = |pass: &Pass, beta| {
            let mut scratch = McScratch::new();
            scratch.begin_pass(seed);
            bits(&pass.evaluate(beta, None, &mut scratch))
        };
        reused.begin_pass(seed);
        for &beta in &betas {
            prop_assert_eq!(bits(&a.evaluate(beta, None, &mut reused)), fresh(&a, beta));
            prop_assert_eq!(bits(&b.evaluate(beta, None, &mut reused)), fresh(&b, beta));
        }
    }

    /// A pass's recorded rollouts are kept under the live buffer, last
    /// level and tracker they were played from: candidates of one pass
    /// over live states that share the table key (history, segment index,
    /// `B_max`) but differ in the levels fetched or in one tracked stall
    /// evaluate each exactly as on a fresh scratch.
    #[test]
    fn recorded_rollouts_are_keyed_by_the_live_state(
        seed in 0u64..u64::MAX,
        samples in 1usize..=16,
        horizon in horizon(),
        bandwidth in (200.0f64..6000.0, 0.0f64..3000.0),
        predictor in 0usize..3,
        ops in collection::vec((0usize..4, 0.05f64..1.0, 0usize..64), 1..6),
        live in 1usize..14,
        level_seeds in (0u64..4, 0u64..4),
    ) {
        let betas = candidates(&ops);
        let pass = |level_seed, stalled| {
            Pass::new(seed, samples, horizon, bandwidth, predictor, None, Vec::new())
                .with_levels(live, seed, level_seed, stalled)
        };
        let states = [
            pass(level_seeds.0, false),
            pass(level_seeds.1, false),
            pass(level_seeds.0, true),
        ];
        let mut shared = McScratch::new();
        shared.begin_pass(seed);
        for &beta in &betas {
            for state in &states {
                let mut fresh = McScratch::new();
                fresh.begin_pass(seed);
                prop_assert_eq!(
                    bits(&state.evaluate(beta, None, &mut shared)),
                    bits(&state.evaluate(beta, None, &mut fresh))
                );
            }
        }
    }

    /// A scratch whose next pass, under the same seed and live state,
    /// rolls out against another predictor evaluates it exactly as a fresh
    /// scratch does: the table's draws are kept, the recorded rollouts —
    /// the old predictor's answers — are not.
    #[test]
    fn a_new_pass_forgets_the_last_predictors_rollouts(
        seed in 0u64..u64::MAX,
        samples in 1usize..=16,
        horizon in horizon(),
        bandwidth in (200.0f64..6000.0, 0.0f64..3000.0),
        predictors in (0usize..3, 0usize..3),
        ops in collection::vec((0usize..4, 0.05f64..1.0, 0usize..64), 1..8),
        live in 0usize..14,
    ) {
        let betas = candidates(&ops);
        let pass = |predictor| {
            Pass::new(seed, samples, horizon, bandwidth, predictor, None, betas.clone())
                .with_env(live, false, seed, 8)
        };
        let (before, after) = (pass(predictors.0), pass(predictors.1));
        let mut reused = McScratch::new();
        before.run(&mut reused, false);
        let warm = after.run(&mut reused, false);
        prop_assert_eq!(all_bits(&warm), all_bits(&after.run(&mut McScratch::new(), false)));
    }

    /// One HYB decision: witnessed by the kernel's β recorder it decides
    /// as it does unwitnessed, and the interval it records contains β and
    /// decides alike at its inner ends (one ulp in) and its midpoint —
    /// over ascending ratio rows that may start at zero or a subnormal and
    /// end at infinity, buffers below and above the quarter-segment grace
    /// and every last level. A row of normal ratios always records. (β
    /// is drawn apart from the ratios, so it falls within the 1e-12
    /// margin of a bound, where the recorder may leave it outside its own
    /// interval, with negligible probability.)
    #[test]
    fn a_decisions_beta_interval_decides_alike(
        first in prop_oneof![Just(0.0), Just(5e-324), Just(1e-310), 1e-3f64..10.0],
        steps in collection::vec(prop_oneof![Just(0.0), Just(5e-324), 0.0f64..4.0], 1..8),
        infinite_top in 0u8..2,
        quarters in prop_oneof![0.0f64..1.0, 1.0f64..60.0],
        segment_duration in 0.5f64..6.0,
        last in 0usize..9,
        beta in 0.05f64..2.0,
    ) {
        let mut ratios = vec![first];
        for step in steps {
            ratios.push(ratios[ratios.len() - 1] + step);
        }
        if infinite_top == 1 {
            *ratios.last_mut().unwrap() = f64::INFINITY;
        }
        let levels = ratios.len();
        let row = |level: usize| ratios[level];
        let buffer = quarters * segment_duration * 0.25;
        let last = (last < levels).then_some(last);
        let unwitnessed =
            |beta: f64| Hyb::decide(beta, levels, Some(row), buffer, last, segment_duration, &mut ());
        let plain = unwitnessed(beta);
        let mut interval = BetaInterval { lo: f64::MIN, hi: f64::MAX };
        let witnessed =
            Hyb::decide(beta, levels, Some(row), buffer, last, segment_duration, &mut interval);
        prop_assert_eq!(witnessed, plain);
        let BetaInterval { lo, hi } = interval;
        prop_assert!(
            lo < hi || !ratios[1..].iter().all(|r| r.is_normal()),
            "normal ratios {:?} left β = {} unrecorded ({}, {})", ratios, beta, lo, hi
        );
        if lo < hi {
            prop_assert!(lo < beta && beta < hi, "β = {} outside ({}, {})", beta, lo, hi);
            for inside in [lo.next_up(), hi.next_down(), lo / 2.0 + hi / 2.0] {
                prop_assert_eq!(unwitnessed(inside), plain, "β = {} in ({}, {})", inside, lo, hi);
            }
        }
    }
}
