//! The [`Abr`] trait and the adapter driving any `Abr` through the player's
//! closure-based session runner.

use std::collections::VecDeque;

use lingxi_media::{BitrateLadder, SegmentSizes};
use lingxi_player::PlayerEnv;

use crate::params::QoeParams;

/// Per-decision context: everything an ABR may look at besides the player
/// state — the ladder, upcoming segment sizes (for lookahead algorithms)
/// and the index of the segment about to be requested.
pub struct AbrContext<'a> {
    /// The bitrate ladder.
    pub ladder: &'a BitrateLadder,
    /// Per-segment sizes of the current video (lookahead source for MPC).
    pub sizes: &'a SegmentSizes,
    /// Index of the segment about to be downloaded.
    pub next_segment: usize,
    /// Segment duration in seconds.
    pub segment_duration: f64,
}

/// An adaptive-bitrate algorithm.
///
/// Implementations must be deterministic given the same state (Pensieve
/// samples during training but acts greedily at inference).
pub trait Abr: Send {
    /// Choose a level for the next segment.
    fn select(&mut self, env: &PlayerEnv, ctx: &AbrContext<'_>) -> usize;

    /// Update the tunable objective parameters (LingXi's knob, Alg. 1
    /// line 19: `ABR.update(x*)`).
    fn set_params(&mut self, params: QoeParams);

    /// Current parameters.
    fn params(&self) -> QoeParams;

    /// Reset per-session state (estimator windows etc.).
    fn reset(&mut self);

    /// A private copy (configuration, parameters and per-session state)
    /// to play virtual segments on: Monte-Carlo rollouts run on a fork,
    /// so the live instance only ever sees `set_params`.
    fn fork(&self) -> Box<dyn Abr>;

    /// HYB's EWMA α; `None` for every other ABR. The Monte-Carlo
    /// evaluator steps HYB's rollouts on a kernel of its own instead of
    /// through [`Abr::select`]: it calls [`crate::Hyb::decide`], the rule
    /// `select` runs, on a per-pass ratio table with a β witness.
    fn hyb_alpha(&self) -> Option<f64> {
        None
    }

    /// Short algorithm name for reports.
    fn name(&self) -> &'static str;
}

/// Feed an estimator the player's throughput observations it has not seen
/// yet.
///
/// The player exposes a *sliding window* of recent throughputs while
/// estimators count every observation they absorbed, so the number of new
/// samples is `env.segment_index() − estimator.count()`, of which at most
/// the window length is still visible. (Comparing against the window length
/// alone would stop syncing forever once the window fills.) The new samples
/// that already left the window count as consumed, so an estimator synced
/// for the first time mid-session — every rollout's, after `reset` — takes
/// each visible sample once and then one per segment.
pub fn sync_estimator<E: lingxi_net::BandwidthEstimator>(estimator: &mut E, env: &PlayerEnv) {
    sync_window(estimator, env.segment_index(), env.throughput_history());
}

/// [`sync_estimator`] against a player at segment index `total` whose
/// throughput window is `hist`.
pub fn sync_window<E: lingxi_net::BandwidthEstimator>(
    estimator: &mut E,
    total: usize,
    hist: &VecDeque<f64>,
) {
    let seen = estimator.count();
    let new = total.saturating_sub(seen);
    let take = new.min(hist.len());
    estimator.skip(new - take);
    for &s in hist.iter().skip(hist.len() - take) {
        estimator.observe(s);
    }
}

/// Wrap an [`Abr`] into the closure shape expected by
/// [`lingxi_player::run_session`], binding ladder + sizes for one video.
pub fn drive<'a>(
    abr: &'a mut dyn Abr,
    ladder: &'a BitrateLadder,
    sizes: &'a SegmentSizes,
) -> impl FnMut(&PlayerEnv) -> usize + 'a {
    move |env: &PlayerEnv| {
        let ctx = AbrContext {
            ladder,
            sizes,
            next_segment: env.segment_index(),
            segment_duration: sizes.segment_duration(),
        };
        abr.select(env, &ctx)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lingxi_media::VbrModel;
    use lingxi_net::BandwidthEstimator;
    use lingxi_player::PlayerConfig;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Trivial Abr for exercising the adapter.
    #[derive(Clone)]
    struct Fixed(usize, QoeParams);

    impl Abr for Fixed {
        fn select(&mut self, _env: &PlayerEnv, ctx: &AbrContext<'_>) -> usize {
            self.0.min(ctx.ladder.top_level())
        }
        fn set_params(&mut self, p: QoeParams) {
            self.1 = p;
        }
        fn params(&self) -> QoeParams {
            self.1
        }
        fn reset(&mut self) {}
        fn fork(&self) -> Box<dyn Abr> {
            Box::new(self.clone())
        }
        fn name(&self) -> &'static str {
            "fixed"
        }
    }

    #[test]
    fn drive_adapts_trait_to_closure() {
        let ladder = BitrateLadder::default_short_video();
        let mut rng = StdRng::seed_from_u64(1);
        let sizes = SegmentSizes::generate(&ladder, 5, 2.0, &VbrModel::cbr(), &mut rng).unwrap();
        let mut abr = Fixed(2, QoeParams::default());
        let env = PlayerEnv::new(PlayerConfig::deterministic(10.0, 0.0)).unwrap();
        let mut f = drive(&mut abr, &ladder, &sizes);
        assert_eq!(f(&env), 2);
    }

    /// Records every sample it absorbs.
    #[derive(Default)]
    struct Recorder {
        seen: Vec<f64>,
        skipped: usize,
    }

    impl BandwidthEstimator for Recorder {
        fn observe(&mut self, kbps: f64) {
            self.seen.push(kbps);
        }
        fn estimate(&self) -> Option<f64> {
            self.seen.last().copied()
        }
        fn count(&self) -> usize {
            self.seen.len() + self.skipped
        }
        fn skip(&mut self, n: usize) {
            self.skipped += n;
        }
    }

    /// A sync absorbs every throughput exactly once: from the first
    /// segment on, and from a first sync mid-session (segment 20, window
    /// 8), where the samples that already left the window count as
    /// consumed instead of being re-absorbed by the next syncs.
    #[test]
    fn sync_absorbs_each_sample_once() {
        let mut env = PlayerEnv::new(PlayerConfig::deterministic(10.0, 0.0)).unwrap();
        let kbps = |i: usize| 1000.0 + i as f64;
        let mut live = Recorder::default();
        for i in 0..20 {
            sync_estimator(&mut live, &env);
            env.step_with_rtt(500.0, 0, kbps(i), 2.0, 0.0).unwrap();
        }
        assert_eq!(live.seen, (0..19).map(kbps).collect::<Vec<_>>());
        assert_eq!(env.throughput_history().len(), 8);

        let mut late = Recorder::default();
        for i in 20..23 {
            sync_estimator(&mut late, &env);
            assert_eq!(late.count(), env.segment_index());
            env.step_with_rtt(500.0, 0, kbps(i), 2.0, 0.0).unwrap();
        }
        sync_estimator(&mut late, &env);
        assert_eq!(late.seen, (12..23).map(kbps).collect::<Vec<_>>());
        assert_eq!(late.count(), 23);
    }

    #[test]
    fn params_roundtrip() {
        let mut abr = Fixed(0, QoeParams::default());
        let p = QoeParams::stall_averse();
        abr.set_params(p);
        assert_eq!(abr.params(), p);
    }
}
