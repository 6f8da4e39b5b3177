//! The per-segment player environment implementing Eq. 3.

use std::collections::VecDeque;

use lingxi_stats::NormalDist;
use rand::Rng;

use crate::config::PlayerConfig;
use crate::log::SegmentRecord;
use crate::{PlayerError, Result};

/// Outcome of downloading + playing one segment.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SegmentOutcome {
    /// Download time `d_k/C_k` (seconds).
    pub download_time: f64,
    /// Stall time `T_k` (seconds; 0 when the buffer covered the download).
    pub stall_time: f64,
    /// Waiting time `δt_k` (cap overflow wait + RTT).
    pub wait_time: f64,
    /// Buffer level after the update (seconds).
    pub buffer_after: f64,
    /// Observed download throughput (kbps).
    pub throughput_kbps: f64,
}

/// The player environment: buffer state, clocks and history.
///
/// Cloning an env forks the simulation — this is exactly how the
/// Monte-Carlo evaluator of Algorithm 2 seeds each rollout with the live
/// player state (`E_sim ← E_player`).
#[derive(Debug, PartialEq)]
pub struct PlayerEnv {
    config: PlayerConfig,
    /// Current playback buffer (seconds).
    buffer: f64,
    /// Wall-clock seconds since session start.
    wall_time: f64,
    /// Seconds of content played so far.
    playback_time: f64,
    /// Next segment index to download.
    segment_index: usize,
    /// Level chosen for the previous segment.
    last_level: Option<usize>,
    /// Recent observed throughputs (kbps), most recent last, bounded by
    /// `config.history_window`. A ring buffer: the steady-state
    /// push-newest/drop-oldest cycle is allocation-free.
    throughput_history: VecDeque<f64>,
    /// Rebuffer stalls so far.
    stall_count: usize,
    /// Cumulative stall seconds.
    total_stall: f64,
    /// Startup (initial buffering) delay in seconds — tracked separately
    /// from rebuffer stalls, as production players do.
    startup_delay: f64,
}

impl Clone for PlayerEnv {
    fn clone(&self) -> Self {
        Self {
            config: self.config,
            buffer: self.buffer,
            wall_time: self.wall_time,
            playback_time: self.playback_time,
            segment_index: self.segment_index,
            last_level: self.last_level,
            throughput_history: self.throughput_history.clone(),
            stall_count: self.stall_count,
            total_stall: self.total_stall,
            startup_delay: self.startup_delay,
        }
    }

    /// Buffer-reusing fork: the Monte-Carlo evaluator re-seeds one scratch
    /// env from the live player once per rollout, so the throughput
    /// window's allocation must survive the copy instead of being dropped
    /// and re-made thousands of times per optimization pass.
    fn clone_from(&mut self, source: &Self) {
        self.config = source.config;
        self.buffer = source.buffer;
        self.wall_time = source.wall_time;
        self.playback_time = source.playback_time;
        self.segment_index = source.segment_index;
        self.last_level = source.last_level;
        self.throughput_history
            .clone_from(&source.throughput_history);
        self.stall_count = source.stall_count;
        self.total_stall = source.total_stall;
        self.startup_delay = source.startup_delay;
    }
}

impl PlayerEnv {
    /// Fresh environment with an empty buffer.
    pub fn new(config: PlayerConfig) -> Result<Self> {
        config.validate()?;
        Ok(Self {
            config,
            buffer: 0.0,
            wall_time: 0.0,
            playback_time: 0.0,
            segment_index: 0,
            last_level: None,
            // One slot of headroom: `step` pushes before trimming, and a
            // ring at capacity never reallocates.
            throughput_history: VecDeque::with_capacity(config.history_window + 1),
            stall_count: 0,
            total_stall: 0.0,
            startup_delay: 0.0,
        })
    }

    /// Current buffer (seconds).
    pub fn buffer(&self) -> f64 {
        self.buffer
    }

    /// Wall-clock time (seconds).
    pub fn wall_time(&self) -> f64 {
        self.wall_time
    }

    /// Played content time (seconds).
    pub fn playback_time(&self) -> f64 {
        self.playback_time
    }

    /// Next segment index.
    pub fn segment_index(&self) -> usize {
        self.segment_index
    }

    /// Previous segment's level, if any.
    pub fn last_level(&self) -> Option<usize> {
        self.last_level
    }

    /// Recent throughputs (kbps), oldest first (ring buffer; index and
    /// iterate like a slice).
    pub fn throughput_history(&self) -> &VecDeque<f64> {
        &self.throughput_history
    }

    /// Total stall seconds.
    pub fn total_stall(&self) -> f64 {
        self.total_stall
    }

    /// Stall count.
    pub fn stall_count(&self) -> usize {
        self.stall_count
    }

    /// Current buffer cap `B_max = f(N)` (seconds): the policy's cap over
    /// the throughput window, its [`BmaxPolicy::initial`] cap before the
    /// first download. Fitted on every call — a step fits it only when
    /// it can bind ([`bmax_for_step`]).
    ///
    /// [`BmaxPolicy::initial`]: crate::BmaxPolicy::initial
    pub fn bmax(&self) -> f64 {
        let policy = &self.config.bmax;
        policy.refreshed(policy.initial(), self.throughput_history.iter().copied())
    }

    /// Startup (initial-buffering) delay in seconds.
    pub fn startup_delay(&self) -> f64 {
        self.startup_delay
    }

    /// Player configuration.
    pub fn config(&self) -> &PlayerConfig {
        &self.config
    }

    /// Fitted normal model of recent throughput (the `N(mu, sigma^2)` of
    /// Eq. 3), `None` until at least one download completed.
    pub fn bandwidth_model(&self) -> Option<NormalDist> {
        if self.throughput_history.is_empty() {
            return None;
        }
        // `fit_slices(front, back)` visits the deque's elements in
        // iteration order — bit-identical to `fit` over a contiguous copy,
        // without making one.
        let (front, back) = self.throughput_history.as_slices();
        NormalDist::fit_slices(front, back).ok()
    }

    /// Execute one segment download of `size_kbits` at `level`, observing
    /// effective bandwidth `bandwidth_kbps`, with RTT drawn from the config:
    /// one RTT draw from `rng`, then [`PlayerEnv::step_with_rtt`].
    pub fn step<R: Rng + ?Sized>(
        &mut self,
        size_kbits: f64,
        level: usize,
        bandwidth_kbps: f64,
        segment_duration: f64,
        rng: &mut R,
    ) -> Result<SegmentOutcome> {
        let rtt = self.config.rtt.sample(rng);
        self.step_with_rtt(size_kbits, level, bandwidth_kbps, segment_duration, rtt)
    }

    /// [`PlayerEnv::step`] with the RTT (seconds) supplied by the caller —
    /// the Monte-Carlo rollouts draw it ahead of time from a rollout
    /// stream shared by every candidate of a pass.
    ///
    /// Implements Eq. 3 verbatim ([`validate_step`], then
    /// [`buffer_step_timed`] under [`bmax_for_step`]'s cap); also advances
    /// clocks and histories.
    pub fn step_with_rtt(
        &mut self,
        size_kbits: f64,
        level: usize,
        bandwidth_kbps: f64,
        segment_duration: f64,
        rtt: f64,
    ) -> Result<SegmentOutcome> {
        let is_startup = self.segment_index == 0;
        validate_step(size_kbits, bandwidth_kbps, segment_duration, rtt)?;
        let download_time = size_kbits / bandwidth_kbps;
        let bmax = bmax_for_step(
            self.buffer,
            download_time,
            segment_duration,
            self.config.bmax.floor(),
            || self.bmax(),
        );
        let outcome = buffer_step_timed(
            self.buffer,
            bmax,
            is_startup,
            download_time,
            bandwidth_kbps,
            segment_duration,
            rtt,
        );
        let SegmentOutcome {
            download_time,
            stall_time,
            wait_time,
            buffer_after,
            ..
        } = outcome;
        // The whole wait for the download, startup delay included.
        let raw_wait = (download_time - self.buffer).max(0.0);
        if is_startup {
            self.startup_delay = raw_wait;
        }

        // Advance clocks: wall time grows by download + wait; playback
        // advances by the wall time minus stall (content only plays while
        // not stalled), capped by available content.
        let wall_delta = download_time + wait_time;
        // Nothing plays while the buffer is empty (startup or rebuffer).
        let played = (wall_delta - raw_wait).max(0.0).min(
            // can't play more than what was buffered + this segment
            self.buffer + segment_duration,
        );
        if stall_time > 0.0 {
            self.stall_count += 1;
            self.total_stall += stall_time;
        }
        self.wall_time += wall_delta;
        self.playback_time += played;
        self.buffer = buffer_after;
        self.segment_index += 1;
        self.last_level = Some(level);

        slide_window(
            &self.config,
            &mut self.throughput_history,
            outcome.throughput_kbps,
        );

        Ok(outcome)
    }

    /// Convenience: build a [`SegmentRecord`] out of a step.
    pub fn record(
        &self,
        outcome: &SegmentOutcome,
        level: usize,
        bitrate_kbps: f64,
        size_kbits: f64,
        switched_from: Option<usize>,
    ) -> SegmentRecord {
        SegmentRecord {
            index: self.segment_index - 1,
            level,
            bitrate_kbps,
            size_kbits,
            throughput_kbps: outcome.throughput_kbps,
            download_time: outcome.download_time,
            stall_time: outcome.stall_time,
            buffer_after: outcome.buffer_after,
            switched_from,
        }
    }
}

/// A player's window update after a download: push `throughput_kbps` onto
/// `history` and drop the oldest beyond `config.history_window`. The cap
/// over the window is not refreshed here: a step fits it when it reads it
/// ([`bmax_for_step`]).
pub fn slide_window(config: &PlayerConfig, history: &mut VecDeque<f64>, throughput_kbps: f64) {
    history.push_back(throughput_kbps);
    if history.len() > config.history_window {
        history.pop_front();
    }
}

/// The `B_max` a step of Eq. 3 from `buffer` must be given: `floor` (a
/// lower bound on every cap the policy can return, [`BmaxPolicy::floor`])
/// while the post-download buffer `[B − d/C]_+ + L` stays at or below it,
/// else `bmax()`, the cap fitted over the window.
///
/// [`buffer_step_timed`] reads the cap only through the overflow
/// `max(B' − B_max, 0)` and the clamp `min(·, B_max)` of a value at most
/// `B'`; with `B' ≤ floor ≤ B_max` the first is 0 and the second a no-op
/// for every cap, so the outcome is bit for bit the one under the fitted
/// cap, and the fit is skipped.
///
/// [`BmaxPolicy::floor`]: crate::BmaxPolicy::floor
pub fn bmax_for_step(
    buffer: f64,
    download_time: f64,
    segment_duration: f64,
    floor: f64,
    bmax: impl FnOnce() -> f64,
) -> f64 {
    let after_download = (buffer - download_time).max(0.0) + segment_duration;
    if after_download > floor {
        bmax()
    } else {
        floor
    }
}

/// The checks [`PlayerEnv::step_with_rtt`] makes on its inputs: those on
/// the link ([`validate_draw`]), then a positive, finite segment size
/// ([`validate_size`]).
pub fn validate_step(
    size_kbits: f64,
    bandwidth_kbps: f64,
    segment_duration: f64,
    rtt: f64,
) -> Result<()> {
    validate_draw(bandwidth_kbps, segment_duration, rtt)?;
    validate_size(size_kbits)
}

/// [`validate_step`]'s checks on what a segment's download draws: a
/// positive, finite bandwidth, a positive segment duration and a
/// non-negative RTT.
pub fn validate_draw(bandwidth_kbps: f64, segment_duration: f64, rtt: f64) -> Result<()> {
    if !(bandwidth_kbps > 0.0) || !bandwidth_kbps.is_finite() {
        return Err(PlayerError::InvalidStep(format!(
            "bandwidth must be positive, got {bandwidth_kbps}"
        )));
    }
    if !(segment_duration > 0.0) {
        return Err(PlayerError::InvalidStep(
            "segment duration must be positive".into(),
        ));
    }
    if !(rtt >= 0.0) {
        return Err(PlayerError::InvalidStep(format!(
            "RTT must be non-negative, got {rtt}"
        )));
    }
    Ok(())
}

/// [`validate_step`]'s check on the segment: a positive, finite size.
pub fn validate_size(size_kbits: f64) -> Result<()> {
    if !(size_kbits > 0.0) || !size_kbits.is_finite() {
        return Err(PlayerError::InvalidStep(format!(
            "segment size must be positive, got {size_kbits}"
        )));
    }
    Ok(())
}

/// Eq. 3 on a bare buffer: the outcome of a `download_time` of
/// `size_kbits / bandwidth_kbps`, from inputs [`validate_step`] accepted,
/// into `buffer` seconds of content capped at `bmax` ([`bmax_for_step`]),
/// then waiting out any overflow plus `rtt`. `startup` marks a session's
/// first segment, whose wait is startup delay rather than a stall. Clocks
/// and histories are the caller's: [`PlayerEnv::step_with_rtt`] advances a
/// player's; Monte-Carlo rollouts check each draw once.
pub fn buffer_step_timed(
    buffer: f64,
    bmax: f64,
    startup: bool,
    download_time: f64,
    bandwidth_kbps: f64,
    segment_duration: f64,
    rtt: f64,
) -> SegmentOutcome {
    // Rebuffer stall: the part of the download the buffer couldn't cover.
    // The very first segment necessarily faces an empty buffer —
    // production players account that wait as *startup delay*, not a
    // stall (the paper's stall analyses concern rebuffering), so it is
    // excluded from stall events.
    let stall_time = if startup {
        0.0
    } else {
        (download_time - buffer).max(0.0)
    };
    // Post-download buffer before waiting: [B_k − d/C]_+ + L.
    let after_download = (buffer - download_time).max(0.0) + segment_duration;
    // Waiting: overflow beyond B_max plus RTT (Eq. 3's δt_k).
    let overflow_wait = (after_download - bmax).max(0.0);
    let wait_time = overflow_wait + rtt;
    // Final buffer: [B' − δt]_+ clamped into [0, B_max].
    let buffer_after = (after_download - wait_time).max(0.0).min(bmax);
    SegmentOutcome {
        download_time,
        stall_time,
        wait_time,
        buffer_after,
        throughput_kbps: bandwidth_kbps,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::PlayerConfig;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn env() -> PlayerEnv {
        PlayerEnv::new(PlayerConfig::deterministic(10.0, 0.0)).unwrap()
    }

    #[test]
    fn first_segment_counts_as_startup_not_stall() {
        let mut e = env();
        let mut rng = StdRng::seed_from_u64(1);
        // 2000 kbits at 1000 kbps = 2 s download with empty buffer.
        let o = e.step(2000.0, 0, 1000.0, 2.0, &mut rng).unwrap();
        assert!((o.download_time - 2.0).abs() < 1e-9);
        assert_eq!(o.stall_time, 0.0, "startup wait is not a stall");
        assert!((e.startup_delay() - 2.0).abs() < 1e-9);
        assert!((o.buffer_after - 2.0).abs() < 1e-9);
        assert_eq!(e.stall_count(), 0);
        assert_eq!(e.segment_index(), 1);
        // A later slow segment IS a stall.
        let o2 = e.step(8000.0, 0, 1000.0, 2.0, &mut rng).unwrap();
        assert!(o2.stall_time > 0.0);
        assert_eq!(e.stall_count(), 1);
    }

    #[test]
    fn fast_link_builds_buffer_no_stall() {
        let mut e = env();
        let mut rng = StdRng::seed_from_u64(2);
        // Tiny segments over a fat pipe: no rebuffer stalls at all (the
        // first segment's wait is startup delay).
        for k in 0..5 {
            let o = e.step(1000.0, 1, 50_000.0, 2.0, &mut rng).unwrap();
            assert_eq!(o.stall_time, 0.0, "segment {k} stalled");
        }
        // Buffer should approach 5 segments * 2 s minus tiny download times.
        assert!(e.buffer() > 9.0, "buffer {}", e.buffer());
        assert_eq!(e.stall_count(), 0);
        assert!(e.startup_delay() > 0.0);
    }

    #[test]
    fn buffer_capped_at_bmax() {
        let mut e = env();
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..50 {
            e.step(100.0, 0, 100_000.0, 2.0, &mut rng).unwrap();
        }
        assert!(e.buffer() <= 10.0 + 1e-9, "buffer {}", e.buffer());
    }

    #[test]
    fn slow_link_keeps_stalling() {
        let mut e = env();
        let mut rng = StdRng::seed_from_u64(4);
        let mut stalls = 0;
        for _ in 0..10 {
            // 2 s of content taking 4 s to download: perpetual stall
            // (segment 0 is startup, the rest rebuffer).
            let o = e.step(4000.0, 0, 1000.0, 2.0, &mut rng).unwrap();
            if o.stall_time > 0.0 {
                stalls += 1;
            }
        }
        assert_eq!(stalls, 9);
        // Each rebuffering segment stalls 2 s (4 − 2 buffered).
        assert!(e.total_stall() > 17.0);
        assert!(e.startup_delay() > 3.9);
    }

    #[test]
    fn eq3_buffer_arithmetic_exact() {
        // Hand-computed case: B=3, d/C = 1.5, L=2, Bmax=10, RTT=0.
        let mut e = env();
        let mut rng = StdRng::seed_from_u64(5);
        // Prime the buffer to exactly 3 s: download 1.5 segments instantly.
        e.buffer = 3.0;
        let o = e.step(1500.0, 0, 1000.0, 2.0, &mut rng).unwrap();
        // stall = max(1.5-3,0)=0 ; B' = (3-1.5)+2 = 3.5 ; wait = 0 ; B=3.5
        assert_eq!(o.stall_time, 0.0);
        assert!((o.buffer_after - 3.5).abs() < 1e-9);
    }

    #[test]
    fn overflow_wait_applies() {
        let mut e = PlayerEnv::new(PlayerConfig::deterministic(4.0, 0.0)).unwrap();
        let mut rng = StdRng::seed_from_u64(6);
        e.buffer = 4.0; // full
        let o = e.step(100.0, 0, 100_000.0, 2.0, &mut rng).unwrap();
        // B' = (4 - 0.001) + 2 = 5.999 > Bmax=4 → wait 1.999, B=4.
        assert!(o.wait_time > 1.9);
        assert!((o.buffer_after - 4.0).abs() < 1e-6);
        assert_eq!(o.stall_time, 0.0);
    }

    #[test]
    fn histories_bounded_by_window() {
        let mut e = env();
        let mut rng = StdRng::seed_from_u64(7);
        for i in 0..20 {
            e.step(1000.0, i % 3, 5000.0, 2.0, &mut rng).unwrap();
        }
        assert_eq!(e.throughput_history().len(), 8);
        assert_eq!(e.last_level(), Some(19 % 3));
    }

    #[test]
    fn bandwidth_model_tracks_observations() {
        let mut e = env();
        let mut rng = StdRng::seed_from_u64(8);
        assert!(e.bandwidth_model().is_none());
        for _ in 0..8 {
            e.step(1000.0, 0, 3000.0, 2.0, &mut rng).unwrap();
        }
        let m = e.bandwidth_model().unwrap();
        assert!((m.mu - 3000.0).abs() < 1e-6);
        assert!(m.sigma < 1e-6);
    }

    #[test]
    fn invalid_steps_rejected() {
        let mut e = env();
        let mut rng = StdRng::seed_from_u64(9);
        assert!(e.step(1000.0, 0, 0.0, 2.0, &mut rng).is_err());
        assert!(e.step(0.0, 0, 1000.0, 2.0, &mut rng).is_err());
        assert!(e.step(1000.0, 0, 1000.0, 0.0, &mut rng).is_err());
        assert!(e.step(1000.0, 0, f64::NAN, 2.0, &mut rng).is_err());
        assert!(e.step_with_rtt(1000.0, 0, 1000.0, 2.0, -0.1).is_err());
        assert!(e.step_with_rtt(1000.0, 0, 1000.0, 2.0, f64::NAN).is_err());
        assert_eq!(e.segment_index(), 0, "a rejected step changes nothing");
    }

    #[test]
    fn clone_forks_simulation() {
        let mut e = env();
        let mut rng = StdRng::seed_from_u64(10);
        e.step(1000.0, 0, 2000.0, 2.0, &mut rng).unwrap();
        let mut fork = e.clone();
        let mut rng2 = StdRng::seed_from_u64(11);
        fork.step(4000.0, 1, 500.0, 2.0, &mut rng2).unwrap();
        // Original untouched.
        assert_eq!(e.segment_index(), 1);
        assert_eq!(fork.segment_index(), 2);
        assert!(fork.total_stall() > e.total_stall());
    }

    /// An infinite cap made `cap()` NaN on mid-range links (`∞ + t·(8 −
    /// ∞)`), which the Eq. 3 clamps drop: the buffer went uncapped.
    #[test]
    fn infinite_adaptive_caps_are_rejected() {
        for (cap_weak, cap_strong) in [(f64::INFINITY, 8.0), (14.0, f64::INFINITY)] {
            let config = PlayerConfig {
                bmax: crate::BmaxPolicy::BandwidthAdaptive {
                    cap_weak,
                    cap_strong,
                    weak_kbps: 2000.0,
                    strong_kbps: 20_000.0,
                },
                ..PlayerConfig::default()
            };
            assert!(PlayerEnv::new(config).is_err(), "{cap_weak} {cap_strong}");
        }
    }

    #[test]
    fn adaptive_bmax_reacts_to_bandwidth() {
        let mut e = PlayerEnv::new(PlayerConfig::default()).unwrap();
        let mut rng = StdRng::seed_from_u64(12);
        let initial = e.bmax();
        for _ in 0..8 {
            e.step(1000.0, 0, 40_000.0, 2.0, &mut rng).unwrap();
        }
        // Strong stable link → cap shrinks toward cap_strong.
        assert!(e.bmax() < initial, "bmax {} -> {}", initial, e.bmax());
    }
}
