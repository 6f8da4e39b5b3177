//! Generic session driver coupling a video, a bandwidth process, an ABR
//! decision function and a user exit model.
//!
//! The ABR and the user model are injected as closures so this crate stays
//! below both `lingxi-abr` and `lingxi-user` in the dependency graph; those
//! crates provide adapters that wrap their richer trait objects into these
//! closures.
//!
//! Two layers: [`SessionStream`] is the workspace's one per-segment
//! stepper — *request* the next download, *complete* it with whatever
//! duration the bandwidth process produced — and [`run_session`] is the
//! linear driver that plays a stream against one [`BandwidthProcess`]
//! start to finish. `lingxi_core::ManagedSession` is this stream with
//! LingXi observing between "segment played" and "user decides"; the
//! fleet engine drives many of those concurrently over a shared link,
//! interleaving their requests in virtual time.

use lingxi_media::{BitrateLadder, Video};
use lingxi_net::{BandwidthProcess, Download};
use rand::Rng;

use crate::config::PlayerConfig;
use crate::env::PlayerEnv;
use crate::log::{SegmentRecord, SessionEnd, SessionLog};
use crate::{PlayerError, Result};

/// Everything needed to play one session.
#[derive(Debug, Clone, Copy)]
pub struct SessionSetup<'a> {
    /// Owner of the session.
    pub user_id: u64,
    /// The video being played.
    pub video: &'a Video,
    /// The bitrate ladder of the catalog.
    pub ladder: &'a BitrateLadder,
    /// Bandwidth source the downloads stream over (a trace, a sampled
    /// model, or a shared link).
    pub process: &'a dyn BandwidthProcess,
    /// Player configuration.
    pub config: PlayerConfig,
}

/// The user model's verdict after each segment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExitDecision {
    /// Keep watching.
    Continue,
    /// Leave the video now.
    Exit,
}

/// One segment download a session wants to issue.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SegmentRequest {
    /// Session-local wall-clock time the request is issued (seconds).
    pub at: f64,
    /// Size requested, in kbits.
    pub size_kbits: f64,
    /// Ladder level selected for the segment.
    pub level: usize,
}

/// Content-based watch time of a session.
///
/// The exit decision fires after the user has experienced segment `k`, so
/// they watched `(k+1)·L` seconds of content. (Wall-clock playback
/// position would under-credit sessions holding deeper buffers, biasing
/// comparisons between ABR policies.)
pub fn content_watch_time(
    end: SessionEnd,
    exit_segment: Option<usize>,
    segment_duration: f64,
    video_duration: f64,
    playback_time: f64,
) -> f64 {
    match (end, exit_segment) {
        (SessionEnd::Completed, _) => video_duration,
        (_, Some(k)) => ((k + 1) as f64 * segment_duration).min(video_duration),
        (_, None) => playback_time.min(video_duration),
    }
}

/// A session as a resumable per-segment state machine.
///
/// Alternate [`SessionStream::next_request`] (which runs the ABR and
/// announces the next download) with [`SessionStream::complete`] (which
/// applies the download's outcome to the player and consults the exit
/// model), then call [`SessionStream::finish`] for the log. The linear
/// driver [`run_session`] is exactly this loop against one bandwidth
/// process.
#[derive(Debug)]
pub struct SessionStream<'a> {
    user_id: u64,
    video: &'a Video,
    ladder: &'a BitrateLadder,
    env: PlayerEnv,
    pending: Option<(usize, f64)>,
    segments: Vec<SegmentRecord>,
    end: SessionEnd,
    exit_segment: Option<usize>,
    finished: bool,
}

impl<'a> SessionStream<'a> {
    /// Start a session that records into the caller-lent `segments`
    /// (cleared, and grown to the video's length if smaller);
    /// [`SessionStream::finish`] hands the vector back inside the log, so
    /// a worker playing many sessions keeps one allocation.
    pub fn new_in(
        user_id: u64,
        video: &'a Video,
        ladder: &'a BitrateLadder,
        config: PlayerConfig,
        mut segments: Vec<SegmentRecord>,
    ) -> Result<Self> {
        segments.clear();
        segments.reserve(video.n_segments());
        Ok(Self {
            user_id,
            video,
            ladder,
            env: PlayerEnv::new(config)?,
            pending: None,
            segments,
            end: SessionEnd::Completed,
            exit_segment: None,
            finished: false,
        })
    }

    /// The live player state (what ABRs and exit models observe).
    pub fn env(&self) -> &PlayerEnv {
        &self.env
    }

    /// The video being played.
    pub fn video(&self) -> &'a Video {
        self.video
    }

    /// The catalog's bitrate ladder.
    pub fn ladder(&self) -> &'a BitrateLadder {
        self.ladder
    }

    /// Select the next segment via `select` and return its download
    /// request; `None` once the video is fully downloaded or the user
    /// exited.
    pub fn next_request<F>(&mut self, mut select: F) -> Option<SegmentRequest>
    where
        F: FnMut(&PlayerEnv) -> usize,
    {
        if self.finished || self.env.segment_index() >= self.video.n_segments() {
            self.finished = true;
            return None;
        }
        let wanted = select(&self.env);
        let level = wanted.min(self.ladder.top_level());
        let size = self
            .video
            .sizes
            .size_kbits(self.env.segment_index(), level)
            .expect("segment and level verified in range");
        self.pending = Some((level, size));
        Some(SegmentRequest {
            at: self.env.wall_time(),
            size_kbits: size,
            level,
        })
    }

    /// Apply a completed download to the player, record the segment and
    /// consult `exit`. Returns `false` once the session is over (user
    /// exited); calling without a pending request is an error.
    pub fn complete<G, R>(&mut self, download: Download, mut exit: G, rng: &mut R) -> Result<bool>
    where
        G: FnMut(&PlayerEnv, &SegmentRecord, &mut R) -> ExitDecision,
        R: Rng + ?Sized,
    {
        let (level, size) = self.pending.take().ok_or_else(|| {
            PlayerError::InvalidStep("complete() without a pending request".into())
        })?;
        // Effective throughput over this download, as the process saw it.
        let bandwidth = download.kbps;
        let seg_duration = self.video.sizes.segment_duration();
        let switched_from = self.env.last_level();
        let outcome = self.env.step(size, level, bandwidth, seg_duration, rng)?;
        let bitrate = self.ladder.bitrate(level).expect("level clamped");
        let record = self
            .env
            .record(&outcome, level, bitrate, size, switched_from);
        self.segments.push(record);
        if exit(&self.env, &record, rng) == ExitDecision::Exit {
            self.end = SessionEnd::Exited;
            self.exit_segment = Some(self.env.segment_index() - 1);
            self.finished = true;
            return Ok(false);
        }
        Ok(true)
    }

    /// Close the session and build its log.
    pub fn finish(self) -> SessionLog {
        let video_duration = self.video.duration();
        let seg_duration = self.video.sizes.segment_duration();
        let watch_time = content_watch_time(
            self.end,
            self.exit_segment,
            seg_duration,
            video_duration,
            self.env.playback_time(),
        );
        SessionLog {
            user_id: self.user_id,
            video_id: self.video.id,
            video_duration,
            segments: self.segments,
            watch_time,
            end: self.end,
            exit_segment: self.exit_segment,
        }
    }
}

/// Play one full session over `setup.process`.
///
/// - `select(env)` returns the level for the next segment (clamped into the
///   ladder);
/// - `exit(env, record, rng)` is consulted *after every segment* — the
///   segment-level exit behaviour §2.2 measures.
///
/// On completion the session's watch time is the full video duration (the
/// tail of the buffer plays out); on exit it is the playback position when
/// the decision fired.
pub fn run_session<F, G, R>(
    setup: &SessionSetup<'_>,
    mut select: F,
    mut exit: G,
    rng: &mut R,
) -> Result<SessionLog>
where
    F: FnMut(&PlayerEnv) -> usize,
    G: FnMut(&PlayerEnv, &SegmentRecord, &mut R) -> ExitDecision,
    R: Rng + ?Sized,
{
    let mut stream = SessionStream::new_in(
        setup.user_id,
        setup.video,
        setup.ladder,
        setup.config,
        Vec::new(),
    )?;
    while let Some(req) = stream.next_request(&mut select) {
        let download = setup.process.download(req.at, req.size_kbits);
        if !stream.complete(download, &mut exit, rng)? {
            break;
        }
    }
    Ok(stream.finish())
}

#[cfg(test)]
mod tests {
    use super::*;
    use lingxi_media::{Catalog, CatalogConfig, VbrModel};
    use lingxi_net::BandwidthTrace;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn catalog() -> Catalog {
        let mut rng = StdRng::seed_from_u64(1);
        Catalog::generate(
            BitrateLadder::default_short_video(),
            &CatalogConfig {
                n_videos: 3,
                vbr: VbrModel::cbr(),
                ..CatalogConfig::default()
            },
            &mut rng,
        )
        .unwrap()
    }

    #[test]
    fn completed_session_watches_everything() {
        let cat = catalog();
        let trace = BandwidthTrace::constant(50_000.0, 100, 1.0).unwrap();
        let setup = SessionSetup {
            user_id: 1,
            video: cat.video_cyclic(0),
            ladder: cat.ladder(),
            process: &trace,
            config: PlayerConfig::deterministic(10.0, 0.0),
        };
        let mut rng = StdRng::seed_from_u64(2);
        let log = run_session(&setup, |_| 3, |_, _, _| ExitDecision::Continue, &mut rng).unwrap();
        assert_eq!(log.end, SessionEnd::Completed);
        assert_eq!(log.watch_time, log.video_duration);
        assert_eq!(log.segments.len(), setup.video.n_segments());
        assert!(log.completed());
        // Fat pipe: at most the startup stall.
        assert!(log.stall_count() <= 1);
    }

    #[test]
    fn exit_stops_session_early() {
        let cat = catalog();
        let trace = BandwidthTrace::constant(50_000.0, 100, 1.0).unwrap();
        let setup = SessionSetup {
            user_id: 1,
            video: cat.video_cyclic(0),
            ladder: cat.ladder(),
            process: &trace,
            config: PlayerConfig::deterministic(10.0, 0.0),
        };
        let mut rng = StdRng::seed_from_u64(3);
        let log = run_session(
            &setup,
            |_| 0,
            |env, _, _| {
                if env.segment_index() >= 3 {
                    ExitDecision::Exit
                } else {
                    ExitDecision::Continue
                }
            },
            &mut rng,
        )
        .unwrap();
        assert_eq!(log.end, SessionEnd::Exited);
        assert_eq!(log.segments.len(), 3);
        assert_eq!(log.exit_segment, Some(2));
        assert!(log.watch_time < log.video_duration);
    }

    #[test]
    fn lent_vector_starts_empty_keeps_its_allocation_and_comes_back() {
        let cat = catalog();
        let trace = BandwidthTrace::constant(50_000.0, 100, 1.0).unwrap();
        let video = cat.video_cyclic(0);
        let config = PlayerConfig::deterministic(10.0, 0.0);
        let play = |mut stream: SessionStream<'_>| {
            let mut rng = StdRng::seed_from_u64(2);
            while let Some(req) = stream.next_request(|_| 1) {
                let download = trace.download(req.at, req.size_kbits);
                stream
                    .complete(download, |_, _, _| ExitDecision::Continue, &mut rng)
                    .unwrap();
            }
            stream.finish()
        };
        let fresh =
            play(SessionStream::new_in(7, video, cat.ladder(), config, Vec::new()).unwrap());

        // A dirty vector, larger than the video needs.
        let stale = fresh.segments[0];
        let mut lent = vec![stale; 4 * video.n_segments()];
        lent.truncate(3);
        let (ptr, capacity) = (lent.as_ptr(), lent.capacity());
        let stream = SessionStream::new_in(7, video, cat.ladder(), config, lent).unwrap();
        let log = play(stream);
        assert_eq!(log, fresh, "stale records must not leak into the log");
        assert_eq!(log.segments.as_ptr(), ptr, "the lent allocation is kept");
        assert_eq!(log.segments.capacity(), capacity);
    }

    #[test]
    fn slow_link_generates_stalls() {
        let cat = catalog();
        // 350 kbps ladder floor vs 200 kbps link: guaranteed stalls.
        let trace = BandwidthTrace::constant(200.0, 1000, 1.0).unwrap();
        let setup = SessionSetup {
            user_id: 1,
            video: cat.video_cyclic(1),
            ladder: cat.ladder(),
            process: &trace,
            config: PlayerConfig::deterministic(10.0, 0.0),
        };
        let mut rng = StdRng::seed_from_u64(4);
        let log = run_session(&setup, |_| 0, |_, _, _| ExitDecision::Continue, &mut rng).unwrap();
        assert!(log.total_stall() > 0.0);
        assert!(log.stall_count() > 1);
    }

    #[test]
    fn out_of_range_level_clamped() {
        let cat = catalog();
        let trace = BandwidthTrace::constant(50_000.0, 100, 1.0).unwrap();
        let setup = SessionSetup {
            user_id: 1,
            video: cat.video_cyclic(2),
            ladder: cat.ladder(),
            process: &trace,
            config: PlayerConfig::deterministic(10.0, 0.0),
        };
        let mut rng = StdRng::seed_from_u64(5);
        let log = run_session(&setup, |_| 99, |_, _, _| ExitDecision::Continue, &mut rng).unwrap();
        assert!(log.segments.iter().all(|s| s.level == 3));
    }

    #[test]
    fn abr_sees_player_state() {
        let cat = catalog();
        let trace = BandwidthTrace::constant(5000.0, 1000, 1.0).unwrap();
        let setup = SessionSetup {
            user_id: 1,
            video: cat.video_cyclic(0),
            ladder: cat.ladder(),
            process: &trace,
            config: PlayerConfig::deterministic(10.0, 0.0),
        };
        let mut rng = StdRng::seed_from_u64(6);
        // Simple buffer-based rule exercising env accessors.
        let log = run_session(
            &setup,
            |env| {
                if env.buffer() > 6.0 {
                    3
                } else if env.buffer() > 3.0 {
                    2
                } else {
                    0
                }
            },
            |_, _, _| ExitDecision::Continue,
            &mut rng,
        )
        .unwrap();
        // Rule starts conservative then climbs.
        assert_eq!(log.segments[0].level, 0);
        assert!(log.segments.iter().any(|s| s.level > 0));
    }
}
