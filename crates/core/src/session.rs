//! Managed sessions: live playback with LingXi interposed between the
//! player, the ABR and the (real or simulated) user.
//!
//! This is the integration path of §4: the ABR runs normally; LingXi
//! observes segments, and when its trigger fires it re-optimizes the ABR's
//! parameters *between segments* (the paper runs this on a low-priority
//! background thread; in the simulator it is interleaved, which preserves
//! the control flow under test). LingXi leaves the player and the ABR
//! alone, so a managed session is an ordinary
//! [`lingxi_player::SessionStream`] with one observer placed between
//! "segment played" and "user decides" — and a session without LingXi is
//! the same code with the observer absent.
//!
//! Managed-ness is data: [`ManagedHooks::lingxi`] is `Some` or `None`, and
//! there is one linear driver, [`play`], for both. A caller comparing the
//! two arms (every result of §5 is "the same session with and without
//! LingXi") writes one call and varies that field.

use lingxi_abr::{drive, Abr, QoeParams};
use lingxi_media::{BitrateLadder, Video};
use lingxi_net::{BandwidthProcess, Download};
use lingxi_player::{
    ExitDecision, PlayerConfig, PlayerEnv, SegmentRequest, SessionEnd, SessionLog, SessionSetup,
    SessionStream,
};
use lingxi_user::{consult, ExitModel};
use rand::Rng;

use crate::controller::LingXiController;
use crate::montecarlo::McScratch;
use crate::predictor::RolloutPredictor;
use crate::{CoreError, Result};

/// Where a session's results land, and the scratch it reuses.
///
/// A session's hot-path allocations are the per-segment log and the
/// Monte-Carlo rollout scratch; a caller that owns one `SessionBuffers`
/// and lends it to every [`play`] amortizes both across the sessions it
/// runs, and reads each session's log and deployments back from it. The
/// fleet engine lends one per worker to the users it plays one after
/// another (independent mode); on a shared link, where a link's users are
/// live at once, each user agent holds its own for the epoch.
#[derive(Debug)]
pub struct SessionBuffers {
    log: SessionLog,
    deployments: Vec<QoeParams>,
    mc: McScratch,
}

impl Default for SessionBuffers {
    fn default() -> Self {
        Self::new()
    }
}

impl SessionBuffers {
    /// Fresh buffers; capacity grows on first use and is retained after.
    pub fn new() -> Self {
        Self {
            log: SessionLog {
                user_id: 0,
                video_id: 0,
                video_duration: 0.0,
                segments: Vec::new(),
                watch_time: 0.0,
                end: SessionEnd::Completed,
                exit_segment: None,
            },
            deployments: Vec::new(),
            mc: McScratch::new(),
        }
    }

    /// The last session's playback log (borrowed; cleared by the next run).
    pub fn log(&self) -> &SessionLog {
        &self.log
    }

    /// Parameters deployed during the last session.
    pub fn deployments(&self) -> &[QoeParams] {
        &self.deployments
    }
}

/// LingXi's part of a [`ManagedSession`]: the pieces that observe each
/// segment and re-tune the ABR between segments.
pub struct LingXiHooks<'h> {
    /// The per-user controller (long-term state across sessions).
    pub controller: &'h mut LingXiController,
    /// The rollout exit-rate predictor.
    pub predictor: &'h mut dyn RolloutPredictor,
}

/// The mutable collaborators a [`ManagedSession`] needs at every step.
///
/// The stepper itself holds only the per-session state machine; callers
/// (the linear driver here, the fleet's user agent) own the ABR,
/// controller, predictor, user model, buffers and RNG, and lend them per
/// call — which is what lets one kernel interleave many sessions without
/// self-referential borrows.
pub struct ManagedHooks<'h, R: Rng> {
    /// The ABR playing the session (and whose parameters LingXi manages).
    pub abr: &'h mut dyn Abr,
    /// LingXi, when it manages this session; `None` is a plain session.
    pub lingxi: Option<LingXiHooks<'h>>,
    /// The user's exit model.
    pub user: &'h mut dyn ExitModel,
    /// Log / deployment / Monte-Carlo scratch buffers.
    pub buffers: &'h mut SessionBuffers,
    /// The user's RNG stream.
    pub rng: &'h mut R,
}

fn player_err(e: lingxi_player::PlayerError) -> CoreError {
    CoreError::Subsystem(e.to_string())
}

/// A session as a resumable per-segment state machine with LingXi's hook:
/// a [`SessionStream`] recording into the caller's [`SessionBuffers`],
/// whose `select` is the ABR and whose `exit` is observe → maybe
/// re-optimize → ask the user.
///
/// Alternate [`ManagedSession::next_request`] with
/// [`ManagedSession::complete`], then [`ManagedSession::finalize`] hands
/// the log to the buffers. [`play`] is exactly this loop against one
/// [`BandwidthProcess`].
#[derive(Debug)]
pub struct ManagedSession<'a> {
    stream: SessionStream<'a>,
}

impl<'a> ManagedSession<'a> {
    /// Start a session: resets the user model, applies the controller's
    /// current best parameters to the ABR (restored long-term state
    /// warm-starts it) and takes over the log buffers.
    pub fn begin<R: Rng>(
        user_id: u64,
        video: &'a Video,
        ladder: &'a BitrateLadder,
        player_config: PlayerConfig,
        hooks: &mut ManagedHooks<'_, R>,
    ) -> Result<Self> {
        hooks.buffers.deployments.clear();
        hooks.user.reset_session();
        if let Some(lingxi) = &hooks.lingxi {
            hooks.abr.set_params(lingxi.controller.params());
        }
        let segments = std::mem::take(&mut hooks.buffers.log.segments);
        let stream = SessionStream::new_in(user_id, video, ladder, player_config, segments)
            .map_err(player_err)?;
        Ok(Self { stream })
    }

    /// The live player state.
    pub fn env(&self) -> &PlayerEnv {
        self.stream.env()
    }

    /// Run the ABR for the next segment and return its download request;
    /// `None` once the video is fully downloaded or the user exited.
    pub fn next_request<R: Rng>(
        &mut self,
        hooks: &mut ManagedHooks<'_, R>,
    ) -> Option<SegmentRequest> {
        let (ladder, video) = (self.stream.ladder(), self.stream.video());
        self.stream
            .next_request(drive(hooks.abr, ladder, &video.sizes))
    }

    /// Apply a completed download: advance the player, let LingXi observe
    /// (and possibly re-optimize between segments), then consult the user.
    /// Returns `false` once the session is over.
    pub fn complete<R: Rng>(
        &mut self,
        download: Download,
        hooks: &mut ManagedHooks<'_, R>,
    ) -> Result<bool> {
        let ManagedHooks {
            abr,
            lingxi,
            user,
            buffers,
            rng,
        } = hooks;
        let ladder = self.stream.ladder();
        let seg_duration = self.stream.video().sizes.segment_duration();
        // A failed optimization pass ends the stream's step early and
        // comes out of this call as the error it is, never as an exit.
        let mut failed = None;
        let exit = |env: &PlayerEnv, record: &lingxi_player::SegmentRecord, rng: &mut R| {
            if let Some(lingxi) = lingxi.as_mut() {
                lingxi.controller.observe_segment(record, seg_duration);
                match lingxi.controller.maybe_optimize_in(
                    &mut **abr,
                    env,
                    ladder,
                    &mut *lingxi.predictor,
                    &mut buffers.mc,
                    rng,
                ) {
                    Ok(Some(out)) => buffers.deployments.push(out.params),
                    Ok(None) => {}
                    Err(e) => {
                        failed = Some(e);
                        return ExitDecision::Exit;
                    }
                }
            }
            let decision = consult(&mut **user, ladder)(env, record, rng);
            if let (ExitDecision::Exit, Some(lingxi)) = (decision, lingxi.as_mut()) {
                lingxi.controller.observe_exit(record.stall_time > 0.0);
            }
            decision
        };
        let more = self
            .stream
            .complete(download, exit, &mut **rng)
            .map_err(player_err)?;
        failed.map_or(Ok(more), Err)
    }

    /// Close the session: its log (identity, segments, watch time, end
    /// state) lands in the buffers the segments were borrowed from.
    pub fn finalize(self, buffers: &mut SessionBuffers) {
        buffers.log = self.stream.finish();
    }
}

/// The linear driver: play `setup`'s session start to finish against its
/// bandwidth process, with LingXi managing the ABR when `hooks.lingxi` is
/// `Some` and as a plain session (bit-identical to
/// [`lingxi_player::run_session`] over the `drive`/`consult` adapters)
/// when it is `None`.
///
/// The playback log and the parameters deployed land in `hooks.buffers` —
/// read them via [`SessionBuffers::log`] / [`SessionBuffers::deployments`]
/// before the next session overwrites them.
pub fn play<R: Rng>(setup: &SessionSetup<'_>, hooks: &mut ManagedHooks<'_, R>) -> Result<()> {
    let mut session = ManagedSession::begin(
        setup.user_id,
        setup.video,
        setup.ladder,
        setup.config,
        hooks,
    )?;
    while let Some(req) = session.next_request(hooks) {
        let download = setup.process.download(req.at, req.size_kbits);
        if !session.complete(download, hooks)? {
            break;
        }
    }
    session.finalize(hooks.buffers);
    Ok(())
}

/// [`play`] with LingXi present, under the positional signature the frozen
/// benchmark probes import.
#[allow(clippy::too_many_arguments)]
pub fn run_managed_session_in<R: Rng>(
    user_id: u64,
    video: &Video,
    ladder: &BitrateLadder,
    process: &dyn BandwidthProcess,
    player_config: PlayerConfig,
    abr: &mut dyn Abr,
    controller: &mut LingXiController,
    predictor: &mut dyn RolloutPredictor,
    user: &mut dyn ExitModel,
    buffers: &mut SessionBuffers,
    rng: &mut R,
) -> Result<()> {
    let setup = SessionSetup {
        user_id,
        video,
        ladder,
        process,
        config: player_config,
    };
    let mut hooks = ManagedHooks {
        abr,
        lingxi: Some(LingXiHooks {
            controller,
            predictor,
        }),
        user,
        buffers,
        rng,
    };
    play(&setup, &mut hooks)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::controller::LingXiConfig;
    use crate::predictor::ProfilePredictor;
    use lingxi_abr::Hyb;
    use lingxi_media::{BitrateLadder, Catalog, CatalogConfig, VbrModel};
    use lingxi_net::BandwidthTrace;
    use lingxi_user::{QosExitModel, SensitivityKind, StallProfile};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn catalog() -> Catalog {
        let mut rng = StdRng::seed_from_u64(1);
        Catalog::generate(
            BitrateLadder::default_short_video(),
            &CatalogConfig {
                n_videos: 4,
                mean_duration: 60.0,
                vbr: VbrModel::cbr(),
                ..CatalogConfig::default()
            },
            &mut rng,
        )
        .unwrap()
    }

    fn setup<'a>(
        user_id: u64,
        cat: &'a Catalog,
        video: usize,
        trace: &'a BandwidthTrace,
    ) -> SessionSetup<'a> {
        SessionSetup {
            user_id,
            video: cat.video_cyclic(video),
            ladder: cat.ladder(),
            process: trace,
            config: PlayerConfig::deterministic(10.0, 0.0),
        }
    }

    /// `play` one session with LingXi managing a fresh HYB, into fresh
    /// buffers.
    fn play_managed(
        setup: &SessionSetup<'_>,
        controller: &mut LingXiController,
        mut predictor: ProfilePredictor,
        user: &mut QosExitModel,
        rng: &mut StdRng,
    ) -> SessionBuffers {
        let mut buffers = SessionBuffers::new();
        let lingxi = Some(LingXiHooks {
            controller,
            predictor: &mut predictor,
        });
        let mut hooks = ManagedHooks {
            abr: &mut Hyb::default_rule(),
            lingxi,
            user,
            buffers: &mut buffers,
            rng,
        };
        play(setup, &mut hooks).unwrap();
        buffers
    }

    #[test]
    fn managed_session_runs_cleanly_on_good_link() {
        let cat = catalog();
        let trace = BandwidthTrace::constant(20_000.0, 200, 1.0).unwrap();
        let mut controller = LingXiController::new(LingXiConfig::for_hyb()).unwrap();
        let profile = StallProfile::new(SensitivityKind::Sensitive, 2.0, 0.35).unwrap();
        let predictor = ProfilePredictor {
            profile,
            base: 0.01,
        };
        let (mut user, mut rng) = (QosExitModel::calibrated(profile), StdRng::seed_from_u64(2));
        let setup = setup(1, &cat, 0, &trace);
        let out = play_managed(&setup, &mut controller, predictor, &mut user, &mut rng);
        assert!(!out.log().segments.is_empty());
        // Rich link: no optimization should fire (startup stall at most).
        assert!(out.deployments().len() <= 1);
    }

    #[test]
    fn weak_link_triggers_optimization() {
        let cat = catalog();
        // Below the ladder floor: every segment stalls.
        let trace = BandwidthTrace::constant(300.0, 2000, 1.0).unwrap();
        let mut controller = LingXiController::new(LingXiConfig::for_hyb()).unwrap();
        let profile = StallProfile::new(SensitivityKind::Insensitive, 10.0, 0.05).unwrap();
        let predictor = ProfilePredictor {
            profile,
            base: 0.002,
        };
        // Insensitive user so the session survives long enough to trigger.
        let mut user = QosExitModel::calibrated(profile);
        user.base_exit = 0.0;
        let (setup, mut rng) = (setup(2, &cat, 1, &trace), StdRng::seed_from_u64(3));
        let out = play_managed(&setup, &mut controller, predictor, &mut user, &mut rng);
        assert!(out.log().total_stall() > 0.0);
        assert!(
            controller.optimizations() > 0,
            "stall-heavy session must trigger OBO"
        );
        assert!(!out.deployments().is_empty());
    }

    /// The identity that lets the fleet play plain users through
    /// [`ManagedSession`], and every caller write its static arm as
    /// [`play`] with `lingxi: None`: without LingXi it is `run_session`
    /// driven by the two adapters, RNG draw for RNG draw.
    #[test]
    fn session_without_lingxi_is_run_session_with_the_adapters() {
        let cat = catalog();
        let player = PlayerConfig::default();
        let sensitive = StallProfile::new(SensitivityKind::Sensitive, 1.0, 0.6).unwrap();
        let mut patient = QosExitModel::calibrated(
            StallProfile::new(SensitivityKind::Insensitive, 30.0, 0.0).unwrap(),
        );
        patient.base_exit = 0.0;
        patient.quality_span = 0.0;
        patient.switch_penalty = 0.0;
        let cases = [
            (
                250.0,
                QosExitModel::calibrated(sensitive),
                SessionEnd::Exited,
            ),
            (20_000.0, patient, SessionEnd::Completed),
        ];
        let mut buffers = SessionBuffers::new();
        for (s, (kbps, user, end)) in cases.into_iter().enumerate() {
            let trace = BandwidthTrace::constant(kbps, 4000, 1.0).unwrap();
            let (video, ladder) = (cat.video_cyclic(s), cat.ladder());

            let (mut abr, mut model) = (Hyb::default_rule(), user);
            let mut rng = StdRng::seed_from_u64(40 + s as u64);
            let setup = SessionSetup {
                user_id: 5,
                video,
                ladder,
                process: &trace,
                config: player,
            };
            model.reset_session();
            let reference = lingxi_player::run_session(
                &setup,
                drive(&mut abr, ladder, &video.sizes),
                consult(&mut model, ladder),
                &mut rng,
            )
            .unwrap();
            assert_eq!(reference.end, end, "case {s} must exercise its ending");

            let (mut abr, mut model) = (Hyb::default_rule(), user);
            let mut rng = StdRng::seed_from_u64(40 + s as u64);
            let mut hooks = ManagedHooks {
                abr: &mut abr,
                lingxi: None,
                user: &mut model,
                buffers: &mut buffers,
                rng: &mut rng,
            };
            play(&setup, &mut hooks).unwrap();
            assert_eq!(buffers.log(), &reference, "case {s} diverged");
            assert!(buffers.deployments().is_empty());
        }
    }

    #[test]
    fn controller_state_carries_across_sessions() {
        let cat = catalog();
        // Below the 350 kbps ladder floor: every segment rebuffers.
        let trace = BandwidthTrace::constant(300.0, 2000, 1.0).unwrap();
        let mut controller = LingXiController::new(LingXiConfig::for_hyb()).unwrap();
        let profile = StallProfile::new(SensitivityKind::Sensitive, 1.5, 0.3).unwrap();
        let mut rng = StdRng::seed_from_u64(4);
        for s in 0..3 {
            let predictor = ProfilePredictor {
                profile,
                base: 0.01,
            };
            let (setup, mut user) = (setup(3, &cat, s, &trace), QosExitModel::calibrated(profile));
            play_managed(&setup, &mut controller, predictor, &mut user, &mut rng);
        }
        // Long-term tracker accumulated history across the sessions.
        assert!(controller.tracker().recent_stall_count() > 0);
    }
}
