//! The shared-bottleneck contention kernel: event-driven co-simulation of
//! every session sharing a link.
//!
//! In contention mode a unit of the epoch's work list is one whole *link
//! group* (the dispatch stage places every user on a link before the
//! workers run, and a unit is never split between workers); this module
//! runs one link's users as a deterministic discrete-event simulation.
//! Each user is a [`LinkAgent`] holding the one [`ManagedSession`] it has
//! in flight (a plain user is the same agent without LingXi on its
//! hooks): the kernel pops the earliest event — a flow completion on the
//! [`SharedBottleneck`], or a pending download request — hands
//! completions to their agent (which advances its player, consults
//! LingXi and the exit model, and issues its next request), and admits
//! requests as new flows. Ties resolve completions-first, then ascending user id,
//! so the event order is a pure function of (seed, link members, epoch)
//! and merged metrics stay bit-identical whichever worker runs the group,
//! for any shard count.
//!
//! The agent is also what independent mode runs: same constructor, same
//! sessions, but each session plays start to finish over a private trace
//! ([`LinkAgent::run_private`]) instead of being resumed by the kernel.
//! The modes differ in where bandwidth comes from, not in what a user's
//! epoch is.
//!
//! Population-dynamics mode threads through here naturally: a dynamic
//! user's first arrival time comes from the workload schedule instead of
//! the uniform ramp window, its per-flow cap folds in the class
//! access cap, each link's capacity comes from the link-class registry,
//! and a departing agent simply stops issuing requests — the bottleneck
//! re-shares its capacity over the survivors on the next event.
//!
//! Every link group is a [`lingxi_net::Topology`] instance; without a
//! [`crate::FairnessConfig`] it is the degenerate one (a single max-min
//! link, constant RTT). Fairness mode makes it multi-hop: flows
//! hash onto routes (a pure function of seed and user id), capacity
//! splits under the configured [`lingxi_net::FairnessObjective`], and
//! each member's session RTT/jitter become the Kleinrock-composed
//! per-path delay under the group's static offered load instead of a
//! constant. The group is one unit — and with it every link of every
//! path — so the event order and merged metrics remain pure functions of
//! (seed, group members, epoch).
//!
//! # Fast-path layout
//!
//! The grouping by link happens once per epoch, in the engine's plan
//! stage: one counting sort of the cohort into the work list, each unit a
//! link's members in ascending user id. Inside a unit the kernel keys
//! every pending arrival and flow by the agent's index in the unit, not
//! its user id: indices follow ascending user id, so every tie breaks
//! the same way, and an event finds its agent, flow cap and route by
//! indexing — no id→agent map or search. That state lives in
//! struct-of-arrays owned by [`ContentionScratch`] and reused across
//! links and epochs, and the pending-arrival queue is a [`TimerWheel`]
//! (pop-order equivalence with the reference `BinaryHeapQueue` is a
//! property test in `lingxi-net`, over every queue method the kernel
//! calls).

use lingxi_abr::Abr;
use lingxi_abtest::DayAccum;
use lingxi_core::{
    LingXiController, LingXiHooks, LongTermState, ManagedHooks, ManagedSession, ProfilePredictor,
    SessionBuffers, ShardedStateCache,
};
use lingxi_media::{Catalog, Video};
use lingxi_net::{
    BandwidthProcess, Download, EventQueue, FairnessObjective, RttModel, SharedBottleneck,
    TimerWheel, Topology,
};
use lingxi_player::{PlayerConfig, SegmentRequest};
use lingxi_user::{QosExitModel, ToleranceDrift, UserRecord};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::engine::{EpochCtx, EpochUser, FleetEngine, UnitRows, UserEpochRow, WorkerOutput};
use crate::report::EpochSketches;
use crate::{sub, FleetError, Result};

/// Payload of a pending download request; the `(time, agent index)` key
/// lives in the event queue itself.
struct ArrivalPayload {
    size_kbits: f64,
}

/// Reusable hot-path buffers for one worker's units. Owned by the engine
/// (one per worker) and carried across epochs, so the steady state
/// allocates nothing per epoch or per link — nor, in independent mode, per
/// user.
#[derive(Default)]
pub(crate) struct ContentionScratch {
    /// Independent mode: the session buffers (log, deployments,
    /// Monte-Carlo scratch) and private-trace samples lent to each agent
    /// in turn, which play one after another. Contended agents are live
    /// at once and keep their own.
    buffers: SessionBuffers,
    samples: Vec<f64>,
    /// Pending arrivals, cleared between links.
    queue: TimerWheel<ArrivalPayload>,
    /// Per-agent flow caps, indexed by the agent's event key
    /// (struct-of-arrays).
    caps: Vec<f64>,
    /// Per-agent route indices, indexed like `caps` (always 0 on the
    /// degenerate topology — its one route).
    routes: Vec<u16>,
    /// Per-link utilization estimates for the Kleinrock RTT (fairness
    /// mode), rebuilt per link group.
    rho: Vec<f64>,
}

/// LingXi state carried by a managed agent across its epoch sessions.
struct ManagedParts {
    controller: LingXiController,
    predictor: ProfilePredictor,
    state: LongTermState,
}

/// What an agent lends its session stepper at every call.
struct AgentParts {
    rng: StdRng,
    abr: Box<dyn Abr>,
    exit_model: QosExitModel,
    /// `None` for a plain user: managed-ness is data, not a second path.
    managed: Option<ManagedParts>,
    buffers: SessionBuffers,
}

impl AgentParts {
    fn hooks(&mut self) -> ManagedHooks<'_, StdRng> {
        ManagedHooks {
            abr: self.abr.as_mut(),
            lingxi: self.managed.as_mut().map(|m| LingXiHooks {
                controller: &mut m.controller,
                predictor: &mut m.predictor,
            }),
            user: &mut self.exit_model,
            buffers: &mut self.buffers,
            rng: &mut self.rng,
        }
    }
}

/// One user's epoch as an agent: it plays its session budget one
/// [`ManagedSession`] at a time over whoever owns the bandwidth. On a
/// shared link the kernel below resumes it event by event
/// ([`LinkAgent::request`] / [`LinkAgent::complete`]); in independent mode
/// [`LinkAgent::run_private`] plays each session start to finish over its
/// own trace.
pub(crate) struct LinkAgent<'a> {
    user: &'a UserRecord,
    class: Option<u16>,
    catalog: &'a Catalog,
    player: PlayerConfig,
    parts: AgentParts,
    sessions_left: usize,
    /// Absolute start time of the current session (shared links only).
    t0: f64,
    /// The session the kernel is resuming; `None` between sessions.
    session: Option<ManagedSession<'a>>,
    day: DayAccum,
}

impl<'a> LinkAgent<'a> {
    /// Open a user's epoch. The head of the user's RNG stream is pinned
    /// here, for both modes: a static user on a shared link draws its
    /// arrival across the uniform ramp window first (a dynamic user
    /// arrives at its workload-schedule time, an independent one needs no
    /// clock), then the session count, then the day's exit model — which
    /// is why the ramp is not one more arrival process: moving the draw
    /// would reorder the stream. The managed state loads last.
    pub(crate) fn new(
        engine: &FleetEngine,
        ctx: EpochCtx<'a>,
        member: &'a EpochUser,
        player: PlayerConfig,
    ) -> Result<Self> {
        let user = &member.record;
        let contention = engine.config().contention.as_ref();
        let mut rng = StdRng::seed_from_u64(engine.stream_seed(user.id, ctx.epoch));
        let t0 = match (member.arrival, contention) {
            (Some(at), _) => at,
            (None, Some(contention)) => rng.gen::<f64>() * contention.arrival_window,
            (None, None) => 0.0,
        };
        let sessions_left = user.sessions_today(&mut rng);
        let exit_model = user.exit_model_for_day(&ToleranceDrift::default(), &mut rng);
        let policy = ctx.scenario.abr_mix.policy_for(user.id);
        let managed = if policy.managed() && engine.lingxi_active(user.id, ctx.epoch) {
            // Warm-start the controller from the user's persisted state;
            // the tracker lives in the controller until `finish` moves it
            // back.
            let mut state = ctx.cache.load_or_new(user.id).map_err(sub)?;
            let controller = LingXiController::with_state(
                policy.lingxi_config(),
                std::mem::take(&mut state.tracker),
                state.params,
            )
            .map_err(sub)?;
            Some(ManagedParts {
                controller,
                predictor: ProfilePredictor {
                    profile: user.stall,
                    base: 0.015,
                },
                state,
            })
        } else {
            None
        };
        Ok(Self {
            user,
            class: member.class,
            catalog: ctx.catalog,
            player,
            parts: AgentParts {
                rng,
                abr: policy.build(),
                exit_model,
                managed,
                buffers: SessionBuffers::new(),
            },
            sessions_left,
            t0,
            session: None,
            day: DayAccum::new(),
        })
    }

    /// Ask the agent for its next download request (session-local time),
    /// rolling over finished sessions until one produces a request or the
    /// epoch's session budget is exhausted (`None`).
    fn request(&mut self, sketches: &mut EpochSketches) -> Result<Option<SegmentRequest>> {
        loop {
            if let Some(session) = &mut self.session {
                if let Some(req) = session.next_request(&mut self.parts.hooks()) {
                    return Ok(Some(req));
                }
            }
            if let Some(finished) = self.session.take() {
                self.end_session(finished, sketches);
            }
            if self.sessions_left == 0 {
                return Ok(None);
            }
            let video = self.next_video();
            self.session = Some(self.begin_session(video)?);
        }
    }

    /// Hand a completed download to the session [`LinkAgent::request`]
    /// last announced one for.
    fn complete(&mut self, download: Download) -> Result<()> {
        let session = self.session.as_mut().ok_or_else(|| {
            let id = self.user.id;
            FleetError::Subsystem(format!(
                "download for user {id}, who has no session in flight"
            ))
        })?;
        session
            .complete(download, &mut self.parts.hooks())
            .map_err(sub)?;
        Ok(())
    }

    /// Independent mode: play the whole epoch, each session start to
    /// finish over its own private trace (drawn right after its video,
    /// generated on demand into one sample buffer the sessions reuse),
    /// on the session buffers and samples `lent` holds.
    pub(crate) fn run_private(
        mut self,
        cache: &ShardedStateCache,
        sketches: &mut EpochSketches,
        lent: &mut ContentionScratch,
    ) -> Result<UserEpochRow> {
        std::mem::swap(&mut self.parts.buffers, &mut lent.buffers);
        let mut samples = std::mem::take(&mut lent.samples);
        while self.sessions_left > 0 {
            let video = self.next_video();
            let trace = self
                .user
                .private_trace(video.duration(), &mut self.parts.rng, samples)
                .map_err(sub)?;
            let mut session = self.begin_session(video)?;
            let hooks = &mut self.parts.hooks();
            while let Some(req) = session.next_request(hooks) {
                let download = trace.download(req.at, req.size_kbits);
                if !session.complete(download, hooks).map_err(sub)? {
                    break;
                }
            }
            samples = trace.into_samples().map_err(sub)?;
            self.end_session(session, sketches);
        }
        lent.samples = samples;
        std::mem::swap(&mut self.parts.buffers, &mut lent.buffers);
        self.finish(cache)
    }

    /// Spend one session of the budget on a video sampled from the catalog.
    fn next_video(&mut self) -> &'a Video {
        self.sessions_left -= 1;
        self.catalog.sample(&mut self.parts.rng)
    }

    /// Build the stepper for a session over `video`.
    fn begin_session(&mut self, video: &'a Video) -> Result<ManagedSession<'a>> {
        self.parts.abr.reset();
        let ladder = self.catalog.ladder();
        let hooks = &mut self.parts.hooks();
        ManagedSession::begin(self.user.id, video, ladder, self.player, hooks).map_err(sub)
    }

    /// Close a finished session: fold its summary into the agent's day
    /// accumulator and the shard `sketches`, and advance the absolute
    /// clock to where the next session can start (completed sessions play
    /// out the buffered tail first).
    fn end_session(&mut self, session: ManagedSession<'a>, sketches: &mut EpochSketches) {
        let wall = session.env().wall_time();
        let tail = session.env().buffer();
        session.finalize(&mut self.parts.buffers);
        let log = self.parts.buffers.log();
        self.t0 += wall + if log.completed() { tail } else { 0.0 };
        let summary = log.summary();
        self.day.push(&summary);
        sketches.push(&summary);
    }

    /// The user's epoch is over: persist managed state (write-behind — the
    /// epoch barrier or an LRU eviction batches it into the durable store)
    /// and emit the row.
    fn finish(self, cache: &ShardedStateCache) -> Result<UserEpochRow> {
        if let Some(ManagedParts {
            controller,
            mut state,
            ..
        }) = self.parts.managed
        {
            state.params = controller.params();
            state.optimizations += controller.optimizations();
            state.tracker = controller.into_tracker();
            cache.save(&state).map_err(sub)?;
        }
        Ok(UserEpochRow {
            user_id: self.user.id,
            class: self.class,
            day: self.day,
        })
    }
}

/// Event-driven co-simulation of one link's users for one epoch: one
/// unit of the work list. `members` are the link group's cohort indices,
/// ascending by user id; rows go into the unit's `rows`, sketches and
/// solver counters fold into the worker's `out`.
pub(crate) fn run_link_epoch(
    engine: &FleetEngine,
    ctx: EpochCtx<'_>,
    members: &[u32],
    scratch: &mut ContentionScratch,
    rows: &mut UnitRows<'_>,
    out: &mut WorkerOutput,
) -> Result<()> {
    let ContentionScratch {
        queue,
        caps,
        routes,
        rho,
        ..
    } = scratch;
    let WorkerOutput {
        sketches, solver, ..
    } = out;
    let config = engine.config();
    let contention = config
        .contention
        .as_ref()
        .expect("contended epoch requires a contention config");
    // Heterogeneous plant: the link-class registry (dynamics mode) or the
    // dispatch layer's capacity weights set this link's real capacity.
    let capacity_kbps = engine.link_capacity_kbps[ctx.cohort[members[0] as usize].link as usize];
    let fairness = config.fairness.as_ref();
    // Every link group is one topology instance under one objective. A
    // fairness config supplies the template, its capacities scaled with
    // the group's link capacity (ratio 1.0 on uniform links — a bit-exact
    // no-op). Without one the group is the degenerate single max-min
    // link, built from its capacity directly: scaling a base-capacity
    // link by `capacity / base` would not round to the same bits.
    let (topology, objective) = match fairness {
        Some(f) => (
            f.topology.scaled(capacity_kbps / contention.capacity_kbps),
            f.objective,
        ),
        None => (
            Topology::single_link(capacity_kbps),
            FairnessObjective::MaxMin,
        ),
    };
    let link = SharedBottleneck::with_topology(topology.map_err(sub)?, objective).map_err(sub)?;
    let topo = link.topology();
    let registry = config.dynamics.as_ref().map(|d| &d.registry);
    // Per-flow rate cap: the contention access cap, tightened by the
    // user class's access-link cap when one applies.
    let flow_cap_kbps = |member: &EpochUser| {
        let cap = contention.flow_cap_kbps(member.record.net.mean_kbps);
        match (registry, member.class) {
            (Some(reg), Some(class)) => cap.min(reg.users[class as usize].access_cap_kbps),
            _ => cap,
        }
    };

    // Fairness mode: per-link utilization from the group's static
    // offered load — Σ min(mean bandwidth, flow cap) of the members
    // routed across each link, accumulated in ascending user-id order.
    // A pure function of (seed, group members), hence shard-invariant;
    // it feeds the Kleinrock per-path RTT below (and only that, so the
    // constant-RTT degenerate topology skips it).
    rho.clear();
    if fairness.is_some() {
        rho.resize(topo.n_links(), 0.0);
        for &i in members {
            let member = &ctx.cohort[i as usize];
            let user = &member.record;
            let demand = user.net.mean_kbps.min(flow_cap_kbps(member));
            for &l in topo.route(engine.route_of(user.id, topo.n_routes())) {
                rho[l as usize] += demand;
            }
        }
        for (r, l) in rho.iter_mut().zip(topo.links()) {
            *r /= l.capacity_kbps;
        }
    }

    // Build agents in ascending user-id order; each opens its epoch (see
    // [`LinkAgent::new`]) and announces its first download.
    let mut agents: Vec<Option<LinkAgent<'_>>> = Vec::with_capacity(members.len());
    queue.clear();
    caps.clear();
    routes.clear();
    for &i in members {
        let member = &ctx.cohort[i as usize];
        let user = &member.record;
        // The user's route (the degenerate topology has only route 0).
        let route = engine.route_of(user.id, topo.n_routes());
        // A fairness config makes RTT emergent: the route's
        // Kleinrock-composed delay and jitter (exponential jitter with
        // the per-path mean) under the offered load above. Without one
        // the session keeps the player's constant RTT model — a real
        // behavioural difference, not a second path to the same result.
        let mut player = config.player;
        if fairness.is_some() {
            let (delay, jitter) = topo.path_delay_jitter(route, rho);
            player.rtt = RttModel {
                base_seconds: 2.0 * delay,
                jitter_mean: jitter,
            };
        }
        let mut agent = LinkAgent::new(engine, ctx, member, player)?;
        match agent.request(sketches)? {
            Some(req) => {
                caps.push(flow_cap_kbps(member));
                routes.push(route);
                let payload = ArrivalPayload {
                    size_kbits: req.size_kbits,
                };
                queue.push(agent.t0 + req.at, agents.len() as u64, payload);
                agents.push(Some(agent));
            }
            None => rows.push(agent.finish(ctx.cache)?),
        }
    }

    // The kernel: completions first on time ties, then arrivals in
    // (time, user id) order. Arrivals and flows are keyed by the agent's
    // index in `agents`, which is the lookup: agents were built in
    // ascending user id, so index order is user-id order and every tie —
    // in the queue and in the allocator's (cap, id) flow order — breaks
    // exactly as it would on user ids.
    // Dynamic counterpart to detlint rule D5: the merged event stream
    // must pop in monotone non-decreasing time order, whatever queue
    // implementation is compiled in. Debug builds assert it per event.
    #[cfg(debug_assertions)]
    let mut last_pop_t = f64::NEG_INFINITY;
    loop {
        let arrival_at = queue.peek().map(|(at, _)| at);
        let completion_at = link.next_event_time();
        let take_completion = match (arrival_at, completion_at) {
            (None, None) => break,
            (Some(_), None) => false,
            (None, Some(_)) => true,
            (Some(a), Some(c)) => c <= a,
        };
        #[cfg(debug_assertions)]
        {
            let t = if take_completion {
                completion_at.expect("completion chosen")
            } else {
                arrival_at.expect("arrival chosen")
            };
            debug_assert!(
                t >= last_pop_t,
                "event queue popped backwards in time: {t} after {last_pop_t}"
            );
            last_pop_t = t;
        }
        if take_completion {
            let end = link.pop_completion().expect("completion event exists");
            let idx = end.id as usize;
            let agent = agents
                .get_mut(idx)
                .and_then(Option::as_mut)
                .ok_or_else(|| {
                    FleetError::Subsystem(format!(
                        "completion for flow {idx}, which has no live agent"
                    ))
                })?;
            agent.complete(Download {
                duration: end.duration,
                kbps: end.kbps,
            })?;
            match agent.request(sketches)? {
                Some(req) => {
                    let payload = ArrivalPayload {
                        size_kbits: req.size_kbits,
                    };
                    queue.push(agent.t0 + req.at, end.id, payload);
                }
                None => {
                    let agent = agents[idx].take().expect("agent checked above");
                    rows.push(agent.finish(ctx.cache)?);
                }
            }
        } else {
            let (at, key, payload) = queue.pop().expect("peeked arrival exists");
            let idx = key as usize;
            link.begin_flow_on(key, routes[idx], at, payload.size_kbits, caps[idx])
                .map_err(sub)?;
        }
    }

    debug_assert!(agents.iter().all(Option::is_none), "all agents drained");
    solver.merge(&link.solver_stats());
    Ok(())
}

#[cfg(test)]
mod tests {
    use crate::harness::{Cell, ScratchDir};
    use crate::{
        AbSplit, AbrMix, ContentionConfig, FairnessConfig, FleetConfig, FleetReport, FleetScenario,
        PopulationDynamics,
    };
    use lingxi_core::{BinLogConfig, BinaryStateLog, StateBackend};
    use lingxi_net::{FairnessObjective, TopoLink, Topology};
    use lingxi_workload::{ArrivalKind, ClassRegistry, FlashRamp};

    fn scenario() -> FleetScenario {
        FleetScenario {
            name: "contended".into(),
            n_users: 24,
            n_videos: 8,
            mean_sessions_per_epoch: 2.0,
            ..FleetScenario::default()
        }
    }

    fn contended(capacity_kbps: f64, links: usize) -> Cell {
        Cell {
            config: FleetConfig {
                epochs: 2,
                seed: 7,
                contention: Some(ContentionConfig {
                    links,
                    capacity_kbps,
                    arrival_window: 10.0,
                    access_cap_factor: 1.5,
                }),
                ..FleetConfig::default()
            },
            scenario: scenario(),
        }
    }

    #[test]
    fn tighter_links_degrade_qoe() {
        // One congested cell vs ample per-link capacity: the same
        // population must stall more and watch less when contended.
        let tight = contended(2_500.0, 1).run(2).unwrap();
        let ample = contended(80_000.0, 6).run(2).unwrap();
        let stall = |r: &FleetReport| r.epochs.iter().map(|e| e.all.stall_time).sum::<f64>();
        assert!(
            stall(&tight) > stall(&ample),
            "tight {} vs ample {}",
            stall(&tight),
            stall(&ample)
        );
    }

    #[test]
    fn contended_runs_are_reproducible() {
        let cell = contended(10_000.0, 4);
        let (a, b) = (cell.run(3).unwrap(), cell.run(3).unwrap());
        assert_eq!(a.first_divergence(&b), None);
    }

    /// Managed-ness is data on the one agent, so it needs contended
    /// coverage too: under an A/B split a treatment (odd-id) user plays
    /// plain sessions before the intervention epoch and managed ones —
    /// state saved at every barrier — from it on. (Shard invariance and
    /// kill/resume of this regime are a row of `tests/contract.rs`.)
    #[test]
    fn contended_ab_split_manages_only_the_intervened() {
        let mut cell = contended(20_000.0, 6);
        cell.config.epochs = 4;
        cell.config.ab = Some(AbSplit {
            intervention_epoch: 2,
        });
        cell.scenario.abr_mix = AbrMix::all_hyb();
        let dir = ScratchDir::claim();
        let report = cell.complete_in(dir.path(), 4).unwrap();
        let log = BinaryStateLog::open(dir.path(), BinLogConfig::default()).unwrap();
        let mut persisted = log.scan().unwrap().ids;
        persisted.sort_unstable();
        let treatment: Vec<u64> = (0..24).filter(|id| id % 2 == 1).collect();
        assert_eq!(
            persisted, treatment,
            "only treatment users are ever managed"
        );
        for e in &report.epochs {
            let managed = if e.epoch < 2 { 0 } else { treatment.len() };
            assert_eq!(e.flushed, managed, "epoch {}", e.epoch);
            assert!(e.control.unwrap().sessions > 0 && e.treatment.unwrap().sessions > 0);
        }
    }

    #[test]
    fn fairness_objectives_diverge() {
        // Different objectives allocate the shared pod differently, so the
        // merged QoE metrics must not be byte-for-byte the same run.
        let pod = |objective| {
            let mut cell = contended(20_000.0, 4);
            cell.config.fairness = Some(FairnessConfig {
                objective,
                topology: Topology::new(
                    vec![
                        TopoLink::new(12_000.0, 0.004),
                        TopoLink::new(20_000.0, 0.008),
                        TopoLink::new(45_000.0, 0.012),
                    ],
                    vec![vec![0, 1, 2], vec![1, 2], vec![2]],
                )
                .unwrap(),
            });
            cell.run(2).unwrap()
        };
        let mm = pod(FairnessObjective::MaxMin);
        let pf = pod(FairnessObjective::ProportionalFair);
        assert_ne!(mm.first_divergence(&pf), None);
    }

    #[test]
    fn flash_ramp_dynamics_match_crowd_size() {
        // A FlashRamp schedule through the dynamics path delivers exactly
        // the crowd onto the links and every arrival plays.
        let mut cell = contended(20_000.0, 3);
        cell.config.epochs = 1;
        cell.config.seed = 21;
        cell.config.dynamics = Some(PopulationDynamics {
            arrivals: ArrivalKind::FlashRamp(FlashRamp::uniform(30, 15.0)),
            registry: ClassRegistry::single(
                lingxi_net::ProductionMixture::default(),
                2.0,
                20_000.0,
            ),
            day_seconds: 600.0,
        });
        let report = cell.run(2).unwrap();
        assert_eq!(report.users, 30);
        assert!(report.sessions >= 30, "every arrival plays >= 1 session");
        assert_eq!(report.epochs[0].classes.len(), 1);
        assert_eq!(report.epochs[0].classes[0].sessions, report.sessions);
    }
}
