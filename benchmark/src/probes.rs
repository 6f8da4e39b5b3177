//! Single-threaded per-layer probes: each times calls into one layer's
//! public API on inputs generated from the workload's `(seed, scenario)`.
//!
//! The probes measure the layers from outside; spans inside the program
//! are a later issue. Sample counts are fixed (scaled only by `--smoke`),
//! so every count a probe reports repeats exactly at a fixed seed.

use std::hint::black_box;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use lingxi_abr::{drive, Abr, AbrContext, Bola, Hyb, QoeParams, ThroughputRule};
use lingxi_abtest::DayAccum;
use lingxi_bayes::{ObOptimizer, ObserverConfig};
use lingxi_core::{
    evaluate_parameters_in, run_managed_session_in, BinLogConfig, BinaryStateLog, CacheConfig,
    LingXiConfig, LingXiController, LongTermState, McScratch, ProfilePredictor, SessionBuffers,
    ShardedStateCache, StateBackend,
};
use lingxi_fleet::{
    Dispatcher, EpochMetrics, FleetCheckpoint, Lsq, PopulationDynamics, StaticHash,
    CHECKPOINT_SCHEMA,
};
use lingxi_media::{BitrateLadder, Catalog, CatalogConfig, VbrModel};
use lingxi_net::{
    allocate, BandwidthProcess, BandwidthTrace, BinaryHeapQueue, EventQueue, FairnessObjective,
    FlowDemand, ProductionMixture, SharedBottleneck, TimerWheel, Topology, MAX_SWEEPS,
};
use lingxi_player::{
    run_session, ExitDecision, PlayerConfig, PlayerEnv, SessionSetup, SessionSummary,
};
use lingxi_stats::QuantileSketch;
use lingxi_user::{
    ExitModel, PopulationConfig, SegmentView, ToleranceDrift, UserPopulation, UserRecord,
};
use lingxi_workload::{ArrivalKind, ArrivalProcess, ClassRegistry, Diurnal};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::checks::check_allocation;
use crate::runner::Ledger;
use crate::stats;
use crate::trace::Tracer;
use crate::workloads::{churn_state, pod_topology, StateDir};

/// What the probes need to know about the workload they stand beside.
pub struct ProbeCtx<'a> {
    /// Workload seed.
    pub seed: u64,
    /// Sample-count scale (1.0, or 0.01 under `--smoke`).
    pub scale: f64,
    /// Bandwidth mixture of the workload's population.
    pub mixture: ProductionMixture,
    /// Catalog size of the workload.
    pub n_videos: usize,
    /// Player configuration of the workload.
    pub player: PlayerConfig,
    /// Topology of one link group of the workload.
    pub topology: Topology,
    /// Users sharing one link group.
    pub users_per_link: usize,
    /// Seconds over which a link group's users first arrive: the ramp
    /// window of a static cohort, the whole day under population dynamics.
    pub arrival_window_s: f64,
    /// The workload's population dynamics, when it has them.
    pub dynamics: Option<&'a PopulationDynamics>,
    /// Completed epochs of the traced repetition (checkpoint payload).
    pub epochs: &'a [EpochMetrics],
    /// Where probes may put state directories.
    pub out_dir: &'a Path,
}

impl ProbeCtx<'_> {
    /// `full` samples at full scale, never fewer than `floor`.
    fn n(&self, full: usize, floor: usize) -> usize {
        ((full as f64 * self.scale) as usize).max(floor)
    }
}

/// SplitMix64 finalizer (the engine's own is private).
fn mix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Run `f`, returning its wall time in seconds and its result.
fn timed<T>(f: impl FnOnce() -> T) -> (f64, T) {
    let start = Instant::now();
    let out = f();
    (start.elapsed().as_secs_f64(), out)
}

fn err<E: std::fmt::Display>(e: E) -> String {
    e.to_string()
}

/// Everything the probes measured, by layer.
#[derive(Debug, Default)]
pub struct Probed {
    /// `media.catalog.ms`
    pub catalog_ms: f64,
    /// `user.population.ns_per_user`
    pub population_ns_per_user: f64,
    /// `net.trace.ns_per_tick`
    pub trace_ns_per_tick: f64,
    /// Mean trace ticks one session generates on this catalog.
    pub trace_ticks_per_session: f64,
    /// `player.session.us_per_segment`
    pub player_us_per_segment: f64,
    /// `abr.{hyb,throughput,bola}.ns_per_decision`
    pub abr_ns_per_decision: [f64; 3],
    /// `core.session.us_p50`, `us_p99`, `n`
    pub session_us: (f64, f64, usize),
    /// Controller passes timed by the probe, in ms.
    pub pass_ms: Vec<f64>,
    /// Probe passes that changed the parameters.
    pub adopted: usize,
    /// `core.controller.prunes` (the probe's own).
    pub prunes: usize,
    /// Monte-Carlo evaluations the probe made, their total seconds, the
    /// segments they watched and how many ended pruned.
    pub mc: (usize, f64, usize, usize),
    /// `bayes.optimizer.us_per_trial`
    pub bayes_us_per_trial: f64,
    /// `net.fairness.us_per_call_{8,32,128}`
    pub fairness_us_per_call: [f64; 3],
    /// Allocator calls, their total sweeps, calls ending at `MAX_SWEEPS`.
    pub fairness_calls: (usize, usize, usize),
    /// `net.fairness.kkt_residual_max`
    pub kkt_residual_max: f64,
    /// Seconds the allocator adds to the workload's 1-shard run (filled by
    /// the traced run, by difference against the max-min cell).
    pub fairness_s: f64,
    /// `net.process.us_per_flow_event`: the event kernel under max-min on
    /// the workload's topology.
    pub flow_event_us: f64,
    /// `net.events.ns_per_event`, `heap_ns_per_event`
    pub events_ns: (f64, f64),
    /// `workload.arrival.ns_per_event`, `workload.classes.ns_per_user`
    pub workload_ns: (f64, f64),
    /// `fleet.dispatch.ns_per_place_lsq`, `ns_per_place_static`
    pub dispatch_ns: (f64, f64),
    /// `abtest.dayaccum.ns_per_push`, `stats.sketch.ns_per_push`,
    /// `stats.sketch.us_per_merge`
    pub metrics_cost: (f64, f64, f64),
    /// `core.cache.ns_per_save`, `flush_ms`, states flushed
    pub cache_cost: (f64, f64, usize),
    /// `core.binlog.*`
    pub binlog: BinlogProbe,
    /// `fleet.checkpoint.manifest_bytes`, `save_ms`, `load_ms`
    pub checkpoint: (u64, f64, f64),
}

/// The binary log's probe numbers.
#[derive(Debug, Default)]
pub struct BinlogProbe {
    /// Appended save, flush included.
    pub ns_per_save: f64,
    /// Log bytes one saved state occupies.
    pub bytes_per_save: u64,
    /// One compaction.
    pub checkpoint_ms: f64,
    /// Bytes after / before the compaction.
    pub compaction_ratio: f64,
    /// Reopen and recover.
    pub open_ms: f64,
    /// A point load served from the snapshot index.
    pub us_per_cold_load: f64,
    /// Warnings recovery raised.
    pub recovery_warnings: usize,
    /// States the probe's log held when it was compacted.
    pub states: usize,
}

/// The generated world the session-level probes share.
struct World {
    catalog: Catalog,
    users: Vec<UserRecord>,
    traces: Vec<BandwidthTrace>,
}

/// Users whose sessions the session-level probes play.
const SESSION_USERS: usize = 1_500;

/// Controller passes to time: enough for p99 to have ten samples beyond.
const PASSES: usize = 1_000;

fn generate_catalog(ctx: &ProbeCtx<'_>, rng: &mut StdRng) -> Result<Catalog, String> {
    Catalog::generate(
        BitrateLadder::default_short_video(),
        &CatalogConfig {
            n_videos: ctx.n_videos,
            vbr: VbrModel::default_vbr(),
            ..CatalogConfig::default()
        },
        rng,
    )
    .map_err(err)
}

/// `media.catalog` and `user.population`: generate the world the way the
/// engine does (catalog, then population, from one seeded stream).
fn world(ctx: &ProbeCtx<'_>, out: &mut Probed) -> Result<World, String> {
    let mut catalog_ms = Vec::new();
    for k in 0..20 {
        let mut rng = StdRng::seed_from_u64(ctx.seed.wrapping_add(k));
        let (s, catalog) = timed(|| generate_catalog(ctx, &mut rng));
        black_box(catalog?);
        catalog_ms.push(s * 1e3);
    }
    out.catalog_ms = stats::median(&catalog_ms);

    let mut rng = StdRng::seed_from_u64(ctx.seed);
    let catalog = generate_catalog(ctx, &mut rng)?;
    let n_users = ctx.n(20_000, SESSION_USERS);
    let (s, population) = timed(|| {
        UserPopulation::generate(
            &PopulationConfig {
                n_users,
                mixture: ctx.mixture,
                mean_sessions_per_day: 2.0,
            },
            &mut rng,
        )
    });
    out.population_ns_per_user = s * 1e9 / n_users as f64;
    let users = population.map_err(err)?.users().to_vec();

    // `net.trace`: one private trace per session, sized like the engine's.
    let trace_seconds = |k: usize| ((catalog.video_cyclic(k).duration() * 3.0) as usize).max(60);
    let mut ticks = 0usize;
    let (s, traces) = timed(|| {
        users
            .iter()
            .enumerate()
            .map(|(k, user)| {
                ticks += trace_seconds(k);
                user.net.trace(trace_seconds(k), 1.0, &mut rng)
            })
            .collect::<Result<Vec<_>, _>>()
    });
    let mut traces = traces.map_err(err)?;
    traces.truncate(SESSION_USERS);
    out.trace_ns_per_tick = s * 1e9 / ticks as f64;
    out.trace_ticks_per_session =
        (0..catalog.len()).map(trace_seconds).sum::<usize>() as f64 / catalog.len() as f64;
    Ok(World {
        catalog,
        users,
        traces,
    })
}

/// `player.session` (+ the ABR and the exit model it drives): plain
/// sessions over pre-generated traces.
fn player_sessions(ctx: &ProbeCtx<'_>, world: &World, out: &mut Probed) -> Result<(), String> {
    let ladder = world.catalog.ladder();
    let drift = ToleranceDrift::default();
    let mut rng = StdRng::seed_from_u64(mix64(ctx.seed ^ 0x91A7));
    let mut segments = 0usize;
    let mut total_s = 0.0;
    for (k, trace) in world.traces.iter().enumerate() {
        let user = &world.users[k];
        let video = world.catalog.video_cyclic(k);
        let mut abr: Box<dyn Abr> = if k % 2 == 0 {
            Box::new(ThroughputRule::default_rule())
        } else {
            Box::new(Bola::default_rule())
        };
        let mut exit_model = user.exit_model_for_day(&drift, &mut rng);
        exit_model.reset_session();
        let setup = SessionSetup {
            user_id: user.id,
            video,
            ladder,
            process: trace,
            config: ctx.player,
        };
        let (s, log) = timed(|| {
            run_session(
                &setup,
                drive(abr.as_mut(), ladder, &video.sizes),
                |env, record, r| {
                    let view = SegmentView {
                        env,
                        record,
                        ladder,
                    };
                    if exit_model.decide(&view, r) {
                        ExitDecision::Exit
                    } else {
                        ExitDecision::Continue
                    }
                },
                &mut rng,
            )
        });
        total_s += s;
        segments += log.map_err(err)?.segments.len();
    }
    out.player_us_per_segment = total_s * 1e6 / segments.max(1) as f64;
    Ok(())
}

/// `abr.*.ns_per_decision`: `Abr::select` over the player states of one
/// full session, replayed in order.
fn abr_decisions(ctx: &ProbeCtx<'_>, world: &World, out: &mut Probed) -> Result<(), String> {
    let ladder = world.catalog.ladder();
    let video = world
        .catalog
        .videos()
        .iter()
        .max_by_key(|v| v.n_segments())
        .expect("catalogs are never empty");
    let sizes = &video.sizes;
    let trace = BandwidthTrace::constant(2_500.0, 600, 1.0).map_err(err)?;
    let mut states: Vec<PlayerEnv> = Vec::new();
    let mut driver = ThroughputRule::default_rule();
    let setup = SessionSetup {
        user_id: 0,
        video,
        ladder,
        process: &trace,
        config: ctx.player,
    };
    let context = |env: &PlayerEnv| AbrContext {
        ladder,
        sizes,
        next_segment: env.segment_index(),
        segment_duration: sizes.segment_duration(),
    };
    run_session(
        &setup,
        |env| {
            states.push(env.clone());
            driver.select(env, &context(env))
        },
        |_, _, _| ExitDecision::Continue,
        &mut StdRng::seed_from_u64(ctx.seed),
    )
    .map_err(err)?;
    let rounds = ctx.n(20_000, 200) / states.len().max(1) + 1;
    let mut abrs: [Box<dyn Abr>; 3] = [
        Box::new(Hyb::default_rule()),
        Box::new(ThroughputRule::default_rule()),
        Box::new(Bola::default_rule()),
    ];
    for (abr, ns) in abrs.iter_mut().zip(&mut out.abr_ns_per_decision) {
        let (s, ()) = timed(|| {
            for _ in 0..rounds {
                abr.reset();
                for env in &states {
                    black_box(abr.select(black_box(env), &context(env)));
                }
            }
        });
        *ns = s * 1e9 / (rounds * states.len()) as f64;
    }
    Ok(())
}

/// `core.session`: LingXi-managed sessions, one fresh controller per user
/// as the engine builds them.
fn managed_sessions(ctx: &ProbeCtx<'_>, world: &World, out: &mut Probed) -> Result<(), String> {
    let ladder = world.catalog.ladder();
    let drift = ToleranceDrift::default();
    let mut rng = StdRng::seed_from_u64(mix64(ctx.seed ^ 0x5E55));
    let mut buffers = SessionBuffers::new();
    let mut us = Vec::with_capacity(world.traces.len());
    for (k, trace) in world.traces.iter().enumerate() {
        let user = &world.users[k];
        let state = LongTermState::new(user.id);
        let mut controller =
            LingXiController::with_state(LingXiConfig::for_hyb(), state.tracker, state.params)
                .map_err(err)?;
        let mut predictor = ProfilePredictor {
            profile: user.stall,
            base: 0.015,
        };
        let mut exit_model = user.exit_model_for_day(&drift, &mut rng);
        let mut abr = Hyb::default_rule();
        let (s, done) = timed(|| {
            run_managed_session_in(
                user.id,
                world.catalog.video_cyclic(k),
                ladder,
                trace,
                ctx.player,
                &mut abr,
                &mut controller,
                &mut predictor,
                &mut exit_model,
                &mut buffers,
                &mut rng,
            )
        });
        done.map_err(err)?;
        us.push(s * 1e6);
    }
    let (p50, p99) = stats::p50_p99(&us)?;
    out.session_us = (p50, p99, us.len());
    Ok(())
}

/// One parameter evaluation sequence shaped like a controller pass — the
/// incumbent unpruned, then eight challengers pruned against the best so
/// far — timed as `core.montecarlo`.
#[allow(clippy::too_many_arguments)]
fn montecarlo_pass(
    abr: &mut dyn Abr,
    controller: &LingXiController,
    env: &PlayerEnv,
    ladder: &BitrateLadder,
    predictor: &mut ProfilePredictor,
    scratch: &mut McScratch,
    rng: &mut StdRng,
    out: &mut Probed,
) -> Result<(), String> {
    let config = LingXiConfig::for_hyb();
    let Some(bandwidth) = env.bandwidth_model().filter(|b| b.mu > 0.0) else {
        return Ok(());
    };
    let mut best = f64::INFINITY;
    for trial in 0..=config.max_trials {
        let params = if trial == 0 {
            controller.params()
        } else {
            let mut unit = controller.params().to_unit();
            unit[2] = rng.gen();
            QoeParams::from_unit(unit)
        };
        let (s, eval) = timed(|| {
            evaluate_parameters_in(
                abr,
                params,
                bandwidth,
                controller.tracker(),
                env,
                ladder,
                predictor,
                &config.mc,
                best.is_finite().then_some(best),
                scratch,
                rng,
            )
        });
        let eval = eval.map_err(err)?;
        out.mc.0 += 1;
        out.mc.1 += s;
        out.mc.2 += eval.watched;
        out.mc.3 += usize::from(eval.pruned);
        if eval.exit_rate < best - config.adoption_margin {
            best = eval.exit_rate;
        }
    }
    Ok(())
}

/// `core.controller` and `core.montecarlo`: the managed-session loop
/// written out, so `maybe_optimize_in` is timed on its own at the states
/// real sessions trigger it in.
fn controller_passes(ctx: &ProbeCtx<'_>, world: &World, out: &mut Probed) -> Result<(), String> {
    /// Triggered states that also get a Monte-Carlo evaluation sequence.
    const MC_STATES: usize = 120;
    let ladder = world.catalog.ladder();
    let drift = ToleranceDrift::default();
    let mut rng = StdRng::seed_from_u64(mix64(ctx.seed ^ 0xC0DE));
    let mut scratch = McScratch::new();
    let mut mc_states = 0usize;
    // Beyond the pre-generated traces, users keep coming (with fresh
    // traces) until enough passes were seen; the cap only guards against a
    // population that never stalls.
    for k in 0..200_000usize {
        if out.pass_ms.len() >= PASSES {
            break;
        }
        let user = &world.users[k % world.users.len()];
        let mut controller = LingXiController::new(LingXiConfig::for_hyb()).map_err(err)?;
        let mut predictor = ProfilePredictor {
            profile: user.stall,
            base: 0.015,
        };
        let mut exit_model = user.exit_model_for_day(&drift, &mut rng);
        let mut abr = Hyb::default_rule();
        for session in 0..2 {
            let video = world.catalog.video_cyclic(k + session);
            let sizes = &video.sizes;
            let seg = sizes.segment_duration();
            let seconds = ((video.duration() * 3.0) as usize).max(60);
            let trace = user.net.trace(seconds, 1.0, &mut rng).map_err(err)?;
            let mut env = PlayerEnv::new(ctx.player).map_err(err)?;
            abr.reset();
            exit_model.reset_session();
            abr.set_params(controller.params());
            for index in 0..video.n_segments() {
                let context = AbrContext {
                    ladder,
                    sizes,
                    next_segment: index,
                    segment_duration: seg,
                };
                let level = abr.select(&env, &context).min(ladder.top_level());
                let size = sizes.size_kbits(index, level).map_err(err)?;
                let download = trace.download(env.wall_time(), size);
                let switched_from = env.last_level();
                let outcome = env
                    .step(size, level, download.kbps, seg, &mut rng)
                    .map_err(err)?;
                let bitrate = ladder.bitrate(level).map_err(err)?;
                let record = env.record(&outcome, level, bitrate, size, switched_from);
                controller.observe_segment(&record, seg);
                if controller.triggered() {
                    if mc_states < MC_STATES && !controller.prunable(&env, ladder) {
                        mc_states += 1;
                        montecarlo_pass(
                            &mut abr,
                            &controller,
                            &env,
                            ladder,
                            &mut predictor,
                            &mut scratch,
                            &mut rng,
                            out,
                        )?;
                    }
                    let before = controller.params();
                    let (s, pass) = timed(|| {
                        controller.maybe_optimize_in(
                            &mut abr,
                            &env,
                            ladder,
                            &mut predictor,
                            &mut scratch,
                            &mut rng,
                        )
                    });
                    if let Some(pass) = pass.map_err(err)? {
                        out.pass_ms.push(s * 1e3);
                        out.adopted += usize::from(pass.params != before);
                    }
                }
                let view = SegmentView {
                    env: &env,
                    record: &record,
                    ladder,
                };
                if exit_model.decide(&view, &mut rng) {
                    controller.observe_exit(record.stall_time > 0.0);
                    break;
                }
            }
        }
        out.prunes += controller.prunes();
    }
    Ok(())
}

/// `bayes.optimizer`: a warm-started 1-d optimizer driven through the
/// eight trials of a pass on a synthetic noisy bowl. As in a pass, a
/// pruned trial is not fed back; trials are pruned at the share the
/// Monte-Carlo probe saw.
fn bayes_trials(ctx: &ProbeCtx<'_>, out: &mut Probed) -> Result<(), String> {
    let pruned_share = out.mc.3 as f64 / out.mc.0.max(1) as f64;
    let mut rng = StdRng::seed_from_u64(mix64(ctx.seed ^ 0xBA7E5));
    let passes = ctx.n(300, 20);
    let trials = LingXiConfig::for_hyb().max_trials;
    let (s, done) = timed(|| -> Result<(), String> {
        for _ in 0..passes {
            let mut optimizer = ObOptimizer::new(ObserverConfig::for_dim(1)).map_err(err)?;
            optimizer.init_with(&[0.5]).map_err(err)?;
            for _ in 0..trials {
                let x = optimizer.next_candidate(&mut rng);
                let y = 0.05 + 0.1 * (x[0] - 0.3).powi(2) + 0.002 * rng.gen::<f64>();
                if rng.gen::<f64>() >= pruned_share {
                    optimizer.update(x, y).map_err(err)?;
                }
            }
            black_box(optimizer.best());
        }
        Ok(())
    });
    done?;
    out.bayes_us_per_trial = s * 1e6 / (passes * trials) as f64;
    Ok(())
}

/// The flows `users` would put on a link group: access cap 1.5 × mean
/// bandwidth, route hashed from the id.
fn demands(users: &[UserRecord], n_routes: usize) -> Vec<FlowDemand> {
    users
        .iter()
        .map(|u| {
            FlowDemand::new(
                u.net.mean_kbps * 1.5,
                (mix64(u.id ^ 0xF10E) % n_routes as u64) as u16,
            )
        })
        .collect()
}

/// `net.fairness`: standalone `allocate` on the pod under α-fair(2) at 8,
/// 32 and 128 concurrent flows; every result is checked.
fn fairness_allocations(
    ctx: &ProbeCtx<'_>,
    world: &World,
    ledger: &mut Ledger,
    out: &mut Probed,
) -> Result<(), String> {
    let topo = pod_topology();
    let objective = FairnessObjective::AlphaFair(2.0);
    let sets = ctx.n(300, 20);
    for (slot, flows_per_call) in [8usize, 32, 128].into_iter().enumerate() {
        let mut total_s = 0.0;
        for set in 0..sets {
            let start = (set * 37) % (world.users.len() - flows_per_call);
            let flows = demands(&world.users[start..start + flows_per_call], topo.n_routes());
            let (s, allocation) = timed(|| allocate(&topo, objective, black_box(&flows)));
            let allocation = allocation.map_err(err)?;
            total_s += s;
            out.fairness_calls.0 += 1;
            out.fairness_calls.1 += allocation.sweeps;
            out.fairness_calls.2 += usize::from(allocation.sweeps >= MAX_SWEEPS);
            out.kkt_residual_max = out.kkt_residual_max.max(allocation.kkt_residual);
            ledger.probe(
                check_allocation(&topo, &flows, &allocation)
                    .map(|why| format!("allocate({flows_per_call} flows, set {set}): {why}")),
            );
        }
        out.fairness_us_per_call[slot] = total_s * 1e6 / sets as f64;
    }
    Ok(())
}

/// Drive one link group through a synthetic closed-loop schedule: clients
/// first arrive uniformly over `window_s`; each downloads a segment, then
/// asks for the next one segment duration after the last request or on
/// completion, whichever is later, until its budget drains — so a flash
/// cohort starts at the group size and decays, and a day-long trickle
/// stays sparse. Returns the flow events processed.
fn drive_link_group(
    link: &SharedBottleneck,
    clients: &[FlowDemand],
    bitrates: &[f64],
    window_s: f64,
    group: u64,
) -> Result<usize, String> {
    const SEGMENT_S: f64 = 2.0;
    let mut queue: TimerWheel<f64> = TimerWheel::new();
    let mut budget: Vec<u64> = Vec::with_capacity(clients.len());
    let mut last_request = vec![0.0f64; clients.len()];
    for id in 0..clients.len() as u64 {
        let h = mix64(group << 20 | id);
        budget.push(8 + h % 40);
        let at = (h >> 40) as f64 / (1u64 << 24) as f64 * window_s;
        queue.push(
            at,
            id,
            bitrates[(h % bitrates.len() as u64) as usize] * SEGMENT_S,
        );
    }
    let mut events = 0usize;
    loop {
        let arrival = queue.peek().map(|(at, _)| at);
        let completion = link.next_event_time();
        match (arrival, completion) {
            (None, None) => return Ok(events),
            // Completions first on ties, as the kernel orders them.
            (arrival, Some(done)) if arrival.is_none_or(|at| done <= at) => {
                let end = link.pop_completion().expect("an event was due");
                let id = end.id as usize;
                budget[id] -= 1;
                if budget[id] > 0 {
                    let size = bitrates[(id + budget[id] as usize) % bitrates.len()] * SEGMENT_S;
                    queue.push(end.at.max(last_request[id] + SEGMENT_S), end.id, size);
                }
            }
            _ => {
                let (at, id, size) = queue.pop().expect("an arrival was due");
                let client = clients[id as usize];
                link.begin_flow_on(id, client.route, at, size, client.cap_kbps)
                    .map_err(err)?;
                last_request[id as usize] = at;
            }
        }
        events += 1;
    }
}

/// `net.process`: microseconds per flow event of the max-min event kernel
/// on the workload's topology (the finite-α allocator is `net.fairness`).
fn flow_events(ctx: &ProbeCtx<'_>, world: &World) -> Result<f64, String> {
    /// Most clients one synthetic group carries; a larger real group is
    /// sampled at this size over a proportionally shorter window, which
    /// keeps its arrival density.
    const MAX_CLIENTS: usize = 188;
    let groups = ctx.n(24, 2);
    let bitrates = world.catalog.ladder().bitrates();
    let per_group = ctx.users_per_link.clamp(2, MAX_CLIENTS);
    let window_s = ctx.arrival_window_s * per_group as f64 / ctx.users_per_link.max(2) as f64;
    let mut events = 0usize;
    let mut total_s = 0.0;
    for group in 0..groups {
        let start = (group * per_group) % (world.users.len() - per_group + 1);
        let clients = demands(
            &world.users[start..start + per_group],
            ctx.topology.n_routes(),
        );
        let link = SharedBottleneck::with_topology(ctx.topology.clone(), FairnessObjective::MaxMin)
            .map_err(err)?;
        let (s, n) = timed(|| drive_link_group(&link, &clients, bitrates, window_s, group as u64));
        events += n?;
        total_s += s;
    }
    Ok(total_s * 1e6 / events.max(1) as f64)
}

/// `net.events`: the hold model — a queue kept at one link group's depth,
/// each step popping the earliest event and pushing its successor.
fn event_queue_ns<Q: EventQueue<f64>>(queue: &mut Q, depth: usize, steps: usize) -> f64 {
    for id in 0..depth as u64 {
        queue.push(
            (mix64(id) >> 40) as f64 / (1u64 << 24) as f64 * 20.0,
            id,
            0.0,
        );
    }
    let (s, ()) = timed(|| {
        for step in 0..steps as u64 {
            let (at, id, v) = queue.pop().expect("depth is constant");
            let gap = 0.5 + (mix64(step) >> 40) as f64 / (1u64 << 24) as f64 * 3.0;
            queue.push(at + gap, id, v + 1.0);
        }
    });
    black_box(queue.len());
    s * 1e9 / steps as f64
}

/// `workload.arrival` and `workload.classes`.
fn workload_generation(ctx: &ProbeCtx<'_>, out: &mut Probed) {
    let default_dynamics = PopulationDynamics {
        arrivals: ArrivalKind::Diurnal(Diurnal {
            base_rate: ctx.n(48_000, 500) as f64 / 86_400.0,
            ..Diurnal::default()
        }),
        registry: ClassRegistry::default_heterogeneous(),
        day_seconds: 86_400.0,
    };
    let dynamics = ctx.dynamics.unwrap_or(&default_dynamics);
    let (s, events) = timed(|| {
        dynamics.arrivals.events(
            dynamics.day_seconds,
            mix64(ctx.seed ^ 0xA221),
            &dynamics.registry,
        )
    });
    let n = events.len().max(1);
    let (s_users, ()) = timed(|| {
        for (i, e) in events.iter().enumerate() {
            black_box(dynamics.registry.users[e.class as usize].sample_user(ctx.seed, i as u64));
        }
    });
    out.workload_ns = (s * 1e9 / n as f64, s_users * 1e9 / n as f64);
}

/// `fleet.dispatch`: three barrier refreshes, each followed by a cohort
/// of placements, on 64 links weighted by the heterogeneous registry.
fn dispatch_placements(ctx: &ProbeCtx<'_>, out: &mut Probed) {
    const LINKS: usize = 64;
    let registry = ClassRegistry::default_heterogeneous();
    let weights: Vec<f64> = (0..LINKS as u64)
        .map(|l| registry.capacity_weight_of(ctx.seed, l, 25_000.0))
        .collect();
    let per_epoch = ctx.n(100_000, 1_000);
    let run = |dispatcher: &mut dyn Dispatcher| {
        let mut snapshot = vec![0u64; LINKS];
        let (s, ()) = timed(|| {
            for epoch in 0..3u64 {
                dispatcher.refresh(&snapshot);
                snapshot.fill(0);
                for i in 0..per_epoch as u64 {
                    let id = epoch << 32 | i;
                    snapshot[dispatcher.place(id, mix64(ctx.seed ^ id)) as usize] += 1;
                }
            }
        });
        black_box(&snapshot);
        s * 1e9 / (3 * per_epoch) as f64
    };
    out.dispatch_ns = (
        run(&mut Lsq::new(weights, 2)),
        run(&mut StaticHash::new(ctx.seed, LINKS)),
    );
}

/// `abtest.metrics` and `stats.streaming`: the per-session pushes and the
/// barrier merge.
fn metric_accumulators(ctx: &ProbeCtx<'_>, out: &mut Probed) -> Result<(), String> {
    let mut rng = StdRng::seed_from_u64(mix64(ctx.seed ^ 0x5BE7));
    let n = ctx.n(400_000, 4_000);
    let summaries: Vec<SessionSummary> = (0..n)
        .map(|i| SessionSummary {
            user_id: i as u64,
            watch_time: rng.gen::<f64>() * 120.0,
            total_stall: rng.gen::<f64>() * 4.0,
            stall_count: i % 3,
            mean_bitrate: 400.0 + rng.gen::<f64>() * 4_000.0,
            switch_count: i % 5,
            completed: i % 2 == 0,
            segments: 5 + i % 40,
        })
        .collect();
    let mut day = DayAccum::new();
    let (s_day, ()) = timed(|| summaries.iter().for_each(|s| day.push(s)));
    black_box(day.metrics());
    let mut sketch = QuantileSketch::new(0.0, 900.0, 180).map_err(err)?;
    let (s_push, ()) = timed(|| summaries.iter().for_each(|s| sketch.push(s.watch_time)));
    let merges = ctx.n(20_000, 200);
    let mut merged = QuantileSketch::new(0.0, 900.0, 180).map_err(err)?;
    let (s_merge, done) = timed(|| (0..merges).try_for_each(|_| merged.merge(&sketch)));
    done.map_err(err)?;
    black_box(merged.count());
    out.metrics_cost = (
        s_day * 1e9 / n as f64,
        s_push * 1e9 / n as f64,
        s_merge * 1e6 / merges as f64,
    );
    Ok(())
}

/// `core.cache`: write-behind saves into the default cache, then the
/// barrier flush into a binary log.
fn cache_saves(ctx: &ProbeCtx<'_>, out: &mut Probed) -> Result<(), String> {
    let dir = StateDir::fresh(ctx.out_dir, "probe-cache").map_err(err)?;
    let backend: Arc<dyn StateBackend> =
        Arc::new(BinaryStateLog::open(dir.path(), BinLogConfig::default()).map_err(err)?);
    let cache = ShardedStateCache::with_backend(backend, CacheConfig::default()).map_err(err)?;
    let n = ctx.n(40_000, 1_000);
    let states: Vec<LongTermState> = (0..n as u64).map(|id| churn_state(id, ctx.seed)).collect();
    let (s_save, done) = timed(|| states.iter().try_for_each(|s| cache.save(s)));
    done.map_err(err)?;
    let (s_flush, flushed) = timed(|| cache.flush());
    out.cache_cost = (
        s_save * 1e9 / n as f64,
        s_flush * 1e3,
        flushed.map_err(err)?,
    );
    Ok(())
}

fn dir_bytes(dir: &Path) -> Result<u64, String> {
    let mut total = 0;
    for entry in std::fs::read_dir(dir).map_err(err)? {
        total += entry.and_then(|e| e.metadata()).map_err(err)?.len();
    }
    Ok(total)
}

/// `core.binlog`: batch append, compaction, recovery and cold point loads
/// by direct calls.
fn binlog_calls(ctx: &ProbeCtx<'_>, out: &mut Probed) -> Result<(), String> {
    let dir = StateDir::fresh(ctx.out_dir, "probe-binlog").map_err(err)?;
    let n = ctx.n(60_000, 1_000);
    let states: Vec<LongTermState> = (0..n as u64).map(|id| churn_state(id, ctx.seed)).collect();
    let refs: Vec<&LongTermState> = states.iter().collect();
    let log = BinaryStateLog::open(dir.path(), BinLogConfig::default()).map_err(err)?;
    let empty = dir_bytes(dir.path())?;
    let (s_save, done) = timed(|| log.save_batch(&refs).and_then(|_| log.flush()));
    done.map_err(err)?;
    let appended = dir_bytes(dir.path())?;
    // Overwrite every other user so the compaction has stale records to drop.
    let stale: Vec<&LongTermState> = refs.iter().copied().step_by(2).collect();
    log.save_batch(&stale)
        .and_then(|_| log.flush())
        .map_err(err)?;
    let before = dir_bytes(dir.path())?;
    let (s_checkpoint, done) = timed(|| log.checkpoint());
    done.map_err(err)?;
    let after = dir_bytes(dir.path())?;
    drop(log);
    let (s_open, reopened) = timed(|| BinaryStateLog::open(dir.path(), BinLogConfig::default()));
    let reopened = reopened.map_err(err)?;
    let loads = ctx.n(20_000, 500).min(n);
    let (s_load, done) = timed(|| -> Result<(), String> {
        for k in 0..loads as u64 {
            let id = mix64(k) % n as u64;
            black_box(
                reopened
                    .load(id)
                    .map_err(err)?
                    .ok_or("cold load lost a user")?,
            );
        }
        Ok(())
    });
    done?;
    out.binlog = BinlogProbe {
        ns_per_save: s_save * 1e9 / n as f64,
        bytes_per_save: (appended - empty) / n as u64,
        checkpoint_ms: s_checkpoint * 1e3,
        compaction_ratio: after as f64 / before.max(1) as f64,
        open_ms: s_open * 1e3,
        us_per_cold_load: s_load * 1e6 / loads as f64,
        recovery_warnings: reopened.recovery_warnings().len(),
        states: n,
    };
    Ok(())
}

/// `fleet.checkpoint`: the manifest of the traced repetition's epochs,
/// saved and loaded.
fn checkpoint_manifest(ctx: &ProbeCtx<'_>, out: &mut Probed) -> Result<(), String> {
    let dir = StateDir::fresh(ctx.out_dir, "probe-ckpt").map_err(err)?;
    let manifest = FleetCheckpoint {
        schema: CHECKPOINT_SCHEMA,
        seed: ctx.seed,
        total_epochs: ctx.epochs.len() + 1,
        scenario: "probe".into(),
        next_epoch: ctx.epochs.len(),
        users_total: 0,
        sessions: 0,
        segments: 0,
        elapsed_s: 0.0,
        epochs: ctx.epochs.to_vec(),
    };
    let (mut save_ms, mut load_ms) = (Vec::new(), Vec::new());
    for _ in 0..15 {
        let (s, done) = timed(|| manifest.save(dir.path()));
        done.map_err(err)?;
        save_ms.push(s * 1e3);
        let (s, back) = timed(|| FleetCheckpoint::load(dir.path()));
        if back.map_err(err)?.as_ref() != Some(&manifest) {
            return Err("checkpoint manifest did not round-trip".into());
        }
        load_ms.push(s * 1e3);
    }
    let bytes = std::fs::metadata(FleetCheckpoint::path_in(dir.path()))
        .map_err(err)?
        .len();
    out.checkpoint = (bytes, stats::median(&save_ms), stats::median(&load_ms));
    Ok(())
}

/// Run one probe in a span under `parent`. A probe that cannot run is one
/// failed operation; the others still report.
fn step(
    (tracer, parent, ledger): (&mut Tracer, usize, &mut Ledger),
    name: &str,
    probe: impl FnOnce(&mut Ledger) -> Result<(), String>,
) {
    let result = tracer.span(name, Some(parent), || probe(ledger));
    ledger.probe(result.err().map(|e| format!("probe {name}: {e}")));
}

/// Run every probe, one span each under `parent`.
pub fn run_all(
    ctx: &ProbeCtx<'_>,
    tracer: &mut Tracer,
    parent: usize,
    ledger: &mut Ledger,
) -> Probed {
    let mut out = Probed::default();
    let mut made = None;
    macro_rules! probe {
        ($name:expr, $f:expr) => {
            step((&mut *tracer, parent, &mut *ledger), $name, $f)
        };
    }
    probe!("user.population+media.catalog+net.trace", |_| {
        made = Some(world(ctx, &mut out)?);
        Ok(())
    });
    if let Some(world) = &made {
        probe!("player.session", |_| player_sessions(ctx, world, &mut out));
        probe!("abr", |_| abr_decisions(ctx, world, &mut out));
        probe!("core.session", |_| managed_sessions(ctx, world, &mut out));
        probe!("core.controller+core.montecarlo", |_| {
            controller_passes(ctx, world, &mut out)
        });
        probe!("net.fairness", |ledger| {
            fairness_allocations(ctx, world, ledger, &mut out)
        });
        probe!("net.process", |_| {
            out.flow_event_us = flow_events(ctx, world)?;
            Ok(())
        });
    }
    probe!("bayes.optimizer", |_| bayes_trials(ctx, &mut out));
    probe!("net.events", |_| {
        let (depth, steps) = (ctx.users_per_link.max(2), ctx.n(400_000, 4_000));
        out.events_ns = (
            event_queue_ns(&mut TimerWheel::new(), depth, steps),
            event_queue_ns(&mut BinaryHeapQueue::new(), depth, steps),
        );
        Ok(())
    });
    probe!("workload.arrival+workload.classes", |_| {
        workload_generation(ctx, &mut out);
        Ok(())
    });
    probe!("fleet.dispatch", |_| {
        dispatch_placements(ctx, &mut out);
        Ok(())
    });
    probe!("abtest.metrics+stats.streaming", |_| {
        metric_accumulators(ctx, &mut out)
    });
    probe!("core.cache", |_| cache_saves(ctx, &mut out));
    probe!("core.binlog", |_| binlog_calls(ctx, &mut out));
    probe!("fleet.checkpoint", |_| checkpoint_manifest(ctx, &mut out));
    out
}
