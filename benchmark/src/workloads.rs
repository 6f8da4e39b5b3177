//! The six workloads: what each one is, how its inputs derive from the
//! seed, and how one repetition of it runs.
//!
//! Names are fixed — later issues refer to them. Every workload is a
//! closed loop: one repetition is a single call into the program that
//! returns when the work is done, and the next repetition starts only
//! then. The program receives nothing but the generated configuration.

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use lingxi_core::{
    BinLogConfig, BinaryStateLog, CacheConfig, CacheStats, LongTermState, ShardedStateCache,
    StateBackend,
};
use lingxi_fleet::{
    AbrMix, ContentionConfig, DispatchConfig, FairnessConfig, FleetConfig, FleetEngine,
    FleetReport, FleetScenario, PersistenceConfig, PopulationDynamics,
};
use lingxi_net::{FairnessObjective, ProductionMixture, TopoLink, Topology};
use lingxi_workload::{ArrivalKind, ClassRegistry, Diurnal};

use crate::fingerprint::Fnv;
use crate::trace::Tracer;

/// Worker shards of every fleet workload: the box has two cores, and a
/// workload never uses more threads than that.
pub const SHARDS: usize = 2;

/// Workload names with the one-line reason each exists (mirrored in
/// `BENCHMARK.json`).
pub const WORKLOADS: [(&str, &str); 6] = [
    (
        "independent",
        "static cohort on private traces: the per-session floor (net trace, player, abr, exit model); kernel, allocator, dispatch, arrivals idle",
    ),
    (
        "lowbw_managed",
        "constrained-heavy mixture, all users LingXi-managed: stalls trigger controller passes, so Monte-Carlo rollouts and OBO dominate",
    ),
    (
        "contention",
        "the independent cohort on shared max-min links: event kernel, timer wheel and water-fill dominate; dual solver bypassed, no private traces",
    ),
    (
        "fairness_alpha2",
        "contention fleet on the 4-link/3-route pod under alpha-fair(2): the dual allocator is most of the run; its bypass is contention",
    ),
    (
        "population",
        "diurnal arrivals x 3 days, heterogeneous classes, LSQ dispatch, checkpoint every barrier: all-miss state churn; a gain in one layer that costs another shows here",
    ),
    (
        "state_churn",
        "the state layer by direct calls: fresh saves, overwrites and cold snapshot loads per day, flush+checkpoint, reopen and verify; no sessions at all",
    ),
];

/// Whether `name` is one of the six workloads.
pub fn is_workload(name: &str) -> bool {
    WORKLOADS.iter().any(|(n, _)| *n == name)
}

/// Videos in every fleet workload's catalog. Large, so that the mean video
/// length — and with it every throughput — barely moves with the seed.
pub const CATALOG_VIDEOS: usize = 1_000;

/// Users per shared link in the contended workloads (`links = users / 47`).
const USERS_PER_LINK: usize = 47;

/// Full-size user counts, tuned on the 2-core reference box so one
/// repetition takes about 2 s (see `benchmark/README.md` for the measured
/// times). `--smoke` runs 1 % of these.
fn full_users(name: &str) -> usize {
    match name {
        "independent" => 56_000,
        "lowbw_managed" => 16_000,
        "contention" => 32_000,
        "fairness_alpha2" => 2_800,
        // Arrivals per simulated day.
        "population" => 48_000,
        // Fresh users per simulated day.
        "state_churn" => 120_000,
        other => unreachable!("unknown workload {other}"),
    }
}

/// The pod topology of the fairness workload: two access links feeding a
/// metro link into a core link; a 3-hop, a 2-hop and a 1-hop route. The
/// constants are those of `lingxi_exp::fairness::pod_topology`, copied so
/// the benchmark owns its input.
pub fn pod_topology() -> Topology {
    let link = |capacity_kbps, prop_delay_s| TopoLink {
        capacity_kbps,
        prop_delay_s,
    };
    Topology::new(
        vec![
            link(8_000.0, 0.004),
            link(8_000.0, 0.004),
            link(12_000.0, 0.008),
            link(16_000.0, 0.012),
        ],
        vec![vec![0, 2, 3], vec![1, 3], vec![3]],
    )
    .expect("static pod topology is valid")
}

/// One fleet workload's generated input.
#[derive(Debug, Clone)]
pub struct FleetInput {
    /// Engine configuration (`state_dir` is filled per repetition).
    pub config: FleetConfig,
    /// Scenario cell.
    pub scenario: FleetScenario,
}

/// The `state_churn` workload's generated input.
#[derive(Debug, Clone, Copy)]
pub struct ChurnInput {
    /// Salt of the generated states.
    pub seed: u64,
    /// Fresh users saved per simulated day.
    pub users_per_day: usize,
}

/// A workload's input, generated from `(name, seed, scale)` alone.
#[derive(Debug, Clone)]
pub enum Input {
    /// A `FleetEngine::run` workload.
    Fleet(Box<FleetInput>),
    /// The direct state-layer workload.
    Churn(ChurnInput),
}

/// Generate the input of workload `name`. `scale` shrinks the population
/// (`--smoke` passes 0.01); everything else is fixed.
pub fn input(name: &str, seed: u64, scale: f64) -> Input {
    let users = ((full_users(name) as f64 * scale) as usize).max(2 * USERS_PER_LINK);
    let base = FleetConfig {
        shards: SHARDS,
        epochs: 2,
        seed,
        persistence: PersistenceConfig::binary_log(),
        ..FleetConfig::default()
    };
    let cohort = |mixture, abr_mix| FleetScenario {
        name: name.to_string(),
        n_users: users,
        n_videos: CATALOG_VIDEOS,
        mean_sessions_per_epoch: 2.0,
        mixture,
        abr_mix,
    };
    let shared_links = |links: usize| ContentionConfig {
        links,
        capacity_kbps: 25_000.0,
        arrival_window: 20.0,
        access_cap_factor: 1.5,
    };
    let (config, scenario) = match name {
        "independent" => (
            base,
            cohort(ProductionMixture::default(), AbrMix::default()),
        ),
        "lowbw_managed" => (
            base,
            cohort(
                ProductionMixture {
                    p_constrained: 0.5,
                    p_cellular: 0.35,
                    p_wifi: 0.15,
                },
                AbrMix::all_hyb(),
            ),
        ),
        "contention" => (
            FleetConfig {
                contention: Some(shared_links(users / USERS_PER_LINK)),
                ..base
            },
            cohort(ProductionMixture::default(), AbrMix::default()),
        ),
        "fairness_alpha2" => (
            FleetConfig {
                epochs: 1,
                contention: Some(shared_links(users / 12)),
                fairness: Some(FairnessConfig {
                    objective: FairnessObjective::AlphaFair(2.0),
                    topology: pod_topology(),
                }),
                ..base
            },
            cohort(ProductionMixture::default(), AbrMix::default()),
        ),
        "population" => (
            FleetConfig {
                epochs: 3,
                checkpoint_every: 1,
                contention: Some(shared_links(64)),
                dynamics: Some(PopulationDynamics {
                    arrivals: ArrivalKind::Diurnal(Diurnal {
                        base_rate: users as f64 / 86_400.0,
                        amplitude: 0.7,
                        peak_s: 21.0 * 3600.0,
                        period_s: 86_400.0,
                    }),
                    registry: ClassRegistry::default_heterogeneous(),
                    day_seconds: 86_400.0,
                }),
                dispatch: Some(DispatchConfig::lsq(2)),
                ..base
            },
            // In dynamics mode the cohort comes from the arrival process;
            // only the catalog size and ABR mix of the scenario apply.
            cohort(ProductionMixture::default(), AbrMix::default()),
        ),
        "state_churn" => {
            return Input::Churn(ChurnInput {
                seed,
                users_per_day: users,
            })
        }
        other => unreachable!("unknown workload {other}"),
    };
    Input::Fleet(Box::new(FleetInput { config, scenario }))
}

/// What one repetition produced, reduced to what the harness reports and
/// checks.
#[derive(Debug, Clone, Default)]
pub struct RepOutcome {
    /// Wall time of the timed region (seconds); 0 when the run failed.
    pub wall_s: f64,
    /// Sessions played (0 for `state_churn`).
    pub sessions: u64,
    /// Fresh user-days saved (`state_churn` only).
    pub user_days: u64,
    /// State operations: cache loads + saves the run issued.
    pub state_ops: u64,
    /// FNV-1a fingerprint of the simulated output.
    pub fingerprint: u64,
    /// Verification probes attempted (the repetition itself is one).
    pub attempted: u64,
    /// Probes that failed, one line each.
    pub failures: Vec<String>,
    /// The fleet report (fleet workloads only) for per-layer counts.
    pub fleet: Option<FleetReport>,
    /// Cache counters of the run.
    pub cache: CacheStats,
}

/// Run `FleetEngine::new(cfg)?.run(&scenario)` once on `state_dir` and time
/// the whole call — world generation included, because users pay it on
/// every run. The call sits in a `fleet.engine.run` span of `tracer`.
pub fn run_fleet_timed(
    input: &FleetInput,
    shards: usize,
    state_dir: &Path,
    tracer: &mut Tracer,
    parent: Option<usize>,
) -> Result<(f64, FleetReport), String> {
    let config = FleetConfig {
        shards,
        state_dir: state_dir.to_path_buf(),
        ..input.config.clone()
    };
    let start = Instant::now();
    let report = tracer
        .span("fleet.engine.run", parent, || {
            FleetEngine::new(config).and_then(|engine| engine.run(&input.scenario))
        })
        .map_err(|e| e.to_string())?;
    Ok((start.elapsed().as_secs_f64(), report))
}

/// One fleet repetition plus its output checks.
pub fn fleet_rep(
    input: &FleetInput,
    shards: usize,
    state_dir: &Path,
    tracer: &mut Tracer,
    parent: Option<usize>,
) -> RepOutcome {
    let mut out = RepOutcome {
        attempted: 1,
        ..RepOutcome::default()
    };
    match run_fleet_timed(input, shards, state_dir, tracer, parent) {
        Err(e) => out.failures.push(format!("run failed: {e}")),
        Ok((wall_s, report)) => {
            out.wall_s = wall_s;
            out.sessions = report.sessions as u64;
            out.cache = report.cache;
            out.state_ops = report.cache.hits + report.cache.misses + report.cache.writes;
            out.fingerprint = crate::fingerprint::sim_fingerprint(&report);
            crate::checks::check_fleet_report(&report, &mut out);
            crate::checks::check_state_dir(input, &report, state_dir, &mut out);
            out.fleet = Some(report);
        }
    }
    out
}

/// Simulated days of `state_churn`.
pub const CHURN_DAYS: usize = 4;

/// A deterministic, non-trivial long-term state: a few segments of
/// tracker history plus perturbed parameters, so a record costs what a
/// real user's state costs rather than an empty struct.
pub fn churn_state(user_id: u64, salt: u64) -> LongTermState {
    let mut state = LongTermState::new(user_id);
    for k in 0..8u64 {
        let x = ((user_id ^ salt).wrapping_add(k) % 97) as f64;
        state
            .tracker
            .push_segment(800.0 + 25.0 * x, 1200.0 + 40.0 * x, 4.0);
    }
    state.tracker.push_stall(0.5 + (user_id % 5) as f64 * 0.3);
    state.tracker.advance_clock(3600.0);
    state.params.stall_weight += ((user_id ^ salt) % 11) as f64 * 0.01;
    state.optimizations = (user_id % 7) as usize;
    state
}

/// The cache in front of the binary log in `state_churn`: small and
/// write-through, the log's intended operating point (appends are cheap,
/// so residency buys nothing).
pub const CHURN_CACHE: CacheConfig = CacheConfig {
    shards: 8,
    capacity_per_shard: 512,
    write_through: true,
};

/// One `state_churn` repetition: `CHURN_DAYS` days of fresh-user saves, a
/// quarter of yesterday's cohort overwritten, an equal number of cold
/// loads of users two days old (after two checkpoints they live in the
/// snapshot index, not the tail map), `flush` + `checkpoint` per day; then
/// drop, reopen and sample-verify. Reads run beside writes, so an
/// append-path gain that slows snapshot lookups or recovery shows.
pub fn churn_rep(
    input: &ChurnInput,
    state_dir: &Path,
    tracer: &mut Tracer,
    parent: Option<usize>,
) -> RepOutcome {
    let mut out = RepOutcome {
        attempted: 1,
        ..RepOutcome::default()
    };
    let start = Instant::now();
    match tracer.span("state_churn.run", parent, || churn_timed(input, state_dir)) {
        Err(e) => out.failures.push(format!("run failed: {e}")),
        Ok(done) => {
            out.wall_s = start.elapsed().as_secs_f64();
            out.state_ops = done.ops;
            out.user_days = CHURN_DAYS as u64 * input.users_per_day as u64;
            out.fingerprint = done.fingerprint;
            out.cache = done.cache;
            out.attempted += done.probes;
            out.failures.extend(done.failures);
        }
    }
    out
}

struct ChurnDone {
    ops: u64,
    fingerprint: u64,
    cache: CacheStats,
    probes: u64,
    failures: Vec<String>,
}

fn open_log(dir: &Path) -> Result<Arc<BinaryStateLog>, String> {
    BinaryStateLog::open(dir, BinLogConfig::default())
        .map(Arc::new)
        .map_err(|e| e.to_string())
}

fn churn_timed(input: &ChurnInput, dir: &Path) -> Result<ChurnDone, String> {
    let n = input.users_per_day as u64;
    let err = |e: lingxi_core::CoreError| e.to_string();
    let log = open_log(dir)?;
    let backend: Arc<dyn StateBackend> = log.clone();
    let cache = ShardedStateCache::with_backend(backend, CHURN_CACHE).map_err(err)?;
    let mut ops = 0u64;
    let mut fp = Fnv::new();
    let mut failures = Vec::new();
    let mut probes = 0u64;
    for day in 0..CHURN_DAYS as u64 {
        for i in 0..n {
            let id = day * n + i;
            cache.save(&churn_state(id, input.seed)).map_err(err)?;
            ops += 1;
            if i % 4 != 0 {
                continue;
            }
            if day >= 1 {
                // A returning user overwrites yesterday's record.
                let mut back = churn_state(id - n, input.seed ^ 1);
                back.optimizations += day as usize;
                cache.save(&back).map_err(err)?;
                ops += 1;
            }
            if day >= 2 {
                // A cold read of a user last written two days ago.
                let cold = id - 2 * n + 1;
                probes += 1;
                match cache.load(cold).map_err(err)? {
                    Some(state) => fp.u64(state.user_id ^ state.optimizations as u64),
                    None => failures.push(format!("cold load lost user {cold}")),
                }
                ops += 1;
            }
        }
        cache.flush().map_err(err)?;
        log.checkpoint().map_err(err)?;
    }
    let stats = cache.stats();
    drop(cache);
    drop(log);
    // Recovery is part of the workload: reopen and sample-load to prove the
    // state survives a process boundary.
    let reopened = open_log(dir)?;
    for w in reopened.recovery_warnings() {
        failures.push(format!("recovery warning: {w}"));
    }
    let total = CHURN_DAYS as u64 * n;
    for id in (0..total).step_by(251) {
        probes += 1;
        match reopened.load(id).map_err(err)? {
            Some(state) => {
                fp.u64(state.optimizations as u64);
                fp.u64(state.params.stall_weight.to_bits());
            }
            None => failures.push(format!("user {id} lost across reopen")),
        }
    }
    fp.u64(ops);
    Ok(ChurnDone {
        ops,
        fingerprint: fp.finish(),
        cache: stats,
        probes,
        failures,
    })
}

/// Where a repetition's state lives: under the harness's own output
/// directory, unique per (pid, repetition), removed when dropped — on
/// every exit path, panics included.
#[derive(Debug)]
pub struct StateDir(PathBuf);

impl StateDir {
    /// A fresh, empty directory `<root>/state/<pid>-<tag>`.
    pub fn fresh(root: &Path, tag: &str) -> std::io::Result<Self> {
        let dir = root
            .join("state")
            .join(format!("{}-{tag}", std::process::id()));
        match std::fs::remove_dir_all(&dir) {
            Err(e) if e.kind() != std::io::ErrorKind::NotFound => return Err(e),
            _ => {}
        }
        std::fs::create_dir_all(&dir)?;
        Ok(Self(dir))
    }

    /// The directory.
    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for StateDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}
