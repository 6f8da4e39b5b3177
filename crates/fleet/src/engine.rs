//! The sharded fleet engine: one epoch pipeline — populate → dispatch →
//! plan units → run workers → merge → flush/checkpoint — over worker
//! threads, with a deterministic streaming metric merge at the barrier.
//!
//! Determinism model: every (user, epoch) derives its own RNG stream from
//! the base seed alone — never from the worker or thread schedule — and
//! a user's long-term state is only ever touched by the worker that runs
//! the user's unit in that epoch. The epoch's work list is a pure function
//! of the cohort, and a unit's work a pure function of (seed, members,
//! epoch), so whichever worker pulls which unit, every per-user result is
//! the same. Metrics are held as bounded-memory streaming accumulators:
//! one [`lingxi_abtest::DayAccum`] per user (sessions folded in play
//! order) merged at the epoch barrier in ascending user-id order, plus
//! per-worker integer-binned [`crate::report::EpochSketches`] and integer
//! [`SolverStats`] sums (with one float max), whose merges are exact in
//! any grouping and order — so merged metrics are bit-identical for any
//! shard count and any schedule without ever materialising per-session
//! records.
//!
//! A user's epoch exists once: the agent in `contention.rs`, built by one
//! constructor in either mode. Independent and contention mode
//! differ in the bandwidth source (a private trace per session vs shared
//! links driven by the event kernel), not in the user loop.
//!
//! In population-dynamics mode (see
//! [`crate::config::PopulationDynamics`]) the per-epoch cohort is not a
//! fixed population: an arrival process emits `(time, class)` events, each
//! materialised into a transient classed user who joins a shared link at
//! its arrival time and departs when its session budget drains.

use std::cmp::Reverse;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use lingxi_abtest::{did_report, DayAccum};
use lingxi_core::{BinaryStateLog, ShardedStateCache, StateBackend};
use lingxi_media::{BitrateLadder, Catalog, CatalogConfig, VbrModel};
use lingxi_net::SolverStats;
use lingxi_user::{PopulationConfig, UserPopulation, UserRecord};
use lingxi_workload::ArrivalProcess;
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::checkpoint::{FleetCheckpoint, CHECKPOINT_SCHEMA};
use crate::config::{FleetConfig, FleetScenario, PersistenceConfig};
use crate::contention::{ContentionScratch, LinkAgent};
use crate::dispatch::{DispatchConfig, DispatchEpoch, Dispatcher};
use crate::report::{EpochMetrics, EpochSketches, FleetReport};
use crate::{mix64, sub, FleetError, Result};

/// Controls for a resumable run ([`FleetEngine::run_resumable`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RunControl {
    /// Resume from the checkpoint manifest in the state directory
    /// (refused when none exists or its seed/scenario/epochs mismatch).
    pub resume: bool,
    /// Suspend — compact the backend, write a checkpoint, return
    /// [`RunOutcome::Suspended`] — after this many epochs have run in
    /// *this* invocation (a controlled kill at the epoch barrier).
    /// `None` (and `Some(0)`) run to completion.
    pub stop_after_epochs: Option<usize>,
}

/// Outcome of [`FleetEngine::run_resumable`].
#[derive(Debug)]
pub enum RunOutcome {
    /// The run finished; any checkpoint manifest was removed. Boxed: a
    /// report is hundreds of bytes and the variant would otherwise
    /// dominate the enum's size.
    Complete(Box<FleetReport>),
    /// The run suspended at an epoch barrier; the manifest it wrote is
    /// returned and a `resume: true` run continues from it.
    Suspended(FleetCheckpoint),
}

/// One user's slot in an epoch: the record plus the population-dynamics
/// tags (first-arrival time and class index) when active.
#[derive(Debug, Clone, Copy)]
pub(crate) struct EpochUser {
    pub(crate) record: UserRecord,
    /// Absolute arrival time within the epoch (dynamics mode).
    pub(crate) arrival: Option<f64>,
    /// Index into the dynamics registry's user classes.
    pub(crate) class: Option<u16>,
    /// The shared link this user's sessions contend on this epoch,
    /// written by the dispatch stage; the work list groups users by it.
    /// Unused in independent mode (there are no links).
    pub(crate) link: u64,
}

/// One user's epoch, reduced to bounded-memory accumulators by the
/// worker that ran the user's unit.
pub(crate) struct UserEpochRow {
    pub(crate) user_id: u64,
    pub(crate) class: Option<u16>,
    pub(crate) day: DayAccum,
}

/// Users per unit in independent mode. A constant: the work list never
/// depends on the shard count. Small enough that the last units balance
/// the workers' finish times, large enough that pulling one costs
/// nothing next to playing its sessions.
const UNIT_USERS: usize = 64;

/// Stage 3's output: the epoch's units of work, in the order workers pull
/// them. A unit is one link group (contention mode) or a chunk of
/// [`UNIT_USERS`] consecutive cohort indices (independent mode); it is
/// never split between workers.
#[derive(Debug, Default, PartialEq)]
pub(crate) struct WorkList {
    /// Cohort indices, unit after unit.
    members: Vec<u32>,
    /// Exclusive end of each unit in `members`; a unit starts where the
    /// previous one ends.
    ends: Vec<usize>,
}

impl WorkList {
    /// Number of units.
    fn len(&self) -> usize {
        self.ends.len()
    }

    /// Unit `u`'s cohort indices; `None` past the last unit.
    fn unit(&self, u: usize) -> Option<&[u32]> {
        let end = *self.ends.get(u)?;
        let start = u.checked_sub(1).map_or(0, |prev| self.ends[prev]);
        Some(&self.members[start..end])
    }

    /// Every unit, in pull order.
    fn units(&self) -> impl Iterator<Item = &[u32]> {
        (0..self.len()).map_while(|u| self.unit(u))
    }

    /// Independent mode: consecutive chunks of [`UNIT_USERS`] cohort
    /// indices, in cohort (ascending user-id) order.
    fn chunks(&mut self, n: usize) {
        self.members.clear();
        self.members.extend(0..n as u32);
        self.ends.clear();
        self.ends
            .extend((1..=n.div_ceil(UNIT_USERS)).map(|k| (k * UNIT_USERS).min(n)));
    }

    /// Contention mode: one unit per non-empty link group, its members in
    /// ascending user id, units ordered largest first (ties by ascending
    /// link id) so the longest co-simulations start first and the short
    /// ones fill in behind them. A counting sort over the cohort, which
    /// is already in ascending user-id order.
    fn link_groups(&mut self, cohort: &[EpochUser], links: usize) {
        debug_assert!(
            cohort.windows(2).all(|w| w[0].record.id < w[1].record.id),
            "the cohort is in ascending user-id order"
        );
        let mut sizes = vec![0usize; links];
        for user in cohort {
            sizes[user.link as usize] += 1;
        }
        let mut order: Vec<usize> = (0..links).filter(|&l| sizes[l] > 0).collect();
        order.sort_unstable_by_key(|&l| (Reverse(sizes[l]), l));
        // Each link's write cursor: where its run of `members` starts.
        let mut cursor = vec![0usize; links];
        self.ends.clear();
        let mut end = 0;
        for &link in &order {
            cursor[link] = end;
            end += sizes[link];
            self.ends.push(end);
        }
        self.members.clear();
        self.members.resize(cohort.len(), 0);
        for (i, user) in cohort.iter().enumerate() {
            let at = &mut cursor[user.link as usize];
            self.members[*at] = i as u32;
            *at += 1;
        }
    }

    /// Split the epoch's row buffer into one slice per unit, in unit
    /// order, each behind a lock its one worker takes once.
    fn split<'r, T>(&self, mut buf: &'r mut [T]) -> Vec<Mutex<&'r mut [T]>> {
        self.units()
            .map(|unit| {
                let (head, tail) = std::mem::take(&mut buf).split_at_mut(unit.len());
                buf = tail;
                Mutex::new(head)
            })
            .collect()
    }
}

/// One unit's slice of the epoch's row buffer: one slot per member,
/// filled in the order the unit's users finish.
pub(crate) struct UnitRows<'a> {
    slots: &'a mut [Option<UserEpochRow>],
    filled: usize,
}

impl UnitRows<'_> {
    /// Emit one finished user's row.
    pub(crate) fn push(&mut self, row: UserEpochRow) {
        self.slots[self.filled] = Some(row);
        self.filled += 1;
    }

    /// Every member emitted its row.
    fn check_full(&self) -> Result<()> {
        if self.filled == self.slots.len() {
            return Ok(());
        }
        Err(FleetError::Subsystem(format!(
            "a unit of {} users emitted {} rows",
            self.slots.len(),
            self.filled
        )))
    }
}

/// What one worker hands to the epoch barrier besides its rows. A worker
/// that pulled no unit hands over empty sketches and zero counters.
#[derive(Default)]
pub(crate) struct WorkerOutput {
    /// Sketches of every session the worker's units played.
    pub(crate) sketches: EpochSketches,
    /// Dual-solver counters summed over the worker's link groups.
    pub(crate) solver: SolverStats,
    /// The first unit the worker failed, with its error. The worker keeps
    /// pulling after a failure, so every unit runs and the epoch fails on
    /// the lowest failing unit, whichever worker ran it.
    failure: Option<(usize, FleetError)>,
}

/// Stage 4's output: the epoch's rows, one slot per cohort user in unit
/// order, and one output per worker.
struct EpochOutput {
    rows: Vec<Option<UserEpochRow>>,
    workers: Vec<WorkerOutput>,
}

/// The queue every worker pulls from during one epoch: the work list,
/// each unit's row slice, and the cursor handing out unit indices.
#[derive(Clone, Copy)]
struct WorkQueue<'q, 'r> {
    work: &'q WorkList,
    rows: &'q [Mutex<&'r mut [Option<UserEpochRow>]>],
    next: &'q AtomicUsize,
}

/// What every worker reads during one epoch.
#[derive(Clone, Copy)]
pub(crate) struct EpochCtx<'a> {
    pub(crate) epoch: usize,
    pub(crate) scenario: &'a FleetScenario,
    pub(crate) catalog: &'a Catalog,
    pub(crate) cache: &'a ShardedStateCache,
    /// The whole epoch cohort; units index into it.
    pub(crate) cohort: &'a [EpochUser],
}

/// Contention mode's placement state: the run's one dispatcher and the
/// barrier snapshot its estimates refresh from — the previous epoch's
/// per-link placements, so stale by exactly one epoch (zeros before
/// epoch 0).
struct Placement {
    dispatcher: Box<dyn Dispatcher>,
    snapshot: Vec<u64>,
}

/// Everything one run owns across its epochs; the stage methods of
/// [`FleetEngine`] borrow it.
struct RunState<'a> {
    scenario: &'a FleetScenario,
    catalog: Catalog,
    backend: Arc<dyn StateBackend>,
    cache: ShardedStateCache,
    state_warnings: Vec<String>,
    /// The one cohort, in ascending user-id order: the static population
    /// (built once, replayed every epoch) or, under dynamics, the epoch's
    /// arrivals (refilled by the populate stage).
    cohort: Vec<EpochUser>,
    /// `None` in independent mode: there are no links to place users on.
    placement: Option<Placement>,
    /// The epoch's units, refilled by the plan stage.
    work: WorkList,
    /// One contention scratch per worker, reused across every epoch so
    /// the contended hot path allocates nothing in steady state. A single
    /// one — one shard, or a single-core host, where worker threads would
    /// only time-slice each other — runs the one worker inline on the
    /// calling thread; units are independent within an epoch and their
    /// outputs merge exactly in any grouping, so both ways produce the
    /// same results.
    scratches: Vec<ContentionScratch>,
    /// The run so far, in the shape a checkpoint persists: epoch cursor,
    /// merged epochs and running counters. A fresh run starts from the
    /// empty manifest, a resumed one from the manifest it loaded.
    progress: FleetCheckpoint,
    /// Wall time consumed before this invocation (resumed runs).
    prior_elapsed: Duration,
    start: Instant,
}

/// The fleet-simulation engine.
#[derive(Debug)]
pub struct FleetEngine {
    config: FleetConfig,
    /// Real capacity of each shared link (kbps); empty in independent
    /// mode. See [`link_tables`].
    pub(crate) link_capacity_kbps: Vec<f64>,
    /// Capacity weight of each shared link, as the dispatch layer plans
    /// with it; parallel to `link_capacity_kbps`.
    link_weights: Vec<f64>,
}

/// Per-link `(capacity_kbps, dispatch weight)` tables, resolved once from
/// the mode options. Under dynamics both come from the link-class
/// registry (class capacity, and class capacity / base capacity — see
/// [`lingxi_workload::ClassRegistry::capacity_weight_of`]); otherwise the
/// weight is the dispatch layer's explicit one (1.0 when none is set) and
/// the capacity is base × weight — heterogeneous weights are physical,
/// not just planning inputs. Validation rejects explicit weights under
/// dynamics, so the two sources never compete.
fn link_tables(config: &FleetConfig) -> (Vec<f64>, Vec<f64>) {
    let Some(contention) = &config.contention else {
        return (Vec::new(), Vec::new());
    };
    let base = contention.capacity_kbps;
    let explicit = config
        .dispatch
        .as_ref()
        .map_or(&[][..], |d| &d.capacity_weights);
    (0..contention.links)
        .map(|link| match &config.dynamics {
            Some(d) => {
                let class = d.registry.link_class_of(config.seed, link as u64);
                (class.capacity_kbps, class.capacity_kbps / base)
            }
            None => {
                let weight = explicit.get(link).copied().unwrap_or(1.0);
                (base * weight, weight)
            }
        })
        .unzip()
}

impl FleetEngine {
    /// Create an engine; validates the configuration.
    pub fn new(config: FleetConfig) -> Result<Self> {
        config.validate()?;
        let (link_capacity_kbps, link_weights) = link_tables(&config);
        Ok(Self {
            config,
            link_capacity_kbps,
            link_weights,
        })
    }

    /// The engine configuration.
    pub fn config(&self) -> &FleetConfig {
        &self.config
    }

    /// The topology route a user's flows take. Derived from (seed, user
    /// id) only — never from the shard count.
    pub(crate) fn route_of(&self, user_id: u64, n_routes: usize) -> u16 {
        (mix64(self.config.seed ^ mix64(user_id ^ 0xFA1C_0DE5_0F4A_11CE)) % n_routes as u64) as u16
    }

    /// Per-(user, epoch) RNG stream, independent of shard count.
    pub(crate) fn stream_seed(&self, user_id: u64, epoch: usize) -> u64 {
        mix64(self.config.seed ^ mix64(user_id) ^ mix64((epoch as u64) << 17 | 0x5EED))
    }

    /// Seed of one epoch's arrival schedule (dynamics mode).
    fn arrival_seed(&self, epoch: usize) -> u64 {
        mix64(self.config.seed ^ mix64((epoch as u64) ^ 0xA771_0A15_EED5_0000))
    }

    /// Whether this user's sessions run under LingXi management in `epoch`
    /// (A/B mode gates the odd-id treatment cohort on the intervention).
    pub(crate) fn lingxi_active(&self, user_id: u64, epoch: usize) -> bool {
        match &self.config.ab {
            None => true,
            Some(ab) => user_id % 2 == 1 && epoch >= ab.intervention_epoch,
        }
    }

    /// Run one scenario to completion.
    pub fn run(&self, scenario: &FleetScenario) -> Result<FleetReport> {
        match self.run_resumable(scenario, RunControl::default())? {
            RunOutcome::Complete(report) => Ok(*report),
            RunOutcome::Suspended(_) => Err(FleetError::Subsystem(
                "run without a stop control cannot suspend".into(),
            )),
        }
    }

    /// Run one scenario with checkpoint/resume control.
    ///
    /// Determinism contract: immediately after barrier `k` every user's
    /// long-term state is durable and epoch `k+1` is a pure function of
    /// (config, scenario, durable state) — the per-(user, epoch) RNG
    /// streams derive from the base seed alone. A run suspended at any
    /// barrier and resumed therefore produces merged metrics and sketches
    /// bit-identical to an uninterrupted run (checked at 1/4/8 shards and
    /// every inner barrier, once per engine regime, by
    /// [`crate::harness::Cell::contract`] in `tests/contract.rs`).
    pub fn run_resumable(
        &self,
        scenario: &FleetScenario,
        control: RunControl,
    ) -> Result<RunOutcome> {
        let mut run = self.begin_run(scenario, control.resume)?;
        let first_epoch = run.progress.next_epoch;
        for epoch in first_epoch..self.config.epochs {
            self.populate(&mut run, epoch);
            let placed = self.dispatch(&mut run, epoch);
            self.plan(&mut run.work, &run.cohort);
            let output = self.run_workers(&mut run, epoch)?;
            let metrics = self.merge(&mut run.progress, epoch, output, placed)?;
            let suspend = control
                .stop_after_epochs
                .is_some_and(|n| n > 0 && epoch + 1 - first_epoch >= n);
            if self.flush_and_checkpoint(&mut run, metrics, suspend)? {
                return Ok(RunOutcome::Suspended(run.progress));
            }
        }
        self.finish(run)
            .map(|report| RunOutcome::Complete(Box::new(report)))
    }

    /// Everything before the first epoch: the world, the durable layer,
    /// the resume manifest and the mode options resolved into the run's
    /// one shape.
    fn begin_run<'a>(&self, scenario: &'a FleetScenario, resume: bool) -> Result<RunState<'a>> {
        scenario.validate()?;
        let (catalog, cohort) = self.build_world(scenario)?;

        // Durable layer + cache; surface the startup scan (torn log
        // tails) instead of silently dropping users.
        let PersistenceConfig::BinaryLog(log_config) = self.config.persistence;
        let backend: Arc<dyn StateBackend> =
            Arc::new(BinaryStateLog::open(&self.config.state_dir, log_config).map_err(sub)?);
        let state_warnings = backend.scan().map_err(sub)?.warnings;
        let cache = ShardedStateCache::with_backend(Arc::clone(&backend), self.config.cache)
            .map_err(sub)?;

        // A resumed run adopts the manifest's accumulators and epoch
        // cursor (the static cohort was already counted once — it is not
        // recounted); the durable backend already holds every state the
        // checkpointed run flushed at its last barrier.
        let progress = if resume {
            self.load_checkpoint(scenario)?
        } else {
            FleetCheckpoint {
                schema: CHECKPOINT_SCHEMA,
                seed: self.config.seed,
                total_epochs: self.config.epochs,
                scenario: scenario.name.clone(),
                next_epoch: 0,
                users_total: cohort.len(),
                sessions: 0,
                segments: 0,
                elapsed_s: 0.0,
                epochs: Vec::with_capacity(self.config.epochs),
            }
        };

        // Contention mode always places through a dispatcher: no dispatch
        // layer configured means the degenerate one (the static hash),
        // not a second placement path. Its first snapshot is the last
        // completed epoch's placements, so a resumed run refreshes from
        // exactly what an uninterrupted one would.
        let placement = self.config.contention.as_ref().map(|_| Placement {
            dispatcher: self
                .config
                .dispatch
                .as_ref()
                .unwrap_or(&DispatchConfig::static_hash())
                .build(self.config.seed, self.link_weights.clone()),
            snapshot: progress
                .epochs
                .last()
                .and_then(|e| e.dispatch.as_ref())
                .map_or_else(
                    || vec![0; self.link_weights.len()],
                    |d| d.placements.clone(),
                ),
        });

        let single_core = std::thread::available_parallelism().is_ok_and(|n| n.get() == 1);
        let workers = if single_core { 1 } else { self.config.shards };
        Ok(RunState {
            scenario,
            catalog,
            backend,
            cache,
            state_warnings,
            cohort,
            placement,
            work: WorkList::default(),
            scratches: (0..workers).map(|_| ContentionScratch::default()).collect(),
            prior_elapsed: Duration::from_secs_f64(progress.elapsed_s),
            progress,
            // detlint::allow(wall_clock, reason = "wall-time reporting only; never feeds simulated state or metrics")
            start: Instant::now(),
        })
    }

    /// World construction, deterministic from (seed, scenario): the
    /// catalog, then the static cohort.
    fn build_world(&self, scenario: &FleetScenario) -> Result<(Catalog, Vec<EpochUser>)> {
        let mut world_rng = StdRng::seed_from_u64(self.config.seed);
        let catalog = Catalog::generate(
            BitrateLadder::default_short_video(),
            &CatalogConfig {
                n_videos: scenario.n_videos,
                vbr: VbrModel::default_vbr(),
                ..CatalogConfig::default()
            },
            &mut world_rng,
        )
        .map_err(sub)?;
        // Static cohort, replayed every epoch — unless dynamics drive the
        // population, in which case the populate stage fills it per epoch.
        let cohort: Vec<EpochUser> = match &self.config.dynamics {
            Some(_) => Vec::new(),
            None => UserPopulation::generate(
                &PopulationConfig {
                    n_users: scenario.n_users,
                    mixture: scenario.mixture,
                    mean_sessions_per_day: scenario.mean_sessions_per_epoch,
                },
                &mut world_rng,
            )
            .map_err(sub)?
            .users()
            .iter()
            .map(|u| EpochUser {
                record: *u,
                arrival: None,
                class: None,
                link: 0,
            })
            .collect(),
        };
        Ok((catalog, cohort))
    }

    /// The checkpoint manifest a `resume` run continues from; refused
    /// when absent, written by a different run, or carrying a dispatch
    /// record that does not fit this run's links.
    fn load_checkpoint(&self, scenario: &FleetScenario) -> Result<FleetCheckpoint> {
        let ckpt = FleetCheckpoint::load(&self.config.state_dir)?.ok_or_else(|| {
            FleetError::InvalidConfig(format!(
                "resume requested but no checkpoint manifest in {:?}",
                self.config.state_dir
            ))
        })?;
        if ckpt.seed != self.config.seed
            || ckpt.total_epochs != self.config.epochs
            || ckpt.scenario != scenario.name
        {
            return Err(FleetError::InvalidConfig(format!(
                "checkpoint (seed {}, {} epochs, scenario {:?}) does not match this run \
                 (seed {}, {} epochs, scenario {:?})",
                ckpt.seed,
                ckpt.total_epochs,
                ckpt.scenario,
                self.config.seed,
                self.config.epochs,
                scenario.name
            )));
        }
        // The dispatch snapshot resumes from the last epoch's placements,
        // so they must be the record this run writes: one count per link
        // in contention mode, none in independent mode.
        let recorded = ckpt
            .epochs
            .last()
            .map(|e| e.dispatch.as_ref().map(|d| d.placements.len()));
        let links = self.config.contention.as_ref().map(|c| c.links);
        if recorded.is_some_and(|recorded| recorded != links) {
            let shape =
                |n: Option<usize>| n.map_or("no links".to_string(), |n| format!("{n} links"));
            return Err(FleetError::InvalidConfig(format!(
                "checkpoint records placements on {} but this run places users on {}",
                shape(recorded.flatten()),
                shape(links)
            )));
        }
        Ok(ckpt)
    }

    /// Stage 1 — populate: the epoch's cohort. A static cohort replays
    /// unchanged; under dynamics the epoch's arrival events are
    /// materialised into transient classed users, a pure function of
    /// `(config, epoch)`.
    fn populate(&self, run: &mut RunState, epoch: usize) {
        let Some(dynamics) = &self.config.dynamics else {
            return;
        };
        let events = dynamics.arrivals.events(
            dynamics.day_seconds,
            self.arrival_seed(epoch),
            &dynamics.registry,
        );
        run.cohort.clear();
        run.cohort.extend(events.iter().enumerate().map(|(i, e)| {
            // Ids are unique across epochs so managed state never aliases
            // between transient users.
            let id = ((epoch as u64) << 32) | i as u64;
            EpochUser {
                record: dynamics.registry.users[e.class as usize].sample_user(self.config.seed, id),
                arrival: Some(e.at),
                class: Some(e.class),
                link: 0,
            }
        }));
        run.progress.users_total += run.cohort.len();
    }

    /// Stage 2 — dispatch: refresh the dispatcher's estimates from the
    /// barrier snapshot, place every cohort user in ascending-id cohort
    /// order, and record the epoch's placements (the next snapshot). Pure
    /// in (seed, epoch, snapshot) — the cohort order and every stream
    /// seed derive from those alone. Independent mode has no links, so
    /// nothing to place and nothing to record.
    fn dispatch(&self, run: &mut RunState, epoch: usize) -> Option<DispatchEpoch> {
        let Placement {
            dispatcher,
            snapshot,
        } = run.placement.as_mut()?;
        dispatcher.refresh(snapshot);
        let mut placements = vec![0u64; self.link_weights.len()];
        for user in &mut run.cohort {
            let id = user.record.id;
            user.link = dispatcher.place(id, self.stream_seed(id, epoch));
            placements[user.link as usize] += 1;
        }
        let max_weighted_occupancy = placements
            .iter()
            .zip(&self.link_weights)
            .map(|(&c, &w)| c as f64 / w)
            .fold(0.0, f64::max);
        snapshot.clone_from(&placements);
        Some(DispatchEpoch {
            placements,
            max_weighted_occupancy,
            dispatcher_loads: dispatcher.dispatcher_loads().to_vec(),
        })
    }

    /// Stage 3 — plan units: the epoch's work list, a pure function of
    /// the cohort — never of the shard count. In contention mode a unit is
    /// one whole link group, so every link's co-simulation stays on one
    /// worker and the shard-count invariance survives contention — under
    /// any dispatch policy, since placement never consults the shard
    /// count. Redone every epoch because placements may move at every
    /// barrier.
    pub(crate) fn plan(&self, work: &mut WorkList, cohort: &[EpochUser]) {
        match &self.config.contention {
            Some(contention) => work.link_groups(cohort, contention.links),
            None => work.chunks(cohort.len()),
        }
    }

    /// Stage 4 — run workers: `scratches.len()` workers pull units off one
    /// queue until it is empty, inline on the calling thread when there
    /// is one (see `RunState::scratches`), else on scoped threads. Each
    /// unit writes its rows into its own slice of one epoch-sized buffer.
    /// Nothing here accumulates: what the workers return folds at the
    /// barrier.
    fn run_workers(&self, run: &mut RunState, epoch: usize) -> Result<EpochOutput> {
        let ctx = EpochCtx {
            epoch,
            scenario: run.scenario,
            catalog: &run.catalog,
            cache: &run.cache,
            cohort: &run.cohort,
        };
        let mut rows: Vec<Option<UserEpochRow>> = (0..run.cohort.len()).map(|_| None).collect();
        let slices = run.work.split(&mut rows);
        let next = AtomicUsize::new(0);
        let queue = WorkQueue {
            work: &run.work,
            rows: &slices,
            next: &next,
        };
        let workers = match run.scratches.as_mut_slice() {
            [scratch] => vec![self.run_worker(ctx, queue, scratch)],
            scratches => std::thread::scope(|scope| {
                let handles: Vec<_> = scratches
                    .iter_mut()
                    .map(|scratch| scope.spawn(move || self.run_worker(ctx, queue, scratch)))
                    .collect();
                handles
                    .into_iter()
                    .map(|h| {
                        h.join().map_err(|p| {
                            FleetError::WorkerPanic(
                                p.downcast_ref::<String>()
                                    .cloned()
                                    .or_else(|| p.downcast_ref::<&str>().map(|s| s.to_string()))
                                    .unwrap_or_else(|| "unknown panic".into()),
                            )
                        })
                    })
                    .collect::<Result<Vec<_>>>()
            })?,
        };
        drop(slices);
        Ok(EpochOutput { rows, workers })
    }

    /// One worker: pull the next unit index until the list runs out, and
    /// run each unit into its row slice.
    fn run_worker(
        &self,
        ctx: EpochCtx<'_>,
        queue: WorkQueue<'_, '_>,
        scratch: &mut ContentionScratch,
    ) -> WorkerOutput {
        let mut out = WorkerOutput::default();
        loop {
            // Relaxed: the cursor only hands out distinct indices; the
            // scope's join orders every write a worker made.
            let u = queue.next.fetch_add(1, Ordering::Relaxed);
            let Some(members) = queue.work.unit(u) else {
                return out;
            };
            // Taken once, by the one worker that pulled `u`: uncontended,
            // and never held by a worker that panicked before.
            let mut slots = queue.rows[u]
                .lock()
                .expect("a unit's rows are locked once, by the worker that pulled it");
            let mut rows = UnitRows {
                slots: &mut slots,
                filled: 0,
            };
            let ran = self.run_unit(ctx, members, &mut rows, scratch, &mut out);
            if let Err(e) = ran.and_then(|()| rows.check_full()) {
                out.failure.get_or_insert((u, e));
            }
        }
    }

    /// One unit's epoch. Contention mode co-simulates the link group's
    /// agents on the event kernel; independent mode lets each agent play
    /// its sessions start to finish over private traces, one user after
    /// another.
    fn run_unit(
        &self,
        ctx: EpochCtx<'_>,
        members: &[u32],
        rows: &mut UnitRows<'_>,
        scratch: &mut ContentionScratch,
        out: &mut WorkerOutput,
    ) -> Result<()> {
        if self.config.contention.is_some() {
            return crate::contention::run_link_epoch(self, ctx, members, scratch, rows, out);
        }
        for &i in members {
            let agent = LinkAgent::new(self, ctx, &ctx.cohort[i as usize], self.config.player)?;
            rows.push(agent.run_private(ctx.cache, &mut out.sketches, scratch)?);
        }
        Ok(())
    }

    /// Stage 5 — merge (the epoch barrier): fail on the lowest failing
    /// unit, else fold the workers' sketches and solver counters (exact
    /// in any grouping and order) and the per-user accumulators, in
    /// user-id order, into the epoch's metrics and the run's counters.
    fn merge(
        &self,
        progress: &mut FleetCheckpoint,
        epoch: usize,
        output: EpochOutput,
        dispatch: Option<DispatchEpoch>,
    ) -> Result<EpochMetrics> {
        let EpochOutput { mut rows, workers } = output;
        let failures = workers.iter().filter_map(|w| w.failure.as_ref());
        if let Some((_, e)) = failures.min_by_key(|(u, _)| *u) {
            return Err(e.clone());
        }
        let mut sketches = EpochSketches::new();
        let mut solver = SolverStats::default();
        for worker in &workers {
            sketches.merge(&worker.sketches);
            solver.merge(&worker.solver);
        }
        // Contention units finish users out of id order; independent rows
        // arrive sorted, which the stable sort passes in one linear scan.
        // No slot is empty: every unit that ran without failing filled
        // its slice.
        rows.sort_by_key(|r| r.as_ref().map(|r| r.user_id));

        let ab_mode = self.config.ab.is_some();
        let n_classes = self
            .config
            .dynamics
            .as_ref()
            .map_or(0, |d| d.registry.users.len());
        let mut all = DayAccum::new();
        let mut control = DayAccum::new();
        let mut treatment = DayAccum::new();
        let mut classes = vec![DayAccum::new(); n_classes];
        for row in rows.iter().flatten() {
            progress.sessions += row.day.sessions();
            progress.segments += row.day.segments();
            all.merge(&row.day);
            if ab_mode {
                if row.user_id % 2 == 0 {
                    control.merge(&row.day);
                } else {
                    treatment.merge(&row.day);
                }
            }
            if let Some(acc) = row.class.and_then(|c| classes.get_mut(c as usize)) {
                acc.merge(&row.day);
            }
        }
        Ok(EpochMetrics {
            epoch,
            all: all.metrics(),
            control: ab_mode.then(|| control.metrics()),
            treatment: ab_mode.then(|| treatment.metrics()),
            classes: classes.iter().map(DayAccum::metrics).collect(),
            sketches,
            flushed: 0, // set by the flush stage
            dispatch,
            solver: (solver.calls > 0).then_some(solver),
        })
    }

    /// Stage 6 — flush/checkpoint: flush the write-behind cache, which
    /// makes every state durable, and record the epoch. Then, when the
    /// caller asks to `suspend` or the periodic cadence is due — never
    /// after the last epoch — compact the backend and write the manifest.
    /// Returns whether the run suspends here.
    fn flush_and_checkpoint(
        &self,
        run: &mut RunState,
        mut metrics: EpochMetrics,
        suspend: bool,
    ) -> Result<bool> {
        metrics.flushed = run.cache.flush().map_err(sub)?;
        let done = metrics.epoch + 1;
        run.progress.epochs.push(metrics);
        run.progress.next_epoch = done;

        let more_to_run = done < self.config.epochs;
        let every = self.config.checkpoint_every;
        let periodic = every > 0 && done.is_multiple_of(every);
        if !(more_to_run && (suspend || periodic)) {
            return Ok(false);
        }
        run.backend.checkpoint().map_err(sub)?;
        run.progress.elapsed_s = (run.prior_elapsed + run.start.elapsed()).as_secs_f64();
        run.progress.save(&self.config.state_dir)?;
        Ok(suspend)
    }

    /// After the last epoch: drop the manifest and assemble the report.
    fn finish(&self, run: RunState) -> Result<FleetReport> {
        let elapsed = run.prior_elapsed + run.start.elapsed();
        // A completed run leaves no manifest behind: a later `resume`
        // must not silently replay a finished run's tail.
        FleetCheckpoint::remove(&self.config.state_dir)?;
        let progress = run.progress;

        // Population-scale DiD over the per-epoch cohort metrics.
        let did = match &self.config.ab {
            Some(ab) => Some(
                did_report(
                    ab.schedule(self.config.epochs)?,
                    progress.epochs.iter().filter_map(|e| e.control).collect(),
                    progress.epochs.iter().filter_map(|e| e.treatment).collect(),
                )
                .map_err(sub)?,
            ),
            None => None,
        };
        Ok(FleetReport {
            scenario: progress.scenario,
            shards: self.config.shards,
            users: progress.users_total,
            class_names: self
                .config
                .dynamics
                .as_ref()
                .map(|d| d.registry.users.iter().map(|c| c.name.clone()).collect())
                .unwrap_or_default(),
            epochs: progress.epochs,
            sessions: progress.sessions,
            segments: progress.segments,
            elapsed,
            cache: run.cache.stats(),
            state_warnings: run.state_warnings,
            did,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{AbSplit, AbrMix, ContentionConfig, PopulationDynamics};
    use crate::harness::{Cell, ScratchDir};
    use lingxi_workload::{ArrivalKind, ClassRegistry, Poisson};

    fn small_scenario() -> FleetScenario {
        FleetScenario {
            name: "small".into(),
            n_users: 24,
            n_videos: 8,
            mean_sessions_per_epoch: 2.0,
            ..FleetScenario::default()
        }
    }

    #[test]
    fn merged_metrics_identical_across_shard_counts() {
        let cell = Cell {
            config: FleetConfig {
                epochs: 2,
                seed: 7,
                ..FleetConfig::default()
            },
            scenario: small_scenario(),
        };
        let one = cell.run(1).unwrap();
        let four = cell.run(4).unwrap();
        assert_eq!(one.first_divergence(&four), None);
        assert!(one.sessions >= 24, "every user plays >= 1 session");
        // Sketches saw every session.
        assert_eq!(
            one.epochs
                .iter()
                .map(|e| e.sketches.stall.count())
                .sum::<u64>(),
            one.sessions as u64
        );
    }

    #[test]
    fn ab_mode_produces_population_did() {
        let cell = Cell {
            config: FleetConfig {
                epochs: 4,
                seed: 11,
                ab: Some(AbSplit {
                    intervention_epoch: 2,
                }),
                ..FleetConfig::default()
            },
            scenario: FleetScenario {
                abr_mix: AbrMix::all_hyb(),
                ..small_scenario()
            },
        };
        let report = cell.run(3).unwrap();
        let did = report.did.expect("A/B mode reports DiD");
        assert_eq!(did.watch_time.daily_rel_diff_pct.len(), 4);
        assert!(did.watch_time.did.effect.is_finite());
        for e in &report.epochs {
            let c = e.control.unwrap();
            let t = e.treatment.unwrap();
            assert!(c.sessions > 0 && t.sessions > 0);
        }
    }

    /// A stall-heavy all-HYB cell: every user is managed, optimizes and
    /// persists state.
    fn managed_cell() -> Cell {
        Cell {
            config: FleetConfig {
                epochs: 1,
                seed: 3,
                ..FleetConfig::default()
            },
            scenario: FleetScenario {
                abr_mix: AbrMix::all_hyb(),
                mixture: lingxi_net::ProductionMixture {
                    p_constrained: 0.6,
                    p_cellular: 0.3,
                    p_wifi: 0.1,
                },
                ..small_scenario()
            },
        }
    }

    fn persisted_ids(dir: &std::path::Path) -> Vec<u64> {
        let log = BinaryStateLog::open(dir, lingxi_core::BinLogConfig::default()).unwrap();
        log.scan().unwrap().ids
    }

    #[test]
    fn state_persists_and_warm_starts_across_runs() {
        let dir = ScratchDir::claim();
        let cell = managed_cell();
        let first = cell.complete_in(dir.path(), 2).unwrap();
        assert!(first.state_warnings.is_empty());
        assert_eq!(
            persisted_ids(dir.path()).len(),
            24,
            "write-behind flushed all"
        );
        // Tear the tail of one shard log (a crash mid-append): the second
        // run warm-starts from disk and surfaces the truncation.
        let torn = std::fs::read_dir(dir.path())
            .unwrap()
            .map(|e| e.unwrap().path())
            .filter(|p| p.extension().is_some_and(|x| x == "log"))
            .find(|p| std::fs::metadata(p).unwrap().len() > 0)
            .expect("a shard log holds frames");
        let mut bytes = std::fs::read(&torn).unwrap();
        bytes.extend_from_slice(&[0xAB; 7]);
        std::fs::write(&torn, bytes).unwrap();
        let second = cell.complete_in(dir.path(), 2).unwrap();
        assert_eq!(
            second.state_warnings.len(),
            1,
            "{:?}",
            second.state_warnings
        );
        let shard = torn.file_name().unwrap().to_string_lossy().into_owned();
        assert!(second.state_warnings[0].contains(&shard));
        assert!(second.cache.misses > 0, "warm start loads from the log");
    }

    #[test]
    fn legacy_json_state_dir_is_refused_not_silently_reset() {
        let dir = ScratchDir::claim();
        std::fs::create_dir_all(dir.path()).unwrap();
        std::fs::write(dir.path().join("user_5.json"), "{}").unwrap();
        let err = managed_cell().complete_in(dir.path(), 2).unwrap_err();
        assert!(
            err.to_string()
                .contains("holds \"user_5.json\" but no manifest.json"),
            "{err}"
        );
        assert!(
            !dir.path().join("manifest.json").exists(),
            "refusal must not initialise a log over the JSON state"
        );
    }

    #[test]
    fn abr_mix_runs_unmanaged_policies() {
        let cell = Cell {
            config: FleetConfig {
                epochs: 1,
                seed: 5,
                ..FleetConfig::default()
            },
            scenario: FleetScenario {
                // No HYB users at all: nothing is managed, no state persists.
                abr_mix: AbrMix {
                    p_hyb: 0.0,
                    p_throughput: 0.5,
                },
                ..small_scenario()
            },
        };
        let dir = ScratchDir::claim();
        let report = cell.complete_in(dir.path(), 2).unwrap();
        assert!(report.sessions > 0);
        assert!(persisted_ids(dir.path()).is_empty());
    }

    #[test]
    fn dynamics_requires_contention() {
        let config = FleetConfig {
            dynamics: Some(PopulationDynamics {
                arrivals: ArrivalKind::Poisson(Poisson { rate_per_sec: 0.1 }),
                registry: ClassRegistry::default_heterogeneous(),
                day_seconds: 600.0,
            }),
            ..FleetConfig::default()
        };
        assert!(FleetEngine::new(config).is_err());
    }

    /// A cohort of `sizes.iter().sum()` users, ids ascending, placed on
    /// links round-robin over the links that still need users, so no
    /// link's members are consecutive ids.
    fn placed_cohort(sizes: &[(u64, usize)]) -> Vec<EpochUser> {
        let registry = ClassRegistry::default_heterogeneous();
        let mut left: Vec<(u64, usize)> = sizes.to_vec();
        let mut cohort = Vec::new();
        while left.iter().any(|&(_, n)| n > 0) {
            for (link, n) in left.iter_mut().filter(|(_, n)| *n > 0) {
                let id = cohort.len() as u64 * 3 + 1;
                cohort.push(EpochUser {
                    record: registry.users[0].sample_user(5, id),
                    arrival: None,
                    class: None,
                    link: *link,
                });
                *n -= 1;
            }
        }
        cohort
    }

    fn contention_config(links: usize) -> FleetConfig {
        FleetConfig {
            contention: Some(ContentionConfig {
                links,
                capacity_kbps: 20_000.0,
                arrival_window: 10.0,
                access_cap_factor: 1.5,
            }),
            ..FleetConfig::default()
        }
    }

    fn planned(config: &FleetConfig, shards: usize, cohort: &[EpochUser]) -> WorkList {
        let engine = FleetEngine::new(FleetConfig {
            shards,
            ..config.clone()
        })
        .unwrap();
        let mut work = WorkList::default();
        engine.plan(&mut work, cohort);
        work
    }

    /// Every cohort index lies in exactly one unit.
    fn assert_partition(work: &WorkList, n: usize) {
        let mut all: Vec<u32> = work.units().flatten().copied().collect();
        all.sort_unstable();
        assert_eq!(all, (0..n as u32).collect::<Vec<_>>());
    }

    #[test]
    fn contention_units_are_whole_link_groups_largest_first() {
        // Three-way tie at 40 users (links 2, 3, 9), links 1, 4, 6 and 8
        // empty.
        let sizes = [(9, 40), (2, 40), (5, 70), (0, 10), (3, 40), (7, 1)];
        let cohort = placed_cohort(&sizes);
        let config = contention_config(10);
        let work = planned(&config, 1, &cohort);
        assert_partition(&work, cohort.len());
        let shape: Vec<(u64, usize)> = work
            .units()
            .map(|unit| (cohort[unit[0] as usize].link, unit.len()))
            .collect();
        assert_eq!(
            shape,
            [(5, 70), (2, 40), (3, 40), (9, 40), (0, 10), (7, 1)],
            "size descending, ties by ascending link id, no empty unit"
        );
        for unit in work.units() {
            let link = cohort[unit[0] as usize].link;
            let mut expected: Vec<u64> = cohort
                .iter()
                .filter(|u| u.link == link)
                .map(|u| u.record.id)
                .collect();
            expected.sort_unstable();
            let ids: Vec<u64> = unit.iter().map(|&i| cohort[i as usize].record.id).collect();
            assert_eq!(ids, expected, "link {link}: all its members, ascending id");
        }
        for shards in [2, 3, 8, 64] {
            assert_eq!(planned(&config, shards, &cohort), work, "{shards} shards");
        }
    }

    #[test]
    fn independent_units_are_fixed_size_chunks() {
        let cohort = placed_cohort(&[(0, 2 * UNIT_USERS + 9)]);
        let config = FleetConfig::default();
        let work = planned(&config, 1, &cohort);
        assert_partition(&work, cohort.len());
        let mut next = 0u32;
        for (u, unit) in work.units().enumerate() {
            let expected = if u + 1 < work.len() { UNIT_USERS } else { 9 };
            assert_eq!(unit.len(), expected, "unit {u}");
            assert_eq!(unit, (next..next + unit.len() as u32).collect::<Vec<_>>());
            next += unit.len() as u32;
        }
        for shards in [2, 3, 8, 64] {
            assert_eq!(planned(&config, shards, &cohort), work, "{shards} shards");
        }
        assert_eq!(planned(&config, 4, &[]).len(), 0, "no users, no units");
    }

    /// Epoch 0 of `cell` at `shards` through stage 4, before the barrier:
    /// the cohort size, the worker count and the stage's output.
    fn epoch_zero(cell: &Cell, shards: usize) -> (usize, usize, EpochOutput) {
        let dir = ScratchDir::claim();
        let engine = FleetEngine::new(FleetConfig {
            shards,
            state_dir: dir.path().to_path_buf(),
            ..cell.config.clone()
        })
        .unwrap();
        let mut run = engine.begin_run(&cell.scenario, false).unwrap();
        engine.populate(&mut run, 0);
        engine.dispatch(&mut run, 0);
        engine.plan(&mut run.work, &run.cohort);
        let output = engine.run_workers(&mut run, 0).unwrap();
        (run.cohort.len(), run.scratches.len(), output)
    }

    /// Workers that pull no unit hand over empty sketches and counters,
    /// and no row: the row buffer holds exactly one row per cohort user.
    fn assert_idle_workers_are_empty(cell: &Cell, shards: usize, max_busy: usize) {
        let (users, workers, output) = epoch_zero(cell, shards);
        assert_eq!(output.workers.len(), workers);
        assert_eq!(output.rows.len(), users);
        assert!(output.rows.iter().all(Option::is_some), "every slot filled");
        let busy = output
            .workers
            .iter()
            .filter(|w| w.sketches.stall.count() > 0)
            .count();
        assert!(busy <= max_busy, "{busy} workers played sessions");
        for w in &output.workers {
            assert!(w.failure.is_none());
            if w.sketches.stall.count() == 0 {
                assert_eq!(w.sketches, EpochSketches::new());
                assert_eq!(w.solver, SolverStats::default());
            }
        }
    }

    #[test]
    fn more_workers_than_units_match_one_shard() {
        let cell = Cell {
            config: FleetConfig {
                epochs: 2,
                seed: 9,
                ..contention_config(2)
            },
            scenario: small_scenario(),
        };
        let one = cell.run(1).unwrap();
        assert_eq!(one.first_divergence(&cell.run(8).unwrap()), None);
        assert!(one.sessions >= 24);
        assert_idle_workers_are_empty(&cell, 8, 2);
    }

    #[test]
    fn an_epoch_without_arrivals_matches_one_shard() {
        let cell = Cell {
            config: FleetConfig {
                epochs: 2,
                seed: 9,
                dynamics: Some(PopulationDynamics {
                    arrivals: ArrivalKind::Poisson(Poisson { rate_per_sec: 0.0 }),
                    registry: ClassRegistry::default_heterogeneous(),
                    day_seconds: 600.0,
                }),
                ..contention_config(4)
            },
            scenario: small_scenario(),
        };
        let one = cell.run(1).unwrap();
        assert_eq!(one.first_divergence(&cell.run(8).unwrap()), None);
        assert_eq!((one.users, one.sessions), (0, 0));
        assert_eq!(one.epochs.len(), 2);
        for e in &one.epochs {
            assert_eq!(e.sketches, EpochSketches::new());
            assert_eq!(e.dispatch.as_ref().unwrap().placements, [0; 4]);
        }
        assert_idle_workers_are_empty(&cell, 8, 0);
    }

    /// (Shard invariance and kill/resume of a dynamic cohort are a row of
    /// `tests/contract.rs`.)
    #[test]
    fn dynamic_population_reports_per_class_metrics() {
        let cell = Cell {
            config: FleetConfig {
                epochs: 2,
                seed: 13,
                contention: Some(ContentionConfig {
                    links: 4,
                    capacity_kbps: 25_000.0,
                    arrival_window: 10.0,
                    access_cap_factor: 1.5,
                }),
                dynamics: Some(PopulationDynamics {
                    arrivals: ArrivalKind::Poisson(Poisson { rate_per_sec: 0.05 }),
                    registry: ClassRegistry::default_heterogeneous(),
                    day_seconds: 600.0,
                }),
                ..FleetConfig::default()
            },
            scenario: small_scenario(),
        };
        let report = cell.run(1).unwrap();
        assert!(
            report.users > 0,
            "Poisson(0.05/s × 600s × 2 epochs) arrivals"
        );
        assert_eq!(report.class_names, vec!["mobile", "desktop", "tv"]);
        for e in &report.epochs {
            assert_eq!(e.classes.len(), 3);
            let class_sessions: usize = e.classes.iter().map(|c| c.sessions).sum();
            assert_eq!(class_sessions, e.all.sessions, "classes partition the day");
        }
    }
}
