//! The sharded fleet engine: one epoch pipeline — populate → dispatch →
//! partition → run shards → merge → flush/checkpoint — over shard
//! workers, with a deterministic streaming metric merge at the barrier.
//!
//! Determinism model: every (user, epoch) derives its own RNG stream from
//! the base seed alone — never from the shard id or thread schedule — and
//! a user's long-term state is only ever touched by the worker that owns
//! the user in that epoch. Any partition of users over shards therefore
//! computes identical per-user results. Metrics are held as bounded-memory
//! streaming accumulators: one [`lingxi_abtest::DayAccum`] per user
//! (sessions folded in play order) merged at the epoch barrier in
//! ascending user-id order, plus integer-binned
//! [`crate::report::EpochSketches`] whose merge is exactly
//! order-independent — so merged metrics are bit-identical for any shard
//! count without ever materialising per-session records.
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

use std::sync::Arc;
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
    /// written by the dispatch stage; shard ownership follows it.
    /// Unused in independent mode (there are no links).
    pub(crate) link: u64,
}

/// One user's epoch, reduced to bounded-memory accumulators by the shard
/// worker that owned the user.
pub(crate) struct UserEpochRow {
    pub(crate) user_id: u64,
    pub(crate) class: Option<u16>,
    pub(crate) day: DayAccum,
}

/// Everything one shard worker hands to the epoch barrier.
pub(crate) struct ShardEpochOutput {
    pub(crate) rows: Vec<UserEpochRow>,
    pub(crate) sketches: EpochSketches,
    /// Dual-solver counters summed over the shard's link groups.
    pub(crate) solver: SolverStats,
}

/// What every shard worker reads during one epoch.
#[derive(Clone, Copy)]
pub(crate) struct EpochCtx<'a> {
    pub(crate) epoch: usize,
    pub(crate) scenario: &'a FleetScenario,
    pub(crate) catalog: &'a Catalog,
    pub(crate) cache: &'a ShardedStateCache,
    /// The whole epoch cohort; shards index into it.
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
    /// Per-shard indices into `cohort`, refilled by the partition stage.
    shard_members: Vec<Vec<u32>>,
    /// One contention scratch per shard, reused across every epoch so the
    /// contended hot path allocates nothing in steady state.
    scratches: Vec<ContentionScratch>,
    /// Run the shards one after another on the calling thread: set for
    /// one shard, and on a single-core host, where worker threads would
    /// only time-slice each other. Shards are independent within an epoch
    /// and the barrier folds their outputs in shard order, so both ways
    /// produce the same results.
    inline: bool,
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
            self.partition(&mut run);
            let outputs = self.run_shards(&mut run, epoch)?;
            let metrics = self.merge(&mut run.progress, epoch, outputs, placed);
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

        Ok(RunState {
            scenario,
            catalog,
            backend,
            cache,
            state_warnings,
            cohort,
            placement,
            shard_members: vec![Vec::new(); self.config.shards],
            scratches: (0..self.config.shards)
                .map(|_| ContentionScratch::default())
                .collect(),
            inline: self.config.shards == 1
                || std::thread::available_parallelism().is_ok_and(|n| n.get() == 1),
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

    /// Stage 3 — partition: hand each shard the cohort indices it owns
    /// (ascending id per shard). Independent mode hashes the user; in
    /// contention mode ownership follows the user's *link*, so every
    /// link's co-simulation stays whole on one shard and the shard-count
    /// invariance survives contention — under any dispatch policy, since
    /// placement never consults the shard count. Redone every epoch
    /// because placements may move at every barrier.
    fn partition(&self, run: &mut RunState) {
        for members in &mut run.shard_members {
            members.clear();
        }
        for (i, user) in run.cohort.iter().enumerate() {
            let key = match &self.config.contention {
                Some(_) => user.link,
                None => user.record.id,
            };
            let shard = (mix64(key) % self.config.shards as u64) as usize;
            run.shard_members[shard].push(i as u32);
        }
    }

    /// Stage 4 — run shards: one worker per shard, inline or on scoped
    /// threads (see `RunState::inline`). Outputs come back in shard order.
    fn run_shards(&self, run: &mut RunState, epoch: usize) -> Result<Vec<ShardEpochOutput>> {
        let ctx = EpochCtx {
            epoch,
            scenario: run.scenario,
            catalog: &run.catalog,
            cache: &run.cache,
            cohort: &run.cohort,
        };
        let shards = run.shard_members.iter().zip(run.scratches.iter_mut());
        if run.inline {
            return shards
                .map(|(members, scratch)| self.run_shard_epoch(ctx, members, scratch))
                .collect();
        }
        std::thread::scope(|scope| {
            let handles: Vec<_> = shards
                .map(|(members, scratch)| {
                    scope.spawn(move || self.run_shard_epoch(ctx, members, scratch))
                })
                .collect();
            handles
                .into_iter()
                .map(|h| {
                    h.join().unwrap_or_else(|p| {
                        Err(FleetError::WorkerPanic(
                            p.downcast_ref::<String>()
                                .cloned()
                                .or_else(|| p.downcast_ref::<&str>().map(|s| s.to_string()))
                                .unwrap_or_else(|| "unknown panic".into()),
                        ))
                    })
                })
                .collect()
        })
    }

    /// Stage 5 — merge (the epoch barrier): fold per-user accumulators in
    /// user-id order (sketch merges are exactly order-independent) into
    /// the epoch's metrics and the run's counters.
    fn merge(
        &self,
        progress: &mut FleetCheckpoint,
        epoch: usize,
        outputs: Vec<ShardEpochOutput>,
        dispatch: Option<DispatchEpoch>,
    ) -> EpochMetrics {
        let mut rows: Vec<UserEpochRow> = Vec::new();
        let mut sketches = EpochSketches::new();
        let mut solver = SolverStats::default();
        for output in outputs {
            sketches.merge(&output.sketches);
            solver.merge(&output.solver);
            rows.extend(output.rows);
        }
        rows.sort_by_key(|r| r.user_id);

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
        for row in &rows {
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
        EpochMetrics {
            epoch,
            all: all.metrics(),
            control: ab_mode.then(|| control.metrics()),
            treatment: ab_mode.then(|| treatment.metrics()),
            classes: classes.iter().map(DayAccum::metrics).collect(),
            sketches,
            flushed: 0, // set by the flush stage
            dispatch,
            solver: (solver.calls > 0).then_some(solver),
        }
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

    /// One shard worker's epoch: run every owned user's agent. Contention
    /// mode co-simulates each owned link's agents on the event kernel;
    /// independent mode lets each agent play its sessions start to finish
    /// over private traces, one user after another.
    fn run_shard_epoch(
        &self,
        ctx: EpochCtx<'_>,
        members: &[u32],
        scratch: &mut ContentionScratch,
    ) -> Result<ShardEpochOutput> {
        let mut out = ShardEpochOutput {
            rows: Vec::with_capacity(members.len()),
            sketches: EpochSketches::new(),
            solver: SolverStats::default(),
        };
        if self.config.contention.is_some() {
            crate::contention::run_shard_epoch_contended(self, ctx, members, scratch, &mut out)?;
            return Ok(out);
        }
        for &i in members {
            let agent = LinkAgent::new(self, ctx, &ctx.cohort[i as usize], self.config.player)?;
            out.rows
                .push(agent.run_private(ctx.cache, &mut out.sketches)?);
        }
        Ok(out)
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
