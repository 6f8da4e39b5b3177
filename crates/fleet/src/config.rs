//! Fleet configuration: engine sizing and the scenario matrix axes
//! (population mix × trace mix × ABR mix).

use std::path::PathBuf;

use lingxi_abr::{Abr, Bola, Hyb, ThroughputRule};
use lingxi_abtest::{AbError, AbSchedule};
use lingxi_core::{BinLogConfig, CacheConfig, LingXiConfig};
use lingxi_net::{FairnessObjective, ProductionMixture, Topology};
use lingxi_player::PlayerConfig;
use lingxi_workload::{ArrivalKind, ArrivalProcess, ClassRegistry};

use crate::dispatch::DispatchConfig;
use crate::{mix64, FleetError, Result};

/// A/B mode: split the population into control/treatment cohorts by user-id
/// parity and intervene (enable LingXi management) on the treatment cohort
/// from `intervention_epoch` on. Per-epoch cohort metrics then feed the
/// difference-in-differences pipeline of `lingxi-abtest` at population
/// scale.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AbSplit {
    /// First epoch (0-based) on which the treatment cohort is managed;
    /// earlier epochs form the AA phase. The DiD t-test needs ≥ 2 epochs
    /// on each side.
    pub intervention_epoch: usize,
}

impl AbSplit {
    /// The DiD schedule of an `epochs`-long run, one day per epoch —
    /// valid, or the reason it is not ([`AbSchedule::validate`] owns the
    /// rule). Config validation and the final report both come here.
    pub fn schedule(&self, epochs: usize) -> Result<AbSchedule> {
        let schedule = AbSchedule {
            days: epochs,
            intervention_day: self.intervention_epoch,
        };
        match schedule.validate() {
            Ok(()) => Ok(schedule),
            Err(AbError::InvalidConfig(why) | AbError::Stats(why)) => {
                Err(FleetError::InvalidConfig(format!("A/B mode: {why}")))
            }
        }
    }
}

/// Which ABR a user runs. Only HYB is LingXi-managed (its β is the knob
/// the §5.3 deployment tunes); the rate- and buffer-based baselines run
/// plain, which keeps the fleet workload heterogeneous like production.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AbrPolicy {
    /// HYB under LingXi management.
    Hyb,
    /// Rate-based baseline (FESTIVE/PANDA family).
    Throughput,
    /// BOLA (Lyapunov buffer control).
    Bola,
}

impl AbrPolicy {
    /// Instantiate the algorithm.
    pub fn build(&self) -> Box<dyn Abr> {
        match self {
            AbrPolicy::Hyb => Box::new(Hyb::default_rule()),
            AbrPolicy::Throughput => Box::new(ThroughputRule::default_rule()),
            AbrPolicy::Bola => Box::new(Bola::default_rule()),
        }
    }

    /// Whether LingXi manages this policy's parameters.
    pub fn managed(&self) -> bool {
        matches!(self, AbrPolicy::Hyb)
    }

    /// The controller configuration used when managed.
    pub fn lingxi_config(&self) -> LingXiConfig {
        LingXiConfig::for_hyb()
    }
}

/// The ABR-mix axis of the scenario matrix: deterministic per-user policy
/// assignment by hashed user id, so the mix is shard-count invariant.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AbrMix {
    /// Fraction of users on LingXi-managed HYB.
    pub p_hyb: f64,
    /// Fraction on the throughput rule; the remainder runs BOLA.
    pub p_throughput: f64,
}

impl Default for AbrMix {
    fn default() -> Self {
        Self {
            p_hyb: 0.6,
            p_throughput: 0.25,
        }
    }
}

impl AbrMix {
    /// Everyone on LingXi-managed HYB (the A/B scenario).
    pub fn all_hyb() -> Self {
        Self {
            p_hyb: 1.0,
            p_throughput: 0.0,
        }
    }

    /// Validate the mix weights.
    pub fn validate(&self) -> Result<()> {
        let ok = (0.0..=1.0).contains(&self.p_hyb)
            && (0.0..=1.0).contains(&self.p_throughput)
            && self.p_hyb + self.p_throughput <= 1.0 + 1e-12;
        if !ok {
            return Err(FleetError::InvalidConfig(
                "ABR mix weights must be in [0,1] and sum to at most 1".into(),
            ));
        }
        Ok(())
    }

    /// The policy a given user runs (stable under any shard count).
    pub fn policy_for(&self, user_id: u64) -> AbrPolicy {
        let u = (mix64(user_id ^ 0xAB12_34CD_56EF_7890) >> 11) as f64 / (1u64 << 53) as f64;
        if u < self.p_hyb {
            AbrPolicy::Hyb
        } else if u < self.p_hyb + self.p_throughput {
            AbrPolicy::Throughput
        } else {
            AbrPolicy::Bola
        }
    }
}

/// Shared-bottleneck contention mode: instead of a private trace per
/// session, users are placed onto a fixed set of shared links
/// ([`lingxi_net::SharedBottleneck`]) and their concurrent downloads split
/// each link's capacity max-min fair.
///
/// Determinism: placement is a pure function of (seed, user id, epoch,
/// barrier snapshot) — see [`crate::dispatch`] — and in contention mode a
/// link group is one unit of the epoch's work list, and a unit is never
/// split, so every link's event-driven co-simulation runs single-threaded
/// on one worker with an event order derived from (seed, link members,
/// epoch) alone — merged metrics stay bit-identical for any shard count.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ContentionConfig {
    /// Number of shared bottleneck links users are placed on.
    pub links: usize,
    /// Capacity of each link (kbps).
    pub capacity_kbps: f64,
    /// Users' first sessions of an epoch arrive uniformly in
    /// `[0, arrival_window)` seconds (the flash-crowd ramp).
    pub arrival_window: f64,
    /// Per-flow access-link cap as a multiple of the user's mean
    /// bandwidth; `0.0` disables the cap (flows limited only by the
    /// shared link).
    pub access_cap_factor: f64,
}

impl Default for ContentionConfig {
    fn default() -> Self {
        Self {
            links: 64,
            capacity_kbps: 25_000.0,
            arrival_window: 30.0,
            access_cap_factor: 1.5,
        }
    }
}

impl ContentionConfig {
    /// Validate the configuration.
    pub fn validate(&self) -> Result<()> {
        if self.links == 0 {
            return Err(FleetError::InvalidConfig("need at least one link".into()));
        }
        if !(self.capacity_kbps > 0.0) || !self.capacity_kbps.is_finite() {
            return Err(FleetError::InvalidConfig(
                "link capacity must be positive and finite".into(),
            ));
        }
        if !(self.arrival_window >= 0.0) || !self.arrival_window.is_finite() {
            return Err(FleetError::InvalidConfig(
                "arrival window must be non-negative and finite".into(),
            ));
        }
        if !(self.access_cap_factor >= 0.0) {
            return Err(FleetError::InvalidConfig(
                "access cap factor must be non-negative".into(),
            ));
        }
        Ok(())
    }

    /// The access-link rate cap for one user's flows (kbps);
    /// `f64::INFINITY` when uncapped.
    pub fn flow_cap_kbps(&self, user_mean_kbps: f64) -> f64 {
        if self.access_cap_factor > 0.0 {
            user_mean_kbps * self.access_cap_factor
        } else {
            f64::INFINITY
        }
    }
}

/// Fairness/topology mode for the contention kernel: each link group
/// becomes an instance of a multi-hop [`Topology`] template, flows hash
/// onto its routes, and capacity splits under a configurable
/// [`FairnessObjective`] instead of the implicit single-link max-min.
/// Session RTT and jitter stop being constants: they become the per-path
/// Kleinrock-composed delay under the group's static offered load.
///
/// Determinism: a user's route depends only on (seed, user id); the
/// α-fair allocator is a fixed-budget deterministic iteration (see
/// `lingxi_net::fairness`); and a pod instance is one unit of the work
/// list, never split, so one worker runs *all* links of a path group and
/// merged metrics keep the bit-identical shard-invariance contract.
#[derive(Debug, Clone, PartialEq)]
pub struct FairnessConfig {
    /// How each group's links split capacity among concurrent flows.
    pub objective: FairnessObjective,
    /// Topology template instantiated per link group. In dynamics mode
    /// its capacities scale by `link class capacity / contention
    /// capacity`, preserving link heterogeneity.
    pub topology: Topology,
}

impl FairnessConfig {
    /// Validate the configuration (topologies are valid by construction).
    pub fn validate(&self) -> Result<()> {
        self.objective.validate().map_err(crate::sub)
    }
}

/// Population-dynamics mode: instead of a fixed cohort that all plays
/// every epoch, users *arrive* according to an [`ArrivalKind`] schedule,
/// belong to heterogeneous [`ClassRegistry`] classes (device/access caps,
/// patience, per-class bandwidth mixture), join their shared link live
/// mid-simulation, and depart when their session budget drains — freeing
/// link capacity behind them.
///
/// Requires contention mode: arrivals and departures only have meaning on
/// shared links. Each epoch is one simulated "day" of `day_seconds`; the
/// arrival schedule, every dynamic user's record, and the per-link
/// capacities are pure functions of `(seed, epoch, id)`, so merged
/// metrics keep the engine's shard-count-invariance contract.
#[derive(Debug, Clone, PartialEq)]
pub struct PopulationDynamics {
    /// The arrival schedule generator.
    pub arrivals: ArrivalKind,
    /// User/link heterogeneity classes.
    pub registry: ClassRegistry,
    /// Length of one epoch's arrival horizon (a simulated day, seconds).
    pub day_seconds: f64,
}

impl PopulationDynamics {
    /// Validate the dynamics configuration.
    pub fn validate(&self) -> Result<()> {
        self.arrivals.validate().map_err(crate::sub)?;
        self.registry.validate().map_err(crate::sub)?;
        // A replayed schedule must reference classes this registry
        // actually has — catching it here beats silently folding the
        // index into the wrong class at event time.
        if let ArrivalKind::Replay(replay) = &self.arrivals {
            let n_classes = self.registry.users.len() as u16;
            if let Some(bad) = replay.schedule.iter().find(|e| e.class >= n_classes) {
                return Err(FleetError::InvalidConfig(format!(
                    "Replay schedule references class {} but the registry has only {} user classes",
                    bad.class, n_classes
                )));
            }
        }
        if !(self.day_seconds > 0.0) || !self.day_seconds.is_finite() {
            return Err(FleetError::InvalidConfig(
                "day_seconds must be positive and finite".into(),
            ));
        }
        Ok(())
    }
}

/// Which durable [`lingxi_core::StateBackend`] persists long-term user
/// state under [`FleetConfig::state_dir`]. The fleet has one backend; the
/// enum is how a caller names it and carries its sizing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PersistenceConfig {
    /// Sharded append-only binary log with compacting snapshots
    /// ([`lingxi_core::BinaryStateLog`]): a barrier flush is a handful of
    /// sequential appends however many users churned.
    BinaryLog(BinLogConfig),
}

impl Default for PersistenceConfig {
    fn default() -> Self {
        Self::binary_log()
    }
}

impl PersistenceConfig {
    /// The binary log with default sizing.
    pub fn binary_log() -> Self {
        PersistenceConfig::BinaryLog(BinLogConfig::default())
    }

    /// Validate the configuration.
    pub fn validate(&self) -> Result<()> {
        let PersistenceConfig::BinaryLog(cfg) = self;
        cfg.validate().map_err(crate::sub)
    }
}

/// Engine sizing and policy (scenario-independent).
#[derive(Debug, Clone, PartialEq)]
pub struct FleetConfig {
    /// Worker threads per epoch (a single-core host runs one, inline on
    /// the calling thread). It does not decide which worker runs which
    /// users: the workers pull whole units — link groups, or chunks of
    /// users — off one work list that does not depend on it, and neither
    /// do the results.
    pub shards: usize,
    /// Simulated days; state persists across epochs through the cache.
    pub epochs: usize,
    /// Base seed; every (user, epoch) derives its own stream, so results
    /// do not depend on the shard count.
    pub seed: u64,
    /// Directory backing the durable state backend. Reusing a log
    /// directory warm-starts users from persisted state (a production
    /// restart); use a fresh directory for reproducible runs. A directory
    /// that holds anything else and no log manifest fails the run
    /// ([`lingxi_core::BinaryStateLog::open`]).
    pub state_dir: PathBuf,
    /// Which durable backend lives in `state_dir`.
    pub persistence: PersistenceConfig,
    /// Checkpoint cadence: every `checkpoint_every` epochs the engine
    /// compacts the backend at the barrier and writes a resume manifest
    /// (`fleet_ckpt.json`) so a killed run restarts from the last barrier
    /// bit-identically. `0` disables periodic checkpoints (a suspended
    /// [`crate::engine::RunControl`] stop still writes one).
    pub checkpoint_every: usize,
    /// Sharded state-cache sizing.
    pub cache: CacheConfig,
    /// Player model configuration.
    pub player: PlayerConfig,
    /// A/B cohort mode; `None` runs the whole population as one cohort.
    pub ab: Option<AbSplit>,
    /// Shared-bottleneck contention mode; `None` streams every session
    /// over its own private trace (independent users).
    pub contention: Option<ContentionConfig>,
    /// Population-dynamics mode (arrivals/churn/heterogeneity); requires
    /// `contention`. `None` replays the fixed scenario cohort each epoch.
    pub dynamics: Option<PopulationDynamics>,
    /// Fairness/topology mode (multi-hop routes, α-fair sharing,
    /// emergent RTT); requires `contention`. `None` is the degenerate
    /// topology: one max-min link per group, constant RTT.
    pub fairness: Option<FairnessConfig>,
    /// Dispatch layer (user→link placement policy + heterogeneous link
    /// capacity weights); requires `contention`. `None` is the degenerate
    /// dispatcher: [`DispatchConfig::static_hash`].
    pub dispatch: Option<DispatchConfig>,
}

impl Default for FleetConfig {
    fn default() -> Self {
        Self {
            shards: 4,
            epochs: 2,
            seed: 42,
            state_dir: std::env::temp_dir().join("lingxi_fleet_state"),
            persistence: PersistenceConfig::default(),
            checkpoint_every: 0,
            cache: CacheConfig::default(),
            player: PlayerConfig::default(),
            ab: None,
            contention: None,
            dynamics: None,
            fairness: None,
            dispatch: None,
        }
    }
}

impl FleetConfig {
    /// Validate the configuration.
    pub fn validate(&self) -> Result<()> {
        if self.shards == 0 {
            return Err(FleetError::InvalidConfig("need at least one shard".into()));
        }
        if self.epochs == 0 {
            return Err(FleetError::InvalidConfig("need at least one epoch".into()));
        }
        self.persistence.validate()?;
        self.cache.validate().map_err(crate::sub)?;
        if let Some(contention) = &self.contention {
            contention.validate()?;
        }
        if let Some(dynamics) = &self.dynamics {
            if self.contention.is_none() {
                return Err(FleetError::InvalidConfig(
                    "population dynamics requires contention mode (arrivals join shared links)"
                        .into(),
                ));
            }
            dynamics.validate()?;
        }
        if let Some(fairness) = &self.fairness {
            if self.contention.is_none() {
                return Err(FleetError::InvalidConfig(
                    "fairness mode requires contention mode (routes live on shared links)".into(),
                ));
            }
            fairness.validate()?;
        }
        if let Some(dispatch) = &self.dispatch {
            let Some(contention) = &self.contention else {
                return Err(FleetError::InvalidConfig(
                    "dispatch layer requires contention mode (it places users on shared links)"
                        .into(),
                ));
            };
            dispatch.validate(contention.links, self.dynamics.is_some())?;
        }
        if let Some(ab) = &self.ab {
            ab.schedule(self.epochs)?;
        }
        Ok(())
    }
}

/// One cell of the scenario matrix: a population, its network (trace) mix
/// and its ABR mix.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetScenario {
    /// Scenario label for reports.
    pub name: String,
    /// Population size.
    pub n_users: usize,
    /// Catalog size.
    pub n_videos: usize,
    /// Mean sessions per user per epoch (engagement — the population-mix
    /// axis together with `n_users`).
    pub mean_sessions_per_epoch: f64,
    /// Bandwidth-population mixture (the trace-mix axis).
    pub mixture: ProductionMixture,
    /// ABR assignment mix.
    pub abr_mix: AbrMix,
}

impl Default for FleetScenario {
    fn default() -> Self {
        Self {
            name: "default".into(),
            n_users: 1000,
            n_videos: 40,
            mean_sessions_per_epoch: 4.0,
            mixture: ProductionMixture::default(),
            abr_mix: AbrMix::default(),
        }
    }
}

impl FleetScenario {
    /// Validate the scenario.
    pub fn validate(&self) -> Result<()> {
        if self.n_users == 0 || self.n_videos == 0 {
            return Err(FleetError::InvalidConfig(
                "need at least one user and one video".into(),
            ));
        }
        if !(self.mean_sessions_per_epoch > 0.0) {
            return Err(FleetError::InvalidConfig(
                "mean sessions per epoch must be positive".into(),
            ));
        }
        self.mixture.validate().map_err(crate::sub)?;
        self.abr_mix.validate()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn abr_mix_assignment_matches_weights() {
        let mix = AbrMix {
            p_hyb: 0.5,
            p_throughput: 0.3,
        };
        let n = 20_000u64;
        let mut counts = [0usize; 3];
        for id in 0..n {
            match mix.policy_for(id) {
                AbrPolicy::Hyb => counts[0] += 1,
                AbrPolicy::Throughput => counts[1] += 1,
                AbrPolicy::Bola => counts[2] += 1,
            }
        }
        let frac = |c: usize| c as f64 / n as f64;
        assert!((frac(counts[0]) - 0.5).abs() < 0.02, "{counts:?}");
        assert!((frac(counts[1]) - 0.3).abs() < 0.02, "{counts:?}");
        assert!((frac(counts[2]) - 0.2).abs() < 0.02, "{counts:?}");
        // Stable: same id, same policy.
        assert_eq!(mix.policy_for(123), mix.policy_for(123));
    }

    #[test]
    fn replay_dynamics_rejects_unknown_classes() {
        use lingxi_workload::{ArrivalEvent, ArrivalKind, ClassRegistry, Replay};
        let dynamics = |class: u16| PopulationDynamics {
            arrivals: ArrivalKind::Replay(Replay {
                schedule: vec![ArrivalEvent { at: 1.0, class }],
            }),
            registry: ClassRegistry::default_heterogeneous(), // 3 classes
            day_seconds: 600.0,
        };
        assert!(dynamics(2).validate().is_ok());
        assert!(dynamics(3).validate().is_err());
    }

    #[test]
    fn validation_rejects_bad_configs() {
        assert!(FleetConfig {
            shards: 0,
            ..FleetConfig::default()
        }
        .validate()
        .is_err());
        assert!(FleetConfig {
            epochs: 0,
            ..FleetConfig::default()
        }
        .validate()
        .is_err());
        // A/B phases too short.
        assert!(FleetConfig {
            epochs: 3,
            ab: Some(AbSplit {
                intervention_epoch: 2
            }),
            ..FleetConfig::default()
        }
        .validate()
        .is_err());
        assert!(FleetConfig {
            epochs: 4,
            ab: Some(AbSplit {
                intervention_epoch: 2
            }),
            ..FleetConfig::default()
        }
        .validate()
        .is_ok());
        assert!(FleetScenario {
            n_users: 0,
            ..FleetScenario::default()
        }
        .validate()
        .is_err());
        // Dispatch places users on shared links — meaningless without
        // contention mode.
        assert!(FleetConfig {
            dispatch: Some(DispatchConfig::lsq(2)),
            ..FleetConfig::default()
        }
        .validate()
        .is_err());
        assert!(FleetConfig {
            contention: Some(ContentionConfig::default()),
            dispatch: Some(DispatchConfig::lsq(2)),
            ..FleetConfig::default()
        }
        .validate()
        .is_ok());
        assert!(AbrMix {
            p_hyb: 0.8,
            p_throughput: 0.5,
        }
        .validate()
        .is_err());
    }
}
