//! Fleet run reports: per-epoch merged metrics, QoE distribution
//! sketches, throughput, cache behaviour and the optional
//! population-scale DiD verdict.

use std::time::Duration;

use lingxi_abtest::{AbReport, DayMetrics};
use lingxi_core::CacheStats;
use lingxi_net::SolverStats;
use lingxi_stats::QuantileSketch;
use serde::{Deserialize, Serialize};

use crate::dispatch::DispatchEpoch;

/// Bounded-memory QoE distribution sketches for one epoch: per-session
/// stall time, watch time and mean bitrate.
///
/// The sketches hold integer bin counts, so accumulating them per worker
/// and merging is *exactly* independent of grouping and order —
/// bit-identical for any shard count and any schedule — while a million-session epoch costs O(bins) memory
/// instead of O(sessions).
/// Serializable (the checkpoint manifest carries completed epochs; the
/// integer bin counts and finite `f64` ranges round-trip bit-exactly
/// through `serde_json`).
// detlint::allow(serde_derive, reason = "EpochMetrics::sketches in fleet_ckpt.json")
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EpochSketches {
    /// Per-session total stall time (seconds).
    pub stall: QuantileSketch,
    /// Per-session watch time (seconds).
    pub watch: QuantileSketch,
    /// Per-session mean bitrate (kbps).
    pub bitrate: QuantileSketch,
}

impl EpochSketches {
    /// Fresh sketches over the fleet's standard QoE ranges.
    pub fn new() -> Self {
        Self {
            stall: QuantileSketch::new(0.0, 120.0, 240).expect("static sketch config"),
            watch: QuantileSketch::new(0.0, 900.0, 180).expect("static sketch config"),
            bitrate: QuantileSketch::new(0.0, 6000.0, 120).expect("static sketch config"),
        }
    }

    /// Observe one session summary.
    pub fn push(&mut self, s: &lingxi_player::SessionSummary) {
        self.stall.push(s.total_stall);
        self.watch.push(s.watch_time);
        self.bitrate.push(s.mean_bitrate);
    }

    /// Fold another epoch's sketches into this one (exact, any order).
    pub fn merge(&mut self, other: &Self) {
        self.stall.merge(&other.stall).expect("same static config");
        self.watch.merge(&other.watch).expect("same static config");
        self.bitrate
            .merge(&other.bitrate)
            .expect("same static config");
    }
}

impl Default for EpochSketches {
    fn default() -> Self {
        Self::new()
    }
}

/// Metrics of one epoch, merged across shards at the epoch barrier.
///
/// The scalar aggregates are folded from per-user streaming accumulators
/// in ascending user-id order regardless of which shard ran them, and the
/// sketches are integer-binned, so every field is bit-identical for any
/// shard count under the same seed.
/// Serializable so checkpoint manifests can carry completed epochs; all
/// float fields are finite by construction, so the JSON round-trip is
/// bit-exact (Rust's shortest-round-trip float formatting).
// detlint::allow(serde_derive, reason = "completed epochs in fleet_ckpt.json")
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EpochMetrics {
    /// Epoch index (a simulated day).
    pub epoch: usize,
    /// Whole-population aggregate.
    pub all: DayMetrics,
    /// Control-cohort aggregate (A/B mode only).
    pub control: Option<DayMetrics>,
    /// Treatment-cohort aggregate (A/B mode only).
    pub treatment: Option<DayMetrics>,
    /// Per-user-class aggregates, indexed like the registry's user classes
    /// (population-dynamics mode only; empty otherwise).
    pub classes: Vec<DayMetrics>,
    /// Per-session QoE distribution sketches.
    pub sketches: EpochSketches,
    /// Write-behind entries persisted at this epoch's barrier flush.
    /// Diagnostic: unlike the metric aggregates this *may* vary with shard
    /// count, because LRU evictions already persisted some entries early.
    pub flushed: usize,
    /// Dispatch-stage record of this epoch (per-link placements, weighted
    /// hot-queue occupancy, per-dispatcher loads). `None` in independent
    /// mode, where there are no links; defaulted on deserialize so
    /// manifests written without one load.
    #[serde(default)]
    pub dispatch: Option<DispatchEpoch>,
    /// What the finite-α dual solver did this epoch, summed over every
    /// link group: calls, sweeps, calls that ran out of sweep budget and
    /// the worst KKT residual. Integer sums and a float maximum, so it is
    /// bit-identical for any shard count like the aggregates above.
    /// `None` when no dual solve ran (independent mode, max-min links);
    /// defaulted on deserialize so manifests written without one load.
    #[serde(default)]
    pub solver: Option<SolverStats>,
}

/// Everything a fleet run produced.
#[derive(Debug, Clone)]
pub struct FleetReport {
    /// Scenario label.
    pub scenario: String,
    /// Shard (worker thread) count used.
    pub shards: usize,
    /// Population size (static cohort) or total arrivals (dynamics mode).
    pub users: usize,
    /// User-class names from the dynamics registry (empty when static).
    pub class_names: Vec<String>,
    /// Per-epoch merged metrics.
    pub epochs: Vec<EpochMetrics>,
    /// Total sessions played.
    pub sessions: usize,
    /// Total segments downloaded.
    pub segments: usize,
    /// Wall-clock time of the epoch loop (excludes world construction).
    pub elapsed: Duration,
    /// State-cache behaviour counters.
    pub cache: CacheStats,
    /// Startup-scan warnings from the durable store (corrupt/foreign
    /// filenames that would otherwise silently drop users).
    pub state_warnings: Vec<String>,
    /// Population-scale difference-in-differences over per-epoch cohort
    /// metrics (A/B mode only).
    pub did: Option<AbReport>,
}

impl FleetReport {
    /// What "bit-identical" means for two fleet runs: `None` when they
    /// agree on the whole shard-invariant payload, else the first epoch
    /// and field where they differ.
    ///
    /// The payload is everything the engine promises is a pure function
    /// of (seed, scenario, config) — whatever the shard count, the
    /// physical dispatcher count, or whether the run was killed at a
    /// barrier and resumed: the `users`/`sessions`/`segments` totals and,
    /// per epoch, `all`, `control`, `treatment`, `classes`, `sketches`
    /// the dispatch record's `placements` and `max_weighted_occupancy`,
    /// and `solver`. Left out on purpose: `flushed` (LRU
    /// evictions persist some entries early), `dispatcher_loads`
    /// (regroups with the dispatcher count by design), and the
    /// run-describing `scenario`, `shards`, `elapsed`, `cache`,
    /// `state_warnings`.
    pub fn first_divergence(&self, other: &Self) -> Option<String> {
        for (field, a, b) in [
            ("users", self.users, other.users),
            ("sessions", self.sessions, other.sessions),
            ("segments", self.segments, other.segments),
            ("epoch count", self.epochs.len(), other.epochs.len()),
        ] {
            if a != b {
                return Some(format!("{field}: {a} vs {b}"));
            }
        }
        // Dispatch records compare without their per-dispatcher loads.
        fn placed(e: &EpochMetrics) -> Option<&[u64]> {
            e.dispatch.as_ref().map(|d| d.placements.as_slice())
        }
        fn occupancy(e: &EpochMetrics) -> Option<f64> {
            e.dispatch.as_ref().map(|d| d.max_weighted_occupancy)
        }
        self.epochs.iter().zip(&other.epochs).find_map(|(a, b)| {
            let field = if a.epoch != b.epoch {
                "epoch index"
            } else if a.all != b.all {
                "all"
            } else if a.control != b.control {
                "control"
            } else if a.treatment != b.treatment {
                "treatment"
            } else if a.classes != b.classes {
                "classes"
            } else if a.sketches != b.sketches {
                "sketches"
            } else if placed(a) != placed(b) {
                "dispatch.placements"
            } else if occupancy(a) != occupancy(b) {
                "dispatch.max_weighted_occupancy"
            } else if a.solver != b.solver {
                "solver"
            } else {
                return None;
            };
            Some(format!("epoch {}: {field}", a.epoch))
        })
    }

    /// The per-epoch whole-population metrics (what the golden
    /// fingerprints hash; equality gates use
    /// [`FleetReport::first_divergence`]).
    pub fn merged_metrics(&self) -> Vec<DayMetrics> {
        self.epochs.iter().map(|e| e.all).collect()
    }

    /// The per-epoch distribution sketches (see
    /// [`FleetReport::merged_metrics`]).
    pub fn merged_sketches(&self) -> Vec<&EpochSketches> {
        self.epochs.iter().map(|e| &e.sketches).collect()
    }

    /// Per-class metrics of one class across epochs (dynamics mode).
    pub fn class_metrics(&self, class: usize) -> Vec<DayMetrics> {
        self.epochs
            .iter()
            .filter_map(|e| e.classes.get(class).copied())
            .collect()
    }

    /// The worst weighted link occupancy any epoch saw
    /// (`max_epoch max_q placements[q] / weight[q]`) — the load-imbalance
    /// headline the `dispatch` experiment gates LSQ vs StaticHash on.
    /// `None` in independent mode.
    pub fn max_weighted_occupancy(&self) -> Option<f64> {
        self.epochs
            .iter()
            .filter_map(|e| e.dispatch.as_ref())
            .map(|d| d.max_weighted_occupancy)
            .fold(None, |acc, v| Some(acc.map_or(v, |a: f64| a.max(v))))
    }

    /// The dual solver's counters over the whole run (`None` when no
    /// epoch ran a dual solve).
    pub fn solver_stats(&self) -> Option<SolverStats> {
        let mut epochs = self.epochs.iter().filter_map(|e| e.solver);
        let mut total = epochs.next()?;
        epochs.for_each(|s| total.merge(&s));
        Some(total)
    }

    /// Per-epoch dispatch records.
    pub fn dispatch_epochs(&self) -> Vec<Option<&DispatchEpoch>> {
        self.epochs.iter().map(|e| e.dispatch.as_ref()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::EpochSketches;
    use crate::harness::Cell;
    use crate::{ContentionConfig, FleetConfig, FleetReport, FleetScenario};
    use crate::{DispatchConfig, DispatchPolicy, PopulationDynamics};
    use lingxi_player::SessionSummary;
    use lingxi_workload::{ArrivalKind, ClassRegistry, Poisson};
    use proptest::prelude::*;

    /// A session value for one sketch: in range, on a bin edge, or past
    /// either end of the range `[0, hi)`.
    fn value(hi: f64) -> impl Strategy<Value = f64> {
        prop_oneof![
            6 => 0.0..hi,
            1 => Just(0.0),
            1 => Just(hi),
            1 => hi..4.0 * hi,
            1 => -1.0..0.0,
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// What dynamic assignment relies on: sessions split into any
        /// groups (the units one worker ran), each group folded on its
        /// own and the groups merged in any order, equal one sequential
        /// fold bit for bit. A per-worker float sum would fail here.
        #[test]
        fn sketches_merge_exactly_in_any_grouping_and_order(
            sessions in collection::vec((value(120.0), value(900.0), value(6000.0), 0..8usize), 0..160),
            groups in 1..9usize,
            order_keys in collection::vec(0..u64::MAX, 8..9),
        ) {
            let mut sequential = EpochSketches::new();
            let mut per_group = vec![EpochSketches::new(); groups];
            for &(total_stall, watch_time, mean_bitrate, g) in &sessions {
                let summary = SessionSummary {
                    user_id: 0,
                    watch_time,
                    total_stall,
                    stall_count: 0,
                    mean_bitrate,
                    switch_count: 0,
                    completed: true,
                    segments: 1,
                };
                sequential.push(&summary);
                per_group[g % groups].push(&summary);
            }
            let mut order: Vec<usize> = (0..groups).collect();
            order.sort_by_key(|&g| (order_keys[g], g));
            let mut merged = EpochSketches::new();
            for g in order {
                merged.merge(&per_group[g]);
            }
            prop_assert_eq!(format!("{merged:?}"), format!("{sequential:?}"));
            prop_assert_eq!(merged, sequential);
        }
    }

    /// A contended dynamics cell under LSQ: every compared field —
    /// classes, sketches, dispatch records — is populated.
    fn cell() -> Cell {
        Cell {
            config: FleetConfig {
                seed: 13,
                contention: Some(ContentionConfig {
                    links: 4,
                    arrival_window: 10.0,
                    ..ContentionConfig::default()
                }),
                dynamics: Some(PopulationDynamics {
                    arrivals: ArrivalKind::Poisson(Poisson { rate_per_sec: 0.05 }),
                    registry: ClassRegistry::default_heterogeneous(),
                    day_seconds: 600.0,
                }),
                dispatch: Some(DispatchConfig {
                    policy: DispatchPolicy::Lsq { dispatchers: 2 },
                    capacity_weights: Vec::new(),
                }),
                ..FleetConfig::default()
            },
            scenario: FleetScenario {
                n_users: 24,
                n_videos: 8,
                ..FleetScenario::default()
            },
        }
    }

    #[test]
    fn first_divergence_names_the_epoch_and_field_and_ignores_run_diagnostics() {
        let one = cell().run(1).unwrap();
        assert!(one.epochs.len() == 2 && one.sessions > 0);

        let doctored = |edit: &dyn Fn(&mut FleetReport)| {
            let mut copy = one.clone();
            edit(&mut copy);
            one.first_divergence(&copy)
        };
        assert_eq!(
            doctored(&|r| r.epochs[1].sketches.stall.push(1.0)).as_deref(),
            Some("epoch 1: sketches")
        );
        assert_eq!(
            doctored(&|r| r.epochs[0].classes[2].switches += 1).as_deref(),
            Some("epoch 0: classes")
        );
        assert_eq!(
            doctored(&|r| r.epochs[1].dispatch.as_mut().unwrap().placements[0] += 1).as_deref(),
            Some("epoch 1: dispatch.placements")
        );
        assert_eq!(
            doctored(&|r| r.epochs[0].solver = Some(lingxi_net::SolverStats::default())).as_deref(),
            Some("epoch 0: solver")
        );
        assert_eq!(
            doctored(&|r| r.sessions += 1),
            Some(format!(
                "sessions: {} vs {}",
                one.sessions,
                one.sessions + 1
            ))
        );
        // Everything that describes the run rather than its simulated
        // output may differ freely.
        assert_eq!(
            doctored(&|r| {
                r.scenario.push('x');
                r.shards += 1;
                r.elapsed *= 2;
                r.cache.hits += 1;
                r.state_warnings.push("w".into());
                r.epochs[0].flushed += 1;
                r.epochs[1].dispatch.as_mut().unwrap().dispatcher_loads = vec![0; 4];
            }),
            None
        );
    }
}
