//! The contract table: every engine regime, one row each, checked once
//! by [`Cell::contract`] — 1/4/8 shards bit-identical, and at each shard
//! count a kill at every inner barrier plus a resume bit-identical to
//! the straight run.
//!
//! A regime is what a `FleetConfig` mode option makes the epoch pipeline
//! do. [`regimes`] names the ones a row runs: it destructures
//! `FleetConfig` and matches every mode enum without a wildcard, so a new
//! option or variant does not compile until it is classified, and
//! `the_table_covers_every_regime_once` then fails until a row runs it.
//! A row may name a check on its 4-shard report that shows its regime
//! bound (dual solves ran, the cache evicted).

use lingxi_core::CacheConfig;
use lingxi_fleet::harness::Cell;
use lingxi_fleet::{
    AbSplit, AbrMix, ContentionConfig, DispatchConfig, DispatchPolicy, FairnessConfig, FleetConfig,
    FleetReport, FleetScenario, PersistenceConfig, PopulationDynamics,
};
use lingxi_net::{FairnessObjective, TopoLink, Topology};
use lingxi_workload::{ArrivalKind, ClassRegistry, Poisson};

/// A small cell: 24 users over 8 videos, two sessions a day, seed 17.
fn cell(epochs: usize, config: FleetConfig) -> Cell {
    Cell {
        config: FleetConfig {
            epochs,
            seed: 17,
            ..config
        },
        scenario: FleetScenario {
            name: "contract".into(),
            n_users: 24,
            n_videos: 8,
            mean_sessions_per_epoch: 2.0,
            ..FleetScenario::default()
        },
    }
}

/// Every user HYB, so every user is managed and persists state.
fn managed(mut cell: Cell) -> Cell {
    cell.scenario.abr_mix = AbrMix::all_hyb();
    cell
}

fn links(links: usize, capacity_kbps: f64) -> Option<ContentionConfig> {
    Some(ContentionConfig {
        links,
        capacity_kbps,
        arrival_window: 10.0,
        access_cap_factor: 1.5,
    })
}

fn ab_at(intervention_epoch: usize) -> Option<AbSplit> {
    Some(AbSplit { intervention_epoch })
}

/// A tight three-hop pod whose core all three routes share: every epoch
/// binds it, so a finite-α objective runs dual solves every epoch.
fn pod(objective: FairnessObjective) -> FleetConfig {
    FleetConfig {
        contention: links(3, 20_000.0),
        fairness: Some(FairnessConfig {
            objective,
            topology: Topology::new(
                vec![
                    TopoLink::new(6_000.0, 0.004),
                    TopoLink::new(9_000.0, 0.008),
                    TopoLink::new(12_000.0, 0.012),
                ],
                vec![vec![0, 1, 2], vec![1, 2], vec![2]],
            )
            .unwrap(),
        }),
        ..FleetConfig::default()
    }
}

fn arrivals() -> Option<PopulationDynamics> {
    Some(PopulationDynamics {
        arrivals: ArrivalKind::Poisson(Poisson { rate_per_sec: 0.05 }),
        registry: ClassRegistry::default_heterogeneous(),
        day_seconds: 600.0,
    })
}

fn dispatch(policy: DispatchPolicy, capacity_weights: &[f64]) -> Option<DispatchConfig> {
    Some(DispatchConfig {
        policy,
        capacity_weights: capacity_weights.to_vec(),
    })
}

/// A 1:4 capacity skew over six links.
const SKEW: [f64; 6] = [4.0, 1.0, 1.0, 1.0, 4.0, 1.0];

/// Two cache shards of two entries each, under a 24-user managed cohort.
const EVICTING: CacheConfig = CacheConfig {
    shards: 2,
    capacity_per_shard: 2,
    write_through: false,
};

/// The table. Each row expands to one test in `mod row`, named after it.
macro_rules! contract_table {
    ($($name:ident: $cell:expr $(, then $check:ident)?;)+) => {
        /// Every row's name and cell, for the coverage test.
        fn table() -> Vec<(&'static str, Cell)> {
            vec![$((stringify!($name), $cell)),+]
        }

        mod row {
            use super::*;
            $(
                #[test]
                fn $name() {
                    let runs = $cell.contract().unwrap_or_else(|e| panic!("{e}"));
                    let four = &runs[1].1;
                    assert!(four.sessions > 0, "the cell played nothing");
                    $($check(four);)?
                }
            )+
        }
    };
}

contract_table! {
    independent: cell(3, FleetConfig::default()), then sketches_saw_every_session;
    independent_ab: managed(cell(4, FleetConfig { ab: ab_at(2), ..FleetConfig::default() }));
    contended: cell(3, FleetConfig { contention: links(6, 20_000.0), ..FleetConfig::default() });
    contended_ab: managed(cell(4, FleetConfig {
        contention: links(6, 20_000.0),
        ab: ab_at(2),
        ..FleetConfig::default()
    }));
    fairness_maxmin: cell(4, pod(FairnessObjective::MaxMin));
    fairness_proportional: cell(4, pod(FairnessObjective::ProportionalFair)),
        then dual_solves_every_epoch;
    fairness_alpha2: cell(4, pod(FairnessObjective::AlphaFair(2.0))),
        then dual_solves_every_epoch;
    dynamics: cell(4, FleetConfig {
        contention: links(4, 25_000.0),
        dynamics: arrivals(),
        ..FleetConfig::default()
    }), then arrivals_played;
    static_hash_weighted: cell(3, FleetConfig {
        contention: links(6, 5_000.0),
        dispatch: dispatch(DispatchPolicy::StaticHash, &SKEW),
        ..FleetConfig::default()
    });
    lsq: cell(3, FleetConfig {
        contention: links(6, 5_000.0),
        dispatch: dispatch(DispatchPolicy::Lsq { dispatchers: 2 }, &SKEW),
        ..FleetConfig::default()
    });
    lsq_dynamics: cell(3, FleetConfig {
        contention: links(4, 25_000.0),
        dynamics: arrivals(),
        dispatch: dispatch(DispatchPolicy::Lsq { dispatchers: 2 }, &[]),
        ..FleetConfig::default()
    }), then arrivals_played;
    periodic_checkpoints_evicting: managed(cell(4, FleetConfig {
        checkpoint_every: 2,
        cache: EVICTING,
        ..FleetConfig::default()
    })), then cache_evicted;
    write_through: managed(cell(3, FleetConfig {
        cache: CacheConfig { write_through: true, ..CacheConfig::default() },
        ..FleetConfig::default()
    }));
}

fn sketches_saw_every_session(report: &FleetReport) {
    assert!(report.sessions >= 24, "every user plays >= 1 session");
    let counted: u64 = report.epochs.iter().map(|e| e.sketches.stall.count()).sum();
    assert_eq!(counted, report.sessions as u64);
}

fn dual_solves_every_epoch(report: &FleetReport) {
    for epoch in &report.epochs {
        let solver = epoch.solver.expect("every epoch ran dual solves");
        assert!(solver.calls > 0 && solver.sweeps >= solver.calls);
        assert_eq!(solver.non_converged, 0);
    }
}

fn arrivals_played(report: &FleetReport) {
    assert!(report.users > 0 && report.sessions >= report.users);
}

fn cache_evicted(report: &FleetReport) {
    assert!(report.cache.evictions > 0, "{:?}", report.cache);
}

/// The regimes a cell runs, one name per mode option it sets.
fn regimes(cell: &Cell) -> Vec<&'static str> {
    let FleetConfig {
        shards: _,
        epochs: _,
        seed: _,
        state_dir: _,
        persistence: PersistenceConfig::BinaryLog(_),
        checkpoint_every,
        cache,
        player: _,
        ab,
        contention,
        dynamics,
        fairness,
        dispatch,
    } = &cell.config;
    let mut names = vec![match (contention, ab) {
        (None, None) => "private traces",
        (None, Some(_)) => "A/B on private traces",
        (Some(_), None) => "shared links",
        (Some(_), Some(_)) => "A/B on shared links",
    }];
    if dynamics.is_some() {
        names.push("arrivals");
    }
    names.extend(fairness.as_ref().map(|f| match f.objective {
        FairnessObjective::MaxMin => "max-min pod",
        FairnessObjective::ProportionalFair => "proportional-fair pod",
        FairnessObjective::AlphaFair(_) => "alpha-fair pod",
    }));
    names.extend(dispatch.as_ref().map(|d| match d.policy {
        DispatchPolicy::StaticHash => "static hash over weighted links",
        DispatchPolicy::Lsq { .. } => "LSQ",
    }));
    if *checkpoint_every > 0 {
        names.push("periodic checkpoints");
    }
    if cache.write_through {
        names.push("write-through cache");
    }
    if cache.shards * cache.capacity_per_shard < cell.scenario.n_users {
        names.push("evicting cache");
    }
    names
}

/// Every regime [`regimes`] can name.
const REGIMES: [&str; 13] = [
    "private traces",
    "A/B on private traces",
    "shared links",
    "A/B on shared links",
    "arrivals",
    "max-min pod",
    "proportional-fair pod",
    "alpha-fair pod",
    "static hash over weighted links",
    "LSQ",
    "periodic checkpoints",
    "write-through cache",
    "evicting cache",
];

/// Every regime has a row, and no two rows run the same regimes: each is
/// checked once.
#[test]
fn the_table_covers_every_regime_once() {
    let rows: Vec<(&str, Vec<&str>)> = table()
        .iter()
        .map(|(name, cell)| (*name, regimes(cell)))
        .collect();
    for regime in REGIMES {
        assert!(
            rows.iter().any(|(_, names)| names.contains(&regime)),
            "no row runs {regime}"
        );
    }
    for (i, (a, a_names)) in rows.iter().enumerate() {
        for (b, b_names) in &rows[i + 1..] {
            assert_ne!(a_names, b_names, "rows {a} and {b} run the same regimes");
        }
    }
}
