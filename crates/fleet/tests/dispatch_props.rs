//! Property-based invariants for the dispatch layer.
//!
//! The layer's determinism contract (see `crates/fleet/src/dispatch.rs`):
//! placement is a pure function of (seed, logical dispatcher stream,
//! barrier-snapshot estimates) — never of the shard count or the
//! *physical* dispatcher count — and `StaticHash`, the dispatcher a run
//! without a dispatch layer gets, places by `static_link_of`. The
//! pure-function properties run under proptest over random
//! snapshots/weights; the engine-level contracts run full (small) fleet
//! runs.

use lingxi_fleet::harness::Cell;
use lingxi_fleet::{
    static_link_of, ContentionConfig, DispatchConfig, DispatchPolicy, Dispatcher, FleetConfig,
    FleetReport, FleetScenario, Lsq, StaticHash, DISPATCH_STREAMS,
};
use proptest::prelude::*;

/// A contended fleet run at `shards` with the given dispatch layer (or
/// none).
fn run_fleet(shards: usize, links: usize, dispatch: Option<DispatchConfig>) -> FleetReport {
    let cell = Cell {
        config: FleetConfig {
            epochs: 2,
            seed: 7,
            contention: Some(ContentionConfig {
                links,
                capacity_kbps: 20_000.0,
                arrival_window: 10.0,
                access_cap_factor: 1.5,
            }),
            dispatch,
            ..FleetConfig::default()
        },
        scenario: FleetScenario {
            name: "dispatch_props".into(),
            n_users: 24,
            n_videos: 8,
            mean_sessions_per_epoch: 2.0,
            ..FleetScenario::default()
        },
    };
    cell.run(shards).unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Placement determinism: the same (seed, snapshot, call sequence)
    /// produces the same placements, for both policies, and never places
    /// outside the link range.
    #[test]
    fn placement_is_pure_in_seed_and_snapshot(
        seed in 0u64..1_000_000,
        links in 1usize..12,
        n_users in 1usize..120,
        snapshot in proptest::collection::vec(0u64..500, 11..12),
        fat_every in 1usize..5,
    ) {
        // A barrier snapshot holds one count per link.
        let snapshot = &snapshot[..links];
        let weights: Vec<f64> = (0..links)
            .map(|q| if q % fat_every == 0 { 4.0 } else { 1.0 })
            .collect();
        let place_all = |d: &mut dyn Dispatcher| -> Vec<u64> {
            d.refresh(snapshot);
            (0..n_users as u64)
                .map(|u| d.place(u, seed ^ u.wrapping_mul(0x9E37_79B9_7F4A_7C15)))
                .collect()
        };
        let mut lsq_a = Lsq::new(weights.clone(), 2);
        let mut lsq_b = Lsq::new(weights.clone(), 2);
        let a = place_all(&mut lsq_a);
        prop_assert_eq!(&a, &place_all(&mut lsq_b));
        prop_assert!(a.iter().all(|&q| q < links as u64));

        let mut sh_a = StaticHash::new(seed, links);
        let mut sh_b = StaticHash::new(seed, links);
        let s = place_all(&mut sh_a);
        prop_assert_eq!(&s, &place_all(&mut sh_b));
        prop_assert!(s.iter().all(|&q| q < links as u64));
    }

    /// The physical dispatcher count only regroups the pinned logical
    /// streams: placements are identical for every count in
    /// 1..=DISPATCH_STREAMS, and the per-dispatcher loads always sum to
    /// the placements made.
    #[test]
    fn physical_dispatcher_count_never_moves_a_placement(
        seed in 0u64..1_000_000,
        links in 1usize..10,
        n_users in 1usize..100,
        snapshot in proptest::collection::vec(0u64..200, 9..10),
    ) {
        let snapshot = &snapshot[..links];
        let weights = vec![1.0; links];
        let run = |dispatchers: usize| {
            let mut d = Lsq::new(weights.clone(), dispatchers);
            d.refresh(snapshot);
            let placements: Vec<u64> = (0..n_users as u64)
                .map(|u| d.place(u, seed ^ u.rotate_left(17)))
                .collect();
            let loads: u64 = d.dispatcher_loads().iter().sum();
            prop_assert_eq!(loads as usize, n_users);
            prop_assert_eq!(d.dispatcher_loads().len(), dispatchers);
            Ok(placements)
        };
        let reference = run(1)?;
        for dispatchers in 2..=DISPATCH_STREAMS {
            prop_assert_eq!(&reference, &run(dispatchers)?);
        }
    }

    /// LSQ never exceeds StaticHash's weighted queue on the snapshot it
    /// saw: for every single decision, the weighted estimated length of
    /// LSQ's chosen queue is at most that of the queue StaticHash would
    /// have picked, judged on the same local estimates (argmin ≤ any
    /// alternative, including the hash's pick).
    #[test]
    fn lsq_decisions_beat_static_hash_on_local_estimates(
        seed in 0u64..1_000_000,
        links in 1usize..12,
        n_users in 1usize..150,
        snapshot in proptest::collection::vec(0u64..300, 11..12),
        fat_every in 1usize..5,
    ) {
        let snapshot = &snapshot[..links];
        let weights: Vec<f64> = (0..links)
            .map(|q| if q % fat_every == 0 { 4.8 } else { 1.0 })
            .collect();
        let mut lsq = Lsq::new(weights.clone(), 2);
        lsq.refresh(snapshot);
        for uid in 0..n_users as u64 {
            let stream_seed = seed ^ uid.wrapping_mul(0xBF58_476D_1CE4_E5B9);
            let stream = Lsq::stream_of(stream_seed);
            let est: Vec<f64> = (0..links).map(|q| lsq.estimate(stream, q)).collect();
            let chosen = lsq.place(uid, stream_seed) as usize;
            let hashed = static_link_of(seed, uid, links as u64) as usize;
            let score = |q: usize| (est[q] + 1.0) / weights[q];
            prop_assert!(
                score(chosen) <= score(hashed),
                "user {uid}: LSQ chose queue {chosen} (weighted {}), hash queue {hashed} \
                 (weighted {})",
                score(chosen),
                score(hashed)
            );
        }
    }
}

/// Merged metrics are bit-identical across physical dispatcher counts:
/// the engine-level version of the stream-pinning argument, through full
/// contended runs at 1/2/4 dispatchers. (The shard-count and kill/resume
/// axes under LSQ are rows of `tests/contract.rs`.)
#[test]
fn merged_metrics_invariant_across_dispatcher_counts() {
    let lsq = |dispatchers: usize| DispatchConfig {
        policy: DispatchPolicy::Lsq { dispatchers },
        capacity_weights: vec![4.0, 1.0, 1.0, 1.0, 4.0, 1.0],
    };
    let one = run_fleet(2, 6, Some(lsq(1)));
    let two = run_fleet(2, 6, Some(lsq(2)));
    let four = run_fleet(2, 6, Some(lsq(4)));
    // Placements (not just aggregates) are part of the compared payload;
    // only the load accounting regroups.
    assert_eq!(one.first_divergence(&two), None);
    assert_eq!(one.first_divergence(&four), None);
    for (a, b) in one.dispatch_epochs().iter().zip(four.dispatch_epochs()) {
        let (a, b) = (a.unwrap(), b.unwrap());
        assert_eq!(a.dispatcher_loads.len(), 1);
        assert_eq!(b.dispatcher_loads.len(), 4);
        assert_eq!(
            a.dispatcher_loads.iter().sum::<u64>(),
            b.dispatcher_loads.iter().sum::<u64>()
        );
    }
}

/// With no dispatch layer configured the engine places through
/// `StaticHash` and records it: every epoch's placement histogram is the
/// `static_link_of` histogram of the cohort.
#[test]
fn default_placement_histogram_matches_static_link_of() {
    let report = run_fleet(4, 6, None);
    let occ = report
        .max_weighted_occupancy()
        .expect("contention mode records placements");
    assert!(occ >= 1.0, "24 users on 6 links peak at >= 1: {occ}");
    let mut expected = vec![0u64; 6];
    for uid in 0..24u64 {
        expected[static_link_of(7, uid, 6) as usize] += 1;
    }
    for e in report.dispatch_epochs() {
        let e = e.expect("one record per epoch");
        assert_eq!(e.placements, expected);
        assert!(e.dispatcher_loads.is_empty());
    }
}
