//! Property-based equivalence of the sharded write-behind cache over the
//! binary state log and an in-memory model: a `BTreeMap` from user id to
//! [`LongTermState`], where `save` inserts and `load` is `get`.
//!
//! The contract under test (see `lingxi_core::cache`): for ANY interleaving
//! of save/load/evict/flush — across any shard count and any LRU capacity,
//! including capacities small enough to force evictions mid-sequence —
//! every `load` observes exactly what the model holds, and after a final
//! `flush` the log holds exactly the model's [`LongTermState`] per user.
//!
//! The battery also interleaves compactions and *crash points*: the log
//! is dropped and reopened mid-sequence (recovery replays snapshot + tail),
//! optionally with its tail corrupted first — a truncated final record or a
//! torn (checksum-failing) final write. Recovery must shed exactly the
//! corrupt bytes, warn, and still agree with the model, byte for byte of
//! state.
//!
//! Another property holds the log's snapshot point loads (fence index,
//! one index block per lookup) to the same kind of model across block
//! boundaries.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use lingxi_core::{
    BinLogConfig, BinaryStateLog, CacheConfig, LongTermState, ShardedStateCache, StateBackend,
};
use proptest::prelude::*;

static CASE: AtomicUsize = AtomicUsize::new(0);

fn fresh_dir(tag: &str) -> PathBuf {
    let n = CASE.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!(
        "lingxi_cache_props_{tag}_{}_{n}",
        std::process::id()
    ))
}

/// A distinguishable state: `stamp` lands in fields the serializer carries,
/// so stale or lost writes are caught by equality.
fn state_for(user: u64, stamp: u8) -> LongTermState {
    let mut s = LongTermState::new(user);
    s.optimizations = stamp as usize + 1;
    s.params.beta = 0.1 + stamp as f64 / 512.0;
    s.tracker.push_segment(800.0, 700.0 + stamp as f64, 2.0);
    s
}

/// The durable layer holds exactly the model — same users, same state per
/// user — and reads through the cache match the model for every user
/// probed.
fn assert_matches_model(
    cache: &ShardedStateCache,
    model: &BTreeMap<u64, LongTermState>,
    users: std::ops::Range<u64>,
) -> std::result::Result<(), TestCaseError> {
    let behind = cache.backend().list().unwrap();
    prop_assert_eq!(&behind, &model.keys().copied().collect::<Vec<_>>());
    for id in behind {
        prop_assert_eq!(cache.backend().load(id).unwrap(), model.get(&id).cloned());
    }
    for user in users {
        prop_assert_eq!(cache.load(user).unwrap(), model.get(&user).cloned());
    }
    Ok(())
}

proptest! {
    // Filesystem-heavy: keep the default case count modest.
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The binary log behind the cache is observably the model — through
    /// any interleaving of save/load/evict/flush plus compactions and
    /// crash-reopen points with tail corruption.
    #[test]
    fn binlog_recovery_matches_model(
        // (op, user, stamp):
        //   0 = save, 1 = load, 2 = evict, 3 = flush, 4 = checkpoint,
        //   5 = crash + clean reopen,
        //   6 = crash + truncated tail record, 7 = crash + torn final write.
        ops in proptest::collection::vec((0u8..8, 0u64..12, 0u8..=254), 1..60),
        log_shards in 1usize..4,
        cache_shards in 1usize..5,
        capacity in 1usize..6,
    ) {
        let log_dir = fresh_dir("binlog");
        let cache_cfg = CacheConfig {
            shards: cache_shards,
            capacity_per_shard: capacity,
            write_through: false,
        };
        let log_cfg = BinLogConfig { shards: log_shards, ..BinLogConfig::default() };
        let open_cache = || -> ShardedStateCache {
            let log = BinaryStateLog::open(&log_dir, log_cfg).unwrap();
            ShardedStateCache::with_backend(Arc::new(log), cache_cfg).unwrap()
        };
        let mut cache = open_cache();
        let mut model = BTreeMap::new();
        let mut corruptions = 0usize;

        for (op, user, stamp) in &ops {
            match op {
                0 => {
                    let s = state_for(*user, *stamp);
                    cache.save(&s).unwrap();
                    model.insert(*user, s);
                }
                1 => {
                    // A cached read observes exactly the model's value.
                    prop_assert_eq!(cache.load(*user).unwrap(), model.get(user).cloned());
                }
                2 => {
                    // Eviction is invisible to the API contract.
                    cache.evict(*user).unwrap();
                }
                3 => {
                    cache.flush().unwrap();
                }
                4 => {
                    // Compaction must not change observable contents.
                    cache.flush().unwrap();
                    cache.backend().checkpoint().unwrap();
                }
                crash => {
                    // Crash point. Flush first so the model holds exactly
                    // what is durable, then drop everything mid-flight and
                    // (maybe) corrupt the tail of one shard log before
                    // recovery reopens it.
                    cache.flush().unwrap();
                    drop(cache);
                    let shard_log =
                        log_dir.join(format!("shard_{}.log", *user as usize % log_shards));
                    let tail_garbage: &[u8] = match crash {
                        // Truncated tail: a record whose bytes stop short
                        // of its own length prefix.
                        6 => &[24, 0, 0, 0, 0xAA, 0xBB],
                        // Torn write: a full-length frame whose payload
                        // never matches its checksum.
                        7 => &[4, 0, 0, 0, 0xDE, 0xAD, 0xBE, 0xEF, 1, 2, 3, 4],
                        _ => &[],
                    };
                    if !tail_garbage.is_empty() {
                        use std::io::Write;
                        let mut f = std::fs::OpenOptions::new()
                            .append(true)
                            .open(&shard_log)
                            .unwrap();
                        f.write_all(tail_garbage).unwrap();
                        corruptions += 1;
                    }
                    cache = open_cache();
                    if !tail_garbage.is_empty() {
                        let scan = cache.backend().scan().unwrap();
                        prop_assert!(
                            scan.warnings.iter().any(|w| w.contains("torn or truncated")),
                            "corruption must surface a recovery warning, got {:?}",
                            scan.warnings
                        );
                    }
                    // Recovery ≡ the model.
                    assert_matches_model(&cache, &model, 0..12)?;
                }
            }
        }
        cache.flush().unwrap();
        assert_matches_model(&cache, &model, 0..12)?;
        // Corruption never breaks a later checkpoint + reopen.
        if corruptions > 0 {
            cache.backend().checkpoint().unwrap();
            drop(cache);
            let cache = open_cache();
            prop_assert!(cache.backend().scan().unwrap().warnings.is_empty());
            assert_matches_model(&cache, &model, 0..12)?;
        }

        let _ = std::fs::remove_dir_all(&log_dir);
    }

    /// Point loads from a snapshot agree with a `BTreeMap` model for every
    /// id in and just around the stored range, plus random probes — with
    /// snapshot sizes on and across the fence stride (128 index entries),
    /// gaps between ids, and the fences built both by the compaction that
    /// wrote the snapshot and by `open` reading it back.
    #[test]
    fn snapshot_lookup_matches_model_across_fence_blocks(
        size in prop_oneof![
            Just(0usize), Just(1), Just(127), Just(128), Just(129), Just(256), Just(257),
            2usize..700,
        ],
        log_shards in 1usize..4,
        base in 0u64..(1 << 40),
        max_gap in 1u64..6,
        gap_seed in 0u64..=u64::MAX,
        probes in proptest::collection::vec(prop_oneof![0u64..=u64::MAX, 0u64..(1 << 40)], 0..16),
    ) {
        // Ids ascend from `base` with pseudo-random gaps in 1..=max_gap.
        let mut model = std::collections::BTreeMap::new();
        let (mut id, mut g) = (base, gap_seed);
        for _ in 0..size {
            model.insert(id, state_for(id, (id % 251) as u8));
            g = g.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            id += 1 + (g >> 33) % max_gap;
        }
        let dir = fresh_dir("fences");
        let cfg = BinLogConfig { shards: log_shards, ..BinLogConfig::default() };
        let (lo, hi) = match (model.keys().next(), model.keys().next_back()) {
            (Some(&lo), Some(&hi)) => (lo.saturating_sub(2), hi.saturating_add(2)),
            _ => (base, base + 4),
        };
        let check = |log: &BinaryStateLog| -> std::result::Result<(), TestCaseError> {
            for id in (lo..=hi).chain(probes.iter().copied()) {
                prop_assert_eq!(log.load(id).unwrap(), model.get(&id).cloned(), "user {}", id);
            }
            Ok(())
        };
        {
            let log = BinaryStateLog::open(&dir, cfg).unwrap();
            let states: Vec<&LongTermState> = model.values().collect();
            log.save_batch(&states).unwrap();
            log.checkpoint().unwrap();
            check(&log)?;
        }
        check(&BinaryStateLog::open(&dir, cfg).unwrap())?;
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn write_through_and_write_behind_agree(
        ops in proptest::collection::vec((0u8..2, 0u64..8, 0u8..=254), 1..40),
    ) {
        let wb_dir = fresh_dir("wb");
        let wt_dir = fresh_dir("wt");
        let log = |dir: &PathBuf| {
            Arc::new(BinaryStateLog::open(dir, BinLogConfig::default()).unwrap())
        };
        let wb = ShardedStateCache::with_backend(
            log(&wb_dir),
            CacheConfig { shards: 3, capacity_per_shard: 2, write_through: false },
        )
        .unwrap();
        let wt = ShardedStateCache::with_backend(
            log(&wt_dir),
            CacheConfig { shards: 1, capacity_per_shard: 64, write_through: true },
        )
        .unwrap();
        for (op, user, stamp) in &ops {
            match op {
                0 => {
                    let s = state_for(*user, *stamp);
                    wb.save(&s).unwrap();
                    wt.save(&s).unwrap();
                }
                _ => {
                    prop_assert_eq!(wb.load(*user).unwrap(), wt.load(*user).unwrap());
                }
            }
        }
        wb.flush().unwrap();
        wt.flush().unwrap();
        prop_assert_eq!(
            wb.backend().list().unwrap(),
            wt.backend().list().unwrap()
        );
        let _ = std::fs::remove_dir_all(&wb_dir);
        let _ = std::fs::remove_dir_all(&wt_dir);
    }
}
