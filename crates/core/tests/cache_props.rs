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
//! state. Each case draws the log's `buffer_bytes` too, from one byte (every
//! save spills to the file) to the 256 KiB default (only a flush or a
//! checkpoint drains the buffer), so the replay and compaction windows also
//! refill mid-frame and serve reads longer than themselves.
//!
//! Another property holds the log's snapshot point loads (fence index,
//! one index block per lookup) to the same kind of model across block
//! boundaries.
//!
//! A last property holds the cache's LRU to a reference: a test-local
//! copy of the cache as it was before its slab, a `BTreeMap` of entries
//! and a `BTreeSet` of `(last_used, user_id)` ticks per shard. Over any
//! save/load/evict/flush sequence, both return the same values, keep the
//! same counters and make the same calls, in the same order, on a backend
//! that records them; so they evict the same victims.

use std::collections::{BTreeMap, BTreeSet};
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

use lingxi_core::{
    BinLogConfig, BinaryStateLog, CacheConfig, CacheStats, CoreError, LongTermState,
    ShardedStateCache, StateBackend, StateScan,
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
    /// crash-reopen points with tail corruption, at any append-buffer size.
    #[test]
    fn binlog_recovery_matches_model(
        // (op, user, stamp):
        //   0 = save, 1 = load, 2 = evict, 3 = flush, 4 = checkpoint,
        //   5 = crash + clean reopen,
        //   6 = crash + truncated tail record, 7 = crash + torn final write.
        ops in proptest::collection::vec((0u8..8, 0u64..12, 0u8..=254), 1..60),
        log_shards in 1usize..4,
        buffer_bytes in prop_oneof![
            Just(1usize), Just(7), Just(64), Just(600), Just(4096), Just(256 * 1024),
        ],
        cache_shards in 1usize..5,
        capacity in 1usize..6,
    ) {
        let log_dir = fresh_dir("binlog");
        let cache_cfg = CacheConfig {
            shards: cache_shards,
            capacity_per_shard: capacity,
            write_through: false,
        };
        let log_cfg = BinLogConfig { shards: log_shards, buffer_bytes };
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

/// One call a [`Recorder`] saw.
#[derive(Debug, Clone, PartialEq)]
enum Call {
    Save(LongTermState),
    Load(u64),
    Flush,
}

/// An in-memory backend that records every call made on it.
#[derive(Debug, Default)]
struct Recorder {
    calls: Mutex<Vec<Call>>,
    states: Mutex<BTreeMap<u64, LongTermState>>,
}

impl Recorder {
    fn calls(&self) -> Vec<Call> {
        self.calls.lock().unwrap().clone()
    }
}

impl StateBackend for Recorder {
    fn save(&self, state: &LongTermState) -> Result<(), CoreError> {
        self.calls.lock().unwrap().push(Call::Save(state.clone()));
        self.states
            .lock()
            .unwrap()
            .insert(state.user_id, state.clone());
        Ok(())
    }

    fn save_batch(&self, batch: &[&LongTermState]) -> Result<usize, CoreError> {
        for state in batch {
            self.save(state)?;
        }
        Ok(batch.len())
    }

    fn load(&self, user_id: u64) -> Result<Option<LongTermState>, CoreError> {
        self.calls.lock().unwrap().push(Call::Load(user_id));
        Ok(self.states.lock().unwrap().get(&user_id).cloned())
    }

    fn scan(&self) -> Result<StateScan, CoreError> {
        Ok(StateScan {
            ids: self.states.lock().unwrap().keys().copied().collect(),
            warnings: Vec::new(),
        })
    }

    fn flush(&self) -> Result<(), CoreError> {
        self.calls.lock().unwrap().push(Call::Flush);
        Ok(())
    }

    fn checkpoint(&self) -> Result<(), CoreError> {
        Ok(())
    }
}

/// One shard of [`TickCache`]: entries `(state, dirty, last_used)` and the
/// LRU index `(last_used, user_id)` in lockstep.
#[derive(Default)]
struct TickShard {
    map: BTreeMap<u64, (LongTermState, bool, u64)>,
    lru: BTreeSet<(u64, u64)>,
    tick: u64,
    stats: CacheStats,
}

/// The state cache with a tick-ordered LRU set, single-threaded: the
/// reference the slab cache's victims, counters and writes must match.
struct TickCache {
    backend: Recorder,
    shards: Vec<TickShard>,
    capacity: usize,
    write_through: bool,
}

impl TickCache {
    fn new(cfg: CacheConfig) -> Self {
        Self {
            backend: Recorder::default(),
            shards: (0..cfg.shards).map(|_| TickShard::default()).collect(),
            capacity: cfg.capacity_per_shard,
            write_through: cfg.write_through,
        }
    }

    /// The cache's Fibonacci shard hash.
    fn shard_of(&self, user_id: u64) -> usize {
        (user_id.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32) as usize % self.shards.len()
    }

    fn upsert(&mut self, k: usize, state: LongTermState, dirty: bool) {
        let shard = &mut self.shards[k];
        shard.tick += 1;
        let (id, tick) = (state.user_id, shard.tick);
        if let Some((_, _, old)) = shard.map.insert(id, (state, dirty, tick)) {
            shard.lru.remove(&(old, id));
        }
        shard.lru.insert((tick, id));
    }

    fn remove(&mut self, k: usize, user_id: u64) -> Option<(LongTermState, bool)> {
        let shard = &mut self.shards[k];
        let (state, dirty, last_used) = shard.map.remove(&user_id)?;
        shard.lru.remove(&(last_used, user_id));
        Some((state, dirty))
    }

    fn enforce_capacity(&mut self, k: usize) {
        while self.shards[k].map.len() > self.capacity {
            let (_, victim) = *self.shards[k].lru.first().unwrap();
            let (state, dirty) = self.remove(k, victim).unwrap();
            self.shards[k].stats.evictions += 1;
            if dirty {
                self.backend.save(&state).unwrap();
                self.shards[k].stats.writes += 1;
            }
        }
    }

    fn load(&mut self, user_id: u64) -> Option<LongTermState> {
        let k = self.shard_of(user_id);
        let shard = &mut self.shards[k];
        shard.tick += 1;
        let tick = shard.tick;
        if let Some((state, _, last_used)) = shard.map.get_mut(&user_id) {
            let prev = std::mem::replace(last_used, tick);
            let state = state.clone();
            shard.lru.remove(&(prev, user_id));
            shard.lru.insert((tick, user_id));
            shard.stats.hits += 1;
            return Some(state);
        }
        shard.stats.misses += 1;
        let state = self.backend.load(user_id).unwrap()?;
        self.upsert(k, state.clone(), false);
        self.enforce_capacity(k);
        Some(state)
    }

    fn save(&mut self, state: &LongTermState) {
        let k = self.shard_of(state.user_id);
        if self.write_through {
            self.backend.save(state).unwrap();
            self.shards[k].stats.writes += 1;
        }
        self.upsert(k, state.clone(), !self.write_through);
        self.enforce_capacity(k);
    }

    fn evict(&mut self, user_id: u64) -> bool {
        let k = self.shard_of(user_id);
        let Some((state, dirty)) = self.remove(k, user_id) else {
            return false;
        };
        self.shards[k].stats.evictions += 1;
        if dirty {
            self.backend.save(&state).unwrap();
            self.shards[k].stats.writes += 1;
        }
        true
    }

    fn flush(&mut self) -> usize {
        let batch: Vec<(usize, LongTermState)> = (0..self.shards.len())
            .flat_map(|k| {
                self.shards[k]
                    .map
                    .values()
                    .filter(|(_, dirty, _)| *dirty)
                    .map(move |(state, _, _)| (k, state.clone()))
            })
            .collect();
        let refs: Vec<&LongTermState> = batch.iter().map(|(_, s)| s).collect();
        self.backend.save_batch(&refs).unwrap();
        self.backend.flush().unwrap();
        for (k, state) in &batch {
            let shard = &mut self.shards[*k];
            shard.stats.writes += 1;
            shard.map.get_mut(&state.user_id).unwrap().1 = false;
        }
        batch.len()
    }

    fn len(&self) -> usize {
        self.shards.iter().map(|s| s.map.len()).sum()
    }

    fn stats(&self) -> CacheStats {
        let mut total = CacheStats::default();
        for s in &self.shards {
            total.hits += s.stats.hits;
            total.misses += s.stats.misses;
            total.evictions += s.stats.evictions;
            total.writes += s.stats.writes;
        }
        total
    }
}

proptest! {
    /// The slab cache evicts, counts and writes exactly as the tick-ordered
    /// reference: after every operation the results, `CacheStats`, the
    /// resident count and the recorded backend calls (each saved state,
    /// each load that missed, each flush) are equal; at the end a load of
    /// every user confirms the same residents.
    #[test]
    fn lru_order_matches_the_tick_ordered_cache(
        // (op, user, stamp): 0 = save, 1 = load, 2 = evict, 3 = flush.
        ops in proptest::collection::vec((0u8..4, 0u64..20, 0u8..=254), 1..80),
        shards in 1usize..5,
        capacity in 1usize..9,
        write_through in 0u8..2,
    ) {
        let cfg = CacheConfig { shards, capacity_per_shard: capacity, write_through: write_through == 1 };
        let recorder = Arc::new(Recorder::default());
        let cache = ShardedStateCache::with_backend(recorder.clone(), cfg).unwrap();
        let mut reference = TickCache::new(cfg);
        let probe_all = (0u64..20).map(|user| (1u8, user, 0u8));
        for (op, user, stamp) in ops.iter().copied().chain(probe_all) {
            match op {
                0 => {
                    let s = state_for(user, stamp);
                    cache.save(&s).unwrap();
                    reference.save(&s);
                }
                1 => prop_assert_eq!(cache.load(user).unwrap(), reference.load(user)),
                2 => prop_assert_eq!(cache.evict(user).unwrap(), reference.evict(user)),
                _ => prop_assert_eq!(cache.flush().unwrap(), reference.flush()),
            }
            prop_assert_eq!(cache.stats(), reference.stats());
            prop_assert_eq!(cache.len(), reference.len());
            prop_assert_eq!(recorder.calls(), reference.backend.calls());
        }
    }
}
