//! Sharded, write-behind cache over a durable [`StateBackend`].
//!
//! The durable layer (paper §4: long-term state survives app termination)
//! is the right place for persistence, but a fleet simulation that
//! touches tens of thousands of users per epoch cannot afford a durable
//! round-trip per session. [`ShardedStateCache`] interposes an in-memory
//! layer: user ids hash onto lock shards (interior mutability via
//! `parking_lot::Mutex`, so workers share one `&ShardedStateCache`), each
//! shard holds an LRU-bounded map of [`LongTermState`], and writes are
//! *write-behind* — they dirty the cached entry and only reach the
//! backend in batches ([`ShardedStateCache::flush`], called at fleet
//! epoch barriers) or when an LRU eviction forces a single entry out.
//!
//! The flush batch goes through [`StateBackend::save_batch`], which the
//! [`BinaryStateLog`](crate::binlog::BinaryStateLog) turns into a
//! handful of sequential buffered appends.
//!
//! The observable contract is that the cache is transparent: any
//! interleaving of `save`/`load`/`evict`/`flush` leaves the durable layer
//! in the same state as calling the backend directly once a final
//! `flush` lands (property-tested in `tests/cache_props.rs` against an
//! in-memory model).

use std::collections::BTreeMap;
use std::sync::Arc;

use parking_lot::Mutex;

use crate::state::{LongTermState, StateBackend};
use crate::{CoreError, Result};

/// Cache sizing and policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheConfig {
    /// Number of lock shards. More shards, less contention; user ids hash
    /// onto shards, so any count works functionally.
    pub shards: usize,
    /// Maximum resident entries per shard; the least-recently-used entry
    /// is evicted (flushing it if dirty) when a shard would exceed this.
    pub capacity_per_shard: usize,
    /// `true` pushes every save straight to the store (no batching);
    /// `false` (the default) is write-behind.
    pub write_through: bool,
}

impl Default for CacheConfig {
    fn default() -> Self {
        Self {
            shards: 16,
            capacity_per_shard: 4096,
            write_through: false,
        }
    }
}

impl CacheConfig {
    /// Validate the configuration.
    pub fn validate(&self) -> Result<()> {
        if self.shards == 0 {
            return Err(CoreError::InvalidConfig(
                "cache needs at least one shard".into(),
            ));
        }
        if self.capacity_per_shard == 0 {
            return Err(CoreError::InvalidConfig(
                "cache shard capacity must be positive".into(),
            ));
        }
        Ok(())
    }
}

/// Running counters of cache behaviour (aggregated over shards).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Loads answered from memory.
    pub hits: u64,
    /// Loads that fell through to the store.
    pub misses: u64,
    /// LRU evictions.
    pub evictions: u64,
    /// Entries written to the store (flushes, evictions, write-through).
    pub writes: u64,
}

#[derive(Debug)]
struct Entry {
    state: LongTermState,
    dirty: bool,
    last_used: u64,
}

#[derive(Debug, Default)]
struct CacheShard {
    /// Resident entries, keyed by user id. A `BTreeMap` rather than a
    /// hash map so iteration (the flush snapshot below) is in ascending
    /// user-id order by construction — write-behind flush order must
    /// never depend on a process-seeded hash (detlint rule D1).
    map: BTreeMap<u64, Entry>,
    /// LRU index: `(last_used, user_id)` kept in lockstep with `map`, so
    /// the eviction victim is `O(log n)` instead of a full map scan.
    lru: std::collections::BTreeSet<(u64, u64)>,
    /// Monotonic use counter backing the LRU order.
    tick: u64,
    stats: CacheStats,
}

impl CacheShard {
    /// Insert or overwrite an entry, keeping the LRU index in lockstep.
    fn upsert(&mut self, user_id: u64, state: LongTermState, dirty: bool) {
        self.tick += 1;
        let tick = self.tick;
        if let Some(old) = self.map.insert(
            user_id,
            Entry {
                state,
                dirty,
                last_used: tick,
            },
        ) {
            self.lru.remove(&(old.last_used, user_id));
        }
        self.lru.insert((tick, user_id));
    }

    /// Remove an entry, keeping the LRU index in lockstep.
    fn remove(&mut self, user_id: u64) -> Option<Entry> {
        let entry = self.map.remove(&user_id)?;
        self.lru.remove(&(entry.last_used, user_id));
        Some(entry)
    }

    /// Evict least-recently-used entries until `capacity` holds, writing
    /// dirty victims through to `backend`.
    fn enforce_capacity(&mut self, capacity: usize, backend: &dyn StateBackend) -> Result<()> {
        while self.map.len() > capacity {
            let (_, victim) = *self.lru.first().expect("lru in lockstep with map");
            let entry = self.remove(victim).expect("victim present");
            self.stats.evictions += 1;
            if entry.dirty {
                backend.save(&entry.state)?;
                self.stats.writes += 1;
            }
        }
        Ok(())
    }
}

/// A sharded in-memory cache in front of a durable [`StateBackend`].
///
/// All methods take `&self`; the per-shard `parking_lot` mutexes make the
/// cache shareable across worker threads without an outer lock.
#[derive(Debug)]
pub struct ShardedStateCache {
    backend: Arc<dyn StateBackend>,
    shards: Vec<Mutex<CacheShard>>,
    capacity_per_shard: usize,
    write_through: bool,
}

impl ShardedStateCache {
    /// Wrap any [`StateBackend`] with a cache configured by `config`.
    pub fn with_backend(backend: Arc<dyn StateBackend>, config: CacheConfig) -> Result<Self> {
        config.validate()?;
        Ok(Self {
            backend,
            shards: (0..config.shards)
                .map(|_| Mutex::new(CacheShard::default()))
                .collect(),
            capacity_per_shard: config.capacity_per_shard,
            write_through: config.write_through,
        })
    }

    /// The durable layer underneath.
    pub fn backend(&self) -> &dyn StateBackend {
        self.backend.as_ref()
    }

    /// Number of lock shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    fn shard_for(&self, user_id: u64) -> &Mutex<CacheShard> {
        // Fibonacci hashing spreads sequential ids across shards.
        let h = user_id.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        &self.shards[(h >> 32) as usize % self.shards.len()]
    }

    /// Load a user's state; `None` for users never saved. Misses fall
    /// through to the store and populate the cache.
    pub fn load(&self, user_id: u64) -> Result<Option<LongTermState>> {
        let mut shard = self.shard_for(user_id).lock();
        shard.tick += 1;
        let tick = shard.tick;
        if let Some(e) = shard.map.get_mut(&user_id) {
            let prev = std::mem::replace(&mut e.last_used, tick);
            let state = e.state.clone();
            shard.lru.remove(&(prev, user_id));
            shard.lru.insert((tick, user_id));
            shard.stats.hits += 1;
            return Ok(Some(state));
        }
        shard.stats.misses += 1;
        match self.backend.load(user_id)? {
            Some(state) => {
                shard.upsert(user_id, state.clone(), false);
                shard.enforce_capacity(self.capacity_per_shard, self.backend.as_ref())?;
                Ok(Some(state))
            }
            None => Ok(None),
        }
    }

    /// Load a user's state, creating a fresh [`LongTermState`] for
    /// first-time users (not yet persisted — a later `save`/`flush` does
    /// that, exactly like the direct-store path).
    pub fn load_or_new(&self, user_id: u64) -> Result<LongTermState> {
        Ok(self
            .load(user_id)?
            .unwrap_or_else(|| LongTermState::new(user_id)))
    }

    /// Save a user's state. Write-behind: the entry is dirtied in memory
    /// and reaches the store on the next `flush`/eviction. Write-through
    /// configurations persist immediately.
    pub fn save(&self, state: &LongTermState) -> Result<()> {
        let mut shard = self.shard_for(state.user_id).lock();
        if self.write_through {
            // Persist while holding the shard lock: two racing saves of
            // the same user must leave cache and store agreeing on one of
            // the two values, never one each.
            self.backend.save(state)?;
            shard.stats.writes += 1;
        }
        shard.upsert(state.user_id, state.clone(), !self.write_through);
        shard.enforce_capacity(self.capacity_per_shard, self.backend.as_ref())
    }

    /// Drop a user from the cache, persisting the entry first when dirty.
    /// Returns whether the user was resident.
    pub fn evict(&self, user_id: u64) -> Result<bool> {
        let mut shard = self.shard_for(user_id).lock();
        match shard.remove(user_id) {
            Some(entry) => {
                shard.stats.evictions += 1;
                if entry.dirty {
                    self.backend.save(&entry.state)?;
                    shard.stats.writes += 1;
                }
                Ok(true)
            }
            None => Ok(false),
        }
    }

    /// Write every dirty entry to the backend (durably — the backend is
    /// flushed too) and mark the cache clean. Returns how many entries
    /// were written.
    ///
    /// Dirty entries are snapshotted under the shard locks in ascending
    /// `(shard, user_id)` order, handed to [`StateBackend::save_batch`]
    /// in one call without holding any lock (the binary log turns it
    /// into sequential appends), then marked clean — but only when the
    /// cached state still equals the snapshot that was written, so a save
    /// racing the flush keeps its entry dirty for the next flush instead
    /// of being lost.
    pub fn flush(&self) -> Result<usize> {
        // Phase 1: snapshot dirty entries under the shard locks.
        let mut batch: Vec<(usize, LongTermState)> = Vec::new();
        for (si, shard) in self.shards.iter().enumerate() {
            let shard = shard.lock();
            // BTreeMap::values is ascending user-id order, so the batch
            // is already sorted per shard — no post-hoc sort needed.
            batch.extend(
                shard
                    .map
                    .values()
                    .filter(|e| e.dirty)
                    .map(|e| (si, e.state.clone())),
            );
        }
        let written = batch.len();

        // Phase 2: persist without holding any lock, then make the
        // backend durable (drains any append buffers).
        let refs: Vec<&LongTermState> = batch.iter().map(|(_, s)| s).collect();
        self.backend.save_batch(&refs)?;
        drop(refs);
        self.backend.flush()?;

        // Phase 3: mark clean unless the entry moved on meanwhile.
        for (si, state) in &batch {
            let mut shard = self.shards[*si].lock();
            // detlint::allow(unordered_float_merge, reason = "u64 write counter; addition is associative and order-free")
            shard.stats.writes += 1;
            if let Some(entry) = shard.map.get_mut(&state.user_id) {
                if entry.dirty && entry.state == *state {
                    entry.dirty = false;
                }
            }
        }
        Ok(written)
    }

    /// Resident entries across all shards.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.lock().map.len()).sum()
    }

    /// Whether nothing is resident.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Aggregate behaviour counters.
    pub fn stats(&self) -> CacheStats {
        let mut total = CacheStats::default();
        for shard in &self.shards {
            let s = shard.lock().stats;
            total.hits += s.hits;
            total.misses += s.misses;
            total.evictions += s.evictions;
            total.writes += s.writes;
        }
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::binlog::{BinLogConfig, BinaryStateLog};
    use std::fs;
    use std::path::PathBuf;

    fn temp_store(tag: &str) -> (PathBuf, Arc<BinaryStateLog>) {
        let dir =
            std::env::temp_dir().join(format!("lingxi_cache_test_{tag}_{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let store = BinaryStateLog::open(&dir, BinLogConfig::default()).unwrap();
        (dir, Arc::new(store))
    }

    fn state(user_id: u64, optimizations: usize) -> LongTermState {
        LongTermState {
            optimizations,
            ..LongTermState::new(user_id)
        }
    }

    #[test]
    fn write_behind_defers_until_flush() {
        let (dir, store) = temp_store("behind");
        let cache = ShardedStateCache::with_backend(store.clone(), CacheConfig::default()).unwrap();
        cache.save(&state(1, 3)).unwrap();
        // Not yet durable...
        assert!(store.load(1).unwrap().is_none());
        // ...but visible through the cache.
        assert_eq!(cache.load(1).unwrap().unwrap().optimizations, 3);
        assert_eq!(cache.flush().unwrap(), 1);
        assert_eq!(store.load(1).unwrap().unwrap().optimizations, 3);
        // Second flush is a no-op: nothing dirty.
        assert_eq!(cache.flush().unwrap(), 0);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn write_through_persists_immediately() {
        let (dir, store) = temp_store("through");
        let cfg = CacheConfig {
            write_through: true,
            ..CacheConfig::default()
        };
        let cache = ShardedStateCache::with_backend(store.clone(), cfg).unwrap();
        cache.save(&state(2, 5)).unwrap();
        assert_eq!(store.load(2).unwrap().unwrap().optimizations, 5);
        assert_eq!(cache.flush().unwrap(), 0);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn lru_eviction_flushes_dirty_victims() {
        let (dir, store) = temp_store("lru");
        let cfg = CacheConfig {
            shards: 1,
            capacity_per_shard: 2,
            write_through: false,
        };
        let cache = ShardedStateCache::with_backend(store.clone(), cfg).unwrap();
        cache.save(&state(1, 1)).unwrap();
        cache.save(&state(2, 2)).unwrap();
        // Touch 1 so 2 becomes the LRU victim.
        cache.load(1).unwrap();
        cache.save(&state(3, 3)).unwrap();
        assert_eq!(cache.len(), 2);
        // The evicted dirty entry landed in the store.
        assert_eq!(store.load(2).unwrap().unwrap().optimizations, 2);
        assert!(store.load(1).unwrap().is_none(), "1 still write-behind");
        assert!(cache.stats().evictions >= 1);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn evict_and_reload_round_trips() {
        let (dir, store) = temp_store("evict");
        let cache = ShardedStateCache::with_backend(store, CacheConfig::default()).unwrap();
        cache.save(&state(7, 9)).unwrap();
        assert!(cache.evict(7).unwrap());
        assert!(!cache.evict(7).unwrap());
        // Reload falls through to the store copy the eviction wrote.
        assert_eq!(cache.load(7).unwrap().unwrap().optimizations, 9);
        assert_eq!(cache.load_or_new(99).unwrap().optimizations, 0);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn concurrent_saves_from_many_threads() {
        let (dir, store) = temp_store("threads");
        let cache = ShardedStateCache::with_backend(store.clone(), CacheConfig::default()).unwrap();
        std::thread::scope(|scope| {
            for t in 0..8u64 {
                let cache = &cache;
                scope.spawn(move || {
                    for i in 0..50u64 {
                        let id = t * 1000 + i;
                        cache.save(&state(id, id as usize)).unwrap();
                        assert_eq!(cache.load(id).unwrap().unwrap().user_id, id);
                    }
                });
            }
        });
        assert_eq!(cache.len(), 400);
        assert_eq!(cache.flush().unwrap(), 400);
        assert_eq!(store.list().unwrap().len(), 400);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn config_validation() {
        let (dir, store) = temp_store("cfg");
        assert!(ShardedStateCache::with_backend(
            store.clone(),
            CacheConfig {
                shards: 0,
                ..CacheConfig::default()
            }
        )
        .is_err());
        assert!(ShardedStateCache::with_backend(
            store,
            CacheConfig {
                capacity_per_shard: 0,
                ..CacheConfig::default()
            }
        )
        .is_err());
        let _ = fs::remove_dir_all(&dir);
    }
}
