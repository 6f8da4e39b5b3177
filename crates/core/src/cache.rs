//! Sharded, write-behind cache over a durable [`StateBackend`].
//!
//! The durable layer (paper §4: long-term state survives app termination)
//! is the right place for persistence, but a fleet simulation that
//! touches tens of thousands of users per epoch cannot afford a durable
//! round-trip per session. [`ShardedStateCache`] interposes an in-memory
//! layer: user ids hash onto lock shards (interior mutability via
//! `parking_lot::Mutex`, so workers share one `&ShardedStateCache`), each
//! shard holds an LRU-bounded set of [`LongTermState`]s, and writes are
//! *write-behind* — they dirty the cached entry and only reach the
//! backend in batches ([`ShardedStateCache::flush`], called at fleet
//! epoch barriers) or when an LRU eviction forces a single entry out.
//!
//! **Layout.** A shard keeps its entries in a slab: slots in chunks of
//! 64, allocated one chunk at a time as the shard fills, so no shard
//! holds one block of `capacity_per_shard` entries and no slot ever
//! moves. A `BTreeMap` from user id to slot index finds a user, in
//! ascending id order. The LRU order is a doubly-linked list threaded
//! through the slots by index: a hit moves its slot to the newest end and
//! the victim is the oldest end, both O(1). It is the order of a
//! per-shard use counter, so the victims are those of a
//! `(last_used, user_id)` set.
//!
//! **Recycled slots.** A user admitted into a full shard takes the
//! victim's slot, and the victim's tracker windows receive the new state
//! through `clone_from`, so a steady-state save allocates nothing. A
//! dirty victim is written to the backend *before* its slot is given up;
//! if that write fails, the victim stays resident and dirty, and the call
//! that needed the slot fails. [`ShardedStateCache::evict`] keeps the
//! same order.
//!
//! **Flush.** [`ShardedStateCache::flush`] hands each shard's dirty
//! states to [`StateBackend::save_batch`] by reference, under that
//! shard's lock, in `(shard, user_id)` order; the
//! [`BinaryStateLog`](crate::binlog::BinaryStateLog) encodes them
//! straight into its append buffers. No state is copied. A slot carries
//! the shard's save count at its last save, so once the backend is
//! flushed an entry is marked clean only if no save has landed on it
//! since it was written.
//!
//! The observable contract is that the cache is transparent: any
//! interleaving of `save`/`load`/`evict`/`flush` leaves the durable layer
//! in the same state as calling the backend directly once a final
//! `flush` lands (property-tested in `tests/cache_props.rs` against an
//! in-memory model, and against a reference cache with a tick-ordered LRU
//! set for victims, counters and the backend's write sequence).

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

/// Slots per slab chunk.
const CHUNK: usize = 64;
/// The missing neighbour at either end of the LRU list.
const NIL: u32 = u32::MAX;

#[derive(Debug)]
struct Slot {
    state: LongTermState,
    dirty: bool,
    /// The shard's save count when this slot was last saved into.
    saved_at: u64,
    /// LRU neighbour towards the oldest end.
    older: u32,
    /// LRU neighbour towards the newest end.
    newer: u32,
}

#[derive(Debug)]
struct CacheShard {
    /// Resident users → slot. A `BTreeMap` rather than a hash map so
    /// iteration (the flush below) is in ascending user-id order by
    /// construction — write-behind flush order must never depend on a
    /// process-seeded hash (detlint rule D1).
    index: BTreeMap<u64, u32>,
    /// The slab: slot `i` is `chunks[i / CHUNK][i % CHUNK]`.
    chunks: Vec<Vec<Slot>>,
    /// Slots released by `evict`, reused before the slab grows.
    free: Vec<u32>,
    /// Least recently used resident slot (`NIL` when empty).
    oldest: u32,
    /// Most recently used resident slot (`NIL` when empty).
    newest: u32,
    /// Saves so far; stamps `Slot::saved_at`.
    saves: u64,
    stats: CacheStats,
}

impl CacheShard {
    fn new() -> Self {
        Self {
            index: BTreeMap::new(),
            chunks: Vec::new(),
            free: Vec::new(),
            oldest: NIL,
            newest: NIL,
            saves: 0,
            stats: CacheStats::default(),
        }
    }

    fn slot(&self, i: u32) -> &Slot {
        &self.chunks[i as usize / CHUNK][i as usize % CHUNK]
    }

    fn slot_mut(&mut self, i: u32) -> &mut Slot {
        &mut self.chunks[i as usize / CHUNK][i as usize % CHUNK]
    }

    fn unlink(&mut self, i: u32) {
        let (older, newer) = {
            let s = self.slot(i);
            (s.older, s.newer)
        };
        match older {
            NIL => self.oldest = newer,
            o => self.slot_mut(o).newer = newer,
        }
        match newer {
            NIL => self.newest = older,
            n => self.slot_mut(n).older = older,
        }
    }

    fn push_newest(&mut self, i: u32) {
        let prev = self.newest;
        let s = self.slot_mut(i);
        s.older = prev;
        s.newer = NIL;
        match prev {
            NIL => self.oldest = i,
            p => self.slot_mut(p).newer = i,
        }
        self.newest = i;
    }

    fn touch(&mut self, i: u32) {
        if self.newest != i {
            self.unlink(i);
            self.push_newest(i);
        }
    }

    /// Write slot `i` to `backend` if dirty, then detach it from the index
    /// and the LRU list. On a failed write nothing changes: the entry
    /// stays resident and dirty.
    fn detach(&mut self, i: u32, backend: &dyn StateBackend) -> Result<()> {
        let slot = self.slot_mut(i);
        if slot.dirty {
            backend.save(&slot.state)?;
            slot.dirty = false;
            self.stats.writes += 1;
        }
        self.stats.evictions += 1;
        let user_id = self.slot(i).state.user_id;
        self.index.remove(&user_id);
        self.unlink(i);
        Ok(())
    }

    /// A detached slot for a new resident: a free one, a fresh one while
    /// the shard is below `capacity`, else the LRU victim's, written
    /// through to `backend` first when dirty.
    fn vacant(&mut self, capacity: usize, backend: &dyn StateBackend) -> Result<u32> {
        if self.index.len() >= capacity {
            let victim = self.oldest;
            self.detach(victim, backend)?;
            return Ok(victim);
        }
        if let Some(i) = self.free.pop() {
            return Ok(i);
        }
        if self.chunks.last().is_none_or(|c| c.len() == CHUNK) {
            let allocated = self.chunks.len() * CHUNK;
            self.chunks
                .push(Vec::with_capacity(CHUNK.min(capacity - allocated)));
        }
        let chunk = self.chunks.len() - 1;
        let i = chunk * CHUNK + self.chunks[chunk].len();
        self.chunks[chunk].push(Slot {
            state: LongTermState::new(0),
            dirty: false,
            saved_at: 0,
            older: NIL,
            newer: NIL,
        });
        Ok(u32::try_from(i).expect("a shard holds fewer than u32::MAX entries"))
    }

    /// Make `state` resident and most recently used, copying it into the
    /// user's slot (or a vacant one, evicting at capacity).
    fn put(
        &mut self,
        state: &LongTermState,
        dirty: bool,
        capacity: usize,
        backend: &dyn StateBackend,
    ) -> Result<()> {
        let i = match self.index.get(&state.user_id) {
            Some(&i) => {
                self.touch(i);
                i
            }
            None => {
                let i = self.vacant(capacity, backend)?;
                self.index.insert(state.user_id, i);
                self.push_newest(i);
                i
            }
        };
        self.saves += 1;
        let saves = self.saves;
        let slot = self.slot_mut(i);
        slot.state.clone_from(state);
        slot.dirty = dirty;
        slot.saved_at = saves;
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
                .map(|_| Mutex::new(CacheShard::new()))
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
        if let Some(&i) = shard.index.get(&user_id) {
            shard.touch(i);
            shard.stats.hits += 1;
            return Ok(Some(shard.slot(i).state.clone()));
        }
        shard.stats.misses += 1;
        match self.backend.load(user_id)? {
            Some(state) => {
                shard.put(
                    &state,
                    false,
                    self.capacity_per_shard,
                    self.backend.as_ref(),
                )?;
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
        shard.put(
            state,
            !self.write_through,
            self.capacity_per_shard,
            self.backend.as_ref(),
        )
    }

    /// Drop a user from the cache, persisting the entry first when dirty.
    /// Returns whether the user was resident; when the write fails the
    /// user stays resident and dirty.
    pub fn evict(&self, user_id: u64) -> Result<bool> {
        let mut shard = self.shard_for(user_id).lock();
        let Some(&i) = shard.index.get(&user_id) else {
            return Ok(false);
        };
        shard.detach(i, self.backend.as_ref())?;
        shard.free.push(i);
        Ok(true)
    }

    /// Write every dirty entry to the backend (durably — the backend is
    /// flushed too) and mark the cache clean. Returns how many entries
    /// were written.
    ///
    /// Each shard's dirty states go to [`StateBackend::save_batch`] by
    /// reference, under that shard's lock, in ascending `(shard, user_id)`
    /// order. Once the backend is flushed each written entry is marked
    /// clean — but only when no save has landed on it since, so a save
    /// racing the flush keeps its entry dirty for the next flush instead
    /// of being lost.
    pub fn flush(&self) -> Result<usize> {
        // (shard, slot, its save stamp when written), ascending shard.
        let mut written: Vec<(usize, u32, u64)> = Vec::new();
        for (si, shard) in self.shards.iter().enumerate() {
            let shard = shard.lock();
            let from = written.len();
            written.extend(shard.index.values().filter_map(|&i| {
                let slot = shard.slot(i);
                slot.dirty.then_some((si, i, slot.saved_at))
            }));
            let batch: Vec<&LongTermState> = written[from..]
                .iter()
                .map(|&(_, i, _)| &shard.slot(i).state)
                .collect();
            self.backend.save_batch(&batch)?;
        }
        self.backend.flush()?;

        for run in written.chunk_by(|a, b| a.0 == b.0) {
            let mut shard = self.shards[run[0].0].lock();
            shard.stats.writes += run.len() as u64;
            for &(_, i, saved_at) in run {
                let slot = shard.slot_mut(i);
                if slot.saved_at == saved_at {
                    slot.dirty = false;
                }
            }
        }
        Ok(written.len())
    }

    /// Resident entries across all shards.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.lock().index.len()).sum()
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

    /// An in-memory backend whose saves of `fail_id` fail while `failing`
    /// is set.
    #[derive(Debug, Default)]
    struct FailingBackend {
        fail_id: u64,
        failing: std::sync::atomic::AtomicBool,
        saved: Mutex<BTreeMap<u64, LongTermState>>,
    }

    impl StateBackend for FailingBackend {
        fn save(&self, state: &LongTermState) -> Result<()> {
            use std::sync::atomic::Ordering;
            if state.user_id == self.fail_id && self.failing.load(Ordering::Relaxed) {
                return Err(CoreError::Persistence("injected write failure".into()));
            }
            self.saved.lock().insert(state.user_id, state.clone());
            Ok(())
        }

        fn save_batch(&self, batch: &[&LongTermState]) -> Result<usize> {
            for state in batch {
                self.save(state)?;
            }
            Ok(batch.len())
        }

        fn load(&self, user_id: u64) -> Result<Option<LongTermState>> {
            Ok(self.saved.lock().get(&user_id).cloned())
        }

        fn scan(&self) -> Result<crate::state::StateScan> {
            Ok(crate::state::StateScan {
                ids: self.saved.lock().keys().copied().collect(),
                warnings: Vec::new(),
            })
        }

        fn flush(&self) -> Result<()> {
            Ok(())
        }

        fn checkpoint(&self) -> Result<()> {
            Ok(())
        }
    }

    /// A dirty victim whose write fails stays resident and dirty: the
    /// save that needed its slot and an explicit `evict` both fail, and
    /// the state reaches the store once the backend recovers.
    #[test]
    fn a_failed_eviction_write_keeps_the_victim_resident_and_dirty() {
        let backend = Arc::new(FailingBackend {
            fail_id: 13,
            failing: true.into(),
            ..FailingBackend::default()
        });
        let cfg = CacheConfig {
            shards: 1,
            capacity_per_shard: 2,
            write_through: false,
        };
        let cache = ShardedStateCache::with_backend(backend.clone(), cfg).unwrap();
        cache.save(&state(13, 1)).unwrap();
        cache.save(&state(1, 2)).unwrap();
        // 13 is the LRU victim of a third user, and its write fails.
        assert!(cache.save(&state(2, 3)).is_err());
        assert!(cache.evict(13).is_err());
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.stats().evictions, 0);
        assert_eq!(cache.load(13).unwrap(), Some(state(13, 1)));
        assert!(backend.saved.lock().is_empty());
        backend
            .failing
            .store(false, std::sync::atomic::Ordering::Relaxed);
        assert_eq!(cache.flush().unwrap(), 2);
        assert_eq!(backend.load(13).unwrap(), Some(state(13, 1)));
        assert_eq!(backend.load(1).unwrap(), Some(state(1, 2)));
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
