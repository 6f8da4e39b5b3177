//! Dual-layer state management (paper §4 "Seamless Integration").
//!
//! Long-term state (user stall history, engagement, best parameters) is
//! serialized when the app terminates and restored on startup; short-term
//! state is rebuilt per session. The paper uses HDF5 files on the client;
//! we substitute the binary state log (see DESIGN.md) — the property under
//! test is the persistence *split*, not the container format.

use lingxi_abr::QoeParams;
use lingxi_exit::UserStateTracker;

use crate::Result;

/// Long-term (cross-session) state of one user.
///
/// `clone_from` copies into the target's tracker windows rather than
/// replacing them, so the state cache can recycle an evicted entry's
/// allocations for the next resident.
#[derive(Debug, PartialEq)]
pub struct LongTermState {
    /// Owner.
    pub user_id: u64,
    /// Stall/engagement history feeding the exit predictor.
    pub tracker: UserStateTracker,
    /// Last deployed parameters (warm start on restart).
    pub params: QoeParams,
    /// Lifetime optimization count.
    pub optimizations: usize,
}

impl Clone for LongTermState {
    fn clone(&self) -> Self {
        Self {
            user_id: self.user_id,
            tracker: self.tracker.clone(),
            params: self.params,
            optimizations: self.optimizations,
        }
    }

    fn clone_from(&mut self, source: &Self) {
        self.user_id = source.user_id;
        self.tracker.clone_from(&source.tracker);
        self.params = source.params;
        self.optimizations = source.optimizations;
    }
}

impl LongTermState {
    /// Fresh state for a new user.
    pub fn new(user_id: u64) -> Self {
        Self {
            user_id,
            tracker: UserStateTracker::new(),
            params: QoeParams::default(),
            optimizations: 0,
        }
    }
}

/// A durable layer for per-user [`LongTermState`].
///
/// One implementation exists, the sharded append-only
/// [`BinaryStateLog`]; the [`ShardedStateCache`] holds it behind
/// `Arc<dyn StateBackend>`. `tests/cache_props.rs` holds both, directly
/// and through the cache, to an in-memory map from user id to state.
///
/// The trait is put-only. The write-behind cache could not honour a
/// delete — a dirty resident entry would resurrect the user at the next
/// flush, a clean one would keep being served from memory.
///
/// Durability contract: `save`/`save_batch` may buffer; [`flush`] makes
/// every prior write durable against a killed process, and [`checkpoint`]
/// additionally compacts the on-disk representation. The log never calls
/// fsync, so a power cut or a kernel crash may still lose what it
/// acknowledged.
///
/// [`BinaryStateLog`]: crate::binlog::BinaryStateLog
/// [`ShardedStateCache`]: crate::cache::ShardedStateCache
/// [`flush`]: StateBackend::flush
/// [`checkpoint`]: StateBackend::checkpoint
pub trait StateBackend: std::fmt::Debug + Send + Sync {
    /// Persist one user's long-term state (latest write wins).
    fn save(&self, state: &LongTermState) -> Result<()>;

    /// Persist a batch of states, in order; returns how many were
    /// written. The batch is the fleet flush path.
    fn save_batch(&self, batch: &[&LongTermState]) -> Result<usize>;

    /// Load a user's state; `None` for first-time users.
    fn load(&self, user_id: u64) -> Result<Option<LongTermState>>;

    /// Enumerate the backend: all persisted user ids (ascending) plus
    /// one warning per malformed / unrecoverable entry encountered.
    fn scan(&self) -> Result<StateScan>;

    /// User ids currently persisted, ascending (lossy: drops warnings).
    fn list(&self) -> Result<Vec<u64>> {
        Ok(self.scan()?.ids)
    }

    /// Make every prior write durable.
    fn flush(&self) -> Result<()>;

    /// Flush and compact the on-disk representation so recovery cost is
    /// proportional to live users, not historical writes.
    fn checkpoint(&self) -> Result<()>;
}

/// Result of [`StateBackend::scan`]: the persisted user ids plus one
/// warning per entry that could not be attributed to a user.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct StateScan {
    /// Persisted user ids, ascending.
    pub ids: Vec<u64>,
    /// Human-readable descriptions of malformed entries, sorted.
    pub warnings: Vec<String>,
}
