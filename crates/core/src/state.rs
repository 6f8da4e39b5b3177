//! Dual-layer state management (paper §4 "Seamless Integration").
//!
//! Long-term state (user stall history, engagement, best parameters) is
//! serialized when the app terminates and restored on startup; short-term
//! state is rebuilt per session. The paper uses HDF5 files on the client;
//! we substitute JSON via `serde_json` (see DESIGN.md) — the property under
//! test is the persistence *split*, not the container format.

use std::fs;
use std::path::{Path, PathBuf};

use lingxi_abr::QoeParams;
use lingxi_exit::UserStateTracker;
use serde::{Deserialize, Serialize};

use crate::{CoreError, Result};

/// Long-term (cross-session) state of one user.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
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
/// The fleet runs on one implementation, the sharded append-only
/// [`BinaryStateLog`]. The file-per-user [`StateStore`] implements the
/// trait too, for two reasons only: it is the paper's §4 *client* store
/// (what `examples/personalized_streaming.rs` persists), and it is the
/// reference `tests/cache_props.rs` holds the log to — the same
/// operation script must leave both backends observably equal, directly
/// and through the [`ShardedStateCache`]. Nothing converts one layout
/// into the other; the engine only refuses a `state_dir` that holds
/// `user_<id>.json` files and no log manifest, a check on outside input
/// (opening a log there would silently start every user fresh).
///
/// The trait is put-only. The write-behind cache could not honour a
/// delete — a dirty resident entry would resurrect the user at the next
/// flush, a clean one would keep being served from memory.
///
/// Durability contract: `save`/`save_batch` may buffer; [`flush`] makes
/// every prior write durable against a killed process, and [`checkpoint`]
/// additionally compacts the on-disk representation. Neither backend
/// calls fsync, so a power cut or a kernel crash may still lose what
/// they acknowledged.
///
/// [`BinaryStateLog`]: crate::binlog::BinaryStateLog
/// [`ShardedStateCache`]: crate::cache::ShardedStateCache
/// [`flush`]: StateBackend::flush
/// [`checkpoint`]: StateBackend::checkpoint
pub trait StateBackend: std::fmt::Debug + Send + Sync {
    /// Persist one user's long-term state (latest write wins).
    fn save(&self, state: &LongTermState) -> Result<()>;

    /// Persist a batch of states; returns how many were written. The
    /// batch is the fleet flush path; this loop is its reference
    /// semantics, which the log overrides with sequential appends.
    fn save_batch(&self, batch: &[&LongTermState]) -> Result<usize> {
        for state in batch {
            self.save(state)?;
        }
        Ok(batch.len())
    }

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
    fn flush(&self) -> Result<()> {
        Ok(())
    }

    /// Flush and compact the on-disk representation so recovery cost is
    /// proportional to live users, not historical writes.
    fn checkpoint(&self) -> Result<()> {
        self.flush()
    }
}

/// A directory-backed store of per-user long-term state.
#[derive(Debug, Clone)]
pub struct StateStore {
    dir: PathBuf,
}

impl StateStore {
    /// Open (and create) a store rooted at `dir`.
    pub fn open<P: AsRef<Path>>(dir: P) -> Result<Self> {
        let dir = dir.as_ref().to_path_buf();
        fs::create_dir_all(&dir)
            .map_err(|e| CoreError::Persistence(format!("create {dir:?}: {e}")))?;
        Ok(Self { dir })
    }

    fn path_for(&self, user_id: u64) -> PathBuf {
        self.dir.join(format!("user_{user_id}.json"))
    }

    /// Persist one user's long-term state (app-termination hook).
    pub fn save(&self, state: &LongTermState) -> Result<()> {
        let json = serde_json::to_string(state)
            .map_err(|e| CoreError::Persistence(format!("serialize: {e}")))?;
        let path = self.path_for(state.user_id);
        // Write-then-rename so a crash mid-write never corrupts state.
        let tmp = path.with_extension("json.tmp");
        fs::write(&tmp, json).map_err(|e| CoreError::Persistence(format!("write {tmp:?}: {e}")))?;
        fs::rename(&tmp, &path)
            .map_err(|e| CoreError::Persistence(format!("rename to {path:?}: {e}")))?;
        Ok(())
    }

    /// Load a user's state; `None` for first-time users.
    pub fn load(&self, user_id: u64) -> Result<Option<LongTermState>> {
        let path = self.path_for(user_id);
        match fs::read_to_string(&path) {
            Ok(json) => {
                let state = serde_json::from_str(&json)
                    .map_err(|e| CoreError::Persistence(format!("parse {path:?}: {e}")))?;
                Ok(Some(state))
            }
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(None),
            Err(e) => Err(CoreError::Persistence(format!("read {path:?}: {e}"))),
        }
    }

    /// User ids currently persisted. Lossy: entries that do not parse as
    /// `user_<id>.json` are dropped; use [`StateStore::scan`] when the
    /// caller must know about them (fleet startup does).
    pub fn list(&self) -> Result<Vec<u64>> {
        Ok(self.scan()?.ids)
    }

    /// Enumerate the store, reporting malformed entries instead of silently
    /// dropping them: a corrupt or foreign filename in the state directory
    /// means a user whose history would otherwise vanish without a trace.
    pub fn scan(&self) -> Result<StateScan> {
        let mut scan = StateScan::default();
        let entries = fs::read_dir(&self.dir)
            .map_err(|e| CoreError::Persistence(format!("list {:?}: {e}", self.dir)))?;
        for entry in entries.flatten() {
            if entry.path().is_dir() {
                continue;
            }
            let raw = entry.file_name();
            let Some(name) = raw.to_str() else {
                scan.warnings.push("non-UTF-8 filename in state dir".into());
                continue;
            };
            if name.ends_with(".json.tmp") {
                // Write-then-rename leftovers from a crash mid-save: the
                // rename never landed, so the durable copy is still intact.
                scan.warnings.push(format!("stale temp file {name}"));
                continue;
            }
            match name
                .strip_prefix("user_")
                .and_then(|s| s.strip_suffix(".json"))
            {
                Some(stem) => match stem.parse() {
                    Ok(id) => scan.ids.push(id),
                    Err(_) => scan.warnings.push(format!("unparseable user id in {name}")),
                },
                None => scan.warnings.push(format!("foreign file {name}")),
            }
        }
        scan.ids.sort_unstable();
        scan.warnings.sort_unstable();
        Ok(scan)
    }
}

impl StateBackend for StateStore {
    fn save(&self, state: &LongTermState) -> Result<()> {
        StateStore::save(self, state)
    }

    fn load(&self, user_id: u64) -> Result<Option<LongTermState>> {
        StateStore::load(self, user_id)
    }

    fn scan(&self) -> Result<StateScan> {
        StateStore::scan(self)
    }

    fn list(&self) -> Result<Vec<u64>> {
        StateStore::list(self)
    }

    // `save_batch`/`flush`/`checkpoint` are the defaults: every
    // write-then-rename save is already durable on its own, and there is
    // nothing to batch or compact.
}

/// Result of [`StateStore::scan`]: the parseable user ids plus one warning
/// per entry that could not be attributed to a user.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct StateScan {
    /// User ids persisted under well-formed names, ascending.
    pub ids: Vec<u64>,
    /// Human-readable descriptions of malformed entries, sorted.
    pub warnings: Vec<String>,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("lingxi_state_test_{tag}_{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn save_load_roundtrip() {
        let dir = temp_dir("roundtrip");
        let store = StateStore::open(&dir).unwrap();
        let mut state = LongTermState::new(7);
        state.tracker.push_segment(800.0, 1500.0, 2.0);
        state.tracker.push_stall(2.5);
        state.params.beta = 0.55;
        state.optimizations = 3;
        store.save(&state).unwrap();
        let restored = store.load(7).unwrap().unwrap();
        assert_eq!(restored, state);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn missing_user_is_none() {
        let dir = temp_dir("missing");
        let store = StateStore::open(&dir).unwrap();
        assert!(store.load(999).unwrap().is_none());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn list_and_delete() {
        let dir = temp_dir("list");
        let store = StateStore::open(&dir).unwrap();
        for id in [3u64, 1, 2] {
            store.save(&LongTermState::new(id)).unwrap();
        }
        assert_eq!(store.list().unwrap(), vec![1, 2, 3]);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn scan_reports_malformed_entries() {
        let dir = temp_dir("scan");
        let store = StateStore::open(&dir).unwrap();
        for id in [4u64, 9] {
            store.save(&LongTermState::new(id)).unwrap();
        }
        fs::write(dir.join("user_notanumber.json"), "{}").unwrap();
        fs::write(dir.join("README.txt"), "hello").unwrap();
        fs::write(dir.join("user_3.json.tmp"), "{").unwrap();
        let scan = store.scan().unwrap();
        assert_eq!(scan.ids, vec![4, 9]);
        assert_eq!(scan.warnings.len(), 3, "warnings: {:?}", scan.warnings);
        assert!(scan.warnings.iter().any(|w| w.contains("user_notanumber")));
        assert!(scan.warnings.iter().any(|w| w.contains("README.txt")));
        assert!(scan.warnings.iter().any(|w| w.contains("user_3.json.tmp")));
        // `list` stays lossy but consistent with the scan.
        assert_eq!(store.list().unwrap(), scan.ids);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn overwrite_updates_state() {
        let dir = temp_dir("overwrite");
        let store = StateStore::open(&dir).unwrap();
        let mut state = LongTermState::new(5);
        store.save(&state).unwrap();
        state.optimizations = 10;
        store.save(&state).unwrap();
        assert_eq!(store.load(5).unwrap().unwrap().optimizations, 10);
        let _ = fs::remove_dir_all(&dir);
    }
}
