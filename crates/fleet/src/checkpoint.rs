//! Epoch-barrier checkpoint manifests: kill a fleet run, resume it, and
//! get bit-identical merged metrics.
//!
//! The engine's determinism model makes this almost free: every (user,
//! epoch) derives its own RNG stream from the base seed alone, and the
//! epoch barrier flushes all long-term state to the durable backend. So
//! immediately after barrier `k`, epoch `k+1` is a pure function of
//! (config, scenario, durable state) — the only things a checkpoint must
//! carry are the already-merged per-epoch metrics and the running
//! counters. The manifest is JSON written with temp + rename (atomic
//! install, like every other durable artifact in the workspace); `f64`
//! fields are finite by construction and Rust's shortest-round-trip float
//! formatting makes the JSON round-trip bit-exact.

use std::path::{Path, PathBuf};

use serde::{Deserialize, Serialize};

use crate::report::EpochMetrics;
use crate::{FleetError, Result};

/// Version of the checkpoint manifest schema. v2: epochs carry the
/// dispatch-layer record (`EpochMetrics::dispatch`) — a resumed LSQ run
/// re-seeds its estimates from the last completed epoch's placements, so
/// v1 manifests (which cannot carry one) are refused rather than resumed
/// with silently reset estimates.
pub const CHECKPOINT_SCHEMA: u32 = 2;

/// Filename of the manifest inside the state directory.
pub const CHECKPOINT_FILE: &str = "fleet_ckpt.json";

/// Everything needed to restart a fleet run from an epoch barrier.
// detlint::allow(serde_derive, reason = "the whole of fleet_ckpt.json")
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FleetCheckpoint {
    /// Manifest schema version.
    pub schema: u32,
    /// Base seed of the checkpointed run (resume refuses a mismatch).
    pub seed: u64,
    /// Total epochs the run is configured for.
    pub total_epochs: usize,
    /// Scenario label of the checkpointed run (resume refuses a mismatch).
    pub scenario: String,
    /// First epoch the resumed run must execute.
    pub next_epoch: usize,
    /// Users seen so far (static cohort size, or arrivals to date).
    pub users_total: usize,
    /// Sessions played so far.
    pub sessions: usize,
    /// Segments downloaded so far.
    pub segments: usize,
    /// Wall-clock seconds consumed before the checkpoint (reporting only;
    /// never feeds simulated state).
    pub elapsed_s: f64,
    /// Merged metrics of every completed epoch.
    pub epochs: Vec<EpochMetrics>,
}

impl FleetCheckpoint {
    /// Path of the manifest inside `state_dir`.
    pub fn path_in(state_dir: &Path) -> PathBuf {
        state_dir.join(CHECKPOINT_FILE)
    }

    /// Atomically write the manifest into `state_dir` (temp + rename).
    pub fn save(&self, state_dir: &Path) -> Result<()> {
        let path = Self::path_in(state_dir);
        let json = serde_json::to_string(self)
            .map_err(|e| FleetError::Subsystem(format!("serialize checkpoint: {e}")))?;
        let tmp = path.with_extension("json.tmp");
        std::fs::write(&tmp, json)
            .map_err(|e| FleetError::Subsystem(format!("write {tmp:?}: {e}")))?;
        std::fs::rename(&tmp, &path)
            .map_err(|e| FleetError::Subsystem(format!("rename to {path:?}: {e}")))?;
        Ok(())
    }

    /// Load the manifest from `state_dir`; `None` when no checkpoint
    /// exists there.
    pub fn load(state_dir: &Path) -> Result<Option<Self>> {
        let path = Self::path_in(state_dir);
        let json = match std::fs::read_to_string(&path) {
            Ok(json) => json,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
            Err(e) => return Err(FleetError::Subsystem(format!("read {path:?}: {e}"))),
        };
        let ckpt: Self = serde_json::from_str(&json)
            .map_err(|e| FleetError::Subsystem(format!("parse {path:?}: {e}")))?;
        if ckpt.schema != CHECKPOINT_SCHEMA {
            return Err(FleetError::InvalidConfig(format!(
                "checkpoint schema v{} in {path:?}, this build reads v{CHECKPOINT_SCHEMA}",
                ckpt.schema
            )));
        }
        Ok(Some(ckpt))
    }

    /// Remove the manifest (a completed run leaves no checkpoint behind).
    pub fn remove(state_dir: &Path) -> Result<()> {
        let path = Self::path_in(state_dir);
        match std::fs::remove_file(&path) {
            Ok(()) => Ok(()),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(()),
            Err(e) => Err(FleetError::Subsystem(format!("remove {path:?}: {e}"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::EpochSketches;
    use lingxi_abtest::DayMetrics;

    #[test]
    fn manifest_roundtrips_bit_exactly() {
        let scratch = crate::harness::ScratchDir::claim();
        let dir = scratch.path();
        std::fs::create_dir_all(dir).unwrap();
        let mut sketches = EpochSketches::new();
        sketches.push(&lingxi_player::SessionSummary {
            user_id: 1,
            watch_time: 733.125,
            total_stall: 1.25,
            stall_count: 1,
            mean_bitrate: 1387.3333333333333,
            switch_count: 0,
            completed: false,
            segments: 10,
        });
        let ckpt = FleetCheckpoint {
            schema: CHECKPOINT_SCHEMA,
            seed: 42,
            total_epochs: 6,
            scenario: "bench".into(),
            next_epoch: 3,
            users_total: 1234,
            sessions: 5678,
            segments: 91011,
            elapsed_s: 12.345678901234567,
            epochs: vec![EpochMetrics {
                epoch: 2,
                all: DayMetrics {
                    watch_time: 0.1 + 0.2, // non-representable sum on purpose
                    stall_time: 3.0,
                    mean_bitrate: 1500.5,
                    sessions: 9,
                    completions: 7,
                    stall_count: 2,
                    switches: 4,
                },
                control: None,
                treatment: Some(DayMetrics::default()),
                classes: vec![DayMetrics::default()],
                sketches,
                flushed: 17,
                dispatch: Some(crate::dispatch::DispatchEpoch {
                    placements: vec![5, 0, 4],
                    max_weighted_occupancy: 1.25,
                    dispatcher_loads: vec![6, 3],
                }),
                solver: Some(lingxi_net::SolverStats {
                    calls: 1000,
                    sweeps: 1300,
                    non_converged: 1,
                    max_kkt_residual: 3.0e-10 / 7.0,
                }),
            }],
        };
        assert!(FleetCheckpoint::load(dir).unwrap().is_none());
        ckpt.save(dir).unwrap();
        let back = FleetCheckpoint::load(dir).unwrap().unwrap();
        assert_eq!(back, ckpt);
        // Bit-exact, not approximately equal.
        assert_eq!(
            back.epochs[0].all.watch_time.to_bits(),
            ckpt.epochs[0].all.watch_time.to_bits()
        );

        // An epoch written without the `dispatch` and `solver` keys loads
        // with `None` for both (`#[serde(default)]`).
        let bare = FleetCheckpoint {
            epochs: vec![EpochMetrics {
                dispatch: None,
                solver: None,
                ..ckpt.epochs[0].clone()
            }],
            ..ckpt.clone()
        };
        let json = serde_json::to_string(&bare).unwrap();
        let without = json.replace(",\"dispatch\":null,\"solver\":null", "");
        assert!(!without.contains("dispatch") && !without.contains("solver"));
        std::fs::write(FleetCheckpoint::path_in(dir), without).unwrap();
        assert_eq!(FleetCheckpoint::load(dir).unwrap().unwrap(), bare);

        FleetCheckpoint::remove(dir).unwrap();
        assert!(FleetCheckpoint::load(dir).unwrap().is_none());
        FleetCheckpoint::remove(dir).unwrap(); // idempotent
    }
}
