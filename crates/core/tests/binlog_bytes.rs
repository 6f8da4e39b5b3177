//! Byte pin of the files a [`BinaryStateLog`] writes.
//!
//! A scripted sequence drives a 3-shard log through every path that
//! writes bytes: a first compaction, a checkpoint with an empty tail,
//! a tail that overwrites snapshot users and adds ids before, between and
//! after the snapshot's, a reopen that replays a flushed tail and compacts
//! it, and a flushed but uncompacted tail at the end. The test then pins
//! an FNV-1a digest over every file's name and bytes.
//!
//! The script runs at several append-buffer sizes and pins the same digest
//! at each: the bytes do not depend on when appends spill to the file or
//! on how the replay and compaction windows refill. At 600 B and 1 KiB
//! appends spill every few saves; at 4 KiB each shard's ~40 snapshot
//! frames spill mid-batch; at 256 KiB (the default) only a flush or a
//! checkpoint drains the buffer. Every size is larger than any one frame
//! the script writes, so its last save stays buffered and is lost with
//! the drop.
//!
//! Why a pin: the log's files are a format, not an implementation detail.
//! The constants below were taken before the compaction, replay and
//! checksum code was rewritten for speed (one buffered pass per
//! compaction, a slice-by-8 CRC), and that rewrite left them untouched.
//! How the log produces its bytes may change; the bytes may not. Re-pin
//! only together with a `BINLOG_FORMAT_VERSION` bump, and say why here.

use std::path::{Path, PathBuf};

use lingxi_core::{BinLogConfig, BinaryStateLog, LongTermState, StateBackend};

const FILES: [&str; 7] = [
    "manifest.json",
    "shard_0.log",
    "shard_0.snap",
    "shard_1.log",
    "shard_1.snap",
    "shard_2.log",
    "shard_2.snap",
];

const DIGEST: u64 = 0xfd2c_944a_8094_b77f;

/// Append-buffer sizes the script is pinned at.
const BUFFER_BYTES: [usize; 4] = [600, 1024, 4096, 256 * 1024];

fn temp_dir(tag: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("lingxi_binlog_bytes_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// A state whose every encoded field depends on `stamp`.
fn state(user_id: u64, stamp: u64) -> LongTermState {
    let mut s = LongTermState::new(user_id);
    s.optimizations = stamp as usize;
    s.params.beta = 0.3 + (stamp % 64) as f64 / 128.0;
    s.params.stall_weight = 1.0 + user_id as f64 / 1024.0;
    for k in 0..(1 + (user_id + stamp) % 4) {
        s.tracker
            .push_segment(800.0 + (stamp * 7 + k) as f64, 1500.0 - k as f64, 2.0);
    }
    if stamp % 2 == 1 {
        s.tracker.push_stall(0.25 * (1 + stamp % 4) as f64);
    }
    s
}

fn save_batch(log: &BinaryStateLog, ids: impl IntoIterator<Item = u64>, stamp: u64) {
    let states: Vec<LongTermState> = ids.into_iter().map(|id| state(id, stamp)).collect();
    let refs: Vec<&LongTermState> = states.iter().collect();
    assert_eq!(log.save_batch(&refs).unwrap(), refs.len());
}

/// FNV-1a over each file's name and bytes, in name order.
fn dir_digest(dir: &Path) -> (Vec<String>, u64) {
    let mut names: Vec<String> = std::fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().file_name().into_string().unwrap())
        .collect();
    names.sort_unstable();
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for name in &names {
        let bytes = std::fs::read(dir.join(name)).unwrap();
        for &b in name.as_bytes().iter().chain(&bytes) {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    (names, h)
}

/// Run the script in a fresh directory at `buffer_bytes`; returns the
/// directory's file names and digest.
fn scripted_digest(buffer_bytes: usize) -> (Vec<String>, u64) {
    let dir = temp_dir(&format!("script_{buffer_bytes}"));
    let cfg = BinLogConfig {
        shards: 3,
        buffer_bytes,
    };
    {
        let log = BinaryStateLog::open(&dir, cfg).unwrap();
        // 120 snapshot users in one batch: each shard's ~40 frames
        // overflow a buffer of 4 KiB or less mid-batch.
        save_batch(&log, (100..1300).step_by(10), 1);
        log.flush().unwrap();
        log.checkpoint().unwrap();
        // A checkpoint with an empty tail.
        log.checkpoint().unwrap();
        // Tail: ids before the snapshot's, overwrites of snapshot users,
        // ids between them, ids after them, and one user written twice.
        save_batch(&log, [3, 1, 2], 2);
        save_batch(&log, (100..1300).step_by(30), 3);
        save_batch(&log, [105, 555, 1001, 1295], 4);
        save_batch(&log, 5000..5040, 5);
        log.save(&state(555, 6)).unwrap();
        log.flush().unwrap();
        log.checkpoint().unwrap();
        // A flushed, uncompacted tail, then a buffered save the drop loses.
        save_batch(&log, [7, 640, 9000], 7);
        log.flush().unwrap();
        log.save(&state(9001, 8)).unwrap();
    }
    {
        let log = BinaryStateLog::open(&dir, cfg).unwrap();
        assert!(log.recovery_warnings().is_empty());
        assert_eq!(log.load(555).unwrap(), Some(state(555, 6)));
        assert_eq!(log.load(640).unwrap(), Some(state(640, 7)));
        assert_eq!(log.load(9001).unwrap(), None);
        // Compact the replayed tail into the snapshot.
        log.checkpoint().unwrap();
        // And end on a flushed but uncompacted tail.
        save_batch(&log, [0, 650, 700, 9500], 9);
        log.save(&state(650, 10)).unwrap();
        log.flush().unwrap();
        assert_eq!(log.list().unwrap().len(), 120 + 3 + 4 + 40 + 2 + 2);
    }
    let pinned = dir_digest(&dir);
    let _ = std::fs::remove_dir_all(&dir);
    pinned
}

#[test]
fn scripted_log_directory_is_byte_pinned() {
    for buffer_bytes in BUFFER_BYTES {
        let (names, digest) = scripted_digest(buffer_bytes);
        assert_eq!(names, FILES, "buffer_bytes {buffer_bytes}");
        assert_eq!(
            digest, DIGEST,
            "state-log bytes moved at buffer_bytes {buffer_bytes}: {digest:#018x}"
        );
    }
}
