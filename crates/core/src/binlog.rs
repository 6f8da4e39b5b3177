//! Sharded append-only binary state log with compacting snapshots — the
//! fleet's persistence backend.
//!
//! A file per user would cost O(users) file creations per flush at fleet
//! scale. [`BinaryStateLog`] instead keeps per-shard append-only log
//! files and a compact hand-rolled binary record encoding (length-prefixed,
//! CRC-32-checksummed, schema-versioned): a flush is a handful of
//! sequential buffered writes however many users churned.
//!
//! On-disk layout of a log directory:
//!
//! ```text
//! dir/
//!   manifest.json   # { schema, shards } — written once at creation
//!   shard_<k>.log   # header + records appended since the last snapshot
//!   shard_<k>.snap  # header + records (ascending user id) + index + footer
//! ```
//!
//! `open` creates a log only in a directory that is absent or empty (a
//! stale `manifest.json.tmp` from a crash mid-creation aside): without a
//! manifest, whatever else lies there is foreign, and a fresh log beside
//! it would silently start every user over.
//!
//! Record framing (all integers little-endian):
//!
//! ```text
//! u32 payload_len | u32 crc32(payload) | payload
//! payload: u8 op (1 = put) | u64 user_id | state
//! ```
//!
//! Put is the only op. Any other op byte in a CRC-valid frame is a hard
//! error at open — never skipped: the log cannot tell what the record
//! meant to change.
//!
//! A save encodes its frame straight into the shard's append buffer: it
//! reserves the 8-byte header, writes the payload from the state's
//! borrowed fields (the tracker's windows are never copied), then patches
//! in the length and the CRC. A state that fails to encode (a window
//! longer than 255 values) is truncated away, leaving the buffer and the
//! shard's index as they were.
//!
//! The snapshot's sorted `(user_id, offset, len)` index block stays on
//! disk. In memory each shard keeps only a sparse *fence index*, as
//! SSTable stores do: the user id of every 128th entry plus the last one.
//! A point load of a cold user reads the one block of at most 128 entries
//! (2 560 bytes) its fences pick, searches it in memory, then reads the
//! frame; an id outside the snapshot's `[first, last]` range is a miss
//! without any I/O. The resident footprint stays O(dirty users + users /
//! 128): only users written since the last snapshot hold an in-memory
//! index entry, and every 128 snapshot users cost one 8-byte fence.
//! `open` reads the whole index block to check its CRC, and checks its
//! entries too: ids must ascend strictly and every frame must lie between
//! the header and the index block. A load fails rather than return a
//! frame that decodes to another user than the one asked for.
//!
//! Each shard holds one handle per file, and every read and write names
//! its offset: the durable length `committed` is the only file position
//! the log tracks, so an append that failed part-way is retried over its
//! own partial bytes. A cold load is two positioned reads (the index
//! block, then the frame) into one buffer the shard keeps.
//!
//! **Compaction** ([`StateBackend::checkpoint`]) is one streamed pass per
//! shard. The old snapshot's records lie contiguously in index order from
//! the header to the index block, so one buffered window walks them,
//! skips the records the tail replaces, and refills with one positioned
//! read when a frame lies past its end; the durable log tail is read once
//! and its frames are sliced out of it; and the header, the merged
//! frames, the new index and the footer go out through one buffered
//! writer on `shard_<k>.snap.tmp`, whose handle then serves the installed
//! snapshot. No state is decoded and no frame allocated: while it runs, a
//! compaction holds the log tail, the old and new index blocks (20 bytes
//! per user) and two I/O buffers of [`BinLogConfig::buffer_bytes`], never
//! the snapshot's records. Opening replays each log through a window too.
//!
//! **Recovery invariant:** the store's contents are a pure function of
//! (snapshot, log tail). Snapshots are written to a temp file and
//! renamed, so a crash never exposes a partial snapshot; a crash between
//! the snapshot rename and the log truncation merely replays records the
//! snapshot already contains (replay applies records in order, so it
//! converges to the same latest-value-per-user state); and a torn or
//! truncated final log record fails its length/CRC check, is reported as
//! a recovery warning, and the log is truncated back to the last whole
//! record. A compaction that fails keeps its tail index, so the store
//! still reads the newest records and the next checkpoint retries them.
//! Each file's header names its kind, shard and shard count, and `open`
//! refuses a file that sits in another shard's slot.
//!
//! **Durability:** appends are acknowledged only by [`flush`]
//! ([`StateBackend::flush`]) — dropping the log loses buffered appends,
//! which is exactly the crash model the property tests exercise. `flush`
//! and `checkpoint` hand their bytes to the operating system and never
//! fsync: what they acknowledge survives a killed process, not a power
//! cut or a kernel crash. Where fsyncs belong is open work (ROADMAP.md,
//! crash enumeration).
//!
//! [`flush`]: StateBackend::flush

use std::collections::BTreeMap;
use std::fs::{File, OpenOptions};
use std::io::{self, BufWriter, Write};
use std::os::unix::fs::FileExt;
use std::path::{Path, PathBuf};

use parking_lot::Mutex;
use serde::{Deserialize, Serialize};

use crate::state::{LongTermState, StateBackend, StateScan};
use crate::{CoreError, Result};
use lingxi_exit::{TrackerParts, UserStateTracker};

/// Version of the record encoding and file layout (`u16` in file headers).
pub const BINLOG_FORMAT_VERSION: u16 = 1;

/// Version of the `manifest.json` schema.
pub const BINLOG_MANIFEST_SCHEMA: u32 = 1;

const MAGIC: &[u8; 4] = b"LXSL";
const INDEX_MAGIC: &[u8; 4] = b"LXIX";
const KIND_LOG: u16 = 1;
const KIND_SNAP: u16 = 2;
const HEADER_LEN: u64 = 16;
const FRAME_OVERHEAD: usize = 8; // u32 len + u32 crc
const FOOTER_LEN: u64 = 24; // u64 index_off + u64 count + u32 crc + magic
const INDEX_ENTRY_LEN: usize = 20; // u64 user_id + u64 offset + u32 len
/// Index entries per fence: one block is 128 × 20 B = 2 560 B, within a page.
const FENCE_STRIDE: usize = 128;
const OP_PUT: u8 = 1;

/// Sizing and policy of a [`BinaryStateLog`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BinLogConfig {
    /// Number of log shards (files). User ids hash onto shards; any count
    /// works functionally, more shards mean smaller per-file compactions.
    pub shards: usize,
    /// Appends gather in a per-shard memory buffer of this many bytes
    /// before being written to the file (a [`StateBackend::flush`] always
    /// drains it). The window that replays a log at open and the window
    /// and writer of a compaction use buffers of this size too (a window
    /// grows to a longer frame when it must).
    pub buffer_bytes: usize,
}

impl Default for BinLogConfig {
    fn default() -> Self {
        Self {
            shards: 8,
            buffer_bytes: 256 * 1024,
        }
    }
}

impl BinLogConfig {
    /// Validate the configuration.
    pub fn validate(&self) -> Result<()> {
        if self.shards == 0 || self.shards > u32::MAX as usize {
            return Err(CoreError::InvalidConfig(
                "binary log needs 1..=u32::MAX shards".into(),
            ));
        }
        if self.buffer_bytes == 0 {
            return Err(CoreError::InvalidConfig(
                "binary log buffer must be positive".into(),
            ));
        }
        Ok(())
    }
}

/// `manifest.json`: the layout facts recovery must not guess.
// detlint::allow(serde_derive, reason = "the state log's manifest.json")
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
struct Manifest {
    schema: u32,
    format: u16,
    shards: usize,
}

// ---------------------------------------------------------------------------
// CRC-32 (IEEE 802.3), table-driven, hand-rolled — no vendored dep carries
// one and the determinism contract forbids reaching for ambient hashers.
// ---------------------------------------------------------------------------

/// Slicing-by-8 tables: `CRC_TABLES[0]` is the bytewise table, and
/// `CRC_TABLES[s][i]` is the CRC register after byte `i` is followed by
/// `s` zero bytes, so eight lookups advance the register eight bytes.
const CRC_TABLES: [[u32; 256]; 8] = crc_tables();

const fn crc_tables() -> [[u32; 256]; 8] {
    let mut t = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        t[0][i] = c;
        i += 1;
    }
    let mut s = 1;
    while s < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = t[s - 1][i];
            t[s][i] = (prev >> 8) ^ t[0][(prev & 0xFF) as usize];
            i += 1;
        }
        s += 1;
    }
    t
}

/// CRC-32 (IEEE) of `bytes`, eight bytes per step (slicing-by-8).
fn crc32(bytes: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let mut c = 0xFFFF_FFFFu32;
    let mut words = bytes.chunks_exact(8);
    for w in &mut words {
        let lo = c ^ u32::from_le_bytes([w[0], w[1], w[2], w[3]]);
        c = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][w[4] as usize]
            ^ t[2][w[5] as usize]
            ^ t[1][w[6] as usize]
            ^ t[0][w[7] as usize];
    }
    for &b in words.remainder() {
        c = t[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    c ^ 0xFFFF_FFFF
}

// ---------------------------------------------------------------------------
// Record codec
// ---------------------------------------------------------------------------

fn put_u32(out: &mut Vec<u8>, x: u32) {
    out.extend_from_slice(&x.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, x: u64) {
    out.extend_from_slice(&x.to_le_bytes());
}

fn put_f64(out: &mut Vec<u8>, x: f64) {
    out.extend_from_slice(&x.to_le_bytes());
}

fn put_f64_vec(out: &mut Vec<u8>, v: &[f64]) -> Result<()> {
    let n = u8::try_from(v.len()).map_err(|_| {
        CoreError::Persistence(format!("tracker window of {} exceeds u8 length", v.len()))
    })?;
    out.push(n);
    for &x in v {
        put_f64(out, x);
    }
    Ok(())
}

/// A bounds-checked little-endian reader over one record payload.
struct Cursor<'a> {
    bytes: &'a [u8],
    at: usize,
}

impl<'a> Cursor<'a> {
    fn new(bytes: &'a [u8]) -> Self {
        Self { bytes, at: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        let end = self.at.checked_add(n).filter(|&e| e <= self.bytes.len());
        let Some(end) = end else {
            return Err(CoreError::Persistence("record payload truncated".into()));
        };
        let s = &self.bytes[self.at..end];
        self.at = end;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8> {
        Ok(self.take(1)?[0])
    }

    fn u64(&mut self) -> Result<u64> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("8")))
    }

    fn f64(&mut self) -> Result<f64> {
        Ok(f64::from_le_bytes(self.take(8)?.try_into().expect("8")))
    }

    fn f64_vec(&mut self) -> Result<Vec<f64>> {
        let n = self.u8()? as usize;
        let mut v = Vec::with_capacity(n);
        for _ in 0..n {
            v.push(self.f64()?);
        }
        Ok(v)
    }

    fn done(&self) -> Result<()> {
        if self.at == self.bytes.len() {
            Ok(())
        } else {
            Err(CoreError::Persistence(format!(
                "record payload has {} trailing bytes",
                self.bytes.len() - self.at
            )))
        }
    }
}

/// Encode one state as a put-record payload (op + user id + state),
/// reading the tracker's windows in place. On error `out` may hold part
/// of the payload; [`append_frame`] truncates it away.
fn encode_put_payload(state: &LongTermState, out: &mut Vec<u8>) -> Result<()> {
    out.push(OP_PUT);
    put_u64(out, state.user_id);
    let t = &state.tracker;
    for window in t.windows() {
        put_f64_vec(out, window)?;
    }
    match t.last_stall_at() {
        Some(at) => {
            out.push(1);
            put_f64(out, at);
        }
        None => out.push(0),
    }
    put_f64(out, t.clock());
    put_f64(out, state.params.stall_weight);
    put_f64(out, state.params.switch_weight);
    put_f64(out, state.params.beta);
    put_u64(out, state.optimizations as u64);
    Ok(())
}

/// Decode a put-record payload back into the state it encoded,
/// bit-exactly (every `f64` round-trips through its raw bits).
fn decode_put_payload(payload: &[u8]) -> Result<LongTermState> {
    let mut c = Cursor::new(payload);
    let op = c.u8()?;
    if op != OP_PUT {
        return Err(CoreError::Persistence(format!(
            "expected put record, found op {op}"
        )));
    }
    let user_id = c.u64()?;
    let parts = TrackerParts {
        bitrates: c.f64_vec()?,
        throughputs: c.f64_vec()?,
        stall_times: c.f64_vec()?,
        stall_intervals: c.f64_vec()?,
        stall_exit_intervals: c.f64_vec()?,
        last_stall_at: match c.u8()? {
            0 => None,
            1 => Some(c.f64()?),
            t => {
                return Err(CoreError::Persistence(format!(
                    "bad option tag {t} in record"
                )))
            }
        },
        clock: c.f64()?,
    };
    let mut state = LongTermState::new(user_id);
    state.tracker = UserStateTracker::from_parts(parts);
    state.params.stall_weight = c.f64()?;
    state.params.switch_weight = c.f64()?;
    state.params.beta = c.f64()?;
    state.optimizations = c.u64()? as usize;
    c.done()?;
    Ok(state)
}

/// Append one frame to `out` whose payload `encode` writes in place: the
/// 8-byte header is reserved first, then patched with the payload's length
/// and CRC. When `encode` fails, `out` is truncated back to where it stood.
/// Returns the frame's length.
fn append_frame(out: &mut Vec<u8>, encode: impl FnOnce(&mut Vec<u8>) -> Result<()>) -> Result<u32> {
    let start = out.len();
    out.extend_from_slice(&[0; FRAME_OVERHEAD]);
    if let Err(e) = encode(out) {
        out.truncate(start);
        return Err(e);
    }
    let (head, payload) = out[start..].split_at_mut(FRAME_OVERHEAD);
    // A payload is at most five u8-length windows plus fixed fields.
    head[0..4].copy_from_slice(&(payload.len() as u32).to_le_bytes());
    head[4..8].copy_from_slice(&crc32(payload).to_le_bytes());
    Ok((out.len() - start) as u32)
}

fn file_header(kind: u16, shard: u32, shard_count: u32) -> [u8; HEADER_LEN as usize] {
    let mut h = [0u8; HEADER_LEN as usize];
    h[0..4].copy_from_slice(MAGIC);
    h[4..6].copy_from_slice(&BINLOG_FORMAT_VERSION.to_le_bytes());
    h[6..8].copy_from_slice(&kind.to_le_bytes());
    h[8..12].copy_from_slice(&shard.to_le_bytes());
    h[12..16].copy_from_slice(&shard_count.to_le_bytes());
    h
}

/// Check a file header against the kind and the shard slot it is opened
/// for: a file copied into another shard's place is refused, not read.
fn check_header(h: &[u8], kind: u16, shard: u32, shard_count: u32, path: &Path) -> Result<()> {
    let fail = |why: &str| {
        Err(CoreError::Persistence(format!(
            "{path:?}: not a valid state-log file ({why})"
        )))
    };
    if h.len() < HEADER_LEN as usize || &h[0..4] != MAGIC {
        return fail("bad magic");
    }
    let version = u16::from_le_bytes(h[4..6].try_into().expect("2"));
    if version > BINLOG_FORMAT_VERSION {
        return fail(&format!("format v{version} is newer than supported"));
    }
    if u16::from_le_bytes(h[6..8].try_into().expect("2")) != kind {
        return fail("wrong file kind");
    }
    let at = u32::from_le_bytes(h[8..12].try_into().expect("4"));
    let of = u32::from_le_bytes(h[12..16].try_into().expect("4"));
    if (at, of) != (shard, shard_count) {
        return fail(&format!(
            "header names shard {at} of {of}, expected shard {shard} of {shard_count}"
        ));
    }
    Ok(())
}

fn perr(path: &Path, what: &str, e: std::io::Error) -> CoreError {
    CoreError::Persistence(format!("{what} {path:?}: {e}"))
}

/// Refuse to create a log in `dir` when it holds anything but a stale
/// `manifest.json.tmp` (a creation that crashed before its rename): with
/// no manifest, that content is foreign — file-per-user state, a mistyped
/// path, shard files whose manifest was deleted. The error names the
/// entry that sorts first, so it does not depend on listing order.
fn refuse_foreign_content(dir: &Path) -> Result<()> {
    let mut first: Option<std::ffi::OsString> = None;
    for entry in std::fs::read_dir(dir).map_err(|e| perr(dir, "list", e))? {
        let name = entry.map_err(|e| perr(dir, "list", e))?.file_name();
        if name != "manifest.json.tmp" && first.as_ref().is_none_or(|f| name < *f) {
            first = Some(name);
        }
    }
    match first {
        None => Ok(()),
        Some(name) => Err(CoreError::Persistence(format!(
            "{dir:?} holds {name:?} but no manifest.json; a state log is created only \
             in an absent or empty directory"
        ))),
    }
}

// ---------------------------------------------------------------------------
// Shard state
// ---------------------------------------------------------------------------

/// Where a shard's live frame for a user is, in log-file coordinates
/// (offsets may point into the not-yet-written append buffer).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct TailLoc {
    off: u64,
    len: u32,
}

/// One `(user_id, offset, len)` entry of a snapshot's index block.
fn index_entry(e: &[u8; INDEX_ENTRY_LEN]) -> (u64, u64, u32) {
    (
        u64::from_le_bytes(e[0..8].try_into().expect("8")),
        u64::from_le_bytes(e[8..16].try_into().expect("8")),
        u32::from_le_bytes(e[16..20].try_into().expect("4")),
    )
}

/// Where a snapshot's index block lies, and the fence index over it.
#[derive(Debug)]
struct SnapIndex {
    /// File offset of the index block.
    off: u64,
    /// Entries in the block.
    count: u64,
    /// User id of every `FENCE_STRIDE`-th entry, from entry 0 on.
    fences: Vec<u64>,
    /// User id of the last entry (unused when the block is empty).
    last: u64,
}

/// An empty fence vector sized for a snapshot of `entries` users. The
/// fences outlive the transient buffers a compaction or an `open` reads the
/// index through; allocated before those, they do not pin the heap above
/// them once they are freed (measured: +0.5 MB peak RSS otherwise).
fn fences_for(entries: u64) -> Vec<u64> {
    Vec::with_capacity((entries as usize).div_ceil(FENCE_STRIDE))
}

impl SnapIndex {
    /// Check an index block that starts at file offset `off` and build its
    /// fences into `fences` (from [`fences_for`]). Ids must ascend
    /// strictly, and every entry's frame must lie between the header and
    /// the index block and be longer than a frame header; the error names
    /// the first entry that breaks this.
    fn build(index: &[u8], off: u64, mut fences: Vec<u64>) -> std::result::Result<Self, String> {
        let (entries, _) = index.as_chunks::<INDEX_ENTRY_LEN>();
        let mut last = None;
        for (i, e) in entries.iter().enumerate() {
            let (id, at, len) = index_entry(e);
            if last.is_some_and(|prev| prev >= id) {
                return Err(format!("entry {i} (user {id}) does not ascend"));
            }
            let in_range = at >= HEADER_LEN
                && len as usize > FRAME_OVERHEAD
                && at.checked_add(len as u64).is_some_and(|end| end <= off);
            if !in_range {
                return Err(format!(
                    "entry {i} (user {id}) points outside the records at {at}+{len}"
                ));
            }
            if i % FENCE_STRIDE == 0 {
                fences.push(id);
            }
            last = Some(id);
        }
        Ok(Self {
            off,
            count: entries.len() as u64,
            fences,
            last: last.unwrap_or(0),
        })
    }

    /// The file range `(offset, bytes)` of the one block of at most
    /// `FENCE_STRIDE` entries that would hold `user_id`, or `None` when
    /// the id lies outside the snapshot's `[first, last]` range.
    fn block_of(&self, user_id: u64) -> Option<(u64, usize)> {
        let first = *self.fences.first()?;
        if user_id < first || user_id > self.last {
            return None;
        }
        let block = self.fences.partition_point(|&f| f <= user_id) - 1;
        let start = (block * FENCE_STRIDE) as u64;
        let entries = (self.count - start).min(FENCE_STRIDE as u64) as usize;
        Some((
            self.off + start * INDEX_ENTRY_LEN as u64,
            entries * INDEX_ENTRY_LEN,
        ))
    }
}

#[derive(Debug)]
struct Snap {
    file: File,
    index: SnapIndex,
}

/// The `len` bytes at offset `off` of `file`, read into `buf` by one call.
fn read_at<'a>(file: &File, buf: &'a mut Vec<u8>, off: u64, len: usize) -> io::Result<&'a [u8]> {
    buf.resize(len, 0);
    file.read_exact_at(buf, off)?;
    Ok(buf)
}

#[derive(Debug)]
struct Shard {
    log_path: PathBuf,
    snap_path: PathBuf,
    /// The log file, read and written only at named offsets.
    log: File,
    /// Bytes of log durable on disk (including the header): the offset
    /// the append buffer drains to.
    committed: u64,
    /// Pending appends; log coordinates `committed..committed+buf.len()`.
    buf: Vec<u8>,
    /// Reused by a load's positioned reads (an index block, a frame).
    scratch: Vec<u8>,
    /// Users written since the last snapshot → latest record location.
    tail: BTreeMap<u64, TailLoc>,
    snap: Option<Snap>,
}

impl Shard {
    /// Drain the append buffer to the file at `committed`; a drain that
    /// fails part-way moves neither, so its retry overwrites its bytes.
    fn write_buf(&mut self) -> Result<()> {
        if self.buf.is_empty() {
            return Ok(());
        }
        self.log
            .write_all_at(&self.buf, self.committed)
            .map_err(|e| perr(&self.log_path, "append to", e))?;
        self.committed += self.buf.len() as u64;
        self.buf.clear();
        Ok(())
    }

    /// Load `user_id`'s tail frame at `loc`: decoded in place while it is
    /// still in the append buffer, else read with one positioned read.
    fn read_frame(&mut self, user_id: u64, loc: TailLoc) -> Result<LongTermState> {
        let len = loc.len as usize;
        let frame = match loc.off.checked_sub(self.committed) {
            Some(start) => self
                .buf
                .get(start as usize..)
                .and_then(|rest| rest.get(..len))
                .ok_or_else(|| CoreError::Persistence("buffered record out of range".into()))?,
            None => read_at(&self.log, &mut self.scratch, loc.off, len)
                .map_err(|e| perr(&self.log_path, "read record from", e))?,
        };
        Shard::decode_frame(frame, user_id, &self.log_path)
    }

    /// Decode a frame read for `user_id` from the file at `path`: its CRC
    /// must hold and it must be that user's record, so an index entry that
    /// points at a neighbour's frame fails instead of returning the
    /// neighbour's state.
    fn decode_frame(frame: &[u8], user_id: u64, path: &Path) -> Result<LongTermState> {
        if frame.len() < FRAME_OVERHEAD {
            return Err(CoreError::Persistence("frame shorter than header".into()));
        }
        let payload = &frame[FRAME_OVERHEAD..];
        let crc = u32::from_le_bytes(frame[4..8].try_into().expect("4"));
        if crc32(payload) != crc {
            return Err(CoreError::Persistence(
                "record checksum mismatch (corrupt log)".into(),
            ));
        }
        let state = decode_put_payload(payload)?;
        if state.user_id != user_id {
            return Err(CoreError::Persistence(format!(
                "{path:?}: the record located for user {user_id} holds user {}",
                state.user_id
            )));
        }
        Ok(state)
    }

    /// Find `user_id` in the snapshot. The fences pick the one index block
    /// that could hold it; that block is read and searched in memory, and
    /// then the frame is read, both into `scratch`. An id outside the
    /// snapshot's `[first, last]` range is a miss without any I/O.
    fn snap_lookup(&mut self, user_id: u64) -> Result<Option<LongTermState>> {
        let Some(snap) = &self.snap else {
            return Ok(None);
        };
        let Some((at, bytes)) = snap.index.block_of(user_id) else {
            return Ok(None);
        };
        let block = read_at(&snap.file, &mut self.scratch, at, bytes)
            .map_err(|e| perr(&self.snap_path, "read index of", e))?;
        let (entries, _) = block.as_chunks::<INDEX_ENTRY_LEN>();
        let Ok(i) = entries.binary_search_by_key(&user_id, |e| index_entry(e).0) else {
            return Ok(None);
        };
        let (_, off, len) = index_entry(&entries[i]);
        let frame = read_at(&snap.file, &mut self.scratch, off, len as usize)
            .map_err(|e| perr(&self.snap_path, "read record of", e))?;
        Shard::decode_frame(frame, user_id, &self.snap_path).map(Some)
    }

    /// All user ids in the snapshot, ascending (reads the index block).
    fn snap_ids(&self) -> Result<Vec<(u64, u64, u32)>> {
        let Some(snap) = &self.snap else {
            return Ok(Vec::new());
        };
        let mut raw = vec![0u8; snap.index.count as usize * INDEX_ENTRY_LEN];
        snap.file
            .read_exact_at(&mut raw, snap.index.off)
            .map_err(|e| perr(&self.snap_path, "read index of", e))?;
        Ok(raw.as_chunks().0.iter().map(index_entry).collect())
    }
}

// ---------------------------------------------------------------------------
// Replay and compaction streams
// ---------------------------------------------------------------------------

/// A buffered window over the bytes `[.., end)` of one file, for log
/// replay and the compaction's walk over the old snapshot's frames. A read
/// outside it refills it from the read's offset with one positioned read
/// of `buffer_bytes` (or the read's length, if longer), never past `end`.
struct Window<'a> {
    file: &'a File,
    end: u64,
    buffer_bytes: usize,
    /// File offset of `buf[0]`.
    at: u64,
    buf: Vec<u8>,
}

impl<'a> Window<'a> {
    fn new(file: &'a File, end: u64, buffer_bytes: usize) -> Self {
        Self {
            file,
            end,
            buffer_bytes,
            at: 0,
            buf: Vec::new(),
        }
    }

    /// The `len` bytes at file offset `off`, which the caller's own
    /// bounds keep below `end`.
    fn read(&mut self, off: u64, len: usize) -> io::Result<&[u8]> {
        let stop = off + len as u64;
        debug_assert!(stop <= self.end, "read past the window's end");
        if off < self.at || stop > self.at + self.buf.len() as u64 {
            let fill = (self.end - off).min(self.buffer_bytes.max(len) as u64);
            read_at(self.file, &mut self.buf, off, fill as usize)?;
            self.at = off;
        }
        let start = (off - self.at) as usize;
        Ok(&self.buf[start..start + len])
    }
}

/// The new snapshot, streamed: the header and the frames go straight to a
/// buffered writer while their index entries gather for the block that
/// follows them.
struct SnapWriter<'a> {
    out: BufWriter<File>,
    path: &'a Path,
    pos: u64,
    index: Vec<u8>,
}

impl<'a> SnapWriter<'a> {
    fn create(path: &'a Path, header: &[u8], buffer_bytes: usize, entries: usize) -> Result<Self> {
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(path)
            .map_err(|e| perr(path, "create", e))?;
        let mut w = Self {
            out: BufWriter::with_capacity(buffer_bytes, file),
            path,
            pos: 0,
            index: Vec::with_capacity(entries * INDEX_ENTRY_LEN),
        };
        w.write(header)?;
        Ok(w)
    }

    fn write(&mut self, bytes: &[u8]) -> Result<()> {
        self.pos += bytes.len() as u64;
        self.out
            .write_all(bytes)
            .map_err(|e| perr(self.path, "write", e))
    }

    fn frame(&mut self, user_id: u64, frame: &[u8]) -> Result<()> {
        put_u64(&mut self.index, user_id);
        put_u64(&mut self.index, self.pos);
        put_u32(&mut self.index, frame.len() as u32);
        self.write(frame)
    }

    /// Write the index block and the footer, flush, and install the file
    /// at `dest` by rename; returns the installed snapshot on the handle
    /// that wrote it, its fences built into `fences` from the index block
    /// while it is still in memory.
    fn finish(mut self, dest: &Path, fences: Vec<u64>) -> Result<Snap> {
        let index_off = self.pos;
        let count = (self.index.len() / INDEX_ENTRY_LEN) as u64;
        let mut footer = Vec::with_capacity(FOOTER_LEN as usize);
        put_u64(&mut footer, index_off);
        put_u64(&mut footer, count);
        put_u32(&mut footer, crc32(&self.index));
        footer.extend_from_slice(INDEX_MAGIC);
        let index = std::mem::take(&mut self.index);
        let snap_index = SnapIndex::build(&index, index_off, fences).map_err(|why| {
            CoreError::Persistence(format!(
                "{:?}: compaction built a bad index ({why})",
                self.path
            ))
        })?;
        self.write(&index)?;
        self.write(&footer)?;
        let file = self
            .out
            .into_inner()
            .map_err(|e| perr(self.path, "write", e.into_error()))?;
        std::fs::rename(self.path, dest).map_err(|e| perr(dest, "rename to", e))?;
        Ok(Snap {
            file,
            index: snap_index,
        })
    }
}

// ---------------------------------------------------------------------------
// The log itself
// ---------------------------------------------------------------------------

/// Sharded append-only binary state log with compacting snapshots.
///
/// Implements [`StateBackend`]; see the module docs for the on-disk
/// format and the recovery invariant. All methods take `&self` (per-shard
/// `parking_lot` mutexes), so one log is shared by all fleet workers.
#[derive(Debug)]
pub struct BinaryStateLog {
    dir: PathBuf,
    config: BinLogConfig,
    shards: Vec<Mutex<Shard>>,
    /// Warnings produced by crash recovery at open (torn/truncated tail
    /// records), surfaced through [`StateBackend::scan`].
    recovery_warnings: Vec<String>,
}

impl BinaryStateLog {
    /// Open (creating if absent) a log rooted at `dir`.
    ///
    /// Reopening an existing directory recovers its contents: each
    /// shard's snapshot is validated and its log tail replayed; a torn or
    /// truncated final record is truncated away with a warning (see
    /// [`StateBackend::scan`]). The shard count is fixed at creation by
    /// `manifest.json` — reopening with a different `config.shards`
    /// adopts the manifest's count. A directory without a manifest must
    /// be absent or empty (a stale `manifest.json.tmp` aside); anything
    /// else fails with [`CoreError::Persistence`], naming the directory
    /// and one entry found there, and nothing is written.
    pub fn open<P: AsRef<Path>>(dir: P, config: BinLogConfig) -> Result<Self> {
        config.validate()?;
        let dir = dir.as_ref().to_path_buf();
        std::fs::create_dir_all(&dir).map_err(|e| perr(&dir, "create", e))?;

        // The manifest pins the shard layout; recovery must not guess it.
        let manifest_path = dir.join("manifest.json");
        let mut config = config;
        match std::fs::read_to_string(&manifest_path) {
            Ok(raw) => {
                let m: Manifest = serde_json::from_str(&raw)
                    .map_err(|e| CoreError::Persistence(format!("parse {manifest_path:?}: {e}")))?;
                if m.schema != BINLOG_MANIFEST_SCHEMA || m.format > BINLOG_FORMAT_VERSION {
                    return Err(CoreError::Persistence(format!(
                        "{manifest_path:?}: schema v{}/format v{} newer than supported",
                        m.schema, m.format
                    )));
                }
                config.shards = m.shards;
                config
                    .validate()
                    .map_err(|e| CoreError::Persistence(format!("{manifest_path:?}: {e}")))?;
            }
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
                refuse_foreign_content(&dir)?;
                let m = Manifest {
                    schema: BINLOG_MANIFEST_SCHEMA,
                    format: BINLOG_FORMAT_VERSION,
                    shards: config.shards,
                };
                let json = serde_json::to_string(&m)
                    .map_err(|e| CoreError::Persistence(format!("serialize manifest: {e}")))?;
                let tmp = dir.join("manifest.json.tmp");
                std::fs::write(&tmp, json).map_err(|e| perr(&tmp, "write", e))?;
                std::fs::rename(&tmp, &manifest_path)
                    .map_err(|e| perr(&manifest_path, "rename to", e))?;
            }
            Err(e) => return Err(perr(&manifest_path, "read", e)),
        }

        let mut shards = Vec::with_capacity(config.shards);
        let mut recovery_warnings = Vec::new();
        for k in 0..config.shards {
            let shard = Self::open_shard(&dir, k, &config, &mut recovery_warnings)?;
            shards.push(Mutex::new(shard));
        }
        recovery_warnings.sort_unstable();
        Ok(Self {
            dir,
            config,
            shards,
            recovery_warnings,
        })
    }

    /// The directory this log lives in.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The effective configuration (shard count may come from the
    /// on-disk manifest rather than the one passed to [`open`]).
    ///
    /// [`open`]: BinaryStateLog::open
    pub fn config(&self) -> &BinLogConfig {
        &self.config
    }

    /// Warnings produced by crash recovery at open time.
    pub fn recovery_warnings(&self) -> &[String] {
        &self.recovery_warnings
    }

    fn open_shard(
        dir: &Path,
        k: usize,
        config: &BinLogConfig,
        warnings: &mut Vec<String>,
    ) -> Result<Shard> {
        let log_path = dir.join(format!("shard_{k}.log"));
        let snap_path = dir.join(format!("shard_{k}.snap"));
        // `validate` bounds the shard count by `u32::MAX`.
        let (slot, shard_count) = (k as u32, config.shards as u32);

        let log = OpenOptions::new()
            .create(true)
            .read(true)
            .write(true)
            .truncate(false)
            .open(&log_path)
            .map_err(|e| perr(&log_path, "open", e))?;
        let log_len = log
            .metadata()
            .map_err(|e| perr(&log_path, "stat", e))?
            .len();
        if log_len == 0 {
            log.write_all_at(&file_header(KIND_LOG, slot, shard_count), 0)
                .map_err(|e| perr(&log_path, "write header of", e))?;
        } else {
            let mut h = [0u8; HEADER_LEN as usize];
            log.read_exact_at(&mut h, 0)
                .map_err(|e| perr(&log_path, "read header of", e))?;
            check_header(&h, KIND_LOG, slot, shard_count, &log_path)?;
        }

        let snap = match File::open(&snap_path) {
            Ok(file) => Some(Self::open_snapshot(file, &snap_path, slot, shard_count)?),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => None,
            Err(e) => return Err(perr(&snap_path, "open", e)),
        };

        let mut shard = Shard {
            log_path,
            snap_path,
            log,
            committed: HEADER_LEN,
            buf: Vec::new(),
            scratch: Vec::new(),
            tail: BTreeMap::new(),
            snap,
        };
        Self::replay_log(
            &mut shard,
            log_len.max(HEADER_LEN),
            config.buffer_bytes,
            warnings,
        )?;
        Ok(shard)
    }

    /// Validate a snapshot's header, footer, index checksum and index
    /// entries, and build its fences from the index block read for that.
    fn open_snapshot(file: File, path: &Path, slot: u32, shard_count: u32) -> Result<Snap> {
        let len = file.metadata().map_err(|e| perr(path, "stat", e))?.len();
        if len < HEADER_LEN + FOOTER_LEN {
            return Err(CoreError::Persistence(format!(
                "{path:?}: snapshot shorter than header + footer"
            )));
        }
        let mut h = [0u8; HEADER_LEN as usize];
        file.read_exact_at(&mut h, 0)
            .map_err(|e| perr(path, "read header of", e))?;
        check_header(&h, KIND_SNAP, slot, shard_count, path)?;
        let mut footer = [0u8; FOOTER_LEN as usize];
        file.read_exact_at(&mut footer, len - FOOTER_LEN)
            .map_err(|e| perr(path, "read footer of", e))?;
        if &footer[20..24] != INDEX_MAGIC {
            return Err(CoreError::Persistence(format!(
                "{path:?}: snapshot footer magic missing"
            )));
        }
        let index_off = u64::from_le_bytes(footer[0..8].try_into().expect("8"));
        let count = u64::from_le_bytes(footer[8..16].try_into().expect("8"));
        let crc = u32::from_le_bytes(footer[16..20].try_into().expect("4"));
        let index_len = count.checked_mul(INDEX_ENTRY_LEN as u64).filter(|&l| {
            index_off >= HEADER_LEN && index_off.checked_add(l) == Some(len - FOOTER_LEN)
        });
        let Some(index_len) = index_len else {
            return Err(CoreError::Persistence(format!(
                "{path:?}: snapshot index geometry is inconsistent"
            )));
        };
        // The geometry check bounds `count` by the file's length.
        let fences = fences_for(count);
        let mut index = vec![0u8; index_len as usize];
        file.read_exact_at(&mut index, index_off)
            .map_err(|e| perr(path, "read index of", e))?;
        if crc32(&index) != crc {
            return Err(CoreError::Persistence(format!(
                "{path:?}: snapshot index checksum mismatch"
            )));
        }
        let index = SnapIndex::build(&index, index_off, fences).map_err(|why| {
            CoreError::Persistence(format!("{path:?}: snapshot index is invalid ({why})"))
        })?;
        Ok(Snap { file, index })
    }

    /// Rebuild a shard's tail index by replaying its log front to back
    /// through one window; truncates a torn/truncated final record with a
    /// warning.
    fn replay_log(
        shard: &mut Shard,
        log_len: u64,
        buffer_bytes: usize,
        warnings: &mut Vec<String>,
    ) -> Result<()> {
        let mut log = Window::new(&shard.log, log_len, buffer_bytes);
        let fail = |e| perr(&shard.log_path, "replay", e);
        let mut off = HEADER_LEN;
        while off < log_len {
            let mut good = false;
            if off + FRAME_OVERHEAD as u64 <= log_len {
                let head = log.read(off, FRAME_OVERHEAD).map_err(fail)?;
                let len = u32::from_le_bytes(head[0..4].try_into().expect("4")) as u64;
                let crc = u32::from_le_bytes(head[4..8].try_into().expect("4"));
                if off + FRAME_OVERHEAD as u64 + len <= log_len {
                    let payload = log
                        .read(off + FRAME_OVERHEAD as u64, len as usize)
                        .map_err(fail)?;
                    if crc32(payload) == crc {
                        let mut c = Cursor::new(payload);
                        let op = c.u8()?;
                        let user_id = c.u64()?;
                        if op != OP_PUT {
                            return Err(CoreError::Persistence(format!(
                                "{:?}: unknown record op {op} at offset {off}",
                                shard.log_path
                            )));
                        }
                        let len = (len + FRAME_OVERHEAD as u64) as u32;
                        shard.tail.insert(user_id, TailLoc { off, len });
                        off += len as u64;
                        good = true;
                    }
                }
            }
            if !good {
                warnings.push(format!(
                    "{:?}: torn or truncated record at offset {off} ({} byte tail dropped)",
                    shard.log_path,
                    log_len - off
                ));
                shard
                    .log
                    .set_len(off)
                    .map_err(|e| perr(&shard.log_path, "truncate", e))?;
                break;
            }
        }
        shard.committed = off;
        Ok(())
    }

    fn shard_of(&self, user_id: u64) -> &Mutex<Shard> {
        // Fibonacci hashing, as in the state cache: spreads sequential ids.
        let h = user_id.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        &self.shards[(h >> 32) as usize % self.shards.len()]
    }

    /// Encode one put record straight into a shard's append buffer and
    /// update its tail index. A state that fails to encode leaves the
    /// buffer and the index as they were.
    fn append(&self, shard: &mut Shard, state: &LongTermState) -> Result<()> {
        let off = shard.committed + shard.buf.len() as u64;
        let len = append_frame(&mut shard.buf, |out| encode_put_payload(state, out))?;
        shard.tail.insert(state.user_id, TailLoc { off, len });
        if shard.buf.len() >= self.config.buffer_bytes {
            shard.write_buf()?;
        }
        Ok(())
    }

    /// Compact one shard in one streamed pass: merge (snapshot, tail) into
    /// a fresh snapshot, then truncate the log. No-op when the tail is
    /// empty. The tail index is cleared only once the new snapshot is
    /// installed and the log truncated, so a compaction that fails part
    /// way loses nothing: loads still see the tail, and the next
    /// checkpoint merges it again.
    fn compact_shard(&self, shard: &mut Shard, k: usize) -> Result<()> {
        shard.write_buf()?;
        if shard.tail.is_empty() {
            return Ok(());
        }
        let buffer_bytes = self.config.buffer_bytes;
        let old_count = shard.snap.as_ref().map_or(0, |snap| snap.index.count);
        let fences = fences_for(old_count + shard.tail.len() as u64);
        let snap_entries = shard.snap_ids()?;

        // The durable log tail, read once (`write_buf` drained the buffer,
        // so every tail frame lies below `committed`).
        let mut log = vec![0u8; (shard.committed - HEADER_LEN) as usize];
        shard
            .log
            .read_exact_at(&mut log, HEADER_LEN)
            .map_err(|e| perr(&shard.log_path, "compact read of", e))?;
        let tail_frame = |loc: &TailLoc| {
            let start = (loc.off - HEADER_LEN) as usize;
            log.get(start..start + loc.len as usize)
                .ok_or_else(|| CoreError::Persistence("tail record out of range".into()))
        };

        // Stream-merge snapshot frames (ascending user id) with the tail
        // (a BTreeMap, also ascending); the tail's frame wins per user.
        // The old frames lie in index order below the index block.
        let mut old = shard
            .snap
            .as_ref()
            .map(|snap| Window::new(&snap.file, snap.index.off, buffer_bytes));
        let tmp = shard.snap_path.with_extension("snap.tmp");
        let mut new = SnapWriter::create(
            &tmp,
            &file_header(KIND_SNAP, k as u32, self.shards.len() as u32),
            buffer_bytes,
            snap_entries.len() + shard.tail.len(),
        )?;
        let mut tail = shard.tail.iter().peekable();
        for (id, off, len) in snap_entries {
            let mut replaced = false;
            while let Some((&tid, loc)) = tail.next_if(|(&tid, _)| tid <= id) {
                new.frame(tid, tail_frame(loc)?)?;
                replaced = tid == id;
            }
            if !replaced {
                let old = old.as_mut().expect("entries imply a snapshot");
                let frame = old
                    .read(off, len as usize)
                    .map_err(|e| perr(&shard.snap_path, "compact read of", e))?;
                new.frame(id, frame)?;
            }
        }
        for (&tid, loc) in tail {
            new.frame(tid, tail_frame(loc)?)?;
        }

        // Atomic install: temp + rename, then truncate the log. A crash
        // in between merely leaves log records the snapshot already
        // holds; replay re-converges to the same state. Until the
        // truncation the tail index stays valid against the log.
        shard.snap = Some(new.finish(&shard.snap_path, fences)?);
        shard
            .log
            .set_len(HEADER_LEN)
            .map_err(|e| perr(&shard.log_path, "truncate", e))?;
        shard.tail.clear();
        shard.committed = HEADER_LEN;
        Ok(())
    }
}

impl StateBackend for BinaryStateLog {
    fn save(&self, state: &LongTermState) -> Result<()> {
        let mut shard = self.shard_of(state.user_id).lock();
        self.append(&mut shard, state)
    }

    fn save_batch(&self, batch: &[&LongTermState]) -> Result<usize> {
        for state in batch {
            let mut shard = self.shard_of(state.user_id).lock();
            self.append(&mut shard, state)?;
        }
        Ok(batch.len())
    }

    fn load(&self, user_id: u64) -> Result<Option<LongTermState>> {
        let mut shard = self.shard_of(user_id).lock();
        match shard.tail.get(&user_id).copied() {
            Some(loc) => shard.read_frame(user_id, loc).map(Some),
            None => shard.snap_lookup(user_id),
        }
    }

    fn scan(&self) -> Result<StateScan> {
        let mut scan = StateScan {
            ids: Vec::new(),
            warnings: self.recovery_warnings.clone(),
        };
        for shard in &self.shards {
            let shard = shard.lock();
            let snap_entries = shard.snap_ids()?;
            for (id, _, _) in snap_entries {
                if !shard.tail.contains_key(&id) {
                    scan.ids.push(id);
                }
            }
            scan.ids.extend(shard.tail.keys());
        }
        scan.ids.sort_unstable();
        Ok(scan)
    }

    fn flush(&self) -> Result<()> {
        for shard in &self.shards {
            shard.lock().write_buf()?;
        }
        Ok(())
    }

    fn checkpoint(&self) -> Result<()> {
        for (k, shard) in self.shards.iter().enumerate() {
            let mut shard = shard.lock();
            self.compact_shard(&mut shard, k)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::state::StateBackend;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("lingxi_binlog_test_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn state(user_id: u64, stamp: u64) -> LongTermState {
        let mut s = LongTermState::new(user_id);
        s.optimizations = stamp as usize;
        s.params.beta = 0.3 + (stamp % 64) as f64 / 128.0;
        s.tracker.push_segment(800.0 + stamp as f64, 1500.0, 2.0);
        s.tracker.push_stall(0.25 * (1 + stamp % 4) as f64);
        s
    }

    /// The bytewise loop `crc32` ran before slicing-by-8, kept as the
    /// reference it must match on every input.
    fn crc32_bytewise(bytes: &[u8]) -> u32 {
        let mut c = 0xFFFF_FFFFu32;
        for &b in bytes {
            c = CRC_TABLES[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
        }
        c ^ 0xFFFF_FFFF
    }

    #[test]
    fn crc32_known_vectors() {
        // Standard IEEE CRC-32 check values.
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32_bytewise(b"123456789"), 0xCBF4_3926);
    }

    #[test]
    fn crc32_matches_bytewise_on_every_short_length() {
        let bytes: Vec<u8> = (0..72u32).map(|i| (i * 37 + 11) as u8).collect();
        for start in 0..8 {
            for len in 0..=64 {
                let s = &bytes[start..start + len];
                assert_eq!(crc32(s), crc32_bytewise(s), "start {start} len {len}");
            }
        }
    }

    proptest::proptest! {
        #[test]
        fn crc32_matches_bytewise_on_random_buffers(
            bytes in proptest::collection::vec(0u8..=255, 0..4097),
        ) {
            proptest::prop_assert_eq!(crc32(&bytes), crc32_bytewise(&bytes));
        }
    }

    #[test]
    fn codec_round_trips_bit_exactly() {
        let mut s = state(7, 3);
        s.params.stall_weight = -0.0; // signed zero must survive
        s.params.switch_weight = f64::MIN_POSITIVE / 2.0; // subnormal
        s.tracker.push_segment(f64::MAX, 1e-300, 2.0);
        let mut payload = Vec::new();
        encode_put_payload(&s, &mut payload).unwrap();
        let back = decode_put_payload(&payload).unwrap();
        assert_eq!(back, s);
        assert!(back.params.stall_weight.is_sign_negative());
    }

    /// A state whose last window is longer than a record's `u8` length
    /// fails `save` and `save_batch` after the rest of its payload was
    /// encoded in place; the append buffer, the tail index and later loads
    /// stay exactly as they were before the call.
    #[test]
    fn a_state_that_fails_to_encode_leaves_the_shard_as_it_was() {
        let dir = temp_dir("bad_encode");
        let cfg = BinLogConfig {
            shards: 1,
            ..BinLogConfig::default()
        };
        let log = BinaryStateLog::open(&dir, cfg).unwrap();
        log.save(&state(1, 1)).unwrap();
        log.save(&state(2, 2)).unwrap();
        let shard_now = |log: &BinaryStateLog| {
            let shard = log.shards[0].lock();
            (shard.buf.clone(), shard.tail.clone(), shard.committed)
        };
        let before = shard_now(&log);
        let mut bad = state(1, 7);
        bad.tracker = UserStateTracker::from_parts(TrackerParts {
            bitrates: vec![800.0; 8],
            stall_exit_intervals: vec![1.0; 256],
            ..TrackerParts::default()
        });
        for result in [log.save(&bad).map(|()| 1), log.save_batch(&[&bad])] {
            let msg = result.unwrap_err().to_string();
            assert!(msg.contains("window of 256 exceeds u8 length"), "{msg}");
            assert_eq!(shard_now(&log), before);
        }
        assert_eq!(log.load(1).unwrap(), Some(state(1, 1)));
        assert_eq!(log.load(2).unwrap(), Some(state(2, 2)));
        log.save(&state(3, 3)).unwrap();
        log.flush().unwrap();
        drop(log);
        let log = BinaryStateLog::open(&dir, cfg).unwrap();
        assert!(log.recovery_warnings().is_empty());
        assert_eq!(log.list().unwrap(), vec![1, 2, 3]);
        assert_eq!(log.load(1).unwrap(), Some(state(1, 1)));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn save_load_delete_roundtrip() {
        let dir = temp_dir("roundtrip");
        let log = BinaryStateLog::open(&dir, BinLogConfig::default()).unwrap();
        assert!(log.load(1).unwrap().is_none());
        for id in [3u64, 1, 2] {
            log.save(&state(id, id * 10)).unwrap();
        }
        assert_eq!(log.load(2).unwrap().unwrap(), state(2, 20));
        // Overwrite wins.
        log.save(&state(2, 99)).unwrap();
        assert_eq!(log.load(2).unwrap().unwrap(), state(2, 99));
        assert_eq!(log.list().unwrap(), vec![1, 2, 3]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn reopen_recovers_flushed_state_and_drops_buffered() {
        let dir = temp_dir("reopen");
        {
            let log = BinaryStateLog::open(&dir, BinLogConfig::default()).unwrap();
            log.save(&state(1, 1)).unwrap();
            log.save(&state(2, 2)).unwrap();
            log.flush().unwrap();
            // Acknowledged by flush; this one is lost with the buffer.
            log.save(&state(3, 3)).unwrap();
        }
        let log = BinaryStateLog::open(&dir, BinLogConfig::default()).unwrap();
        assert!(log.recovery_warnings().is_empty());
        assert_eq!(log.list().unwrap(), vec![1, 2]);
        assert_eq!(log.load(1).unwrap().unwrap(), state(1, 1));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn checkpoint_compacts_and_survives_reopen() {
        let dir = temp_dir("ckpt");
        let cfg = BinLogConfig {
            shards: 2,
            ..BinLogConfig::default()
        };
        {
            let log = BinaryStateLog::open(&dir, cfg).unwrap();
            for id in 0..50u64 {
                log.save(&state(id, id)).unwrap();
            }
            for id in 0..50u64 {
                // Overwrites: compaction must keep only the latest.
                log.save(&state(id, id + 1000)).unwrap();
            }
            log.checkpoint().unwrap();
            // Logs are truncated back to their headers.
            for k in 0..2 {
                let len = std::fs::metadata(dir.join(format!("shard_{k}.log")))
                    .unwrap()
                    .len();
                assert_eq!(len, HEADER_LEN);
            }
        }
        let log = BinaryStateLog::open(&dir, cfg).unwrap();
        let ids = log.list().unwrap();
        assert_eq!(ids.len(), 50);
        for &id in &ids {
            assert_eq!(log.load(id).unwrap().unwrap(), state(id, id + 1000));
        }
        // Post-checkpoint writes land in the (empty) tail and win again.
        log.save(&state(3, 7777)).unwrap();
        assert_eq!(log.load(3).unwrap().unwrap(), state(3, 7777));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn truncated_tail_record_is_dropped_with_warning() {
        let dir = temp_dir("trunc");
        let cfg = BinLogConfig {
            shards: 1,
            ..BinLogConfig::default()
        };
        {
            let log = BinaryStateLog::open(&dir, cfg).unwrap();
            log.save(&state(1, 1)).unwrap();
            log.save(&state(2, 2)).unwrap();
            log.flush().unwrap();
        }
        // Crash mid-append: the final record loses its last 5 bytes.
        let path = dir.join("shard_0.log");
        let len = std::fs::metadata(&path).unwrap().len();
        OpenOptions::new()
            .write(true)
            .open(&path)
            .unwrap()
            .set_len(len - 5)
            .unwrap();
        let log = BinaryStateLog::open(&dir, cfg).unwrap();
        assert_eq!(log.recovery_warnings().len(), 1);
        assert!(log.recovery_warnings()[0].contains("torn or truncated"));
        assert_eq!(log.list().unwrap(), vec![1]);
        // The truncated file is writable again and appends cleanly.
        log.save(&state(9, 9)).unwrap();
        log.flush().unwrap();
        let log2 = BinaryStateLog::open(&dir, cfg).unwrap();
        assert!(log2.recovery_warnings().is_empty());
        assert_eq!(log2.list().unwrap(), vec![1, 9]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_write_fails_checksum_and_is_dropped() {
        let dir = temp_dir("torn");
        let cfg = BinLogConfig {
            shards: 1,
            ..BinLogConfig::default()
        };
        {
            let log = BinaryStateLog::open(&dir, cfg).unwrap();
            log.save(&state(1, 1)).unwrap();
            log.save(&state(2, 2)).unwrap();
            log.flush().unwrap();
        }
        // Torn write: the final record's bytes are garbage of the right
        // length — only the CRC can catch it.
        let path = dir.join("shard_0.log");
        let f = OpenOptions::new().write(true).open(&path).unwrap();
        let len = f.metadata().unwrap().len();
        f.write_all_at(&[0xAB; 12], len - 12).unwrap();
        drop(f);
        let log = BinaryStateLog::open(&dir, cfg).unwrap();
        assert_eq!(log.recovery_warnings().len(), 1);
        assert_eq!(log.list().unwrap(), vec![1]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Format v1 once defined op 2 (a tombstone); nothing writes it any
    /// more, and a log that holds one must not open as if it did not.
    #[test]
    fn a_delete_frame_is_refused_as_an_unknown_op() {
        let dir = temp_dir("op2");
        let cfg = BinLogConfig {
            shards: 1,
            ..BinLogConfig::default()
        };
        {
            let log = BinaryStateLog::open(&dir, cfg).unwrap();
            log.save(&state(1, 1)).unwrap();
            log.flush().unwrap();
        }
        let path = dir.join("shard_0.log");
        let offset = std::fs::metadata(&path).unwrap().len();
        let mut frame = Vec::new();
        append_frame(&mut frame, |out| {
            out.push(2);
            put_u64(out, 1);
            Ok(())
        })
        .unwrap();
        let mut f = OpenOptions::new().append(true).open(&path).unwrap();
        f.write_all(&frame).unwrap();
        drop(f);
        let err = BinaryStateLog::open(&dir, cfg).unwrap_err().to_string();
        assert!(
            err.contains("unknown record op 2") && err.contains(&format!("offset {offset}")),
            "{err}"
        );
        // Refused, not repaired: the frame is still there.
        assert_eq!(
            std::fs::metadata(&path).unwrap().len(),
            offset + frame.len() as u64
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn manifest_pins_shard_count() {
        let dir = temp_dir("manifest");
        {
            let log = BinaryStateLog::open(
                &dir,
                BinLogConfig {
                    shards: 4,
                    ..BinLogConfig::default()
                },
            )
            .unwrap();
            for id in 0..32u64 {
                log.save(&state(id, id)).unwrap();
            }
            log.flush().unwrap();
        }
        // Reopening with a different shard count adopts the manifest's.
        let log = BinaryStateLog::open(
            &dir,
            BinLogConfig {
                shards: 16,
                ..BinLogConfig::default()
            },
        )
        .unwrap();
        assert_eq!(log.config().shards, 4);
        assert_eq!(log.list().unwrap().len(), 32);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A checkpoint that fails before its rename must keep the tail: the
    /// newer write stays readable, and the next checkpoint makes it
    /// durable instead of truncating it away.
    #[test]
    fn a_failed_checkpoint_keeps_the_tail() {
        let dir = temp_dir("failed_ckpt");
        let cfg = BinLogConfig {
            shards: 1,
            ..BinLogConfig::default()
        };
        {
            let log = BinaryStateLog::open(&dir, cfg).unwrap();
            log.save(&state(1, 1)).unwrap();
            log.checkpoint().unwrap();
            log.save(&state(1, 2)).unwrap();
            let blocker = dir.join("shard_0.snap.tmp");
            std::fs::create_dir(&blocker).unwrap();
            assert!(log.checkpoint().is_err());
            assert_eq!(log.load(1).unwrap(), Some(state(1, 2)));
            std::fs::remove_dir(&blocker).unwrap();
            log.checkpoint().unwrap();
            assert_eq!(log.load(1).unwrap(), Some(state(1, 2)));
        }
        let log = BinaryStateLog::open(&dir, cfg).unwrap();
        assert_eq!(log.load(1).unwrap(), Some(state(1, 2)));
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Each file's header names its shard slot; a file copied into
    /// another shard's place fails `open`, naming the file, instead of
    /// silently hiding that shard's users.
    #[test]
    fn a_file_in_another_shards_slot_is_refused() {
        let dir = temp_dir("slot");
        let cfg = BinLogConfig {
            shards: 2,
            ..BinLogConfig::default()
        };
        {
            let log = BinaryStateLog::open(&dir, cfg).unwrap();
            for id in 0..20u64 {
                log.save(&state(id, id)).unwrap();
            }
            log.checkpoint().unwrap();
        }
        for kind in ["snap", "log"] {
            let (from, to) = (
                dir.join(format!("shard_0.{kind}")),
                dir.join(format!("shard_1.{kind}")),
            );
            let original = std::fs::read(&to).unwrap();
            std::fs::copy(&from, &to).unwrap();
            let err = BinaryStateLog::open(&dir, cfg).unwrap_err();
            let msg = err.to_string();
            assert!(matches!(err, CoreError::Persistence(_)), "{msg}");
            assert!(
                msg.contains(&format!("shard_1.{kind}"))
                    && msg.contains("names shard 0 of 2, expected shard 1 of 2"),
                "{msg}"
            );
            std::fs::write(&to, original).unwrap();
        }
        let log = BinaryStateLog::open(&dir, cfg).unwrap();
        assert_eq!(log.list().unwrap().len(), 20);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A one-shard log whose snapshot holds `ids`, dropped after the
    /// checkpoint.
    fn snapshot_of(tag: &str, ids: impl IntoIterator<Item = u64>) -> (PathBuf, BinLogConfig) {
        let dir = temp_dir(tag);
        let cfg = BinLogConfig {
            shards: 1,
            ..BinLogConfig::default()
        };
        let log = BinaryStateLog::open(&dir, cfg).unwrap();
        for id in ids {
            log.save(&state(id, id)).unwrap();
        }
        log.checkpoint().unwrap();
        (dir, cfg)
    }

    /// A snapshot's index block as its entries.
    type Entries = [[u8; INDEX_ENTRY_LEN]];
    /// An edit that breaks an index block's entries.
    type IndexEdit = fn(&mut Entries);

    /// Apply `edit` to the index block of the snapshot at `path`, then
    /// recompute the footer's index CRC so only the entries are wrong.
    fn rewrite_index(path: &Path, edit: impl FnOnce(&mut Entries)) {
        let mut bytes = std::fs::read(path).unwrap();
        let footer = bytes.len() - FOOTER_LEN as usize;
        let index_off = u64::from_le_bytes(bytes[footer..footer + 8].try_into().unwrap());
        let index = &mut bytes[index_off as usize..footer];
        edit(index.as_chunks_mut().0);
        let crc = crc32(index);
        bytes[footer + 16..footer + 20].copy_from_slice(&crc.to_le_bytes());
        std::fs::write(path, bytes).unwrap();
    }

    /// An index whose CRC holds but whose entries are out of order, or
    /// point outside the record area, fails `open` naming the file —
    /// instead of opening and silently missing its users.
    #[test]
    fn a_bad_snapshot_index_fails_open() {
        let (dir, cfg) = snapshot_of("bad_index", 1..=3);
        let path = dir.join("shard_0.snap");
        let original = std::fs::read(&path).unwrap();
        let cases: [(&str, IndexEdit); 3] = [
            ("entry 1 (user 1) does not ascend", |e| e.swap(0, 1)),
            ("entry 0 (user 1) points outside", |e| {
                e[0][8..16].copy_from_slice(&(HEADER_LEN - 1).to_le_bytes())
            }),
            ("entry 2 (user 3) points outside", |e| {
                e[2][16..20].copy_from_slice(&u32::MAX.to_le_bytes())
            }),
        ];
        for (why, edit) in cases {
            rewrite_index(&path, edit);
            let err = BinaryStateLog::open(&dir, cfg).unwrap_err();
            let msg = err.to_string();
            assert!(matches!(err, CoreError::Persistence(_)), "{msg}");
            assert!(
                msg.contains("shard_0.snap") && msg.contains(why),
                "{why}: {msg}"
            );
            std::fs::write(&path, &original).unwrap();
        }
        let log = BinaryStateLog::open(&dir, cfg).unwrap();
        assert_eq!(log.load(2).unwrap(), Some(state(2, 2)));
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A footer whose index offset overflows when the index length is
    /// added fails `open` as inconsistent geometry instead of wrapping.
    #[test]
    fn an_overflowing_index_offset_fails_open() {
        let (dir, cfg) = snapshot_of("index_off", 1..=3);
        let path = dir.join("shard_0.snap");
        let mut bytes = std::fs::read(&path).unwrap();
        let footer = bytes.len() - FOOTER_LEN as usize;
        bytes[footer..footer + 8].copy_from_slice(&(u64::MAX - 4).to_le_bytes());
        std::fs::write(&path, bytes).unwrap();
        let msg = BinaryStateLog::open(&dir, cfg).unwrap_err().to_string();
        assert!(
            msg.contains("shard_0.snap") && msg.contains("geometry is inconsistent"),
            "{msg}"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// An index entry that points at a neighbour's valid frame opens (the
    /// frame lies in the record area) but its load fails: `load(id)`
    /// returns user `id` or an error, never another user's state.
    #[test]
    fn a_load_that_reads_another_users_record_fails() {
        let (dir, cfg) = snapshot_of("neighbour", 1..=3);
        let path = dir.join("shard_0.snap");
        rewrite_index(&path, |e| {
            let (at, len) = (e[2][8..16].to_vec(), e[2][16..20].to_vec());
            e[1][8..16].copy_from_slice(&at);
            e[1][16..20].copy_from_slice(&len);
        });
        let log = BinaryStateLog::open(&dir, cfg).unwrap();
        let msg = log.load(2).unwrap_err().to_string();
        assert!(
            msg.contains("shard_0.snap") && msg.contains("user 2 holds user 3"),
            "{msg}"
        );
        assert_eq!(log.load(1).unwrap(), Some(state(1, 1)));
        assert_eq!(log.load(3).unwrap(), Some(state(3, 3)));
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A load of an id outside the snapshot's `[first, last]` range never
    /// touches the file: with the snapshot truncated to nothing under an
    /// open log, such loads still miss cleanly while an in-range load
    /// (present or not) has to read and fails.
    #[test]
    fn loads_outside_the_snapshot_range_read_nothing() {
        let (dir, cfg) = snapshot_of("fence_range", (10..=400).step_by(3));
        let log = BinaryStateLog::open(&dir, cfg).unwrap();
        assert_eq!(log.load(205).unwrap(), Some(state(205, 205)));
        OpenOptions::new()
            .write(true)
            .open(dir.join("shard_0.snap"))
            .unwrap()
            .set_len(0)
            .unwrap();
        for id in [0, 9, 401, 402, u64::MAX] {
            assert_eq!(log.load(id).unwrap(), None, "user {id}");
        }
        for id in [10, 11, 205, 400] {
            assert!(log.load(id).is_err(), "user {id}");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A manifest that pins zero shards is refused at `open`, not left to
    /// panic on the first save.
    #[test]
    fn a_zero_shard_manifest_is_refused_at_open() {
        let dir = temp_dir("zero_shards");
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(
            dir.join("manifest.json"),
            r#"{"schema":1,"format":1,"shards":0}"#,
        )
        .unwrap();
        let err = BinaryStateLog::open(&dir, BinLogConfig::default()).unwrap_err();
        let msg = err.to_string();
        assert!(matches!(err, CoreError::Persistence(_)), "{msg}");
        assert!(
            msg.contains("manifest.json") && msg.contains("shards"),
            "{msg}"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// The sorted entries of `dir`.
    fn listing(dir: &Path) -> Vec<String> {
        let mut names: Vec<String> = std::fs::read_dir(dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().into_string().unwrap())
            .collect();
        names.sort_unstable();
        names
    }

    /// Without a manifest, `open` creates a log only in an absent or
    /// empty directory, overwriting a stale `manifest.json.tmp`; any other
    /// entry — file-per-user JSON state, shard files whose manifest was
    /// deleted — fails `open`, naming it, and nothing is written.
    #[test]
    fn open_creates_a_log_only_in_an_absent_or_empty_dir() {
        let dir = temp_dir("create_guard");
        let cfg = BinLogConfig::default();
        BinaryStateLog::open(&dir, cfg).unwrap();
        assert!(dir.join("manifest.json").exists(), "absent dir");

        std::fs::remove_dir_all(&dir).unwrap();
        std::fs::create_dir(&dir).unwrap();
        BinaryStateLog::open(&dir, cfg).unwrap();
        assert!(dir.join("manifest.json").exists(), "empty dir");

        std::fs::remove_dir_all(&dir).unwrap();
        std::fs::create_dir(&dir).unwrap();
        std::fs::write(dir.join("manifest.json.tmp"), "{\"sch").unwrap();
        BinaryStateLog::open(&dir, cfg).unwrap();
        assert!(!listing(&dir).contains(&"manifest.json.tmp".to_string()));
        let log = BinaryStateLog::open(&dir, cfg).unwrap();
        log.save(&state(5, 5)).unwrap();
        log.flush().unwrap();
        drop(log);

        // A deleted manifest beside shard files, and file-per-user state.
        std::fs::remove_file(dir.join("manifest.json")).unwrap();
        let json_dir = temp_dir("create_guard_json");
        std::fs::create_dir(&json_dir).unwrap();
        std::fs::write(json_dir.join("user_5.json"), "{}").unwrap();
        for (at, entry) in [(&dir, "shard_0.log"), (&json_dir, "user_5.json")] {
            let before = listing(at);
            let err = BinaryStateLog::open(at, cfg).unwrap_err();
            let msg = err.to_string();
            assert!(matches!(err, CoreError::Persistence(_)), "{msg}");
            assert!(
                msg.contains(&format!("{at:?} holds \"{entry}\" but no manifest.json")),
                "{msg}"
            );
            assert_eq!(listing(at), before, "refusal writes nothing");
        }
        let _ = std::fs::remove_dir_all(&dir);
        let _ = std::fs::remove_dir_all(&json_dir);
    }
}
