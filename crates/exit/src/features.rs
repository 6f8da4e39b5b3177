//! The 5×8 user-state matrix of Fig. 7.
//!
//! "We model this relationship across five dimensions: bitrate, throughput,
//! past stall time, last stall interval, and last stall-exit interval ...
//! we set the matrix length to 8. The first two dimensions correspond to
//! the last eight video segments, while the last three dimensions relate to
//! stall events and user engagement."

/// Row length of the state matrix.
pub const MATRIX_LEN: usize = 8;
/// Number of feature dimensions (rows).
pub const N_DIMS: usize = 5;

/// Normalisation constants (kbps / seconds).
const BITRATE_SCALE: f64 = 5000.0;
const TPUT_SCALE: f64 = 10_000.0;
const STALL_SCALE: f64 = 10.0;
const INTERVAL_SCALE: f64 = 120.0;

/// A dense 5×8 state matrix, rows in the order: bitrate, throughput,
/// stall time, stall interval, stall→exit interval.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StateMatrix {
    /// `rows[d][t]`, normalised into roughly `[0, ~3]`.
    pub rows: [[f64; MATRIX_LEN]; N_DIMS],
}

impl StateMatrix {
    /// All-zero matrix (cold start).
    pub fn zeros() -> Self {
        Self {
            rows: [[0.0; MATRIX_LEN]; N_DIMS],
        }
    }

    /// Flatten row-major (the NN branch input order).
    pub fn flat(&self) -> [f64; N_DIMS * MATRIX_LEN] {
        let mut out = [0.0; N_DIMS * MATRIX_LEN];
        for (d, row) in self.rows.iter().enumerate() {
            out[d * MATRIX_LEN..(d + 1) * MATRIX_LEN].copy_from_slice(row);
        }
        out
    }

    /// One row as a slice.
    pub fn row(&self, d: usize) -> &[f64; MATRIX_LEN] {
        &self.rows[d]
    }
}

/// Rolling tracker that maintains the state matrix across a user's
/// playback history (short-term video state + long-term engagement state,
/// persisted across sessions by LingXi's state management).
///
/// `Clone` is written out so that `clone_from` copies into the target's
/// window allocations instead of replacing them: the state cache recycles
/// an evicted user's tracker for the next resident that way.
#[derive(Debug, PartialEq, Default)]
pub struct UserStateTracker {
    bitrates: Vec<f64>,
    throughputs: Vec<f64>,
    /// Durations of the last stalls (seconds).
    stall_times: Vec<f64>,
    /// Wall-clock gaps between consecutive stalls (seconds).
    stall_intervals: Vec<f64>,
    /// Gaps between a stall and the next stall-triggered exit (seconds).
    stall_exit_intervals: Vec<f64>,
    /// Wall time of the last stall (for interval computation).
    last_stall_at: Option<f64>,
    /// Global wall-clock across sessions (seconds).
    clock: f64,
}

impl Clone for UserStateTracker {
    fn clone(&self) -> Self {
        Self {
            bitrates: self.bitrates.clone(),
            throughputs: self.throughputs.clone(),
            stall_times: self.stall_times.clone(),
            stall_intervals: self.stall_intervals.clone(),
            stall_exit_intervals: self.stall_exit_intervals.clone(),
            last_stall_at: self.last_stall_at,
            clock: self.clock,
        }
    }

    fn clone_from(&mut self, source: &Self) {
        self.bitrates.clone_from(&source.bitrates);
        self.throughputs.clone_from(&source.throughputs);
        self.stall_times.clone_from(&source.stall_times);
        self.stall_intervals.clone_from(&source.stall_intervals);
        self.stall_exit_intervals
            .clone_from(&source.stall_exit_intervals);
        self.last_stall_at = source.last_stall_at;
        self.clock = source.clock;
    }
}

impl UserStateTracker {
    /// Fresh tracker.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one played segment.
    pub fn push_segment(&mut self, bitrate_kbps: f64, throughput_kbps: f64, duration: f64) {
        push_bounded(&mut self.bitrates, bitrate_kbps, MATRIX_LEN);
        push_bounded(&mut self.throughputs, throughput_kbps, MATRIX_LEN);
        self.clock += duration;
    }

    /// Record a stall event of `duration` seconds.
    pub fn push_stall(&mut self, duration: f64) {
        push_bounded(&mut self.stall_times, duration, MATRIX_LEN);
        if let Some(prev) = self.last_stall_at {
            push_bounded(&mut self.stall_intervals, self.clock - prev, MATRIX_LEN);
        }
        self.last_stall_at = Some(self.clock);
        self.clock += duration;
    }

    /// Record that the user exited following a stall.
    pub fn push_stall_exit(&mut self) {
        if let Some(at) = self.last_stall_at {
            push_bounded(
                &mut self.stall_exit_intervals,
                (self.clock - at).max(0.0),
                MATRIX_LEN,
            );
        }
    }

    /// Advance the engagement clock without playback (between sessions).
    pub fn advance_clock(&mut self, seconds: f64) {
        self.clock += seconds.max(0.0);
    }

    /// Total stalls remembered (bounded by the window).
    pub fn recent_stall_count(&self) -> usize {
        self.stall_times.len()
    }

    /// Build the normalised state matrix (most recent sample last).
    pub fn matrix(&self) -> StateMatrix {
        let mut m = StateMatrix::zeros();
        fill_row(&mut m.rows[0], &self.bitrates, BITRATE_SCALE);
        fill_row(&mut m.rows[1], &self.throughputs, TPUT_SCALE);
        fill_row(&mut m.rows[2], &self.stall_times, STALL_SCALE);
        fill_row(&mut m.rows[3], &self.stall_intervals, INTERVAL_SCALE);
        fill_row(&mut m.rows[4], &self.stall_exit_intervals, INTERVAL_SCALE);
        m
    }
}

/// The raw persisted fields of a [`UserStateTracker`], owned — what a
/// binary persistence codec (`lingxi_core::binlog`), which cannot rely on
/// serde and must round-trip every field bit-exactly, decodes into. The
/// encoder reads the same fields borrowed, through
/// [`UserStateTracker::windows`], [`UserStateTracker::last_stall_at`] and
/// [`UserStateTracker::clock`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TrackerParts {
    /// Bitrates of the last played segments (kbps), oldest first.
    pub bitrates: Vec<f64>,
    /// Throughputs of the last played segments (kbps), oldest first.
    pub throughputs: Vec<f64>,
    /// Durations of the last stalls (seconds), oldest first.
    pub stall_times: Vec<f64>,
    /// Wall-clock gaps between consecutive stalls (seconds).
    pub stall_intervals: Vec<f64>,
    /// Gaps between a stall and the next stall-triggered exit (seconds).
    pub stall_exit_intervals: Vec<f64>,
    /// Wall time of the last stall (for interval computation).
    pub last_stall_at: Option<f64>,
    /// Global wall-clock across sessions (seconds).
    pub clock: f64,
}

impl UserStateTracker {
    /// The five windows, borrowed, in [`TrackerParts`] order: bitrates,
    /// throughputs, stall times, stall intervals, stall→exit intervals.
    pub fn windows(&self) -> [&[f64]; N_DIMS] {
        [
            &self.bitrates,
            &self.throughputs,
            &self.stall_times,
            &self.stall_intervals,
            &self.stall_exit_intervals,
        ]
    }

    /// Wall time of the last stall, if any (seconds).
    pub fn last_stall_at(&self) -> Option<f64> {
        self.last_stall_at
    }

    /// Global wall-clock across sessions (seconds).
    pub fn clock(&self) -> f64 {
        self.clock
    }

    /// Rebuild a tracker from raw persisted fields: the windows in
    /// [`UserStateTracker::windows`] order, [`UserStateTracker::last_stall_at`]
    /// and [`UserStateTracker::clock`], bit-exactly.
    pub fn from_parts(parts: TrackerParts) -> Self {
        Self {
            bitrates: parts.bitrates,
            throughputs: parts.throughputs,
            stall_times: parts.stall_times,
            stall_intervals: parts.stall_intervals,
            stall_exit_intervals: parts.stall_exit_intervals,
            last_stall_at: parts.last_stall_at,
            clock: parts.clock,
        }
    }
}

fn push_bounded(v: &mut Vec<f64>, x: f64, cap: usize) {
    if v.len() == cap {
        v.remove(0);
    }
    v.push(x);
}

fn fill_row(row: &mut [f64; MATRIX_LEN], src: &[f64], scale: f64) {
    // Right-align: latest observation in the last slot, zeros pad the left.
    let n = src.len().min(MATRIX_LEN);
    for (i, &x) in src[src.len() - n..].iter().enumerate() {
        row[MATRIX_LEN - n + i] = (x / scale).clamp(0.0, 3.0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cold_start_is_zero() {
        let t = UserStateTracker::new();
        let m = t.matrix();
        assert!(m.flat().iter().all(|&x| x == 0.0));
        assert_eq!(t.recent_stall_count(), 0);
    }

    #[test]
    fn segments_fill_right_aligned() {
        let mut t = UserStateTracker::new();
        t.push_segment(1000.0, 5000.0, 2.0);
        t.push_segment(2000.0, 6000.0, 2.0);
        let m = t.matrix();
        // Last two slots of row 0 hold the bitrates.
        assert!((m.rows[0][7] - 2000.0 / 5000.0).abs() < 1e-12);
        assert!((m.rows[0][6] - 1000.0 / 5000.0).abs() < 1e-12);
        assert_eq!(m.rows[0][0], 0.0);
        assert!((m.rows[1][7] - 0.6).abs() < 1e-12);
    }

    #[test]
    fn windows_bounded_to_eight() {
        let mut t = UserStateTracker::new();
        for i in 0..20 {
            t.push_segment(100.0 * i as f64, 1000.0, 2.0);
        }
        let m = t.matrix();
        // Oldest remembered segment is i=12.
        assert!((m.rows[0][0] - 1200.0 / 5000.0).abs() < 1e-12);
        assert!((m.rows[0][7] - 1900.0 / 5000.0).abs() < 1e-12);
    }

    #[test]
    fn stall_intervals_computed() {
        let mut t = UserStateTracker::new();
        t.push_segment(1000.0, 5000.0, 2.0); // clock=2
        t.push_stall(1.0); // stall at 2, clock=3
        t.push_segment(1000.0, 5000.0, 2.0); // clock=5
        t.push_segment(1000.0, 5000.0, 2.0); // clock=7
        t.push_stall(2.0); // stall at 7 → interval 5
        let m = t.matrix();
        assert!((m.rows[2][7] - 2.0 / 10.0).abs() < 1e-12);
        assert!((m.rows[2][6] - 1.0 / 10.0).abs() < 1e-12);
        assert!((m.rows[3][7] - 5.0 / 120.0).abs() < 1e-12);
        assert_eq!(t.recent_stall_count(), 2);
    }

    #[test]
    fn stall_exit_interval_recorded() {
        let mut t = UserStateTracker::new();
        t.push_segment(1000.0, 5000.0, 2.0);
        t.push_stall(1.5); // at clock=2
        t.push_segment(1000.0, 5000.0, 2.0); // clock=5.5
        t.push_stall_exit(); // interval = 5.5 - 2 = 3.5
        let m = t.matrix();
        assert!((m.rows[4][7] - 3.5 / 120.0).abs() < 1e-9);
    }

    #[test]
    fn exit_without_stall_is_noop() {
        let mut t = UserStateTracker::new();
        t.push_segment(1000.0, 5000.0, 2.0);
        t.push_stall_exit();
        let m = t.matrix();
        assert!(m.rows[4].iter().all(|&x| x == 0.0));
    }

    #[test]
    fn values_clamped() {
        let mut t = UserStateTracker::new();
        t.push_segment(1e9, 1e9, 2.0);
        t.push_stall(1e6);
        let m = t.matrix();
        assert!(m.flat().iter().all(|&x| x <= 3.0));
    }

    #[test]
    fn clone_from_copies_into_the_targets_windows() {
        let mut src = UserStateTracker::new();
        src.push_segment(1000.0, 5000.0, 2.0);
        src.push_stall(1.5);
        let mut dst = UserStateTracker::new();
        for i in 0..8 {
            dst.push_segment(i as f64, 1.0, 1.0);
            dst.push_stall(0.5);
        }
        let kept = dst.bitrates.as_ptr();
        dst.clone_from(&src);
        assert_eq!(dst, src);
        assert_eq!(dst.bitrates.as_ptr(), kept, "the allocation is reused");
        let parts = TrackerParts {
            bitrates: src.windows()[0].to_vec(),
            throughputs: src.windows()[1].to_vec(),
            stall_times: src.windows()[2].to_vec(),
            stall_intervals: src.windows()[3].to_vec(),
            stall_exit_intervals: src.windows()[4].to_vec(),
            last_stall_at: src.last_stall_at(),
            clock: src.clock(),
        };
        assert_eq!(UserStateTracker::from_parts(parts), src);
    }

    #[test]
    fn flat_layout_row_major() {
        let mut t = UserStateTracker::new();
        t.push_segment(5000.0, 10_000.0, 2.0);
        let f = t.matrix().flat();
        assert_eq!(f.len(), 40);
        assert!((f[7] - 1.0).abs() < 1e-12); // bitrate row end
        assert!((f[15] - 1.0).abs() < 1e-12); // throughput row end
    }
}
