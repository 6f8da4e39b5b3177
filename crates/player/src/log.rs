//! Session logs: the per-segment trajectories every analysis in §2 of the
//! paper is computed from.
//!
//! Each production trajectory contains "user IDs, watch timestamps, total
//! video lengths, user watch time, and information regarding each video
//! segment, such as buffer size, bitrate levels, segment sizes, download
//! time, and stall time" — [`SessionLog`] carries exactly those fields.

/// Per-segment record.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SegmentRecord {
    /// Segment index within the video.
    pub index: usize,
    /// Chosen bitrate level.
    pub level: usize,
    /// Nominal bitrate of that level (kbps).
    pub bitrate_kbps: f64,
    /// Actual segment size (kilobits).
    pub size_kbits: f64,
    /// Observed download throughput (kbps).
    pub throughput_kbps: f64,
    /// Download time (seconds).
    pub download_time: f64,
    /// Stall time charged to this segment (seconds).
    pub stall_time: f64,
    /// Buffer after this segment's update (seconds).
    pub buffer_after: f64,
    /// The previous segment's level (`None` for a session's first).
    pub switched_from: Option<usize>,
}

impl SegmentRecord {
    /// Whether this segment changed quality relative to its predecessor.
    pub fn is_switch(&self) -> bool {
        self.switched_from.is_some_and(|f| f != self.level)
    }

    /// Signed switch granularity (`level - previous level`), 0 if none —
    /// the x-axis of Fig. 4(b).
    pub fn switch_granularity(&self) -> i64 {
        switch_granularity(self.level, self.switched_from)
    }
}

/// Signed switch granularity of a segment at `level` after one at
/// `previous` (`level - previous`), 0 when there is none before it.
pub fn switch_granularity(level: usize, previous: Option<usize>) -> i64 {
    match previous {
        Some(p) => level as i64 - p as i64,
        None => 0,
    }
}

/// Why a session ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SessionEnd {
    /// Watched to the end of the video.
    Completed,
    /// The user-model exited mid-video.
    Exited,
}

/// A complete playback session.
#[derive(Debug, Clone, PartialEq)]
pub struct SessionLog {
    /// User that played the session (0 when unowned).
    pub user_id: u64,
    /// Video identifier.
    pub video_id: u64,
    /// Total video duration (seconds).
    pub video_duration: f64,
    /// Per-segment records in playback order.
    pub segments: Vec<SegmentRecord>,
    /// Seconds of content actually watched.
    pub watch_time: f64,
    /// How the session ended.
    pub end: SessionEnd,
    /// Index of the segment after which the exit happened (when `end ==
    /// Exited`).
    pub exit_segment: Option<usize>,
}

impl SessionLog {
    /// Total stall seconds across the session.
    pub fn total_stall(&self) -> f64 {
        self.segments.iter().map(|s| s.stall_time).sum()
    }

    /// Number of stall events (segments with positive stall).
    pub fn stall_count(&self) -> usize {
        self.segments.iter().filter(|s| s.stall_time > 0.0).count()
    }

    /// Mean bitrate over downloaded segments (kbps); 0 for empty sessions.
    pub fn mean_bitrate(&self) -> f64 {
        if self.segments.is_empty() {
            return 0.0;
        }
        self.segments.iter().map(|s| s.bitrate_kbps).sum::<f64>() / self.segments.len() as f64
    }

    /// Number of quality switches.
    pub fn switch_count(&self) -> usize {
        self.segments.iter().filter(|s| s.is_switch()).count()
    }

    /// Fraction of the video watched, in `[0, 1]`.
    pub fn completion_ratio(&self) -> f64 {
        if self.video_duration <= 0.0 {
            return 0.0;
        }
        (self.watch_time / self.video_duration).clamp(0.0, 1.0)
    }

    /// Whether the session completed the video — the numerator of §5.2's
    /// "video completion rate" metric.
    pub fn completed(&self) -> bool {
        self.end == SessionEnd::Completed
    }

    /// One-line summary used by metric aggregation.
    pub fn summary(&self) -> SessionSummary {
        SessionSummary {
            user_id: self.user_id,
            watch_time: self.watch_time,
            total_stall: self.total_stall(),
            stall_count: self.stall_count(),
            mean_bitrate: self.mean_bitrate(),
            switch_count: self.switch_count(),
            completed: self.completed(),
            segments: self.segments.len(),
        }
    }
}

/// Aggregate numbers of one session.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SessionSummary {
    /// Owner.
    pub user_id: u64,
    /// Seconds watched.
    pub watch_time: f64,
    /// Stall seconds.
    pub total_stall: f64,
    /// Stall events.
    pub stall_count: usize,
    /// Mean bitrate (kbps).
    pub mean_bitrate: f64,
    /// Quality switches.
    pub switch_count: usize,
    /// Watched to the end?
    pub completed: bool,
    /// Segments downloaded.
    pub segments: usize,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seg(index: usize, level: usize, stall: f64, from: Option<usize>) -> SegmentRecord {
        SegmentRecord {
            index,
            level,
            bitrate_kbps: [350.0, 800.0, 1850.0, 4300.0][level],
            size_kbits: 1000.0,
            throughput_kbps: 2000.0,
            download_time: 0.5,
            stall_time: stall,
            buffer_after: 4.0,
            switched_from: from,
        }
    }

    fn log() -> SessionLog {
        SessionLog {
            user_id: 7,
            video_id: 1,
            video_duration: 10.0,
            segments: vec![
                seg(0, 1, 0.3, None),
                seg(1, 1, 0.0, Some(1)),
                seg(2, 2, 0.0, Some(1)),
                seg(3, 0, 1.2, Some(2)),
            ],
            watch_time: 8.0,
            end: SessionEnd::Exited,
            exit_segment: Some(3),
        }
    }

    #[test]
    fn aggregates() {
        let l = log();
        assert!((l.total_stall() - 1.5).abs() < 1e-12);
        assert_eq!(l.stall_count(), 2);
        assert_eq!(l.switch_count(), 2);
        assert!((l.mean_bitrate() - (800.0 + 800.0 + 1850.0 + 350.0) / 4.0).abs() < 1e-9);
        assert!((l.completion_ratio() - 0.8).abs() < 1e-12);
        assert!(!l.completed());
    }

    #[test]
    fn switch_granularity_signed() {
        let l = log();
        assert_eq!(l.segments[0].switch_granularity(), 0);
        assert_eq!(l.segments[2].switch_granularity(), 1);
        assert_eq!(l.segments[3].switch_granularity(), -2);
        assert!(!l.segments[1].is_switch());
        assert!(l.segments[3].is_switch());
    }

    #[test]
    fn summary_matches() {
        let l = log();
        let s = l.summary();
        assert_eq!(s.user_id, 7);
        assert_eq!(s.stall_count, 2);
        assert_eq!(s.segments, 4);
        assert!(!s.completed);
    }

    #[test]
    fn completion_ratio_edge_cases() {
        let mut l = log();
        l.video_duration = 0.0;
        assert_eq!(l.completion_ratio(), 0.0);
        l.video_duration = 5.0;
        l.watch_time = 50.0;
        assert_eq!(l.completion_ratio(), 1.0);
    }

    #[test]
    fn empty_session_mean_bitrate_zero() {
        let l = SessionLog {
            user_id: 0,
            video_id: 0,
            video_duration: 10.0,
            segments: vec![],
            watch_time: 0.0,
            end: SessionEnd::Completed,
            exit_segment: None,
        };
        assert_eq!(l.mean_bitrate(), 0.0);
        assert_eq!(l.stall_count(), 0);
    }
}
