//! Streaming daily metric aggregation over session summaries.

use lingxi_player::SessionSummary;
use serde::{Deserialize, Serialize};

/// Aggregated metrics of one cohort-day — the three panels of Fig. 12
/// plus supporting counts.
// detlint::allow(serde_derive, reason = "EpochMetrics aggregates in the fleet checkpoint, fleet_ckpt.json")
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct DayMetrics {
    /// Total watch time (seconds) — the primary QoE metric (§5.3.1).
    pub watch_time: f64,
    /// Total stall time (seconds).
    pub stall_time: f64,
    /// Session-weighted mean bitrate (kbps).
    pub mean_bitrate: f64,
    /// Sessions played.
    pub sessions: usize,
    /// Sessions completed.
    pub completions: usize,
    /// Stall events.
    pub stall_count: usize,
    /// Quality switches.
    pub switches: usize,
}

impl DayMetrics {
    /// Completion rate in `[0, 1]`.
    pub fn completion_rate(&self) -> f64 {
        if self.sessions == 0 {
            0.0
        } else {
            self.completions as f64 / self.sessions as f64
        }
    }
}

/// Streaming accumulator for [`DayMetrics`]: fold session summaries one at
/// a time in O(1) memory; the only way a [`DayMetrics`] is computed.
///
/// The fleet engine keeps one `DayAccum` per user (sessions folded in play
/// order) and merges the per-user partials in ascending user-id order at
/// the epoch barrier — an order that is a pure function of the population,
/// never of the shard layout, so the merged [`DayMetrics`] are
/// bit-identical for any shard count.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct DayAccum {
    watch_time: f64,
    stall_time: f64,
    sessions: usize,
    completions: usize,
    stall_count: usize,
    switches: usize,
    segments: usize,
    bitrate_sum: f64,
    bitrate_weight: f64,
}

impl DayAccum {
    /// An empty accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Fold one session summary.
    pub fn push(&mut self, s: &SessionSummary) {
        self.watch_time += s.watch_time;
        self.stall_time += s.total_stall;
        self.sessions += 1;
        self.completions += usize::from(s.completed);
        self.stall_count += s.stall_count;
        self.switches += s.switch_count;
        self.segments += s.segments;
        let w = s.segments.max(1) as f64;
        self.bitrate_sum += s.mean_bitrate * w;
        self.bitrate_weight += w;
    }

    /// Fold another accumulator into this one. Float sums make the result
    /// order-sensitive in the last bits; merge partials in a canonical
    /// order when bit-identical cross-partition results are required.
    pub fn merge(&mut self, other: &Self) {
        self.watch_time += other.watch_time;
        self.stall_time += other.stall_time;
        self.sessions += other.sessions;
        self.completions += other.completions;
        self.stall_count += other.stall_count;
        self.switches += other.switches;
        self.segments += other.segments;
        self.bitrate_sum += other.bitrate_sum;
        self.bitrate_weight += other.bitrate_weight;
    }

    /// Sessions folded so far.
    pub fn sessions(&self) -> usize {
        self.sessions
    }

    /// Segments folded so far (not part of [`DayMetrics`]; kept for
    /// engine throughput accounting).
    pub fn segments(&self) -> usize {
        self.segments
    }

    /// Finish into [`DayMetrics`].
    pub fn metrics(&self) -> DayMetrics {
        DayMetrics {
            watch_time: self.watch_time,
            stall_time: self.stall_time,
            mean_bitrate: if self.bitrate_weight > 0.0 {
                self.bitrate_sum / self.bitrate_weight
            } else {
                0.0
            },
            sessions: self.sessions,
            completions: self.completions,
            stall_count: self.stall_count,
            switches: self.switches,
        }
    }
}

/// Relative difference in percent: `100 · (treatment − control) / control`.
/// Returns 0 when the control value is 0.
pub fn relative_diff_pct(treatment: f64, control: f64) -> f64 {
    if control == 0.0 {
        0.0
    } else {
        100.0 * (treatment - control) / control
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn summary(
        watch: f64,
        stall: f64,
        bitrate: f64,
        completed: bool,
        segs: usize,
    ) -> SessionSummary {
        SessionSummary {
            user_id: 0,
            watch_time: watch,
            total_stall: stall,
            stall_count: usize::from(stall > 0.0),
            mean_bitrate: bitrate,
            switch_count: 1,
            completed,
            segments: segs,
        }
    }

    fn day_of(summaries: &[SessionSummary]) -> DayAccum {
        let mut acc = DayAccum::new();
        for s in summaries {
            acc.push(s);
        }
        acc
    }

    #[test]
    fn aggregation_sums_and_weights() {
        let day = day_of(&[
            summary(30.0, 1.0, 1000.0, true, 10),
            summary(10.0, 0.0, 3000.0, false, 30),
        ])
        .metrics();
        assert_eq!(day.watch_time, 40.0);
        assert_eq!(day.stall_time, 1.0);
        assert_eq!(day.sessions, 2);
        assert_eq!(day.completions, 1);
        assert_eq!(day.stall_count, 1);
        assert_eq!(day.switches, 2);
        // Weighted by segments: (1000*10 + 3000*30)/40 = 2500.
        assert!((day.mean_bitrate - 2500.0).abs() < 1e-9);
        assert_eq!(day.completion_rate(), 0.5);
    }

    #[test]
    fn accum_matches_aggregate_day() {
        let sessions = [
            summary(30.0, 1.0, 1000.0, true, 10),
            summary(10.0, 0.0, 3000.0, false, 30),
            summary(5.0, 2.5, 800.0, false, 4),
        ];
        // The day's aggregate, by hand.
        let batch = DayMetrics {
            watch_time: 45.0,
            stall_time: 3.5,
            mean_bitrate: (1000.0 * 10.0 + 3000.0 * 30.0 + 800.0 * 4.0) / 44.0,
            sessions: 3,
            completions: 1,
            stall_count: 2,
            switches: 3,
        };
        let acc = day_of(&sessions);
        assert_eq!(acc.metrics(), batch);
        assert_eq!(acc.sessions(), 3);
        // Split + ordered merge reproduces the single-stream result.
        let mut a = day_of(&sessions[..1]);
        a.merge(&day_of(&sessions[1..]));
        assert_eq!(a.metrics().sessions, batch.sessions);
        assert!((a.metrics().watch_time - batch.watch_time).abs() < 1e-12);
        assert_eq!(DayAccum::new().metrics(), DayMetrics::default());
    }

    #[test]
    fn empty_day_is_zero() {
        let day = DayAccum::new().metrics();
        assert_eq!(day.sessions, 0);
        assert_eq!(day.completion_rate(), 0.0);
        assert_eq!(day.mean_bitrate, 0.0);
    }

    #[test]
    fn relative_diff() {
        assert!((relative_diff_pct(101.0, 100.0) - 1.0).abs() < 1e-12);
        assert!((relative_diff_pct(99.0, 100.0) + 1.0).abs() < 1e-12);
        assert_eq!(relative_diff_pct(5.0, 0.0), 0.0);
    }
}
