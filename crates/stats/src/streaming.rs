//! Bounded-memory streaming statistics: mergeable moments and a
//! fixed-bin quantile sketch.
//!
//! The fleet engine (see `lingxi-fleet`) aggregates metrics over millions
//! of sessions; storing every per-session value just to compute a mean or
//! a p99 at the epoch barrier is O(sessions) memory. The two types here
//! hold O(1) / O(bins) state instead:
//!
//! * [`StreamingMoments`] — count/sum/sum-of-squares (plus exact min/max),
//!   enough for mean, variance and standard error. Merging adds the
//!   fields; because float addition is not associative, callers that need
//!   bit-identical results across different partitions (the fleet's
//!   shard-count invariance contract) must merge partials in a canonical
//!   order (the fleet merges per-user partials in ascending user-id
//!   order).
//! * [`QuantileSketch`] — a fixed-bin histogram over a configured value
//!   range. Unlike P² (which keeps five adaptive markers but is neither
//!   mergeable nor order-independent), fixed integer bins make the merge
//!   *exactly* associative and commutative — `u64` addition — so sketches
//!   accumulated on different shards merge bit-identically in any order.
//!   The price is a fixed value range and a value error bounded by one
//!   bin width; both are the right trade for QoE metrics whose ranges are
//!   known a priori (stall seconds, watch seconds, ladder bitrates).

use serde::{Deserialize, Serialize};

use crate::{Result, StatsError};

/// Streaming count/sum/sum-of-squares accumulator: O(1) memory mean and
/// variance over a value stream, with exact min/max.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StreamingMoments {
    /// Number of observations.
    pub count: u64,
    /// Sum of observations.
    pub sum: f64,
    /// Sum of squared observations.
    pub sum_sq: f64,
    /// Smallest observation (`+inf` when empty).
    pub min: f64,
    /// Largest observation (`-inf` when empty).
    pub max: f64,
}

impl Default for StreamingMoments {
    fn default() -> Self {
        Self {
            count: 0,
            sum: 0.0,
            sum_sq: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }
}

impl StreamingMoments {
    /// An empty accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Observe one value.
    pub fn push(&mut self, x: f64) {
        self.count += 1;
        self.sum += x;
        self.sum_sq += x * x;
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Fold another accumulator into this one. Field-wise addition: exact
    /// for `count`, order-sensitive in the last float bits for the sums —
    /// merge partials in a canonical order when bit-identical results
    /// across partitions are required.
    pub fn merge(&mut self, other: &Self) {
        self.count += other.count;
        self.sum += other.sum;
        self.sum_sq += other.sum_sq;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Arithmetic mean (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }

    /// Unbiased sample variance (0 when fewer than two observations).
    /// Clamped at 0 against catastrophic cancellation in `sum_sq - n·μ²`.
    pub fn variance(&self) -> f64 {
        if self.count < 2 {
            return 0.0;
        }
        let n = self.count as f64;
        ((self.sum_sq - self.sum * self.sum / n) / (n - 1.0)).max(0.0)
    }

    /// Unbiased sample standard deviation.
    pub fn std_dev(&self) -> f64 {
        self.variance().sqrt()
    }
}

/// A mergeable fixed-bin quantile sketch over a configured value range.
///
/// Values land in one of `bins` equal-width buckets over `[lo, hi)`;
/// values below `lo` count into the first bin, values at or above `hi`
/// into the last (the exact `min`/`max` are tracked separately). Quantiles
/// interpolate within the owning bucket, so for in-range data the answer
/// is within one bin width of the exact order statistic.
///
/// Because the state is integer counts, [`QuantileSketch::merge`] is
/// exactly associative and commutative — shards can accumulate
/// independently and merge in any order with bit-identical results.
// detlint::allow(serde_derive, reason = "EpochSketches in fleet_ckpt.json")
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct QuantileSketch {
    lo: f64,
    hi: f64,
    bins: Vec<u64>,
    count: u64,
    min: f64,
    max: f64,
}

impl QuantileSketch {
    /// Create a sketch over `[lo, hi)` with `bins` buckets.
    pub fn new(lo: f64, hi: f64, bins: usize) -> Result<Self> {
        if !(hi > lo) || !lo.is_finite() || !hi.is_finite() || bins == 0 {
            return Err(StatsError::InvalidParameter);
        }
        Ok(Self {
            lo,
            hi,
            bins: vec![0; bins],
            count: 0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        })
    }

    /// Lower bound of the tracked range.
    pub fn lo(&self) -> f64 {
        self.lo
    }

    /// Upper bound of the tracked range.
    pub fn hi(&self) -> f64 {
        self.hi
    }

    /// Total observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Width of one bucket.
    pub fn bin_width(&self) -> f64 {
        (self.hi - self.lo) / self.bins.len() as f64
    }

    /// Observe one value (NaN is ignored).
    pub fn push(&mut self, x: f64) {
        if x.is_nan() {
            return;
        }
        let n = self.bins.len();
        let idx = if x < self.lo {
            0
        } else {
            let raw = ((x - self.lo) / (self.hi - self.lo) * n as f64) as usize;
            raw.min(n - 1)
        };
        self.bins[idx] += 1;
        self.count += 1;
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Fold another sketch into this one. Errors unless both sketches were
    /// built with the same range and bin count.
    pub fn merge(&mut self, other: &Self) -> Result<()> {
        if self.lo != other.lo || self.hi != other.hi || self.bins.len() != other.bins.len() {
            return Err(StatsError::InvalidParameter);
        }
        for (a, b) in self.bins.iter_mut().zip(&other.bins) {
            *a += *b;
        }
        self.count += other.count;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
        Ok(())
    }

    /// The `q`-quantile (`q` in `[0, 1]`), interpolated within the owning
    /// bucket and clamped to the exact observed `[min, max]`. Errors when
    /// empty or `q` is out of domain.
    pub fn quantile(&self, q: f64) -> Result<f64> {
        if self.count == 0 {
            return Err(StatsError::Empty);
        }
        if !(0.0..=1.0).contains(&q) || q.is_nan() {
            return Err(StatsError::InvalidParameter);
        }
        // Target rank in [1, count].
        let target = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (i, &c) in self.bins.iter().enumerate() {
            if c == 0 {
                continue;
            }
            if seen + c >= target {
                // Interpolate within the bucket by rank position.
                let frac = (target - seen) as f64 / c as f64;
                let left = self.lo + i as f64 * self.bin_width();
                let v = left + frac * self.bin_width();
                return Ok(v.clamp(self.min, self.max));
            }
            seen += c;
        }
        Ok(self.max)
    }

    /// Median shortcut.
    pub fn median(&self) -> Result<f64> {
        self.quantile(0.5)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn moments_match_batch_formulas() {
        let xs = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        let mut m = StreamingMoments::new();
        for &x in &xs {
            m.push(x);
        }
        assert_eq!(m.count, 8);
        assert!((m.mean() - 5.0).abs() < 1e-12);
        assert!((m.variance() - 32.0 / 7.0).abs() < 1e-9);
        assert_eq!(m.min, 2.0);
        assert_eq!(m.max, 9.0);
    }

    #[test]
    fn moments_merge_equals_single_stream() {
        let mut a = StreamingMoments::new();
        let mut b = StreamingMoments::new();
        let mut whole = StreamingMoments::new();
        for i in 0..100 {
            let x = (i as f64) * 0.37 - 5.0;
            if i < 40 {
                a.push(x);
            } else {
                b.push(x);
            }
            whole.push(x);
        }
        a.merge(&b);
        assert_eq!(a.count, whole.count);
        assert!((a.mean() - whole.mean()).abs() < 1e-9);
        assert!((a.variance() - whole.variance()).abs() < 1e-6);
    }

    #[test]
    fn moments_empty_and_degenerate() {
        let m = StreamingMoments::new();
        assert_eq!(m.mean(), 0.0);
        assert_eq!(m.variance(), 0.0);
        let mut one = StreamingMoments::new();
        one.push(3.0);
        assert_eq!(one.variance(), 0.0);
        assert_eq!(one.mean(), 3.0);
    }

    #[test]
    fn sketch_quantiles_within_one_bin() {
        let mut s = QuantileSketch::new(0.0, 100.0, 200).unwrap();
        let xs: Vec<f64> = (0..1000).map(|i| (i % 100) as f64).collect();
        for &x in &xs {
            s.push(x);
        }
        let mut sorted = xs.clone();
        sorted.sort_by(f64::total_cmp);
        for q in [0.0, 0.1, 0.5, 0.9, 0.99, 1.0] {
            let exact = sorted[(((q * xs.len() as f64).ceil() as usize).max(1) - 1).min(999)];
            let approx = s.quantile(q).unwrap();
            assert!(
                (approx - exact).abs() <= s.bin_width() + 1e-9,
                "q={q}: approx {approx} exact {exact}"
            );
        }
    }

    #[test]
    fn sketch_clamps_out_of_range_but_tracks_extremes() {
        let mut s = QuantileSketch::new(0.0, 10.0, 10).unwrap();
        s.push(-5.0);
        s.push(50.0);
        s.push(5.0);
        assert_eq!(s.count(), 3);
        assert_eq!(s.min, -5.0);
        assert_eq!(s.max, 50.0);
        // Quantiles stay inside the observed extremes.
        assert!(s.quantile(0.0).unwrap() >= -5.0);
        assert!(s.quantile(1.0).unwrap() <= 50.0);
    }

    #[test]
    fn sketch_merge_is_exact() {
        let mut a = QuantileSketch::new(0.0, 10.0, 20).unwrap();
        let mut b = QuantileSketch::new(0.0, 10.0, 20).unwrap();
        let mut whole = QuantileSketch::new(0.0, 10.0, 20).unwrap();
        for i in 0..50 {
            let x = (i as f64) * 0.19;
            if i % 2 == 0 {
                a.push(x);
            } else {
                b.push(x);
            }
            whole.push(x);
        }
        let mut ab = a.clone();
        ab.merge(&b).unwrap();
        let mut ba = b.clone();
        ba.merge(&a).unwrap();
        assert_eq!(ab, ba, "merge is commutative");
        assert_eq!(ab, whole, "merge equals single-stream accumulation");
    }

    #[test]
    fn sketch_rejects_bad_configs_and_merges() {
        assert!(QuantileSketch::new(1.0, 1.0, 4).is_err());
        assert!(QuantileSketch::new(0.0, 1.0, 0).is_err());
        assert!(QuantileSketch::new(f64::NAN, 1.0, 4).is_err());
        let mut a = QuantileSketch::new(0.0, 1.0, 4).unwrap();
        let b = QuantileSketch::new(0.0, 2.0, 4).unwrap();
        assert!(a.merge(&b).is_err());
        assert!(a.quantile(0.5).is_err(), "empty sketch");
        a.push(0.5);
        assert!(a.quantile(1.5).is_err());
        assert!(a.quantile(f64::NAN).is_err());
    }
}
