//! Variable-bitrate (VBR) segment-size models.
//!
//! Real encoders do not emit constant-size segments: a segment's size is its
//! nominal `bitrate × duration` scaled by content complexity. The player
//! model (Eq. 3) downloads `d_k(Q_k)`; this module generates those sizes.

use rand::Rng;

use crate::ladder::BitrateLadder;
use crate::{MediaError, Result};

/// Log-normal multiplicative VBR deviation around the nominal segment size.
///
/// A `spread` of 0 gives constant-bitrate segments; production short-video
/// encoders typically land around 0.2–0.35 relative deviation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VbrModel {
    /// Relative standard deviation of segment size around nominal (>= 0).
    pub spread: f64,
    /// Correlation between *levels* of the same segment: the same content
    /// complexity scales every level of a segment identically, which is how
    /// real ladders behave (a complex scene is large at every level).
    pub shared_complexity: bool,
}

impl VbrModel {
    /// Constant-bitrate model (zero spread).
    pub fn cbr() -> Self {
        Self {
            spread: 0.0,
            shared_complexity: true,
        }
    }

    /// Typical short-video VBR model.
    pub fn default_vbr() -> Self {
        Self {
            spread: 0.25,
            shared_complexity: true,
        }
    }

    /// Validate parameters.
    pub fn validate(&self) -> Result<()> {
        if !(self.spread >= 0.0) || !self.spread.is_finite() {
            return Err(MediaError::InvalidConfig(
                "VBR spread must be finite and non-negative".into(),
            ));
        }
        Ok(())
    }

    /// Draw one multiplicative complexity factor with mean 1.
    fn factor<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        if self.spread == 0.0 {
            return 1.0;
        }
        // Log-normal with E[X] = 1: mu = -sigma^2/2.
        let sigma = (self.spread * self.spread + 1.0).ln().sqrt();
        let mu = -sigma * sigma / 2.0;
        let u1: f64 = rng.gen_range(f64::EPSILON..1.0);
        let u2: f64 = rng.gen::<f64>();
        let z = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
        (mu + sigma * z).exp()
    }
}

/// Per-segment, per-level sizes in **kilobits** for one video.
///
/// `size(k, level) = bitrate_kbps(level) × segment_duration × complexity_k`.
#[derive(Debug, Clone, PartialEq)]
pub struct SegmentSizes {
    segment_duration: f64,
    /// Levels per segment (the flat table's row stride).
    levels: usize,
    /// `sizes[k * levels + level]`, kilobits — row-major flat layout, so
    /// the ABR select loop's per-level lookups walk one contiguous row
    /// instead of chasing a pointer per segment.
    sizes: Vec<f64>,
}

impl SegmentSizes {
    /// Generate sizes for `n_segments` segments of `segment_duration`
    /// seconds across all levels of `ladder`.
    pub fn generate<R: Rng + ?Sized>(
        ladder: &BitrateLadder,
        n_segments: usize,
        segment_duration: f64,
        vbr: &VbrModel,
        rng: &mut R,
    ) -> Result<Self> {
        let mut sizes = Self {
            segment_duration,
            levels: 0,
            sizes: Vec::new(),
        };
        sizes.refill(ladder, n_segments, segment_duration, vbr, rng)?;
        Ok(sizes)
    }

    /// Regenerate this size table in place for a (possibly different)
    /// segment count, reusing the existing row allocations. The LingXi
    /// Monte-Carlo hot path builds one virtual video per parameter
    /// evaluation; refilling an owned table instead of calling
    /// [`SegmentSizes::generate`] keeps that path allocation-free after
    /// the first evaluation.
    pub fn refill<R: Rng + ?Sized>(
        &mut self,
        ladder: &BitrateLadder,
        n_segments: usize,
        segment_duration: f64,
        vbr: &VbrModel,
        rng: &mut R,
    ) -> Result<()> {
        if n_segments == 0 {
            return Err(MediaError::InvalidConfig(
                "need at least one segment".into(),
            ));
        }
        if !(segment_duration > 0.0) || !segment_duration.is_finite() {
            return Err(MediaError::InvalidConfig(
                "segment duration must be positive".into(),
            ));
        }
        vbr.validate()?;
        self.segment_duration = segment_duration;
        let levels = ladder.bitrates().len();
        self.levels = levels;
        self.sizes.resize(n_segments * levels, 0.0);
        for row in self.sizes.chunks_exact_mut(levels) {
            let shared = vbr.factor(rng);
            for (slot, &b) in row.iter_mut().zip(ladder.bitrates()) {
                let f = if vbr.shared_complexity {
                    shared
                } else {
                    vbr.factor(rng)
                };
                *slot = b * segment_duration * f;
            }
        }
        Ok(())
    }

    /// Number of segments.
    pub fn n_segments(&self) -> usize {
        self.sizes.len().checked_div(self.levels).unwrap_or(0)
    }

    /// Segment duration in seconds (the `L` of Eq. 3).
    pub fn segment_duration(&self) -> f64 {
        self.segment_duration
    }

    /// Size of segment `k` at `level`, kilobits.
    pub fn size_kbits(&self, k: usize, level: usize) -> Result<f64> {
        if level >= self.levels {
            return Err(MediaError::OutOfRange(format!("segment {k} level {level}")));
        }
        k.checked_mul(self.levels)
            .and_then(|base| self.sizes.get(base + level))
            .copied()
            .ok_or_else(|| MediaError::OutOfRange(format!("segment {k} level {level}")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn refill_matches_generate_and_reshapes() {
        let l = BitrateLadder::default_short_video();
        let vbr = VbrModel::default_vbr();
        let fresh = SegmentSizes::generate(&l, 24, 2.0, &vbr, &mut StdRng::seed_from_u64(9));
        let mut reused =
            SegmentSizes::generate(&l, 7, 4.0, &vbr, &mut StdRng::seed_from_u64(1)).unwrap();
        reused
            .refill(&l, 24, 2.0, &vbr, &mut StdRng::seed_from_u64(9))
            .unwrap();
        assert_eq!(Some(&reused), fresh.as_ref().ok(), "same seed, same table");
        // Shrinking works too, and validation still applies.
        reused
            .refill(&l, 3, 2.0, &vbr, &mut StdRng::seed_from_u64(9))
            .unwrap();
        assert_eq!(reused.n_segments(), 3);
        assert!(reused
            .refill(&l, 0, 2.0, &vbr, &mut StdRng::seed_from_u64(9))
            .is_err());
    }

    #[test]
    fn cbr_sizes_exact() {
        let l = BitrateLadder::default_short_video();
        let mut rng = StdRng::seed_from_u64(1);
        let s = SegmentSizes::generate(&l, 10, 2.0, &VbrModel::cbr(), &mut rng).unwrap();
        assert_eq!(s.n_segments(), 10);
        assert_eq!(s.size_kbits(0, 0).unwrap(), 700.0); // 350 kbps * 2 s
        assert_eq!(s.size_kbits(9, 3).unwrap(), 8600.0);
        assert_eq!(s.size_kbits(3, 1).unwrap(), 1600.0); // 800 kbps * 2 s
    }

    #[test]
    fn vbr_sizes_average_to_nominal() {
        let l = BitrateLadder::default_short_video();
        let mut rng = StdRng::seed_from_u64(2);
        let s =
            SegmentSizes::generate(&l, 20_000, 2.0, &VbrModel::default_vbr(), &mut rng).unwrap();
        let mean: f64 = (0..s.n_segments())
            .map(|k| s.size_kbits(k, 2).unwrap())
            .sum::<f64>()
            / s.n_segments() as f64;
        let nominal = 1850.0 * 2.0;
        assert!(
            (mean - nominal).abs() / nominal < 0.02,
            "mean {mean} vs nominal {nominal}"
        );
    }

    #[test]
    fn shared_complexity_scales_all_levels_together() {
        let l = BitrateLadder::default_short_video();
        let mut rng = StdRng::seed_from_u64(3);
        let s = SegmentSizes::generate(&l, 50, 2.0, &VbrModel::default_vbr(), &mut rng).unwrap();
        for k in 0..50 {
            let r0 = s.size_kbits(k, 0).unwrap() / (350.0 * 2.0);
            let r3 = s.size_kbits(k, 3).unwrap() / (4300.0 * 2.0);
            assert!((r0 - r3).abs() < 1e-9, "segment {k} factors differ");
        }
    }

    #[test]
    fn rejects_invalid_inputs() {
        let l = BitrateLadder::default_short_video();
        let mut rng = StdRng::seed_from_u64(4);
        assert!(SegmentSizes::generate(&l, 0, 2.0, &VbrModel::cbr(), &mut rng).is_err());
        assert!(SegmentSizes::generate(&l, 5, 0.0, &VbrModel::cbr(), &mut rng).is_err());
        let bad = VbrModel {
            spread: -1.0,
            shared_complexity: true,
        };
        assert!(SegmentSizes::generate(&l, 5, 2.0, &bad, &mut rng).is_err());
    }

    #[test]
    fn out_of_range_lookup_errors() {
        let l = BitrateLadder::default_short_video();
        let mut rng = StdRng::seed_from_u64(5);
        let s = SegmentSizes::generate(&l, 3, 2.0, &VbrModel::cbr(), &mut rng).unwrap();
        assert!(s.size_kbits(3, 0).is_err());
        assert!(s.size_kbits(0, 4).is_err());
    }
}
