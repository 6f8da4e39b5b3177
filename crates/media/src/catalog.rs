//! Short-video catalog generation.
//!
//! The Monte-Carlo sampler (§3.2) sets its per-sample horizon `T_sample` to
//! "the average length of online videos"; sessions in the analyses play
//! videos drawn from a heavy-tailed short-video duration distribution. This
//! module generates such catalogs deterministically.

use rand::Rng;

use crate::ladder::BitrateLadder;
use crate::segment::{SegmentSizes, VbrModel};
use crate::{MediaError, Result};

/// One video: an id, its segmentation and per-level sizes.
#[derive(Debug, Clone, PartialEq)]
pub struct Video {
    /// Stable identifier within the catalog.
    pub id: u64,
    /// Per-segment sizes.
    pub sizes: SegmentSizes,
}

impl Video {
    /// Total duration in seconds.
    pub fn duration(&self) -> f64 {
        self.sizes.n_segments() as f64 * self.sizes.segment_duration()
    }

    /// Number of segments.
    pub fn n_segments(&self) -> usize {
        self.sizes.n_segments()
    }
}

/// Catalog generation parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CatalogConfig {
    /// Number of videos to generate.
    pub n_videos: usize,
    /// Segment duration in seconds (the `L` of Eq. 3).
    pub segment_duration: f64,
    /// Mean video duration in seconds (short-video platforms: ~40–60 s).
    pub mean_duration: f64,
    /// Relative deviation of duration (log-normal; heavy-tailed like real
    /// UGC catalogs).
    pub duration_spread: f64,
    /// Minimum video duration in seconds.
    pub min_duration: f64,
    /// VBR model for segment sizes.
    pub vbr: VbrModel,
}

impl Default for CatalogConfig {
    fn default() -> Self {
        Self {
            n_videos: 100,
            segment_duration: 2.0,
            mean_duration: 48.0,
            duration_spread: 0.6,
            min_duration: 6.0,
            vbr: VbrModel::default_vbr(),
        }
    }
}

/// A generated collection of videos sharing one bitrate ladder.
#[derive(Debug, Clone, PartialEq)]
pub struct Catalog {
    ladder: BitrateLadder,
    videos: Vec<Video>,
}

impl Catalog {
    /// Generate a catalog.
    pub fn generate<R: Rng + ?Sized>(
        ladder: BitrateLadder,
        config: &CatalogConfig,
        rng: &mut R,
    ) -> Result<Self> {
        if config.n_videos == 0 {
            return Err(MediaError::InvalidConfig("need at least one video".into()));
        }
        if !(config.mean_duration > 0.0)
            || !(config.min_duration > 0.0)
            || config.min_duration > config.mean_duration
        {
            return Err(MediaError::InvalidConfig(
                "durations must be positive with min <= mean".into(),
            ));
        }
        if !(config.duration_spread >= 0.0) {
            return Err(MediaError::InvalidConfig(
                "duration spread must be non-negative".into(),
            ));
        }
        // Log-normal duration with the requested linear-space mean.
        let sigma = (config.duration_spread.powi(2) + 1.0).ln().sqrt();
        let mu = config.mean_duration.ln() - sigma * sigma / 2.0;
        let mut videos = Vec::with_capacity(config.n_videos);
        for id in 0..config.n_videos {
            let duration = loop {
                let u1: f64 = rng.gen_range(f64::EPSILON..1.0);
                let u2: f64 = rng.gen::<f64>();
                let z = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
                let d = (mu + sigma * z).exp();
                if d >= config.min_duration {
                    break d;
                }
            };
            let n_segments = (duration / config.segment_duration).ceil().max(1.0) as usize;
            let sizes = SegmentSizes::generate(
                &ladder,
                n_segments,
                config.segment_duration,
                &config.vbr,
                rng,
            )?;
            videos.push(Video {
                id: id as u64,
                sizes,
            });
        }
        Ok(Self { ladder, videos })
    }

    /// The shared bitrate ladder.
    pub fn ladder(&self) -> &BitrateLadder {
        &self.ladder
    }

    /// All videos.
    pub fn videos(&self) -> &[Video] {
        &self.videos
    }

    /// Number of videos.
    pub fn len(&self) -> usize {
        self.videos.len()
    }

    /// Catalogs are never empty by construction.
    pub fn is_empty(&self) -> bool {
        self.videos.is_empty()
    }

    /// Video by index (wrapping), for round-robin session generation.
    pub fn video_cyclic(&self, idx: usize) -> &Video {
        &self.videos[idx % self.videos.len()]
    }

    /// Draw a random video.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> &Video {
        &self.videos[rng.gen_range(0..self.videos.len())]
    }

    /// Mean duration across the catalog — the `T_sample` of Algorithm 2.
    pub fn mean_duration(&self) -> f64 {
        self.videos.iter().map(|v| v.duration()).sum::<f64>() / self.videos.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn generate_respects_config() {
        let mut rng = StdRng::seed_from_u64(1);
        let cfg = CatalogConfig {
            n_videos: 50,
            ..CatalogConfig::default()
        };
        let cat = Catalog::generate(BitrateLadder::default_short_video(), &cfg, &mut rng).unwrap();
        assert_eq!(cat.len(), 50);
        for v in cat.videos() {
            assert!(v.duration() >= cfg.min_duration);
            assert!(v.n_segments() >= 1);
            assert_eq!(v.sizes.segment_duration(), 2.0);
        }
    }

    #[test]
    fn mean_duration_close_to_target() {
        let mut rng = StdRng::seed_from_u64(2);
        let cfg = CatalogConfig {
            n_videos: 3000,
            ..CatalogConfig::default()
        };
        let cat = Catalog::generate(BitrateLadder::default_short_video(), &cfg, &mut rng).unwrap();
        let m = cat.mean_duration();
        // Truncation at min_duration pushes the mean slightly above target.
        assert!(m > 42.0 && m < 58.0, "mean duration {m}");
    }

    #[test]
    fn cyclic_and_sample_access() {
        let mut rng = StdRng::seed_from_u64(3);
        let cfg = CatalogConfig {
            n_videos: 5,
            ..CatalogConfig::default()
        };
        let cat = Catalog::generate(BitrateLadder::default_short_video(), &cfg, &mut rng).unwrap();
        assert_eq!(cat.video_cyclic(0).id, cat.video_cyclic(5).id);
        let v = cat.sample(&mut rng);
        assert!(v.id < 5);
    }

    #[test]
    fn invalid_configs_rejected() {
        let mut rng = StdRng::seed_from_u64(4);
        let l = BitrateLadder::default_short_video;
        let bad0 = CatalogConfig {
            n_videos: 0,
            ..CatalogConfig::default()
        };
        assert!(Catalog::generate(l(), &bad0, &mut rng).is_err());
        let bad1 = CatalogConfig {
            min_duration: 100.0,
            mean_duration: 10.0,
            ..CatalogConfig::default()
        };
        assert!(Catalog::generate(l(), &bad1, &mut rng).is_err());
        let bad2 = CatalogConfig {
            duration_spread: -0.5,
            ..CatalogConfig::default()
        };
        assert!(Catalog::generate(l(), &bad2, &mut rng).is_err());
    }

    #[test]
    fn deterministic_generation() {
        let cfg = CatalogConfig {
            n_videos: 10,
            ..CatalogConfig::default()
        };
        let a = Catalog::generate(
            BitrateLadder::default_short_video(),
            &cfg,
            &mut StdRng::seed_from_u64(9),
        )
        .unwrap();
        let b = Catalog::generate(
            BitrateLadder::default_short_video(),
            &cfg,
            &mut StdRng::seed_from_u64(9),
        )
        .unwrap();
        assert_eq!(a, b);
    }
}
