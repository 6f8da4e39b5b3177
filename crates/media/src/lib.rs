//! Video/media substrate: bitrate ladders, VBR segment sizes and a
//! short-video catalog.
//!
//! The paper's player (Eq. 3) consumes per-segment sizes `d_k(Q_k)` for the
//! selected bitrate level `Q_k ∈ Q`; its analyses bucket levels into the
//! four tiers LD / SD / HD / Full HD (Fig. 3, 4a). This crate owns both,
//! plus a generator for short-video catalogs whose duration distribution
//! feeds the Monte-Carlo `T_sample` ("average length of online videos",
//! §3.2).
//!
//! ```
//! use lingxi_media::{BitrateLadder, SegmentSizes, VbrModel};
//! use rand::{rngs::StdRng, SeedableRng};
//!
//! // CBR sizes are exactly bitrate × duration: 350 kbps × 2 s = 700 kbit.
//! let ladder = BitrateLadder::default_short_video();
//! let mut rng = StdRng::seed_from_u64(1);
//! let sizes = SegmentSizes::generate(&ladder, 10, 2.0, &VbrModel::cbr(), &mut rng).unwrap();
//! assert_eq!(sizes.size_kbits(0, 0).unwrap(), 700.0);
//! ```

#![forbid(unsafe_code)]

pub mod catalog;
pub mod ladder;
pub mod segment;

pub use catalog::{Catalog, CatalogConfig, Video};
pub use ladder::{BitrateLadder, QualityTier};
pub use segment::{SegmentSizes, VbrModel};

/// Errors from media-model construction.
#[derive(Debug, Clone, PartialEq)]
pub enum MediaError {
    /// The ladder needs at least one strictly-positive, ascending bitrate.
    InvalidLadder(String),
    /// Configuration parameter out of range.
    InvalidConfig(String),
    /// Index (level/segment) out of range.
    OutOfRange(String),
}

impl std::fmt::Display for MediaError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MediaError::InvalidLadder(m) => write!(f, "invalid ladder: {m}"),
            MediaError::InvalidConfig(m) => write!(f, "invalid config: {m}"),
            MediaError::OutOfRange(m) => write!(f, "out of range: {m}"),
        }
    }
}

impl std::error::Error for MediaError {}

/// Result alias for this crate.
pub type Result<T> = std::result::Result<T, MediaError>;
