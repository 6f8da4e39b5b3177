//! # LingXi — user-level personalized QoE optimization for ABR streaming
//!
//! A full reproduction of *"Towards User-level QoE: Large-scale Practice in
//! Personalized Optimization of Adaptive Video Streaming"* (SIGCOMM 2025).
//!
//! LingXi sits on top of any adaptive-bitrate (ABR) algorithm and re-tunes
//! its optimization objective per user, online: it watches how each user
//! reacts to stalls, and when enough evidence accumulates it searches for
//! the QoE parameters minimizing that user's predicted exit rate via
//! online Bayesian optimization over Monte-Carlo virtual playback.
//!
//! This facade re-exports all workspace crates under stable names:
//!
//! | module | contents |
//! |---|---|
//! | [`stats`] | distributions, ECDFs, t-tests, DiD, correlations |
//! | [`nn`] | minimal NN library (dense/conv1d/softmax/Adam) |
//! | [`media`] | bitrate ladders, quality tiers, VBR sizes, catalogs |
//! | [`net`] | bandwidth traces, generators, estimators, RTT, α-fair multi-hop topologies |
//! | [`player`] | the Eq. 3 playback simulator and session logs |
//! | [`abr`] | ThroughputRule, BBA, BOLA, HYB, RobustMPC, Pensieve |
//! | [`user`] | exit models, stall-sensitivity profiles, populations |
//! | [`exit`] | the Fig. 7 exit-rate predictor and hybrid model |
//! | [`bayes`] | GP regression (Matérn 5/2), expected improvement, online BO |
//! | [`core`] | the LingXi controller (Algorithms 1 & 2) |
//! | [`abtest`] | AA/AB DiD statistics + streaming day metrics (the fleet runs the A/B) |
//! | [`workload`] | arrival processes and user/link heterogeneity classes |
//! | [`fleet`] | sharded multi-threaded fleet simulation (see ARCHITECTURE.md) |
//! | [`exp`] | per-figure experiment harness + the systems scenarios |
//!
//! ## Quickstart
//!
//! ```
//! use lingxi::prelude::*;
//! use rand::{rngs::StdRng, SeedableRng};
//!
//! let mut rng = StdRng::seed_from_u64(7);
//! // A video catalog and a weak network.
//! let catalog = Catalog::generate(
//!     BitrateLadder::default_short_video(),
//!     &CatalogConfig { n_videos: 3, ..CatalogConfig::default() },
//!     &mut rng,
//! ).unwrap();
//! let trace = BandwidthTrace::constant(1200.0, 600, 1.0).unwrap();
//!
//! let setup = SessionSetup {
//!     user_id: 1,
//!     video: catalog.video_cyclic(0),
//!     ladder: catalog.ladder(),
//!     process: &trace,
//!     config: PlayerConfig::default(),
//! };
//!
//! // A stall-sensitive user, and LingXi's per-user pieces.
//! let profile = StallProfile::new(SensitivityKind::Sensitive, 2.0, 0.5).unwrap();
//! let mut controller = LingXiController::new(LingXiConfig::for_hyb()).unwrap();
//! let mut predictor = ProfilePredictor { profile, base: 0.01 };
//!
//! // The same session with LingXi managing HYB, then without: one call,
//! // and `lingxi` is `Some(..)` or `None`.
//! let mut buffers = SessionBuffers::new();
//! for managed in [true, false] {
//!     let lingxi = managed.then_some(LingXiHooks {
//!         controller: &mut controller,
//!         predictor: &mut predictor,
//!     });
//!     let mut hooks = ManagedHooks {
//!         abr: &mut Hyb::default_rule(),
//!         lingxi,
//!         user: &mut QosExitModel::calibrated(profile),
//!         buffers: &mut buffers,
//!         rng: &mut rng,
//!     };
//!     play(&setup, &mut hooks).unwrap();
//!     assert!(!buffers.log().segments.is_empty());
//! }
//! ```

#![forbid(unsafe_code)]

pub use lingxi_abr as abr;
pub use lingxi_abtest as abtest;
pub use lingxi_bayes as bayes;
pub use lingxi_core as core;
pub use lingxi_exit as exit;
pub use lingxi_exp as exp;
pub use lingxi_fleet as fleet;
pub use lingxi_media as media;
pub use lingxi_net as net;
pub use lingxi_nn as nn;
pub use lingxi_player as player;
pub use lingxi_stats as stats;
pub use lingxi_user as user;
pub use lingxi_workload as workload;

/// The commonly used types, one import away.
pub mod prelude {
    pub use lingxi_abr::{
        drive, Abr, AbrContext, Bba, Bola, Hyb, Pensieve, PensieveConfig, QoeLin, QoeParams,
        RobustMpc, ThroughputRule,
    };
    pub use lingxi_abtest::{AbReport, AbSchedule};
    pub use lingxi_bayes::{ObOptimizer, ObserverConfig};
    pub use lingxi_core::{
        play, run_managed_session_in, CacheConfig, LingXiConfig, LingXiController, LingXiHooks,
        LongTermState, ManagedHooks, McConfig, ProfilePredictor, RolloutContext, RolloutPredictor,
        SearchStrategy, SessionBuffers, ShardedStateCache,
    };
    pub use lingxi_exit::{
        DatasetFlavor, ExitDataset, ExitPredictor, HybridPredictor, PredictorConfig, StateMatrix,
        UserStateTracker,
    };
    pub use lingxi_fleet::{
        AbSplit, AbrMix, AbrPolicy, ContentionConfig, DispatchConfig, DispatchEpoch,
        DispatchPolicy, Dispatcher, FairnessConfig, FleetConfig, FleetEngine, FleetReport,
        FleetScenario, Lsq, PopulationDynamics, StaticHash,
    };
    pub use lingxi_media::{
        BitrateLadder, Catalog, CatalogConfig, QualityTier, SegmentSizes, VbrModel, Video,
    };
    pub use lingxi_net::{
        allocate, BandwidthEstimator, BandwidthProcess, BandwidthTrace, Download,
        FairnessObjective, FlowDemand, NetClass, ProductionMixture, RttModel, SharedBottleneck,
        TopoLink, Topology, UserNetProfile,
    };
    pub use lingxi_player::{
        run_session, BmaxPolicy, ExitDecision, PlayerConfig, PlayerEnv, SessionLog, SessionSetup,
        SessionStream,
    };
    pub use lingxi_stats::{QuantileSketch, StreamingMoments};
    pub use lingxi_user::{
        consult, ExitModel, PopulationConfig, QosExitModel, RuleBasedExit, SegmentView,
        SensitivityKind, StallProfile, UserPopulation, UserRecord,
    };
    pub use lingxi_workload::{
        ArrivalKind, ArrivalProcess, ClassRegistry, Diurnal, FlashRamp, LinkClass, Poisson, Replay,
        UserClass,
    };
}
