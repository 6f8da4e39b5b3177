//! Load-aware dispatch: which shared link (queue) an arriving user is
//! placed on.
//!
//! Contention mode always places through a [`Dispatcher`]. The default
//! is the static id-hash ([`StaticHash`], [`static_link_of`]) — the
//! degenerate dispatcher, blind to load, under which one hot link
//! becomes one long unit of work while other links sit empty. The load-aware policy is
//! LSQ ("local shortest queue") from the load-balancing literature:
//! multiple dispatchers place arrivals using *local, possibly-stale*
//! queue-length estimates with per-queue capacity weights for
//! heterogeneous hardware. Estimates are refreshed only at epoch barriers
//! — the stale-information regime — and each dispatcher self-increments
//! its own estimates between refreshes.
//!
//! # Determinism contract
//!
//! Placement must stay a pure function of `(seed, dispatcher stream,
//! barrier snapshot)` — never of the shard count *or the physical
//! dispatcher count*. Two pins make that hold bit-exactly:
//!
//! - **Queues are links, not workers.** Dispatch assigns a user to a
//!   shared link; the link's whole group is one unit of the engine's work
//!   list, never split between workers, so the existing shard-count
//!   invariance survives any placement policy.
//! - **Logical dispatcher streams are pinned at
//!   [`DISPATCH_STREAMS`].** A physical dispatcher count `D` merely
//!   *groups* the fixed streams (stream `s` belongs to dispatcher
//!   `s % D`, and per-dispatcher load accounting follows that grouping);
//!   placement itself is computed per logical stream. Adding or removing
//!   physical dispatchers re-homes streams but cannot move a single
//!   placement — which is exactly what the `dispatch` experiment's
//!   1/2/4-dispatcher bit-identity gate pins. (The same idiom as the
//!   binary state log's pinned shard-file count.)
//!
//! A user's stream is derived from the engine's per-(seed, user, epoch)
//! RNG stream seed, so dispatch randomness rides the existing stream
//! derivation without consuming any agent RNG draws.
//!
//! # Estimate scale
//!
//! At a barrier each stream adopts `snapshot / DISPATCH_STREAMS` — its
//! *share* of the observed per-queue placements — rather than the raw
//! fleet-wide counts. Raw counts would dwarf a single stream's own
//! increments and make every queue that was busy last epoch look
//! saturated forever (the classic stale-herd oscillation); the per-share
//! scale puts the stale term and the self-increment term in the same
//! units, and greedy placement then converges on the weighted-
//! proportional fixed point (placements ∝ capacity weight).

use serde::{Deserialize, Serialize};

use crate::{mix64, FleetError, Result};

/// Number of logical dispatcher streams. Pinned (like the binary log's
/// shard-file count) so placements are invariant to the *physical*
/// dispatcher count, which may be any divisor-friendly value in
/// `1..=DISPATCH_STREAMS`.
pub const DISPATCH_STREAMS: usize = 8;

/// Salt of the static user→link hash.
const STATIC_LINK_SALT: u64 = 0x11AC_C355_71E0_2BB7;

/// Salt deriving a user's logical dispatcher stream from the engine's
/// per-(seed, user, epoch) stream seed.
const STREAM_SALT: u64 = 0xD15A_7C8E_57A1_E5EE;

/// The static user→link hash: pure in `(seed, user id)`, uniform over
/// `links`. [`StaticHash`] places by it; tests and experiments call it to
/// predict that placement.
pub fn static_link_of(seed: u64, user_id: u64, links: u64) -> u64 {
    mix64(seed ^ mix64(user_id ^ STATIC_LINK_SALT)) % links
}

/// Which placement policy the dispatch layer runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DispatchPolicy {
    /// The static id-hash ([`static_link_of`]), ignoring load — what a
    /// run without a dispatch layer gets.
    StaticHash,
    /// Load-aware LSQ: `dispatchers` physical dispatchers (grouping the
    /// pinned logical streams) place each arrival on the estimated-
    /// shortest *weighted* queue, estimates refreshed only at epoch
    /// barriers.
    Lsq {
        /// Physical dispatcher count, `1..=DISPATCH_STREAMS`. Groups the
        /// logical streams for load accounting; provably cannot affect
        /// placement (see the module docs).
        dispatchers: usize,
    },
}

/// Dispatch-layer configuration ([`crate::FleetConfig::dispatch`]).
#[derive(Debug, Clone, PartialEq)]
pub struct DispatchConfig {
    /// The placement policy.
    pub policy: DispatchPolicy,
    /// Per-link capacity weights for heterogeneous hardware: weight `w`
    /// scales the link's real capacity to `w × contention.capacity_kbps`
    /// and tells LSQ the link absorbs `w×` the load of a weight-1 link.
    /// Empty means uniform (all `1.0`); in population-dynamics mode the
    /// weights are instead derived from the link-class registry and this
    /// must stay empty.
    pub capacity_weights: Vec<f64>,
}

impl DispatchConfig {
    /// A static-hash dispatch layer with uniform weights — what
    /// `dispatch: None` means.
    pub fn static_hash() -> Self {
        Self {
            policy: DispatchPolicy::StaticHash,
            capacity_weights: Vec::new(),
        }
    }

    /// An LSQ dispatch layer with `dispatchers` physical dispatchers and
    /// uniform weights.
    pub fn lsq(dispatchers: usize) -> Self {
        Self {
            policy: DispatchPolicy::Lsq { dispatchers },
            capacity_weights: Vec::new(),
        }
    }

    /// Validate against the contention link count and dynamics mode.
    pub fn validate(&self, links: usize, has_dynamics: bool) -> Result<()> {
        if let DispatchPolicy::Lsq { dispatchers } = self.policy {
            if dispatchers == 0 || dispatchers > DISPATCH_STREAMS {
                return Err(FleetError::InvalidConfig(format!(
                    "LSQ needs 1..={DISPATCH_STREAMS} dispatchers, got {dispatchers}"
                )));
            }
        }
        if !self.capacity_weights.is_empty() {
            if has_dynamics {
                return Err(FleetError::InvalidConfig(
                    "explicit capacity_weights conflict with population dynamics \
                     (link heterogeneity comes from the class registry there; \
                     leave the weights empty to derive them from the registry)"
                        .into(),
                ));
            }
            if self.capacity_weights.len() != links {
                return Err(FleetError::InvalidConfig(format!(
                    "capacity_weights has {} entries for {} links",
                    self.capacity_weights.len(),
                    links
                )));
            }
            if let Some(w) = self
                .capacity_weights
                .iter()
                .find(|w| !(**w > 0.0) || !w.is_finite())
            {
                return Err(FleetError::InvalidConfig(format!(
                    "capacity weights must be positive and finite, got {w}"
                )));
            }
        }
        Ok(())
    }

    /// Build the policy's dispatcher over `weights` (one per link).
    pub fn build(&self, seed: u64, weights: Vec<f64>) -> Box<dyn Dispatcher> {
        match self.policy {
            DispatchPolicy::StaticHash => Box::new(StaticHash::new(seed, weights.len())),
            DispatchPolicy::Lsq { dispatchers } => Box::new(Lsq::new(weights, dispatchers)),
        }
    }
}

/// A placement policy: puts each arriving user on a link-level queue.
///
/// Implementations must be pure in their constructor inputs, the
/// [`Dispatcher::refresh`] snapshots and the `place` call sequence —
/// never in shard layout, thread schedule or physical dispatcher count.
pub trait Dispatcher: std::fmt::Debug + Send {
    /// Place one arriving user; returns the queue (link) index.
    /// `stream_seed` is the engine's per-(seed, user, epoch) stream seed.
    fn place(&mut self, user_id: u64, stream_seed: u64) -> u64;

    /// Epoch barrier: adopt the realized per-queue placement counts of
    /// the finished epoch (`snapshot`, one per link) as the new
    /// (now-stale) estimates and reset the per-dispatcher load accounting.
    fn refresh(&mut self, snapshot: &[u64]);

    /// Placements made by each *physical* dispatcher since the last
    /// refresh (empty for policies without dispatcher state).
    fn dispatcher_loads(&self) -> &[u64];
}

/// The degenerate policy: [`static_link_of`], ignoring estimates.
#[derive(Debug, Clone)]
pub struct StaticHash {
    seed: u64,
    links: u64,
}

impl StaticHash {
    /// A static-hash dispatcher over `links` queues. Panics when `links`
    /// is zero: there is no queue to place on.
    pub fn new(seed: u64, links: usize) -> Self {
        assert!(links > 0, "a dispatcher needs at least one link, got 0");
        Self {
            seed,
            links: links as u64,
        }
    }
}

impl Dispatcher for StaticHash {
    fn place(&mut self, user_id: u64, _stream_seed: u64) -> u64 {
        static_link_of(self.seed, user_id, self.links)
    }

    fn refresh(&mut self, _snapshot: &[u64]) {}

    fn dispatcher_loads(&self) -> &[u64] {
        &[]
    }
}

/// LSQ over the pinned logical dispatcher streams: each stream keeps its
/// own weighted queue-length estimates (barrier share + own placements)
/// and places greedily on the estimated-shortest weighted queue.
#[derive(Debug, Clone)]
pub struct Lsq {
    /// Per-queue capacity weights (len = number of links).
    weights: Vec<f64>,
    /// Physical dispatcher count (groups the logical streams).
    dispatchers: usize,
    /// Per-stream local estimates, `est[stream * links + queue]`.
    est: Vec<f64>,
    /// Placements per physical dispatcher since the last refresh.
    loads: Vec<u64>,
}

impl Lsq {
    /// An LSQ dispatcher over `weights.len()` queues. Panics when
    /// `weights` is empty: there is no queue to place on.
    pub fn new(weights: Vec<f64>, dispatchers: usize) -> Self {
        let links = weights.len();
        assert!(links > 0, "a dispatcher needs at least one link, got 0");
        let dispatchers = dispatchers.clamp(1, DISPATCH_STREAMS);
        Self {
            weights,
            dispatchers,
            est: vec![0.0; DISPATCH_STREAMS * links],
            loads: vec![0; dispatchers],
        }
    }

    /// The logical dispatcher stream a user belongs to this epoch,
    /// derived from the engine's per-(seed, user, epoch) stream seed.
    pub fn stream_of(stream_seed: u64) -> usize {
        (mix64(stream_seed ^ STREAM_SALT) % DISPATCH_STREAMS as u64) as usize
    }

    /// One stream's current estimate of one queue's length (barrier
    /// share plus the stream's own placements since the last refresh).
    pub fn estimate(&self, stream: usize, queue: usize) -> f64 {
        self.est[stream * self.weights.len() + queue]
    }

    /// The per-queue capacity weights.
    pub fn weights(&self) -> &[f64] {
        &self.weights
    }

    /// The queue `stream` would place the next arrival on: the argmin of
    /// the weighted estimated length `(est + 1) / weight`, ties broken
    /// deterministically by cyclic order from the stream's own offset
    /// (so equal-estimate streams fan out instead of herding onto
    /// queue 0).
    fn shortest_weighted(&self, stream: usize) -> usize {
        let links = self.weights.len();
        let offset = stream % links;
        let base = stream * links;
        let mut best_q = offset;
        let mut best_score = f64::INFINITY;
        for k in 0..links {
            let q = (offset + k) % links;
            let score = (self.est[base + q] + 1.0) / self.weights[q];
            if score < best_score {
                best_score = score;
                best_q = q;
            }
        }
        best_q
    }
}

impl Dispatcher for Lsq {
    fn place(&mut self, _user_id: u64, stream_seed: u64) -> u64 {
        let stream = Self::stream_of(stream_seed);
        let q = self.shortest_weighted(stream);
        self.est[stream * self.weights.len() + q] += 1.0;
        self.loads[stream % self.dispatchers] += 1;
        q as u64
    }

    fn refresh(&mut self, snapshot: &[u64]) {
        let links = self.weights.len();
        assert_eq!(snapshot.len(), links, "one barrier count per link");
        // Each stream adopts its *share* of the barrier counts (see the
        // module docs: raw counts would sit at fleet scale and drown the
        // stream's own unit increments).
        for est in self.est.chunks_exact_mut(links) {
            for (e, &count) in est.iter_mut().zip(snapshot) {
                *e = count as f64 / DISPATCH_STREAMS as f64;
            }
        }
        for l in &mut self.loads {
            *l = 0;
        }
    }

    fn dispatcher_loads(&self) -> &[u64] {
        &self.loads
    }
}

/// What one epoch's dispatch pass produced. Carried inside
/// [`crate::EpochMetrics`] so it rides the checkpoint manifest: a resumed
/// run re-seeds its estimates from the last completed epoch's placements
/// and stays bit-identical to an uninterrupted one.
// detlint::allow(serde_derive, reason = "EpochMetrics::dispatch in fleet_ckpt.json")
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DispatchEpoch {
    /// Users placed on each link this epoch (the next barrier snapshot).
    pub placements: Vec<u64>,
    /// `max_q placements[q] / weight[q]` — the heterogeneity-normalized
    /// hot-queue occupancy the LSQ policy exists to shrink.
    pub max_weighted_occupancy: f64,
    /// Placements per physical dispatcher (LSQ only; empty for
    /// [`StaticHash`]). Reporting only: the grouping varies with the
    /// configured dispatcher count, placements provably do not.
    pub dispatcher_loads: Vec<u64>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[should_panic(expected = "at least one link")]
    fn static_hash_rejects_zero_links() {
        StaticHash::new(42, 0);
    }

    #[test]
    #[should_panic(expected = "at least one link")]
    fn lsq_rejects_zero_links() {
        Lsq::new(Vec::new(), 2);
    }

    #[test]
    fn static_hash_matches_legacy_formula() {
        let mut d = StaticHash::new(42, 6);
        for id in 0..200u64 {
            assert_eq!(d.place(id, 999), static_link_of(42, id, 6));
        }
        assert!(d.dispatcher_loads().is_empty());
    }

    #[test]
    fn lsq_placement_is_pure_in_seed_and_snapshot() {
        let weights = vec![4.0, 1.0, 1.0, 1.0];
        let snapshot = vec![12, 3, 3, 2];
        let run = |dispatchers: usize| {
            let mut d = Lsq::new(weights.clone(), dispatchers);
            d.refresh(&snapshot);
            (0..100u64)
                .map(|u| d.place(u, crate::mix64(u ^ 77)))
                .collect::<Vec<_>>()
        };
        let a = run(1);
        let b = run(1);
        assert_eq!(a, b, "same inputs, same placements");
        // The physical dispatcher count groups streams for accounting but
        // must not move a single placement.
        for d in 2..=DISPATCH_STREAMS {
            assert_eq!(a, run(d), "{d} dispatchers changed placements");
        }
    }

    #[test]
    fn lsq_spreads_proportionally_to_weights() {
        // 2 fat (w=4) + 6 thin (w=1) queues, zero snapshot: greedy must
        // land close to the weighted-proportional split and far below the
        // all-on-one-queue herd.
        let weights = vec![4.0, 4.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0];
        let mut d = Lsq::new(weights.clone(), 4);
        d.refresh(&[0; 8]);
        let mut counts = [0u64; 8];
        for u in 0..280u64 {
            counts[d.place(u, crate::mix64(u)) as usize] += 1;
        }
        let max_weighted = counts
            .iter()
            .zip(&weights)
            .map(|(&c, &w)| c as f64 / w)
            .fold(0.0, f64::max);
        // Ideal level: 280 / 14 = 20 per unit weight; allow stream
        // granularity slack but reject herding (a uniform split would
        // put 35 on a thin queue).
        assert!(
            max_weighted < 28.0,
            "weighted occupancy {max_weighted} vs ideal 20"
        );
        let loads: u64 = d.dispatcher_loads().iter().sum();
        assert_eq!(loads, 280, "every placement accounted to a dispatcher");
    }

    #[test]
    fn lsq_estimates_settle_across_barriers() {
        // Iterating (place epoch, refresh with realized counts) must stay
        // at the weighted-proportional fixed point, not oscillate between
        // "everyone on fat" and "everyone on thin".
        let weights = vec![4.0, 4.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0];
        let mut d = Lsq::new(weights.clone(), 2);
        let mut snapshot = vec![0u64; 8];
        for epoch in 0..4usize {
            d.refresh(&snapshot);
            let mut counts = vec![0u64; 8];
            for u in 0..280u64 {
                let s = crate::mix64(u ^ (epoch as u64) << 17);
                counts[d.place(u, s) as usize] += 1;
            }
            let max_weighted = counts
                .iter()
                .zip(&weights)
                .map(|(&c, &w)| c as f64 / w)
                .fold(0.0, f64::max);
            // Ideal level is 280/14 = 20 per unit weight; a fat-herd
            // epoch would read 35 (all 280 on the two w=4 queues) and a
            // thin-flight epoch ~46.7. Every epoch — including the ones
            // placed from a realized-count snapshot — must stay in the
            // granularity band around the ideal, never at either herd.
            assert!(
                max_weighted < 27.0,
                "epoch {epoch}: weighted occupancy {max_weighted} (counts {counts:?})"
            );
            snapshot = counts;
        }
    }

    #[test]
    fn config_validation_rejects_bad_weights() {
        let cfg = |weights: Vec<f64>, dispatchers| DispatchConfig {
            policy: DispatchPolicy::Lsq { dispatchers },
            capacity_weights: weights,
        };
        assert!(cfg(vec![], 2).validate(4, false).is_ok());
        assert!(cfg(vec![1.0, 4.0, 1.0, 1.0], 2).validate(4, false).is_ok());
        assert!(cfg(vec![1.0, 4.0], 2).validate(4, false).is_err(), "len");
        assert!(cfg(vec![1.0; 4], 0).validate(4, false).is_err(), "disp 0");
        assert!(
            cfg(vec![1.0; 4], DISPATCH_STREAMS + 1)
                .validate(4, false)
                .is_err(),
            "too many dispatchers"
        );
        assert!(cfg(vec![0.0; 4], 2).validate(4, false).is_err(), "zero w");
        assert!(
            cfg(vec![f64::NAN; 4], 2).validate(4, false).is_err(),
            "nan w"
        );
        assert!(
            cfg(vec![1.0; 4], 2).validate(4, true).is_err(),
            "explicit weights under dynamics"
        );
        assert!(cfg(vec![], 2).validate(4, true).is_ok());
        assert!(DispatchConfig::static_hash().validate(4, true).is_ok());
    }
}
