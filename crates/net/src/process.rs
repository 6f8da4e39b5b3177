//! The bandwidth-process abstraction and the shared-bottleneck event
//! kernel.
//!
//! [`BandwidthProcess`] answers one question: *how long does a download of
//! `size_kbits` starting at time `at` take, and what effective throughput
//! did it see?* It has two trace implementations, which share one
//! download-integration loop:
//! - [`crate::BandwidthTrace`], a trace held whole: recorded, or generated
//!   eagerly by the [`crate::TraceGenerator`] family and
//!   [`crate::UserNetProfile::trace`];
//! - [`crate::LazyTrace`], the same synthesised trace generated on demand
//!   ([`crate::UserNetProfile::lazy_trace`]): only the ticks a session
//!   reads are drawn, bit-identical to the eager trace's. Every session's
//!   private trace is one.
//!
//! Live sessions — `lingxi-player` sessions, `lingxi-core` managed
//! sessions and the `lingxi-fleet` engine's private traces — stream over
//! `&dyn BandwidthProcess`. Monte-Carlo rollouts do not: they draw each
//! virtual segment's bandwidth straight from the client's fitted normal
//! model (Eq. 3).
//!
//! [`SharedBottleneck`] is the contention-aware event kernel: a
//! deterministic discrete-event network that splits link capacity among
//! concurrently-active downloads under a configurable
//! [`FairnessObjective`] over a [`Topology`], re-sharing on every flow
//! arrival and departure. The classic single max-min link is the 1-hop
//! [`Topology::single_link`]. It powers the fleet engine's contention
//! mode and the `flashcrowd`, `population` and `fairness` experiments.
//!
//! ```
//! use lingxi_net::{BandwidthProcess, BandwidthTrace, FairnessObjective, SharedBottleneck, Topology};
//!
//! // A trace is a (non-contended) bandwidth process.
//! let trace = BandwidthTrace::constant(5000.0, 60, 1.0).unwrap();
//! let d = trace.download(0.0, 5000.0);
//! assert!((d.duration - 1.0).abs() < 1e-9);
//!
//! // A shared link with one active flow gives it the full capacity.
//! let topo = Topology::single_link(8000.0).unwrap();
//! let link = SharedBottleneck::with_topology(topo, FairnessObjective::MaxMin).unwrap();
//! link.begin_flow_on(7, 0, 0.0, 8000.0, f64::INFINITY).unwrap();
//! let end = link.pop_completion().unwrap();
//! assert!((end.duration - 1.0).abs() < 1e-9 && (end.kbps - 8000.0).abs() < 1e-9);
//! ```

use std::cell::RefCell;
use std::collections::VecDeque;

use crate::fairness::{self, FairScratch, FairnessObjective, FlowDemand, SolverStats};
use crate::topology::Topology;
use crate::{NetError, Result};

/// Outcome of one simulated download over a bandwidth process.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Download {
    /// Time the download took (seconds).
    pub duration: f64,
    /// Effective throughput over the download (kbits per second).
    pub kbps: f64,
}

/// A source of download bandwidth: anything a session can stream over.
///
/// Implementations take `&self`, so one process can be shared by every
/// session of a shard worker behind a plain `&dyn` reference.
pub trait BandwidthProcess: std::fmt::Debug {
    /// Simulate downloading `size_kbits` starting at absolute time `at`
    /// (seconds). Returns the duration and the effective throughput; a
    /// non-positive `size_kbits` completes instantly at [`Self::rate_at`].
    fn download(&self, at: f64, size_kbits: f64) -> Download;

    /// Instantaneous throughput estimate at time `at` (kbps) — the rate a
    /// new download issued now would start at.
    fn rate_at(&self, at: f64) -> f64;
}

/// One completed flow on a [`SharedBottleneck`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FlowEnd {
    /// Flow identifier (the fleet engine uses each agent's index in its
    /// link group, which orders like the user id).
    pub id: u64,
    /// Absolute completion time (seconds).
    pub at: f64,
    /// Download duration (seconds) from flow admission to completion.
    pub duration: f64,
    /// Effective throughput over the flow (kbps).
    pub kbps: f64,
}

/// An active flow on the network. Its access cap and route are its entry
/// in [`LinkState::demands`].
#[derive(Debug, Clone, Copy)]
struct Flow {
    id: u64,
    started: f64,
    size_kbits: f64,
    remaining_kbits: f64,
}

/// The state of a [`SharedBottleneck`]: its active flows, the allocation
/// and the completion projections cached over them, and the completions
/// not yet consumed.
///
/// `flows`, `demands`, `rates` and `proj` are parallel, in ascending
/// `(cap_kbps, id)` order — the allocator's canonical visitation order.
/// Sorted insertion on arrival makes [`LinkState::refresh_rates`] a single
/// allocation-free walk over `demands` instead of a per-event sort, and
/// makes the allocation independent of arrival order.
#[derive(Debug, Default)]
struct LinkState {
    /// Virtual time of the last processed event.
    now: f64,
    /// Active flows.
    flows: Vec<Flow>,
    /// Each flow's access cap (`f64::INFINITY` when uncapped) and route:
    /// the allocator's view, kept beside `flows` rather than rebuilt per
    /// re-share.
    demands: Vec<FlowDemand>,
    /// Completions not yet consumed, ordered by (time, id).
    done: VecDeque<FlowEnd>,
    /// Cached allocated rates, parallel to the flows. Every objective's
    /// allocation depends only on the flow *set* (caps, routes and ids),
    /// never on residuals, so the shares stay valid across fluid drains
    /// and are recomputed only when a flow arrives or departs.
    rates: Vec<f64>,
    rates_fresh: bool,
    /// Reusable allocator workspace; under single-link max-min it holds
    /// the water-fill's memo of share runs.
    fair: FairScratch,
    /// What the dual solver did on this network so far.
    solver: SolverStats,
    /// Each flow's projected completion `now + remaining / rate` under
    /// the current shares, parallel to the flows, and their minimum
    /// (`INFINITY` when idle). Both go stale whenever `now`, a residual,
    /// or the flow set changes — the projection mixes all three. The
    /// completion test in [`SharedBottleneck::advance`] reads `proj`
    /// rather than dividing again: same operands, same bits.
    proj: Vec<f64>,
    earliest: f64,
    earliest_fresh: bool,
    /// Scratch: the positions of the flows completing at the current
    /// event.
    gone: Vec<usize>,
}

impl LinkState {
    /// Run the fairness allocator into the `rates` cache. The flows are
    /// already in `(cap_kbps, id)` order, so the single-link max-min case
    /// visits flows in exactly the order the legacy per-event water-fill
    /// produced — the share arithmetic is bit-identical — and every other
    /// objective sees a canonical, arrival-order-independent flow list.
    fn refresh_rates(&mut self, topo: &Topology, objective: FairnessObjective) {
        if self.rates_fresh {
            return;
        }
        self.solver.record(fairness::allocate_into(
            topo,
            objective,
            &self.demands,
            &mut self.fair,
            &mut self.rates,
        ));
        self.rates_fresh = true;
    }

    /// Every flow's projected completion under the current shares, into
    /// `proj`, and the earliest, into `earliest`. The minimum runs in four
    /// lanes: a minimum never rounds, so any grouping selects the same
    /// bits.
    fn refresh_earliest(&mut self, topo: &Topology, objective: FairnessObjective) {
        if self.earliest_fresh {
            return;
        }
        self.refresh_rates(topo, objective);
        let now = self.now;
        self.proj.resize(self.rates.len(), 0.0);
        for ((t, flow), &rate) in self.proj.iter_mut().zip(&self.flows).zip(&self.rates) {
            *t = now + flow.remaining_kbits / rate;
        }
        let mut lanes = [f64::INFINITY; 4];
        let quads = self.proj.chunks_exact(4);
        let tail = quads.remainder();
        for quad in quads {
            for (lane, &t) in lanes.iter_mut().zip(quad) {
                *lane = lane.min(t);
            }
        }
        for (lane, &t) in lanes.iter_mut().zip(tail) {
            *lane = lane.min(t);
        }
        self.earliest = lanes[0].min(lanes[1]).min(lanes[2].min(lanes[3]));
        self.earliest_fresh = true;
    }

    /// Admit a flow at its `(cap, id)` position (keys are unique — ids
    /// are).
    fn insert(&mut self, id: u64, size_kbits: f64, demand: FlowDemand) {
        let cap = demand.cap_kbps;
        let lo = self
            .demands
            .partition_point(|d| d.cap_kbps.total_cmp(&cap).is_lt());
        let hi = lo + self.demands[lo..].partition_point(|d| d.cap_kbps.total_cmp(&cap).is_le());
        let pos = lo + self.flows[lo..hi].partition_point(|f| f.id < id);
        self.flows.insert(
            pos,
            Flow {
                id,
                started: self.now,
                size_kbits,
                remaining_kbits: size_kbits,
            },
        );
        self.demands.insert(pos, demand);
    }

    /// Complete the flows at the positions in `gone` (ascending) at time
    /// `at`: drop them, and queue their ends in id order.
    fn complete(&mut self, at: f64) {
        let queued = self.done.len();
        for &i in self.gone.iter().rev() {
            let flow = self.flows.remove(i);
            self.demands.remove(i);
            let duration = at - flow.started;
            self.done.push_back(FlowEnd {
                id: flow.id,
                at,
                duration,
                kbps: flow.size_kbits / duration,
            });
        }
        self.gone.clear();
        self.done.make_contiguous()[queued..].sort_unstable_by_key(|end| end.id);
    }
}

/// Residual kbits below which a flow counts as complete (absorbs the
/// floating-point dust of repeated fluid advances).
const FLOW_EPS_KBITS: f64 = 1e-9;

/// A deterministic discrete-event shared network.
///
/// Capacity is split among concurrently-active flows under the
/// configured [`FairnessObjective`] over the configured [`Topology`]:
/// each flow is rate-limited by its own access cap and by every link on
/// its route, and the allocation recomputes on every flow arrival and
/// departure. On the degenerate 1-hop max-min link
/// ([`Topology::single_link`]) `k` concurrent uncapped flows each receive
/// exactly `capacity / k`.
///
/// A scheduler admits flows with [`SharedBottleneck::begin_flow_on`] in
/// event order, asks [`SharedBottleneck::next_event_time`] for the
/// earliest completion and consumes it with
/// [`SharedBottleneck::pop_completion`].
///
/// All state lives behind a [`RefCell`], so a single simulation thread can
/// share the link between sessions through `&SharedBottleneck`.
#[derive(Debug)]
pub struct SharedBottleneck {
    topology: Topology,
    objective: FairnessObjective,
    state: RefCell<LinkState>,
}

impl SharedBottleneck {
    /// Create a network over an explicit topology and fairness objective.
    pub fn with_topology(topology: Topology, objective: FairnessObjective) -> Result<Self> {
        objective.validate()?;
        Ok(Self {
            topology,
            objective,
            state: RefCell::new(LinkState::default()),
        })
    }

    /// The network topology.
    pub fn topology(&self) -> &Topology {
        &self.topology
    }

    /// The fairness objective splitting capacity among flows.
    pub fn objective(&self) -> FairnessObjective {
        self.objective
    }

    /// Virtual time of the last processed event (seconds).
    pub fn now(&self) -> f64 {
        self.state.borrow().now
    }

    /// Number of currently-active flows.
    pub fn active_flows(&self) -> usize {
        self.state.borrow().flows.len()
    }

    /// What the finite-α dual solver did on this network so far: calls,
    /// sweeps, calls that ran out of sweep budget, worst KKT residual.
    /// All zero under max-min, which never iterates.
    pub fn solver_stats(&self) -> SolverStats {
        self.state.borrow().solver
    }

    /// Total kbits still queued on active flows.
    pub fn remaining_kbits(&self) -> f64 {
        self.state
            .borrow()
            .flows
            .iter()
            .map(|f| f.remaining_kbits)
            .sum()
    }

    /// Advance the fluid simulation to absolute time `to`, queueing every
    /// completion on the way (ties resolved in ascending flow-id order).
    fn advance(topo: &Topology, objective: FairnessObjective, state: &mut LinkState, to: f64) {
        while !state.flows.is_empty() && state.now < to {
            state.refresh_earliest(topo, objective);
            let t_end = state.earliest;
            let t_stop = t_end.min(to);
            let dt = t_stop - state.now;
            let completing = t_end <= to;
            let LinkState {
                flows,
                rates,
                proj,
                gone,
                ..
            } = &mut *state;
            if completing {
                // Which flows complete at this event. Decided from the
                // *pre-advance* projection, not the drained residual: at
                // large virtual times `rate * dt` can round such that the
                // minimal flow keeps a residual above any absolute epsilon
                // while its next projected completion rounds back to `now`
                // — an infinite loop. Completing every flow whose
                // projection attained `t_end` removes at least one flow
                // per event, guaranteeing progress.
                for (i, ((flow, &rate), &t)) in flows
                    .iter_mut()
                    .zip(rates.iter())
                    .zip(proj.iter())
                    .enumerate()
                {
                    let left = flow.remaining_kbits - rate * dt;
                    if t <= t_end || left <= FLOW_EPS_KBITS {
                        gone.push(i);
                    }
                    flow.remaining_kbits = left;
                }
            } else {
                for (flow, &rate) in flows.iter_mut().zip(rates.iter()) {
                    flow.remaining_kbits -= rate * dt;
                }
            }
            state.now = t_stop;
            // The drain moved `now` and every residual; a completion also
            // changed the flow set.
            state.earliest_fresh = false;
            if completing {
                state.complete(t_stop);
                state.rates_fresh = false;
            }
        }
        state.now = state.now.max(to);
    }

    /// Admit a flow of `size_kbits` on route `route` at absolute time
    /// `at` with an access cap of `cap_kbps` (`f64::INFINITY` for
    /// uncapped). `at` earlier than the network clock is clamped forward
    /// — the event kernel admits flows in event order, so this only
    /// absorbs sub-ULP drift. A non-finite `at` is rejected: a NaN would
    /// be admitted at the current clock, and `+∞` would drain every flow
    /// and park the clock where no completion can follow.
    pub fn begin_flow_on(
        &self,
        id: u64,
        route: u16,
        at: f64,
        size_kbits: f64,
        cap_kbps: f64,
    ) -> Result<()> {
        if !(size_kbits > 0.0) || !size_kbits.is_finite() {
            return Err(NetError::InvalidConfig(
                "flow size must be positive and finite".into(),
            ));
        }
        if !(cap_kbps > 0.0) {
            return Err(NetError::InvalidConfig("flow cap must be positive".into()));
        }
        if !at.is_finite() {
            return Err(NetError::InvalidConfig(
                "flow admission time must be finite".into(),
            ));
        }
        if route as usize >= self.topology.n_routes() {
            return Err(NetError::InvalidConfig(format!(
                "route {route} out of range"
            )));
        }
        let mut state = self.state.borrow_mut();
        if state.flows.iter().any(|f| f.id == id) {
            return Err(NetError::InvalidConfig(format!(
                "flow {id} is already active on this network"
            )));
        }
        Self::advance(&self.topology, self.objective, &mut state, at);
        state.insert(id, size_kbits, FlowDemand::new(cap_kbps, route));
        state.rates_fresh = false;
        state.earliest_fresh = false;
        Ok(())
    }

    /// Time of the next link event: the earliest queued (unconsumed)
    /// completion, else the earliest projected completion of an active
    /// flow. `None` when the link is idle.
    pub fn next_event_time(&self) -> Option<f64> {
        let mut state = self.state.borrow_mut();
        if let Some(end) = state.done.front() {
            return Some(end.at);
        }
        if state.flows.is_empty() {
            return None;
        }
        state.refresh_earliest(&self.topology, self.objective);
        Some(state.earliest)
    }

    /// Consume the next completion, advancing the link to it if necessary.
    pub fn pop_completion(&self) -> Option<FlowEnd> {
        let mut state = self.state.borrow_mut();
        if state.done.is_empty() {
            if state.flows.is_empty() {
                return None;
            }
            state.refresh_earliest(&self.topology, self.objective);
            let t = state.earliest;
            Self::advance(&self.topology, self.objective, &mut state, t);
        }
        state.done.pop_front()
    }

    /// Advance the link clock to `t`, queueing any completions on the way
    /// (they remain readable through [`SharedBottleneck::pop_completion`]).
    pub fn advance_to(&self, t: f64) {
        let mut state = self.state.borrow_mut();
        Self::advance(&self.topology, self.objective, &mut state, t);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::TopoLink;
    use crate::trace::BandwidthTrace;

    /// The degenerate network: one max-min link of `capacity_kbps`, route 0.
    fn single_link(capacity_kbps: f64) -> SharedBottleneck {
        SharedBottleneck::with_topology(
            Topology::single_link(capacity_kbps).unwrap(),
            FairnessObjective::MaxMin,
        )
        .unwrap()
    }

    #[test]
    fn trace_process_matches_download_time() {
        let t = BandwidthTrace::new(1.0, vec![1000.0, 3000.0]).unwrap();
        let d = t.download(0.0, 2500.0);
        assert!((d.duration - 1.5).abs() < 1e-9);
        assert!((d.kbps - 2500.0 / 1.5).abs() < 1e-9);
        assert_eq!(t.rate_at(1.2), 3000.0);
        // Zero-size download reports the instantaneous rate.
        let z = t.download(0.4, 0.0);
        assert_eq!(z.duration, 0.0);
        assert_eq!(z.kbps, 1000.0);
    }

    #[test]
    fn solo_flow_gets_full_capacity() {
        let link = single_link(10_000.0);
        link.begin_flow_on(1, 0, 0.0, 5000.0, f64::INFINITY)
            .unwrap();
        let d = link.pop_completion().unwrap();
        assert!((d.duration - 0.5).abs() < 1e-9);
        assert!((d.kbps - 10_000.0).abs() < 1e-9);
        // Sequential flows never contend with each other.
        link.begin_flow_on(2, 0, 2.0, 5000.0, f64::INFINITY)
            .unwrap();
        let d2 = link.pop_completion().unwrap();
        assert!((d2.duration - 0.5).abs() < 1e-9);
        assert_eq!(link.active_flows(), 0);
    }

    #[test]
    fn k_equal_flows_each_get_capacity_over_k() {
        for k in [2u64, 3, 5, 8] {
            let link = single_link(12_000.0);
            let size = 6000.0;
            for id in 0..k {
                link.begin_flow_on(id, 0, 0.0, size, f64::INFINITY).unwrap();
            }
            let share = 12_000.0 / k as f64;
            let expect = size / share;
            for want_id in 0..k {
                let end = link.pop_completion().unwrap();
                assert_eq!(end.id, want_id, "ties resolve in id order");
                assert!((end.at - expect).abs() < 1e-9, "k={k} at={}", end.at);
                assert!((end.kbps - share).abs() < 1e-9, "k={k} kbps={}", end.kbps);
            }
            assert!(link.pop_completion().is_none());
        }
    }

    #[test]
    fn late_arrival_slows_the_incumbent() {
        // 10 Mbps link; flow 1 starts alone, flow 2 joins at t=1.
        let link = single_link(10_000.0);
        link.begin_flow_on(1, 0, 0.0, 15_000.0, f64::INFINITY)
            .unwrap();
        link.begin_flow_on(2, 0, 1.0, 10_000.0, f64::INFINITY)
            .unwrap();
        // Flow 1: 10_000 kbits alone in [0,1), then shares 5 Mbps → 1 s more.
        let e1 = link.pop_completion().unwrap();
        assert_eq!(e1.id, 1);
        assert!((e1.at - 2.0).abs() < 1e-9, "at={}", e1.at);
        assert!((e1.kbps - 7500.0).abs() < 1e-9);
        // Flow 2: 5_000 kbits shared in [1,2), then 5_000 alone → t=2.5.
        let e2 = link.pop_completion().unwrap();
        assert_eq!(e2.id, 2);
        assert!((e2.at - 2.5).abs() < 1e-9, "at={}", e2.at);
    }

    #[test]
    fn access_caps_water_fill() {
        // 12 Mbps link, one flow capped at 2 Mbps: the other two split the
        // remaining 10 Mbps evenly (5 each) — classic max-min.
        let link = single_link(12_000.0);
        link.begin_flow_on(1, 0, 0.0, 2_000.0, 2000.0).unwrap();
        link.begin_flow_on(2, 0, 0.0, 50_000.0, f64::INFINITY)
            .unwrap();
        link.begin_flow_on(3, 0, 0.0, 50_000.0, f64::INFINITY)
            .unwrap();
        let e1 = link.pop_completion().unwrap();
        assert_eq!(e1.id, 1);
        assert!((e1.kbps - 2000.0).abs() < 1e-9, "kbps={}", e1.kbps);
        assert!((e1.at - 1.0).abs() < 1e-9);
        // After the capped flow leaves, the survivors split 6/6.
        let e2 = link.pop_completion().unwrap();
        // Each did 5000 kbits in [0,1]; 45_000 left at 6 Mbps → 7.5 s more.
        assert!((e2.at - 8.5).abs() < 1e-9, "at={}", e2.at);
    }

    #[test]
    fn capacity_conserved_under_contention() {
        let link = single_link(8_000.0);
        let mut begun = 0.0;
        for id in 0..6u64 {
            let size = 3000.0 + 500.0 * id as f64;
            link.begin_flow_on(id, 0, 0.2 * id as f64, size, f64::INFINITY)
                .unwrap();
            begun += size;
        }
        let horizon = 2.0;
        link.advance_to(horizon);
        let delivered = begun - link.remaining_kbits();
        assert!(
            delivered <= 8_000.0 * horizon + 1e-6,
            "delivered {delivered} over {horizon}s exceeds capacity"
        );
        // The link is saturated the whole window, so it should also be
        // within epsilon of full utilization.
        assert!(
            delivered >= 8_000.0 * horizon - 1e-6,
            "delivered {delivered}"
        );
    }

    #[test]
    fn completion_progress_at_large_virtual_time() {
        // At now ~ 1e9 s an ULP is ~1.2e-7 s, so the drained residual of
        // the minimal flow (rate × ULP ≈ 3e-3 kbits at 25 Mbps) dwarfs any
        // absolute epsilon. Completion must still make progress: the
        // pre-advance projection decides who finishes, not the residual.
        let link = single_link(25_000.0);
        link.advance_to(1.0e9);
        for id in 0..3u64 {
            link.begin_flow_on(id, 0, 1.0e9, 4000.0 + id as f64, f64::INFINITY)
                .unwrap();
        }
        for _ in 0..3 {
            let end = link.pop_completion().expect("kernel keeps making progress");
            assert!(end.duration > 0.0 && end.kbps > 0.0);
        }
        assert!(link.pop_completion().is_none());
        assert_eq!(link.active_flows(), 0);
    }

    #[test]
    fn invalid_links_and_flows_rejected() {
        assert!(Topology::single_link(0.0).is_err());
        assert!(Topology::single_link(f64::NAN).is_err());
        let link = single_link(1000.0);
        assert!(link.begin_flow_on(1, 0, 0.0, 0.0, f64::INFINITY).is_err());
        assert!(link.begin_flow_on(1, 0, 0.0, 100.0, 0.0).is_err());
        link.begin_flow_on(1, 0, 0.0, 100.0, f64::INFINITY).unwrap();
        assert!(link.begin_flow_on(1, 0, 0.1, 100.0, f64::INFINITY).is_err());
    }

    #[test]
    fn non_finite_admission_times_are_rejected() {
        let link = single_link(1000.0);
        link.begin_flow_on(1, 0, 0.0, 500.0, f64::INFINITY).unwrap();
        for at in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            assert!(
                link.begin_flow_on(2, 0, at, 100.0, f64::INFINITY).is_err(),
                "at = {at}"
            );
        }
        // Nothing was admitted and the clock did not move: the incumbent
        // still completes, alone, at 0.5 s.
        assert_eq!(link.active_flows(), 1);
        assert_eq!(link.now(), 0.0);
        let end = link.pop_completion().unwrap();
        assert_eq!((end.id, end.at), (1, 0.5));
        assert_eq!(link.active_flows(), 0);
    }

    #[test]
    fn water_fill_reuses_recurring_share_runs() {
        // Three rounds of one shape on a 12 Mbps link: a flow capped at
        // 2 Mbps and two uncapped ones, all admitted together. Each round
        // re-shares twice. With three flows the capped one binds and the
        // key is (10 Mbps, 2 flows left); after it completes the key is
        // (12 Mbps, 2). Round one divides all 3 + 2 shares and stores both
        // runs; rounds two and three divide up to each key and reuse the
        // one share after it: 2 + 1 divided, 1 + 1 reused per round.
        let link = single_link(12_000.0);
        for round in 0..3u64 {
            let at = 10.0 * round as f64;
            link.begin_flow_on(3 * round, 0, at, 2_000.0, 2_000.0)
                .unwrap();
            link.begin_flow_on(3 * round + 1, 0, at, 50_000.0, f64::INFINITY)
                .unwrap();
            link.begin_flow_on(3 * round + 2, 0, at, 50_000.0, f64::INFINITY)
                .unwrap();
            let ends: Vec<f64> = (0..3).map(|_| link.pop_completion().unwrap().at).collect();
            assert_eq!(ends, [at + 1.0, at + 8.5, at + 8.5]);
        }
        let state = link.state.borrow();
        assert_eq!(state.fair.shares_divided, 5 + 3 + 3);
        assert_eq!(state.fair.shares_reused, 2 + 2);
    }

    #[test]
    fn multi_hop_flow_is_constrained_by_every_link() {
        // Route 0 = [wide 20 Mbps, narrow 5 Mbps]: a solo flow runs at
        // the narrow link's rate, not the wide one's.
        let topo = Topology::new(
            vec![TopoLink::new(20_000.0, 0.0), TopoLink::new(5_000.0, 0.0)],
            vec![vec![0, 1]],
        )
        .unwrap();
        let net = SharedBottleneck::with_topology(topo, FairnessObjective::MaxMin).unwrap();
        net.begin_flow_on(1, 0, 0.0, 5_000.0, f64::INFINITY)
            .unwrap();
        let end = net.pop_completion().unwrap();
        assert!((end.kbps - 5_000.0).abs() < 1e-6, "kbps {}", end.kbps);
        assert!((end.at - 1.0).abs() < 1e-6);
        // An out-of-range route is rejected.
        assert!(net.begin_flow_on(2, 7, 0.0, 100.0, f64::INFINITY).is_err());
    }

    #[test]
    fn proportional_fair_link_still_conserves_capacity() {
        let topo = Topology::single_link(8_000.0).unwrap();
        let net =
            SharedBottleneck::with_topology(topo, FairnessObjective::ProportionalFair).unwrap();
        let mut begun = 0.0;
        for id in 0..5u64 {
            let size = 4000.0 + 250.0 * id as f64;
            net.begin_flow_on(id, 0, 0.1 * id as f64, size, f64::INFINITY)
                .unwrap();
            begun += size;
        }
        let horizon = 1.5;
        net.advance_to(horizon);
        let delivered = begun - net.remaining_kbits();
        assert!(
            delivered <= 8_000.0 * horizon + 1e-4,
            "delivered {delivered}"
        );
    }

    #[test]
    fn solver_stats_accumulate_per_network_and_stay_zero_under_max_min() {
        // Two routes sharing a 6 Mbps link that four uncapped flows
        // oversubscribe: every re-share under a finite α sweeps it.
        let topo = || {
            Topology::new(
                vec![TopoLink::new(10_000.0, 0.0), TopoLink::new(6_000.0, 0.0)],
                vec![vec![0, 1], vec![1]],
            )
            .unwrap()
        };
        for (objective, solves) in [
            (FairnessObjective::AlphaFair(2.0), true),
            (FairnessObjective::MaxMin, false),
        ] {
            let net = SharedBottleneck::with_topology(topo(), objective).unwrap();
            for id in 0..4u64 {
                net.begin_flow_on(id, (id % 2) as u16, 0.0, 3_000.0, f64::INFINITY)
                    .unwrap();
            }
            while net.pop_completion().is_some() {}
            let stats = net.solver_stats();
            assert_eq!(stats.calls > 0, solves, "{objective:?}: {stats:?}");
            assert!(stats.sweeps >= stats.calls);
            assert_eq!(stats.non_converged, 0);
            assert!(stats.max_kkt_residual < crate::SOLVER_TOL);
        }
    }

    #[test]
    fn next_event_time_tracks_queue_and_projection() {
        let link = single_link(1000.0);
        assert!(link.next_event_time().is_none());
        link.begin_flow_on(1, 0, 0.0, 500.0, f64::INFINITY).unwrap();
        assert!((link.next_event_time().unwrap() - 0.5).abs() < 1e-9);
        link.advance_to(1.0);
        // Completion already queued: still reported until consumed.
        assert!((link.next_event_time().unwrap() - 0.5).abs() < 1e-9);
        let end = link.pop_completion().unwrap();
        assert_eq!(end.id, 1);
        assert!(link.next_event_time().is_none());
    }
}
