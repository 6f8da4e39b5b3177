//! Fairness objectives and the deterministic α-fair rate allocator.
//!
//! A [`FairnessObjective`] selects how a [`crate::Topology`] splits link
//! capacity among concurrent flows:
//!
//! - **Max-min** — progressive water-filling: rates rise together until a
//!   cap or a link saturates; the classic single-bottleneck special case
//!   is the exact legacy `SharedBottleneck` walk (bit-identical).
//! - **Proportional fair** — α = 1, maximizing Σ log xᵢ.
//! - **α-fair** — the general family `Uα(x) = x^(1−α)/(1−α)` (α ≥ 0,
//!   α = ∞ dispatches to max-min).
//!
//! The finite-α allocator solves the Low–Lapsley dual: per-link prices
//! p_l ≥ 0, per-flow price q_i = Σ_{l∈route(i)} p_l, demand
//! x_i(q) = min(cap_i, q^(−1/α)). Every flow of a route sees one price,
//! so flows are grouped by route into clamp-sorted runs with running sums
//! and a route's aggregate demand at a price is one power and one binary
//! search — the solver's cost is per route, not per flow.
//!
//! - **Single-route links are folded, not priced.** A link crossed by one
//!   route only says "this route's aggregate rate ≤ ĉ", which is a cap on
//!   the route's common demand level — the link's *water level*, found
//!   without a power — so it is applied to the route's clamps up front.
//!   On the pod that `experiments fairness` runs, that leaves one priced
//!   link, and one clear is the whole solve.
//! - **Shared links clear by bracketed Newton.** Each Gauss–Seidel sweep
//!   visits the links crossed by two or more routes, most-shared first
//!   (the order is precomputed in [`crate::Topology`]), and clears each
//!   exactly given the others. The root is bracketed in closed form by
//!   the link's water level and the smallest and largest outside price
//!   of its routes (the bracket is proven, never searched for, and
//!   collapses to the answer when the outside prices agree); inside it a
//!   safeguarded Newton iteration on `y(p) − ĉ`, whose derivative falls
//!   out of the same pass as `y`, takes about five evaluations where a
//!   fixed bisection took 48.
//! - **Exact powers.** `q^(−1/α)` and `v^(−α)` are `1/√q`, `1/v²` at α = 2
//!   and `1/q`, `1/v` at α = 1 — correctly-rounded IEEE operations, so
//!   those allocations do not depend on the platform's libm — and `powf`
//!   otherwise.
//! - **One safeguarded Newton step per sweep on the coupled prices.**
//!   Gauss–Seidel is the globaliser: exact coordinate descent on the
//!   convex dual, which converges whatever the step sizes — the point of
//!   Karbowski's correction to Low–Lapsley's convergence condition. But
//!   it crawls when two priced links answer mostly to each other. So
//!   after a sweep that has not converged, the quadratic model of the
//!   dual over the priced links is minimized subject to `p ≥ 0` (links the
//!   step would price below zero are pinned at zero and the rest
//!   re-solved, which is what un-prices a link in one step), and the
//!   dual's slope along that step, `Σ(ĉ − load)·δ`, is line-searched:
//!   a point is taken only where the slope is still ≤ 0, which by
//!   convexity certifies the dual is no higher there than where the sweep
//!   ended. Anything else is dropped and the next sweep runs from the
//!   sweep's own result.
//!
//! The sweep loop stops at a fixed budget ([`MAX_SWEEPS`]) or when every
//! link's complementary-slackness residual falls below [`SOLVER_TOL`];
//! which of the two happened is reported per call ([`Allocation`]) and
//! accumulated per network ([`SolverStats`]), never absorbed.
//!
//! **No warm start.** Carrying prices from one call to the next was
//! measured and is a further speed-up, and is deliberately not done: it
//! would make an allocation depend on the link's history. Every solve
//! starts from zero prices, and every operation is straight-line IEEE
//! arithmetic over the flow set in a canonical order — no time, no
//! randomness, no hashing — so the allocation is a pure function of
//! (flow set, caps, capacities): permutation-invariant and bit-identical
//! across shard counts.
//!
//! ```
//! use lingxi_net::{allocate, FairnessObjective, FlowDemand, Topology};
//!
//! let topo = Topology::single_link(12_000.0).unwrap();
//! let flows = [
//!     FlowDemand::new(2000.0, 0),
//!     FlowDemand::new(f64::INFINITY, 0),
//!     FlowDemand::new(f64::INFINITY, 0),
//! ];
//! let a = allocate(&topo, FairnessObjective::MaxMin, &flows).unwrap();
//! assert_eq!(a.rates, vec![2000.0, 5000.0, 5000.0]);
//! ```

use serde::{Deserialize, Serialize};

use crate::topology::Topology;
use crate::{NetError, Result};

/// Fixed Gauss–Seidel sweep budget for the finite-α dual solver.
pub const MAX_SWEEPS: usize = 64;

/// Relative tolerance on `|y − ĉ|` at which a per-link clear stops —
/// three decades inside [`SOLVER_TOL`], three above the rounding noise of
/// the load sum.
const CLEAR_TOL: f64 = 1e-12;

/// Evaluation budget of one per-link clear. Every step at least halves
/// either `|y − ĉ|` or the bracket, so a clear that has not met
/// [`CLEAR_TOL`] by then is down to adjacent floats; typical clears take
/// three to six.
const CLEAR_STEPS: usize = 128;

/// Largest set of priced links the accelerated step factorizes (the
/// dense solve is cubic in it); beyond it the sweeps run unaccelerated.
const NEWTON_MAX_ACTIVE: usize = 16;

/// Relative bump on the Hessian diagonal of the accelerated step: far
/// below anything the residual test can see, far above rounding, so two
/// links that see exactly the same elastic routes still factorize.
const NEWTON_RIDGE: f64 = 1e-12;

/// Points the accelerated step may try along its direction, the full
/// step first.
const NEWTON_TRIES: usize = 4;

/// Convergence tolerance: maximum relative per-link complementary-
/// slackness residual at which the sweep loop stops early.
pub const SOLVER_TOL: f64 = 1e-9;

/// Prices below this are treated as zero in the residual (an inactive
/// dual constraint only requires feasibility, not tightness).
const PRICE_TINY: f64 = 1e-12;

/// The dual solver floor on α: utilities flatter than this (α → 0 is
/// throughput maximization) make the dual ill-conditioned, so smaller
/// finite values are evaluated at the floor.
pub const ALPHA_FLOOR: f64 = 0.125;

/// How a topology splits capacity among concurrent flows.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FairnessObjective {
    /// Progressive water-filling (the α → ∞ limit).
    MaxMin,
    /// Proportional fairness, Σ log xᵢ (α = 1).
    ProportionalFair,
    /// General α-fairness, `Uα(x) = x^(1−α)/(1−α)`. `f64::INFINITY`
    /// dispatches to the max-min code path; finite values below
    /// [`ALPHA_FLOOR`] are evaluated at the floor.
    AlphaFair(f64),
}

impl FairnessObjective {
    /// Reject NaN or negative α.
    pub fn validate(&self) -> Result<()> {
        if let FairnessObjective::AlphaFair(a) = self {
            if a.is_nan() || *a < 0.0 {
                return Err(NetError::InvalidConfig(
                    "alpha must be non-negative (infinity = max-min)".into(),
                ));
            }
        }
        Ok(())
    }

    /// True when the objective dispatches to the max-min code path
    /// (`MaxMin` itself, or `AlphaFair(∞)` — the equivalence is exact by
    /// construction, not approximate).
    pub fn is_max_min(&self) -> bool {
        match self {
            FairnessObjective::MaxMin => true,
            FairnessObjective::AlphaFair(a) => a.is_infinite(),
            FairnessObjective::ProportionalFair => false,
        }
    }

    /// The finite α the dual solver runs at (callers must rule out the
    /// max-min dispatch first).
    fn alpha_finite(&self) -> f64 {
        match self {
            FairnessObjective::MaxMin => unreachable!("max-min has no finite alpha"),
            FairnessObjective::ProportionalFair => 1.0,
            FairnessObjective::AlphaFair(a) => a.max(ALPHA_FLOOR),
        }
    }
}

/// One flow's demand as the allocator sees it: an access cap and a route.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FlowDemand {
    /// Access-link rate cap (kbps); `f64::INFINITY` when uncapped.
    pub cap_kbps: f64,
    /// Route index into the topology.
    pub route: u16,
}

impl FlowDemand {
    /// Construct a demand.
    pub fn new(cap_kbps: f64, route: u16) -> Self {
        Self { cap_kbps, route }
    }
}

/// Result of a standalone [`allocate`] call.
#[derive(Debug, Clone, PartialEq)]
pub struct Allocation {
    /// Allocated rate per flow (kbps), in the input flow order.
    pub rates: Vec<f64>,
    /// Gauss–Seidel sweeps the dual solver used: 0 on max-min paths and
    /// when no shared link binds (single-route links are folded, not
    /// swept), [`MAX_SWEEPS`] when the budget ran out.
    pub sweeps: usize,
    /// Maximum relative per-link KKT residual of the dual solution
    /// (complementary slackness + primal feasibility; primal stationarity
    /// and dual feasibility hold exactly by construction). 0 on max-min
    /// paths, whose exactness is structural.
    pub kkt_residual: f64,
}

/// Reusable solver workspace (kept on the link state so the event kernel
/// allocates nothing per event).
#[derive(Debug, Default, Clone)]
pub(crate) struct FairScratch {
    /// Per-flow rate ceiling, normalized: min(cap, min capacity on route).
    clamp: Vec<f64>,
    /// Per-link normalized capacity.
    chat: Vec<f64>,
    /// The clamps grouped by route.
    runs: RouteRuns,
    /// Per shared link, the path price at its water level.
    top: Vec<f64>,
    /// The dual iterate and the accelerated step's candidate.
    cur: Iterate,
    trial: Iterate,
    newton: NewtonScratch,
    /// Per-route path price excluding the link being cleared.
    qbase: Vec<f64>,
    /// Per-route worst overload along the path, for the final projection.
    oversold: Vec<f64>,
    /// Max-min: frozen flags, per-link frozen consumption, active counts.
    frozen: Vec<bool>,
    used: Vec<f64>,
    counts: Vec<usize>,
    /// Single-link max-min: the memoized share runs.
    memo: ShareMemo,
    /// Single-link max-min shares computed by a division.
    pub(crate) shares_divided: u64,
    /// Single-link max-min shares copied from the memo instead.
    pub(crate) shares_reused: u64,
}

/// Share runs the single-link water-fill memoizes, direct-mapped.
const MEMO_SLOTS: usize = 64;

/// One memo slot: a key and the run of shares the walk produced after it.
#[derive(Debug, Default, Clone)]
struct MemoSlot {
    /// Bits of the remaining capacity at the key flow.
    cap_bits: u64,
    /// Flows left at the key flow, itself included; 0 marks an empty slot.
    flows_left: usize,
    /// The shares of the `flows_left - 1` flows after the key flow.
    run: Vec<f64>,
}

/// The single-link water-fill's memo: [`MEMO_SLOTS`] slots, filled on
/// first use.
#[derive(Debug, Default, Clone)]
struct ShareMemo {
    slots: Vec<MemoSlot>,
}

impl ShareMemo {
    /// The slot a key maps to.
    fn slot(&mut self, cap_bits: u64, flows_left: usize) -> &mut MemoSlot {
        if self.slots.is_empty() {
            self.slots.resize_with(MEMO_SLOTS, MemoSlot::default);
        }
        let h =
            (cap_bits ^ (flows_left as u64).rotate_right(7)).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        &mut self.slots[(h >> 58) as usize]
    }
}

/// Outcome of one [`allocate_into`] call.
#[derive(Debug, Clone, Copy)]
pub(crate) struct SolveOutcome {
    pub sweeps: usize,
    pub kkt_residual: f64,
}

impl SolveOutcome {
    /// Structurally exact: a max-min path. No dual iteration ran.
    const EXACT: Self = Self {
        sweeps: 0,
        kkt_residual: 0.0,
    };
}

/// What the dual solver did over a stretch of a run: integer sums and a
/// float maximum, so accumulating per link group and merging is exactly
/// order-independent — bit-identical for any shard count.
// detlint::allow(serde_derive, reason = "EpochMetrics::solver in fleet_ckpt.json")
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct SolverStats {
    /// Allocations that swept at least once (max-min allocations, and
    /// finite-α ones in which no shared link binds, are exact without a
    /// sweep and are not counted).
    pub calls: u64,
    /// Gauss–Seidel sweeps over those calls.
    pub sweeps: u64,
    /// Calls that ended with a KKT residual at or above [`SOLVER_TOL`]:
    /// the sweep budget ran out.
    pub non_converged: u64,
    /// Largest KKT residual any call ended with.
    pub max_kkt_residual: f64,
}

impl SolverStats {
    /// Count one allocation.
    pub(crate) fn record(&mut self, solve: SolveOutcome) {
        if solve.sweeps == 0 {
            return;
        }
        self.calls += 1;
        self.sweeps += solve.sweeps as u64;
        self.non_converged += u64::from(!(solve.kkt_residual < SOLVER_TOL));
        self.max_kkt_residual = self.max_kkt_residual.max(solve.kkt_residual);
    }

    /// Fold another stretch into this one (exact, any order).
    pub fn merge(&mut self, other: &Self) {
        self.calls += other.calls;
        self.sweeps += other.sweeps;
        self.non_converged += other.non_converged;
        self.max_kkt_residual = self.max_kkt_residual.max(other.max_kkt_residual);
    }
}

/// Allocate rates for `flows` on `topo` under `objective`, writing one
/// rate per flow (in flow order) into `rates`.
///
/// Contract: the allocation is computed in the *given* flow order; the
/// event kernel passes its `(cap, id)`-sorted flow list so the result is
/// independent of arrival order. The single-link max-min case gives the
/// legacy `SharedBottleneck` water-fill walk's rates bit for bit (copying
/// recurring share runs from `scratch`'s memo instead of dividing again),
/// so the degenerate topology is bit-identical to the pre-topology
/// kernel.
pub(crate) fn allocate_into(
    topo: &Topology,
    objective: FairnessObjective,
    flows: &[FlowDemand],
    scratch: &mut FairScratch,
    rates: &mut Vec<f64>,
) -> SolveOutcome {
    rates.clear();
    if flows.is_empty() {
        return SolveOutcome::EXACT;
    }
    if objective.is_max_min() {
        if topo.is_single_link() {
            single_link_water_fill(topo.links()[0].capacity_kbps, flows, scratch, rates);
        } else {
            max_min_fill(topo, flows, scratch, rates);
        }
        SolveOutcome::EXACT
    } else {
        alpha_fair_fill(topo, objective.alpha_finite(), flows, scratch, rates)
    }
}

/// The legacy `SharedBottleneck` max-min walk, with its results
/// memoized: every flow gets an equal share of what is left, except flows
/// whose cap is below their share, which get their cap. Callers present
/// flows in ascending `(cap, id)` order.
///
/// Each share is a division that waits on the one before it, so the walk
/// is one dependent chain. Its *key* is the first flow whose cap does not
/// bind: the pair (remaining capacity, flows left) there. If no later cap
/// binds either, every share from the key on is a pure function of that
/// pair, and the walk stores them in `s`'s memo. A later walk that reaches
/// the same key copies the stored shares instead of dividing, once it has
/// checked that no remaining cap is below its stored share: that check is
/// exactly "no later cap binds", under which the legacy walk computes
/// those very shares. A miss, or a cap that binds after the key, divides
/// as the legacy walk does. Either way each rate has the legacy walk's
/// bits.
fn single_link_water_fill(
    capacity: f64,
    flows: &[FlowDemand],
    s: &mut FairScratch,
    rates: &mut Vec<f64>,
) {
    let n = flows.len();
    rates.reserve(n);
    let mut remaining_cap = capacity;
    let mut remaining_flows = n;
    for (i, flow) in flows.iter().enumerate() {
        let share = remaining_cap / remaining_flows as f64;
        if flow.cap_kbps < share {
            rates.push(flow.cap_kbps);
            remaining_cap -= flow.cap_kbps;
            remaining_flows -= 1;
            continue;
        }
        rates.push(share);
        let rest = &flows[i + 1..];
        if rest.is_empty() {
            break;
        }
        let (cap_bits, flows_left) = (remaining_cap.to_bits(), remaining_flows);
        let slot = s.memo.slot(cap_bits, flows_left);
        if slot.cap_bits == cap_bits
            && slot.flows_left == flows_left
            && rest
                .iter()
                .zip(&slot.run)
                .all(|(f, &share)| !(f.cap_kbps < share))
        {
            rates.extend_from_slice(&slot.run);
            s.shares_divided += i as u64 + 1;
            s.shares_reused += rest.len() as u64;
            return;
        }
        let mut binds = false;
        remaining_cap -= share;
        remaining_flows -= 1;
        for flow in rest {
            let share = remaining_cap / remaining_flows as f64;
            binds |= flow.cap_kbps < share;
            let rate = flow.cap_kbps.min(share);
            rates.push(rate);
            remaining_cap -= rate;
            remaining_flows -= 1;
        }
        if !binds {
            slot.cap_bits = cap_bits;
            slot.flows_left = flows_left;
            slot.run.clear();
            slot.run.extend_from_slice(&rates[i + 1..]);
        }
        break;
    }
    s.shares_divided += n as u64;
}

/// Relative tolerance for the progressive-fill freeze decisions.
const FILL_EPS: f64 = 1e-9;

/// Multi-link max-min by progressive filling: all unfrozen flows share a
/// common level `t` that rises until either a flow's cap binds (freeze at
/// the cap) or a link saturates (freeze every unfrozen flow crossing it
/// at `t`). Each round freezes at least one flow, so the loop is bounded
/// by the flow count; all iteration is in flow/link index order.
fn max_min_fill(topo: &Topology, flows: &[FlowDemand], s: &mut FairScratch, rates: &mut Vec<f64>) {
    let n = flows.len();
    let nl = topo.n_links();
    rates.clear();
    rates.resize(n, 0.0);
    s.frozen.clear();
    s.frozen.resize(n, false);
    s.used.clear();
    s.used.resize(nl, 0.0);
    let mut t = 0.0_f64;
    for _round in 0..n + nl + 2 {
        // Active membership per link.
        s.counts.clear();
        s.counts.resize(nl, 0);
        let mut n_active = 0usize;
        for (i, f) in flows.iter().enumerate() {
            if s.frozen[i] {
                continue;
            }
            n_active += 1;
            for &l in topo.route(f.route) {
                s.counts[l as usize] += 1;
            }
        }
        if n_active == 0 {
            break;
        }
        // Largest uniform increment before a cap or a link binds.
        let mut delta = f64::INFINITY;
        for l in 0..nl {
            if s.counts[l] > 0 {
                let headroom = topo.links()[l].capacity_kbps - s.used[l] - s.counts[l] as f64 * t;
                delta = delta.min(headroom / s.counts[l] as f64);
            }
        }
        for (i, f) in flows.iter().enumerate() {
            if !s.frozen[i] {
                delta = delta.min(f.cap_kbps - t);
            }
        }
        let t_new = t + delta.max(0.0);
        let mut froze = false;
        // Cap freezes (flow order).
        for (i, f) in flows.iter().enumerate() {
            if s.frozen[i] || f.cap_kbps > t_new + FILL_EPS * t_new.max(1.0) {
                continue;
            }
            let rate = f.cap_kbps.min(t_new);
            rates[i] = rate;
            s.frozen[i] = true;
            froze = true;
            for &l in topo.route(f.route) {
                s.used[l as usize] += rate;
                s.counts[l as usize] -= 1;
            }
        }
        // Link freezes (link order): a saturated link pins every
        // remaining flow that crosses it at the common level.
        for l in 0..nl {
            if s.counts[l] == 0 {
                continue;
            }
            let cap_l = topo.links()[l].capacity_kbps;
            let headroom = cap_l - s.used[l] - s.counts[l] as f64 * t_new;
            if headroom > FILL_EPS * cap_l {
                continue;
            }
            for (i, f) in flows.iter().enumerate() {
                if s.frozen[i] || !topo.route(f.route).contains(&(l as u16)) {
                    continue;
                }
                rates[i] = t_new;
                s.frozen[i] = true;
                froze = true;
                for &k in topo.route(f.route) {
                    s.used[k as usize] += t_new;
                    s.counts[k as usize] -= 1;
                }
            }
        }
        if !froze {
            // Numerical stall (can only happen on float dust): pin every
            // remaining flow at the current level and stop.
            for (i, f) in flows.iter().enumerate() {
                if !s.frozen[i] {
                    rates[i] = f.cap_kbps.min(t_new);
                    s.frozen[i] = true;
                }
            }
            break;
        }
        t = t_new;
    }
}

/// The two powers the dual needs. `1/q`, `1/v` (α = 1) and `1/√q`, `1/v²`
/// (α = 2) are correctly-rounded IEEE operations, so those allocations
/// are the same bits on every platform; any other α goes through `powf`.
#[derive(Debug, Clone, Copy)]
struct PowerLaw {
    alpha: f64,
    /// `1/α`: the uncapped demand falls at `−d level/dq = (1/α)·level/q`.
    inv_alpha: f64,
}

impl PowerLaw {
    fn new(alpha: f64) -> Self {
        Self {
            alpha,
            inv_alpha: 1.0 / alpha,
        }
    }

    /// A flow's uncapped demand `q^(−1/α)` at path price `q` (∞ at 0).
    #[inline]
    fn level(self, q: f64) -> f64 {
        if self.alpha == 2.0 {
            1.0 / q.sqrt()
        } else if self.alpha == 1.0 {
            1.0 / q
        } else {
            q.powf(-self.inv_alpha)
        }
    }

    /// The path price `v^(−α)` at which the uncapped demand is `v`.
    #[inline]
    fn price(self, v: f64) -> f64 {
        if self.alpha == 2.0 {
            1.0 / (v * v)
        } else if self.alpha == 1.0 {
            1.0 / v
        } else {
            v.powf(-self.alpha)
        }
    }
}

/// The flows of one solve grouped by route: each route's clamps in one
/// ascending run, with within-run running sums. Every flow of a route
/// sees one path price, so the route's aggregate demand at a candidate
/// price is one power, one binary search and two lookups — the solver's
/// cost is per *route*, not per flow, which is what keeps it flat when a
/// busy period piles hundreds of flows onto a pod.
#[derive(Debug, Default, Clone)]
struct RouteRuns {
    clamps: Vec<f64>,
    prefix: Vec<f64>,
    /// `off[r]..off[r + 1]` is route `r`'s run.
    off: Vec<usize>,
    /// The counting sort's per-route write cursor.
    cursor: Vec<usize>,
}

impl RouteRuns {
    /// Group `clamp` (one per flow, in flow order) by route with a stable
    /// counting sort. Callers present flows in ascending (cap, ...) order
    /// and clamp = min(cap, const-per-route) is monotone in cap, so each
    /// run comes out ascending without a comparator sort.
    fn group(&mut self, flows: &[FlowDemand], clamp: &[f64], n_routes: usize) {
        self.cursor.clear();
        self.cursor.resize(n_routes, 0);
        for f in flows {
            self.cursor[f.route as usize] += 1;
        }
        self.off.clear();
        let mut off = 0usize;
        for cursor in self.cursor.iter_mut() {
            self.off.push(off);
            off += std::mem::replace(cursor, off);
        }
        self.off.push(off);
        self.clamps.clear();
        self.clamps.resize(flows.len(), 0.0);
        for (f, &c) in flows.iter().zip(clamp) {
            let cursor = &mut self.cursor[f.route as usize];
            self.clamps[*cursor] = c;
            *cursor += 1;
        }
        self.prefix.clear();
        self.prefix.resize(flows.len(), 0.0);
        for r in 0..n_routes {
            let mut sum = 0.0;
            for j in self.off[r]..self.off[r + 1] {
                debug_assert!(
                    j == self.off[r] || self.clamps[j] >= self.clamps[j - 1],
                    "flows must arrive clamp-sorted within a route"
                );
                sum += self.clamps[j];
                self.prefix[j] = sum;
            }
        }
    }

    /// Route `r`'s run.
    #[inline]
    fn run(&self, r: u16) -> (usize, usize) {
        (self.off[r as usize], self.off[r as usize + 1])
    }

    /// Route `r`'s clamps at or below level `v`: their sum, and how many
    /// flows are left above it.
    #[inline]
    fn split(&self, r: u16, v: f64) -> (f64, usize) {
        let (s, e) = self.run(r);
        let k = self.clamps[s..e].partition_point(|&c| c <= v);
        let below = if k == 0 { 0.0 } else { self.prefix[s + k - 1] };
        (below, e - s - k)
    }

    /// Route `r`'s aggregate demand `Σ min(clamp, v)` at level `v`, and
    /// how many of its flows sit below their clamp there.
    #[inline]
    fn demand(&self, r: u16, v: f64) -> (f64, usize) {
        let (below, free) = self.split(r, v);
        // `v` is ∞ at a zero path price, where every flow is clamped.
        let above = if free == 0 { 0.0 } else { v * free as f64 };
        (below + above, free)
    }

    /// The common level at which the flows of `routes` fill `chat`
    /// exactly, `Σ min(clamp, v) = ĉ`; ∞ when even their clamps cannot.
    /// The sum is concave and piecewise linear in `v`, so Newton from
    /// `ĉ/flows` (where it cannot exceed ĉ) climbs monotonically and
    /// lands on the solution of the final linear piece exactly: every
    /// step but the last passes a clamp, and none costs a power.
    fn water_level(&self, routes: &[u16], chat: f64) -> f64 {
        let (mut flows, mut total) = (0usize, 0.0);
        for &r in routes {
            let (s, e) = self.run(r);
            if e > s {
                flows += e - s;
                total += self.prefix[e - 1];
            }
        }
        if total <= chat {
            return f64::INFINITY;
        }
        let mut v = chat / flows as f64;
        loop {
            let (mut below, mut free) = (0.0, 0usize);
            for &r in routes {
                let (b, f) = self.split(r, v);
                below += b;
                free += f;
            }
            let next = (chat - below) / free as f64;
            if !(next > v) {
                return v;
            }
            v = next;
        }
    }

    /// Lower every clamp of route `r` above `w` to `w`.
    fn cap(&mut self, r: u16, w: f64) {
        let (s, e) = self.run(r);
        let k = s + self.clamps[s..e].partition_point(|&c| c <= w);
        let mut sum = if k == s { 0.0 } else { self.prefix[k - 1] };
        for j in k..e {
            self.clamps[j] = w;
            sum += w;
            self.prefix[j] = sum;
        }
    }
}

/// One point of the dual iteration: link prices and everything
/// [`Dual::evaluate`] derives from them.
#[derive(Debug, Default, Clone)]
struct Iterate {
    /// Per-link price p_l (zero on single-route links, which are folded
    /// into their route's clamps instead).
    prices: Vec<f64>,
    /// Per-route demand level `q^(−1/α)` (at most the route's largest
    /// clamp), aggregate demand `Σ min(clamp, level)` and its descent
    /// `−∂demand/∂q`.
    level: Vec<f64>,
    demand: Vec<f64>,
    descent: Vec<f64>,
    /// Per-link load.
    load: Vec<f64>,
    /// Maximum relative per-link KKT residual: a priced link must be
    /// cleared, an unpriced one merely feasible.
    residual: f64,
}

/// The read-only side of one solve.
struct Dual<'a> {
    topo: &'a Topology,
    law: PowerLaw,
    /// Per-link normalized capacity.
    chat: &'a [f64],
    runs: &'a RouteRuns,
    /// Per shared link, the path price `v*^(−α)` at its water level `v*`
    /// (0 when its members cannot fill it).
    top: &'a [f64],
}

impl Dual<'_> {
    /// Clear shared link `l` holding the other prices fixed: the `p ≥ 0`
    /// with `y(p) = Σ_routes demand((qbase + p)^(−1/α)) = ĉ`, or 0 when
    /// `y(0) ≤ ĉ`.
    ///
    /// With `v*` the link's water level, `v*^(−α) − qbase` clears a link
    /// whose routes all carry one outside price `qbase`. Demand only
    /// falls as a path price rises, so pricing every route at the largest
    /// outside price undersells the link and at the smallest oversells
    /// it: the root lies in `[v*^(−α) − max qbase, v*^(−α) − min qbase]`.
    /// That bracket is proven, not searched for, and it collapses to the
    /// closed form whenever the outside prices agree — every link whose
    /// neighbours are unpriced. Otherwise a Newton iteration on `y(p) − ĉ`
    /// runs inside it; `y′` falls out of the same pass as `y`. Each step
    /// either at least halves `|y − ĉ|` or bisects, so the iteration ends
    /// at [`CLEAR_TOL`] or on adjacent floats well inside
    /// [`CLEAR_STEPS`]; should it not, the price it returns fails the
    /// caller's residual test like any other.
    fn clear_link(&self, l: u16, prices: &[f64], qbase: &mut Vec<f64>) -> f64 {
        let chat_l = self.chat[l as usize];
        let routes = self.topo.routes_through(l);
        qbase.clear();
        let (mut qb_min, mut qb_max) = (f64::INFINITY, 0.0_f64);
        for &r in routes {
            let (s, e) = self.runs.run(r);
            let mut qb = 0.0;
            if e > s {
                for &k in self.topo.route(r) {
                    if k != l {
                        qb += prices[k as usize];
                    }
                }
                qb_min = qb_min.min(qb);
                qb_max = qb_max.max(qb);
            }
            qbase.push(qb);
        }
        let top = self.top[l as usize];
        let (mut lo, mut hi) = ((top - qb_max).max(0.0), top - qb_min);
        if !(hi > 0.0) {
            return 0.0;
        }
        if lo >= hi {
            return hi;
        }

        let inv_alpha = self.law.inv_alpha;
        let mut p = lo;
        let mut f_prev = f64::INFINITY;
        for _ in 0..CLEAR_STEPS {
            let (mut y, mut descent) = (0.0, 0.0);
            for (&r, &qb) in routes.iter().zip(qbase.iter()) {
                let (s, e) = self.runs.run(r);
                if e == s {
                    continue;
                }
                let q = qb + p;
                let v = self.law.level(q);
                let (d, free) = self.runs.demand(r, v);
                y += d;
                if free > 0 {
                    descent += free as f64 * v / q;
                }
            }
            let f = y - chat_l;
            if f.abs() <= CLEAR_TOL * chat_l || (p == 0.0 && f < 0.0) {
                return p;
            }
            if f > 0.0 {
                lo = p;
            } else {
                hi = p;
            }
            let newton = p + f / (inv_alpha * descent);
            let next = if f.abs() <= 0.5 * f_prev && newton > lo && newton < hi {
                newton
            } else {
                0.5 * (lo + hi)
            };
            if !(next > lo && next < hi) {
                break;
            }
            f_prev = f.abs();
            p = next;
        }
        // Keep the feasible side of the bracket.
        hi
    }

    /// Fill in everything `it.prices` implies: per-route level, demand
    /// and descent (one power per route), per-link load, KKT residual.
    fn evaluate(&self, it: &mut Iterate) {
        let inv_alpha = self.law.inv_alpha;
        let nr = self.topo.n_routes();
        for per_route in [&mut it.level, &mut it.demand, &mut it.descent] {
            per_route.resize(nr, 0.0);
        }
        it.load.resize(self.topo.n_links(), 0.0);
        for r in 0..nr as u16 {
            let mut q = 0.0;
            for &l in self.topo.route(r) {
                q += it.prices[l as usize];
            }
            let (s, e) = self.runs.run(r);
            // An empty route demands nothing whatever its level; no other
            // level exceeds the largest clamp (the last of the run).
            let v = if e == s {
                0.0
            } else {
                self.law.level(q).min(self.runs.clamps[e - 1])
            };
            let (d, free) = self.runs.demand(r, v);
            it.level[r as usize] = v;
            it.demand[r as usize] = d;
            it.descent[r as usize] = if free == 0 {
                0.0
            } else {
                inv_alpha * free as f64 * v / q
            };
        }
        it.residual = 0.0;
        for l in 0..self.topo.n_links() {
            let mut y = 0.0;
            for &r in self.topo.routes_through(l as u16) {
                y += it.demand[r as usize];
            }
            it.load[l] = y;
            let over = y - self.chat[l];
            let r = if it.prices[l] > PRICE_TINY {
                over.abs()
            } else {
                over.max(0.0)
            };
            it.residual = it.residual.max(r / self.chat[l]);
        }
    }

    /// One Newton step of the dual on the priced links, into `trial`:
    /// minimize its quadratic model `½·δᵀHδ − gᵀδ` subject to `p + δ ≥ 0`,
    /// where `g = load − ĉ` and `H = A·D·Aᵀ` (`A` the link–route
    /// incidence, `D` the per-route descents). Solve `Hδ = g`; a link the
    /// step would price below zero is pinned at zero instead and the rest
    /// re-solved with its move on the right-hand side, until none is. That
    /// is what un-prices a link in one step when two links see the same
    /// elastic routes (`H` all but singular; [`NEWTON_RIDGE`] keeps the
    /// factorization defined): their loads move together, at most one can
    /// be tight, and Gauss–Seidel alone shifts price from the slack one
    /// to the tight one a constant sliver per sweep.
    ///
    /// The step is then line-searched (below) and `trial` is left at a
    /// point where the dual is certified no higher than at `cur`. Returns
    /// false, leaving `trial` unspecified, when there is no such step:
    /// fewer than two links are priced (a Gauss–Seidel clear is already
    /// exact for one) or more than [`NEWTON_MAX_ACTIVE`], a priced link
    /// carries only clamped flows (a zero row), or the search ran out of
    /// [`NEWTON_TRIES`].
    fn newton_step(&self, cur: &Iterate, trial: &mut Iterate, w: &mut NewtonScratch) -> bool {
        let NewtonScratch {
            active,
            position,
            hessian,
            free,
            matrix,
            step,
            target,
        } = w;
        active.clear();
        position.clear();
        position.resize(cur.prices.len(), usize::MAX);
        for (l, (&p, slot)) in cur.prices.iter().zip(position.iter_mut()).enumerate() {
            if p > PRICE_TINY {
                *slot = active.len();
                active.push(l);
            }
        }
        let n = active.len();
        if !(2..=NEWTON_MAX_ACTIVE).contains(&n) {
            return false;
        }
        hessian.clear();
        hessian.resize(n * n, 0.0);
        for (r, &d) in cur.descent.iter().enumerate() {
            if d == 0.0 {
                continue;
            }
            let hops = self.topo.route(r as u16);
            for &a in hops {
                let i = position[a as usize];
                if i == usize::MAX {
                    continue;
                }
                for &b in hops {
                    let j = position[b as usize];
                    if j != usize::MAX {
                        hessian[i * n + j] += d;
                    }
                }
            }
        }
        for i in 0..n {
            hessian[i * n + i] *= 1.0 + NEWTON_RIDGE;
        }

        target.clone_from(&cur.prices);
        free.clear();
        free.extend(0..n);
        while !free.is_empty() {
            // The system over the free links; a pinned link (target price
            // zero) moves by −p, which lands on the right-hand side.
            matrix.clear();
            step.clear();
            for &i in free.iter() {
                let mut rhs = cur.load[active[i]] - self.chat[active[i]];
                for (j, &l) in active.iter().enumerate() {
                    if target[l] == 0.0 {
                        rhs += hessian[i * n + j] * cur.prices[l];
                    }
                }
                step.push(rhs);
                matrix.extend(free.iter().map(|&j| hessian[i * n + j]));
            }
            if !cholesky_solve(matrix, step) {
                return false;
            }
            let mut moves = step.iter();
            let before = free.len();
            free.retain(|&i| {
                let l = active[i];
                let stays = cur.prices[l] + moves.next().expect("one move per free link") > 0.0;
                if !stays {
                    target[l] = 0.0;
                }
                stays
            });
            if free.len() == before {
                for (&i, &delta) in free.iter().zip(step.iter()) {
                    target[active[i]] = cur.prices[active[i]] + delta;
                }
                break;
            }
        }

        // Line search on the dual's slope along the step, `φ′(t) =
        // Σ(ĉ − load)·δ`: the dual is convex, so wherever the slope is
        // still ≤ 0 the dual is no higher than at `cur`. Past the line
        // minimum, fall back along the secant through the slopes at 0
        // and `t`, halving the weight of the one at 0 every time so the
        // next point lands on its side of the minimum (Illinois).
        let slope_at = |load: &[f64]| -> f64 {
            let mut slope = 0.0;
            for (l, (&p, &to)) in cur.prices.iter().zip(target.iter()).enumerate() {
                slope += (self.chat[l] - load[l]) * (to - p);
            }
            slope
        };
        let mut slope_0 = slope_at(&cur.load);
        if !(slope_0 < 0.0) {
            return false;
        }
        let mut t = 1.0;
        for _ in 0..NEWTON_TRIES {
            trial.prices.clear();
            trial.prices.extend(
                cur.prices
                    .iter()
                    .zip(target.iter())
                    .map(|(&p, &to)| p + t * (to - p)),
            );
            self.evaluate(trial);
            let slope_t = slope_at(&trial.load);
            if slope_t <= 0.0 {
                return true;
            }
            t *= slope_0 / (slope_0 - slope_t);
            slope_0 *= 0.5;
        }
        false
    }
}

/// Workspace of [`Dual::newton_step`]: the priced links, each link's
/// position among them (`usize::MAX` when unpriced), the model's Hessian
/// over them, the positions still free to move, the dense system over
/// those, whose right-hand side becomes the step, and the per-link prices
/// the full step lands on.
#[derive(Debug, Default, Clone)]
struct NewtonScratch {
    active: Vec<usize>,
    position: Vec<usize>,
    hessian: Vec<f64>,
    free: Vec<usize>,
    matrix: Vec<f64>,
    step: Vec<f64>,
    target: Vec<f64>,
}

/// Solve `M·x = b` in place for a symmetric positive definite row-major
/// `M` by Cholesky factorization (`M` is overwritten with its lower
/// factor, `b` with `x`). False when a pivot is not positive.
fn cholesky_solve(m: &mut [f64], b: &mut [f64]) -> bool {
    let n = b.len();
    for j in 0..n {
        let mut d = m[j * n + j];
        for k in 0..j {
            d -= m[j * n + k] * m[j * n + k];
        }
        if !(d > 0.0) {
            return false;
        }
        let d = d.sqrt();
        m[j * n + j] = d;
        for i in j + 1..n {
            let mut x = m[i * n + j];
            for k in 0..j {
                x -= m[i * n + k] * m[j * n + k];
            }
            m[i * n + j] = x / d;
        }
    }
    for i in 0..n {
        for k in 0..i {
            b[i] -= m[i * n + k] * b[k];
        }
        b[i] /= m[i * n + i];
    }
    for i in (0..n).rev() {
        for k in i + 1..n {
            b[i] -= m[k * n + i] * b[k];
        }
        b[i] /= m[i * n + i];
    }
    true
}

/// The finite-α dual solver (see module docs). Rates come back in flow
/// order, normalized back to kbps.
fn alpha_fair_fill(
    topo: &Topology,
    alpha: f64,
    flows: &[FlowDemand],
    s: &mut FairScratch,
    rates: &mut Vec<f64>,
) -> SolveOutcome {
    let nl = topo.n_links();
    let law = PowerLaw::new(alpha);

    // Normalize by the largest capacity so brackets and tolerances are
    // scale-free.
    let mut cscale = 0.0_f64;
    for l in topo.links() {
        cscale = cscale.max(l.capacity_kbps);
    }
    s.chat.clear();
    s.chat
        .extend(topo.links().iter().map(|l| l.capacity_kbps / cscale));
    s.clamp.clear();
    s.clamp.extend(
        flows
            .iter()
            .map(|f| f.cap_kbps.min(topo.min_capacity_on(f.route)) / cscale),
    );
    s.runs.group(flows, &s.clamp, topo.n_routes());

    // A link crossed by one route only caps that route's level — at the
    // link's water level, where the route alone fills it — so it is
    // folded into the route's clamps here and never priced.
    for &l in topo.single_route_links() {
        let route = topo.routes_through(l);
        let w = s.runs.water_level(route, s.chat[l as usize]);
        s.runs.cap(route[0], w);
    }
    // What is left to price are the shared links. A link's water level
    // depends on the clamps alone, so its power is taken once per solve;
    // a link its members cannot fill (level ∞, price 0) never clears
    // above zero, which is complementary slackness decided up front.
    s.top.clear();
    s.top.resize(nl, 0.0);
    for &l in topo.shared_links() {
        let v = s
            .runs
            .water_level(topo.routes_through(l), s.chat[l as usize]);
        s.top[l as usize] = law.price(v);
    }

    let dual = Dual {
        topo,
        law,
        chat: &s.chat,
        runs: &s.runs,
        top: &s.top,
    };
    s.cur.prices.clear();
    s.cur.prices.resize(nl, 0.0);
    dual.evaluate(&mut s.cur);
    let mut sweeps = 0usize;
    while !(s.cur.residual < SOLVER_TOL) && sweeps < MAX_SWEEPS {
        // One Gauss–Seidel sweep, most-shared link first: clear each
        // link exactly, holding the other prices fixed.
        for &l in topo.shared_links() {
            s.cur.prices[l as usize] = dual.clear_link(l, &s.cur.prices, &mut s.qbase);
        }
        sweeps += 1;
        dual.evaluate(&mut s.cur);
        // The accelerated step comes back only with a point where the
        // dual is certified no higher; otherwise the next sweep starts
        // from where this one ended.
        if !(s.cur.residual < SOLVER_TOL) && dual.newton_step(&s.cur, &mut s.trial, &mut s.newton) {
            std::mem::swap(&mut s.cur, &mut s.trial);
        }
    }

    // Final feasibility projection: if any link is (ULP-level) oversold,
    // scale every flow crossing it down by the worst overload on its
    // path. This preserves per-link conservation exactly up to rounding.
    s.oversold.clear();
    for r in 0..topo.n_routes() as u16 {
        let mut over = 1.0_f64;
        for &l in topo.route(r) {
            over = over.max(s.cur.load[l as usize] / s.chat[l as usize]);
        }
        s.oversold.push(over);
    }
    rates.reserve(flows.len());
    for (f, &clamp) in flows.iter().zip(&s.clamp) {
        let r = f.route as usize;
        let x = clamp.min(s.cur.level[r]);
        let over = s.oversold[r];
        rates.push(if over > 1.0 { x / over } else { x } * cscale);
    }
    SolveOutcome {
        sweeps,
        kkt_residual: s.cur.residual,
    }
}

/// Standalone allocation with validation and a KKT report.
///
/// Flows are ranked by ascending `(cap, route)` internally (the canonical
/// order the event kernel maintains), so the result is invariant under
/// permutation of the input flows; rates come back in the input order.
pub fn allocate(
    topo: &Topology,
    objective: FairnessObjective,
    flows: &[FlowDemand],
) -> Result<Allocation> {
    objective.validate()?;
    for (i, f) in flows.iter().enumerate() {
        if !(f.cap_kbps > 0.0) {
            return Err(NetError::InvalidConfig(format!(
                "flow {i}: cap must be positive"
            )));
        }
        if f.route as usize >= topo.n_routes() {
            return Err(NetError::InvalidConfig(format!(
                "flow {i}: route {} out of range",
                f.route
            )));
        }
    }
    // Validated caps are positive, where the IEEE total order is the
    // order of the bit patterns; the index breaks ties, so an unstable
    // sort of plain keys ranks equal flows in input order.
    let mut order: Vec<(u64, u16, usize)> = flows
        .iter()
        .enumerate()
        .map(|(i, f)| (f.cap_kbps.to_bits(), f.route, i))
        .collect();
    order.sort_unstable();
    let sorted: Vec<FlowDemand> = order.iter().map(|&(_, _, i)| flows[i]).collect();
    let mut scratch = FairScratch::default();
    let mut sorted_rates = Vec::new();
    let stats = allocate_into(topo, objective, &sorted, &mut scratch, &mut sorted_rates);
    let mut rates = vec![0.0; flows.len()];
    for (&(_, _, i), &rate) in order.iter().zip(&sorted_rates) {
        rates[i] = rate;
    }
    Ok(Allocation {
        rates,
        sweeps: stats.sweeps,
        kkt_residual: stats.kkt_residual,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::TopoLink;

    fn two_hop_topo() -> Topology {
        Topology::new(
            vec![TopoLink::new(10_000.0, 0.0), TopoLink::new(6_000.0, 0.0)],
            vec![vec![0, 1], vec![1]],
        )
        .unwrap()
    }

    #[test]
    fn objective_validation() {
        assert!(FairnessObjective::AlphaFair(-1.0).validate().is_err());
        assert!(FairnessObjective::AlphaFair(f64::NAN).validate().is_err());
        assert!(FairnessObjective::AlphaFair(0.0).validate().is_ok());
        assert!(FairnessObjective::AlphaFair(f64::INFINITY).is_max_min());
        assert!(FairnessObjective::MaxMin.is_max_min());
        assert!(!FairnessObjective::ProportionalFair.is_max_min());
    }

    #[test]
    fn single_link_max_min_matches_legacy_walk_bitwise() {
        // The golden `access_caps_water_fill` fixture: 12 Mbps link, caps
        // (2 Mbps, ∞, ∞) → (2000, 5000, 5000), exactly.
        let topo = Topology::single_link(12_000.0).unwrap();
        let flows = [
            FlowDemand::new(2000.0, 0),
            FlowDemand::new(f64::INFINITY, 0),
            FlowDemand::new(f64::INFINITY, 0),
        ];
        let a = allocate(&topo, FairnessObjective::MaxMin, &flows).unwrap();
        assert_eq!(a.rates, vec![2000.0, 5000.0, 5000.0]);
        assert_eq!(a.sweeps, 0);
        assert_eq!(a.kkt_residual, 0.0);
        // α = ∞ dispatches to the identical code path: bit-exact.
        let inf = allocate(&topo, FairnessObjective::AlphaFair(f64::INFINITY), &flows).unwrap();
        assert_eq!(inf.rates, a.rates);
    }

    #[test]
    fn multi_hop_max_min_respects_every_link() {
        // Route 0 crosses both links, route 1 only the 6 Mbps link. The
        // shared link saturates at a common level of 3 Mbps each.
        let topo = two_hop_topo();
        let flows = [
            FlowDemand::new(f64::INFINITY, 0),
            FlowDemand::new(f64::INFINITY, 1),
        ];
        let a = allocate(&topo, FairnessObjective::MaxMin, &flows).unwrap();
        assert!((a.rates[0] - 3000.0).abs() < 1e-6, "rates {:?}", a.rates);
        assert!((a.rates[1] - 3000.0).abs() < 1e-6);
        // A third flow on the wide link only: max-min lets the route-1
        // flows keep splitting link 1 while it takes the leftover of
        // link 0.
        let flows = [
            FlowDemand::new(f64::INFINITY, 0),
            FlowDemand::new(f64::INFINITY, 1),
            FlowDemand::new(f64::INFINITY, 1),
        ];
        let a = allocate(&topo, FairnessObjective::MaxMin, &flows).unwrap();
        // Link 1 (6 Mbps, 3 flows) binds first at level 2000.
        for r in &a.rates {
            assert!((r - 2000.0).abs() < 1e-6, "rates {:?}", a.rates);
        }
    }

    #[test]
    fn proportional_fair_favors_short_routes() {
        // Classic PF on a line network: the long flow crosses both links,
        // each short flow one. PF gives the long flow less than max-min
        // would (it consumes resources on two links).
        let topo = Topology::new(
            vec![TopoLink::new(10_000.0, 0.0), TopoLink::new(10_000.0, 0.0)],
            vec![vec![0, 1], vec![0], vec![1]],
        )
        .unwrap();
        let flows = [
            FlowDemand::new(f64::INFINITY, 0),
            FlowDemand::new(f64::INFINITY, 1),
            FlowDemand::new(f64::INFINITY, 2),
        ];
        let a = allocate(&topo, FairnessObjective::ProportionalFair, &flows).unwrap();
        // Analytic PF optimum: long flow c/3, short flows 2c/3.
        assert!(
            (a.rates[0] - 10_000.0 / 3.0).abs() < 5.0,
            "long flow {:?}",
            a.rates
        );
        assert!((a.rates[1] - 20_000.0 / 3.0).abs() < 5.0);
        assert!((a.rates[2] - 20_000.0 / 3.0).abs() < 5.0);
        assert!(a.kkt_residual < 1e-8, "residual {}", a.kkt_residual);
    }

    fn pod() -> Topology {
        Topology::new(
            vec![
                TopoLink::new(8_000.0, 0.004),
                TopoLink::new(8_000.0, 0.004),
                TopoLink::new(12_000.0, 0.008),
                TopoLink::new(16_000.0, 0.012),
            ],
            vec![vec![0, 2, 3], vec![1, 3], vec![3]],
        )
        .unwrap()
    }

    #[test]
    fn binding_access_link_is_folded_and_the_slack_core_stays_unpriced() {
        // Route 0's two flows fill the 8 Mbps access link at 4 Mbps each;
        // with the capped core-only flow the core carries 15 962 of its
        // 16 000 kbps. Cold Gauss–Seidel prices the core first and then
        // needs ~80 sweeps to un-price it a sliver at a time; folding the
        // access link leaves nothing to sweep.
        let flows = [
            FlowDemand::new(7962.0, 2),
            FlowDemand::new(13_444.5, 0),
            FlowDemand::new(5262.0, 0),
        ];
        for objective in [
            FairnessObjective::ProportionalFair,
            FairnessObjective::AlphaFair(2.0),
            FairnessObjective::AlphaFair(0.5),
        ] {
            let a = allocate(&pod(), objective, &flows).unwrap();
            assert_eq!(a.sweeps, 0, "{objective:?}");
            assert!(a.kkt_residual < SOLVER_TOL);
            for (rate, want) in a.rates.iter().zip([7962.0, 4000.0, 4000.0]) {
                assert!((rate - want).abs() < 1e-6, "{objective:?}: {:?}", a.rates);
            }
        }
    }

    #[test]
    fn access_link_and_core_binding_together_take_one_sweep() {
        // Route 1's three flows fill their access link (8000/3 each) and
        // the core binds on top: the core-only flow gets the remaining
        // 8000, just under its 8017.5 cap. One clear of the core, given
        // the folded access link, is the whole solve.
        let flows = [
            FlowDemand::new(8017.5, 2),
            FlowDemand::new(6372.0, 1),
            FlowDemand::new(5818.5, 1),
            FlowDemand::new(13_761.0, 1),
        ];
        let a = allocate(&pod(), FairnessObjective::ProportionalFair, &flows).unwrap();
        assert_eq!(a.sweeps, 1);
        assert!(a.kkt_residual < SOLVER_TOL);
        assert!((a.rates[0] - 8000.0).abs() < 1e-6, "{:?}", a.rates);
        for rate in &a.rates[1..] {
            assert!((rate - 8000.0 / 3.0).abs() < 1e-6, "{:?}", a.rates);
        }
    }

    #[test]
    fn exact_powers_agree_with_powf() {
        for q in [0.37, 1.0, 2.5, 1234.5] {
            for alpha in [1.0, 2.0] {
                let exact = PowerLaw::new(alpha);
                assert!((exact.level(q) - q.powf(-1.0 / alpha)).abs() <= 1e-15 * exact.level(q));
                assert!((exact.price(q) - q.powf(-alpha)).abs() <= 1e-15 * exact.price(q));
            }
        }
        // A zero path price is an unbounded demand level on every path.
        for alpha in [0.5, 1.0, 2.0] {
            assert_eq!(PowerLaw::new(alpha).level(0.0), f64::INFINITY);
            assert_eq!(PowerLaw::new(alpha).price(f64::INFINITY), 0.0);
        }
    }

    #[test]
    fn cholesky_solves_and_refuses_singular_systems() {
        // [[4, 2], [2, 3]] · [1, 2] = [8, 8].
        let mut m = [4.0, 2.0, 2.0, 3.0];
        let mut b = [8.0, 8.0];
        assert!(cholesky_solve(&mut m, &mut b));
        assert!((b[0] - 1.0).abs() < 1e-12 && (b[1] - 2.0).abs() < 1e-12);
        let mut singular = [1.0, 1.0, 1.0, 1.0];
        assert!(!cholesky_solve(&mut singular, &mut [1.0, 0.0]));
    }

    #[test]
    fn solver_stats_count_only_swept_calls_and_merge_exactly() {
        let mut a = SolverStats::default();
        a.record(SolveOutcome::EXACT);
        assert_eq!(a, SolverStats::default());
        a.record(SolveOutcome {
            sweeps: 3,
            kkt_residual: 2e-10,
        });
        a.record(SolveOutcome {
            sweeps: MAX_SWEEPS,
            kkt_residual: 1e-4,
        });
        let mut b = SolverStats::default();
        b.record(SolveOutcome {
            sweeps: 1,
            kkt_residual: 5e-13,
        });
        let (mut ab, mut ba) = (a, b);
        ab.merge(&b);
        ba.merge(&a);
        assert_eq!(ab, ba);
        assert_eq!(
            ab,
            SolverStats {
                calls: 3,
                sweeps: 4 + MAX_SWEEPS as u64,
                non_converged: 1,
                max_kkt_residual: 1e-4,
            }
        );
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(64))]

        /// What dynamic assignment relies on: solve outcomes split into
        /// any groups (the link groups one worker ran), each group
        /// recorded on its own and the groups merged in any order, equal
        /// one sequential record bit for bit — exact, sweep-less and
        /// non-converged calls alike.
        #[test]
        fn solver_stats_merge_exactly_in_any_grouping_and_order(
            solves in proptest::collection::vec(
                (0..4usize, proptest::prop_oneof![0.0..SOLVER_TOL, SOLVER_TOL..1.0, proptest::strategy::Just(0.0)], 0..8usize),
                0..160,
            ),
            groups in 1..9usize,
            order_keys in proptest::collection::vec(0..u64::MAX, 8..9),
        ) {
            let mut sequential = SolverStats::default();
            let mut per_group = vec![SolverStats::default(); groups];
            for &(sweeps, kkt_residual, g) in &solves {
                // Sweep counts up to past the budget.
                let solve = SolveOutcome { sweeps: sweeps * MAX_SWEEPS / 2, kkt_residual };
                sequential.record(solve);
                per_group[g % groups].record(solve);
            }
            let mut order: Vec<usize> = (0..groups).collect();
            order.sort_by_key(|&g| (order_keys[g], g));
            let mut merged = SolverStats::default();
            for g in order {
                merged.merge(&per_group[g]);
            }
            let bits = |s: &SolverStats| (s.calls, s.sweeps, s.non_converged, s.max_kkt_residual.to_bits());
            proptest::prop_assert_eq!(bits(&merged), bits(&sequential));
        }
    }

    #[test]
    fn allocate_rejects_bad_flows() {
        let topo = Topology::single_link(1000.0).unwrap();
        assert!(allocate(&topo, FairnessObjective::MaxMin, &[FlowDemand::new(0.0, 0)]).is_err());
        assert!(allocate(&topo, FairnessObjective::MaxMin, &[FlowDemand::new(1.0, 3)]).is_err());
        assert!(allocate(&topo, FairnessObjective::AlphaFair(-2.0), &[]).is_err());
    }

    #[test]
    fn empty_flow_set_allocates_nothing() {
        let topo = two_hop_topo();
        for obj in [
            FairnessObjective::MaxMin,
            FairnessObjective::ProportionalFair,
            FairnessObjective::AlphaFair(2.0),
        ] {
            let a = allocate(&topo, obj, &[]).unwrap();
            assert!(a.rates.is_empty());
        }
    }
}
