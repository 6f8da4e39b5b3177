//! Property-based invariants for the bandwidth-process layer.
//!
//! The trace properties pin `download_time` to its definition: the
//! integral of `at(t)` over the returned interval must equal the requested
//! size, and more bits can never download faster. The bottleneck
//! properties pin the event kernel's conservation law: no window ever
//! delivers more than `capacity × window` kbits, whatever the arrival
//! pattern. `kernel_matches_the_reference_kernel` holds the kernel to a
//! plain copy of its earlier self, bit for bit.

use std::collections::VecDeque;

use lingxi_net::{
    BandwidthProcess, BandwidthTrace, FairnessObjective, FlowEnd, SharedBottleneck, Topology,
};
use proptest::prelude::*;

/// The degenerate network: one max-min link of `capacity_kbps`, route 0.
fn single_link(capacity_kbps: f64) -> SharedBottleneck {
    SharedBottleneck::with_topology(
        Topology::single_link(capacity_kbps).unwrap(),
        FairnessObjective::MaxMin,
    )
    .unwrap()
}

/// Reference integral of `at(t)` over `[t0, t0 + dt]`, stepping tick
/// boundaries exactly like the piecewise-constant trace definition.
/// Samples `at` mid-span so float dust on a boundary cannot read the
/// neighbouring tick.
fn integrate(trace: &BandwidthTrace, t0: f64, dt: f64) -> f64 {
    let tick = trace.tick_seconds();
    let end = t0 + dt;
    let mut acc = 0.0;
    let mut t = t0;
    let mut tick_idx = (t0 / tick) as usize;
    while t < end - 1e-12 {
        let tick_end = (tick_idx + 1) as f64 * tick;
        let stop = tick_end.min(end);
        if stop > t {
            acc += trace.at((t + stop) / 2.0) * (stop - t);
        }
        t = stop;
        tick_idx += 1;
    }
    acc
}

/// One flow of [`ReferenceLink`].
#[derive(Debug, Clone, Copy)]
struct RefFlow {
    id: u64,
    started: f64,
    size_kbits: f64,
    remaining_kbits: f64,
    cap_kbps: f64,
}

/// The single-link max-min kernel as it was before its water-fill was
/// memoized and its projections stored: flows as structs sorted by
/// `(cap, id)`, the plain water-fill walk each time the rates are read,
/// the earliest projection as a sequential minimum, and a completion
/// test that divides again.
#[derive(Debug)]
struct ReferenceLink {
    capacity_kbps: f64,
    now: f64,
    flows: Vec<RefFlow>,
    done: VecDeque<FlowEnd>,
}

impl ReferenceLink {
    /// Residual kbits below which a flow counts as complete.
    const FLOW_EPS_KBITS: f64 = 1e-9;

    fn new(capacity_kbps: f64) -> Self {
        Self {
            capacity_kbps,
            now: 0.0,
            flows: Vec::new(),
            done: VecDeque::new(),
        }
    }

    fn rates(&self) -> Vec<f64> {
        let mut remaining_cap = self.capacity_kbps;
        let mut remaining_flows = self.flows.len();
        let mut rates = Vec::with_capacity(remaining_flows);
        for flow in &self.flows {
            let share = remaining_cap / remaining_flows as f64;
            let rate = flow.cap_kbps.min(share);
            rates.push(rate);
            remaining_cap -= rate;
            remaining_flows -= 1;
        }
        rates
    }

    fn earliest(&self, rates: &[f64]) -> f64 {
        let mut t = f64::INFINITY;
        for (flow, &rate) in self.flows.iter().zip(rates) {
            t = t.min(self.now + flow.remaining_kbits / rate);
        }
        t
    }

    fn advance(&mut self, to: f64) {
        while !self.flows.is_empty() && self.now < to {
            let rates = self.rates();
            let t_end = self.earliest(&rates);
            let t_stop = t_end.min(to);
            let dt = t_stop - self.now;
            let now = self.now;
            let completing = t_end <= to;
            let mut finished = Vec::new();
            if completing {
                for (flow, &rate) in self.flows.iter().zip(&rates) {
                    if now + flow.remaining_kbits / rate <= t_end
                        || flow.remaining_kbits - rate * dt <= Self::FLOW_EPS_KBITS
                    {
                        finished.push(*flow);
                    }
                }
                finished.sort_by_key(|f| f.id);
            }
            for (flow, &rate) in self.flows.iter_mut().zip(&rates) {
                flow.remaining_kbits -= rate * dt;
            }
            self.flows
                .retain(|f| !finished.iter().any(|g| g.id == f.id));
            for f in finished {
                let duration = t_stop - f.started;
                self.done.push_back(FlowEnd {
                    id: f.id,
                    at: t_stop,
                    duration,
                    kbps: f.size_kbits / duration,
                });
            }
            self.now = t_stop;
        }
        self.now = self.now.max(to);
    }

    fn begin_flow(&mut self, id: u64, at: f64, size_kbits: f64, cap_kbps: f64) {
        self.advance(at);
        let pos = self
            .flows
            .partition_point(|f| f.cap_kbps.total_cmp(&cap_kbps).then(f.id.cmp(&id)).is_lt());
        self.flows.insert(
            pos,
            RefFlow {
                id,
                started: self.now,
                size_kbits,
                remaining_kbits: size_kbits,
                cap_kbps,
            },
        );
    }

    fn next_event_time(&self) -> Option<f64> {
        if let Some(end) = self.done.front() {
            return Some(end.at);
        }
        if self.flows.is_empty() {
            return None;
        }
        Some(self.earliest(&self.rates()))
    }

    fn pop_completion(&mut self) -> Option<FlowEnd> {
        if self.done.is_empty() {
            if self.flows.is_empty() {
                return None;
            }
            let t = self.earliest(&self.rates());
            self.advance(t);
        }
        self.done.pop_front()
    }
}

/// Capacities whose water-fill shares move by an ulp within eight
/// uncapped flows, so a cap equal to one flow's share can bind at a
/// later flow.
const REF_CAPACITIES: [f64; 4] = [12_000.0, 7_777.7, 9_999.9, 8_000.0 / 3.0];

/// Caps that sit on the water-fill's running shares: every distinct share
/// of the uncapped walks of two to eight flows on `capacity`, each with
/// its two neighbouring floats, plus two caps that always bind.
fn share_caps(capacity: f64) -> Vec<f64> {
    let mut caps = vec![capacity / 16.0, capacity / 9.0];
    for n in 2..=8usize {
        let mut remaining = capacity;
        for k in (1..=n).rev() {
            let share = remaining / k as f64;
            if !caps.contains(&share) {
                caps.extend([share.next_down(), share, share.next_up()]);
            }
            remaining -= share;
        }
    }
    caps
}

/// Bit patterns of a completion, for exact comparison.
fn end_bits(end: Option<FlowEnd>) -> Option<(u64, u64, u64, u64)> {
    end.map(|e| (e.id, e.at.to_bits(), e.duration.to_bits(), e.kbps.to_bits()))
}

/// The kernel and the reference agree after every step.
fn assert_same_state(
    link: &SharedBottleneck,
    reference: &ReferenceLink,
) -> Result<(), TestCaseError> {
    prop_assert_eq!(
        link.next_event_time().map(f64::to_bits),
        reference.next_event_time().map(f64::to_bits)
    );
    prop_assert_eq!(link.active_flows(), reference.flows.len());
    let residual: f64 = reference.flows.iter().map(|f| f.remaining_kbits).sum();
    prop_assert_eq!(link.remaining_kbits().to_bits(), residual.to_bits());
    prop_assert_eq!(link.now().to_bits(), reference.now.to_bits());
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The memoized water-fill, the stored projections and the four-lane
    /// minimum change no bit: on random scripts of admissions, peeks,
    /// completions and clock advances, the kernel's `next_event_time`,
    /// every `FlowEnd` and `active_flows` equal the reference kernel's.
    /// Caps are drawn from a small per-script palette of running shares
    /// (one ulp either side included) and `∞`, and sizes from a small
    /// palette too, so the same (remaining capacity, flows left) keys
    /// recur: the scripts reach memo hits, misses, and caps that bind
    /// after the first non-binding flow, both on a miss and on a hit
    /// whose cap check fails. Clocks start at 0, 1e6 or 1e9 s.
    #[test]
    fn kernel_matches_the_reference_kernel(
        capacity_pick in 0usize..4,
        base_pick in 0usize..3,
        palette in proptest::collection::vec((0usize..1000, 100.0f64..30_000.0), 3..4),
        ops in proptest::collection::vec((0u8..10, 0usize..5, 0usize..3, 0.0f64..1.0), 1..160),
    ) {
        let capacity = REF_CAPACITIES[capacity_pick];
        let pool = share_caps(capacity);
        let caps: Vec<f64> = palette
            .iter()
            .map(|&(pick, _)| pool[pick % pool.len()])
            .chain([f64::INFINITY, f64::INFINITY])
            .collect();
        let sizes = [2_000.0, 2_000.0f64.next_up(), palette[0].1];
        let link = single_link(capacity);
        let mut reference = ReferenceLink::new(capacity);
        let base = [0.0, 1.0e6, 1.0e9][base_pick];
        link.advance_to(base).unwrap();
        reference.advance(base);
        let mut next_id = 0u64;
        for (kind, cap_pick, size_pick, gap) in ops {
            let step = if gap < 0.3 { 0.0 } else { gap * 4.0 };
            match kind {
                0..=4 => {
                    // Now and then an admission a little in the past,
                    // which the kernel clamps to its clock; kind 4 is a
                    // burst of flows with one cap.
                    let at = if gap < 0.1 { reference.now - 0.5 } else { reference.now + step };
                    let burst = if kind == 4 { 2 + size_pick } else { 1 };
                    for _ in 0..burst {
                        let (size, cap) = (sizes[size_pick], caps[cap_pick]);
                        link.begin_flow_on(next_id, 0, at, size, cap).unwrap();
                        reference.begin_flow(next_id, at, size, cap);
                        next_id += 1;
                    }
                }
                5 | 6 => {}
                7 | 8 => {
                    prop_assert_eq!(
                        end_bits(link.pop_completion()),
                        end_bits(reference.pop_completion())
                    );
                }
                _ => {
                    let to = reference.now + step;
                    link.advance_to(to).unwrap();
                    reference.advance(to);
                }
            }
            assert_same_state(&link, &reference)?;
        }
        loop {
            let end = end_bits(link.pop_completion());
            prop_assert_eq!(end, end_bits(reference.pop_completion()));
            assert_same_state(&link, &reference)?;
            if end.is_none() {
                break;
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// `download_time` is consistent with trace integration: the
    /// `at(t)`-weighted integral over the returned interval recovers the
    /// requested size.
    #[test]
    fn download_time_matches_trace_integral(
        samples in proptest::collection::vec(50.0f64..40_000.0, 1..24),
        tick in 0.25f64..4.0,
        t_start in 0.0f64..120.0,
        kbits in 1.0f64..200_000.0,
    ) {
        let trace = BandwidthTrace::new(tick, samples).unwrap();
        let duration = trace.download_time(t_start, kbits);
        prop_assert!(duration > 0.0);
        let integral = integrate(&trace, t_start, duration);
        let rel = (integral - kbits).abs() / kbits;
        prop_assert!(rel < 1e-6, "integral {integral} vs size {kbits} (rel {rel})");
    }

    /// More bits never download faster from the same start time.
    #[test]
    fn download_time_monotone_in_size(
        samples in proptest::collection::vec(50.0f64..40_000.0, 1..24),
        tick in 0.25f64..4.0,
        t_start in 0.0f64..120.0,
        a in 1.0f64..100_000.0,
        b in 1.0f64..100_000.0,
    ) {
        let trace = BandwidthTrace::new(tick, samples).unwrap();
        let (small, large) = if a <= b { (a, b) } else { (b, a) };
        prop_assert!(
            trace.download_time(t_start, small) <= trace.download_time(t_start, large) + 1e-12
        );
    }

    /// The trait impl agrees with the raw trace: duration identical,
    /// kbps·duration recovers the size.
    #[test]
    fn trace_process_consistent_with_trace(
        samples in proptest::collection::vec(50.0f64..40_000.0, 1..16),
        t_start in 0.0f64..60.0,
        kbits in 1.0f64..50_000.0,
    ) {
        let trace = BandwidthTrace::new(1.0, samples).unwrap();
        let d = trace.download(t_start, kbits);
        prop_assert_eq!(d.duration, trace.download_time(t_start, kbits));
        let rel = (d.kbps * d.duration - kbits).abs() / kbits;
        prop_assert!(rel < 1e-9);
    }

    /// Conservation: whatever the flow sizes, caps and staggered arrivals,
    /// total kbits delivered by a shared link over any window never exceed
    /// capacity × window — and each flow's effective rate respects its cap.
    #[test]
    fn bottleneck_conserves_capacity(
        capacity in 500.0f64..50_000.0,
        flows in proptest::collection::vec(
            (100.0f64..30_000.0, 0.0f64..20.0, 200.0f64..20_000.0),
            1..12,
        ),
        horizon in 1.0f64..40.0,
    ) {
        let link = single_link(capacity);
        let mut arrivals: Vec<(f64, f64, f64)> = flows;
        arrivals.sort_by(|x, y| x.1.total_cmp(&y.1));
        let mut begun = 0.0;
        let earliest = arrivals[0].1;
        let latest = arrivals.last().unwrap().1;
        for (id, (size, at, cap)) in arrivals.iter().enumerate() {
            link.begin_flow_on(id as u64, 0, *at, *size, *cap).unwrap();
            begun += size;
        }
        link.advance_to(latest + horizon).unwrap();
        // Nothing was delivered before the first arrival, so the active
        // window is [earliest, now].
        let window = link.now() - earliest;
        let delivered = begun - link.remaining_kbits();
        prop_assert!(
            delivered <= capacity * window + 1e-6,
            "delivered {delivered} kbits in {window}s at {capacity} kbps"
        );
        // Per-flow cap: effective rate of every completed flow is at most
        // min(cap, capacity).
        while let Some(end) = link.pop_completion() {
            let cap = arrivals[end.id as usize].2;
            prop_assert!(
                end.kbps <= cap.min(capacity) + 1e-6,
                "flow {} ran at {} over cap {}",
                end.id, end.kbps, cap
            );
        }
    }

    /// The kernel is a pure function of its inputs: replaying the same
    /// arrivals yields identical completions.
    #[test]
    fn bottleneck_deterministic(
        capacity in 500.0f64..50_000.0,
        flows in proptest::collection::vec(
            (100.0f64..30_000.0, 0.0f64..20.0),
            1..10,
        ),
    ) {
        let run = || {
            let link = single_link(capacity);
            let mut sorted = flows.clone();
            sorted.sort_by(|x, y| x.1.total_cmp(&y.1));
            for (id, (size, at)) in sorted.iter().enumerate() {
                link.begin_flow_on(id as u64, 0, *at, *size, f64::INFINITY).unwrap();
            }
            let mut ends = Vec::new();
            while let Some(end) = link.pop_completion() {
                ends.push(end);
            }
            ends
        };
        prop_assert_eq!(run(), run());
    }
}
