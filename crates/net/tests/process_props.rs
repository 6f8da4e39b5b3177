//! Property-based invariants for the bandwidth-process layer.
//!
//! The trace properties pin `download_time` to its definition: the
//! integral of `at(t)` over the returned interval must equal the requested
//! size, and more bits can never download faster. The bottleneck
//! properties pin the event kernel's conservation law: no window ever
//! delivers more than `capacity × window` kbits, whatever the arrival
//! pattern.

use lingxi_net::{BandwidthProcess, BandwidthTrace, FairnessObjective, SharedBottleneck, Topology};
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
        link.advance_to(latest + horizon);
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
