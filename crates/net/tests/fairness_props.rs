//! Property-based invariants for the fairness-parametric allocator and
//! the Kleinrock topology layer.
//!
//! The allocator properties pin the α-fair dual solver to its contract on
//! random multi-hop topologies and flow sets: no link is ever
//! oversubscribed, no flow exceeds its access cap or its path's tightest
//! link, the result is a pure function of the flow *set* (deterministic
//! and invariant under permutation of the input order), the α → ∞ family
//! limit lands on the max-min water-fill (bit-exactly at α = ∞, within
//! tolerance at large finite α), and proportional fairness leaves a
//! bounded KKT stationarity residual. The differential properties hold
//! the solver's rates to a slow reference that shares none of its
//! machinery, on random instances and on the family that used to cost
//! Gauss–Seidel its longest runs. The topology property pins the
//! Kleinrock composition: end-to-end delay is monotone in utilization.
//!
//! The vendored `proptest` stand-in has no `prop_map`/`prop_flat_map`,
//! so instances are drawn as raw primitives and assembled by the
//! deterministic builders below.

use lingxi_net::{allocate, FairnessObjective, FlowDemand, TopoLink, Topology, MAX_SWEEPS};
use proptest::prelude::*;

/// Relative slack for feasibility checks: the solver's scaling round
/// trips through a capacity normalization, so sums can sit a few ULP
/// above the exact bound.
const FEAS_SLACK: f64 = 1e-6;

/// Build a 2–4 link topology from raw draws: `nl_pick` selects the link
/// count, `links_raw` supplies `(capacity, prop delay)` pairs, and each
/// route seed's low bits select which links its route crosses (ascending,
/// truncated to 3 hops, with a 1-hop fallback when no bit is set).
fn build_topo(nl_pick: usize, links_raw: &[(f64, f64)], route_seeds: &[u64]) -> Topology {
    let nl = 2 + nl_pick % 3;
    let links: Vec<TopoLink> = links_raw[..nl]
        .iter()
        .map(|&(c, d)| TopoLink::new(c, d))
        .collect();
    let routes: Vec<Vec<u16>> = route_seeds
        .iter()
        .map(|&seed| {
            let hops: Vec<u16> = (0..nl as u16)
                .filter(|&l| (seed >> l) & 1 == 1)
                .take(3)
                .collect();
            if hops.is_empty() {
                vec![(seed % nl as u64) as u16]
            } else {
                hops
            }
        })
        .collect();
    Topology::new(links, routes).expect("builder emits valid topologies")
}

/// Build 1–12 flows with pairwise-distinct caps (so flow identity is
/// never ambiguous under reordering) and uniformly random routes.
fn build_flows(caps_raw: &[u32], routes_raw: &[u16], n_routes: usize) -> Vec<FlowDemand> {
    let mut caps = caps_raw.to_vec();
    caps.sort_unstable();
    caps.dedup();
    caps.iter()
        .zip(routes_raw)
        .map(|(&c, &r)| FlowDemand::new(c as f64 / 100.0, r % n_routes as u16))
        .collect()
}

/// Select one of the three objective families; `alpha` feeds the
/// `AlphaFair` arm so finite α sweeps `[0.25, 8)`.
fn pick_objective(sel: usize, alpha: f64) -> FairnessObjective {
    match sel % 3 {
        0 => FairnessObjective::MaxMin,
        1 => FairnessObjective::ProportionalFair,
        _ => FairnessObjective::AlphaFair(alpha),
    }
}

/// The test-only reference: cold Gauss–Seidel on the dual over capacities
/// normalized to the largest, one demand evaluation per flow per probe,
/// every link (single-route ones included) priced by plain bisection down
/// to adjacent floats. No run grouping, no folding, no Newton, no
/// acceleration — only the problem statement. Panics if it has not
/// closed the KKT conditions to `1e-11` within 5000 sweeps.
fn reference_rates(topo: &Topology, alpha: f64, flows: &[FlowDemand]) -> Vec<f64> {
    let scale = topo
        .links()
        .iter()
        .fold(0.0, |c: f64, l| c.max(l.capacity_kbps));
    let ceiling: Vec<f64> = flows
        .iter()
        .map(|f| f.cap_kbps.min(topo.min_capacity_on(f.route)) / scale)
        .collect();
    let rate = |prices: &[f64], i: usize| -> f64 {
        let q: f64 = topo
            .route(flows[i].route)
            .iter()
            .map(|&l| prices[l as usize])
            .sum();
        if q > 0.0 {
            ceiling[i].min(q.powf(-1.0 / alpha))
        } else {
            ceiling[i]
        }
    };
    let excess = |prices: &[f64], l: usize| -> f64 {
        let load: f64 = (0..flows.len())
            .filter(|&i| topo.route(flows[i].route).contains(&(l as u16)))
            .map(|i| rate(prices, i))
            .sum();
        load * scale / topo.links()[l].capacity_kbps - 1.0
    };
    let mut prices = vec![0.0_f64; topo.n_links()];
    for _sweep in 0..5000 {
        for l in 0..prices.len() {
            prices[l] = 0.0;
            if excess(&prices, l) <= 0.0 {
                continue;
            }
            let (mut lo, mut hi) = (0.0_f64, 1.0_f64);
            prices[l] = hi;
            while excess(&prices, l) > 0.0 {
                hi *= 2.0;
                prices[l] = hi;
            }
            loop {
                let mid = 0.5 * (lo + hi);
                if mid <= lo || mid >= hi {
                    break;
                }
                prices[l] = mid;
                if excess(&prices, l) > 0.0 {
                    lo = mid;
                } else {
                    hi = mid;
                }
            }
            prices[l] = hi;
        }
        let residual = (0..prices.len())
            .map(|l| {
                let e = excess(&prices, l);
                if prices[l] > 0.0 {
                    e.abs()
                } else {
                    e.max(0.0)
                }
            })
            .fold(0.0, f64::max);
        if residual < 1e-11 {
            return (0..flows.len()).map(|i| rate(&prices, i) * scale).collect();
        }
    }
    panic!("the reference solver did not converge");
}

/// `allocate` against [`reference_rates`], to `1e-7` relative on every rate.
fn assert_matches_reference(topo: &Topology, alpha: f64, flows: &[FlowDemand]) {
    let alloc = allocate(topo, FairnessObjective::AlphaFair(alpha), flows).unwrap();
    assert!(
        alloc.sweeps < MAX_SWEEPS && alloc.kkt_residual <= 1e-8,
        "alpha {alpha}: {} sweeps, residual {}",
        alloc.sweeps,
        alloc.kkt_residual
    );
    let want = reference_rates(topo, alpha, flows);
    for (i, (&got, &want)) in alloc.rates.iter().zip(&want).enumerate() {
        assert!(
            (got - want).abs() <= 1e-7 * want,
            "alpha {alpha} flow {i}: {got} vs reference {want} ({} sweeps)",
            alloc.sweeps
        );
    }
}

/// SplitMix64, for the deterministic hard family below.
fn mix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The α values the differential tests sweep: the floor, both exact-power
/// cases, and one either side of them.
const ALPHAS: [f64; 5] = [0.125, 0.5, 1.0, 2.0, 8.0];

/// The hard family: two near-equal links (10 Mbps and a hair more) each
/// shared by a 3-hop route and a 2-hop route of its own, all of them
/// crossing a wide third link with a 1-hop route. The 3-hop route's flows
/// are elastic and bind both tight links at once; the others carry many
/// small, mostly clamped flows, so the two tight links answer almost only
/// to each other — the coupling that cost plain Gauss–Seidel its 27- and
/// 28-sweep runs, and leaves the dual Hessian close to singular.
fn hard_instance(seed: u64, n_flows: usize) -> (Topology, Vec<FlowDemand>) {
    let hair = 1.0 + (mix64(seed) % 1000) as f64 * 1e-5;
    let topo = Topology::new(
        vec![
            TopoLink::new(10_000.0, 0.001),
            TopoLink::new(10_000.0 * hair, 0.001),
            TopoLink::new(40_000.0, 0.001),
        ],
        vec![vec![0, 1, 2], vec![0, 2], vec![1, 2], vec![2]],
    )
    .unwrap();
    let flows = (0..n_flows as u64)
        .map(|i| {
            let h = mix64(seed * 7919 + i);
            let route = (h % 4) as u16;
            let spread = if route == 0 {
                4_000.0
            } else {
                60_000.0 / n_flows as f64
            };
            FlowDemand::new(20.0 + (h >> 8) as f64 % spread, route)
        })
        .collect();
    (topo, flows)
}

/// The `experiments fairness` pod: two access links and a metro link, one
/// route each, feeding a core shared by all three routes.
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

/// On the hard family the solver never reaches its sweep budget and
/// closes the KKT conditions to `1e-8`, at every α and flow count.
#[test]
fn hard_family_converges_inside_the_budget() {
    for alpha in ALPHAS {
        for seed in 0..60u64 {
            let (topo, flows) = hard_instance(seed, [128, 256, 512][seed as usize % 3]);
            let alloc = allocate(&topo, FairnessObjective::AlphaFair(alpha), &flows).unwrap();
            assert!(
                alloc.sweeps < MAX_SWEEPS && alloc.kkt_residual <= 1e-8,
                "alpha {alpha} seed {seed}: {} sweeps, residual {}",
                alloc.sweeps,
                alloc.kkt_residual
            );
        }
    }
}

/// On the hard family, and on pod instances where an access link and the
/// core bind together, the rates agree with the reference.
#[test]
fn hard_family_matches_reference() {
    for (k, alpha) in ALPHAS.into_iter().enumerate() {
        let (topo, flows) = hard_instance(k as u64, if k % 2 == 0 { 128 } else { 512 });
        assert_matches_reference(&topo, alpha, &flows);
        let flows: Vec<FlowDemand> = (0..24u64)
            .map(|i| {
                let h = mix64(1000 * k as u64 + i);
                FlowDemand::new(300.0 + (h >> 8) as f64 % 13_000.0, (h % 3) as u16)
            })
            .collect();
        assert_matches_reference(&pod(), alpha, &flows);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Differential: on random multi-hop instances the solver's rates
    /// agree with the reference's to `1e-7`, at every α of the sweep.
    #[test]
    fn allocation_matches_reference(
        nl_pick in 0usize..3,
        links_raw in collection::vec((2_000.0f64..40_000.0, 0.0005f64..0.02), 4..5),
        route_seeds in collection::vec(0u64..10_000, 1..5),
        caps_raw in collection::vec(1_000u32..8_000_000, 1..13),
        routes_raw in collection::vec(0u16..1024, 12..13),
        alpha_pick in 0usize..5,
    ) {
        let topo = build_topo(nl_pick, &links_raw, &route_seeds);
        let flows = build_flows(&caps_raw, &routes_raw, topo.n_routes());
        assert_matches_reference(&topo, ALPHAS[alpha_pick], &flows);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Per-link conservation: for every link, the rates of the flows
    /// whose route crosses it sum to at most its capacity.
    #[test]
    fn per_link_conservation(
        nl_pick in 0usize..3,
        links_raw in collection::vec((2_000.0f64..40_000.0, 0.0005f64..0.02), 4..5),
        route_seeds in collection::vec(0u64..10_000, 1..5),
        caps_raw in collection::vec(1_000u32..8_000_000, 1..13),
        routes_raw in collection::vec(0u16..1024, 12..13),
        sel in 0usize..3,
        alpha in 0.25f64..8.0,
    ) {
        let topo = build_topo(nl_pick, &links_raw, &route_seeds);
        let flows = build_flows(&caps_raw, &routes_raw, topo.n_routes());
        let objective = pick_objective(sel, alpha);
        let alloc = allocate(&topo, objective, &flows).unwrap();
        for l in 0..topo.n_links() as u16 {
            let mut load = 0.0;
            for (f, &rate) in flows.iter().zip(&alloc.rates) {
                if topo.route(f.route).contains(&l) {
                    load += rate;
                }
            }
            let cap = topo.links()[l as usize].capacity_kbps;
            prop_assert!(
                load <= cap * (1.0 + FEAS_SLACK),
                "link {l} oversubscribed: {load} > {cap} under {objective:?}"
            );
        }
    }

    /// Cap respect: every rate is positive, at most the flow's access
    /// cap, and at most the tightest link capacity on its route.
    #[test]
    fn rates_respect_caps_and_paths(
        nl_pick in 0usize..3,
        links_raw in collection::vec((2_000.0f64..40_000.0, 0.0005f64..0.02), 4..5),
        route_seeds in collection::vec(0u64..10_000, 1..5),
        caps_raw in collection::vec(1_000u32..8_000_000, 1..13),
        routes_raw in collection::vec(0u16..1024, 12..13),
        sel in 0usize..3,
        alpha in 0.25f64..8.0,
    ) {
        let topo = build_topo(nl_pick, &links_raw, &route_seeds);
        let flows = build_flows(&caps_raw, &routes_raw, topo.n_routes());
        let objective = pick_objective(sel, alpha);
        let alloc = allocate(&topo, objective, &flows).unwrap();
        for (i, (f, &rate)) in flows.iter().zip(&alloc.rates).enumerate() {
            let ceil = f.cap_kbps.min(topo.min_capacity_on(f.route));
            prop_assert!(
                rate > 0.0 && rate <= ceil * (1.0 + FEAS_SLACK),
                "flow {i}: rate {rate} outside (0, {ceil}] under {objective:?}"
            );
        }
    }

    /// Determinism: the same instance solved twice gives bit-identical
    /// rates and identical solver statistics.
    #[test]
    fn allocation_is_deterministic(
        nl_pick in 0usize..3,
        links_raw in collection::vec((2_000.0f64..40_000.0, 0.0005f64..0.02), 4..5),
        route_seeds in collection::vec(0u64..10_000, 1..5),
        caps_raw in collection::vec(1_000u32..8_000_000, 1..13),
        routes_raw in collection::vec(0u16..1024, 12..13),
        sel in 0usize..3,
        alpha in 0.25f64..8.0,
    ) {
        let topo = build_topo(nl_pick, &links_raw, &route_seeds);
        let flows = build_flows(&caps_raw, &routes_raw, topo.n_routes());
        let objective = pick_objective(sel, alpha);
        let a = allocate(&topo, objective, &flows).unwrap();
        let b = allocate(&topo, objective, &flows).unwrap();
        prop_assert_eq!(a, b);
    }

    /// Permutation invariance: the allocation is a function of the flow
    /// *set* — reversing or rotating the input order moves each flow's
    /// bit-identical rate along with it.
    #[test]
    fn allocation_is_permutation_invariant(
        nl_pick in 0usize..3,
        links_raw in collection::vec((2_000.0f64..40_000.0, 0.0005f64..0.02), 4..5),
        route_seeds in collection::vec(0u64..10_000, 1..5),
        caps_raw in collection::vec(1_000u32..8_000_000, 1..13),
        routes_raw in collection::vec(0u16..1024, 12..13),
        sel in 0usize..3,
        alpha in 0.25f64..8.0,
        rot in 0usize..12,
    ) {
        let topo = build_topo(nl_pick, &links_raw, &route_seeds);
        let flows = build_flows(&caps_raw, &routes_raw, topo.n_routes());
        let objective = pick_objective(sel, alpha);
        let base = allocate(&topo, objective, &flows).unwrap();

        let reversed: Vec<FlowDemand> = flows.iter().rev().copied().collect();
        let rev = allocate(&topo, objective, &reversed).unwrap();
        for (i, &rate) in base.rates.iter().enumerate() {
            let j = flows.len() - 1 - i;
            prop_assert!(
                rate.to_bits() == rev.rates[j].to_bits(),
                "flow {i}: {rate} != {} after reversal",
                rev.rates[j]
            );
        }

        let rot = rot % flows.len();
        let rotated: Vec<FlowDemand> = flows[rot..]
            .iter()
            .chain(&flows[..rot])
            .copied()
            .collect();
        let rtd = allocate(&topo, objective, &rotated).unwrap();
        for (i, &rate) in base.rates.iter().enumerate() {
            let j = (i + flows.len() - rot) % flows.len();
            prop_assert!(
                rate.to_bits() == rtd.rates[j].to_bits(),
                "flow {i}: {rate} != {} after rotation by {rot}",
                rtd.rates[j]
            );
        }
    }

    /// The α → ∞ limit: `AlphaFair(∞)` dispatches to the max-min
    /// water-fill bit-exactly, and large finite α lands near it on every
    /// flow. The deterministic solver trades exactness for a fixed
    /// budget, so the tight bound is conditioned on its own convergence
    /// report: whenever the α = 16 dual closes inside [`MAX_SWEEPS`]
    /// (~98% of random instances), every rate is within a few percent of
    /// the water-fill; exhausted instances still stay within a loose
    /// same-ballpark bound. Demands have elasticity 1/α, so far larger α
    /// leaves Gauss–Seidel too stiff to make the budget meaningful.
    #[test]
    fn large_alpha_approaches_max_min(
        nl_pick in 0usize..3,
        links_raw in collection::vec((2_000.0f64..40_000.0, 0.0005f64..0.02), 4..5),
        route_seeds in collection::vec(0u64..10_000, 1..5),
        caps_raw in collection::vec(1_000u32..8_000_000, 1..13),
        routes_raw in collection::vec(0u16..1024, 12..13),
    ) {
        let topo = build_topo(nl_pick, &links_raw, &route_seeds);
        let flows = build_flows(&caps_raw, &routes_raw, topo.n_routes());
        let mm = allocate(&topo, FairnessObjective::MaxMin, &flows).unwrap();

        let inf = allocate(&topo, FairnessObjective::AlphaFair(f64::INFINITY), &flows).unwrap();
        prop_assert_eq!(&mm, &inf, "alpha = inf must be the max-min code path, bit-exactly");

        let big = allocate(&topo, FairnessObjective::AlphaFair(16.0), &flows).unwrap();
        let tol = if big.sweeps < MAX_SWEEPS { 0.08 } else { 0.50 };
        for (i, (&x_mm, &x_a)) in mm.rates.iter().zip(&big.rates).enumerate() {
            let rel = (x_a - x_mm).abs() / x_mm;
            prop_assert!(
                rel < tol,
                "flow {i}: alpha=16 rate {x_a} vs max-min {x_mm} (rel {rel}, {} sweeps)",
                big.sweeps
            );
        }
    }

    /// Proportional fairness leaves a bounded KKT stationarity residual
    /// on random instances: whenever the dual closes inside its fixed
    /// budget (the overwhelmingly common case) the residual sits at the
    /// solver tolerance, and even budget-exhausted instances report a
    /// small residual rather than a wrong-looking allocation.
    #[test]
    fn pf_kkt_residual_bounded(
        nl_pick in 0usize..3,
        links_raw in collection::vec((2_000.0f64..40_000.0, 0.0005f64..0.02), 4..5),
        route_seeds in collection::vec(0u64..10_000, 1..5),
        caps_raw in collection::vec(1_000u32..8_000_000, 1..13),
        routes_raw in collection::vec(0u16..1024, 12..13),
    ) {
        let topo = build_topo(nl_pick, &links_raw, &route_seeds);
        let flows = build_flows(&caps_raw, &routes_raw, topo.n_routes());
        let alloc = allocate(&topo, FairnessObjective::ProportionalFair, &flows).unwrap();
        let bound = if alloc.sweeps < MAX_SWEEPS { 1e-8 } else { 5e-2 };
        prop_assert!(
            alloc.kkt_residual < bound,
            "PF KKT residual {} over bound {bound} ({} sweeps)",
            alloc.kkt_residual,
            alloc.sweeps
        );
    }

    /// Kleinrock composition: end-to-end path delay is monotone
    /// non-decreasing in utilization — scaling every link's ρ up never
    /// reduces the delay (and never reduces the jitter).
    #[test]
    fn kleinrock_delay_monotone_in_utilization(
        nl_pick in 0usize..3,
        links_raw in collection::vec((2_000.0f64..40_000.0, 0.0005f64..0.02), 4..5),
        route_seeds in collection::vec(0u64..10_000, 1..5),
        route_sel in 0usize..4,
        rho in collection::vec(0.0f64..1.2, 4..5),
        f_lo in 0.0f64..1.0,
        f_hi in 0.0f64..1.0,
    ) {
        let topo = build_topo(nl_pick, &links_raw, &route_seeds);
        let route = (route_sel % topo.n_routes()) as u16;
        let (lo, hi) = if f_lo <= f_hi { (f_lo, f_hi) } else { (f_hi, f_lo) };
        let rho_lo: Vec<f64> = rho.iter().map(|r| r * lo).collect();
        let rho_hi: Vec<f64> = rho.iter().map(|r| r * hi).collect();
        let (d_lo, j_lo) = topo.path_delay_jitter(route, &rho_lo);
        let (d_hi, j_hi) = topo.path_delay_jitter(route, &rho_hi);
        prop_assert!(
            d_lo <= d_hi * (1.0 + 1e-12),
            "delay not monotone: {d_lo} at x{lo} > {d_hi} at x{hi}"
        );
        prop_assert!(j_lo <= j_hi * (1.0 + 1e-12) + 1e-15);
    }
}
