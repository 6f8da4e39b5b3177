//! Multi-hop topologies and the Kleinrock-independence delay model.
//!
//! A [`Topology`] is a small fixed network: a list of links (capacity +
//! propagation delay) and a list of routes, each route an ordered list of
//! 1–3 hops. Flows are pinned to a route; their rate is constrained by
//! every link on the path (see [`crate::FairnessObjective`] and the
//! allocator in [`crate::fairness`]), and their end-to-end delay and
//! jitter compose per-hop under the Kleinrock independence approximation:
//! each hop is treated as an independent M/M/1-style queue, so path delay
//! is the sum of per-hop `propagation + service/(1 − ρ)` terms and path
//! jitter the sum of per-hop `service·ρ/(1 − ρ)` terms.
//!
//! The degenerate case — one link, one route — is exactly the classic
//! single-bottleneck [`crate::SharedBottleneck`]; `Topology::single_link`
//! builds it, and the allocator dispatches it to the bit-exact legacy
//! water-fill walk.
//!
//! ```
//! use lingxi_net::{TopoLink, Topology};
//!
//! let topo = Topology::new(
//!     vec![
//!         TopoLink::new(12_000.0, 0.004),
//!         TopoLink::new(45_000.0, 0.012),
//!     ],
//!     vec![vec![0, 1], vec![1]],
//! )
//! .unwrap();
//! assert_eq!(topo.n_links(), 2);
//! assert!((topo.min_capacity_on(0) - 12_000.0).abs() < 1e-9);
//! ```

use crate::{NetError, Result};

/// Maximum hops per route. The ISSUE's topologies are small pods; a hard
/// bound keeps the allocator's per-event cost trivially bounded.
pub const MAX_HOPS: usize = 3;

/// Nominal packet size used by the Kleinrock per-hop service time, in
/// kbits (1500 bytes).
pub const KLEINROCK_PACKET_KBITS: f64 = 12.0;

/// Utilization clamp for the M/M/1-style terms: `1/(1 − ρ)` diverges at
/// ρ = 1, so offered loads at or above capacity saturate at this value.
pub const RHO_MAX: f64 = 0.95;

/// One directed link: a capacity and a propagation delay.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TopoLink {
    /// Link capacity (kbps). Must be positive and finite.
    pub capacity_kbps: f64,
    /// One-way propagation delay (seconds). Must be finite and ≥ 0.
    pub prop_delay_s: f64,
}

impl TopoLink {
    /// Construct a link (validated by [`Topology::new`]).
    pub fn new(capacity_kbps: f64, prop_delay_s: f64) -> Self {
        Self {
            capacity_kbps,
            prop_delay_s,
        }
    }

    /// Kleinrock per-hop service time of the nominal packet (seconds).
    fn service_s(&self) -> f64 {
        KLEINROCK_PACKET_KBITS / self.capacity_kbps
    }

    /// Per-hop M/M/1-style queueing terms at utilization `rho`:
    /// `(delay, jitter) = (prop + s/(1 − ρ), s·ρ/(1 − ρ))` with ρ clamped
    /// into `[0, RHO_MAX]`. Jitter is exactly zero on an unloaded hop.
    pub fn hop_delay_jitter(&self, rho: f64) -> (f64, f64) {
        let rho = rho.clamp(0.0, RHO_MAX);
        let s = self.service_s();
        let residual = 1.0 - rho;
        (self.prop_delay_s + s / residual, s * rho / residual)
    }
}

/// A fixed set of links plus the routes flows may take over them.
///
/// Routes are per *flow class*, not per flow: every flow carries a route
/// index, and the allocator constrains its rate by each link on that
/// route. Validation guarantees 1–[`MAX_HOPS`] hops, in-range link
/// indices and no repeated link within a route, so the allocator can walk
/// routes without bounds checks failing mid-solve.
///
/// Construction also derives the tables the allocator reads on every
/// solve — per-route tightest capacity, the routes crossing each link,
/// and the links split into single-route and shared (most-shared first)
/// — so they cost nothing per flow event.
#[derive(Debug, Clone, PartialEq)]
pub struct Topology {
    links: Vec<TopoLink>,
    routes: Vec<Vec<u16>>,
    /// Smallest link capacity along each route.
    route_min_capacity: Vec<f64>,
    /// Routes crossing each link, ascending.
    link_routes: Vec<Vec<u16>>,
    /// Links crossed by exactly one route, ascending.
    single_route_links: Vec<u16>,
    /// Links crossed by two or more routes, by descending route count,
    /// ties by ascending index.
    shared_links: Vec<u16>,
}

impl Topology {
    /// Build and validate a topology.
    pub fn new(links: Vec<TopoLink>, routes: Vec<Vec<u16>>) -> Result<Self> {
        if links.is_empty() {
            return Err(NetError::InvalidConfig(
                "topology needs at least one link".into(),
            ));
        }
        if links.len() > u16::MAX as usize {
            return Err(NetError::InvalidConfig("too many links".into()));
        }
        for (i, link) in links.iter().enumerate() {
            if !(link.capacity_kbps > 0.0) || !link.capacity_kbps.is_finite() {
                return Err(NetError::InvalidConfig(format!(
                    "link {i}: capacity must be positive and finite"
                )));
            }
            if !(link.prop_delay_s >= 0.0) || !link.prop_delay_s.is_finite() {
                return Err(NetError::InvalidConfig(format!(
                    "link {i}: propagation delay must be finite and non-negative"
                )));
            }
        }
        if routes.is_empty() {
            return Err(NetError::InvalidConfig(
                "topology needs at least one route".into(),
            ));
        }
        for (r, route) in routes.iter().enumerate() {
            if route.is_empty() || route.len() > MAX_HOPS {
                return Err(NetError::InvalidConfig(format!(
                    "route {r}: must have 1..={MAX_HOPS} hops"
                )));
            }
            for (h, &l) in route.iter().enumerate() {
                if l as usize >= links.len() {
                    return Err(NetError::InvalidConfig(format!(
                        "route {r}: hop {h} references missing link {l}"
                    )));
                }
                if route[..h].contains(&l) {
                    return Err(NetError::InvalidConfig(format!(
                        "route {r}: link {l} appears twice"
                    )));
                }
            }
        }
        let route_min_capacity = routes
            .iter()
            .map(|route| {
                route.iter().fold(f64::INFINITY, |c, &l| {
                    c.min(links[l as usize].capacity_kbps)
                })
            })
            .collect();
        let mut link_routes = vec![Vec::new(); links.len()];
        for (r, route) in routes.iter().enumerate() {
            for &l in route {
                link_routes[l as usize].push(r as u16);
            }
        }
        let routes_on = |l: &u16| link_routes[*l as usize].len();
        let all = 0..links.len() as u16;
        let single_route_links = all.clone().filter(|l| routes_on(l) == 1).collect();
        let mut shared_links: Vec<u16> = all.filter(|l| routes_on(l) >= 2).collect();
        shared_links.sort_by_key(|l| std::cmp::Reverse(routes_on(l)));
        Ok(Self {
            links,
            routes,
            route_min_capacity,
            link_routes,
            single_route_links,
            shared_links,
        })
    }

    /// The degenerate 1-link / 1-route topology behind the classic
    /// [`crate::SharedBottleneck`]: one link with zero propagation delay
    /// and the single route `[0]`.
    pub fn single_link(capacity_kbps: f64) -> Result<Self> {
        Self::new(vec![TopoLink::new(capacity_kbps, 0.0)], vec![vec![0]])
    }

    /// True for the degenerate single-link topology (validation forces
    /// every route of a 1-link topology to be `[0]`).
    pub fn is_single_link(&self) -> bool {
        self.links.len() == 1
    }

    /// Number of links.
    pub fn n_links(&self) -> usize {
        self.links.len()
    }

    /// Number of routes.
    pub fn n_routes(&self) -> usize {
        self.routes.len()
    }

    /// The links.
    pub fn links(&self) -> &[TopoLink] {
        &self.links
    }

    /// The hops of route `route` (panics on an out-of-range index; route
    /// indices are validated at flow admission).
    pub fn route(&self, route: u16) -> &[u16] {
        &self.routes[route as usize]
    }

    /// Smallest link capacity along route `route` (kbps) — an upper bound
    /// on any flow's rate on that route.
    pub fn min_capacity_on(&self, route: u16) -> f64 {
        self.route_min_capacity[route as usize]
    }

    /// The routes crossing link `link`, ascending.
    pub(crate) fn routes_through(&self, link: u16) -> &[u16] {
        &self.link_routes[link as usize]
    }

    /// The links crossed by exactly one route, ascending. Such a link
    /// only caps that route's aggregate rate, so the dual solver folds it
    /// into the route instead of pricing it (see [`crate::fairness`]).
    pub(crate) fn single_route_links(&self) -> &[u16] {
        &self.single_route_links
    }

    /// The links crossed by two or more routes, most-shared first:
    /// descending by the number of routes crossing them, ties in ascending
    /// index order. These are the links the dual solver prices, in this
    /// order, so a core is priced before the links that feed it.
    pub(crate) fn shared_links(&self) -> &[u16] {
        &self.shared_links
    }

    /// A copy with every link capacity multiplied by `factor` (routes and
    /// propagation delays unchanged). The fleet uses this to instantiate
    /// one topology template per link class.
    pub fn scaled(&self, factor: f64) -> Result<Self> {
        if !(factor > 0.0) || !factor.is_finite() {
            return Err(NetError::InvalidConfig(
                "topology scale factor must be positive and finite".into(),
            ));
        }
        let links = self
            .links
            .iter()
            .map(|l| TopoLink::new(l.capacity_kbps * factor, l.prop_delay_s))
            .collect();
        Self::new(links, self.routes.clone())
    }

    /// End-to-end `(delay, jitter)` of route `route` (seconds) under the
    /// Kleinrock independence approximation, given per-link utilizations
    /// (`rho[l]` for link `l`; values outside `[0, RHO_MAX]` are clamped).
    /// Both quantities are sums of the per-hop terms in hop order.
    pub fn path_delay_jitter(&self, route: u16, rho: &[f64]) -> (f64, f64) {
        let mut delay = 0.0;
        let mut jitter = 0.0;
        for &l in self.route(route) {
            let r = rho.get(l as usize).copied().unwrap_or(0.0);
            let (d, j) = self.links[l as usize].hop_delay_jitter(r);
            delay += d;
            jitter += j;
        }
        (delay, jitter)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn validation_rejects_bad_shapes() {
        assert!(Topology::new(vec![], vec![vec![0]]).is_err());
        assert!(Topology::new(vec![TopoLink::new(1000.0, 0.0)], vec![]).is_err());
        assert!(Topology::new(vec![TopoLink::new(0.0, 0.0)], vec![vec![0]]).is_err());
        assert!(Topology::new(vec![TopoLink::new(1000.0, -0.1)], vec![vec![0]]).is_err());
        assert!(Topology::new(vec![TopoLink::new(1000.0, 0.0)], vec![vec![]]).is_err());
        assert!(Topology::new(vec![TopoLink::new(1000.0, 0.0)], vec![vec![1]]).is_err());
        // A link may not repeat within a route.
        assert!(Topology::new(vec![TopoLink::new(1000.0, 0.0)], vec![vec![0, 0]]).is_err());
        // More than MAX_HOPS hops.
        let links = vec![
            TopoLink::new(1000.0, 0.0),
            TopoLink::new(1000.0, 0.0),
            TopoLink::new(1000.0, 0.0),
            TopoLink::new(1000.0, 0.0),
        ];
        assert!(Topology::new(links, vec![vec![0, 1, 2, 3]]).is_err());
        assert!(Topology::single_link(f64::NAN).is_err());
    }

    #[test]
    fn single_link_is_degenerate() {
        let t = Topology::single_link(9000.0).unwrap();
        assert!(t.is_single_link());
        assert_eq!(t.n_links(), 1);
        assert_eq!(t.n_routes(), 1);
        assert_eq!(t.route(0), &[0]);
        assert_eq!(t.min_capacity_on(0), 9000.0);
    }

    #[test]
    fn derived_tables_split_links_by_how_many_routes_cross_them() {
        // Two access links and a metro link with one route each, feeding
        // a core crossed by all three routes and a spur crossed by none.
        let t = Topology::new(
            vec![
                TopoLink::new(8_000.0, 0.0),
                TopoLink::new(9_000.0, 0.0),
                TopoLink::new(12_000.0, 0.0),
                TopoLink::new(16_000.0, 0.0),
                TopoLink::new(1_000.0, 0.0),
            ],
            vec![vec![0, 2, 3], vec![1, 3], vec![3]],
        )
        .unwrap();
        assert_eq!(t.routes_through(3), &[0, 1, 2]);
        assert_eq!(t.routes_through(2), &[0]);
        assert!(t.routes_through(4).is_empty());
        assert_eq!(t.single_route_links(), &[0, 1, 2]);
        assert_eq!(t.shared_links(), &[3]);
        assert_eq!(t.min_capacity_on(0), 8_000.0);
        assert_eq!(t.min_capacity_on(2), 16_000.0);
        // Most-shared first, ties in index order.
        let t = Topology::new(
            vec![
                TopoLink::new(1_000.0, 0.0),
                TopoLink::new(1_000.0, 0.0),
                TopoLink::new(1_000.0, 0.0),
            ],
            vec![vec![0, 1, 2], vec![0, 2], vec![1, 2], vec![2]],
        )
        .unwrap();
        assert_eq!(t.shared_links(), &[2, 0, 1]);
        assert!(t.single_route_links().is_empty());
    }

    #[test]
    fn scaled_multiplies_capacities_only() {
        let t = Topology::new(
            vec![
                TopoLink::new(12_000.0, 0.004),
                TopoLink::new(45_000.0, 0.012),
            ],
            vec![vec![0, 1], vec![1]],
        )
        .unwrap();
        let s = t.scaled(2.0).unwrap();
        assert_eq!(s.links()[0].capacity_kbps, 24_000.0);
        assert_eq!(s.links()[1].capacity_kbps, 90_000.0);
        assert_eq!(s.links()[0].prop_delay_s, 0.004);
        assert_eq!(s.route(0), t.route(0));
        assert!(t.scaled(0.0).is_err());
    }

    #[test]
    fn two_hop_delay_is_sum_of_per_hop_terms() {
        // Hand-computed fixture: hop 0 has s = 12/12000 = 1 ms at ρ = 0.5,
        // hop 1 has s = 12/24000 = 0.5 ms at ρ = 0.25.
        let t = Topology::new(
            vec![
                TopoLink::new(12_000.0, 0.005),
                TopoLink::new(24_000.0, 0.010),
            ],
            vec![vec![0, 1]],
        )
        .unwrap();
        let rho = [0.5, 0.25];
        let (d, j) = t.path_delay_jitter(0, &rho);
        // d0 = 0.005 + 0.001/0.5 = 0.007; d1 = 0.010 + 0.0005/0.75.
        let d0 = 0.005 + 0.001 / 0.5;
        let d1 = 0.010 + 0.0005 / 0.75;
        assert!((d - (d0 + d1)).abs() < 1e-15, "delay {d}");
        // j0 = 0.001·0.5/0.5 = 0.001; j1 = 0.0005·0.25/0.75.
        let j0 = 0.001 * 0.5 / 0.5;
        let j1 = 0.0005 * 0.25 / 0.75;
        assert!((j - (j0 + j1)).abs() < 1e-15, "jitter {j}");
        // The path terms equal the sum of independent per-hop calls.
        let (h0d, h0j) = t.links()[0].hop_delay_jitter(0.5);
        let (h1d, h1j) = t.links()[1].hop_delay_jitter(0.25);
        assert_eq!(d, h0d + h1d);
        assert_eq!(j, h0j + h1j);
    }

    #[test]
    fn unloaded_hops_have_zero_jitter_and_propagation_plus_service_delay() {
        let t = Topology::new(
            vec![
                TopoLink::new(12_000.0, 0.005),
                TopoLink::new(24_000.0, 0.010),
            ],
            vec![vec![0, 1]],
        )
        .unwrap();
        let (d, j) = t.path_delay_jitter(0, &[0.0, 0.0]);
        assert_eq!(j, 0.0, "unloaded hops must contribute exactly zero jitter");
        let want = 0.005 + 12.0 / 12_000.0 + 0.010 + 12.0 / 24_000.0;
        assert!((d - want).abs() < 1e-15);
    }

    #[test]
    fn utilization_is_clamped_at_rho_max() {
        let l = TopoLink::new(10_000.0, 0.0);
        let (d_hot, j_hot) = l.hop_delay_jitter(1.7);
        let (d_max, j_max) = l.hop_delay_jitter(RHO_MAX);
        assert_eq!(d_hot, d_max);
        assert_eq!(j_hot, j_max);
        assert!(d_hot.is_finite() && j_hot.is_finite());
    }
}
