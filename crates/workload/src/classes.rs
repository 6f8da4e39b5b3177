//! The heterogeneity registry: user classes (device/access caps, patience,
//! per-class bandwidth mixture, engagement) and link classes (capacity),
//! sampled as categorical mixtures.

use lingxi_net::ProductionMixture;
use lingxi_user::profile::sample_profile;
use lingxi_user::UserRecord;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::{mix64, Result, WorkloadError};

/// One user class: the per-class knobs production heterogeneity turns.
#[derive(Debug, Clone, PartialEq)]
pub struct UserClass {
    /// Class label (reports key per-class metrics on it).
    pub name: String,
    /// Mixture weight (normalised against the registry total).
    pub weight: f64,
    /// Bandwidth-population mixture this class draws its network profile
    /// from (the per-class bandwidth model).
    pub mixture: ProductionMixture,
    /// Device decode/display cap (kbps): the sampled mean bandwidth is
    /// clamped below it. `f64::INFINITY` disables the cap.
    pub device_cap_kbps: f64,
    /// Per-flow access-link cap (kbps) applied on shared bottlenecks.
    /// `f64::INFINITY` disables the cap.
    pub access_cap_kbps: f64,
    /// Patience multiplier on the stall-tolerance τ of sampled exit
    /// profiles: `< 1` exits earlier, `> 1` tolerates more stall.
    pub patience: f64,
    /// Mean sessions per simulated day for this class.
    pub mean_sessions_per_day: f64,
}

impl UserClass {
    /// Validate the class parameters.
    pub fn validate(&self) -> Result<()> {
        if !(self.weight >= 0.0) || !self.weight.is_finite() {
            return Err(WorkloadError::InvalidConfig(format!(
                "class {:?}: weight must be finite and non-negative",
                self.name
            )));
        }
        if !(self.device_cap_kbps > 0.0) || !(self.access_cap_kbps > 0.0) {
            return Err(WorkloadError::InvalidConfig(format!(
                "class {:?}: caps must be positive (use f64::INFINITY to disable)",
                self.name
            )));
        }
        if !(self.patience > 0.0) || !self.patience.is_finite() {
            return Err(WorkloadError::InvalidConfig(format!(
                "class {:?}: patience must be positive and finite",
                self.name
            )));
        }
        if !(self.mean_sessions_per_day > 0.0) || !self.mean_sessions_per_day.is_finite() {
            return Err(WorkloadError::InvalidConfig(format!(
                "class {:?}: mean sessions must be positive and finite",
                self.name
            )));
        }
        self.mixture
            .validate()
            .map_err(|e| WorkloadError::InvalidConfig(format!("class {:?}: {e}", self.name)))
    }

    /// Materialise one user of this class. Deterministic in `(seed, id)`
    /// alone — never in the shard layout — so dynamic populations are
    /// identical across shard counts.
    pub fn sample_user(&self, seed: u64, id: u64) -> UserRecord {
        let mut rng = StdRng::seed_from_u64(mix64(seed ^ mix64(id ^ 0xC1A5_5E5A_11D0_77E1)));
        let mut net = self.mixture.sample_profile(&mut rng);
        net.mean_kbps = net.mean_kbps.min(self.device_cap_kbps);
        let mut stall = sample_profile(&mut rng);
        stall.tolerance = (stall.tolerance * self.patience).max(0.25);
        // Log-normal engagement jitter around the class mean, matching the
        // static population generator's spread.
        let sigma: f64 = 0.5;
        let mu = self.mean_sessions_per_day.ln() - sigma * sigma / 2.0;
        let u1: f64 = rng.gen_range(f64::EPSILON..1.0);
        let u2: f64 = rng.gen::<f64>();
        let z = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
        let sessions_per_day = (mu + sigma * z).exp().max(1.0);
        UserRecord {
            id,
            net,
            stall,
            sessions_per_day,
        }
    }
}

/// One link class: shared-bottleneck links hash onto these, giving the
/// topology heterogeneous capacities (congested cells next to fiber).
#[derive(Debug, Clone, PartialEq)]
pub struct LinkClass {
    /// Class label.
    pub name: String,
    /// Mixture weight (normalised against the registry total).
    pub weight: f64,
    /// Shared capacity of links in this class (kbps).
    pub capacity_kbps: f64,
}

impl LinkClass {
    /// Validate the class parameters.
    pub fn validate(&self) -> Result<()> {
        if !(self.weight >= 0.0) || !self.weight.is_finite() {
            return Err(WorkloadError::InvalidConfig(format!(
                "link class {:?}: weight must be finite and non-negative",
                self.name
            )));
        }
        if !(self.capacity_kbps > 0.0) || !self.capacity_kbps.is_finite() {
            return Err(WorkloadError::InvalidConfig(format!(
                "link class {:?}: capacity must be positive and finite",
                self.name
            )));
        }
        Ok(())
    }
}

/// The heterogeneity registry: categorical mixtures of user and link
/// classes.
#[derive(Debug, Clone, PartialEq)]
pub struct ClassRegistry {
    /// User classes (at least one; weights need not sum to 1).
    pub users: Vec<UserClass>,
    /// Link classes (at least one; weights need not sum to 1).
    pub links: Vec<LinkClass>,
}

impl ClassRegistry {
    /// Validate the registry.
    pub fn validate(&self) -> Result<()> {
        if self.users.is_empty() || self.links.is_empty() {
            return Err(WorkloadError::InvalidConfig(
                "registry needs at least one user class and one link class".into(),
            ));
        }
        for c in &self.users {
            c.validate()?;
        }
        for l in &self.links {
            l.validate()?;
        }
        if !(self.users.iter().map(|c| c.weight).sum::<f64>() > 0.0)
            || !(self.links.iter().map(|l| l.weight).sum::<f64>() > 0.0)
        {
            return Err(WorkloadError::InvalidConfig(
                "class weights must sum to a positive total".into(),
            ));
        }
        if self.users.len() > u16::MAX as usize {
            return Err(WorkloadError::InvalidConfig(
                "at most 65535 user classes".into(),
            ));
        }
        Ok(())
    }

    /// Sample a user-class index from the categorical weight mixture.
    pub fn sample_user_class<R: Rng + ?Sized>(&self, rng: &mut R) -> u16 {
        let total: f64 = self.users.iter().map(|c| c.weight).sum();
        let mut u = rng.gen::<f64>() * total;
        for (i, c) in self.users.iter().enumerate() {
            u -= c.weight;
            if u < 0.0 {
                return i as u16;
            }
        }
        (self.users.len() - 1) as u16
    }

    /// The link class a given link belongs to: a weighted hash of
    /// `(seed, link_id)`, stable under any shard layout.
    pub fn link_class_of(&self, seed: u64, link_id: u64) -> &LinkClass {
        let total: f64 = self.links.iter().map(|l| l.weight).sum();
        let h = mix64(seed ^ mix64(link_id ^ 0x71CC_BA5E_D00D_FEED));
        let mut u = (h >> 11) as f64 / (1u64 << 53) as f64 * total;
        for l in &self.links {
            u -= l.weight;
            if u < 0.0 {
                return l;
            }
        }
        self.links.last().expect("validated non-empty")
    }

    /// The link's capacity weight relative to a reference capacity:
    /// `link_class_of(seed, link_id).capacity_kbps / reference_kbps`.
    /// This is how a load-aware dispatcher learns the registry's
    /// heterogeneity — a fiber link with 4.8× the reference capacity
    /// should absorb 4.8× the placements of a weight-1 cell link.
    /// Stable under any shard layout, like [`Self::link_class_of`].
    pub fn capacity_weight_of(&self, seed: u64, link_id: u64, reference_kbps: f64) -> f64 {
        self.link_class_of(seed, link_id).capacity_kbps / reference_kbps
    }

    /// A single-class registry: every user draws from `mixture` with no
    /// caps and neutral patience, every link has `capacity_kbps`. The
    /// degenerate registry that reproduces the pre-workload fleet
    /// behaviour (used by the flash-crowd experiment).
    pub fn single(
        mixture: ProductionMixture,
        mean_sessions_per_day: f64,
        capacity_kbps: f64,
    ) -> Self {
        Self {
            users: vec![UserClass {
                name: "all".into(),
                weight: 1.0,
                mixture,
                device_cap_kbps: f64::INFINITY,
                access_cap_kbps: f64::INFINITY,
                patience: 1.0,
                mean_sessions_per_day,
            }],
            links: vec![LinkClass {
                name: "link".into(),
                weight: 1.0,
                capacity_kbps,
            }],
        }
    }

    /// A production-flavoured heterogeneous registry: mobile users on
    /// bursty cellular mixtures with tight device/access caps and low
    /// patience, desktops on WiFi-heavy mixtures, living-room TVs on
    /// broadband with high patience; cell links next to fiber links.
    pub fn default_heterogeneous() -> Self {
        Self {
            users: vec![
                UserClass {
                    name: "mobile".into(),
                    weight: 0.55,
                    mixture: ProductionMixture {
                        p_constrained: 0.25,
                        p_cellular: 0.45,
                        p_wifi: 0.25,
                    },
                    device_cap_kbps: 8_000.0,
                    access_cap_kbps: 12_000.0,
                    patience: 0.7,
                    mean_sessions_per_day: 3.0,
                },
                UserClass {
                    name: "desktop".into(),
                    weight: 0.30,
                    mixture: ProductionMixture::default(),
                    device_cap_kbps: 25_000.0,
                    access_cap_kbps: 40_000.0,
                    patience: 1.0,
                    mean_sessions_per_day: 2.0,
                },
                UserClass {
                    name: "tv".into(),
                    weight: 0.15,
                    mixture: ProductionMixture {
                        p_constrained: 0.02,
                        p_cellular: 0.08,
                        p_wifi: 0.35,
                    },
                    device_cap_kbps: f64::INFINITY,
                    access_cap_kbps: f64::INFINITY,
                    patience: 1.5,
                    mean_sessions_per_day: 1.5,
                },
            ],
            links: vec![
                LinkClass {
                    name: "cell".into(),
                    weight: 0.6,
                    capacity_kbps: 25_000.0,
                },
                LinkClass {
                    name: "fiber".into(),
                    weight: 0.4,
                    capacity_kbps: 120_000.0,
                },
            ],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn default_registry_validates_and_samples_by_weight() {
        let reg = ClassRegistry::default_heterogeneous();
        reg.validate().unwrap();
        let mut rng = StdRng::seed_from_u64(1);
        let n = 20_000;
        let mut counts = vec![0usize; reg.users.len()];
        for _ in 0..n {
            counts[reg.sample_user_class(&mut rng) as usize] += 1;
        }
        let total: f64 = reg.users.iter().map(|c| c.weight).sum();
        for (i, c) in reg.users.iter().enumerate() {
            let frac = counts[i] as f64 / n as f64;
            assert!(
                (frac - c.weight / total).abs() < 0.02,
                "{}: {frac} vs {}",
                c.name,
                c.weight / total
            );
        }
    }

    #[test]
    fn sampled_users_honor_class_knobs() {
        let reg = ClassRegistry::default_heterogeneous();
        let mobile = &reg.users[0];
        for id in 0..500u64 {
            let u = mobile.sample_user(42, id);
            assert_eq!(u.id, id);
            assert!(u.net.mean_kbps <= mobile.device_cap_kbps + 1e-9);
            assert!(u.sessions_per_day >= 1.0);
            // Deterministic in (seed, id).
            assert_eq!(u, mobile.sample_user(42, id));
        }
        // Patience shifts the tolerance distribution.
        let patient = UserClass {
            patience: 4.0,
            ..mobile.clone()
        };
        let mean_tol = |c: &UserClass| {
            (0..300u64)
                .map(|i| c.sample_user(7, i).stall.tolerance)
                .sum::<f64>()
                / 300.0
        };
        assert!(mean_tol(&patient) > 2.0 * mean_tol(mobile));
    }

    #[test]
    fn link_classes_hash_stably_by_weight() {
        let reg = ClassRegistry::default_heterogeneous();
        let n = 10_000u64;
        let mut cell = 0usize;
        for link in 0..n {
            let class = reg.link_class_of(9, link);
            assert_eq!(class.name, reg.link_class_of(9, link).name, "stable");
            if class.name == "cell" {
                cell += 1;
            }
        }
        let frac = cell as f64 / n as f64;
        assert!((frac - 0.6).abs() < 0.03, "cell fraction {frac}");
    }

    #[test]
    fn capacity_weights_mirror_link_classes() {
        let reg = ClassRegistry::default_heterogeneous();
        for link in 0..200u64 {
            let w = reg.capacity_weight_of(9, link, 25_000.0);
            let expected = reg.link_class_of(9, link).capacity_kbps / 25_000.0;
            assert_eq!(w, expected);
            // The default registry: cell links at the reference weight,
            // fiber links at 120/25 = 4.8x.
            assert!(w == 1.0 || w == 4.8, "unexpected weight {w}");
        }
    }

    #[test]
    fn invalid_registries_rejected() {
        let mut reg = ClassRegistry::default_heterogeneous();
        reg.users.clear();
        assert!(reg.validate().is_err());

        let mut zero_w = ClassRegistry::default_heterogeneous();
        for c in &mut zero_w.users {
            c.weight = 0.0;
        }
        assert!(zero_w.validate().is_err());

        let mut bad_patience = ClassRegistry::default_heterogeneous();
        bad_patience.users[0].patience = 0.0;
        assert!(bad_patience.validate().is_err());

        let mut bad_link = ClassRegistry::default_heterogeneous();
        bad_link.links[0].capacity_kbps = -5.0;
        assert!(bad_link.validate().is_err());

        assert!(
            ClassRegistry::single(ProductionMixture::default(), 2.0, 30_000.0)
                .validate()
                .is_ok()
        );
    }
}
