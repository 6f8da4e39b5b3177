//! Pensieve — a learned ABR policy (Mao et al., SIGCOMM'17), reimplemented
//! with this repo's tiny NN library and trained in-simulator with REINFORCE.
//!
//! §5.2 of the LingXi paper augments Pensieve so that it can be *retuned at
//! inference*: "The Pensieve implementation is augmented to incorporate
//! stall and switching parameters as state variables in its neural
//! architecture, with the reward function dynamically adjusted according to
//! `QoE_lin` parameters during the training phase." We do exactly that: the
//! policy state vector ends with `(stall_weight, switch_weight)` and each
//! training episode samples a random parameter pair, so the learned policy
//! conditions its behaviour on the objective LingXi hands it.

use lingxi_media::{BitrateLadder, SegmentSizes, VbrModel};
use lingxi_nn::{softmax, Dense, Layer, Matrix, Relu, Sequential};
use lingxi_player::{PlayerConfig, PlayerEnv};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::abr::{Abr, AbrContext};
use crate::params::QoeParams;
use crate::qoe::QoeLin;
use crate::{AbrError, Result};

/// Pensieve hyper-parameters.
#[derive(Debug, Clone, Copy)]
pub struct PensieveConfig {
    /// Number of ladder levels the policy outputs over.
    pub n_levels: usize,
    /// Throughput-history window in the state (paper uses 8).
    pub history: usize,
    /// Hidden layer widths.
    pub hidden: (usize, usize),
    /// REINFORCE learning rate.
    pub lr: f64,
    /// Reward discount factor.
    pub gamma: f64,
}

impl Default for PensieveConfig {
    fn default() -> Self {
        Self {
            n_levels: 4,
            history: 8,
            hidden: (64, 32),
            lr: 3e-3,
            gamma: 0.95,
        }
    }
}

/// Normalisation constants for the state vector.
const TPUT_SCALE: f64 = 10_000.0; // kbps
const BUFFER_SCALE: f64 = 10.0; // seconds
const SIZE_SCALE: f64 = 10_000.0; // kbits

/// Build the policy state vector.
///
/// Layout: `[last_level_norm, buffer_norm, tput_hist(history),
/// next_sizes(n_levels), remaining_norm, stall_w_norm, switch_w_norm]`.
fn state_vector(
    env: &PlayerEnv,
    ctx: &AbrContext<'_>,
    params: &QoeParams,
    config: &PensieveConfig,
) -> Vec<f64> {
    let mut s = Vec::with_capacity(state_dim(config));
    let top = ctx.ladder.top_level() as f64;
    s.push(env.last_level().map_or(0.0, |l| l as f64 / top.max(1.0)));
    s.push((env.buffer() / BUFFER_SCALE).min(2.0));
    let hist = env.throughput_history();
    for i in 0..config.history {
        let v = if i < hist.len() {
            hist[hist.len() - 1 - i]
        } else {
            0.0
        };
        s.push((v / TPUT_SCALE).min(5.0));
    }
    let k = ctx
        .next_segment
        .min(ctx.sizes.n_segments().saturating_sub(1));
    for level in 0..config.n_levels {
        let size = ctx
            .sizes
            .size_kbits(k, level.min(ctx.ladder.top_level()))
            .unwrap_or(0.0);
        s.push((size / SIZE_SCALE).min(5.0));
    }
    let remaining = ctx.sizes.n_segments().saturating_sub(ctx.next_segment);
    s.push((remaining as f64 / 60.0).min(2.0));
    // Parameters as state (§5.2): normalised into [0,1].
    let su = params.to_unit();
    s.push(su[0]);
    s.push(su[1]);
    s
}

/// State dimensionality for a config.
fn state_dim(config: &PensieveConfig) -> usize {
    2 + config.history + config.n_levels + 1 + 2
}

/// The Pensieve policy.
#[derive(Debug, Clone)]
pub struct Pensieve {
    config: PensieveConfig,
    net: Sequential,
    params: QoeParams,
}

impl Pensieve {
    /// Fresh, untrained policy.
    pub fn new<R: Rng + ?Sized>(config: PensieveConfig, rng: &mut R) -> Result<Self> {
        if config.n_levels == 0 || config.history == 0 {
            return Err(AbrError::InvalidConfig(
                "n_levels and history must be positive".into(),
            ));
        }
        let dim = state_dim(&config);
        let net = Sequential::new()
            .push(Layer::Dense(
                Dense::new(dim, config.hidden.0, rng)
                    .map_err(|e| AbrError::InvalidConfig(e.to_string()))?,
            ))
            .push(Layer::Relu(Relu::new()))
            .push(Layer::Dense(
                Dense::new(config.hidden.0, config.hidden.1, rng)
                    .map_err(|e| AbrError::InvalidConfig(e.to_string()))?,
            ))
            .push(Layer::Relu(Relu::new()))
            .push(Layer::Dense(
                Dense::new_xavier(config.hidden.1, config.n_levels, rng)
                    .map_err(|e| AbrError::InvalidConfig(e.to_string()))?,
            ));
        Ok(Self {
            config,
            net,
            params: QoeParams::default(),
        })
    }

    /// Action probabilities for the current state.
    pub fn action_probs(&mut self, env: &PlayerEnv, ctx: &AbrContext<'_>) -> Vec<f64> {
        let s = state_vector(env, ctx, &self.params, &self.config);
        let x = Matrix::row_vector(&s);
        let logits = self.net.forward(&x).expect("net shapes fixed at build");
        softmax(&logits).row(0).to_vec()
    }

    /// Configuration.
    pub fn config(&self) -> &PensieveConfig {
        &self.config
    }
}

impl Abr for Pensieve {
    fn select(&mut self, env: &PlayerEnv, ctx: &AbrContext<'_>) -> usize {
        let probs = self.action_probs(env, ctx);
        probs
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
            .map(|(i, _)| i)
            .unwrap_or(0)
            .min(ctx.ladder.top_level())
    }

    fn set_params(&mut self, params: QoeParams) {
        self.params = params;
    }

    fn params(&self) -> QoeParams {
        self.params
    }

    fn reset(&mut self) {}

    fn fork(&self) -> Box<dyn Abr> {
        Box::new(self.clone())
    }

    fn name(&self) -> &'static str {
        "pensieve"
    }
}

/// Per-training-run statistics.
#[derive(Debug, Clone)]
pub struct TrainStats {
    /// Mean episode reward per epoch.
    pub epoch_rewards: Vec<f64>,
}

/// REINFORCE trainer running episodes in the simulator.
pub struct PensieveTrainer {
    /// Player config used for training episodes.
    pub player: PlayerConfig,
    /// Episodes per epoch.
    pub episodes_per_epoch: usize,
    /// Number of epochs.
    pub epochs: usize,
    /// Segments per training episode.
    pub episode_segments: usize,
    /// Randomise `QoeParams` each episode (params-as-state training).
    pub randomize_params: bool,
    /// Entropy-bonus weight (Mao et al. §4 keep an entropy term in the
    /// policy gradient to sustain exploration; without it the softmax
    /// collapses to a deterministic — often poor — policy early).
    pub entropy_beta: f64,
}

impl Default for PensieveTrainer {
    fn default() -> Self {
        Self {
            player: PlayerConfig::deterministic(10.0, 0.0),
            episodes_per_epoch: 16,
            epochs: 12,
            episode_segments: 30,
            randomize_params: true,
            entropy_beta: 0.02,
        }
    }
}

/// One sampled training/evaluation world: a bandwidth regime, objective
/// parameters, and segment sizes, plus a seed for the per-step draws.
struct Episode {
    mean_bw: f64,
    cv: f64,
    params: QoeParams,
    sizes: SegmentSizes,
    step_seed: u64,
}

impl PensieveTrainer {
    /// Train `policy` in place against synthetic bandwidth draws on
    /// `ladder`. Each episode: sample a mean bandwidth regime, roll out the
    /// stochastic policy, collect `QoE_lin` rewards, apply REINFORCE (with
    /// a mean baseline, advantage clipping, and an entropy bonus) averaged
    /// over the epoch's episodes.
    ///
    /// The returned per-epoch rewards are **not** the noisy training
    /// returns: after every epoch the greedy policy is evaluated on a
    /// fixed suite of episodes drawn once up front, so the reward curve
    /// tracks policy quality and is comparable across epochs.
    pub fn train<R: Rng + ?Sized>(
        &self,
        policy: &mut Pensieve,
        ladder: &BitrateLadder,
        rng: &mut R,
    ) -> Result<TrainStats> {
        let mut opt = lingxi_nn::Adam::new(policy.config.lr, policy.net.param_count());
        let mut epoch_rewards = Vec::with_capacity(self.epochs);
        let eval_suite: Vec<Episode> = (0..self.episodes_per_epoch.max(1))
            .map(|_| self.sample_episode(ladder, rng))
            .collect::<Result<_>>()?;
        for _ in 0..self.epochs {
            // One optimizer step per epoch, averaging episode gradients:
            // batch policy gradient. Per-episode steps let one noisy
            // episode (e.g. a hopeless low-bandwidth regime where every
            // action stalls) drag the policy sideways.
            policy.net.zero_grad();
            for _ in 0..self.episodes_per_epoch {
                let ep = self.sample_episode(ladder, rng)?;
                self.accumulate_episode_gradient(policy, ladder, &ep, rng)?;
            }
            policy.net.step(&mut opt);
            let rewards = eval_suite
                .iter()
                .map(|ep| self.greedy_reward(policy, ladder, ep))
                .collect::<Result<Vec<f64>>>()?;
            epoch_rewards.push(rewards.iter().sum::<f64>() / rewards.len() as f64);
        }
        Ok(TrainStats { epoch_rewards })
    }

    /// Draw one episode: log-uniform mean bandwidth, uniform CV, random
    /// objective parameters (when `randomize_params`), CBR segment sizes.
    fn sample_episode<R: Rng + ?Sized>(
        &self,
        ladder: &BitrateLadder,
        rng: &mut R,
    ) -> Result<Episode> {
        let mean_bw = (500.0f64.ln() + rng.gen::<f64>() * (20_000.0f64.ln() - 500.0f64.ln())).exp();
        let cv = 0.2 + rng.gen::<f64>() * 0.4;
        let params = if self.randomize_params {
            QoeParams::from_unit([rng.gen(), rng.gen(), rng.gen()])
        } else {
            QoeParams::default()
        };
        let sizes =
            SegmentSizes::generate(ladder, self.episode_segments, 2.0, &VbrModel::cbr(), rng)
                .map_err(|e| AbrError::InvalidConfig(e.to_string()))?;
        Ok(Episode {
            mean_bw,
            cv,
            params,
            sizes,
            step_seed: rng.gen(),
        })
    }

    /// Roll out the stochastic policy on `ep` and accumulate the REINFORCE
    /// gradient (returns with mean baseline, clipped normalized advantage,
    /// entropy bonus) into the network, scaled for a per-epoch step.
    fn accumulate_episode_gradient<R: Rng + ?Sized>(
        &self,
        policy: &mut Pensieve,
        ladder: &BitrateLadder,
        ep: &Episode,
        rng: &mut R,
    ) -> Result<()> {
        let cfg = policy.config;
        policy.set_params(ep.params);
        let qoe = QoeLin::from_params(&ep.params);
        let mut env =
            PlayerEnv::new(self.player).map_err(|e| AbrError::InvalidConfig(e.to_string()))?;
        let mut step_rng = StdRng::seed_from_u64(ep.step_seed);

        let mut states: Vec<Vec<f64>> = Vec::new();
        let mut actions: Vec<usize> = Vec::new();
        let mut rewards: Vec<f64> = Vec::new();
        for k in 0..self.episode_segments {
            let ctx = AbrContext {
                ladder,
                sizes: &ep.sizes,
                next_segment: k,
                segment_duration: 2.0,
            };
            let s = state_vector(&env, &ctx, &ep.params, &cfg);
            let x = Matrix::row_vector(&s);
            let logits = policy
                .net
                .forward(&x)
                .map_err(|e| AbrError::InvalidConfig(e.to_string()))?;
            let probs = softmax(&logits);
            // Sample an action by inverse CDF from the caller's stream.
            let u: f64 = rng.gen();
            let mut cum = 0.0;
            let mut action = cfg.n_levels - 1;
            for (i, &p) in probs.row(0).iter().enumerate() {
                cum += p;
                if u < cum {
                    action = i;
                    break;
                }
            }
            let r = Self::step_env(
                &mut env,
                ep,
                ladder,
                &qoe,
                k,
                action.min(ladder.top_level()),
                &mut step_rng,
            )?;
            states.push(s);
            actions.push(action);
            rewards.push(r);
        }

        // Discounted returns with mean baseline.
        let mut returns = vec![0.0; rewards.len()];
        let mut acc = 0.0;
        for i in (0..rewards.len()).rev() {
            acc = rewards[i] + cfg.gamma * acc;
            returns[i] = acc;
        }
        let baseline = returns.iter().sum::<f64>() / returns.len() as f64;
        let std = (returns
            .iter()
            .map(|r| (r - baseline) * (r - baseline))
            .sum::<f64>()
            / returns.len() as f64)
            .sqrt()
            .max(1e-6);

        // Policy-gradient contribution: grad logits = (probs − onehot) · A,
        // minus the entropy-bonus gradient β·∂H/∂z with
        // ∂H/∂z_c = −p_c (ln p_c + H).
        let batch =
            Matrix::from_rows(&states).map_err(|e| AbrError::InvalidConfig(e.to_string()))?;
        let logits = policy
            .net
            .forward(&batch)
            .map_err(|e| AbrError::InvalidConfig(e.to_string()))?;
        let probs = softmax(&logits);
        let mut grad = probs.clone();
        let n = states.len() as f64 * self.episodes_per_epoch as f64;
        let beta = self.entropy_beta;
        for (r, (&a, &ret)) in actions.iter().zip(&returns).enumerate() {
            // Clip the normalized advantage: stall penalties are
            // heavy-tailed and a single catastrophic segment otherwise
            // dominates the whole episode's update.
            let adv = ((ret - baseline) / std).clamp(-3.0, 3.0);
            let entropy: f64 = (0..cfg.n_levels)
                .map(|c| {
                    let p = probs.get(r, c);
                    if p > 0.0 {
                        -p * p.ln()
                    } else {
                        0.0
                    }
                })
                .sum();
            for c in 0..cfg.n_levels {
                let p = probs.get(r, c);
                let onehot = if c == a { 1.0 } else { 0.0 };
                // dH/dz_c; the loss term is −β·H, so subtract.
                let dh_dz = -p * (p.max(1e-300).ln() + entropy);
                grad.set(r, c, ((p - onehot) * adv - beta * dh_dz) / n);
            }
        }
        policy
            .net
            .backward(&grad)
            .map_err(|e| AbrError::InvalidConfig(e.to_string()))?;
        Ok(())
    }

    /// Total reward of the argmax policy on `ep`. Deterministic for a
    /// given policy: the per-step draws replay from the episode's seed.
    fn greedy_reward(
        &self,
        policy: &mut Pensieve,
        ladder: &BitrateLadder,
        ep: &Episode,
    ) -> Result<f64> {
        policy.set_params(ep.params);
        let qoe = QoeLin::from_params(&ep.params);
        let mut env =
            PlayerEnv::new(self.player).map_err(|e| AbrError::InvalidConfig(e.to_string()))?;
        let mut step_rng = StdRng::seed_from_u64(ep.step_seed);
        let mut total = 0.0;
        for k in 0..self.episode_segments {
            let ctx = AbrContext {
                ladder,
                sizes: &ep.sizes,
                next_segment: k,
                segment_duration: 2.0,
            };
            // The inference-time path, so training-time evaluation can
            // never diverge from deployed behaviour.
            let level = policy.select(&env, &ctx);
            total += Self::step_env(&mut env, ep, ladder, &qoe, k, level, &mut step_rng)?;
        }
        Ok(total)
    }

    /// Advance the player one segment at `level`, returning its QoE score.
    fn step_env(
        env: &mut PlayerEnv,
        ep: &Episode,
        ladder: &BitrateLadder,
        qoe: &QoeLin,
        k: usize,
        level: usize,
        step_rng: &mut StdRng,
    ) -> Result<f64> {
        let prev = env.last_level();
        let size = ep
            .sizes
            .size_kbits(k, level)
            .map_err(|e| AbrError::InvalidConfig(e.to_string()))?;
        // Per-step bandwidth draw around the episode regime.
        let bw = (ep.mean_bw * (1.0 + ep.cv * gauss(step_rng))).max(50.0);
        let outcome = env
            .step(size, level, bw, 2.0, step_rng)
            .map_err(|e| AbrError::InvalidConfig(e.to_string()))?;
        Ok(qoe.segment_score(ladder, level, prev, outcome.stall_time))
    }
}

fn gauss<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    let u1: f64 = rng.gen_range(f64::EPSILON..1.0);
    let u2: f64 = rng.gen::<f64>();
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn fixture() -> (BitrateLadder, SegmentSizes) {
        let ladder = BitrateLadder::default_short_video();
        let mut rng = StdRng::seed_from_u64(1);
        let sizes = SegmentSizes::generate(&ladder, 30, 2.0, &VbrModel::cbr(), &mut rng).unwrap();
        (ladder, sizes)
    }

    #[test]
    fn probs_are_distribution() {
        let (ladder, sizes) = fixture();
        let mut rng = StdRng::seed_from_u64(2);
        let mut p = Pensieve::new(PensieveConfig::default(), &mut rng).unwrap();
        let env = PlayerEnv::new(PlayerConfig::deterministic(10.0, 0.0)).unwrap();
        let ctx = AbrContext {
            ladder: &ladder,
            sizes: &sizes,
            next_segment: 0,
            segment_duration: 2.0,
        };
        let probs = p.action_probs(&env, &ctx);
        assert_eq!(probs.len(), 4);
        assert!((probs.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        assert!(probs.iter().all(|&x| x >= 0.0));
    }

    #[test]
    fn select_returns_valid_level() {
        let (ladder, sizes) = fixture();
        let mut rng = StdRng::seed_from_u64(3);
        let mut p = Pensieve::new(PensieveConfig::default(), &mut rng).unwrap();
        let env = PlayerEnv::new(PlayerConfig::deterministic(10.0, 0.0)).unwrap();
        let ctx = AbrContext {
            ladder: &ladder,
            sizes: &sizes,
            next_segment: 0,
            segment_duration: 2.0,
        };
        assert!(p.select(&env, &ctx) <= 3);
    }

    #[test]
    fn params_change_the_state() {
        let (ladder, sizes) = fixture();
        let mut rng = StdRng::seed_from_u64(4);
        let p = Pensieve::new(PensieveConfig::default(), &mut rng).unwrap();
        let env = PlayerEnv::new(PlayerConfig::deterministic(10.0, 0.0)).unwrap();
        let ctx = AbrContext {
            ladder: &ladder,
            sizes: &sizes,
            next_segment: 0,
            segment_duration: 2.0,
        };
        let cfg = *p.config();
        let s1 = state_vector(&env, &ctx, &QoeParams::default(), &cfg);
        let s2 = state_vector(&env, &ctx, &QoeParams::stall_averse(), &cfg);
        assert_eq!(s1.len(), state_dim(&cfg));
        assert_ne!(s1, s2, "params must be visible in the state");
        // Only the two parameter slots differ.
        let diff = s1
            .iter()
            .zip(&s2)
            .filter(|(a, b)| (*a - *b).abs() > 1e-12)
            .count();
        assert!(diff <= 2);
    }

    #[test]
    fn training_improves_reward() {
        let ladder = BitrateLadder::default_short_video();
        let mut rng = StdRng::seed_from_u64(5);
        let mut p = Pensieve::new(
            PensieveConfig {
                hidden: (32, 16),
                ..PensieveConfig::default()
            },
            &mut rng,
        )
        .unwrap();
        let trainer = PensieveTrainer {
            episodes_per_epoch: 8,
            epochs: 10,
            episode_segments: 20,
            ..PensieveTrainer::default()
        };
        let stats = trainer.train(&mut p, &ladder, &mut rng).unwrap();
        assert_eq!(stats.epoch_rewards.len(), 10);
        // Later epochs should not be dramatically worse than the first;
        // typically they improve. Use a loose check to stay robust.
        let first = stats.epoch_rewards[..3].iter().sum::<f64>() / 3.0;
        let last = stats.epoch_rewards[stats.epoch_rewards.len() - 3..]
            .iter()
            .sum::<f64>()
            / 3.0;
        assert!(
            last > first - 5.0,
            "reward collapsed: first {first}, last {last}"
        );
    }

    #[test]
    fn invalid_config_rejected() {
        let mut rng = StdRng::seed_from_u64(7);
        assert!(Pensieve::new(
            PensieveConfig {
                n_levels: 0,
                ..PensieveConfig::default()
            },
            &mut rng
        )
        .is_err());
    }
}
