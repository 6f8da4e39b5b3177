//! The Fig. 7 neural exit predictor: five per-row 1-D conv branches →
//! merge → FC-64 → FC-2 → softmax.

use lingxi_nn::seq::Branched;
use lingxi_nn::{
    softmax, softmax_cross_entropy, Adam, Conv1d, Dense, Layer, Matrix, Relu, Sequential,
};
use lingxi_stats::BinaryConfusion;
use rand::seq::SliceRandom;
use rand::Rng;

use crate::dataset::ExitDataset;
use crate::features::{StateMatrix, MATRIX_LEN, N_DIMS};
use crate::{ExitError, Result};

/// Predictor hyper-parameters.
#[derive(Debug, Clone, Copy)]
pub struct PredictorConfig {
    /// Conv channels per branch (paper: 64).
    pub channels: usize,
    /// Conv kernel (paper: 4 → "1x4,64").
    pub kernel: usize,
    /// FC width after the merge (paper: 64).
    pub fc: usize,
    /// Training epochs.
    pub epochs: usize,
    /// Mini-batch size.
    pub batch: usize,
    /// Adam learning rate.
    pub lr: f64,
    /// Decision threshold on the exit probability.
    pub threshold: f64,
}

impl Default for PredictorConfig {
    fn default() -> Self {
        Self {
            channels: 64,
            kernel: 4,
            fc: 64,
            epochs: 20,
            batch: 64,
            lr: 1e-3,
            threshold: 0.5,
        }
    }
}

/// A smaller configuration for fast tests/benches.
impl PredictorConfig {
    /// Reduced size for unit tests (still the same topology).
    pub fn small() -> Self {
        Self {
            channels: 8,
            fc: 16,
            epochs: 16,
            ..Self::default()
        }
    }
}

/// Accuracy / precision / recall / F1 on a held-out set.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EvalReport {
    /// Confusion-derived metrics.
    pub accuracy: f64,
    /// Precision on the exit class.
    pub precision: f64,
    /// Recall on the exit class.
    pub recall: f64,
    /// F1 on the exit class.
    pub f1: f64,
    /// Test-set size.
    pub n: usize,
}

/// The neural exit predictor.
#[derive(Debug, Clone)]
pub struct ExitPredictor {
    config: PredictorConfig,
    net: Branched,
}

impl ExitPredictor {
    /// Fresh predictor with Fig. 7 topology.
    pub fn new<R: Rng + ?Sized>(config: PredictorConfig, rng: &mut R) -> Result<Self> {
        if config.channels == 0 || config.fc == 0 {
            return Err(ExitError::InvalidConfig("zero-width layers".into()));
        }
        if config.kernel == 0 || config.kernel > MATRIX_LEN {
            return Err(ExitError::InvalidConfig("kernel out of range".into()));
        }
        if !(0.0..=1.0).contains(&config.threshold) {
            return Err(ExitError::InvalidConfig(
                "threshold must be in [0,1]".into(),
            ));
        }
        let mk = |rng: &mut R| -> Result<Sequential> {
            Ok(Sequential::new()
                .push(Layer::Conv1d(
                    Conv1d::new(1, MATRIX_LEN, config.channels, config.kernel, rng)
                        .map_err(|e| ExitError::InvalidConfig(e.to_string()))?,
                ))
                .push(Layer::Relu(Relu::new())))
        };
        let branches: Vec<Sequential> = (0..N_DIMS).map(|_| mk(rng)).collect::<Result<Vec<_>>>()?;
        let out_len = MATRIX_LEN - config.kernel + 1;
        let merged = N_DIMS * config.channels * out_len;
        let head = Sequential::new()
            .push(Layer::Dense(
                Dense::new(merged, config.fc, rng)
                    .map_err(|e| ExitError::InvalidConfig(e.to_string()))?,
            ))
            .push(Layer::Relu(Relu::new()))
            .push(Layer::Dense(
                Dense::new_xavier(config.fc, 2, rng)
                    .map_err(|e| ExitError::InvalidConfig(e.to_string()))?,
            ));
        Ok(Self {
            config,
            net: Branched::new(branches, head),
        })
    }

    /// Configuration.
    pub fn config(&self) -> &PredictorConfig {
        &self.config
    }

    fn branch_inputs(states: &[&StateMatrix]) -> Vec<Matrix> {
        (0..N_DIMS)
            .map(|d| {
                let rows: Vec<Vec<f64>> = states.iter().map(|s| s.row(d).to_vec()).collect();
                Matrix::from_rows(&rows).expect("uniform row length")
            })
            .collect()
    }

    /// Exit probability for one state.
    pub fn predict(&mut self, state: &StateMatrix) -> f64 {
        let inputs = Self::branch_inputs(&[state]);
        let logits = self.net.forward(&inputs).expect("fixed shapes");
        softmax(&logits).get(0, 1)
    }

    /// Batched exit probabilities.
    pub fn predict_batch(&mut self, states: &[&StateMatrix]) -> Vec<f64> {
        if states.is_empty() {
            return Vec::new();
        }
        let inputs = Self::branch_inputs(states);
        let logits = self.net.forward(&inputs).expect("fixed shapes");
        let probs = softmax(&logits);
        (0..states.len()).map(|r| probs.get(r, 1)).collect()
    }

    /// Hard decision at the configured threshold.
    pub fn predict_exit(&mut self, state: &StateMatrix) -> bool {
        self.predict(state) >= self.config.threshold
    }

    /// Train on the given entry indices of `dataset` (typically the
    /// balanced training split). Returns per-epoch losses.
    pub fn train<R: Rng + ?Sized>(
        &mut self,
        dataset: &ExitDataset,
        indices: &[usize],
        rng: &mut R,
    ) -> Result<Vec<f64>> {
        if indices.is_empty() {
            return Err(ExitError::BadDataset("empty training set".into()));
        }
        let mut opt = Adam::new(self.config.lr);
        let mut order: Vec<usize> = indices.to_vec();
        let mut losses = Vec::with_capacity(self.config.epochs);
        for _ in 0..self.config.epochs {
            order.shuffle(rng);
            let mut total = 0.0;
            let mut batches = 0.0f64;
            for chunk in order.chunks(self.config.batch) {
                let states: Vec<&StateMatrix> =
                    chunk.iter().map(|&i| &dataset.entries()[i].state).collect();
                let labels: Vec<usize> = chunk
                    .iter()
                    .map(|&i| usize::from(dataset.entries()[i].exited))
                    .collect();
                let inputs = Self::branch_inputs(&states);
                self.net.zero_grad();
                let logits = self
                    .net
                    .forward(&inputs)
                    .map_err(|e| ExitError::InvalidConfig(e.to_string()))?;
                let (loss, grad) = softmax_cross_entropy(&logits, &labels)
                    .map_err(|e| ExitError::InvalidConfig(e.to_string()))?;
                self.net
                    .backward(&grad)
                    .map_err(|e| ExitError::InvalidConfig(e.to_string()))?;
                self.net.step(&mut opt);
                total += loss;
                batches += 1.0;
            }
            losses.push(total / batches.max(1.0));
        }
        Ok(losses)
    }

    /// Evaluate on the given indices.
    pub fn evaluate(&mut self, dataset: &ExitDataset, indices: &[usize]) -> EvalReport {
        let mut confusion = BinaryConfusion::new();
        // Evaluate in chunks to bound memory.
        for chunk in indices.chunks(256) {
            let states: Vec<&StateMatrix> =
                chunk.iter().map(|&i| &dataset.entries()[i].state).collect();
            let probs = self.predict_batch(&states);
            for (&i, p) in chunk.iter().zip(probs) {
                confusion.record(p >= self.config.threshold, dataset.entries()[i].exited);
            }
        }
        let m = confusion.metrics();
        EvalReport {
            accuracy: m.accuracy,
            precision: m.precision,
            recall: m.recall,
            f1: m.f1,
            n: indices.len(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::{DatasetFlavor, ExitEntry};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Synthetic learnable dataset: exit iff the stall row (row 2) carries
    /// substantial recent stall.
    fn learnable_dataset(n: usize, seed: u64) -> ExitDataset {
        let mut rng = StdRng::seed_from_u64(seed);
        let entries: Vec<ExitEntry> = (0..n)
            .map(|_| {
                let mut s = StateMatrix::zeros();
                let stalled = rng.gen::<f64>() < 0.5;
                let big = rng.gen::<f64>() < 0.5;
                if stalled {
                    let magnitude = if big { 0.8 } else { 0.1 };
                    for t in 5..8 {
                        s.rows[2][t] = magnitude + rng.gen::<f64>() * 0.05;
                    }
                }
                for t in 0..8 {
                    s.rows[0][t] = 0.3 + rng.gen::<f64>() * 0.1;
                    s.rows[1][t] = 0.5 + rng.gen::<f64>() * 0.1;
                }
                ExitEntry {
                    state: s,
                    stalled,
                    switched: false,
                    exited: stalled && big,
                }
            })
            .collect();
        ExitDataset::new(&entries, DatasetFlavor::All).unwrap()
    }

    #[test]
    fn predictor_learns_stall_signal() {
        let ds = learnable_dataset(800, 1);
        let mut rng = StdRng::seed_from_u64(2);
        let (train, test) = ds.split(&mut rng).unwrap();
        let balanced = ds.balance(&train, &mut rng).unwrap();
        let mut p = ExitPredictor::new(PredictorConfig::small(), &mut rng).unwrap();
        let losses = p.train(&ds, &balanced, &mut rng).unwrap();
        assert!(losses.last().unwrap() < &0.4, "loss {:?}", losses.last());
        let report = p.evaluate(&ds, &test);
        assert!(report.accuracy > 0.85, "accuracy {}", report.accuracy);
        assert!(report.recall > 0.8, "recall {}", report.recall);
        assert!(report.f1 > 0.7, "f1 {}", report.f1);
    }

    #[test]
    fn predict_outputs_probability() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut p = ExitPredictor::new(PredictorConfig::small(), &mut rng).unwrap();
        let s = StateMatrix::zeros();
        let prob = p.predict(&s);
        assert!((0.0..=1.0).contains(&prob));
        let batch = p.predict_batch(&[&s, &s, &s]);
        assert_eq!(batch.len(), 3);
        assert!((batch[0] - prob).abs() < 1e-12);
        assert!(p.predict_batch(&[]).is_empty());
    }

    #[test]
    fn batch_predictions_bit_identical_to_sequential() {
        let mut rng = StdRng::seed_from_u64(8);
        let mut p = ExitPredictor::new(PredictorConfig::small(), &mut rng).unwrap();
        // Fully randomised states so every branch and every feature is live.
        let states: Vec<StateMatrix> = (0..9)
            .map(|_| {
                let mut s = StateMatrix::zeros();
                for d in 0..N_DIMS {
                    for t in 0..MATRIX_LEN {
                        s.rows[d][t] = rng.gen::<f64>();
                    }
                }
                s
            })
            .collect();
        let refs: Vec<&StateMatrix> = states.iter().collect();
        let batched = p.predict_batch(&refs);
        let sequential: Vec<f64> = states.iter().map(|s| p.predict(s)).collect();
        // Exact equality: batching must not move a decision across the
        // exit threshold.
        assert_eq!(batched, sequential);
    }

    #[test]
    fn config_validation() {
        let mut rng = StdRng::seed_from_u64(4);
        assert!(ExitPredictor::new(
            PredictorConfig {
                kernel: 9,
                ..PredictorConfig::default()
            },
            &mut rng
        )
        .is_err());
        assert!(ExitPredictor::new(
            PredictorConfig {
                channels: 0,
                ..PredictorConfig::default()
            },
            &mut rng
        )
        .is_err());
        assert!(ExitPredictor::new(
            PredictorConfig {
                threshold: 1.5,
                ..PredictorConfig::default()
            },
            &mut rng
        )
        .is_err());
    }

    #[test]
    fn training_empty_set_errors() {
        let ds = learnable_dataset(100, 5);
        let mut rng = StdRng::seed_from_u64(6);
        let mut p = ExitPredictor::new(PredictorConfig::small(), &mut rng).unwrap();
        assert!(p.train(&ds, &[], &mut rng).is_err());
    }
}
