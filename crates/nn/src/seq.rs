//! Sequential network container.
//!
//! A network is one chain of layers; there is no branch container. The
//! paper's multi-branch front end (Fig. 7 runs each of the five state rows
//! through its own 1-D convolution, then merges the results before the
//! fully-connected head) is one per-row [`Conv1d`](crate::Conv1d) layer,
//! whose output is already the merged row-by-row layout.

use crate::layer::Layer;
use crate::optim::Adam;
use crate::{Matrix, Result};

/// A chain of layers applied in order.
#[derive(Debug, Clone, Default)]
pub struct Sequential {
    layers: Vec<Layer>,
}

impl Sequential {
    /// Empty network.
    pub fn new() -> Self {
        Self { layers: Vec::new() }
    }

    /// Append a layer, builder style.
    pub fn push(mut self, layer: Layer) -> Self {
        self.layers.push(layer);
        self
    }

    /// Number of layers.
    pub fn len(&self) -> usize {
        self.layers.len()
    }

    /// True when no layers have been added.
    pub fn is_empty(&self) -> bool {
        self.layers.is_empty()
    }

    /// Total trainable parameters: the length of [`Adam`]'s moment buffers
    /// for this network.
    pub fn param_count(&self) -> usize {
        self.layers.iter().map(Layer::param_count).sum()
    }

    /// Every layer's (tensor, gradient) pairs, first layer first.
    fn params(&mut self) -> impl Iterator<Item = (&mut [f64], &mut [f64])> {
        self.layers.iter_mut().flat_map(Layer::params)
    }

    /// Forward pass through all layers (caches activations for backward).
    pub fn forward(&mut self, x: &Matrix) -> Result<Matrix> {
        let mut h = x.clone();
        for layer in &mut self.layers {
            h = layer.forward(&h)?;
        }
        Ok(h)
    }

    /// Backward pass; accumulates gradients in each layer and returns the
    /// gradient with respect to the input.
    pub fn backward(&mut self, grad_out: &Matrix) -> Result<Matrix> {
        let mut g = grad_out.clone();
        for layer in self.layers.iter_mut().rev() {
            g = layer.backward(&g)?;
        }
        Ok(g)
    }

    /// Zero all accumulated gradients.
    pub fn zero_grad(&mut self) {
        for (_, grad) in self.params() {
            grad.fill(0.0);
        }
    }

    /// Apply one Adam step over every parameter tensor.
    pub fn step(&mut self, opt: &mut Adam) {
        opt.step(self.params());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layer::{Conv1d, Dense, Relu};
    use crate::loss::softmax_cross_entropy;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Train `net` on `(x, labels)` with Adam for `iters` full-batch steps;
    /// returns the last loss.
    fn train(net: &mut Sequential, x: &Matrix, labels: &[usize], lr: f64, iters: usize) -> f64 {
        let mut opt = Adam::new(lr, net.param_count());
        let mut last_loss = f64::INFINITY;
        for _ in 0..iters {
            net.zero_grad();
            let logits = net.forward(x).unwrap();
            let (loss, grad) = softmax_cross_entropy(&logits, labels).unwrap();
            net.backward(&grad).unwrap();
            net.step(&mut opt);
            last_loss = loss;
        }
        last_loss
    }

    #[test]
    fn sequential_learns_xor() {
        let mut rng = StdRng::seed_from_u64(7);
        let mut net = Sequential::new()
            .push(Layer::Dense(Dense::new(2, 16, &mut rng).unwrap()))
            .push(Layer::Relu(Relu::new()))
            .push(Layer::Dense(Dense::new_xavier(16, 2, &mut rng).unwrap()));
        let x = Matrix::from_rows(&[
            vec![0.0, 0.0],
            vec![0.0, 1.0],
            vec![1.0, 0.0],
            vec![1.0, 1.0],
        ])
        .unwrap();
        let labels = [0usize, 1, 1, 0];
        let last_loss = train(&mut net, &x, &labels, 0.01, 800);
        assert!(last_loss < 0.05, "XOR loss {last_loss}");
        // Check predictions.
        let probs = crate::loss::softmax(&net.forward(&x).unwrap());
        for (r, &l) in labels.iter().enumerate() {
            assert!(probs.get(r, l) > 0.5, "row {r}");
        }
    }

    #[test]
    fn per_row_conv_trains_on_separable_task() {
        // Two rows, each one scalar through its own four filters;
        // class = (x0 + x1 > 0).
        let mut rng = StdRng::seed_from_u64(13);
        let mut net = Sequential::new()
            .push(Layer::Conv1d(Conv1d::new(2, 1, 4, 1, &mut rng).unwrap()))
            .push(Layer::Relu(Relu::new()))
            .push(Layer::Dense(Dense::new_xavier(8, 2, &mut rng).unwrap()));
        assert_eq!(net.param_count(), 2 * 4 * 2 + 8 * 2 + 2);

        let xs0 = [-1.0, -0.5, 0.5, 1.0, -0.8, 0.9];
        let xs1 = [-0.5, 1.0, 0.3, -0.2, -0.4, 0.8];
        let labels: Vec<usize> = xs0
            .iter()
            .zip(&xs1)
            .map(|(a, b)| usize::from(a + b > 0.0))
            .collect();
        let x = Matrix::from_vec(
            6,
            2,
            xs0.iter().zip(&xs1).flat_map(|(&a, &b)| [a, b]).collect(),
        )
        .unwrap();
        let last = train(&mut net, &x, &labels, 0.02, 400);
        assert!(last < 0.1, "per-row conv loss {last}");
    }

    #[test]
    fn step_without_gradient_keeps_every_parameter() {
        // A fresh network stepped before any backward: every gradient is
        // zero, so no parameter may move, not even by the sign of a zero.
        let mut rng = StdRng::seed_from_u64(21);
        let mut net = Sequential::new()
            .push(Layer::Conv1d(Conv1d::new(2, 4, 3, 2, &mut rng).unwrap()))
            .push(Layer::Relu(Relu::new()))
            .push(Layer::Dense(Dense::new(18, 4, &mut rng).unwrap()))
            .push(Layer::Relu(Relu::new()))
            .push(Layer::Dense(Dense::new_xavier(4, 2, &mut rng).unwrap()));
        let bits = |net: &mut Sequential| -> Vec<u64> {
            net.params()
                .flat_map(|(p, _)| p.iter().map(|v| v.to_bits()).collect::<Vec<_>>())
                .collect()
        };
        let before = bits(&mut net);
        assert_eq!(before.len(), net.param_count());
        let mut opt = Adam::new(0.1, net.param_count());
        for _ in 0..3 {
            net.zero_grad();
            net.step(&mut opt);
        }
        assert_eq!(bits(&mut net), before);
    }
}
