//! Sequential network container.
//!
//! Supports plain chains (Dense/ReLU stacks) and the paper's *multi-branch*
//! front end: Fig. 7 runs each of the five state rows through its own 1-D
//! convolution, then merges (concatenates) the branch outputs before the
//! fully-connected head. [`Sequential`] models the chain; [`Branched`]
//! (with [`concat_features`]/[`split_features`]) handles the branch +
//! merge pattern.

use crate::layer::Layer;
use crate::optim::Adam;
use crate::{Matrix, NnError, Result};

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

    /// Total trainable parameters.
    pub fn param_count(&self) -> usize {
        self.layers.iter().map(|l| l.param_count()).sum()
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
        for layer in &mut self.layers {
            layer.zero_grad();
        }
    }

    /// Apply one Adam step over every parameter tensor, then tick.
    pub fn step(&mut self, opt: &mut Adam) {
        let mut slot = 0;
        for layer in &mut self.layers {
            layer.visit_params(&mut |p, g| {
                opt.step_param(slot, p, g);
                slot += 1;
            });
        }
        opt.tick();
    }

    /// Inference without mutating optimizer state (still caches activations;
    /// call on a clone when sharing across threads).
    pub fn predict(&mut self, x: &Matrix) -> Result<Matrix> {
        self.forward(x)
    }
}

/// Concatenate per-branch outputs along the feature axis.
pub fn concat_features(parts: &[Matrix]) -> Result<Matrix> {
    if parts.is_empty() {
        return Err(NnError::InvalidConfig("no branches to merge".into()));
    }
    let rows = parts[0].rows();
    if parts.iter().any(|p| p.rows() != rows) {
        return Err(NnError::ShapeMismatch {
            expected: format!("{rows} rows in every branch"),
            got: "mismatched branch batch sizes".into(),
        });
    }
    let total: usize = parts.iter().map(|p| p.cols()).sum();
    let mut out = Matrix::zeros(rows, total);
    for r in 0..rows {
        let mut off = 0;
        for p in parts {
            let src = p.row(r);
            let dst = &mut out.as_mut_slice()[r * total + off..r * total + off + src.len()];
            dst.copy_from_slice(src);
            off += src.len();
        }
    }
    Ok(out)
}

/// Split a feature-axis gradient back into per-branch gradients with the
/// given widths (inverse of [`concat_features`]).
pub fn split_features(grad: &Matrix, widths: &[usize]) -> Result<Vec<Matrix>> {
    let total: usize = widths.iter().sum();
    if grad.cols() != total {
        return Err(NnError::ShapeMismatch {
            expected: format!("{total} feature columns"),
            got: format!("{}", grad.cols()),
        });
    }
    let rows = grad.rows();
    let mut out = Vec::with_capacity(widths.len());
    let mut off = 0;
    for &w in widths {
        let mut part = Matrix::zeros(rows, w);
        for r in 0..rows {
            let src = &grad.row(r)[off..off + w];
            part.as_mut_slice()[r * w..(r + 1) * w].copy_from_slice(src);
        }
        off += w;
        out.push(part);
    }
    Ok(out)
}

/// A branch + merge network: `branches[i]` consumes input slice `i`; their
/// outputs are concatenated and fed to `head`. This is the exact topology of
/// the paper's exit-rate predictor (five conv branches → merge → FC stack).
#[derive(Debug, Clone)]
pub struct Branched {
    /// Per-input-slice subnetworks.
    pub branches: Vec<Sequential>,
    /// Shared head after the merge.
    pub head: Sequential,
    branch_widths: Vec<usize>,
}

impl Branched {
    /// Build from branches and a head.
    pub fn new(branches: Vec<Sequential>, head: Sequential) -> Self {
        Self {
            branches,
            head,
            branch_widths: Vec::new(),
        }
    }

    /// Forward with one input matrix per branch.
    pub fn forward(&mut self, inputs: &[Matrix]) -> Result<Matrix> {
        if inputs.len() != self.branches.len() {
            return Err(NnError::ShapeMismatch {
                expected: format!("{} branch inputs", self.branches.len()),
                got: format!("{}", inputs.len()),
            });
        }
        let mut outs = Vec::with_capacity(inputs.len());
        for (b, x) in self.branches.iter_mut().zip(inputs) {
            outs.push(b.forward(x)?);
        }
        self.branch_widths = outs.iter().map(|o| o.cols()).collect();
        let merged = concat_features(&outs)?;
        self.head.forward(&merged)
    }

    /// Backward through head and all branches.
    pub fn backward(&mut self, grad_out: &Matrix) -> Result<()> {
        let g_merged = self.head.backward(grad_out)?;
        let parts = split_features(&g_merged, &self.branch_widths)?;
        for (b, g) in self.branches.iter_mut().zip(&parts) {
            b.backward(g)?;
        }
        Ok(())
    }

    /// Zero all gradients.
    pub fn zero_grad(&mut self) {
        for b in &mut self.branches {
            b.zero_grad();
        }
        self.head.zero_grad();
    }

    /// One Adam step over branches then head.
    pub fn step(&mut self, opt: &mut Adam) {
        let mut slot = 0;
        for b in &mut self.branches {
            for layer in &mut b.layers {
                layer.visit_params(&mut |p, g| {
                    opt.step_param(slot, p, g);
                    slot += 1;
                });
            }
        }
        for layer in &mut self.head.layers {
            layer.visit_params(&mut |p, g| {
                opt.step_param(slot, p, g);
                slot += 1;
            });
        }
        opt.tick();
    }

    /// Total trainable parameters.
    pub fn param_count(&self) -> usize {
        self.branches.iter().map(|b| b.param_count()).sum::<usize>() + self.head.param_count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layer::{Dense, Relu};
    use crate::loss::softmax_cross_entropy;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

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
        let mut opt = Adam::new(0.01);
        let mut last_loss = f64::INFINITY;
        for _ in 0..800 {
            net.zero_grad();
            let logits = net.forward(&x).unwrap();
            let (loss, grad) = softmax_cross_entropy(&logits, &labels).unwrap();
            net.backward(&grad).unwrap();
            net.step(&mut opt);
            last_loss = loss;
        }
        assert!(last_loss < 0.05, "XOR loss {last_loss}");
        // Check predictions.
        let probs = crate::loss::softmax(&net.forward(&x).unwrap());
        for (r, &l) in labels.iter().enumerate() {
            assert!(probs.get(r, l) > 0.5, "row {r}");
        }
    }

    #[test]
    fn concat_and_split_roundtrip() {
        let a = Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]).unwrap();
        let b = Matrix::from_vec(2, 3, vec![5.0, 6.0, 7.0, 8.0, 9.0, 10.0]).unwrap();
        let m = concat_features(&[a.clone(), b.clone()]).unwrap();
        assert_eq!(m.cols(), 5);
        assert_eq!(m.row(0), &[1.0, 2.0, 5.0, 6.0, 7.0]);
        let parts = split_features(&m, &[2, 3]).unwrap();
        assert_eq!(parts[0], a);
        assert_eq!(parts[1], b);
    }

    #[test]
    fn concat_rejects_mismatched_rows() {
        let a = Matrix::zeros(2, 2);
        let b = Matrix::zeros(3, 2);
        assert!(concat_features(&[a, b]).is_err());
        assert!(concat_features(&[]).is_err());
    }

    #[test]
    fn split_rejects_wrong_widths() {
        let m = Matrix::zeros(1, 5);
        assert!(split_features(&m, &[2, 2]).is_err());
    }

    #[test]
    fn branched_trains_on_separable_task() {
        // Two branches, each seeing one scalar; class = (x0 + x1 > 0).
        let mut rng = StdRng::seed_from_u64(13);
        let b0 = Sequential::new()
            .push(Layer::Dense(Dense::new(1, 4, &mut rng).unwrap()))
            .push(Layer::Relu(Relu::new()));
        let b1 = Sequential::new()
            .push(Layer::Dense(Dense::new(1, 4, &mut rng).unwrap()))
            .push(Layer::Relu(Relu::new()));
        let head = Sequential::new().push(Layer::Dense(Dense::new_xavier(8, 2, &mut rng).unwrap()));
        let mut net = Branched::new(vec![b0, b1], head);
        assert!(net.param_count() > 0);

        let xs0: Vec<f64> = vec![-1.0, -0.5, 0.5, 1.0, -0.8, 0.9];
        let xs1: Vec<f64> = vec![-0.5, 1.0, 0.3, -0.2, -0.4, 0.8];
        let labels: Vec<usize> = xs0
            .iter()
            .zip(&xs1)
            .map(|(a, b)| usize::from(a + b > 0.0))
            .collect();
        let in0 = Matrix::from_vec(6, 1, xs0).unwrap();
        let in1 = Matrix::from_vec(6, 1, xs1).unwrap();
        let mut opt = Adam::new(0.02);
        let mut last = f64::INFINITY;
        for _ in 0..400 {
            net.zero_grad();
            let logits = net.forward(&[in0.clone(), in1.clone()]).unwrap();
            let (loss, grad) = softmax_cross_entropy(&logits, &labels).unwrap();
            net.backward(&grad).unwrap();
            net.step(&mut opt);
            last = loss;
        }
        assert!(last < 0.1, "branched loss {last}");
    }
}
