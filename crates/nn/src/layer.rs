//! Network layers: dense, per-row 1-D convolution, ReLU.
//!
//! Each layer caches its forward input so `backward` can compute parameter
//! gradients. A trained layer holds a gradient beside each of its tensors
//! from construction, and [`Layer::params`] lists the (tensor, gradient)
//! pairs once; zeroing, stepping and counting all walk that list. Layers
//! live in-process only: nothing serializes them.

use rand::Rng;

use crate::init::{he_uniform, xavier_uniform};
use crate::{Matrix, NnError, Result};

/// A fully-connected layer `y = x W + b` with `x: (batch, in)`,
/// `W: (in, out)`.
#[derive(Debug, Clone)]
pub struct Dense {
    w: Matrix,
    b: Vec<f64>,
    grad_w: Matrix,
    grad_b: Vec<f64>,
    cache_x: Option<Matrix>,
}

impl Dense {
    /// New dense layer with He-uniform weights (suitable before ReLU).
    pub fn new<R: Rng + ?Sized>(in_dim: usize, out_dim: usize, rng: &mut R) -> Result<Self> {
        check_dims(in_dim, out_dim)?;
        Ok(Self::with_weights(he_uniform(in_dim, out_dim, in_dim, rng)))
    }

    /// New dense layer with Xavier weights (suitable for linear outputs).
    pub fn new_xavier<R: Rng + ?Sized>(in_dim: usize, out_dim: usize, rng: &mut R) -> Result<Self> {
        check_dims(in_dim, out_dim)?;
        Ok(Self::with_weights(xavier_uniform(
            in_dim, out_dim, in_dim, out_dim, rng,
        )))
    }

    fn with_weights(w: Matrix) -> Self {
        Self {
            grad_w: Matrix::zeros(w.rows(), w.cols()),
            b: vec![0.0; w.cols()],
            grad_b: vec![0.0; w.cols()],
            w,
            cache_x: None,
        }
    }

    fn forward(&mut self, x: &Matrix) -> Result<Matrix> {
        let mut y = x.matmul(&self.w)?;
        y.add_row_broadcast(&self.b)?;
        self.cache_x = Some(x.clone());
        Ok(y)
    }

    fn backward(&mut self, grad_out: &Matrix) -> Result<Matrix> {
        let x = cached(&self.cache_x)?;
        self.grad_w.add_assign(&x.transpose().matmul(grad_out)?)?;
        for (g, s) in self.grad_b.iter_mut().zip(grad_out.col_sums()) {
            *g += s;
        }
        grad_out.matmul(&self.w.transpose())
    }
}

fn check_dims(in_dim: usize, out_dim: usize) -> Result<()> {
    if in_dim == 0 || out_dim == 0 {
        return Err(NnError::InvalidConfig("dense dims must be positive".into()));
    }
    Ok(())
}

fn cached(cache_x: &Option<Matrix>) -> Result<&Matrix> {
    cache_x
        .as_ref()
        .ok_or_else(|| NnError::InvalidConfig("backward called before forward".into()))
}

/// A per-row valid (no padding, stride 1) 1-D convolution.
///
/// The input's feature axis holds `in_ch` rows of `len` values, row after
/// row (`x[r*len + t]`). Each row runs through its own bank of `out_ch`
/// filters of `kernel` taps: rows share no weights and are never summed.
/// The output is laid out by row, then filter, then position
/// (`y[(r*out_ch + f)*out_len + p]`, `out_len = len - kernel + 1`), so a
/// row's block is exactly what a one-row convolution of that row gives.
/// The paper's predictor is `Conv1d(in=5, len=8, out=64, kernel=4)`: five
/// state rows × 64 filters × 5 positions.
#[derive(Debug, Clone)]
pub struct Conv1d {
    in_ch: usize,
    len: usize,
    out_ch: usize,
    kernel: usize,
    /// `(in_ch*out_ch, kernel)`: filter `f` of row `r` is row `r*out_ch + f`.
    w: Matrix,
    b: Vec<f64>,
    grad_w: Matrix,
    grad_b: Vec<f64>,
    cache_x: Option<Matrix>,
}

impl Conv1d {
    /// Create a per-row convolution; `kernel` must not exceed `len`. The
    /// filters are drawn row by row, each bank with `fan_in = kernel`.
    pub fn new<R: Rng + ?Sized>(
        in_ch: usize,
        len: usize,
        out_ch: usize,
        kernel: usize,
        rng: &mut R,
    ) -> Result<Self> {
        if in_ch == 0 || len == 0 || out_ch == 0 || kernel == 0 {
            return Err(NnError::InvalidConfig("conv dims must be positive".into()));
        }
        if kernel > len {
            return Err(NnError::InvalidConfig(format!(
                "kernel {kernel} exceeds input length {len}"
            )));
        }
        let filters = in_ch * out_ch;
        Ok(Self {
            in_ch,
            len,
            out_ch,
            kernel,
            w: he_uniform(filters, kernel, kernel, rng),
            b: vec![0.0; filters],
            grad_w: Matrix::zeros(filters, kernel),
            grad_b: vec![0.0; filters],
            cache_x: None,
        })
    }

    /// Output sequence length (`len - kernel + 1`).
    pub fn out_len(&self) -> usize {
        self.len - self.kernel + 1
    }

    /// Total input feature width expected (`in_ch * len`).
    fn in_features(&self) -> usize {
        self.in_ch * self.len
    }

    /// Total output feature width produced (`in_ch * out_ch * out_len`).
    pub fn out_features(&self) -> usize {
        self.b.len() * self.out_len()
    }

    fn forward(&mut self, x: &Matrix) -> Result<Matrix> {
        if x.cols() != self.in_features() {
            return Err(NnError::ShapeMismatch {
                expected: format!("{} input features", self.in_features()),
                got: format!("{}", x.cols()),
            });
        }
        let out_len = self.out_len();
        let mut y = Matrix::zeros(x.rows(), self.out_features());
        // `f` runs over every row's filters in weight order; its row is
        // `f / out_ch`, and its output block starts at `f * out_len`.
        for bi in 0..x.rows() {
            let xr = x.row(bi);
            for (f, (filter, &bias)) in self
                .w
                .as_slice()
                .chunks_exact(self.kernel)
                .zip(&self.b)
                .enumerate()
            {
                let row = &xr[f / self.out_ch * self.len..];
                for p in 0..out_len {
                    let acc = filter
                        .iter()
                        .zip(&row[p..])
                        .fold(bias, |acc, (w, x)| acc + w * x);
                    y.set(bi, f * out_len + p, acc);
                }
            }
        }
        self.cache_x = Some(x.clone());
        Ok(y)
    }

    fn backward(&mut self, grad_out: &Matrix) -> Result<Matrix> {
        let x = cached(&self.cache_x)?;
        if grad_out.cols() != self.out_features() || grad_out.rows() != x.rows() {
            return Err(NnError::ShapeMismatch {
                expected: format!("{}x{}", x.rows(), self.out_features()),
                got: format!("{}x{}", grad_out.rows(), grad_out.cols()),
            });
        }
        let (kernel, out_len, in_features) = (self.kernel, self.out_len(), self.in_features());
        let w = self.w.as_slice();
        let grad_w = self.grad_w.as_mut_slice();
        let mut gx = Matrix::zeros(x.rows(), in_features);
        for (bi, gxr) in gx.as_mut_slice().chunks_exact_mut(in_features).enumerate() {
            let xr = x.row(bi);
            let gr = grad_out.row(bi);
            for (f, gb) in self.grad_b.iter_mut().enumerate() {
                let off = f / self.out_ch * self.len;
                for p in 0..out_len {
                    let g = gr[f * out_len + p];
                    if g == 0.0 {
                        continue;
                    }
                    *gb += g;
                    for k in 0..kernel {
                        grad_w[f * kernel + k] += g * xr[off + p + k];
                        gxr[off + p + k] += g * w[f * kernel + k];
                    }
                }
            }
        }
        Ok(gx)
    }
}

/// Element-wise rectified linear unit.
#[derive(Debug, Clone, Default)]
pub struct Relu {
    cache_mask: Vec<bool>,
}

impl Relu {
    /// New ReLU.
    pub fn new() -> Self {
        Self::default()
    }

    fn forward(&mut self, x: &Matrix) -> Matrix {
        self.cache_mask = x.as_slice().iter().map(|&v| v > 0.0).collect();
        let mut y = x.clone();
        y.map_inplace(|v| if v > 0.0 { v } else { 0.0 });
        y
    }

    fn backward(&mut self, grad_out: &Matrix) -> Result<Matrix> {
        if self.cache_mask.len() != grad_out.as_slice().len() {
            return Err(NnError::ShapeMismatch {
                expected: format!("{} cached activations", self.cache_mask.len()),
                got: format!("{}", grad_out.as_slice().len()),
            });
        }
        let mut g = grad_out.clone();
        for (v, &m) in g.as_mut_slice().iter_mut().zip(&self.cache_mask) {
            if !m {
                *v = 0.0;
            }
        }
        Ok(g)
    }
}

/// Closed set of layer kinds: a layer call is a `match`, not a virtual call.
#[derive(Debug, Clone)]
pub enum Layer {
    /// Fully connected.
    Dense(Dense),
    /// Per-row 1-D convolution.
    Conv1d(Conv1d),
    /// ReLU activation.
    Relu(Relu),
}

impl Layer {
    /// Forward pass; caches whatever `backward` will need.
    pub fn forward(&mut self, x: &Matrix) -> Result<Matrix> {
        match self {
            Layer::Dense(l) => l.forward(x),
            Layer::Conv1d(l) => l.forward(x),
            Layer::Relu(l) => Ok(l.forward(x)),
        }
    }

    /// Backward pass: accumulate parameter gradients, return input gradient.
    pub fn backward(&mut self, grad_out: &Matrix) -> Result<Matrix> {
        match self {
            Layer::Dense(l) => l.backward(grad_out),
            Layer::Conv1d(l) => l.backward(grad_out),
            Layer::Relu(l) => l.backward(grad_out),
        }
    }

    /// The layer's trainable tensors, each beside the gradient accumulated
    /// for it since it was last zeroed: the weights, then the bias. ReLU
    /// has none.
    pub fn params(&mut self) -> impl Iterator<Item = (&mut [f64], &mut [f64])> {
        let pairs = match self {
            Layer::Dense(Dense {
                w,
                b,
                grad_w,
                grad_b,
                ..
            })
            | Layer::Conv1d(Conv1d {
                w,
                b,
                grad_w,
                grad_b,
                ..
            }) => Some([
                (w.as_mut_slice(), grad_w.as_mut_slice()),
                (b.as_mut_slice(), grad_b.as_mut_slice()),
            ]),
            Layer::Relu(_) => None,
        };
        pairs.into_iter().flatten()
    }

    /// Number of trainable scalars.
    pub fn param_count(&self) -> usize {
        match self {
            Layer::Dense(Dense { w, b, .. }) | Layer::Conv1d(Conv1d { w, b, .. }) => {
                w.as_slice().len() + b.len()
            }
            Layer::Relu(_) => 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(42)
    }

    #[test]
    fn dense_forward_shape_and_bias() {
        let mut r = rng();
        let mut d = Dense::new(3, 2, &mut r).unwrap();
        d.b = vec![1.0, -1.0];
        let x = Matrix::from_vec(2, 3, vec![0.0; 6]).unwrap();
        let y = d.forward(&x).unwrap();
        assert_eq!(y.rows(), 2);
        assert_eq!(y.cols(), 2);
        assert_eq!(y.row(0), &[1.0, -1.0]);
    }

    /// `sum(y)` of `layer` on `x`, with tensor `t`'s element `i` nudged by
    /// `eps`, for a central-difference check of the listed gradients.
    fn nudged_sum(layer: &Layer, x: &Matrix, t: usize, i: usize, eps: f64) -> f64 {
        let mut l = layer.clone();
        l.params().nth(t).unwrap().0[i] += eps;
        l.forward(x).unwrap().as_slice().iter().sum()
    }

    /// Check every listed gradient of `layer` (weights, then bias) and the
    /// input gradient against central differences of `L = sum(y)`.
    fn gradient_check(mut layer: Layer, x: &Matrix) {
        let y = layer.forward(x).unwrap();
        let ones = Matrix::from_vec(y.rows(), y.cols(), vec![1.0; y.as_slice().len()]).unwrap();
        let gx = layer.backward(&ones).unwrap();
        let grads: Vec<Vec<f64>> = layer.params().map(|(_, g)| g.to_vec()).collect();
        assert_eq!(grads.len(), 2);
        let eps = 1e-6;
        for (t, grad) in grads.iter().enumerate() {
            for (i, &g) in grad.iter().enumerate() {
                let num = (nudged_sum(&layer, x, t, i, eps) - nudged_sum(&layer, x, t, i, -eps))
                    / (2.0 * eps);
                assert!((num - g).abs() < 1e-5, "tensor {t}[{i}]: {num} vs {g}");
            }
        }
        for j in 0..x.cols() {
            let sum_at = |d: f64| -> f64 {
                let mut xd = x.clone();
                xd.as_mut_slice()[j] += d;
                layer.clone().forward(&xd).unwrap().as_slice().iter().sum()
            };
            let num = (sum_at(eps) - sum_at(-eps)) / (2.0 * eps);
            assert!((num - gx.get(0, j)).abs() < 1e-5, "dX[{j}]");
        }
    }

    #[test]
    fn dense_gradient_check() {
        let mut r = rng();
        let d = Layer::Dense(Dense::new(2, 2, &mut r).unwrap());
        gradient_check(d, &Matrix::from_vec(1, 2, vec![0.3, -0.7]).unwrap());
    }

    #[test]
    fn conv_shapes_match_paper_config() {
        let mut r = rng();
        // The predictor's per-row conv: 1 channel, length 8, 64 filters, k=4.
        let c = Conv1d::new(1, 8, 64, 4, &mut r).unwrap();
        assert_eq!(c.out_len(), 5);
        assert_eq!(c.in_features(), 8);
        assert_eq!(c.out_features(), 320);
    }

    #[test]
    fn conv_known_value() {
        let mut r = rng();
        let mut c = Conv1d::new(1, 4, 1, 2, &mut r).unwrap();
        // Set filter to [1, -1], bias 0.5.
        c.w.as_mut_slice().copy_from_slice(&[1.0, -1.0]);
        c.b[0] = 0.5;
        let x = Matrix::from_vec(1, 4, vec![3.0, 1.0, 4.0, 1.0]).unwrap();
        let y = c.forward(&x).unwrap();
        // positions: 3-1+0.5=2.5, 1-4+0.5=-2.5, 4-1+0.5=3.5
        assert_eq!(y.as_slice(), &[2.5, -2.5, 3.5]);
    }

    #[test]
    fn conv_gradient_check() {
        // Two rows, each through its own three filters.
        let mut r = rng();
        let c = Layer::Conv1d(Conv1d::new(2, 5, 3, 3, &mut r).unwrap());
        let x =
            Matrix::from_vec(1, 10, (0..10).map(|i| (i as f64 * 0.37).sin()).collect()).unwrap();
        gradient_check(c, &x);
    }

    #[test]
    fn conv_rejects_bad_config() {
        let mut r = rng();
        assert!(Conv1d::new(1, 3, 4, 5, &mut r).is_err());
        assert!(Conv1d::new(0, 3, 4, 2, &mut r).is_err());
    }

    #[test]
    fn relu_masks_negatives() {
        let mut relu = Relu::new();
        let x = Matrix::from_vec(1, 4, vec![-1.0, 0.0, 2.0, -3.0]).unwrap();
        let y = relu.forward(&x);
        assert_eq!(y.as_slice(), &[0.0, 0.0, 2.0, 0.0]);
        let g = Matrix::from_vec(1, 4, vec![1.0; 4]).unwrap();
        let gx = relu.backward(&g).unwrap();
        assert_eq!(gx.as_slice(), &[0.0, 0.0, 1.0, 0.0]);
    }

    #[test]
    fn layer_param_counts() {
        let mut r = rng();
        let d = Layer::Dense(Dense::new(3, 4, &mut r).unwrap());
        assert_eq!(d.param_count(), 16);
        let c = Layer::Conv1d(Conv1d::new(1, 8, 64, 4, &mut r).unwrap());
        assert_eq!(c.param_count(), 64 * 4 + 64);
        assert_eq!(Layer::Relu(Relu::new()).param_count(), 0);
    }

    #[test]
    fn backward_before_forward_errors() {
        let mut r = rng();
        let mut d = Layer::Dense(Dense::new(2, 2, &mut r).unwrap());
        let g = Matrix::zeros(1, 2);
        assert!(d.backward(&g).is_err());
    }
}
