//! Network layers: dense, 1-D convolution, ReLU.
//!
//! Each layer caches its forward input so `backward` can compute parameter
//! gradients. Layers live in-process only: nothing serializes them.

use rand::Rng;

use crate::init::{he_uniform, xavier_uniform};
use crate::{Matrix, NnError, Result};

/// A fully-connected layer `y = x W + b` with `x: (batch, in)`,
/// `W: (in, out)`.
#[derive(Debug, Clone)]
pub struct Dense {
    w: Matrix,
    b: Vec<f64>,
    grad_w: Option<Matrix>,
    grad_b: Vec<f64>,
    cache_x: Option<Matrix>,
}

impl Dense {
    /// New dense layer with He-uniform weights (suitable before ReLU).
    pub fn new<R: Rng + ?Sized>(in_dim: usize, out_dim: usize, rng: &mut R) -> Result<Self> {
        if in_dim == 0 || out_dim == 0 {
            return Err(NnError::InvalidConfig("dense dims must be positive".into()));
        }
        Ok(Self {
            w: he_uniform(in_dim, out_dim, in_dim, rng),
            b: vec![0.0; out_dim],
            grad_w: None,
            grad_b: vec![],
            cache_x: None,
        })
    }

    /// New dense layer with Xavier weights (suitable for linear outputs).
    pub fn new_xavier<R: Rng + ?Sized>(in_dim: usize, out_dim: usize, rng: &mut R) -> Result<Self> {
        if in_dim == 0 || out_dim == 0 {
            return Err(NnError::InvalidConfig("dense dims must be positive".into()));
        }
        Ok(Self {
            w: xavier_uniform(in_dim, out_dim, in_dim, out_dim, rng),
            b: vec![0.0; out_dim],
            grad_w: None,
            grad_b: vec![],
            cache_x: None,
        })
    }

    /// Input dimension.
    pub fn in_dim(&self) -> usize {
        self.w.rows()
    }

    /// Output dimension.
    pub fn out_dim(&self) -> usize {
        self.w.cols()
    }

    fn forward(&mut self, x: &Matrix) -> Result<Matrix> {
        let mut y = x.matmul(&self.w)?;
        y.add_row_broadcast(&self.b)?;
        self.cache_x = Some(x.clone());
        Ok(y)
    }

    fn backward(&mut self, grad_out: &Matrix) -> Result<Matrix> {
        let x = self
            .cache_x
            .as_ref()
            .ok_or_else(|| NnError::InvalidConfig("backward called before forward".into()))?;
        let gw = x.transpose().matmul(grad_out)?;
        match &mut self.grad_w {
            Some(existing) => existing.add_assign(&gw)?,
            None => self.grad_w = Some(gw),
        }
        if self.grad_b.is_empty() {
            self.grad_b = vec![0.0; self.b.len()];
        }
        for (g, s) in self.grad_b.iter_mut().zip(grad_out.col_sums()) {
            *g += s;
        }
        grad_out.matmul(&self.w.transpose())
    }
}

/// A valid (no padding, stride 1) 1-D convolution.
///
/// Input layout: the feature axis is `in_channels * length` with channel-major
/// blocks (`x[ic*len + t]`). Output layout: `out_channels * out_len` with
/// `out_len = length - kernel + 1`. For the paper's predictor the per-row
/// convs are `Conv1d(in=1, len=8, out=64, kernel=4)` giving `64×5` features.
#[derive(Debug, Clone)]
pub struct Conv1d {
    in_ch: usize,
    len: usize,
    out_ch: usize,
    kernel: usize,
    /// `(out_ch, in_ch*kernel)` filter bank.
    w: Matrix,
    b: Vec<f64>,
    grad_w: Option<Matrix>,
    grad_b: Vec<f64>,
    cache_x: Option<Matrix>,
}

impl Conv1d {
    /// Create a convolution layer; `kernel` must not exceed `len`.
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
        let fan_in = in_ch * kernel;
        Ok(Self {
            in_ch,
            len,
            out_ch,
            kernel,
            w: he_uniform(out_ch, fan_in, fan_in, rng),
            b: vec![0.0; out_ch],
            grad_w: None,
            grad_b: vec![],
            cache_x: None,
        })
    }

    /// Output sequence length (`len - kernel + 1`).
    pub fn out_len(&self) -> usize {
        self.len - self.kernel + 1
    }

    /// Total input feature width expected (`in_ch * len`).
    pub fn in_features(&self) -> usize {
        self.in_ch * self.len
    }

    /// Total output feature width produced (`out_ch * out_len`).
    pub fn out_features(&self) -> usize {
        self.out_ch * self.out_len()
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
        for bi in 0..x.rows() {
            let xr = x.row(bi);
            for oc in 0..self.out_ch {
                let wrow = self.w.row(oc);
                for p in 0..out_len {
                    let mut acc = self.b[oc];
                    for ic in 0..self.in_ch {
                        let xoff = ic * self.len + p;
                        let woff = ic * self.kernel;
                        for k in 0..self.kernel {
                            acc += wrow[woff + k] * xr[xoff + k];
                        }
                    }
                    y.set(bi, oc * out_len + p, acc);
                }
            }
        }
        self.cache_x = Some(x.clone());
        Ok(y)
    }

    fn backward(&mut self, grad_out: &Matrix) -> Result<Matrix> {
        let x = self
            .cache_x
            .as_ref()
            .ok_or_else(|| NnError::InvalidConfig("backward called before forward".into()))?;
        if grad_out.cols() != self.out_features() || grad_out.rows() != x.rows() {
            return Err(NnError::ShapeMismatch {
                expected: format!("{}x{}", x.rows(), self.out_features()),
                got: format!("{}x{}", grad_out.rows(), grad_out.cols()),
            });
        }
        let out_len = self.out_len();
        if self.grad_w.is_none() {
            self.grad_w = Some(Matrix::zeros(self.out_ch, self.in_ch * self.kernel));
        }
        if self.grad_b.is_empty() {
            self.grad_b = vec![0.0; self.out_ch];
        }
        let mut gw = self.grad_w.take().unwrap();
        let mut gx = Matrix::zeros(x.rows(), self.in_features());
        for bi in 0..x.rows() {
            let xr = x.row(bi);
            let gr = grad_out.row(bi);
            for oc in 0..self.out_ch {
                let wrow_base = oc * (self.in_ch * self.kernel);
                for p in 0..out_len {
                    let g = gr[oc * out_len + p];
                    if g == 0.0 {
                        continue;
                    }
                    self.grad_b[oc] += g;
                    for ic in 0..self.in_ch {
                        let xoff = ic * self.len + p;
                        let woff = ic * self.kernel;
                        for k in 0..self.kernel {
                            // dW
                            gw.as_mut_slice()[wrow_base + woff + k] += g * xr[xoff + k];
                            // dX
                            let widx = self.w.row(oc)[woff + k];
                            let gxs = gx.as_mut_slice();
                            gxs[bi * self.in_ch * self.len + xoff + k] += g * widx;
                        }
                    }
                }
            }
        }
        self.grad_w = Some(gw);
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
    /// 1-D convolution.
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

    /// Visit `(param, grad)` slice pairs in a stable order. Layers with no
    /// accumulated gradient are skipped.
    pub fn visit_params<F: FnMut(&mut [f64], &mut [f64])>(&mut self, f: &mut F) {
        match self {
            Layer::Dense(l) => {
                if let Some(gw) = &mut l.grad_w {
                    f(l.w.as_mut_slice(), gw.as_mut_slice());
                }
                if !l.grad_b.is_empty() {
                    f(&mut l.b, &mut l.grad_b);
                }
            }
            Layer::Conv1d(l) => {
                if let Some(gw) = &mut l.grad_w {
                    f(l.w.as_mut_slice(), gw.as_mut_slice());
                }
                if !l.grad_b.is_empty() {
                    f(&mut l.b, &mut l.grad_b);
                }
            }
            Layer::Relu(_) => {}
        }
    }

    /// Reset accumulated gradients to zero.
    pub fn zero_grad(&mut self) {
        match self {
            Layer::Dense(l) => {
                if let Some(g) = &mut l.grad_w {
                    g.scale(0.0);
                }
                for g in &mut l.grad_b {
                    *g = 0.0;
                }
            }
            Layer::Conv1d(l) => {
                if let Some(g) = &mut l.grad_w {
                    g.scale(0.0);
                }
                for g in &mut l.grad_b {
                    *g = 0.0;
                }
            }
            Layer::Relu(_) => {}
        }
    }

    /// Number of trainable scalars.
    pub fn param_count(&self) -> usize {
        match self {
            Layer::Dense(l) => l.w.rows() * l.w.cols() + l.b.len(),
            Layer::Conv1d(l) => l.w.rows() * l.w.cols() + l.b.len(),
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

    #[test]
    fn dense_gradient_check() {
        // Numerical gradient check of dW on a tiny layer with L = sum(y).
        let mut r = rng();
        let mut d = Dense::new(2, 2, &mut r).unwrap();
        let x = Matrix::from_vec(1, 2, vec![0.3, -0.7]).unwrap();
        let _ = d.forward(&x).unwrap();
        let ones = Matrix::from_vec(1, 2, vec![1.0, 1.0]).unwrap();
        let gx = d.backward(&ones).unwrap();
        let gw = d.grad_w.clone().unwrap();
        let eps = 1e-6;
        for i in 0..2 {
            for j in 0..2 {
                let mut dp = d.clone();
                let idx = i * 2 + j;
                dp.w.as_mut_slice()[idx] += eps;
                let yp: f64 = dp.forward(&x).unwrap().as_slice().iter().sum();
                let mut dm = d.clone();
                dm.w.as_mut_slice()[idx] -= eps;
                let ym: f64 = dm.forward(&x).unwrap().as_slice().iter().sum();
                let num = (yp - ym) / (2.0 * eps);
                assert!(
                    (num - gw.get(i, j)).abs() < 1e-5,
                    "dW[{i}{j}]: numeric {num} vs analytic {}",
                    gw.get(i, j)
                );
            }
        }
        // dX check.
        for j in 0..2 {
            let mut xp = x.clone();
            xp.as_mut_slice()[j] += eps;
            let mut dd = d.clone();
            let yp: f64 = dd.forward(&xp).unwrap().as_slice().iter().sum();
            let mut xm = x.clone();
            xm.as_mut_slice()[j] -= eps;
            let ym: f64 = dd.forward(&xm).unwrap().as_slice().iter().sum();
            let num = (yp - ym) / (2.0 * eps);
            assert!((num - gx.get(0, j)).abs() < 1e-5);
        }
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
        let mut r = rng();
        let mut c = Conv1d::new(2, 5, 3, 3, &mut r).unwrap();
        let x =
            Matrix::from_vec(1, 10, (0..10).map(|i| (i as f64 * 0.37).sin()).collect()).unwrap();
        let y = c.forward(&x).unwrap();
        let ones = Matrix::from_vec(1, y.cols(), vec![1.0; y.cols()]).unwrap();
        let gx = c.backward(&ones).unwrap();
        let gw = c.grad_w.clone().unwrap();
        let eps = 1e-6;
        // Check a scattering of weight gradients.
        for idx in [0usize, 3, 7, 11, 17] {
            let mut cp = c.clone();
            cp.w.as_mut_slice()[idx] += eps;
            let yp: f64 = cp.forward(&x).unwrap().as_slice().iter().sum();
            let mut cm = c.clone();
            cm.w.as_mut_slice()[idx] -= eps;
            let ym: f64 = cm.forward(&x).unwrap().as_slice().iter().sum();
            let num = (yp - ym) / (2.0 * eps);
            assert!(
                (num - gw.as_slice()[idx]).abs() < 1e-5,
                "dW[{idx}]: {num} vs {}",
                gw.as_slice()[idx]
            );
        }
        // Check input gradients.
        for j in 0..10 {
            let mut xp = x.clone();
            xp.as_mut_slice()[j] += eps;
            let mut cc = c.clone();
            let yp: f64 = cc.forward(&xp).unwrap().as_slice().iter().sum();
            let mut xm = x.clone();
            xm.as_mut_slice()[j] -= eps;
            let ym: f64 = cc.forward(&xm).unwrap().as_slice().iter().sum();
            let num = (yp - ym) / (2.0 * eps);
            assert!((num - gx.as_slice()[j]).abs() < 1e-5);
        }
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
