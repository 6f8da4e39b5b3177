//! The Adam optimizer, which both trained models (the exit-rate predictor
//! and Pensieve) step with.
//!
//! It keeps one first- and one second-moment buffer over a network's
//! listed parameters (each layer's [`Layer::params`](crate::Layer::params),
//! first layer first), in list order, which the network's topology fixes.

/// Adam (Kingma & Ba) with bias correction.
#[derive(Debug, Clone)]
pub struct Adam {
    /// Learning rate.
    pub lr: f64,
    /// Exponential decay for the first moment.
    pub beta1: f64,
    /// Exponential decay for the second moment.
    pub beta2: f64,
    /// Numerical-stability epsilon.
    pub eps: f64,
    t: u64,
    m: Vec<f64>,
    v: Vec<f64>,
}

impl Adam {
    /// Adam with standard hyper-parameters (β1=0.9, β2=0.999, ε=1e-8)
    /// over `len` parameters: the `param_count` of the network it steps.
    pub fn new(lr: f64, len: usize) -> Self {
        Self {
            lr,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
            t: 1,
            m: vec![0.0; len],
            v: vec![0.0; len],
        }
    }

    /// One step: consume the accumulated gradient of every listed
    /// `(tensor, gradient)` pair, update the tensors in place, then
    /// advance the step counter.
    ///
    /// # Panics
    /// If the listed tensors do not hold exactly the `len` parameters the
    /// optimizer was built for.
    pub fn step<'a>(&mut self, params: impl Iterator<Item = (&'a mut [f64], &'a mut [f64])>) {
        let (lr, b1, b2, eps) = (self.lr, self.beta1, self.beta2, self.eps);
        let bc1 = 1.0 - b1.powi(self.t as i32);
        let bc2 = 1.0 - b2.powi(self.t as i32);
        let mut moments = self.m.iter_mut().zip(self.v.iter_mut());
        for (params, grads) in params {
            for (p, &g) in params.iter_mut().zip(grads.iter()) {
                let (m, v) = moments.next().expect("more parameters than moments");
                *m = b1 * *m + (1.0 - b1) * g;
                *v = b2 * *v + (1.0 - b2) * g * g;
                let m_hat = *m / bc1;
                let v_hat = *v / bc2;
                *p -= lr * m_hat / (v_hat.sqrt() + eps);
            }
        }
        assert!(moments.next().is_none(), "fewer parameters than moments");
        self.t += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One step over one listed tensor.
    fn step_one(opt: &mut Adam, x: &mut [f64], g: &mut [f64]) {
        opt.step(std::iter::once((x, g)));
    }

    /// Minimise f(x) = (x-3)^2.
    fn run(opt: &mut Adam, iters: usize) -> f64 {
        let mut x = [0.0f64];
        for _ in 0..iters {
            let mut g = [2.0 * (x[0] - 3.0)];
            step_one(opt, &mut x, &mut g);
        }
        x[0]
    }

    #[test]
    fn adam_converges_on_quadratic() {
        let x = run(&mut Adam::new(0.1, 1), 600);
        assert!((x - 3.0).abs() < 1e-3, "x={x}");
    }

    #[test]
    fn adam_first_step_magnitude_is_lr() {
        // With bias correction, |first Adam step| ~= lr regardless of grad size.
        let mut opt = Adam::new(0.01, 1);
        let mut x = [0.0f64];
        step_one(&mut opt, &mut x, &mut [1e6]);
        assert!((x[0].abs() - 0.01).abs() < 1e-6, "step {}", x[0]);
    }

    #[test]
    fn separate_slots_independent() {
        // Two tensors in one list: each element keeps its own moments, so
        // a tensor listed after another steps as it would alone.
        let mut opt = Adam::new(0.1, 3);
        let (mut a, mut b) = ([0.0], [0.0, 0.0]);
        let (mut ga, mut gb) = ([1.0], [1.0, -1.0]);
        for _ in 0..2 {
            opt.step([(&mut a[..], &mut ga[..]), (&mut b[..], &mut gb[..])].into_iter());
        }
        let mut alone = [0.0];
        let mut solo = Adam::new(0.1, 1);
        for _ in 0..2 {
            step_one(&mut solo, &mut alone, &mut [1.0]);
        }
        assert!(a[0] < 0.0);
        assert!(b[0] < 0.0 && b[1] > 0.0);
        assert_eq!(a[0].to_bits(), alone[0].to_bits());
        assert_eq!(b[0].to_bits(), alone[0].to_bits());
        assert_eq!(b[1].to_bits(), (-alone[0]).to_bits());
    }

    #[test]
    #[should_panic(expected = "fewer parameters than moments")]
    fn a_list_shorter_than_the_moments_panics() {
        step_one(&mut Adam::new(0.1, 2), &mut [0.0], &mut [1.0]);
    }
}
