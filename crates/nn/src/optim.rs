//! The Adam optimizer, which both trained models (the exit-rate predictor
//! and Pensieve) step with.
//!
//! Its moment buffers are keyed by visit order of the parameter tensors,
//! which is stable for a fixed network topology.

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
    m: Vec<Vec<f64>>,
    v: Vec<Vec<f64>>,
}

impl Adam {
    /// Adam with standard hyper-parameters (β1=0.9, β2=0.999, ε=1e-8).
    pub fn new(lr: f64) -> Self {
        Self {
            lr,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
            t: 1,
            m: Vec::new(),
            v: Vec::new(),
        }
    }

    fn slots(&mut self, slot: usize, len: usize) -> (&mut Vec<f64>, &mut Vec<f64>) {
        while self.m.len() <= slot {
            self.m.push(Vec::new());
            self.v.push(Vec::new());
        }
        if self.m[slot].len() != len {
            self.m[slot] = vec![0.0; len];
            self.v[slot] = vec![0.0; len];
        }
        // Split borrows.
        let (m, v) = (&mut self.m, &mut self.v);
        (&mut m[slot], &mut v[slot])
    }

    /// Consume the accumulated gradient of one parameter tensor and update
    /// it in place. `slot` identifies the tensor (stable visit index).
    pub fn step_param(&mut self, slot: usize, params: &mut [f64], grads: &[f64]) {
        let (lr, b1, b2, eps, t) = (self.lr, self.beta1, self.beta2, self.eps, self.t);
        let (m, v) = self.slots(slot, params.len());
        let bc1 = 1.0 - b1.powi(t as i32);
        let bc2 = 1.0 - b2.powi(t as i32);
        for i in 0..params.len() {
            m[i] = b1 * m[i] + (1.0 - b1) * grads[i];
            v[i] = b2 * v[i] + (1.0 - b2) * grads[i] * grads[i];
            let m_hat = m[i] / bc1;
            let v_hat = v[i] / bc2;
            params[i] -= lr * m_hat / (v_hat.sqrt() + eps);
        }
    }

    /// Advance the global step counter (call once per mini-batch).
    pub fn tick(&mut self) {
        self.t += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Minimise f(x) = (x-3)^2.
    fn run(opt: &mut Adam, iters: usize) -> f64 {
        let mut x = vec![0.0f64];
        for _ in 0..iters {
            let g = vec![2.0 * (x[0] - 3.0)];
            opt.step_param(0, &mut x, &g);
            opt.tick();
        }
        x[0]
    }

    #[test]
    fn adam_converges_on_quadratic() {
        let x = run(&mut Adam::new(0.1), 600);
        assert!((x - 3.0).abs() < 1e-3, "x={x}");
    }

    #[test]
    fn adam_first_step_magnitude_is_lr() {
        // With bias correction, |first Adam step| ~= lr regardless of grad size.
        let mut opt = Adam::new(0.01);
        let mut x = vec![0.0f64];
        opt.step_param(0, &mut x, &[1e6]);
        assert!((x[0].abs() - 0.01).abs() < 1e-6, "step {}", x[0]);
    }

    #[test]
    fn separate_slots_independent() {
        let mut opt = Adam::new(0.1);
        let mut a = vec![0.0];
        let mut b = vec![0.0, 0.0];
        opt.step_param(0, &mut a, &[1.0]);
        opt.step_param(1, &mut b, &[1.0, -1.0]);
        opt.tick();
        assert!(a[0] < 0.0);
        assert!(b[0] < 0.0 && b[1] > 0.0);
    }
}
