//! The optimiser: Adam, as used by the paper (lr = 0.001).

use serde::{Deserialize, Serialize};

use crate::param::Param;

/// The Adam optimiser (Kingma & Ba, 2015) with the standard defaults used by
/// the paper (`lr = 0.001`, `β₁ = 0.9`, `β₂ = 0.999`).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Adam {
    /// Learning rate.
    pub learning_rate: f32,
    /// Exponential decay of the first moment.
    pub beta1: f32,
    /// Exponential decay of the second moment.
    pub beta2: f32,
    /// Numerical stabiliser.
    pub eps: f32,
    step: u64,
}

impl Adam {
    /// Creates Adam with the given learning rate and default betas.
    pub fn new(learning_rate: f32) -> Self {
        Self { learning_rate, beta1: 0.9, beta2: 0.999, eps: 1e-8, step: 0 }
    }

    /// The Adam configuration used by the paper (learning rate 0.001).
    pub fn paper() -> Self {
        Self::new(1e-3)
    }

    /// Number of update steps performed so far.
    pub fn steps(&self) -> u64 {
        self.step
    }

    /// Applies one update step to every parameter using its accumulated
    /// gradient, then leaves the gradients untouched (call `zero_grad` on the
    /// model before the next backward pass).
    pub fn step(&mut self, params: &mut [&mut Param]) {
        self.step += 1;
        let t = self.step as f32;
        let bias1 = 1.0 - self.beta1.powf(t);
        let bias2 = 1.0 - self.beta2.powf(t);
        for param in params.iter_mut() {
            for i in 0..param.value.len() {
                let g = param.grad.data()[i];
                let m = self.beta1 * param.m.data()[i] + (1.0 - self.beta1) * g;
                let v = self.beta2 * param.v.data()[i] + (1.0 - self.beta2) * g * g;
                param.m.data_mut()[i] = m;
                param.v.data_mut()[i] = v;
                let m_hat = m / bias1;
                let v_hat = v / bias2;
                param.value.data_mut()[i] -= self.learning_rate * m_hat / (v_hat.sqrt() + self.eps);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tensor::Tensor;

    /// Minimise f(x) = (x - 3)^2 with the optimiser's update step.
    fn quadratic_descent<F: FnMut(&mut [&mut Param])>(mut step: F, iterations: usize) -> f32 {
        let mut p = Param::new(Tensor::from_vec(vec![0.0], &[1]));
        for _ in 0..iterations {
            let x = p.value.data()[0];
            p.grad.data_mut()[0] = 2.0 * (x - 3.0);
            let mut refs = [&mut p];
            step(&mut refs);
        }
        p.value.data()[0]
    }

    #[test]
    fn adam_converges_on_quadratic() {
        let mut adam = Adam::new(0.1);
        let x = quadratic_descent(|p| adam.step(p), 500);
        assert!((x - 3.0).abs() < 1e-2, "x = {x}");
        assert_eq!(adam.steps(), 500);
    }

    #[test]
    fn paper_adam_defaults() {
        let adam = Adam::paper();
        assert!((adam.learning_rate - 1e-3).abs() < 1e-9);
        assert!((adam.beta1 - 0.9).abs() < 1e-9);
        assert!((adam.beta2 - 0.999).abs() < 1e-9);
    }

    #[test]
    fn zero_gradient_means_no_update() {
        let mut adam = Adam::new(0.1);
        let mut p = Param::new(Tensor::from_vec(vec![1.5], &[1]));
        let mut refs = [&mut p];
        adam.step(&mut refs);
        assert!((p.value.data()[0] - 1.5).abs() < 1e-6);
    }
}
