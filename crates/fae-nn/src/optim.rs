//! Optimizers.
//!
//! The paper's evaluation repeatedly stresses that the optimizer is a
//! "massively parallel operation" whose forced placement on the CPU (when
//! embeddings live there) dominates baseline time (Fig 14). The numeric
//! update itself is plain SGD, shared by dense layers (via
//! [`crate::layers::Layer::sgd_step`]) and by sparse embedding updates in
//! `fae-embed`. This module provides the standalone dense update used
//! where a `Layer` is not in play.

use crate::tensor::Tensor;

/// Plain stochastic gradient descent: `p -= lr * g`.
#[derive(Clone, Copy, Debug)]
pub struct Sgd {
    /// Learning rate.
    pub lr: f32,
}

impl Sgd {
    /// Creates an SGD optimizer with the given learning rate.
    pub fn new(lr: f32) -> Self {
        assert!(lr > 0.0 && lr.is_finite(), "learning rate must be positive");
        Self { lr }
    }

    /// Applies one update to a dense parameter tensor.
    pub fn step_dense(&self, params: &mut Tensor, grads: &Tensor) {
        params.add_scaled(grads, -self.lr);
    }

    /// Applies one update to a flat parameter slice.
    pub fn step_slice(&self, params: &mut [f32], grads: &[f32]) {
        assert_eq!(params.len(), grads.len(), "sgd slice length mismatch");
        for (p, &g) in params.iter_mut().zip(grads) {
            *p -= self.lr * g;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dense_step_moves_against_gradient() {
        let sgd = Sgd::new(0.1);
        let mut p = Tensor::from_vec(1, 3, vec![1.0, 2.0, 3.0]);
        let g = Tensor::from_vec(1, 3, vec![10.0, 0.0, -10.0]);
        sgd.step_dense(&mut p, &g);
        assert_eq!(p.as_slice(), &[0.0, 2.0, 4.0]);
    }

    #[test]
    fn slice_step_matches_dense() {
        let sgd = Sgd::new(0.5);
        let mut p = [4.0f32, -2.0];
        sgd.step_slice(&mut p, &[2.0, 2.0]);
        assert_eq!(p, [3.0, -3.0]);
    }

    #[test]
    #[should_panic(expected = "learning rate must be positive")]
    fn rejects_nonpositive_lr() {
        let _ = Sgd::new(0.0);
    }

    #[test]
    fn converges_on_quadratic() {
        // Minimise f(p) = ||p - c||² — gradient descent must reach c.
        let sgd = Sgd::new(0.1);
        let target = [1.0f32, -2.0, 0.5];
        let mut p = [0.0f32; 3];
        for _ in 0..200 {
            let g: Vec<f32> = p.iter().zip(&target).map(|(&pi, &c)| 2.0 * (pi - c)).collect();
            sgd.step_slice(&mut p, &g);
        }
        for (pi, c) in p.iter().zip(&target) {
            assert!((pi - c).abs() < 1e-4);
        }
    }
}
