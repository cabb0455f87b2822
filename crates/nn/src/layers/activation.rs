//! Activation functions.

use super::Layer;
use crate::compute::Scratch;
use crate::simd;
use crate::tensor::Tensor;
use std::ops::Range;

/// Leaky rectified linear unit, `f(x) = x` for `x > 0` else `αx`.
///
/// The paper's Q-network uses LReLU after every batch-norm (Fig. 2).
/// Forward and backward are pure elementwise multiplies by a per-element
/// scale `s ∈ {1.0, α}` (exact: `x·1.0 == x` bitwise), which is what lets
/// them run on the [`crate::simd`] lanes while staying bit-identical to
/// the historical branchy form. The training forward caches the scale
/// vector for backward; [`Layer::infer`] and [`LeakyReLU::apply`] are
/// cache-free.
pub struct LeakyReLU {
    alpha: f32,
    scale: Vec<f32>,
}

impl LeakyReLU {
    /// Creates a LeakyReLU with the given negative slope.
    pub fn new(alpha: f32) -> Self {
        LeakyReLU {
            alpha,
            scale: Vec::new(),
        }
    }

    /// The negative slope α.
    pub fn alpha(&self) -> f32 {
        self.alpha
    }

    /// Applies the activation in place without caching — the inference
    /// fast path, allocating nothing.
    pub fn apply(&self, t: &mut Tensor) {
        simd::lrelu_apply(t.data_mut(), self.alpha);
    }

    /// [`LeakyReLU::apply`] on rows `rows[s]` of each sample `s` only
    /// (see [`Tensor::row_runs`]): elementwise, so each element gets the
    /// bits a whole-tensor pass gives it.
    pub fn apply_rows(&self, t: &mut Tensor, rows: &[Range<usize>]) {
        for run in t.row_runs(rows) {
            simd::lrelu_apply(&mut t.data_mut()[run], self.alpha);
        }
    }
}

impl Clone for LeakyReLU {
    /// Clones the slope; the backward cache starts empty.
    fn clone(&self) -> Self {
        LeakyReLU::new(self.alpha)
    }
}

impl Default for LeakyReLU {
    /// The conventional negative slope of 0.01.
    fn default() -> Self {
        LeakyReLU::new(0.01)
    }
}

impl Layer for LeakyReLU {
    fn forward_with(&mut self, x: &Tensor, scratch: &mut Scratch) -> Tensor {
        let mut out = scratch.tensor(x.shape());
        self.scale.resize(x.len(), 0.0);
        simd::lrelu_forward_scale(x.data(), out.data_mut(), &mut self.scale, self.alpha);
        out
    }

    fn backward_with(&mut self, grad_out: &Tensor, scratch: &mut Scratch) -> Tensor {
        assert!(
            !self.scale.is_empty() || grad_out.is_empty(),
            "LeakyReLU::backward requires a preceding train-mode forward"
        );
        assert_eq!(grad_out.len(), self.scale.len(), "LeakyReLU grad length");
        let mut grad_in = scratch.tensor(grad_out.shape());
        grad_in.data_mut().copy_from_slice(grad_out.data());
        simd::mul_assign(grad_in.data_mut(), &self.scale);
        grad_in
    }

    fn infer(&self, x: &Tensor, scratch: &mut Scratch) -> Tensor {
        let mut out = scratch.tensor(x.shape());
        out.data_mut().copy_from_slice(x.data());
        self.apply(&mut out);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn forward_behaviour() {
        let mut act = LeakyReLU::new(0.1);
        let x = Tensor::from_vec([1, 1, 1, 4], vec![-2.0, -0.5, 0.5, 2.0]);
        let y = act.forward(&x);
        assert_eq!(y.data(), &[-0.2, -0.05, 0.5, 2.0]);
    }

    #[test]
    fn backward_scales_negative_side() {
        let mut act = LeakyReLU::new(0.1);
        let x = Tensor::from_vec([1, 1, 1, 2], vec![-1.0, 1.0]);
        act.forward(&x);
        let g = act.backward(&Tensor::ones([1, 1, 1, 2]));
        assert_eq!(g.data(), &[0.1, 1.0]);
    }

    #[test]
    fn gradient_check() {
        let act = LeakyReLU::default();
        let err = crate::gradcheck::check_layer(Box::new(act), [2, 2, 3, 3], 3);
        assert!(err < 1e-2, "lrelu gradient error {err}");
    }

    #[test]
    fn infer_and_apply_match_forward() {
        let mut act = LeakyReLU::new(0.2);
        let x = Tensor::from_vec([1, 1, 1, 4], vec![-2.0, 0.0, 0.5, 2.0]);
        let y = act.forward(&x);
        let mut scratch = Scratch::new();
        let z = act.infer(&x, &mut scratch);
        assert_eq!(y.data(), z.data());
        let mut w = x.clone();
        act.apply(&mut w);
        assert_eq!(y.data(), w.data());
    }
}
