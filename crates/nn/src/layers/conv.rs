//! 2-D convolution with "same" padding (stride 1), as implicit GEMM.
//!
//! Each sample's input is copied once into a zero-padded plane, and the
//! three passes are the [`crate::compute`] conv products that read it
//! through a tap offset table — no im2col panel is ever written. Every
//! pass loops over the batch's samples in ascending order. The training
//! forward keeps its padded planes for the weight gradient; [`Layer::infer`]
//! pads into a transient [`Scratch`] buffer and leaves no cache behind, and
//! [`Conv2d::infer_rows`] is the same pass on a per-sample window of output
//! rows.

use super::{he_normal, Layer, Param};
use crate::compute::{self, ConvShape, Scratch};
use crate::tensor::Tensor;
use rand::SeedableRng;
use std::ops::Range;

/// A stride-1, same-padding 2-D convolution.
///
/// Kernel sizes are odd (1, 3, 5 in the Q-network of the paper's Fig. 2).
/// The optional bias is typically disabled when a batch-norm follows.
pub struct Conv2d {
    in_c: usize,
    out_c: usize,
    k: usize,
    weight: Param,
    bias: Option<Param>,
    // The zero-padded input planes of the last training forward, one
    // `ConvShape::plane_len` block per sample, for the weight gradient.
    cached_planes: Vec<f32>,
    cached_in_shape: [usize; 4],
}

impl Clone for Conv2d {
    /// Clones parameters and dimensions; backward caches start empty.
    fn clone(&self) -> Self {
        Conv2d {
            in_c: self.in_c,
            out_c: self.out_c,
            k: self.k,
            weight: self.weight.clone(),
            bias: self.bias.clone(),
            cached_planes: Vec::new(),
            cached_in_shape: [0; 4],
        }
    }
}

impl Conv2d {
    /// Creates a convolution with He-normal weights and zero bias.
    ///
    /// # Panics
    ///
    /// Panics if `k` is even.
    pub fn new(in_c: usize, out_c: usize, k: usize, seed: u64) -> Self {
        Self::build(in_c, out_c, k, seed, true)
    }

    /// Creates a convolution without bias (for conv→batchnorm stacks).
    pub fn new_no_bias(in_c: usize, out_c: usize, k: usize, seed: u64) -> Self {
        Self::build(in_c, out_c, k, seed, false)
    }

    fn build(in_c: usize, out_c: usize, k: usize, seed: u64, bias: bool) -> Self {
        assert!(k % 2 == 1, "kernel size {k} must be odd for same padding");
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let fan_in = in_c * k * k;
        let weight: Vec<f32> = (0..out_c * fan_in)
            .map(|_| he_normal(&mut rng, fan_in))
            .collect();
        Conv2d {
            in_c,
            out_c,
            k,
            weight: Param::new(weight),
            bias: bias.then(|| Param::new(vec![0.0; out_c])),
            cached_planes: Vec::new(),
            cached_in_shape: [0; 4],
        }
    }

    /// The geometry of one sample of an `h`×`w` input.
    fn shape(&self, h: usize, w: usize) -> ConvShape {
        ConvShape::new(self.in_c, self.k, h, w)
    }

    /// The kernel size `k`: an output row reads input rows `k/2` above and
    /// below it.
    pub fn kernel(&self) -> usize {
        self.k
    }

    /// [`Layer::infer`] on output rows `rows[s]` of each sample `s` only;
    /// every other output element is `+0.0`.
    /// Each sample is padded into a full plane's geometry, on the rows the
    /// window reads ([`ConvShape::pad_rows`]), so each computed element
    /// sees the operands, products and order of [`Layer::infer`] and is
    /// bitwise its value, provided the input holds its full-pass values
    /// on rows `rows[s]` widened by `k/2` (clamped to the plane): the
    /// other rows reach only lanes the kernels discard.
    ///
    /// # Panics
    ///
    /// Panics if `rows` does not hold one range inside `0..h` per sample.
    pub fn infer_rows(&self, x: &Tensor, rows: &[Range<usize>], scratch: &mut Scratch) -> Tensor {
        assert_eq!(rows.len(), x.shape()[0], "one row window per sample");
        self.infer_window(x, |s| rows[s].clone(), scratch)
    }

    /// The evaluation forward on output rows `window(s)` of sample `s`.
    fn infer_window(
        &self,
        x: &Tensor,
        window: impl Fn(usize) -> Range<usize>,
        scratch: &mut Scratch,
    ) -> Tensor {
        let [n, c, h, w] = x.shape();
        assert_eq!(c, self.in_c, "Conv2d input channel mismatch");
        let shape = self.shape(h, w);
        // `pad_all` writes every plane row the window reads.
        let mut planes = scratch.take_for_overwrite(n * shape.plane_len());
        pad_all(&shape, x, &mut planes, &window);
        let out = forward_planes(
            &shape,
            self.out_c,
            &self.weight.data,
            self.bias.as_ref().map(|b| b.data.as_slice()),
            &planes,
            [n, h, w],
            window,
            scratch,
        );
        scratch.give(planes);
        out
    }

    /// Accumulates the weight (and bias) gradients for `grad_out` without
    /// forming ∂L/∂input — for a first layer, whose input gradient nobody
    /// reads. The gradients are bitwise those of [`Layer::backward_with`].
    ///
    /// # Panics
    ///
    /// Panics unless a train-mode forward of the same batch preceded it.
    pub fn backward_params(&mut self, grad_out: &Tensor) {
        self.check_backward(grad_out);
        self.param_grads(grad_out);
    }

    /// Validates `grad_out` against the cached train-mode forward.
    fn check_backward(&self, grad_out: &Tensor) {
        let [n, oc, h, w] = grad_out.shape();
        assert_eq!(oc, self.out_c, "Conv2d grad channel mismatch");
        assert!(
            self.cached_in_shape == [n, self.in_c, h, w]
                && self.cached_planes.len() == n * self.shape(h, w).plane_len(),
            "Conv2d::backward requires a preceding train-mode forward"
        );
    }

    /// ∂L/∂input, per sample: the input gradient accumulates onto a
    /// zeroed padded gradient plane, whose interior is the sample's
    /// ∂L/∂input.
    fn input_grad(&self, grad_out: &Tensor, scratch: &mut Scratch) -> Tensor {
        let [n, oc, h, w] = grad_out.shape();
        let hw = h * w;
        let shape = self.shape(h, w);
        let in_len = self.in_c * hw;
        let mut grad_in = scratch.tensor(self.cached_in_shape);
        let mut grad_plane = scratch.take(shape.plane_len());
        for s in 0..n {
            if s > 0 {
                grad_plane.fill(0.0);
            }
            let go = &grad_out.data()[s * oc * hw..(s + 1) * oc * hw];
            compute::conv_input_grad(&shape, oc, &self.weight.data, go, &mut grad_plane);
            shape.unpad(
                &grad_plane,
                &mut grad_in.data_mut()[s * in_len..(s + 1) * in_len],
            );
        }
        scratch.give(grad_plane);
        grad_in
    }

    /// dW += dY·colᵀ and dbias += Σ dY, samples in ascending order. Each
    /// sample's product reads its cached padded plane.
    fn param_grads(&mut self, grad_out: &Tensor) {
        let [n, oc, h, w] = grad_out.shape();
        let hw = h * w;
        let shape = self.shape(h, w);
        let plane_len = shape.plane_len();
        for s in 0..n {
            let go = &grad_out.data()[s * oc * hw..(s + 1) * oc * hw];
            let plane = &self.cached_planes[s * plane_len..(s + 1) * plane_len];
            compute::conv_weight_grad(&shape, oc, go, plane, &mut self.weight.grad);
            if let Some(bias) = &mut self.bias {
                for (o, bg) in bias.grad.iter_mut().enumerate() {
                    *bg += go[o * hw..(o + 1) * hw].iter().sum::<f32>();
                }
            }
        }
    }
}

/// The one forward product behind every entry point
/// ([`Layer::forward_with`], [`Layer::infer`], [`Conv2d::infer_rows`]),
/// over samples already padded into `planes` (one `plane_len` block each),
/// on output rows `window(s)` of sample `s`.
#[allow(clippy::too_many_arguments)]
fn forward_planes(
    shape: &ConvShape,
    out_c: usize,
    weight: &[f32],
    bias: Option<&[f32]>,
    planes: &[f32],
    [n, h, w]: [usize; 3],
    window: impl Fn(usize) -> Range<usize>,
    scratch: &mut Scratch,
) -> Tensor {
    let hw = h * w;
    let plane_len = shape.plane_len();
    // The product accumulates onto `+0.0`.
    let mut out = scratch.tensor([n, out_c, h, w]);
    for s in 0..n {
        let rows = window(s);
        let plane = &planes[s * plane_len..(s + 1) * plane_len];
        let dst = &mut out.data_mut()[s * out_c * hw..(s + 1) * out_c * hw];
        compute::conv_forward(shape, out_c, weight, plane, dst, rows.clone());
        if let Some(bias) = bias {
            for (o, &bv) in bias.iter().enumerate() {
                let span = o * hw + rows.start * w..o * hw + rows.end * w;
                crate::simd::add_scalar(&mut dst[span], bv);
            }
        }
    }
    out
}

/// Pads every sample `s` of `x` into consecutive `plane_len` blocks of
/// `planes`, the plane rows that output rows `window(s)` read.
fn pad_all(
    shape: &ConvShape,
    x: &Tensor,
    planes: &mut [f32],
    window: impl Fn(usize) -> Range<usize>,
) {
    let [n, c, h, w] = x.shape();
    let sample = c * h * w;
    let plane_len = shape.plane_len();
    for s in 0..n {
        shape.pad_rows(
            &x.data()[s * sample..(s + 1) * sample],
            &mut planes[s * plane_len..(s + 1) * plane_len],
            window(s),
        );
    }
}

impl Layer for Conv2d {
    fn forward_with(&mut self, x: &Tensor, scratch: &mut Scratch) -> Tensor {
        let [n, c, h, w] = x.shape();
        assert_eq!(c, self.in_c, "Conv2d input channel mismatch");
        let shape = self.shape(h, w);
        self.cached_in_shape = x.shape();
        self.cached_planes.resize(n * shape.plane_len(), 0.0);
        pad_all(&shape, x, &mut self.cached_planes, |_| 0..h);
        forward_planes(
            &shape,
            self.out_c,
            &self.weight.data,
            self.bias.as_ref().map(|b| b.data.as_slice()),
            &self.cached_planes,
            [n, h, w],
            |_| 0..h,
            scratch,
        )
    }

    fn backward_with(&mut self, grad_out: &Tensor, scratch: &mut Scratch) -> Tensor {
        self.check_backward(grad_out);
        let grad_in = self.input_grad(grad_out, scratch);
        self.param_grads(grad_out);
        grad_in
    }

    fn infer(&self, x: &Tensor, scratch: &mut Scratch) -> Tensor {
        let h = x.shape()[2];
        self.infer_window(x, |_| 0..h, scratch)
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        f(&mut self.weight);
        if let Some(b) = &mut self.bias {
            f(b);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity_1x1_conv() {
        let mut conv = Conv2d::new(1, 1, 1, 0);
        conv.weight.data[0] = 1.0;
        if let Some(b) = &mut conv.bias {
            b.data[0] = 0.0;
        }
        let x = Tensor::from_vec([1, 1, 2, 2], vec![1.0, 2.0, 3.0, 4.0]);
        let y = conv.forward(&x);
        assert_eq!(y.data(), x.data());
    }

    #[test]
    fn known_3x3_convolution() {
        // A 3x3 all-ones kernel computes neighbourhood sums with zero pad.
        let mut conv = Conv2d::new(1, 1, 3, 0);
        conv.weight.data.iter_mut().for_each(|w| *w = 1.0);
        if let Some(b) = &mut conv.bias {
            b.data[0] = 0.0;
        }
        let x = Tensor::from_vec([1, 1, 3, 3], vec![1., 2., 3., 4., 5., 6., 7., 8., 9.]);
        let y = conv.forward(&x);
        // Centre = sum of all = 45; corner (0,0) = 1+2+4+5 = 12.
        assert_eq!(y.at(0, 0, 1, 1), 45.0);
        assert_eq!(y.at(0, 0, 0, 0), 12.0);
        assert_eq!(y.at(0, 0, 2, 2), 5.0 + 6.0 + 8.0 + 9.0);
    }

    #[test]
    fn shapes_preserved_multichannel() {
        let mut conv = Conv2d::new(4, 7, 5, 1);
        let x = Tensor::zeros([3, 4, 8, 8]);
        let y = conv.forward(&x);
        assert_eq!(y.shape(), [3, 7, 8, 8]);
        let g = conv.backward(&Tensor::zeros([3, 7, 8, 8]));
        assert_eq!(g.shape(), [3, 4, 8, 8]);
    }

    #[test]
    fn bias_shifts_output() {
        let mut conv = Conv2d::new(1, 1, 1, 0);
        conv.weight.data[0] = 0.0;
        conv.bias.as_mut().unwrap().data[0] = 2.5;
        let y = conv.forward(&Tensor::zeros([1, 1, 2, 2]));
        assert!(y.data().iter().all(|&v| v == 2.5));
    }

    #[test]
    fn gradient_check_small() {
        let conv = Conv2d::new(2, 3, 3, 7);
        let err = crate::gradcheck::check_layer(Box::new(conv), [2, 2, 4, 4], 11);
        assert!(err < 3e-2, "conv gradient error {err}");
    }

    #[test]
    fn gradient_check_5x5() {
        let conv = Conv2d::new(1, 2, 5, 9);
        let err = crate::gradcheck::check_layer(Box::new(conv), [1, 1, 6, 6], 13);
        assert!(err < 3e-2, "conv5 gradient error {err}");
    }

    #[test]
    fn eval_forward_leaves_no_cache_and_matches_train() {
        let mut conv = Conv2d::new(3, 5, 3, 21);
        let x = Tensor::from_vec(
            [2, 3, 4, 4],
            (0..96).map(|i| (i as f32) * 0.03 - 1.0).collect(),
        );
        let mut scratch = Scratch::new();
        let y_infer = conv.infer(&x, &mut scratch);
        assert!(
            conv.cached_planes.is_empty(),
            "infer wrote the backward cache"
        );
        let y_train = conv.forward(&x);
        assert_eq!(
            y_train.data(),
            y_infer.data(),
            "conv output depends on the pass"
        );
    }

    #[test]
    fn parameter_only_backward_matches_full_backward() {
        let x = Tensor::from_vec(
            [3, 4, 6, 6],
            (0..432)
                .map(|i| ((i * 37) % 101) as f32 * 0.02 - 1.0)
                .collect(),
        );
        let g = Tensor::from_vec(
            [3, 5, 6, 6],
            (0..540)
                .map(|i| ((i * 53) % 97) as f32 * 0.03 - 1.4)
                .collect(),
        );
        let grads = |conv: &mut Conv2d| {
            let mut out = Vec::new();
            conv.visit_params(&mut |p| out.push(p.grad.clone()));
            out
        };
        let mut full = Conv2d::new(4, 5, 3, 17);
        let mut params_only = full.clone();
        full.forward(&x);
        full.backward(&g);
        params_only.forward(&x);
        params_only.backward_params(&g);
        assert_eq!(grads(&mut full), grads(&mut params_only));
    }

    #[test]
    #[should_panic(expected = "train-mode forward")]
    fn backward_after_eval_forward_panics() {
        let mut conv = Conv2d::new(1, 1, 3, 0);
        let x = Tensor::ones([1, 1, 3, 3]);
        conv.infer(&x, &mut Scratch::new());
        conv.backward(&Tensor::ones([1, 1, 3, 3]));
    }
}
