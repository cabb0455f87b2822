//! 2-D convolution with "same" padding (stride 1), via im2col + GEMM.
//!
//! All matrix products route through the blocked kernels in
//! [`crate::compute`]; batches parallelize over samples (and single samples
//! over output-row panels) on the global thread budget, with bit-identical
//! results at every width. Every forward expands one sample at a time into
//! a transient im2col panel drawn from the [`Scratch`] arena. Training-mode
//! forwards also keep a copy of their input, from which backward rebuilds
//! each sample's panel; evaluation-mode forwards and [`Layer::infer`]
//! leave no resident cache behind.

use super::{he_normal, Layer, Param};
use crate::compute::{self, Scratch, ThreadPool};
use crate::tensor::Tensor;
use rand::SeedableRng;

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
    // The input of the last training-mode forward, for backward (which
    // rebuilds each sample's im2col panel from it).
    cached_x: Vec<f32>,
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
            cached_x: Vec::new(),
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
            cached_x: Vec::new(),
            cached_in_shape: [0; 4],
        }
    }

    /// Output channel count.
    pub fn out_channels(&self) -> usize {
        self.out_c
    }

    /// Accumulates the weight (and bias) gradients for `grad_out` without
    /// forming ∂L/∂input — for a first layer, whose input gradient nobody
    /// reads. The gradients are bitwise those of [`Layer::backward_with`].
    ///
    /// # Panics
    ///
    /// Panics unless a train-mode forward of the same batch preceded it.
    pub fn backward_params(&mut self, grad_out: &Tensor, scratch: &mut Scratch) {
        self.check_backward(grad_out);
        self.param_grads(grad_out, scratch);
    }

    /// Validates `grad_out` against the cached train-mode forward.
    fn check_backward(&self, grad_out: &Tensor) {
        let [n, oc, h, w] = grad_out.shape();
        assert_eq!(oc, self.out_c, "Conv2d grad channel mismatch");
        assert!(
            self.cached_in_shape == [n, self.in_c, h, w]
                && self.cached_x.len() == n * self.in_c * h * w,
            "Conv2d::backward requires a preceding train-mode forward"
        );
    }

    /// Same work floor as forward: each backward phase is dominated by one
    /// GEMM of n·q·oc·hw multiply-adds, so small batches run serial.
    fn backward_workers(&self, grad_out: &Tensor) -> usize {
        let [n, oc, h, w] = grad_out.shape();
        compute::plan_workers(
            compute::threads(),
            n * self.in_c * self.k * self.k * oc * h * w,
        )
    }

    /// ∂L/∂input, per sample (disjoint): dcol = Wᵀ·dY (overwriting the
    /// previous sample's dcol), dX = col2im(dcol).
    fn input_grad(&self, grad_out: &Tensor, scratch: &mut Scratch) -> Tensor {
        let [n, oc, h, w] = grad_out.shape();
        let hw = h * w;
        let q = self.in_c * self.k * self.k;
        let threads = self.backward_workers(grad_out);
        let (in_c, k) = (self.in_c, self.k);
        let weight = &self.weight.data;
        let go = grad_out.data();
        let mut grad_in = scratch.tensor(self.cached_in_shape);
        let ranges = compute::partition(n, threads);
        let gin_sizes: Vec<usize> = ranges.iter().map(|r| r.len() * in_c * hw).collect();
        let gin_panels = compute::split_by_sizes(grad_in.data_mut(), &gin_sizes);
        let mut bufs: Vec<Vec<f32>> = ranges.iter().map(|_| scratch.take(q * hw)).collect();
        let jobs: Vec<_> = ranges
            .iter()
            .zip(gin_panels)
            .zip(bufs.iter_mut())
            .map(|((r, panel), grad_col)| {
                let r = r.clone();
                move || {
                    for (i, s) in r.clone().enumerate() {
                        compute::gemm_at_b_from_zero(
                            q,
                            oc,
                            hw,
                            weight,
                            &go[s * oc * hw..(s + 1) * oc * hw],
                            grad_col,
                        );
                        col2im(
                            in_c,
                            k,
                            h,
                            w,
                            grad_col,
                            &mut panel[i * in_c * hw..(i + 1) * in_c * hw],
                        );
                    }
                }
            })
            .collect();
        ThreadPool::new(threads).run(jobs);
        for b in bufs {
            scratch.give(b);
        }
        grad_in
    }

    /// dW += dY·colᵀ and dbias += Σ dY, per output-channel row panel
    /// (disjoint). For each row, samples accumulate in ascending order, so
    /// results are identical at every thread count. Each worker rebuilds
    /// every sample's im2col panel from the cached input into one reused
    /// buffer: a copy costs far less than its product, and nothing the
    /// size of the whole batch's panels stays resident between passes.
    fn param_grads(&mut self, grad_out: &Tensor, scratch: &mut Scratch) {
        let [n, oc, h, w] = grad_out.shape();
        let hw = h * w;
        let (in_c, k) = (self.in_c, self.k);
        let q = in_c * k * k;
        let threads = self.backward_workers(grad_out);
        let x = &self.cached_x;
        let go = grad_out.data();
        let ranges = compute::partition(oc, threads);
        let wg_sizes: Vec<usize> = ranges.iter().map(|r| r.len() * q).collect();
        let wg_panels = compute::split_by_sizes(&mut self.weight.grad, &wg_sizes);
        let bias_sizes: Vec<usize> = ranges.iter().map(|r| r.len()).collect();
        let mut bias_panels: Vec<Option<&mut [f32]>> = match &mut self.bias {
            Some(bias) => compute::split_by_sizes(&mut bias.grad, &bias_sizes)
                .into_iter()
                .map(Some)
                .collect(),
            None => ranges.iter().map(|_| None).collect(),
        };
        let mut bufs: Vec<Vec<f32>> = ranges.iter().map(|_| scratch.take(q * hw)).collect();
        let jobs: Vec<_> = ranges
            .iter()
            .zip(wg_panels)
            .zip(bias_panels.drain(..))
            .zip(bufs.iter_mut())
            .map(|(((r, wg), bias_grad), col)| {
                let r = r.clone();
                move || {
                    let mut bias_grad = bias_grad;
                    for s in 0..n {
                        let go_s = &go[s * oc * hw..(s + 1) * oc * hw];
                        im2col(in_c, k, h, w, &x[s * in_c * hw..(s + 1) * in_c * hw], col);
                        compute::gemm_a_bt(
                            r.len(),
                            hw,
                            q,
                            &go_s[r.start * hw..r.end * hw],
                            col,
                            wg,
                        );
                        if let Some(bg) = bias_grad.as_deref_mut() {
                            for (i, o) in r.clone().enumerate() {
                                bg[i] += go_s[o * hw..(o + 1) * hw].iter().sum::<f32>();
                            }
                        }
                    }
                }
            })
            .collect();
        ThreadPool::new(threads).run(jobs);
        for b in bufs {
            scratch.give(b);
        }
    }
}

/// Where one kernel tap `(kh, kw)` of a same-padded convolution reads on an
/// `h`×`w` plane. Output position `t` (row-major) reads input position
/// `t + shift` for every `t` in `lo..hi` except the gaps — the padding
/// columns between one valid row and the next ([`TapSpan::zero_gaps`]).
/// Every position outside `lo..hi` reads padding too.
struct TapSpan {
    lo: usize,
    hi: usize,
    shift: isize,
    w: usize,
    rows: std::ops::Range<usize>,
    cols: std::ops::Range<usize>,
}

impl TapSpan {
    /// The span of tap `(kh, kw)`, or `None` when it reads only padding.
    fn new(k: usize, h: usize, w: usize, kh: usize, kw: usize) -> Option<Self> {
        let pad = k / 2;
        let rows = valid_range(h, kh, pad);
        let cols = valid_range(w, kw, pad);
        if rows.is_empty() || cols.is_empty() {
            return None;
        }
        Some(TapSpan {
            lo: rows.start * w + cols.start,
            hi: (rows.end - 1) * w + cols.end,
            shift: (kh as isize - pad as isize) * w as isize + kw as isize - pad as isize,
            w,
            rows,
            cols,
        })
    }

    /// The input positions `lo + shift..hi + shift`.
    fn input(&self) -> std::ops::Range<usize> {
        let at = |t: usize| {
            t.checked_add_signed(self.shift)
                .expect("tap inside the plane")
        };
        at(self.lo)..at(self.hi)
    }

    /// Zeroes the padding positions inside `lo..hi` of `buf`: the end of
    /// each valid row joined to the start of the next. Column by column,
    /// so each zero is a single store rather than a tiny `memset`.
    fn zero_gaps(&self, buf: &mut [f32]) {
        for j in 0..self.w - self.cols.len() {
            for oh in self.rows.start..self.rows.end - 1 {
                buf[oh * self.w + self.cols.end + j] = 0.0;
            }
        }
    }
}

/// Expands one sample `[in_c, h, w]` into its im2col matrix
/// `[in_c·k·k, h·w]`. Each tap row is one contiguous copy of the shifted
/// input plane; only the padding positions are then written with zeros, so
/// every element is written once or (in a gap) twice, never swept first.
fn im2col(in_c: usize, k: usize, h: usize, w: usize, x: &[f32], col: &mut [f32]) {
    let hw = h * w;
    for ci in 0..in_c {
        let plane = &x[ci * hw..(ci + 1) * hw];
        for kh in 0..k {
            for kw in 0..k {
                let q = (ci * k + kh) * k + kw;
                let dst = &mut col[q * hw..(q + 1) * hw];
                let Some(span) = TapSpan::new(k, h, w, kh, kw) else {
                    dst.fill(0.0);
                    continue;
                };
                dst[..span.lo].fill(0.0);
                dst[span.lo..span.hi].copy_from_slice(&plane[span.input()]);
                dst[span.hi..].fill(0.0);
                span.zero_gaps(dst);
            }
        }
    }
}

/// Scatters a col-gradient back into one input-gradient sample
/// `[in_c, h, w]`, which must start at `+0.0` (as arena buffers do).
///
/// Each tap row is added with one contiguous vector add after its gaps are
/// zeroed in `col` (which the caller discards). Exact, and in the same
/// per-element order as [`reference`](compute::reference)'s row-by-row
/// scatter: a gap adds `+0.0` to an element that already sums from `+0.0`,
/// and such a sum is never `-0.0`, the one value that `+ 0.0` changes.
fn col2im(in_c: usize, k: usize, h: usize, w: usize, col: &mut [f32], gin: &mut [f32]) {
    let hw = h * w;
    for ci in 0..in_c {
        let plane = &mut gin[ci * hw..(ci + 1) * hw];
        for kh in 0..k {
            for kw in 0..k {
                let q = (ci * k + kh) * k + kw;
                let Some(span) = TapSpan::new(k, h, w, kh, kw) else {
                    continue;
                };
                let src = &mut col[q * hw..(q + 1) * hw];
                span.zero_gaps(src);
                crate::simd::add_assign(&mut plane[span.input()], &src[span.lo..span.hi]);
            }
        }
    }
}

/// Output rows (or columns) `lo..hi` at which tap offset `kw` reads inside
/// a `w`-wide input: `0 ≤ ow + kw - pad < w`.
fn valid_range(w: usize, kw: usize, pad: usize) -> std::ops::Range<usize> {
    pad.saturating_sub(kw)..(w + pad).saturating_sub(kw).min(w)
}

/// One sample of the forward product: `out_s += W·col_s` plus bias.
#[allow(clippy::too_many_arguments)]
fn forward_sample(
    out_c: usize,
    q: usize,
    hw: usize,
    weight: &[f32],
    bias: Option<&[f32]>,
    col: &[f32],
    dst: &mut [f32],
    pool: &ThreadPool,
) {
    compute::gemm_rows_parallel(pool, out_c, q, hw, weight, col, dst);
    if let Some(bias) = bias {
        for (o, &bv) in bias.iter().enumerate().take(out_c) {
            crate::simd::add_scalar(&mut dst[o * hw..(o + 1) * hw], bv);
        }
    }
}

/// The one forward implementation behind every entry point (train-mode and
/// eval-mode [`Layer::forward_with`], [`Layer::infer`]).
///
/// Each worker expands its samples one at a time into one reused scratch
/// panel. Sample batches partition across workers; a lone sample splits
/// its output rows across the pool instead.
#[allow(clippy::too_many_arguments)]
fn forward_impl(
    in_c: usize,
    out_c: usize,
    k: usize,
    weight: &[f32],
    bias: Option<&[f32]>,
    x: &Tensor,
    scratch: &mut Scratch,
) -> Tensor {
    let [n, _, h, w] = x.shape();
    let hw = h * w;
    let q = in_c * k * k;
    let mut out = scratch.tensor([n, out_c, h, w]);
    // Cap the worker count so each gets a worthwhile amount of GEMM work —
    // small batches run serial instead of paying thread-spawn overhead
    // (results are identical either way; partitioning is over disjoint
    // samples).
    let threads = compute::plan_workers(compute::threads(), n * out_c * q * hw);
    let ranges = if threads == 1 || n == 1 {
        compute::partition(n, 1)
    } else {
        compute::partition(n, threads)
    };
    // With one worker and one sample, the row-panel pool picks up the
    // parallelism instead (gemm_rows_parallel applies its own work floor).
    let rows_pool = if ranges.len() == 1 && n == 1 {
        ThreadPool::new(threads)
    } else {
        ThreadPool::serial()
    };
    let mut bufs: Vec<Vec<f32>> = ranges.iter().map(|_| scratch.take(q * hw)).collect();
    let out_sizes: Vec<usize> = ranges.iter().map(|r| r.len() * out_c * hw).collect();
    let out_panels = compute::split_by_sizes(out.data_mut(), &out_sizes);
    let jobs: Vec<_> = ranges
        .iter()
        .zip(bufs.iter_mut())
        .zip(out_panels)
        .map(|((r, col), panel)| {
            let r = r.clone();
            let rows_pool = &rows_pool;
            move || {
                for (i, s) in r.clone().enumerate() {
                    im2col(
                        in_c,
                        k,
                        h,
                        w,
                        &x.data()[s * in_c * hw..(s + 1) * in_c * hw],
                        col,
                    );
                    let dst = &mut panel[i * out_c * hw..(i + 1) * out_c * hw];
                    forward_sample(out_c, q, hw, weight, bias, col, dst, rows_pool);
                }
            }
        })
        .collect();
    ThreadPool::new(jobs.len()).run(jobs);
    for buf in bufs {
        scratch.give(buf);
    }
    out
}

impl Layer for Conv2d {
    fn forward_with(&mut self, x: &Tensor, train: bool, scratch: &mut Scratch) -> Tensor {
        let [_, c, _, _] = x.shape();
        assert_eq!(c, self.in_c, "Conv2d input channel mismatch");
        if train {
            self.cached_in_shape = x.shape();
            self.cached_x.clear();
            self.cached_x.extend_from_slice(x.data());
        } else {
            // Evaluation-mode forwards must not leave a resident backward
            // cache behind (inference-only holders would pin a batch of
            // inputs per convolution).
            self.cached_x = Vec::new();
            self.cached_in_shape = [0; 4];
        }
        self.infer(x, scratch)
    }

    fn backward_with(&mut self, grad_out: &Tensor, scratch: &mut Scratch) -> Tensor {
        self.check_backward(grad_out);
        let grad_in = self.input_grad(grad_out, scratch);
        self.param_grads(grad_out, scratch);
        grad_in
    }

    fn infer(&self, x: &Tensor, scratch: &mut Scratch) -> Tensor {
        let [_, c, _, _] = x.shape();
        assert_eq!(c, self.in_c, "Conv2d input channel mismatch");
        forward_impl(
            self.in_c,
            self.out_c,
            self.k,
            &self.weight.data,
            self.bias.as_ref().map(|b| b.data.as_slice()),
            x,
            scratch,
        )
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
        let y = conv.forward(&x, true);
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
        let y = conv.forward(&x, true);
        // Centre = sum of all = 45; corner (0,0) = 1+2+4+5 = 12.
        assert_eq!(y.at(0, 0, 1, 1), 45.0);
        assert_eq!(y.at(0, 0, 0, 0), 12.0);
        assert_eq!(y.at(0, 0, 2, 2), 5.0 + 6.0 + 8.0 + 9.0);
    }

    #[test]
    fn shapes_preserved_multichannel() {
        let mut conv = Conv2d::new(4, 7, 5, 1);
        let x = Tensor::zeros([3, 4, 8, 8]);
        let y = conv.forward(&x, true);
        assert_eq!(y.shape(), [3, 7, 8, 8]);
        let g = conv.backward(&Tensor::zeros([3, 7, 8, 8]));
        assert_eq!(g.shape(), [3, 4, 8, 8]);
    }

    #[test]
    fn bias_shifts_output() {
        let mut conv = Conv2d::new(1, 1, 1, 0);
        conv.weight.data[0] = 0.0;
        conv.bias.as_mut().unwrap().data[0] = 2.5;
        let y = conv.forward(&Tensor::zeros([1, 1, 2, 2]), true);
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
        let y_train = conv.forward(&x, true);
        assert!(!conv.cached_x.is_empty());
        let y_eval = conv.forward(&x, false);
        assert_eq!(y_train.data(), y_eval.data(), "conv output depends on mode");
        assert!(
            conv.cached_x.is_empty(),
            "eval-mode forward retained the backward cache"
        );
        let mut scratch = Scratch::new();
        let y_infer = conv.infer(&x, &mut scratch);
        assert_eq!(y_train.data(), y_infer.data());
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
        full.forward(&x, true);
        full.backward(&g);
        params_only.forward(&x, true);
        params_only.backward_params(&g, &mut Scratch::new());
        assert_eq!(grads(&mut full), grads(&mut params_only));
    }

    #[test]
    #[should_panic(expected = "train-mode forward")]
    fn backward_after_eval_forward_panics() {
        let mut conv = Conv2d::new(1, 1, 3, 0);
        let x = Tensor::ones([1, 1, 3, 3]);
        conv.forward(&x, false);
        conv.backward(&Tensor::ones([1, 1, 3, 3]));
    }
}
