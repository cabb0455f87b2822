//! The shared compute engine: the implicit-GEMM convolutions and the
//! zero-allocation [`Scratch`] arena (DESIGN.md §11).
//!
//! Every product the Q-network runs is one of the three convolution
//! passes ([`conv_forward`], [`conv_input_grad`], [`conv_weight_grad`]),
//! which read a zero-padded input plane in place of an im2col panel. They
//! are register-tiled (`MR`-row accumulator tiles) and the forward is
//! cache-blocked in `KC`-tap panels. Every pass, at every tier, runs on one
//! shared microkernel (the `tile` submodule), at eight or sixteen lanes by
//! [`crate::simd::tier`] on an x86-64 CPU with AVX, and on portable
//! eight-float lanes otherwise. All keep one hard invariant: **every
//! output element accumulates its products in a fixed order, one product
//! at a time** — exactly the order of the scalar reference convolution
//! in [`reference`](mod@reference). Floating-point addition is not
//! associative, so this fixed reduction order is what makes results
//! bit-identical across kernel generations and SIMD tiers: vector lanes
//! only ever span independent output columns, never a reduction.
//!
//! The engine runs on the calling thread. Parallelism lives above it, in
//! actors and sweep agents (DESIGN.md §10).

use crate::tensor::Tensor;

// ------------------------------------------------------------------ arena

/// A reusable buffer arena: layers borrow transient `f32` buffers (padded
/// planes, gradient planes, output tensors) from here instead of
/// allocating per call, and return them when done.
///
/// After a warm-up pass every `take` is served from the free list, so the
/// steady-state training loop performs no heap allocation in the compute
/// path. Buffers are handed out zero-filled (the kernels accumulate with
/// `+=`).
#[derive(Debug, Default)]
pub struct Scratch {
    /// Free buffers, sorted by capacity (ascending) for best-fit reuse.
    free: Vec<Vec<f32>>,
}

impl Scratch {
    /// An empty arena.
    pub fn new() -> Self {
        Scratch { free: Vec::new() }
    }

    /// Borrows a zero-filled buffer of exactly `len` elements, reusing the
    /// smallest free buffer that fits (allocating only if none does).
    pub fn take(&mut self, len: usize) -> Vec<f32> {
        let mut buf = self.best_fit(len);
        buf.clear();
        buf.resize(len, 0.0);
        buf
    }

    /// [`Scratch::take`] without the zero fill, for a caller that writes
    /// every element before reading any: the reused buffer is only
    /// truncated or extended to `len`, so its elements hold whatever its
    /// last user left there.
    pub fn take_for_overwrite(&mut self, len: usize) -> Vec<f32> {
        let mut buf = self.best_fit(len);
        buf.resize(len, 0.0);
        buf
    }

    /// The smallest free buffer of capacity at least `len`, or else the
    /// largest (its allocation grows once and then serves all future
    /// takes of this size), or else a new one.
    fn best_fit(&mut self, len: usize) -> Vec<f32> {
        let idx = self.free.partition_point(|b| b.capacity() < len);
        if idx < self.free.len() {
            self.free.remove(idx)
        } else {
            self.free.pop().unwrap_or_default()
        }
    }

    /// Returns a buffer to the arena.
    pub fn give(&mut self, buf: Vec<f32>) {
        if buf.capacity() == 0 {
            return;
        }
        let idx = self.free.partition_point(|b| b.capacity() < buf.capacity());
        self.free.insert(idx, buf);
    }

    /// Borrows a zero-filled tensor of the given shape.
    pub fn tensor(&mut self, shape: [usize; 4]) -> Tensor {
        Tensor::from_vec(shape, self.take(shape.iter().product()))
    }

    /// Returns a tensor's storage to the arena.
    pub fn recycle(&mut self, t: Tensor) {
        self.give(t.into_data());
    }

    /// Number of buffers currently free (diagnostics/tests).
    pub fn free_buffers(&self) -> usize {
        self.free.len()
    }
}

// ---------------------------------------------------------------- kernels

#[cfg(target_arch = "x86_64")]
mod avx;
mod implicit;
mod tile;

pub use implicit::{conv_forward, conv_input_grad, conv_weight_grad, ConvShape};

/// k-panel (cache block) of the conv forward, whose accumulators live in
/// its output.
const KC: usize = 256;

// -------------------------------------------------------------- reference

/// The scalar reference kernels and the original convolution built on
/// them, preserved verbatim as the bit-exactness oracle for the parity
/// suites and the naive baseline of the `nn_throughput` benchmark.
pub mod reference {
    use crate::tensor::Tensor;

    /// Output columns `lo..hi` at which tap offset `kw` reads inside a
    /// `w`-wide input (empty when the tap reads only padding, as on a
    /// plane narrower than the kernel's reach).
    fn valid_range(w: usize, kw: usize, pad: usize) -> (usize, usize) {
        let lo = pad.saturating_sub(kw);
        let hi = (w + pad).saturating_sub(kw).min(w);
        (lo, hi)
    }

    fn im2col(in_c: usize, k: usize, x: &Tensor, n: usize, col: &mut [f32]) {
        let [_, _, h, w] = x.shape();
        let pad = k / 2;
        let hw = h * w;
        col.fill(0.0);
        for ci in 0..in_c {
            for kh in 0..k {
                for kw in 0..k {
                    let q = (ci * k + kh) * k + kw;
                    let dst = &mut col[q * hw..(q + 1) * hw];
                    for oh in 0..h {
                        let ih = oh as isize + kh as isize - pad as isize;
                        if ih < 0 || ih >= h as isize {
                            continue;
                        }
                        let ih = ih as usize;
                        let (ow_lo, ow_hi) = valid_range(w, kw, pad);
                        if ow_lo >= ow_hi {
                            continue;
                        }
                        let iw_lo = ow_lo + kw - pad;
                        let src_base = x.index(n, ci, ih, iw_lo);
                        let dst_base = oh * w + ow_lo;
                        let len = ow_hi - ow_lo;
                        dst[dst_base..dst_base + len]
                            .copy_from_slice(&x.data()[src_base..src_base + len]);
                    }
                }
            }
        }
    }

    fn col2im(in_c: usize, k: usize, col: &[f32], gin: &mut Tensor, n: usize) {
        let [_, _, h, w] = gin.shape();
        let pad = k / 2;
        let hw = h * w;
        for ci in 0..in_c {
            for kh in 0..k {
                for kw in 0..k {
                    let q = (ci * k + kh) * k + kw;
                    let src = &col[q * hw..(q + 1) * hw];
                    for oh in 0..h {
                        let ih = oh as isize + kh as isize - pad as isize;
                        if ih < 0 || ih >= h as isize {
                            continue;
                        }
                        let ih = ih as usize;
                        let (ow_lo, ow_hi) = valid_range(w, kw, pad);
                        if ow_lo >= ow_hi {
                            continue;
                        }
                        let iw_lo = ow_lo + kw - pad;
                        let dst_base = gin.index(n, ci, ih, iw_lo);
                        let src_base = oh * w + ow_lo;
                        let gdata = gin.data_mut();
                        for t in 0..(ow_hi - ow_lo) {
                            gdata[dst_base + t] += src[src_base + t];
                        }
                    }
                }
            }
        }
    }

    /// Output of [`conv2d_forward`]: the convolution result plus the
    /// per-sample im2col panels (needed by [`conv2d_backward`]).
    pub struct ConvForward {
        /// The convolution output.
        pub out: Tensor,
        /// Concatenated im2col panels, `[n · in_c·k·k · h·w]`.
        pub cols: Vec<f32>,
    }

    /// The original (pre-compute-engine) stride-1, same-padding conv
    /// forward: per-sample im2col then naive GEMM, single-threaded.
    pub fn conv2d_forward(
        in_c: usize,
        out_c: usize,
        k: usize,
        weight: &[f32],
        bias: Option<&[f32]>,
        x: &Tensor,
    ) -> ConvForward {
        let [n, _, h, w] = x.shape();
        let hw = h * w;
        let q = in_c * k * k;
        let mut out = Tensor::zeros([n, out_c, h, w]);
        let mut cols = vec![0.0f32; n * q * hw];
        for s in 0..n {
            let col = &mut cols[s * q * hw..(s + 1) * q * hw];
            im2col(in_c, k, x, s, col);
            let dst = &mut out.data_mut()[s * out_c * hw..(s + 1) * out_c * hw];
            gemm(out_c, q, hw, weight, col, dst);
            if let Some(bias) = bias {
                for o in 0..out_c {
                    let bv = bias[o];
                    for v in &mut dst[o * hw..(o + 1) * hw] {
                        *v += bv;
                    }
                }
            }
        }
        ConvForward { out, cols }
    }

    /// Gradients produced by [`conv2d_backward`].
    pub struct ConvBackward {
        /// ∂L/∂input.
        pub grad_in: Tensor,
        /// ∂L/∂weight, `[out_c · in_c·k·k]`.
        pub weight_grad: Vec<f32>,
        /// ∂L/∂bias when the convolution has one.
        pub bias_grad: Option<Vec<f32>>,
    }

    /// The original conv backward over panels captured by
    /// [`conv2d_forward`].
    #[allow(clippy::too_many_arguments)]
    pub fn conv2d_backward(
        in_c: usize,
        out_c: usize,
        k: usize,
        weight: &[f32],
        has_bias: bool,
        cols: &[f32],
        in_shape: [usize; 4],
        grad_out: &Tensor,
    ) -> ConvBackward {
        let [n, oc, h, w] = grad_out.shape();
        let hw = h * w;
        let q = in_c * k * k;
        let mut grad_in = Tensor::zeros(in_shape);
        let mut weight_grad = vec![0.0f32; out_c * q];
        let mut bias_grad = has_bias.then(|| vec![0.0f32; out_c]);
        let mut grad_col = vec![0.0f32; q * hw];
        for s in 0..n {
            let go = &grad_out.data()[s * oc * hw..(s + 1) * oc * hw];
            let col = &cols[s * q * hw..(s + 1) * q * hw];
            gemm_a_bt(oc, hw, q, go, col, &mut weight_grad);
            if let Some(bg) = &mut bias_grad {
                for o in 0..oc {
                    bg[o] += go[o * hw..(o + 1) * hw].iter().sum::<f32>();
                }
            }
            grad_col.fill(0.0);
            gemm_at_b(q, oc, hw, weight, go, &mut grad_col);
            col2im(in_c, k, &grad_col, &mut grad_in, s);
        }
        ConvBackward {
            grad_in,
            weight_grad,
            bias_grad,
        }
    }
    /// `C[m,n] += A[m,k] · B[k,n]`, all row-major (axpy ordering).
    pub fn gemm(m: usize, kk: usize, n: usize, a: &[f32], b: &[f32], c: &mut [f32]) {
        for i in 0..m {
            let arow = &a[i * kk..(i + 1) * kk];
            let crow = &mut c[i * n..(i + 1) * n];
            for (p, &av) in arow.iter().enumerate() {
                if av == 0.0 {
                    continue;
                }
                let brow = &b[p * n..(p + 1) * n];
                for (cv, &bv) in crow.iter_mut().zip(brow) {
                    *cv += av * bv;
                }
            }
        }
    }

    /// `C[m,n] += A[m,k] · Bᵀ` where `B` is `[n,k]` row-major.
    pub fn gemm_a_bt(m: usize, kk: usize, n: usize, a: &[f32], b: &[f32], c: &mut [f32]) {
        for i in 0..m {
            let arow = &a[i * kk..(i + 1) * kk];
            for j in 0..n {
                let brow = &b[j * kk..(j + 1) * kk];
                let dot: f32 = arow.iter().zip(brow).map(|(x, y)| x * y).sum();
                c[i * n + j] += dot;
            }
        }
    }

    /// `C[m,n] += Aᵀ · B` where `A` is `[k,m]` and `B` is `[k,n]`.
    pub fn gemm_at_b(m: usize, kk: usize, n: usize, a: &[f32], b: &[f32], c: &mut [f32]) {
        for p in 0..kk {
            let arow = &a[p * m..(p + 1) * m];
            let brow = &b[p * n..(p + 1) * n];
            for (i, &av) in arow.iter().enumerate() {
                if av == 0.0 {
                    continue;
                }
                let crow = &mut c[i * n..(i + 1) * n];
                for (cv, &bv) in crow.iter_mut().zip(brow) {
                    *cv += av * bv;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scratch_reuses_allocations() {
        let mut s = Scratch::new();
        let a = s.take(100);
        let cap = a.capacity();
        s.give(a);
        let b = s.take(60);
        assert_eq!(b.len(), 60);
        assert!(b.iter().all(|&v| v == 0.0));
        assert_eq!(b.capacity(), cap, "buffer was not reused");
        s.give(b);
        // A larger request recycles the existing allocation (grown once).
        let c = s.take(200);
        assert_eq!(s.free_buffers(), 0);
        s.give(c);
        assert_eq!(s.free_buffers(), 1);
    }

    #[test]
    fn scratch_take_for_overwrite_reuses_without_zeroing() {
        let mut s = Scratch::new();
        let mut a = s.take(100);
        a.fill(7.0);
        let cap = a.capacity();
        s.give(a);
        let b = s.take_for_overwrite(60);
        assert_eq!(b.len(), 60);
        assert_eq!(b.capacity(), cap, "buffer was not reused");
        assert!(b.iter().all(|&v| v == 7.0), "contents were rewritten");
        s.give(b);
        // Extending keeps the old prefix and zero-fills only the growth.
        let c = s.take_for_overwrite(100);
        assert!(c[..60].iter().all(|&v| v == 7.0));
        assert!(c[60..].iter().all(|&v| v == 0.0));
        s.give(c);
        assert!(s.take(100).iter().all(|&v| v == 0.0), "take still zeroes");
    }

    #[test]
    fn scratch_tensor_roundtrip() {
        let mut s = Scratch::new();
        let t = s.tensor([2, 3, 1, 1]);
        assert_eq!(t.shape(), [2, 3, 1, 1]);
        s.recycle(t);
        assert_eq!(s.free_buffers(), 1);
    }
}
