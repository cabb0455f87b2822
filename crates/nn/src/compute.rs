//! The shared compute engine: blocked GEMM kernels, implicit-GEMM
//! convolutions, the scoped-thread [`ThreadPool`], and the zero-allocation
//! [`Scratch`] arena (DESIGN.md §11).
//!
//! Every matrix product in this crate routes through the three GEMMs
//! ([`gemm`], [`gemm_a_bt`], [`gemm_at_b`]) or the three convolution passes
//! ([`conv_forward`], [`conv_input_grad`], [`conv_weight_grad`]), which
//! read a zero-padded input plane in place of an im2col panel. They are
//! register-tiled (`MR`-row accumulator tiles) and cache-blocked
//! (`KC`/`NC` panels). Every product, at every tier, runs on one shared
//! microkernel (the `tile` submodule), at eight or sixteen lanes by
//! [`crate::simd::tier`] on an x86-64 CPU with AVX, and on portable
//! eight-float lanes otherwise. All keep one hard invariant: **every output element
//! accumulates its products in ascending-`k` order, one product at a
//! time** — exactly the order of the scalar reference kernels in
//! [`reference`]. Floating-point addition is not associative, so this
//! fixed reduction order is what makes results bit-identical across kernel
//! generations, SIMD on or off, *and* across thread counts: vector lanes
//! only ever span independent output columns (never a reduction), and
//! parallelism only ever partitions disjoint output rows (or samples)
//! between workers.
//!
//! Threading is opt-in and global: [`set_threads`] (or the
//! `PREFIXRL_NN_THREADS` environment variable) picks the worker budget,
//! layers split work into contiguous panels via [`partition`], and
//! [`ThreadPool::run`] executes one closure per panel on `std::thread`
//! scoped threads. The default is one thread — deterministic by
//! construction, and the right choice inside already-parallel callers
//! (actor threads, sweep workers).

use crate::tensor::Tensor;
use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

// ------------------------------------------------------------- thread pool

fn global_threads() -> &'static AtomicUsize {
    static THREADS: OnceLock<AtomicUsize> = OnceLock::new();
    THREADS.get_or_init(|| {
        let from_env = std::env::var("PREFIXRL_NN_THREADS")
            .ok()
            .and_then(|s| s.parse::<usize>().ok())
            .filter(|&t| t >= 1);
        AtomicUsize::new(from_env.unwrap_or(1))
    })
}

/// The global compute thread budget (defaults to 1, or
/// `PREFIXRL_NN_THREADS` when set).
pub fn threads() -> usize {
    global_threads().load(Ordering::Relaxed)
}

/// Sets the global compute thread budget (clamped to ≥ 1). Results are
/// bit-identical for every setting; only wall-clock changes.
pub fn set_threads(t: usize) {
    global_threads().store(t.max(1), Ordering::Relaxed);
}

/// A scoped-thread worker pool of fixed width.
///
/// The pool owns no long-lived threads: [`ThreadPool::run`] spawns its
/// workers inside a `std::thread::scope`, so jobs may borrow from the
/// caller's stack (disjoint `&mut` panels of one tensor, per-worker scratch
/// buffers) without any `'static` gymnastics, and every worker has joined
/// when `run` returns.
#[derive(Clone, Copy, Debug)]
pub struct ThreadPool {
    threads: usize,
}

impl ThreadPool {
    /// A pool of explicit width (clamped to ≥ 1).
    pub fn new(threads: usize) -> Self {
        ThreadPool {
            threads: threads.max(1),
        }
    }

    /// The pool matching the global [`threads`] setting.
    pub fn global() -> Self {
        Self::new(threads())
    }

    /// A single-threaded pool (for use inside already-parallel callers).
    pub fn serial() -> Self {
        Self::new(1)
    }

    /// Worker budget.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Runs one job per element of `jobs`, the last on the calling thread
    /// and the rest on scoped threads. Callers build one job per panel of
    /// a [`partition`]; jobs must touch disjoint data.
    pub fn run<F: FnOnce() + Send>(&self, jobs: Vec<F>) {
        let mut jobs = jobs;
        let Some(last) = jobs.pop() else {
            return;
        };
        if jobs.is_empty() {
            last();
            return;
        }
        std::thread::scope(|s| {
            for job in jobs {
                s.spawn(job);
            }
            last();
        });
    }
}

/// Splits `0..tasks` into at most `parts` contiguous, near-equal ranges
/// (empty ranges are dropped). Deterministic: depends only on the two
/// arguments, so a fixed thread count always produces the same panels.
pub fn partition(tasks: usize, parts: usize) -> Vec<Range<usize>> {
    let parts = parts.max(1).min(tasks.max(1));
    let base = tasks / parts;
    let extra = tasks % parts;
    let mut out = Vec::with_capacity(parts);
    let mut start = 0;
    for p in 0..parts {
        let len = base + usize::from(p < extra);
        if len == 0 {
            continue;
        }
        out.push(start..start + len);
        start += len;
    }
    out
}

/// Splits `0..rows` into at most `parts` contiguous row panels for the
/// products: each boundary is the even split rounded to the nearest
/// multiple of the tile height, so every panel starts on a tile boundary
/// and only the panel that reaches `rows` can end in a partial tile.
pub(crate) fn partition_rows(rows: usize, parts: usize) -> Vec<Range<usize>> {
    let parts = parts.max(1);
    let boundary = |i: usize| ((i * rows / parts + MR / 2) / MR * MR).min(rows);
    (0..parts)
        .map(|i| {
            boundary(i)..if i + 1 == parts {
                rows
            } else {
                boundary(i + 1)
            }
        })
        .filter(|r| !r.is_empty())
        .collect()
}

/// Minimum useful work (in multiply-add flops) per extra worker thread.
///
/// Spawning a scoped thread plus the partitioning bookkeeping costs on the
/// order of 10µs; below ~256k flops of work per worker that overhead
/// exceeds the compute it offloads, which is exactly the regression
/// BENCH_nn.json showed at tiny/small configs (2/4-thread rows slower
/// than 1). The floor is deliberately coarse — it only needs to separate
/// "paper-scale panels" from "toy panels".
pub const MIN_FLOPS_PER_WORKER: usize = 1 << 18;

/// The number of workers actually worth using for `flops` of arithmetic:
/// `threads` capped so every worker gets at least
/// [`MIN_FLOPS_PER_WORKER`], and never less than one.
///
/// Using fewer workers than the configured budget never changes results —
/// partitioning is over disjoint outputs — so layers call this to fall
/// back to serial (or narrower) execution on small batches where thread
/// spawn overhead would dominate.
pub fn plan_workers(threads: usize, flops: usize) -> usize {
    threads.min(flops / MIN_FLOPS_PER_WORKER).max(1)
}

/// Splits one buffer into consecutive disjoint `&mut` chunks of the given
/// sizes (for handing panels to pool workers).
///
/// # Panics
///
/// Panics if the sizes overrun the buffer.
pub fn split_by_sizes<'a>(mut buf: &'a mut [f32], sizes: &[usize]) -> Vec<&'a mut [f32]> {
    let mut out = Vec::with_capacity(sizes.len());
    for &len in sizes {
        let (head, tail) = buf.split_at_mut(len);
        out.push(head);
        buf = tail;
    }
    out
}

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
        let idx = self.free.partition_point(|b| b.capacity() < len);
        let mut buf = if idx < self.free.len() {
            self.free.remove(idx)
        } else {
            // No free buffer fits; recycle the largest (its allocation
            // grows once and then serves all future takes of this size).
            self.free.pop().unwrap_or_default()
        };
        buf.clear();
        buf.resize(len, 0.0);
        buf
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

use tile::{Runs, Stride, Strided};

/// The multiple row-parallel panels split on: the 8-lane and scalar
/// tiles' height (the 16-lane tile is twice it, so panel boundaries fall
/// on its half-tiles).
pub(crate) const MR: usize = 6;
/// k-panel (cache block) for kernels whose accumulators live in `c`.
const KC: usize = 256;
/// Column panel (cache block).
const NC: usize = 1024;

/// `C[m,n] += A[m,k] · B[k,n]`, all row-major.
///
/// Bit-identical to [`reference::gemm`]: each `C[i,j]` receives its `k`
/// products one at a time in ascending-`k` order. Every tile, ragged edges
/// included, runs on the microkernel at the widest width
/// [`crate::simd::tier`] allows — lanes span output columns, so the
/// per-element order is untouched.
///
/// # Panics
///
/// Panics if a slice is shorter than its `m`/`k`/`n` extent.
pub fn gemm(m: usize, k: usize, n: usize, a: &[f32], b: &[f32], c: &mut [f32]) {
    assert!(a.len() >= m * k && b.len() >= k * n && c.len() >= m * n);
    let a = Strided {
        ptr: a.as_ptr(),
        rs: k,
        ks: 1,
    };
    // SAFETY: the lengths were asserted above.
    unsafe { tile::accumulate_at(m, k, n, a, b, c) }
}

/// `C[m,n] += A[m,k] · Bᵀ` where `B` is `[n,k]` row-major.
///
/// Bit-identical to [`reference::gemm_a_bt`]: each element's dot product
/// accumulates from zero in ascending-`k` order and is then added to `C`
/// once — so the full `k` extent stays in the register tile (no k-panel
/// blocking, which would split that single add). Sixteen (at sixteen
/// lanes) or eight `B` rows at a time are transposed into a `k`-row panel
/// that the microkernel runs in its dot-then-add mode (DESIGN.md §14).
///
/// # Panics
///
/// Panics if a slice is shorter than its `m`/`k`/`n` extent.
pub fn gemm_a_bt(m: usize, k: usize, n: usize, a: &[f32], b: &[f32], c: &mut [f32]) {
    assert!(a.len() >= m * k && b.len() >= n * k && c.len() >= m * n);
    let a = Strided {
        ptr: a.as_ptr(),
        rs: k,
        ks: 1,
    };
    // Each row of `B` is one run of `k` floats.
    let runs = Runs {
        count: 1,
        len: k,
        stride: 0,
    };
    // SAFETY: the lengths were asserted above.
    unsafe { tile::dot_then_add_at(m, n, a, b.as_ptr(), Stride(k), runs, c.as_mut_ptr(), n) }
}

/// `C[m,n] += Aᵀ · B` where `A` is `[k,m]` and `B` is `[k,n]`, row-major.
///
/// Bit-identical to [`reference::gemm_at_b`]: each product is added
/// directly into its `C` element in ascending-`k` order. It is [`gemm`]'s
/// register tile reading `A` k-major (row stride 1, k stride `m`), so each
/// `C` tile is loaded and stored once per k-block instead of once per `k`
/// as in the axpy form of the reference.
///
/// # Panics
///
/// Panics if a slice is shorter than its `m`/`k`/`n` extent.
pub fn gemm_at_b(m: usize, k: usize, n: usize, a: &[f32], b: &[f32], c: &mut [f32]) {
    assert!(a.len() >= k * m && b.len() >= k * n && c.len() >= m * n);
    let a = Strided {
        ptr: a.as_ptr(),
        rs: 1,
        ks: m,
    };
    // SAFETY: the lengths were asserted above.
    unsafe { tile::accumulate_at(m, k, n, a, b, c) }
}

// -------------------------------------------------------------- reference

/// The scalar reference kernels and the original convolution built on
/// them, preserved verbatim as the bit-exactness oracle for the parity
/// suite and the single-thread baseline for the `nn_throughput`
/// benchmark.
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
    use rand::prelude::*;

    fn randv(rng: &mut StdRng, len: usize) -> Vec<f32> {
        (0..len).map(|_| rng.random::<f32>() * 2.0 - 1.0).collect()
    }

    #[test]
    fn gemm_matches_reference_bitwise() {
        let mut rng = StdRng::seed_from_u64(1);
        for &(m, k, n) in &[
            (1, 1, 1),
            (3, 5, 7),
            (4, 8, 8),
            (13, 300, 257),
            (12, 100, 64),
        ] {
            let a = randv(&mut rng, m * k);
            let b = randv(&mut rng, k * n);
            let mut c0 = randv(&mut rng, m * n);
            let mut c1 = c0.clone();
            reference::gemm(m, k, n, &a, &b, &mut c0);
            gemm(m, k, n, &a, &b, &mut c1);
            assert_eq!(c0, c1, "gemm mismatch at {m}x{k}x{n}");
        }
    }

    #[test]
    fn gemm_a_bt_matches_reference_bitwise() {
        let mut rng = StdRng::seed_from_u64(2);
        for &(m, k, n) in &[(1, 1, 1), (5, 9, 3), (8, 64, 12), (7, 600, 75)] {
            let a = randv(&mut rng, m * k);
            let b = randv(&mut rng, n * k);
            let mut c0 = randv(&mut rng, m * n);
            let mut c1 = c0.clone();
            reference::gemm_a_bt(m, k, n, &a, &b, &mut c0);
            gemm_a_bt(m, k, n, &a, &b, &mut c1);
            assert_eq!(c0, c1, "gemm_a_bt mismatch at {m}x{k}x{n}");
        }
    }

    #[test]
    fn gemm_at_b_matches_reference_bitwise() {
        let mut rng = StdRng::seed_from_u64(3);
        for &(m, k, n) in &[(1, 1, 1), (9, 4, 6), (300, 12, 64), (75, 600, 9)] {
            let a = randv(&mut rng, k * m);
            let b = randv(&mut rng, k * n);
            let mut c0 = randv(&mut rng, m * n);
            let mut c1 = c0.clone();
            reference::gemm_at_b(m, k, n, &a, &b, &mut c0);
            gemm_at_b(m, k, n, &a, &b, &mut c1);
            assert_eq!(c0, c1, "gemm_at_b mismatch at {m}x{k}x{n}");
        }
    }

    #[test]
    fn plan_workers_floors_small_work() {
        // Tiny products run serial regardless of the configured budget.
        assert_eq!(plan_workers(8, 0), 1);
        assert_eq!(plan_workers(8, MIN_FLOPS_PER_WORKER - 1), 1);
        // Each extra worker requires another MIN_FLOPS_PER_WORKER of work.
        assert_eq!(plan_workers(8, 3 * MIN_FLOPS_PER_WORKER), 3);
        // Big work saturates at the configured budget.
        assert_eq!(plan_workers(4, 100 * MIN_FLOPS_PER_WORKER), 4);
        assert_eq!(plan_workers(1, usize::MAX), 1);
    }

    #[test]
    fn partition_covers_everything_contiguously() {
        for tasks in 0..40 {
            for parts in 1..9 {
                let ranges = partition(tasks, parts);
                let mut expect = 0;
                for r in &ranges {
                    assert_eq!(r.start, expect);
                    assert!(!r.is_empty());
                    expect = r.end;
                }
                assert_eq!(expect, tasks);
                assert!(ranges.len() <= parts);
            }
        }
    }

    #[test]
    fn row_partitions_split_on_tile_boundaries() {
        for rows in 0..40 {
            for parts in 1..9 {
                let ranges = partition_rows(rows, parts);
                let mut expect = 0;
                for r in &ranges {
                    assert_eq!(r.start, expect);
                    assert!(!r.is_empty());
                    assert_eq!(r.start % MR, 0, "{rows} rows / {parts}: {ranges:?}");
                    expect = r.end;
                }
                assert_eq!(expect, rows);
                assert!(ranges.len() <= parts);
                // Only the panel that reaches `rows` may be ragged.
                for r in ranges.iter().filter(|r| r.end < rows) {
                    assert_eq!(r.len() % MR, 0, "{rows} rows / {parts}: {ranges:?}");
                }
            }
        }
        // The Q-network's 12 output channels split into two full tiles;
        // the paper-scale 256 rows into 21 tiles and 21⅔.
        assert_eq!(partition_rows(12, 2), vec![0..6, 6..12]);
        assert_eq!(partition_rows(256, 2), vec![0..126, 126..256]);
    }

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
    fn scratch_tensor_roundtrip() {
        let mut s = Scratch::new();
        let t = s.tensor([2, 3, 1, 1]);
        assert_eq!(t.shape(), [2, 3, 1, 1]);
        s.recycle(t);
        assert_eq!(s.free_buffers(), 1);
    }

    #[test]
    fn pool_runs_all_jobs() {
        let done: Vec<AtomicUsize> = (0..5).map(|_| AtomicUsize::new(0)).collect();
        let jobs: Vec<_> = done
            .iter()
            .map(|d| {
                move || {
                    d.fetch_add(1, Ordering::Relaxed);
                }
            })
            .collect();
        ThreadPool::new(3).run(jobs);
        assert!(done.iter().all(|d| d.load(Ordering::Relaxed) == 1));
    }
}
