//! SIMD lane parity suite (DESIGN.md §14).
//!
//! The vector kernel tiers in `nn::simd`/`nn::compute` promise **bit-exact**
//! agreement with the preserved naive kernels in `nn::compute::reference`
//! at every lane width: lanes only span disjoint output elements, every
//! element's `k`-reduction stays ascending and one-product-at-a-time, and
//! no FMA contraction is emitted. These tests pin that contract across
//! the places it could break:
//!
//! - lane-remainder shapes (`n % 8`, `n % 16`, `n % 32`, `m % 6`,
//!   `m % 12`, tiny `k`) where the vector path runs partial tiles;
//! - cache-blocking boundaries (`k > KC`, `n > NC`) where packed panels
//!   are stitched back together;
//! - unaligned operands (subslices offset by one element — the kernels
//!   must not assume 32- or 64-byte alignment);
//! - full conv forward/backward through the layer stack, on square and
//!   non-square planes whose widths straddle the 8- and 16-lane segments,
//!   including planes smaller than the kernel;
//! - padding as a product: a convolution whose infinite weights meet the
//!   zero padding must turn NaN exactly where the im2col panel's `+0.0`
//!   would make it NaN, at every tier.
//!
//! Everything runs once per tier — sixteen lanes, eight lanes and scalar,
//! capped via [`nn::simd::set_max_tier`] — inside **one** test body: the
//! cap is process-global, so concurrent `#[test]` threads changing it
//! would race. A tier the CPU (or build) lacks runs at the widest tier
//! below it, so the suite is feature-portable by construction.

use nn::compute::{self, reference};
use nn::{simd, Conv2d, Layer, Tensor};
use rand::prelude::*;

fn filled(rng: &mut StdRng, len: usize) -> Vec<f32> {
    (0..len).map(|_| rng.random::<f32>() * 2.0 - 1.0).collect()
}

/// All three GEMM orientations against their reference twins, bitwise,
/// with operands deliberately offset one element from their allocation so
/// nothing is 32-byte aligned.
fn check_gemm_family(rng: &mut StdRng, m: usize, k: usize, n: usize) {
    let ctx = format!("m={m} k={k} n={n} (tier {:?})", simd::tier());
    let a_buf = filled(rng, m * k + 1);
    let b_buf = filled(rng, k * n + 1);
    let (a, b) = (&a_buf[1..], &b_buf[1..]);
    // C = A·B, accumulating into a non-zero C (the engine adds into C).
    let c_init = filled(rng, m * n + 1);
    let mut c = c_init[1..].to_vec();
    let mut c_ref = c.clone();
    compute::gemm(m, k, n, a, b, &mut c);
    reference::gemm(m, k, n, a, b, &mut c_ref);
    assert_eq!(c, c_ref, "gemm diverged at {ctx}");

    // C = A·Bᵀ with B stored row-major [n × k].
    let bt_buf = filled(rng, n * k + 1);
    let bt = &bt_buf[1..];
    let mut c = c_init[1..].to_vec();
    let mut c_ref = c.clone();
    compute::gemm_a_bt(m, k, n, a, bt, &mut c);
    reference::gemm_a_bt(m, k, n, a, bt, &mut c_ref);
    assert_eq!(c, c_ref, "gemm_a_bt diverged at {ctx}");

    // C = Aᵀ·B with A stored row-major [k × m].
    let at_buf = filled(rng, k * m + 1);
    let at = &at_buf[1..];
    let mut c = c_init[1..].to_vec();
    let mut c_ref = c.clone();
    compute::gemm_at_b(m, k, n, at, b, &mut c);
    reference::gemm_at_b(m, k, n, at, b, &mut c_ref);
    assert_eq!(c, c_ref, "gemm_at_b diverged at {ctx}");
}

/// Conv forward and backward (input/weight/bias gradients) on an `h`×`w`
/// plane against the preserved naive im2col path, bitwise.
fn check_conv(
    rng: &mut StdRng,
    in_c: usize,
    out_c: usize,
    k: usize,
    [h, w]: [usize; 2],
    batch: usize,
) {
    let ctx = format!(
        "conv {in_c}->{out_c} k{k} {h}x{w} batch {batch} (tier {:?})",
        simd::tier()
    );
    let mut conv = Conv2d::new(in_c, out_c, k, 42);
    let mut p = Vec::new();
    conv.visit_params(&mut |pr| p.push(pr.data.clone()));
    let x = Tensor::from_vec([batch, in_c, h, w], filled(rng, batch * in_c * h * w));
    let naive_fwd = reference::conv2d_forward(in_c, out_c, k, &p[0], Some(&p[1]), &x);
    let y = conv.forward(&x, true);
    assert_eq!(naive_fwd.out.data(), y.data(), "forward diverged at {ctx}");

    let grad_out = Tensor::from_vec([batch, out_c, h, w], filled(rng, batch * out_c * h * w));
    let naive_bwd = reference::conv2d_backward(
        in_c,
        out_c,
        k,
        &p[0],
        true,
        &naive_fwd.cols,
        x.shape(),
        &grad_out,
    );
    conv.zero_grad();
    let grad_in = conv.backward(&grad_out);
    assert_eq!(
        naive_bwd.grad_in.data(),
        grad_in.data(),
        "grad_in diverged at {ctx}"
    );
    let mut g = Vec::new();
    conv.visit_params(&mut |pr| g.push(pr.grad.clone()));
    assert_eq!(naive_bwd.weight_grad, g[0], "weight grad diverged at {ctx}");
    assert_eq!(
        naive_bwd.bias_grad.as_deref().unwrap(),
        g[1].as_slice(),
        "bias grad diverged at {ctx}"
    );
}

/// The forward output, input gradient and parameter gradients of one
/// train-mode pass, at the current tier.
fn conv_pass(conv: &Conv2d, x: &Tensor, grad_out: &Tensor) -> Vec<Vec<f32>> {
    let mut conv = conv.clone();
    let y = conv.forward(x, true);
    conv.zero_grad();
    let grad_in = conv.backward(grad_out);
    let mut out = vec![y.data().to_vec(), grad_in.data().to_vec()];
    conv.visit_params(&mut |pr| out.push(pr.grad.clone()));
    out
}

/// Padding is a product, not a skip: weights holding ±inf and NaN, an
/// input holding −0.0 and a gradient holding +inf. An infinite operand
/// times a `+0.0` padding operand is NaN, so an output or gradient that
/// skipped a padding product would differ from one that took it: output
/// channel 0's only non-finite weight is its first tap, which reads
/// padding at the top-left output, and the gradient's +inf sits at that
/// output too. Each vector tier must match the scalar tier with NaN at the
/// same positions and every other element bitwise. (`compute::reference`
/// cannot be the oracle: its GEMMs skip zero `A` elements.)
fn check_padding_products(tiers: &[simd::Tier]) {
    let (in_c, out_c, k, h, w, batch) = (3, 4, 3, 5, 7, 2);
    let q = in_c * k * k;
    let mut rng = StdRng::seed_from_u64(0x9AD0);
    let mut conv = Conv2d::new(in_c, out_c, k, 9);
    conv.visit_params(&mut |pr| {
        if pr.data.len() == out_c * q {
            pr.data[0] = f32::INFINITY;
            pr.data[q + 4] = f32::NEG_INFINITY;
            pr.data[2 * q + 8] = f32::NAN;
            pr.data[out_c * q - 1] = f32::INFINITY;
        }
    });
    let mut xs = filled(&mut rng, batch * in_c * h * w);
    for v in xs.iter_mut().step_by(3) {
        *v = -0.0;
    }
    let x = Tensor::from_vec([batch, in_c, h, w], xs);
    let mut gs = filled(&mut rng, batch * out_c * h * w);
    gs[0] = f32::INFINITY;
    gs[w + 1] = -0.0;
    let grad_out = Tensor::from_vec([batch, out_c, h, w], gs);

    let saved = simd::max_tier();
    simd::set_max_tier(simd::Tier::Scalar);
    let scalar = conv_pass(&conv, &x, &grad_out);
    let names = ["forward", "grad_in", "weight grad", "bias grad"];
    assert!(
        scalar[0][0].is_nan() && scalar[2][0].is_nan(),
        "inf × padding must be NaN in the output and the weight gradient"
    );
    for &tier in tiers {
        simd::set_max_tier(tier);
        let lanes = conv_pass(&conv, &x, &grad_out);
        for ((name, got), want) in names.iter().zip(&lanes).zip(&scalar) {
            assert_eq!(got.len(), want.len());
            for (i, (a, b)) in got.iter().zip(want).enumerate() {
                assert!(
                    if b.is_nan() {
                        a.is_nan()
                    } else {
                        a.to_bits() == b.to_bits()
                    },
                    "{name}[{i}] at tier {:?}: {a:?} vs scalar {b:?}",
                    simd::tier()
                );
            }
        }
    }
    simd::set_max_tier(saved);
}

#[test]
fn simd_and_scalar_kernels_are_bit_identical_to_reference() {
    let saved = simd::max_tier();
    for tier in [simd::Tier::Avx512, simd::Tier::Avx, simd::Tier::Scalar] {
        simd::set_max_tier(tier);
        let mut rng = StdRng::seed_from_u64(0x51_3D ^ tier as u64);
        // The 16-lane tile's edges: one, partial and ragged multiples of
        // its 12 rows and 32 columns (and of the 8-lane tile's 6 and 16),
        // with k starting, filling and crossing a KC=256 panel.
        for &m in &[1usize, 6, 7, 11, 12, 13, 25, 300] {
            for &k in &[12usize, 256, 257, 300] {
                for &n in &[12usize, 16, 31, 32, 33, 300] {
                    check_gemm_family(&mut rng, m, k, n);
                }
            }
        }
        // Degenerate and lane-remainder shapes: every combination of a
        // full/partial 6-row tile (one, two, and ragged multiples), full/
        // partial 8- and 16-column tiles, and k values that start,
        // straddle, or fill a KC panel.
        for &m in &[1usize, 3, 4, 5, 6, 7, 9, 12, 13] {
            for &k in &[1usize, 7, 16, 17] {
                for &n in &[1usize, 7, 8, 15, 16, 17, 31, 33] {
                    check_gemm_family(&mut rng, m, k, n);
                }
            }
        }
        // Cache-blocking boundaries: k crossing KC=256, n crossing
        // NC=1024, both with ragged remainders.
        check_gemm_family(&mut rng, 9, 300, 68);
        check_gemm_family(&mut rng, 5, 37, 1050);
        // A paper-tile shape: the im2col panel of one 5×5 residual-block
        // convolution row-block at C=256 on the 32×32 grid has k=6400,
        // n=1024; this keeps the same ragged geometry at test-budget size.
        check_gemm_family(&mut rng, 12, 403, 260);
        // The small(16) Q-network's exact backward products (batch 1):
        // column gradients `gemm_at_b` of the 5×5 block and 3×3 stem
        // convolutions, weight gradients `gemm_a_bt` of the 5×5 block and
        // the 1×1 head and output convolutions.
        for &(m, k, n) in &[
            (300usize, 12usize, 256usize),
            (36, 12, 256),
            (12, 256, 300),
            (12, 256, 12),
            (4, 256, 12),
        ] {
            check_gemm_family(&mut rng, m, k, n);
        }
        // 1×1 convs reduce to plain GEMM with k = in_c.
        for &(in_c, out_c, kk, h, batch) in &[
            (4usize, 8usize, 3usize, 8usize, 2usize),
            (8, 8, 5, 8, 1),
            (8, 4, 1, 8, 3),
            (12, 12, 5, 16, 2),
            (3, 5, 1, 7, 1), // odd everything
            (2, 3, 5, 2, 2), // a plane smaller than the kernel: padding-only taps
        ] {
            check_conv(&mut rng, in_c, out_c, kk, [h, h], batch);
        }
        // Non-square planes, widths around the 8- and 16-lane segment
        // edges (one, partial, full and ragged multiples), every kernel
        // size — planes down to one row, smaller than the kernel — and
        // channel counts of one, a partial tile, a full 12-row tile and
        // one past it.
        let heights = [1usize, 2, 3, 6];
        let channels = [1usize, 4, 12, 13];
        for (wi, &w) in [1usize, 2, 3, 7, 8, 9, 15, 16, 17, 31, 32, 33]
            .iter()
            .enumerate()
        {
            for &kk in &[1usize, 3, 5] {
                for (ci, &in_c) in channels.iter().enumerate() {
                    for (oi, &out_c) in channels.iter().enumerate() {
                        let h = heights[(wi + ci + oi) % heights.len()];
                        let batch = 1 + 2 * ((wi + kk + ci + oi) % 2);
                        check_conv(&mut rng, in_c, out_c, kk, [h, w], batch);
                    }
                }
            }
        }
    }
    simd::set_max_tier(saved);
    check_padding_products(&[simd::Tier::Avx512, simd::Tier::Avx]);
}

#[test]
fn dispatch_reports_are_consistent() {
    // `enabled()` may only be true when the lane code is compiled in; on
    // x86-64 with the default feature it should actually engage.
    if simd::enabled() {
        assert!(simd::compiled());
    }
    assert!(simd::tier() <= simd::cpu_tier());
    #[cfg(all(feature = "simd", target_arch = "x86_64"))]
    assert!(simd::compiled());
    #[cfg(not(feature = "simd"))]
    assert!(!simd::compiled() && !simd::enabled() && simd::cpu_tier() == simd::Tier::Scalar);
}
