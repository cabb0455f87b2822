//! SIMD lane parity suite (DESIGN.md §14).
//!
//! The vector kernel tiers in `nn::simd`/`nn::compute` promise **bit-exact**
//! agreement with the preserved naive convolution in
//! `nn::compute::reference` at every lane width: lanes only span disjoint
//! output elements, every element's reduction keeps its order and adds
//! one product at a time, and no FMA contraction is emitted. These tests
//! pin that contract across the places it could break, through the conv
//! layer's forward, input gradient and weight gradient:
//!
//! - lane-remainder shapes: square and non-square planes whose widths
//!   straddle the 8- and 16-lane segments, including planes smaller than
//!   the kernel, and channel counts that leave partial 6- and 12-row
//!   tiles;
//! - the forward's `KC = 256` tap blocking (13 channels under a 5×5
//!   kernel are 325 taps) and the weight gradient's ragged transposed
//!   panels;
//! - unaligned operands: a tap's view starts at every offset of the
//!   padded plane, so the kernels must not assume 32- or 64-byte
//!   alignment;
//! - padding as a product: a convolution whose infinite weights meet the
//!   zero padding must turn NaN exactly where the im2col panel's `+0.0`
//!   would make it NaN, at every tier.
//!
//! Everything runs once per tier — sixteen lanes, eight lanes and scalar,
//! capped via [`nn::simd::set_max_tier`] — inside **one** test body: the
//! cap is process-global, so concurrent `#[test]` threads changing it
//! would race. A tier the CPU (or target) lacks runs at the widest tier
//! below it, so the suite is portable by construction.

use nn::compute::reference;
use nn::{simd, Conv2d, Layer, Tensor};
use rand::prelude::*;

fn filled(rng: &mut StdRng, len: usize) -> Vec<f32> {
    (0..len).map(|_| rng.random::<f32>() * 2.0 - 1.0).collect()
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
        // Q-network shapes, and 1×1 convs: a dense product with k = in_c.
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
    // The vector tiers are compiled into every x86-64 build, and `enabled()`
    // may only be true where they are.
    assert_eq!(simd::compiled(), cfg!(target_arch = "x86_64"));
    if simd::enabled() {
        assert!(simd::compiled());
    }
    assert!(simd::tier() <= simd::cpu_tier());
    if !simd::compiled() {
        assert_eq!(simd::cpu_tier(), simd::Tier::Scalar);
    }
}
