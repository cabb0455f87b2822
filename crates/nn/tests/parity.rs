//! Kernel-generation parity suite (DESIGN.md §11).
//!
//! The blocked compute engine replaced the original naive per-layer loops;
//! these tests pin the contract that made that swap safe:
//!
//! - **Bit-exact forward/backward parity** with the preserved naive
//!   implementation (the seed repo's original im2col/GEMM path, kept in
//!   `nn::compute::reference`) across every layer shape used by
//!   `QNetConfig::{tiny, small}`, for the training forward and backward
//!   and for `Layer::infer` through an arena that earlier passes left
//!   dirty.
//!
//! CI runs this suite at every SIMD tier (the `nn-parity` job).

use nn::compute::{reference, Scratch};
use nn::{BatchNorm2d, Conv2d, Layer, Tensor};
use rand::prelude::*;

/// Every `(in_c, out_c, k, h)` convolution shape instantiated by
/// `QNetConfig::tiny(8)` (C=8 on 8×8 grids) and `QNetConfig::small(16)`
/// (C=12 on 16×16 grids): stem 3×3, residual 5×5 pairs, head 1×1 and
/// output 1×1; plus the stem and 5×5 shapes of the small net on the 32b
/// adder's 32×32 grid, whose rows span two 16-lane segments.
const QNET_SHAPES: &[(usize, usize, usize, usize)] = &[
    // tiny(8): C=8, N=8.
    (4, 8, 3, 8),
    (8, 8, 5, 8),
    (8, 8, 1, 8),
    (8, 4, 1, 8),
    // small(16): C=12, N=16.
    (4, 12, 3, 16),
    (12, 12, 5, 16),
    (12, 12, 1, 16),
    (12, 4, 1, 16),
    // small(32): C=12, N=32.
    (4, 12, 3, 32),
    (12, 12, 5, 32),
];

/// Batch sizes to sweep: single rollout states and a replay mini-batch.
const BATCHES: &[usize] = &[1, 5];

fn random_tensor(rng: &mut StdRng, shape: [usize; 4]) -> Tensor {
    let volume: usize = shape.iter().product();
    Tensor::from_vec(
        shape,
        (0..volume)
            .map(|_| rng.random::<f32>() * 2.0 - 1.0)
            .collect(),
    )
}

/// Parameter tensors (weight, then bias if present) of a layer.
fn params(layer: &mut dyn Layer) -> Vec<Vec<f32>> {
    let mut out = Vec::new();
    layer.visit_params(&mut |p| out.push(p.data.clone()));
    out
}

/// Accumulated parameter gradients of a layer.
fn grads(layer: &mut dyn Layer) -> Vec<Vec<f32>> {
    let mut out = Vec::new();
    layer.visit_params(&mut |p| out.push(p.grad.clone()));
    out
}

// ----------------------------------------------------------------- tests

#[test]
fn forward_parity_is_bitwise_on_all_qnet_shapes() {
    let mut rng = StdRng::seed_from_u64(11);
    // One arena serves every pass: `infer` pads into a buffer taken
    // without zeroing, which earlier shapes' outputs and planes left
    // dirty, so a plane element that padding failed to write would diverge.
    let mut scratch = Scratch::new();
    for &(in_c, out_c, k, h) in QNET_SHAPES {
        for &batch in BATCHES {
            let mut conv = Conv2d::new(in_c, out_c, k, 42);
            let p = params(&mut conv);
            let x = random_tensor(&mut rng, [batch, in_c, h, h]);
            let naive = reference::conv2d_forward(in_c, out_c, k, &p[0], Some(&p[1]), &x);
            let y = conv.forward_with(&x, true, &mut scratch);
            assert_eq!(
                naive.out.data(),
                y.data(),
                "forward diverged at {in_c}->{out_c} k{k} h{h} batch {batch}"
            );
            scratch.recycle(y);
            let y = conv.infer(&x, &mut scratch);
            assert_eq!(
                naive.out.data(),
                y.data(),
                "infer diverged at {in_c}->{out_c} k{k} h{h} batch {batch}"
            );
            scratch.recycle(y);
        }
    }
}

#[test]
fn backward_parity_is_bitwise_on_all_qnet_shapes() {
    let mut rng = StdRng::seed_from_u64(12);
    for &(in_c, out_c, k, h) in QNET_SHAPES {
        for &batch in BATCHES {
            let mut conv = Conv2d::new(in_c, out_c, k, 43);
            let p = params(&mut conv);
            let x = random_tensor(&mut rng, [batch, in_c, h, h]);
            let naive_fwd = reference::conv2d_forward(in_c, out_c, k, &p[0], Some(&p[1]), &x);
            let grad_out = random_tensor(&mut rng, [batch, out_c, h, h]);
            let naive = reference::conv2d_backward(
                in_c,
                out_c,
                k,
                &p[0],
                true,
                &naive_fwd.cols,
                x.shape(),
                &grad_out,
            );
            conv.forward(&x, true);
            conv.zero_grad();
            let grad_in = conv.backward(&grad_out);
            assert_eq!(
                naive.grad_in.data(),
                grad_in.data(),
                "grad_in diverged at {in_c}->{out_c} k{k} h{h} batch {batch}"
            );
            let g = grads(&mut conv);
            assert_eq!(
                naive.weight_grad, g[0],
                "weight grad diverged at {in_c}->{out_c} k{k} h{h} batch {batch}"
            );
            assert_eq!(
                naive.bias_grad.as_deref().unwrap(),
                g[1].as_slice(),
                "bias grad diverged at {in_c}->{out_c} k{k} h{h} batch {batch}"
            );
        }
    }
}

#[test]
fn gradcheck_through_a_shared_scratch_arena() {
    // Satellite: the gradient checker itself must exercise the
    // scratch-arena backward path. One arena serves every probe of every
    // layer here; stale-buffer bugs would show up as gradient error.
    let mut scratch = Scratch::new();
    let conv_err = nn::gradcheck::check_layer_with(
        Box::new(Conv2d::new(2, 3, 3, 7)),
        [2, 2, 4, 4],
        19,
        &mut scratch,
    );
    assert!(conv_err < 3e-2, "conv via shared scratch: {conv_err}");
    let bn_err = nn::gradcheck::check_layer_with(
        Box::new(BatchNorm2d::new(3)),
        [2, 3, 3, 3],
        23,
        &mut scratch,
    );
    assert!(bn_err < 3e-2, "batchnorm via shared scratch: {bn_err}");
    let dense_err = nn::gradcheck::check_layer_with(
        Box::new(Conv2d::new(6, 4, 1, 2)),
        [3, 6, 1, 1],
        29,
        &mut scratch,
    );
    assert!(dense_err < 2e-2, "1x1 conv via shared scratch: {dense_err}");
    assert!(
        scratch.free_buffers() > 0,
        "the shared arena never recycled a buffer"
    );
}
