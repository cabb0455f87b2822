//! Thread-count determinism suite (DESIGN.md §11).
//!
//! The compute engine's fixed per-element reduction order promises that
//! multi-threaded forwards/backwards are **bit-identical across runs and
//! across thread counts** — the guarantee the whole checkpoint/resume
//! story leans on. This lives in its own test binary (not `parity.rs`)
//! because it mutates the global `nn::compute` thread budget, and a
//! separate process keeps that mutation from racing the other suites'
//! thread settings. CI runs it under `PREFIXRL_NN_THREADS=1` and `=4`
//! (the `nn-parity` job).

use nn::compute::{self, Scratch};
use nn::{Conv2d, Layer, Tensor};
use rand::prelude::*;

/// The same Q-network layer shapes the parity suite sweeps.
const QNET_SHAPES: &[(usize, usize, usize, usize)] = &[
    (4, 8, 3, 8),
    (8, 8, 5, 8),
    (8, 8, 1, 8),
    (8, 4, 1, 8),
    (4, 12, 3, 16),
    (12, 12, 5, 16),
    (12, 12, 1, 16),
    (12, 4, 1, 16),
];

fn random_tensor(rng: &mut StdRng, shape: [usize; 4]) -> Tensor {
    let volume: usize = shape.iter().product();
    Tensor::from_vec(
        shape,
        (0..volume)
            .map(|_| rng.random::<f32>() * 2.0 - 1.0)
            .collect(),
    )
}

fn grads(layer: &mut dyn Layer) -> Vec<Vec<f32>> {
    let mut out = Vec::new();
    layer.visit_params(&mut |p| out.push(p.grad.clone()));
    out
}

#[test]
fn multithreaded_passes_are_bit_identical_across_runs_and_thread_counts() {
    let mut rng = StdRng::seed_from_u64(14);
    let before = compute::threads();
    for &(in_c, out_c, k, h) in QNET_SHAPES {
        let batch = 6;
        let x = random_tensor(&mut rng, [batch, in_c, h, h]);
        let grad_out = random_tensor(&mut rng, [batch, out_c, h, h]);
        let run = |threads: usize| {
            compute::set_threads(threads);
            let mut conv = Conv2d::new(in_c, out_c, k, 45);
            let mut scratch = Scratch::new();
            let y = conv.forward_with(&x, true, &mut scratch);
            conv.zero_grad();
            let gin = conv.backward_with(&grad_out, &mut scratch);
            let infer = conv.infer(&x, &mut scratch);
            (
                y.data().to_vec(),
                gin.data().to_vec(),
                grads(&mut conv),
                infer.data().to_vec(),
            )
        };
        let base = run(1);
        let rerun = run(1);
        assert_eq!(base, rerun, "single-thread rerun diverged at k{k} h{h}");
        for threads in [2, 4] {
            let mt = run(threads);
            assert_eq!(
                base, mt,
                "{threads}-thread pass diverged from single-thread at \
                 {in_c}->{out_c} k{k} h{h}"
            );
        }
    }
    compute::set_threads(before);
}

#[test]
fn batch_one_row_panel_path_is_bit_identical() {
    // A lone sample splits its output-channel rows across workers instead
    // of partitioning samples; it must agree with the serial result too.
    let mut rng = StdRng::seed_from_u64(15);
    let x = random_tensor(&mut rng, [1, 12, 16, 16]);
    let run = |threads: usize| {
        compute::set_threads(threads);
        let mut conv = Conv2d::new(12, 12, 5, 46);
        conv.forward(&x, true).data().to_vec()
    };
    let before = compute::threads();
    let serial = run(1);
    for threads in [2, 4, 8] {
        assert_eq!(
            serial,
            run(threads),
            "batch-1 diverged at {threads} threads"
        );
    }
    compute::set_threads(before);
}
