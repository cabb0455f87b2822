//! Finite-difference gradient checking.
//!
//! The property-test backbone of this crate: every layer's analytic
//! gradients (both input and parameter gradients) are compared against
//! central finite differences of a random linear functional of the output.

use crate::compute::Scratch;
use crate::layers::Layer;
use crate::tensor::Tensor;
use rand::prelude::*;

/// Checks a layer's gradients against finite differences.
///
/// Builds a random input of `shape` and a random projection `r`, defines the
/// scalar loss `L = Σ r ⊙ layer(x)`, and compares analytic `∂L/∂x` and
/// `∂L/∂θ` with central differences. Returns the maximum relative error.
///
/// The training forward is probed, so stochastic-free layers (everything
/// in this crate) are exactly checkable. All passes run with a
/// private [`Scratch`] arena; use [`check_layer_with`] to supply (and
/// stress) an external one.
pub fn check_layer(layer: Box<dyn Layer>, shape: [usize; 4], seed: u64) -> f32 {
    check_layer_with(layer, shape, seed, &mut Scratch::new())
}

/// [`check_layer`] running every forward and backward probe through the
/// caller's [`Scratch`] arena — hundreds of passes over one small free
/// list, so buffer-recycling bugs (stale contents, wrong sizes) surface as
/// gradient errors here.
pub fn check_layer_with(
    mut layer: Box<dyn Layer>,
    shape: [usize; 4],
    seed: u64,
    scratch: &mut Scratch,
) -> f32 {
    let mut rng = StdRng::seed_from_u64(seed);
    let volume: usize = shape.iter().product();
    let x = Tensor::from_vec(
        shape,
        (0..volume)
            .map(|_| rng.random::<f32>() * 2.0 - 1.0)
            .collect(),
    );
    let out = layer.forward_with(&x, scratch);
    let r: Vec<f32> = (0..out.len())
        .map(|_| rng.random::<f32>() * 2.0 - 1.0)
        .collect();

    // Analytic gradients.
    layer.zero_grad();
    let grad_out = Tensor::from_vec(out.shape(), r.clone());
    scratch.recycle(out);
    let grad_in = layer.backward_with(&grad_out, scratch);
    let mut param_grads: Vec<Vec<f32>> = Vec::new();
    layer.visit_params(&mut |p| param_grads.push(p.grad.clone()));

    let loss = |layer: &mut dyn Layer, x: &Tensor, r: &[f32], scratch: &mut Scratch| -> f64 {
        let y = layer.forward_with(x, scratch);
        let l = y
            .data()
            .iter()
            .zip(r)
            .map(|(&a, &b)| a as f64 * b as f64)
            .sum();
        scratch.recycle(y);
        l
    };

    const EPS: f32 = 1e-2;
    let mut max_err = 0.0f32;
    // Piecewise-linear activations (LeakyReLU) make the loss non-smooth at
    // kinks, where finite differences are meaningless. Each probe therefore
    // computes the numeric derivative at two step sizes; if the two
    // estimates disagree the coordinate straddles a kink and is skipped.
    let mut check = |analytic: f32, n_full: f64, n_half: f64| {
        let agree = (n_full - n_half).abs() <= 0.08 * n_full.abs().max(n_half.abs()).max(1e-3);
        if !agree {
            return;
        }
        let denom = analytic.abs().max(n_half.abs() as f32).max(1e-2);
        let err = (analytic - n_half as f32).abs() / denom;
        if err > max_err {
            max_err = err;
        }
    };

    // Input gradient: probe a bounded number of coordinates.
    let probes: Vec<usize> = (0..volume.min(24))
        .map(|_| rng.random_range(0..volume))
        .collect();
    for &i in &probes {
        let numeric = |layer: &mut dyn Layer, eps: f32, scratch: &mut Scratch| -> f64 {
            let mut xp = x.clone();
            xp.data_mut()[i] += eps;
            let lp = loss(layer, &xp, &r, scratch);
            let mut xm = x.clone();
            xm.data_mut()[i] -= eps;
            let lm = loss(layer, &xm, &r, scratch);
            (lp - lm) / (2.0 * eps as f64)
        };
        let n_full = numeric(layer.as_mut(), EPS, scratch);
        let n_half = numeric(layer.as_mut(), EPS / 2.0, scratch);
        check(grad_in.data()[i], n_full, n_half);
    }

    // Parameter gradients: probe each parameter tensor.
    for (pi, pgrad) in param_grads.iter().enumerate() {
        let plen = pgrad.len();
        let coords: Vec<usize> = (0..plen.min(12))
            .map(|_| rng.random_range(0..plen))
            .collect();
        for &ci in &coords {
            let perturb = |layer: &mut dyn Layer, delta: f32| {
                let mut idx = 0;
                layer.visit_params(&mut |p| {
                    if idx == pi {
                        p.data[ci] += delta;
                    }
                    idx += 1;
                });
            };
            let numeric = |layer: &mut dyn Layer, eps: f32, scratch: &mut Scratch| -> f64 {
                perturb(layer, eps);
                let lp = loss(layer, &x, &r, scratch);
                perturb(layer, -2.0 * eps);
                let lm = loss(layer, &x, &r, scratch);
                perturb(layer, eps);
                (lp - lm) / (2.0 * eps as f64)
            };
            let n_full = numeric(layer.as_mut(), EPS, scratch);
            let n_half = numeric(layer.as_mut(), EPS / 2.0, scratch);
            check(pgrad[ci], n_full, n_half);
        }
    }
    max_err
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::{Conv2d, Layer, Param};

    /// A deliberately wrong layer to prove the checker catches bugs.
    struct BrokenScale {
        w: Param,
    }

    impl Layer for BrokenScale {
        fn forward_with(&mut self, x: &Tensor, s: &mut Scratch) -> Tensor {
            self.infer(x, s)
        }
        fn backward_with(&mut self, grad_out: &Tensor, _s: &mut Scratch) -> Tensor {
            // BUG: claims gradient 1 regardless of w.
            self.w.grad[0] += 123.0;
            grad_out.clone()
        }
        fn infer(&self, x: &Tensor, _s: &mut Scratch) -> Tensor {
            let mut y = x.clone();
            y.scale(self.w.data[0]);
            y
        }
        fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
            f(&mut self.w);
        }
    }

    #[test]
    fn detects_broken_gradients() {
        let layer = BrokenScale {
            w: Param::new(vec![2.0]),
        };
        let err = check_layer(Box::new(layer), [1, 1, 2, 2], 1);
        assert!(err > 0.1, "checker failed to flag broken layer ({err})");
    }

    #[test]
    fn passes_correct_layer() {
        let err = check_layer(Box::new(Conv2d::new(1, 1, 3, 2)), [1, 1, 4, 4], 3);
        assert!(err < 3e-2, "{err}");
    }
}
