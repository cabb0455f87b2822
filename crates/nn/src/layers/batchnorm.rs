//! 2-D batch normalization.

use super::{Layer, Param};
use crate::compute::Scratch;
use crate::simd;
use crate::tensor::Tensor;

/// Batch normalization over the channel dimension of NCHW tensors.
///
/// The training forward takes statistics from the batch, updates the
/// running statistics with momentum and caches the normalized activations
/// for backward; [`Layer::infer`] uses the running statistics, caches
/// nothing and mutates nothing — so a trained Q-network evaluates
/// deterministically.
pub struct BatchNorm2d {
    channels: usize,
    gamma: Param,
    beta: Param,
    running_mean: Vec<f32>,
    running_var: Vec<f32>,
    momentum: f32,
    eps: f32,
    // Cached state of the last training forward.
    xhat: Vec<f32>,
    inv_std: Vec<f32>,
    cached_shape: [usize; 4],
    // Per-channel f64 sums of the last pass (reused, so training allocates
    // nothing): Σx and Σx² forward, Σdy and Σdy·x̂ backward.
    sum_a: Vec<f64>,
    sum_ab: Vec<f64>,
}

impl BatchNorm2d {
    /// Creates a batch-norm layer with unit scale and zero shift.
    pub fn new(channels: usize) -> Self {
        BatchNorm2d {
            channels,
            gamma: Param::new(vec![1.0; channels]),
            beta: Param::new(vec![0.0; channels]),
            running_mean: vec![0.0; channels],
            running_var: vec![1.0; channels],
            momentum: 0.1,
            eps: 1e-5,
            xhat: Vec::new(),
            inv_std: Vec::new(),
            cached_shape: [0; 4],
            sum_a: Vec::new(),
            sum_ab: Vec::new(),
        }
    }

    /// The running mean per channel (for serialization and tests).
    pub fn running_mean(&self) -> &[f32] {
        &self.running_mean
    }

    /// The running variance per channel.
    pub fn running_var(&self) -> &[f32] {
        &self.running_var
    }

    /// Copies the non-parameter state (running statistics) from another
    /// instance — needed when synchronizing a target network.
    pub fn copy_stats_from(&mut self, other: &BatchNorm2d) {
        self.running_mean.clone_from(&other.running_mean);
        self.running_var.clone_from(&other.running_var);
    }
}

impl Layer for BatchNorm2d {
    fn forward_with(&mut self, x: &Tensor, scratch: &mut Scratch) -> Tensor {
        let [n, c, h, w] = x.shape();
        assert_eq!(c, self.channels, "BatchNorm2d channel mismatch");
        let m = (n * h * w) as f32;
        let plane = h * w;
        let mut out = scratch.tensor(x.shape());
        self.xhat.resize(x.len(), 0.0);
        self.inv_std.resize(c, 0.0);
        self.cached_shape = x.shape();
        self.sum_a.resize(c, 0.0);
        self.sum_ab.resize(c, 0.0);
        // Every channel's f64 statistics in one sequential chain over
        // (sample, position) — the vector path runs channels side by side
        // without reordering any of them.
        simd::bn_channel_sums(
            x.data(),
            x.data(),
            (n, c, plane),
            &mut self.sum_a,
            &mut self.sum_ab,
        );
        for ci in 0..c {
            let (mean, var) = {
                let (sum, sq) = (self.sum_a[ci], self.sum_ab[ci]);
                let mean = (sum / m as f64) as f32;
                let var = ((sq / m as f64) - (mean as f64) * (mean as f64)).max(0.0) as f32;
                self.running_mean[ci] =
                    (1.0 - self.momentum) * self.running_mean[ci] + self.momentum * mean;
                self.running_var[ci] =
                    (1.0 - self.momentum) * self.running_var[ci] + self.momentum * var;
                (mean, var)
            };
            let inv = 1.0 / (var + self.eps).sqrt();
            self.inv_std[ci] = inv;
            let (g, b) = (self.gamma.data[ci], self.beta.data[ci]);
            for s in 0..n {
                let base = (s * c + ci) * plane;
                // Vectorized normalize + xhat cache over the contiguous
                // plane.
                simd::bn_normalize_cache(
                    &x.data()[base..base + plane],
                    &mut out.data_mut()[base..base + plane],
                    &mut self.xhat[base..base + plane],
                    mean,
                    inv,
                    g,
                    b,
                );
            }
        }
        out
    }

    fn backward_with(&mut self, grad_out: &Tensor, scratch: &mut Scratch) -> Tensor {
        let [n, c, h, w] = self.cached_shape;
        assert!(
            !self.xhat.is_empty(),
            "BatchNorm2d::backward requires a preceding train-mode forward"
        );
        assert_eq!(
            grad_out.shape(),
            self.cached_shape,
            "BatchNorm2d grad shape"
        );
        let plane = h * w;
        let m = (n * h * w) as f32;
        let mut grad_in = scratch.tensor(self.cached_shape);
        self.sum_a.resize(c, 0.0);
        self.sum_ab.resize(c, 0.0);
        simd::bn_channel_sums(
            grad_out.data(),
            &self.xhat,
            (n, c, plane),
            &mut self.sum_a,
            &mut self.sum_ab,
        );
        for ci in 0..c {
            let (sum_dy, sum_dy_xhat) = (self.sum_a[ci], self.sum_ab[ci]);
            self.gamma.grad[ci] += sum_dy_xhat as f32;
            self.beta.grad[ci] += sum_dy as f32;
            let g = self.gamma.data[ci];
            let inv = self.inv_std[ci];
            let k = g * inv / m;
            for s in 0..n {
                let base = (s * c + ci) * plane;
                simd::bn_backward_apply(
                    &grad_out.data()[base..base + plane],
                    &self.xhat[base..base + plane],
                    &mut grad_in.data_mut()[base..base + plane],
                    (k, m),
                    (sum_dy as f32, sum_dy_xhat as f32),
                );
            }
        }
        grad_in
    }

    fn infer(&self, x: &Tensor, scratch: &mut Scratch) -> Tensor {
        let [n, c, h, w] = x.shape();
        assert_eq!(c, self.channels, "BatchNorm2d channel mismatch");
        let plane = h * w;
        let mut out = scratch.tensor(x.shape());
        for ci in 0..c {
            let (mean, var) = (self.running_mean[ci], self.running_var[ci]);
            let inv = 1.0 / (var + self.eps).sqrt();
            let (g, b) = (self.gamma.data[ci], self.beta.data[ci]);
            for s in 0..n {
                let base = (s * c + ci) * plane;
                // Vectorized normalize over the contiguous channel plane.
                simd::bn_apply(
                    &x.data()[base..base + plane],
                    &mut out.data_mut()[base..base + plane],
                    mean,
                    inv,
                    g,
                    b,
                );
            }
        }
        out
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        f(&mut self.gamma);
        f(&mut self.beta);
    }

    fn visit_buffers(&mut self, f: &mut dyn FnMut(&mut Vec<f32>)) {
        f(&mut self.running_mean);
        f(&mut self.running_var);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn normalizes_batch_statistics() {
        let mut bn = BatchNorm2d::new(2);
        let x = Tensor::from_vec(
            [2, 2, 1, 2],
            vec![1.0, 3.0, 10.0, 30.0, 5.0, 7.0, 20.0, 40.0],
        );
        let y = bn.forward(&x);
        // Per channel, output mean ≈ 0 and variance ≈ 1.
        for ci in 0..2 {
            let vals: Vec<f32> = (0..2)
                .flat_map(|s| (0..2).map(move |w| (s, w)))
                .map(|(s, w)| y.at(s, ci, 0, w))
                .collect();
            let mean: f32 = vals.iter().sum::<f32>() / 4.0;
            let var: f32 = vals.iter().map(|v| (v - mean).powi(2)).sum::<f32>() / 4.0;
            assert!(mean.abs() < 1e-5, "channel {ci} mean {mean}");
            assert!((var - 1.0).abs() < 1e-3, "channel {ci} var {var}");
        }
    }

    #[test]
    fn eval_mode_uses_running_stats() {
        let mut bn = BatchNorm2d::new(1);
        let x = Tensor::from_vec([1, 1, 1, 4], vec![4.0, 4.0, 4.0, 4.0]);
        // Train a few times to move running stats toward mean 4, var 0.
        for _ in 0..200 {
            bn.forward(&x);
        }
        let y = bn.infer(
            &Tensor::from_vec([1, 1, 1, 1], vec![4.0]),
            &mut Scratch::new(),
        );
        assert!(y.data()[0].abs() < 0.1, "eval output {}", y.data()[0]);
    }

    /// `infer` normalizes with the running statistics by the evaluation
    /// formula `γ·(x − mean)·inv + β`, bit for bit, and writes no backward
    /// cache.
    #[test]
    fn infer_matches_eval_and_leaves_no_cache() {
        let x = Tensor::from_vec([1, 2, 1, 3], vec![1.0, -2.0, 0.5, 3.0, 0.0, -1.0]);
        let mut trained = BatchNorm2d::new(2);
        trained.forward(&x);
        let mut bn = BatchNorm2d::new(2);
        bn.copy_stats_from(&trained);
        bn.gamma.data = vec![1.5, -0.25];
        bn.beta.data = vec![0.1, 2.0];
        let y = bn.infer(&x, &mut Scratch::new());
        assert!(bn.xhat.is_empty(), "infer wrote the backward cache");
        for ci in 0..2 {
            let inv = 1.0 / (bn.running_var[ci] + bn.eps).sqrt();
            for w in 0..3 {
                let centred = x.at(0, ci, 0, w) - bn.running_mean[ci];
                let expect = bn.gamma.data[ci] * centred * inv + bn.beta.data[ci];
                assert_eq!(y.at(0, ci, 0, w).to_bits(), expect.to_bits());
            }
        }
    }

    #[test]
    #[should_panic(expected = "train-mode forward")]
    fn backward_after_eval_forward_panics() {
        let mut bn = BatchNorm2d::new(1);
        let x = Tensor::ones([1, 1, 1, 2]);
        bn.infer(&x, &mut Scratch::new());
        bn.backward(&Tensor::ones([1, 1, 1, 2]));
    }

    #[test]
    fn gamma_beta_affect_output() {
        let mut bn = BatchNorm2d::new(1);
        bn.gamma.data[0] = 3.0;
        bn.beta.data[0] = 1.0;
        let x = Tensor::from_vec([1, 1, 1, 2], vec![-1.0, 1.0]);
        let y = bn.forward(&x);
        // xhat = ±1 → y = ±3 + 1.
        assert!((y.data()[0] + 2.0).abs() < 1e-3);
        assert!((y.data()[1] - 4.0).abs() < 1e-3);
    }

    #[test]
    fn gradient_check_train_mode() {
        let bn = BatchNorm2d::new(3);
        let err = crate::gradcheck::check_layer(Box::new(bn), [2, 3, 3, 3], 5);
        assert!(err < 3e-2, "batchnorm gradient error {err}");
    }

    /// The pre-vectorization train-mode forward and backward loops, kept
    /// verbatim as the oracle: one scalar f64 chain per channel and a
    /// scalar elementwise backward. Returns `(out, xhat, running mean,
    /// running var, γ grad, β grad, grad_in)`.
    #[allow(clippy::type_complexity, clippy::needless_range_loop)]
    fn reference_train_step(
        x: &Tensor,
        grad_out: &Tensor,
        gamma: &[f32],
        beta: &[f32],
    ) -> (
        Vec<f32>,
        Vec<f32>,
        Vec<f32>,
        Vec<f32>,
        Vec<f32>,
        Vec<f32>,
        Vec<f32>,
    ) {
        let [n, c, h, w] = x.shape();
        let (momentum, eps) = (0.1f32, 1e-5f32);
        let m = (n * h * w) as f32;
        let plane = h * w;
        let mut out = vec![0.0f32; x.len()];
        let mut xhat = vec![0.0f32; x.len()];
        let (mut running_mean, mut running_var) = (vec![0.0f32; c], vec![1.0f32; c]);
        let mut inv_std = vec![0.0f32; c];
        for ci in 0..c {
            let (mean, var) = {
                let mut sum = 0.0f64;
                let mut sq = 0.0f64;
                for s in 0..n {
                    let base = (s * c + ci) * plane;
                    for &v in &x.data()[base..base + plane] {
                        sum += v as f64;
                        sq += (v as f64) * (v as f64);
                    }
                }
                let mean = (sum / m as f64) as f32;
                let var = ((sq / m as f64) - (mean as f64) * (mean as f64)).max(0.0) as f32;
                running_mean[ci] = (1.0 - momentum) * running_mean[ci] + momentum * mean;
                running_var[ci] = (1.0 - momentum) * running_var[ci] + momentum * var;
                (mean, var)
            };
            let inv = 1.0 / (var + eps).sqrt();
            inv_std[ci] = inv;
            for s in 0..n {
                let base = (s * c + ci) * plane;
                for i in base..base + plane {
                    let h = (x.data()[i] - mean) * inv;
                    xhat[i] = h;
                    out[i] = gamma[ci] * h + beta[ci];
                }
            }
        }
        let (mut gamma_grad, mut beta_grad) = (vec![0.0f32; c], vec![0.0f32; c]);
        let mut grad_in = vec![0.0f32; x.len()];
        for ci in 0..c {
            let mut sum_dy = 0.0f64;
            let mut sum_dy_xhat = 0.0f64;
            for s in 0..n {
                let base = (s * c + ci) * plane;
                for i in base..base + plane {
                    let dy = grad_out.data()[i] as f64;
                    sum_dy += dy;
                    sum_dy_xhat += dy * xhat[i] as f64;
                }
            }
            gamma_grad[ci] += sum_dy_xhat as f32;
            beta_grad[ci] += sum_dy as f32;
            let k = gamma[ci] * inv_std[ci] / m;
            for s in 0..n {
                let base = (s * c + ci) * plane;
                for i in base..base + plane {
                    let dy = grad_out.data()[i];
                    grad_in[i] = k * (m * dy - sum_dy as f32 - xhat[i] * sum_dy_xhat as f32);
                }
            }
        }
        (
            out,
            xhat,
            running_mean,
            running_var,
            gamma_grad,
            beta_grad,
            grad_in,
        )
    }

    /// The channel-side-by-side reductions and the vectorized backward
    /// reproduce the scalar loops bit for bit: one sample, planes that are
    /// not a multiple of 4 or 8, channel counts that are not a multiple
    /// of 4, and the Q-network's shape.
    #[test]
    fn train_step_matches_scalar_loops_bitwise() {
        use rand::prelude::*;
        let mut rng = StdRng::seed_from_u64(91);
        for shape in [
            [1, 1, 1, 1],
            [1, 3, 3, 5],
            [2, 5, 4, 4],
            [3, 7, 2, 3],
            [1, 8, 16, 16],
            [4, 12, 5, 5],
            [16, 12, 16, 16],
        ] {
            let len: usize = shape.iter().product();
            // Magnitudes across 2^±20, so the f64 sums round and any
            // change of summation order shows in their bits.
            let mut rand_tensor = || {
                let v = (0..len).map(|_| {
                    (rng.random::<f32>() * 2.0 - 1.0) * 2f32.powi(rng.random_range(-20..20))
                });
                Tensor::from_vec(shape, v.collect())
            };
            let x = rand_tensor();
            let grad_out = rand_tensor();
            let mut bn = BatchNorm2d::new(shape[1]);
            for (ci, (g, b)) in bn.gamma.data.iter_mut().zip(&mut bn.beta.data).enumerate() {
                *g = 0.5 + ci as f32 * 0.25;
                *b = ci as f32 * 0.1 - 0.3;
            }
            let (gamma, beta) = (bn.gamma.data.clone(), bn.beta.data.clone());
            let (out, xhat, mean, var, gg, bg, gin) =
                reference_train_step(&x, &grad_out, &gamma, &beta);
            let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            let y = bn.forward(&x);
            let g = bn.backward(&grad_out);
            assert_eq!(bits(y.data()), bits(&out), "out at {shape:?}");
            assert_eq!(bits(&bn.xhat), bits(&xhat), "xhat at {shape:?}");
            assert_eq!(bits(bn.running_mean()), bits(&mean), "mean at {shape:?}");
            assert_eq!(bits(bn.running_var()), bits(&var), "var at {shape:?}");
            assert_eq!(bits(&bn.gamma.grad), bits(&gg), "gamma grad at {shape:?}");
            assert_eq!(bits(&bn.beta.grad), bits(&bg), "beta grad at {shape:?}");
            assert_eq!(bits(g.data()), bits(&gin), "grad_in at {shape:?}");
        }
    }

    #[test]
    fn target_sync_copies_stats() {
        let mut a = BatchNorm2d::new(1);
        let x = Tensor::from_vec([1, 1, 1, 2], vec![10.0, 12.0]);
        a.forward(&x);
        let mut b = BatchNorm2d::new(1);
        b.copy_stats_from(&a);
        assert_eq!(b.running_mean(), a.running_mean());
        assert_eq!(b.running_var(), a.running_var());
    }
}
