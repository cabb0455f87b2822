//! The Adam optimizer.
//!
//! [`Adam`] walks a network's parameters through [`Layer::visit_params`],
//! keeping its per-parameter moments indexed by visit order — which is
//! deterministic for any fixed architecture.

use crate::layers::Layer;
use serde::{Deserialize, Serialize};

/// A serializable snapshot of an [`Adam`] optimizer's internal state.
///
/// Adam is stateful — per-parameter first/second moments plus the bias-
/// correction step counter — so resuming training from a checkpoint is only
/// bit-identical if this state is restored alongside the parameters.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct AdamState {
    /// Bias-correction step counter.
    pub t: u64,
    /// First-moment estimates, one tensor per parameter in visit order.
    pub m: Vec<Vec<f32>>,
    /// Second-moment estimates, one tensor per parameter in visit order.
    pub v: Vec<Vec<f32>>,
}

/// The Adam optimizer (Kingma & Ba). The paper trains with Adam at
/// learning rate `4e-5`; small-scale experiments here default higher.
#[derive(Clone)]
pub struct Adam {
    lr: f32,
    beta1: f32,
    beta2: f32,
    eps: f32,
    t: u64,
    m: Vec<Vec<f32>>,
    v: Vec<Vec<f32>>,
}

impl Adam {
    /// Creates Adam with conventional betas `(0.9, 0.999)`.
    pub fn new(lr: f32) -> Self {
        Adam {
            lr,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
            t: 0,
            m: Vec::new(),
            v: Vec::new(),
        }
    }

    /// Current learning rate.
    pub fn learning_rate(&self) -> f32 {
        self.lr
    }

    /// Adjusts the learning rate (for schedules).
    pub fn set_learning_rate(&mut self, lr: f32) {
        self.lr = lr;
    }

    /// Snapshots the moment estimates and step counter.
    pub fn state(&self) -> AdamState {
        AdamState {
            t: self.t,
            m: self.m.clone(),
            v: self.v.clone(),
        }
    }

    /// Restores a snapshot captured by [`Adam::state`].
    ///
    /// # Errors
    ///
    /// Fails if the moment tensor counts or any tensor length disagree:
    /// a second moment whose length differs from its first moment's, or
    /// (state from a different architecture) first moments that do not fit
    /// the tensors this optimizer tracks. An empty snapshot (optimizer that
    /// never stepped) is always accepted.
    pub fn load_state(&mut self, state: &AdamState) -> Result<(), String> {
        if state.m.len() != state.v.len() {
            return Err(format!(
                "inconsistent Adam state: {} first moments vs {} second moments",
                state.m.len(),
                state.v.len()
            ));
        }
        for (i, (m, v)) in state.m.iter().zip(&state.v).enumerate() {
            if m.len() != v.len() {
                return Err(format!(
                    "inconsistent Adam state: moment {i} has {} first-moment values \
                     but {} second-moment values",
                    m.len(),
                    v.len()
                ));
            }
        }
        if !self.m.is_empty() && !state.m.is_empty() {
            if self.m.len() != state.m.len() {
                return Err(format!(
                    "Adam state has {} moment tensors, optimizer tracks {}",
                    state.m.len(),
                    self.m.len()
                ));
            }
            for (i, (cur, new)) in self.m.iter().zip(&state.m).enumerate() {
                if cur.len() != new.len() {
                    return Err(format!(
                        "Adam moment {i}: expected {} values, got {}",
                        cur.len(),
                        new.len()
                    ));
                }
            }
        }
        self.t = state.t;
        self.m = state.m.clone();
        self.v = state.v.clone();
        Ok(())
    }

    /// Applies one Adam update using the gradients accumulated in `net`.
    pub fn step(&mut self, net: &mut dyn Layer) {
        self.t += 1;
        let t = self.t as f32;
        let bc1 = 1.0 - self.beta1.powf(t);
        let bc2 = 1.0 - self.beta2.powf(t);
        let (beta1, beta2, eps, lr) = (self.beta1, self.beta2, self.eps, self.lr);
        let (ms, vs) = (&mut self.m, &mut self.v);
        let mut idx = 0usize;
        net.visit_params(&mut |p| {
            if ms.len() <= idx {
                ms.push(vec![0.0; p.data.len()]);
                vs.push(vec![0.0; p.data.len()]);
            }
            let m = &mut ms[idx];
            let v = &mut vs[idx];
            assert_eq!(m.len(), p.data.len(), "parameter set changed shape");
            for i in 0..p.data.len() {
                let g = p.grad[i];
                m[i] = beta1 * m[i] + (1.0 - beta1) * g;
                v[i] = beta2 * v[i] + (1.0 - beta2) * g * g;
                let mhat = m[i] / bc1;
                let vhat = v[i] / bc2;
                p.data[i] -= lr * mhat / (vhat.sqrt() + eps);
            }
            idx += 1;
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::{Conv2d, Layer};
    use crate::tensor::Tensor;

    /// Mean-squared error of `y` against `t`, and its gradient
    /// `2 (y - t) / n`.
    fn mse_loss_grad(y: &Tensor, t: &Tensor) -> (f32, Tensor) {
        let n = y.len() as f32;
        let d: Vec<f32> = y.data().iter().zip(t.data()).map(|(y, t)| y - t).collect();
        let loss = d.iter().map(|d| d * d).sum::<f32>() / n;
        (
            loss,
            Tensor::from_vec(y.shape(), d.iter().map(|d| 2.0 * d / n).collect()),
        )
    }

    fn train(optim: &mut dyn FnMut(&mut Conv2d), steps: usize) -> f32 {
        // Fit y = 2x with a 1×1 convolution (one weight and a bias).
        let mut net = Conv2d::new(1, 1, 1, 0);
        let x = Tensor::from_vec([4, 1, 1, 1], vec![1.0, 2.0, 3.0, 4.0]);
        let t = Tensor::from_vec([4, 1, 1, 1], vec![2.0, 4.0, 6.0, 8.0]);
        let mut last = f32::MAX;
        for _ in 0..steps {
            let y = net.forward(&x);
            let (l, g) = mse_loss_grad(&y, &t);
            net.zero_grad();
            net.backward(&g);
            optim(&mut net);
            last = l;
        }
        last
    }

    #[test]
    fn adam_converges_on_regression() {
        let mut adam = Adam::new(0.05);
        let loss = train(&mut |l| adam.step(l), 1200);
        assert!(loss < 1e-3, "adam final loss {loss}");
    }

    #[test]
    fn adam_state_roundtrip_is_bit_identical() {
        // Two optimizers: train one, snapshot, restore into the other, and
        // both must produce identical parameters on every further step.
        let mut net_a = Conv2d::new(1, 1, 1, 0);
        let mut net_b = Conv2d::new(1, 1, 1, 0);
        let mut adam_a = Adam::new(0.05);
        let mut adam_b = Adam::new(0.05);
        let x = Tensor::from_vec([4, 1, 1, 1], vec![1.0, 2.0, 3.0, 4.0]);
        let t = Tensor::from_vec([4, 1, 1, 1], vec![2.0, 4.0, 6.0, 8.0]);
        let step = |net: &mut Conv2d, adam: &mut Adam| {
            let y = net.forward(&x);
            let (_, g) = mse_loss_grad(&y, &t);
            net.zero_grad();
            net.backward(&g);
            adam.step(net);
        };
        for _ in 0..10 {
            step(&mut net_a, &mut adam_a);
        }
        let snap = adam_a.state();
        crate::serialize::load_state(&mut net_b, &crate::serialize::state(&mut net_a)).unwrap();
        adam_b.load_state(&snap).unwrap();
        for _ in 0..10 {
            step(&mut net_a, &mut adam_a);
            step(&mut net_b, &mut adam_b);
            assert_eq!(
                crate::serialize::state(&mut net_a),
                crate::serialize::state(&mut net_b)
            );
        }
    }

    #[test]
    fn adam_state_rejects_mismatched_shape() {
        let mut net = Conv2d::new(2, 2, 1, 0);
        let mut adam = Adam::new(0.05);
        let y = net.forward(&Tensor::ones([1, 2, 1, 1]));
        let (_, g) = mse_loss_grad(&y, &Tensor::ones([1, 2, 1, 1]));
        net.backward(&g);
        adam.step(&mut net);
        let mut bad = adam.state();
        bad.m[0].push(0.0);
        assert!(adam.load_state(&bad).is_err());
        bad.v.pop();
        assert!(adam.load_state(&bad).is_err());
    }

    /// A stepped optimizer's state, for the validation tests.
    fn stepped_adam() -> (Adam, AdamState) {
        let mut net = Conv2d::new(2, 2, 1, 0);
        let mut adam = Adam::new(0.05);
        let y = net.forward(&Tensor::ones([1, 2, 1, 1]));
        let (_, g) = mse_loss_grad(&y, &Tensor::ones([1, 2, 1, 1]));
        net.backward(&g);
        adam.step(&mut net);
        let state = adam.state();
        (adam, state)
    }

    #[test]
    fn adam_state_rejects_short_second_moment() {
        let (mut adam, mut bad) = stepped_adam();
        bad.v[1].pop();
        let err = adam.load_state(&bad).unwrap_err();
        assert!(err.contains("moment 1"), "{err}");
        // Into a fresh optimizer too, which has no shapes of its own to
        // compare against: the next `step` would index past the end.
        let err = Adam::new(0.05).load_state(&bad).unwrap_err();
        assert!(err.contains("moment 1"), "{err}");
    }

    #[test]
    fn adam_state_rejects_missing_second_moment_tensor() {
        let (mut adam, mut bad) = stepped_adam();
        bad.v.pop();
        let err = adam.load_state(&bad).unwrap_err();
        assert!(err.contains("second moments"), "{err}");
        let (_, good) = stepped_adam();
        assert!(adam.load_state(&good).is_ok());
    }

    #[test]
    fn adam_lr_is_adjustable() {
        let mut adam = Adam::new(1e-3);
        adam.set_learning_rate(5e-4);
        assert_eq!(adam.learning_rate(), 5e-4);
    }
}
