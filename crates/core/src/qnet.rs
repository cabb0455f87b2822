//! The convolutional residual Q-network (paper Fig. 2).
//!
//! Input: the `N×N×4` node-feature tensor. Body: a 3×3 convolution into `C`
//! channels (BN + LReLU), then `B` residual blocks of two 5×5 convolutions.
//! Head: a 1×1 convolution (BN + LReLU) and a final 1×1 convolution to 4
//! output channels holding, per grid position,
//! `[Q_area(add), Q_area(del), Q_delay(add), Q_delay(del)]`.
//!
//! The network is stored as a *typed* layer tree (concrete layer structs,
//! not boxed trait objects) with one pass per job: the immutable
//! [`QNetwork::infer`] evaluation forward, which writes no backward caches
//! and which the training loop's coordinator picks every round's greedy
//! actions with (see `agent.rs`), and the training forward
//! [`QNetwork::forward`] that [`QNetwork::apply_gradient`] backpropagates.
//!
//! The paper uses `B = 32, C = 256`; the defaults here are scaled for CPU
//! training (see DESIGN.md §8) with the paper values available via
//! [`QNetConfig::paper`]. Each network computes on its caller's thread;
//! parallelism comes from actors and sweep agents (DESIGN.md §10).

use nn::{Adam, BatchNorm2d, Conv2d, Layer, LeakyReLU, Param, Scratch, Tensor};
use rl::QNetwork;
use serde::{Deserialize, Serialize};

/// Q-network hyper-parameters.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct QNetConfig {
    /// Grid width `N`.
    pub n: u16,
    /// Feature channels `C`.
    pub channels: usize,
    /// Residual blocks `B`.
    pub blocks: usize,
    /// Adam learning rate (paper: 4e-5 at full scale).
    pub lr: f32,
    /// Weight-initialization seed.
    pub seed: u64,
}

impl QNetConfig {
    /// The paper's full-scale configuration (Table I: B=32, C=256 for
    /// 32b/64b; B=16 for 16b).
    pub fn paper(n: u16) -> Self {
        QNetConfig {
            n,
            channels: 256,
            blocks: if n <= 16 { 16 } else { 32 },
            lr: 4e-5,
            seed: 0,
        }
    }

    /// A CPU-tractable configuration for experiments.
    pub fn small(n: u16) -> Self {
        QNetConfig {
            n,
            channels: 12,
            blocks: 1,
            lr: 1e-3,
            seed: 0,
        }
    }

    /// A minimal configuration for unit tests.
    pub fn tiny(n: u16) -> Self {
        QNetConfig {
            n,
            channels: 8,
            blocks: 1,
            lr: 2e-3,
            seed: 0,
        }
    }
}

/// One paper residual block: `LReLU(BN(conv5(LReLU(BN(conv5(x))))) + x)`.
struct PaperBlock {
    conv1: Conv2d,
    bn1: BatchNorm2d,
    act1: LeakyReLU,
    conv2: Conv2d,
    bn2: BatchNorm2d,
    act_out: LeakyReLU,
}

impl PaperBlock {
    fn new(channels: usize, seed: u64) -> Self {
        PaperBlock {
            conv1: Conv2d::new_no_bias(channels, channels, 5, seed),
            bn1: BatchNorm2d::new(channels),
            act1: LeakyReLU::default(),
            conv2: Conv2d::new_no_bias(channels, channels, 5, seed.wrapping_add(1)),
            bn2: BatchNorm2d::new(channels),
            act_out: LeakyReLU::default(),
        }
    }
}

impl Layer for PaperBlock {
    fn forward_with(&mut self, x: &Tensor, scratch: &mut Scratch) -> Tensor {
        let a = self.conv1.forward_with(x, scratch);
        let b = self.bn1.forward_with(&a, scratch);
        scratch.recycle(a);
        let c = self.act1.forward_with(&b, scratch);
        scratch.recycle(b);
        let d = self.conv2.forward_with(&c, scratch);
        scratch.recycle(c);
        let mut e = self.bn2.forward_with(&d, scratch);
        scratch.recycle(d);
        e.add_assign(x);
        let out = self.act_out.forward_with(&e, scratch);
        scratch.recycle(e);
        out
    }

    fn backward_with(&mut self, grad_out: &Tensor, scratch: &mut Scratch) -> Tensor {
        let g = self.act_out.backward_with(grad_out, scratch);
        let e = self.bn2.backward_with(&g, scratch);
        let d = self.conv2.backward_with(&e, scratch);
        scratch.recycle(e);
        let c = self.act1.backward_with(&d, scratch);
        scratch.recycle(d);
        let b = self.bn1.backward_with(&c, scratch);
        scratch.recycle(c);
        let mut grad_in = self.conv1.backward_with(&b, scratch);
        scratch.recycle(b);
        grad_in.add_assign(&g);
        scratch.recycle(g);
        grad_in
    }

    fn infer(&self, x: &Tensor, scratch: &mut Scratch) -> Tensor {
        let a = self.conv1.infer(x, scratch);
        let b = self.bn1.infer(&a, scratch);
        scratch.recycle(a);
        let mut c = b;
        self.act1.apply(&mut c);
        let d = self.conv2.infer(&c, scratch);
        scratch.recycle(c);
        let mut e = self.bn2.infer(&d, scratch);
        scratch.recycle(d);
        e.add_assign(x);
        self.act_out.apply(&mut e);
        e
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        self.conv1.visit_params(f);
        self.bn1.visit_params(f);
        self.conv2.visit_params(f);
        self.bn2.visit_params(f);
    }

    fn visit_buffers(&mut self, f: &mut dyn FnMut(&mut Vec<f32>)) {
        self.bn1.visit_buffers(f);
        self.bn2.visit_buffers(f);
    }
}

/// The full Fig. 2 body as a typed layer tree (stem → blocks → head →
/// output conv).
struct QBody {
    stem: Conv2d,
    stem_bn: BatchNorm2d,
    stem_act: LeakyReLU,
    blocks: Vec<PaperBlock>,
    head: Conv2d,
    head_bn: BatchNorm2d,
    head_act: LeakyReLU,
    out: Conv2d,
}

impl QBody {
    fn new(cfg: &QNetConfig) -> Self {
        let c = cfg.channels;
        let s = cfg.seed;
        QBody {
            stem: Conv2d::new_no_bias(4, c, 3, s),
            stem_bn: BatchNorm2d::new(c),
            stem_act: LeakyReLU::default(),
            blocks: (0..cfg.blocks)
                .map(|b| PaperBlock::new(c, s + 100 + 2 * b as u64))
                .collect(),
            head: Conv2d::new_no_bias(c, c, 1, s + 7000),
            head_bn: BatchNorm2d::new(c),
            head_act: LeakyReLU::default(),
            out: Conv2d::new(c, 4, 1, s + 7001),
        }
    }

    /// Backpropagates `grad_out` through every layer above the stem
    /// convolution, returning the gradient at the stem's output.
    fn backward_to_stem(&mut self, grad_out: &Tensor, scratch: &mut Scratch) -> Tensor {
        let ha = self.out.backward_with(grad_out, scratch);
        let hb = self.head_act.backward_with(&ha, scratch);
        scratch.recycle(ha);
        let h = self.head_bn.backward_with(&hb, scratch);
        scratch.recycle(hb);
        let mut cur = self.head.backward_with(&h, scratch);
        scratch.recycle(h);
        for block in self.blocks.iter_mut().rev() {
            let next = block.backward_with(&cur, scratch);
            scratch.recycle(cur);
            cur = next;
        }
        let b = self.stem_act.backward_with(&cur, scratch);
        scratch.recycle(cur);
        let a = self.stem_bn.backward_with(&b, scratch);
        scratch.recycle(b);
        a
    }

    /// Accumulates every parameter gradient for `grad_out`. Unlike
    /// [`Layer::backward_with`] it never forms the gradient of the input
    /// features, which nothing reads: the stem computes its weight
    /// gradient only.
    fn backward_params(&mut self, grad_out: &Tensor, scratch: &mut Scratch) {
        let a = self.backward_to_stem(grad_out, scratch);
        self.stem.backward_params(&a);
        scratch.recycle(a);
    }
}

impl Layer for QBody {
    fn forward_with(&mut self, x: &Tensor, scratch: &mut Scratch) -> Tensor {
        let a = self.stem.forward_with(x, scratch);
        let b = self.stem_bn.forward_with(&a, scratch);
        scratch.recycle(a);
        let mut cur = self.stem_act.forward_with(&b, scratch);
        scratch.recycle(b);
        for block in &mut self.blocks {
            let next = block.forward_with(&cur, scratch);
            scratch.recycle(cur);
            cur = next;
        }
        let h = self.head.forward_with(&cur, scratch);
        scratch.recycle(cur);
        let hb = self.head_bn.forward_with(&h, scratch);
        scratch.recycle(h);
        let ha = self.head_act.forward_with(&hb, scratch);
        scratch.recycle(hb);
        let out = self.out.forward_with(&ha, scratch);
        scratch.recycle(ha);
        out
    }

    fn backward_with(&mut self, grad_out: &Tensor, scratch: &mut Scratch) -> Tensor {
        let a = self.backward_to_stem(grad_out, scratch);
        let grad_in = self.stem.backward_with(&a, scratch);
        scratch.recycle(a);
        grad_in
    }

    fn infer(&self, x: &Tensor, scratch: &mut Scratch) -> Tensor {
        let a = self.stem.infer(x, scratch);
        let mut cur = self.stem_bn.infer(&a, scratch);
        scratch.recycle(a);
        self.stem_act.apply(&mut cur);
        for block in &self.blocks {
            let next = block.infer(&cur, scratch);
            scratch.recycle(cur);
            cur = next;
        }
        let h = self.head.infer(&cur, scratch);
        scratch.recycle(cur);
        let mut hb = self.head_bn.infer(&h, scratch);
        scratch.recycle(h);
        self.head_act.apply(&mut hb);
        let out = self.out.infer(&hb, scratch);
        scratch.recycle(hb);
        out
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        self.stem.visit_params(f);
        self.stem_bn.visit_params(f);
        for block in &mut self.blocks {
            block.visit_params(f);
        }
        self.head.visit_params(f);
        self.head_bn.visit_params(f);
        self.out.visit_params(f);
    }

    fn visit_buffers(&mut self, f: &mut dyn FnMut(&mut Vec<f32>)) {
        self.stem_bn.visit_buffers(f);
        for block in &mut self.blocks {
            block.visit_buffers(f);
        }
        self.head_bn.visit_buffers(f);
    }
}

/// Packs flat state features into the NCHW input tensor, using `scratch`
/// for the backing storage.
fn pack_states(n: usize, states: &[&[f32]], scratch: &mut Scratch) -> Tensor {
    let feat = 4 * n * n;
    let mut flat = scratch.take(states.len() * feat);
    for (s, chunk) in states.iter().zip(flat.chunks_mut(feat)) {
        assert_eq!(s.len(), feat, "state feature length mismatch");
        chunk.copy_from_slice(s);
    }
    Tensor::from_vec([states.len(), 4, n, n], flat)
}

/// Decodes the 4-channel network output into per-action Q-value rows.
///
/// Output channels: 0=Q_area(add), 1=Q_area(del), 2=Q_delay(add),
/// 3=Q_delay(del); flat action `kind·N² + pos`.
fn extract_q(n: usize, batch: usize, y: &Tensor) -> Vec<Vec<[f32; 2]>> {
    let nn_plane = n * n;
    (0..batch)
        .map(|b| {
            let base = b * 4 * nn_plane;
            let data = y.data();
            (0..2 * nn_plane)
                .map(|a| {
                    let (kind, pos) = (a / nn_plane, a % nn_plane);
                    [
                        data[base + kind * nn_plane + pos],
                        data[base + (2 + kind) * nn_plane + pos],
                    ]
                })
                .collect()
        })
        .collect()
}

/// The PrefixRL Q-network: implements [`rl::QNetwork`] over the flat
/// `2·N²` add/delete action space.
pub struct PrefixQNet {
    net: QBody,
    opt: Adam,
    n: usize,
    scratch: Scratch,
}

impl PrefixQNet {
    /// Builds the Fig. 2 architecture.
    pub fn new(cfg: &QNetConfig) -> Self {
        PrefixQNet {
            net: QBody::new(cfg),
            opt: Adam::new(cfg.lr),
            n: cfg.n as usize,
            scratch: Scratch::new(),
        }
    }

    /// The grid width `N`.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Snapshots the Adam optimizer state (moments + step counter) —
    /// required alongside [`rl::QNetwork::state`] for bit-identical
    /// checkpoint resume.
    pub fn opt_state(&self) -> nn::AdamState {
        self.opt.state()
    }

    /// Restores optimizer state captured by [`PrefixQNet::opt_state`].
    ///
    /// Validates the moment tensors against this network's parameter
    /// shapes before handing them to the optimizer — a freshly built
    /// [`Adam`] has no moments of its own to check against, so
    /// without this a truncated checkpoint would resume silently wrong (or
    /// panic mid-training) instead of failing here.
    ///
    /// # Errors
    ///
    /// Fails on architecture mismatch. An empty snapshot (optimizer that
    /// never stepped) is accepted.
    pub fn load_opt_state(&mut self, state: &nn::AdamState) -> Result<(), String> {
        if !state.m.is_empty() {
            let mut shapes = Vec::new();
            self.net.visit_params(&mut |p| shapes.push(p.data.len()));
            for (name, moments) in [("first", &state.m), ("second", &state.v)] {
                if moments.len() != shapes.len() {
                    return Err(format!(
                        "Adam state has {} {name}-moment tensors, network has {} parameters",
                        moments.len(),
                        shapes.len()
                    ));
                }
                for (i, (m, expected)) in moments.iter().zip(&shapes).enumerate() {
                    if m.len() != *expected {
                        return Err(format!(
                            "Adam {name} moment {i}: expected {expected} values, got {}",
                            m.len()
                        ));
                    }
                }
            }
        }
        self.opt.load_state(state)
    }
}

impl QNetwork for PrefixQNet {
    fn num_actions(&self) -> usize {
        2 * self.n * self.n
    }

    fn infer(&self, states: &[&[f32]], scratch: &mut Scratch) -> Vec<Vec<[f32; 2]>> {
        let x = pack_states(self.n, states, scratch);
        let y = self.net.infer(&x, scratch);
        let out = extract_q(self.n, states.len(), &y);
        scratch.recycle(x);
        scratch.recycle(y);
        out
    }

    fn forward(&mut self, states: &[&[f32]]) -> Vec<Vec<[f32; 2]>> {
        let x = pack_states(self.n, states, &mut self.scratch);
        let y = self.net.forward_with(&x, &mut self.scratch);
        let out = extract_q(self.n, states.len(), &y);
        self.scratch.recycle(x);
        self.scratch.recycle(y);
        out
    }

    fn apply_gradient(&mut self, grad: &[Vec<[f32; 2]>]) {
        let nn_plane = self.n * self.n;
        let mut g = self.scratch.tensor([grad.len(), 4, self.n, self.n]);
        for (b, row) in grad.iter().enumerate() {
            assert_eq!(row.len(), 2 * nn_plane, "gradient action count mismatch");
            let base = b * 4 * nn_plane;
            for (a, go) in row.iter().enumerate() {
                let (kind, pos) = (a / nn_plane, a % nn_plane);
                g.data_mut()[base + kind * nn_plane + pos] = go[0];
                g.data_mut()[base + (2 + kind) * nn_plane + pos] = go[1];
            }
        }
        self.net.zero_grad();
        self.net.backward_params(&g, &mut self.scratch);
        self.scratch.recycle(g);
        self.opt.step(&mut self.net);
    }

    fn state(&mut self) -> Vec<Vec<f32>> {
        nn::serialize::state(&mut self.net)
    }

    fn load_state(&mut self, state: &[Vec<f32>]) -> Result<(), String> {
        nn::serialize::load_state(&mut self.net, state)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::env::{EnvConfig, PrefixEnv};
    use crate::task::{Adder, TaskEvaluator};
    use std::sync::Arc;

    #[test]
    fn output_layout_matches_action_space() {
        let q = PrefixQNet::new(&QNetConfig::tiny(8));
        assert_eq!(q.num_actions(), 128);
        let env = PrefixEnv::new(
            EnvConfig::analytical(8),
            Arc::new(TaskEvaluator::analytical(Adder)),
        );
        let f = env.features();
        let out = q.infer(&[&f], &mut Scratch::new());
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].len(), 128);
        assert!(out[0].iter().all(|q| q[0].is_finite() && q[1].is_finite()));
    }

    #[test]
    fn batch_forward_matches_single() {
        let q = PrefixQNet::new(&QNetConfig::tiny(8));
        let env = PrefixEnv::new(
            EnvConfig::analytical(8),
            Arc::new(TaskEvaluator::analytical(Adder)),
        );
        let f = env.features();
        // Inference uses running statistics, so batching must not change
        // per-sample outputs.
        let mut scratch = Scratch::new();
        let single = q.infer(&[&f], &mut scratch);
        let double = q.infer(&[&f, &f], &mut scratch);
        for a in 0..q.num_actions() {
            assert!((single[0][a][0] - double[1][a][0]).abs() < 1e-5);
            assert!((single[0][a][1] - double[1][a][1]).abs() < 1e-5);
        }
    }

    /// Repeated inference through one [`Scratch`] arena — buffers recycled
    /// by one call and handed out again by the next — stays bit-identical
    /// to inference through a fresh arena.
    #[test]
    fn infer_matches_eval_forward_with_reused_scratch() {
        let mut block = PaperBlock::new(3, 7);
        let x = Tensor::from_vec(
            [2, 3, 4, 4],
            (0..96)
                .map(|i| ((i * 37) % 29) as f32 * 0.07 - 0.9)
                .collect(),
        );
        // One training forward gives the batch-norms nontrivial running
        // statistics.
        let _ = block.forward(&x);
        let y = block.infer(&x, &mut Scratch::new());
        let mut scratch = Scratch::new();
        for _ in 0..3 {
            let z = block.infer(&x, &mut scratch);
            assert_eq!(y.data(), z.data());
            scratch.recycle(z);
        }
    }

    #[test]
    fn paper_block_preserves_shape() {
        let mut block = PaperBlock::new(4, 0);
        let x = Tensor::ones([2, 4, 6, 6]);
        let y = block.forward(&x);
        assert_eq!(y.shape(), x.shape());
        let g = block.backward(&Tensor::ones([2, 4, 6, 6]));
        assert_eq!(g.shape(), x.shape());
    }

    /// With zero convolution weights the body outputs batch-norm's β = 0,
    /// so the block reduces to LReLU(x), in value and in input gradient.
    #[test]
    fn paper_block_zero_body_is_identity_plus_activation() {
        let mut block = PaperBlock::new(1, 0);
        for conv in [&mut block.conv1, &mut block.conv2] {
            conv.visit_params(&mut |p| p.data.iter_mut().for_each(|v| *v = 0.0));
        }
        let x = Tensor::from_vec([1, 1, 1, 2], vec![-1.0, 2.0]);
        let y = block.forward(&x);
        assert_eq!(y.data(), &[-0.01, 2.0]);
        let g = block.backward(&Tensor::ones([1, 1, 1, 2]));
        assert_eq!(g.data(), &[0.01, 1.0]);
    }

    /// Parameters are visited in forward order: conv1 weight (3·3·25),
    /// bn1 γ and β, conv2 weight, bn2 γ and β — the order optimizer state
    /// and checkpoints are laid out in.
    #[test]
    fn param_visit_order_is_stable() {
        let mut block = PaperBlock::new(3, 0);
        let mut sizes = Vec::new();
        block.visit_params(&mut |p| sizes.push(p.data.len()));
        assert_eq!(sizes, [225, 3, 3, 225, 3, 3]);
    }

    /// The paper block's full BN/conv/skip gradient against finite
    /// differences. Its activations have slope 1 (identity): batch-norm
    /// centres values at zero, so finite differences through the LeakyReLU
    /// kink are meaningless, while with a smooth activation the block's
    /// gradient math is checkable exactly. (LeakyReLU's own gradient is
    /// covered by its unit tests.)
    #[test]
    fn paper_block_gradient_check_smooth() {
        let seed = 8;
        let block = PaperBlock {
            act1: LeakyReLU::new(1.0),
            act_out: LeakyReLU::new(1.0),
            ..PaperBlock::new(2, seed)
        };
        let err = nn::gradcheck::check_layer(Box::new(block), [2, 2, 4, 4], 37);
        assert!(err < 3e-2, "paper residual gradient error {err}");
    }

    /// Inference is per-sample — convolutions, running-statistic batch-norms
    /// and LeakyReLU never mix rows — so a state's Q-values are
    /// *bit-identical* whatever batch they ride in: an actor's greedy
    /// action does not depend on which other actors were greedy in its
    /// round.
    #[test]
    fn infer_is_independent_of_batch_composition() {
        let mut q = PrefixQNet::new(&QNetConfig::tiny(8));
        let mut env = PrefixEnv::new(
            EnvConfig::analytical(8),
            Arc::new(TaskEvaluator::analytical(Adder)),
        );
        // Distinct states along a trajectory, with nontrivial BN
        // statistics.
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        let mut states: Vec<Vec<f32>> = Vec::new();
        env.reset(&mut rng);
        for _ in 0..6 {
            states.push(env.features());
            let legal = env.action_mask();
            let a = (0..legal.len()).find(|&a| legal[a]).unwrap();
            let _ = env.step_flat(a);
            let _ = q.forward(&[&states[0]]);
            let mut grad = vec![vec![[0.0f32; 2]; q.num_actions()]; 1];
            grad[0][11][0] = 0.25;
            q.apply_gradient(&grad);
        }
        let mut scratch = Scratch::new();
        let refs: Vec<&[f32]> = states.iter().map(Vec::as_slice).collect();
        let combined = q.infer(&refs, &mut scratch);
        // Batch of one, prefixes, suffixes, reversed order: every
        // composition must reproduce the combined rows exactly.
        for (i, s) in refs.iter().enumerate() {
            assert_eq!(q.infer(&[s], &mut scratch)[0], combined[i], "singleton {i}");
        }
        for split in 1..refs.len() {
            let lo = q.infer(&refs[..split], &mut scratch);
            let hi = q.infer(&refs[split..], &mut scratch);
            assert_eq!(lo, combined[..split], "prefix split {split}");
            assert_eq!(hi, combined[split..], "suffix split {split}");
        }
        let rev: Vec<&[f32]> = refs.iter().rev().copied().collect();
        let reversed = q.infer(&rev, &mut scratch);
        for (i, row) in reversed.iter().enumerate() {
            assert_eq!(*row, combined[refs.len() - 1 - i], "reversed {i}");
        }
    }

    #[test]
    fn gradient_step_moves_selected_q() {
        let mut q = PrefixQNet::new(&QNetConfig::tiny(8));
        let env = PrefixEnv::new(
            EnvConfig::analytical(8),
            Arc::new(TaskEvaluator::analytical(Adder)),
        );
        let f = env.features();
        let action = 40usize;
        let mut scratch = Scratch::new();
        let before = q.infer(&[&f], &mut scratch)[0][action];
        // Push Q_area(action) down for a few steps.
        for _ in 0..10 {
            let _ = q.forward(&[&f]);
            let mut grad = vec![vec![[0.0f32; 2]; q.num_actions()]; 1];
            grad[0][action][0] = 1.0; // dL/dQ > 0 → Q decreases
            q.apply_gradient(&grad);
        }
        let after = q.infer(&[&f], &mut scratch)[0][action];
        assert!(after[0] < before[0], "{} !< {}", after[0], before[0]);
    }

    /// The gradient step skips the stem's input gradient; every parameter
    /// gradient must still be bitwise what the full backward produces.
    #[test]
    fn parameter_only_backward_matches_full_backward() {
        let cfg = QNetConfig::tiny(8);
        let (mut full, mut params_only) = (PrefixQNet::new(&cfg), PrefixQNet::new(&cfg));
        let mut env = PrefixEnv::new(
            EnvConfig::analytical(8),
            Arc::new(TaskEvaluator::analytical(Adder)),
        );
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        env.reset(&mut rng);
        let a = env.features();
        let legal = env.action_mask();
        let _ = env.step_flat((0..legal.len()).find(|&a| legal[a]).unwrap());
        let b = env.features();
        let g = Tensor::from_vec(
            [2, 4, 8, 8],
            (0..512)
                .map(|i| ((i * 29) % 31) as f32 * 0.01 - 0.15)
                .collect(),
        );
        let mut scratch = Scratch::new();
        let mut param_grads = |q: &mut PrefixQNet, params_only: bool| {
            let _ = q.forward(&[&a, &b]);
            q.net.zero_grad();
            if params_only {
                q.net.backward_params(&g, &mut scratch);
            } else {
                let gin = q.net.backward_with(&g, &mut scratch);
                scratch.recycle(gin);
            }
            let mut out = Vec::new();
            q.net.visit_params(&mut |p| out.push(p.grad.clone()));
            out
        };
        let expect = param_grads(&mut full, false);
        assert!(expect[0].iter().any(|&v| v != 0.0), "stem got no gradient");
        assert_eq!(param_grads(&mut params_only, true), expect);
    }

    #[test]
    fn state_roundtrip_between_instances() {
        let cfg = QNetConfig::tiny(8);
        let mut a = PrefixQNet::new(&cfg);
        let mut b = PrefixQNet::new(&QNetConfig { seed: 42, ..cfg });
        let env = PrefixEnv::new(
            EnvConfig::analytical(8),
            Arc::new(TaskEvaluator::analytical(Adder)),
        );
        let f = env.features();
        let s = a.state();
        b.load_state(&s).unwrap();
        let mut scratch = Scratch::new();
        let qa = a.infer(&[&f], &mut scratch);
        let qb = b.infer(&[&f], &mut scratch);
        assert_eq!(qa[0][5], qb[0][5]);
    }

    #[test]
    fn truncated_adam_state_rejected() {
        let cfg = QNetConfig::tiny(8);
        let mut q = PrefixQNet::new(&cfg);
        // Take one gradient step so the optimizer has real moments.
        let env = PrefixEnv::new(
            EnvConfig::analytical(8),
            Arc::new(TaskEvaluator::analytical(Adder)),
        );
        let f = env.features();
        let _ = q.forward(&[&f]);
        let mut grad = vec![vec![[0.0f32; 2]; q.num_actions()]; 1];
        grad[0][3][0] = 1.0;
        q.apply_gradient(&grad);
        let good = q.opt_state();
        let mut fresh = PrefixQNet::new(&cfg);
        fresh.load_opt_state(&good).unwrap();
        // A fresh optimizer has no moments to validate against, so the
        // network-level check must catch truncation/corruption.
        let mut missing_tensor = good.clone();
        missing_tensor.m.pop();
        missing_tensor.v.pop();
        assert!(PrefixQNet::new(&cfg)
            .load_opt_state(&missing_tensor)
            .is_err());
        let mut short_tensor = good.clone();
        short_tensor.v[0].pop();
        assert!(PrefixQNet::new(&cfg).load_opt_state(&short_tensor).is_err());
    }

    /// Parameters survive a checkpoint's byte form: `state()` written as
    /// JSON text, read back, checked by `digest` and loaded into a
    /// differently seeded network gives bit-identical Q-values.
    #[test]
    fn checkpoint_bytes_roundtrip() {
        let cfg = QNetConfig::tiny(8);
        let mut a = PrefixQNet::new(&cfg);
        let state = a.state();
        let bytes = serde_json::to_string(&state).unwrap();
        let read: Vec<Vec<f32>> = serde_json::from_str(&bytes).unwrap();
        assert_eq!(nn::serialize::digest(&read), nn::serialize::digest(&state));
        let mut b = PrefixQNet::new(&QNetConfig { seed: 9, ..cfg });
        b.load_state(&read).unwrap();
        let env = PrefixEnv::new(
            EnvConfig::analytical(8),
            Arc::new(TaskEvaluator::analytical(Adder)),
        );
        let f = env.features();
        let mut scratch = Scratch::new();
        assert_eq!(a.infer(&[&f], &mut scratch), b.infer(&[&f], &mut scratch));
    }
}
