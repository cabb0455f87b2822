//! Pinned learner outputs: whole training runs past `min_replay`, as bits.
//!
//! `kernel_tiers` compares the compute tiers with each other, so a change
//! that moves every tier the same way passes it. These runs compare with
//! literals recorded from the code before the learner's target pass was
//! narrowed to the rows its bootstrap value reads: the gradient-step
//! losses, the design pool (canonical keys and objective points) and both
//! networks' parameter digests. A change that alters one rounding anywhere
//! in a gradient step fails here with the run's label.

use prefixrl_core::agent::{AgentConfig, TrainLoop};
use prefixrl_core::evaluator::Evaluator;
use prefixrl_core::experiment::NullObserver;
use prefixrl_core::task::Adder;
use std::sync::Arc;

/// What one training run leaves behind, as digests of its bits.
#[derive(Debug, PartialEq)]
struct Run {
    /// Gradient steps taken (one loss each).
    grad_steps: usize,
    /// FNV-1a over every loss's `f32` bits, in step order.
    loss_digest: u64,
    /// The last loss's bits.
    last_loss: u32,
    /// Designs in the pool.
    designs: usize,
    /// FNV-1a over every design's canonical key words and its area and
    /// delay bits, in pool order.
    design_digest: u64,
    /// The checkpoint's `net_digest` (online parameters).
    net_digest: u64,
    /// `nn::serialize::digest` of the target network's state.
    target_digest: u64,
}

/// FNV-1a over a stream of 64-bit words.
fn fnv(words: impl IntoIterator<Item = u64>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for w in words {
        for b in w.to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

fn train(cfg: &AgentConfig) -> Run {
    assert!(
        cfg.total_steps > cfg.dqn.min_replay as u64,
        "the run must reach gradient steps"
    );
    let mut lp = TrainLoop::new(cfg, Arc::new(Evaluator::analytical(Adder)));
    lp.run_to_completion(0, &mut NullObserver);
    let ckpt = lp.checkpoint();
    let target_digest = nn::serialize::digest(&ckpt.trainer.target);
    let (_, result) = lp.into_parts(0);
    let losses: Vec<u32> = result.losses.iter().map(|l| l.to_bits()).collect();
    Run {
        grad_steps: losses.len(),
        loss_digest: fnv(losses.iter().map(|&b| b as u64)),
        last_loss: *losses.last().expect("no gradient step was taken"),
        designs: result.designs.len(),
        design_digest: fnv(result.designs.iter().flat_map(|(g, p)| {
            let mut words = g.canonical_key();
            words.extend([p.area.to_bits(), p.delay.to_bits()]);
            words
        })),
        net_digest: ckpt.net_digest,
        target_digest,
    }
}

fn check(label: &str, cfg: &AgentConfig, expect: Run) {
    let got = train(cfg);
    assert_eq!(got, expect, "{label}: learner bits moved");
}

#[test]
fn analytical_16b_run_is_pinned() {
    check(
        "16b",
        &AgentConfig::small(16, 0.5, 260),
        Run {
            grad_steps: 61,
            loss_digest: 0xc47485b21684140c,
            last_loss: 0x3ea8e89f,
            designs: 201,
            design_digest: 0xd37f1b7bbdde3271,
            net_digest: 0x4b034827b7529315,
            target_digest: 0x124410a8b524c236,
        },
    );
}

#[test]
fn analytical_8b_run_is_pinned() {
    check(
        "8b",
        &AgentConfig {
            seed: 3,
            ..AgentConfig::small(8, 0.25, 280)
        },
        Run {
            grad_steps: 81,
            loss_digest: 0x6687633baab6aada,
            last_loss: 0x3db43fe4,
            designs: 162,
            design_digest: 0x47c083d9870f0d89,
            net_digest: 0xc6f46795ca97f51f,
            target_digest: 0x9b1228de2bdda188,
        },
    );
}

#[test]
fn analytical_32b_run_is_pinned() {
    check(
        "32b",
        &AgentConfig {
            seed: 5,
            ..AgentConfig::small(32, 0.75, 230)
        },
        Run {
            grad_steps: 31,
            loss_digest: 0x49f1d7b82c460bdd,
            last_loss: 0x3e977913,
            designs: 184,
            design_digest: 0xe8bd4843aaf7275d,
            net_digest: 0xae955b65d3d1ea94,
            target_digest: 0x3c42aca4413df08b,
        },
    );
}

#[test]
fn two_actor_16b_run_is_pinned() {
    check(
        "16b, 2 actors",
        &AgentConfig {
            actors: 2,
            seed: 7,
            ..AgentConfig::small(16, 0.6, 270)
        },
        Run {
            grad_steps: 71,
            loss_digest: 0xd53847433418cbb6,
            last_loss: 0x3e7e9694,
            designs: 186,
            design_digest: 0xc7625ee69022c6ac,
            net_digest: 0xaee9dd373a765b4a,
            target_digest: 0xf407dec46c016712,
        },
    );
}
