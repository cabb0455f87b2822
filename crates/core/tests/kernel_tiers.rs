//! Whole-loop bit-identity across the compute engine's kernel tiers.
//!
//! The parity suites in `crates/nn/tests` check each kernel against its
//! scalar twin; this checks what those guarantees add up to. A training
//! run long enough to take gradient steps (past `min_replay`) must produce
//! the same losses, the same design pool and the same network, bit for
//! bit, at every tier the CPU has: sixteen lanes, eight lanes and scalar.
//! One test in its own binary, because `nn::simd::set_max_tier` is
//! process-wide.

use nn::simd::{self, Tier};
use prefixrl_core::agent::{AgentConfig, TrainLoop};
use prefixrl_core::evaluator::Evaluator;
use prefixrl_core::experiment::NullObserver;
use prefixrl_core::task::Adder;
use std::io::Write as _;
use std::sync::Arc;

/// What one training run leaves behind, as bits.
#[derive(Debug, PartialEq)]
struct Run {
    losses: Vec<u32>,
    /// `(canonical key, area bits, delay bits)` per design, in pool order.
    designs: Vec<(Vec<u64>, u64, u64)>,
    net_digest: u64,
}

fn train(tier: Tier, steps: u64) -> Run {
    simd::set_max_tier(tier);
    assert_eq!(
        simd::tier(),
        tier,
        "the CPU must support the tier trained at"
    );
    let cfg = AgentConfig::small(16, 0.5, steps);
    let mut lp = TrainLoop::new(&cfg, Arc::new(Evaluator::analytical(Adder)));
    lp.run_to_completion(0, &mut NullObserver);
    let net_digest = lp.checkpoint().net_digest;
    let (_, result) = lp.into_parts(0);
    Run {
        losses: result.losses.iter().map(|l| l.to_bits()).collect(),
        designs: result
            .designs
            .iter()
            .map(|(g, p)| (g.canonical_key(), p.area.to_bits(), p.delay.to_bits()))
            .collect(),
        net_digest,
    }
}

#[test]
fn training_is_bit_identical_with_vector_kernels_on_and_off() {
    let steps = 260;
    let min_replay = AgentConfig::small(16, 0.5, steps).dqn.min_replay as u64;
    assert!(steps > min_replay, "the run must reach gradient steps");
    let saved = simd::max_tier();
    let scalar = train(Tier::Scalar, steps);
    assert!(!scalar.losses.is_empty(), "no gradient step was taken");
    for tier in [Tier::Avx, Tier::Avx512] {
        if simd::cpu_tier() < tier {
            // Straight to the stream, past the harness's output capture:
            // a skipped leg must show in every run's log.
            let _ = writeln!(
                std::io::stderr(),
                "kernel_tiers: this CPU lacks {tier:?}; its leg was skipped"
            );
            continue;
        }
        let vector = train(tier, steps);
        assert_eq!(vector.losses, scalar.losses, "losses diverged at {tier:?}");
        assert_eq!(
            vector.designs, scalar.designs,
            "design pools diverged at {tier:?}"
        );
        assert_eq!(
            vector.net_digest, scalar.net_digest,
            "networks diverged at {tier:?}"
        );
    }
    simd::set_max_tier(saved);
}
