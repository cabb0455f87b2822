//! `QNetwork::infer_at` against `QNetwork::infer`, bitwise, at every
//! kernel tier.
//!
//! The Double-DQN bootstrap reads the target network through `infer_at`,
//! which computes each layer only on the rows the chosen action's cell
//! reads. Its values must be the full pass's bits: random states and
//! actions at 8/16/32/64 bits, always including the edge rows 0, 1 and
//! `N−1` (where the windows clamp) and both action kinds, on a trained
//! network (nontrivial batch-norm statistics), plus a deep network whose
//! windows widen to the whole plane. One test in its own binary, because
//! `nn::simd::set_max_tier` is process-wide.

use nn::simd::{self, Tier};
use nn::Scratch;
use prefixrl_core::qnet::{PrefixQNet, QNetConfig};
use rand::prelude::*;
use rl::QNetwork;

/// A network one gradient step away from its initialization: parameters
/// and batch-norm running statistics off their defaults.
fn trained(cfg: &QNetConfig, rng: &mut StdRng) -> PrefixQNet {
    let mut q = PrefixQNet::new(cfg);
    let states = random_states(cfg.n as usize, 4, rng);
    let refs: Vec<&[f32]> = states.iter().map(Vec::as_slice).collect();
    q.forward(&refs);
    let mut grad = vec![vec![[0.0f32; 2]; q.num_actions()]; refs.len()];
    for row in &mut grad {
        let a = rng.random_range(0..row.len());
        row[a] = [0.3, -0.2];
    }
    q.apply_gradient(&grad);
    q
}

/// Feature planes of mixed binary and real values.
fn random_states(n: usize, count: usize, rng: &mut StdRng) -> Vec<Vec<f32>> {
    (0..count)
        .map(|_| {
            (0..4 * n * n)
                .map(|i| {
                    if i % 3 == 0 {
                        rng.random::<f32>() * 4.0 - 2.0
                    } else {
                        f32::from(rng.random::<bool>())
                    }
                })
                .collect()
        })
        .collect()
}

/// Random actions, then one of each kind on rows 0, 1 and `N−1`.
fn actions(n: usize, count: usize, rng: &mut StdRng) -> Vec<usize> {
    let plane = n * n;
    let mut out: Vec<usize> = (0..count).map(|_| rng.random_range(0..2 * plane)).collect();
    for row in [0, 1, n - 1] {
        for kind in 0..2 {
            out.push(kind * plane + row * n + rng.random_range(0..n));
        }
    }
    out
}

fn check(label: &str, cfg: &QNetConfig, seed: u64) {
    let n = cfg.n as usize;
    let mut rng = StdRng::seed_from_u64(seed);
    let q = trained(cfg, &mut rng);
    let acts = actions(n, 10, &mut rng);
    let states = random_states(n, acts.len(), &mut rng);
    let refs: Vec<&[f32]> = states.iter().map(Vec::as_slice).collect();
    let mut scratch = Scratch::new();
    let full = q.infer(&refs, &mut scratch);
    let at = q.infer_at(&refs, &acts, &mut scratch);
    assert_eq!(at.len(), acts.len());
    for (b, (&a, got)) in acts.iter().zip(&at).enumerate() {
        let want = full[b][a];
        assert_eq!(
            got.map(f32::to_bits),
            want.map(f32::to_bits),
            "{label} at {:?}: sample {b}, action {a} (row {})",
            simd::tier(),
            a % (n * n) / n
        );
    }
    // A one-state batch reads the same bits.
    let single = q.infer_at(&refs[..1], &acts[..1], &mut scratch);
    assert_eq!(single[0].map(f32::to_bits), at[0].map(f32::to_bits));
}

#[test]
fn infer_at_matches_infer_bitwise_at_every_tier() {
    let saved = simd::max_tier();
    for tier in [Tier::Scalar, Tier::Avx, Tier::Avx512] {
        if simd::cpu_tier() < tier {
            continue;
        }
        simd::set_max_tier(tier);
        for (i, n) in [8u16, 16, 32, 64].into_iter().enumerate() {
            check(&format!("small({n})"), &QNetConfig::small(n), 11 + i as u64);
        }
        // Three blocks reach 13 rows each way: on an 8-row plane every
        // window is the whole plane.
        let deep = QNetConfig {
            channels: 4,
            blocks: 3,
            ..QNetConfig::tiny(8)
        };
        check("deep tiny(8)", &deep, 5);
    }
    simd::set_max_tier(saved);
}
