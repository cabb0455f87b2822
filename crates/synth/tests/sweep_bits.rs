//! Pinned synthesis outputs: sweep curves and backend scores must stay
//! bit-identical across changes to the library tables, the STA pass and
//! the optimizer's inner loop.
//!
//! Every expected value is an `f64::to_bits` literal recorded from the
//! original (per-call library lookup, `Vec<Vec<Sink>>` fanout) code; the
//! random-walk scores were recorded from the per-iteration-topology
//! optimizer that preceded the kept-up-to-date one, and the random-walk
//! sweeps under `paper()` and `commercial()` from the sweep that ran one
//! optimizer per target. A change that alters one rounding anywhere in a
//! sweep fails here with the case's label and the position of the first
//! differing value.

use netlist::Library;
use prefix_graph::{structures, PrefixGraph};
use prefixrl_core::task::{
    Adder, CircuitTask, Incrementer, ObjectiveBackend, PrefixOr, SynthesisBackend,
};
use rand::prelude::*;
use synth::sweep::{sweep_graph, SweepConfig};

/// The bits of a curve's `min_delay`, `max_delay` and its area at five
/// evenly spaced delays from the one to the other.
fn curve_bits(curve: &synth::AreaDelayCurve) -> Vec<u64> {
    let (lo, hi) = (curve.min_delay(), curve.max_delay());
    let mut bits = vec![lo.to_bits(), hi.to_bits()];
    bits.extend((0..5).map(|i| curve.area_at(lo + (hi - lo) * i as f64 / 4.0).to_bits()));
    bits
}

/// `sweep_graph` over the six classical structures at 8–64 bits, under
/// `fast()` and `paper()` on nangate45 and `fast()` on tech8.
fn sweep_cases() -> Vec<(String, Vec<u64>)> {
    let configs = [
        ("fast/nangate45", SweepConfig::fast(), Library::nangate45()),
        (
            "paper/nangate45",
            SweepConfig::paper(),
            Library::nangate45(),
        ),
        ("fast/tech8", SweepConfig::fast(), Library::tech8()),
    ];
    let mut cases = Vec::new();
    for (config, cfg, lib) in &configs {
        for (name, ctor) in structures::all_regular() {
            for n in [8u16, 16, 32, 64] {
                let curve = sweep_graph(&ctor(n), lib, cfg);
                cases.push((format!("{config}/{name}/{n}"), curve_bits(&curve)));
            }
        }
    }
    cases
}

/// `SynthesisBackend::score` (area, delay) and the `synthesis-power`
/// annotation for each task over the six structures at 16 bits.
fn backend_cases() -> Vec<(String, Vec<u64>)> {
    let backend = SynthesisBackend::new(Library::nangate45(), SweepConfig::fast(), 0.5)
        .with_power_annotation();
    let tasks: [&dyn CircuitTask; 3] = [&Adder, &PrefixOr, &Incrementer];
    let mut cases = Vec::new();
    for task in tasks {
        for (name, ctor) in structures::all_regular() {
            let g = ctor(16);
            let point = backend.score(task, &g);
            let power = backend.annotate(task, &g).expect("power annotation on");
            cases.push((
                format!("{}/{name}/16", task.task_id()),
                vec![point.area.to_bits(), point.delay.to_bits(), power.to_bits()],
            ));
        }
    }
    cases
}

/// A walk of `steps` legal actions drawn uniformly from ripple by a seeded
/// generator: the dense, high-fanout states an exploring agent visits.
fn random_walk(n: u16, seed: u64, steps: usize) -> PrefixGraph {
    walk_from(PrefixGraph::ripple(n), seed, steps)
}

/// A walk of `steps` legal actions from `g`, as [`random_walk`].
fn walk_from(mut g: PrefixGraph, seed: u64, steps: usize) -> PrefixGraph {
    let mut rng = StdRng::seed_from_u64(seed);
    for _ in 0..steps {
        let actions = g.legal_actions();
        g.apply(actions[rng.random_range(0..actions.len())])
            .expect("legal");
    }
    g
}

/// `SynthesisBackend::score` (area, delay) under `fast()` for three
/// random-walk adder states at each of 16, 32 and 64 bits. Unlike the
/// classical structures, every one of them inserts buffers in the middle
/// of its tighter targets' optimizer runs.
fn random_walk_cases() -> Vec<(String, Vec<u64>)> {
    let backend = SynthesisBackend::new(Library::nangate45(), SweepConfig::fast(), 0.5);
    let mut cases = Vec::new();
    for (n, steps) in [(16u16, 60usize), (32, 120), (64, 200)] {
        for seed in 0..3u64 {
            let point = backend.score(&Adder, &random_walk(n, seed, steps));
            cases.push((
                format!("adder/walk{seed}/{n}"),
                vec![point.area.to_bits(), point.delay.to_bits()],
            ));
        }
    }
    cases
}

/// `sweep_graph` curves of three random-walk adder states at each of 16
/// and 32 bits under `paper()` (4 targets, 80 iterations) and
/// `commercial()` (5 targets, 160 iterations), then of three walks from
/// Sklansky on which two unmet targets choose different moves in the same
/// iteration (the rare case: 3 of 1,800 walks searched at 8–32 bits).
fn random_walk_sweep_cases() -> Vec<(String, Vec<u64>)> {
    let lib = Library::nangate45();
    let configs = [
        ("paper", SweepConfig::paper()),
        ("commercial", SweepConfig::commercial()),
    ];
    let mut cases = Vec::new();
    for (config, cfg) in &configs {
        for (n, steps) in [(16u16, 60usize), (32, 120)] {
            for seed in 0..3u64 {
                let curve = sweep_graph(&random_walk(n, seed, steps), &lib, cfg);
                cases.push((format!("{config}/walk{seed}/{n}"), curve_bits(&curve)));
            }
        }
    }
    let forking = [
        ("fast", SweepConfig::fast(), 8u16, 47u64, 10usize),
        ("fast", SweepConfig::fast(), 16, 77, 28),
        ("paper", SweepConfig::paper(), 8, 47, 10),
    ];
    for (config, cfg, n, seed, steps) in forking {
        let curve = sweep_graph(&walk_from(structures::sklansky(n), seed, steps), &lib, &cfg);
        cases.push((
            format!("{config}/sklansky-walk{seed}/{n}"),
            curve_bits(&curve),
        ));
    }
    cases
}

fn assert_pinned<const K: usize>(got: &[(String, Vec<u64>)], pinned: &[(&str, [u64; K])]) {
    assert_eq!(got.len(), pinned.len(), "case count");
    for ((label, bits), (want_label, want)) in got.iter().zip(pinned) {
        assert_eq!(label, want_label, "case order");
        if let Some(i) = (0..K).find(|&i| bits[i] != want[i]) {
            panic!(
                "{label}: value {i} is {} (bits {:#018x}), pinned {} (bits {:#018x})",
                f64::from_bits(bits[i]),
                bits[i],
                f64::from_bits(want[i]),
                want[i]
            );
        }
    }
}

#[test]
fn sweep_curves_match_pinned_bits() {
    assert_pinned(&sweep_cases(), SWEEPS);
}

#[test]
fn backend_scores_match_pinned_bits() {
    assert_pinned(&backend_cases(), BACKEND);
}

#[test]
fn random_walk_scores_match_pinned_bits() {
    assert_pinned(&random_walk_cases(), RANDOM_WALK);
}

#[test]
fn random_walk_sweeps_match_pinned_bits() {
    assert_pinned(&random_walk_sweep_cases(), RANDOM_WALK_SWEEPS);
}

// Expected: (case, [min_delay, max_delay, area_at × 5]).
#[rustfmt::skip]
const SWEEPS: &[(&str, [u64; 7])] = &[
    ("fast/nangate45/Ripple/8", [0x3fd269e1ad9da908, 0x3fd705a708ede54c, 0x404cb1db22d0e562, 0x404af95c28f5c290, 0x404940dd2f1a9fbf, 0x4047885e353f7cee, 0x4045cfdf3b645a1c]),
    ("fast/nangate45/Ripple/16", [0x3fe1e1694ef37135, 0x3fe67e52157689ca, 0x405b0c83126e978a, 0x4059f06c8b43957d, 0x4058d45604189370, 0x4057b83f7ced9162, 0x40569c28f5c28f56]),
    ("fast/nangate45/Ripple/32", [0x3ff1a33ed0a2c772, 0x3ff63aa79bbadc07, 0x406ad30e56041890, 0x4069dede353f7ce9, 0x4068eaae147ae143, 0x4067f67df3b6459c, 0x4067024dd2f1a9f6]),
    ("fast/nangate45/Ripple/64", [0x40018429917a7290, 0x400618d25edd052c, 0x407ab653f7ced944, 0x4079d6170a3d70d0, 0x4078f5da1cac085c, 0x4078159d2f1a9fe8, 0x4077356041893774]),
    ("fast/nangate45/Sklansky/8", [0x3fca9009b8c921a9, 0x3fd136262cba732e, 0x40556dfbe76c8b44, 0x405358eb851eb852, 0x405143db22d0e562, 0x404e5d95810624dd, 0x404a3374bc6a7efc]),
    ("fast/nangate45/Sklansky/16", [0x3fd0a149ffe0674e, 0x3fd9b8bac710cb2a, 0x406b9072b020c49e, 0x4061549536c94c75, 0x406025e105a9e4f5, 0x405f7254b9aef20c, 0x405f304189374bc1]),
    ("fast/nangate45/Sklansky/32", [0x3fd4a53497bd425d, 0x3fe4161e4f765fd8, 0x407833ac083126fd, 0x4072c864377f2447, 0x4071a1883a2e5a28, 0x4071891f141c14e4, 0x407181916872b020]),
    ("fast/nangate45/Sklansky/64", [0x3fd72f65657a5a26, 0x3ff125b9628cbd10, 0x408a6f926e978d3f, 0x40845bcec63f03c1, 0x4084099f105702e4, 0x4083fa4210920a76, 0x4083f553f7ced920]),
    ("fast/nangate45/KoggeStone/8", [0x3fca8f54f0f252b5, 0x3fcf43e963dc486b, 0x405c5cbc6a7ef9dc, 0x4058fee56041893a, 0x4055a10e56041896, 0x405243374bc6a7f1, 0x404dcac083126e9e]),
    ("fast/nangate45/KoggeStone/16", [0x3fcf9f96a611af03, 0x3fd30e7ff583a53b, 0x407306fdf3b645a5, 0x40709d570a3d70a6, 0x406c67604189374f, 0x406794126e978d4c, 0x4062c0c49ba5e350]),
    ("fast/nangate45/KoggeStone/32", [0x3fd32010f4866547, 0x3fd763b256ffc115, 0x4081bebf7ced9174, 0x40800f6dd2f1aa07, 0x407cc03851eb8531, 0x40796194fdf3b654, 0x407602f1a9fbe77a]),
    ("fast/nangate45/KoggeStone/64", [0x3fd6e083ba9b3226, 0x3fdba493c89f40a3, 0x409039970a3d708c, 0x408ed89be76c8b1d, 0x408d3e09ba5e3523, 0x408ba3778d4fdf28, 0x408a08e56041892d]),
    ("fast/nangate45/BrentKung/8", [0x3fcab11c468b8d11, 0x3fd3234eb9a176dd, 0x4057d71a9fbe76ca, 0x405035fa5a3442be, 0x404c5ff88b90482c, 0x404a30bbc3997be2, 0x404989374bc6a7f0]),
    ("fast/nangate45/BrentKung/16", [0x3fd1b79b8a92064a, 0x3fdbe52157689ca2, 0x406960c8b4395811, 0x405fd104badb0cce, 0x405d538712b4b1c9, 0x405c35a1d1cfe62a, 0x405bdd0e56041890]),
    ("fast/nangate45/BrentKung/32", [0x3fd60264948b1e60, 0x3fe313e81450efdd, 0x40788aeb851eb868, 0x407026b488d75cfd, 0x406d8db3377a6ec0, 0x406d2d012a8d9a1c, 0x406d0f7ced916872]),
    ("fast/nangate45/BrentKung/64", [0x3fdad307a2ae2bfa, 0x3fe910385c67dfe4, 0x40872128f5c28f4a, 0x4080c834b18f6845, 0x407e24efc5eb7335, 0x407df08e5575013e, 0x407de0083126e9a2]),
    ("fast/nangate45/HanCarlson/8", [0x3fcaa93b59052c5d, 0x3fd0dea897635e74, 0x4058f883126e978c, 0x405600d0e5604188, 0x4053091eb851eb86, 0x4050116c8b439583, 0x404a3374bc6a7efc]),
    ("fast/nangate45/HanCarlson/16", [0x3fd06109b3935142, 0x3fd59abf33871609, 0x406f9cc8b4395815, 0x406b710f5c28f5c4, 0x4067455604189374, 0x4063199cac083127, 0x405ddbc6a7ef9dad]),
    ("fast/nangate45/HanCarlson/32", [0x3fd357a703d7d18e, 0x3fdaded288ce703c, 0x4080d2020c49ba6c, 0x40769df0cae742d5, 0x407346d68edc39d2, 0x407184cd39884cc6, 0x407101e353f7ced6]),
    ("fast/nangate45/HanCarlson/64", [0x3fd7cf04cc4e77e1, 0x3fe0504816f0068e, 0x408a1521cac082f4, 0x40854969a7fcb491, 0x4083adb1576b1663, 0x4082d6734636b4dc, 0x4082985604189390]),
    ("fast/nangate45/LadnerFischer/8", [0x3fcab11c468b8d11, 0x3fd3234eb9a176dd, 0x4057d71a9fbe76ca, 0x405035fa5a3442be, 0x404c5ff88b90482c, 0x404a30bbc3997be2, 0x404989374bc6a7f0]),
    ("fast/nangate45/LadnerFischer/16", [0x3fd1d563d3f92d37, 0x3fd93e2d6238da3c, 0x4066bc147ae147ae, 0x4060c2e15a60abbf, 0x405e4b6ac764b034, 0x405c927ae434de68, 0x405c1020c49ba5dd]),
    ("fast/nangate45/LadnerFischer/32", [0x3fd54e3c8a473dfa, 0x3fe1157689ca18bd, 0x40787272b020c4b5, 0x40700dcbd5a76b5b, 0x406f42061ab2c6d1, 0x406f0c7cd5c915bf, 0x406efd2f1a9fbe78]),
    ("fast/nangate45/LadnerFischer/64", [0x3fd9b3467211dd5e, 0x3fe91ceaf251c192, 0x4085f62d0e560411, 0x4080c792151e86bc, 0x40806f53675feffe, 0x4080638ca98ef7fc, 0x40806028f5c28f72]),
    ("paper/nangate45/Ripple/8", [0x3fd25dbe4b94c4c2, 0x3fd705a708ede54c, 0x404b7f6c8b439582, 0x404a1389374bc6aa, 0x4048a7a5e353f7cf, 0x40473bc28f5c28f4, 0x4045cfdf3b645a1c]),
    ("paper/nangate45/Ripple/16", [0x3fe1e1694ef37135, 0x3fe67e52157689ca, 0x405b0c83126e978a, 0x4059f06c8b43957d, 0x4058d45604189370, 0x4057b83f7ced9162, 0x40569c28f5c28f56]),
    ("paper/nangate45/Ripple/32", [0x3ff1a33ed0a2c772, 0x3ff63aa79bbadc07, 0x406ad30e56041890, 0x4069dede353f7ce9, 0x4068eaae147ae143, 0x4067f67df3b6459c, 0x4067024dd2f1a9f6]),
    ("paper/nangate45/Ripple/64", [0x40018429917a7290, 0x400618d25edd052c, 0x407ab653f7ced944, 0x4079d6170a3d70d0, 0x4078f5da1cac085c, 0x4078159d2f1a9fe8, 0x4077356041893774]),
    ("paper/nangate45/Sklansky/8", [0x3fca9009b8c921a9, 0x3fd136262cba732e, 0x40556dfbe76c8b44, 0x405358eb851eb852, 0x405143db22d0e562, 0x404e5d95810624dd, 0x404a3374bc6a7efc]),
    ("paper/nangate45/Sklansky/16", [0x3fd0e6a193cab3e6, 0x3fd9b8bac710cb2a, 0x40658122d0e56040, 0x4060ca6bb5dfe825, 0x406014242aabc206, 0x405f6bc3c11c572e, 0x405f304189374bc1]),
    ("paper/nangate45/Sklansky/32", [0x3fd49df1172ef0af, 0x3fe4161e4f765fd8, 0x40756247ae147aee, 0x4072494023fa7949, 0x407199b09c73e445, 0x4071874ea0222976, 0x407181916872b020]),
    ("paper/nangate45/Sklansky/64", [0x3fd650bbe475369f, 0x3ff125b9628cbd10, 0x408a47ac083126d9, 0x40845cc0e67fe829, 0x40840a7d34335894, 0x4083fa8b3d276bdc, 0x4083f553f7ced920]),
    ("paper/nangate45/KoggeStone/8", [0x3fca8f54f0f252b5, 0x3fcf43e963dc486b, 0x405ea810624dd2f1, 0x405ab7645a1cac09, 0x4056c6b851eb8520, 0x4052d60c49ba5e36, 0x404dcac083126e9e]),
    ("paper/nangate45/KoggeStone/16", [0x3fcff85d14942e2e, 0x3fd30e7ff583a53b, 0x4073a6978d4fdf41, 0x4071150a3d70a3db, 0x406d06f9db22d0e9, 0x4067e3df3b645a1d, 0x4062c0c49ba5e350]),
    ("paper/nangate45/KoggeStone/32", [0x3fd2783e63e36045, 0x3fd763b256ffc115, 0x408bf4fef9db22a7, 0x4087b81d70a3d6ed, 0x40837b3be76c8b31, 0x407e7cb4bc6a7eef, 0x407602f1a9fbe77a]),
    ("paper/nangate45/KoggeStone/64", [0x3fd60fcd3995a366, 0x3fdba493c89f40a3, 0x40940190624dd2ed, 0x40924248f5c28f58, 0x4090830189374bc2, 0x408d877439581058, 0x408a08e56041892d]),
    ("paper/nangate45/BrentKung/8", [0x3fcab11c468b8d11, 0x3fd3234eb9a176dd, 0x4057fd6872b020c4, 0x405034e7aae54c95, 0x404c5d16697c38f4, 0x404a2f87bd12c76c, 0x404989374bc6a7f0]),
    ("paper/nangate45/BrentKung/16", [0x3fd1b79b8a92064a, 0x3fdbe52157689ca2, 0x406841810624dd30, 0x405ff5bc7b760db8, 0x405d2f2d65b51a0c, 0x405c2e40c28a02ab, 0x405bdd0e56041890]),
    ("paper/nangate45/BrentKung/32", [0x3fd6008e8d501c1a, 0x3fe313e81450efdd, 0x407aefc8b4395825, 0x40707cc53e2a88a1, 0x406da91fb8ffb12e, 0x406d3358e0649c74, 0x406d0f7ced916872]),
    ("paper/nangate45/BrentKung/64", [0x3fda98d48fee5c58, 0x3fe910385c67dfe4, 0x40895624dd2f1a8a, 0x4080f581143f951a, 0x407e184bbd17948d, 0x407ded4e640a2e18, 0x407de0083126e9a2]),
    ("paper/nangate45/HanCarlson/8", [0x3fcaa93b59052c5d, 0x3fd0dea897635e74, 0x405a04a3d70a3d70, 0x4056c9e978d4fdf3, 0x40538f2f1a9fbe78, 0x40505474bc6a7efb, 0x404a3374bc6a7efc]),
    ("paper/nangate45/HanCarlson/16", [0x3fd081e162d7ed25, 0x3fd59abf33871609, 0x406daad4fdf3b648, 0x4069fb989374bc6b, 0x40664c5c28f5c28f, 0x40629d1fbe76c8b3, 0x405ddbc6a7ef9dad]),
    ("paper/nangate45/HanCarlson/32", [0x3fd2f46cbe8b9310, 0x3fdaded288ce703c, 0x40824116872b0212, 0x4077f83e9806bb88, 0x4073fcbaed4ff176, 0x4071b944fca237a0, 0x407101e353f7ced6]),
    ("paper/nangate45/HanCarlson/64", [0x3fd62b0f7e15556c, 0x3fe0504816f0068e, 0x4091bebf7ced9151, 0x40868950865a2b4d, 0x4084416582fb7f38, 0x4082fcc1edf486c1, 0x4082985604189390]),
    ("paper/nangate45/LadnerFischer/8", [0x3fcab11c468b8d11, 0x3fd3234eb9a176dd, 0x4057fd6872b020c4, 0x405034e7aae54c95, 0x404c5d16697c38f4, 0x404a2f87bd12c76c, 0x404989374bc6a7f0]),
    ("paper/nangate45/LadnerFischer/16", [0x3fd1b6c881ab7ca5, 0x3fd93e2d6238da3c, 0x40644a72b020c499, 0x405f6cdf1155e3c9, 0x405d6af6c593fd44, 0x405c5de8673c0392, 0x405c1020c49ba5dd]),
    ("paper/nangate45/LadnerFischer/32", [0x3fd62f4b9e388242, 0x3fe1157689ca18bd, 0x4079783126e978ef, 0x406f8f240f52ca7d, 0x406f359107c5d396, 0x406f092867c98ecd, 0x406efd2f1a9fbe78]),
    ("paper/nangate45/LadnerFischer/64", [0x3fd9296e88451390, 0x3fe91ceaf251c192, 0x4083c13126e978d7, 0x4080b87158a7a214, 0x40806d06cda3442f, 0x408063148bca3e71, 0x40806028f5c28f72]),
    ("fast/tech8/Ripple/8", [0x3fcd09d9eb02c900, 0x3fd2ba94bbe4473e, 0x3fe50ec831bc0af3, 0x3fe3abc65d5edf57, 0x3fe248c48901b3bc, 0x3fe0e5c2b4a48821, 0x3fdf0581c08eb909]),
    ("fast/tech8/Ripple/16", [0x3fdc6b2eaed35745, 0x3fe26409b2730eb7, 0x3ff42352386a6304, 0x3ff31f7f42175b36, 0x3ff21bac4bc45369, 0x3ff117d955714b9c, 0x3ff014065f1e43ce]),
    ("fast/tech8/Ripple/32", [0x3fec1bd910bb9e63, 0x3ff238c42dba7277, 0x4003ad973bc18f12, 0x4002d95bb473992d, 0x400205202d25a347, 0x400130e4a5d7ad5f, 0x40005ca91e89b77a]),
    ("fast/tech8/Ripple/64", [0x3ffbf42e41afc1f2, 0x400223216b5e2456, 0x401372b9bd6d250a, 0x4012b649eda1b81d, 0x4011f9da1dd64b2d, 0x40113d6a4e0ade3f, 0x401080fa7e3f7151]),
    ("fast/tech8/Sklansky/8", [0x3fc4695decb71bf1, 0x3fcc44fc557d02b0, 0x3ff2b95a64e84095, 0x3fe817479310094a, 0x3fe47d6eba31b3e0, 0x3fe2f44edc94fe63, 0x3fe2a1bf19e5549b]),
    ("fast/tech8/Sklansky/16", [0x3fcc55943487aa69, 0x3fd5965964697164, 0x3ffddce932ed4b80, 0x3ff76381b6039ddc, 0x3ff6ab7d0c198bf9, 0x3ff64b098cc47d2b, 0x3ff62db172a47a22]),
    ("fast/tech8/Sklansky/32", [0x3fd03ca9d4b47f76, 0x3fe12f7c8a0fcf12, 0x401315f6b29140de, 0x400ac5fb00936e4e, 0x40091844822b5290, 0x4008f1abedbd9014, 0x4008e5c91d14e3bf]),
    ("fast/tech8/Sklansky/64", [0x3fd2a3c9a95a05f8, 0x3feddea67e846a5a, 0x4023823c7e4d6c71, 0x401cfe6984532fc4, 0x401c80dbbc018dc8, 0x401c69f38a7c0cb0, 0x401c62998df2fbfd]),
    ("fast/tech8/KoggeStone/8", [0x3fc4ecd2e52c8a02, 0x3fc97d9100504533, 0x3ff1e4e4c1cdf4b9, 0x3ff0119a8bf00438, 0x3fec7ca0ac24276f, 0x3fe8d60c40684669, 0x3fe52f77d4ac6568]),
    ("fast/tech8/KoggeStone/16", [0x3fc8e9c54a69aabb, 0x3fcf3d9d0ab16f28, 0x40104c780a446e35, 0x400bc82c58953420, 0x4006f7689ca18bd2, 0x400226a4e0ade388, 0x3ffaabc24974767a]),
    ("fast/tech8/KoggeStone/32", [0x3fceb0929c0f96d6, 0x3fd34c26b0ebd486, 0x401a6d69cb8d9143, 0x4017bbd3e8a97288, 0x40150a3e05c553d0, 0x401258a822e13514, 0x400f4e247ffa2cb3]),
    ("fast/tech8/KoggeStone/64", [0x3fd25e9cf7d9ed96, 0x3fd6fd999b55e82f, 0x4028a613f863fa76, 0x40271d6dccd3ca58, 0x402594c7a1439a39, 0x40240c2175b36a18, 0x4022837b4a2339fa]),
    ("fast/tech8/BrentKung/8", [0x3fc4d449b5c01639, 0x3fcf52f04a3db16f, 0x3ff239a2a120a651, 0x3fe76458636a9336, 0x3fe47518f6d7a218, 0x3fe2ba0a9291a488, 0x3fe228afdadce933]),
    ("fast/tech8/BrentKung/16", [0x3fcbcf5729c43e8d, 0x3fd71d4f9c1f85d8, 0x4002f67cf9380632, 0x3ff7c4a2d02c3a2b, 0x3ff4ae668d5546bb, 0x3ff4060c141b4a34, 0x3ff3d065377a611d]),
    ("fast/tech8/BrentKung/32", [0x3fd1515e935b27d8, 0x3fdfeb86db06e6f6, 0x40149d49e6a42644, 0x4007c303f8153bef, 0x4004ff6e14c462e9, 0x4004be0d7ad40cf6, 0x4004aa4d75bcbc0e]),
    ("fast/tech8/BrentKung/64", [0x3fd57747a94ba906, 0x3fe521f23c7ed112, 0x4021935467a7f697, 0x40183b24e4b60655, 0x4015719f9619b2a7, 0x40154ac48012dba0, 0x40153e99bc8d72e0]),
    ("fast/tech8/HanCarlson/8", [0x3fc4ee69d2921932, 0x3fcb6e4b54d4cdf0, 0x3ff411c47d5b1600, 0x3ff1618b4140fb13, 0x3fed62a40a4dc04d, 0x3fe8023192198a74, 0x3fe2a1bf19e5549b]),
    ("fast/tech8/HanCarlson/16", [0x3fc9eb5f24ca0aab, 0x3fd1cb59f7366820, 0x40099f01b866e438, 0x4000c26557a42b24, 0x3ffa3408c27d28c6, 0x3ff65a55e33b6e9e, 0x3ff53b92f493a354]),
    ("fast/tech8/HanCarlson/32", [0x3fcf253e6d9459a5, 0x3fd64a879981975a, 0x4019e49dafd88876, 0x401080877ae445e4, 0x400bf33966e3169e, 0x400916f2a1e76b9a, 0x400830323e8842a0]),
    ("fast/tech8/HanCarlson/64", [0x3fd2fa8f2e2c7244, 0x3fdb492ff4ba51a2, 0x40233dc311d9762e, 0x401f90e0c7400a4d, 0x401ccacc7605b1aa, 0x401b0ce706ee5382, 0x401a724171ea106e]),
    ("fast/tech8/LadnerFischer/8", [0x3fc4d449b5c01639, 0x3fcf52f04a3db16f, 0x3ff239a2a120a651, 0x3fe76458636a9336, 0x3fe47518f6d7a218, 0x3fe2ba0a9291a488, 0x3fe228afdadce933]),
    ("fast/tech8/LadnerFischer/16", [0x3fcb27c72ddcefb0, 0x3fd4ef1e90b0e93a, 0x4004427e775dd5b6, 0x3ff94638741c347b, 0x3ff63e6b69527d6a, 0x3ff48249aed1bb1d, 0x3ff3f4b697301aef]),
    ("fast/tech8/LadnerFischer/32", [0x3fd049cae07f2043, 0x3fdcc286f8ad2568, 0x401611d976109eec, 0x4008c431a58950b2, 0x40063d951a04d2b3, 0x40061550cc04ccd1, 0x4006096012eec056]),
    ("fast/tech8/LadnerFischer/64", [0x3fd505e9aaaf1ab2, 0x3fe57eb4ddef2c98, 0x401b4d8656f66f11, 0x401791d802065769, 0x40176059882eff32, 0x40174f32043e6afb, 0x40174a2ee05ea9d2]),
];

// Expected: (case, [area, delay, power]).
#[rustfmt::skip]
const BACKEND: &[(&str, [u64; 3])] = &[
    ("adder/Ripple/16", [0x405b0c83126e978a, 0x3fe1e1694ef37135, 0x4072f204c4b40a51]),
    ("adder/Sklansky/16", [0x406b9072b020c49e, 0x3fd0a149ffe0674e, 0x4079c70c0dca9cb3]),
    ("adder/KoggeStone/16", [0x407306fdf3b645a5, 0x3fcf9f96a611af03, 0x407ec4418e3cf20b]),
    ("adder/BrentKung/16", [0x406960c8b4395811, 0x3fd1b79b8a92064a, 0x407763b3f2c28bc8]),
    ("adder/HanCarlson/16", [0x406f9cc8b4395815, 0x3fd06109b3935142, 0x4078c3d455f42cd5]),
    ("adder/LadnerFischer/16", [0x4066bc147ae147ae, 0x3fd1d563d3f92d37, 0x407786288562c83b]),
    ("prefix-or/Ripple/16", [0x4047d71a9fbe76c4, 0x3fd6abfbc9dd6674, 0x40470ef2200a4a3e]),
    ("prefix-or/Sklansky/16", [0x404561374bc6a7f0, 0x3fc1fbeebf715a70, 0x4053a291bec411cf]),
    ("prefix-or/KoggeStone/16", [0x4050092746072e4e, 0x3fbcc49cbd1b69f6, 0x405a558097da98f4]),
    ("prefix-or/BrentKung/16", [0x404fa76c8b439583, 0x3fc4440508e706d8, 0x405149cb973a099b]),
    ("prefix-or/HanCarlson/16", [0x4050acc49ba5e356, 0x3fc3aba643659d0c, 0x405258afa960fac4]),
    ("prefix-or/LadnerFischer/16", [0x404a19eb851eb852, 0x3fc2d16c6993ae9b, 0x40510bd0af85d7f3]),
    ("incrementer/Ripple/16", [0x40538049ba5e3543, 0x3fd6536e54c1e67c, 0x405c085a866fba26]),
    ("incrementer/Sklansky/16", [0x405984f5c28f5c32, 0x3fc74d6440475afd, 0x40620b7b51a48866]),
    ("incrementer/KoggeStone/16", [0x405dcf020c49ba68, 0x3fc2ec83cd08ddd0, 0x40654cf5c03c15b9]),
    ("incrementer/BrentKung/16", [0x40578ec083126e9e, 0x3fc769e81b69ab37, 0x4060da793d53367b]),
    ("incrementer/HanCarlson/16", [0x4058d676c8b43960, 0x3fc5965c5190eeba, 0x406189f1d3b716bb]),
    ("incrementer/LadnerFischer/16", [0x4054ae76c8b4395f, 0x3fc7599b07c16ceb, 0x4060b7505ae218c8]),
];

// Expected: (case, [area, delay]).
#[rustfmt::skip]
const RANDOM_WALK: &[(&str, [u64; 2])] = &[
    ("adder/walk0/16", [0x406cafba5e353f77, 0x3fd8c9b9caed9fea]),
    ("adder/walk1/16", [0x406fbcb43958105d, 0x3fd6f53b2e5fa03b]),
    ("adder/walk2/16", [0x406bfcf9db22d0e6, 0x3fd6c29c3d98e85e]),
    ("adder/walk0/32", [0x4080d0f1a9fbe780, 0x3fe041060adb439d]),
    ("adder/walk1/32", [0x4081a8ef9db22d20, 0x3fdec58f9663f0f0]),
    ("adder/walk2/32", [0x40819dc395810635, 0x3fdf0338205bfcf9]),
    ("adder/walk0/64", [0x40939a5b22d0e56a, 0x3fe15625c1a11060]),
    ("adder/walk1/64", [0x409513cf5c28f5e6, 0x3fe23c47b78ba5a9]),
    ("adder/walk2/64", [0x40941f5b22d0e576, 0x3fe13842f0fa84ce]),
];

// Expected: (case, [min_delay, max_delay, area_at × 5]).
#[rustfmt::skip]
const RANDOM_WALK_SWEEPS: &[(&str, [u64; 7])] = &[
    ("paper/walk0/16", [0x3fd8c9b9caed9fea, 0x3fde602c9081c2e4, 0x406d958d4fdf3b5e, 0x406c28116872b01a, 0x406aba95810624d7, 0x40694d1999999992, 0x4067df9db22d0e50]),
    ("paper/walk1/16", [0x3fd6f53b2e5fa03b, 0x3fdbd9d3458cd20b, 0x406ed07ef9db22cc, 0x406cd02e147ae142, 0x406acfdd2f1a9fb8, 0x4068cf8c49ba5e2e, 0x4066cf3b645a1ca4]),
    ("paper/walk2/16", [0x3fd6c29c3d98e85e, 0x3fdba8d64d7f0ed4, 0x406aa43d70a3d70a, 0x406973676c8b4394, 0x406842916872b020, 0x406711bb645a1cab, 0x4065e0e560418935]),
    ("paper/walk0/32", [0x3fe041060adb439d, 0x3fe3d78811b1d92b, 0x4080ef449ba5e367, 0x40806e64189374d0, 0x407fdb072b020c72, 0x407ed94624dd2f44, 0x407dd7851eb85216]),
    ("paper/walk1/32", [0x3fdedc68cf829b11, 0x3fe37e28240b7803, 0x4081dc020c49ba6e, 0x40812ba666666678, 0x40807b4ac0831280, 0x407f95de353f7d15, 0x407e3526e978d527]),
    ("paper/walk2/32", [0x3fdf0338205bfcf9, 0x3fe34c1a8ac5c140, 0x4081b0ea7ef9db33, 0x4080f6953f7ceda3, 0x40803c4000000013, 0x407f03d581062506, 0x407d8f2b020c49e6]),
    ("commercial/walk0/16", [0x3fda023f00954cd4, 0x3fde602c9081c2e4, 0x406b70872b020c44, 0x406901d59ca42eab, 0x40684bdaa31cee91, 0x4067f57d1097c1f4, 0x4067df9db22d0e50]),
    ("commercial/walk1/16", [0x3fd7d3eaa9080253, 0x3fdbd9d3458cd20b, 0x406d8ae978d4fded, 0x406a84df2de6fbdd, 0x4068981f4c4d3447, 0x40674a295e607336, 0x4066cf3b645a1ca4]),
    ("commercial/walk2/16", [0x3fd690558a319d2c, 0x3fdba8d64d7f0ed4, 0x406ba39999999999, 0x406870a158574629, 0x40671cb2a94866ec, 0x406635f005a61bf5, 0x4065e0e560418935]),
    ("commercial/walk0/32", [0x3fe03333193147b6, 0x3fe3d78811b1d92b, 0x408100d2f1a9fbf9, 0x407fc51f600b71c7, 0x407ec8439a4823a6, 0x407e19caf1b261af, 0x407dd7851eb85216]),
    ("commercial/walk1/32", [0x3fe01b310dc9247e, 0x3fe37e28240b7803, 0x4080a1989374bc7e, 0x407f65a7cf7afbed, 0x407ec2238d4c1936, 0x407e59cfcc7eabc3, 0x407e3526e978d527]),
    ("commercial/walk2/32", [0x3fdee7923d08052a, 0x3fe34c1a8ac5c140, 0x4081c8db22d0e570, 0x40802006ab287186, 0x407eb87171c709a3, 0x407de21403028e4e, 0x407d8f2b020c49e6]),
    ("fast/sklansky-walk47/8", [0x3fccda57256a49d8, 0x3fd20b4e11dbca97, 0x405b7f6c8b43957f, 0x4058bacccccccccb, 0x4055f62d0e560417, 0x4053318d4fdf3b66, 0x40506ced916872b2]),
    ("fast/sklansky-walk77/16", [0x3fd3eb11338a4175, 0x3fd9d8adab9f559b, 0x407472e147ae1483, 0x406e59718db53be2, 0x406a3e812583b430, 0x4067d4d00f2fa623, 0x40670ad0e5604182]),
    ("paper/sklansky-walk47/8", [0x3fccda57256a49d8, 0x3fd20b4e11dbca97, 0x405a26b020c49ba5, 0x4057b83f7ced9169, 0x405549ced916872b, 0x4052db5e353f7cef, 0x40506ced916872b2]),
];
