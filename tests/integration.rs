//! Cross-crate integration tests: the full PrefixRL pipeline from graph
//! actions through netlist generation, synthesis, and RL training.

use prefixrl::prelude::*;
use std::sync::Arc;

/// The complete Fig. 1 loop: state → action → legalization → netlist →
/// synthesis → reward, end to end.
#[test]
fn full_environment_step_with_synthesis_reward() {
    let lib = Library::nangate45();
    let evaluator = Arc::new(Evaluator::synthesis(Adder, lib, SweepConfig::fast(), 0.5));
    let mut env = PrefixEnv::new(prefixrl_core::env::EnvConfig::synthesis(8), evaluator);
    let before = env.metrics();
    assert!(before.area > 0.0 && before.delay > 0.0);
    // Add a shortcut on the ripple chain: delay must fall (positive delay
    // reward component), area must rise (negative area component).
    let out = env.step(Action::Add(Node::new(6, 3)));
    assert!(out.reward[1] > 0.0, "delay reward {:?}", out.reward);
    assert!(out.reward[0] < 0.0, "area reward {:?}", out.reward);
}

/// Trained-agent designs must remain functionally correct adders after
/// synthesis-grade optimization.
#[test]
fn rl_designs_synthesize_to_correct_adders() {
    use rand::prelude::*;
    let cfg = AgentConfig::tiny(8, 0.5);
    let result = TrainLoop::run(&cfg, Arc::new(Evaluator::analytical(Adder)));
    let lib = Library::nangate45();
    let cons = synth::sta::TimingConstraints::uniform(&lib);
    let mut rng = StdRng::seed_from_u64(5);
    let front = result.front();
    for (_, graph) in front.iter().take(3) {
        let nl = adder::generate(graph);
        let base = synth::sta::analyze(&nl, &lib, &cons, 1.0).critical_delay;
        let out =
            synth::optimizer::optimize(&nl, &lib, &cons, base * 0.5, &OptimizerConfig::fast());
        for _ in 0..10 {
            let a = rng.random::<u64>() & 0xFF;
            let b = rng.random::<u64>() & 0xFF;
            assert_eq!(sim::add(&out.netlist, a, b), (a + b) as u128);
        }
    }
}

/// The scalarization weight controls where on the trade-off agents land:
/// the delay-weighted agent's best design must be at least as fast as the
/// area-weighted agent's, which must be at least as small.
#[test]
fn weight_controls_design_specialization() {
    let eval = Arc::new(Evaluator::analytical(Adder));
    let mut small_cfg = AgentConfig::tiny(8, 0.95);
    small_cfg.total_steps = 600;
    let mut fast_cfg = AgentConfig::tiny(8, 0.05);
    fast_cfg.total_steps = 600;
    let small = TrainLoop::run(&small_cfg, eval.clone());
    let fast = TrainLoop::run(&fast_cfg, eval);
    let best_small = small.best_scalarized(0.95, 0.05, 0.25).unwrap().1;
    let best_fast = fast.best_scalarized(0.05, 0.05, 0.25).unwrap().1;
    assert!(
        best_small.area <= best_fast.area,
        "{best_small:?} vs {best_fast:?}"
    );
    assert!(
        best_fast.delay <= best_small.delay,
        "{best_small:?} vs {best_fast:?}"
    );
}

/// RL (even a tiny run) must discover designs the regular structures do not
/// dominate, and its frontier must at least match the ripple/Sklansky
/// starting states it grows from.
#[test]
fn rl_frontier_beats_starting_states() {
    let cfg = AgentConfig::tiny(8, 0.4);
    let result = TrainLoop::run(&cfg, Arc::new(Evaluator::analytical(Adder)));
    let front = result.front();
    let ripple = Evaluator::analytical(Adder).evaluate(&PrefixGraph::ripple(8));
    let sklansky = Evaluator::analytical(Adder).evaluate(&structures::sklansky(8));
    // The starting states are in the visited set, so the front must weakly
    // improve on both.
    assert!(front.area_at_delay(ripple.delay).unwrap() <= ripple.area);
    assert!(front.area_at_delay(sklansky.delay).unwrap() <= sklansky.area);
    // And strictly improve somewhere against the two-point baseline front.
    let mut base: ParetoFront<&str> = ParetoFront::new();
    base.insert(ripple, "ripple");
    base.insert(sklansky, "sklansky");
    let (saving, _) = front.max_area_saving_vs(&base).unwrap();
    assert!(saving >= 0.0);
}

/// The Fig. 6 phenomenon must be observable: the analytical metric ranks
/// designs differently from synthesis (rank inversions exist between the
/// two evaluators over a diverse design set).
#[test]
fn analytical_and_synthesis_rankings_diverge() {
    let lib = Library::nangate45();
    let designs: Vec<PrefixGraph> = vec![
        PrefixGraph::ripple(16),
        structures::sklansky(16),
        structures::kogge_stone(16),
        structures::brent_kung(16),
        structures::han_carlson(16),
        structures::sparse_kogge_stone(16, 4),
    ];
    let ana: Vec<f64> = designs
        .iter()
        .map(|g| prefix_graph::analytical::evaluate(g).delay)
        .collect();
    let syn: Vec<f64> = designs
        .iter()
        .map(|g| synth::sweep::sweep_graph(g, &lib, &SweepConfig::fast()).min_delay())
        .collect();
    let mut inversions = 0;
    for i in 0..designs.len() {
        for j in (i + 1)..designs.len() {
            if (ana[i] < ana[j]) != (syn[i] < syn[j]) {
                inversions += 1;
            }
        }
    }
    assert!(
        inversions > 0,
        "analytical and synthesized delay orderings agree exactly — \
         the Fig. 6 divergence should exist (ana {ana:?}, syn {syn:?})"
    );
}

/// Multi-actor training shares the evaluator cache correctly and produces
/// legal, evaluable designs.
#[test]
fn async_training_integrates_with_synthesis_cache() {
    let lib = Library::nangate45();
    let eval = Arc::new(Evaluator::synthesis(Adder, lib, SweepConfig::fast(), 0.5));
    let mut cfg = AgentConfig::tiny(8, 0.5);
    cfg.total_steps = 120;
    cfg.env = prefixrl_core::env::EnvConfig::synthesis(8);
    cfg.actors = 2;
    let result = TrainLoop::run(&cfg, eval.clone());
    assert!(!result.designs.is_empty());
    assert!(eval.store().hits() + eval.store().misses() > 0);
    for (g, p) in result.designs.iter().take(5) {
        g.verify_legal().unwrap();
        assert!(p.area > 0.0 && p.delay > 0.0);
    }
}

/// Checkpoint round-trip: a trained agent's Q-network state survives
/// `state()`/`load_state()` and produces identical Q-values.
#[test]
fn agent_checkpoint_roundtrip() {
    let cfg = AgentConfig::tiny(8, 0.5);
    let eval = Arc::new(Evaluator::analytical(Adder));
    let mut lp = TrainLoop::new(&cfg, Arc::clone(&eval));
    lp.run_to_completion(0, &mut NullObserver);
    let (mut dqn, _) = lp.into_parts(0);
    use rl::QNetwork;
    let state = dqn.online_mut().state();
    let mut restored = PrefixQNet::new(&QNetConfig {
        seed: cfg.qnet.seed + 1,
        ..cfg.qnet.clone()
    });
    restored.load_state(&state).unwrap();
    let env = PrefixEnv::new(cfg.env.clone(), eval);
    let f = env.features();
    let mut scratch = nn::Scratch::new();
    let a = dqn.online_mut().infer(&[f.as_slice()], &mut scratch);
    let b = restored.infer(&[f.as_slice()], &mut scratch);
    assert_eq!(a[0], b[0]);
}

/// Power extension: the optional third objective is computable on optimized
/// netlists and scales with area.
#[test]
fn power_objective_extension() {
    let lib = Library::nangate45();
    let small = adder::generate(&structures::brent_kung(16));
    let large = adder::generate(&structures::kogge_stone(16));
    let p_small = synth::power::estimate(&small, &lib);
    let p_large = synth::power::estimate(&large, &lib);
    assert!(p_small > 0.0 && p_large > p_small);
}

/// Nonuniform timing constraints extension: late MSB arrival shifts the
/// optimizer's outcome.
#[test]
fn nonuniform_arrival_extension() {
    let lib = Library::nangate45();
    let nl = adder::generate(&structures::sklansky(8));
    let uniform = synth::sta::TimingConstraints::uniform(&lib);
    let skewed = synth::sta::TimingConstraints::with_arrivals(
        &lib,
        (0..16)
            .map(|i| if i % 8 >= 6 { 0.15 } else { 0.0 })
            .collect(),
    );
    let du = synth::sta::analyze(&nl, &lib, &uniform, 1.0).critical_delay;
    let ds = synth::sta::analyze(&nl, &lib, &skewed, 1.0).critical_delay;
    assert!(ds > du, "late MSBs must lengthen the critical path");
}

/// The CLI rejects a flag its subcommand does not document, naming the
/// flag and the valid set, instead of silently running on a default: a
/// `--stepz` typo would otherwise train for the default 2000 steps, and the
/// removed `--evaluator` alias would train on the default backend.
#[test]
fn cli_rejects_unknown_flags() {
    for (args, flag) in [
        (
            &[
                "train",
                "--n",
                "6",
                "--stepz",
                "40",
                "--backend",
                "analytical",
                "--json",
            ][..],
            "--stepz",
        ),
        (&["train", "--evaluator", "analytical"][..], "--evaluator"),
        (
            &["sweep", "--weights", "2", "--evaluator", "analytical"][..],
            "--evaluator",
        ),
        (&["train", "--nn-threads", "2"][..], "--nn-threads"),
        (
            &["sweep", "--weights", "2", "--cache-shards", "4"][..],
            "--cache-shards",
        ),
    ] {
        let out = std::process::Command::new(env!("CARGO_BIN_EXE_prefixrl"))
            .args(args)
            .output()
            .expect("run the prefixrl binary");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{args:?} must not run");
        assert!(stderr.contains(&format!("`{flag}`")), "{args:?}: {stderr}");
        assert!(
            stderr.contains("--steps") && stderr.contains("--backend"),
            "{stderr}"
        );
    }
}

/// A width outside `2..=512` exits 2 naming `--n`, on every command that
/// parses it, instead of panicking in a worker thread.
#[test]
fn cli_rejects_unsupported_widths() {
    for args in [
        &["train", "--n", "0"][..],
        &["train", "--n", "1", "--backend", "analytical"][..],
        &["sweep", "--n", "1", "--backend", "synthesis"][..],
        &["eval", "--n", "513"][..],
        &["render", "--n", "1"][..],
    ] {
        let out = std::process::Command::new(env!("CARGO_BIN_EXE_prefixrl"))
            .args(args)
            .output()
            .expect("run the prefixrl binary");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{args:?} must not run");
        assert!(stderr.contains("for --n"), "{args:?}: {stderr}");
    }
}

/// A `sparse_ks_<S>` structure whose sparsity is not a power of two exits
/// 2 naming `--structure`, on every command that takes one, instead of
/// panicking.
#[test]
fn cli_rejects_sparsities_that_are_not_powers_of_two() {
    for command in ["render", "eval", "verilog"] {
        for structure in ["sparse_ks_x", "sparse_ks_0", "sparse_ks_3"] {
            let out = std::process::Command::new(env!("CARGO_BIN_EXE_prefixrl"))
                .args([command, "--n", "8", "--structure", structure])
                .output()
                .expect("run the prefixrl binary");
            let stderr = String::from_utf8_lossy(&out.stderr);
            let case = format!("{command} --structure {structure}");
            assert_eq!(out.status.code(), Some(2), "{case}: {stderr}");
            assert!(out.stdout.is_empty(), "{case} must not run");
            assert!(stderr.contains("for --structure"), "{case}: {stderr}");
            assert!(stderr.contains("a power of two"), "{case}: {stderr}");
        }
    }
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_prefixrl"))
        .args(["render", "--n", "8", "--structure", "sparse_ks_4"])
        .output()
        .expect("run the prefixrl binary");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
}

#[test]
fn cli_rejects_too_few_eval_targets() {
    for targets in ["0", "1"] {
        let out = std::process::Command::new(env!("CARGO_BIN_EXE_prefixrl"))
            .args(["eval", "--n", "8", "--targets", targets])
            .output()
            .expect("run the prefixrl binary");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "--targets {targets}: {stderr}");
        assert!(out.stdout.is_empty(), "--targets {targets} must not run");
        assert!(stderr.contains("--targets must be at least 2"), "{stderr}");
    }
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_prefixrl"))
        .args(["eval", "--n", "8", "--targets", "2"])
        .output()
        .expect("run the prefixrl binary");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
}
