//! Property tests across netlist generation and synthesis: random legal
//! prefix graphs must produce functionally correct adders, and every
//! optimizer transform must preserve logic while respecting the area-delay
//! trade-off. One multi-target optimizer run must return, for each
//! target, exactly what an optimizer run against that target alone does.

mod common;

use netlist::{adder, sim, Library};
use prefix_graph::{structures, PrefixGraph};
use proptest::prelude::*;
use synth::optimizer::{optimize, optimize_targets, OptimizerConfig, SynthesisOutcome};
use synth::sta::{self, TimingConstraints};
use synth::sweep::{sweep_graph, SweepConfig};

fn graph_strategy() -> impl Strategy<Value = PrefixGraph> {
    common::graph_strategy(6..=14)
}

/// A walk of `steps` legal actions from `g`, drawn uniformly by a seeded
/// generator: the dense, high-fanout states an exploring agent visits.
fn walk_from(mut g: PrefixGraph, seed: u64, steps: usize) -> PrefixGraph {
    use rand::prelude::*;
    let mut rng = StdRng::seed_from_u64(seed);
    for _ in 0..steps {
        let actions = g.legal_actions();
        g.apply(actions[rng.random_range(0..actions.len())])
            .expect("legal");
    }
    g
}

/// Everything an outcome reports, floats as bits, and the gates of its
/// netlist (cell, drive and input nets) with its outputs.
type OutcomeBits = (u64, u64, u64, bool, usize, Vec<String>);

fn outcome_bits(out: &SynthesisOutcome) -> OutcomeBits {
    let nl = &out.netlist;
    let mut gates: Vec<String> = nl
        .gates()
        .map(|(_, g)| format!("{:?} {:?}", g.kind, g.inputs()))
        .collect();
    gates.push(format!("outputs {:?}", nl.outputs()));
    (
        out.delay.to_bits(),
        out.area.to_bits(),
        out.target.to_bits(),
        out.met,
        out.iterations,
        gates,
    )
}

/// `optimize_targets` at the targets `cfg` sets for `g`'s adder against
/// `optimize` at each target alone, under `fast()`, `paper()`,
/// `commercial()` and 40 frontier targets.
fn targets_match_alone(g: &PrefixGraph) -> Result<(), String> {
    let lib = Library::nangate45();
    let cons = TimingConstraints::uniform(&lib);
    let nl = adder::generate(g);
    let relaxed = sta::analyze(&nl, &lib, &cons, f64::MAX / 4.0).critical_delay;
    let dense = SweepConfig {
        target_fractions: prefixrl_core::frontier::target_fractions(40),
        ..SweepConfig::fast()
    };
    for cfg in [
        SweepConfig::fast(),
        SweepConfig::paper(),
        SweepConfig::commercial(),
        dense,
    ] {
        let targets: Vec<f64> = cfg.target_fractions.iter().map(|f| relaxed * f).collect();
        let together = optimize_targets(&nl, &lib, &cons, &targets, &cfg.optimizer);
        prop_assert_eq!(together.len(), targets.len());
        for (out, &target) in together.iter().zip(&targets) {
            let alone = optimize(&nl, &lib, &cons, target, &cfg.optimizer);
            prop_assert_eq!(
                outcome_bits(out),
                outcome_bits(&alone),
                "target {target} of {:?}",
                cfg.target_fractions
            );
        }
    }
    Ok(())
}

/// The walks from Sklansky on which two unmet targets of one sweep choose
/// different moves in the same iteration, so the multi-target run forks.
#[test]
fn multi_target_run_matches_one_run_per_target_where_targets_fork() {
    for (n, seed, steps) in [(8u16, 47u64, 10usize), (16, 77, 28)] {
        targets_match_alone(&walk_from(structures::sklansky(n), seed, steps)).unwrap();
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn random_graphs_make_correct_adders(g in graph_strategy(), a: u64, b: u64) {
        let n = g.n();
        let mask = u64::MAX >> (64 - n);
        let nl = adder::generate(&g);
        nl.validate().unwrap();
        let (a, b) = (a & mask, b & mask);
        prop_assert_eq!(sim::add(&nl, a, b), a as u128 + b as u128);
    }

    #[test]
    fn optimizer_preserves_function_on_random_graphs(g in graph_strategy(), seed: u64) {
        use rand::prelude::*;
        let lib = Library::nangate45();
        let cons = TimingConstraints::uniform(&lib);
        let nl = adder::generate(&g);
        let base = sta::analyze(&nl, &lib, &cons, 1.0).critical_delay;
        let out = optimize(&nl, &lib, &cons, base * 0.5, &OptimizerConfig::fast());
        out.netlist.validate().unwrap();
        let mask = u64::MAX >> (64 - g.n());
        let mut rng = StdRng::seed_from_u64(seed);
        for _ in 0..5 {
            let a = rng.random::<u64>() & mask;
            let b = rng.random::<u64>() & mask;
            prop_assert_eq!(sim::add(&out.netlist, a, b), a as u128 + b as u128);
        }
    }

    #[test]
    fn optimization_never_slows_below_unoptimized(g in graph_strategy()) {
        let lib = Library::nangate45();
        let cons = TimingConstraints::uniform(&lib);
        let nl = adder::generate(&g);
        let base = sta::analyze(&nl, &lib, &cons, 1.0).critical_delay;
        let out = optimize(&nl, &lib, &cons, base * 0.5, &OptimizerConfig::fast());
        prop_assert!(out.delay <= base + 1e-9, "optimizer made things worse");
    }

    #[test]
    fn curves_are_monotone_and_positive(g in graph_strategy()) {
        let lib = Library::nangate45();
        let curve = sweep_graph(&g, &lib, &SweepConfig::fast());
        let (lo, hi) = (curve.min_delay(), curve.max_delay());
        prop_assert!(lo > 0.0 && hi >= lo);
        let mut prev = f64::INFINITY;
        for i in 0..=20 {
            let d = lo + (hi - lo) * i as f64 / 20.0;
            let a = curve.area_at(d);
            prop_assert!(a > 0.0);
            prop_assert!(a <= prev + 1e-9, "area must not increase with delay");
            prev = a;
        }
    }

    #[test]
    fn deeper_graphs_are_no_faster_unoptimized(g in graph_strategy()) {
        // STA sanity: adding a shortcut to a graph cannot make the
        // *unoptimized* netlist slower than dropping the whole structure to
        // ripple... compare against the ripple upper bound instead.
        let lib = Library::nangate45();
        let cons = TimingConstraints::uniform(&lib);
        let d_g = sta::analyze(&adder::generate(&g), &lib, &cons, 1.0).critical_delay;
        let ripple = PrefixGraph::ripple(g.n());
        let d_r = sta::analyze(&adder::generate(&ripple), &lib, &cons, 1.0).critical_delay;
        // The ripple chain is the deepest legal structure; anything else is
        // at most marginally slower (fanout can add a little).
        prop_assert!(d_g <= d_r * 1.35, "graph {d_g} vs ripple {d_r}");
    }

    #[test]
    fn incrementer_and_or_prefix_correct_on_random_graphs(g in graph_strategy(), x: u64) {
        let n = g.n();
        let mask = u64::MAX >> (64 - n);
        let x = x & mask;
        let inc = netlist::incrementer::generate(&g);
        prop_assert_eq!(netlist::incrementer::increment(&inc, x), x + 1);
        let or = netlist::prefix_or::generate(&g);
        let inputs: Vec<bool> = (0..n).map(|i| (x >> i) & 1 == 1).collect();
        let out = sim::eval(&or, &inputs);
        let got = out.iter().enumerate().fold(0u64, |acc, (i, &b)| acc | ((b as u64) << i));
        prop_assert_eq!(got, netlist::prefix_or::reference(x, n as usize));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn multi_target_run_matches_one_run_per_target(
        n in 8u16..=32,
        steps in 1usize..=32,
        seed: u64,
        from_sklansky: bool,
    ) {
        let start = if from_sklansky {
            structures::sklansky(n)
        } else {
            PrefixGraph::ripple(n)
        };
        targets_match_alone(&walk_from(start, seed, steps))?;
    }
}
