//! Property tests across netlist generation and synthesis: random legal
//! prefix graphs must produce functionally correct adders, and every
//! optimizer transform must preserve logic while respecting the area-delay
//! trade-off.

mod common;

use netlist::{adder, sim, Library};
use prefix_graph::PrefixGraph;
use proptest::prelude::*;
use synth::optimizer::{optimize, OptimizerConfig};
use synth::sta::{self, TimingConstraints};
use synth::sweep::{sweep_graph, SweepConfig};

fn graph_strategy() -> impl Strategy<Value = PrefixGraph> {
    common::graph_strategy(6..=14)
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
