//! Reproduce the paper's Section V-D insight at example scale: designs
//! optimized for the analytical model (SA and Analytical-PrefixRL) look
//! great analytically but lose to synthesis-aware designs once pushed
//! through timing-driven synthesis — the motivation for synthesis in the
//! loop.
//!
//! ```sh
//! cargo run --release --example analytical_vs_synthesis
//! ```

use baselines::sa::{sa_frontier, SaConfig};
use prefixrl::prelude::*;
use std::sync::Arc;

fn main() {
    let n: u16 = 16;
    let lib = Library::nangate45();

    // Analytically optimized designs: SA at several weights (ref. [14]).
    let sa_designs = sa_frontier(n, &[0.1, 0.3, 0.5, 0.7, 0.9], &SaConfig::default(), 11);
    println!("SA produced {} designs", sa_designs.len());

    // Analytical-PrefixRL: a small agent trained on the analytical reward.
    let cfg = AgentConfig::small(n, 0.4, 2_000);
    let result = TrainLoop::run(&cfg, Arc::new(Evaluator::analytical(Adder)));
    let rl_front = result.front();
    let rl_designs: Vec<PrefixGraph> = rl_front.iter().map(|(_, g)| g.clone()).take(6).collect();
    println!(
        "Analytical-PrefixRL kept {} frontier designs",
        rl_designs.len()
    );

    // Compare under BOTH metrics.
    println!(
        "\n{:<22} {:>9} {:>9} {:>11} {:>11}",
        "design", "ana.area", "ana.delay", "syn.area", "syn.delay"
    );
    let show = |label: &str, g: &PrefixGraph| {
        let ana = prefix_graph::analytical::evaluate(g);
        let curve = synth::sweep::sweep_graph(g, &lib, &SweepConfig::fast());
        // Report the fast end of the synthesized curve.
        let d = curve.min_delay();
        println!(
            "{label:<22} {:>9.1} {:>9.2} {:>11.1} {:>11.3}",
            ana.area,
            ana.delay,
            curve.area_at(d),
            d
        );
    };
    for (i, g) in sa_designs.iter().take(4).enumerate() {
        show(&format!("SA[{i}]"), g);
    }
    for (i, g) in rl_designs.iter().take(4).enumerate() {
        show(&format!("Analytical-RL[{i}]"), g);
    }
    for (name, ctor) in [
        ("Sklansky", structures::sklansky as fn(u16) -> PrefixGraph),
        ("KoggeStone", structures::kogge_stone),
        ("BrentKung", structures::brent_kung),
    ] {
        show(name, &ctor(n));
    }
    println!(
        "\nNote how designs that dominate on analytical metrics are not the\n\
         ones that synthesize best — the paper's argument for training with\n\
         synthesis in the loop (Fig. 6a vs 6b)."
    );
}
