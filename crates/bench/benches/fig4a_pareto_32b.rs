//! Fig. 4a — area-delay Pareto curves, open flow (OpenPhySyn stand-in +
//! Nangate45-inspired library): PrefixRL vs Sklansky / Kogge-Stone /
//! Brent-Kung / SA \[14\] / PS \[15\].
//!
//! Quick scale trains 8-bit agents in minutes; `PREFIXRL_SCALE=paper` runs
//! the 32-bit setting with 15 weights.

use baselines::pruned::{pruned_search, PrunedSearchConfig};
use baselines::sa::{sa_frontier, SaConfig};
use netlist::Library;
use prefix_graph::{structures, PrefixGraph};
use prefixrl_bench as support;
use prefixrl_core::agent::{AgentConfig, TrainLoop};
use prefixrl_core::cache::CachedEvaluator;
use prefixrl_core::frontier::sweep_front;
use prefixrl_core::pareto::ParetoFront;
use prefixrl_core::task::{Adder, TaskEvaluator};
use std::sync::Arc;
use synth::sweep::SweepConfig;

fn main() {
    let (n, weights, steps, targets, pool): (u16, Vec<f64>, u64, usize, usize) =
        match support::scale() {
            support::Scale::Quick => (8, vec![0.2, 0.45, 0.7, 0.9], 1200, 8, 60),
            support::Scale::Paper => (
                32,
                (0..15).map(|i| 0.10 + 0.89 * i as f64 / 14.0).collect(),
                500_000,
                40,
                1100,
            ),
        };
    let lib = Library::nangate45();
    let threads = std::thread::available_parallelism()
        .map(|c| c.get())
        .unwrap_or(4);
    println!(
        "Fig. 4a reproduction: {n}-bit adders, open flow ({})",
        lib.name()
    );

    // --- PrefixRL agents, synthesis in the loop -------------------------
    let mut rl_designs: Vec<(String, PrefixGraph)> = Vec::new();
    for (i, &w) in weights.iter().enumerate() {
        let evaluator = Arc::new(CachedEvaluator::new(TaskEvaluator::synthesis(
            Adder,
            lib.clone(),
            SweepConfig::fast(),
            w,
        )));
        let mut cfg = AgentConfig::small(n, w as f32, steps);
        cfg.env = prefixrl_core::env::EnvConfig::synthesis(n);
        cfg.seed = 100 + i as u64;
        let result = TrainLoop::run(&cfg, evaluator.clone());
        println!(
            "  agent w_area={w:.2}: {} designs, cache hit rate {:.0}%",
            result.designs.len(),
            100.0 * evaluator.store().hit_rate()
        );
        for (k, (_, g)) in support::spread_front(&result.front(), 12)
            .iter()
            .enumerate()
        {
            rl_designs.push((format!("PrefixRL(w={w:.2})#{k}"), g.clone()));
        }
    }

    // --- Baselines -------------------------------------------------------
    let regulars: Vec<(String, PrefixGraph)> = [
        ("Sklansky", structures::sklansky as fn(u16) -> PrefixGraph),
        ("KoggeStone", structures::kogge_stone),
        ("BrentKung", structures::brent_kung),
    ]
    .iter()
    .map(|(name, ctor)| (name.to_string(), ctor(n)))
    .collect();
    let sa: Vec<(String, PrefixGraph)> = sa_frontier(
        n,
        &weights.iter().map(|w| 1.0 - w).collect::<Vec<_>>(),
        &SaConfig::default(),
        7,
    )
    .into_iter()
    .enumerate()
    .map(|(i, g)| (format!("SA#{i}"), g))
    .collect();
    let mut ps_cfg = match support::scale() {
        support::Scale::Quick => PrunedSearchConfig::fast(),
        support::Scale::Paper => PrunedSearchConfig::default(),
    };
    ps_cfg.pool_limit = pool;
    let ps: Vec<(String, PrefixGraph)> = pruned_search(n, &ps_cfg)
        .into_iter()
        .enumerate()
        .take(24) // synthesize a bounded PS subset
        .map(|(i, g)| (format!("PS#{i}"), g))
        .collect();

    // --- Synthesize everything at many delay targets and bin -------------
    let cfg = SweepConfig::paper();
    let fronts: Vec<(&str, ParetoFront<String>)> = vec![
        (
            "PrefixRL",
            sweep_front(&rl_designs, &lib, &cfg, targets, threads),
        ),
        (
            "Regular",
            sweep_front(&regulars, &lib, &cfg, targets, threads),
        ),
        ("SA", sweep_front(&sa, &lib, &cfg, targets, threads)),
        ("PS", sweep_front(&ps, &lib, &cfg, targets, threads)),
    ];
    for (name, front) in &fronts {
        support::print_front(name, front);
    }
    let rl = &fronts[0].1;
    for (name, front) in fronts.iter().skip(1) {
        support::report_saving("PrefixRL", rl, name, front);
    }
    support::write_json(
        "fig4a",
        &serde_json::json!({
            "n": n,
            "series": fronts.iter().map(|(name, f)| {
                serde_json::json!({"name": name, "front": support::front_json(f)})
            }).collect::<Vec<_>>(),
        }),
    );
}
