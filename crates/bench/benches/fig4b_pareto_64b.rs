//! Fig. 4b — the "larger width" Pareto comparison: PrefixRL vs regular
//! adders and the cross-layer ML baseline (CL, ref. \[10\]).
//!
//! Quick scale uses 16-bit adders (double the Fig. 4a width, as 64b doubles
//! 32b in the paper); `PREFIXRL_SCALE=paper` uses 64 bits.

use baselines::crosslayer::{cross_layer, CrossLayerConfig};
use netlist::Library;
use prefix_graph::{structures, PrefixGraph};
use prefixrl_bench as support;
use prefixrl_core::agent::{AgentConfig, TrainLoop};
use prefixrl_core::cache::CachedEvaluator;
use prefixrl_core::evaluator::ObjectivePoint;
use prefixrl_core::frontier::sweep_front;
use prefixrl_core::pareto::ParetoFront;
use prefixrl_core::task::{Adder, TaskEvaluator};
use std::sync::Arc;
use synth::sweep::SweepConfig;

fn main() {
    let (n, weights, steps, targets): (u16, Vec<f64>, u64, usize) = match support::scale() {
        support::Scale::Quick => (16, vec![0.3, 0.6, 0.85], 900, 8),
        support::Scale::Paper => (
            64,
            (0..15).map(|i| 0.10 + 0.89 * i as f64 / 14.0).collect(),
            500_000,
            40,
        ),
    };
    let lib = Library::nangate45();
    let threads = std::thread::available_parallelism()
        .map(|c| c.get())
        .unwrap_or(4);
    println!(
        "Fig. 4b reproduction: {n}-bit adders, open flow ({})",
        lib.name()
    );

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
        cfg.seed = 200 + i as u64;
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

    let regulars: Vec<(String, PrefixGraph)> = [
        ("Sklansky", structures::sklansky as fn(u16) -> PrefixGraph),
        ("KoggeStone", structures::kogge_stone),
        ("BrentKung", structures::brent_kung),
    ]
    .iter()
    .map(|(name, ctor)| (name.to_string(), ctor(n)))
    .collect();

    // CL baseline: the synthesized knots of its selected designs form the
    // CL series directly.
    let cl = cross_layer(n, &lib, &CrossLayerConfig::fast());
    let mut cl_front: ParetoFront<String> = ParetoFront::new();
    for (i, d) in cl.iter().enumerate() {
        for &(area, delay) in &d.synthesized {
            cl_front.insert(ObjectivePoint { area, delay }, format!("CL#{i}"));
        }
    }

    let cfg = SweepConfig::paper();
    let rl_front = sweep_front(&rl_designs, &lib, &cfg, targets, threads);
    let reg_front = sweep_front(&regulars, &lib, &cfg, targets, threads);
    support::print_front("PrefixRL", &rl_front);
    support::print_front("Regular", &reg_front);
    support::print_front("CL", &cl_front);
    support::report_saving("PrefixRL", &rl_front, "Regular", &reg_front);
    support::report_saving("PrefixRL", &rl_front, "CL", &cl_front);
    support::write_json(
        "fig4b",
        &serde_json::json!({
            "n": n,
            "prefixrl": support::front_json(&rl_front),
            "regular": support::front_json(&reg_front),
            "cl": support::front_json(&cl_front),
        }),
    );
}
