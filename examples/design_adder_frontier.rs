//! Design an area-delay Pareto frontier of adders with RL agents at several
//! scalarization weights, and compare it against the classical structures —
//! a miniature of the paper's Fig. 4 experiment, driven by the
//! `Experiment` sweep API (one shared evaluation cache, merged fronts).
//!
//! ```sh
//! cargo run --release --example design_adder_frontier
//! ```

use prefixrl::prelude::*;

fn main() {
    let n: u16 = 12;
    let steps = 1_500u64;

    // Five agents across the weight range, all sharing one cached
    // analytical evaluator, five agents training at once.
    let experiment = Experiment::builder()
        .n(n)
        .weights(Weights::list(vec![0.15, 0.35, 0.55, 0.75, 0.92]))
        .steps(steps)
        .seed(40)
        .eval_threads(5)
        .build();
    let result = experiment.run_quiet().expect("sweep");

    let mut front: ParetoFront<String> = ParetoFront::new();
    for record in &result.records {
        for (g, p) in &record.designs {
            front.insert(
                *p,
                format!("rl(w={})[{}n/{}l]", record.w_area, g.size(), g.depth()),
            );
        }
        println!(
            "agent w_area={}: {} designs visited, frontier {} points",
            record.w_area,
            record.designs.len(),
            record.front().len(),
        );
    }

    println!("\ncombined RL frontier vs classical structures (analytical metrics):");
    println!("{:<28} {:>8} {:>8}", "design", "area", "delay");
    for (p, label) in front.iter() {
        println!("{label:<28} {:>8.1} {:>8.2}", p.area, p.delay);
    }
    let mut classical: ParetoFront<&str> = ParetoFront::new();
    for (name, ctor) in structures::all_regular() {
        let m = prefix_graph::analytical::evaluate(&ctor(n));
        let pt = ObjectivePoint {
            area: m.area,
            delay: m.delay,
        };
        println!("{name:<28} {:>8.1} {:>8.2}", pt.area, pt.delay);
        classical.insert(pt, name);
    }
    match front.max_area_saving_vs(&classical) {
        Some((saving, at)) => {
            println!("\nmax RL area saving at equal delay: {saving:.1}% (at delay {at:.2})")
        }
        None => println!("\nRL frontier does not reach the classical delays"),
    }
    println!(
        "cache: {} unique states, {:.0}% hit rate across {} agents",
        result.cache.unique_states,
        100.0 * result.cache.hit_rate,
        result.records.len(),
    );
}
