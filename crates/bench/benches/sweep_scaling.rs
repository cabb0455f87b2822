//! Experiment-session scaling: multi-weight sweeps fanned out over the
//! shared evaluation cache (the Section IV-D ensemble shape behind
//! the new `Experiment` API). Measures total steps/sec and shared-cache
//! hit rate as the number of concurrently training agents grows, and dumps
//! `BENCH_sweep.json` at the workspace root.
//!
//! ```sh
//! cargo bench -p prefixrl-bench --bench sweep_scaling
//! PREFIXRL_SCALE=paper cargo bench -p prefixrl-bench --bench sweep_scaling
//! ```

use prefixrl_bench as support;
use prefixrl_core::agent::AgentConfig;
use prefixrl_core::experiment::{Experiment, Weights};
use std::time::Instant;

fn main() {
    let (n, steps, agents) = match support::scale() {
        support::Scale::Quick => (8u16, 400u64, 6usize),
        support::Scale::Paper => (16, 5_000, 15),
    };
    println!("Experiment sweep scaling (n={n}, {steps} steps/agent, {agents} agents)\n");
    println!(
        "{:>8} {:>12} {:>14} {:>14} {:>13} {:>9}",
        "threads", "elapsed(s)", "steps/sec", "cache hit(%)", "merged front", "designs"
    );

    let mut rows = Vec::new();
    for concurrency in [1usize, 2, 4, agents] {
        let mut base = AgentConfig::tiny(n, 0.5);
        base.total_steps = steps;
        let experiment = Experiment::builder()
            .n(n)
            .weights(Weights::linspace(0.10, 0.99, agents))
            .steps(steps)
            .base_config(base)
            .eval_threads(concurrency)
            .build();
        let t0 = Instant::now();
        let result = experiment.run_quiet().expect("sweep");
        let elapsed = t0.elapsed().as_secs_f64();
        let total_steps = result.total_steps();
        let designs: usize = result.records.iter().map(|r| r.designs.len()).sum();
        let row = support::SweepRow {
            agents,
            concurrency,
            steps_per_agent: steps,
            steps_per_sec: total_steps as f64 / elapsed.max(1e-9),
            cache_hit_rate: result.cache.hit_rate,
            merged_front: result.merged_front().len(),
            designs,
        };
        println!(
            "{:>8} {:>12.2} {:>14.1} {:>14.1} {:>13} {:>9}",
            row.concurrency,
            elapsed,
            row.steps_per_sec,
            100.0 * row.cache_hit_rate,
            row.merged_front,
            row.designs
        );
        rows.push(row);
    }
    support::write_bench_sweep(n, &rows);
}
