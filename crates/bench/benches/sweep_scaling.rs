//! Experiment-session scaling: multi-weight sweeps fanned out over the
//! shared evaluation cache (the Section IV-D ensemble shape behind
//! the new `Experiment` API). Measures total steps/sec and shared-cache
//! hit rate as the number of concurrently training agents grows, and dumps
//! `BENCH_sweep.json` at the workspace root.
//!
//! ```sh
//! cargo bench -p prefixrl-bench --bench sweep_scaling
//! ```

use prefixrl_bench::Report;
use prefixrl_core::agent::AgentConfig;
use prefixrl_core::experiment::{Experiment, Weights};
use serde_json::json;
use std::time::Instant;

/// Adder width.
const N: u16 = 8;
/// Environment steps per agent.
const STEPS: u64 = 400;
/// Agents trained (one per scalarization weight).
const AGENTS: usize = 6;

fn main() {
    let mut report = Report::new(
        "sweep",
        json!({"n": N, "steps_per_agent": STEPS, "agents": AGENTS, "backend": "analytical"}),
    );
    for concurrency in [1usize, 2, 4, AGENTS] {
        let mut base = AgentConfig::tiny(N, 0.5);
        base.total_steps = STEPS;
        let experiment = Experiment::builder()
            .n(N)
            .weights(Weights::linspace(0.10, 0.99, AGENTS))
            .steps(STEPS)
            .base_config(base)
            .eval_threads(concurrency)
            .build();
        let t0 = Instant::now();
        let result = experiment.run_quiet().expect("sweep");
        let elapsed = t0.elapsed().as_secs_f64();
        let total_steps = result.total_steps();
        let designs: usize = result.records.iter().map(|r| r.designs.len()).sum();
        report.row(
            "experiment_sweep",
            json!({"concurrency": concurrency}),
            json!({
                "steps_per_sec": total_steps as f64 / elapsed.max(1e-9),
                "cache_hit_rate": result.cache.hit_rate,
                "merged_front": result.merged_front().len(),
                "designs": designs,
            }),
        );
    }
    report.write();
}
