//! Evaluation throughput per `(task, backend)` pair — the cost surface of
//! the pluggable workload layer (DESIGN.md §12).
//!
//! For every registered [`CircuitTask`] × objective backend, a mixed pool
//! of graphs is evaluated cold (straight through the backend's `score`)
//! and warm (through an `Evaluator`, whose cache the timer's warm-up round
//! primes), yielding the `BENCH_tasks.json` artifact. Analytical backends run thousands of times
//! faster than synthesis ones — the same gap that motivates the paper's
//! Section IV-D caching — and the non-adder tasks synthesize faster than
//! the adder because their netlists are a fraction of the size.
//!
//! ```sh
//! cargo bench -p prefixrl-bench --bench task_throughput
//! ```

use netlist::Library;
use prefix_graph::{structures, PrefixGraph};
use prefixrl_bench::{time_per_call, Report};
use prefixrl_core::evaluator::{Evaluator, ObjectivePoint};
use prefixrl_core::task::{self, AnalyticalBackend, ObjectiveBackend, SynthesisBackend};
use serde_json::json;
use std::sync::Arc;

/// Adder width of every pool graph.
const N: u16 = 16;
/// Wall clock each throughput figure accumulates, seconds.
const MIN_SECS: f64 = 0.2;

fn pool(n: u16) -> Vec<PrefixGraph> {
    let mut graphs = vec![
        PrefixGraph::ripple(n),
        structures::sklansky(n),
        structures::kogge_stone(n),
        structures::brent_kung(n),
        structures::han_carlson(n),
        structures::ladner_fischer(n),
    ];
    // A few irregular mid-episode states so the pool is not all-regular.
    for (i, base) in [structures::sklansky(n), PrefixGraph::ripple(n)]
        .into_iter()
        .enumerate()
    {
        let mut g = base;
        for step in 0..6usize {
            let acts = g.legal_actions();
            if acts.is_empty() {
                break;
            }
            let a = acts[(i * 7 + step * 3) % acts.len()];
            g.apply(a).expect("legal action applies");
        }
        graphs.push(g);
    }
    graphs
}

/// Evaluations per second of `evaluate` over whole rounds of the pool.
fn measure(evaluate: impl Fn(&PrefixGraph) -> ObjectivePoint, graphs: &[PrefixGraph]) -> f64 {
    let secs = time_per_call(
        || {
            for g in graphs {
                std::hint::black_box(evaluate(g));
            }
        },
        MIN_SECS,
    );
    graphs.len() as f64 / secs
}

fn main() {
    let graphs = pool(N);
    let mut report = Report::new(
        "tasks",
        json!({"n": N, "graphs": graphs.len(), "library": "nangate45", "sweep": "fast", "min_secs": MIN_SECS}),
    );
    let lib = Library::nangate45();
    let backends: Vec<Arc<dyn ObjectiveBackend>> = vec![
        Arc::new(AnalyticalBackend),
        Arc::new(SynthesisBackend::new(
            lib.clone(),
            synth::sweep::SweepConfig::fast(),
            0.5,
        )),
        Arc::new(
            SynthesisBackend::new(lib, synth::sweep::SweepConfig::fast(), 0.5)
                .with_power_annotation(),
        ),
    ];

    for name in task::TASK_NAMES {
        let task = task::by_name(name).expect("registered");
        for backend in &backends {
            let cold = measure(|g| backend.score(task.as_ref(), g), &graphs);
            let ev = Evaluator::new(Arc::clone(&task), Arc::clone(backend));
            let warm = measure(|g| ev.evaluate(g), &graphs);
            report.row(
                "eval_throughput",
                json!({"task": name, "backend": backend.backend_id()}),
                json!({"evals_per_sec": cold, "cached_evals_per_sec": warm}),
            );
        }
    }
    report.write();
}
