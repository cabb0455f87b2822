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
//! The `synthesis_latency` rows time each `SynthesisBackend::score` call
//! on its own, on seeded random-walk adder states at 16, 32 and 64 bits
//! (the dense, high-fanout states an exploring agent visits), and report
//! the per-call `{p50, p99, max}` in microseconds.
//!
//! ```sh
//! cargo bench -p prefixrl-bench --bench task_throughput
//! ```

use netlist::Library;
use prefix_graph::{structures, PrefixGraph};
use prefixrl_bench::{latency, time_per_call, Report};
use prefixrl_core::evaluator::{Evaluator, ObjectivePoint};
use prefixrl_core::task::{self, Adder, AnalyticalBackend, ObjectiveBackend, SynthesisBackend};
use rand::prelude::*;
use serde_json::json;
use std::sync::Arc;
use std::time::Instant;

/// Adder width of every pool graph.
const N: u16 = 16;
/// Wall clock each throughput figure accumulates, seconds.
const MIN_SECS: f64 = 0.2;
/// `(width, walk steps, states)` of the `synthesis_latency` rows.
const LATENCY_WALKS: [(u16, usize, u64); 3] = [(16, 60, 48), (32, 120, 24), (64, 200, 12)];
/// Timed `score` calls per state in the `synthesis_latency` rows.
const LATENCY_REPEATS: usize = 4;

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

/// A walk of `steps` legal actions drawn uniformly from ripple by a seeded
/// generator.
fn random_walk(n: u16, seed: u64, steps: usize) -> PrefixGraph {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut g = PrefixGraph::ripple(n);
    for _ in 0..steps {
        let actions = g.legal_actions();
        g.apply(actions[rng.random_range(0..actions.len())])
            .expect("legal");
    }
    g
}

/// Microseconds of each `backend.score` call on `graphs`, every graph
/// scored `LATENCY_REPEATS` times after one untimed warm-up call.
fn score_latencies_us(backend: &SynthesisBackend, graphs: &[PrefixGraph]) -> Vec<f64> {
    std::hint::black_box(backend.score(&Adder, &graphs[0]));
    let mut samples = Vec::with_capacity(graphs.len() * LATENCY_REPEATS);
    for _ in 0..LATENCY_REPEATS {
        for g in graphs {
            let t0 = Instant::now();
            std::hint::black_box(backend.score(&Adder, g));
            samples.push(t0.elapsed().as_secs_f64() * 1e6);
        }
    }
    samples
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
            SynthesisBackend::new(lib.clone(), synth::sweep::SweepConfig::fast(), 0.5)
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

    let synthesis = SynthesisBackend::new(lib, synth::sweep::SweepConfig::fast(), 0.5);
    for (n, steps, states) in LATENCY_WALKS {
        let walks: Vec<PrefixGraph> = (0..states)
            .map(|seed| random_walk(n, seed, steps))
            .collect();
        let samples = score_latencies_us(&synthesis, &walks);
        report.row(
            "synthesis_latency",
            json!({"task": "adder", "backend": "synthesis", "n": n, "walk_steps": steps,
                   "states": states, "calls": samples.len()}),
            json!({"score_us": latency(&samples)}),
        );
    }
    report.write();
}
