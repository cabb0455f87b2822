//! Evaluation throughput per `(task, backend)` pair — the cost surface of
//! the pluggable workload layer (DESIGN.md §12).
//!
//! For every registered [`CircuitTask`] × objective backend, a mixed pool
//! of graphs is evaluated cold (straight through the `TaskEvaluator`) and
//! warm (through the sharded cache, after a priming round), yielding the
//! `BENCH_tasks.json` artifact. Analytical backends run thousands of times
//! faster than synthesis ones — the same gap that motivates the paper's
//! Section IV-D caching — and the non-adder tasks synthesize faster than
//! the adder because their netlists are a fraction of the size.
//!
//! ```sh
//! cargo bench -p prefixrl-bench --bench task_throughput
//! PREFIXRL_SCALE=paper cargo bench -p prefixrl-bench --bench task_throughput
//! ```

use netlist::Library;
use prefix_graph::{structures, PrefixGraph};
use prefixrl_bench::{scale, write_bench_tasks, Scale, TaskRow};
use prefixrl_core::cache::CachedEvaluator;
use prefixrl_core::evaluator::Evaluator;
use prefixrl_core::task::{
    self, AnalyticalBackend, ObjectiveBackend, SynthesisBackend, TaskEvaluator,
};
use std::sync::Arc;
use std::time::Instant;

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

fn measure(evaluator: &dyn Evaluator, graphs: &[PrefixGraph], rounds: usize) -> (u64, f64) {
    let t0 = Instant::now();
    let mut evals = 0u64;
    for _ in 0..rounds {
        for g in graphs {
            std::hint::black_box(evaluator.evaluate(g));
            evals += 1;
        }
    }
    (evals, evals as f64 / t0.elapsed().as_secs_f64().max(1e-9))
}

fn main() {
    let n: u16 = match scale() {
        Scale::Quick => 16,
        Scale::Paper => 32,
    };
    let graphs = pool(n);
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

    let mut rows = Vec::new();
    println!(
        "{:<12} {:<16} {:>8} {:>14} {:>18}",
        "task", "backend", "graphs", "evals/s", "cached evals/s"
    );
    for name in task::TASK_NAMES {
        let task = task::by_name(name).expect("registered");
        for backend in &backends {
            let ev = TaskEvaluator::new(Arc::clone(&task), Arc::clone(backend));
            let analytical = backend.backend_id() == "analytical";
            // Enough cold rounds for at least 200 timed evaluations per row.
            let cold_rounds = if analytical {
                200
            } else {
                200usize.div_ceil(graphs.len())
            };
            let (evals, cold) = measure(&ev, &graphs, cold_rounds);
            let cached = CachedEvaluator::new(ev);
            for g in &graphs {
                cached.evaluate(g); // prime
            }
            let warm_rounds = if analytical { 500 } else { 50 };
            let (_, warm) = measure(&cached, &graphs, warm_rounds);
            println!(
                "{:<12} {:<16} {:>8} {:>14.1} {:>18.1}",
                name,
                backend.backend_id(),
                graphs.len(),
                cold,
                warm
            );
            rows.push(TaskRow {
                task: name.to_string(),
                backend: backend.backend_id().to_string(),
                graphs: graphs.len(),
                evals,
                evals_per_sec: cold,
                cached_evals_per_sec: warm,
            });
        }
    }
    write_bench_tasks(n, &rows);
}
