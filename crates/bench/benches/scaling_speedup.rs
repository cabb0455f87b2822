//! Section V-C / IV-D systems claims: parallel synthesis speedup (the paper
//! reports 8× from its asynchronous infrastructure), synthesis-cache hit
//! rates during training (50% at 32b, 10% at 64b in the paper) and the
//! lockstep actors' decisions/sec. Dumps `BENCH_scaling.json` at the
//! workspace root.
//!
//! ```sh
//! cargo bench -p prefixrl-bench --bench scaling_speedup
//! ```

use netlist::Library;
use prefix_graph::{Action, Node, PrefixGraph};
use prefixrl_bench::Report;
use prefixrl_core::agent::{AgentConfig, TrainLoop};
use prefixrl_core::evaluator::Evaluator;
use prefixrl_core::parallel::map_ordered;
use prefixrl_core::task::{Adder, ObjectiveBackend, SynthesisBackend};
use serde_json::json;
use std::sync::Arc;
use std::time::Instant;
use synth::sweep::SweepConfig;

/// Adder width of the parallel-synthesis batch and the actor rows.
const N: u16 = 16;
/// Distinct states in the parallel-synthesis batch.
const JOBS: usize = 32;
/// Environment steps per training run.
const STEPS: u64 = 600;

fn main() {
    let lib = Library::nangate45();
    let mut report = Report::new(
        "scaling",
        json!({"n": N, "jobs": JOBS, "steps": STEPS, "library": "nangate45", "sweep": "fast"}),
    );

    // --- Parallel synthesis speedup --------------------------------------
    // A batch of graphs (ripple + random shortcut patterns; some coincide),
    // every one scored by the backend at every worker count: no cache, so
    // coinciding graphs neither hit nor wait on each other.
    let graphs: Vec<PrefixGraph> = (0..JOBS)
        .map(|i| {
            let mut g = PrefixGraph::ripple(N);
            let m = 2 + (i as u16 * 3) % (N - 2);
            let l = 1 + (i as u16) % m.clamp(2, N - 2);
            let node = Node::new(m.max(l + 1), l.min(m.max(l + 1) - 1));
            let _ = g.apply(Action::Add(node));
            g
        })
        .collect();
    let backend = SynthesisBackend::new(lib.clone(), SweepConfig::fast(), 0.5);
    let mut base_ms = 0.0;
    let max_threads = std::thread::available_parallelism()
        .map(|c| c.get())
        .unwrap_or(8);
    for threads in [1usize, 2, 4, 8, 16] {
        if threads > max_threads * 2 {
            break;
        }
        let t = Instant::now();
        let _ = map_ordered(&graphs, threads, |g| backend.score(&Adder, g));
        let ms = t.elapsed().as_secs_f64() * 1000.0;
        if threads == 1 {
            base_ms = ms;
        }
        report.row(
            "parallel_synthesis",
            json!({"workers": threads}),
            json!({"wall_ms": ms, "speedup": base_ms / ms}),
        );
    }

    // --- Cache hit rate during training -----------------------------------
    for width in [8u16, 12, 16] {
        let ev = Arc::new(Evaluator::synthesis(
            Adder,
            lib.clone(),
            SweepConfig::fast(),
            0.5,
        ));
        let mut cfg = AgentConfig::small(width, 0.5, STEPS);
        cfg.env = prefixrl_core::env::EnvConfig::synthesis(width);
        let _ = TrainLoop::run(&cfg, ev.clone());
        let store = ev.store();
        report.row(
            "train_cache_hit_rate",
            json!({"n": width}),
            json!({
                "hit_rate": store.hit_rate(),
                "evaluations": store.hits() + store.misses(),
                "unique_states": store.unique_states(),
            }),
        );
    }

    // --- Actor scaling ----------------------------------------------------
    // Each round the coordinator picks every actor's action (one batched
    // Q-network forward over the greedy ones), the actors step their
    // environments on their own threads, and the coordinator pushes the
    // transitions and trains. Each environment step is one policy
    // decision, so env-steps/s is decisions/s (wall clock). Analytical
    // scoring keeps the rows inference-bound: actor threads only add hand
    // offs. Synthesis scoring is what the actors parallelize. At
    // `train_every` 0 the learner is idle and the rows measure the decision
    // path alone; at 16 (the train-synthesis setting) they include the
    // actors waiting while the coordinator trains between rounds.
    for (backend, train_every) in [("analytical", 0u64), ("analytical", 16), ("synthesis", 16)] {
        for actors in [1usize, 2, 4, 8] {
            let ev = Arc::new(if backend == "synthesis" {
                Evaluator::synthesis(Adder, lib.clone(), SweepConfig::fast(), 0.5)
            } else {
                Evaluator::analytical(Adder)
            });
            let mut cfg = AgentConfig::small(N, 0.5, STEPS);
            if backend == "synthesis" {
                cfg.env = prefixrl_core::env::EnvConfig::synthesis(N);
            }
            cfg.train_every = train_every;
            cfg.actors = actors;
            let t = Instant::now();
            let result = TrainLoop::run(&cfg, ev.clone());
            let steps_per_sec = STEPS as f64 / t.elapsed().as_secs_f64();
            report.row(
                "lockstep_actors",
                json!({"backend": backend, "actors": actors, "train_every": train_every}),
                json!({
                    "steps_per_sec": steps_per_sec,
                    "grad_steps": result.losses.len(),
                    "cache_hit_rate": ev.store().hit_rate(),
                    "designs": result.designs.len(),
                }),
            );
        }
    }
    report.write();
}
