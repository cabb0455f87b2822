//! Section V-C / IV-D systems claims: parallel synthesis speedup (the paper
//! reports 8× from its asynchronous infrastructure) and synthesis-cache hit
//! rates during training (50% at 32b, 10% at 64b in the paper).

use netlist::Library;
use prefix_graph::{Action, Node, PrefixGraph};
use prefixrl_bench as support;
use prefixrl_core::agent::{AgentConfig, TrainLoop};
use prefixrl_core::cache::CachedEvaluator;
use prefixrl_core::evaluator::Evaluator;
use prefixrl_core::experiment::AsyncRunner;
use prefixrl_core::parallel::evaluate_batch;
use prefixrl_core::task::{Adder, TaskEvaluator};
use std::sync::Arc;
use std::time::Instant;
use synth::sweep::SweepConfig;

fn main() {
    let lib = Library::nangate45();
    let (n, jobs, steps) = match support::scale() {
        support::Scale::Quick => (16u16, 32usize, 600u64),
        support::Scale::Paper => (32u16, 192, 20_000),
    };
    println!("Scaling reproduction (n={n})\n");

    // --- Parallel synthesis speedup --------------------------------------
    // A batch of distinct graphs (ripple + random shortcut patterns).
    let graphs: Vec<PrefixGraph> = (0..jobs)
        .map(|i| {
            let mut g = PrefixGraph::ripple(n);
            let m = 2 + (i as u16 * 3) % (n - 2);
            let l = 1 + (i as u16) % m.max(2).min(n - 2).max(1);
            let node = Node::new(m.max(l + 1), l.min(m.max(l + 1) - 1));
            let _ = g.apply(Action::Add(node));
            g
        })
        .collect();
    let evaluator: Arc<dyn Evaluator> = Arc::new(TaskEvaluator::synthesis(
        Adder,
        lib.clone(),
        SweepConfig::fast(),
        0.5,
    ));
    let mut base_ms = 0.0;
    println!("parallel synthesis of {jobs} states:");
    let max_threads = std::thread::available_parallelism()
        .map(|c| c.get())
        .unwrap_or(8);
    for threads in [1usize, 2, 4, 8, 16] {
        if threads > max_threads * 2 {
            break;
        }
        let t = Instant::now();
        let _ = evaluate_batch(&graphs, &*evaluator, threads);
        let ms = t.elapsed().as_secs_f64() * 1000.0;
        if threads == 1 {
            base_ms = ms;
        }
        println!(
            "  {threads:>2} workers: {ms:>8.1} ms  speedup {:.2}x",
            base_ms / ms
        );
    }

    // --- Cache hit rate during training -----------------------------------
    println!("\ncache hit rate during synthesis-in-loop training:");
    for width in [8u16, 12, 16] {
        let ev = Arc::new(CachedEvaluator::new(TaskEvaluator::synthesis(
            Adder,
            lib.clone(),
            SweepConfig::fast(),
            0.5,
        )));
        let mut cfg = AgentConfig::small(width, 0.5, steps);
        cfg.env = prefixrl_core::env::EnvConfig::synthesis(width);
        let _ = TrainLoop::run(&cfg, ev.clone());
        println!(
            "  {width:>2}b: {:>5.1}% hits over {} evaluations ({} unique states)",
            100.0 * ev.store().hit_rate(),
            ev.store().hits() + ev.store().misses(),
            ev.store().unique_states()
        );
    }

    // --- Async actor/learner throughput ----------------------------------
    // Every actor's greedy forwards go through the cross-actor inference
    // broker (one fused, memoized Q-network forward over the unique
    // pending states per service cycle). Each environment step is one
    // policy decision, so env-steps/s is decisions/s. The analytical
    // evaluator keeps this section *inference-bound* — it isolates the
    // decision path the broker batches, where the synthesis sections above
    // already measure the oracle-bound path. The learner stays idle
    // (`train_every` 0): it keeps the serial runner's schedule, and at the
    // default one gradient step per decision it, not the decision path,
    // would bound the rows.
    println!("\nasync actor/learner (paper Sec. IV-D architecture):");
    let mut rows = Vec::new();
    for actors in [1usize, 2, 4, 8] {
        let ev = Arc::new(CachedEvaluator::new(TaskEvaluator::analytical(Adder)));
        let mut cfg = AgentConfig::small(16, 0.5, steps);
        cfg.train_every = 0;
        let t = Instant::now();
        let result = AsyncRunner::new(actors).train(&cfg, ev.clone());
        let steps_per_sec = steps as f64 / t.elapsed().as_secs_f64();
        println!(
            "  {actors} actors: {steps_per_sec:>6.1} decisions/s \
             ({} designs, hit rate {:.0}%)",
            result.designs.len(),
            100.0 * ev.store().hit_rate(),
        );
        rows.push(support::ScalingRow {
            actors,
            envs_per_actor: cfg.envs_per_actor,
            steps,
            steps_per_sec,
            cache_hit_rate: ev.store().hit_rate(),
            designs: result.designs.len(),
        });
    }
    support::write_bench_scaling(16, &rows);
}
