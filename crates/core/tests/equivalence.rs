//! Cross-path equivalence: one-actor and multi-actor training and batch
//! evaluation must agree — same shared policy, same evaluator semantics,
//! same cache accounting — no matter which path a design took to
//! evaluation.

use prefix_graph::{structures, PrefixGraph};
use prefixrl_core::agent::{AgentConfig, TrainLoop};
use prefixrl_core::evaluator::{Evaluator, ObjectivePoint};
use prefixrl_core::experiment::{Experiment, Weights};
use prefixrl_core::parallel::evaluate_batch;
use prefixrl_core::task::Adder;
use std::sync::Arc;

/// One-actor and four-actor runs harvest legal designs with comparable
/// Pareto frontiers at N = 8 and N = 16: both fronts weakly improve on the
/// two episode start states (which every reset records) and explore design
/// pools of the same order of magnitude.
#[test]
fn serial_and_async_frontiers_comparable() {
    for n in [8u16, 16] {
        let mut cfg = AgentConfig::tiny(n, 0.5);
        cfg.total_steps = if n == 8 { 400 } else { 300 };
        let serial = TrainLoop::run(&cfg, Arc::new(Evaluator::analytical(Adder)));
        cfg.actors = 4;
        let parallel = TrainLoop::run(&cfg, Arc::new(Evaluator::analytical(Adder)));

        for result in [&serial, &parallel] {
            assert!(result.designs.len() > 10, "n={n}: too few designs");
            for (g, _) in &result.designs {
                g.verify_legal().unwrap();
            }
        }
        let serial_front = serial.front();
        let parallel_front = parallel.front();
        let eval = Evaluator::analytical(Adder);
        for start in [
            eval.evaluate(&PrefixGraph::ripple(n)),
            eval.evaluate(&structures::sklansky(n)),
        ] {
            for (front, path) in [(&serial_front, "serial"), (&parallel_front, "4 actors")] {
                let area = front
                    .area_at_delay(start.delay)
                    .unwrap_or_else(|| panic!("n={n} {path}: start delay unreachable"));
                assert!(
                    area <= start.area,
                    "n={n} {path}: front must weakly improve on start states"
                );
            }
        }
        let (a, b) = (serial.designs.len() as f64, parallel.designs.len() as f64);
        assert!(
            a / b < 4.0 && b / a < 4.0,
            "n={n}: 1 actor {a} vs 4 actors {b}"
        );
    }
}

/// The acceptance workload: training at 4 actors over the shared
/// cache on the N=8 analytical setting shows a nonzero cache hit rate
/// (start states recur on every episode reset).
#[test]
fn four_actor_training_hits_shared_cache() {
    let mut cfg = AgentConfig::tiny(8, 0.5);
    cfg.total_steps = 400;
    cfg.actors = 4;
    let cache = Arc::new(Evaluator::analytical(Adder));
    let result = TrainLoop::run(&cfg, cache.clone());
    assert!(!result.designs.is_empty());
    let store = cache.store();
    assert!(
        store.hit_rate() > 0.0,
        "4-actor N=8 analytical training must reuse cached states \
         (hits {} / misses {})",
        store.hits(),
        store.misses()
    );
}

/// `evaluate_batch` must equal per-graph `evaluate` through the shared
/// cache, cold and warm, at various thread budgets.
#[test]
fn evaluate_batch_equivalent_to_evaluate() {
    let graphs: Vec<PrefixGraph> = vec![
        PrefixGraph::ripple(16),
        structures::sklansky(16),
        structures::kogge_stone(16),
        structures::brent_kung(16),
        structures::han_carlson(16),
        structures::ladner_fischer(16),
        structures::sparse_kogge_stone(16, 4),
    ];
    let warm = Evaluator::analytical(Adder);
    let reference: Vec<ObjectivePoint> = graphs.iter().map(|g| warm.evaluate(g)).collect();
    for threads in [1usize, 2, 5, 16] {
        assert_eq!(
            evaluate_batch(&graphs, &Evaluator::analytical(Adder), threads),
            reference,
            "cold, threads={threads}"
        );
        assert_eq!(
            evaluate_batch(&graphs, &warm, threads),
            reference,
            "warm, threads={threads}"
        );
    }
}

/// Cache hit/miss accounting stays exact under concurrent access:
/// every query is either a hit or a miss, and misses equal distinct states
/// once all threads have finished.
#[test]
fn sharded_cache_accounting_under_concurrency() {
    let cache = Arc::new(Evaluator::analytical(Adder));
    let graphs: Vec<PrefixGraph> = (0..6u16)
        .map(|i| {
            let mut g = PrefixGraph::ripple(12);
            g.apply(prefix_graph::Action::Add(prefix_graph::Node::new(9 - i, 2)))
                .unwrap();
            g
        })
        .collect();
    let threads = 8;
    let rounds = 5;
    std::thread::scope(|s| {
        for _ in 0..threads {
            let cache = Arc::clone(&cache);
            let graphs = graphs.clone();
            s.spawn(move || {
                for _ in 0..rounds {
                    for g in &graphs {
                        cache.evaluate(g);
                    }
                }
            });
        }
    });
    let total = (threads * rounds * graphs.len()) as u64;
    assert_eq!(
        cache.store().hits() + cache.store().misses(),
        total,
        "no query lost"
    );
    assert_eq!(cache.store().unique_states(), graphs.len());
    // With in-flight dedup, each distinct state is evaluated exactly once.
    assert_eq!(cache.store().misses(), graphs.len() as u64);
}

/// The session layer adds orchestration, not semantics: a single-weight
/// `Experiment` run produces exactly the designs and losses of a direct
/// `TrainLoop` run with the same configuration.
#[test]
fn experiment_single_run_matches_direct_loop() {
    let base = AgentConfig::tiny(8, 0.5);
    let exp = Experiment::builder()
        .n(8)
        .weights(Weights::single(0.5))
        .seed(0)
        .base_config(base.clone())
        .build();
    let via_experiment = exp.run_quiet().unwrap();
    // The builder applies the same weight/seed the base already has.
    let direct = TrainLoop::run(&base, Arc::new(Evaluator::analytical(Adder)));
    let record = &via_experiment.records[0];
    assert_eq!(record.steps, direct.steps);
    assert_eq!(record.losses, direct.losses);
    assert_eq!(record.designs.len(), direct.designs.len());
    for ((ga, pa), (gb, pb)) in record.designs.iter().zip(&direct.designs) {
        assert_eq!(ga.canonical_key(), gb.canonical_key());
        assert_eq!(pa, pb);
    }
}
