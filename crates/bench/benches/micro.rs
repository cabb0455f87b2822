//! Criterion micro-benchmarks for the core primitives: environment steps,
//! legalization, synthesis (Table I's synthesis-time row), Q-network
//! training iterations (Table I's train-iteration row), replay sampling,
//! PCHIP evaluation and Pareto maintenance.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use netlist::Library;
use prefix_graph::{structures, Action, Node, PrefixGraph};
use prefixrl_core::env::{EnvConfig, PrefixEnv};
use prefixrl_core::evaluator::ObjectivePoint;
use prefixrl_core::pareto::ParetoFront;
use prefixrl_core::qnet::{PrefixQNet, QNetConfig};
use prefixrl_core::task::{Adder, TaskEvaluator};
use rand::{Rng, SeedableRng};
use rl::QNetwork;
use std::hint::black_box;
use std::sync::Arc;
use synth::sweep::{sweep_graph, SweepConfig};

fn bench_graph_ops(c: &mut Criterion) {
    let mut g = c.benchmark_group("prefix_graph");
    for n in [16u16, 32, 64] {
        g.bench_function(format!("legalize_add_{n}b"), |b| {
            let base = PrefixGraph::ripple(n);
            b.iter_batched(
                || base.clone(),
                |mut graph| {
                    graph
                        .apply(Action::Add(Node::new(n - 2, 2)))
                        .expect("legal");
                    black_box(graph)
                },
                BatchSize::SmallInput,
            )
        });
        g.bench_function(format!("features_{n}b"), |b| {
            let graph = structures::sklansky(n);
            b.iter(|| black_box(prefix_graph::features::extract(&graph)))
        });
        g.bench_function(format!("analytical_eval_{n}b"), |b| {
            let graph = structures::kogge_stone(n);
            b.iter(|| black_box(prefix_graph::analytical::evaluate(&graph)))
        });
    }
    g.finish();
}

/// A walk of `steps` legal actions drawn uniformly from ripple by a seeded
/// generator: the dense, high-fanout states an exploring agent visits.
fn random_walk(n: u16, seed: u64, steps: usize) -> PrefixGraph {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let mut graph = PrefixGraph::ripple(n);
    for _ in 0..steps {
        let actions = graph.legal_actions();
        graph
            .apply(actions[rng.random_range(0..actions.len())])
            .expect("legal");
    }
    graph
}

fn bench_synthesis(c: &mut Criterion) {
    let lib = Library::nangate45();
    let mut g = c.benchmark_group("synthesis");
    g.sample_size(10);
    for n in [16u16, 32, 64] {
        let graph = structures::sklansky(n);
        g.bench_function(format!("sweep4_sklansky_{n}b"), |b| {
            b.iter(|| black_box(sweep_graph(&graph, &lib, &SweepConfig::paper())))
        });
    }
    // What `train-synthesis` scores: random-walk adder states under the
    // `fast()` effort it trains with. One iteration sweeps all `states`
    // states, so ns/iter over `states` is the mean sweep of one.
    for (n, steps, states) in [(16u16, 60usize, 16u64), (32, 120, 8), (64, 200, 4)] {
        let graphs: Vec<PrefixGraph> = (0..states)
            .map(|seed| random_walk(n, seed, steps))
            .collect();
        g.bench_function(format!("sweep4_fast_{states}walks_{n}b"), |b| {
            b.iter(|| {
                for graph in &graphs {
                    black_box(sweep_graph(graph, &lib, &SweepConfig::fast()));
                }
            })
        });
    }
    g.finish();
}

fn bench_env_step(c: &mut Criterion) {
    let mut g = c.benchmark_group("env");
    g.bench_function("step_analytical_16b", |b| {
        let env = PrefixEnv::new(
            EnvConfig::analytical(16),
            Arc::new(TaskEvaluator::analytical(Adder)),
        );
        b.iter_batched(
            || {
                let mut e = PrefixEnv::new(
                    EnvConfig::analytical(16),
                    Arc::new(TaskEvaluator::analytical(Adder)),
                );
                let _ = &env;
                e.reset(&mut rand::rngs::StdRng::seed_from_u64(0));
                e
            },
            |mut e| {
                let mask = e.action_mask();
                let a = mask.iter().position(|&m| m).unwrap();
                black_box(e.step_flat(a))
            },
            BatchSize::SmallInput,
        )
    });
    g.finish();
}

fn bench_qnet(c: &mut Criterion) {
    let mut g = c.benchmark_group("qnet");
    g.sample_size(10);
    for (n, batch) in [(8u16, 12usize), (16, 12)] {
        let mut q = PrefixQNet::new(&QNetConfig::small(n));
        let env = PrefixEnv::new(
            EnvConfig::analytical(n),
            Arc::new(TaskEvaluator::analytical(Adder)),
        );
        let f = env.features();
        g.bench_function(format!("train_iteration_{n}b_batch{batch}"), |b| {
            b.iter(|| {
                let states: Vec<&[f32]> = (0..batch).map(|_| f.as_slice()).collect();
                let _ = q.forward(&states);
                let grad = vec![vec![[1e-3f32; 2]; q.num_actions()]; batch];
                q.apply_gradient(&grad);
            })
        });
        let mut scratch = nn::Scratch::new();
        g.bench_function(format!("forward_single_{n}b"), |b| {
            b.iter(|| black_box(q.infer(&[f.as_slice()], &mut scratch)))
        });
    }
    g.finish();
}

fn bench_replay_and_curve(c: &mut Criterion) {
    let mut g = c.benchmark_group("support");
    g.bench_function("replay_sample_64", |b| {
        let mut buf = rl::ReplayBuffer::new(10_000);
        for i in 0..5_000 {
            buf.push(rl::Transition {
                state: vec![i as f32; 64],
                action: i % 10,
                reward: [0.0, 0.0],
                next_state: vec![0.0; 64],
                next_mask: vec![true; 10],
                done: false,
            });
        }
        let mut rng = rand::rngs::StdRng::seed_from_u64(0);
        b.iter(|| black_box(buf.sample(&mut rng, 64)))
    });
    g.bench_function("pchip_query", |b| {
        let curve = synth::AreaDelayCurve::from_samples(&[
            (0.3, 4000.0),
            (0.35, 3200.0),
            (0.45, 2800.0),
            (0.6, 2500.0),
        ]);
        b.iter(|| black_box(curve.area_at(0.42)))
    });
    g.bench_function("pareto_insert_1000", |b| {
        b.iter(|| {
            let mut front: ParetoFront<usize> = ParetoFront::new();
            for i in 0..1000usize {
                let x = (i % 97) as f64;
                front.insert(
                    ObjectivePoint {
                        area: 100.0 + (x * 13.0) % 311.0,
                        delay: 1.0 + ((x * 7.0) % 101.0) / 50.0,
                    },
                    i,
                );
            }
            black_box(front)
        })
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_graph_ops,
    bench_synthesis,
    bench_env_step,
    bench_qnet,
    bench_replay_and_curve
);
criterion_main!(benches);
