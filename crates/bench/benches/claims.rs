//! The paper's evidence — Figs. 4–7 and Table I — in one harness that
//! writes `BENCH_claims.json` (`prefixrl.bench.v1`, DESIGN.md §7).
//!
//! Four experiments feed every figure. Each is one `Experiment` over one
//! shared cache; with synthesis in the loop its one backend scores at the
//! sweep's median weight (DESIGN.md §10):
//!
//! 1. synthesis at 8b (nangate45) → Fig. 4a; seven spread members of its
//!    merged front are the Fig. 5 8b transfer set;
//! 2. synthesis at 16b → Fig. 4b and the Fig. 5 16b transfer set;
//! 3. analytical at 12b → Figs. 6a/6b; each run's best scalarized design
//!    is a Fig. 7 solution;
//! 4. one-weight synthesis at 12b → Fig. 6b's synthesis-in-the-loop series.
//!
//! Widths and budgets are CPU-sized (the paper's 32b/64b sweeps take
//! 500,000 steps × 15 weights) and keep each figure's qualitative shape.
//! A front row is `{n, series}` → `{front: [{area, delay, label}]}`; the
//! `prefixrl` row also carries `saving_vs` every other series of its
//! figure (`null` where the two fronts share no delay range) and its
//! experiment's cache and design counts under `training`. In Fig. 6a
//! `prefixrl` is experiment 3's designs scored analytically; in Fig. 6b it
//! is experiment 4, and `analytical_prefixrl` is experiment 3's designs
//! after synthesis. Every value is one run.
//!
//! `cargo bench -p prefixrl-bench --bench claims`

use baselines::commercial::commercial_sweep;
use baselines::crosslayer::{cross_layer, CrossLayerConfig};
use baselines::pruned::{pruned_search, PrunedSearchConfig};
use baselines::sa::{sa_frontier, SaConfig};
use netlist::Library;
use prefix_graph::{structures, PrefixGraph};
use prefixrl_bench::{front_json, spread_front, time_per_call, Report};
use prefixrl_core::agent::AgentConfig;
use prefixrl_core::env::{EnvConfig, PrefixEnv};
use prefixrl_core::evaluator::ObjectivePoint;
use prefixrl_core::experiment::{Experiment, ExperimentResult, Weights};
use prefixrl_core::frontier::sweep_task_front;
use prefixrl_core::pareto::ParetoFront;
use prefixrl_core::qnet::{PrefixQNet, QNetConfig};
use prefixrl_core::task::{
    Adder, AnalyticalBackend, CircuitTask, ObjectiveBackend, SynthesisBackend, TaskEvaluator,
};
use rl::QNetwork;
use serde_json::{json, Value};
use std::sync::Arc;
use synth::optimizer::OptimizerConfig;
use synth::sweep::{sweep_graph, SweepConfig};

/// One training experiment: run `i` trains weight `weights[i]` for `steps`
/// environment steps with seed `seed + i`.
struct Training {
    n: u16,
    weights: &'static [f64],
    steps: u64,
    seed: u64,
    synthesis: bool,
}

const FIG4A: Training = Training {
    n: 8,
    weights: &[0.2, 0.45, 0.7, 0.9],
    steps: 1200,
    seed: 100,
    synthesis: true,
};
const FIG4B: Training = Training {
    n: 16,
    weights: &[0.3, 0.6, 0.85],
    steps: 900,
    seed: 200,
    synthesis: true,
};
const FIG6: Training = Training {
    n: 12,
    weights: &[0.1, 0.25, 0.45, 0.7],
    steps: 3500,
    seed: 400,
    synthesis: false,
};
const FIG6_LOOP: Training = Training {
    n: 12,
    weights: &[0.5],
    steps: 900,
    seed: 500,
    synthesis: true,
};

/// Delay targets per design in the Fig. 4 and Fig. 6 sweeps.
const TARGETS: usize = 8;
/// Delay targets per design in the Fig. 5 sweeps, and commercial choices.
const FIG5_TARGETS: usize = 10;
/// Designs kept from each run's front (spread over its delay range).
const FIG4_PER_RUN: usize = 12;
const FIG6_PER_RUN: usize = 10;
/// Designs transferred to the commercial flow (the paper picks seven).
const FIG5_TRANSFER: usize = 7;
/// SA seeds, and Fig. 6's SA delay weights (Fig. 4a's are `1 − w_area`).
const FIG4A_SA_SEED: u64 = 7;
const FIG6_SA_SEED: u64 = 13;
const FIG6_SA_WEIGHTS: [f64; 6] = [0.05, 0.15, 0.3, 0.5, 0.7, 0.9];
/// Fig. 4a's pruned-search pool limit, and PS designs synthesized.
const FIG4A_PS_POOL: usize = 60;
const PS_DESIGNS: usize = 24;
/// `(c_area, c_delay)` of the Fig. 7 scalarization.
const FIG7_SCALING: (f64, f64) = (0.05, 0.25);
/// Table I: widths, and wall clock per timed figure.
const TABLE1_WIDTHS: [u16; 3] = [16, 32, 64];
const TABLE1_MIN_SECS: f64 = 1.0;

impl Training {
    fn config(&self) -> Value {
        json!({
            "n": self.n,
            "weights": self.weights,
            "steps": self.steps,
            "seed": self.seed,
            "backend": if self.synthesis { "synthesis" } else { "analytical" },
        })
    }

    fn run(&self, threads: usize) -> ExperimentResult {
        let mut base = AgentConfig::small(self.n, 0.5, self.steps);
        let backend: Arc<dyn ObjectiveBackend> = if self.synthesis {
            base.env = EnvConfig::synthesis(self.n);
            let median_w = self.weights[self.weights.len() / 2];
            Arc::new(SynthesisBackend::new(
                Library::nangate45(),
                SweepConfig::fast(),
                median_w,
            ))
        } else {
            Arc::new(AnalyticalBackend)
        };
        Experiment::builder()
            .weights(Weights::list(self.weights.to_vec()))
            .seed(self.seed)
            .base_config(base)
            .backend(backend)
            .eval_threads(threads)
            .build()
            .run_quiet()
            .expect("training experiment")
    }
}

/// `per_run` spread members of every run's front, labelled by weight.
fn rl_designs(result: &ExperimentResult, per_run: usize) -> Vec<(String, PrefixGraph)> {
    result
        .records
        .iter()
        .flat_map(|r| {
            spread_front(&r.front(), per_run)
                .into_iter()
                .enumerate()
                .map(move |(k, (_, g))| (format!("PrefixRL(w={:.2})#{k}", r.w_area), g))
        })
        .collect()
}

fn labelled(
    tag: &str,
    graphs: impl IntoIterator<Item = PrefixGraph>,
) -> Vec<(String, PrefixGraph)> {
    graphs
        .into_iter()
        .enumerate()
        .map(|(i, g)| (format!("{tag}#{i}"), g))
        .collect()
}

/// The classical structures of the "Regular" series.
fn regulars(n: u16) -> Vec<(String, PrefixGraph)> {
    [
        ("Sklansky", structures::sklansky as fn(u16) -> PrefixGraph),
        ("KoggeStone", structures::kogge_stone),
        ("BrentKung", structures::brent_kung),
    ]
    .into_iter()
    .map(|(name, ctor)| (name.to_string(), ctor(n)))
    .collect()
}

/// The paper's headline comparison of `ours` against `base`, or `null`
/// when no delay of `base` is reachable by `ours`.
fn saving(ours: &ParetoFront<String>, base: &ParetoFront<String>) -> Value {
    match ours.max_area_saving_vs(base) {
        Some((pct, delay)) => json!({
            "max_area_saving_pct": pct,
            "at_delay": delay,
            "dominates": ours.pareto_dominates(base),
        }),
        None => Value::Null,
    }
}

/// Records one figure of `trained`'s width: the `prefixrl` row, carrying
/// its saving against every other series and the experiment's training
/// figures, then a row per other series.
fn figure(
    report: &mut Report,
    scenario: &str,
    trained: &ExperimentResult,
    ours: &ParetoFront<String>,
    others: &[(&str, &ParetoFront<String>)],
) {
    let n = trained.n;
    let training = json!({
        "backend": trained.backend,
        "hit_rate": trained.cache.hit_rate,
        "unique_states": trained.cache.unique_states,
        "designs_per_run": trained.records.iter().map(|r| r.designs.len()).collect::<Vec<_>>(),
    });
    let saving_vs = others
        .iter()
        .map(|&(name, front)| (name.to_string(), saving(ours, front)))
        .collect();
    report.row(
        scenario,
        json!({"n": n, "series": "prefixrl"}),
        json!({"front": front_json(ours), "saving_vs": Value::Object(saving_vs), "training": training}),
    );
    for &(name, front) in others {
        report.row(
            scenario,
            json!({"n": n, "series": name}),
            json!({"front": front_json(front)}),
        );
    }
}

/// Fig. 5: `result`'s transfer set, the regular adders and the tool's own
/// architecture choices, all synthesized with commercial effort on tech8.
fn fig5(report: &mut Report, result: &ExperimentResult, threads: usize) {
    let n = result.n;
    let lib = Library::tech8();
    let cfg = SweepConfig::commercial();
    let transfer = labelled(
        "PrefixRL",
        spread_front(&result.merged_front(), FIG5_TRANSFER)
            .into_iter()
            .map(|(_, g)| g),
    );
    let rl = sweep_task_front(&Adder, &transfer, &lib, &cfg, FIG5_TARGETS, threads);
    let regular = sweep_task_front(&Adder, &regulars(n), &lib, &cfg, FIG5_TARGETS, threads);
    let commercial: ParetoFront<String> =
        commercial_sweep(n, &lib, &OptimizerConfig::commercial(), FIG5_TARGETS)
            .into_iter()
            .map(|c| {
                let point = ObjectivePoint {
                    area: c.area,
                    delay: c.delay,
                };
                (point, format!("Commercial[{}]", c.architecture))
            })
            .collect();
    let others = [("regular", &regular), ("commercial", &commercial)];
    figure(report, "fig5", result, &rl, &others);
}

/// Table I: the action space, per-state synthesis time (Sklansky at the
/// paper's four targets) and one training iteration of the CPU Q-network.
fn table1(report: &mut Report) {
    let lib = Library::nangate45();
    for n in TABLE1_WIDTHS {
        let sklansky = structures::sklansky(n);
        let synthesis = time_per_call(
            || drop(sweep_graph(&sklansky, &lib, &SweepConfig::paper())),
            TABLE1_MIN_SECS,
        );
        let qcfg = QNetConfig::small(n);
        let batch = if n == 64 { 4 } else { 12 };
        let mut q = PrefixQNet::new(&qcfg);
        let env = PrefixEnv::new(
            EnvConfig::analytical(n),
            Arc::new(TaskEvaluator::analytical(Adder)),
        );
        let features = env.features();
        let states = vec![features.as_slice(); batch];
        let grad = vec![vec![[1e-3f32; 2]; q.num_actions()]; batch];
        let train = time_per_call(
            || {
                q.forward(&states);
                q.apply_gradient(&grad);
            },
            TABLE1_MIN_SECS,
        );
        report.row(
            "table1",
            json!({"n": n}),
            json!({
                "action_space": PrefixGraph::ripple(n).interior_positions(),
                "synthesis_ms": synthesis * 1e3,
                "train_iteration_ms": train * 1e3,
                "blocks": qcfg.blocks,
                "channels": qcfg.channels,
                "batch": batch,
            }),
        );
    }
}

fn main() {
    let threads = std::thread::available_parallelism().map_or(4, |c| c.get());
    let mut report = Report::new(
        "claims",
        json!({
            "experiments": {
                "fig4a": FIG4A.config(),
                "fig4b": FIG4B.config(),
                "fig6": FIG6.config(),
                "fig6_loop": FIG6_LOOP.config(),
            },
            "agent": "AgentConfig::small",
            "library": "nangate45",
            "sweep": "SweepConfig::paper",
            "targets": TARGETS,
            "per_run": {"fig4": FIG4_PER_RUN, "fig6": FIG6_PER_RUN},
            "fig5": {"library": "tech8", "sweep": "SweepConfig::commercial", "targets": FIG5_TARGETS, "transfer": FIG5_TRANSFER},
            "sa": {"config": "SaConfig::default", "fig4a_seed": FIG4A_SA_SEED, "fig6_seed": FIG6_SA_SEED, "fig6_weights": FIG6_SA_WEIGHTS},
            "ps": {"config": "PrunedSearchConfig::fast", "fig4a_pool_limit": FIG4A_PS_POOL, "designs": PS_DESIGNS},
            "cl": "CrossLayerConfig::fast",
            "fig7_scaling": [FIG7_SCALING.0, FIG7_SCALING.1],
            "table1": {"qnet": "QNetConfig::small", "min_secs": TABLE1_MIN_SECS},
        }),
    );
    let lib = Library::nangate45();
    let paper = SweepConfig::paper();
    let sweep = |designs: &[(String, PrefixGraph)]| {
        sweep_task_front(&Adder, designs, &lib, &paper, TARGETS, threads)
    };

    // Fig. 4a: PrefixRL against the regular adders, SA and PS.
    let fig4a = FIG4A.run(threads);
    let n = FIG4A.n;
    let sa_weights: Vec<f64> = FIG4A.weights.iter().map(|w| 1.0 - w).collect();
    let sa = labelled(
        "SA",
        sa_frontier(n, &sa_weights, &SaConfig::default(), FIG4A_SA_SEED),
    );
    let ps_cfg = PrunedSearchConfig {
        pool_limit: FIG4A_PS_POOL,
        ..PrunedSearchConfig::fast()
    };
    let ps = labelled("PS", pruned_search(n, &ps_cfg).into_iter().take(PS_DESIGNS));
    let others = [
        ("regular", &sweep(&regulars(n))),
        ("sa", &sweep(&sa)),
        ("ps", &sweep(&ps)),
    ];
    let ours = sweep(&rl_designs(&fig4a, FIG4_PER_RUN));
    figure(&mut report, "fig4a", &fig4a, &ours, &others);

    // Fig. 4b: twice the width, against the regular adders and CL, whose
    // selected designs' synthesized knots form its series directly.
    let fig4b = FIG4B.run(threads);
    let n = FIG4B.n;
    let cl: ParetoFront<String> = cross_layer(n, &lib, &CrossLayerConfig::fast())
        .iter()
        .enumerate()
        .flat_map(|(i, d)| {
            d.synthesized
                .iter()
                .map(move |&(area, delay)| (ObjectivePoint { area, delay }, format!("CL#{i}")))
        })
        .collect();
    let others = [("regular", &sweep(&regulars(n))), ("cl", &cl)];
    let ours = sweep(&rl_designs(&fig4b, FIG4_PER_RUN));
    figure(&mut report, "fig4b", &fig4b, &ours, &others);

    // Fig. 5: the Fig. 4 designs, trained on nangate45, moved to tech8.
    fig5(&mut report, &fig4a, threads);
    fig5(&mut report, &fig4b, threads);

    // Fig. 6a: agents trained on the analytical model beat SA and PS
    // under it; Fig. 6b: after synthesis the ordering changes, and
    // synthesis in the loop leads.
    let fig6 = FIG6.run(threads);
    let fig6_loop = FIG6_LOOP.run(threads);
    let n = FIG6.n;
    let analytical_rl = rl_designs(&fig6, FIG6_PER_RUN);
    let sa = labelled(
        "SA",
        sa_frontier(n, &FIG6_SA_WEIGHTS, &SaConfig::default(), FIG6_SA_SEED),
    );
    let ps = labelled(
        "PS",
        pruned_search(n, &PrunedSearchConfig::fast())
            .into_iter()
            .take(PS_DESIGNS),
    );
    let analytical = |designs: &[(String, PrefixGraph)]| -> ParetoFront<String> {
        designs
            .iter()
            .map(|(label, g)| (Adder.analytical(g), label.clone()))
            .collect()
    };
    let others = [("sa", &analytical(&sa)), ("ps", &analytical(&ps))];
    let ours = analytical(&analytical_rl);
    figure(&mut report, "fig6a", &fig6, &ours, &others);
    let others = [
        ("analytical_prefixrl", &sweep(&analytical_rl)),
        ("sa", &sweep(&sa)),
        ("ps", &sweep(&ps)),
    ];
    let ours = sweep(&rl_designs(&fig6_loop, FIG6_PER_RUN));
    figure(&mut report, "fig6b", &fig6_loop, &ours, &others);

    // Fig. 7: each analytical agent's best design at its own weight.
    let (c_area, c_delay) = FIG7_SCALING;
    let mut shown = 0;
    for record in &fig6.records {
        if let Some((g, p)) = record.best_scalarized(record.w_area, c_area, c_delay) {
            report.row(
                "fig7",
                json!({"n": n, "w_area": record.w_area}),
                json!({
                    "size": g.size(),
                    "depth": g.depth(),
                    "max_fanout": g.max_fanout(),
                    "area": p.area,
                    "delay": p.delay,
                    "ascii": prefix_graph::render::ascii(g),
                }),
            );
            shown += 1;
        }
    }
    assert!(shown > 0, "no solutions rendered");

    table1(&mut report);
    report.write();
}
